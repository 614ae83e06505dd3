//! The workspace codec registry.
//!
//! [`codecs::all_codecs`] lists the four Table 1 codecs — the paper's
//! scheme and its three baselines — and [`codecs::default_registry`]
//! registers them for name lookup and magic-byte auto-detection. The CLI,
//! the server, the bench harnesses and the benchmark of record all
//! enumerate codecs from here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codecs;
