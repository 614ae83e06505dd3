//! # cbic — context-based lossless image compression
//!
//! A complete Rust reproduction of *"Hardware Architecture for Lossless
//! Image Compression Based on Context-based Modeling and Arithmetic
//! Coding"* (Chen, Canagarajah, Nunez-Yanez & Vitulli, IEEE SOCC 2007):
//! the paper's codec, every substrate it depends on, every baseline it
//! compares against, and an analytic model of its FPGA implementation.
//!
//! This crate is a facade: each subsystem lives in its own workspace crate
//! and is re-exported here under a short module name.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `cbic-core` | the paper's codec (GAP-lite prediction, 512 compound contexts, error feedback, arithmetic coding) |
//! | [`arith`] | `cbic-arith` | binary arithmetic coder + tree probability estimator |
//! | [`image`] | `cbic-image` | image container, PGM I/O, synthetic corpus |
//! | [`hw`] | `cbic-hw` | division LUT, pipeline simulator, resource estimator, memory model |
//! | [`bitio`] | `cbic-bitio` | MSB-first bit reader/writer |
//! | [`rice`] | `cbic-rice` | Golomb-Rice coding |
//! | [`jpegls`] | `cbic-jpegls` | JPEG-LS (LOCO-I) baseline |
//! | [`calic`] | `cbic-calic` | CALIC baseline |
//! | [`slp`] | `cbic-slp` | SLP(M0) baseline (reconstruction) |
//!
//! # Quickstart
//!
//! ```
//! use cbic::core::{compress, decompress, CodecConfig};
//! use cbic::image::corpus::CorpusImage;
//!
//! let img = CorpusImage::Lena.generate(64, 64);
//! let bytes = compress(img.view(), &CodecConfig::default());
//! assert_eq!(decompress(&bytes)?, img);
//! println!(
//!     "compressed {} pixels into {} bytes",
//!     img.pixel_count(),
//!     bytes.len()
//! );
//! # Ok::<(), cbic::core::CodecError>(())
//! ```
//!
//! See `README.md` for the architecture overview. Its Experiments section
//! and `cargo bench -p cbic-bench --bench tables` give the paper-vs-measured
//! record of every table and figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cbic_arith as arith;
pub use cbic_bitio as bitio;
pub use cbic_calic as calic;
pub use cbic_core as core;
pub use cbic_hw as hw;
pub use cbic_image as image;
pub use cbic_jpegls as jpegls;
pub use cbic_rice as rice;
pub use cbic_slp as slp;

pub use cbic_image::{
    CbicError, Codec, CodecRegistry, CountingSink, DecodeOptions, EncodeOptions, Parallelism, Rect,
};
pub use cbic_universal::codecs::{all_codecs, default_registry};
