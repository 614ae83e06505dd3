//! Compression-as-a-service over the workspace codec registry: a TCP
//! front end that keeps the paper codec's model state resident between
//! requests.
//!
//! The service speaks a length-framed binary [`protocol`]: ENCODE routes
//! raw samples to a codec by container magic, DECODE/PROBE route
//! containers by auto-detection, METRICS returns the counter registry as
//! text. Each connection has its own thread, which borrows one of a pool
//! of reusable `EncoderSession`/`DecoderSession` sets for the length of
//! one request — the per-request cost is a model *reset*, not a model
//! *allocation*, and an idle socket holds no session (see [`server`]).
//!
//! Overload is explicit: connections beyond the pool plus its bounded
//! queue are answered `Busy` at once, oversized frames are refused before
//! their body is read, idle sockets time out, and `SIGTERM` drains
//! in-flight work before the process exits ([`signal`]).
//!
//! Two binaries ship with the crate: `cbic-serve` (the daemon) and
//! `cbic-loadgen` (a closed-loop load harness that checks bit-exact
//! round-trips and writes `BENCH_server.json`).
//!
//! # Examples
//!
//! ```
//! use cbic_image::corpus::CorpusImage;
//! use cbic_server::client::{Client, Reply};
//! use cbic_server::server::{Server, ServerConfig};
//! use std::time::Duration;
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
//! let handle = server.spawn()?;
//!
//! let img = CorpusImage::Lena.generate(16, 16);
//! let mut client = Client::connect(handle.addr(), Duration::from_secs(5))?;
//! let Reply::Encoded { container, .. } =
//!     client.encode(img.view(), *b"CBIC", 1, 0)?
//! else {
//!     panic!("encode refused");
//! };
//! let Reply::Decoded(back) = client.decode(&container)? else {
//!     panic!("decode refused");
//! };
//! assert_eq!(back, img);
//!
//! drop(client);
//! handle.shutdown_and_join()?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod signal;
