//! Grayscale image container, PGM I/O, statistics, and the synthetic
//! evaluation corpus used to reproduce the paper's experiments.
//!
//! The paper evaluates on seven classic 512×512 8-bit grayscale test images
//! (*barb, boat, goldhill, lena, mandrill, peppers, zelda*). Those images
//! are not redistributable, so this crate provides [`corpus`] — a set of
//! deterministic synthetic generators, one per original, each tuned to the
//! qualitative character of its namesake (smooth portrait, oriented fabric
//! texture, high-frequency fur, …). Absolute bit rates on the stand-ins
//! differ from the paper's, so the reproduction compares codecs by their
//! orderings. [`pgm`] I/O is provided so the real images can be used when
//! available.
//!
//! # Examples
//!
//! ```
//! use cbic_image::{corpus::CorpusImage, Image};
//!
//! let img: Image = CorpusImage::Lena.generate(64, 64);
//! assert_eq!(img.dimensions(), (64, 64));
//! let entropy = img.entropy();
//! assert!(entropy > 0.0 && entropy <= 8.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec_trait;
pub mod corpus;
mod error;
pub mod framing;
mod image;
mod options;
pub mod pgm;
pub mod registry;
pub mod synth;
mod view;

#[cfg(test)]
mod proptests;

pub use codec_trait::{Codec, CountingSink, EncodeStats};
pub use error::CbicError;
pub use image::{max_val_for, Image, ImageError};
pub use options::{DecodeOptions, EncodeOptions, Parallelism, Rect};
pub use registry::{CodecRegistry, RegistryError};
pub use view::{ImageView, ImageViewMut};
