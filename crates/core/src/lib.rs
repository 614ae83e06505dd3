//! The paper's contribution: context-based lossless grayscale image
//! compression with gradient-adjusted prediction, compound-context error
//! feedback, and tree-driven binary arithmetic coding
//! (Chen, Canagarajah, Nunez-Yanez & Vitulli, IEEE SOCC 2007).
//!
//! # Pipeline
//!
//! For every pixel `X` in raster order (Sections II–III of the paper):
//!
//! 1. **Gradients** `dv`, `dh` over the 7-pixel causal neighbourhood
//!    `{W, WW, N, NN, NE, NW, NNE}` ([`neighborhood`], [`predictor`]).
//! 2. **Primary prediction** `X̂` via the simplified gradient-adjusted
//!    predictor (add/sub/shift only).
//! 3. **Compound context**: a 6-bit texture pattern `t` (six neighbours
//!    compared against `X̂`) and a 3-bit coding-context index `QE`
//!    (quantized error energy `Δ = dh + dv + 2|e_W|`) — **512 contexts**
//!    ([`context`]).
//! 4. **Error feedback**: the context's running error mean
//!    `ē = sum / count` (5-bit count, 13-bit + sign sum, LUT division,
//!    overflow-guard aging) corrects the prediction: `X̃ = X̂ + ē`.
//! 5. **Error mapping**: `e = X − X̃` is wrapped mod `2ⁿ` and zig-zag
//!    folded into the `0..2ⁿ` alphabet ([`remap`]).
//! 6. **Entropy coding**: the folded error is coded by the `QE`-th dynamic
//!    tree of the probability estimator through the binary arithmetic coder
//!    (`cbic-arith`); depths above 8 bits factor the alphabet into a
//!    high-bits bank plus the 8-bit low byte
//!    ([`SampleCoder`](codec::SampleCoder)).
//!
//! The decoder runs the identical model on the reconstructed pixels, so
//! compression is fully lossless. Pixels flow in as zero-copy
//! [`ImageView`](cbic_image::ImageView)s at any 8–16-bit depth.
//!
//! The whole pipeline is implemented **once**, as the table-driven
//! [`engine::PixelEngine`] with one row step per direction; the raw codec
//! functions, the bounded-memory [`stream`] layer (the caller's row plus
//! the two above it: the hardware's three line buffers), the reusable
//! [`session`]s, and the [`grid`] tile workers are all front ends over
//! that one loop (see the [`engine`] module for the stage map).
//!
//! Section V's multi-core idea — independent partitions, one codec
//! instance each — is the [`grid`] module's version-4 container: a grid
//! of independently decodable tiles with a seekable index, coded on one
//! tile scheduler.
//!
//! # Entry points
//!
//! One call per use case. Every whole-container decode reads the header
//! once, then streams a flat container through [`StreamDecoder`] or hands
//! a grid to the grid's one tile loop.
//!
//! | use case | encode | decode |
//! |---|---|---|
//! | one-shot buffer | [`compress`] | [`decompress`] |
//! | streamed rows | [`StreamEncoder`] | [`StreamDecoder`] |
//! | reusable session | [`EncoderSession`] | [`DecoderSession`] |
//! | tile grid (v4) | [`grid::compress_grid_with_bits`] | [`decompress_grid`] |
//! | crop | — | [`decode_roi`], [`decode_roi_from`] |
//! | codec registry | [`Proposed`] | [`Proposed`] |
//! | ledger stages | [`encode_raw`], [`encode_model_only`] | [`decode_raw`], [`DecoderState`] |
//!
//! # Examples
//!
//! ```
//! use cbic_core::{compress, decompress, CodecConfig};
//! use cbic_image::corpus::CorpusImage;
//!
//! let img = CorpusImage::Lena.generate(64, 64);
//! let bytes = compress(img.view(), &CodecConfig::default());
//! let restored = decompress(&bytes)?;
//! assert_eq!(img, restored);
//! # Ok::<(), cbic_image::CbicError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod coder_thread;
pub mod container;
pub mod context;
pub mod engine;
pub mod grid;
pub mod neighborhood;
pub mod predictor;
pub mod remap;
pub mod session;
pub mod stream;

pub use cbic_image::Parallelism;
pub use codec::{
    decode_raw, encode_model_only, encode_raw, CodecConfig, DivisionKind, EncodeStats,
};
pub use container::{compress, decompress, Proposed};
pub use engine::{DecoderState, EncoderState, PixelEngine};
pub use grid::{compress_grid, decode_roi, decode_roi_from, decompress_grid, TileGeometry};
pub use session::{DecoderSession, EncoderSession};
pub use stream::{StreamDecoder, StreamEncodeStats, StreamEncoder};

#[cfg(test)]
mod proptests;
