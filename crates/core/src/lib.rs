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
//! [`engine::PixelEngine`]; the raw codec functions, the hardware model
//! ([`hwpipe`]), the bounded-memory [`stream`] layer, the reusable
//! [`session`]s, and the [`tiles`] band workers are all front ends over
//! that one datapath (see the [`engine`] module for the stage map).
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
//! # Ok::<(), cbic_core::CodecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bigctx;
pub mod codec;
pub mod container;
pub mod context;
pub mod engine;
pub mod grid;
pub mod hwpipe;
pub mod neighborhood;
pub mod predictor;
pub mod remap;
pub mod session;
pub mod stream;
pub mod tiles;

pub use bigctx::WideConfig;
pub use codec::{
    decode_raw, encode_model_only, encode_raw, CodecConfig, DivisionKind, EncodeStats, ModelMode,
};
pub use container::{compress, decompress, CodecError, Proposed};
pub use engine::{DecoderState, EncoderState, PixelEngine};
pub use grid::{
    compress_grid, decode_roi, decode_roi_any, decode_roi_from, decompress_grid, TileGeometry,
};
pub use session::{DecoderSession, EncoderSession};
pub use stream::{StreamDecoder, StreamEncodeStats, StreamEncoder};
pub use tiles::{Parallelism, Tiled};

#[cfg(test)]
mod proptests;
