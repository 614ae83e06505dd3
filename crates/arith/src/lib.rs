//! Binary arithmetic coding with tree-structured adaptive probability
//! estimation — the entropy-coding back end of Chen et al. (SOCC 2007).
//!
//! The paper (Section IV) encodes 8-bit symbols as the sequence of
//! left/right decisions on the path through a balanced binary tree with one
//! adaptive counter per node, and drives a binary arithmetic coder with the
//! per-node probabilities. This crate is a faithful software model of that
//! back end:
//!
//! * [`BinaryEncoder`] / [`BinaryDecoder`] — an integer binary arithmetic
//!   coder (32-bit registers, follow-bit carry resolution) standing in for
//!   the configurable coder of the paper's reference \[7\]
//!   (Nunez-Yanez & Chouliaras, IEEE Trans. Computers 2005).
//! * [`TreeModel`] — one "dynamic" context tree: 255 internal nodes, each
//!   storing a single frequency counter (the count of *left* outcomes; the
//!   node total is inherited from the parent during descent, which is what
//!   lets the paper fit 9 trees in 4 KBytes of SRAM). Counters are capped at
//!   a configurable bit width (the paper's Fig. 4 sweeps 10–16 bits, picking
//!   14) and the whole tree is halved on overflow, which "ages" statistics
//!   and makes once-seen symbols decay back to probability zero.
//! * [`SymbolCoder`] — the complete estimator of the paper: `N` dynamic
//!   trees (one per coding context; the image codec uses 8), a per-tree
//!   adaptive *escape* decision, and the shared "static" tree that transmits
//!   escaped symbols "as is" (eight equiprobable decisions = 8 bits of code
//!   space).
//!
//! # Examples
//!
//! ```
//! use cbic_arith::{EstimatorConfig, SymbolCoder, BinaryEncoder, BinaryDecoder};
//! use cbic_bitio::{BitReader, BitWriter};
//!
//! let cfg = EstimatorConfig::default();
//! let mut enc = SymbolCoder::new(8, cfg);
//! let mut ac = BinaryEncoder::new(BitWriter::new());
//! for (ctx, sym) in [(0usize, 42u8), (1, 42), (0, 7)] {
//!     enc.encode(&mut ac, ctx, sym);
//! }
//! let bytes = ac.finish().into_bytes();
//!
//! let mut dec = SymbolCoder::new(8, cfg);
//! let mut ad = BinaryDecoder::new(BitReader::new(&bytes));
//! assert_eq!(dec.decode(&mut ad, 0), 42);
//! assert_eq!(dec.decode(&mut ad, 1), 42);
//! assert_eq!(dec.decode(&mut ad, 0), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod bincoder;
mod coder;
mod stats;
mod tree;

pub use adaptive::AdaptiveBit;
pub use bincoder::{
    BinaryDecoder, BinaryEncoder, CountingEncoder, DecisionDecoder, DecisionEncoder,
};
pub use coder::{DecisionsPerSymbol, EstimatorConfig, SymbolCoder};
pub use stats::CoderStats;
pub use tree::{DecisionPath, TreeModel};

#[cfg(test)]
mod proptests;
