//! Hardware model of the paper's FPGA implementation.
//!
//! The paper's Section V results (Table 2, the 123 MHz clock, the 3.7 KB /
//! 4 KB memory budgets) come from Xilinx ISE synthesis for a Virtex-4 —
//! hardware we do not have. This crate substitutes an analytic model with
//! four parts:
//!
//! * [`divlut`] — the paper's **1 KByte lookup-table divider** used by the
//!   error-feedback stage (`ē = sum / count` with the dividend bounded to
//!   10 bits). This is *functional*: the image codec in `cbic-core` calls
//!   it on its coding path, exactly as the RTL would.
//! * [`pipeline`] — a cycle-level simulator of the paper's two-line
//!   pipelined modeling architecture feeding a bit-serial arithmetic coder,
//!   used to derive throughput at the paper's 123 MHz.
//! * [`resources`] — a Virtex-4-style (4-input LUT, 2 LUT + 2 FF per slice)
//!   resource estimator over datapath inventories of the three modules in
//!   Table 2.
//! * [`memory`] — exact SRAM accounting for the modeling and probability
//!   estimator memories; reproduces the paper's 3.7 KB and 4 KB figures.
//!
//! # Examples
//!
//! ```
//! use cbic_hw::divlut::DivLut;
//!
//! let lut = DivLut::new();
//! // Approximate 500 / 23 (exact: 21).
//! let q = lut.div(500, 23);
//! assert!((q - 21i32).abs() <= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod divlut;
pub mod memory;
pub mod pipeline;
pub mod resources;

#[cfg(test)]
mod proptests;
