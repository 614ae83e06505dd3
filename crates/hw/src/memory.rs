//! SRAM accounting for the two on-chip memories of the paper.
//!
//! These functions compute the exact storage implied by the paper's data
//! layout, and reproduce its two headline numbers:
//!
//! * modeling memory = **3.7 KBytes** (3 image lines + 512 context records
//!   + the 1 KB division ROM), and
//! * probability-estimator memory = **4 KBytes** (9 trees × 255 nodes ×
//!   one 14-bit counter each).
//!
//! The second figure is what pins down the estimator design: storing one
//! counter per *node* (with the node total inherited from the parent) is
//! the only layout that fits 9 × 256-symbol trees in 4 KB — see
//! `cbic-arith`'s `TreeModel`.

/// Parameters of the image-modeling memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelingMemory {
    /// Image width in pixels (one line buffer entry per pixel).
    pub line_width: usize,
    /// Number of buffered lines (the paper rotates 3).
    pub lines: usize,
    /// Bits per pixel.
    pub pixel_bits: usize,
    /// Number of compound contexts (the paper's 512).
    pub contexts: usize,
    /// Bits per context error sum, including sign (13 + 1).
    pub sum_bits: usize,
    /// Bits per context occurrence count (5).
    pub count_bits: usize,
    /// Division lookup table bytes (1024).
    pub div_lut_bytes: usize,
}

impl Default for ModelingMemory {
    /// The paper's configuration: 512-wide lines, 3 line buffers, 512
    /// contexts with 14-bit sums and 5-bit counts, 1 KB divider ROM.
    fn default() -> Self {
        Self {
            line_width: 512,
            lines: 3,
            pixel_bits: 8,
            contexts: 512,
            sum_bits: 14,
            count_bits: 5,
            div_lut_bytes: 1024,
        }
    }
}

impl ModelingMemory {
    /// Line-buffer bytes (`lines × width × pixel_bits / 8`).
    pub fn line_buffer_bytes(&self) -> usize {
        (self.lines * self.line_width * self.pixel_bits).div_ceil(8)
    }

    /// Context-store bytes (`contexts × (sum_bits + count_bits) / 8`).
    pub fn context_store_bytes(&self) -> usize {
        (self.contexts * (self.sum_bits + self.count_bits)).div_ceil(8)
    }

    /// Total modeling memory in bytes.
    pub fn total_bytes(&self) -> usize {
        self.line_buffer_bytes() + self.context_store_bytes() + self.div_lut_bytes
    }

    /// Total in KBytes (for comparison with the paper's "3.7 KBytes").
    pub fn total_kbytes(&self) -> f64 {
        self.total_bytes() as f64 / 1024.0
    }
}

/// The structure-of-arrays bank layout of the compound-context store —
/// the concrete split of [`ModelingMemory::context_store_bytes`] into the
/// separate BRAMs a hardware implementation instantiates, and the layout
/// `cbic_core`'s context store (and therefore its `engine`) mirrors in
/// software: one sum bank, one count bank, and the divider-output
/// (feedback) bank.
///
/// The paper stores `(sum, count)` and reads the divider combinationally;
/// the software engine instead *caches* the divider output per context
/// (written on update, read on the per-pixel hot path), which is exactly
/// the register the hardware divider drives. This type accounts for that
/// third bank so the software layout and the RTL budget stay in sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextBankLayout {
    /// Number of compound contexts (rows in every bank).
    pub contexts: usize,
    /// Bits per sum-bank cell (13 + sign in the paper).
    pub sum_bits: usize,
    /// Bits per count-bank cell (5 in the paper).
    pub count_bits: usize,
    /// Bits per feedback-bank cell: the divider quotient, bounded by the
    /// 10-bit dividend saturation plus sign.
    pub feedback_bits: usize,
}

impl Default for ContextBankLayout {
    /// The paper's operating point: 512 contexts, 14-bit sums, 5-bit
    /// counts, 11-bit (sign + 10) feedback.
    fn default() -> Self {
        Self {
            contexts: 512,
            sum_bits: 14,
            count_bits: 5,
            feedback_bits: 11,
        }
    }
}

impl ContextBankLayout {
    /// Bytes of the sum bank.
    pub fn sum_bank_bytes(&self) -> usize {
        (self.contexts * self.sum_bits).div_ceil(8)
    }

    /// Bytes of the count bank.
    pub fn count_bank_bytes(&self) -> usize {
        (self.contexts * self.count_bits).div_ceil(8)
    }

    /// Bytes of the cached-feedback (divider output) bank.
    pub fn feedback_bank_bytes(&self) -> usize {
        (self.contexts * self.feedback_bits).div_ceil(8)
    }

    /// Total bytes across the three banks.
    pub fn total_bytes(&self) -> usize {
        self.sum_bank_bytes() + self.count_bank_bytes() + self.feedback_bank_bytes()
    }

    /// The paper's two-bank subset (sum + count) — must equal
    /// [`ModelingMemory::context_store_bytes`] for the matching
    /// configuration.
    pub fn paper_store_bytes(&self) -> usize {
        (self.contexts * (self.sum_bits + self.count_bits)).div_ceil(8)
    }

    /// The paper's bit widths over `contexts` rows — how a different
    /// texture width (`8 × 2^texture_bits` compound contexts) scales the
    /// RTL budget: same three banks, fewer or more rows.
    /// `with_contexts(512)` is exactly [`Default`].
    pub fn with_contexts(contexts: usize) -> Self {
        Self {
            contexts,
            ..Self::default()
        }
    }

    /// The **host** (software) realization of the same banks over
    /// `contexts` rows: the engine's structure-of-arrays context store
    /// holds each sum in an `i32`, each count in a `u8`, and each cached
    /// feedback in an `i16` — 32 + 8 + 16 bits per context, byte-aligned
    /// per bank. Its [`total_bytes`](Self::total_bytes) equals the bytes
    /// the store actually allocates (asserted by the cross-crate test in
    /// `cbic-core`), while the paper-width layouts bound the RTL budget.
    pub fn host_soa(contexts: usize) -> Self {
        Self {
            contexts,
            sum_bits: 32,
            count_bits: 8,
            feedback_bits: 16,
        }
    }
}

/// Parameters of the probability-estimator memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EstimatorMemory {
    /// Number of trees (8 dynamic + 1 static in the paper).
    pub trees: usize,
    /// Alphabet bits per tree (8 → 255 internal nodes).
    pub symbol_bits: usize,
    /// Frequency counter width (the paper chooses 14 in Fig. 4).
    pub counter_bits: usize,
}

impl Default for EstimatorMemory {
    /// The paper's configuration: 9 trees over an 8-bit alphabet with
    /// 14-bit counters.
    fn default() -> Self {
        Self {
            trees: 9,
            symbol_bits: 8,
            counter_bits: 14,
        }
    }
}

impl EstimatorMemory {
    /// Internal nodes per tree (`2^symbol_bits − 1`).
    pub fn nodes_per_tree(&self) -> usize {
        (1 << self.symbol_bits) - 1
    }

    /// Total estimator memory in bytes.
    pub fn total_bytes(&self) -> usize {
        (self.trees * self.nodes_per_tree() * self.counter_bits).div_ceil(8)
    }

    /// Total in KBytes (for comparison with the paper's "4 KBytes").
    pub fn total_kbytes(&self) -> f64 {
        self.total_bytes() as f64 / 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeling_memory_matches_paper() {
        let m = ModelingMemory::default();
        assert_eq!(m.line_buffer_bytes(), 1536);
        assert_eq!(m.context_store_bytes(), 1216);
        assert_eq!(m.total_bytes(), 3776);
        // The paper reports "3.7KBytes".
        let kb = m.total_kbytes();
        assert!(
            (3.65..3.75).contains(&kb),
            "modeling memory {kb} KB != paper's 3.7 KB"
        );
    }

    #[test]
    fn estimator_memory_matches_paper() {
        let m = EstimatorMemory::default();
        assert_eq!(m.nodes_per_tree(), 255);
        // The paper reports "4KBytes".
        let kb = m.total_kbytes();
        assert!(
            (3.8..4.1).contains(&kb),
            "estimator memory {kb} KB != paper's 4 KB"
        );
    }

    #[test]
    fn storing_count_pairs_would_not_fit() {
        // Sanity check of the design argument: two counters per node
        // doubles the memory and misses the paper's figure.
        let double = EstimatorMemory {
            counter_bits: 28,
            ..EstimatorMemory::default()
        };
        assert!(double.total_kbytes() > 7.5);
    }

    #[test]
    fn bank_layout_agrees_with_the_modeling_memory() {
        let banks = ContextBankLayout::default();
        let m = ModelingMemory::default();
        // The paper's two banks are exactly the modeling-memory figure...
        assert_eq!(banks.paper_store_bytes(), m.context_store_bytes());
        // ...and the cached-feedback bank adds 704 bytes on top.
        assert_eq!(banks.feedback_bank_bytes(), 704);
        assert_eq!(
            banks.total_bytes(),
            banks.paper_store_bytes() + banks.feedback_bank_bytes()
        );
        // The feedback width must hold the divider's saturated quotient
        // (±1023): sign + 10 bits.
        assert!(banks.feedback_bits >= 11);
    }

    #[test]
    fn wide_bank_layouts_scale_rows_not_widths() {
        assert_eq!(
            ContextBankLayout::with_contexts(512),
            ContextBankLayout::default()
        );
        // Rows scale the budget linearly at the paper's 30 bits/context:
        // the classic 512 rows take 1920 bytes, 4x the rows take 4x.
        let classic = ContextBankLayout::default().total_bytes();
        assert_eq!(classic, 1920);
        let four_x = ContextBankLayout::with_contexts(2048).total_bytes();
        assert_eq!(four_x, 4 * classic);
        // The host SoA realization widens each cell to its machine type.
        let host = ContextBankLayout::host_soa(512);
        assert_eq!(host.total_bytes(), 512 * (4 + 1 + 2));
    }

    #[test]
    fn wider_images_grow_line_buffers_only() {
        let m = ModelingMemory {
            line_width: 1024,
            ..ModelingMemory::default()
        };
        assert_eq!(m.line_buffer_bytes(), 3072);
        assert_eq!(m.context_store_bytes(), 1216);
    }

    #[test]
    fn fig4_sweep_memory_scales_with_counter_bits() {
        for (bits, expect_kb) in [(10, 2.8), (12, 3.4), (14, 4.0), (16, 4.5)] {
            let m = EstimatorMemory {
                counter_bits: bits,
                ..EstimatorMemory::default()
            };
            assert!(
                (m.total_kbytes() - expect_kb).abs() < 0.3,
                "{bits} bits -> {} KB",
                m.total_kbytes()
            );
        }
    }
}
