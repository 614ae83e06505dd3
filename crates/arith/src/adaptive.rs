//! A single adaptive binary decision context.

use crate::bincoder::{DecisionDecoder, DecisionEncoder};

/// An adaptive probability for one recurring binary decision.
///
/// Keeps `(count_false, count_true)` and codes the decision with
/// `P(false) = count_false / (count_false + count_true)`. Counts are capped:
/// when the total would exceed the cap, both are halved with a floor of 1,
/// so neither side ever reaches probability zero (this context must always
/// be able to code either outcome — it guards the escape path).
///
/// Used for the per-tree escape decision of [`SymbolCoder`](crate::SymbolCoder),
/// its only user.
///
/// # Examples
///
/// ```
/// use cbic_arith::{AdaptiveBit, BinaryDecoder, BinaryEncoder};
/// use cbic_bitio::{BitReader, BitWriter};
///
/// let mut enc_ctx = AdaptiveBit::new(1 << 12);
/// let mut enc = BinaryEncoder::new(BitWriter::new());
/// for _ in 0..10 {
///     enc_ctx.encode(&mut enc, false);
/// }
/// let bytes = enc.finish().into_bytes();
///
/// let mut dec_ctx = AdaptiveBit::new(1 << 12);
/// let mut dec = BinaryDecoder::new(BitReader::new(&bytes));
/// for _ in 0..10 {
///     assert!(!dec_ctx.decode(&mut dec));
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveBit {
    c_false: u32,
    c_true: u32,
    max_total: u32,
    increment: u32,
}

impl AdaptiveBit {
    /// Creates an unbiased context (counts 1/1) with the given total cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_total < 4`.
    pub fn new(max_total: u32) -> Self {
        Self::with_counts(1, 1, max_total)
    }

    /// Creates a context with explicit initial counts (used to bias the
    /// escape decision towards "no escape" at start-up).
    ///
    /// # Panics
    ///
    /// Panics if either count is zero or their sum exceeds `max_total`, or
    /// if `max_total < 4`.
    pub fn with_counts(c_false: u16, c_true: u16, max_total: u32) -> Self {
        assert!(max_total >= 4, "max_total {max_total} too small");
        assert!(c_false > 0 && c_true > 0, "initial counts must be nonzero");
        assert!(
            u32::from(c_false) + u32::from(c_true) <= max_total,
            "initial counts exceed cap"
        );
        Self {
            c_false: u32::from(c_false),
            c_true: u32::from(c_true),
            max_total,
            increment: 16,
        }
    }

    /// Current `P(true)` (diagnostics).
    pub fn p_true(&self) -> f64 {
        f64::from(self.c_true) / f64::from(self.c_false + self.c_true)
    }

    /// Encodes `bit` and adapts.
    #[inline]
    pub fn encode<E: DecisionEncoder>(&mut self, enc: &mut E, bit: bool) {
        enc.encode(bit, self.c_false, self.c_false + self.c_true);
        self.update(bit);
    }

    /// Decodes one bit and adapts.
    #[inline]
    pub fn decode<D: DecisionDecoder>(&mut self, dec: &mut D) -> bool {
        let bit = dec.decode(self.c_false, self.c_false + self.c_true);
        self.update(bit);
        bit
    }

    #[inline]
    fn update(&mut self, bit: bool) {
        if self.c_false + self.c_true + self.increment > self.max_total {
            // Halve with a floor of 1: both outcomes stay codable.
            self.c_false = (self.c_false + 1) >> 1;
            self.c_true = (self.c_true + 1) >> 1;
        }
        if bit {
            self.c_true += self.increment;
        } else {
            self.c_false += self.increment;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinaryDecoder, BinaryEncoder};
    use cbic_bitio::{BitReader, BitWriter};

    #[test]
    fn adapts_towards_observed_bias() {
        let mut ctx = AdaptiveBit::new(1 << 14);
        let mut enc = BinaryEncoder::new(BitWriter::new());
        for _ in 0..500 {
            ctx.encode(&mut enc, true);
        }
        assert!(ctx.p_true() > 0.95, "p_true = {}", ctx.p_true());
    }

    #[test]
    fn counts_never_reach_zero() {
        let mut ctx = AdaptiveBit::new(64);
        let mut enc = BinaryEncoder::new(BitWriter::new());
        for _ in 0..10_000 {
            ctx.encode(&mut enc, true);
        }
        // The false side must remain codable.
        ctx.encode(&mut enc, false);
        let bytes = enc.finish().into_bytes();

        let mut dctx = AdaptiveBit::new(64);
        let mut dec = BinaryDecoder::new(BitReader::new(&bytes));
        for _ in 0..10_000 {
            assert!(dctx.decode(&mut dec));
        }
        assert!(!dctx.decode(&mut dec));
    }

    #[test]
    fn biased_initial_counts() {
        let ctx = AdaptiveBit::with_counts(16, 1, 1 << 14);
        assert!(ctx.p_true() < 0.1);
    }

    #[test]
    fn biased_stream_compresses_well() {
        let mut ctx = AdaptiveBit::new(1 << 14);
        let mut enc = BinaryEncoder::new(BitWriter::new());
        for i in 0..20_000u32 {
            ctx.encode(&mut enc, i % 100 == 0);
        }
        let bits = enc.finish().into_bytes().len() * 8;
        // H(0.01) ≈ 0.08 bits; allow generous adaptation slack.
        assert!(bits < 4000, "got {bits} bits");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_initial_count_rejected() {
        let _ = AdaptiveBit::with_counts(0, 1, 64);
    }
}
