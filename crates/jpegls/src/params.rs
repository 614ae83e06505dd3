//! JPEG-LS coding parameters of a sample depth (ITU-T T.87 Annex C
//! defaults, parameterized over the 1–16-bit sample depth).

/// Context halving interval (`RESET`, T.87 Annex C default).
pub(crate) const RESET: u32 = 64;

/// The lossless (`NEAR = 0`) coding parameters of one sample depth: the
/// T.87 C.2.4.1.1.1 depth-scaled default thresholds and the A.2.1
/// derived values. At 8 bits they are the Annex C defaults
/// `T1=3, T2=7, T3=21`, so 12/16-bit medical imagery gets a properly
/// calibrated gradient quantizer while every parameter still follows from
/// the depth a container records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Params {
    /// Sample bit depth (`1..=16`).
    pub(crate) bit_depth: u8,
    /// First gradient quantizer threshold.
    pub(crate) t1: i32,
    /// Second gradient quantizer threshold.
    pub(crate) t2: i32,
    /// Third gradient quantizer threshold.
    pub(crate) t3: i32,
}

impl Params {
    /// The parameters of a sample depth.
    ///
    /// # Panics
    ///
    /// Panics if `bit_depth` is outside `1..=16`.
    pub(crate) fn for_depth(bit_depth: u8) -> Self {
        assert!(
            (1..=16).contains(&bit_depth),
            "bit depth {bit_depth} outside 1..=16"
        );
        let maxval = i32::from(cbic_image::max_val_for(bit_depth));
        let (t1, t2, t3) = if maxval >= 128 {
            let factor = (maxval.min(4095) + 128) / 256;
            // T.87 writes FACTOR*(3-2); the (3-2) factor is 1.
            let t1 = (factor + 2).min(maxval);
            let t2 = (factor * (7 - 3) + 3).clamp(t1, maxval);
            let t3 = (factor * (21 - 4) + 4).clamp(t2, maxval);
            (t1, t2, t3)
        } else {
            // Low-depth branch: shrink the 8-bit defaults towards the
            // reduced intensity range, preserving ordering where the
            // range allows it (an empty quantizer bucket is harmless —
            // both sides derive the same ladder).
            let factor = 256 / (maxval + 1);
            let t1 = (3 / factor).max(2).min(maxval).max(1);
            let t2 = (7 / factor).max(3).clamp(t1, maxval);
            let t3 = (21 / factor).max(4).clamp(t2, maxval);
            (t1, t2, t3)
        };
        Self {
            bit_depth,
            t1,
            t2,
            t3,
        }
    }

    /// Maximum sample value, `2^bit_depth − 1`.
    pub(crate) fn maxval(&self) -> i32 {
        i32::from(cbic_image::max_val_for(self.bit_depth))
    }

    /// `RANGE = MAXVAL + 1` (A.2.1 at `NEAR = 0`).
    pub(crate) fn range(&self) -> i32 {
        self.maxval() + 1
    }

    /// `qbpp = ceil(log2(RANGE))`, the sample depth.
    pub(crate) fn qbpp(&self) -> u32 {
        u32::from(self.bit_depth)
    }

    /// `LIMIT = 2 * (bpp + max(8, bpp))` with `bpp = max(2, depth)`
    /// (A.2.1) — 32 for 8-bit samples, 64 for 16-bit ones.
    pub(crate) fn limit(&self) -> u32 {
        let bpp = u32::from(self.bit_depth).max(2);
        2 * (bpp + bpp.max(8))
    }

    /// Initial value of the `A` accumulators:
    /// `max(2, (RANGE + 32) / 64)` (A.2.1).
    pub(crate) fn a_init(&self) -> u32 {
        ((self.range() + 32) / 64).max(2) as u32
    }
}

/// The T.87 run-length code order table `J` (A.2.1).
pub(crate) const J: [u32; 32] = [
    0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 9, 10, 11, 12, 13,
    14, 15,
];

/// Bias-correction clamp bounds (A.2.1).
pub(crate) const MIN_C: i32 = -128;
/// Upper bias-correction clamp bound.
pub(crate) const MAX_C: i32 = 127;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_derived_parameters() {
        let c = Params::for_depth(8);
        assert_eq!(c.maxval(), 255);
        assert_eq!(c.range(), 256);
        assert_eq!(c.qbpp(), 8);
        assert_eq!(c.limit(), 32);
        assert_eq!(c.a_init(), 4);
    }

    #[test]
    fn for_depth_eight_is_the_default() {
        // The Annex C defaults for 8-bit samples.
        let c = Params::for_depth(8);
        assert_eq!((c.t1, c.t2, c.t3), (3, 7, 21));
        assert_eq!(RESET, 64);
    }

    #[test]
    fn for_depth_scales_thresholds_with_the_range() {
        let c12 = Params::for_depth(12);
        assert_eq!(c12.maxval(), 4095);
        // FACTOR = (4095 + 128) / 256 = 16.
        assert_eq!((c12.t1, c12.t2, c12.t3), (18, 67, 276));
        let c16 = Params::for_depth(16);
        assert_eq!(c16.maxval(), 65535);
        // FACTOR saturates at (4095 + 128) / 256 = 16 per the standard.
        assert_eq!((c16.t1, c16.t2, c16.t3), (18, 67, 276));
        assert_eq!(c16.qbpp(), 16);
        assert_eq!(c16.limit(), 64);
    }

    #[test]
    fn for_depth_low_depths_stay_ordered() {
        for depth in 1..=7u8 {
            let c = Params::for_depth(depth);
            assert!(c.t1 >= 1 && c.t1 <= c.t2 && c.t2 <= c.t3, "{c:?}");
            assert!(c.t3 <= c.maxval().max(4), "{c:?}");
        }
    }

    #[test]
    fn for_depth_is_total_over_every_depth() {
        // A hostile container can carry any depth the framing accepts.
        for depth in 1..=16u8 {
            let c = Params::for_depth(depth);
            assert!(c.t1 >= 1 && c.t1 <= c.t2 && c.t2 <= c.t3, "{c:?}");
            assert_eq!(c.qbpp(), u32::from(depth), "{c:?}");
            assert!((1u32 << c.qbpp()) >= c.range() as u32, "{c:?}");
        }
    }

    #[test]
    fn j_table_matches_standard() {
        assert_eq!(J.len(), 32);
        assert_eq!(J[0], 0);
        assert_eq!(J[15], 3);
        assert_eq!(J[31], 15);
        // Non-decreasing.
        assert!(J.windows(2).all(|w| w[0] <= w[1]));
    }
}
