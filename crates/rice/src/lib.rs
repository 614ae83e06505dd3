//! Golomb-Rice coding substrate.
//!
//! The paper's Table 1 compares against two "low complexity compression
//! schemes using Golomb-Rice coder": JPEG-LS (LOCO-I) and SLP. Both
//! baselines in this workspace are built on this crate, which provides:
//!
//! * [`encode`]/[`decode`] — plain Golomb-Rice codes (unary quotient +
//!   `k`-bit remainder);
//! * [`encode_limited`]/[`decode_limited`] — the length-limited variant of
//!   JPEG-LS Annex A.5.3 (escape to a `qbpp`-bit raw value after `limit`
//!   unary bits);
//! * [`AdaptiveRice`] — LOCO-style parameter adaptation (`k` chosen from
//!   running totals `A`/`N` with periodic halving).
//!
//! # Examples
//!
//! ```
//! use cbic_bitio::{BitReader, BitWriter};
//! use cbic_rice::{decode, encode};
//!
//! let mut w = BitWriter::new();
//! encode(&mut w, 11, 2); // q=2, r=3 -> "001" + "11"
//! let bytes = w.into_bytes();
//! let mut r = BitReader::new(&bytes);
//! assert_eq!(decode(&mut r, 2), Some(11));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cbic_bitio::{BitReader, BitSink, BitSource, BitWriter};

/// Encodes `value` with Rice parameter `k`: the quotient `value >> k` in
/// unary (that many `0`s and a terminating `1`), then the low `k` bits.
///
/// # Panics
///
/// Panics if `k > 24` (parameters beyond 24 are never useful for 8-bit
/// residuals and indicate a bug).
pub fn encode(w: &mut BitWriter, value: u32, k: u32) {
    assert!(k <= 24, "rice parameter {k} out of range");
    let q = u64::from(value >> k);
    w.write_run(false, q);
    w.write_bit(true);
    w.write_bits(u64::from(value) & ((1u64 << k) - 1), k);
}

/// Decodes one plain Rice code word; `None` on truncated input.
///
/// # Panics
///
/// Panics if `k > 24`.
pub fn decode(r: &mut BitReader<'_>, k: u32) -> Option<u32> {
    assert!(k <= 24, "rice parameter {k} out of range");
    let q = r.read_unary()?;
    let rem = r.try_read_bits(k)?;
    Some(((q << k) | rem) as u32)
}

/// Number of bits a plain Rice code word would occupy.
pub fn code_len(value: u32, k: u32) -> u32 {
    (value >> k) + 1 + k
}

/// Encodes with the JPEG-LS length limit: if the quotient reaches
/// `limit - qbpp - 1`, that many `0`s, a `1`, and the value minus one in
/// `qbpp` raw bits are sent instead.
///
/// # Panics
///
/// Panics if the escape cannot represent `value` (i.e. `value == 0` cannot
/// escape, and `value - 1` must fit in `qbpp` bits) — callers guarantee
/// this by construction in JPEG-LS (`value < 2^qbpp`).
pub fn encode_limited(w: &mut BitWriter, value: u32, k: u32, limit: u32, qbpp: u32) {
    let q = value >> k;
    let maxq = limit - qbpp - 1;
    if q < maxq {
        encode(w, value, k);
    } else {
        assert!(value >= 1 && (value - 1) >> qbpp == 0, "escape overflow");
        w.write_run(false, u64::from(maxq));
        w.write_bit(true);
        w.write_bits(u64::from(value - 1), qbpp);
    }
}

/// Decodes one length-limited code word; `None` on truncated input.
pub fn decode_limited(r: &mut BitReader<'_>, k: u32, limit: u32, qbpp: u32) -> Option<u32> {
    let q = r.read_unary()?;
    let maxq = u64::from(limit - qbpp - 1);
    if q < maxq {
        let rem = r.try_read_bits(k)?;
        Some(((q << k) | rem) as u32)
    } else {
        Some(r.try_read_bits(qbpp)? as u32 + 1)
    }
}

/// LOCO-I-style adaptive Rice parameter state: `k` is the smallest integer
/// with `N << k >= A`, where `A` accumulates error magnitudes and `N`
/// observation counts, both halved every `reset` observations.
///
/// # Examples
///
/// ```
/// use cbic_rice::AdaptiveRice;
///
/// let mut ctx = AdaptiveRice::new(4, 64);
/// assert!(ctx.k() <= 3);
/// for _ in 0..32 {
///     ctx.update(40); // large errors push k upwards
/// }
/// assert!(ctx.k() >= 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveRice {
    a: u32,
    n: u32,
    reset: u32,
}

impl AdaptiveRice {
    /// Creates a context with initial magnitude estimate `a_init`
    /// (JPEG-LS uses `max(2, (range + 32) / 64)`), halving every `reset`
    /// samples (JPEG-LS uses 64).
    ///
    /// # Panics
    ///
    /// Panics if `reset < 2`.
    pub fn new(a_init: u32, reset: u32) -> Self {
        assert!(reset >= 2, "reset interval too small");
        Self {
            a: a_init.max(1),
            n: 1,
            reset,
        }
    }

    /// Current Rice parameter.
    #[inline]
    pub fn k(&self) -> u32 {
        let mut k = 0;
        while (self.n << k) < self.a && k < 24 {
            k += 1;
        }
        k
    }

    /// Current `(A, N)` totals.
    pub fn totals(&self) -> (u32, u32) {
        (self.a, self.n)
    }

    /// Accumulates one coded magnitude.
    #[inline]
    pub fn update(&mut self, magnitude: u32) {
        self.a += magnitude;
        if self.n == self.reset {
            self.a >>= 1;
            self.n >>= 1;
        }
        self.n += 1;
    }
}

/// Maps a signed residual to the non-negative Rice alphabet
/// (0, −1→1, 1→2, −2→3, … — same zig-zag as JPEG-LS `MErrval` without the
/// bias twist).
#[inline]
pub fn zigzag(v: i32) -> u32 {
    if v >= 0 {
        (v as u32) << 1
    } else {
        ((-v as u32) << 1) - 1
    }
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(u: u32) -> i32 {
    if u & 1 == 0 {
        (u >> 1) as i32
    } else {
        -(((u + 1) >> 1) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_rice_roundtrip() {
        for k in 0..=8 {
            let mut w = BitWriter::new();
            let values: Vec<u32> = (0..200).map(|i| (i * 7) % 300).collect();
            for &v in &values {
                encode(&mut w, v, k);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &v in &values {
                assert_eq!(decode(&mut r, k), Some(v), "k={k}");
            }
        }
    }

    #[test]
    fn code_len_matches_actual() {
        for (v, k) in [(0u32, 0u32), (5, 0), (11, 2), (255, 4), (1000, 3)] {
            let mut w = BitWriter::new();
            encode(&mut w, v, k);
            assert_eq!(w.bits_written(), u64::from(code_len(v, k)));
        }
    }

    #[test]
    fn limited_matches_plain_below_limit() {
        let (limit, qbpp) = (32, 8);
        for v in 0..200u32 {
            let k = 3;
            if (v >> k) < limit - qbpp - 1 {
                let mut a = BitWriter::new();
                let mut b = BitWriter::new();
                encode(&mut a, v, k);
                encode_limited(&mut b, v, k, limit, qbpp);
                assert_eq!(a.into_bytes(), b.into_bytes(), "v={v}");
            }
        }
    }

    #[test]
    fn limited_escape_roundtrip() {
        let (limit, qbpp) = (32u32, 8u32);
        // k=0 and a large value force the escape path.
        for v in [30u32, 100, 255] {
            let mut w = BitWriter::new();
            encode_limited(&mut w, v, 0, limit, qbpp);
            let bits = w.bits_written();
            assert!(bits <= u64::from(limit), "v={v} took {bits} bits");
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(decode_limited(&mut r, 0, limit, qbpp), Some(v));
        }
    }

    #[test]
    fn limited_mixed_stream_roundtrip() {
        let (limit, qbpp) = (32u32, 8u32);
        let values: Vec<(u32, u32)> = (0..300u32).map(|i| ((i * 13) % 256, i % 5)).collect();
        let mut w = BitWriter::new();
        for &(v, k) in &values {
            encode_limited(&mut w, v, k, limit, qbpp);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, k) in &values {
            assert_eq!(decode_limited(&mut r, k, limit, qbpp), Some(v));
        }
    }

    #[test]
    fn decode_on_truncated_input_returns_none() {
        let mut r = BitReader::new(&[0x00]); // unary never terminates
        assert_eq!(decode(&mut r, 3), None);
    }

    #[test]
    fn adaptive_k_grows_with_magnitudes() {
        let mut ctx = AdaptiveRice::new(4, 64);
        let k0 = ctx.k();
        for _ in 0..64 {
            ctx.update(100);
        }
        assert!(ctx.k() > k0);
    }

    #[test]
    fn adaptive_k_shrinks_back() {
        let mut ctx = AdaptiveRice::new(4, 64);
        for _ in 0..64 {
            ctx.update(100);
        }
        let k_high = ctx.k();
        for _ in 0..512 {
            ctx.update(0);
        }
        assert!(ctx.k() < k_high, "k must decay with the reset halvings");
    }

    #[test]
    fn reset_keeps_totals_bounded() {
        let mut ctx = AdaptiveRice::new(4, 64);
        for _ in 0..10_000 {
            ctx.update(255);
        }
        let (a, n) = ctx.totals();
        assert!(n <= 64);
        assert!(a < 255 * 130);
    }

    #[test]
    fn zigzag_bijection() {
        for v in -300..=300 {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn optimal_k_beats_wrong_k_on_geometric_data() {
        // Data with mean ~16: k=4 should beat k=0 and k=8.
        let values: Vec<u32> = (0..500u32).map(|i| (i * 31 + 7) % 33).collect();
        let len = |k: u32| -> u64 {
            let mut w = BitWriter::new();
            for &v in &values {
                encode(&mut w, v, k);
            }
            w.bits_written()
        };
        assert!(len(4) < len(0));
        assert!(len(4) < len(8));
    }
}
