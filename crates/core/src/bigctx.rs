//! Enlarged hash-banked context modeling — the `WideHash` model mode.
//!
//! The paper's compound context is formed from a 7-pixel causal window
//! (6 texture comparisons × 8 energy levels → 512 contexts). This module
//! widens the modeling window to 8–16 causal samples spanning **two prior
//! rows plus extended left context**, quantizes each sample's deviation
//! from the primary prediction `X̂` into a 3-bit level, and hashes the
//! packed feature vector into a power-of-two number of SoA context banks
//! — the same bounded-memory discipline the hardware uses, just with a
//! hash in front of the bank address instead of a direct index
//! (cf. the Lepton hardware encoder's hashed context memory and the
//! enlarged-context modeling of trimmed-convolution arithmetic coding).
//!
//! The bank index *generalizes* the classic compound context instead of
//! replacing it: the quantized error energy keeps the top [`QE_BITS`],
//! the classic texture pattern direct-indexes below it, and the hashed
//! wide feature refines the remaining low bits ([`WideConfig::bank_of`]).
//! At `banks_log2 = 9` the partition degenerates to exactly the classic
//! 512 contexts; every extra exponent splits each of them into hashed
//! sub-banks keyed by the enlarged window. (A pure hash of the feature
//! vector measured strictly worse: it scatters semantically adjacent
//! patterns across banks, so each bank's bias estimate averages
//! unrelated contexts.)
//!
//! Only the **error-feedback context** changes: the coding contexts (the
//! 8 `QE` estimator-tree banks) and the per-pixel decision count are the
//! classic ones, so streaming, tiling, and the grid all work unchanged. The memory budget is accounted by
//! [`cbic_hw::memory::ContextBankLayout`]: the default
//! [`WideConfig`] (2¹⁰ banks) costs exactly 2× the classic store at the
//! paper's bit widths, and the largest exponent the 4× budget admits is
//! `banks_log2 = 11`.
//!
//! The wire format (container v5) pins `window = 13 samples` and the
//! multiply-shift mixer; only `banks_log2` travels in the header. The
//! other windows and the xxhash-style mixer exist for the ablation
//! harness (`cbic-bench`'s `ablate_json`), driven through
//! [`encode_measure`] and [`collision_stats`].
//!
//! # Examples
//!
//! ```
//! use cbic_core::bigctx::ModelMode;
//! use cbic_core::CodecConfig;
//! use cbic_image::corpus::CorpusImage;
//!
//! let img = CorpusImage::Lena.generate(32, 32);
//! let cfg = CodecConfig {
//!     model: ModelMode::WideHash { banks_log2: 11 },
//!     ..CodecConfig::default()
//! };
//! let bytes = cbic_core::compress(img.view(), &cfg);
//! assert_eq!(bytes[4], 5, "WideHash travels in a v5 container");
//! assert_eq!(cbic_core::decompress(&bytes)?, img);
//! # Ok::<(), cbic_core::CodecError>(())
//! ```

use crate::codec::{CodecConfig, EncodeStats};
use crate::context::texture_pattern;
use crate::engine::EncoderState;
use crate::neighborhood::Neighborhood;
use crate::predictor::{gap_predict, threshold_shift, Gradients};
use crate::remap::half_for_depth;
use cbic_arith::BinaryEncoder;
use cbic_bitio::BitWriter;
use cbic_image::ImageView;
use std::collections::HashSet;

pub use cbic_image::{ModelMode, BANKS_LOG2_RANGE};

/// The largest causal window any [`WideWindow`] selects.
pub const MAX_WIDE_SAMPLES: usize = 16;

/// Texture-pattern width the wire format (and [`collision_stats`])
/// assumes — the paper's 6 sign comparisons, `CodecConfig::default()`'s
/// `texture_bits`.
pub const DEFAULT_TEXTURE_BITS: u32 = 6;

/// The wire-format bank-count exponent (2¹⁰ banks = 2× the classic
/// context-store bytes at the paper's widths, half the 4× budget
/// ceiling — see `cbic_hw::memory::ContextBankLayout::with_contexts`).
/// One hash bit per `(QE, texture)` class measured best on the corpus:
/// more banks dilute the bias estimates faster than the extra
/// conditioning pays (see `BENCH_bpp.json`'s ablation table).
pub const DEFAULT_BANKS_LOG2: u8 = 10;

/// How many causal samples the wide window gathers.
///
/// [`WideWindow::W13`] is the wire format; the others exist for the
/// neighborhood-size axis of the ablation sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum WideWindow {
    /// 8 samples: one-column halo over two prior rows plus `W`, `WW`.
    W8,
    /// 13 samples (the wire format): two-column halo over two prior rows
    /// plus `W`, `WW`, `WWW`.
    #[default]
    W13,
    /// 16 samples: [`WideWindow::W13`] plus `WWWW`, `NWWW`, `NEEE`.
    W16,
}

/// Causal sample offsets `(dy, dx)` of each window, rows above first.
/// Every offset is strictly causal: `dy < 0`, or `dy == 0 && dx < 0`.
const OFFSETS_W8: [(i8, i8); 8] = [
    (-2, -1),
    (-2, 0),
    (-2, 1),
    (-1, -1),
    (-1, 0),
    (-1, 1),
    (0, -2),
    (0, -1),
];
const OFFSETS_W13: [(i8, i8); 13] = [
    (-2, -2),
    (-2, -1),
    (-2, 0),
    (-2, 1),
    (-2, 2),
    (-1, -2),
    (-1, -1),
    (-1, 0),
    (-1, 1),
    (-1, 2),
    (0, -3),
    (0, -2),
    (0, -1),
];
const OFFSETS_W16: [(i8, i8); 16] = [
    (-2, -2),
    (-2, -1),
    (-2, 0),
    (-2, 1),
    (-2, 2),
    (-1, -3),
    (-1, -2),
    (-1, -1),
    (-1, 0),
    (-1, 1),
    (-1, 2),
    (-1, 3),
    (0, -4),
    (0, -3),
    (0, -2),
    (0, -1),
];

impl WideWindow {
    /// The window's causal sample offsets, `(dy, dx)` with `dy ≤ 0`.
    pub fn offsets(self) -> &'static [(i8, i8)] {
        match self {
            Self::W8 => &OFFSETS_W8,
            Self::W13 => &OFFSETS_W13,
            Self::W16 => &OFFSETS_W16,
        }
    }

    /// Number of samples the window gathers.
    pub fn samples(self) -> usize {
        self.offsets().len()
    }

    /// Short label for reports (`"w8"`, `"w13"`, `"w16"`).
    pub fn label(self) -> &'static str {
        match self {
            Self::W8 => "w8",
            Self::W13 => "w13",
            Self::W16 => "w16",
        }
    }
}

/// Which 64-bit mixer maps a packed feature key onto a bank index.
///
/// Both take the **top** `banks_log2` bits of the mixed word, so every
/// input bit influences the bank for either mixer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum HashMixer {
    /// One multiply by the 64-bit golden-ratio constant (the wire
    /// format): cheapest in hardware — a single multiplier.
    #[default]
    MultiplyShift,
    /// An xxhash/murmur-style finalizer (two multiplies, three xorshifts)
    /// — the ablation's stronger-but-costlier alternative.
    XorMix,
}

impl HashMixer {
    /// Maps a feature key onto a bank index in `0..2^banks_log2`
    /// (`banks_log2 = 0` is the degenerate single bank).
    #[inline]
    pub fn bank(self, key: u64, banks_log2: u8) -> usize {
        if banks_log2 == 0 {
            return 0;
        }
        let mixed = match self {
            Self::MultiplyShift => key.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            Self::XorMix => {
                let mut k = key;
                k ^= k >> 33;
                k = k.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                k ^= k >> 33;
                k = k.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
                k ^= k >> 33;
                k
            }
        };
        (mixed >> (64 - u32::from(banks_log2))) as usize
    }

    /// Short label for reports (`"mult"`, `"xor"`).
    pub fn label(self) -> &'static str {
        match self {
            Self::MultiplyShift => "mult",
            Self::XorMix => "xor",
        }
    }
}

/// Full configuration of the wide model: window size, mixer, and bank
/// count. The default is the wire format ([`WideWindow::W13`],
/// [`HashMixer::MultiplyShift`], 2¹⁰ banks); other combinations are
/// reachable only through the ablation entry points
/// ([`encode_measure`], `PixelEngine::with_wide`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WideConfig {
    /// Causal window the feature vector is gathered from.
    pub window: WideWindow,
    /// Mixer mapping the packed feature key onto a bank index.
    pub mixer: HashMixer,
    /// Base-2 logarithm of the bank count ([`BANKS_LOG2_RANGE`]).
    pub banks_log2: u8,
}

impl Default for WideConfig {
    fn default() -> Self {
        Self {
            window: WideWindow::default(),
            mixer: HashMixer::default(),
            banks_log2: DEFAULT_BANKS_LOG2,
        }
    }
}

/// Bits of the bank index carried by the quantized error-energy class
/// (the classic model's `QE` dimension, 8 classes). The energy class
/// keeps the **top** bits of the bank index, so each class owns a
/// contiguous run of hash-refined banks — the wide model generalizes the
/// classic `(QE, texture)` compound context rather than replacing it,
/// which is what keeps its bias estimates coherent under aliasing.
pub const QE_BITS: u8 = 3;

impl WideConfig {
    /// Number of context banks (`2^banks_log2`).
    pub fn banks(self) -> usize {
        1 << self.banks_log2
    }

    /// Base-2 log of the refined banks *within* one energy class
    /// (`banks_log2 − QE_BITS`; at least 1 across [`BANKS_LOG2_RANGE`]).
    pub fn refine_log2(self) -> u8 {
        self.banks_log2 - QE_BITS
    }

    /// Texture bits the refinement direct-indexes: the classic sign
    /// pattern, capped by the refinement width.
    pub fn texture_log2(self, texture_bits: u32) -> u32 {
        texture_bits.min(u32::from(self.refine_log2()))
    }

    /// Hash bits below the texture bits (`refine_log2 − texture_log2`):
    /// the sub-banks the wide feature key is mixed into.
    pub fn hash_log2(self, texture_bits: u32) -> u32 {
        u32::from(self.refine_log2()) - self.texture_log2(texture_bits)
    }

    /// The feedback-free refinement of the bank index: the classic
    /// texture pattern direct-indexed as the upper bits, the hashed wide
    /// feature key as the lower bits. `texture` must already be capped to
    /// [`Self::texture_log2`] bits.
    #[inline]
    pub fn refine_of(self, key: u64, texture: u16, texture_bits: u32) -> usize {
        let h = self.hash_log2(texture_bits);
        (usize::from(texture) << h) | self.mixer.bank(key, h as u8)
    }

    /// Maps a feature key, energy class, and texture pattern onto the
    /// final bank index: `qe` keeps the top [`QE_BITS`], the texture
    /// pattern direct-indexes below it, and the mixer hash-refines the
    /// remaining low bits. The wide model thereby *generalizes* the
    /// classic `(QE, texture)` compound context — at `banks_log2 = 9`
    /// the partition degenerates to exactly the classic 512 contexts,
    /// and every extra exponent splits each of them into hashed
    /// sub-banks keyed by the enlarged window.
    #[inline]
    pub fn bank_of(self, key: u64, qe: usize, texture: u16, texture_bits: u32) -> usize {
        (qe << self.refine_log2()) | self.refine_of(key, texture, texture_bits)
    }

    /// The wide configuration a [`ModelMode`] selects on the wire
    /// (default window and mixer, the mode's bank count), or `None` for
    /// [`ModelMode::Classic`].
    pub fn from_mode(mode: ModelMode) -> Option<Self> {
        mode.banks_log2().map(|banks_log2| Self {
            banks_log2,
            ..Self::default()
        })
    }
}

/// The enlarged causal neighborhood: up to [`MAX_WIDE_SAMPLES`] samples
/// from the current row's left context and the two prior rows.
///
/// Boundary replication follows the classic [`Neighborhood`] discipline:
/// missing left samples replicate the nearest available left/above
/// sample, missing prior rows fall back row-by-row (row −2 → row −1 →
/// the current row's `W` → mid-gray), and horizontal overhang clamps to
/// the row ends. Prior rows are fully decoded when the current pixel is
/// coded, so the clamp is causal on both sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideNeighborhood {
    samples: [u16; MAX_WIDE_SAMPLES],
    len: usize,
}

impl WideNeighborhood {
    /// Gathers the window for column `x` from the current row and up to
    /// two rows above (`None` above the image top), replicating at the
    /// boundaries.
    pub fn from_rows(
        cur: &[u16],
        n1: Option<&[u16]>,
        n2: Option<&[u16]>,
        x: usize,
        mid: u16,
        window: WideWindow,
    ) -> Self {
        let width = cur.len();
        // The classic W fallback: left neighbour, else the sample above,
        // else mid-gray — the anchor every missing-row sample degrades to.
        let w = if x >= 1 {
            cur[x - 1]
        } else if let Some(r) = n1 {
            r[x]
        } else {
            mid
        };
        let clamped = |row: &[u16], dx: i8| {
            let xi = (x as i64 + i64::from(dx)).clamp(0, width as i64 - 1);
            row[xi as usize]
        };
        let mut samples = [0u16; MAX_WIDE_SAMPLES];
        let offsets = window.offsets();
        for (slot, &(dy, dx)) in samples.iter_mut().zip(offsets) {
            *slot = match dy {
                // Current row: only columns left of x are decoded.
                0 => {
                    let k = dx.unsigned_abs() as usize;
                    if x >= k {
                        cur[x - k]
                    } else {
                        w
                    }
                }
                -1 => n1.map_or(w, |r| clamped(r, dx)),
                _ => match n2 {
                    Some(r) => clamped(r, dx),
                    None => n1.map_or(w, |r| clamped(r, dx)),
                },
            };
        }
        Self {
            samples,
            len: offsets.len(),
        }
    }

    /// The gathered samples, window order.
    pub fn samples(&self) -> &[u16] {
        &self.samples[..self.len]
    }

    /// Packs the window into a feature key: each sample's deviation from
    /// the primary prediction `x_hat`, scaled to the 8-bit range by
    /// `energy_shift` (0 at depths ≤ 8), is quantized into one of 7
    /// levels (sign plus the ±4/±16 magnitude thresholds) and packed as
    /// 3 bits — at most 48 key bits for [`WideWindow::W16`].
    ///
    /// The key depends only on the pixels and `x_hat` (never on the
    /// feedback state), so encoder and decoder compute identical keys
    /// and [`collision_stats`] measures the exact coding-time keys.
    #[inline]
    pub fn feature_key(&self, x_hat: i32, energy_shift: u32) -> u64 {
        let mut key = 0u64;
        for (i, &s) in self.samples().iter().enumerate() {
            let dq = (i32::from(s) - x_hat) >> energy_shift;
            let level: u64 = if dq < -16 {
                0
            } else if dq <= -4 {
                1
            } else if dq < 0 {
                2
            } else if dq == 0 {
                3
            } else if dq < 4 {
                4
            } else if dq < 16 {
                5
            } else {
                6
            };
            key |= level << (3 * i);
        }
        key
    }
}

/// Exact bank-collision measurements of one image under one
/// [`WideConfig`], produced by [`collision_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollisionStats {
    /// Pixels scanned.
    pub pixels: u64,
    /// Distinct feature keys the image produced.
    pub distinct_keys: u64,
    /// Hash-refined banks (within one energy class) at least one key
    /// hashed into.
    pub banks_used: u64,
    /// Total hash-refined banks (`2^refine_log2`).
    pub banks_total: u64,
}

impl CollisionStats {
    /// Fraction of banks touched by at least one key.
    pub fn occupancy(&self) -> f64 {
        if self.banks_total == 0 {
            0.0
        } else {
            self.banks_used as f64 / self.banks_total as f64
        }
    }

    /// Fraction of distinct keys that share a bank with another key
    /// (`(distinct_keys − banks_used) / distinct_keys`): the aliasing the
    /// hash introduces versus an unbounded context table.
    pub fn collision_rate(&self) -> f64 {
        if self.distinct_keys == 0 {
            0.0
        } else {
            (self.distinct_keys - self.banks_used) as f64 / self.distinct_keys as f64
        }
    }
}

/// Measures the exact feature keys and refinement-bank indices coding
/// `img` under `wide` would use, at the wire-default texture width
/// ([`DEFAULT_TEXTURE_BITS`]). The feature key, the texture pattern,
/// and hence the whole refinement ([`WideConfig::refine_of`]) are
/// feedback-free, so this scan reproduces the coding-time bank sequence
/// without running the coder; only the energy class composed on top is
/// feedback-dependent, and it partitions banks further rather than
/// merging them, so the aliasing measured here bounds the aliasing of
/// the full bank index.
pub fn collision_stats(img: ImageView<'_>, wide: WideConfig) -> CollisionStats {
    let depth = img.bit_depth();
    let shift = threshold_shift(depth);
    let mid = half_for_depth(depth) as u16;
    let (width, height) = img.dimensions();
    let mut keys: HashSet<u64> = HashSet::new();
    let mut hit = vec![false; 1 << wide.refine_log2()];
    for y in 0..height {
        let cur = img.row(y);
        let n1 = (y >= 1).then(|| img.row(y - 1));
        let n2 = (y >= 2).then(|| img.row(y - 2));
        for x in 0..width {
            let nb = Neighborhood::from_rows(cur, n1, n2, x, mid);
            let x_hat = gap_predict(&nb, Gradients::compute(&nb), depth);
            let t = texture_pattern(&nb, x_hat, wide.texture_log2(DEFAULT_TEXTURE_BITS));
            let wn = WideNeighborhood::from_rows(cur, n1, n2, x, mid, wide.window);
            let key = wn.feature_key(x_hat, shift);
            keys.insert(key);
            hit[wide.refine_of(key, t, DEFAULT_TEXTURE_BITS)] = true;
        }
    }
    CollisionStats {
        pixels: (width * height) as u64,
        distinct_keys: keys.len() as u64,
        banks_used: hit.iter().filter(|&&b| b).count() as u64,
        banks_total: 1 << wide.refine_log2(),
    }
}

/// Runs a real encoding pass of `img` under an arbitrary [`WideConfig`]
/// (any window/mixer/bank combination, not just the wire format) and
/// returns the statistics — the ablation harness's measurement primitive.
/// `cfg.model` is ignored; `wide` wins.
pub fn encode_measure(img: ImageView<'_>, cfg: &CodecConfig, wide: WideConfig) -> EncodeStats {
    let mut state = EncoderState::with_wide(img.width(), img.bit_depth(), cfg, wide);
    let mut enc = BinaryEncoder::new(BitWriter::new());
    state.encode_view(img, &mut enc);
    let (width, height) = img.dimensions();
    let decisions = enc.decisions();
    let coded_decisions = enc.coded_decisions();
    let payload_bits = enc.bits_written();
    let coder_stats = state.coder_stats();
    let writer = enc.finish();
    EncodeStats {
        pixels: (width * height) as u64,
        payload_bits: payload_bits.max(writer.bits_written()),
        escapes: coder_stats.escapes,
        estimator_rescales: coder_stats.rescales,
        context_halvings: state.halvings(),
        decisions,
        coded_decisions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbic_image::corpus::CorpusImage;
    use cbic_image::Image;

    #[test]
    fn windows_are_causal_and_sized() {
        for window in [WideWindow::W8, WideWindow::W13, WideWindow::W16] {
            assert_eq!(window.offsets().len(), window.samples());
            assert!(window.samples() <= MAX_WIDE_SAMPLES);
            for &(dy, dx) in window.offsets() {
                assert!(
                    dy < 0 || (dy == 0 && dx < 0),
                    "{:?}: ({dy},{dx}) is not causal",
                    window
                );
            }
        }
        assert_eq!(WideWindow::W8.samples(), 8);
        assert_eq!(WideWindow::W13.samples(), 13);
        assert_eq!(WideWindow::W16.samples(), 16);
    }

    #[test]
    fn interior_window_reads_exact_pixels() {
        let img = Image::from_fn(8, 8, |x, y| (y * 8 + x) as u8);
        let (cur, n1, n2) = (img.row(4), Some(img.row(3)), Some(img.row(2)));
        let wn = WideNeighborhood::from_rows(cur, n1, n2, 4, 128, WideWindow::W13);
        let expect: Vec<u16> = OFFSETS_W13
            .iter()
            .map(|&(dy, dx)| {
                let yy = (4 + i64::from(dy)) as usize;
                let xx = (4 + i64::from(dx)) as usize;
                img.row(yy)[xx]
            })
            .collect();
        assert_eq!(wn.samples(), &expect[..]);
    }

    #[test]
    fn boundary_replication_degrades_to_mid() {
        // Very first pixel: no rows above, no left context.
        let cur = [7u16, 9, 11];
        let wn = WideNeighborhood::from_rows(&cur, None, None, 0, 128, WideWindow::W13);
        assert!(wn.samples().iter().all(|&s| s == 128));
        // Second pixel of the first row: everything replicates W.
        let wn = WideNeighborhood::from_rows(&cur, None, None, 1, 128, WideWindow::W16);
        assert!(wn.samples().iter().all(|&s| s == 7));
    }

    #[test]
    fn right_edge_clamps_instead_of_overruns() {
        let cur = [1u16, 2, 3];
        let above = [10u16, 20, 30];
        let wn = WideNeighborhood::from_rows(&cur, Some(&above), None, 2, 128, WideWindow::W13);
        // NE/NEE clamp to the last column of the row above.
        assert!(wn.samples().contains(&30));
        assert!(!wn.samples().contains(&0));
    }

    #[test]
    fn feature_key_levels_cover_and_fit() {
        let mut wn = WideNeighborhood {
            samples: [0; MAX_WIDE_SAMPLES],
            len: MAX_WIDE_SAMPLES,
        };
        // Samples spanning every quantizer level around x_hat = 100.
        let deltas = [-100i32, -16, -4, -1, 0, 1, 3, 4, 15, 16, 100, 0, 0, 0, 0, 0];
        for (slot, d) in wn.samples.iter_mut().zip(deltas) {
            *slot = (100 + d) as u16;
        }
        let key = wn.feature_key(100, 0);
        assert!(key < 1 << (3 * MAX_WIDE_SAMPLES), "48-bit key");
        let levels: Vec<u64> = (0..MAX_WIDE_SAMPLES)
            .map(|i| (key >> (3 * i)) & 7)
            .collect();
        assert_eq!(&levels[..11], &[0, 1, 1, 2, 3, 4, 4, 5, 5, 6, 6]);
        // Deep samples scale the deviation back to the 8-bit range.
        let shallow = wn.feature_key(100, 0);
        let deep = wn.feature_key(100, 4);
        assert_ne!(shallow, deep);
    }

    #[test]
    fn mixers_cover_the_bank_range() {
        for mixer in [HashMixer::MultiplyShift, HashMixer::XorMix] {
            let mut hit = vec![false; 1 << 8];
            for key in 0..4096u64 {
                let bank = mixer.bank(key * 0x0123_4567, 8);
                assert!(bank < 256);
                hit[bank] = true;
            }
            let used = hit.iter().filter(|&&b| b).count();
            assert!(used > 200, "{:?} used only {used}/256 banks", mixer);
        }
    }

    #[test]
    fn collision_stats_are_consistent() {
        let img = CorpusImage::Barb.generate(48, 48);
        let stats = collision_stats(img.view(), WideConfig::default());
        assert_eq!(stats.pixels, 48 * 48);
        assert!(stats.banks_used <= stats.distinct_keys);
        assert!(stats.banks_used <= stats.banks_total);
        assert!(stats.distinct_keys <= stats.pixels);
        assert!((0.0..=1.0).contains(&stats.occupancy()));
        assert!((0.0..=1.0).contains(&stats.collision_rate()));
        // More banks can only reduce aliasing.
        let big = collision_stats(
            img.view(),
            WideConfig {
                banks_log2: 14,
                ..WideConfig::default()
            },
        );
        assert!(big.collision_rate() <= stats.collision_rate());
    }

    #[test]
    fn encode_measure_matches_container_payload_mode() {
        // The wire-format WideConfig must measure the same decisions the
        // container path codes.
        let img = CorpusImage::Lena.generate(32, 32);
        let cfg = CodecConfig {
            model: ModelMode::WideHash {
                banks_log2: DEFAULT_BANKS_LOG2,
            },
            ..CodecConfig::default()
        };
        let stats = encode_measure(img.view(), &cfg, WideConfig::default());
        let (_, raw_stats) = crate::codec::encode_raw(img.view(), &cfg);
        assert_eq!(stats.payload_bits, raw_stats.payload_bits);
        assert_eq!(stats.decisions, raw_stats.decisions);
    }

    #[test]
    fn wide_roundtrips_and_differs_from_classic() {
        let img = CorpusImage::Mandrill.generate(40, 40);
        let classic = CodecConfig::default();
        let wide = CodecConfig {
            model: ModelMode::WideHash { banks_log2: 11 },
            ..classic
        };
        let (classic_bytes, _) = crate::codec::encode_raw(img.view(), &classic);
        let (wide_bytes, _) = crate::codec::encode_raw(img.view(), &wide);
        assert_ne!(classic_bytes, wide_bytes, "the mode must change the bits");
        let back = crate::codec::decode_raw(&wide_bytes, 40, 40, 8, &wide);
        assert_eq!(back, img);
    }

    #[test]
    fn wide_roundtrips_across_depths_and_windows() {
        for depth in [1u8, 4, 8, 12, 16] {
            let max = if depth == 16 {
                u16::MAX as u32
            } else {
                (1u32 << depth) - 1
            };
            let img = Image::from_fn16(19, 13, depth, |x, y| {
                ((x as u32 * 977 + y as u32 * 3301) % (max + 1)) as u16
            });
            for window in [WideWindow::W8, WideWindow::W13, WideWindow::W16] {
                for mixer in [HashMixer::MultiplyShift, HashMixer::XorMix] {
                    let wide = WideConfig {
                        window,
                        mixer,
                        banks_log2: 9,
                    };
                    let stats = encode_measure(img.view(), &CodecConfig::default(), wide);
                    assert!(stats.payload_bits > 0, "depth {depth} {window:?} {mixer:?}");
                }
            }
            let cfg = CodecConfig {
                model: ModelMode::WideHash { banks_log2: 9 },
                ..CodecConfig::default()
            };
            let (bytes, _) = crate::codec::encode_raw(img.view(), &cfg);
            let back = crate::codec::decode_raw(&bytes, 19, 13, depth, &cfg);
            assert_eq!(back, img, "depth {depth}");
        }
    }
}
