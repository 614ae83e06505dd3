//! The CALIC continuous-tone coding flow, at 8–16-bit sample depths.

use cbic_arith::{BinaryDecoder, BinaryEncoder, EstimatorConfig};
use cbic_bitio::{BitReader, BitSink, BitWriter};
use cbic_core::codec::SampleCoder;
use cbic_core::context::QE_THRESHOLDS;
use cbic_core::neighborhood::Neighborhood;
use cbic_core::predictor::{gap_predict, threshold_shift, Gradients};
use cbic_core::remap::{fold, half_for_depth, reconstruct, unfold, wrap_error};
use cbic_image::{Image, ImageView, ImageViewMut};

/// Number of entropy-coding contexts. Software CALIC is not bound by the
/// hardware codec's 8-tree SRAM budget; a finer 16-level error-energy
/// quantizer buys the extra conditional-entropy margin the paper reports
/// for CALIC.
pub const CODING_CONTEXTS: usize = 16;
/// Texture events: 256 patterns from 8 comparisons.
const TEXTURE_PATTERNS: usize = 256;
/// Error-energy levels used in the compound modeling contexts.
const ENERGY_LEVELS: usize = 4;
/// Compound contexts for bias cancellation (256 × 4 = 1024; the paper
/// quotes 576 *reachable* contexts in CALIC — the 2N−NN / 2W−WW events are
/// correlated with the rest, so many patterns never occur).
const COMPOUND_CONTEXTS: usize = TEXTURE_PATTERNS * ENERGY_LEVELS;

/// CALIC configuration.
///
/// # Examples
///
/// ```
/// use cbic_calic::CalicConfig;
///
/// let cfg = CalicConfig::default();
/// assert_eq!(cfg.count_cap, 255);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalicConfig {
    /// Probability-estimator tuning for the arithmetic back end.
    pub estimator: EstimatorConfig,
    /// Feedback count saturation (CALIC uses full 8-bit counts; the
    /// hardware codec of `cbic-core` can only afford 5 bits).
    pub count_cap: u16,
}

impl Default for CalicConfig {
    fn default() -> Self {
        Self {
            estimator: EstimatorConfig::default(),
            count_cap: 255,
        }
    }
}

/// Statistics accumulated while encoding one image.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncodeStats {
    /// Pixels coded.
    pub pixels: u64,
    /// Payload bits produced.
    pub payload_bits: u64,
    /// Symbols escaped to the static tree.
    pub escapes: u64,
}

impl EncodeStats {
    /// Compressed bit rate in bits per pixel.
    pub fn bits_per_pixel(&self) -> f64 {
        if self.pixels == 0 {
            0.0
        } else {
            self.payload_bits as f64 / self.pixels as f64
        }
    }
}

/// Per-context error statistics with 8-bit counts and exact division.
#[derive(Debug, Clone)]
struct FeedbackStore {
    sums: Vec<i32>,
    counts: Vec<u16>,
    cap: u16,
    /// Mean magnitude clamp: `2^(n-1)` for `n`-bit samples (never binds at
    /// 8 bits, where |mean| ≤ 128).
    max_mean: i32,
}

impl FeedbackStore {
    fn new(contexts: usize, cap: u16, max_mean: i32) -> Self {
        Self {
            sums: vec![0; contexts],
            counts: vec![0; contexts],
            cap,
            max_mean,
        }
    }

    #[inline]
    fn mean(&self, ctx: usize) -> i32 {
        let c = self.counts[ctx];
        if c == 0 {
            0
        } else {
            // Truncating division towards zero, like the hardware reference.
            let s = self.sums[ctx];
            let q = (s.abs() / i32::from(c)).min(self.max_mean);
            if s < 0 {
                -q
            } else {
                q
            }
        }
    }

    #[inline]
    fn sum(&self, ctx: usize) -> i32 {
        self.sums[ctx]
    }

    #[inline]
    fn update(&mut self, ctx: usize, err: i32) {
        if self.counts[ctx] >= self.cap {
            self.sums[ctx] >>= 1;
            self.counts[ctx] >>= 1;
        }
        self.sums[ctx] += err;
        self.counts[ctx] += 1;
    }
}

/// The 8-event texture pattern: `{N, W, NW, NE, NN, WW, 2N−NN, 2W−WW}`
/// each compared against the prediction.
#[inline]
fn texture8(n: &Neighborhood, prediction: i32) -> usize {
    let e = [
        i32::from(n.n),
        i32::from(n.w),
        i32::from(n.nw),
        i32::from(n.ne),
        i32::from(n.nn),
        i32::from(n.ww),
        2 * i32::from(n.n) - i32::from(n.nn),
        2 * i32::from(n.w) - i32::from(n.ww),
    ];
    let mut t = 0usize;
    for (k, &v) in e.iter().enumerate() {
        if v < prediction {
            t |= 1 << k;
        }
    }
    t
}

/// 16-level error-energy quantizer for the entropy-coding contexts
/// (interleaves midpoints into the 8-level CALIC threshold ladder).
#[inline]
fn quantize_energy16(delta: i32) -> usize {
    const T16: [i32; 15] = [2, 5, 9, 15, 20, 25, 33, 42, 50, 60, 72, 85, 110, 140, 220];
    let mut q = 0;
    for &t in &T16 {
        if delta > t {
            q += 1;
        }
    }
    q
}

/// Quantizes the error energy to the 4 compound-context levels (a coarser
/// cut of the same threshold ladder used for the coding contexts).
#[inline]
fn quantize_energy4(delta: i32) -> usize {
    let mut q = 0;
    for &t in &[QE_THRESHOLDS[1], QE_THRESHOLDS[3], QE_THRESHOLDS[5]] {
        if delta > t {
            q += 1;
        }
    }
    q
}

struct Modeler {
    store: FeedbackStore,
    abs_err: Vec<u16>,
    bit_depth: u8,
    half: i32,
    energy_shift: u32,
}

struct PixelModel {
    qe: usize,
    ctx: usize,
    x_tilde: i32,
    /// CALIC's sign-flipping: when the context's accumulated error sum is
    /// negative, the error is negated before coding so that symmetric
    /// contexts share one (better-estimated) conditional distribution.
    flip: bool,
}

impl Modeler {
    fn new(width: usize, bit_depth: u8, cfg: &CalicConfig) -> Self {
        let half = half_for_depth(bit_depth);
        Self {
            store: FeedbackStore::new(COMPOUND_CONTEXTS, cfg.count_cap, half),
            abs_err: vec![0; width],
            bit_depth,
            half,
            energy_shift: threshold_shift(bit_depth),
        }
    }

    fn model(&self, nb: &Neighborhood, x: usize) -> PixelModel {
        let g = Gradients::compute(nb);
        let x_hat = gap_predict(nb, g, self.bit_depth);
        let e_w = i32::from(if x > 0 {
            self.abs_err[x - 1]
        } else {
            self.abs_err[0]
        });
        let delta = (g.dh + g.dv + 2 * e_w) >> self.energy_shift;
        let qe = quantize_energy16(delta);
        let ctx = (quantize_energy4(delta) << 8) | texture8(nb, x_hat);
        let x_tilde = (x_hat + self.store.mean(ctx)).clamp(0, 2 * self.half - 1);
        let flip = self.store.sum(ctx) < 0;
        PixelModel {
            qe,
            ctx,
            x_tilde,
            flip,
        }
    }

    fn absorb(&mut self, x: usize, ctx: usize, wrapped: i32) {
        self.store.update(ctx, wrapped);
        self.abs_err[x] = wrapped.unsigned_abs().min(u32::from(u16::MAX)) as u16;
    }

    #[inline]
    fn mid(&self) -> u16 {
        self.half as u16
    }
}

/// Encodes the pixels of `img`, returning the raw payload and statistics.
pub fn encode_raw(img: ImageView<'_>, cfg: &CalicConfig) -> (Vec<u8>, EncodeStats) {
    let (width, height) = img.dimensions();
    let mut modeler = Modeler::new(width, img.bit_depth(), cfg);
    let half = modeler.half;
    let mut coder = SampleCoder::new(CODING_CONTEXTS, img.bit_depth(), cfg.estimator);
    let mut enc = BinaryEncoder::new(BitWriter::new());

    for y in 0..height {
        let cur = img.row(y);
        let n1 = (y >= 1).then(|| img.row(y - 1));
        let n2 = (y >= 2).then(|| img.row(y - 2));
        for x in 0..width {
            let nb = Neighborhood::from_rows(cur, n1, n2, x, modeler.mid());
            let m = modeler.model(&nb, x);
            let wrapped = wrap_error(i32::from(cur[x]) - m.x_tilde, half);
            let coded = if m.flip {
                wrap_error(-wrapped, half)
            } else {
                wrapped
            };
            coder.encode(&mut enc, m.qe, fold(coded, half));
            modeler.absorb(x, m.ctx, wrapped);
        }
    }

    let payload_bits = enc.bits_written();
    let coder_stats = coder.stats();
    let writer = enc.finish();
    let stats = EncodeStats {
        pixels: (width * height) as u64,
        payload_bits: payload_bits.max(writer.bits_written()),
        escapes: coder_stats.escapes,
    };
    (writer.into_bytes(), stats)
}

/// Decodes a payload produced by [`encode_raw`] with matching dimensions,
/// bit depth, and configuration.
pub fn decode_raw(
    bytes: &[u8],
    width: usize,
    height: usize,
    bit_depth: u8,
    cfg: &CalicConfig,
) -> Image {
    let mut modeler = Modeler::new(width, bit_depth, cfg);
    let half = modeler.half;
    let mut coder = SampleCoder::new(CODING_CONTEXTS, bit_depth, cfg.estimator);
    let mut dec = BinaryDecoder::new(BitReader::new(bytes));
    let mut img = Image::with_depth(width, height, bit_depth);
    let mut out: ImageViewMut<'_> = img.view_mut();

    for y in 0..height {
        let (n2, n1, cur) = out.causal_rows_mut(y);
        for x in 0..width {
            let nb = Neighborhood::from_rows(cur, n1, n2, x, modeler.mid());
            let m = modeler.model(&nb, x);
            let coded = unfold(coder.decode(&mut dec, m.qe));
            let wrapped = if m.flip {
                wrap_error(-coded, half)
            } else {
                coded
            };
            cur[x] = reconstruct(m.x_tilde, wrapped, half);
            modeler.absorb(x, m.ctx, wrapped);
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbic_image::corpus::CorpusImage;

    fn roundtrip(img: &Image) -> EncodeStats {
        let cfg = CalicConfig::default();
        let (bytes, stats) = encode_raw(img.view(), &cfg);
        let back = decode_raw(&bytes, img.width(), img.height(), img.bit_depth(), &cfg);
        assert_eq!(&back, img, "lossless roundtrip failed");
        stats
    }

    #[test]
    fn roundtrip_corpus() {
        for (name, img) in cbic_image::corpus::generate(48) {
            let stats = roundtrip(&img);
            assert!(stats.payload_bits > 0, "{name:?}");
        }
    }

    #[test]
    fn roundtrip_tiny() {
        for (w, h) in [(1, 1), (1, 7), (7, 1), (5, 3)] {
            roundtrip(&Image::from_fn(w, h, |x, y| (x * 41 + y * 13) as u8));
        }
    }

    #[test]
    fn roundtrip_deep_depths() {
        for depth in [10u8, 12, 16] {
            let img = Image::from_fn16(20, 20, depth, |x, y| {
                ((x as u32 * 887 + y as u32 * 4099) % (1u32 << depth.min(15))) as u16
            });
            roundtrip(&img);
        }
    }

    #[test]
    fn strided_views_encode_identically() {
        let img = CorpusImage::Boat.generate(32, 32);
        let window = img.view().crop(4, 6, 20, 18);
        let cfg = CalicConfig::default();
        let (v, _) = encode_raw(window, &cfg);
        let (c, _) = encode_raw(window.to_image().view(), &cfg);
        assert_eq!(v, c);
    }

    #[test]
    fn texture8_uses_all_eight_events() {
        // A neighbourhood where only the virtual events (2N−NN, 2W−WW)
        // fall below the prediction.
        let nb = Neighborhood {
            n: 100,
            w: 100,
            nw: 100,
            ne: 100,
            nn: 120,
            ww: 120,
            nne: 100,
        };
        // 2N−NN = 80, 2W−WW = 80 < 99; everything else >= 99.
        let t = texture8(&nb, 99);
        assert_eq!(t, 0b1100_0000);
    }

    #[test]
    fn energy_quantizers_are_monotone_and_cover_all_levels() {
        let mut prev16 = 0;
        let mut seen16 = [false; 16];
        for delta in 0..2000 {
            let q16 = quantize_energy16(delta);
            assert!(q16 >= prev16);
            prev16 = q16;
            seen16[q16] = true;
            assert!(quantize_energy4(delta) <= q16);
        }
        assert!(seen16.iter().all(|&s| s));
        assert_eq!(quantize_energy4(0), 0);
        assert_eq!(quantize_energy4(1000), 3);
    }

    #[test]
    fn feedback_store_saturates_at_cap() {
        let mut s = FeedbackStore::new(4, 255, 128);
        for _ in 0..1000 {
            s.update(2, 10);
        }
        assert!(s.counts[2] <= 255);
        assert_eq!(s.mean(2), 10);
    }

    #[test]
    fn constant_image_compresses_hard() {
        let stats = roundtrip(&Image::from_fn(96, 96, |_, _| 31));
        assert!(stats.bits_per_pixel() < 0.2);
    }

    #[test]
    fn calic_beats_order0_entropy() {
        let img = CorpusImage::Lena.generate(96, 96);
        let stats = roundtrip(&img);
        assert!(stats.bits_per_pixel() < img.entropy());
    }
}
