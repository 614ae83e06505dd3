//! The full encoder/decoder pipeline (Fig. 3 of the paper), generalized
//! over 8–16-bit sample depths.
//!
//! The 8-bit path is the paper's codec, bit for bit (pinned by the golden
//! fixtures). Deeper samples reuse the identical model — gradients,
//! GAP-lite prediction with depth-scaled thresholds, 512 compound
//! contexts, error feedback — and factor the wider folded-error alphabet
//! into a high part (the top `n − 8` bits, coded by its own bank of
//! per-`QE` trees) and a low byte (the paper's 8-bit estimator), see
//! [`SampleCoder`].

use crate::container::CodecError;
use crate::engine::{DecoderState, EncoderState};
use cbic_arith::{
    BinaryDecoder, BinaryEncoder, CoderStats, CountingEncoder, DecisionDecoder, DecisionEncoder,
    EstimatorConfig, SymbolCoder,
};
use cbic_bitio::{BitReader, BitSink, BitSource, BitWriter};
use cbic_image::{Image, ImageView, ImageViewMut};

/// Upper bound on the zero-padding bits a decoder may legally read past the
/// end of a well-formed payload: a 32-bit register preload plus final-byte
/// padding, with slack. Anything above this means the stream was truncated.
pub(crate) const MAX_CODE_PADDING_BITS: u64 = 64;

pub use crate::context::DivisionKind;

/// Number of coding contexts (`QE` levels) — fixed at 8 by the paper.
pub const CODING_CONTEXTS: usize = 8;

/// Configuration of the paper's codec.
///
/// The default value is the paper's operating point: 512 compound contexts
/// (6 texture bits × 8 `QE` levels), error feedback with aging and LUT
/// division, and a 14-bit probability estimator. The other settings exist
/// for the Fig. 4 counter-width sweep and the ablation experiments (A1
/// aging, A2 division, A3 error feedback; the `ablations` bin of
/// `cbic-bench` runs them). The sample bit depth is *not* part of the
/// configuration: it travels on the [`ImageView`] and in the container
/// header.
///
/// # Examples
///
/// ```
/// use cbic_core::CodecConfig;
///
/// let cfg = CodecConfig::default();
/// assert_eq!(cfg.compound_contexts(), 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecConfig {
    /// Probability-estimator tuning (Fig. 4 sweeps `count_bits`).
    pub estimator: EstimatorConfig,
    /// Enable the per-context error feedback `X̃ = X̂ + ē` (ablation A3).
    pub error_feedback: bool,
    /// Enable the overflow-guard halving ("aging", ablation A1). When
    /// disabled the context statistics freeze once the count saturates.
    pub aging: bool,
    /// LUT or exact division for the feedback mean (ablation A2).
    pub division: DivisionKind,
    /// Texture-pattern width in bits, `0..=6`; compound contexts =
    /// `8 × 2^texture_bits` (the paper uses 6 → 512).
    pub texture_bits: u8,
}

impl Default for CodecConfig {
    fn default() -> Self {
        Self {
            estimator: EstimatorConfig::default(),
            error_feedback: true,
            aging: true,
            division: DivisionKind::Lut,
            texture_bits: 6,
        }
    }
}

impl CodecConfig {
    /// Total number of compound contexts (`8 × 2^texture_bits`).
    ///
    /// # Panics
    ///
    /// Panics if `texture_bits > 6`.
    pub fn compound_contexts(&self) -> usize {
        assert!(self.texture_bits <= 6, "texture_bits must be 0..=6");
        CODING_CONTEXTS << self.texture_bits
    }
}

/// Statistics accumulated while encoding one image.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncodeStats {
    /// Pixels coded.
    pub pixels: u64,
    /// Payload bits produced (exact, pre-padding).
    pub payload_bits: u64,
    /// Symbols that escaped to the static tree.
    pub escapes: u64,
    /// Tree-wide estimator rescales.
    pub estimator_rescales: u64,
    /// Context-store overflow-guard halvings.
    pub context_halvings: u64,
    /// Binary decisions pushed through the arithmetic coder.
    pub decisions: u64,
    /// Decisions that were *coded* (non-deterministic): the subset that
    /// moved the coder's interval and cost code space. The remainder were
    /// deterministic prefixes retired at the model layer for free.
    pub coded_decisions: u64,
}

impl EncodeStats {
    /// Compressed bit rate in bits per pixel (the unit of Table 1).
    pub fn bits_per_pixel(&self) -> f64 {
        if self.pixels == 0 {
            0.0
        } else {
            self.payload_bits as f64 / self.pixels as f64
        }
    }

    /// Average binary decisions per pixel (drives the pipeline model).
    pub fn decisions_per_pixel(&self) -> f64 {
        if self.pixels == 0 {
            0.0
        } else {
            self.decisions as f64 / self.pixels as f64
        }
    }

    /// Average *coded* (non-deterministic) decisions per pixel — the
    /// decisions that actually reached the arithmetic coder after
    /// deterministic-prefix skipping.
    pub fn coded_decisions_per_pixel(&self) -> f64 {
        if self.pixels == 0 {
            0.0
        } else {
            self.coded_decisions as f64 / self.pixels as f64
        }
    }

    /// Fraction of decisions retired as deterministic at the model layer,
    /// in `0.0..=1.0`.
    pub fn deterministic_fraction(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            1.0 - self.coded_decisions as f64 / self.decisions as f64
        }
    }
}

/// Depth-adaptive coder over folded prediction errors.
///
/// For depths up to 8 bits this is exactly the paper's estimator: one
/// dynamic tree per `QE` coding context over the `2ⁿ`-symbol alphabet.
/// For deeper samples the folded error is factored into its **high bits**
/// (`n − 8` of them, coded by a second bank of per-`QE` trees — smooth
/// content keeps these pinned near zero, costing almost nothing) followed
/// by its **low byte** through the standard 8-bit estimator. Both banks
/// share the one arithmetic coder, so the stream stays a single bit
/// sequence and the 8-bit path is bit-identical to the original design.
///
/// # Examples
///
/// ```
/// use cbic_arith::{BinaryDecoder, BinaryEncoder, EstimatorConfig};
/// use cbic_bitio::{BitReader, BitWriter};
/// use cbic_core::codec::SampleCoder;
///
/// let cfg = EstimatorConfig::default();
/// let mut enc_coder = SampleCoder::new(8, 12, cfg);
/// let mut enc = BinaryEncoder::new(BitWriter::new());
/// enc_coder.encode(&mut enc, 3, 3000);
/// let bytes = enc.finish().into_bytes();
///
/// let mut dec_coder = SampleCoder::new(8, 12, cfg);
/// let mut dec = BinaryDecoder::new(BitReader::new(&bytes));
/// assert_eq!(dec_coder.decode(&mut dec, 3), 3000);
/// ```
#[derive(Debug, Clone)]
pub struct SampleCoder {
    /// The low (or only) part: alphabet `2^min(depth, 8)`.
    lo: SymbolCoder,
    /// The high part for depths above 8: alphabet `2^(depth - 8)`.
    hi: Option<SymbolCoder>,
    bit_depth: u8,
}

impl SampleCoder {
    /// Creates a coder with `contexts` trees per bank for folded errors of
    /// the given sample depth.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` is zero, the depth is outside `1..=16`, or the
    /// estimator configuration is invalid.
    pub fn new(contexts: usize, bit_depth: u8, cfg: EstimatorConfig) -> Self {
        assert!(
            (1..=16).contains(&bit_depth),
            "bit depth {bit_depth} outside 1..=16"
        );
        let lo_depth = u32::from(bit_depth.min(8));
        Self {
            lo: SymbolCoder::with_depth(contexts, lo_depth, cfg),
            hi: (bit_depth > 8)
                .then(|| SymbolCoder::with_depth(contexts, u32::from(bit_depth) - 8, cfg)),
            bit_depth,
        }
    }

    /// The folded-error bit depth this coder was built for.
    pub fn bit_depth(&self) -> u8 {
        self.bit_depth
    }

    /// Restores the start-of-stream state in place (see
    /// [`SymbolCoder::reset`]).
    pub fn reset(&mut self) {
        self.lo.reset();
        if let Some(hi) = &mut self.hi {
            hi.reset();
        }
    }

    /// Accumulated coding statistics across both banks.
    pub fn stats(&self) -> CoderStats {
        let mut s = self.lo.stats();
        if let Some(hi) = &self.hi {
            let h = hi.stats();
            s.symbols += h.symbols;
            s.escapes += h.escapes;
            s.rescales += h.rescales;
            s.decisions += h.decisions;
            s.coded_decisions += h.coded_decisions;
        }
        s
    }

    /// Encodes one folded error in coding context `ctx`.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range or `folded` has bits above the
    /// coder's depth.
    #[inline]
    pub fn encode<E: DecisionEncoder>(&mut self, enc: &mut E, ctx: usize, folded: u16) {
        if let Some(hi) = &mut self.hi {
            hi.encode(enc, ctx, (folded >> 8) as u8);
            self.lo.encode(enc, ctx, (folded & 0xFF) as u8);
        } else {
            debug_assert!(self.bit_depth == 8 || folded < 1 << self.bit_depth);
            self.lo.encode(enc, ctx, folded as u8);
        }
    }

    /// Decodes one folded error from coding context `ctx`.
    #[inline]
    pub fn decode<D: DecisionDecoder>(&mut self, dec: &mut D, ctx: usize) -> u16 {
        if let Some(hi) = &mut self.hi {
            let high = u16::from(hi.decode(dec, ctx));
            let low = u16::from(self.lo.decode(dec, ctx));
            (high << 8) | low
        } else {
            u16::from(self.lo.decode(dec, ctx))
        }
    }
}

/// Encodes the pixels of `img` into a raw arithmetic-coded payload (no
/// container header).
///
/// Returns the payload bytes and the encoding statistics. Use
/// [`compress`](crate::compress) for the self-describing container. The
/// view may be strided (a tile band, a crop); the bits depend only on the
/// pixels and the bit depth, never on the stride. The pixel loop is the
/// engine's ([`EncoderState::encode_view`]) — the same datapath every
/// other encode entry point drives.
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`CodecConfig`]).
pub fn encode_raw(img: ImageView<'_>, cfg: &CodecConfig) -> (Vec<u8>, EncodeStats) {
    let mut state = EncoderState::new(img.width(), img.bit_depth(), cfg);
    let mut enc = BinaryEncoder::new(BitWriter::new());
    state.encode_view(img, &mut enc);

    let (width, height) = img.dimensions();
    let decisions = enc.decisions();
    let coded_decisions = enc.coded_decisions();
    let payload_bits = enc.bits_written();
    let coder_stats = state.coder_stats();
    let writer = enc.finish();
    let stats = EncodeStats {
        pixels: (width * height) as u64,
        payload_bits: payload_bits.max(writer.bits_written()),
        escapes: coder_stats.escapes,
        estimator_rescales: coder_stats.rescales,
        context_halvings: state.halvings(),
        decisions,
        coded_decisions,
    };
    (writer.into_bytes(), stats)
}

/// Runs the complete *model* pipeline of [`encode_raw`] — prediction,
/// context formation, tree descents and updates, decision classification —
/// into a null encoder that counts decisions but codes nothing, and
/// returns the statistics (with `payload_bits` zero).
///
/// The decision stream this pass classifies is identical to a real
/// encode's, so its wall time is the model stage's share of
/// [`encode_raw`]; the benchmark's layer ledger (`benchmark/src/ledger.rs`)
/// times it alone as its model + tree span.
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`CodecConfig`]).
pub fn encode_model_only(img: ImageView<'_>, cfg: &CodecConfig) -> EncodeStats {
    let mut state = EncoderState::new(img.width(), img.bit_depth(), cfg);
    let mut enc = CountingEncoder::new();
    state.encode_view(img, &mut enc);
    let (width, height) = img.dimensions();
    let coder_stats = state.coder_stats();
    EncodeStats {
        pixels: (width * height) as u64,
        payload_bits: 0,
        escapes: coder_stats.escapes,
        estimator_rescales: coder_stats.rescales,
        context_halvings: state.halvings(),
        decisions: enc.decisions(),
        coded_decisions: enc.coded_decisions(),
    }
}

/// Decodes a raw payload produced by [`encode_raw`] with the same
/// dimensions, bit depth, and configuration.
///
/// The configuration **must** match the encoder's; the container API
/// handles that automatically.
///
/// # Panics
///
/// Panics if the configuration or depth is invalid. A mismatched payload
/// produces garbage pixels but never unsafety.
pub fn decode_raw(
    bytes: &[u8],
    width: usize,
    height: usize,
    bit_depth: u8,
    cfg: &CodecConfig,
) -> Image {
    let mut img = Image::with_depth(width, height, bit_depth);
    let mut state = DecoderState::new(width, bit_depth, cfg);
    let mut dec = BinaryDecoder::new(BitReader::new(bytes));
    // A payload that runs dry leaves the remaining rows zero; this raw
    // entry point reports no errors, so the verdict is dropped.
    let _ = decode_rows_checked(&mut state, &mut dec, &mut img.view_mut());
    img
}

/// The row loop of every buffered decoder ([`decode_raw`], the
/// [`DecoderSession`](crate::DecoderSession) and the grid's tiles): decodes
/// `out` row by row and stops at the first row after which the source has
/// served more than [`MAX_CODE_PADDING_BITS`] zero-padding bits, answering
/// [`CodecError::Truncated`]. Padding only grows, so this rejects exactly
/// the streams a check after the last row would, but a header that
/// promises far more pixels than its payload holds fails within a row or
/// two instead of after the whole image (as
/// [`StreamDecoder::next_row`](crate::StreamDecoder::next_row) does).
pub(crate) fn decode_rows_checked<S: BitSource>(
    state: &mut DecoderState,
    dec: &mut BinaryDecoder<S>,
    out: &mut ImageViewMut<'_>,
) -> Result<(), CodecError> {
    let within_budget = |d: &BinaryDecoder<S>| d.source().padding_bits() <= MAX_CODE_PADDING_BITS;
    let _rows = state.decode_rows_while(dec, out, within_budget);
    #[cfg(test)]
    tests::ROWS_DECODED.with(|r| r.set(_rows));
    if within_budget(dec) {
        Ok(())
    } else {
        Err(CodecError::Truncated)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cbic_image::corpus::CorpusImage;

    thread_local! {
        /// Rows the last [`decode_rows_checked`] or
        /// [`StreamDecoder::decode_all`](crate::StreamDecoder::decode_all)
        /// call on this thread decoded, so the truncation tests can count
        /// rows, not time.
        pub(crate) static ROWS_DECODED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn roundtrip(img: &Image, cfg: &CodecConfig) -> EncodeStats {
        let (bytes, stats) = encode_raw(img.view(), cfg);
        let back = decode_raw(&bytes, img.width(), img.height(), img.bit_depth(), cfg);
        assert_eq!(&back, img, "lossless roundtrip failed");
        stats
    }

    #[test]
    fn roundtrip_corpus_images() {
        let cfg = CodecConfig::default();
        for (name, img) in cbic_image::corpus::generate(48) {
            let stats = roundtrip(&img, &cfg);
            assert_eq!(stats.pixels, 48 * 48, "{name:?}");
        }
    }

    #[test]
    fn roundtrip_tiny_images() {
        let cfg = CodecConfig::default();
        for (w, h) in [(1, 1), (1, 8), (8, 1), (2, 3), (17, 5)] {
            let img = Image::from_fn(w, h, |x, y| (x * 31 + y * 17) as u8);
            roundtrip(&img, &cfg);
        }
    }

    #[test]
    fn roundtrip_deep_depths() {
        let cfg = CodecConfig::default();
        for depth in [9u8, 10, 12, 14, 16] {
            let max = if depth == 16 {
                u16::MAX as u32
            } else {
                (1u32 << depth) - 1
            };
            let img = Image::from_fn16(24, 24, depth, |x, y| {
                ((x as u32 * 977 + y as u32 * 3301) % (max + 1)) as u16
            });
            roundtrip(&img, &cfg);
        }
    }

    #[test]
    fn roundtrip_shallow_depths() {
        let cfg = CodecConfig::default();
        for depth in [1u8, 2, 4, 7] {
            let max = (1u32 << depth) - 1;
            let img = Image::from_fn16(16, 16, depth, |x, y| {
                ((x * 3 + y) as u32 % (max + 1)) as u16
            });
            roundtrip(&img, &cfg);
        }
    }

    #[test]
    fn smooth_sixteen_bit_content_stays_cheap() {
        // A smooth 16-bit ramp: the high-bits bank must pin to zero and
        // the rate should stay far below the raw 16 bpp.
        let img = Image::from_fn16(96, 96, 16, |x, y| ((x + y) * 300) as u16);
        let stats = roundtrip(&img, &CodecConfig::default());
        assert!(
            stats.bits_per_pixel() < 4.0,
            "smooth 16-bit ramp cost {} bpp",
            stats.bits_per_pixel()
        );
    }

    #[test]
    fn strided_band_views_encode_identically_to_copies() {
        let img = CorpusImage::Goldhill.generate(40, 40);
        let band = img.view().row_range(10, 16);
        let (from_view, _) = encode_raw(band, &CodecConfig::default());
        let (from_copy, _) = encode_raw(band.to_image().view(), &CodecConfig::default());
        assert_eq!(from_view, from_copy);
        let crop = img.view().crop(3, 5, 20, 18);
        assert!(!crop.is_contiguous());
        let (v, _) = encode_raw(crop, &CodecConfig::default());
        let (c, _) = encode_raw(crop.to_image().view(), &CodecConfig::default());
        assert_eq!(v, c, "stride must not leak into the bits");
    }

    #[test]
    fn constant_image_compresses_hard() {
        let img = Image::from_fn(128, 128, |_, _| 200);
        let stats = roundtrip(&img, &CodecConfig::default());
        assert!(
            stats.bits_per_pixel() < 0.2,
            "constant image cost {} bpp",
            stats.bits_per_pixel()
        );
    }

    #[test]
    fn smooth_gradient_compresses_well() {
        let img = Image::from_fn(128, 128, |x, y| ((x + y) / 2) as u8);
        let stats = roundtrip(&img, &CodecConfig::default());
        assert!(
            stats.bits_per_pixel() < 1.0,
            "gradient cost {} bpp",
            stats.bits_per_pixel()
        );
    }

    #[test]
    fn noise_does_not_expand_catastrophically() {
        // Incompressible input must stay below ~9.2 bpp (8 bpp + escape
        // decision overhead).
        let img = Image::from_fn(64, 64, |x, y| {
            (cbic_image::synth::lattice(1, x as i64, y as i64) * 256.0) as u8
        });
        let stats = roundtrip(&img, &CodecConfig::default());
        assert!(
            stats.bits_per_pixel() < 9.2,
            "noise cost {} bpp",
            stats.bits_per_pixel()
        );
    }

    #[test]
    fn error_feedback_helps_on_textured_content() {
        // The paper's central claim: per-context error feedback cancels
        // prediction bias. On textured natural-like content (the barb
        // stand-in) the 512-context feedback wins clearly.
        let img = CorpusImage::Barb.generate(128, 128);
        let with = roundtrip(&img, &CodecConfig::default());
        let without = roundtrip(
            &img,
            &CodecConfig {
                error_feedback: false,
                ..CodecConfig::default()
            },
        );
        assert!(
            with.bits_per_pixel() < without.bits_per_pixel(),
            "feedback {} vs none {}",
            with.bits_per_pixel(),
            without.bits_per_pixel()
        );
    }

    #[test]
    fn division_kind_changes_little() {
        let img = CorpusImage::Goldhill.generate(96, 96);
        let lut = roundtrip(&img, &CodecConfig::default());
        let exact = roundtrip(
            &img,
            &CodecConfig {
                division: DivisionKind::Exact,
                ..CodecConfig::default()
            },
        );
        let diff = (lut.bits_per_pixel() - exact.bits_per_pixel()).abs();
        assert!(diff < 0.05, "LUT vs exact division differ by {diff} bpp");
    }

    #[test]
    fn texture_bits_sweep_roundtrips() {
        let img = CorpusImage::Peppers.generate(40, 40);
        for bits in 0..=6u8 {
            let cfg = CodecConfig {
                texture_bits: bits,
                ..CodecConfig::default()
            };
            assert_eq!(cfg.compound_contexts(), 8 << bits);
            roundtrip(&img, &cfg);
        }
    }

    #[test]
    fn count_bits_sweep_roundtrips() {
        let img = CorpusImage::Barb.generate(40, 40);
        for bits in [10u8, 12, 14, 16] {
            let cfg = CodecConfig {
                estimator: EstimatorConfig {
                    count_bits: bits,
                    ..EstimatorConfig::default()
                },
                ..CodecConfig::default()
            };
            roundtrip(&img, &cfg);
        }
    }

    #[test]
    fn decisions_are_nine_per_pixel() {
        let img = CorpusImage::Lena.generate(32, 32);
        let (_, stats) = encode_raw(img.view(), &CodecConfig::default());
        assert!((stats.decisions_per_pixel() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn deep_samples_cost_more_decisions_per_pixel() {
        // 12-bit: 1 + 4 high decisions + 1 + 8 low decisions = 14.
        let img = Image::from_fn16(16, 16, 12, |x, y| (x * 250 + y) as u16);
        let (_, stats) = encode_raw(img.view(), &CodecConfig::default());
        assert!((stats.decisions_per_pixel() - 14.0).abs() < 1e-9);
    }

    #[test]
    fn stats_bits_match_payload() {
        let img = CorpusImage::Boat.generate(32, 32);
        let (bytes, stats) = encode_raw(img.view(), &CodecConfig::default());
        assert!(stats.payload_bits <= bytes.len() as u64 * 8);
        assert!(stats.payload_bits + 64 > bytes.len() as u64 * 8);
    }

    #[test]
    fn mismatched_config_decodes_garbage_not_panic() {
        let img = CorpusImage::Zelda.generate(24, 24);
        let (bytes, _) = encode_raw(img.view(), &CodecConfig::default());
        let wrong = CodecConfig {
            texture_bits: 2,
            ..CodecConfig::default()
        };
        let out = decode_raw(&bytes, 24, 24, 8, &wrong);
        assert_eq!(out.dimensions(), (24, 24));
    }

    #[test]
    fn aging_beats_frozen_statistics() {
        // The paper: rescaling "slightly improves the compression ratio by
        // aging the observed data". Measurable on textured corpus content.
        let img = CorpusImage::Barb.generate(128, 128);
        let aged = roundtrip(&img, &CodecConfig::default());
        let frozen = roundtrip(
            &img,
            &CodecConfig {
                aging: false,
                ..CodecConfig::default()
            },
        );
        assert!(
            aged.bits_per_pixel() < frozen.bits_per_pixel(),
            "aged {} vs frozen {}",
            aged.bits_per_pixel(),
            frozen.bits_per_pixel()
        );
    }

    #[test]
    fn sample_coder_roundtrips_every_depth() {
        use cbic_bitio::{BitReader, BitWriter};
        for depth in [1u8, 4, 8, 9, 12, 16] {
            let cfg = EstimatorConfig::default();
            let mask = if depth == 16 {
                0xFFFFu32
            } else {
                (1u32 << depth) - 1
            };
            let symbols: Vec<u16> = (0..600u32)
                .map(|i| (i.wrapping_mul(2654435761) & mask) as u16)
                .collect();
            let mut enc_coder = SampleCoder::new(4, depth, cfg);
            let mut enc = BinaryEncoder::new(BitWriter::new());
            for (i, &s) in symbols.iter().enumerate() {
                enc_coder.encode(&mut enc, i % 4, s);
            }
            let bytes = enc.finish().into_bytes();
            let mut dec_coder = SampleCoder::new(4, depth, cfg);
            let mut dec = BinaryDecoder::new(BitReader::new(&bytes));
            for (i, &s) in symbols.iter().enumerate() {
                assert_eq!(dec_coder.decode(&mut dec, i % 4), s, "depth {depth}");
            }
            assert_eq!(enc_coder.stats().symbols, dec_coder.stats().symbols);
        }
    }

    #[test]
    fn buffered_decoders_stop_within_two_rows_of_a_forged_container() {
        // A 32x32 container whose header claims 4096x4096: its payload runs
        // dry inside the first row, so every decode loop must give up
        // within two rows, not decode all 4096. `decompress` runs the
        // stream decoder's rows, the session and the grid tiles the
        // buffered row loop.
        use crate::container::{compress, decompress, CodecError};
        use crate::grid::{compress_grid, decompress_grid, TileGeometry};
        use crate::session::DecoderSession;
        use cbic_image::{CbicError, Parallelism};
        let forge = |bytes: &mut [u8]| {
            bytes[6..10].copy_from_slice(&4096u32.to_le_bytes());
            bytes[10..14].copy_from_slice(&4096u32.to_le_bytes());
        };
        let rows = || ROWS_DECODED.with(std::cell::Cell::get);
        let img = CorpusImage::Lena.generate(32, 32);
        let cfg = CodecConfig::default();

        let mut flat = compress(img.view(), &cfg);
        forge(&mut flat);
        ROWS_DECODED.with(|r| r.set(usize::MAX));
        assert_eq!(decompress(&flat), Err(CodecError::Truncated));
        assert!(rows() <= 2, "decompress decoded {} rows", rows());

        ROWS_DECODED.with(|r| r.set(usize::MAX));
        let err = DecoderSession::new().decode(&mut &flat[..]).unwrap_err();
        assert!(matches!(err, CbicError::Truncated), "{err:?}");
        assert!(rows() <= 2, "the decoder session decoded {} rows", rows());

        // A 1x1 grid whose tile is forged to match: the index still holds
        // one entry and the substream's CRC still checks.
        let mut grid = compress_grid(
            img.view(),
            &cfg,
            TileGeometry::new(32, 32),
            1,
            Parallelism::Sequential,
        );
        forge(&mut grid);
        grid[25..29].copy_from_slice(&4096u32.to_le_bytes());
        grid[29..33].copy_from_slice(&4096u32.to_le_bytes());
        ROWS_DECODED.with(|r| r.set(usize::MAX));
        assert_eq!(
            decompress_grid(&grid, Parallelism::Sequential),
            Err(CodecError::Truncated)
        );
        assert!(rows() <= 2, "a grid tile decoded {} rows", rows());
    }

    #[test]
    fn model_only_pass_classifies_the_same_decision_stream() {
        let img = CorpusImage::Lena.generate(48, 48);
        let cfg = CodecConfig::default();
        let (_, full) = encode_raw(img.view(), &cfg);
        let model = encode_model_only(img.view(), &cfg);
        assert_eq!(model.payload_bits, 0);
        assert_eq!(model.decisions, full.decisions);
        assert_eq!(model.coded_decisions, full.coded_decisions);
        assert_eq!(model.escapes, full.escapes);
        assert!(full.coded_decisions <= full.decisions);
        assert!(full.deterministic_fraction() >= 0.0);
        assert!(full.coded_decisions_per_pixel() <= full.decisions_per_pixel());
    }
}
