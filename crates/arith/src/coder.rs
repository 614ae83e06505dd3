//! The complete probability estimator of the paper: dynamic trees per
//! coding context, adaptive escape decisions, and the static tree.

use crate::adaptive::AdaptiveBit;
use crate::bincoder::{DecisionDecoder, DecisionEncoder, MAX_TOTAL};
use crate::stats::CoderStats;
use crate::tree::{DecisionPath, TreeModel};

/// Per-symbol decision budget of a [`SymbolCoder`], static ceiling and
/// measured reality side by side.
///
/// The design's *ceiling* is constant — one escape decision plus `depth`
/// path (or static-tree) decisions, the figure that sets the hardware
/// pipeline's initiation interval. What actually reaches the arithmetic
/// coder is smaller: deterministic decisions (a path node whose sibling
/// branch holds zero count) are classified at capture time and retired at
/// the model layer, so `coded` reports the measured average of decisions
/// that moved the interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionsPerSymbol {
    /// Static decisions per symbol: `1 + depth`, independent of content.
    pub ceiling: u32,
    /// Measured coded (non-deterministic) decisions per symbol so far
    /// (0.0 before any symbol is coded).
    pub coded: f64,
}

/// Tuning knobs of the probability estimator.
///
/// `count_bits` is the frequency-counter width the paper sweeps in Fig. 4
/// (10–16 bits, settling on 14): counters cap at `2^count_bits − 1` and the
/// whole tree is halved when the cap is reached. `increment` is the step
/// added per observation; larger steps adapt faster but hit the cap (and
/// therefore age) sooner.
///
/// # Examples
///
/// ```
/// use cbic_arith::EstimatorConfig;
///
/// let cfg = EstimatorConfig { count_bits: 12, ..EstimatorConfig::default() };
/// assert_eq!(cfg.max_total(), (1 << 12) - 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EstimatorConfig {
    /// Frequency counter width in bits (the paper's Fig. 4 x-axis).
    /// Valid range `10..=16`.
    pub count_bits: u8,
    /// Count added per observed symbol (per tree level on its path).
    pub increment: u16,
    /// Initial (no-escape, escape) counts of the per-tree escape decision.
    pub escape_init: (u16, u16),
}

impl Default for EstimatorConfig {
    /// The paper's operating point: 14-bit counters (chosen in Fig. 4).
    ///
    /// The increment of 2 reproduces Fig. 4's shape on the 512×512 corpus —
    /// the average bit rate bottoms out at 14 counter bits and *rises* for
    /// both narrower counters (escape churn) and wider ones (over-skewed,
    /// stale statistics) — while costing Table 1 under 0.005 bpp against
    /// faster-adapting increments.
    fn default() -> Self {
        Self {
            count_bits: 14,
            increment: 2,
            escape_init: (16, 1),
        }
    }
}

impl EstimatorConfig {
    /// Maximum value a frequency counter may reach: `2^count_bits − 1`.
    ///
    /// # Panics
    ///
    /// Panics if `count_bits` is outside `10..=16`.
    pub fn max_total(&self) -> u32 {
        assert!(
            (10..=16).contains(&self.count_bits),
            "count_bits {} outside supported range 10..=16",
            self.count_bits
        );
        let m = (1u32 << self.count_bits) - 1;
        debug_assert!(m < MAX_TOTAL);
        m
    }
}

/// Adaptive symbol coder: `N` dynamic context trees + escape + static tree.
///
/// This is the paper's Section IV estimator in full. For the image codec
/// `N = 8` (the quantized coding contexts `QE`); other front ends (the
/// general-data model of the Fig. 1 universal system) instantiate more.
///
/// Symbols whose probability has decayed to zero in their context tree are
/// *escaped*: an adaptive per-context binary decision signals the escape and
/// the raw symbol is transmitted through the static (uniform) tree, i.e.
/// "sent as it is" in 8 bits of code space. The dynamic tree is updated
/// either way so the symbol regains probability.
#[derive(Debug, Clone)]
pub struct SymbolCoder {
    trees: Vec<TreeModel>,
    escape: Vec<AdaptiveBit>,
    depth: u32,
    cfg: EstimatorConfig,
    stats: CoderStats,
}

impl SymbolCoder {
    /// Creates a coder with `contexts` dynamic trees over the full 8-bit
    /// alphabet.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` is zero or the configuration is invalid (see
    /// [`EstimatorConfig::max_total`]).
    pub fn new(contexts: usize, cfg: EstimatorConfig) -> Self {
        Self::with_depth(contexts, 8, cfg)
    }

    /// Creates a coder over a `2^depth`-symbol alphabet (used by tests and
    /// by front ends with reduced alphabets).
    ///
    /// # Panics
    ///
    /// Panics if `contexts == 0` or `depth` is not in `1..=8`.
    pub fn with_depth(contexts: usize, depth: u32, cfg: EstimatorConfig) -> Self {
        assert!(contexts > 0, "need at least one coding context");
        let max = cfg.max_total();
        Self {
            trees: (0..contexts).map(|_| TreeModel::new(depth, cfg)).collect(),
            escape: (0..contexts)
                .map(|_| AdaptiveBit::with_counts(cfg.escape_init.0, cfg.escape_init.1, max))
                .collect(),
            depth,
            cfg,
            stats: CoderStats::default(),
        }
    }

    /// Restores the start-of-stream state in place — every tree back to
    /// the uniform distribution, every escape decision to its initial
    /// counts, statistics zeroed — without reallocating any table. A reset
    /// coder codes byte-identically to a freshly constructed one, which is
    /// what lets an encoder *session* reuse its estimator across images.
    pub fn reset(&mut self) {
        let max = self.cfg.max_total();
        for tree in &mut self.trees {
            tree.reset();
        }
        for esc in &mut self.escape {
            *esc = AdaptiveBit::with_counts(self.cfg.escape_init.0, self.cfg.escape_init.1, max);
        }
        self.stats = CoderStats::default();
    }

    /// Number of coding contexts (dynamic trees).
    pub fn contexts(&self) -> usize {
        self.trees.len()
    }

    /// Accumulated coding statistics.
    pub fn stats(&self) -> CoderStats {
        let mut s = self.stats;
        s.rescales = self.trees.iter().map(TreeModel::rescales).sum();
        s
    }

    /// Borrow a context tree (diagnostics and tests).
    pub fn tree(&self, ctx: usize) -> &TreeModel {
        &self.trees[ctx]
    }

    /// Encodes `symbol` in coding context `ctx`.
    ///
    /// Decisions go to the coder as the tree descent produces them. A
    /// symbol whose path cannot hold a zero branch takes one fused
    /// [`encode_and_update`](TreeModel::encode_and_update) descent; one
    /// that may escape is screened by a single
    /// [`capture_and_update`](TreeModel::capture_and_update) walk first.
    /// The coder screens deterministic decisions itself. Bit-identical to
    /// the historical probe/code/update sequence.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range, or (for reduced alphabets) if
    /// `symbol` has bits above `depth`.
    pub fn encode<E: DecisionEncoder>(&mut self, enc: &mut E, ctx: usize, symbol: u8) {
        assert!(
            self.depth == 8 || u32::from(symbol) < (1u32 << self.depth),
            "symbol {symbol} out of range for {}-bit alphabet",
            self.depth
        );
        self.stats.symbols += 1;
        self.stats.decisions += 1 + u64::from(self.depth);
        let tree = &mut self.trees[ctx];
        let before = enc.coded_decisions();
        if !tree.maybe_escapes(symbol) {
            // Hot case: a clear maybe-zero bit *guarantees* the path has
            // no zero branch, so the escape outcome is known without a
            // probe and one fused descent codes + updates.
            self.escape[ctx].encode(enc, false);
            tree.encode_and_update(enc, symbol);
        } else {
            let mut path = DecisionPath::empty();
            let escaped = tree.capture_and_update(symbol, &mut path);
            self.escape[ctx].encode(enc, escaped);
            if escaped {
                self.stats.escapes += 1;
                // Static tree: the symbol is sent as-is, one equiprobable
                // decision per bit.
                for k in (0..self.depth).rev() {
                    enc.encode((symbol >> k) & 1 == 1, 1, 2);
                }
            } else {
                path.replay(enc, symbol);
            }
        }
        self.stats.coded_decisions += enc.coded_decisions() - before;
    }

    /// Decodes one symbol from coding context `ctx` (the fused
    /// decode-and-update descent, the dual of [`Self::encode`]).
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    #[inline(always)]
    pub fn decode<D: DecisionDecoder>(&mut self, dec: &mut D, ctx: usize) -> u8 {
        self.stats.symbols += 1;
        self.stats.decisions += 1 + u64::from(self.depth);
        // The decoder screens deterministic decisions at the model layer
        // (inside `decode_and_update`), so the coder's own counter tells us
        // how many of this symbol's decisions actually consumed code space
        // — which must mirror the encoder's capture-time classification.
        let before = dec.coded_decisions();
        let escaped = self.escape[ctx].decode(dec);
        let symbol = if escaped {
            self.stats.escapes += 1;
            let mut s = 0u8;
            for _ in 0..self.depth {
                s = (s << 1) | u8::from(dec.decode(1, 2));
            }
            self.trees[ctx].update(s);
            s
        } else {
            self.trees[ctx].decode_and_update(dec)
        };
        self.stats.coded_decisions += dec.coded_decisions() - before;
        symbol
    }

    /// Per-symbol decision counts: the static ceiling (1 escape decision +
    /// `depth` path/static decisions — the figure that sets the hardware
    /// pipeline's initiation interval) alongside the *measured* coded
    /// decisions per symbol, which deterministic-prefix skipping makes
    /// strictly smaller on adapted streams.
    pub fn decisions_per_symbol(&self) -> DecisionsPerSymbol {
        DecisionsPerSymbol {
            ceiling: 1 + self.depth,
            coded: if self.stats.symbols == 0 {
                0.0
            } else {
                self.stats.coded_decisions as f64 / self.stats.symbols as f64
            },
        }
    }
}

/// The historical per-decision coding sequence, kept as the oracle the
/// differential tests pin [`SymbolCoder::encode`] and
/// [`SymbolCoder::decode`] against.
#[cfg(test)]
impl SymbolCoder {
    /// Encodes `symbol` exactly as the pre-fast-path coder did: an escape
    /// probe descent, per-decision coder calls, then a separate update
    /// descent. Byte-identical to [`Self::encode`]; kept for differential
    /// testing only.
    pub fn encode_reference<E: DecisionEncoder>(&mut self, enc: &mut E, ctx: usize, symbol: u8) {
        assert!(
            self.depth == 8 || u32::from(symbol) < (1u32 << self.depth),
            "symbol {symbol} out of range for {}-bit alphabet",
            self.depth
        );
        self.stats.symbols += 1;
        self.stats.decisions += 1 + u64::from(self.depth);
        let before = enc.coded_decisions();
        let escaped = self.trees[ctx].path_has_zero(symbol);
        self.escape[ctx].encode(enc, escaped);
        if escaped {
            self.stats.escapes += 1;
            for k in (0..self.depth).rev() {
                enc.encode((symbol >> k) & 1 == 1, 1, 2);
            }
        } else {
            self.trees[ctx].encode_decisions(enc, symbol);
        }
        self.trees[ctx].update(symbol);
        self.stats.coded_decisions += enc.coded_decisions() - before;
    }

    /// Decodes one symbol via the historical decode-then-update sequence.
    /// Byte-identical to [`Self::decode`]; kept for differential testing.
    pub fn decode_reference<D: DecisionDecoder>(&mut self, dec: &mut D, ctx: usize) -> u8 {
        self.stats.symbols += 1;
        self.stats.decisions += 1 + u64::from(self.depth);
        let before = dec.coded_decisions();
        let escaped = self.escape[ctx].decode(dec);
        let symbol = if escaped {
            self.stats.escapes += 1;
            let mut s = 0u8;
            for _ in 0..self.depth {
                s = (s << 1) | u8::from(dec.decode(1, 2));
            }
            s
        } else {
            self.trees[ctx].decode_decisions(dec)
        };
        self.trees[ctx].update(symbol);
        self.stats.coded_decisions += dec.coded_decisions() - before;
        symbol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinaryDecoder, BinaryEncoder};
    use cbic_bitio::{BitReader, BitWriter};

    fn roundtrip(cfg: EstimatorConfig, contexts: usize, stream: &[(usize, u8)]) -> (u64, u64) {
        let mut enc_model = SymbolCoder::new(contexts, cfg);
        let mut enc = BinaryEncoder::new(BitWriter::new());
        for &(ctx, sym) in stream {
            enc_model.encode(&mut enc, ctx, sym);
        }
        let escapes = enc_model.stats().escapes;
        let bytes = enc.finish().into_bytes();
        let bits = bytes.len() as u64 * 8;

        let mut dec_model = SymbolCoder::new(contexts, cfg);
        let mut dec = BinaryDecoder::new(BitReader::new(&bytes));
        for &(ctx, sym) in stream {
            assert_eq!(dec_model.decode(&mut dec, ctx), sym, "context {ctx}");
        }
        assert_eq!(enc_model.stats().escapes, dec_model.stats().escapes);
        (bits, escapes)
    }

    #[test]
    fn roundtrip_simple() {
        let stream: Vec<(usize, u8)> = (0..500u32)
            .map(|i| ((i % 3) as usize, (i % 7 * 40) as u8))
            .collect();
        roundtrip(EstimatorConfig::default(), 3, &stream);
    }

    #[test]
    fn roundtrip_all_symbols_all_contexts() {
        let mut stream = Vec::new();
        for pass in 0..3 {
            for s in 0..=255u8 {
                stream.push(((usize::from(s) + pass) % 8, s));
            }
        }
        roundtrip(EstimatorConfig::default(), 8, &stream);
    }

    #[test]
    fn escapes_occur_with_narrow_counters_and_roundtrip() {
        let cfg = EstimatorConfig {
            count_bits: 10,
            increment: 32,
            ..EstimatorConfig::default()
        };
        // Rare symbols interleaved with a hammered one: halvings will push
        // the rare paths to zero, forcing escapes.
        let mut stream = Vec::new();
        for i in 0..4000u32 {
            stream.push((0usize, 128u8));
            if i % 333 == 0 {
                stream.push((0usize, (i % 256) as u8));
            }
        }
        let (_, escapes) = roundtrip(cfg, 1, &stream);
        assert!(escapes > 0, "narrow counters must force escapes");
    }

    #[test]
    fn contexts_are_independent() {
        let cfg = EstimatorConfig::default();
        let mut model = SymbolCoder::new(2, cfg);
        let mut enc = BinaryEncoder::new(BitWriter::new());
        for _ in 0..500 {
            model.encode(&mut enc, 0, 10);
        }
        // Context 1 must still be uniform.
        let p = model.tree(1).probability(10);
        assert!((p - 1.0 / 256.0).abs() < 1e-12);
        // Context 0 must have adapted.
        assert!(model.tree(0).probability(10) > 0.5);
    }

    #[test]
    fn skewed_source_beats_uniform() {
        let stream: Vec<(usize, u8)> = (0..30_000u32)
            .map(|i| (0usize, if i % 11 == 0 { 200 } else { 100 }))
            .collect();
        let (bits, _) = roundtrip(EstimatorConfig::default(), 1, &stream);
        let bps = bits as f64 / stream.len() as f64;
        assert!(bps < 1.2, "two-symbol source cost {bps} bits/symbol");
    }

    #[test]
    fn reduced_alphabet_roundtrip() {
        let stream: Vec<(usize, u8)> = (0..800u32).map(|i| (0usize, (i % 16) as u8)).collect();
        let mut enc_model = SymbolCoder::with_depth(1, 4, EstimatorConfig::default());
        let mut enc = BinaryEncoder::new(BitWriter::new());
        for &(ctx, sym) in &stream {
            enc_model.encode(&mut enc, ctx, sym);
        }
        let bytes = enc.finish().into_bytes();
        let mut dec_model = SymbolCoder::with_depth(1, 4, EstimatorConfig::default());
        let mut dec = BinaryDecoder::new(BitReader::new(&bytes));
        for &(_, sym) in &stream {
            assert_eq!(dec_model.decode(&mut dec, 0), sym);
        }
    }

    #[test]
    fn decisions_per_symbol_is_nine_for_bytes() {
        let model = SymbolCoder::new(8, EstimatorConfig::default());
        let dps = model.decisions_per_symbol();
        assert_eq!(dps.ceiling, 9);
        assert_eq!(dps.coded, 0.0, "nothing coded yet");
    }

    #[test]
    fn measured_coded_decisions_fall_below_the_ceiling() {
        // Narrow counters rescale often, decaying unused branches to zero;
        // a skewed source then walks mostly one-sided nodes, so
        // deterministic-prefix skipping must push the measured coded
        // decisions well under the static 9/symbol.
        let cfg = EstimatorConfig {
            count_bits: 10,
            increment: 32,
            ..EstimatorConfig::default()
        };
        let mut model = SymbolCoder::new(1, cfg);
        let mut enc = BinaryEncoder::new(BitWriter::new());
        for i in 0..20_000u32 {
            model.encode(&mut enc, 0, if i % 11 == 0 { 200 } else { 100 });
        }
        let dps = model.decisions_per_symbol();
        assert_eq!(dps.ceiling, 9);
        assert!(
            dps.coded < 6.0,
            "skewed source still coded {} decisions/symbol",
            dps.coded
        );
        let stats = model.stats();
        assert_eq!(stats.decisions, 9 * 20_000);
        assert!(stats.deterministic_fraction() > 0.3);
        // Encoder-side counters must agree with the model's accounting.
        assert_eq!(enc.decisions(), stats.decisions);
        assert_eq!(enc.coded_decisions(), stats.coded_decisions);
    }

    /// The fused coding path must match the historical per-decision
    /// reference byte for byte — and statistic for statistic — across a
    /// rescale- and escape-heavy stream.
    #[test]
    fn fast_path_matches_reference_bytes_and_stats() {
        let cfg = EstimatorConfig {
            count_bits: 10,
            increment: 32,
            ..EstimatorConfig::default()
        };
        let stream: Vec<(usize, u8)> = (0..6000u32)
            .map(|i| ((i % 3) as usize, (i.wrapping_mul(2654435761) >> 15) as u8))
            .collect();

        let mut fast_model = SymbolCoder::new(3, cfg);
        let mut ref_model = SymbolCoder::new(3, cfg);
        let mut fast_enc = BinaryEncoder::new(BitWriter::new());
        let mut ref_enc = BinaryEncoder::new(BitWriter::new());
        for &(ctx, sym) in &stream {
            fast_model.encode(&mut fast_enc, ctx, sym);
            ref_model.encode_reference(&mut ref_enc, ctx, sym);
        }
        assert_eq!(fast_model.stats(), ref_model.stats());
        assert!(fast_model.stats().escapes > 0, "stream must escape");
        assert!(fast_model.stats().rescales > 0, "stream must rescale");
        let fast_bytes = fast_enc.finish().into_bytes();
        let ref_bytes = ref_enc.finish().into_bytes();
        assert_eq!(fast_bytes, ref_bytes, "fast path changed the stream");

        // Decode side: fused decode == reference decode, same stats.
        let mut fast_dec_model = SymbolCoder::new(3, cfg);
        let mut fast_dec = BinaryDecoder::new(BitReader::new(&fast_bytes));
        let mut ref_dec_model = SymbolCoder::new(3, cfg);
        let mut ref_dec = BinaryDecoder::new(BitReader::new(&ref_bytes));
        for &(ctx, sym) in &stream {
            assert_eq!(fast_dec_model.decode(&mut fast_dec, ctx), sym);
            assert_eq!(ref_dec_model.decode_reference(&mut ref_dec, ctx), sym);
        }
        assert_eq!(fast_dec_model.stats(), fast_model.stats());
        assert_eq!(ref_dec_model.stats(), fast_model.stats());
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_contexts_rejected() {
        let _ = SymbolCoder::new(0, EstimatorConfig::default());
    }

    #[test]
    fn stats_count_symbols() {
        let mut model = SymbolCoder::new(1, EstimatorConfig::default());
        let mut enc = BinaryEncoder::new(BitWriter::new());
        for s in 0..100u8 {
            model.encode(&mut enc, 0, s);
        }
        assert_eq!(model.stats().symbols, 100);
    }
}
