//! Property-based tests for the arithmetic coding stack.

use proptest::prelude::*;

use crate::bincoder::oracle::{OracleDecoder, OracleEncoder};
use crate::bincoder::{mulhi, recip_table, HALF};
use crate::{
    AdaptiveBit, BinaryDecoder, BinaryEncoder, DecisionDecoder, DecisionEncoder, EstimatorConfig,
    SymbolCoder, TreeModel,
};
use cbic_bitio::{BitReader, BitWriter};

/// Strategy: a sequence of (bit, c0, total) decisions with valid counts and
/// a nonzero probability for the coded side.
fn decisions() -> impl Strategy<Value = Vec<(bool, u32, u32)>> {
    proptest::collection::vec(
        (any::<bool>(), 1u32..=65_535).prop_flat_map(|(bit, total_minus_one)| {
            let total = total_minus_one + 1;
            // Coded side must have nonzero count.
            let c0 = if bit { 0..total } else { 1..total + 1 };
            (Just(bit), c0, Just(total))
        }),
        0..512,
    )
}

/// Totals at the edges of the coder's range.
const CORNER_TOTALS: [u32; 4] = [2, 3, 65_535, 65_536];

/// Strategy: decisions at the corner totals with the extreme coded counts
/// (`c0` of 1 or `total − 1`), each flagged whether its outcome is steered
/// (see [`straddling_bit`]) rather than drawn.
fn corner_decisions() -> impl Strategy<Value = Vec<(bool, u32, u32, bool)>> {
    proptest::collection::vec(
        (any::<bool>(), 0usize..4, any::<bool>(), any::<bool>()).prop_map(
            |(bit, t, low_c0, steer)| {
                let total = CORNER_TOTALS[t];
                (bit, if low_c0 { 1 } else { total - 1 }, total, steer)
            },
        ),
        0..256,
    )
}

/// The outcome that keeps the oracle's interval straddling the midpoint:
/// the side of the split that holds `HALF`. A run of such decisions settles
/// no bit, so every renormalisation shift banks a follow bit.
fn straddling_bit(enc: &OracleEncoder, c0: u32, total: u32) -> bool {
    let (low, high, _) = enc.registers();
    let range = u64::from(high) - u64::from(low) + 1;
    let split = u64::from(low) + mulhi(range * u64::from(c0), recip_table()[total as usize]);
    split <= u64::from(HALF)
}

fn estimator_config() -> impl Strategy<Value = EstimatorConfig> {
    (10u8..=16, 1u16..=64, 1u16..=32).prop_map(|(count_bits, increment, noesc)| EstimatorConfig {
        count_bits,
        increment,
        escape_init: (noesc, 1),
    })
}

/// Contexts of the symbol-coder checks below.
const CONTEXTS: usize = 4;

/// Masks `stream`'s symbols to a `depth`-bit alphabet.
fn masked(depth: u32, stream: &[(usize, u8)]) -> Vec<(usize, u8)> {
    let mask = ((1u32 << depth) - 1) as u8;
    stream.iter().map(|&(ctx, sym)| (ctx, sym & mask)).collect()
}

/// Asserts that every context's tree of `a` equals `b`'s: decoded symbols
/// can match while the counts drift.
fn assert_same_trees(a: &SymbolCoder, b: &SymbolCoder) {
    for ctx in 0..CONTEXTS {
        assert_eq!(a.tree(ctx), b.tree(ctx), "context {ctx}");
    }
}

/// `SymbolCoder::encode`/`decode` against `encode_reference`/
/// `decode_reference`: the same bytes, statistics, decision counts and
/// trees.
fn fast_path_matches_reference(cfg: EstimatorConfig, depth: u32, stream: &[(usize, u8)]) {
    let stream = masked(depth, stream);
    let mut fast_model = SymbolCoder::with_depth(CONTEXTS, depth, cfg);
    let mut ref_model = SymbolCoder::with_depth(CONTEXTS, depth, cfg);
    let mut fast_enc = BinaryEncoder::new(BitWriter::new());
    let mut ref_enc = BinaryEncoder::new(BitWriter::new());
    for &(ctx, sym) in &stream {
        fast_model.encode(&mut fast_enc, ctx, sym);
        ref_model.encode_reference(&mut ref_enc, ctx, sym);
    }
    assert_eq!(fast_model.stats(), ref_model.stats());
    assert_same_trees(&fast_model, &ref_model);
    let fast_bytes = fast_enc.finish().into_bytes();
    let ref_bytes = ref_enc.finish().into_bytes();
    assert_eq!(&fast_bytes, &ref_bytes);

    let mut fast_dec_model = SymbolCoder::with_depth(CONTEXTS, depth, cfg);
    let mut fast_dec = BinaryDecoder::new(BitReader::new(&fast_bytes));
    let mut ref_dec_model = SymbolCoder::with_depth(CONTEXTS, depth, cfg);
    let mut ref_dec = BinaryDecoder::new(BitReader::new(&ref_bytes));
    for &(ctx, sym) in &stream {
        assert_eq!(fast_dec_model.decode(&mut fast_dec, ctx), sym);
        assert_eq!(ref_dec_model.decode_reference(&mut ref_dec, ctx), sym);
    }
    assert_eq!(fast_dec_model.stats(), fast_model.stats());
    assert_eq!(ref_dec_model.stats(), fast_model.stats());
    assert_eq!(fast_dec.decisions(), fast_model.stats().decisions);
    assert_eq!(fast_dec.coded_decisions(), ref_dec.coded_decisions());
    assert_same_trees(&fast_dec_model, &fast_model);
    assert_same_trees(&ref_dec_model, &fast_model);
}

/// A `DecisionEncoder` that keeps each coded decision `(bit, c0, total)`
/// and only counts the deterministic ones.
#[derive(Default)]
struct Recorder {
    coded: Vec<(bool, u32, u32)>,
    decisions: u64,
}

impl DecisionEncoder for Recorder {
    fn encode(&mut self, bit: bool, c0: u32, total: u32) {
        self.decisions += 1;
        if c0 != 0 && c0 != total {
            self.coded.push((bit, c0, total));
        }
    }

    fn decisions(&self) -> u64 {
        self.decisions
    }

    fn coded_decisions(&self) -> u64 {
        self.coded.len() as u64
    }

    fn note_deterministic(&mut self, n: u64) {
        self.decisions += n;
    }
}

/// A `DecisionDecoder` answering each coded decision with the recorded
/// bit. It implements only the required methods, so the model reaches it
/// through the trait's defaults; a decision asked with other counts than
/// the encoder coded is counted in `mismatched`.
struct Replay<'a> {
    coded: &'a [(bool, u32, u32)],
    next: usize,
    decisions: u64,
    mismatched: usize,
}

impl DecisionDecoder for Replay<'_> {
    fn decode(&mut self, c0: u32, total: u32) -> bool {
        self.decisions += 1;
        if c0 == 0 || c0 == total {
            return c0 == 0;
        }
        let (bit, rec_c0, rec_total) = self.coded[self.next];
        self.next += 1;
        self.mismatched += usize::from((c0, total) != (rec_c0, rec_total));
        bit
    }

    fn decisions(&self) -> u64 {
        self.decisions
    }

    fn coded_decisions(&self) -> u64 {
        self.next as u64
    }

    fn note_deterministic(&mut self, n: u64) {
        self.decisions += n;
    }
}

/// `SymbolCoder::decode` through [`Replay`] against the encoder: the same
/// symbols, statistics, decision counts and trees, every coded decision
/// asked with the encoder's counts.
fn replay_matches_encoder(cfg: EstimatorConfig, depth: u32, stream: &[(usize, u8)]) {
    let stream = masked(depth, stream);
    let mut enc_model = SymbolCoder::with_depth(CONTEXTS, depth, cfg);
    let mut rec = Recorder::default();
    for &(ctx, sym) in &stream {
        enc_model.encode(&mut rec, ctx, sym);
    }
    let mut dec_model = SymbolCoder::with_depth(CONTEXTS, depth, cfg);
    let mut replay = Replay {
        coded: &rec.coded,
        next: 0,
        decisions: 0,
        mismatched: 0,
    };
    for &(ctx, sym) in &stream {
        assert_eq!(dec_model.decode(&mut replay, ctx), sym);
    }
    assert_eq!(replay.mismatched, 0, "decisions asked with other counts");
    assert_eq!(replay.next, rec.coded.len(), "coded decisions left over");
    assert_eq!(replay.decisions, rec.decisions);
    assert_eq!(dec_model.stats(), enc_model.stats());
    assert_same_trees(&dec_model, &enc_model);
}

/// The two ends of the sweeps, pinned: depth 1 (a level with no
/// children) and depth 8, each at `count_bits` 10 and 16 with a stream
/// long enough to age the trees; the root's visits come within one
/// increment of the cap, at 16 bits 65 535, the top of the reciprocal
/// table in use.
#[test]
fn symbol_coder_corners_match_reference_and_replay() {
    let stream: Vec<(usize, u8)> = (0..6000u32)
        .map(|i| {
            (
                (i % 7 / 5) as usize,
                (i.wrapping_mul(2_654_435_761) >> 20) as u8 & 0x3F,
            )
        })
        .collect();
    for depth in [1, 8] {
        for count_bits in [10, 16] {
            let cfg = EstimatorConfig {
                count_bits,
                increment: 48,
                ..EstimatorConfig::default()
            };
            fast_path_matches_reference(cfg, depth, &stream);
            replay_matches_encoder(cfg, depth, &stream);
            let mut model = SymbolCoder::with_depth(CONTEXTS, depth, cfg);
            let mut rec = Recorder::default();
            for &(ctx, sym) in &masked(depth, &stream) {
                model.encode(&mut rec, ctx, sym);
            }
            assert!(
                model.stats().rescales > 0,
                "depth {depth}, {count_bits} bits"
            );
            assert!(
                rec.coded
                    .iter()
                    .any(|&(_, _, total)| total > cfg.max_total() - 48),
                "depth {depth}, {count_bits} bits: no total near the cap"
            );
        }
    }
}

proptest! {
    /// The raw binary coder round-trips any legal decision sequence.
    #[test]
    fn bincoder_roundtrip(seq in decisions()) {
        let mut enc = BinaryEncoder::new(BitWriter::new());
        for &(bit, c0, total) in &seq {
            enc.encode(bit, c0, total);
        }
        let bytes = enc.finish().into_bytes();
        let mut dec = BinaryDecoder::new(BitReader::new(&bytes));
        for &(bit, c0, total) in &seq {
            prop_assert_eq!(dec.decode(c0, total), bit);
        }
    }

    /// Code length never exceeds information content by more than a tiny
    /// per-decision overhead (coder near-optimality).
    #[test]
    fn bincoder_near_optimal(seq in decisions()) {
        let mut enc = BinaryEncoder::new(BitWriter::new());
        let mut info = 0.0f64;
        for &(bit, c0, total) in &seq {
            let p = if bit {
                f64::from(total - c0) / f64::from(total)
            } else {
                f64::from(c0) / f64::from(total)
            };
            info -= p.log2();
            enc.encode(bit, c0, total);
        }
        let bits = enc.finish().into_bytes().len() as f64 * 8.0;
        // 0.01 bits/decision rounding slack + 48 bits flush/padding slack.
        prop_assert!(bits <= info + 0.02 * seq.len() as f64 + 48.0,
            "coded {bits} bits for {info} bits of information");
    }

    /// SymbolCoder round-trips arbitrary (context, symbol) streams under
    /// arbitrary estimator configurations, and the decoder reconstructs the
    /// exact model state.
    #[test]
    fn symbol_coder_roundtrip(
        cfg in estimator_config(),
        stream in proptest::collection::vec((0usize..8, any::<u8>()), 0..600),
    ) {
        let mut enc_model = SymbolCoder::new(8, cfg);
        let mut enc = BinaryEncoder::new(BitWriter::new());
        for &(ctx, sym) in &stream {
            enc_model.encode(&mut enc, ctx, sym);
        }
        let bytes = enc.finish().into_bytes();

        let mut dec_model = SymbolCoder::new(8, cfg);
        let mut dec = BinaryDecoder::new(BitReader::new(&bytes));
        for &(ctx, sym) in &stream {
            prop_assert_eq!(dec_model.decode(&mut dec, ctx), sym);
        }
        prop_assert_eq!(enc_model.stats(), dec_model.stats());
    }

    /// Tree invariants survive arbitrary update sequences (including
    /// rescales), and probabilities always sum to 1 over the alphabet.
    #[test]
    fn tree_invariants_hold(
        cfg in estimator_config(),
        updates in proptest::collection::vec(any::<u8>(), 0..3000),
    ) {
        let mut tree = TreeModel::new(8, cfg);
        for &s in &updates {
            tree.update(s);
        }
        prop_assert!(tree.check_invariants().is_ok());
        let mass: f64 = (0..=255u8).map(|s| tree.probability(s)).sum();
        prop_assert!((mass - 1.0).abs() < 1e-9, "probability mass {mass}");
    }

    /// Escape bookkeeping: encode-side and decode-side escape counts agree
    /// even with aggressive aging.
    #[test]
    fn escape_symmetry(stream in proptest::collection::vec(any::<u8>(), 0..1500)) {
        let cfg = EstimatorConfig { count_bits: 10, increment: 64, ..EstimatorConfig::default() };
        let mut enc_model = SymbolCoder::new(1, cfg);
        let mut enc = BinaryEncoder::new(BitWriter::new());
        for &sym in &stream {
            enc_model.encode(&mut enc, 0, sym);
        }
        let bytes = enc.finish().into_bytes();
        let mut dec_model = SymbolCoder::new(1, cfg);
        let mut dec = BinaryDecoder::new(BitReader::new(&bytes));
        for &sym in &stream {
            prop_assert_eq!(dec_model.decode(&mut dec, 0), sym);
        }
        prop_assert_eq!(enc_model.stats().escapes, dec_model.stats().escapes);
    }

    /// The fused descents behind `SymbolCoder::encode`/`decode` are byte-
    /// and statistics-identical to the historical per-decision reference
    /// sequence, for every depth, estimator configuration (aging-heavy
    /// 10-bit counters with large increments included), and symbol stream;
    /// and the decoder's trees end equal to the encoder's.
    #[test]
    fn symbol_coder_fast_path_matches_reference(
        cfg in estimator_config(),
        depth in 1u32..=8,
        stream in proptest::collection::vec((0usize..4, any::<u8>()), 0..800),
    ) {
        fast_path_matches_reference(cfg, depth, &stream);
    }

    /// A decoder that implements only the required `DecisionDecoder`
    /// methods decodes through the trait's defaults (`decode_scaled` and
    /// `decode_nondeterministic` fall back to `decode`) to the same
    /// symbols, trees and statistics.
    #[test]
    fn symbol_coder_decodes_through_trait_defaults(
        cfg in estimator_config(),
        depth in 1u32..=8,
        stream in proptest::collection::vec((0usize..4, any::<u8>()), 0..800),
    ) {
        replay_matches_encoder(cfg, depth, &stream);
    }

    /// The interval kernel is the two-step arithmetic it replaced: the
    /// same bytes out of the encoder, and the same decoder registers
    /// `(low, high, value)` after every decision — over arbitrary
    /// decisions, the corner totals, and a steered E3 run (totals 2 and 3
    /// shrink the interval to at most 2/3 per decision, so 120 of them
    /// bank at least 68 follow bits) that the next settled bit releases
    /// past the 48-bit packed word.
    #[test]
    fn kernel_matches_two_step_oracle(
        seq in decisions(),
        run in proptest::collection::vec((any::<bool>(), any::<bool>()), 0..160),
        corners in corner_decisions(),
    ) {
        let mut oracle = OracleEncoder::new();
        let mut coded = Vec::with_capacity(seq.len() + run.len() + corners.len());
        let mut max_pending = 0;
        let steered = run.iter().map(|&(three, low_c0)| {
            let total = if three { 3 } else { 2 };
            (false, if low_c0 { 1 } else { total - 1 }, total, true)
        });
        let drawn = seq.iter().map(|&(bit, c0, total)| (bit, c0, total, false));
        for (bit, c0, total, steer) in drawn.chain(steered).chain(corners) {
            let bit = if steer { straddling_bit(&oracle, c0, total) } else { bit };
            oracle.encode(bit, c0, total);
            max_pending = max_pending.max(oracle.registers().2);
            coded.push((bit, c0, total));
        }
        if run.len() >= 120 {
            prop_assert!(max_pending > 48, "E3 run banked only {max_pending} follow bits");
        }
        let mut kernel = BinaryEncoder::new(BitWriter::new());
        for &(bit, c0, total) in &coded {
            kernel.encode(bit, c0, total);
        }
        let bytes = kernel.finish().into_bytes();
        prop_assert_eq!(&bytes, &oracle.finish());

        let mut dec = BinaryDecoder::new(BitReader::new(&bytes));
        let mut reference = OracleDecoder::new(&bytes);
        prop_assert_eq!(dec.registers(), reference.registers());
        for (i, &(bit, c0, total)) in coded.iter().enumerate() {
            prop_assert_eq!(dec.decode(c0, total), bit, "decision {}", i);
            prop_assert_eq!(reference.decode(c0, total), bit, "decision {}", i);
            prop_assert_eq!(dec.registers(), reference.registers(), "decision {}", i);
        }
    }

    /// AdaptiveBit round-trips arbitrary bit streams with arbitrary caps.
    #[test]
    fn adaptive_bit_roundtrip(
        bits in proptest::collection::vec(any::<bool>(), 0..2000),
        cap in 4u32..4096,
    ) {
        let mut enc_ctx = AdaptiveBit::new(cap);
        let mut enc = BinaryEncoder::new(BitWriter::new());
        for &b in &bits {
            enc_ctx.encode(&mut enc, b);
        }
        let bytes = enc.finish().into_bytes();
        let mut dec_ctx = AdaptiveBit::new(cap);
        let mut dec = BinaryDecoder::new(BitReader::new(&bytes));
        for &b in &bits {
            prop_assert_eq!(dec_ctx.decode(&mut dec), b);
        }
    }
}
