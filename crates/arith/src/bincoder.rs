//! Integer binary arithmetic coder.
//!
//! This is the software equivalent of the bit-serial coder the paper takes
//! from its reference \[7\]: a classic Witten–Neal–Cleary style interval
//! coder specialised to *binary* decisions, with 32-bit interval registers
//! and carry resolution via pending "follow" bits. Probabilities arrive as
//! a pair `(c0, total)`: the decision is `0` with probability `c0/total`.
//!
//! A zero count is legal on the side that is *not* being coded: the empty
//! sub-interval is simply never selected. Coding a decision whose own count
//! is zero is a caller bug (the estimator escapes instead) and panics in
//! debug builds.

use cbic_bitio::{BitSink, BitSource, BitWriter};
use std::sync::OnceLock;

pub(crate) const HALF: u32 = 1 << 31;
const QUARTER: u32 = 1 << 30;

/// The most zero-padding bits a [`BinaryDecoder`] reads past the end of a
/// complete payload; every decoder of this coder checks its source's
/// [`padding_bits`](BitSource::padding_bits) against it, and more means
/// the payload was cut short.
///
/// The decoder preloads 32 code bits, then each coded decision shifts the
/// same `s` bits into the encoder's interval and the decoder's code value.
/// The flush ([`BinaryEncoder::finish`]) writes the banked follow bits
/// plus 3, so a payload holds `Σs + 3` bits and its decoder ends `32 − 3`
/// bits past them: 22 to 29 padding bits, as the zeros that pad the last
/// byte are input. A cut of one byte or more leaves at least 30.
pub const MAX_PADDING_BITS: u64 = 32 - 3;

/// Maximum decision `total` accepted by the coder.
///
/// Keeping totals at or below 2^16 guarantees every non-empty sub-interval
/// spans at least one code value after renormalisation (the interval is
/// always at least a quarter of the 32-bit range, i.e. 2^30 ≥ 2^16·2^14).
pub(crate) const MAX_TOTAL: u32 = 1 << 16;

/// Entries of [`recip_table`]: one per total `0..=MAX_TOTAL`.
pub(crate) const RECIP_LEN: usize = MAX_TOTAL as usize + 1;

/// Reciprocal ROM for the interval split: entry `d` holds `⌈2⁶⁴ / d⌉`, so
/// the per-decision `⌊range·c0 / total⌋` becomes one widening multiply and
/// a shift instead of a hardware divide — the division-free datapath a
/// hardware coder would synthesize.
///
/// **Exactness** (Granlund–Montgomery invariant division): with
/// `m = ⌈2⁶⁴/d⌉` the error `e = m·d − 2⁶⁴` is in `[0, d)`, so
/// `n·m/2⁶⁴ = n/d + n·e/(d·2⁶⁴)` and the excess is below `n/2⁶⁴ ≤ 2⁻¹⁶`
/// for every dividend `n ≤ 2⁴⁸` — too small to carry `⌊n/d⌋` to the next
/// integer (the fractional part of `n/d` is at most `1 − 2⁻¹⁶`). Here
/// `n = range·c0 ≤ 2³²·2¹⁶`, so every split is bit-exact; the property
/// test sweeps the corners.
///
/// Entry 1 would need `2⁶⁴` and stays 0 — a divisor of 1 forces `c0 = 0`
/// or `c0 = total`, which the deterministic-decision shortcut retires
/// before any division. Entries from 2 on are built as `u64::MAX / d + 1`,
/// which is `⌈2⁶⁴/d⌉` for every `d ≥ 2` without 128-bit arithmetic.
///
/// The table has a fixed length, so an index of type `u16` needs no bounds
/// check.
pub(crate) fn recip_table() -> &'static [u64; RECIP_LEN] {
    static RECIP: OnceLock<Box<[u64; RECIP_LEN]>> = OnceLock::new();
    RECIP.get_or_init(|| {
        let mut t = vec![0u64; RECIP_LEN];
        for (d, slot) in t.iter_mut().enumerate().skip(2) {
            *slot = u64::MAX / d as u64 + 1;
        }
        t.into_boxed_slice().try_into().expect("RECIP_LEN entries")
    })
}

/// `⌊a·b / 2⁶⁴⌋`, the high word of the full product: with `b` a
/// [`recip_table`] entry, `⌊a / d⌋` by reciprocal multiplication.
#[inline(always)]
pub(crate) fn mulhi(a: u64, b: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) >> 64) as u64
}

/// `P(0) = c0/total` pre-scaled for [`Interval::step`]: `c0·⌈2⁶⁴/total⌉`,
/// from `c0` and the `total` entry of [`recip_table`].
///
/// The product fits a `u64` because `c0 < total` for every coded decision
/// (`(total−1)·⌈2⁶⁴/total⌉ < 2⁶⁴ + total − ⌈2⁶⁴/total⌉ ≤ 2⁶⁴`), and
/// `mulhi(range, c0·m)` is the same integer as `mulhi(range·c0, m)` — both
/// are `⌊range·c0·m / 2⁶⁴⌋` — so the split stays the exact
/// `⌊range·c0/total⌋` of [`recip_table`]. What changes is where the
/// multiply sits: `c0·m` depends on the model alone, so it runs off the
/// chain of dependent `low`/`high` updates, leaving one multiply on it.
#[inline(always)]
fn scale(c0: u32, recip: u64) -> u64 {
    u64::from(c0) * recip
}

/// The low `count` bits set, without branching on `count == 0`. Shift
/// amounts ≥ 64 wrap (callers mask the result in those cases).
#[inline]
fn mask64(count: u32) -> u64 {
    (1u64.wrapping_shl(count)).wrapping_sub(1)
}

/// Longest release, in bits, [`Step::release`] hands the sink as one
/// `write_bits` word: settled bits plus the follow bits they release.
const MAX_RELEASE: u64 = 48;

/// The coder's interval registers `[low, high]`, and the kernel every
/// coded decision runs through: [`BinaryEncoder`] and [`BinaryDecoder`]
/// both call [`step`](Self::step), so the split and renormalisation
/// arithmetic exists once.
#[derive(Debug, Clone, Copy)]
struct Interval {
    low: u32,
    high: u32,
}

/// What one [`Interval::step`] shifted out of the registers.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// The coded outcome.
    bit: bool,
    /// `n`: the top bits `low` and `high` shared after the split, which
    /// are settled.
    settled: u32,
    /// `s = n + k`: all bits shifted out, the settled bits and then `k`
    /// follow-bit (E3) steps.
    shifted: u32,
    /// The settled bits, right-aligned (0 when `n == 0`).
    bits: u64,
}

impl Interval {
    /// The whole code range, where every stream starts.
    const FULL: Self = Self {
        low: 0,
        high: u32::MAX,
    };

    /// Codes one decision: splits the interval at `P(0) = c0/total`
    /// (`f` from [`scale`]), keeps the side of the bit `outcome` picks,
    /// and renormalises.
    ///
    /// `outcome` receives the split, the first code value of the `1`
    /// side: the encoder ignores it and returns its bit, the decoder
    /// compares its code value against it.
    ///
    /// **Outcome select.** The new bounds are picked with a mask made from
    /// the bit, not with `if`: the bit is data the branch predictor cannot
    /// learn, and the `if` form, although written to become conditional
    /// moves, compiled to a branch on it (`test`/`je` in the release
    /// build's per-decision `BinaryEncoder::encode`).
    ///
    /// **One-step renormalisation.** The classic loop shifts out settled
    /// top bits (`low` and `high` agree) and E3 straddles (`low = 01…`,
    /// `high = 10…`), one bit per turn. The two cannot interleave: all
    /// shared top bits go first, and once the first differing bit
    /// (`low` 0, `high` 1) is on top, an E3 step needs the next bit to be
    /// `low` 1 over `high` 0 — a run that ends at the first position
    /// where that fails. So with `n = lzcnt(low ^ high)` settled bits,
    ///
    /// ```text
    /// s = leading_ones((low & !high) | (!(low ^ high) >> 1) | HALF) − 1
    /// ```
    ///
    /// counts both at once: the second and third terms cover the `n`
    /// shared bits and the differing bit below them (`n + 1` ones), the
    /// first term continues the run through the `k` E3 positions. Every
    /// turn of the loop shifts both registers left by one, fills `high`
    /// with a 1, and an E3 turn also deletes the bit below the top, so
    /// after all `s` turns `low' = (low << s) & !HALF` and
    /// `high' = HALF | (high << s) | (2^s − 1)` — one shift pair instead
    /// of a settled shift followed by a dependent E3 shift. The
    /// `#[cfg(test)]` `oracle` module keeps that two-step form verbatim,
    /// and a property test pins this kernel to it.
    #[inline(always)]
    fn step(&mut self, f: u64, outcome: impl FnOnce(u32) -> bool) -> Step {
        let Self { low, high } = *self;
        // ⌊range·c0/total⌋ < range, so `low < split ≤ high`: both sides
        // are non-empty and the arithmetic stays in 32 bits.
        let split = low + mulhi(u64::from(high - low) + 1, f) as u32;
        let bit = outcome(split);
        let one = u32::from(bit).wrapping_neg();
        let low = (split & one) | (low & !one);
        let high = (high & one) | ((split - 1) & !one);

        let n = (low ^ high).leading_zeros(); // ≤ 31: low < high
        let s = ((low & !high) | (!(low ^ high) >> 1) | HALF).leading_ones() - 1;
        self.low = (low << s) & !HALF;
        self.high = HALF | (high << s) | ((1 << s) - 1);
        Step {
            bit,
            settled: n,
            shifted: s,
            bits: u64::from(low) >> (32 - n),
        }
    }

    /// Flushes an encoder's interval: `pending + 3` bits that pin the
    /// final code value inside it, after which the decoder's zero-padded
    /// reads cannot leave it (see [`MAX_PADDING_BITS`]).
    fn flush<S: BitSink>(self, pending: u64, sink: &mut S) {
        let bit = self.low >= QUARTER;
        sink.write_bit(bit);
        sink.write_run(!bit, pending + 1);
        // One more bit keeps the value strictly inside [low, high] even
        // when the decoder pads with zeros.
        sink.write_bit(true);
    }
}

impl Step {
    /// The encoder's side of a step: writes the settled bits to `sink`,
    /// with the follow bits banked in `pending` released behind the first
    /// of them, and banks this step's `k` follow bits.
    ///
    /// The release is one `write_bits` word, `bits + (2^p − 1)·2^(n−1)`:
    /// adding `p` ones at the first settled bit's place writes the first
    /// bit `f`, then `p` copies of `!f`, then the other `n − 1` settled
    /// bits (a carry out of the ones when `f = 1` leaves a 1 over `p`
    /// zeros). With no settled bits `p` is 0, so the call writes nothing
    /// and the bank is kept. Whether bits settle is as patternless as the
    /// outcome, so `p` is taken by shifts, not by a mask of `n != 0`: such
    /// a mask is folded back into a select, which compiled to a branch on
    /// `n == 0`. A bank too long for one word is the one compare, on the
    /// release count, taken about never.
    #[inline(always)]
    fn release<S: BitSink>(self, pending: &mut u64, sink: &mut S) {
        let n = self.settled;
        // The bank survives only a step that settles nothing: shifted out
        // by 2·32 bits when `n > 0` (n ≤ 31), by 0 when `n == 0`.
        let t = (n + 31) & 32;
        let kept = (*pending >> t) >> t;
        let follow = *pending - kept;
        let count = follow + u64::from(n);
        if count > MAX_RELEASE {
            release_long(sink, self.bits, n, follow);
        } else {
            let ones = mask64(follow as u32).wrapping_shl(n.wrapping_sub(1));
            sink.write_bits(self.bits + ones, count as u32);
        }
        *pending = kept + u64::from(self.shifted - n);
    }

    /// The decoder's side of a step: the code value shifted like the
    /// registers, taking `fresh`, the next `s` input bits.
    ///
    /// The settled shift keeps `value`'s top bit (it lies between `low`
    /// and `high`, so it shares their settled bits and the differing bit
    /// then lands on top); the E3 steps delete the bit below it.
    #[inline(always)]
    fn shift_in(self, value: u32, fresh: u32) -> u32 {
        ((value << self.settled) & HALF) | (((value << self.shifted) | fresh) & !HALF)
    }
}

/// Cold tail of [`Step::release`]: an E3 run banked more follow bits than
/// one word holds.
#[cold]
#[inline(never)]
fn release_long<S: BitSink>(sink: &mut S, bits: u64, n: u32, follow: u64) {
    let first = bits >> (n - 1) == 1;
    sink.write_bit(first);
    sink.write_run(!first, follow);
    sink.write_bits(bits & mask64(n - 1), n - 1);
}

/// Anything that can encode a stream of binary decisions.
///
/// The adaptive model layer (estimator trees, context banks, symbol coders)
/// is written against this trait, so the same model code drives the
/// [`BinaryEncoder`] or a measuring stand-in such as [`CountingEncoder`].
pub trait DecisionEncoder {
    /// Encodes one binary decision with `P(bit = 0) = c0 / total`.
    fn encode(&mut self, bit: bool, c0: u32, total: u32);

    /// Number of decisions encoded so far.
    fn decisions(&self) -> u64;

    /// Number of *coded* (non-deterministic) decisions encoded so far —
    /// the subset that actually moved the interval and cost code space.
    fn coded_decisions(&self) -> u64;

    /// Accounts `n` deterministic decisions the model layer retired
    /// without calling [`encode`](Self::encode). They emit no bits and
    /// touch no coder state; only the decision counter moves.
    fn note_deterministic(&mut self, n: u64);

    /// No longer consulted: the model layer has one route, which codes
    /// each decision as its tree descent produces it. The method stays so
    /// implementations that override it keep compiling; its value has no
    /// effect.
    #[inline]
    fn prefers_batch(&self) -> bool {
        false
    }
}

/// A null [`DecisionEncoder`]: counts decisions, codes nothing.
///
/// Driving the full model pipeline into this encoder measures the *model*
/// stage alone — prediction, context formation, tree descents — with the
/// interval arithmetic and output path removed. The benchmark's layer
/// ledger times the model and the tree layers into it.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingEncoder {
    decisions: u64,
    coded: u64,
}

impl CountingEncoder {
    /// A fresh counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DecisionEncoder for CountingEncoder {
    #[inline]
    fn encode(&mut self, _bit: bool, c0: u32, total: u32) {
        self.decisions += 1;
        self.coded += u64::from((c0 != 0) & (c0 != total));
    }

    #[inline]
    fn decisions(&self) -> u64 {
        self.decisions
    }

    #[inline]
    fn coded_decisions(&self) -> u64 {
        self.coded
    }

    #[inline]
    fn note_deterministic(&mut self, n: u64) {
        self.decisions += n;
    }
}

/// Anything that can decode a stream of binary decisions.
///
/// Must be fed the same `(c0, total)` sequence its encoding counterpart
/// consumed; adaptive models guarantee this by updating identically on
/// both sides.
pub trait DecisionDecoder {
    /// Decodes one binary decision with `P(bit = 0) = c0 / total`.
    fn decode(&mut self, c0: u32, total: u32) -> bool;

    /// Number of decisions decoded so far.
    fn decisions(&self) -> u64;

    /// Number of *coded* (non-deterministic) decisions decoded so far.
    fn coded_decisions(&self) -> u64;

    /// Accounts `n` deterministic decisions the model layer resolved
    /// without consulting the bitstream.
    fn note_deterministic(&mut self, n: u64);

    /// Decodes a decision the model layer already classified as
    /// non-deterministic (`0 < c0 < total`), letting implementations skip
    /// their own deterministic screening. The default defers to
    /// [`decode`](Self::decode), whose screening is then dead but harmless.
    #[inline]
    fn decode_nondeterministic(&mut self, c0: u32, total: u32) -> bool {
        self.decode(c0, total)
    }

    /// [`decode_nondeterministic`](Self::decode_nondeterministic) with
    /// `P(0)` already scaled by the caller: `f = c0·⌈2⁶⁴/total⌉`. The
    /// tree descent forms `f` for both children of a node while the
    /// node's own bit decodes, so a coder that splits on it directly
    /// keeps the reciprocal load and the multiply off the chain between
    /// two decisions. The default ignores `f`.
    #[inline]
    fn decode_scaled(&mut self, c0: u32, total: u32, f: u64) -> bool {
        let _ = f;
        self.decode_nondeterministic(c0, total)
    }
}

/// Encoding half of the binary arithmetic coder.
///
/// Decisions are pushed with [`encode`](Self::encode); the coder emits bits
/// into the wrapped [`BitSink`] as the interval narrows: a
/// [`StreamBitWriter`](cbic_bitio::StreamBitWriter) over any `io::Write`,
/// by default the in-memory [`BitWriter`]. [`finish`](Self::finish)
/// flushes the final disambiguating bits and returns the sink.
///
/// # Examples
///
/// ```
/// use cbic_arith::{BinaryDecoder, BinaryEncoder};
/// use cbic_bitio::{BitReader, BitWriter};
///
/// let mut enc = BinaryEncoder::new(BitWriter::new());
/// enc.encode(false, 3, 4); // P(0) = 3/4
/// enc.encode(true, 1, 4);  // P(1) = 3/4
/// let bytes = enc.finish().into_bytes();
///
/// let mut dec = BinaryDecoder::new(BitReader::new(&bytes));
/// assert!(!dec.decode(3, 4));
/// assert!(dec.decode(1, 4));
/// ```
#[derive(Debug)]
pub struct BinaryEncoder<S = BitWriter> {
    interval: Interval,
    /// Banked E3 follow bits awaiting the next settled bit.
    pending: u64,
    writer: S,
    decisions: u64,
    coded: u64,
    recip: &'static [u64],
}

impl<S: BitSink> BinaryEncoder<S> {
    /// Wraps a bit sink in a fresh encoder covering the full interval.
    pub fn new(writer: S) -> Self {
        Self {
            interval: Interval::FULL,
            pending: 0,
            writer,
            decisions: 0,
            coded: 0,
            recip: recip_table(),
        }
    }

    /// Encodes one binary decision with `P(bit = 0) = c0 / total`.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero or exceeds 2^16, if `c0 > total`, or (in
    /// debug builds) if the coded side has zero probability.
    #[inline]
    pub fn encode(&mut self, bit: bool, c0: u32, total: u32) {
        assert!(total > 0 && total <= MAX_TOTAL, "invalid total {total}");
        assert!(c0 <= total, "c0 {c0} exceeds total {total}");
        debug_assert!(
            if bit { c0 < total } else { c0 > 0 },
            "coding a zero-probability decision (bit={bit}, c0={c0}, total={total})"
        );

        // Deterministic decisions are free: when the coded side owns the
        // whole interval (`P = 1`), the split leaves `low`/`high` exactly
        // where they were, no renormalisation can trigger, and no bit is
        // emitted — so skip the 64-bit multiply/divide entirely. Adapted
        // trees hit this constantly (every node whose sibling branch has
        // decayed to zero), which makes it the hottest shortcut in the
        // coder. The emitted stream is identical by construction.
        if if bit { c0 == 0 } else { c0 == total } {
            self.decisions += 1;
            return;
        }

        self.encode_coded(bit, c0, total);
    }

    /// Encodes a decision already known to be non-deterministic
    /// (`0 < c0 < total`), skipping the deterministic shortcut.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero or exceeds 2^16; in debug builds, also if
    /// `c0 > total` or the decision is deterministic. Release builds do
    /// not re-validate `c0` (the adaptive model layer guarantees it); a
    /// violating caller corrupts its own stream but stays memory-safe.
    #[inline(always)]
    pub fn encode_coded(&mut self, bit: bool, c0: u32, total: u32) {
        // This bound doubles as the recip bounds-check, letting LLVM elide
        // the slice panic branch below.
        assert!(total > 0 && total <= MAX_TOTAL, "invalid total {total}");
        debug_assert!(
            c0 > 0 && c0 < total,
            "encode_coded requires a non-deterministic decision (c0={c0}, total={total})"
        );
        self.decisions += 1;
        self.coded += 1;
        self.interval
            .step(scale(c0, self.recip[total as usize]), |_| bit)
            .release(&mut self.pending, &mut self.writer);
    }

    /// Number of decisions encoded so far.
    ///
    /// The hardware model uses this: the paper's coder retires one binary
    /// decision per clock, so decisions/pixel sets the pipeline's
    /// initiation interval.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Number of coded (non-deterministic) decisions encoded so far.
    pub fn coded_decisions(&self) -> u64 {
        self.coded
    }

    /// Bits emitted so far (excluding un-flushed interval state).
    pub fn bits_written(&self) -> u64 {
        self.writer.bits_written()
    }

    /// Borrows the underlying bit sink (e.g. to poll a streaming sink for
    /// latched I/O errors mid-encode).
    pub fn sink(&self) -> &S {
        &self.writer
    }

    /// Mutably borrows the underlying bit sink.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.writer
    }

    /// Flushes the interval state and returns the underlying sink.
    ///
    /// Emits `pending + 3` bits that pin the final code value inside the
    /// interval, after which the decoder's zero-padded reads cannot leave
    /// it: its decoder ends at most [`MAX_PADDING_BITS`] past the payload.
    pub fn finish(mut self) -> S {
        self.interval.flush(self.pending, &mut self.writer);
        self.writer
    }
}

impl<S: BitSink> DecisionEncoder for BinaryEncoder<S> {
    #[inline]
    fn encode(&mut self, bit: bool, c0: u32, total: u32) {
        BinaryEncoder::encode(self, bit, c0, total);
    }

    #[inline]
    fn decisions(&self) -> u64 {
        BinaryEncoder::decisions(self)
    }

    #[inline]
    fn coded_decisions(&self) -> u64 {
        BinaryEncoder::coded_decisions(self)
    }

    #[inline]
    fn note_deterministic(&mut self, n: u64) {
        self.decisions += n;
    }
}

/// Decoding half of the binary arithmetic coder.
///
/// Must be fed the same `(c0, total)` sequence the encoder used; adaptive
/// models guarantee this by updating identically on both sides. The bit
/// source is generic: a [`StreamBitReader`](cbic_bitio::StreamBitReader)
/// refilled incrementally from any `std::io::BufRead`, such as the
/// [`BitReader`](cbic_bitio::BitReader) over a payload in memory.
#[derive(Debug)]
pub struct BinaryDecoder<S> {
    interval: Interval,
    value: u32,
    reader: S,
    decisions: u64,
    coded: u64,
    recip: &'static [u64],
}

impl<S: BitSource> BinaryDecoder<S> {
    /// Wraps a bit source and pre-loads the first 32 code bits.
    pub fn new(mut reader: S) -> Self {
        let value = reader.read_bits(32) as u32;
        Self {
            interval: Interval::FULL,
            value,
            reader,
            decisions: 0,
            coded: 0,
            recip: recip_table(),
        }
    }

    /// Decodes one binary decision with `P(bit = 0) = c0 / total`.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero or exceeds 2^16 or if `c0 > total`.
    #[inline]
    pub fn decode(&mut self, c0: u32, total: u32) -> bool {
        assert!(total > 0 && total <= MAX_TOTAL, "invalid total {total}");
        assert!(c0 <= total, "c0 {c0} exceeds total {total}");

        // The encoder's deterministic-decision shortcut, mirrored: with
        // `c0 == 0` the split lands on `low` so the decision is always 1;
        // with `c0 == total` it lands past `high` so it is always 0. The
        // interval (and the code value) are untouched either way.
        if c0 == 0 {
            self.decisions += 1;
            return true;
        }
        if c0 == total {
            self.decisions += 1;
            return false;
        }

        self.decode_coded(c0, total)
    }

    /// Decodes a decision already known to be non-deterministic
    /// (`0 < c0 < total`), skipping the deterministic check — the entry
    /// point of the model-screened [`DecisionDecoder::decode_nondeterministic`],
    /// mirroring [`BinaryEncoder::encode_coded`].
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero or exceeds 2^16 or if `c0 > total`; in
    /// debug builds, also if the decision is deterministic.
    #[inline(always)]
    pub fn decode_coded(&mut self, c0: u32, total: u32) -> bool {
        // This bound doubles as the recip bounds-check, letting LLVM elide
        // the slice panic branch below. `c0` is only debug-checked: it
        // comes from the adaptive model (never from the bitstream), so
        // corrupt input cannot reach here with a bad value.
        assert!(total > 0 && total <= MAX_TOTAL, "invalid total {total}");
        debug_assert!(c0 <= total, "c0 {c0} exceeds total {total}");
        debug_assert!(
            c0 > 0 && c0 < total,
            "decode_coded requires a non-deterministic decision (c0={c0}, total={total})"
        );
        self.decode_step(scale(c0, self.recip[total as usize]))
    }

    /// One coded decision on a pre-scaled `P(0)` (`f` from [`scale`]):
    /// the kernel step, then the refill.
    #[inline(always)]
    fn decode_step(&mut self, f: u64) -> bool {
        self.decisions += 1;
        self.coded += 1;
        let value = self.value;
        let step = self.interval.step(f, |split| value >= split);
        // `s` does not depend on the input bits, so the settled and the E3
        // refills (consecutive in the stream) are one `read_bits` call.
        // The invariant `low ≤ value ≤ high` holds for *any* input bits
        // (each decision moves the boundary `value` is already on the
        // right side of), so the shift keeps it.
        let fresh = self.reader.read_bits(step.shifted) as u32;
        self.value = step.shift_in(value, fresh);
        step.bit
    }

    /// Number of decisions decoded so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Number of coded (non-deterministic) decisions decoded so far.
    pub fn coded_decisions(&self) -> u64 {
        self.coded
    }

    /// Borrows the underlying bit source (e.g. to inspect
    /// [`padding_bits`](BitSource::padding_bits) for truncation detection).
    pub fn source(&self) -> &S {
        &self.reader
    }

    /// Consumes the decoder, returning the underlying reader.
    pub fn into_reader(self) -> S {
        self.reader
    }

    /// The registers `(low, high, value)`, for the differential tests.
    #[cfg(test)]
    pub(crate) fn registers(&self) -> (u32, u32, u32) {
        (self.interval.low, self.interval.high, self.value)
    }
}

impl<S: BitSource> DecisionDecoder for BinaryDecoder<S> {
    #[inline]
    fn decode(&mut self, c0: u32, total: u32) -> bool {
        BinaryDecoder::decode(self, c0, total)
    }

    #[inline]
    fn decisions(&self) -> u64 {
        BinaryDecoder::decisions(self)
    }

    #[inline]
    fn coded_decisions(&self) -> u64 {
        BinaryDecoder::coded_decisions(self)
    }

    #[inline]
    fn note_deterministic(&mut self, n: u64) {
        self.decisions += n;
    }

    #[inline]
    fn decode_nondeterministic(&mut self, c0: u32, total: u32) -> bool {
        self.decode_coded(c0, total)
    }

    /// Splits on `f` directly: no table read, no multiply.
    #[inline(always)]
    fn decode_scaled(&mut self, c0: u32, total: u32, f: u64) -> bool {
        debug_assert!(
            c0 > 0 && c0 < total && total <= MAX_TOTAL,
            "decode_scaled requires a non-deterministic decision (c0={c0}, total={total})"
        );
        debug_assert_eq!(
            f,
            scale(c0, self.recip[total as usize]),
            "f is not c0·recip[total] (c0={c0}, total={total})"
        );
        self.decode_step(f)
    }
}

/// The interval arithmetic as it stood before [`Interval::step`], kept
/// verbatim as the differential oracle the kernel is pinned against: the
/// split as `mulhi(range·c0, ⌈2⁶⁴/total⌉)`, the outcome select written as
/// `if`, and renormalisation in two steps — a settled-bits shift, then a
/// bulk E3 shift.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{mask64, mulhi, recip_table, HALF, MAX_TOTAL, QUARTER};
    use cbic_bitio::{BitReader, BitSink, BitSource, BitWriter};

    /// The encoder of the two-step arithmetic, over a [`BitWriter`].
    pub(crate) struct OracleEncoder {
        low: u32,
        high: u32,
        pending: u64,
        writer: BitWriter,
        recip: &'static [u64],
    }

    impl OracleEncoder {
        pub(crate) fn new() -> Self {
            Self {
                low: 0,
                high: u32::MAX,
                pending: 0,
                writer: BitWriter::new(),
                recip: recip_table(),
            }
        }

        /// The registers `(low, high, pending)`.
        pub(crate) fn registers(&self) -> (u32, u32, u64) {
            (self.low, self.high, self.pending)
        }

        fn emit(&mut self, bit: bool) {
            self.writer.write_bit(bit);
            for _ in 0..self.pending {
                self.writer.write_bit(!bit);
            }
            self.pending = 0;
        }

        pub(crate) fn encode(&mut self, bit: bool, c0: u32, total: u32) {
            assert!(total > 0 && total <= MAX_TOTAL, "invalid total {total}");
            assert!(c0 <= total, "c0 {c0} exceeds total {total}");
            if if bit { c0 == 0 } else { c0 == total } {
                return;
            }
            self.encode_coded(bit, c0, total);
        }

        fn encode_coded(&mut self, bit: bool, c0: u32, total: u32) {
            let range = u64::from(self.high) - u64::from(self.low) + 1;
            let split =
                u64::from(self.low) + mulhi(range * u64::from(c0), self.recip[total as usize]);
            self.low = if bit { split as u32 } else { self.low };
            self.high = if bit { self.high } else { (split - 1) as u32 };

            let n = (self.low ^ self.high).leading_zeros();
            let bits = u64::from(self.low) >> (32 - n);
            if (n > 0) & (u64::from(n) + self.pending > 48) {
                let first = (bits >> (n - 1)) & 1 == 1;
                self.emit(first);
                if n > 1 {
                    self.writer
                        .write_bits(bits & ((1u64 << (n - 1)) - 1), n - 1);
                }
            } else {
                let keep = u64::from(n == 0).wrapping_neg();
                let first = bits.wrapping_shr(n.wrapping_sub(1)) & 1;
                let comps = ((first ^ 1).wrapping_neg() & mask64(self.pending as u32))
                    .wrapping_shl(n.wrapping_sub(1));
                let head =
                    first.wrapping_shl((self.pending as u32).wrapping_add(n).wrapping_sub(1));
                let body = bits & (1u64.wrapping_shl(n.wrapping_sub(1))).wrapping_sub(1);
                self.writer.write_bits(
                    (head | comps | body) & !keep,
                    ((self.pending + u64::from(n)) & !keep) as u32,
                );
                self.pending &= keep;
            }
            self.low = (u64::from(self.low) << n) as u32;
            self.high = ((u64::from(self.high) << n) | ((1u64 << n) - 1)) as u32;

            let k = (self.low << 1)
                .leading_ones()
                .min((self.high << 1).leading_zeros());
            self.pending += u64::from(k);
            self.low = (self.low << k) & !HALF;
            self.high = HALF | ((self.high << k) & !HALF) | (1u32.wrapping_shl(k)).wrapping_sub(1);
        }

        pub(crate) fn finish(mut self) -> Vec<u8> {
            self.pending += 1;
            let bit = self.low >= QUARTER;
            self.emit(bit);
            self.writer.write_bit(true);
            self.writer.into_bytes()
        }
    }

    /// The decoder of the two-step arithmetic, over a [`BitReader`].
    pub(crate) struct OracleDecoder<'a> {
        low: u32,
        high: u32,
        value: u32,
        reader: BitReader<'a>,
        recip: &'static [u64],
    }

    impl<'a> OracleDecoder<'a> {
        pub(crate) fn new(bytes: &'a [u8]) -> Self {
            let mut reader = BitReader::new(bytes);
            let value = reader.read_bits(32) as u32;
            Self {
                low: 0,
                high: u32::MAX,
                value,
                reader,
                recip: recip_table(),
            }
        }

        /// The registers `(low, high, value)`.
        pub(crate) fn registers(&self) -> (u32, u32, u32) {
            (self.low, self.high, self.value)
        }

        pub(crate) fn decode(&mut self, c0: u32, total: u32) -> bool {
            assert!(total > 0 && total <= MAX_TOTAL, "invalid total {total}");
            assert!(c0 <= total, "c0 {c0} exceeds total {total}");
            if c0 == 0 {
                return true;
            }
            if c0 == total {
                return false;
            }
            self.decode_coded(c0, total)
        }

        fn decode_coded(&mut self, c0: u32, total: u32) -> bool {
            let range = u64::from(self.high) - u64::from(self.low) + 1;
            let split =
                u64::from(self.low) + mulhi(range * u64::from(c0), self.recip[total as usize]);
            let bit = u64::from(self.value) >= split;
            self.low = if bit { split as u32 } else { self.low };
            self.high = if bit { self.high } else { (split - 1) as u32 };

            let n = (self.low ^ self.high).leading_zeros();
            self.low = (u64::from(self.low) << n) as u32;
            self.high = ((u64::from(self.high) << n) | ((1u64 << n) - 1)) as u32;

            let k = (self.low << 1)
                .leading_ones()
                .min((self.high << 1).leading_zeros());
            let fresh = self.reader.read_bits(n + k);
            let fresh_n = (fresh >> k) as u32;
            let fresh_k = (fresh & mask64(k)) as u32;
            self.value = ((u64::from(self.value) << n) as u32) | fresh_n;
            self.low = (self.low << k) & !HALF;
            self.high = HALF | ((self.high << k) & !HALF) | (1u32.wrapping_shl(k)).wrapping_sub(1);
            self.value = (self.value & HALF) | ((self.value << k) & !HALF) | fresh_k;
            bit
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbic_bitio::BitReader;

    fn roundtrip(decisions: &[(bool, u32, u32)]) {
        let mut enc = BinaryEncoder::new(BitWriter::new());
        for &(bit, c0, total) in decisions {
            enc.encode(bit, c0, total);
        }
        let bytes = enc.finish().into_bytes();
        let mut dec = BinaryDecoder::new(BitReader::new(&bytes));
        for &(bit, c0, total) in decisions {
            assert_eq!(dec.decode(c0, total), bit);
        }
    }

    /// The decoder of a complete stream reads 22 to 29 padding bits: the
    /// `32 − 3` of [`MAX_PADDING_BITS`] less the zeros that pad the last
    /// byte, whatever the decisions, their number, and the follow bits
    /// banked at the flush.
    #[test]
    fn a_complete_stream_is_decoded_within_the_padding_budget() {
        let mut seen = [false; 8];
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for len in 0..400usize {
            let decisions: Vec<(bool, u32, u32)> = (0..len)
                .map(|i| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let total = [2u32, 256, 4096, 65_536][(state >> 62) as usize];
                    let c0 = 1 + (state >> 20) as u32 % (total - 1);
                    // Runs of near-even splits bank follow bits.
                    let c0 = if i % 50 < 10 { total / 2 } else { c0 };
                    ((state >> 40) & 1 == 1, c0, total)
                })
                .collect();
            let mut enc = BinaryEncoder::new(BitWriter::new());
            for &(bit, c0, total) in &decisions {
                enc.encode(bit, c0, total);
            }
            let bytes = enc.finish().into_bytes();
            let mut dec = BinaryDecoder::new(BitReader::new(&bytes));
            for &(bit, c0, total) in &decisions {
                assert_eq!(dec.decode(c0, total), bit, "{len} decisions");
            }
            let padding = dec.source().padding_bits();
            assert!(
                (MAX_PADDING_BITS - 7..=MAX_PADDING_BITS).contains(&padding),
                "{len} decisions: {padding} padding bits"
            );
            seen[(MAX_PADDING_BITS - padding) as usize] = true;
        }
        assert_eq!(seen, [true; 8], "every final-byte padding occurs");
    }

    #[test]
    fn empty_stream() {
        let enc = BinaryEncoder::new(BitWriter::new());
        let bytes = enc.finish().into_bytes();
        assert!(bytes.len() <= 1);
    }

    #[test]
    fn single_decisions() {
        roundtrip(&[(false, 1, 2)]);
        roundtrip(&[(true, 1, 2)]);
    }

    #[test]
    fn equiprobable_sequence_costs_about_one_bit_each() {
        let decisions: Vec<_> = (0..1000).map(|i| (i % 2 == 0, 1u32, 2u32)).collect();
        let mut enc = BinaryEncoder::new(BitWriter::new());
        for &(bit, c0, total) in &decisions {
            enc.encode(bit, c0, total);
        }
        let bits = enc.finish().into_bytes().len() * 8;
        assert!((1000..=1016).contains(&bits), "got {bits} bits");
    }

    #[test]
    fn skewed_sequence_compresses() {
        // P(0) = 255/256, all-zero input: ~0.0056 bits each.
        let decisions: Vec<_> = (0..10_000).map(|_| (false, 255u32, 256u32)).collect();
        let mut enc = BinaryEncoder::new(BitWriter::new());
        for &(bit, c0, total) in &decisions {
            enc.encode(bit, c0, total);
        }
        let bits = enc.finish().into_bytes().len() * 8;
        assert!(bits < 200, "got {bits} bits for 10k near-certain decisions");
        roundtrip(&decisions);
    }

    #[test]
    fn improbable_bits_roundtrip() {
        // Code the unlikely side repeatedly.
        let decisions: Vec<_> = (0..100).map(|_| (true, 255u32, 256u32)).collect();
        roundtrip(&decisions);
    }

    #[test]
    fn zero_count_on_uncoded_side_is_fine() {
        // P(0) = 1 (c0 == total): coding a 0 must work, interval for 1 empty.
        roundtrip(&[(false, 4, 4), (true, 0, 4), (false, 4, 4)]);
    }

    /// The zero-probability guard is a `debug_assert`, so the panic only
    /// exists in debug builds — release builds would fail the
    /// `should_panic` expectation.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "zero-probability")]
    fn zero_probability_decision_panics_in_debug() {
        let mut enc = BinaryEncoder::new(BitWriter::new());
        enc.encode(false, 0, 4);
    }

    #[test]
    #[should_panic(expected = "invalid total")]
    fn total_too_large_panics() {
        let mut enc = BinaryEncoder::new(BitWriter::new());
        enc.encode(false, 1, MAX_TOTAL + 1);
    }

    #[test]
    fn alternating_extreme_probabilities() {
        let mut decisions = Vec::new();
        for i in 0..500 {
            decisions.push((i % 7 == 0, 65_535u32, 65_536u32));
            decisions.push((i % 3 != 0, 1u32, 65_536u32));
        }
        roundtrip(&decisions);
    }

    /// The reciprocal ROM must compute the exact truncating quotient for
    /// every `(range, c0, total)` the coder can form: corners of the range
    /// register, every divisor width, and both sides of each multiple.
    #[test]
    fn reciprocal_division_is_exact_at_the_corners() {
        let recip = recip_table();
        let ranges = [
            1u64 << 30,
            (1 << 30) + 1,
            (1 << 31) - 1,
            1 << 31,
            (1u64 << 32) - 1,
            1u64 << 32,
        ];
        for total in (2u64..=65536).flat_map(|d| [d]) {
            // Sample c0 values across the divisor, always including the
            // extremes and neighbours of total/2.
            for c0 in [0, 1, total / 2, total / 2 + 1, total - 1, total] {
                for &range in &ranges {
                    let n = range * c0;
                    let m = recip[total as usize];
                    assert_eq!(mulhi(n, m), n / total, "n {n}, total {total}");
                    // The kernel's pre-scaled form, for every coded c0.
                    if c0 < total {
                        assert_eq!(
                            mulhi(range, scale(c0 as u32, m)),
                            n / total,
                            "range {range}, c0 {c0}, total {total}"
                        );
                    }
                }
            }
        }
    }

    /// Splitting on a caller-scaled `f` is the same decision as splitting
    /// on `(c0, total)`: the same bit and the same registers after each of
    /// random decisions, with the corner totals 2, 3 and 65 535 mixed in.
    #[test]
    fn decode_scaled_matches_decode_nondeterministic() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % u64::from(n)) as u32
        };
        let decisions: Vec<(bool, u32, u32)> = (0..4000)
            .map(|i| {
                let total = match i % 4 {
                    0 => [2, 3, 65_535][(i / 4) % 3],
                    _ => 2 + next(65_534),
                };
                (next(2) == 1, 1 + next(total - 1), total)
            })
            .collect();
        let mut enc = BinaryEncoder::new(BitWriter::new());
        for &(bit, c0, total) in &decisions {
            enc.encode(bit, c0, total);
        }
        let bytes = enc.finish().into_bytes();
        let recip = recip_table();
        let mut plain = BinaryDecoder::new(BitReader::new(&bytes));
        let mut scaled = BinaryDecoder::new(BitReader::new(&bytes));
        for (i, &(bit, c0, total)) in decisions.iter().enumerate() {
            let f = scale(c0, recip[total as usize]);
            assert_eq!(
                plain.decode_nondeterministic(c0, total),
                bit,
                "decision {i}"
            );
            assert_eq!(scaled.decode_scaled(c0, total, f), bit, "decision {i}");
            assert_eq!(scaled.registers(), plain.registers(), "decision {i}");
        }
        assert_eq!(scaled.coded_decisions(), plain.coded_decisions());
    }

    /// `u64::MAX / d + 1` is `⌈2⁶⁴/d⌉` for every `d ≥ 2`: with
    /// `2⁶⁴ = q·d + r`, it is `q + 1` when `r > 0` and `q` when `d`
    /// divides `2⁶⁴`. Checked against 128-bit arithmetic over the table.
    #[test]
    fn reciprocal_rom_holds_the_ceiling_at_every_entry() {
        let recip = recip_table();
        assert_eq!(recip[..2], [0, 0]);
        for (d, &m) in recip.iter().enumerate().skip(2) {
            assert_eq!(u128::from(m), (1u128 << 64).div_ceil(d as u128), "d {d}");
        }
    }

    #[test]
    fn decision_counters_match() {
        let decisions: Vec<_> = (0..77).map(|i| (i % 3 == 0, 2u32, 5u32)).collect();
        let mut enc = BinaryEncoder::new(BitWriter::new());
        for &(bit, c0, total) in &decisions {
            enc.encode(bit, c0, total);
        }
        assert_eq!(enc.decisions(), 77);
        let bytes = enc.finish().into_bytes();
        let mut dec = BinaryDecoder::new(BitReader::new(&bytes));
        for &(_, c0, total) in &decisions {
            dec.decode(c0, total);
        }
        assert_eq!(dec.decisions(), 77);
    }
}
