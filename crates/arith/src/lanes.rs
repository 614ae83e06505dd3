//! Lane-interleaved arithmetic coding: N independent coder lanes over a
//! round-robin-striped decision stream.
//!
//! A single binary arithmetic coder serializes every decision: each one
//! reads the interval registers the previous decision wrote, so the CPU
//! sees one long dependency chain and its pipelines sit idle. The fix —
//! standard in rANS/CABAC accelerator designs — is to keep **N complete
//! interval states** and deal decisions across them round-robin: decision
//! `k` of the coded stream goes to lane `k mod N`. Each lane renormalizes
//! into its **own substream**, so consecutive decisions touch *different*
//! registers and execute overlapped; the decoder replays the identical
//! deal, so any lane count round-trips bit-exactly.
//!
//! Two invariants make this work with *adaptive* models:
//!
//! * **Model state stays shared.** Estimator trees and context banks are
//!   updated in strict program order on both sides, exactly as with one
//!   coder; only the interval arithmetic is striped. Compression loss is
//!   limited to the per-lane flush tails (≤ a few bytes per lane).
//! * **Deterministic decisions never touch a lane.** A decision whose coded
//!   side owns the whole interval (`c0 == 0` or `c0 == total`) emits no
//!   bits and leaves every register untouched, and — crucially — both
//!   sides can see that from `(c0, total)` *before* coding. Retiring such
//!   decisions at the mux keeps the lane cursor in lockstep between
//!   encoder and decoder by construction.
//!
//! The independence only pays if the lanes' registers actually live in
//! registers, so [`LaneEncoder`] does not call into N boxed coders per
//! decision. It *buffers* coded decisions (the model cannot observe the
//! coder, so encode-side deferral is free) and drains them in batches
//! through a lockstep loop whose per-lane interval/accumulator state is
//! hoisted into locals for the whole batch — the round-robin then costs
//! loads and stores once per batch instead of once per decision, and the
//! N renormalization chains overlap in the out-of-order window. The
//! emitted substreams are bit-identical to feeding N [`BinaryEncoder`]s
//! decision-by-decision (differentially tested); with one lane the output
//! is that plain coder's exact stream. Decode cannot defer (each decoded
//! bit feeds the model that produces the next probability), so
//! [`LaneDecoder`] simply rotates over N [`BinaryDecoder`]s — its win is
//! the shortened per-decision dependency chain, not batching.
//!
//! [`LaneEncoder`] / [`LaneDecoder`] implement
//! [`DecisionEncoder`](crate::DecisionEncoder) /
//! [`DecisionDecoder`](crate::DecisionDecoder), so the whole model layer
//! (symbol coders, estimator trees) drives them unchanged.
//!
//! # Examples
//!
//! ```
//! use cbic_arith::{DecisionDecoder, DecisionEncoder, LaneDecoder, LaneEncoder};
//! use cbic_bitio::BitReader;
//!
//! let decisions = [(false, 3u32, 4u32), (true, 1, 4), (false, 2, 4)];
//! let mut enc = LaneEncoder::new(2);
//! for &(bit, c0, total) in &decisions {
//!     enc.encode(bit, c0, total);
//! }
//! let substreams: Vec<Vec<u8>> = enc.finish_to_bytes();
//! assert_eq!(substreams.len(), 2);
//!
//! let sources: Vec<_> = substreams.iter().map(|s| BitReader::new(s)).collect();
//! let mut dec = LaneDecoder::new(sources);
//! for &(bit, c0, total) in &decisions {
//!     assert_eq!(dec.decode(c0, total), bit);
//! }
//! ```

use crate::bincoder::{
    recip_table, scale, BinaryDecoder, DecisionBatch, DecisionDecoder, DecisionEncoder, Interval,
    MAX_TOTAL,
};
use cbic_bitio::{BitSink, BitSource};

/// Upper bound on the lane count accepted by [`LaneEncoder`] and
/// [`LaneDecoder`] (and encodable in a container's lane byte).
///
/// Past roughly a dozen lanes the dependency chains are already fully
/// overlapped and each extra lane only adds flush-tail overhead, so the
/// cap costs nothing real while keeping per-lane state (and the decoder's
/// substream table) trivially bounded.
pub const MAX_LANES: usize = 32;

/// Coded decisions buffered before a lockstep drain. Small enough that
/// the buffer (8 bytes per decision) stays L1-resident alongside the lane
/// accumulators, large enough to amortize hoisting the lane registers.
const BATCH_TARGET: usize = 1024;

/// One lane's complete coder state: the [`BinaryEncoder`](crate::BinaryEncoder)
/// interval registers and follow-bit bank fused with a
/// [`BitWriter`](cbic_bitio::BitWriter)-style accumulator, as plain scalars
/// so a drain loop can hoist the whole thing into locals. Every decision
/// runs the coder's own interval kernel over them;
/// [`bit_identical_to_per_lane_binary_encoders`](tests) pins the
/// equivalence.
#[derive(Debug, Clone, Copy)]
struct LaneRegs {
    interval: Interval,
    /// Banked E3 follow bits awaiting the next settled bit.
    pending: u64,
    acc: LaneAcc,
}

/// A lane's bit accumulator, right-aligned in the low `nacc` bits of
/// `acc`, and the bits it has taken so far (excluding flush padding).
#[derive(Debug, Clone, Copy, Default)]
struct LaneAcc {
    acc: u64,
    nacc: u32,
    bits: u64,
}

impl Default for LaneRegs {
    fn default() -> Self {
        Self {
            interval: Interval::FULL,
            pending: 0,
            acc: LaneAcc::default(),
        }
    }
}

/// A lane's accumulator and substream, as the [`BitSink`] the interval
/// kernel releases bits into.
struct LaneSink<'a> {
    acc: &'a mut LaneAcc,
    out: &'a mut Vec<u8>,
}

impl BitSink for LaneSink<'_> {
    #[inline(always)]
    fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }

    fn bits_written(&self) -> u64 {
        self.acc.bits
    }

    /// Mirror of `BitWriter::write_bits` on the fused lane state.
    #[inline(always)]
    fn write_bits(&mut self, value: u64, count: u32) {
        debug_assert!(count <= 64 && (count == 64 || value >> count == 0));
        let r = &mut *self.acc;
        r.bits += u64::from(count);
        if count < 64 - r.nacc {
            r.acc = (r.acc << count) | value;
            r.nacc += count;
        } else {
            spill(r, self.out, value, count);
        }
    }
}

/// Cold tail of [`LaneSink::write_bits`]: the append crosses the 64-bit
/// accumulator boundary (~once per 64 emitted bits).
#[cold]
fn spill(r: &mut LaneAcc, out: &mut Vec<u8>, value: u64, count: u32) {
    let space = 64 - r.nacc;
    let spill = count - space;
    let filled = if space == 64 {
        value
    } else {
        (r.acc << space) | (value >> spill)
    };
    out.extend_from_slice(&filled.to_be_bytes());
    r.nacc = spill;
    r.acc = if spill == 0 {
        0
    } else {
        value & ((1u64 << spill) - 1)
    };
}

/// One coded decision through one lane: the interval kernel over
/// [`LaneRegs`].
// Deliberately out of line: the drain loop calls this N times per chunk,
// and N inlined copies of the body blow past the register file — one
// shared body with the lane state passed by pointer measures faster at
// every lane count tried.
#[inline(never)]
fn lane_step(r: &mut LaneRegs, out: &mut Vec<u8>, packed: u64, recip: &[u64]) {
    let total = (packed & 0x1_FFFF) as u32;
    let c0 = ((packed >> 17) & 0x1_FFFF) as u32;
    let bit = (packed >> 34) & 1 == 1;
    // Re-established from the pack in `encode` (asserted there); lets LLVM
    // elide the `recip` bounds check in this hot loop.
    assert!(total > 0 && total <= MAX_TOTAL, "invalid total {total}");
    let step = r.interval.step(scale(c0, recip[total as usize]), |_| bit);
    let mut sink = LaneSink {
        acc: &mut r.acc,
        out,
    };
    step.release(&mut r.pending, &mut sink);
}

/// Flush one lane: `BinaryEncoder::finish` + `BitWriter::into_bytes`.
/// Returns the substream bytes and the lane's total emitted bits
/// (coded + flush tail, excluding the byte-align padding — the same
/// pre-padding count a single coder's transport reports after `finish`).
fn lane_finish(mut r: LaneRegs, mut out: Vec<u8>) -> (Vec<u8>, u64) {
    let mut sink = LaneSink {
        acc: &mut r.acc,
        out: &mut out,
    };
    r.interval.flush(r.pending, &mut sink);
    // Align to a byte boundary and flush the accumulator (padding is not
    // counted in `bits`, mirroring `BitWriter::align_to_byte`).
    let a = &mut r.acc;
    let tail = a.nacc % 8;
    if tail > 0 {
        a.acc <<= 8 - tail;
        a.nacc += 8 - tail;
    }
    while a.nacc > 0 {
        a.nacc -= 8;
        out.push((a.acc >> a.nacc) as u8);
    }
    (out, a.bits)
}

/// Deals coded decisions round-robin across `N` independent coder lanes,
/// each writing its own substream.
///
/// See the module-level docs for the striping rule and the batched
/// drain. Construct with [`new`](Self::new), push decisions through
/// [`DecisionEncoder::encode`], then call
/// [`finish_to_bytes`](Self::finish_to_bytes) to flush every lane.
#[derive(Debug, Default)]
pub struct LaneEncoder {
    regs: Vec<LaneRegs>,
    outs: Vec<Vec<u8>>,
    /// Coded decisions awaiting a drain, packed as
    /// `bit << 34 | c0 << 17 | total` (both counts fit 17 bits: the coder
    /// caps `total` at 2^16).
    buf: Vec<u64>,
    /// Drain threshold: the largest multiple of the lane count at or below
    /// [`BATCH_TARGET`], so every full drain leaves the round-robin cursor
    /// back at lane 0 and the lockstep loop needs no cursor at all.
    batch: usize,
    decisions: u64,
    coded: u64,
}

impl LaneEncoder {
    /// Creates `lanes` coder lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or exceeds [`MAX_LANES`].
    pub fn new(lanes: usize) -> Self {
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "lane count {lanes} outside 1..={MAX_LANES}"
        );
        Self {
            regs: vec![LaneRegs::default(); lanes],
            outs: vec![Vec::new(); lanes],
            buf: Vec::with_capacity(BATCH_TARGET + DecisionBatch::CAPACITY),
            batch: (BATCH_TARGET / lanes) * lanes,
            decisions: 0,
            coded: 0,
        }
    }

    /// Number of lanes.
    pub fn lane_count(&self) -> usize {
        self.regs.len()
    }

    /// Total bits emitted across all lanes, draining buffered decisions
    /// first so the count is near-exact (excludes un-flushed interval
    /// state plus at most `lanes − 1` decisions held back to keep the
    /// round-robin deal aligned — a mid-stream drain may only retire whole
    /// rounds, or the decisions that follow would land on the wrong lanes).
    pub fn bits_written(&mut self) -> u64 {
        self.drain();
        self.regs.iter().map(|r| r.acc.bits).sum()
    }

    /// Total bits already coded into the lanes, *excluding* decisions
    /// still buffered at the mux (up to one batch's worth). The `&self`
    /// counterpart of [`bits_written`](Self::bits_written) for mid-stream
    /// progress reporting.
    pub fn bits_flushed(&self) -> u64 {
        self.regs.iter().map(|r| r.acc.bits).sum()
    }

    /// Codes the buffered decisions through the lanes in lockstep batches
    /// of the lane count with the per-lane registers hoisted into locals
    /// (the monomorphized widths cover the benched lane counts; other
    /// counts take the dynamic loop).
    ///
    /// Only *whole rounds* are drained: a tail shorter than the lane count
    /// stays buffered (moved to the front), because after a partial round
    /// the next decision belongs to a mid-cycle lane and the lockstep loop
    /// assumes every drain starts at lane 0. The tail is retired by
    /// [`finish_with_bits`](Self::finish_with_bits), where it really is
    /// the end of the deal.
    fn drain(&mut self) {
        match self.regs.len() {
            1 => self.drain_const::<1>(),
            2 => self.drain_const::<2>(),
            4 => self.drain_const::<4>(),
            8 => self.drain_const::<8>(),
            16 => self.drain_const::<16>(),
            _ => self.drain_dyn(),
        }
        let n = self.regs.len();
        let drained = self.buf.len() - self.buf.len() % n;
        self.buf.copy_within(drained.., 0);
        self.buf.truncate(self.buf.len() - drained);
    }

    fn drain_const<const N: usize>(&mut self) {
        let Self {
            regs, outs, buf, ..
        } = self;
        let mut r: [LaneRegs; N] = regs[..N].try_into().expect("lane count matches N");
        let recip = recip_table();
        for chunk in buf.chunks_exact(N) {
            // Lane-minor order: the N chains advance abreast, so each
            // step's interval update overlaps the other lanes' in the
            // out-of-order window. (Lane-major — one lane's whole stride
            // in a tight loop — measures ~15% slower here: a single
            // lane's renormalization chain is latency-bound, and running
            // it alone serializes on exactly that latency.)
            for i in 0..N {
                lane_step(&mut r[i], &mut outs[i], chunk[i], recip);
            }
        }
        regs[..N].copy_from_slice(&r);
    }

    fn drain_dyn(&mut self) {
        let Self {
            regs, outs, buf, ..
        } = self;
        let recip = recip_table();
        let n = regs.len();
        for (i, &packed) in buf[..buf.len() - buf.len() % n].iter().enumerate() {
            let lane = i % n;
            lane_step(&mut regs[lane], &mut outs[lane], packed, recip);
        }
    }

    /// Flushes every lane and returns the per-lane substream bytes, in
    /// lane order.
    pub fn finish_to_bytes(self) -> Vec<Vec<u8>> {
        self.finish_with_bits().0
    }

    /// [`finish_to_bytes`](Self::finish_to_bytes) that also reports the
    /// exact payload bits emitted across all lanes *including* each lane's
    /// flush tail (but not the byte-align padding) — the lane-striped
    /// equivalent of a single coder's post-`finish`
    /// [`bits_written`](cbic_bitio::BitSink::bits_written) count, which is
    /// what encode statistics report.
    pub fn finish_with_bits(mut self) -> (Vec<Vec<u8>>, u64) {
        self.drain();
        // The sub-round tail `drain` held back is the true end of the
        // deal, so it lands on lanes 0.. in order.
        let recip = recip_table();
        for (i, &packed) in self.buf.iter().enumerate() {
            lane_step(&mut self.regs[i], &mut self.outs[i], packed, recip);
        }
        let mut bits = 0u64;
        let subs = self
            .regs
            .into_iter()
            .zip(self.outs)
            .map(|(r, out)| {
                let (sub, lane_bits) = lane_finish(r, out);
                bits += lane_bits;
                sub
            })
            .collect();
        (subs, bits)
    }
}

impl DecisionEncoder for LaneEncoder {
    #[inline]
    fn encode(&mut self, bit: bool, c0: u32, total: u32) {
        assert!(total > 0 && total <= MAX_TOTAL, "invalid total {total}");
        debug_assert!(c0 <= total, "c0 {c0} exceeds total {total}");
        debug_assert!(
            if bit { c0 < total } else { c0 > 0 },
            "coding a zero-probability decision (bit={bit}, c0={c0}, total={total})"
        );
        self.decisions += 1;
        // Deterministic decisions retire at the mux: no bits, no interval
        // change, and — so the decoder's deal stays aligned — no lane
        // turn. Both sides see `(c0, total)` before coding, so both make
        // the same call.
        if if bit { c0 == 0 } else { c0 == total } {
            return;
        }
        self.coded += 1;
        self.buf
            .push(u64::from(bit) << 34 | u64::from(c0) << 17 | u64::from(total));
        if self.buf.len() >= self.batch {
            self.drain();
        }
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

    /// Batched entry point: the model already packs coded decisions in the
    /// mux's own `bit << 34 | c0 << 17 | total` layout, so a batch appends
    /// to the stripe buffer with one `memcpy` — no per-decision screening,
    /// re-packing, or drain check.
    #[inline]
    fn encode_batch(&mut self, batch: &DecisionBatch) {
        self.decisions += batch.decisions();
        self.coded += batch.coded_len() as u64;
        self.buf.extend_from_slice(batch.coded());
        if self.buf.len() >= self.batch {
            self.drain();
        }
    }
}

/// Replays the [`LaneEncoder`] deal on the decode side: coded decisions
/// are pulled round-robin from `N` independent [`BinaryDecoder`] lanes.
#[derive(Debug)]
pub struct LaneDecoder<S> {
    lanes: Vec<BinaryDecoder<S>>,
    cursor: usize,
    decisions: u64,
    coded: u64,
}

impl<S: BitSource> LaneDecoder<S> {
    /// Wraps one coder lane around each substream source, in lane order.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or holds more than [`MAX_LANES`]
    /// sources.
    pub fn new(sources: Vec<S>) -> Self {
        assert!(
            (1..=MAX_LANES).contains(&sources.len()),
            "lane count {} outside 1..={MAX_LANES}",
            sources.len()
        );
        Self {
            lanes: sources.into_iter().map(BinaryDecoder::new).collect(),
            cursor: 0,
            decisions: 0,
            coded: 0,
        }
    }

    /// Number of lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The largest number of zero-padding bits any lane has read past the
    /// end of its substream — the truncation detector for lane-striped
    /// payloads (compare against the same per-coder budget as a single
    /// coder's [`padding_bits`](BitSource::padding_bits)).
    pub fn max_padding_bits(&self) -> u64 {
        self.lanes
            .iter()
            .map(|lane| lane.source().padding_bits())
            .max()
            .unwrap_or(0)
    }
}

impl<S: BitSource> DecisionDecoder for LaneDecoder<S> {
    #[inline]
    fn decode(&mut self, c0: u32, total: u32) -> bool {
        // Mirror of the encoder mux: deterministic decisions are resolved
        // here and never touch (or rotate past) a lane.
        if c0 == 0 {
            self.decisions += 1;
            return true;
        }
        if c0 == total {
            self.decisions += 1;
            return false;
        }
        self.decode_nondeterministic(c0, total)
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

    /// Model-screened entry point: the caller has already established
    /// `0 < c0 < total`, so rotate the deal and hit the lane directly.
    #[inline]
    fn decode_nondeterministic(&mut self, c0: u32, total: u32) -> bool {
        self.decisions += 1;
        self.coded += 1;
        let lane = self.cursor;
        self.cursor += 1;
        if self.cursor == self.lanes.len() {
            self.cursor = 0;
        }
        self.lanes[lane].decode_coded(c0, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bincoder::BinaryEncoder;
    use cbic_bitio::{BitReader, BitWriter};

    fn mixed_decisions(n: u32) -> Vec<(bool, u32, u32)> {
        (0..n)
            .map(|i| {
                let h = i.wrapping_mul(2654435761);
                match i % 5 {
                    // Deterministic decisions must be retired at the mux.
                    0 => (false, 7, 7),
                    1 => (true, 0, 9),
                    _ => ((h >> 3) % 3 == 0, 1 + h % 99, 100),
                }
            })
            .collect()
    }

    fn roundtrip(lanes: usize, decisions: &[(bool, u32, u32)]) {
        let mut enc = LaneEncoder::new(lanes);
        for &(bit, c0, total) in decisions {
            enc.encode(bit, c0, total);
        }
        assert_eq!(enc.decisions(), decisions.len() as u64);
        let substreams = enc.finish_to_bytes();
        assert_eq!(substreams.len(), lanes);
        let sources = substreams.iter().map(|s| BitReader::new(s)).collect();
        let mut dec = LaneDecoder::new(sources);
        for (i, &(bit, c0, total)) in decisions.iter().enumerate() {
            assert_eq!(dec.decode(c0, total), bit, "decision {i} ({lanes} lanes)");
        }
    }

    #[test]
    fn roundtrips_across_lane_counts() {
        let decisions = mixed_decisions(5000);
        for lanes in [1, 2, 3, 4, 8, MAX_LANES] {
            roundtrip(lanes, &decisions);
        }
    }

    /// The fused drain loop must be bit-identical to dealing the same
    /// decisions across N plain `BinaryEncoder`s by hand — every lane, at
    /// widths with and without a monomorphized drain, across batch
    /// boundaries (the stream length is not a batch multiple) and extreme
    /// probabilities (to reach the cold follow-bit run).
    #[test]
    fn bit_identical_to_per_lane_binary_encoders() {
        let mut decisions = mixed_decisions(BATCH_TARGET as u32 * 3 + 137);
        // Long improbable runs bank enough pending bits to force the cold
        // release path.
        for _ in 0..300 {
            decisions.push((true, 65_535, 65_536));
        }
        for lanes in [1usize, 2, 3, 4, 5, 8, 16, MAX_LANES] {
            let mut enc = LaneEncoder::new(lanes);
            let mut reference: Vec<BinaryEncoder<BitWriter>> = (0..lanes)
                .map(|_| BinaryEncoder::new(BitWriter::new()))
                .collect();
            let mut cursor = 0;
            for &(bit, c0, total) in &decisions {
                enc.encode(bit, c0, total);
                if if bit { c0 != 0 } else { c0 != total } {
                    reference[cursor].encode_coded(bit, c0, total);
                    cursor = (cursor + 1) % lanes;
                }
            }
            let expected: Vec<Vec<u8>> = reference
                .into_iter()
                .map(|e| e.finish().into_bytes())
                .collect();
            assert_eq!(enc.finish_to_bytes(), expected, "{lanes} lanes");
        }
    }

    #[test]
    fn single_lane_matches_plain_coder() {
        let decisions = mixed_decisions(2000);
        let mut plain = BinaryEncoder::new(BitWriter::new());
        let mut laned = LaneEncoder::new(1);
        for &(bit, c0, total) in &decisions {
            plain.encode(bit, c0, total);
            laned.encode(bit, c0, total);
        }
        let plain_bytes = plain.finish().into_bytes();
        let lane_bytes = laned.finish_to_bytes();
        assert_eq!(lane_bytes.len(), 1);
        assert_eq!(lane_bytes[0], plain_bytes);
    }

    #[test]
    fn deterministic_decisions_do_not_rotate_the_deal() {
        // Two streams that differ only in interleaved deterministic
        // decisions must produce identical substreams.
        let coded = [(true, 3u32, 8u32), (false, 5, 8), (true, 1, 8)];
        let mut without = LaneEncoder::new(2);
        let mut with = LaneEncoder::new(2);
        for &(bit, c0, total) in &coded {
            without.encode(bit, c0, total);
            with.encode(false, 4, 4);
            with.encode(bit, c0, total);
            with.encode(true, 0, 4);
        }
        assert_eq!(without.finish_to_bytes(), with.finish_to_bytes());
    }

    /// Submitting decisions as pre-classified batches — with mid-stream
    /// `bits_written` drains at awkward (non-round-multiple) points — must
    /// deal them to exactly the same lanes as per-decision submission.
    #[test]
    fn batched_submission_matches_per_decision_deal() {
        let decisions = mixed_decisions(BATCH_TARGET as u32 * 2 + 61);
        for lanes in [1usize, 2, 3, 4, 8] {
            let mut batched = LaneEncoder::new(lanes);
            let mut plain = LaneEncoder::new(lanes);
            let mut batch = DecisionBatch::new();
            for (i, chunk) in decisions.chunks(7).enumerate() {
                batch.clear();
                for &(bit, c0, total) in chunk {
                    if if bit { c0 == 0 } else { c0 == total } {
                        batch.skip_deterministic(1);
                    } else {
                        batch.push_coded(bit, c0, total);
                    }
                    plain.encode(bit, c0, total);
                }
                batched.encode_batch(&batch);
                if i % 97 == 0 {
                    // A mid-stream count drains whole rounds only; the
                    // held-back tail must keep the deal aligned.
                    let _ = batched.bits_written();
                }
            }
            assert_eq!(batched.decisions(), plain.decisions(), "{lanes} lanes");
            assert_eq!(
                batched.coded_decisions(),
                plain.coded_decisions(),
                "{lanes} lanes"
            );
            assert_eq!(
                batched.finish_to_bytes(),
                plain.finish_to_bytes(),
                "{lanes} lanes"
            );
        }
    }

    #[test]
    fn bits_written_is_exact_mid_stream() {
        let decisions = mixed_decisions(3000);
        let mut enc = LaneEncoder::new(4);
        let mut reference = LaneEncoder::new(4);
        for &(bit, c0, total) in &decisions {
            enc.encode(bit, c0, total);
            reference.encode(bit, c0, total);
        }
        let exact = enc.bits_written();
        assert!(exact >= reference.bits_flushed());
        // Draining for the count must not change the output.
        assert_eq!(enc.finish_to_bytes(), reference.finish_to_bytes());
    }

    /// `finish_with_bits` must account every lane's flush tail: the total
    /// sits within one byte-align padding per lane of the substream byte
    /// count, and is never below the pre-finish running count.
    #[test]
    fn finish_with_bits_counts_every_lane_flush() {
        let decisions = mixed_decisions(3000);
        for lanes in [1usize, 2, 4, 8, MAX_LANES] {
            let mut enc = LaneEncoder::new(lanes);
            let mut reference = LaneEncoder::new(lanes);
            for &(bit, c0, total) in &decisions {
                enc.encode(bit, c0, total);
                reference.encode(bit, c0, total);
            }
            let pre = enc.bits_written();
            let (subs, bits) = enc.finish_with_bits();
            assert!(bits >= pre, "{lanes} lanes: flush tail lost");
            let byte_bits: u64 = subs.iter().map(|s| s.len() as u64 * 8).sum();
            assert!(
                bits <= byte_bits && byte_bits - bits < 8 * lanes as u64,
                "{lanes} lanes: {bits} bits vs {byte_bits} substream bits"
            );
            assert_eq!(subs, reference.finish_to_bytes(), "{lanes} lanes");
        }
    }

    #[test]
    fn empty_stream_flushes_every_lane() {
        let substreams = LaneEncoder::new(4).finish_to_bytes();
        assert_eq!(substreams.len(), 4);
        for s in substreams {
            assert!(s.len() <= 1);
        }
    }

    #[test]
    fn truncated_substreams_report_padding_not_panic() {
        let decisions = mixed_decisions(4000);
        let mut enc = LaneEncoder::new(4);
        for &(bit, c0, total) in &decisions {
            enc.encode(bit, c0, total);
        }
        let mut substreams = enc.finish_to_bytes();
        // Cut one lane's substream in half.
        let cut = substreams[2].len() / 2;
        substreams[2].truncate(cut);
        let sources = substreams.iter().map(|s| BitReader::new(s)).collect();
        let mut dec = LaneDecoder::new(sources);
        for &(_, c0, total) in &decisions {
            let _ = dec.decode(c0, total);
        }
        assert!(dec.max_padding_bits() > 64, "truncation must be visible");
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn zero_lanes_rejected() {
        let _ = LaneEncoder::new(0);
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn oversized_lane_count_rejected() {
        let _ = LaneEncoder::new(MAX_LANES + 1);
    }
}
