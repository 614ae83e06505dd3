//! The single per-sample datapath: one table-driven state machine behind
//! every coding path in the workspace.
//!
//! The paper's architecture (Fig. 3) is literally **one pipeline**,
//! executed once per pixel by fixed hardware. This module is that pipeline
//! in software — [`PixelEngine`] owns the complete per-sample datapath,
//! and every public entry point ([`encode_raw`](crate::encode_raw), the
//! bounded-memory [`stream`](crate::stream) codec, the reusable
//! [`session`](crate::session)s, and the [`grid`](crate::grid) tile
//! workers) drives this one implementation through one row step per
//! direction. There is deliberately no second copy of the model or of
//! the pixel loop anywhere.
//!
//! # Stage map (software ↔ the paper's Fig. 3)
//!
//! | Fig. 3 stage | here |
//! |---|---|
//! | Line 2 (a) — context fetch from the 3 line buffers | the row step's register-carried window over the current row and the two above, or [`Neighborhood::from_rows`] at the borders |
//! | Line 2 (b) — local gradients `dh`, `dv` | [`Gradients::compute`] |
//! | Line 2 (c) — primary prediction `X̂` + coding context `QE` | [`gap_predict`] + the [`quantize_energy`] ROM |
//! | Line 2 (d) — texture pattern → compound context | [`texture_pattern`] |
//! | Line 2 (e) — error feedback `X̃ = X̂ + ē` | the cached feedback bank of [`ContextStore`] |
//! | Line 1 (a) — prediction error `e = X − X̃` | the engine's encode step |
//! | Line 1 (c) — remap (wrap + zig-zag fold) | the per-depth fold ROM ([`FoldLut`]) |
//! | Line 1 (c) — estimator + binary arithmetic coder | [`SampleCoder`] over the single-descent tree walk; the streamed encoder's binary coder on a thread of its own (below); the decoder's walk prepares both children of each level while the level's bit decodes ([`TreeModel::decode_and_update`](cbic_arith::TreeModel::decode_and_update)) |
//! | Line 1 (b)/(d) — sum/count update, `e_W` write-back | [`PixelEngine`]'s absorb stage |
//!
//! Every stage runs on the caller's thread, with one exception. The
//! hardware runs its modelling lines beside the coder, and so does
//! [`StreamEncoder`](crate::stream::StreamEncoder), the flat path of
//! `cbic compress`: the model and the estimator trees run on the caller's
//! thread, and when more than one CPU is available the binary arithmetic
//! coder and the bit output run on one coder thread, fed packed decisions
//! through a queue of constant size (640 KiB). The CLI's `--threads N`
//! still counts the tile workers of the [`grid`](crate::grid), each of
//! which runs all stages on its own thread.
//!
//! # Why tables
//!
//! Hardware coders get their speed from flat lookups and banked memories
//! rather than branches. The engine mirrors that:
//!
//! * the 7-compare energy quantizer is a 256-entry ROM
//!   ([`quantize_energy`]);
//! * wrap-mod-2ⁿ **and** zig-zag fold collapse into one read of a
//!   per-depth [`FoldLut`] (2·2ⁿ−1 entries — 0.5 KB at 8 bits, rebuilt
//!   only when the sample depth changes);
//! * the context store is structure-of-arrays — separate sum, count, and
//!   cached-feedback banks, mirroring the BRAM banks accounted in
//!   `cbic_hw::memory` — so the hot path reads one `i16` instead of
//!   running a division;
//! * each coded symbol walks its estimator tree **once** (one fused
//!   code-and-update descent, or a [`DecisionPath`](cbic_arith::DecisionPath)
//!   capture for a symbol that may escape), not three times.
//!
//! The inner loops are monomorphized over their
//! [`BitSink`](cbic_bitio::BitSink)/[`BitSource`](cbic_bitio::BitSource),
//! so the buffered and streaming transports
//! compile to separate, branch-free specializations. Every byte of output
//! is identical to the pre-engine implementation: the 16 golden fixtures
//! and the cross-path differential proptests (`tests/engine.rs`) pin this.

use crate::codec::{CodecConfig, SampleCoder, CODING_CONTEXTS};
use crate::context::{error_energy, quantize_energy, texture_pattern, ContextStore};
use crate::neighborhood::Neighborhood;
use crate::predictor::{gap_predict, threshold_shift, Gradients};
use crate::remap::{fold, half_for_depth, unfold, wrap_error};
use cbic_arith::{CoderStats, DecisionDecoder, DecisionEncoder, EstimatorConfig};
use cbic_image::{ImageView, ImageViewMut};

/// The wrap-and-fold stage as a ROM: raw prediction error
/// `e = X − X̃ ∈ [−max_val, max_val]` → folded symbol, one lookup.
///
/// Combines [`wrap_error`] (mod 2ⁿ into the centered interval) and
/// [`fold`] (zig-zag onto `0..2ⁿ`) — the paper's "remapped … to reduce
/// the alphabet size" — into a single indexed read, the way the hardware
/// realizes the stage as wiring plus a small ROM. The table depends only
/// on the sample depth: 511 entries at 8 bits, rebuilt in place when an
/// engine is re-armed for a different depth.
#[derive(Debug, Clone)]
pub struct FoldLut {
    table: Vec<u16>,
    max_val: i32,
}

impl FoldLut {
    /// Builds the ROM for an `n`-bit depth.
    ///
    /// # Panics
    ///
    /// Panics if the depth is outside `1..=16`.
    pub fn new(bit_depth: u8) -> Self {
        let half = half_for_depth(bit_depth);
        let max_val = 2 * half - 1;
        let table = (-max_val..=max_val)
            .map(|e| fold(wrap_error(e, half), half))
            .collect();
        Self { table, max_val }
    }

    /// Largest raw-error magnitude the table covers (`2ⁿ − 1`).
    pub fn max_val(&self) -> i32 {
        self.max_val
    }

    /// ROM footprint in bytes (for the memory accounting).
    pub fn table_bytes(&self) -> usize {
        self.table.len() * 2
    }

    /// Folds a raw prediction error.
    ///
    /// # Panics
    ///
    /// Panics (by indexing) if `e` is outside `[-max_val, max_val]` — on
    /// the coding paths both `X` and `X̃` are within the sample range, so
    /// the difference always is.
    #[inline]
    pub fn fold(&self, e: i32) -> u16 {
        self.table[(e + self.max_val) as usize]
    }
}

/// Per-pixel model outputs shared by the encode and decode halves.
struct PixelModel {
    /// Coding-context index (selects the estimator tree bank).
    qe: usize,
    /// Compound-context index (selects the feedback cell).
    ctx: usize,
    /// Adjusted prediction `X̃` after error feedback, in `0..=max_val`.
    x_tilde: i32,
}

/// The complete per-sample datapath of the paper, as one table-driven
/// state machine.
///
/// A `PixelEngine` owns everything both codec sides keep in lock-step:
/// the SoA context banks, the per-depth fold ROM, the per-column
/// `|e_W|` row buffer, and the estimator banks. One engine instance is
/// one side of one stream; the encoder-side and decoder-side wrappers
/// ([`EncoderState`], [`DecoderState`]) expose only the matching half of
/// the API so the two directions cannot be mixed on one state.
///
/// Engines are built once and **reset in place** between images (the
/// session path); a reset engine codes byte-identically to a fresh one.
#[derive(Debug)]
pub struct PixelEngine {
    banks: ContextStore,
    fold: FoldLut,
    /// |wrapped error| per column: entry `x` holds the error of the most
    /// recently processed pixel in column `x` (this row if already done,
    /// otherwise the previous row) — the hardware keeps exactly this row
    /// buffer to provide `e_W`.
    abs_err: Vec<u16>,
    coder: SampleCoder,
    estimator: EstimatorConfig,
    texture_bits: u32,
    error_feedback: bool,
    bit_depth: u8,
    /// `2^(depth-1)`: the wrap modulus half and first-pixel mid-gray.
    half: i32,
    /// `2^depth − 1`: sample mask (reconstruction) and clamp ceiling.
    max_val: i32,
    /// Energy quantizer scale: `depth − 8` for deep samples, 0 otherwise.
    energy_shift: u32,
}

impl PixelEngine {
    /// Builds an engine for a `width`-pixel stream of the given depth.
    ///
    /// # Panics
    ///
    /// Panics if the depth is outside `1..=16` or the configuration is
    /// invalid (see [`CodecConfig`]).
    pub fn new(width: usize, bit_depth: u8, cfg: &CodecConfig) -> Self {
        let half = half_for_depth(bit_depth);
        Self {
            banks: ContextStore::with_max_err(
                cfg.compound_contexts(),
                cfg.division,
                cfg.aging,
                half,
            ),
            fold: FoldLut::new(bit_depth),
            abs_err: vec![0; width],
            coder: SampleCoder::new(CODING_CONTEXTS, bit_depth, cfg.estimator),
            estimator: cfg.estimator,
            texture_bits: u32::from(cfg.texture_bits),
            error_feedback: cfg.error_feedback,
            bit_depth,
            half,
            max_val: 2 * half - 1,
            energy_shift: threshold_shift(bit_depth),
        }
    }

    /// Restores the start-of-stream state in place for a `width`-pixel
    /// stream of the given depth, reusing the context banks and the
    /// division LUT; the fold ROM and estimator banks are rebuilt only
    /// when the depth actually changes. A reset engine behaves
    /// byte-identically to a freshly constructed one.
    pub fn reset(&mut self, width: usize, bit_depth: u8) {
        if self.bit_depth != bit_depth {
            self.bit_depth = bit_depth;
            self.half = half_for_depth(bit_depth);
            self.max_val = 2 * self.half - 1;
            self.energy_shift = threshold_shift(bit_depth);
            self.fold = FoldLut::new(bit_depth);
            self.banks.set_max_err(self.half);
        }
        if self.coder.bit_depth() != bit_depth {
            self.coder = SampleCoder::new(CODING_CONTEXTS, bit_depth, self.estimator);
        } else {
            self.coder.reset();
        }
        self.banks.reset();
        self.abs_err.clear();
        self.abs_err.resize(width, 0);
    }

    /// Sample bit depth the engine is armed for.
    pub fn bit_depth(&self) -> u8 {
        self.bit_depth
    }

    /// First-pixel mid-gray as a sample.
    #[inline]
    pub(crate) fn mid(&self) -> u16 {
        self.half as u16
    }

    /// Number of overflow-guard halvings since construction or reset.
    pub fn halvings(&self) -> u64 {
        self.banks.halvings()
    }

    /// Number of feedback-context banks the engine allocated (the
    /// configuration's compound contexts).
    pub fn context_banks(&self) -> usize {
        self.banks.contexts()
    }

    /// Host bytes actually allocated by the SoA context store — the
    /// quantity `cbic_hw::memory::ContextBankLayout::host_soa` accounts.
    pub fn context_bytes(&self) -> usize {
        self.banks.allocated_bytes()
    }

    /// Accumulated estimator statistics since construction or reset.
    pub fn coder_stats(&self) -> CoderStats {
        self.coder.stats()
    }

    /// Line 2 of the pipeline: gradients, primary prediction, compound
    /// context formation, and error feedback for column `x`, given the
    /// already-fetched causal neighbourhood.
    #[inline]
    fn model(&self, nb: &Neighborhood, x: usize) -> PixelModel {
        let g = Gradients::compute(nb);
        let x_hat = gap_predict(nb, g, self.bit_depth);
        // Column 0 reads its own (previous-row) slot, as the hardware
        // register file does.
        let e_w = i32::from(self.abs_err[x.saturating_sub(1)]);
        // The CALIC energy thresholds are 8-bit-scaled; deep samples bring
        // the energy back to that scale with one shift (no-op at 8 bits).
        let qe = usize::from(quantize_energy(error_energy(g, e_w) >> self.energy_shift));
        let t = texture_pattern(nb, x_hat, self.texture_bits);
        let ctx = (qe << self.texture_bits) | usize::from(t);
        let e_bar = if self.error_feedback {
            self.banks.mean(ctx)
        } else {
            0
        };
        let x_tilde = (x_hat + e_bar).clamp(0, self.max_val);
        PixelModel { qe, ctx, x_tilde }
    }

    /// Line 1 write-back: folds the coded pixel's wrapped error into the
    /// context banks and the `e_W` row buffer.
    #[inline]
    fn absorb(&mut self, x: usize, ctx: usize, wrapped: i32) {
        if self.error_feedback {
            self.banks.update(ctx, wrapped);
        }
        // |wrapped| ≤ half ≤ 2^15 always fits the u16 slot.
        self.abs_err[x] = wrapped.unsigned_abs() as u16;
    }

    /// Runs the full pipeline for one incoming pixel on the encoder side:
    /// model, error formation, fold-ROM remap, estimator + arithmetic
    /// coder, state write-back.
    #[inline]
    fn encode_pixel<E: DecisionEncoder>(
        &mut self,
        enc: &mut E,
        nb: &Neighborhood,
        x: usize,
        value: u16,
    ) {
        let m = self.model(nb, x);
        let folded = self.fold.fold(i32::from(value) - m.x_tilde);
        self.coder.encode(enc, m.qe, folded);
        self.absorb(x, m.ctx, unfold(folded));
    }

    /// The decoder-side dual of [`Self::encode_pixel`]: model, estimator
    /// decode, branch-free unfold, masked reconstruction, write-back.
    #[inline]
    fn decode_pixel<D: DecisionDecoder>(
        &mut self,
        dec: &mut D,
        nb: &Neighborhood,
        x: usize,
    ) -> u16 {
        let m = self.model(nb, x);
        let wrapped = unfold(self.coder.decode(dec, m.qe));
        // X = (X̃ + w) mod 2ⁿ: the modulus is a power of two, so the
        // two's-complement mask is the exact euclidean remainder.
        let value = ((m.x_tilde + wrapped) & self.max_val) as u16;
        self.absorb(x, m.ctx, wrapped);
        value
    }

    /// The encoder's loop over a prepared view: one row step per row,
    /// given the row and the two above it. Rows are read as slices, so
    /// strided views cost the same as contiguous ones; the loop is
    /// monomorphized per [`BitSink`](cbic_bitio::BitSink).
    pub fn encode_view<E: DecisionEncoder>(&mut self, img: ImageView<'_>, enc: &mut E) {
        debug_assert_eq!(self.bit_depth, img.bit_depth());
        for y in 0..img.height() {
            let n1 = (y >= 1).then(|| img.row(y - 1));
            let n2 = (y >= 2).then(|| img.row(y - 2));
            self.encode_row(enc, img.row(y), n1, n2);
        }
    }

    /// The encoder's row step — the one pixel loop every encode path runs.
    /// `cur` is the row to code, `n1` the row above it (`None` on the
    /// first row) and `n2` the row above that (`None` on the first two
    /// rows): the paper's three line buffers.
    ///
    /// Interior pixels of interior rows take the register-carried fast
    /// path: the seven neighbours live in locals that shift along the row
    /// (the hardware's pipeline registers), so each step performs three
    /// loads — `X`, `NE`, `NNE` — instead of a full
    /// [`Neighborhood::from_rows`] fetch with its boundary branches.
    /// Boundary pixels (first two rows, first two and last columns, rows
    /// narrower than 4) go through `from_rows`, whose replication rules
    /// are the reference the fast path is differentially tested against.
    pub(crate) fn encode_row<E: DecisionEncoder>(
        &mut self,
        enc: &mut E,
        cur: &[u16],
        n1: Option<&[u16]>,
        n2: Option<&[u16]>,
    ) {
        debug_assert_eq!(self.abs_err.len(), cur.len());
        let width = cur.len();
        let mid = self.mid();
        let (Some(n1), Some(n2), true) = (n1, n2, width >= 4) else {
            for x in 0..width {
                let nb = Neighborhood::from_rows(cur, n1, n2, x, mid);
                self.encode_pixel(enc, &nb, x, cur[x]);
            }
            return;
        };
        for x in 0..2 {
            let nb = Neighborhood::from_rows(cur, Some(n1), Some(n2), x, mid);
            self.encode_pixel(enc, &nb, x, cur[x]);
        }
        self.encode_interior_chunked(enc, cur, n1, n2);
        let x = width - 1;
        let nb = Neighborhood::from_rows(cur, Some(n1), Some(n2), x, mid);
        self.encode_pixel(enc, &nb, x, cur[x]);
    }

    /// Chunk width of the encoder's two-phase interior loop: small enough
    /// that the per-chunk `(qe, folded)` windows live in registers/L1,
    /// large enough to amortize the phase switch.
    const ENC_CHUNK: usize = 64;

    /// The interior pixels of one interior row (`x in 2..width-1`), coded
    /// in two phases per [`Self::ENC_CHUNK`]-pixel window.
    ///
    /// On the *encoder* side every model quantity — gradients, prediction,
    /// texture context, error feedback, and the folded error itself — is
    /// computable from the input pixels alone, without consulting the
    /// arithmetic coder. Phase A therefore runs the whole prediction/
    /// context datapath for a chunk, writing the per-pixel `(qe, folded)`
    /// pairs into two small stack windows (and retiring the context-bank
    /// write-back immediately, exactly as the fused loop did). Phase B
    /// replays the window through the estimator and the coder as one
    /// tight loop with no prediction state live across it.
    ///
    /// The coder sees the identical `(ctx, symbol)` sequence, and the
    /// model banks see the identical read/update interleaving, so the
    /// emitted bytes are bit-identical to the fused per-pixel loop (the
    /// golden fixtures pin this). Decoding cannot be split this way — the
    /// next pixel's neighbourhood needs the previous pixel decoded — so
    /// the decoder keeps the fused loop.
    fn encode_interior_chunked<E: DecisionEncoder>(
        &mut self,
        enc: &mut E,
        cur: &[u16],
        n1: &[u16],
        n2: &[u16],
    ) {
        let width = cur.len();
        // Pipeline registers, loaded for x = 2 and shifted per pixel.
        let mut ww = cur[0];
        let mut w = cur[1];
        let mut nw = n1[1];
        let mut nc = n1[2];
        let mut nn = n2[2];
        let mut qes = [0u8; Self::ENC_CHUNK];
        let mut folded = [0u16; Self::ENC_CHUNK];
        let mut x = 2;
        while x < width - 1 {
            let len = Self::ENC_CHUNK.min(width - 1 - x);
            // Phase A: prediction and context formation, no coder state.
            for i in 0..len {
                let xi = x + i;
                let ne = n1[xi + 1];
                let nne = n2[xi + 1];
                let nb = Neighborhood {
                    w,
                    ww,
                    n: nc,
                    nn,
                    ne,
                    nw,
                    nne,
                };
                let m = self.model(&nb, xi);
                let f = self.fold.fold(i32::from(cur[xi]) - m.x_tilde);
                qes[i] = m.qe as u8;
                folded[i] = f;
                self.absorb(xi, m.ctx, unfold(f));
                ww = w;
                w = cur[xi];
                nw = nc;
                nc = ne;
                nn = nne;
            }
            // Phase B: estimator descent + arithmetic coding, no
            // prediction state.
            for i in 0..len {
                self.coder.encode(enc, usize::from(qes[i]), folded[i]);
            }
            x += len;
        }
    }

    /// The decoder's loop — the dual of [`Self::encode_view`],
    /// reconstructing rows in place into `out` (a tile of a larger image,
    /// or a whole one) through the decoder's row step.
    pub fn decode_into<D: DecisionDecoder>(&mut self, dec: &mut D, out: &mut ImageViewMut<'_>) {
        self.decode_rows_while(dec, out, |_| true);
    }

    /// [`Self::decode_into`] that asks `keep_going` after every row and
    /// stops as soon as it answers `false`, returning the number of rows
    /// decoded. The buffered decoders pass their padding-budget check
    /// here, so a stream that has run dry stops within a row.
    pub(crate) fn decode_rows_while<D, F>(
        &mut self,
        dec: &mut D,
        out: &mut ImageViewMut<'_>,
        mut keep_going: F,
    ) -> usize
    where
        D: DecisionDecoder,
        F: FnMut(&D) -> bool,
    {
        debug_assert_eq!(self.bit_depth, out.bit_depth());
        let height = out.height();
        for y in 0..height {
            let (n2, n1, cur) = out.causal_rows_mut(y);
            self.decode_row(dec, cur, n1, n2);
            if !keep_going(dec) {
                return y + 1;
            }
        }
        height
    }

    /// The decoder's row step, the dual of [`Self::encode_row`]:
    /// reconstructs `cur` in place from the two rows above it, with the
    /// same register-carried interior. Only the causal prefix of `cur` is
    /// ever read, so its prior contents do not matter.
    pub(crate) fn decode_row<D: DecisionDecoder>(
        &mut self,
        dec: &mut D,
        cur: &mut [u16],
        n1: Option<&[u16]>,
        n2: Option<&[u16]>,
    ) {
        debug_assert_eq!(self.abs_err.len(), cur.len());
        let width = cur.len();
        let mid = self.mid();
        let (Some(n1), Some(n2), true) = (n1, n2, width >= 4) else {
            for x in 0..width {
                let nb = Neighborhood::from_rows(cur, n1, n2, x, mid);
                cur[x] = self.decode_pixel(dec, &nb, x);
            }
            return;
        };
        for x in 0..2 {
            let nb = Neighborhood::from_rows(cur, Some(n1), Some(n2), x, mid);
            cur[x] = self.decode_pixel(dec, &nb, x);
        }
        let mut ww = cur[0];
        let mut w = cur[1];
        let mut nw = n1[1];
        let mut n = n1[2];
        let mut nn = n2[2];
        for x in 2..width - 1 {
            let ne = n1[x + 1];
            let nne = n2[x + 1];
            let nb = Neighborhood {
                w,
                ww,
                n,
                nn,
                ne,
                nw,
                nne,
            };
            let value = self.decode_pixel(dec, &nb, x);
            cur[x] = value;
            ww = w;
            w = value;
            nw = n;
            n = ne;
            nn = nne;
        }
        let x = width - 1;
        let nb = Neighborhood::from_rows(cur, Some(n1), Some(n2), x, mid);
        cur[x] = self.decode_pixel(dec, &nb, x);
    }
}

/// The encoder-side engine state: a [`PixelEngine`] restricted to the
/// encode half of the API, owned by everything that produces a stream
/// ([`encode_raw`](crate::encode_raw), [`EncoderSession`](crate::session::EncoderSession),
/// [`StreamEncoder`](crate::stream::StreamEncoder), the grid's tiles).
#[derive(Debug)]
pub struct EncoderState {
    engine: PixelEngine,
}

impl EncoderState {
    /// Builds encoder-side state (see [`PixelEngine::new`]).
    ///
    /// # Panics
    ///
    /// As [`PixelEngine::new`].
    pub fn new(width: usize, bit_depth: u8, cfg: &CodecConfig) -> Self {
        Self {
            engine: PixelEngine::new(width, bit_depth, cfg),
        }
    }

    /// Re-arms the state in place (see [`PixelEngine::reset`]).
    pub fn reset(&mut self, width: usize, bit_depth: u8) {
        self.engine.reset(width, bit_depth);
    }

    /// Sample bit depth the state is armed for.
    pub fn bit_depth(&self) -> u8 {
        self.engine.bit_depth()
    }

    /// Overflow-guard halvings since construction or reset.
    pub fn halvings(&self) -> u64 {
        self.engine.halvings()
    }

    /// Estimator statistics since construction or reset.
    pub fn coder_stats(&self) -> CoderStats {
        self.engine.coder_stats()
    }

    /// Encodes a whole view (see [`PixelEngine::encode_view`]).
    pub fn encode_view<E: DecisionEncoder>(&mut self, img: ImageView<'_>, enc: &mut E) {
        self.engine.encode_view(img, enc);
    }

    /// Encodes one row given the two above it (see
    /// [`PixelEngine::encode_row`]).
    pub(crate) fn encode_row<E: DecisionEncoder>(
        &mut self,
        enc: &mut E,
        cur: &[u16],
        n1: Option<&[u16]>,
        n2: Option<&[u16]>,
    ) {
        self.engine.encode_row(enc, cur, n1, n2);
    }
}

/// The decoder-side engine state: a [`PixelEngine`] restricted to the
/// decode half of the API, owned by everything that consumes a stream
/// ([`decode_raw`](crate::decode_raw), [`DecoderSession`](crate::session::DecoderSession),
/// [`StreamDecoder`](crate::stream::StreamDecoder), the grid's tiles).
#[derive(Debug)]
pub struct DecoderState {
    engine: PixelEngine,
}

impl DecoderState {
    /// Builds decoder-side state (see [`PixelEngine::new`]).
    ///
    /// # Panics
    ///
    /// As [`PixelEngine::new`].
    pub fn new(width: usize, bit_depth: u8, cfg: &CodecConfig) -> Self {
        Self {
            engine: PixelEngine::new(width, bit_depth, cfg),
        }
    }

    /// Re-arms the state in place (see [`PixelEngine::reset`]).
    pub fn reset(&mut self, width: usize, bit_depth: u8) {
        self.engine.reset(width, bit_depth);
    }

    /// Sample bit depth the state is armed for.
    pub fn bit_depth(&self) -> u8 {
        self.engine.bit_depth()
    }

    /// Decodes a whole view in place (see [`PixelEngine::decode_into`]).
    pub fn decode_into<D: DecisionDecoder>(&mut self, dec: &mut D, out: &mut ImageViewMut<'_>) {
        self.engine.decode_into(dec, out);
    }

    /// Decodes a view in place, stopping after the first row for which
    /// `keep_going` answers `false` (see [`PixelEngine::decode_rows_while`]).
    pub(crate) fn decode_rows_while<D, F>(
        &mut self,
        dec: &mut D,
        out: &mut ImageViewMut<'_>,
        keep_going: F,
    ) -> usize
    where
        D: DecisionDecoder,
        F: FnMut(&D) -> bool,
    {
        self.engine.decode_rows_while(dec, out, keep_going)
    }

    /// Decodes one row in place given the two above it (see
    /// [`PixelEngine::decode_row`]).
    pub(crate) fn decode_row<D: DecisionDecoder>(
        &mut self,
        dec: &mut D,
        cur: &mut [u16],
        n1: Option<&[u16]>,
        n2: Option<&[u16]>,
    ) {
        self.engine.decode_row(dec, cur, n1, n2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbic_image::Image;

    #[test]
    fn fold_lut_matches_wrap_fold_composition() {
        for depth in [1u8, 2, 4, 8, 12, 16] {
            let half = half_for_depth(depth);
            let max_val = 2 * half - 1;
            let lut = FoldLut::new(depth);
            assert_eq!(lut.max_val(), max_val);
            assert_eq!(lut.table_bytes(), (2 * max_val as usize + 1) * 2);
            for e in -max_val..=max_val {
                let expected = fold(wrap_error(e, half), half);
                assert_eq!(lut.fold(e), expected, "depth {depth}, e {e}");
                // The wrapped error the engine absorbs is recovered by the
                // branch-free unfold.
                assert_eq!(unfold(lut.fold(e)), wrap_error(e, half));
            }
        }
    }

    #[test]
    fn reset_engine_codes_identically_to_fresh() {
        use cbic_arith::BinaryEncoder;
        use cbic_bitio::BitWriter;
        let cfg = CodecConfig::default();
        let images = [
            Image::from_fn(24, 16, |x, y| (x * 11 + y * 7) as u8),
            Image::from_fn16(9, 9, 12, |x, y| (x * 400 + y) as u16),
            Image::from_fn(1, 1, |_, _| 42),
        ];
        let mut reused = EncoderState::new(1, 8, &cfg);
        for img in &images {
            let mut fresh = EncoderState::new(img.width(), img.bit_depth(), &cfg);
            let mut enc_a = BinaryEncoder::new(BitWriter::new());
            fresh.encode_view(img.view(), &mut enc_a);

            reused.reset(img.width(), img.bit_depth());
            let mut enc_b = BinaryEncoder::new(BitWriter::new());
            reused.encode_view(img.view(), &mut enc_b);

            assert_eq!(
                enc_a.finish().into_bytes(),
                enc_b.finish().into_bytes(),
                "reset != fresh on {}x{}@{}",
                img.width(),
                img.height(),
                img.bit_depth()
            );
        }
    }

    #[test]
    fn engine_roundtrips_through_both_states() {
        use cbic_arith::{BinaryDecoder, BinaryEncoder};
        use cbic_bitio::{BitReader, BitWriter};
        let cfg = CodecConfig::default();
        for depth in [1u8, 8, 11, 16] {
            let max = (1u32 << depth) - 1;
            let img = Image::from_fn16(13, 9, depth, |x, y| {
                let mix = (x as u32)
                    .wrapping_mul(2654435761)
                    .wrapping_add((y as u32).wrapping_mul(40503));
                (mix % (max + 1)) as u16
            });
            let mut enc_state = EncoderState::new(img.width(), depth, &cfg);
            let mut enc = BinaryEncoder::new(BitWriter::new());
            enc_state.encode_view(img.view(), &mut enc);
            let bytes = enc.finish().into_bytes();

            let mut dec_state = DecoderState::new(img.width(), depth, &cfg);
            let mut out = Image::with_depth(img.width(), img.height(), depth);
            let mut dec = BinaryDecoder::new(BitReader::new(&bytes));
            dec_state.decode_into(&mut dec, &mut out.view_mut());
            assert_eq!(out, img, "depth {depth}");
        }
    }
}
