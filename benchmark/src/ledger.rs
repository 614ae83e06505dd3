//! The layer ledger: the codec's work split into its layers, each timed
//! alone on recordings of the same inputs the workload sends through the
//! binaries, and checked byte for byte against the program's own output.
//!
//! For each input the ledger records, untimed:
//!
//! * the per-pixel `(QE, folded error)` symbols, by running the paper's
//!   classic model (predictor, compound context, error feedback, remap)
//!   from the codec's public stage functions;
//! * the coded decision trace `(bit, c0, total)`, by feeding those symbols
//!   to the codec's [`SampleCoder`] with a recording coder;
//! * every call the binary coder makes on its bit sink (`write_bits` /
//!   `write_bit`, with their values) and on its bit source (`read_bits` /
//!   `read_bit`, with the values returned), by running [`BinaryEncoder`]
//!   and [`BinaryDecoder`] over recording sinks and sources.
//!
//! The recorded sink calls replayed into a [`BitWriter`] must give exactly
//! the payload [`encode_raw`] gives; the decoder must give back every
//! recorded bit, both from the real reader and from the recorded reads;
//! and the decoder's model fed the recorded bits must rebuild the image. A
//! recording that fails any check is reported as incorrect, so every timed
//! layer below is known to do the same work as the real codec.
//!
//! Each layer is then timed alone, in rounds that run every span once so
//! all spans see the same host conditions; rounds repeat until the run's
//! time is used (at least [`MIN_ROUNDS`]) and each span's fastest round is
//! kept (min-of-N: contention from other tenants only ever adds time):
//!
//! | span | what runs |
//! |---|---|
//! | engine | [`encode_model_only`]: model + tree into a null coder |
//! | tree | [`SampleCoder`] over the recorded symbols, null coder |
//! | coder | [`BinaryEncoder`] over the recorded trace into a null sink |
//! | bitio | [`BitWriter`] replaying the coder's recorded sink calls |
//! | enc_raw | [`encode_raw`]: the whole encoder |
//! | dec_engine | [`DecoderState`] fed the recorded bits: model + tree |
//! | dec_coder | [`BinaryDecoder`] over the trace, fed the recorded reads |
//! | dec_bitio | [`BitReader`] replaying the decoder's recorded reads |
//! | dec_raw | [`decode_raw`]: the whole decoder |
//! | container | the workload's container path for the inputs, one thread |
//! | library | the workload's operations in process, at its thread count |
//! | format | the surface's sample format: PGM, or the wire frame |
//! | surface | the workload's operations through the binaries |
//!
//! `library` is timed only where it is not the `container` span already
//! (the two-thread grid, and the service's codec mix). Self times follow
//! by subtracting child spans (model = engine − tree, container framing =
//! container − enc_raw − dec_raw, surface = surface − library); what the
//! spans do not cover is reported as a residual, so unexplained time shows
//! instead of hiding.

use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

use cbic_arith::{BinaryDecoder, BinaryEncoder, CountingEncoder, DecisionDecoder, DecisionEncoder};
use cbic_bitio::{BitReader, BitSink, BitSource, BitWriter};
use cbic_core::codec::{SampleCoder, CODING_CONTEXTS};
use cbic_core::context::{error_energy, quantize_energy, texture_pattern, ContextStore};
use cbic_core::engine::FoldLut;
use cbic_core::neighborhood::Neighborhood;
use cbic_core::predictor::{gap_predict, threshold_shift, Gradients};
use cbic_core::remap::{half_for_depth, unfold};
use cbic_core::{decode_raw, encode_model_only, encode_raw, CodecConfig, DecoderState};
use cbic_image::{Image, ImageView};

/// Rounds the ledger runs however long they take.
const MIN_ROUNDS: usize = 3;

/// The count recorded for a single-bit call (`write_bit` / `read_bit`).
const SINGLE: u8 = u8::MAX;

/// A `DecisionEncoder` that keeps the coded (non-deterministic) decisions
/// as `bit<<34 | c0<<17 | total` words and only counts the rest.
#[derive(Default)]
struct Recorder {
    trace: Vec<u64>,
    decisions: u64,
}

impl DecisionEncoder for Recorder {
    fn encode(&mut self, bit: bool, c0: u32, total: u32) {
        self.decisions += 1;
        if c0 != 0 && c0 != total {
            self.trace
                .push((u64::from(bit) << 34) | (u64::from(c0) << 17) | u64::from(total));
        }
    }

    fn decisions(&self) -> u64 {
        self.decisions
    }

    fn coded_decisions(&self) -> u64 {
        self.trace.len() as u64
    }

    fn note_deterministic(&mut self, n: u64) {
        self.decisions += n;
    }

    // Same route through the model as the real single coder takes.
    fn prefers_batch(&self) -> bool {
        false
    }
}

fn unpack(word: u64) -> (bool, u32, u32) {
    (
        word >> 34 != 0,
        ((word >> 17) & 0x1_FFFF) as u32,
        (word & 0x1_FFFF) as u32,
    )
}

/// A `DecisionDecoder` answering from the recorded trace: it runs the
/// decoder's model and trees with the arithmetic decoding taken out.
struct Replay<'a> {
    trace: &'a [u64],
    next: usize,
    decisions: u64,
}

impl DecisionDecoder for Replay<'_> {
    fn decode(&mut self, c0: u32, total: u32) -> bool {
        self.decisions += 1;
        if c0 == 0 || c0 == total {
            return c0 == 0;
        }
        // Past the end means the replay diverged; the caller's pixel check
        // reports it.
        let word = self.trace.get(self.next).copied().unwrap_or(0);
        self.next += 1;
        word >> 34 != 0
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

/// A `BitSink` that keeps every call the coder makes on it, packed as
/// `value << 8 | count` with `count == SINGLE` for `write_bit`. The coder
/// writes at most 48 bits at once; a wider call would lose its top bits
/// here, which the replay check against the real payload reports.
#[derive(Default)]
struct SinkRecorder {
    calls: Vec<u64>,
    bits: u64,
}

impl BitSink for SinkRecorder {
    fn write_bit(&mut self, bit: bool) {
        self.calls.push(u64::from(bit) << 8 | u64::from(SINGLE));
        self.bits += 1;
    }

    fn bits_written(&self) -> u64 {
        self.bits
    }

    fn write_bits(&mut self, value: u64, count: u32) {
        self.calls.push(value << 8 | u64::from(count));
        self.bits += u64::from(count);
    }
}

/// A `BitSink` that only folds what it is handed into a checksum, so the
/// coder can be timed with its bit output taken out (the fold keeps the
/// released bit patterns from being optimized away).
#[derive(Default)]
struct NullSink {
    fold: u64,
    bits: u64,
}

impl BitSink for NullSink {
    #[inline]
    fn write_bit(&mut self, bit: bool) {
        self.fold ^= u64::from(bit);
        self.bits += 1;
    }

    fn bits_written(&self) -> u64 {
        self.bits
    }

    #[inline]
    fn write_bits(&mut self, value: u64, count: u32) {
        self.fold ^= value;
        self.bits += u64::from(count);
    }
}

/// A `BitSource` over a [`BitReader`] that keeps every read the decoder
/// makes: the values returned, and the counts, with `SINGLE` for the
/// single-bit reads.
struct SourceRecorder<'a> {
    inner: BitReader<'a>,
    values: Vec<u64>,
    counts: Vec<u8>,
}

impl SourceRecorder<'_> {
    fn keep(&mut self, value: u64, count: u8) -> u64 {
        self.values.push(value);
        self.counts.push(count);
        value
    }
}

impl BitSource for SourceRecorder<'_> {
    fn try_read_bit(&mut self) -> Option<bool> {
        let bit = self.inner.try_read_bit()?;
        Some(self.keep(u64::from(bit), SINGLE) != 0)
    }

    fn read_bit(&mut self) -> bool {
        let bit = self.inner.read_bit();
        self.keep(u64::from(bit), SINGLE) != 0
    }

    fn bits_read(&self) -> u64 {
        self.inner.bits_read()
    }

    fn padding_bits(&self) -> u64 {
        self.inner.padding_bits()
    }

    fn read_bits(&mut self, count: u32) -> u64 {
        let value = self.inner.read_bits(count);
        // At most 64, so never SINGLE.
        self.keep(value, count as u8)
    }
}

/// A `BitSource` handing back the recorded read values in order, so the
/// decoder can be timed with its bit input taken out.
struct ReplaySource<'a> {
    values: &'a [u64],
    next: usize,
}

impl ReplaySource<'_> {
    #[inline]
    fn take(&mut self) -> u64 {
        // Past the end means the replay diverged; the caller's bit check
        // reports it.
        let value = self.values.get(self.next).copied().unwrap_or(0);
        self.next += 1;
        value
    }
}

impl BitSource for ReplaySource<'_> {
    fn try_read_bit(&mut self) -> Option<bool> {
        Some(self.take() != 0)
    }

    fn read_bit(&mut self) -> bool {
        self.take() != 0
    }

    // Position queries are not part of the decoding loop; the replay has
    // no position of its own to report.
    fn bits_read(&self) -> u64 {
        0
    }

    fn padding_bits(&self) -> u64 {
        0
    }

    #[inline]
    fn read_bits(&mut self, _count: u32) -> u64 {
        self.take()
    }
}

/// The classic model of the paper from the codec's public stage functions:
/// one `(QE, folded error)` pair per pixel, in raster order.
fn record_symbols(img: ImageView<'_>, cfg: &CodecConfig) -> Vec<(u8, u16)> {
    let depth = img.bit_depth();
    let (width, height) = img.dimensions();
    let half = half_for_depth(depth);
    let max_val = 2 * half - 1;
    let shift = threshold_shift(depth);
    let texture_bits = u32::from(cfg.texture_bits);
    let mut banks =
        ContextStore::with_max_err(cfg.compound_contexts(), cfg.division, cfg.aging, half);
    let fold = FoldLut::new(depth);
    let mut abs_err = vec![0u16; width];
    let mut out = Vec::with_capacity(width * height);
    for y in 0..height {
        let cur = img.row(y);
        let n1 = (y >= 1).then(|| img.row(y - 1));
        let n2 = (y >= 2).then(|| img.row(y - 2));
        for x in 0..width {
            let nb = Neighborhood::from_rows(cur, n1, n2, x, half as u16);
            let g = Gradients::compute(&nb);
            let x_hat = gap_predict(&nb, g, depth);
            let e_w = i32::from(abs_err[x.saturating_sub(1)]);
            let qe = quantize_energy(error_energy(g, e_w) >> shift);
            let ctx = (usize::from(qe) << texture_bits)
                | usize::from(texture_pattern(&nb, x_hat, texture_bits));
            let e_bar = if cfg.error_feedback {
                banks.mean(ctx)
            } else {
                0
            };
            let x_tilde = (x_hat + e_bar).clamp(0, max_val);
            let folded = fold.fold(i32::from(cur[x]) - x_tilde);
            out.push((qe, folded));
            let wrapped = unfold(folded);
            if cfg.error_feedback {
                banks.update(ctx, wrapped);
            }
            abs_err[x] = wrapped.unsigned_abs() as u16;
        }
    }
    out
}

fn tree_pass<E: DecisionEncoder>(symbols: &[(u8, u16)], depth: u8, cfg: &CodecConfig, enc: &mut E) {
    let mut coder = SampleCoder::new(CODING_CONTEXTS, depth, cfg.estimator);
    for &(qe, folded) in symbols {
        coder.encode(enc, usize::from(qe), folded);
    }
}

/// The binary coder over the trace into `sink`, flushed.
fn coder_pass<S: BitSink>(trace: &[u64], sink: S) -> S {
    let mut enc = BinaryEncoder::new(sink);
    for &word in trace {
        let (bit, c0, total) = unpack(word);
        enc.encode(bit, c0, total);
    }
    enc.finish()
}

/// Decodes the trace back from `source`; returns how many bits differ and
/// the source.
fn dec_coder_pass<S: BitSource>(trace: &[u64], source: S) -> (usize, S) {
    let mut dec = BinaryDecoder::new(source);
    let wrong = trace
        .iter()
        .filter(|&&word| {
            let (bit, c0, total) = unpack(word);
            dec.decode_nondeterministic(c0, total) != bit
        })
        .count();
    (wrong, dec.into_reader())
}

/// The recorded sink calls replayed into the real bit writer.
fn bitio_write_pass(calls: &[u64]) -> Vec<u8> {
    let mut w = BitWriter::new();
    for &call in calls {
        let (value, count) = (call >> 8, call as u8);
        if count == SINGLE {
            w.write_bit(value != 0);
        } else {
            w.write_bits(value, u32::from(count));
        }
    }
    w.into_bytes()
}

/// The recorded reads replayed on the real bit reader; returns how many
/// read values differ from the recorded ones.
fn bitio_read_pass(payload: &[u8], values: &[u64], counts: &[u8]) -> usize {
    let mut r = BitReader::new(payload);
    values
        .iter()
        .zip(counts)
        .filter(|&(&value, &count)| {
            let got = if count == SINGLE {
                u64::from(r.read_bit())
            } else {
                r.read_bits(u32::from(count))
            };
            got != value
        })
        .count()
}

fn dec_engine_pass(img: ImageView<'_>, cfg: &CodecConfig, trace: &[u64]) -> Image {
    let mut out = Image::with_depth(img.width(), img.height(), img.bit_depth());
    let mut state = DecoderState::new(img.width(), img.bit_depth(), cfg);
    let mut replay = Replay {
        trace,
        next: 0,
        decisions: 0,
    };
    state.decode_into(&mut replay, &mut out.view_mut());
    out
}

fn ideal_bits(trace: &[u64]) -> f64 {
    trace
        .iter()
        .map(|&word| {
            let (bit, c0, total) = unpack(word);
            let own = if bit { total - c0 } else { c0 };
            -(f64::from(own) / f64::from(total)).log2()
        })
        .sum()
}

/// One input recorded for the ledger: everything the layer spans replay.
pub struct Recording<'a> {
    img: &'a Image,
    symbols: Vec<(u8, u16)>,
    trace: Vec<u64>,
    payload: Vec<u8>,
    writes: Vec<u64>,
    read_values: Vec<u64>,
    read_counts: Vec<u8>,
    decisions: u64,
    coded: u64,
    escapes: u64,
    rescales: u64,
    payload_bits: u64,
}

impl<'a> Recording<'a> {
    /// Records `img` and checks every recording against the codec; each
    /// disagreement is appended to `mismatches`. `container` is the
    /// workload's container round trip at one thread.
    pub fn new(
        label: &str,
        img: &'a Image,
        container: &mut dyn FnMut(ImageView<'_>) -> Image,
        mismatches: &mut Vec<String>,
    ) -> Self {
        let cfg = CodecConfig::default();
        let view = img.view();
        let depth = img.bit_depth();
        let mut fail = |what: &str| mismatches.push(format!("{label}: {what}"));

        let symbols = record_symbols(view, &cfg);
        let mut rec = Recorder::default();
        tree_pass(&symbols, depth, &cfg, &mut rec);
        let trace = rec.trace;
        let (payload, stats) = encode_raw(view, &cfg);
        if rec.decisions != stats.decisions || trace.len() as u64 != stats.coded_decisions {
            fail("recorded decision counts differ from encode_raw");
        }
        let writes = coder_pass(&trace, SinkRecorder::default()).calls;
        if bitio_write_pass(&writes) != payload {
            fail("the coder's replayed bit-writer calls differ from encode_raw's payload");
        }
        let (wrong, source) = dec_coder_pass(
            &trace,
            SourceRecorder {
                inner: BitReader::new(&payload),
                values: Vec::new(),
                counts: Vec::new(),
            },
        );
        if wrong != 0 {
            fail("arithmetic decoder disagrees with the recorded trace");
        }
        let (read_values, read_counts) = (source.values, source.counts);
        let replay = ReplaySource {
            values: &read_values,
            next: 0,
        };
        if dec_coder_pass(&trace, replay).0 != 0 {
            fail("arithmetic decoder fed the recorded reads disagrees with the trace");
        }
        if bitio_read_pass(&payload, &read_values, &read_counts) != 0 {
            fail("bit reader replay differs from the recorded reads");
        }
        if dec_engine_pass(view, &cfg, &trace) != *img {
            fail("decoder model fed the recorded bits did not rebuild the image");
        }
        if decode_raw(&payload, img.width(), img.height(), depth, &cfg) != *img {
            fail("decode_raw did not rebuild the image");
        }
        if container(view) != *img {
            fail("container round trip did not rebuild the image");
        }
        Self {
            img,
            symbols,
            trace,
            payload,
            writes,
            read_values,
            read_counts,
            decisions: stats.decisions,
            coded: stats.coded_decisions,
            escapes: stats.escapes,
            rescales: stats.estimator_rescales,
            payload_bits: stats.payload_bits,
        }
    }
}

/// The spans over the workload's whole set of operations, supplied by the
/// workload.
pub struct OpSpans<'a> {
    /// Pixels one pass over the operations covers.
    pub pixels: u64,
    /// The operations in process at the workload's thread count; `None`
    /// where that is the `container` span over the recordings.
    pub library: Option<&'a mut dyn FnMut()>,
    /// The surface's sample (de)serialization of every operation.
    pub format: &'a mut dyn FnMut(),
    /// The operations through the binaries, checked.
    pub surface: &'a mut dyn FnMut() -> Result<(), String>,
}

/// Named metrics with their units.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Times every span in rounds until `seconds` have passed (and at least
/// [`MIN_ROUNDS`] rounds ran); returns the per-layer metrics and the
/// number of rounds.
pub fn run(
    recs: &[Recording<'_>],
    container: &mut dyn FnMut(ImageView<'_>) -> Image,
    ops: OpSpans<'_>,
    seconds: f64,
) -> Result<(Metrics, usize), String> {
    let cfg = CodecConfig::default();
    let surface_err = Cell::new(None);
    let has_library = ops.library.is_some();
    let (mut library, format, surface) = (ops.library, ops.format, ops.surface);
    let mut spans: Vec<Box<dyn FnMut() + '_>> = vec![
        Box::new(|| {
            for r in recs {
                black_box(encode_model_only(r.img.view(), &cfg));
            }
        }),
        Box::new(|| {
            for r in recs {
                let mut null = CountingEncoder::new();
                tree_pass(&r.symbols, r.img.bit_depth(), &cfg, &mut null);
                black_box(null.decisions());
            }
        }),
        Box::new(|| {
            for r in recs {
                let sink = coder_pass(&r.trace, NullSink::default());
                black_box((sink.fold, sink.bits));
            }
        }),
        Box::new(|| {
            for r in recs {
                black_box(bitio_write_pass(&r.writes));
            }
        }),
        Box::new(|| {
            for r in recs {
                black_box(encode_raw(r.img.view(), &cfg));
            }
        }),
        Box::new(|| {
            for r in recs {
                black_box(dec_engine_pass(r.img.view(), &cfg, &r.trace));
            }
        }),
        Box::new(|| {
            for r in recs {
                let source = ReplaySource {
                    values: &r.read_values,
                    next: 0,
                };
                black_box(dec_coder_pass(&r.trace, source).0);
            }
        }),
        Box::new(|| {
            for r in recs {
                black_box(bitio_read_pass(&r.payload, &r.read_values, &r.read_counts));
            }
        }),
        Box::new(|| {
            for r in recs {
                let (w, h, depth) = (r.img.width(), r.img.height(), r.img.bit_depth());
                black_box(decode_raw(&r.payload, w, h, depth, &cfg));
            }
        }),
        Box::new(|| {
            for r in recs {
                black_box(container(r.img.view()));
            }
        }),
        Box::new(format),
        Box::new(|| {
            if let Err(e) = surface() {
                surface_err.set(Some(e));
            }
        }),
    ];
    if let Some(library) = library.as_mut() {
        spans.push(Box::new(library));
    }

    let start = Instant::now();
    let mut times = vec![Vec::new(); spans.len()];
    while times[0].len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        for (span, t) in spans.iter_mut().zip(&mut times) {
            let at = Instant::now();
            span();
            t.push(at.elapsed().as_secs_f64());
        }
        if let Some(e) = surface_err.take() {
            return Err(e);
        }
    }
    drop(spans);
    let rounds = times[0].len();
    let best: Vec<f64> = times
        .iter()
        .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let [engine, tree, coder, bitio, enc_raw, dec_engine, dec_coder, dec_bitio, dec_raw, container_t1, format, surface] =
        <[f64; 12]>::try_from(&best[..12]).expect("twelve fixed spans");
    let library = if has_library { best[12] } else { container_t1 };

    let px: f64 = recs.iter().map(|r| r.img.pixel_count() as f64).sum();
    let ns = |secs: f64| secs * 1e9 / px;
    let op_ns = |secs: f64| secs * 1e9 / ops.pixels as f64;
    let sum = |f: fn(&Recording<'_>) -> u64| recs.iter().map(f).sum::<u64>() as f64;
    let payload_bits = sum(|r| r.payload_bits);
    let ideal: f64 = recs.iter().map(|r| ideal_bits(&r.trace)).sum();
    let metrics = vec![
        ("model_ns_px", ns(engine - tree), "ns/px"),
        ("tree_ns_px", ns(tree), "ns/px"),
        ("coder_ns_px", ns(coder), "ns/px"),
        ("bitio_ns_px", ns(bitio), "ns/px"),
        (
            "enc_residual_pct",
            100.0 * (enc_raw - engine - coder - bitio) / enc_raw,
            "%",
        ),
        ("dec_model_tree_ns_px", ns(dec_engine), "ns/px"),
        ("dec_coder_ns_px", ns(dec_coder), "ns/px"),
        ("dec_bitio_ns_px", ns(dec_bitio), "ns/px"),
        (
            "dec_residual_pct",
            100.0 * (dec_raw - dec_engine - dec_coder - dec_bitio) / dec_raw,
            "%",
        ),
        (
            "container_ns_px",
            ns(container_t1 - enc_raw - dec_raw),
            "ns/px",
        ),
        ("library_ns_px", op_ns(library), "ns/px"),
        ("format_ns_px", op_ns(format), "ns/px"),
        ("surface_ns_px", op_ns(surface - library), "ns/px"),
        ("decisions_per_px", sum(|r| r.decisions) / px, "1/px"),
        ("coded_decisions_per_px", sum(|r| r.coded) / px, "1/px"),
        ("escapes_per_kpx", sum(|r| r.escapes) * 1e3 / px, "1/kpx"),
        ("rescales", sum(|r| r.rescales), "count"),
        (
            "coder_redundancy_pct",
            100.0 * (payload_bits - ideal) / ideal,
            "%",
        ),
    ];
    Ok((metrics, rounds))
}
