//! Criterion throughput benchmarks: encode/decode speed of every codec in
//! Table 1, plus the universal front ends.
//!
//! The paper's hardware sustains 123 Mbit/s (≈15 Mpixel/s); these benches
//! measure what the software model reaches, and Criterion's reports track
//! regressions as the codecs evolve.

use cbic_core::session::EncoderSession;
use cbic_image::{DecodeOptions, EncodeOptions};
use cbic_universal::codecs::all_codecs;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const SIZE: usize = 256;

fn bench_encoders(c: &mut Criterion) {
    let img = cbic_bench::bench_image(SIZE);
    let pixels = img.pixel_count() as u64;
    let opts = EncodeOptions::default();

    let mut g = c.benchmark_group("encode");
    g.throughput(Throughput::Elements(pixels));
    g.sample_size(20);

    for codec in all_codecs() {
        g.bench_function(BenchmarkId::new(codec.name(), SIZE), |b| {
            b.iter(|| codec.encode_vec(img.view(), &opts).expect("Vec sink"))
        });
    }
    g.finish();
}

fn bench_decoders(c: &mut Criterion) {
    let img = cbic_bench::bench_image(SIZE);
    let pixels = img.pixel_count() as u64;
    let opts = DecodeOptions::default();

    let mut g = c.benchmark_group("decode");
    g.throughput(Throughput::Elements(pixels));
    g.sample_size(20);

    for codec in all_codecs() {
        let bytes = codec
            .encode_vec(img.view(), &EncodeOptions::default())
            .expect("Vec sink");
        g.bench_function(BenchmarkId::new(codec.name(), SIZE), |b| {
            b.iter(|| codec.decode_vec(&bytes, &opts).expect("own container"))
        });
    }
    g.finish();
}

/// The session-reuse claim, measured: per-call model construction (context
/// store + division LUT + estimator trees allocated per image) vs one
/// [`EncoderSession`] reset in place across the 256px corpus. The bits are
/// identical (asserted by the session differential tests); the delta is
/// pure allocation and table-building overhead.
fn bench_session_reuse(c: &mut Criterion) {
    let cfg = cbic_core::CodecConfig::default();
    let corpus = cbic_image::corpus::generate(SIZE);
    let pixels = corpus.iter().map(|(_, i)| i.pixel_count() as u64).sum();

    let mut g = c.benchmark_group("session_reuse");
    g.throughput(Throughput::Elements(pixels));
    g.sample_size(10);

    g.bench_function(BenchmarkId::new("per_call_construction", SIZE), |b| {
        let mut out = Vec::new();
        b.iter(|| {
            let mut total = 0u64;
            for (_, img) in &corpus {
                out.clear();
                // A fresh session per image = the old per-call cost.
                let stats = EncoderSession::new(&cfg)
                    .encode(img.view(), &mut out)
                    .expect("Vec sink");
                total += stats.payload_bits;
            }
            total
        })
    });
    g.bench_function(BenchmarkId::new("reused_session", SIZE), |b| {
        let mut session = EncoderSession::new(&cfg);
        let mut out = Vec::new();
        b.iter(|| {
            let mut total = 0u64;
            for (_, img) in &corpus {
                out.clear();
                let stats = session.encode(img.view(), &mut out).expect("Vec sink");
                total += stats.payload_bits;
            }
            total
        })
    });
    g.finish();
}

/// The streaming transport vs the buffered one: identical bits (asserted
/// by the differential suite), so any delta is pure transport overhead —
/// the cost of bounded memory.
fn bench_streaming(c: &mut Criterion) {
    use cbic_core::stream::{compress_to, decompress_from};

    let img = cbic_bench::bench_image(SIZE);
    let pixels = img.pixel_count() as u64;
    let cfg = cbic_core::CodecConfig::default();
    let bytes = cbic_core::compress(img.view(), &cfg);

    let mut g = c.benchmark_group("streaming");
    g.throughput(Throughput::Elements(pixels));
    g.sample_size(20);

    g.bench_function(BenchmarkId::new("encode_buffered", SIZE), |b| {
        b.iter(|| cbic_core::compress(img.view(), &cfg))
    });
    g.bench_function(BenchmarkId::new("encode_streaming", SIZE), |b| {
        b.iter(|| compress_to(img.view(), &cfg, Vec::new()).expect("Vec sink"))
    });
    g.bench_function(BenchmarkId::new("decode_buffered", SIZE), |b| {
        b.iter(|| cbic_core::decompress(&bytes).expect("own container"))
    });
    g.bench_function(BenchmarkId::new("decode_streaming", SIZE), |b| {
        b.iter(|| decompress_from(&bytes[..]).expect("own container"))
    });
    g.finish();
}

fn bench_universal(c: &mut Criterion) {
    use cbic_universal::data::{DataModel, Order};

    let text: Vec<u8> = (0..32_768u32)
        .map(|i| b"the quick brown fox jumps over the lazy dog "[i as usize % 44])
        .collect();

    let mut g = c.benchmark_group("universal");
    g.throughput(Throughput::Bytes(text.len() as u64));
    g.sample_size(20);
    for order in [Order::Zero, Order::One, Order::Two] {
        g.bench_function(BenchmarkId::new("data_encode", format!("{order:?}")), |b| {
            let model = DataModel::new(order);
            b.iter(|| model.encode(&text))
        });
    }
    g.finish();

    let frames = cbic_universal::video::synthetic_sequence(128, 128, 4, 2, 1);
    let mut g = c.benchmark_group("video");
    g.throughput(Throughput::Elements((128 * 128 * 4) as u64));
    g.sample_size(10);
    g.bench_function("encode_4_frames", |b| {
        let cfg = cbic_universal::video::VideoConfig::default();
        b.iter(|| cbic_universal::video::encode_frames(&frames, &cfg))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_encoders,
    bench_decoders,
    bench_session_reuse,
    bench_streaming,
    bench_universal
);
criterion_main!(benches);
