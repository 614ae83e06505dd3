//! `cbic-loadgen`: a closed-loop load harness for `cbic-serve`.
//!
//! ```text
//! cbic-loadgen [--addr HOST:PORT] [--connections N] [--requests N]
//!              [--idle N] [--size PX] [--codecs a,b,...]
//!              [--out PATH] [--check]
//! ```
//!
//! First opens `--idle` connections (default 0) that send nothing and
//! stay open until the run ends, so the report shows whether silent
//! clients slow the others down. Then opens `--connections` concurrent
//! connections; each issues `--requests` encode+decode round-trips
//! cycling over the seven-image synthetic corpus and the selected codecs,
//! verifying every reconstruction bit-exactly against the source. Busy
//! replies are retried with backoff (and counted). The run's latency
//! distribution and per-codec bit rates are written as JSON to `--out`
//! (default `BENCH_server.json`); with `--check` the process exits
//! non-zero on any mismatch or error.

use std::io::Write as _;
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

use cbic_image::corpus::CorpusImage;
use cbic_image::Image;
use cbic_server::client::{Client, Reply};
use cbic_server::protocol::Status;
use cbic_universal::codecs::default_registry;

struct Options {
    addr: String,
    connections: usize,
    requests: usize,
    idle: usize,
    size: usize,
    codecs: Vec<String>,
    out: String,
    check: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:9123".into(),
            connections: 4,
            requests: 32,
            idle: 0,
            size: 64,
            codecs: vec![
                "proposed".into(),
                "jpegls".into(),
                "calic".into(),
                "slp".into(),
            ],
            out: "BENCH_server.json".into(),
            check: false,
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--check" {
            opts.check = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--addr" => opts.addr = value,
            "--connections" => {
                opts.connections = value.parse().map_err(|e| format!("--connections: {e}"))?;
            }
            "--requests" => {
                opts.requests = value.parse().map_err(|e| format!("--requests: {e}"))?;
            }
            "--idle" => opts.idle = value.parse().map_err(|e| format!("--idle: {e}"))?,
            "--size" => opts.size = value.parse().map_err(|e| format!("--size: {e}"))?,
            "--codecs" => {
                opts.codecs = value.split(',').map(str::to_string).collect();
            }
            "--out" => opts.out = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.connections == 0 || opts.requests == 0 {
        return Err("--connections and --requests must be positive".into());
    }
    Ok(opts)
}

#[derive(Default)]
struct Totals {
    requests: AtomicU64,
    mismatches: AtomicU64,
    busy_retries: AtomicU64,
    errors: AtomicU64,
    container_bytes: AtomicU64,
    pixels: AtomicU64,
}

struct Workload {
    /// `(codec name, container magic)` pairs to cycle over.
    codecs: Vec<(String, [u8; 4])>,
    /// The synthetic corpus at the requested size.
    images: Vec<Image>,
}

fn drive_connection(
    opts: &Options,
    work: &Workload,
    totals: &Totals,
    worker: usize,
    latencies_us: &mut Vec<u64>,
) -> Result<(), String> {
    let timeout = Duration::from_secs(10);
    let mut client = None;
    for i in 0..opts.requests {
        let pick = worker + i;
        let img = &work.images[pick % work.images.len()];
        let (name, magic) = &work.codecs[pick % work.codecs.len()];
        // (Re)connect lazily — a Busy refusal closes the connection.
        let mut attempt = 0u32;
        loop {
            let conn = match client.take() {
                Some(conn) => conn,
                None => Client::connect(&opts.addr, timeout)
                    .map_err(|e| format!("connect {}: {e}", opts.addr))?,
            };
            let mut conn = conn;
            let start = Instant::now();
            let encoded = conn
                .encode(img.view(), *magic, 1, 0)
                .map_err(|e| format!("encode rpc: {e}"))?;
            let container = match encoded {
                Reply::Encoded { container, .. } => container,
                Reply::Error {
                    status: Status::Busy | Status::Draining,
                    ..
                } => {
                    totals.busy_retries.fetch_add(1, Relaxed);
                    attempt += 1;
                    if attempt > 50 {
                        return Err("server busy for 50 consecutive attempts".into());
                    }
                    std::thread::sleep(Duration::from_millis(u64::from(attempt.min(20))));
                    continue;
                }
                Reply::Error { status, message } => {
                    totals.errors.fetch_add(1, Relaxed);
                    return Err(format!("{name} encode refused: {status:?} {message}"));
                }
                other => return Err(format!("unexpected encode reply {other:?}")),
            };
            let decoded = conn
                .decode(&container)
                .map_err(|e| format!("decode rpc: {e}"))?;
            latencies_us.push(start.elapsed().as_micros() as u64);
            let Reply::Decoded(back) = decoded else {
                totals.errors.fetch_add(1, Relaxed);
                return Err(format!("{name} decode refused: {decoded:?}"));
            };
            totals.requests.fetch_add(1, Relaxed);
            totals
                .container_bytes
                .fetch_add(container.len() as u64, Relaxed);
            totals.pixels.fetch_add(img.pixel_count() as u64, Relaxed);
            if back != *img {
                totals.mismatches.fetch_add(1, Relaxed);
                eprintln!(
                    "cbic-loadgen: MISMATCH: {name} on {}x{}",
                    img.width(),
                    img.height()
                );
            }
            client = Some(conn);
            break;
        }
    }
    Ok(())
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

/// One latency histogram scraped off the server's METRICS page.
struct ScrapedHistogram {
    mean_us: f64,
    count: u64,
    /// Cumulative per-bucket counts in edge order, `+Inf` last.
    cumulative: Vec<u64>,
}

/// Pulls one Prometheus histogram out of the METRICS text: the mean (from
/// `_sum`/`_count`), the count, and the cumulative per-bucket counts in
/// edge order (`+Inf` last).
fn scrape_histogram(text: &str, name: &str) -> Option<ScrapedHistogram> {
    let bucket_prefix = format!("{name}_bucket{{le=\"");
    let mut buckets = Vec::new();
    for line in text.lines() {
        if line.starts_with(&bucket_prefix) {
            buckets.push(line.rsplit_once(' ')?.1.trim().parse().ok()?);
        }
    }
    let field = |suffix: &str| -> Option<u64> {
        let prefix = format!("{name}_{suffix} ");
        text.lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .and_then(|v| v.trim().parse().ok())
    };
    let (sum, count) = (field("sum")?, field("count")?);
    let mean_us = if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    };
    (!buckets.is_empty()).then_some(ScrapedHistogram {
        mean_us,
        count,
        cumulative: buckets,
    })
}

/// Fetches the server's own per-op latency histograms (measured inside
/// the worker, transport excluded) for embedding alongside the
/// client-side round-trip numbers.
fn fetch_server_latency(addr: &str) -> Option<(ScrapedHistogram, ScrapedHistogram)> {
    let mut client = Client::connect(addr, Duration::from_secs(10)).ok()?;
    let Reply::Metrics(text) = client.metrics().ok()? else {
        return None;
    };
    Some((
        scrape_histogram(&text, "cbic_encode_latency_us")?,
        scrape_histogram(&text, "cbic_decode_latency_us")?,
    ))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("cbic-loadgen: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let registry = default_registry();
    let mut codecs = Vec::new();
    for name in &opts.codecs {
        match registry
            .by_name(name)
            .and_then(|c| c.magic().map(|m| (name.clone(), m)))
        {
            Some(pair) => codecs.push(pair),
            None => {
                eprintln!("cbic-loadgen: unknown codec {name}");
                return ExitCode::FAILURE;
            }
        }
    }
    let work = Workload {
        codecs,
        images: CorpusImage::ALL
            .iter()
            .map(|c| c.generate(opts.size, opts.size))
            .collect(),
    };

    let idle = match (0..opts.idle)
        .map(|_| TcpStream::connect(&opts.addr))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(idle) => idle,
        Err(e) => {
            eprintln!("cbic-loadgen: connect idle {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };

    let totals = Totals::default();
    let started = Instant::now();
    let (all_latencies, failures) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for worker in 0..opts.connections {
            let (opts, work, totals) = (&opts, &work, &totals);
            handles.push(scope.spawn(move || {
                let mut latencies = Vec::with_capacity(opts.requests);
                let result = drive_connection(opts, work, totals, worker, &mut latencies);
                (latencies, result)
            }));
        }
        let mut latencies = Vec::new();
        let mut failures = Vec::new();
        for handle in handles {
            let (mut lat, result) = handle.join().expect("loadgen worker panicked");
            latencies.append(&mut lat);
            if let Err(msg) = result {
                failures.push(msg);
            }
        }
        (latencies, failures)
    });
    let elapsed = started.elapsed().as_secs_f64();
    drop(idle);

    for msg in &failures {
        eprintln!("cbic-loadgen: connection failed: {msg}");
    }

    let mut sorted = all_latencies;
    sorted.sort_unstable();
    let requests = totals.requests.load(Relaxed);
    let mismatches = totals.mismatches.load(Relaxed);
    let errors = totals.errors.load(Relaxed) + failures.len() as u64;
    let busy = totals.busy_retries.load(Relaxed);
    let pixels = totals.pixels.load(Relaxed);
    let bytes = totals.container_bytes.load(Relaxed);
    let mean_us = if sorted.is_empty() {
        0
    } else {
        sorted.iter().sum::<u64>() / sorted.len() as u64
    };
    let rps = if elapsed > 0.0 {
        requests as f64 / elapsed
    } else {
        0.0
    };
    let bpp = if pixels > 0 {
        bytes as f64 * 8.0 / pixels as f64
    } else {
        0.0
    };

    eprintln!(
        "cbic-loadgen: {requests} round-trips over {} conns ({} idle) in {elapsed:.2}s \
         ({rps:.0} req/s, mean {mean_us} us, p50 {} us, p99 {} us) | \
         {mismatches} mismatches, {errors} errors, {busy} busy retries | mean {bpp:.3} bpp",
        opts.connections,
        opts.idle,
        percentile(&sorted, 0.50),
        percentile(&sorted, 0.99),
    );

    // The server's own view of the codec work, without the transport:
    // scraped from the METRICS page after the run. `null` if the scrape
    // fails (older server, connection refused) — the client-side numbers
    // above are always present.
    let server_latency = fetch_server_latency(&opts.addr);
    let edges: Vec<String> = cbic_server::metrics::LATENCY_BUCKETS_US
        .iter()
        .map(u64::to_string)
        .chain(std::iter::once("\"+Inf\"".to_string()))
        .collect();
    let join = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
    let server_latency_json = match &server_latency {
        Some((enc, dec)) => format!(
            "{{\n    \"buckets_le_us\": [{}],\n    \"encode\": {{ \"mean_us\": {:.1}, \"count\": {}, \"cumulative\": [{}] }},\n    \"decode\": {{ \"mean_us\": {:.1}, \"count\": {}, \"cumulative\": [{}] }}\n  }}",
            edges.join(", "),
            enc.mean_us,
            enc.count,
            join(&enc.cumulative),
            dec.mean_us,
            dec.count,
            join(&dec.cumulative),
        ),
        None => "null".to_string(),
    };
    if server_latency.is_none() {
        eprintln!("cbic-loadgen: server latency histograms unavailable (metrics scrape failed)");
    }

    // Hand-rolled JSON, matching the workspace's other BENCH_* reports.
    let codec_names: Vec<String> = work
        .codecs
        .iter()
        .map(|(name, _)| format!("\"{name}\""))
        .collect();
    let json = format!(
        "{{\n  \"schema\": 2,\n  \"harness\": \"cbic-loadgen\",\n  \"connections\": {},\n  \"idle\": {},\n  \"requests_per_connection\": {},\n  \"image_size\": {},\n  \"codecs\": [{}],\n  \"elapsed_s\": {:.3},\n  \"requests\": {},\n  \"requests_per_s\": {:.1},\n  \"mismatches\": {},\n  \"errors\": {},\n  \"busy_retries\": {},\n  \"mean_bpp\": {:.3},\n  \"latency_us\": {{ \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {} }},\n  \"server_latency_us\": {}\n}}\n",
        opts.connections,
        opts.idle,
        opts.requests,
        opts.size,
        codec_names.join(", "),
        elapsed,
        requests,
        rps,
        mismatches,
        errors,
        busy,
        bpp,
        mean_us,
        percentile(&sorted, 0.50),
        percentile(&sorted, 0.90),
        percentile(&sorted, 0.99),
        sorted.last().copied().unwrap_or(0),
        server_latency_json,
    );
    match std::fs::File::create(&opts.out).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => eprintln!("cbic-loadgen: wrote {}", opts.out),
        Err(e) => {
            eprintln!("cbic-loadgen: writing {}: {e}", opts.out);
            return ExitCode::FAILURE;
        }
    }

    if opts.check && (mismatches > 0 || errors > 0 || requests == 0) {
        eprintln!("cbic-loadgen: --check failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
