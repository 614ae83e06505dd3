//! Machine-readable throughput harness (the perf-trajectory tracker).
//!
//! ```text
//! cargo run --release -p cbic-bench --bin throughput_json -- \
//!     [--json] [--size N] [--out PATH] [--baseline PATH] [--label TEXT] \
//!     [--threads T1,T2,...] [--grid WxH] [--check PATH] [--quick]
//! ```
//!
//! Without `--json`, prints a human-readable table. With `--json`, writes
//! the report document (schema 2: `{schema, size, label, results,
//! baseline}`) to `--out` (default `BENCH_throughput.json` in the current
//! directory). `--baseline PATH` embeds a previous report's `results`
//! array so the committed file carries its own speed-up reference;
//! `--threads` additionally measures the v4 tile-grid wavefront path on one
//! `--grid`-sized frame (default 3840x2160, i.e. 4K) once per thread
//! count — the multi-core scaling cells; `--quick` caps each cell at a
//! handful of iterations for CI smoke runs.
//!
//! `--check PATH` turns the run into a regression gate: after measuring,
//! the proposed-codec cells are compared against the `results` array of
//! the committed report at PATH, and the process exits non-zero if any
//! matching cell (same class and thread count) lost more than 25% encode
//! or decode throughput. Cells present on only one side are ignored, so
//! the sweep may widen without breaking the gate; the multi-lane cells of
//! reports written before coder lanes were retired are skipped.

use cbic_bench::perf;

/// Fraction of baseline throughput a cell may lose before `--check` fails.
/// Generous because CI runners share cores; within-run ratios are stable
/// but absolute MP/s drifts (see `BENCH_*.json` measurement notes).
const CHECK_TOLERANCE: f64 = 0.25;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut quick = false;
    let mut size = 256usize;
    let mut out_path = "BENCH_throughput.json".to_string();
    let mut baseline_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut label = "current".to_string();
    let mut thread_settings: Vec<usize> = Vec::new();
    let mut grid = (3840usize, 2160usize);
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("error: {} needs a value", args[*i - 1]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--json" => json = true,
            "--quick" => quick = true,
            "--size" => {
                size = take(&mut i).parse().unwrap_or_else(|e| {
                    eprintln!("error: bad --size: {e}");
                    std::process::exit(2);
                })
            }
            "--out" => out_path = take(&mut i),
            "--baseline" => baseline_path = Some(take(&mut i)),
            "--check" => check_path = Some(take(&mut i)),
            "--label" => label = take(&mut i),
            "--threads" => {
                thread_settings = take(&mut i)
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|&t| t >= 1)
                            .unwrap_or_else(|| {
                                eprintln!("error: bad --threads entry {s:?} (want >= 1)");
                                std::process::exit(2);
                            })
                    })
                    .collect();
            }
            "--grid" => {
                let value = take(&mut i);
                grid = value
                    .split_once(['x', 'X'])
                    .and_then(|(w, h)| Some((w.parse().ok()?, h.parse().ok()?)))
                    .filter(|&(w, h)| w >= 1 && h >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("error: bad --grid {value:?} (want WxH)");
                        std::process::exit(2);
                    });
            }
            other => {
                eprintln!(
                    "usage: throughput_json [--json] [--size N] [--out PATH] \
                     [--baseline PATH] [--label TEXT] [--threads T1,T2,...] \
                     [--grid WxH] [--check PATH] [--quick] (got {other})"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let (min_secs, max_iters) = if quick { (0.05, 3) } else { (0.4, 40) };
    eprintln!(
        "measuring {size}x{size} corpus ({} classes)...",
        perf::CLASSES.len()
    );
    let mut records = perf::measure_throughput(size, min_secs, max_iters);
    if !thread_settings.is_empty() {
        let (gw, gh) = grid;
        eprintln!("measuring {gw}x{gh} v4 tile grid (threads {thread_settings:?})...");
        records.extend(perf::measure_grid_threads(
            gw,
            gh,
            min_secs,
            max_iters.min(if quick { 2 } else { 5 }),
            &thread_settings,
        ));
    }
    perf::print_report(&records);

    if json {
        let baseline_doc = baseline_path.map(|p| {
            std::fs::read_to_string(&p).unwrap_or_else(|e| {
                eprintln!("error: reading baseline {p}: {e}");
                std::process::exit(1);
            })
        });
        let baseline = baseline_doc
            .as_deref()
            .and_then(|doc| perf::extract_results(doc).map(|r| ("pre-refactor", r)));
        let report = perf::render_report(size, &label, &records, baseline);
        if let Err(e) = std::fs::write(&out_path, report) {
            eprintln!("error: writing {out_path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {out_path}");
    }

    if let Some(path) = check_path {
        let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: reading check baseline {path}: {e}");
            std::process::exit(1);
        });
        let baseline_records = perf::parse_records(&doc);
        if baseline_records.is_empty() {
            eprintln!("error: no records parsed from {path}");
            std::process::exit(1);
        }
        let regressions =
            perf::throughput_regressions(&records, &baseline_records, CHECK_TOLERANCE);
        if regressions.is_empty() {
            eprintln!(
                "perf check OK: proposed-codec throughput within {:.0}% of {path}",
                CHECK_TOLERANCE * 100.0
            );
        } else {
            eprintln!("perf check FAILED against {path}:");
            for msg in &regressions {
                eprintln!("  {msg}");
            }
            std::process::exit(1);
        }
    }
}
