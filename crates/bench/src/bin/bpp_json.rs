//! Machine-readable bit-rate harness (the compression-trajectory
//! tracker).
//!
//! ```text
//! cargo run --release -p cbic-bench --bin bpp_json -- \
//!     [--json] [--size N] [--out PATH] [--check PATH]
//! ```
//!
//! Without `--json`, prints a human-readable table of payload bpp per
//! codec per corpus class. With `--json`, writes the report document
//! (schema 2: `{schema, size, results}`) to `--out` (default
//! `BENCH_bpp.json` in the current directory).
//!
//! `--check PATH` turns the run into a regression gate: the document is
//! regenerated at the committed file's size and compared
//! **byte-for-byte** against PATH — every number is deterministic, so
//! any drift means the coding behavior changed and the file must be
//! regenerated and reviewed.

use cbic_bench::bpp;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut size = 256usize;
    let mut out_path = "BENCH_bpp.json".to_string();
    let mut check_path: Option<String> = None;
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
            "--size" => {
                size = take(&mut i).parse().unwrap_or_else(|e| {
                    eprintln!("error: bad --size: {e}");
                    std::process::exit(2);
                })
            }
            "--out" => out_path = take(&mut i),
            "--check" => check_path = Some(take(&mut i)),
            other => {
                eprintln!(
                    "error: unknown argument {other}\nusage: bpp_json [--json] [--size N] \
                     [--out PATH] [--check PATH]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(path) = check_path {
        check(&path, size);
        return;
    }

    let records = bpp::measure_bpp(size);

    if json {
        let doc = bpp::render_report(size, &records);
        std::fs::write(&out_path, doc).unwrap_or_else(|e| {
            eprintln!("error: writing {out_path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {out_path} ({} bpp cells)", records.len());
        return;
    }

    println!("payload bpp at {size}x{size} (per codec x class):");
    println!("  {:<10} {:<10} {:>8}", "codec", "class", "bpp");
    for r in &records {
        println!("  {:<10} {:<10} {:>8.4}", r.codec, r.class, r.bpp);
    }
}

/// The `--check` gate: regenerate the committed document and compare
/// byte-for-byte.
fn check(path: &str, default_size: usize) {
    let committed = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: reading {path}: {e}");
        std::process::exit(1);
    });
    // Regenerate at the committed document's size so `--check` doesn't
    // need a matching `--size` flag.
    let size = committed
        .lines()
        .find_map(|l| {
            l.trim()
                .strip_prefix("\"size\": ")?
                .trim_end_matches(',')
                .parse()
                .ok()
        })
        .unwrap_or(default_size);
    let fresh = bpp::render_report(size, &bpp::measure_bpp(size));
    if fresh != committed {
        eprintln!(
            "FAIL: {path} is stale — regenerate with `cargo run --release -p cbic-bench --bin \
             bpp_json -- --json --size {size} --out {path}` and review the diff"
        );
        std::process::exit(1);
    }
    println!("OK: {path} matches a fresh run");
}
