//! Regenerates every table and figure of the paper's evaluation section.
//!
//! This is a custom (non-Criterion) bench target so that `cargo bench`
//! reproduces the paper's artifacts directly in its output:
//!
//! * Table 1 — bit-rate comparison of the four codecs on the corpus,
//! * Fig. 4 — average bit rate vs frequency counter width,
//! * Table 2 — device utilization, memory budgets, and throughput,
//! * the A1–A4 ablations (A1 aging, A2 LUT division, A3 error feedback
//!   and texture width, A4 estimator increment and escape prior).
//!
//! Size defaults to the paper's 512×512; set `CBIC_BENCH_SIZE` to override
//! (e.g. 128 for a quick smoke run).

fn main() {
    // `cargo bench -- --bench` style filters are not used here; accept and
    // ignore any CLI arguments so `cargo bench` flags don't break us.
    let size: usize = std::env::var("CBIC_BENCH_SIZE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(512);

    println!("regenerating the paper's evaluation artifacts at {size}x{size}\n");

    let t0 = std::time::Instant::now();
    let rows = cbic_bench::table1_rows(size);
    cbic_bench::print_table1(&rows);
    println!("  [table 1 in {:.1}s]\n", t0.elapsed().as_secs_f64());

    let t0 = std::time::Instant::now();
    let series = cbic_bench::fig4_series(size, &[10, 11, 12, 13, 14, 15, 16]);
    cbic_bench::print_fig4(&series);
    println!("  [fig 4 in {:.1}s]\n", t0.elapsed().as_secs_f64());

    print!("{}", cbic_bench::table2_report());
    println!();

    let t0 = std::time::Instant::now();
    let ablations = cbic_bench::ablation_report(size.min(256));
    cbic_bench::print_ablations(&ablations);
    println!("  [ablations in {:.1}s]", t0.elapsed().as_secs_f64());
}
