//! Runs the A1–A4 ablations (see `cbic_bench::ablation_report`) on the
//! synthetic corpus.
//!
//! Usage: `cargo run --release -p cbic-bench --bin ablations [size]`

fn main() {
    let size = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);
    let rows = cbic_bench::ablation_report(size);
    cbic_bench::print_ablations(&rows);
}
