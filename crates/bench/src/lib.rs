//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section (Section V).
//!
//! | paper artifact | function | binary | bench target |
//! |---|---|---|---|
//! | Table 1 (bit rates) | [`table1_rows`] | `table1` | `--bench tables` |
//! | Fig. 4 (bpp vs counter bits) | [`fig4_series`] | `fig4` | `--bench tables` |
//! | Table 2 (utilization, memory, throughput) | [`table2_report`] | `table2` | `--bench tables` |
//! | Ablations A1–A4 | [`ablation_report`] | `ablations` | `--bench tables` |
//! | `BENCH_bpp.json` (bpp per codec and class) | [`bpp::measure_bpp`] | `bpp_json` | — |
//!
//! Numbers are measured on the synthetic corpus (see `cbic-image`), so
//! absolute bit rates differ from the paper; each printer shows the paper's
//! values side by side and the *shape* claims (orderings, deltas,
//! crossovers) are asserted in `tests/` at the workspace root.
//!
//! Nothing here times the codecs: speed is measured one way, by the
//! benchmark of record in `benchmark/` (see `BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bpp;

use cbic_arith::EstimatorConfig;
use cbic_core::{CodecConfig, DivisionKind};
use cbic_image::corpus;
use cbic_image::{EncodeOptions, Image};

/// The paper's Table 1, verbatim: (image, JPEG-LS, SLP(M0), CALIC,
/// proposed), in bits per pixel on the original USC-SIPI images.
pub const PAPER_TABLE1: [(&str, f64, f64, f64, f64); 8] = [
    ("barb", 4.86, 4.79, 4.59, 4.68),
    ("boat", 4.25, 4.28, 4.12, 4.18),
    ("goldhill", 4.71, 4.74, 4.61, 4.65),
    ("lena", 4.24, 4.17, 4.09, 4.14),
    ("mandrill", 6.04, 5.99, 5.90, 5.93),
    ("peppers", 4.49, 4.49, 4.35, 4.39),
    ("zelda", 4.01, 3.97, 3.84, 3.90),
    ("average", 4.66, 4.63, 4.50, 4.55),
];

/// The paper's Fig. 4 series (approximate read-off): average bpp at
/// frequency-counter widths 10/12/14/16 bits.
pub const PAPER_FIG4: [(u8, f64); 4] = [(10, 4.68), (12, 4.58), (14, 4.55), (16, 4.58)];

/// One measured row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Image name (or "average").
    pub name: String,
    /// JPEG-LS bits/pixel.
    pub jpegls: f64,
    /// SLP(M0) bits/pixel.
    pub slp: f64,
    /// CALIC bits/pixel.
    pub calic: f64,
    /// Proposed (the paper's codec) bits/pixel.
    pub proposed: f64,
}

/// Encodes one image with every registered codec (`all_codecs`), returning
/// `(name, payload bits/pixel)` pairs in registry order. Sizes are
/// measured through the counting-sink path of
/// [`Codec::payload_bits_per_pixel`](cbic_image::Codec::payload_bits_per_pixel)
/// — one encode pass per codec, no container buffers.
pub fn measure_all(img: &Image) -> Vec<(&'static str, f64)> {
    let opts = EncodeOptions::default();
    cbic_universal::codecs::all_codecs()
        .iter()
        .map(|codec| {
            let bpp = codec
                .payload_bits_per_pixel(img.view(), &opts)
                .expect("counting sinks cannot fail on corpus-sized images");
            (codec.name(), bpp)
        })
        .collect()
}

/// Encodes one image with all four Table 1 codecs, in the paper's column
/// order `(jpegls, slp, calic, proposed)`.
pub fn measure_image(img: &Image) -> (f64, f64, f64, f64) {
    let measured = measure_all(img);
    let get = |name: &str| {
        measured
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("codec {name} missing from registry"))
            .1
    };
    (get("jpegls"), get("slp"), get("calic"), get("proposed"))
}

/// Measures Table 1 on the synthetic corpus at `size`×`size` (the paper
/// uses 512). The final row is the average, as in the paper.
pub fn table1_rows(size: usize) -> Vec<Table1Row> {
    let mut rows: Vec<Table1Row> = corpus::generate(size)
        .into_iter()
        .map(|(c, img)| {
            let (jpegls, slp, calic, proposed) = measure_image(&img);
            Table1Row {
                name: c.name().to_string(),
                jpegls,
                slp,
                calic,
                proposed,
            }
        })
        .collect();
    let n = rows.len() as f64;
    rows.push(Table1Row {
        name: "average".into(),
        jpegls: rows.iter().map(|r| r.jpegls).sum::<f64>() / n,
        slp: rows.iter().map(|r| r.slp).sum::<f64>() / n,
        calic: rows.iter().map(|r| r.calic).sum::<f64>() / n,
        proposed: rows.iter().map(|r| r.proposed).sum::<f64>() / n,
    });
    rows
}

/// Prints Table 1 next to the paper's numbers.
pub fn print_table1(rows: &[Table1Row]) {
    println!("== Table 1: Bit Rates Comparison (bits/pixel) ==");
    println!("   measured on the synthetic corpus | paper values in brackets");
    println!(
        "{:<10} {:>16} {:>16} {:>16} {:>16}",
        "Image", "JPEG-LS", "SLP(M0)", "CALIC", "proposed"
    );
    for row in rows {
        let paper = PAPER_TABLE1.iter().find(|p| p.0 == row.name);
        let fmt = |v: f64, p: Option<f64>| match p {
            Some(p) => format!("{v:>6.2} [{p:4.2}]"),
            None => format!("{v:>6.2}       "),
        };
        println!(
            "{:<10} {:>16} {:>16} {:>16} {:>16}",
            row.name,
            fmt(row.jpegls, paper.map(|p| p.1)),
            fmt(row.slp, paper.map(|p| p.2)),
            fmt(row.calic, paper.map(|p| p.3)),
            fmt(row.proposed, paper.map(|p| p.4)),
        );
    }
}

/// Measures the Fig. 4 sweep: average corpus bpp of the proposed codec for
/// each frequency-counter width.
pub fn fig4_series(size: usize, bits: &[u8]) -> Vec<(u8, f64)> {
    let corpus = corpus::generate(size);
    bits.iter()
        .map(|&b| {
            let cfg = CodecConfig {
                estimator: EstimatorConfig {
                    count_bits: b,
                    ..EstimatorConfig::default()
                },
                ..CodecConfig::default()
            };
            let avg = corpus
                .iter()
                .map(|(_, img)| cbic_core::encode_raw(img.view(), &cfg).1.bits_per_pixel())
                .sum::<f64>()
                / corpus.len() as f64;
            (b, avg)
        })
        .collect()
}

/// Prints the Fig. 4 series next to the paper's curve.
pub fn print_fig4(series: &[(u8, f64)]) {
    println!("== Fig. 4: Average Bit Rate vs Frequency Count Bits ==");
    println!("{:>6} {:>12} {:>12}", "bits", "measured", "paper");
    for &(b, v) in series {
        let paper = PAPER_FIG4
            .iter()
            .find(|(pb, _)| *pb == b)
            .map(|(_, pv)| format!("{pv:.2}"))
            .unwrap_or_else(|| "-".into());
        println!("{b:>6} {v:>12.3} {paper:>12}");
    }
}

/// Regenerates Table 2: resource estimates, memory accounting, and the
/// pipeline-model throughput, next to the paper's figures.
pub fn table2_report() -> String {
    use cbic_hw::memory::{EstimatorMemory, ModelingMemory};
    use cbic_hw::pipeline::{PipelineConfig, PixelTrace};
    use cbic_hw::resources::{table2, PAPER_TABLE2};
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(out, "== Table 2: Device Utilization Summary ==");
    let _ = writeln!(
        out,
        "   analytic model | paper (Xilinx ISE 8.1, Virtex-4) in brackets"
    );
    let _ = writeln!(
        out,
        "{:<24} {:>16} {:>16} {:>16} {:>12} {:>10}",
        "Module", "Slices", "Flip-flops", "4-input LUTs", "IOBs", "GCLK"
    );
    for ((m, e), &(_, ps, pff, plut, piob, pg)) in table2().iter().zip(PAPER_TABLE2.iter()) {
        let _ = writeln!(
            out,
            "{:<24} {:>9} [{:>4}] {:>9} [{:>4}] {:>9} [{:>4}] {:>5} [{:>3}] {:>4} [{:>2}]",
            m.name(),
            e.slices,
            ps,
            e.flip_flops,
            pff,
            e.lut4,
            plut,
            e.iobs,
            piob,
            e.gclk,
            pg
        );
    }

    let modeling = ModelingMemory::default();
    let estimator = EstimatorMemory::default();
    let _ = writeln!(out, "\n-- Memory budget --");
    let _ = writeln!(
        out,
        "modeling memory:   {:>6} bytes = {:.2} KB  [paper: 3.7 KB]",
        modeling.total_bytes(),
        modeling.total_kbytes()
    );
    let _ = writeln!(
        out,
        "  line buffers {} B + context store {} B + division LUT {} B",
        modeling.line_buffer_bytes(),
        modeling.context_store_bytes(),
        modeling.div_lut_bytes
    );
    let _ = writeln!(
        out,
        "estimator memory:  {:>6} bytes = {:.2} KB  [paper: 4 KB]",
        estimator.total_bytes(),
        estimator.total_kbytes()
    );

    let _ = writeln!(out, "\n-- Throughput at the paper's 123 MHz clock --");
    for (label, overlap) in [
        ("conservative (9 dec/px)", false),
        ("overlapped escape (8 dec/px)", true),
    ] {
        let cfg = PipelineConfig {
            overlap_escape: overlap,
            ..PipelineConfig::default()
        };
        let r = cfg.simulate(&PixelTrace::uniform(512, 512, 9));
        let _ = writeln!(
            out,
            "{label:<30} {:.2} cycles/px  {:.1} Mpixel/s  {:.1} Mbit/s  [paper: 123 Mbit/s]",
            r.cycles_per_pixel, r.mpixels_per_sec, r.mbits_per_sec
        );
    }
    out
}

/// One ablation result: configuration label and average corpus bpp.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablation {
    /// Human-readable configuration label.
    pub label: String,
    /// Average bits/pixel over the corpus.
    pub avg_bpp: f64,
}

/// Runs the A1–A4 ablations on the corpus at `size`: A1 freezes the
/// context statistics (no aging), A2 swaps the 1 KB LUT for exact
/// division, A3 drops the error feedback or narrows the texture pattern,
/// and A4 varies the estimator increment and escape prior.
pub fn ablation_report(size: usize) -> Vec<Ablation> {
    let corpus = corpus::generate(size);
    let avg = |cfg: &CodecConfig| -> f64 {
        corpus
            .iter()
            .map(|(_, img)| cbic_core::encode_raw(img.view(), cfg).1.bits_per_pixel())
            .sum::<f64>()
            / corpus.len() as f64
    };
    let base = CodecConfig::default();
    let mut out = Vec::new();
    let mut push = |label: &str, cfg: CodecConfig| {
        out.push(Ablation {
            label: label.to_string(),
            avg_bpp: avg(&cfg),
        });
    };
    push("baseline (paper operating point)", base);
    push(
        "A1: no aging (frozen context stats)",
        CodecConfig {
            aging: false,
            ..base
        },
    );
    push(
        "A2: exact division (vs 1KB LUT)",
        CodecConfig {
            division: DivisionKind::Exact,
            ..base
        },
    );
    push(
        "A3: no error feedback",
        CodecConfig {
            error_feedback: false,
            ..base
        },
    );
    for bits in [0u8, 2, 4] {
        push(
            &format!("A3: texture bits = {bits} ({} contexts)", 8 << bits),
            CodecConfig {
                texture_bits: bits,
                ..base
            },
        );
    }
    for inc in [1u16, 8, 64] {
        push(
            &format!("A4: estimator increment = {inc}"),
            CodecConfig {
                estimator: EstimatorConfig {
                    increment: inc,
                    ..EstimatorConfig::default()
                },
                ..base
            },
        );
    }
    push(
        "A4: unbiased escape prior (1,1)",
        CodecConfig {
            estimator: EstimatorConfig {
                escape_init: (1, 1),
                ..EstimatorConfig::default()
            },
            ..base
        },
    );
    out
}

/// Prints the ablation table.
pub fn print_ablations(rows: &[Ablation]) {
    println!("== Ablations (average corpus bits/pixel) ==");
    for r in rows {
        println!("{:<44} {:>8.4}", r.label, r.avg_bpp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_eight_rows() {
        let rows = table1_rows(32);
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[7].name, "average");
        for r in &rows {
            assert!(r.jpegls > 0.0 && r.slp > 0.0 && r.calic > 0.0 && r.proposed > 0.0);
        }
    }

    #[test]
    fn fig4_sweep_produces_all_points() {
        let s = fig4_series(32, &[10, 14]);
        assert_eq!(s.len(), 2);
        assert!(s.iter().all(|&(_, v)| v > 0.0 && v < 10.0));
    }

    #[test]
    fn table2_report_mentions_paper_values() {
        let r = table2_report();
        assert!(r.contains("3.7 KB"));
        assert!(r.contains("123 Mbit/s"));
        assert!(r.contains("Arithmetic Coder"));
    }

    #[test]
    fn ablations_cover_design_doc() {
        let rows = ablation_report(24);
        assert!(rows.len() >= 8);
        assert!(rows.iter().any(|r| r.label.contains("no aging")));
        assert!(rows.iter().any(|r| r.label.contains("exact division")));
    }
}
