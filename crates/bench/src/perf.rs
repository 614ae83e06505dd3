//! Machine-readable throughput harness: encode/decode megapixels per
//! second and bits per pixel, per codec per corpus class, emitted as JSON
//! so the repository can track its performance trajectory across PRs
//! (`BENCH_throughput.json` at the repo root).
//!
//! Unlike the Criterion benches (which produce statistical reports for
//! humans), this harness produces one small, diffable document: a flat
//! array of [`ThroughputRecord`]s plus an optional embedded baseline from
//! a previous run, so a "1.2× faster than the pre-refactor harness" claim
//! is a number in the committed file rather than a sentence in a PR
//! description.

use cbic_image::corpus::CorpusImage;
use cbic_image::{DecodeOptions, EncodeOptions, Image};
use std::time::Instant;

/// The corpus classes the harness measures: a smooth portrait stand-in,
/// an oriented texture, and a high-frequency one — the same panel the
/// golden fixtures pin.
pub const CLASSES: [CorpusImage; 3] = [CorpusImage::Lena, CorpusImage::Barb, CorpusImage::Mandrill];

/// One measured cell: a codec on a corpus class at a thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRecord {
    /// Registry codec name.
    pub codec: String,
    /// Corpus class name.
    pub class: String,
    /// Worker threads driving the tile-grid wavefront (1 = sequential;
    /// only the v4 grid cells are measured above 1).
    pub threads: usize,
    /// Encode throughput in megapixels per second.
    pub encode_mps: f64,
    /// Decode throughput in megapixels per second.
    pub decode_mps: f64,
    /// Compressed container size in bits per pixel.
    pub bpp: f64,
    /// Total model decisions per pixel (escape + tree levels; the static
    /// ceiling is 9 for 8-bit sources). Proposed-codec cells only.
    pub decisions_per_px: Option<f64>,
    /// Fraction of decisions that were deterministic (zero-count branches
    /// retired without touching the coder). Proposed-codec cells only.
    pub deterministic_fraction: Option<f64>,
    /// Wall time of the *model* stage (prediction, contexts, tree descents
    /// into a null encoder) in nanoseconds per pixel. Proposed cells only.
    pub model_ns_px: Option<f64>,
    /// Encode time minus the model stage — the arithmetic coder's share —
    /// in nanoseconds per pixel (clamped at zero). Proposed cells only.
    pub coder_ns_px: Option<f64>,
}

/// Times `f` until at least `min_secs` of wall clock or `max_iters`
/// repetitions have elapsed (after one warm-up call), returning the
/// **fastest** single iteration in seconds.
///
/// The minimum — not the mean — is the estimator of choice on shared or
/// single-core hosts: background load only ever adds time, so the
/// fastest observed run is the closest sample to the codec's true cost,
/// and the number it yields is reproducible across runs where a mean
/// would wobble with the machine's load average.
fn time_per_iter<F: FnMut()>(mut f: F, min_secs: f64, max_iters: u32) -> f64 {
    f(); // warm-up: page in tables, touch the allocator
    let start = Instant::now();
    let mut best = f64::MAX;
    let mut iters = 0u32;
    while iters < max_iters.max(1) && (iters == 0 || start.elapsed().as_secs_f64() < min_secs) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
        iters += 1;
    }
    best
}

/// Measures every registry codec on every corpus class at `size`×`size`.
///
/// `min_secs`/`max_iters` bound each cell's measurement loop; the defaults
/// used by the `throughput_json` binary (0.4 s, 40 iters) keep a full run
/// under a minute on one core while averaging enough iterations to be
/// stable.
pub fn measure_throughput(size: usize, min_secs: f64, max_iters: u32) -> Vec<ThroughputRecord> {
    let enc_opts = EncodeOptions::default();
    let dec_opts = DecodeOptions::default();
    let mut out = Vec::new();
    for class in CLASSES {
        let img: Image = class.generate(size, size);
        let pixels = img.pixel_count() as f64;
        // One model-only pass per class: the decision statistics and the
        // model stage's share of encode time for the proposed-codec rows.
        let model_cfg = cbic_core::CodecConfig::default();
        let model_stats = cbic_core::encode_model_only(img.view(), &model_cfg);
        let model_secs = time_per_iter(
            || {
                std::hint::black_box(cbic_core::encode_model_only(img.view(), &model_cfg));
            },
            min_secs,
            max_iters,
        );
        for codec in cbic_universal::codecs::all_codecs() {
            let bytes = codec
                .encode_vec(img.view(), &enc_opts)
                .expect("Vec sink cannot fail");
            let bpp = bytes.len() as f64 * 8.0 / pixels;
            let enc_secs = time_per_iter(
                || {
                    std::hint::black_box(
                        codec
                            .encode_vec(img.view(), &enc_opts)
                            .expect("Vec sink cannot fail"),
                    );
                },
                min_secs,
                max_iters,
            );
            let dec_secs = time_per_iter(
                || {
                    std::hint::black_box(
                        codec
                            .decode_vec(&bytes, &dec_opts)
                            .expect("own container decodes"),
                    );
                },
                min_secs,
                max_iters,
            );
            let proposed = codec.name() == "proposed";
            out.push(ThroughputRecord {
                codec: codec.name().to_string(),
                class: class.name().to_string(),
                threads: 1,
                encode_mps: pixels / enc_secs / 1e6,
                decode_mps: pixels / dec_secs / 1e6,
                bpp,
                decisions_per_px: proposed.then(|| model_stats.decisions_per_pixel()),
                deterministic_fraction: proposed.then(|| model_stats.deterministic_fraction()),
                model_ns_px: proposed.then(|| model_secs * 1e9 / pixels),
                coder_ns_px: proposed.then(|| (enc_secs - model_secs).max(0.0) * 1e9 / pixels),
            });
        }
    }
    out
}

/// Measures the proposed codec's v4 tile-grid path (256×256 tiles,
/// wavefront scheduler) on one `width`×`height` Lena frame, once per
/// entry of `thread_settings` — the multi-core scaling cells.
///
/// The class name carries the geometry (`lena_3840x2160_grid`) so these
/// rows never collide with the flat `size`×`size` cells in the regression
/// gate's `(codec, class, threads)` key. On a single-core host the
/// `threads > 1` rows measure scheduler overhead rather than speedup;
/// commit them anyway — the trajectory file is for honest numbers.
pub fn measure_grid_threads(
    width: usize,
    height: usize,
    min_secs: f64,
    max_iters: u32,
    thread_settings: &[usize],
) -> Vec<ThroughputRecord> {
    use cbic_core::{compress_grid, decompress_grid, CodecConfig, TileGeometry};
    use cbic_image::Parallelism;

    let img: Image = CorpusImage::Lena.generate(width, height);
    let pixels = img.pixel_count() as f64;
    let cfg = CodecConfig::default();
    let geom = TileGeometry::default();
    let class = format!("lena_{width}x{height}_grid");
    let mut out = Vec::new();
    for &threads in thread_settings {
        let par = Parallelism::from_threads(threads);
        let bytes = compress_grid(img.view(), &cfg, geom, 1, par);
        let bpp = bytes.len() as f64 * 8.0 / pixels;
        let enc_secs = time_per_iter(
            || {
                std::hint::black_box(compress_grid(img.view(), &cfg, geom, 1, par));
            },
            min_secs,
            max_iters,
        );
        let dec_secs = time_per_iter(
            || {
                std::hint::black_box(decompress_grid(&bytes, par).expect("own container decodes"));
            },
            min_secs,
            max_iters,
        );
        out.push(ThroughputRecord {
            codec: "proposed".to_string(),
            class: class.clone(),
            threads,
            encode_mps: pixels / enc_secs / 1e6,
            decode_mps: pixels / dec_secs / 1e6,
            bpp,
            // Grid cells time the scheduler, not the coder stages.
            decisions_per_px: None,
            deterministic_fraction: None,
            model_ns_px: None,
            coder_ns_px: None,
        });
    }
    out
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Serializes records as a JSON array (two-space indent, trailing
/// newline-free) — the `results` value of the document built by
/// [`render_report`].
pub fn records_to_json(records: &[ThroughputRecord]) -> String {
    let cells: Vec<String> = records
        .iter()
        .map(|r| {
            let mut cell = format!(
                "    {{\"codec\": \"{}\", \"class\": \"{}\", \"threads\": {}, \
                 \"encode_mps\": {:.3}, \"decode_mps\": {:.3}, \"bpp\": {:.4}",
                json_escape(&r.codec),
                json_escape(&r.class),
                r.threads,
                r.encode_mps,
                r.decode_mps,
                r.bpp
            );
            // Stage fields (schema 2) appear only on the cells that carry
            // them, so pre-fast-path reports stay parseable as baselines.
            for (key, value) in [
                ("decisions_per_px", r.decisions_per_px),
                ("deterministic_fraction", r.deterministic_fraction),
                ("model_ns_px", r.model_ns_px),
                ("coder_ns_px", r.coder_ns_px),
            ] {
                if let Some(v) = value {
                    cell.push_str(&format!(", \"{key}\": {v:.4}"));
                }
            }
            cell.push('}');
            cell
        })
        .collect();
    format!("[\n{}\n  ]", cells.join(",\n"))
}

/// Builds the full `BENCH_throughput.json` document. `baseline` embeds a
/// previous run's `results` array verbatim (extracted with
/// [`extract_results`]) so speed-up ratios are computable from the one
/// committed file.
pub fn render_report(
    size: usize,
    label: &str,
    records: &[ThroughputRecord],
    baseline: Option<(&str, &str)>,
) -> String {
    let baseline_json = match baseline {
        Some((blabel, bresults)) => format!(
            "{{\n    \"label\": \"{}\",\n    \"results\": {}\n  }}",
            json_escape(blabel),
            bresults.trim()
        ),
        None => "null".to_string(),
    };
    format!(
        "{{\n  \"schema\": 2,\n  \"size\": {size},\n  \"label\": \"{}\",\n  \
         \"results\": {},\n  \"baseline\": {}\n}}\n",
        json_escape(label),
        records_to_json(records),
        baseline_json
    )
}

/// Pulls the `"results": [...]` array out of a previously rendered report
/// (or a bare array), for embedding as the next report's baseline. Returns
/// `None` when no array can be found.
pub fn extract_results(report: &str) -> Option<&str> {
    let tail = match report.find("\"results\":") {
        Some(key) => &report[key + "\"results\":".len()..],
        None => report,
    };
    let start = tail.find('[')?;
    let mut depth = 0usize;
    for (i, b) in tail.as_bytes().iter().enumerate().skip(start) {
        match b {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&tail[start..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Parses the record objects out of a `results` array previously rendered
/// by [`records_to_json`] (or a whole report — the first array wins).
/// Objects carrying a `lanes` key other than 1 are cells of the retired
/// coder-lane sweep and are skipped (one-lane and lane-free objects are
/// the same cell); a missing `threads` key (pre-grid reports) defaults to
/// one thread; the schema-2 stage fields (`decisions_per_px`,
/// `deterministic_fraction`, `model_ns_px`, `coder_ns_px`) parse as `None`
/// when absent; objects missing any other key are skipped. The parser only
/// understands the flat one-object-per-cell shape this module itself
/// emits.
pub fn parse_records(json: &str) -> Vec<ThroughputRecord> {
    let array = extract_results(json).unwrap_or(json);
    let field = |obj: &str, key: &str| -> Option<String> {
        let pos = obj.find(&format!("\"{key}\":"))?;
        let rest = obj[pos..].split_once(':')?.1.trim_start();
        let value = if let Some(stripped) = rest.strip_prefix('"') {
            stripped.split_once('"')?.0.to_string()
        } else {
            rest.split([',', '}']).next()?.trim().to_string()
        };
        Some(value)
    };
    let mut out = Vec::new();
    for obj in array.split('{').skip(1) {
        let Some(obj) = obj.split('}').next() else {
            continue;
        };
        if field(obj, "lanes").is_some_and(|lanes| lanes != "1") {
            continue;
        }
        let parsed = (|| -> Option<ThroughputRecord> {
            Some(ThroughputRecord {
                codec: field(obj, "codec")?,
                class: field(obj, "class")?,
                threads: field(obj, "threads").map_or(Some(1), |v| v.parse().ok())?,
                encode_mps: field(obj, "encode_mps")?.parse().ok()?,
                decode_mps: field(obj, "decode_mps")?.parse().ok()?,
                bpp: field(obj, "bpp")?.parse().ok()?,
                decisions_per_px: field(obj, "decisions_per_px").and_then(|v| v.parse().ok()),
                deterministic_fraction: field(obj, "deterministic_fraction")
                    .and_then(|v| v.parse().ok()),
                model_ns_px: field(obj, "model_ns_px").and_then(|v| v.parse().ok()),
                coder_ns_px: field(obj, "coder_ns_px").and_then(|v| v.parse().ok()),
            })
        })();
        if let Some(r) = parsed {
            out.push(r);
        }
    }
    out
}

/// Compares the `proposed`-codec rows of `current` against `baseline`,
/// returning one message per cell whose encode or decode throughput fell
/// below `1 - tolerance` of the baseline value (cells only present on one
/// side are ignored — a thread sweep may widen between runs). When both
/// sides carry the schema-2 stage fields, those are gated too: more
/// decisions per pixel or a smaller deterministic fraction beyond the same
/// tolerance are regressions; the model/coder stage times gate at twice
/// the tolerance because they are noisier sub-measurements. An empty
/// result means no regression beyond the tolerance.
pub fn throughput_regressions(
    current: &[ThroughputRecord],
    baseline: &[ThroughputRecord],
    tolerance: f64,
) -> Vec<String> {
    let mut out = Vec::new();
    for cur in current.iter().filter(|r| r.codec == "proposed") {
        let Some(base) = baseline
            .iter()
            .find(|b| b.codec == cur.codec && b.class == cur.class && b.threads == cur.threads)
        else {
            continue;
        };
        let floor_enc = base.encode_mps * (1.0 - tolerance);
        let floor_dec = base.decode_mps * (1.0 - tolerance);
        if cur.encode_mps < floor_enc {
            out.push(format!(
                "{}/{} threads={}: encode {:.3} MP/s < {:.3} ({:.1}% below baseline {:.3})",
                cur.codec,
                cur.class,
                cur.threads,
                cur.encode_mps,
                floor_enc,
                (1.0 - cur.encode_mps / base.encode_mps) * 100.0,
                base.encode_mps
            ));
        }
        if cur.decode_mps < floor_dec {
            out.push(format!(
                "{}/{} threads={}: decode {:.3} MP/s < {:.3} ({:.1}% below baseline {:.3})",
                cur.codec,
                cur.class,
                cur.threads,
                cur.decode_mps,
                floor_dec,
                (1.0 - cur.decode_mps / base.decode_mps) * 100.0,
                base.decode_mps
            ));
        }
        let cell = format!("{}/{} threads={}", cur.codec, cur.class, cur.threads);
        // Lower-is-better stage fields: ceiling at 1 + tolerance.
        // `decisions_per_px` is an exact count and gets the base tolerance;
        // the stage times are wall-clock sub-measurements (and coder ns is
        // the *difference* of two timed passes, which amplifies relative
        // noise), so they gate at twice the tolerance.
        for (name, cur_v, base_v, tol) in [
            (
                "decisions_per_px",
                cur.decisions_per_px,
                base.decisions_per_px,
                tolerance,
            ),
            (
                "model_ns_px",
                cur.model_ns_px,
                base.model_ns_px,
                2.0 * tolerance,
            ),
            (
                "coder_ns_px",
                cur.coder_ns_px,
                base.coder_ns_px,
                2.0 * tolerance,
            ),
        ] {
            if let (Some(c), Some(b)) = (cur_v, base_v) {
                if c > b * (1.0 + tol) {
                    out.push(format!(
                        "{cell}: {name} {c:.4} > {:.4} (baseline {b:.4})",
                        b * (1.0 + tol)
                    ));
                }
            }
        }
        // Higher-is-better: losing deterministic coverage means the fast
        // path is retiring fewer decisions for free.
        if let (Some(c), Some(b)) = (cur.deterministic_fraction, base.deterministic_fraction) {
            if c < b * (1.0 - tolerance) {
                out.push(format!(
                    "{cell}: deterministic_fraction {c:.4} < {:.4} (baseline {b:.4})",
                    b * (1.0 - tolerance)
                ));
            }
        }
    }
    out
}

/// Prints the human-readable table (the non-`--json` mode). Stage columns
/// (deterministic fraction, model/coder ns per pixel) print only on the
/// cells that carry them.
pub fn print_report(records: &[ThroughputRecord]) {
    println!(
        "{:<10} {:<20} {:>7} {:>12} {:>12} {:>8} {:>7} {:>9} {:>9}",
        "codec", "class", "threads", "enc MP/s", "dec MP/s", "bpp", "det", "model ns", "coder ns"
    );
    let opt =
        |v: Option<f64>, prec: usize| v.map_or_else(|| "-".to_string(), |v| format!("{v:.prec$}"));
    for r in records {
        println!(
            "{:<10} {:<20} {:>7} {:>12.3} {:>12.3} {:>8.4} {:>7} {:>9} {:>9}",
            r.codec,
            r.class,
            r.threads,
            r.encode_mps,
            r.decode_mps,
            r.bpp,
            opt(r.deterministic_fraction, 3),
            opt(r.model_ns_px, 1),
            opt(r.coder_ns_px, 1),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(codec: &str, mps: f64) -> ThroughputRecord {
        ThroughputRecord {
            codec: codec.into(),
            class: "lena".into(),
            threads: 1,
            encode_mps: mps,
            decode_mps: mps / 2.0,
            bpp: 4.5,
            decisions_per_px: None,
            deterministic_fraction: None,
            model_ns_px: None,
            coder_ns_px: None,
        }
    }

    fn staged(mps: f64, dpx: f64, det: f64, model: f64, coder: f64) -> ThroughputRecord {
        ThroughputRecord {
            decisions_per_px: Some(dpx),
            deterministic_fraction: Some(det),
            model_ns_px: Some(model),
            coder_ns_px: Some(coder),
            ..record("proposed", mps)
        }
    }

    #[test]
    fn report_is_wellformed_and_embeds_baseline() {
        let records = vec![record("proposed", 3.25), record("calic", 1.5)];
        let first = render_report(64, "seed", &records, None);
        assert!(first.contains("\"schema\": 2"));
        assert!(first.contains("\"baseline\": null"));
        let baseline = extract_results(&first).expect("results array present");
        assert!(baseline.starts_with('[') && baseline.ends_with(']'));
        assert!(baseline.contains("\"proposed\""));
        let second = render_report(64, "engine", &records, Some(("seed", baseline)));
        assert!(second.contains("\"label\": \"seed\""));
        // The embedded baseline array must itself be re-extractable — the
        // *outer* results come first, the baseline's array second.
        assert_eq!(extract_results(&second), Some(baseline));
    }

    #[test]
    fn extract_results_rejects_garbage() {
        assert_eq!(extract_results("no array here"), None);
        assert_eq!(extract_results("\"results\": ["), None, "unclosed array");
    }

    #[test]
    fn measure_runs_on_a_tiny_corpus() {
        let records = measure_throughput(16, 0.0, 1);
        // Every registry codec on every class, all throughputs positive.
        assert_eq!(
            records.len(),
            CLASSES.len() * cbic_universal::codecs::all_codecs().len()
        );
        for r in &records {
            assert!(
                r.encode_mps > 0.0 && r.decode_mps > 0.0 && r.bpp > 0.0,
                "{r:?}"
            );
            // Stage statistics ride only on the proposed-codec cells.
            if r.codec == "proposed" {
                let dpx = r.decisions_per_px.expect("proposed carries decisions");
                assert!((8.0..=10.0).contains(&dpx), "{dpx} decisions/px");
                let det = r.deterministic_fraction.expect("proposed carries det");
                assert!((0.0..1.0).contains(&det), "{det}");
                assert!(r.model_ns_px.unwrap() > 0.0);
                assert!(r.coder_ns_px.unwrap() >= 0.0);
            } else {
                assert_eq!(r.decisions_per_px, None, "{r:?}");
                assert_eq!(r.coder_ns_px, None, "{r:?}");
            }
        }
    }

    #[test]
    fn records_roundtrip_through_json() {
        let records = vec![
            ThroughputRecord {
                threads: 4,
                ..record("proposed", 10.0)
            },
            record("slp", 20.0),
        ];
        let report = render_report(64, "x", &records, None);
        let parsed = parse_records(&report);
        assert_eq!(parsed, records);
    }

    #[test]
    fn stage_fields_roundtrip_through_json() {
        // Values chosen exactly representable at the 4-decimal precision
        // the serializer emits, so PartialEq holds after the roundtrip.
        let records = vec![staged(10.0, 9.0, 0.125, 80.5, 210.25), record("slp", 20.0)];
        let json = records_to_json(&records);
        assert!(
            json.contains("\"deterministic_fraction\": 0.1250"),
            "{json}"
        );
        assert!(!json.split(",\n").nth(1).unwrap().contains("model_ns_px"));
        assert_eq!(parse_records(&json), records);
    }

    #[test]
    fn parser_defaults_missing_lanes_and_threads_to_one() {
        // A pre-lane object (no `lanes` key) and a one-lane object are the
        // same single-coder cell; the retired multi-lane cells are skipped.
        let legacy = r#"[
    {"codec": "proposed", "class": "lena", "encode_mps": 6.612, "decode_mps": 6.215, "bpp": 4.7},
    {"codec": "proposed", "class": "barb", "lanes": 1, "threads": 1, "encode_mps": 6.1, "decode_mps": 6.0, "bpp": 5.0},
    {"codec": "proposed", "class": "barb", "lanes": 4, "threads": 1, "encode_mps": 4.1, "decode_mps": 3.5, "bpp": 5.1}
  ]"#;
        let parsed = parse_records(legacy);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].threads, 1);
        assert_eq!(parsed[0].encode_mps, 6.612);
        assert_eq!(
            (parsed[1].class.as_str(), parsed[1].encode_mps),
            ("barb", 6.1)
        );
    }

    #[test]
    fn grid_cells_carry_their_thread_count_and_a_geometry_class() {
        let records = measure_grid_threads(48, 32, 0.0, 1, &[1, 2]);
        assert_eq!(records.len(), 2);
        for (r, threads) in records.iter().zip([1usize, 2]) {
            assert_eq!(r.codec, "proposed");
            assert_eq!(r.class, "lena_48x32_grid");
            assert_eq!(r.threads, threads);
            assert!(
                r.encode_mps > 0.0 && r.decode_mps > 0.0 && r.bpp > 0.0,
                "{r:?}"
            );
        }
        // Thread count must not change the bytes, so bpp is identical.
        assert_eq!(records[0].bpp, records[1].bpp);
        // And the cells survive a JSON roundtrip with threads intact
        // (throughputs are rounded by the serializer, so compare keys).
        let parsed = parse_records(&records_to_json(&records));
        let keys = |rs: &[ThroughputRecord]| -> Vec<(String, String, usize)> {
            rs.iter()
                .map(|r| (r.codec.clone(), r.class.clone(), r.threads))
                .collect()
        };
        assert_eq!(keys(&parsed), keys(&records));
    }

    #[test]
    fn regression_check_keys_on_threads() {
        let base = vec![ThroughputRecord {
            threads: 2,
            ..record("proposed", 10.0)
        }];
        // Same cell, too slow: flagged, and the message names the threads.
        let bad = vec![ThroughputRecord {
            threads: 2,
            ..record("proposed", 5.0)
        }];
        let msgs = throughput_regressions(&bad, &base, 0.25);
        assert_eq!(msgs.len(), 2);
        assert!(msgs[0].contains("threads=2"), "{msgs:?}");
        // A threads=1 cell does not match the threads=2 baseline.
        let other = vec![record("proposed", 5.0)];
        assert!(throughput_regressions(&other, &base, 0.25).is_empty());
    }

    #[test]
    fn stage_gates_flag_decision_and_timing_regressions() {
        let base = vec![staged(10.0, 9.0, 0.20, 80.0, 200.0)];
        // All stage stats within tolerance: clean. Stage times get twice
        // the tolerance (they are noisier sub-measurements), so 1.4x the
        // baseline model time still passes at 0.25.
        let ok = vec![staged(9.5, 9.0, 0.18, 112.0, 280.0)];
        assert!(throughput_regressions(&ok, &base, 0.25).is_empty());
        // More decisions, slower stages, collapsed deterministic share:
        // each gate fires once.
        let bad = vec![staged(9.5, 12.0, 0.05, 130.0, 310.0)];
        let msgs = throughput_regressions(&bad, &base, 0.25);
        assert_eq!(msgs.len(), 4, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("decisions_per_px")));
        assert!(msgs.iter().any(|m| m.contains("deterministic_fraction")));
        assert!(msgs.iter().any(|m| m.contains("model_ns_px")));
        assert!(msgs.iter().any(|m| m.contains("coder_ns_px")));
        // A pre-schema-2 baseline (no stage fields) gates throughput only.
        let legacy = vec![record("proposed", 10.0)];
        assert!(throughput_regressions(&bad, &legacy, 0.25).is_empty());
    }

    #[test]
    fn regression_check_flags_only_real_regressions() {
        let base = vec![record("proposed", 10.0), record("slp", 20.0)];
        // Within tolerance: no findings.
        let ok = vec![record("proposed", 8.0), record("slp", 1.0)];
        assert!(throughput_regressions(&ok, &base, 0.25).is_empty());
        // Beyond tolerance on encode: one finding naming the cell. A
        // non-proposed collapse stays ignored (only the paper codec is
        // gated).
        let bad = vec![record("proposed", 7.0), record("slp", 1.0)];
        let msgs = throughput_regressions(&bad, &base, 0.25);
        assert_eq!(msgs.len(), 2, "encode and decode both fell: {msgs:?}");
        assert!(msgs[0].contains("proposed/lena"));
        // Cells only in the current run (wider sweep) are ignored.
        let wider = vec![ThroughputRecord {
            threads: 8,
            ..record("proposed", 0.1)
        }];
        assert!(throughput_regressions(&wider, &base, 0.25).is_empty());
    }
}
