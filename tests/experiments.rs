//! Shape assertions for the paper's evaluation claims, measured on the
//! synthetic corpus. Absolute bit rates differ from the paper (the
//! USC-SIPI originals are not redistributable, so synthetic stand-ins
//! supply the pixels), so these tests pin the *qualitative* results the
//! reproduction must preserve:
//!
//! * Table 1: CALIC ≤ proposed, and the proposed codec beats both
//!   JPEG-LS and SLP on average; per-image hardness ordering (mandrill
//!   hardest, zelda easiest). The paper's averages are CALIC 4.50,
//!   proposed 4.55, SLP 4.63 and JPEG-LS 4.66 bpp. Here the reconstructed
//!   SLP trails JPEG-LS, the reverse of the paper's order, so the tests
//!   assert no order between those two: "JPEG-LS < SLP" is the
//!   reproduction's result, not the paper's;
//! * Fig. 4: 14-bit counters beat 10-bit counters; escapes grow as the
//!   counter narrows;
//! * the paper's prose claims: error feedback helps, aging helps, LUT
//!   division is free.
//!
//! Most tests run on a 256-pixel corpus (the smallest size at which the
//! adaptive models warm up enough for stable orderings); the headline
//! codec-ordering test uses the paper's full 512.

use cbic::arith::EstimatorConfig;
use cbic::core::{encode_raw, CodecConfig, DivisionKind};
use cbic::image::corpus;

const SIZE: usize = 256;

fn corpus_avg(cfg: &CodecConfig) -> f64 {
    let c = corpus::generate(SIZE);
    c.iter()
        .map(|(_, img)| encode_raw(img.view(), cfg).1.bits_per_pixel())
        .sum::<f64>()
        / c.len() as f64
}

#[test]
fn table1_codec_ordering_matches_paper() {
    // The adaptive models (especially CALIC's 1024 contexts) need the full
    // 512x512 images to warm up; at smaller sizes the CALIC/proposed gap
    // (0.05 bpp in the paper) is inside the cold-start noise.
    let c = corpus::generate(512);
    let n = c.len() as f64;
    let mut sums = [0.0f64; 4]; // jpegls, slp, calic, proposed
    for (_, img) in &c {
        let (j, s, ca, p) = cbic_bench::measure_image(img);
        sums[0] += j;
        sums[1] += s;
        sums[2] += ca;
        sums[3] += p;
    }
    let [jpegls, slp, calic, proposed] = sums.map(|s| s / n);

    // The paper's Table 1 ordering: CALIC 4.50 < proposed 4.55 <
    // SLP 4.63 < JPEG-LS 4.66.
    assert!(
        calic <= proposed,
        "CALIC ({calic:.3}) must not lose to the proposed codec ({proposed:.3})"
    );
    assert!(
        proposed < jpegls,
        "proposed ({proposed:.3}) must beat JPEG-LS ({jpegls:.3})"
    );
    assert!(
        proposed < slp,
        "proposed ({proposed:.3}) must beat SLP ({slp:.3})"
    );
    // The gap to CALIC is small (the paper: 0.05 bpp), nothing dramatic.
    assert!(
        proposed - calic < 0.15,
        "proposed trails CALIC by {:.3} bpp, expected a small gap",
        proposed - calic
    );
}

#[test]
fn table1_image_hardness_ordering() {
    let cfg = CodecConfig::default();
    let c = corpus::generate(SIZE);
    let bpp: std::collections::HashMap<&str, f64> = c
        .iter()
        .map(|(n, img)| (n.name(), encode_raw(img.view(), &cfg).1.bits_per_pixel()))
        .collect();
    // Paper row order (easiest to hardest): zelda < lena < boat < peppers
    // < goldhill ~ barb < mandrill. We assert the robust extremes plus the
    // smooth-vs-textured split.
    for name in ["barb", "boat", "goldhill", "lena", "peppers", "zelda"] {
        assert!(
            bpp[name] < bpp["mandrill"],
            "{name} ({}) must be easier than mandrill ({})",
            bpp[name],
            bpp["mandrill"]
        );
        if name != "zelda" {
            assert!(
                bpp[name] > bpp["zelda"],
                "{name} ({}) must be harder than zelda ({})",
                bpp[name],
                bpp["zelda"]
            );
        }
    }
    assert!(bpp["lena"] < bpp["goldhill"]);
    assert!(bpp["lena"] < bpp["barb"]);
}

#[test]
fn fig4_narrow_counters_cost_bits_and_escapes() {
    let c = corpus::generate(SIZE);
    let run = |bits: u8| -> (f64, u64) {
        let cfg = CodecConfig {
            estimator: EstimatorConfig {
                count_bits: bits,
                ..EstimatorConfig::default()
            },
            ..CodecConfig::default()
        };
        let mut bpp = 0.0;
        let mut escapes = 0;
        for (_, img) in &c {
            let stats = encode_raw(img.view(), &cfg).1;
            bpp += stats.bits_per_pixel();
            escapes += stats.escapes;
        }
        (bpp / c.len() as f64, escapes)
    };
    let (bpp10, esc10) = run(10);
    let (bpp14, esc14) = run(14);
    // Fig. 4: the 10-bit point sits clearly above the 14-bit point...
    assert!(
        bpp10 > bpp14 + 0.01,
        "10-bit ({bpp10:.3}) must cost more than 14-bit ({bpp14:.3})"
    );
    // ...because narrow counters rescale constantly and escape more (the
    // paper: "when too few bits are used, more escapes happen").
    assert!(
        esc10 > esc14 * 5,
        "10-bit escapes ({esc10}) should dwarf 14-bit escapes ({esc14})"
    );
}

#[test]
fn paper_claim_error_feedback_improves_ratio() {
    let with = corpus_avg(&CodecConfig::default());
    let without = corpus_avg(&CodecConfig {
        error_feedback: false,
        ..CodecConfig::default()
    });
    assert!(
        with < without,
        "error feedback must help: {with:.4} vs {without:.4}"
    );
}

#[test]
fn paper_claim_aging_slightly_improves_ratio() {
    let aged = corpus_avg(&CodecConfig::default());
    let frozen = corpus_avg(&CodecConfig {
        aging: false,
        ..CodecConfig::default()
    });
    // "Experimental results prove that this rescaling technique slightly
    // improves the compression ratio."
    assert!(aged < frozen, "aging must help: {aged:.4} vs {frozen:.4}");
    assert!(
        frozen - aged < 0.1,
        "aging is a *slight* improvement, got {:.4}",
        frozen - aged
    );
}

#[test]
fn paper_claim_lut_division_is_free() {
    let lut = corpus_avg(&CodecConfig::default());
    let exact = corpus_avg(&CodecConfig {
        division: DivisionKind::Exact,
        ..CodecConfig::default()
    });
    // "Although the result of division is only an approximation, it does
    // not affect the compression performance in our experiments."
    assert!(
        (lut - exact).abs() < 0.01,
        "LUT vs exact division: {lut:.4} vs {exact:.4}"
    );
}

#[test]
fn more_texture_contexts_help_monotonically_enough() {
    // A3: growing the compound-context set 8 -> 512 must not hurt, and the
    // full 512 should beat the context-free variant.
    let full = corpus_avg(&CodecConfig::default()); // 6 texture bits
    let none = corpus_avg(&CodecConfig {
        texture_bits: 0,
        ..CodecConfig::default()
    });
    assert!(
        full <= none + 0.005,
        "512 contexts ({full:.4}) should beat 8 contexts ({none:.4})"
    );
}

#[test]
fn compression_beats_order0_entropy_on_every_corpus_image() {
    let cfg = CodecConfig::default();
    for (name, img) in corpus::generate(SIZE) {
        let bpp = encode_raw(img.view(), &cfg).1.bits_per_pixel();
        assert!(
            bpp < img.entropy(),
            "{name:?}: {bpp:.3} bpp should beat order-0 {:.3}",
            img.entropy()
        );
    }
}
