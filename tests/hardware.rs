//! Integration of the hardware model with the real codec: the numbers in
//! Table 2 must be consistent with what the software actually does.

use cbic::core::{encode_raw, CodecConfig, PixelEngine};
use cbic::hw::divlut::DivLut;
use cbic::hw::memory::{ContextBankLayout, EstimatorMemory, ModelingMemory};
use cbic::hw::pipeline::{PipelineConfig, PixelTrace};
use cbic::hw::resources::{table2, PAPER_TABLE2};
use cbic::image::corpus::CorpusImage;

#[test]
fn codec_decision_rate_matches_pipeline_assumption() {
    // The pipeline model assumes 9 binary decisions per pixel; the encoder
    // must deliver exactly that (1 escape decision + 8 tree levels).
    let img = CorpusImage::Goldhill.generate(128, 128);
    let (_, stats) = encode_raw(img.view(), &CodecConfig::default());
    assert!((stats.decisions_per_pixel() - 9.0).abs() < 1e-9);
}

#[test]
fn measured_trace_reproduces_the_papers_throughput() {
    let img = CorpusImage::Lena.generate(128, 128);
    let (_, stats) = encode_raw(img.view(), &CodecConfig::default());
    let trace = PixelTrace::uniform(
        img.width(),
        img.height(),
        stats.decisions_per_pixel().round() as u32,
    );
    let overlapped = PipelineConfig {
        overlap_escape: true,
        ..PipelineConfig::default()
    };
    let report = overlapped.simulate(&trace);
    // 123 MHz / 8 decisions * 8 bpp = the paper's 123 Mbit/s.
    assert!(
        (report.mbits_per_sec - 123.0).abs() < 1.5,
        "got {} Mbit/s",
        report.mbits_per_sec
    );
}

#[test]
fn memory_budgets_match_the_paper() {
    let modeling = ModelingMemory::default();
    assert_eq!(modeling.total_bytes(), 3776); // 3.69 KB ~ the paper's "3.7"
    let estimator = EstimatorMemory::default();
    let kb = estimator.total_kbytes();
    assert!((3.8..4.1).contains(&kb), "estimator {kb} KB");
}

#[test]
fn context_bank_layout_accounts_exactly_what_the_engine_allocates() {
    // The memory model is only a budget if it matches reality: at every
    // texture width (8 × 2^texture_bits compound contexts),
    // `ContextBankLayout::host_soa` over the engine's bank count must
    // equal — byte for byte — what the SoA context store actually
    // allocates.
    let classic = PixelEngine::new(64, 8, &CodecConfig::default());
    assert_eq!(classic.context_banks(), 512);
    for texture_bits in 0..=6u8 {
        let cfg = CodecConfig {
            texture_bits,
            ..CodecConfig::default()
        };
        let engine = PixelEngine::new(64, 8, &cfg);
        assert_eq!(engine.context_banks(), 8 << texture_bits);
        assert_eq!(
            ContextBankLayout::host_soa(engine.context_banks()).total_bytes(),
            engine.context_bytes(),
            "accounted vs allocated bytes diverged at texture_bits={texture_bits}"
        );
        // The paper-width budget scales with the rows the same way.
        assert_eq!(
            ContextBankLayout::with_contexts(engine.context_banks()).total_bytes()
                << (6 - texture_bits),
            ContextBankLayout::default().total_bytes()
        );
    }
}

#[test]
fn division_lut_footprint_matches_the_codec() {
    // The LUT the codec actually uses is the 1 KB ROM Table 2 accounts for.
    let lut = DivLut::new();
    assert_eq!(lut.table_bytes(), ModelingMemory::default().div_lut_bytes);
}

#[test]
fn resource_model_preserves_module_ordering() {
    let t = table2();
    let slices: Vec<u64> = t.iter().map(|(_, e)| e.slices).collect();
    let paper: Vec<u64> = PAPER_TABLE2.iter().map(|p| p.1).collect();
    // Same ordering as the paper: coder > modeling > estimator.
    assert!(slices[2] > slices[0] && slices[0] > slices[1]);
    assert!(paper[2] > paper[0] && paper[0] > paper[1]);
}

#[test]
fn estimator_memory_follows_fig4_sweep() {
    // Fig. 4's x-axis is also a memory knob: the estimator SRAM grows
    // linearly with the counter width.
    let sizes: Vec<usize> = [10, 12, 14, 16]
        .iter()
        .map(|&bits| {
            EstimatorMemory {
                counter_bits: bits,
                ..EstimatorMemory::default()
            }
            .total_bytes()
        })
        .collect();
    assert!(sizes.windows(2).all(|w| w[0] < w[1]));
    // 14 bits is the paper's 4 KB point.
    assert_eq!(sizes[2], EstimatorMemory::default().total_bytes());
}

#[test]
fn multi_core_scaling_claim() {
    // "The low complexity means that a multi-core solution could be used
    // to scale up the performance" — N independent cores on N image tiles
    // scale throughput linearly in this model.
    let cfg = PipelineConfig::default();
    let single = cfg.simulate(&PixelTrace::uniform(512, 512, 9));
    let quarter = cfg.simulate(&PixelTrace::uniform(512, 128, 9));
    let four_core = 4.0 * 512.0 * 128.0 / (quarter.cycles as f64 / cfg.clock_mhz / 1e6) / 1e6;
    let one_core = single.mpixels_per_sec;
    assert!(
        four_core > one_core * 3.5,
        "4 tiles: {four_core:.1} vs 1 core {one_core:.1} Mpixel/s"
    );
}
