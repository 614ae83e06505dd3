//! Machine-readable bit-rate harness: payload bpp per codec per corpus
//! class, emitted as JSON so the repository tracks its compression
//! trajectory across PRs (`BENCH_bpp.json` at the repo root).
//!
//! Every number here is a deterministic function of the codec and the
//! synthetic corpus, so the regression gate compares the regenerated
//! document **byte-for-byte** against the committed one: a mismatch means
//! the coding behavior changed and the file must be regenerated and
//! reviewed, not that a runner was slow. Speed is measured elsewhere, by
//! the benchmark of record (`benchmark/`).

use cbic_image::corpus::CorpusImage;
use cbic_image::{EncodeOptions, Image};

/// The corpus classes the harness measures: a smooth portrait stand-in,
/// an oriented texture, and a high-frequency one — the same panel the
/// golden fixtures pin.
pub const CLASSES: [CorpusImage; 3] = [CorpusImage::Lena, CorpusImage::Barb, CorpusImage::Mandrill];

/// One measured bit-rate cell: a codec on a corpus class.
#[derive(Debug, Clone, PartialEq)]
pub struct BppRecord {
    /// Registry codec name.
    pub codec: String,
    /// Corpus class name.
    pub class: String,
    /// Entropy-coded payload bits per pixel.
    pub bpp: f64,
}

/// Measures payload bpp for every Table 1 codec on every corpus class at
/// `size`×`size`.
pub fn measure_bpp(size: usize) -> Vec<BppRecord> {
    let mut out = Vec::new();
    for class in CLASSES {
        let img: Image = class.generate(size, size);
        for codec in cbic_universal::codecs::all_codecs() {
            let bpp = codec
                .payload_bits_per_pixel(img.view(), &EncodeOptions::default())
                .expect("corpus image encodes");
            out.push(BppRecord {
                codec: codec.name().to_string(),
                class: class.name().to_string(),
                bpp,
            });
        }
    }
    out
}

/// Builds the full `BENCH_bpp.json` document (schema 2). Deterministic:
/// same code + same `size` ⇒ the same bytes, which is what lets the
/// `--check` gate compare documents instead of parsing them.
pub fn render_report(size: usize, records: &[BppRecord]) -> String {
    let cells: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "    {{\"codec\": \"{}\", \"class\": \"{}\", \"bpp\": {:.4}}}",
                r.codec, r.class, r.bpp
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": 2,\n  \"size\": {size},\n  \"results\": [\n{}\n  ]\n}}\n",
        cells.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_deterministic_and_carries_every_cell() {
        let records = measure_bpp(32);
        // Every Table 1 codec appears once per class.
        let codecs = cbic_universal::codecs::all_codecs().len();
        assert_eq!(records.len(), CLASSES.len() * codecs);
        let a = render_report(32, &records);
        let b = render_report(32, &measure_bpp(32));
        assert_eq!(a, b);
        assert!(a.contains("\"codec\": \"proposed\", \"class\": \"lena\""));
        assert!(a.contains("\"schema\": 2"));
    }
}
