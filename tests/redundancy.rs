//! The binary arithmetic coder's redundancy, pinned: on the real codec's
//! decision stream the emitted payload is within a hair of the ideal code
//! length the model's probabilities promise.
//!
//! Every coded decision with `P(bit) = p` ideally costs `−log2 p` bits; the
//! sum over an image is the best any coder can do with this model. The gap
//! between that sum and the payload bits actually emitted is what the
//! coder's finite-precision interval arithmetic and its final flush cost.

use cbic::core::{CodecConfig, EncoderState};
use cbic::image::corpus::CorpusImage;
use cbic::image::Image;
use cbic_arith::{BinaryEncoder, DecisionEncoder};
use cbic_bitio::{BitSink, BitWriter};

/// A [`DecisionEncoder`] that forwards every decision to the real binary
/// coder and sums its ideal cost `−log2 p` on the way through.
struct IdealCost<E> {
    inner: E,
    ideal_bits: f64,
}

impl<E: DecisionEncoder> DecisionEncoder for IdealCost<E> {
    fn encode(&mut self, bit: bool, c0: u32, total: u32) {
        let own = if bit { total - c0 } else { c0 };
        self.ideal_bits -= (f64::from(own) / f64::from(total)).log2();
        self.inner.encode(bit, c0, total);
    }

    fn decisions(&self) -> u64 {
        self.inner.decisions()
    }

    fn coded_decisions(&self) -> u64 {
        self.inner.coded_decisions()
    }

    fn note_deterministic(&mut self, n: u64) {
        self.inner.note_deterministic(n);
    }
}

/// `(emitted payload bits, ideal bits)` of the default codec on `img`.
fn emitted_and_ideal(img: &Image) -> (u64, f64) {
    let mut state = EncoderState::new(img.width(), img.bit_depth(), &CodecConfig::default());
    let mut enc = IdealCost {
        inner: BinaryEncoder::new(BitWriter::new()),
        ideal_bits: 0.0,
    };
    state.encode_view(img.view(), &mut enc);
    (enc.inner.finish().bits_written(), enc.ideal_bits)
}

#[test]
fn coder_redundancy_stays_below_a_tenth_of_a_percent_on_the_corpus() {
    for (class, img) in cbic::image::corpus::generate(256) {
        let (emitted, ideal) = emitted_and_ideal(&img);
        let excess = emitted as f64 - ideal;
        assert!(
            excess < 0.001 * ideal,
            "{class:?}: {emitted} bits emitted for {ideal:.1} ideal ({:.4}%)",
            100.0 * excess / ideal
        );
    }
}

#[test]
fn coder_redundancy_is_at_most_64_bits_on_the_golden_inputs() {
    for class in [CorpusImage::Lena, CorpusImage::Barb, CorpusImage::Mandrill] {
        let (emitted, ideal) = emitted_and_ideal(&class.generate(32, 32));
        assert!(
            emitted as f64 <= ideal + 64.0,
            "{class:?}: {emitted} bits emitted for {ideal:.1} ideal"
        );
    }
}
