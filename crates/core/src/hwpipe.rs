//! Hardware-faithful encoder: the Fig. 3 architecture, register by
//! register.
//!
//! [`encode_raw`](crate::encode_raw) is the *algorithmic* reference — it
//! reads pixels from a random-access view. The FPGA cannot do that: it
//! sees a raster-scan pixel stream and keeps exactly **three image lines**
//! in rotating buffers (Section III: "we need to store 3 lines of image
//! pixel values in memory as context and use 3 pointers ... At the end of
//! processing each line, the 3 pointers have to be rotated").
//!
//! This module implements the encoder under those constraints as a **thin
//! line-buffer wrapper around the one pixel datapath** in
//! [`engine`](crate::engine):
//!
//! * [`LineBuffers`] — three line buffers + rotation, the only pixel
//!   storage (plus the pipeline registers holding `W`/`WW`);
//! * [`HwEncoder`] — a streaming, one-pixel-per-call encoder: each call
//!   fetches the causal neighbourhood from the buffers and hands it to the
//!   shared [`PixelEngine`](crate::engine::PixelEngine), which runs the
//!   paper's two lines (Line 2: gradients, primary prediction,
//!   texture/coding contexts, error feedback; Line 1: error formation,
//!   remap, estimator, context write-back). No model logic is duplicated
//!   here — the wrapper owns only the storage discipline.
//!
//! Both sides carry the sample bit depth (8–16): the line buffers hold
//! `u16` words and the wrap/fold modulus scales with the depth, exactly as
//! a parameterized RTL generic would.
//!
//! The equivalence suite asserts the byte stream is **identical** to the
//! software reference on every input — the "golden model vs RTL"
//! check-off a hardware team would run before tape-out.

use crate::codec::CodecConfig;
use crate::engine::{DecoderState, EncoderState};
use crate::neighborhood::Neighborhood;
use crate::remap::half_for_depth;
use cbic_arith::{BinaryDecoder, BinaryEncoder, DecisionDecoder, DecisionEncoder};
use cbic_bitio::{BitReader, BitSink, BitSource, BitWriter};
use cbic_image::{Image, ImageView};

/// Three rotating line buffers, as the hardware stores them.
///
/// `row(0)` is the line currently being written (the pixel just coded goes
/// here), `row(1)` the previous line (N/NE/NW), `row(2)` the line above
/// that (NN/NNE). [`Self::rotate`] renames the pointers at each end of
/// line — no pixel is ever copied, exactly like the hardware's pointer
/// rotation.
#[derive(Debug, Clone)]
pub struct LineBuffers {
    lines: [Vec<u16>; 3],
    /// Index of the buffer holding the line being written.
    head: usize,
    /// Number of rows completed (bounds the valid history).
    rows_done: usize,
    /// First-pixel mid-gray fallback (`2^(n-1)`).
    mid: u16,
}

impl LineBuffers {
    /// Creates buffers for 8-bit images `width` pixels wide.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize) -> Self {
        Self::with_depth(width, 8)
    }

    /// Creates buffers for images of the given bit depth.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or the depth is outside `1..=16`.
    pub fn with_depth(width: usize, bit_depth: u8) -> Self {
        assert!(width > 0, "width must be nonzero");
        assert!(
            (1..=16).contains(&bit_depth),
            "bit depth {bit_depth} outside 1..=16"
        );
        Self {
            lines: [vec![0; width], vec![0; width], vec![0; width]],
            head: 0,
            rows_done: 0,
            mid: half_for_depth(bit_depth) as u16,
        }
    }

    /// Buffer width.
    pub fn width(&self) -> usize {
        self.lines[0].len()
    }

    /// Number of fully written rows so far.
    pub fn rows_done(&self) -> usize {
        self.rows_done
    }

    /// The line `depth` rows above the current one (0 = current).
    #[inline]
    fn row(&self, depth: usize) -> &[u16] {
        debug_assert!(depth < 3);
        &self.lines[(self.head + depth) % 3]
    }

    /// Writes the just-reconstructed pixel into the current line.
    #[inline]
    pub fn push(&mut self, x: usize, value: u16) {
        let head = self.head;
        self.lines[head][x] = value;
    }

    /// Rotates the three pointers at end of line: the oldest buffer is
    /// recycled as the new write target.
    pub fn rotate(&mut self) {
        self.head = (self.head + 2) % 3; // head-1 mod 3: oldest becomes head
        self.rows_done += 1;
    }

    /// Fetches the causal neighbourhood of `(x, y)` from the line buffers
    /// only, reproducing [`Neighborhood::fetch`]'s boundary rules bit for
    /// bit (`y` is passed purely to detect the first rows; pixels never
    /// come from anywhere but the three buffers).
    pub fn neighborhood(&self, x: usize, y: usize) -> Neighborhood {
        debug_assert!(x < self.width());
        debug_assert_eq!(y, self.rows_done);
        let n1 = (y >= 1).then(|| self.row(1));
        let n2 = (y >= 2).then(|| self.row(2));
        // `from_rows` reads only the causal prefix cur[..x] of the line
        // being written, matching the hardware's register timing.
        Neighborhood::from_rows(self.row(0), n1, n2, x, self.mid)
    }

    /// The raw causal row slices for the current scan row `y`: the line
    /// being written plus up to two completed lines above (`None` above
    /// the image top) — what the model-dispatching engine entry points
    /// ([`PixelEngine::encode_pixel_rows`](crate::engine::PixelEngine::encode_pixel_rows))
    /// consume, wide and classic alike.
    pub fn causal_rows(&self, y: usize) -> (&[u16], Option<&[u16]>, Option<&[u16]>) {
        debug_assert_eq!(y, self.rows_done);
        (
            self.row(0),
            (y >= 1).then(|| self.row(1)),
            (y >= 2).then(|| self.row(2)),
        )
    }

    /// First-pixel mid-gray fallback the buffers were armed with.
    pub fn mid(&self) -> u16 {
        self.mid
    }
}

/// Streaming hardware-model encoder: feed raster-scan pixels one at a
/// time, collect the bit stream at the end.
///
/// The coder is a [`BinaryEncoder`], by default over an in-memory
/// [`BitWriter`]; [`Self::with_sink`] swaps in any [`BitSink`] — e.g. a
/// [`StreamBitWriter`](cbic_bitio::StreamBitWriter) emitting bytes
/// incrementally, the backing of the bounded-memory
/// [`StreamEncoder`](crate::stream::StreamEncoder). The coded bits are
/// identical in every case; only where they go differs.
///
/// # Examples
///
/// ```
/// use cbic_core::hwpipe::HwEncoder;
/// use cbic_core::CodecConfig;
/// use cbic_image::corpus::CorpusImage;
///
/// let img = CorpusImage::Boat.generate(32, 32);
/// let mut hw = HwEncoder::new(32, &CodecConfig::default());
/// for y in 0..32 {
///     for x in 0..32 {
///         hw.push_pixel(img.get(x, y));
///     }
/// }
/// let stream = hw.finish();
/// // Bit-identical to the software reference:
/// let (reference, _) = cbic_core::encode_raw(img.view(), &CodecConfig::default());
/// assert_eq!(stream, reference);
/// ```
#[derive(Debug)]
pub struct HwEncoder<E = BinaryEncoder<BitWriter>> {
    buffers: LineBuffers,
    state: EncoderState,
    ac: E,
    x: usize,
    y: usize,
    pixels: u64,
}

impl HwEncoder {
    /// Creates a streaming encoder for `width`-pixel 8-bit lines,
    /// buffering the bit stream in memory.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or the configuration is invalid.
    pub fn new(width: usize, cfg: &CodecConfig) -> Self {
        Self::with_sink(width, 8, cfg, BitWriter::new())
    }

    /// Flushes the arithmetic coder and returns the byte stream
    /// (bit-identical to [`encode_raw`](crate::encode_raw) on the same
    /// pixels and configuration).
    pub fn finish(self) -> Vec<u8> {
        self.finish_sink().into_bytes()
    }

    /// Convenience: stream a whole view through the hardware model.
    pub fn encode_image(img: ImageView<'_>, cfg: &CodecConfig) -> Vec<u8> {
        let mut hw = Self::with_sink(img.width(), img.bit_depth(), cfg, BitWriter::new());
        for row in img.rows() {
            for &pixel in row {
                hw.push_pixel(pixel);
            }
        }
        hw.finish()
    }
}

impl<S: BitSink> HwEncoder<BinaryEncoder<S>> {
    /// Creates a streaming encoder for `width`-pixel lines of the given
    /// sample depth, emitting into an arbitrary [`BitSink`].
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero, the depth is outside `1..=16`, or the
    /// configuration is invalid.
    pub fn with_sink(width: usize, bit_depth: u8, cfg: &CodecConfig, sink: S) -> Self {
        Self {
            buffers: LineBuffers::with_depth(width, bit_depth),
            state: EncoderState::new(width, bit_depth, cfg),
            ac: BinaryEncoder::new(sink),
            x: 0,
            y: 0,
            pixels: 0,
        }
    }

    /// Borrows the bit sink (e.g. to poll a streaming sink for I/O errors).
    pub fn sink(&self) -> &S {
        self.ac.sink()
    }

    /// Mutably borrows the bit sink.
    pub fn sink_mut(&mut self) -> &mut S {
        self.ac.sink_mut()
    }

    /// Flushes the arithmetic coder and returns the underlying bit sink.
    pub fn finish_sink(self) -> S {
        self.ac.finish()
    }
}

impl<E: DecisionEncoder> HwEncoder<E> {
    /// Width of the lines this encoder consumes.
    pub fn width(&self) -> usize {
        self.buffers.width()
    }

    /// Sample bit depth of the pixel stream.
    pub fn bit_depth(&self) -> u8 {
        self.state.bit_depth()
    }

    /// Pixels consumed so far.
    pub fn pixels(&self) -> u64 {
        self.pixels
    }

    /// Current scan position `(x, y)` of the *next* pixel.
    pub fn position(&self) -> (usize, usize) {
        (self.x, self.y)
    }

    /// Consumes the next raster-scan pixel.
    ///
    /// One call models one initiation interval of the Fig. 3 pipeline: the
    /// causal neighbourhood comes out of the line buffers (Line 2 stage
    /// (a)), and the shared engine runs the remaining stages — prediction,
    /// context formation, error feedback, remap, and coding.
    pub fn push_pixel(&mut self, value: u16) {
        // A hard check: an oversized sample would silently wrap modulo the
        // sample range downstream and break the losslessness contract.
        assert!(
            i32::from(value) < 2 * self.state.half(),
            "sample {value} exceeds the {}-bit range",
            self.bit_depth()
        );
        let x = self.x;
        let (cur, n1, n2) = self.buffers.causal_rows(self.y);
        self.state
            .encode_pixel_rows(&mut self.ac, cur, n1, n2, x, value);

        // Reconstruction write-back into the line buffer (lossless: the
        // reconstructed pixel equals the input).
        self.buffers.push(x, value);

        self.pixels += 1;
        self.x += 1;
        if self.x == self.buffers.width() {
            self.x = 0;
            self.y += 1;
            self.buffers.rotate();
        }
    }
}

/// Streaming hardware-model decoder: the dual of [`HwEncoder`], producing
/// one reconstructed pixel per call from the same three-line-buffer state.
///
/// Like the encoder it is generic over its bit transport: [`Self::new`]
/// decodes a buffered byte slice through a [`BitReader`], and
/// [`Self::with_source`] accepts any [`BitSource`] — in particular a
/// [`StreamBitReader`](cbic_bitio::StreamBitReader) refilled incrementally
/// from `std::io::Read`, the backing of
/// [`StreamDecoder`](crate::stream::StreamDecoder).
///
/// # Examples
///
/// ```
/// use cbic_core::hwpipe::{HwDecoder, HwEncoder};
/// use cbic_core::CodecConfig;
/// use cbic_image::corpus::CorpusImage;
///
/// let img = CorpusImage::Zelda.generate(24, 24);
/// let cfg = CodecConfig::default();
/// let stream = HwEncoder::encode_image(img.view(), &cfg);
/// let mut dec = HwDecoder::new(&stream, 24, &cfg);
/// for y in 0..24 {
///     for x in 0..24 {
///         assert_eq!(dec.next_pixel(), img.get(x, y));
///     }
/// }
/// ```
#[derive(Debug)]
pub struct HwDecoder<D> {
    buffers: LineBuffers,
    state: DecoderState,
    ac: D,
    x: usize,
    y: usize,
}

impl<'a> HwDecoder<BinaryDecoder<BitReader<'a>>> {
    /// Creates a streaming decoder over `stream` for `width`-pixel 8-bit
    /// lines.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or the configuration is invalid.
    pub fn new(stream: &'a [u8], width: usize, cfg: &CodecConfig) -> Self {
        Self::with_source(BitReader::new(stream), width, 8, cfg)
    }

    /// Convenience: decode a whole 8-bit image through the hardware model.
    pub fn decode_image(stream: &'a [u8], width: usize, height: usize, cfg: &CodecConfig) -> Image {
        let mut dec = Self::new(stream, width, cfg);
        Image::from_fn16(width, height, 8, |_, _| dec.next_pixel())
    }
}

impl<S: BitSource> HwDecoder<BinaryDecoder<S>> {
    /// Creates a streaming decoder reading code bits from an arbitrary
    /// [`BitSource`] for `width`-pixel lines of the given sample depth.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero, the depth is outside `1..=16`, or the
    /// configuration is invalid.
    pub fn with_source(source: S, width: usize, bit_depth: u8, cfg: &CodecConfig) -> Self {
        Self {
            buffers: LineBuffers::with_depth(width, bit_depth),
            state: DecoderState::new(width, bit_depth, cfg),
            ac: BinaryDecoder::new(source),
            x: 0,
            y: 0,
        }
    }

    /// Borrows the bit source (e.g. to inspect padding counts or streaming
    /// I/O errors).
    pub fn source(&self) -> &S {
        self.ac.source()
    }
}

impl<D: DecisionDecoder> HwDecoder<D> {
    /// Decodes and returns the next raster-scan pixel: the neighbourhood
    /// comes out of the line buffers, the shared engine runs the model and
    /// the reconstruction, and the pixel is written back for the next
    /// rows.
    pub fn next_pixel(&mut self) -> u16 {
        let x = self.x;
        let (cur, n1, n2) = self.buffers.causal_rows(self.y);
        let value = self.state.decode_pixel_rows(&mut self.ac, cur, n1, n2, x);
        self.buffers.push(x, value);
        self.x += 1;
        if self.x == self.buffers.width() {
            self.x = 0;
            self.y += 1;
            self.buffers.rotate();
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_raw;
    use cbic_image::corpus::CorpusImage;

    fn assert_equivalent(img: &Image, cfg: &CodecConfig) {
        let (reference, _) = encode_raw(img.view(), cfg);
        let hw = HwEncoder::encode_image(img.view(), cfg);
        assert_eq!(
            hw, reference,
            "hardware model diverged from the software reference"
        );
    }

    #[test]
    fn equivalent_on_corpus() {
        let cfg = CodecConfig::default();
        for (_, img) in cbic_image::corpus::generate(48) {
            assert_equivalent(&img, &cfg);
        }
    }

    #[test]
    fn equivalent_on_edge_shapes() {
        let cfg = CodecConfig::default();
        for (w, h) in [(1, 1), (1, 9), (9, 1), (3, 3), (17, 2), (2, 17)] {
            let img = Image::from_fn(w, h, |x, y| (x * 73 + y * 31) as u8);
            assert_equivalent(&img, &cfg);
        }
    }

    #[test]
    fn equivalent_on_deep_samples() {
        let cfg = CodecConfig::default();
        for depth in [10u8, 12, 16] {
            let img = Image::from_fn16(24, 24, depth, |x, y| {
                ((x as u32 * 523 + y as u32 * 7919) % (1u32 << depth.min(15))) as u16
            });
            assert_equivalent(&img, &cfg);
        }
    }

    #[test]
    fn equivalent_under_nondefault_configs() {
        let img = CorpusImage::Peppers.generate(32, 32);
        for cfg in [
            CodecConfig {
                error_feedback: false,
                ..CodecConfig::default()
            },
            CodecConfig {
                texture_bits: 0,
                ..CodecConfig::default()
            },
            CodecConfig {
                division: crate::DivisionKind::Exact,
                ..CodecConfig::default()
            },
        ] {
            assert_equivalent(&img, &cfg);
        }
    }

    #[test]
    fn stream_decodes_with_the_standard_decoder() {
        let img = CorpusImage::Lena.generate(40, 40);
        let cfg = CodecConfig::default();
        let hw = HwEncoder::encode_image(img.view(), &cfg);
        let back = crate::codec::decode_raw(&hw, 40, 40, 8, &cfg);
        assert_eq!(back, img);
    }

    #[test]
    fn hw_decoder_reads_software_streams() {
        // Full cross-matrix: {sw, hw} encoder x {sw, hw} decoder.
        let img = CorpusImage::Goldhill.generate(32, 32);
        let cfg = CodecConfig::default();
        let (sw_stream, _) = encode_raw(img.view(), &cfg);
        let hw_stream = HwEncoder::encode_image(img.view(), &cfg);
        assert_eq!(sw_stream, hw_stream);
        assert_eq!(HwDecoder::decode_image(&sw_stream, 32, 32, &cfg), img);
        assert_eq!(crate::codec::decode_raw(&hw_stream, 32, 32, 8, &cfg), img);
    }

    #[test]
    fn hw_decoder_streams_pixel_by_pixel() {
        let img = CorpusImage::Mandrill.generate(16, 16);
        let cfg = CodecConfig::default();
        let stream = HwEncoder::encode_image(img.view(), &cfg);
        let mut dec = HwDecoder::new(&stream, 16, &cfg);
        // Interleave decoding with position checks: truly streaming.
        for y in 0..16 {
            for x in 0..16 {
                assert_eq!(dec.next_pixel(), img.get(x, y), "at ({x},{y})");
            }
        }
    }

    #[test]
    fn sixteen_bit_stream_roundtrips_through_hw_pair() {
        let cfg = CodecConfig::default();
        let img = Image::from_fn16(20, 20, 16, |x, y| (x * 3001 + y * 17) as u16);
        let stream = HwEncoder::encode_image(img.view(), &cfg);
        let mut dec = HwDecoder::with_source(BitReader::new(&stream), 20, 16, &cfg);
        for y in 0..20 {
            for x in 0..20 {
                assert_eq!(dec.next_pixel(), img.get(x, y), "at ({x},{y})");
            }
        }
    }

    #[test]
    fn line_buffers_rotate_without_copies() {
        let mut b = LineBuffers::new(4);
        for v in [10u16, 11, 12, 13] {
            b.push(0, v);
            b.push(1, v);
            b.push(2, v);
            b.push(3, v);
            b.rotate();
        }
        // After writing rows 10..13, row(1) holds 13s, row(2) holds 12s.
        assert_eq!(b.row(1), &[13, 13, 13, 13]);
        assert_eq!(b.row(2), &[12, 12, 12, 12]);
        assert_eq!(b.rows_done(), 4);
    }

    #[test]
    #[should_panic(expected = "exceeds the 10-bit range")]
    fn push_pixel_rejects_samples_beyond_the_depth() {
        let mut hw = HwEncoder::with_sink(4, 10, &CodecConfig::default(), BitWriter::new());
        hw.push_pixel(1500);
    }

    #[test]
    fn streaming_position_tracking() {
        let mut hw = HwEncoder::new(3, &CodecConfig::default());
        assert_eq!(hw.position(), (0, 0));
        for _ in 0..4 {
            hw.push_pixel(7);
        }
        assert_eq!(hw.position(), (1, 1));
        assert_eq!(hw.pixels(), 4);
    }

    #[test]
    fn neighborhood_matches_image_fetch() {
        // The buffer-based fetch must agree with the random-access fetch
        // at every position of a test image.
        let img = CorpusImage::Barb.generate(16, 16);
        let mut b = LineBuffers::new(16);
        for y in 0..16 {
            for x in 0..16 {
                assert_eq!(
                    b.neighborhood(x, y),
                    Neighborhood::fetch(&img.view(), x, y),
                    "at ({x},{y})"
                );
                b.push(x, img.get(x, y));
            }
            b.rotate();
        }
    }
}
