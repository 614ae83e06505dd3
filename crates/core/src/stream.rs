//! Bounded-memory streaming codec over `std::io::Read` / `std::io::Write`.
//!
//! The paper's Fig. 3 architecture is a stream machine: three rotating line
//! buffers, one pixel per cycle, bits trickling out of the arithmetic coder
//! as they resolve. [`compress`](crate::compress)/[`decompress`](crate::decompress)
//! hide that behind fully materialized `Vec<u8>` buffers, which caps image
//! size by RAM. This module exposes the hardware's actual shape in
//! software:
//!
//! * [`StreamEncoder`] — feed pixel rows, bits flow into any `io::Write`;
//! * [`StreamDecoder`] — pull reconstructed rows out of any `io::Read`.
//!
//! Both keep **O(3 lines + estimator tables)** of state — the
//! [`LineBuffers`](crate::hwpipe::LineBuffers) machinery of the hardware
//! model plus one 4 KiB transport buffer — independent of image height, so
//! a 64-megapixel image pipes through in a few hundred kilobytes of codec
//! memory. Rows are `u16` samples at any 8–16-bit depth; the emitted
//! container is **byte-identical** to [`compress`](crate::compress) (same
//! header, same arithmetic payload), which the differential test suite and
//! the golden corpus pin down.
//!
//! # Examples
//!
//! ```
//! use cbic_core::stream::{StreamDecoder, StreamEncoder};
//! use cbic_core::CodecConfig;
//! use cbic_image::corpus::CorpusImage;
//!
//! let img = CorpusImage::Boat.generate(32, 32);
//! let cfg = CodecConfig::default();
//!
//! // Encode row-at-a-time into any io::Write.
//! let mut enc = StreamEncoder::new(Vec::new(), 32, 32, &cfg)?;
//! for y in 0..32 {
//!     enc.push_row(img.row(y))?;
//! }
//! let bytes = enc.finish()?;
//! assert_eq!(bytes, cbic_core::compress(img.view(), &cfg)); // byte-identical
//!
//! // Decode row-at-a-time from any io::Read.
//! let mut dec = StreamDecoder::new(&bytes[..]).unwrap();
//! let mut row = vec![0u16; 32];
//! for y in 0..32 {
//!     dec.next_row(&mut row).unwrap();
//!     assert_eq!(&row[..], img.row(y));
//! }
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::codec::{CodecConfig, MAX_CODE_PADDING_BITS};
use crate::container::{header_bytes, read_header, CodecError, ContainerHeader};
use crate::hwpipe::{HwDecoder, HwEncoder};
use cbic_arith::{BinaryDecoder, BinaryEncoder};
use cbic_bitio::{BitSink, BitSource, StreamBitReader, StreamBitWriter};
use cbic_image::{Image, ImageView};
use std::io::{self, Read, Write};

/// Streaming encoder: consumes pixel rows, emits the standard `CBIC`
/// container incrementally into an [`io::Write`].
///
/// Memory is bounded to the hardware model's state (three line buffers,
/// the context store, the estimator trees) plus a 4 KiB output buffer —
/// nothing scales with image height.
#[derive(Debug)]
pub struct StreamEncoder<W: Write> {
    hw: HwEncoder<BinaryEncoder<StreamBitWriter<W>>>,
    height: usize,
    rows_in: usize,
    header_len: usize,
}

/// What one finished [`StreamEncoder`] wrote — the streaming counterpart
/// of [`EncodeStats`](crate::EncodeStats), returned by
/// [`StreamEncoder::finish_with_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct StreamEncodeStats {
    /// Exact entropy-coded payload bits, including the coder's flush tail
    /// (excluding byte-align padding) — matches
    /// [`EncodeStats::payload_bits`](crate::EncodeStats) for the same
    /// pixels.
    pub payload_bits: u64,
    /// Bytes following the fixed container header: the padded payload —
    /// the quantity `cbic info` reports as "payload".
    pub payload_bytes: u64,
    /// Total container bytes written (header + payload).
    pub container_bytes: u64,
}

impl<W: Write> StreamEncoder<W> {
    /// Writes the container header for a `width`×`height` 8-bit image and
    /// prepares the pixel pipeline.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the header, and returns
    /// [`io::ErrorKind::InvalidInput`] for dimensions no decoder would
    /// accept — beyond the container's 2^28-pixel ceiling (or a `u32`
    /// header field) — so an hours-long encode cannot end in an
    /// undecodable container.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the configuration is invalid.
    pub fn new(out: W, width: usize, height: usize, cfg: &CodecConfig) -> io::Result<Self> {
        Self::with_depth(out, width, height, 8, cfg)
    }

    /// [`Self::new`] for an arbitrary 8–16-bit sample depth (the header
    /// gains the version-2 bit-depth field for depths other than 8).
    ///
    /// # Errors
    ///
    /// As [`Self::new`].
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, the depth is outside `1..=16`,
    /// or the configuration is invalid.
    pub fn with_depth(
        mut out: W,
        width: usize,
        height: usize,
        bit_depth: u8,
        cfg: &CodecConfig,
    ) -> io::Result<Self> {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        crate::container::check_container_dimensions(width, height)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let (hdr, len) = header_bytes(cfg, width, height, bit_depth);
        out.write_all(&hdr[..len])?;
        Ok(Self {
            hw: HwEncoder::with_sink(width, bit_depth, cfg, StreamBitWriter::new(out)),
            height,
            rows_in: 0,
            header_len: len,
        })
    }

    /// [`Self::with_depth`] for callers written when the coder had lanes.
    /// Coder lanes are retired, so `lanes` must be 1.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] for any other `lanes`, otherwise as
    /// [`Self::new`].
    ///
    /// # Panics
    ///
    /// As [`Self::with_depth`].
    pub fn with_lanes(
        out: W,
        width: usize,
        height: usize,
        bit_depth: u8,
        cfg: &CodecConfig,
        lanes: usize,
    ) -> io::Result<Self> {
        if lanes != 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("lane count {lanes}: coder lanes are retired, only 1 is valid"),
            ));
        }
        Self::with_depth(out, width, height, bit_depth, cfg)
    }

    /// Row width this encoder expects.
    pub fn width(&self) -> usize {
        self.hw.width()
    }

    /// Total rows the header promised.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Sample bit depth the header declared.
    pub fn bit_depth(&self) -> u8 {
        self.hw.bit_depth()
    }

    /// Rows consumed so far.
    pub fn rows_pushed(&self) -> usize {
        self.rows_in
    }

    /// Payload bits emitted so far (pre-padding) — the streaming
    /// equivalent of [`EncodeStats::payload_bits`](crate::EncodeStats),
    /// short only of the coder's final flush tail
    /// ([`finish_with_stats`](Self::finish_with_stats) settles the exact
    /// total including it).
    pub fn payload_bits(&self) -> u64 {
        self.hw.sink().bits_written()
    }

    /// Encodes one raster row.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when a sample exceeds the declared
    /// bit depth (an oversized sample would silently wrap modulo the
    /// sample range and break losslessness — rejected before any of the
    /// row is coded), and any I/O error the underlying writer hit while
    /// this row's bits were flushed.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the encoder width or all
    /// `height` rows were already pushed.
    pub fn push_row(&mut self, row: &[u16]) -> io::Result<()> {
        assert_eq!(row.len(), self.width(), "row length mismatch");
        assert!(
            self.rows_in < self.height,
            "all {} rows already pushed",
            self.height
        );
        let max_val = crate::remap::half_for_depth(self.bit_depth()) as u32 * 2 - 1;
        if let Some(&bad) = row.iter().find(|&&p| u32::from(p) > max_val) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "sample {bad} exceeds the {}-bit maximum {max_val}",
                    self.bit_depth()
                ),
            ));
        }
        self.rows_in += 1;
        for &pixel in row {
            self.hw.push_pixel(pixel);
        }
        self.hw.sink_mut().take_error()
    }

    /// Flushes the arithmetic coder and the transport, returning the
    /// wrapped writer.
    ///
    /// # Errors
    ///
    /// Returns any latched or final I/O error.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `height` rows were pushed — finishing early
    /// would emit a container whose header lies about its pixel count.
    pub fn finish(self) -> io::Result<W> {
        Ok(self.finish_with_stats()?.0)
    }

    /// [`finish`](Self::finish) that also reports what was written: the
    /// exact payload bits (flush tails included) and the payload/container
    /// byte counts, so a caller reporting sizes — the CLI, a service —
    /// needs no second pass over the output. The byte counts match what
    /// `cbic info` derives from the container.
    ///
    /// # Errors
    ///
    /// As [`finish`](Self::finish).
    ///
    /// # Panics
    ///
    /// As [`finish`](Self::finish).
    pub fn finish_with_stats(self) -> io::Result<(W, StreamEncodeStats)> {
        assert_eq!(
            self.rows_in, self.height,
            "only {} of {} rows were pushed",
            self.rows_in, self.height
        );
        let mut writer = self.hw.finish_sink();
        writer.take_error()?;
        // The coder flush already ran, so this is the exact pre-padding
        // total; `finish` pads to the byte boundary.
        let payload_bits = writer.bits_written();
        let payload_bytes = payload_bits.div_ceil(8);
        let out = writer.finish()?;
        Ok((
            out,
            StreamEncodeStats {
                payload_bits,
                payload_bytes,
                container_bytes: self.header_len as u64 + payload_bytes,
            },
        ))
    }
}

/// Streaming decoder: reads the standard `CBIC` container incrementally
/// from an [`io::Read`], producing reconstructed rows one at a time.
///
/// The compressed stream is never slurped: bytes are pulled through a
/// 4 KiB refill buffer exactly as the arithmetic decoder consumes them.
#[derive(Debug)]
pub struct StreamDecoder<R: Read> {
    hw: HwDecoder<BinaryDecoder<StreamBitReader<R>>>,
    cfg: CodecConfig,
    width: usize,
    height: usize,
    bit_depth: u8,
    rows_out: usize,
}

impl<R: Read> StreamDecoder<R> {
    /// Reads and validates the container header, preparing the pixel
    /// pipeline.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the stream ends inside the header,
    /// [`CodecError::Io`] on transport errors, and the usual header errors
    /// ([`CodecError::BadMagic`], the retired version 3, invalid fields,
    /// …) otherwise.
    pub fn new(mut input: R) -> Result<Self, CodecError> {
        let hdr = read_header(&mut input)?;
        Self::with_header(hdr, input)
    }

    /// [`StreamDecoder::new`] for a source whose header was already
    /// consumed — the shared entry point of the dispatching callers
    /// ([`decompress_from`], the sessions), which must inspect the header
    /// before choosing a decoder.
    ///
    /// # Errors
    ///
    /// As [`StreamDecoder::new`]; a version-4 tiled container is
    /// [`CodecError::InvalidHeader`] here (its index wants random access,
    /// not row streaming) — route it to [`crate::grid`] instead.
    pub(crate) fn with_header(hdr: ContainerHeader, input: R) -> Result<Self, CodecError> {
        if hdr.tile.is_some() {
            return Err(CodecError::InvalidHeader(
                "version-4 tiled container: use the grid decoder".into(),
            ));
        }
        Ok(Self {
            hw: HwDecoder::with_source(
                StreamBitReader::new(input),
                hdr.width,
                hdr.bit_depth,
                &hdr.cfg,
            ),
            cfg: hdr.cfg,
            width: hdr.width,
            height: hdr.height,
            bit_depth: hdr.bit_depth,
            rows_out: 0,
        })
    }

    /// Image dimensions declared by the header.
    pub fn dimensions(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Sample bit depth declared by the header.
    pub fn bit_depth(&self) -> u8 {
        self.bit_depth
    }

    /// Codec configuration carried by the header.
    pub fn config(&self) -> &CodecConfig {
        &self.cfg
    }

    /// Rows decoded so far.
    pub fn rows_decoded(&self) -> usize {
        self.rows_out
    }

    /// Decodes the next raster row into `buf`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Io`] if the transport failed mid-row, and
    /// [`CodecError::Truncated`] as soon as the decoder has had to invent
    /// more padding bits than any complete payload requires (the stream
    /// ended early, so this row and every later one would be
    /// fabrication). Padding only grows, so checking every row rejects
    /// exactly the streams a final-row check would, and a container whose
    /// header promises far more pixels than its payload holds fails
    /// within a row or two instead of after the whole image.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the image width or all rows were
    /// already decoded.
    pub fn next_row(&mut self, buf: &mut [u16]) -> Result<(), CodecError> {
        assert_eq!(buf.len(), self.width, "row buffer length mismatch");
        assert!(
            self.rows_out < self.height,
            "all {} rows already decoded",
            self.height
        );
        self.rows_out += 1;
        for slot in buf.iter_mut() {
            *slot = self.hw.next_pixel();
        }
        if let Some(e) = self.hw.source().io_error() {
            return Err(CodecError::io(e));
        }
        if self.hw.source().padding_bits() > MAX_CODE_PADDING_BITS {
            return Err(CodecError::Truncated);
        }
        Ok(())
    }

    /// Decodes every remaining row into a full [`Image`] (convenience for
    /// callers that want the bounded-memory transport but a materialized
    /// result).
    ///
    /// # Errors
    ///
    /// As [`Self::next_row`].
    pub fn decode_all(mut self) -> Result<Image, CodecError> {
        let mut img = Image::with_depth(self.width, self.height, self.bit_depth);
        let mut row = vec![0u16; self.width];
        for y in self.rows_out..self.height {
            self.next_row(&mut row)?;
            img.row_mut(y).copy_from_slice(&row);
        }
        Ok(img)
    }
}

/// Streams the pixels of `img` into `out` as a standard container,
/// byte-identical to [`compress`](crate::compress) but without
/// materializing the output.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn compress_to<W: Write>(img: ImageView<'_>, cfg: &CodecConfig, out: W) -> io::Result<W> {
    let mut enc = StreamEncoder::with_depth(out, img.width(), img.height(), img.bit_depth(), cfg)?;
    for row in img.rows() {
        enc.push_row(row)?;
    }
    enc.finish()
}

/// Decodes a standard container from `input` without slurping it.
///
/// # Errors
///
/// As [`StreamDecoder::new`] and [`StreamDecoder::next_row`]. A
/// version-4 tiled container is routed to the grid decoder
/// (sequentially — pass a [`Parallelism`](cbic_image::Parallelism) via
/// [`grid::decompress_grid`](crate::grid::decompress_grid) to decode its
/// tiles in parallel).
pub fn decompress_from<R: Read>(mut input: R) -> Result<Image, CodecError> {
    let hdr = read_header(&mut input)?;
    if hdr.tile.is_some() {
        return crate::grid::decode_grid_after_header(
            &hdr,
            &mut input,
            cbic_image::Parallelism::Sequential,
        );
    }
    StreamDecoder::with_header(hdr, input)?.decode_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{compress, HEADER_LEN};
    use cbic_image::corpus::CorpusImage;

    #[test]
    fn streaming_output_is_byte_identical_to_buffered() {
        let cfg = CodecConfig::default();
        for (name, img) in cbic_image::corpus::generate(48) {
            let buffered = compress(img.view(), &cfg);
            let streamed = compress_to(img.view(), &cfg, Vec::new()).unwrap();
            assert_eq!(streamed, buffered, "{name:?}");
        }
    }

    #[test]
    fn streaming_roundtrip_edge_shapes() {
        let cfg = CodecConfig::default();
        for (w, h) in [(1, 1), (1, 17), (17, 1), (3, 5), (64, 2)] {
            let img = Image::from_fn(w, h, |x, y| (x * 41 + y * 13) as u8);
            let bytes = compress_to(img.view(), &cfg, Vec::new()).unwrap();
            assert_eq!(decompress_from(&bytes[..]).unwrap(), img, "{w}x{h}");
        }
    }

    #[test]
    fn sixteen_bit_streams_roundtrip_and_match_buffered() {
        let cfg = CodecConfig::default();
        for depth in [10u8, 12, 16] {
            let img = Image::from_fn16(24, 18, depth, |x, y| {
                ((x as u32 * 331 + y as u32 * 911) % (1u32 << depth.min(15))) as u16
            });
            let buffered = compress(img.view(), &cfg);
            let streamed = compress_to(img.view(), &cfg, Vec::new()).unwrap();
            assert_eq!(streamed, buffered, "depth {depth}");
            let back = decompress_from(&streamed[..]).unwrap();
            assert_eq!(back, img, "depth {depth}");
            assert_eq!(back.bit_depth(), depth);
        }
    }

    #[test]
    fn decoder_reads_buffered_streams_and_vice_versa() {
        let img = CorpusImage::Goldhill.generate(40, 40);
        let cfg = CodecConfig {
            texture_bits: 3,
            ..CodecConfig::default()
        };
        let buffered = compress(img.view(), &cfg);
        // Streaming decoder on buffered bytes.
        assert_eq!(decompress_from(&buffered[..]).unwrap(), img);
        // Buffered decoder on streamed bytes.
        let streamed = compress_to(img.view(), &cfg, Vec::new()).unwrap();
        assert_eq!(crate::container::decompress(&streamed).unwrap(), img);
    }

    #[test]
    fn decoder_carries_header_config() {
        let img = CorpusImage::Zelda.generate(16, 16);
        let cfg = CodecConfig {
            error_feedback: false,
            ..CodecConfig::default()
        };
        let bytes = compress_to(img.view(), &cfg, Vec::new()).unwrap();
        let dec = StreamDecoder::new(&bytes[..]).unwrap();
        assert_eq!(dec.dimensions(), (16, 16));
        assert_eq!(dec.bit_depth(), 8);
        assert_eq!(dec.config(), &cfg);
    }

    #[test]
    fn truncated_header_errors() {
        let img = CorpusImage::Boat.generate(16, 16);
        let bytes = compress(img.view(), &CodecConfig::default());
        for cut in [0, 4, HEADER_LEN - 1] {
            assert!(
                matches!(
                    StreamDecoder::new(&bytes[..cut]).err(),
                    Some(CodecError::Truncated)
                ),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn truncated_payload_errors_not_panics() {
        let img = CorpusImage::Barb.generate(48, 48);
        let bytes = compress(img.view(), &CodecConfig::default());
        assert!(bytes.len() > HEADER_LEN + 64, "test needs a real payload");
        let cut = &bytes[..bytes.len() / 2];
        assert_eq!(
            decompress_from(cut).err(),
            Some(CodecError::Truncated),
            "mid-payload EOF must surface as Truncated"
        );
    }

    #[test]
    fn flipped_magic_errors() {
        let img = CorpusImage::Boat.generate(16, 16);
        let mut bytes = compress(img.view(), &CodecConfig::default());
        bytes[0] ^= 0xFF;
        assert_eq!(
            StreamDecoder::new(&bytes[..]).err(),
            Some(CodecError::BadMagic)
        );
    }

    #[test]
    fn io_error_mid_stream_surfaces() {
        struct FailAfter(Vec<u8>, usize);
        impl Read for FailAfter {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Err(io::Error::other("link dropped"));
                }
                let n = buf.len().min(self.0.len() - self.1).min(16);
                buf[..n].copy_from_slice(&self.0[self.1..self.1 + n]);
                self.1 += n;
                Ok(n)
            }
        }
        let img = CorpusImage::Lena.generate(64, 64);
        let bytes = compress(img.view(), &CodecConfig::default());
        let half = bytes.len() / 2;
        let result = decompress_from(FailAfter(bytes[..half].to_vec(), 0));
        assert!(matches!(result, Err(CodecError::Io(..))), "got {result:?}");
    }

    #[test]
    fn push_row_rejects_samples_beyond_the_depth() {
        let mut enc =
            StreamEncoder::with_depth(Vec::new(), 4, 2, 10, &CodecConfig::default()).unwrap();
        let err = enc.push_row(&[0, 1023, 1024, 0]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(enc.rows_pushed(), 0, "nothing of the bad row was coded");
        // A legal row still encodes afterwards.
        enc.push_row(&[0, 1023, 1, 2]).unwrap();
        assert_eq!(enc.rows_pushed(), 1);
    }

    #[test]
    fn with_lanes_accepts_only_one_lane() {
        let cfg = CodecConfig::default();
        for lanes in [0, 2, 4] {
            let err = StreamEncoder::with_lanes(Vec::new(), 4, 4, 8, &cfg, lanes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "lanes {lanes}");
        }
        let mut enc = StreamEncoder::with_lanes(Vec::new(), 4, 1, 8, &cfg, 1).unwrap();
        enc.push_row(&[1, 2, 3, 4]).unwrap();
        let img = Image::from_fn(4, 1, |x, _| x as u8 + 1);
        assert_eq!(enc.finish().unwrap(), compress(img.view(), &cfg));
    }

    #[test]
    #[should_panic(expected = "rows were pushed")]
    fn finishing_early_panics() {
        let enc = StreamEncoder::new(Vec::new(), 4, 4, &CodecConfig::default()).unwrap();
        let _ = enc.finish();
    }

    #[test]
    fn payload_bits_match_buffered_stats() {
        let img = CorpusImage::Peppers.generate(32, 32);
        let cfg = CodecConfig::default();
        let (_, stats) = crate::codec::encode_raw(img.view(), &cfg);
        let mut enc = StreamEncoder::new(Vec::new(), 32, 32, &cfg).unwrap();
        for y in 0..32 {
            enc.push_row(img.row(y)).unwrap();
        }
        // The final coder flush adds a few bits after the last row, so the
        // running count must be within the flush slack of the exact total.
        assert!(enc.payload_bits() <= stats.payload_bits);
        assert!(enc.payload_bits() + 64 > stats.payload_bits);
    }
}
