//! Bounded-memory streaming codec over `std::io::Read` / `std::io::Write`.
//!
//! The paper's Fig. 3 architecture is a stream machine: three rotating line
//! buffers, one pixel per cycle, bits trickling out of the arithmetic coder
//! as they resolve. [`compress`](crate::compress)/[`decompress`](crate::decompress)
//! hand over fully materialized buffers, which caps image size by RAM.
//! This module exposes the hardware's actual shape in software:
//!
//! * [`StreamEncoder`] — feed pixel rows, bits flow into any `io::Write`;
//! * [`StreamDecoder`] — pull reconstructed rows out of any `io::Read`.
//!   It is also the flat leg of every whole-container reader:
//!   [`decompress`](crate::decompress) and the proposed codec's
//!   `Codec::decode` run [`StreamDecoder::decode_all`].
//!
//! Both keep **O(width + estimator tables)** of state — the two rows above
//! the current one (with the caller's row, the paper's three line buffers)
//! plus one 4 KiB transport buffer — independent of image height, so a
//! 64-megapixel image pipes through in a few hundred kilobytes of codec
//! memory. Each row runs through the engine's row step, the same pixel
//! loop every buffered path runs. Rows are `u16` samples at any 8–16-bit
//! depth; the emitted container is **byte-identical** to
//! [`compress`](crate::compress) and the
//! [`EncoderSession`](crate::EncoderSession) (same header, same
//! arithmetic payload), which the differential test suite and the golden
//! corpus pin down.
//!
//! # Two encoder stages
//!
//! The paper's modelling lines run beside its binary arithmetic coder,
//! which is the serial stage at one decision per clock. The encoder makes
//! the same cut. The model and the estimator trees run on the caller's
//! thread. When [`std::thread::available_parallelism`] reports more than
//! one CPU, the binary coder and the bit output run on one coder thread:
//! the caller's thread packs each coded decision into a 64-bit word and
//! ships chunks of 16 Ki words over a queue that holds at most 4, and the
//! coder thread sends back the bytes it wrote, which the caller's thread
//! writes into `W` (so `W` needs no `Send`). The queue adds a constant
//! 640 KiB. On one CPU the two stages could only take turns, so the coder
//! runs inline there. Either way the bytes are the same. The grid's
//! [`compress_grid_two_stage`](crate::grid::compress_grid_two_stage) makes
//! the same cut for a lone tile worker, one coder stream per tile. The
//! CLI's `--threads N` counts the grid's tile workers, not this thread.
//! The decoder stays on one thread: each decoded bit steers the next tree
//! step, so it overlaps the next level's loads and scaling, not the bit.
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
//! let mut enc = StreamEncoder::with_depth(Vec::new(), 32, 32, 8, &cfg)?;
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
//! # Ok::<(), cbic_image::CbicError>(())
//! ```

use crate::codec::CodecConfig;
use crate::coder_thread::{use_coder_thread, CoderThread};
use crate::container::{header_bytes, read_header, ContainerHeader};
use crate::engine::{DecoderState, EncoderState};
use cbic_arith::{BinaryDecoder, BinaryEncoder, MAX_PADDING_BITS};
use cbic_bitio::{BitSink, BitSource, StreamBitReader, StreamBitWriter};
use cbic_image::{max_val_for, CbicError, Image, ImageError};
use std::io::{self, BufReader, Read, Write};

/// Streaming encoder: consumes pixel rows, emits the standard `CBIC`
/// container incrementally into an [`io::Write`].
///
/// The model and the estimator trees run on the caller's thread. When
/// more than one CPU is available, the binary arithmetic coder and the
/// bit output run on one coder thread fed by a bounded queue of packed
/// decisions, and the bytes it writes come back to be written to `W` on
/// the caller's thread; on one CPU the coder runs inline. The bytes are
/// the same either way.
///
/// Memory is bounded to the engine state (the context store, the
/// estimator trees, the `e_W` row), the two rows above the next one, a
/// 4 KiB output buffer and, with the coder thread, its 640 KiB decision
/// queue — nothing scales with image height.
#[derive(Debug)]
pub struct StreamEncoder<W: Write> {
    state: EncoderState,
    coder: Coder<W>,
    /// Rows `y − 1` and `y − 2` for the next row `y`.
    above: [Vec<u16>; 2],
    height: usize,
    rows_in: usize,
    header_len: usize,
    /// Kind of the first write error: the container has had a gap since.
    failed: Option<io::ErrorKind>,
}

/// Where a [`StreamEncoder`]'s binary arithmetic coder runs.
#[derive(Debug)]
enum Coder<W: Write> {
    /// On the caller's thread, writing straight into `W`.
    Inline(BinaryEncoder<StreamBitWriter<W>>),
    /// On its own thread; the bytes it hands back are written into `W`
    /// here.
    Threaded(CoderThread, W),
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
    /// Writes the container header for a `width`×`height` image of
    /// `bit_depth`-bit samples (version 1 for 8 bits; other depths get the
    /// version-2 bit-depth field) and prepares the pixel pipeline.
    ///
    /// # Errors
    ///
    /// [`CbicError::Io`] when writing the header fails, and
    /// [`CbicError::InvalidContainer`] for dimensions no decoder would
    /// accept — beyond the container's 2^28-pixel ceiling (or a `u32`
    /// header field) — so an hours-long encode cannot end in an
    /// undecodable container.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, the depth is outside `1..=16`,
    /// or the configuration is invalid.
    pub fn with_depth(
        out: W,
        width: usize,
        height: usize,
        bit_depth: u8,
        cfg: &CodecConfig,
    ) -> Result<Self, CbicError> {
        Self::with_coder(out, width, height, bit_depth, cfg, use_coder_thread(1))
    }

    /// [`Self::with_depth`] with the coder on its own thread if
    /// `coder_thread` (and the platform can start one), else inline.
    pub(crate) fn with_coder(
        mut out: W,
        width: usize,
        height: usize,
        bit_depth: u8,
        cfg: &CodecConfig,
        coder_thread: bool,
    ) -> Result<Self, CbicError> {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        crate::container::check_container_dimensions(width, height)?;
        let (hdr, len) = header_bytes(cfg, width, height, bit_depth);
        out.write_all(&hdr[..len])?;
        let coder = match coder_thread.then(CoderThread::spawn).flatten() {
            Some(thread) => Coder::Threaded(thread, out),
            None => Coder::Inline(BinaryEncoder::new(StreamBitWriter::wrap(out))),
        };
        Ok(Self {
            state: EncoderState::new(width, bit_depth, cfg),
            coder,
            above: [vec![0; width], vec![0; width]],
            height,
            rows_in: 0,
            header_len: len,
            failed: None,
        })
    }

    /// [`Self::with_depth`] for callers written when the coder had lanes.
    /// Coder lanes are retired, so `lanes` must be 1.
    ///
    /// # Errors
    ///
    /// [`CbicError::InvalidContainer`] for any other `lanes`, otherwise as
    /// [`Self::with_depth`].
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
    ) -> Result<Self, CbicError> {
        if lanes != 1 {
            return Err(CbicError::InvalidContainer(format!(
                "lane count {lanes}: coder lanes are retired, only 1 is valid"
            )));
        }
        Self::with_depth(out, width, height, bit_depth, cfg)
    }

    /// Row width this encoder expects.
    pub fn width(&self) -> usize {
        self.above[0].len()
    }

    /// Total rows the header promised.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Sample bit depth the header declared.
    pub fn bit_depth(&self) -> u8 {
        self.state.bit_depth()
    }

    /// Rows consumed so far.
    pub fn rows_pushed(&self) -> usize {
        self.rows_in
    }

    /// Whether the binary arithmetic coder runs on its own thread (more
    /// than one CPU was available) rather than inline on the caller's.
    pub fn has_coder_thread(&self) -> bool {
        matches!(self.coder, Coder::Threaded(..))
    }

    /// Encodes one raster row.
    ///
    /// # Errors
    ///
    /// [`ImageError::SampleOutOfRange`] (as [`CbicError::Image`]) when a
    /// sample exceeds the declared bit depth (an oversized sample would
    /// silently wrap modulo the sample range and break losslessness —
    /// rejected before any of the row is coded), and [`CbicError::Io`] for
    /// any I/O error the underlying writer hit while this row's bits were
    /// flushed. Once a write has failed, the container has a gap: this and
    /// every later call fails with that error's kind
    /// ([`CbicError::io_kind`]).
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the encoder width or all
    /// `height` rows were already pushed.
    pub fn push_row(&mut self, row: &[u16]) -> Result<(), CbicError> {
        assert_eq!(row.len(), self.width(), "row length mismatch");
        assert!(
            self.rows_in < self.height,
            "all {} rows already pushed",
            self.height
        );
        let max_val = max_val_for(self.bit_depth());
        if let Some(&value) = row.iter().find(|&&p| p > max_val) {
            return Err(ImageError::SampleOutOfRange { value, max_val }.into());
        }
        let y = self.rows_in;
        let n1 = (y >= 1).then_some(&self.above[0][..]);
        let n2 = (y >= 2).then_some(&self.above[1][..]);
        let written = match &mut self.coder {
            Coder::Inline(enc) => {
                self.state.encode_row(enc, row, n1, n2);
                enc.sink_mut().take_error()
            }
            Coder::Threaded(coder, out) => {
                self.state.encode_row(coder, row, n1, n2);
                coder.poll();
                write_back(out, coder.bytes(), self.failed)
            }
        };
        self.above.swap(0, 1);
        self.above[0].copy_from_slice(row);
        self.rows_in += 1;
        latch(&mut self.failed, written)
    }

    /// Flushes the arithmetic coder and the transport, returning the
    /// wrapped writer.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error of the stream (see
    /// [`push_row`](Self::push_row)) or the final one.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `height` rows were pushed — finishing early
    /// would emit a container whose header lies about its pixel count.
    pub fn finish(self) -> Result<W, CbicError> {
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
    pub fn finish_with_stats(mut self) -> Result<(W, StreamEncodeStats), CbicError> {
        assert_eq!(
            self.rows_in, self.height,
            "only {} of {} rows were pushed",
            self.rows_in, self.height
        );
        // After the coder flush the bit count is the exact pre-padding
        // total; the bit writer's `finish` pads to the byte boundary.
        let (out, payload_bits) = match self.coder {
            Coder::Inline(enc) => {
                let writer = enc.finish();
                let bits = writer.bits_written();
                (writer.finish(), bits)
            }
            Coder::Threaded(mut coder, mut out) => {
                coder.end_stream();
                let (mut tail, bits) = coder.take_stream();
                coder.join();
                let written =
                    write_back(&mut out, &mut tail, self.failed).and_then(|()| out.flush());
                (written.map(|()| out), bits)
            }
        };
        let out = latch(&mut self.failed, out)?;
        let payload_bytes = payload_bits.div_ceil(8);
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

/// Writes the bytes the coder thread handed back into `out` and empties
/// `bytes`. After a failed write they are dropped instead: the container
/// already has a gap.
fn write_back<W: Write>(
    out: &mut W,
    bytes: &mut Vec<u8>,
    failed: Option<io::ErrorKind>,
) -> io::Result<()> {
    let written = match failed {
        None => out.write_all(bytes),
        Some(_) => Ok(()),
    };
    bytes.clear();
    written
}

/// Passes `result` on and keeps the kind of the first error in `failed`:
/// from then on every result is an error of that kind.
fn latch<T>(failed: &mut Option<io::ErrorKind>, result: io::Result<T>) -> Result<T, CbicError> {
    if let Some(kind) = *failed {
        return Err(io::Error::new(
            kind,
            "an earlier write failed, so the container is incomplete",
        )
        .into());
    }
    Ok(result.inspect_err(|e| *failed = Some(e.kind()))?)
}

/// Streaming decoder: reads the standard `CBIC` container incrementally
/// from an [`io::Read`], producing reconstructed rows one at a time.
///
/// The compressed stream is never slurped: bytes are pulled through a
/// 4 KiB refill buffer exactly as the arithmetic decoder consumes them.
/// Rows decode straight into the caller's buffer; the decoder keeps only
/// copies of the two rows above the next one.
#[derive(Debug)]
pub struct StreamDecoder<R: Read> {
    state: DecoderState,
    dec: BinaryDecoder<StreamBitReader<BufReader<R>>>,
    /// Rows `y − 1` and `y − 2` for the next row `y`.
    above: [Vec<u16>; 2],
    cfg: CodecConfig,
    height: usize,
    rows_out: usize,
}

impl<R: Read> StreamDecoder<R> {
    /// Reads and validates the container header, preparing the pixel
    /// pipeline.
    ///
    /// # Errors
    ///
    /// [`CbicError::Truncated`] when the stream ends inside the header,
    /// [`CbicError::Io`] on transport errors, and the usual header errors
    /// ([`CbicError::BadMagic`], the retired version 3, invalid fields,
    /// …) otherwise.
    pub fn new(mut input: R) -> Result<Self, CbicError> {
        let hdr = read_header(&mut input)?;
        Self::with_header(hdr, input)
    }

    /// [`StreamDecoder::new`] for a source whose header was already
    /// consumed — the flat leg of the readers that inspect the header
    /// before choosing a decoder ([`decompress`](crate::decompress), the
    /// proposed codec's `Codec::decode`, the ROI decoder).
    ///
    /// # Errors
    ///
    /// As [`StreamDecoder::new`]; a version-4 tiled container is
    /// [`CbicError::InvalidContainer`] here (its index wants random
    /// access, not row streaming) — route it to [`crate::grid`] instead.
    pub(crate) fn with_header(hdr: ContainerHeader, input: R) -> Result<Self, CbicError> {
        if hdr.tile.is_some() {
            return Err(CbicError::InvalidContainer(
                "version-4 tiled container: use the grid decoder".into(),
            ));
        }
        Ok(Self {
            state: DecoderState::new(hdr.width, hdr.bit_depth, &hdr.cfg),
            dec: BinaryDecoder::new(StreamBitReader::buffered(input)),
            above: [vec![0; hdr.width], vec![0; hdr.width]],
            cfg: hdr.cfg,
            height: hdr.height,
            rows_out: 0,
        })
    }

    /// Image dimensions declared by the header.
    pub fn dimensions(&self) -> (usize, usize) {
        (self.above[0].len(), self.height)
    }

    /// Sample bit depth declared by the header.
    pub fn bit_depth(&self) -> u8 {
        self.state.bit_depth()
    }

    /// Codec configuration carried by the header.
    pub fn config(&self) -> &CodecConfig {
        &self.cfg
    }

    /// Rows decoded so far.
    pub fn rows_decoded(&self) -> usize {
        self.rows_out
    }

    /// Decodes the next raster row into `buf`, overwriting whatever it
    /// held.
    ///
    /// # Errors
    ///
    /// [`CbicError::Io`] if the transport failed mid-row, and
    /// [`CbicError::Truncated`] as soon as the decoder has had to invent
    /// more padding bits than any complete payload requires
    /// ([`MAX_PADDING_BITS`]: the stream ended early, so this row and
    /// every later one would be fabrication). Padding only grows, so checking every row rejects
    /// exactly the streams a final-row check would, and a container whose
    /// header promises far more pixels than its payload holds fails
    /// within a row or two instead of after the whole image.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the image width or all rows were
    /// already decoded.
    pub fn next_row(&mut self, buf: &mut [u16]) -> Result<(), CbicError> {
        assert_eq!(buf.len(), self.above[0].len(), "row buffer length mismatch");
        assert!(
            self.rows_out < self.height,
            "all {} rows already decoded",
            self.height
        );
        let y = self.rows_out;
        let (n1, n2) = (&self.above[0][..], &self.above[1][..]);
        self.state.decode_row(
            &mut self.dec,
            buf,
            (y >= 1).then_some(n1),
            (y >= 2).then_some(n2),
        );
        self.above.swap(0, 1);
        self.above[0].copy_from_slice(buf);
        self.rows_out += 1;
        if let Some(e) = self.dec.source().io_error() {
            // The reader keeps its error: rebuild it with its kind.
            return Err(io::Error::new(e.kind(), e.to_string()).into());
        }
        if self.dec.source().padding_bits() > MAX_PADDING_BITS {
            return Err(CbicError::Truncated);
        }
        Ok(())
    }

    /// Decodes every remaining row into a full [`Image`] (convenience for
    /// callers that want the bounded-memory transport but a materialized
    /// result), stopping at the first row that fails.
    ///
    /// # Errors
    ///
    /// As [`Self::next_row`].
    pub fn decode_all(mut self) -> Result<Image, CbicError> {
        let (width, height) = self.dimensions();
        let mut img = Image::with_depth(width, height, self.bit_depth());
        let decoded = (self.rows_out..height).try_for_each(|y| self.next_row(img.row_mut(y)));
        #[cfg(test)]
        crate::codec::tests::ROWS_DECODED.with(|r| r.set(self.rows_out));
        decoded.map(|()| img)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coder_thread::CHUNK;
    use crate::container::{compress, HEADER_LEN};
    use cbic_bitio::BitWriter;
    use cbic_image::corpus::CorpusImage;

    const _: () = {
        const fn assert_send<T: Send>() {}
        assert_send::<StreamEncoder<Vec<u8>>>();
    };

    /// Both coder placements: inline, then on its own thread.
    const PLACEMENTS: [bool; 2] = [false, true];

    /// `img` through a [`StreamEncoder`] whose coder runs on its own
    /// thread if `coder_thread`, else inline.
    fn stream_with(img: &Image, cfg: &CodecConfig, coder_thread: bool) -> Vec<u8> {
        let (w, h) = img.dimensions();
        let mut enc =
            StreamEncoder::with_coder(Vec::new(), w, h, img.bit_depth(), cfg, coder_thread)
                .unwrap();
        for row in img.view().rows() {
            enc.push_row(row).unwrap();
        }
        enc.finish().unwrap()
    }

    /// `img` through a [`StreamEncoder`] with its coder placed by the rule.
    fn stream(img: &Image, cfg: &CodecConfig) -> Vec<u8> {
        stream_with(img, cfg, use_coder_thread(1))
    }

    /// The rows of a container pulled out of a [`StreamDecoder`].
    fn stream_decode<R: Read>(input: R) -> Result<Image, CbicError> {
        StreamDecoder::new(input)?.decode_all()
    }

    /// A reproducible pseudo-random byte for sample `i`.
    fn noise(i: usize) -> u8 {
        ((i as u64)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407)
            >> 56) as u8
    }

    #[test]
    fn streams_spanning_many_chunks_match_compress_in_both_placements() {
        let cfg = CodecConfig::default();
        let mut inputs: Vec<(String, Image)> = cbic_image::corpus::generate(512)
            .into_iter()
            .map(|(class, img)| (format!("{class:?} 512x512"), img))
            .collect();
        let ramp = |i: usize| ((i / 97) as u8).wrapping_mul(13) ^ (noise(i) & 0x3F);
        inputs.push(("1x40000".into(), Image::from_fn(1, 40_000, |_, y| ramp(y))));
        inputs.push(("40000x1".into(), Image::from_fn(40_000, 1, |x, _| ramp(x))));
        inputs.push((
            "16-bit 300x200".into(),
            Image::from_fn16(300, 200, 16, |x, y| {
                ((x * 211 + y * 97) as u16) ^ u16::from(noise(x * 200 + y))
            }),
        ));
        for (name, img) in &inputs {
            let coded = crate::codec::encode_model_only(img.view(), &cfg).coded_decisions;
            assert!(coded > 8 * CHUNK as u64, "{name}: {coded} coded decisions");
            let expected = compress(img.view(), &cfg);
            for coder_thread in PLACEMENTS {
                assert!(
                    stream_with(img, &cfg, coder_thread) == expected,
                    "{name}, coder thread {coder_thread}"
                );
            }
        }
    }

    #[test]
    fn finished_payload_bits_are_exact_in_both_placements() {
        let img = CorpusImage::Mandrill.generate(128, 128);
        let (w, h) = img.dimensions();
        let cfg = CodecConfig::default();
        let mut reference = BinaryEncoder::new(BitWriter::new());
        EncoderState::new(w, 8, &cfg).encode_view(img.view(), &mut reference);
        assert!(reference.coded_decisions() > 4 * CHUNK as u64);
        let bits = reference.finish().bits_written();
        for coder_thread in PLACEMENTS {
            let mut enc =
                StreamEncoder::with_coder(Vec::new(), w, h, 8, &cfg, coder_thread).unwrap();
            for row in img.view().rows() {
                enc.push_row(row).unwrap();
            }
            let (_, stats) = enc.finish_with_stats().unwrap();
            assert_eq!(stats.payload_bits, bits, "coder thread {coder_thread}");
        }
    }

    /// A writer that takes `budget` bytes and then fails with `kind`;
    /// with `flush_fails`, its `flush` fails instead.
    struct Failing {
        budget: usize,
        kind: io::ErrorKind,
        flush_fails: bool,
    }

    impl Write for Failing {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::Error::new(self.kind, "planted write failure"));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            match self.flush_fails {
                true => Err(io::Error::new(self.kind, "planted flush failure")),
                false => Ok(()),
            }
        }
    }

    #[test]
    fn after_a_failed_write_every_call_fails_with_its_kind_in_both_placements() {
        let img = CorpusImage::Barb.generate(128, 128);
        let (w, h) = img.dimensions();
        let cfg = CodecConfig::default();
        let total = compress(img.view(), &cfg).len();
        assert!(
            total > 2 * 4096,
            "the payload must outgrow the bit writer's buffer"
        );
        let kind = io::ErrorKind::StorageFull;
        for coder_thread in PLACEMENTS {
            for (at, budget, flush_fails) in [
                ("the header", 0, false),
                ("mid-payload", total / 2, false),
                ("the last byte", total - 1, false),
                ("the final flush", total, true),
            ] {
                let out = Failing {
                    budget,
                    kind,
                    flush_fails,
                };
                let results: Vec<Result<(), CbicError>> =
                    match StreamEncoder::with_coder(out, w, h, 8, &cfg, coder_thread) {
                        Err(e) => vec![Err(e)],
                        Ok(mut enc) => {
                            let mut results: Vec<_> =
                                img.view().rows().map(|row| enc.push_row(row)).collect();
                            results.push(enc.finish_with_stats().map(drop));
                            results
                        }
                    };
                let context = format!("failure at {at}, coder thread {coder_thread}");
                let first = results.iter().position(Result::is_err);
                let first = first.unwrap_or_else(|| panic!("{context}: every call returned Ok"));
                for result in &results[first..] {
                    let err = result.as_ref().expect_err(&context);
                    assert!(matches!(err, CbicError::Io(_)), "{context}: {err:?}");
                    assert_eq!(err.io_kind(), Some(kind), "{context}: {err}");
                }
            }
        }
    }

    #[test]
    fn dropping_an_unfinished_encoder_does_not_panic() {
        let img = CorpusImage::Mandrill.generate(128, 128);
        let cfg = CodecConfig::default();
        for coder_thread in PLACEMENTS {
            for rows in [0, 1, 100] {
                let mut enc =
                    StreamEncoder::with_coder(Vec::new(), 128, 128, 8, &cfg, coder_thread).unwrap();
                for row in img.view().rows().take(rows) {
                    enc.push_row(row).unwrap();
                }
                drop(enc);
            }
        }
    }

    #[test]
    fn streaming_output_is_byte_identical_to_buffered() {
        let cfg = CodecConfig::default();
        for (name, img) in cbic_image::corpus::generate(48) {
            let buffered = compress(img.view(), &cfg);
            let streamed = stream(&img, &cfg);
            assert_eq!(streamed, buffered, "{name:?}");
        }
    }

    #[test]
    fn streaming_roundtrip_edge_shapes() {
        let cfg = CodecConfig::default();
        for (w, h) in [(1, 1), (1, 17), (17, 1), (3, 5), (64, 2)] {
            let img = Image::from_fn(w, h, |x, y| (x * 41 + y * 13) as u8);
            let bytes = stream(&img, &cfg);
            assert_eq!(stream_decode(&bytes[..]).unwrap(), img, "{w}x{h}");
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
            let streamed = stream(&img, &cfg);
            assert_eq!(streamed, buffered, "depth {depth}");
            let back = stream_decode(&streamed[..]).unwrap();
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
        assert_eq!(stream_decode(&buffered[..]).unwrap(), img);
        // Buffered raw decoder on streamed bytes.
        let streamed = stream(&img, &cfg);
        let back = crate::codec::decode_raw(&streamed[HEADER_LEN..], 40, 40, 8, &cfg);
        assert_eq!(back, img);
    }

    #[test]
    fn decoder_carries_header_config() {
        let img = CorpusImage::Zelda.generate(16, 16);
        let cfg = CodecConfig {
            error_feedback: false,
            ..CodecConfig::default()
        };
        let bytes = stream(&img, &cfg);
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
                    Some(CbicError::Truncated)
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
        assert!(
            matches!(stream_decode(cut), Err(CbicError::Truncated)),
            "mid-payload EOF must surface as Truncated"
        );
    }

    #[test]
    fn flipped_magic_errors() {
        let img = CorpusImage::Boat.generate(16, 16);
        let mut bytes = compress(img.view(), &CodecConfig::default());
        bytes[0] ^= 0xFF;
        assert!(matches!(
            StreamDecoder::new(&bytes[..]).err(),
            Some(CbicError::BadMagic { found: Some(_) })
        ));
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
        let result = stream_decode(FailAfter(bytes[..half].to_vec(), 0));
        assert!(matches!(result, Err(CbicError::Io(..))), "got {result:?}");
    }

    #[test]
    fn push_row_rejects_samples_beyond_the_depth() {
        let mut enc =
            StreamEncoder::with_depth(Vec::new(), 4, 2, 10, &CodecConfig::default()).unwrap();
        let err = enc.push_row(&[0, 1023, 1024, 0]).unwrap_err();
        assert!(
            matches!(
                err,
                CbicError::Image(ImageError::SampleOutOfRange {
                    value: 1024,
                    max_val: 1023
                })
            ),
            "{err:?}"
        );
        assert_eq!(enc.rows_pushed(), 0, "nothing of the bad row was coded");
        // A legal row still encodes afterwards.
        enc.push_row(&[0, 1023, 1, 2]).unwrap();
        assert_eq!(enc.rows_pushed(), 1);
    }

    #[test]
    fn next_row_reads_only_what_it_decoded_into_the_callers_buffer() {
        // Rows decode in place into the caller's buffer, so the decoder
        // must read only the causal prefix it has already written there.
        let cfg = CodecConfig::default();
        for depth in [1u8, 8, 16] {
            let max = u16::MAX >> (16 - depth);
            for width in 1..=5 {
                let img = Image::from_fn16(width, 6, depth, |x, y| {
                    ((x as u32 * 7919 + y as u32 * 104_729) % (u32::from(max) + 1)) as u16
                });
                let bytes = stream(&img, &cfg);
                let mut dec = StreamDecoder::new(&bytes[..]).unwrap();
                for y in 0..img.height() {
                    let mut row = vec![max; width];
                    dec.next_row(&mut row).unwrap();
                    assert_eq!(
                        &row[..],
                        img.row(y),
                        "depth {depth}, width {width}, row {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn with_lanes_accepts_only_one_lane() {
        let cfg = CodecConfig::default();
        for lanes in [0, 2, 4] {
            let err = StreamEncoder::with_lanes(Vec::new(), 4, 4, 8, &cfg, lanes).unwrap_err();
            assert!(
                matches!(&err, CbicError::InvalidContainer(m) if m.contains("lanes are retired")),
                "lanes {lanes}: {err:?}"
            );
        }
        let mut enc = StreamEncoder::with_lanes(Vec::new(), 4, 1, 8, &cfg, 1).unwrap();
        enc.push_row(&[1, 2, 3, 4]).unwrap();
        let img = Image::from_fn(4, 1, |x, _| x as u8 + 1);
        assert_eq!(enc.finish().unwrap(), compress(img.view(), &cfg));
    }

    #[test]
    #[should_panic(expected = "rows were pushed")]
    fn finishing_early_panics() {
        let enc = StreamEncoder::with_depth(Vec::new(), 4, 4, 8, &CodecConfig::default()).unwrap();
        let _ = enc.finish();
    }
}
