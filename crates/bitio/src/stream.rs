//! The one MSB-first bit writer and the one bit reader, over `std::io`.
//!
//! [`StreamBitWriter`] stages bits in a 64-bit register, collects whole
//! registers in a small fixed buffer and hands the buffer to the wrapped
//! [`io::Write`] as it fills; [`StreamBitReader`] takes bytes out of the
//! wrapped [`io::BufRead`]'s buffer as it drains and serves bits out of
//! a 64-bit cache. A codec built on them runs in O(1) memory no matter
//! how long the bit stream gets — the software shape of the paper's
//! one-pixel-per-cycle hardware output bus — and a multi-bit transfer
//! (the arithmetic coder's bulk renormalization, a Golomb remainder)
//! costs one shift-or instead of a bit loop.
//!
//! The in-memory coders use the same code: [`BitWriter`] is the writer
//! over a `Vec<u8>` and [`BitReader`] the reader over a byte slice, whose
//! bytes it reads in place.
//!
//! # Error handling
//!
//! Bit-level writes cannot return `io::Result` without poisoning every
//! coder signature above them, so [`StreamBitWriter`] latches the first
//! I/O error, discards subsequent output, and surfaces the error from
//! [`StreamBitWriter::finish`] (or eagerly via
//! [`StreamBitWriter::take_error`]). [`StreamBitReader`] likewise treats an
//! I/O error as end-of-input and reports it through
//! [`StreamBitReader::io_error`].

use crate::{BitSink, BitSource};
use std::io::{self, BufRead, BufReader, Read, Write};

/// Bytes held before handing them to the wrapped writer, and the size of
/// the buffer [`StreamBitReader::buffered`] puts in front of a reader. One
/// page: small enough to be "bounded", large enough to amortize
/// `write`/`read` calls.
const CHUNK: usize = 4096;

/// Low-bits mask for `count` in `0..=63`, without a branch on zero.
#[inline]
fn low_mask(count: u32) -> u64 {
    1u64.wrapping_shl(count).wrapping_sub(1)
}

/// The in-memory bit writer: a [`StreamBitWriter`] over a `Vec<u8>`,
/// whose bytes [`StreamBitWriter::into_bytes`] returns.
///
/// # Examples
///
/// ```
/// use cbic_bitio::{BitSink, BitWriter};
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// assert_eq!(w.bits_written(), 3);
/// // The partial byte is zero-padded: 0b1010_0000.
/// assert_eq!(w.into_bytes(), vec![0xA0]);
/// ```
pub type BitWriter = StreamBitWriter<Vec<u8>>;

/// The in-memory bit reader: a [`StreamBitReader`] over a byte slice.
///
/// # Examples
///
/// ```
/// use cbic_bitio::{BitReader, BitSource};
///
/// let mut r = BitReader::new(&[0b1011_0000]);
/// assert_eq!(r.read_bits(4), 0b1011);
/// assert_eq!(r.try_read_bits(5), None, "only four real bits are left");
/// assert_eq!(r.read_bits(5), 0);
/// assert_eq!(r.padding_bits(), 1);
/// ```
pub type BitReader<'a> = StreamBitReader<&'a [u8]>;

/// An MSB-first bit sink that streams its bytes into an [`io::Write`].
///
/// The first bit written becomes bit 7 of the first byte, and
/// [`Self::finish`] zero-pads the final partial byte.
///
/// # Examples
///
/// ```
/// use cbic_bitio::{BitSink, StreamBitWriter};
///
/// let mut w = StreamBitWriter::wrap(Vec::new());
/// w.write_bits(0b101, 3);
/// assert_eq!(w.bits_written(), 3);
/// assert_eq!(w.finish().unwrap(), vec![0xA0]);
/// ```
#[derive(Debug)]
pub struct StreamBitWriter<W: Write> {
    inner: W,
    buf: Vec<u8>,
    /// Bits accumulated in `acc`, always in `0..64`.
    nacc: u32,
    /// Pending bits, right-aligned in the low `nacc` bits (bits at or above
    /// `nacc` are always zero).
    acc: u64,
    bits_written: u64,
    error: Option<io::Error>,
    /// Set with `error` and never cleared: once any byte was dropped the
    /// stream has a gap, so the writer refuses to produce "success" even
    /// after the error itself was [taken](Self::take_error).
    poisoned: bool,
}

impl<W: Write + Default> Default for StreamBitWriter<W> {
    fn default() -> Self {
        Self::wrap(W::default())
    }
}

impl<W: Write + Default> StreamBitWriter<W> {
    /// A fresh bit sink over `W::default()`: for [`BitWriter`], an empty
    /// `Vec<u8>`.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StreamBitWriter<Vec<u8>> {
    /// Flushes the partial byte (zero-padded) and returns the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.finish().expect("writes into a Vec<u8> cannot fail")
    }
}

impl<W: Write> StreamBitWriter<W> {
    /// Wraps `inner` in a fresh bit sink.
    pub fn wrap(inner: W) -> Self {
        Self {
            inner,
            buf: Vec::with_capacity(CHUNK),
            nacc: 0,
            acc: 0,
            bits_written: 0,
            error: None,
            poisoned: false,
        }
    }

    fn push_byte(&mut self, byte: u8) {
        if self.poisoned {
            return;
        }
        self.buf.push(byte);
        if self.buf.len() >= CHUNK {
            self.flush_buf();
        }
    }

    /// Moves a full 64-bit accumulator into the byte buffer.
    #[inline]
    fn push_acc(&mut self, acc: u64) {
        if self.poisoned {
            return;
        }
        self.buf.extend_from_slice(&acc.to_be_bytes());
        if self.buf.len() >= CHUNK {
            self.flush_buf();
        }
    }

    /// Cold tail of [`BitSink::write_bits`]: the append crosses a 64-bit
    /// accumulator boundary, so top the accumulator off to exactly 64 bits,
    /// flush it, and restart it with the spill (possibly zero bits). Kept
    /// out of line so the fast path stays small enough to inline into the
    /// arithmetic encoder's per-decision loop.
    #[cold]
    fn write_bits_spill(&mut self, value: u64, count: u32) {
        let space = 64 - self.nacc;
        let spill = count - space;
        let filled = if space == 64 {
            value
        } else {
            (self.acc << space) | (value >> spill)
        };
        self.nacc = spill;
        self.acc = value & low_mask(spill);
        self.push_acc(filled);
    }

    fn flush_buf(&mut self) {
        if !self.poisoned {
            if let Err(e) = self.inner.write_all(&self.buf) {
                self.error = Some(e);
                self.poisoned = true;
            }
        }
        self.buf.clear();
    }

    /// Returns (and clears) the first I/O error hit so far, letting row- or
    /// chunk-level callers fail fast instead of discovering the error at
    /// [`Self::finish`].
    ///
    /// Taking the error does **not** un-poison the writer: bytes were
    /// already dropped, so later writes stay discarded and
    /// [`Self::finish`] keeps failing.
    pub fn take_error(&mut self) -> io::Result<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Pads the current partial byte with zero bits up to a byte boundary.
    ///
    /// Does nothing when already aligned. The padding bits are *not*
    /// counted by [`BitSink::bits_written`].
    pub fn align_to_byte(&mut self) {
        let tail = self.nacc % 8;
        if tail > 0 {
            self.acc <<= 8 - tail;
            self.nacc += 8 - tail;
        }
        while self.nacc > 0 {
            self.nacc -= 8;
            let byte = (self.acc >> self.nacc) as u8;
            self.push_byte(byte);
        }
        self.acc = 0;
    }

    /// Flushes the partial byte (zero-padded), drains the internal buffer,
    /// flushes the wrapped writer, and returns it.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered at any point of the stream's
    /// life (bits written after the error were discarded). A writer whose
    /// error was already [taken](Self::take_error) still fails — the
    /// output has a gap and must not be reported as complete.
    pub fn finish(mut self) -> io::Result<W> {
        self.align_to_byte();
        self.flush_buf();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if self.poisoned {
            return Err(io::Error::other(
                "bit stream incomplete: an earlier write error dropped bytes",
            ));
        }
        self.inner.flush()?;
        Ok(self.inner)
    }
}

impl<W: Write> BitSink for StreamBitWriter<W> {
    #[inline]
    fn write_bit(&mut self, bit: bool) {
        self.acc = (self.acc << 1) | u64::from(bit);
        self.nacc += 1;
        self.bits_written += 1;
        if self.nacc == 64 {
            let acc = self.acc;
            self.acc = 0;
            self.nacc = 0;
            self.push_acc(acc);
        }
    }

    #[inline]
    fn bits_written(&self) -> u64 {
        self.bits_written
    }

    #[inline(always)]
    fn write_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        if count < 64 {
            assert!(
                value >> count == 0,
                "value {value:#x} does not fit in {count} bits"
            );
        }
        self.bits_written += u64::from(count);
        if count < 64 - self.nacc {
            self.acc = (self.acc << count) | value;
            self.nacc += count;
        } else {
            self.write_bits_spill(value, count);
        }
    }

    #[inline]
    fn write_run(&mut self, bit: bool, count: u64) {
        let pattern = if bit { u64::MAX } else { 0 };
        let mut rem = count;
        while rem >= 64 {
            self.write_bits(pattern, 64);
            rem -= 64;
        }
        if rem > 0 {
            self.write_bits(pattern >> (64 - rem), rem as u32);
        }
    }
}

/// An MSB-first bit source that pulls its bytes from an [`io::BufRead`].
///
/// It takes bytes straight out of the source's buffer, so the reader over
/// a byte slice ([`BitReader`]) copies and allocates nothing;
/// [`Self::buffered`] puts a 4 KiB buffer in front of any other
/// [`io::Read`]. Padded reads return `0` bits once the underlying reader
/// is exhausted (the convention arithmetic decoders rely on when the final
/// code word was truncated at a byte boundary); strict reads report
/// exhaustion. An I/O error is treated as end-of-input and kept for
/// inspection via [`Self::io_error`].
///
/// # Examples
///
/// ```
/// use cbic_bitio::{BitSource, StreamBitReader};
///
/// let mut r = StreamBitReader::buffered(std::io::repeat(0b1011_0000));
/// assert_eq!(r.read_bits(4), 0b1011);
/// assert_eq!(r.bits_read(), 4);
/// assert_eq!(r.padding_bits(), 0);
/// ```
#[derive(Debug)]
pub struct StreamBitReader<R: BufRead> {
    inner: R,
    /// Valid bits remaining in `acc`, in `0..=64`.
    nacc: u32,
    /// Bit cache: the next bit to serve is bit `nacc - 1`; bits at or above
    /// `nacc` are stale.
    acc: u64,
    bits_read: u64,
    padding: u64,
    eof: bool,
    error: Option<io::Error>,
}

impl<R: Read> StreamBitReader<BufReader<R>> {
    /// Wraps `inner` in a fresh bit source that reads it 4 KiB at a time.
    pub fn buffered(inner: R) -> Self {
        Self::new(BufReader::with_capacity(CHUNK, inner))
    }
}

impl<R: BufRead> StreamBitReader<R> {
    /// Wraps `inner` in a fresh bit source.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            nacc: 0,
            acc: 0,
            bits_read: 0,
            padding: 0,
            eof: false,
            error: None,
        }
    }

    /// The first I/O error encountered, if any. After an error the source
    /// behaves as if the input had ended (padded reads return zeros).
    pub fn io_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Reloads the empty bit cache from the source's buffer, topping up to
    /// 64 bits from the bytes it holds. The source is asked to fill its
    /// buffer (a blocking `read` on the reader behind it) only while fewer
    /// than `need` bits are cached, so the adapter never stalls on bits
    /// the decoder has not demanded (the reader may be a pipe that stays
    /// open after the last byte).
    ///
    /// Returning with `nacc < need` therefore means true end of input,
    /// with every real bit left in the cache.
    #[inline]
    fn refill_acc(&mut self, need: u32) {
        debug_assert!((1..=64).contains(&need) && self.nacc == 0);
        while self.nacc < need && !self.eof {
            let avail = match self.inner.fill_buf() {
                Ok(avail) => avail,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.error = Some(e);
                    self.eof = true;
                    return;
                }
            };
            let take = match avail.first_chunk::<8>() {
                Some(chunk) if self.nacc == 0 => {
                    self.acc = u64::from_be_bytes(*chunk);
                    8
                }
                // Near the end of the buffer: take whole bytes while they fit.
                _ => {
                    let take = (((64 - self.nacc) / 8) as usize).min(avail.len());
                    for &byte in &avail[..take] {
                        self.acc = (self.acc << 8) | u64::from(byte);
                    }
                    take
                }
            };
            // The loop keeps `nacc <= 56`, so a byte always fits: taking
            // none means the source handed back an empty buffer, its end.
            self.eof = take == 0;
            self.nacc += 8 * take as u32;
            self.inner.consume(take);
        }
    }

    /// Serves `count <= nacc` bits from the cache. Branch-free in `count`
    /// (the arithmetic decoder passes a patternless count, often 0, so an
    /// early-out here would mispredict constantly): the mask zeroes the
    /// result when `count == 0` even though the shift amount wraps, and
    /// the `== 64` term widens full-width reads.
    #[inline(always)]
    fn take_cached(&mut self, count: u32) -> u64 {
        self.nacc -= count;
        self.bits_read += u64::from(count);
        let m = low_mask(count) | 0u64.wrapping_sub(u64::from(count == 64));
        self.acc.wrapping_shr(self.nacc) & m
    }

    /// Cold tail of [`BitSource::try_read_bits`]: the read straddles the
    /// cached word, so drain it, refill from the underlying reader and take
    /// the remainder. When fewer than `count` real bits remain, the drained
    /// bits go back in front of the rest (together they are fewer than 64)
    /// and nothing is consumed.
    #[cold]
    fn try_read_bits_spanning(&mut self, count: u32) -> Option<u64> {
        let have = self.nacc;
        let head = self.acc & low_mask(have);
        self.nacc = 0;
        let rem = count - have;
        self.refill_acc(rem);
        if self.nacc < rem {
            self.acc = (head << self.nacc) | (self.acc & low_mask(self.nacc));
            self.nacc += have;
            return None;
        }
        self.nacc -= rem;
        self.bits_read += u64::from(count);
        Some(if rem == 64 {
            self.acc
        } else {
            (head << rem) | ((self.acc >> self.nacc) & low_mask(rem))
        })
    }

    /// Cold tail of [`BitSource::read_bits`]: [`Self::try_read_bits_spanning`],
    /// and at the end of input the bits that are left, padded with zeros.
    /// Kept out of line so the fast path stays small enough to inline into
    /// the arithmetic decoder's per-decision loop.
    #[cold]
    fn read_bits_spanning(&mut self, count: u32) -> u64 {
        if let Some(v) = self.try_read_bits_spanning(count) {
            return v;
        }
        let tail = self.nacc;
        let v = self.acc & low_mask(tail);
        self.nacc = 0;
        let pad = count - tail;
        self.bits_read += u64::from(count);
        self.padding += u64::from(pad);
        if pad == 64 {
            0
        } else {
            v << pad
        }
    }
}

impl<R: BufRead> BitSource for StreamBitReader<R> {
    #[inline]
    fn try_read_bit(&mut self) -> Option<bool> {
        if self.nacc == 0 {
            self.refill_acc(1);
            if self.nacc == 0 {
                return None;
            }
        }
        self.nacc -= 1;
        self.bits_read += 1;
        Some((self.acc >> self.nacc) & 1 == 1)
    }

    #[inline]
    fn read_bit(&mut self) -> bool {
        match self.try_read_bit() {
            Some(b) => b,
            None => {
                self.bits_read += 1;
                self.padding += 1;
                false
            }
        }
    }

    #[inline]
    fn bits_read(&self) -> u64 {
        self.bits_read
    }

    #[inline]
    fn padding_bits(&self) -> u64 {
        self.padding
    }

    #[inline(always)]
    fn read_bits(&mut self, count: u32) -> u64 {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        if count <= self.nacc {
            return self.take_cached(count);
        }
        self.read_bits_spanning(count)
    }

    /// Exact: `None` means fewer than `count` real bits remain, and then
    /// nothing was consumed.
    #[inline]
    fn try_read_bits(&mut self, count: u32) -> Option<u64> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        if count <= self.nacc {
            return Some(self.take_cached(count));
        }
        self.try_read_bits_spanning(count)
    }

    fn read_unary(&mut self) -> Option<u64> {
        let mut zeros = 0u64;
        loop {
            if self.nacc == 0 {
                self.refill_acc(1);
                if self.nacc == 0 {
                    return None;
                }
            }
            // Left-align the unread bits so their leading zeros are the
            // run's continuation.
            let window = self.acc << (64 - self.nacc);
            let lz = window.leading_zeros();
            if lz >= self.nacc {
                // The whole cache is zeros: absorb it and keep scanning.
                zeros += u64::from(self.nacc);
                self.bits_read += u64::from(self.nacc);
                self.nacc = 0;
                continue;
            }
            zeros += u64::from(lz);
            self.nacc -= lz + 1;
            self.bits_read += u64::from(lz + 1);
            return Some(zeros);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Buffered;

    /// A reader that serves 1–7 bytes per `read`, and fails its third call
    /// with [`io::ErrorKind::Interrupted`] once, so the cache refills at
    /// every byte offset and through a retried read.
    struct Trickle<'a> {
        bytes: &'a [u8],
        calls: usize,
    }

    /// A reader over `bytes` through a [`Trickle`].
    fn trickled(bytes: &[u8]) -> StreamBitReader<BufReader<Trickle<'_>>> {
        StreamBitReader::buffered(Trickle { bytes, calls: 0 })
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls == 3 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = (self.calls % 7 + 1).min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Pseudo-random bytes.
    fn noise(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
            .collect()
    }

    #[test]
    fn stream_writer_matches_buffered_writer() {
        let mut model = Buffered::default();
        let mut streamed = StreamBitWriter::wrap(Vec::new());
        for i in 0..1000u64 {
            let count = (i % 13) as u32 + 1;
            let value = i.wrapping_mul(0x9e37_79b9) & ((1 << count) - 1);
            model.write_bits(value, count);
            streamed.write_bits(value, count);
        }
        assert_eq!(streamed.bits_written(), model.bits_written());
        assert_eq!(streamed.finish().unwrap(), model.bytes());
    }

    #[test]
    fn stream_writer_handles_full_width_appends() {
        let mut model = Buffered::default();
        let mut streamed = StreamBitWriter::wrap(Vec::new());
        for i in 0..300u64 {
            let count = (i % 65) as u32;
            let value = if count == 64 {
                i.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            } else {
                i.wrapping_mul(0x9e37_79b9_7f4a_7c15) & low_mask(count)
            };
            model.write_bits(value, count);
            streamed.write_bits(value, count);
            if i % 17 == 0 {
                model.write_run(i % 2 == 0, i % 130);
                streamed.write_run(i % 2 == 0, i % 130);
            }
        }
        assert_eq!(streamed.bits_written(), model.bits_written());
        assert_eq!(streamed.finish().unwrap(), model.bytes());
    }

    #[test]
    fn stream_writer_aligns_like_buffered() {
        let mut streamed = StreamBitWriter::wrap(Vec::new());
        streamed.write_bits(0b11, 2);
        streamed.align_to_byte();
        streamed.write_bit(true);
        assert_eq!(streamed.bits_written(), 3, "padding is not counted");
        // The model pads by hand: two bits, six zeros, then the last bit.
        let mut model = Buffered::default();
        model.write_bits(0b1100_0000, 8);
        model.write_bit(true);
        assert_eq!(streamed.finish().unwrap(), model.bytes());
    }

    #[test]
    fn stream_writer_crosses_chunk_boundary() {
        // More than CHUNK bytes forces at least one mid-stream flush.
        let n = (CHUNK + 100) * 8;
        let mut w = StreamBitWriter::wrap(Vec::new());
        for i in 0..n {
            w.write_bit(i % 3 == 0);
        }
        let out = w.finish().unwrap();
        assert_eq!(out.len(), CHUNK + 100);
        let mut r = Buffered::reading(&out);
        for i in 0..n {
            assert_eq!(r.read_bit(), i % 3 == 0, "bit {i}");
        }
    }

    #[test]
    fn stream_writer_latches_io_errors() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = StreamBitWriter::wrap(Failing);
        for _ in 0..(CHUNK + 1) * 8 {
            w.write_bit(true);
        }
        assert!(w.take_error().is_err());
        // Taking the error does not un-poison the writer: bytes were
        // dropped, so the stream can never be reported complete.
        w.write_bit(true);
        assert!(w.finish().is_err());
    }

    #[test]
    fn stream_reader_matches_buffered_reader() {
        let bytes: Vec<u8> = (0..=255u8).cycle().take(3 * CHUNK + 17).collect();
        let mut model = Buffered::reading(&bytes);
        let mut streamed = StreamBitReader::buffered(&bytes[..]);
        for _ in 0..bytes.len() * 8 {
            assert_eq!(streamed.read_bit(), model.read_bit());
        }
        // Both pad with zeros past the end.
        assert_eq!(streamed.try_read_bit(), None);
        assert!(!streamed.read_bit());
        assert!(!model.read_bit());
        assert_eq!(streamed.padding_bits(), 1);
        assert_eq!(model.padding_bits(), 1);
    }

    #[test]
    fn stream_reader_chunked_reads_match_buffered() {
        let bytes = noise(2 * CHUNK + 11);
        let mut model = Buffered::reading(&bytes);
        let mut streamed = StreamBitReader::buffered(&bytes[..]);
        let mut state = 1u64;
        let mut left = bytes.len() as u64 * 8 + 100;
        while left > 0 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let count = ((state >> 59) as u32 + 1).min(left as u32);
            assert_eq!(streamed.read_bits(count), model.read_bits(count));
            left -= u64::from(count);
        }
        assert_eq!(streamed.bits_read(), model.bits_read());
        assert_eq!(streamed.padding_bits(), model.padding_bits());
    }

    #[test]
    fn stream_reader_strict_and_unary() {
        let mut r = StreamBitReader::new(&[0b0001_0000u8][..]);
        assert_eq!(r.read_unary(), Some(3));
        assert_eq!(r.try_read_bits(4), Some(0));
        assert_eq!(r.try_read_bit(), None);
        assert_eq!(r.read_unary(), None);
    }

    #[test]
    fn stream_reader_unary_across_chunks() {
        let mut bytes = vec![0u8; CHUNK + 3];
        bytes[CHUNK + 2] = 0b0100_0000;
        let mut r = StreamBitReader::buffered(&bytes[..]);
        assert_eq!(r.read_unary(), Some((CHUNK as u64 + 2) * 8 + 1));
    }

    #[test]
    fn stream_reader_reports_io_error_as_eof() {
        struct Failing;
        impl Read for Failing {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("broken pipe"))
            }
        }
        let mut r = StreamBitReader::buffered(Failing);
        assert_eq!(r.try_read_bit(), None);
        assert!(!r.read_bit());
        assert!(r.io_error().is_some());
        assert_eq!(r.padding_bits(), 1);
    }

    #[test]
    fn empty_reader_is_all_padding() {
        let mut r = StreamBitReader::new(&[][..]);
        assert_eq!(r.read_bits(16), 0);
        assert_eq!(r.bits_read(), 16);
        assert_eq!(r.padding_bits(), 16);
    }

    /// Every width in `0..=64`, from every cache offset the rotation
    /// reaches, and on past the end: through refills of 1–7 bytes, and
    /// through a 13-byte buffer, whose boundaries leave part of a word to
    /// finish from a buffer that holds a whole one.
    #[test]
    fn trickled_reads_match_the_model_at_every_width() {
        fn check<R: BufRead>(mut r: StreamBitReader<R>, bytes: &[u8]) {
            let mut model = Buffered::reading(bytes);
            let mut count = 0;
            while model.padding_bits() < 200 {
                assert_eq!(r.read_bits(count), model.read_bits(count), "width {count}");
                count = (count + 1) % 65;
            }
            assert_eq!(r.bits_read(), model.bits_read());
            assert_eq!(r.padding_bits(), model.padding_bits());
            assert!(!r.read_bit());
            assert_eq!(r.padding_bits(), model.padding_bits() + 1);
        }
        let bytes = noise(301);
        check(trickled(&bytes), &bytes);
        check(
            StreamBitReader::new(BufReader::with_capacity(13, &bytes[..])),
            &bytes,
        );
    }

    /// `try_read_bits` answers `None` exactly when fewer than `count` real
    /// bits remain, and then leaves the next read as it was.
    #[test]
    fn trickled_strict_reads_are_exact() {
        let bytes = noise(23);
        let total = bytes.len() * 8;
        for skip in (0..total).step_by(5).chain(total - 70..=total) {
            for count in 0..=64u32 {
                let mut model = Buffered::reading(&bytes);
                let mut r = trickled(&bytes);
                for _ in 0..skip {
                    assert_eq!(r.read_bit(), model.read_bit());
                }
                let left = total - skip;
                let got = r.try_read_bits(count);
                if (count as usize) > left {
                    assert_eq!(got, None, "skip {skip} count {count}");
                    let rest = left as u32;
                    assert_eq!(r.try_read_bits(rest), model.try_read_bits(rest));
                    assert_eq!(r.try_read_bit(), None);
                } else {
                    assert_eq!(got, model.try_read_bits(count), "skip {skip} count {count}");
                    assert_eq!(r.read_bits(64), model.read_bits(64));
                }
                assert_eq!(r.bits_read(), model.bits_read());
                assert_eq!(r.padding_bits(), model.padding_bits());
            }
        }
    }

    /// Unary runs of every length up to a few hundred bits, ending at
    /// every offset of a 1–7-byte refill, then the unterminated tail.
    #[test]
    fn trickled_unary_runs_cross_refills() {
        let mut model = Buffered::default();
        for run in (0..300).step_by(7) {
            model.write_run(false, run);
            model.write_bit(true);
        }
        model.write_run(false, 13);
        let bytes = model.bytes();
        let mut model = Buffered::reading(&bytes);
        let mut r = trickled(&bytes);
        loop {
            let run = r.read_unary();
            assert_eq!(run, model.read_unary());
            if run.is_none() {
                break;
            }
        }
        assert_eq!(r.bits_read(), (bytes.len() * 8) as u64);
        assert_eq!(r.bits_read(), model.bits_read());
        assert_eq!(r.read_bits(3), 0);
        assert_eq!(r.padding_bits(), 3);
    }
}
