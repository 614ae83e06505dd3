//! Binary PGM (P5) reading and writing, at 8 and 16 bits per sample.
//!
//! The corpus in this workspace is synthetic, but users with real images —
//! including 16-bit medical or astronomy data — can feed them to every
//! codec through this module. Sample encoding follows the Netpbm
//! convention: one byte per sample for `maxval ≤ 255`, two **big-endian**
//! bytes per sample for `256 ≤ maxval ≤ 65535`.
//!
//! # Examples
//!
//! ```
//! use cbic_image::{pgm, Image};
//!
//! let img = Image::from_fn(8, 8, |x, y| (x ^ y) as u8);
//! let back = pgm::decode(&pgm::encode(&img))?;
//! assert_eq!(img, back);
//!
//! let deep = Image::from_fn16(8, 8, 12, |x, y| ((x * 512) ^ y) as u16);
//! let back = pgm::decode(&pgm::encode(&deep))?;
//! assert_eq!(deep, back);
//! # Ok::<(), cbic_image::ImageError>(())
//! ```

use crate::{Image, ImageError};
use std::io::{Read, Write};
use std::path::Path;

/// A parsed PGM header: dimensions plus the declared maximum sample value.
///
/// `maxval` decides both the wire format (one byte per sample up to 255,
/// two big-endian bytes above) and the [`bit_depth`](Self::bit_depth) of
/// the decoded [`Image`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PgmHeader {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Declared maximum sample value (`1..=65535`).
    pub maxval: u16,
}

impl PgmHeader {
    /// Bytes per sample on the wire: 1 up to maxval 255, 2 above.
    #[inline]
    pub fn bytes_per_sample(&self) -> usize {
        if self.maxval > 255 {
            2
        } else {
            1
        }
    }

    /// The smallest bit depth that holds `maxval`
    /// (e.g. 255 → 8, 1023 → 10, 65535 → 16).
    #[inline]
    pub fn bit_depth(&self) -> u8 {
        (16 - self.maxval.leading_zeros()) as u8
    }
}

/// The maxval an image of a given bit depth is written with.
#[inline]
fn maxval_for_depth(bit_depth: u8) -> u16 {
    crate::image::max_val_for(bit_depth)
}

/// Serializes an image as a binary PGM (magic `P5`; maxval and sample
/// width follow the image's bit depth).
pub fn encode(img: &Image) -> Vec<u8> {
    let maxval = maxval_for_depth(img.bit_depth());
    let bytes_per_sample = if maxval > 255 { 2 } else { 1 };
    let mut out = Vec::with_capacity(img.pixel_count() * bytes_per_sample + 32);
    out.extend_from_slice(format!("P5\n{} {}\n{maxval}\n", img.width(), img.height()).as_bytes());
    append_samples(&mut out, img.samples(), bytes_per_sample);
    out
}

/// Appends samples in the wire encoding implied by `bytes_per_sample`.
fn append_samples(out: &mut Vec<u8>, samples: &[u16], bytes_per_sample: usize) {
    if bytes_per_sample == 1 {
        out.extend(samples.iter().map(|&s| s as u8));
    } else {
        for &s in samples {
            out.extend_from_slice(&s.to_be_bytes());
        }
    }
}

/// Writes raster rows in the wire encoding `maxval` implies, through one
/// buffer that every row reuses: the rows that follow a
/// [`write_header`], one call per row.
#[derive(Debug)]
pub struct RowWriter {
    buf: Vec<u8>,
    bytes_per_sample: usize,
}

impl RowWriter {
    /// A writer for rows of an image with this `maxval`.
    pub fn new(maxval: u16) -> Self {
        Self {
            buf: Vec::new(),
            bytes_per_sample: if maxval > 255 { 2 } else { 1 },
        }
    }

    /// Writes one row's samples to `out`.
    ///
    /// # Errors
    ///
    /// The error `out` returns.
    pub fn write_row<W: Write>(&mut self, out: &mut W, row: &[u16]) -> std::io::Result<()> {
        self.buf.clear();
        append_samples(&mut self.buf, row, self.bytes_per_sample);
        out.write_all(&self.buf)
    }
}

/// Parses a binary PGM stream (maxval `1..=65535`; `#` comments allowed;
/// two big-endian bytes per sample above maxval 255).
///
/// # Errors
///
/// Returns [`ImageError::PgmParse`] on malformed headers, truncated pixel
/// data, or samples above the declared maxval.
pub fn decode(bytes: &[u8]) -> Result<Image, ImageError> {
    let mut pos = 0usize;

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() {
            match bytes[*pos] {
                b' ' | b'\t' | b'\r' | b'\n' => *pos += 1,
                b'#' => {
                    while *pos < bytes.len() && bytes[*pos] != b'\n' {
                        *pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn read_token<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a [u8], ImageError> {
        skip_ws(bytes, pos);
        let start = *pos;
        while *pos < bytes.len() && !bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
        if start == *pos {
            return Err(ImageError::PgmParse("unexpected end of header".into()));
        }
        Ok(&bytes[start..*pos])
    }

    fn read_number(bytes: &[u8], pos: &mut usize) -> Result<usize, ImageError> {
        let tok = read_token(bytes, pos)?;
        std::str::from_utf8(tok)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ImageError::PgmParse("malformed number in header".into()))
    }

    let magic = read_token(bytes, &mut pos)?;
    if magic != b"P5" {
        return Err(ImageError::PgmParse(format!(
            "bad magic {:?}, expected P5",
            String::from_utf8_lossy(magic)
        )));
    }
    let width = read_number(bytes, &mut pos)?;
    let height = read_number(bytes, &mut pos)?;
    let maxval = read_number(bytes, &mut pos)?;
    let header = validate_header(width, height, maxval)?;
    // Exactly one whitespace byte separates the header from pixel data.
    if pos >= bytes.len() || !bytes[pos].is_ascii_whitespace() {
        return Err(ImageError::PgmParse("missing header terminator".into()));
    }
    pos += 1;

    let pixels = width
        .checked_mul(height)
        .ok_or_else(|| ImageError::PgmParse("dimensions overflow".into()))?;
    let need = pixels
        .checked_mul(header.bytes_per_sample())
        .ok_or_else(|| ImageError::PgmParse("dimensions overflow".into()))?;
    let data = bytes
        .get(pos..pos + need)
        .ok_or_else(|| ImageError::PgmParse("truncated pixel data".into()))?;
    let samples: Vec<u16> = if header.bytes_per_sample() == 1 {
        data.iter().map(|&b| u16::from(b)).collect()
    } else {
        data.chunks_exact(2)
            .map(|c| u16::from_be_bytes([c[0], c[1]]))
            .collect()
    };
    if let Some(&bad) = samples.iter().find(|&&s| s > header.maxval) {
        return Err(ImageError::PgmParse(format!(
            "sample {bad} exceeds declared maxval {}",
            header.maxval
        )));
    }
    Image::from_samples(width, height, header.bit_depth(), samples)
}

/// Shared header-field validation of the buffered and streaming parsers.
fn validate_header(width: usize, height: usize, maxval: usize) -> Result<PgmHeader, ImageError> {
    if maxval == 0 || maxval > 65535 {
        return Err(ImageError::PgmParse(format!(
            "unsupported maxval {maxval} (need 1..=65535)"
        )));
    }
    if width == 0 || height == 0 {
        return Err(ImageError::PgmParse("zero dimension".into()));
    }
    Ok(PgmHeader {
        width,
        height,
        maxval: maxval as u16,
    })
}

/// Reads a binary PGM header from a stream, leaving the reader positioned
/// at the first pixel byte.
///
/// Bytes are pulled one at a time so nothing past the header is consumed
/// (wrap raw streams in a `BufReader` and keep reading pixel rows from it).
/// This is the entry point of the CLI's bounded-memory pipe mode: header
/// first, then rows streamed straight into the codec.
///
/// # Errors
///
/// Returns [`ImageError::Io`] on read failures and [`ImageError::PgmParse`]
/// on malformed headers (bad magic, maxval outside `1..=65535`, …).
pub fn read_header<R: Read>(input: &mut R) -> Result<PgmHeader, ImageError> {
    let mut byte = [0u8; 1];
    // Pull the next header byte; EOF inside a header is always malformed.
    let mut next = |input: &mut R| -> Result<u8, ImageError> {
        match input.read(&mut byte)? {
            0 => Err(ImageError::PgmParse("unexpected end of header".into())),
            _ => Ok(byte[0]),
        }
    };
    // Reads one whitespace/comment-delimited token, returning it plus the
    // delimiter byte that ended it.
    let mut token = |input: &mut R| -> Result<(Vec<u8>, u8), ImageError> {
        let mut tok = Vec::new();
        loop {
            let b = next(input)?;
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    if !tok.is_empty() {
                        return Ok((tok, b));
                    }
                }
                // `#` starts a comment only between tokens, exactly like
                // the buffered parser's whitespace skip.
                b'#' if tok.is_empty() => loop {
                    if next(input)? == b'\n' {
                        break;
                    }
                },
                _ => tok.push(b),
            }
        }
    };
    let number = |tok: &[u8]| -> Result<usize, ImageError> {
        std::str::from_utf8(tok)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ImageError::PgmParse("malformed number in header".into()))
    };

    let (magic, _) = token(input)?;
    if magic != b"P5" {
        return Err(ImageError::PgmParse(format!(
            "bad magic {:?}, expected P5",
            String::from_utf8_lossy(&magic)
        )));
    }
    let width = number(&token(input)?.0)?;
    let height = number(&token(input)?.0)?;
    let maxval = number(&token(input)?.0)?;
    // The single whitespace byte terminating the maxval token is the
    // header terminator; pixel data starts at the very next byte.
    validate_header(width, height, maxval)
}

/// Reads one raster row of `header.width` samples in the wire encoding
/// `header.maxval` implies, rejecting samples above maxval.
///
/// # Errors
///
/// [`ImageError::Io`] on read failures (including EOF mid-row) and
/// [`ImageError::PgmParse`] for out-of-range samples.
pub fn read_row<R: Read>(
    input: &mut R,
    header: &PgmHeader,
    row: &mut [u16],
) -> Result<(), ImageError> {
    assert_eq!(row.len(), header.width, "row buffer length mismatch");
    // A fixed stack buffer keeps this allocation-free on the streaming
    // hot path (one call per raster row), whatever the row width.
    let mut buf = [0u8; 4096];
    if header.bytes_per_sample() == 1 {
        let mut done = 0usize;
        while done < row.len() {
            let n = (row.len() - done).min(buf.len());
            input.read_exact(&mut buf[..n])?;
            for (dst, &src) in row[done..done + n].iter_mut().zip(&buf[..n]) {
                *dst = u16::from(src);
            }
            done += n;
        }
    } else {
        let mut done = 0usize;
        while done < row.len() {
            let n = (row.len() - done).min(buf.len() / 2);
            input.read_exact(&mut buf[..n * 2])?;
            for (dst, src) in row[done..done + n]
                .iter_mut()
                .zip(buf[..n * 2].chunks_exact(2))
            {
                *dst = u16::from_be_bytes([src[0], src[1]]);
            }
            done += n;
        }
    }
    if let Some(&bad) = row.iter().find(|&&s| s > header.maxval) {
        return Err(ImageError::PgmParse(format!(
            "sample {bad} exceeds declared maxval {}",
            header.maxval
        )));
    }
    Ok(())
}

/// Writes a binary PGM header (magic `P5`) to a stream; pixel rows follow
/// it directly in the encoding `maxval` implies.
///
/// # Errors
///
/// Returns [`ImageError::Io`] on write failures.
pub fn write_header<W: Write>(
    out: &mut W,
    width: usize,
    height: usize,
    maxval: u16,
) -> Result<(), ImageError> {
    out.write_all(format!("P5\n{width} {height}\n{maxval}\n").as_bytes())?;
    Ok(())
}

/// Reads a PGM image from a file.
///
/// # Errors
///
/// Returns [`ImageError::Io`] on filesystem errors and
/// [`ImageError::PgmParse`] on malformed content.
pub fn read_file(path: impl AsRef<Path>) -> Result<Image, ImageError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    decode(&bytes)
}

/// Writes an image to a file as binary PGM.
///
/// # Errors
///
/// Returns [`ImageError::Io`] on filesystem errors.
pub fn write_file(path: impl AsRef<Path>, img: &Image) -> Result<(), ImageError> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(&encode(img))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let img = Image::from_fn(13, 7, |x, y| (x * 19 + y * 3) as u8);
        assert_eq!(decode(&encode(&img)).unwrap(), img);
    }

    #[test]
    fn sixteen_bit_roundtrip_is_big_endian() {
        let img = Image::from_fn16(5, 3, 16, |x, y| (x * 9000 + y * 257) as u16);
        let bytes = encode(&img);
        assert!(bytes.starts_with(b"P5\n5 3\n65535\n"));
        let body = &bytes[bytes.len() - 30..];
        assert_eq!(
            u16::from_be_bytes([body[0], body[1]]),
            img.get(0, 0),
            "first sample must be big-endian"
        );
        assert_eq!(decode(&bytes).unwrap(), img);
    }

    #[test]
    fn ten_bit_maxval_maps_to_ten_bit_depth() {
        let img = Image::from_fn16(4, 4, 10, |x, y| (x * 250 + y) as u16);
        let bytes = encode(&img);
        assert!(bytes.starts_with(b"P5\n4 4\n1023\n"));
        let back = decode(&bytes).unwrap();
        assert_eq!(back.bit_depth(), 10);
        assert_eq!(back, img);
    }

    #[test]
    fn header_with_comments() {
        let bytes = b"P5 # a comment\n# another\n 2 2\n255\n\x01\x02\x03\x04";
        let img = decode(bytes).unwrap();
        assert_eq!(img.samples(), &[1, 2, 3, 4]);
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(
            decode(b"P6\n1 1\n255\n\x00"),
            Err(ImageError::PgmParse(_))
        ));
    }

    #[test]
    fn rejects_truncated_data() {
        assert!(matches!(
            decode(b"P5\n4 4\n255\n\x00\x01"),
            Err(ImageError::PgmParse(_))
        ));
        // 16-bit data needs two bytes per sample; one byte short errors.
        assert!(matches!(
            decode(b"P5\n1 2\n65535\n\x00\x01\x02"),
            Err(ImageError::PgmParse(_))
        ));
    }

    #[test]
    fn accepts_sixteen_bit_maxval_and_rejects_beyond() {
        let img = decode(b"P5\n1 1\n65535\n\x12\x34").unwrap();
        assert_eq!(img.get(0, 0), 0x1234);
        assert_eq!(img.bit_depth(), 16);
        assert!(matches!(
            decode(b"P5\n1 1\n65536\n\x00\x00"),
            Err(ImageError::PgmParse(_))
        ));
        assert!(matches!(
            decode(b"P5\n1 1\n0\n\x00"),
            Err(ImageError::PgmParse(_))
        ));
    }

    #[test]
    fn rejects_samples_above_maxval() {
        // maxval 300 -> 9-bit depth, two bytes per sample; 0x0200 = 512 > 300.
        assert!(matches!(
            decode(b"P5\n1 1\n300\n\x02\x00"),
            Err(ImageError::PgmParse(_))
        ));
        // 8-bit: maxval 100, sample 200.
        assert!(matches!(
            decode(b"P5\n1 1\n100\n\xC8"),
            Err(ImageError::PgmParse(_))
        ));
    }

    #[test]
    fn rejects_empty_input() {
        assert!(decode(b"").is_err());
    }

    #[test]
    fn streaming_header_matches_buffered_parser() {
        let img = Image::from_fn(13, 7, |x, y| (x * 19 + y * 3) as u8);
        let bytes = encode(&img);
        let mut reader = &bytes[..];
        let header = read_header(&mut reader).unwrap();
        assert_eq!((header.width, header.height, header.maxval), (13, 7, 255));
        assert_eq!(header.bit_depth(), 8);
        // The reader is now positioned exactly at the pixel data.
        let mut row = vec![0u16; 13];
        read_row(&mut reader, &header, &mut row).unwrap();
        assert_eq!(&row, img.row(0));
    }

    #[test]
    fn streaming_sixteen_bit_rows() {
        let img = Image::from_fn16(6, 2, 12, |x, y| (x * 600 + y) as u16);
        let bytes = encode(&img);
        let mut reader = &bytes[..];
        let header = read_header(&mut reader).unwrap();
        assert_eq!(header.maxval, 4095);
        assert_eq!(header.bytes_per_sample(), 2);
        let mut row = vec![0u16; 6];
        for y in 0..2 {
            read_row(&mut reader, &header, &mut row).unwrap();
            assert_eq!(&row, img.row(y), "row {y}");
        }
    }

    #[test]
    fn streaming_header_with_comments() {
        let bytes = b"P5 # a comment\n# another\n 2 3\n255\nxxxxxx";
        let mut reader = &bytes[..];
        let header = read_header(&mut reader).unwrap();
        assert_eq!((header.width, header.height), (2, 3));
        assert_eq!(reader, b"xxxxxx");
    }

    #[test]
    fn streaming_header_rejects_malformed_input() {
        for bad in [
            &b"P6\n1 1\n255\n\x00"[..],
            b"P5\n0 4\n255\n",
            b"P5\n2 2\n65536\n",
            b"P5\n2 2",
            b"",
        ] {
            let mut reader = bad;
            assert!(read_header(&mut reader).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn streaming_header_writer_matches_encode() {
        let img = Image::from_fn(5, 4, |x, y| (x + y) as u8);
        let mut out = Vec::new();
        write_header(&mut out, 5, 4, 255).unwrap();
        let mut rows = RowWriter::new(255);
        for y in 0..img.height() {
            rows.write_row(&mut out, img.row(y)).unwrap();
        }
        assert_eq!(out, encode(&img));
    }

    #[test]
    fn row_writer_matches_encode_at_16_bits() {
        let img = Image::from_fn16(7, 3, 12, |x, y| (x * 600 + y) as u16);
        let mut out = Vec::new();
        write_header(&mut out, 7, 3, img.max_val()).unwrap();
        let mut rows = RowWriter::new(img.max_val());
        for y in 0..img.height() {
            rows.write_row(&mut out, img.row(y)).unwrap();
        }
        assert_eq!(out, encode(&img));
    }

    #[test]
    fn file_roundtrip() {
        let img = Image::from_fn16(9, 5, 11, |x, y| (x * 200 + y) as u16);
        let dir = std::env::temp_dir().join("cbic_pgm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t16.pgm");
        write_file(&path, &img).unwrap();
        assert_eq!(read_file(&path).unwrap(), img);
        std::fs::remove_file(&path).ok();
    }
}
