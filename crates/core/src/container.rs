//! Self-describing container format.
//!
//! The raw codec API ([`encode_raw`](crate::encode_raw)) produces a bare
//! arithmetic-coded payload, as the FPGA core would on its output bus. For
//! storage and interchange this module frames it with a small header
//! carrying the dimensions and every model parameter the decoder must
//! mirror:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "CBIC"
//! 4       1     version (1 = 8-bit, 2 = explicit depth, 3 = retired,
//!               4 = 2D tile grid with seekable index, 5 = retired)
//! 5       1     codec id (1 = SOCC-2007 image codec)
//! 6       4     width  (LE)
//! 10      4     height (LE)
//! 14      1     estimator count_bits
//! 15      2     estimator increment (LE)
//! 17      2     escape init: no-escape count (LE)
//! 19      2     escape init: escape count (LE)
//! 21      1     flags (bit0 feedback, bit1 aging, bit2 exact division)
//! 22      1     texture bits
//! [23     1     sample bit depth (versions 2 and 4; version 1 means 8)]
//! [24     1     lane byte, always 1 (version 4 only)]
//! [25     4     tile width in pixels (LE, version 4 only)]
//! [29     4     tile height in pixels (LE, version 4 only)]
//! [33     16×T  tile index, T = cols×rows entries (version 4 only; see
//!               the `grid` module for the entry layout)]
//! ...     ...   arithmetic-coded payload
//! ```
//!
//! 8-bit images are written as version 1 — byte-identical to every
//! container this codec has ever produced — and deeper samples get the
//! version-2 header with its bit-depth field. Decoders accept both.
//!
//! # Version 3: retired
//!
//! Version 3 striped the decision stream over several coder *lanes*. The
//! lanes were not part of the paper's single-coder datapath and measured
//! no faster than one coder, so they were removed: no writer emits
//! version 3, and every reader answers it with
//! [`CodecError::UnsupportedVersion`]. Version 4 keeps its lane byte,
//! which must be 1.
//!
//! # Version 4: 2D tile grid with a seekable index
//!
//! Version 4 partitions the image into a 2D grid of independently
//! decodable tiles and records a serialized tile index (per-tile byte
//! offset, length, and CRC-32 checksum) right after the fixed header, so
//! a decoder can seek to any tile in `O(1)` without touching the rest of
//! the payload — random-access crop decodes and parallel whole-image
//! decodes both fall out of that. The v4 read/write paths live in the
//! [`grid`](crate::grid) module. [`decompress`] and [`Proposed`]'s decode
//! share one reader that reads the header once and hands a v4 grid to the
//! grid's tile loop, everything else to the row-streaming
//! [`StreamDecoder`].
//!
//! # Version 5: retired
//!
//! Version 5 carried a hash-banked "wide" context model that replaced the
//! paper's compound feedback context with hashed features of a larger
//! window. It coded worse than the paper's model on every image it was
//! measured on, and slower, so it was removed: no writer emits version 5,
//! and every reader answers it with [`CodecError::UnsupportedVersion`].
//!
//! # The retired `CBTI` band container
//!
//! Multi-threaded encodes once wrote a separate `CBTI` container of
//! horizontal bands. A band is a version-4 tile as wide as the image, so
//! multi-threaded encodes now write the version-4 grid, and nothing
//! decodes `CBTI` any more.

use crate::codec::CodecConfig;
use crate::context::DivisionKind;
use crate::session::EncoderSession;
use crate::stream::StreamDecoder;
use cbic_arith::EstimatorConfig;
use cbic_image::{
    CbicError, Codec, CountingSink, DecodeOptions, EncodeOptions, Image, ImageView, Parallelism,
    Rect,
};
use std::fmt;
use std::io::{Read, Write};

pub(crate) const MAGIC: &[u8; 4] = b"CBIC";
const VERSION_V1: u8 = 1;
const VERSION_V2: u8 = 2;
/// The retired lane-interleaved version: read as unsupported.
const RETIRED_V3: u8 = 3;
pub(crate) const VERSION_V4: u8 = 4;
/// The retired wide-hash model version: read as unsupported.
const RETIRED_V5: u8 = 5;
const CODEC_ID: u8 = 1;

/// Size in bytes of the version-1 container header preceding the coded
/// payload (the version-2 header adds one bit-depth byte).
pub const HEADER_LEN: usize = 23;

/// Size in bytes of the longest fixed header (version 4's bit-depth and
/// lane bytes), and the offset of the v4 tile-dimension words.
pub const MAX_HEADER_LEN: usize = HEADER_LEN + 2;

/// Buffer size covering the longest header [`header_bytes`] emits (the
/// version-2 header with its bit-depth byte).
pub(crate) const HEADER_BUF_LEN: usize = HEADER_LEN + 1;

/// Errors returned when parsing a container.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The stream does not start with the `CBIC` magic.
    BadMagic,
    /// Unknown container version.
    UnsupportedVersion(u8),
    /// Unknown codec identifier.
    UnsupportedCodec(u8),
    /// The stream ended before its content did (short header, or an
    /// arithmetic payload cut off mid-image).
    Truncated,
    /// A header field holds an invalid value.
    InvalidHeader(String),
    /// An underlying I/O failure on a streaming source or sink. The
    /// [`io::ErrorKind`](std::io::ErrorKind) is carried alongside the
    /// message so it survives into [`CbicError::Io`] (the original
    /// [`std::io::Error`] is not stored, to keep this error `Clone`).
    Io(std::io::ErrorKind, String),
}

impl CodecError {
    /// Captures an [`std::io::Error`], preserving its kind.
    pub fn io(e: &std::io::Error) -> Self {
        Self::Io(e.kind(), e.to_string())
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "missing CBIC magic"),
            Self::UnsupportedVersion(RETIRED_V3) => write!(
                f,
                "unsupported container version 3: the lane-interleaved format is retired"
            ),
            Self::UnsupportedVersion(RETIRED_V5) => write!(
                f,
                "unsupported container version 5: the wide-hash context model is retired"
            ),
            Self::UnsupportedVersion(v) => write!(f, "unsupported container version {v}"),
            Self::UnsupportedCodec(c) => write!(f, "unsupported codec id {c}"),
            Self::Truncated => write!(f, "truncated container"),
            Self::InvalidHeader(msg) => write!(f, "invalid header: {msg}"),
            Self::Io(_, msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for CbicError {
    /// Structured, lossless mapping into the workspace hierarchy: every
    /// variant lands on its [`CbicError`] counterpart, and the I/O kind is
    /// preserved.
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::BadMagic => CbicError::BadMagic { found: None },
            CodecError::UnsupportedVersion(v) => CbicError::UnsupportedVersion(v),
            CodecError::UnsupportedCodec(c) => CbicError::UnsupportedCodec(c),
            CodecError::Truncated => CbicError::Truncated,
            CodecError::InvalidHeader(msg) => CbicError::InvalidContainer(msg),
            CodecError::Io(kind, msg) => CbicError::from(std::io::Error::new(kind, msg)),
        }
    }
}

/// Everything a container header declares: the model configuration, the
/// image geometry, and the sample bit depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerHeader {
    /// The model configuration the decoder must mirror.
    pub cfg: CodecConfig,
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Sample bit depth (`1..=16`; version-1 containers are always 8).
    pub bit_depth: u8,
    /// Tile geometry `(tile_w, tile_h)` of a version-4 grid container;
    /// `None` for the flat formats. When set, the bytes following
    /// the fixed header are the tile index and the per-tile substreams
    /// (see [`grid`](crate::grid)), not a flat payload.
    pub tile: Option<(u32, u32)>,
}

/// Compresses the pixels of a view into a self-describing container: a
/// one-shot [`EncoderSession::encode`] into a `Vec`.
///
/// # Examples
///
/// ```
/// use cbic_core::{compress, decompress, CodecConfig};
/// use cbic_image::Image;
///
/// let img = Image::from_fn(16, 16, |x, y| (x * y) as u8);
/// let bytes = compress(img.view(), &CodecConfig::default());
/// assert_eq!(decompress(&bytes)?, img);
///
/// let deep = Image::from_fn16(16, 16, 12, |x, y| (x * 200 + y) as u16);
/// let bytes = compress(deep.view(), &CodecConfig::default());
/// assert_eq!(decompress(&bytes)?, deep);
/// # Ok::<(), cbic_core::CodecError>(())
/// ```
///
/// # Panics
///
/// Panics if the configuration is invalid or the image exceeds the
/// container's 2^28-pixel ceiling (before any pixel is coded).
pub fn compress(img: ImageView<'_>, cfg: &CodecConfig) -> Vec<u8> {
    let mut out = Vec::new();
    if let Err(e) = EncoderSession::new(cfg).encode(img, &mut out) {
        panic!("{e}");
    }
    out
}

/// Serializes the container header for a `width`×`height` image of the
/// given depth coded with `cfg`, returning the buffer and the header
/// length (23 bytes of version 1 for 8-bit samples — byte-identical to the
/// historical format — and 24 bytes of version 2 for other depths; the
/// grid writer keeps the first 23 bytes and appends its own extension).
/// The [`EncoderSession`] (and so [`compress`]) and the streaming
/// [`StreamEncoder`](crate::stream::StreamEncoder) share this, which is
/// what keeps their outputs byte-identical.
pub(crate) fn header_bytes(
    cfg: &CodecConfig,
    width: usize,
    height: usize,
    bit_depth: u8,
) -> ([u8; HEADER_BUF_LEN], usize) {
    let mut out = [0u8; HEADER_BUF_LEN];
    out[..4].copy_from_slice(MAGIC);
    out[4] = if bit_depth == 8 {
        VERSION_V1
    } else {
        VERSION_V2
    };
    out[5] = CODEC_ID;
    out[6..10].copy_from_slice(&(width as u32).to_le_bytes());
    out[10..14].copy_from_slice(&(height as u32).to_le_bytes());
    out[14] = cfg.estimator.count_bits;
    out[15..17].copy_from_slice(&cfg.estimator.increment.to_le_bytes());
    out[17..19].copy_from_slice(&cfg.estimator.escape_init.0.to_le_bytes());
    out[19..21].copy_from_slice(&cfg.estimator.escape_init.1.to_le_bytes());
    let mut flags = 0u8;
    flags |= u8::from(cfg.error_feedback);
    flags |= u8::from(cfg.aging) << 1;
    flags |= u8::from(cfg.division == DivisionKind::Exact) << 2;
    out[21] = flags;
    out[22] = cfg.texture_bits;
    if bit_depth == 8 {
        (out, HEADER_LEN)
    } else {
        out[23] = bit_depth;
        (out, HEADER_LEN + 1)
    }
}

/// The container's pixel ceiling: 2^28 = 256 Mpixel, far beyond any image
/// this codec targets, small enough that a corrupted header can never
/// trigger a huge allocation.
pub(crate) const MAX_PIXELS: usize = 1 << 28;

/// The single dimension gate every path shares — the decode-side header
/// validation ([`parse_header`]) and the encode-side guards
/// ([`StreamEncoder::with_depth`](crate::stream::StreamEncoder::with_depth),
/// the [`EncoderSession`], the grid writers), so an hours-long encode
/// cannot produce a container the decoder would refuse.
pub(crate) fn check_container_dimensions(width: usize, height: usize) -> Result<(), CodecError> {
    if width > u32::MAX as usize
        || height > u32::MAX as usize
        || width.saturating_mul(height) > MAX_PIXELS
    {
        return Err(CodecError::InvalidHeader(format!(
            "{width}x{height} exceeds the 2^28-pixel container limit"
        )));
    }
    Ok(())
}

/// Decompresses a container produced by [`compress`], or a version-4
/// grid (its tiles on one worker).
///
/// # Errors
///
/// Returns a [`CodecError`] when the header is malformed, or
/// [`CodecError::Truncated`] when the arithmetic payload ends well before
/// the header-declared pixel count was decoded (the decoder had to invent
/// more padding bits than any complete payload requires). A grid fails as
/// [`decompress_grid`](crate::grid::decompress_grid) does.
pub fn decompress(bytes: &[u8]) -> Result<Image, CodecError> {
    decode_container(&mut &bytes[..], None, Parallelism::Sequential)
}

/// The one container reader behind [`decompress`] and [`Proposed`]'s
/// decode: reads the header once, then streams a flat container row by
/// row through a [`StreamDecoder`] (only down to the last row of `roi`
/// when a crop is asked for) and hands a version-4 grid and `roi` to the
/// grid's tile loop, its tiles on `par` workers.
pub(crate) fn decode_container<R: Read + ?Sized>(
    input: &mut R,
    roi: Option<Rect>,
    par: Parallelism,
) -> Result<Image, CodecError> {
    let hdr = read_header(input)?;
    if hdr.tile.is_some() {
        return crate::grid::decode_grid(&hdr, input, roi, par);
    }
    match roi {
        Some(roi) => crate::grid::decode_flat_roi(hdr, input, roi),
        None => StreamDecoder::with_header(hdr, input)?.decode_all(),
    }
}

/// Parses a container header, returning the declared header fields and
/// the payload slice (for a version-4 grid container the "payload" is the
/// tile index followed by the per-tile substreams; see
/// [`grid::parse_grid`](crate::grid::parse_grid) for the structured view).
///
/// # Errors
///
/// Returns a [`CodecError`] describing the first malformed field.
pub fn parse_header(bytes: &[u8]) -> Result<(ContainerHeader, &[u8]), CodecError> {
    let mut source = bytes;
    let hdr = read_header(&mut source)?;
    Ok((hdr, source))
}

/// Reads and validates one container header off a stream, leaving the
/// reader positioned at the first payload byte — shared by the slice path
/// ([`parse_header`]) and the streaming decoders.
pub(crate) fn read_header<R: Read + ?Sized>(input: &mut R) -> Result<ContainerHeader, CodecError> {
    // Magic first, before demanding a full header: a short foreign-format
    // input must report BadMagic (so format sniffers can move on), not
    // pose as a truncated CBIC stream.
    let mut bytes = [0u8; HEADER_LEN];
    input
        .read_exact(&mut bytes[..4])
        .map_err(eof_is_truncated)?;
    if &bytes[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    input
        .read_exact(&mut bytes[4..])
        .map_err(eof_is_truncated)?;
    let version = bytes[4];
    if !(VERSION_V1..=VERSION_V4).contains(&version) || version == RETIRED_V3 {
        return Err(CodecError::UnsupportedVersion(version));
    }
    if bytes[5] != CODEC_ID {
        return Err(CodecError::UnsupportedCodec(bytes[5]));
    }
    let rd32 = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
    let rd16 = |o: usize| u16::from_le_bytes(bytes[o..o + 2].try_into().unwrap());
    let width = rd32(6) as usize;
    let height = rd32(10) as usize;
    if width == 0 || height == 0 {
        return Err(CodecError::InvalidHeader("zero dimension".into()));
    }
    // Defensive cap: a corrupted header must not trigger a huge allocation.
    check_container_dimensions(width, height)?;
    let count_bits = bytes[14];
    if !(10..=16).contains(&count_bits) {
        return Err(CodecError::InvalidHeader(format!(
            "count_bits {count_bits} outside 10..=16"
        )));
    }
    let max_total = (1u32 << count_bits) - 1;
    let increment = rd16(15);
    if increment == 0 || u32::from(increment) > max_total / 2 {
        return Err(CodecError::InvalidHeader(format!(
            "increment {increment} outside 1..={}",
            max_total / 2
        )));
    }
    let esc0 = rd16(17);
    let esc1 = rd16(19);
    if esc0 == 0 || esc1 == 0 || u32::from(esc0) + u32::from(esc1) > max_total {
        return Err(CodecError::InvalidHeader("invalid escape init".into()));
    }
    let flags = bytes[21];
    let texture_bits = bytes[22];
    if texture_bits > 6 {
        return Err(CodecError::InvalidHeader(format!(
            "texture_bits {texture_bits} outside 0..=6"
        )));
    }
    let bit_depth = if version >= VERSION_V2 {
        let mut depth = [0u8; 1];
        input.read_exact(&mut depth).map_err(eof_is_truncated)?;
        if !(1..=16).contains(&depth[0]) {
            return Err(CodecError::InvalidHeader(format!(
                "bit depth {} outside 1..=16",
                depth[0]
            )));
        }
        depth[0]
    } else {
        8
    };
    if version == VERSION_V4 {
        // Version 4 keeps the byte of the retired coder lanes; every
        // writer sets it to 1.
        let mut lane_byte = [0u8; 1];
        input.read_exact(&mut lane_byte).map_err(eof_is_truncated)?;
        if lane_byte[0] != 1 {
            return Err(CodecError::InvalidHeader(format!(
                "lane count {}: coder lanes are retired, only 1 is valid",
                lane_byte[0]
            )));
        }
    }
    let tile = if version == VERSION_V4 {
        let mut t = [0u8; 8];
        input.read_exact(&mut t).map_err(eof_is_truncated)?;
        let tile_w = u32::from_le_bytes(t[..4].try_into().expect("sized"));
        let tile_h = u32::from_le_bytes(t[4..].try_into().expect("sized"));
        if tile_w == 0 || tile_h == 0 {
            return Err(CodecError::InvalidHeader("zero tile dimension".into()));
        }
        Some((tile_w, tile_h))
    } else {
        None
    };
    let cfg = CodecConfig {
        estimator: EstimatorConfig {
            count_bits,
            increment,
            escape_init: (esc0, esc1),
        },
        error_feedback: flags & 1 != 0,
        aging: flags & 2 != 0,
        division: if flags & 4 != 0 {
            DivisionKind::Exact
        } else {
            DivisionKind::Lut
        },
        texture_bits,
    };
    Ok(ContainerHeader {
        cfg,
        width,
        height,
        bit_depth,
        tile,
    })
}

/// Maps mid-header/table EOF to [`CodecError::Truncated`], any other I/O
/// failure to [`CodecError::Io`].
fn eof_is_truncated(e: std::io::Error) -> CodecError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        CodecError::Truncated
    } else {
        CodecError::io(&e)
    }
}

/// The paper's codec on the unified [`Codec`] surface.
///
/// # Examples
///
/// ```
/// use cbic_core::Proposed;
/// use cbic_image::{Codec, DecodeOptions, EncodeOptions, Image};
///
/// let codec: &dyn Codec = &Proposed::default();
/// let img = Image::from_fn(16, 16, |x, y| (x * y) as u8);
/// let bytes = codec.encode_vec(img.view(), &EncodeOptions::default())?;
/// assert_eq!(codec.decode_vec(&bytes, &DecodeOptions::default())?, img);
/// assert_eq!(codec.name(), "proposed");
/// # Ok::<(), cbic_image::CbicError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Proposed(pub CodecConfig);

impl Codec for Proposed {
    fn name(&self) -> &'static str {
        "proposed"
    }

    fn magic(&self) -> Option<[u8; 4]> {
        Some(*MAGIC)
    }

    /// Streams the container into `sink` through a one-shot
    /// [`EncoderSession`] — no output buffer, byte-identical to
    /// [`compress`].
    /// The returned stats carry the exact payload bits, so
    /// [`Codec::payload_bits_per_pixel`] costs a single counting pass.
    ///
    /// When `opts.tile` is set the output is a version-4 grid container
    /// instead ([`grid::compress_grid`](crate::grid::compress_grid)),
    /// with its tiles coded on `opts.parallelism` workers — the bytes
    /// still do not depend on the schedule.
    fn encode(
        &self,
        img: ImageView<'_>,
        opts: &EncodeOptions,
        sink: &mut dyn Write,
    ) -> Result<cbic_image::EncodeStats, CbicError> {
        if let Some((tile_w, tile_h)) = opts.tile {
            if tile_w == 0 || tile_h == 0 {
                return Err(CbicError::InvalidContainer(
                    "tile dimensions must be nonzero".into(),
                ));
            }
            check_container_dimensions(img.width(), img.height()).map_err(CbicError::from)?;
            let geom = crate::grid::TileGeometry::new(tile_w, tile_h);
            let (bytes, payload_bits) =
                crate::grid::compress_grid_with_bits(img, &self.0, geom, opts.parallelism);
            sink.write_all(&bytes).map_err(CbicError::from)?;
            return Ok(cbic_image::EncodeStats::new(
                img.pixel_count() as u64,
                bytes.len() as u64,
                Some(payload_bits),
            ));
        }
        let mut counting = CountingSink::wrap(sink);
        let stats = EncoderSession::new(&self.0).encode(img, &mut counting)?;
        Ok(cbic_image::EncodeStats::new(
            stats.pixels,
            counting.bytes_written(),
            Some(stats.payload_bits),
        ))
    }

    /// True streaming through [`decompress`]'s reader: rows of a flat
    /// container are reconstructed one at a time through a
    /// [`StreamDecoder`] without slurping the compressed stream, and a
    /// version-4 grid has its tiles decoded on `opts.parallelism` workers.
    /// `opts.roi` requests a crop: a flat container is read only down to
    /// the rectangle's last row, and a grid decodes only the covering
    /// tiles (the source is not seekable, so a grid is read whole; for
    /// seeking past the other tiles see [`decode_roi_from`](crate::decode_roi_from)).
    fn decode(&self, source: &mut dyn Read, opts: &DecodeOptions) -> Result<Image, CbicError> {
        decode_container(source, opts.roi, opts.parallelism).map_err(CbicError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbic_image::corpus::CorpusImage;

    /// A crop through the `Codec` trait reads a flat container only as far
    /// as the rectangle's rows need: the top rows of a container of more
    /// than 32 KiB cost the header and at most two 4 KiB transport reads.
    #[test]
    fn codec_crop_reads_a_flat_container_only_down_to_its_rows() {
        struct Counting<'a> {
            inner: &'a [u8],
            read: usize,
        }
        impl Read for Counting<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.inner.read(buf)?;
                self.read += n;
                Ok(n)
            }
        }
        let img = CorpusImage::Lena.generate(512, 256);
        let bytes = compress(img.view(), &CodecConfig::default());
        assert!(bytes.len() >= 32 << 10, "{} bytes", bytes.len());
        let header = bytes.len() - parse_header(&bytes).unwrap().1.len();
        let opts = DecodeOptions::new().with_roi(Rect::new(0, 0, 512, 4));
        let mut source = Counting {
            inner: &bytes,
            read: 0,
        };
        let crop = Proposed::default().decode(&mut source, &opts).unwrap();
        assert_eq!(crop, img.view().crop(0, 0, 512, 4).to_image());
        assert!(
            source.read <= header + (8 << 10),
            "read {} of {} bytes",
            source.read,
            bytes.len()
        );
    }

    #[test]
    fn container_roundtrip_default_config() {
        let img = CorpusImage::Lena.generate(40, 40);
        let bytes = compress(img.view(), &CodecConfig::default());
        assert_eq!(decompress(&bytes).unwrap(), img);
    }

    #[test]
    #[should_panic(expected = "exceeds the 2^28-pixel container limit")]
    fn compress_refuses_an_image_over_the_pixel_ceiling() {
        // 2^28 + 2^14 zero samples straight from `calloc`: refused before
        // any pixel is coded, so none of the pages is ever touched.
        let img = Image::with_depth(16_385, 16_384, 8);
        compress(img.view(), &CodecConfig::default());
    }

    #[test]
    fn eight_bit_containers_stay_version_one() {
        let img = CorpusImage::Lena.generate(16, 16);
        let bytes = compress(img.view(), &CodecConfig::default());
        assert_eq!(bytes[4], VERSION_V1, "8-bit streams keep the old format");
        let (hdr, _) = parse_header(&bytes).unwrap();
        assert_eq!(hdr.bit_depth, 8);
    }

    #[test]
    fn deep_containers_carry_their_depth() {
        let img = Image::from_fn16(20, 12, 12, |x, y| (x * 200 + y) as u16);
        let bytes = compress(img.view(), &CodecConfig::default());
        assert_eq!(bytes[4], VERSION_V2);
        assert_eq!(bytes[23], 12);
        let (hdr, _) = parse_header(&bytes).unwrap();
        assert_eq!(hdr.bit_depth, 12);
        assert_eq!((hdr.width, hdr.height), (20, 12));
        let back = decompress(&bytes).unwrap();
        assert_eq!(back, img);
        assert_eq!(back.bit_depth(), 12);
    }

    #[test]
    fn container_roundtrip_nondefault_config() {
        let img = CorpusImage::Mandrill.generate(32, 32);
        let cfg = CodecConfig {
            estimator: EstimatorConfig {
                count_bits: 11,
                increment: 7,
                escape_init: (3, 2),
            },
            error_feedback: false,
            aging: false,
            division: DivisionKind::Exact,
            texture_bits: 3,
        };
        let bytes = compress(img.view(), &cfg);
        // The header must carry the config: decode with no prior knowledge.
        assert_eq!(decompress(&bytes).unwrap(), img);
        let (hdr, _) = parse_header(&bytes).unwrap();
        assert_eq!(hdr.cfg, cfg);
        assert_eq!((hdr.width, hdr.height), (32, 32));
    }

    #[test]
    fn rejects_bad_magic() {
        let img = CorpusImage::Zelda.generate(16, 16);
        let mut bytes = compress(img.view(), &CodecConfig::default());
        bytes[0] = b'X';
        assert_eq!(decompress(&bytes), Err(CodecError::BadMagic));
    }

    #[test]
    fn rejects_bad_version_and_codec() {
        let img = CorpusImage::Zelda.generate(16, 16);
        let mut bytes = compress(img.view(), &CodecConfig::default());
        bytes[4] = 9;
        assert_eq!(decompress(&bytes), Err(CodecError::UnsupportedVersion(9)));
        bytes[4] = 1;
        bytes[5] = 7;
        assert_eq!(decompress(&bytes), Err(CodecError::UnsupportedCodec(7)));
    }

    #[test]
    fn rejects_truncation() {
        assert_eq!(decompress(b"CBIC"), Err(CodecError::Truncated));
        assert_eq!(decompress(b""), Err(CodecError::Truncated));
        // A short *foreign* stream is a magic mismatch, not a truncated
        // CBIC container — format sniffers rely on the distinction.
        assert_eq!(decompress(b"CBSL\x01\x02\x03"), Err(CodecError::BadMagic));
        assert_eq!(decompress(b"XYZ"), Err(CodecError::Truncated));
        // A version-2 header cut off before its depth byte.
        let img = Image::from_fn16(8, 8, 10, |x, _| x as u16);
        let bytes = compress(img.view(), &CodecConfig::default());
        assert_eq!(
            parse_header(&bytes[..HEADER_LEN]).err(),
            Some(CodecError::Truncated)
        );
    }

    #[test]
    fn rejects_invalid_fields() {
        let img = CorpusImage::Zelda.generate(16, 16);
        let mut bytes = compress(img.view(), &CodecConfig::default());
        bytes[14] = 42; // count_bits
        assert!(matches!(
            decompress(&bytes),
            Err(CodecError::InvalidHeader(_))
        ));
        // A version-2 depth byte outside 1..=16.
        let deep = Image::from_fn16(8, 8, 10, |x, _| x as u16);
        let mut bytes = compress(deep.view(), &CodecConfig::default());
        bytes[23] = 31;
        assert!(matches!(
            decompress(&bytes),
            Err(CodecError::InvalidHeader(_))
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(CodecError::BadMagic.to_string().contains("magic"));
        assert!(CodecError::UnsupportedVersion(9).to_string().contains('9'));
    }

    #[test]
    fn single_lane_stays_on_the_legacy_container() {
        // The format decision of retiring coder lanes: writers keep the
        // containers they always wrote for one lane — v1 for 8-bit
        // samples, v2 for other depths — and v4 carries lane byte 1.
        let img = CorpusImage::Mandrill.generate(24, 24);
        let deep = Image::from_fn16(24, 24, 12, |x, y| (x * 150 + y) as u16);
        let cfg = CodecConfig::default();
        assert_eq!(compress(img.view(), &cfg)[4], VERSION_V1);
        assert_eq!(compress(deep.view(), &cfg)[4], VERSION_V2);
        let grid = crate::grid::compress_grid(
            img.view(),
            &cfg,
            crate::grid::TileGeometry::new(8, 8),
            1,
            cbic_image::Parallelism::Sequential,
        );
        assert_eq!((grid[4], grid[24]), (VERSION_V4, 1));
        assert_eq!(decompress(&grid).unwrap(), img);
    }

    #[test]
    fn retired_version_three_is_unsupported() {
        // A version-3 header (depth byte, then its lane byte) is refused
        // before any lane field is read, with a message naming it.
        let img = Image::from_fn16(16, 16, 10, |x, y| (x * 31 + y) as u16);
        let mut bytes = compress(img.view(), &CodecConfig::default());
        bytes[4] = RETIRED_V3;
        bytes.insert(24, 4);
        let err = decompress(&bytes).unwrap_err();
        assert_eq!(err, CodecError::UnsupportedVersion(3));
        assert!(err.to_string().contains("version 3"), "{err}");
        assert!(err.to_string().contains("retired"), "{err}");
        assert_eq!(
            CbicError::from(err).to_string(),
            "unsupported container version 3"
        );
    }

    #[test]
    fn retired_version_five_is_unsupported() {
        // A version-5 header (depth, lane, model byte, layout flag) is
        // refused as soon as its version byte is read, with a message
        // naming the retired wide-hash model.
        let img = CorpusImage::Lena.generate(16, 16);
        let mut bytes = compress(img.view(), &CodecConfig::default());
        bytes[4] = RETIRED_V5;
        for (at, byte) in [(23, 8u8), (24, 1), (25, 10), (26, 0)] {
            bytes.insert(at, byte);
        }
        let err = decompress(&bytes).unwrap_err();
        assert_eq!(err, CodecError::UnsupportedVersion(5));
        let msg = err.to_string();
        assert!(
            msg.contains("version 5") && msg.contains("wide-hash"),
            "{msg}"
        );
        assert!(msg.contains("retired"), "{msg}");
        assert_eq!(parse_header(&bytes).err(), Some(err.clone()));
        assert!(matches!(
            CbicError::from(err),
            CbicError::UnsupportedVersion(5)
        ));
    }

    #[test]
    fn rejects_bad_lane_byte() {
        // Version 4 carries the lane byte at offset 24; only 1 is valid
        // now that coder lanes are retired.
        let img = CorpusImage::Lena.generate(16, 16);
        let mut bytes = crate::grid::compress_grid(
            img.view(),
            &CodecConfig::default(),
            crate::grid::TileGeometry::new(8, 8),
            1,
            cbic_image::Parallelism::Sequential,
        );
        assert_eq!(bytes[24], 1, "writers emit one lane");
        assert_eq!(decompress(&bytes).unwrap(), img);
        for bad in [0u8, 2, 33, 255] {
            bytes[24] = bad;
            assert!(
                matches!(decompress(&bytes), Err(CodecError::InvalidHeader(_))),
                "lane byte {bad} must be rejected"
            );
        }
    }
}
