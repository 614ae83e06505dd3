//! 2D tile grid — container v4: the paper's multi-core partition, with a
//! seekable index for random-access crop decode and multi-core
//! whole-image decode.
//!
//! Section V closes with: "The low complexity means that a multi-core
//! solution could be used to scale up the performance." This module is
//! that decomposition: the image is split into a **2D grid** of tiles
//! (configurable size, default 256×256; a tile as wide as the image is a
//! horizontal band), each coded by an *independent* instance of the codec
//! with its own contexts, trees and arithmetic coder. A **serialized tile
//! index** right after the container header records per tile a byte
//! offset, a length, and a CRC-32 checksum. The index makes every tile
//! `O(1)`-seekable, which buys:
//!
//! * **random access** — [`decode_roi_from`] (and [`decode_roi`], its
//!   slice form) reads *only* the tiles covering a requested rectangle:
//!   it seeks past the other tiles' bytes without reading them, and
//! * **parallelism on both sides** — [`compress_grid`] and
//!   [`decompress_grid`] hand tiles to worker threads.
//!
//! The price is model cold-start per tile (every tile re-learns its
//! statistics), bounded by this module's tests.
//!
//! One reader validates every tile index, and one tile loop serves every
//! decode: a whole image — [`decompress_grid`], and the grid leg of
//! [`decompress`](crate::decompress), the proposed codec's
//! `Codec::decode` and the [`DecoderSession`](crate::DecoderSession) — is
//! the crop of the full rectangle. Each tile's CRC-32 is checked by the
//! worker that decodes it.
//!
//! # Container v4 layout
//!
//! ```text
//! offset  size   field
//! 0       23     fixed header (magic, version=4, codec id, dimensions,
//!                model parameters — identical to v1/v2, see `container`)
//! 23      1      sample bit depth (1..=16)
//! 24      1      lane byte, always 1 (coder lanes are retired)
//! 25      4      tile width in pixels  (u32 LE)
//! 29      4      tile height in pixels (u32 LE)
//! 33      16×T   tile index: T = cols×rows row-major entries of
//!                  [0..8)   substream offset (u64 LE, relative to the
//!                           first byte after the index)
//!                  [8..12)  substream length in bytes (u32 LE)
//!                  [12..16) CRC-32 (IEEE) of the substream bytes
//! ...     ...    concatenated tile substreams, in index order
//! ```
//!
//! Each tile substream is exactly what the flat formats would carry for
//! that tile's pixels: the raw arithmetic payload. A 1×1 grid therefore
//! carries the *same payload bits* as the v1/v2 container of the whole
//! image — asserted by this module's tests.
//!
//! Offsets are required to be cumulative (`offset[0] = 0`,
//! `offset[i] = offset[i-1] + len[i-1]`) so the index can never alias or
//! reorder substreams; any other arrangement is a structured
//! [`CbicError::InvalidContainer`], and a payload shorter than the index
//! promises is [`CbicError::Truncated`] — never a panic.
//!
//! # Scheduling
//!
//! Tiles have no dependencies, so any order codes correctly. Workers
//! claim tile indices `0..n` in order off one shared atomic cursor (work
//! stealing off one queue — an idle worker always finds the next
//! unclaimed tile). Each worker owns a single resettable
//! [`EncoderState`]/[`DecoderState`] reused across every tile it claims
//! (a reset model is byte-identical to a fresh one — the session
//! invariant), so model-table allocations do not scale with tile count.
//! The schedule can never change the bytes: outputs are reassembled in
//! index order regardless of which worker coded what.
//!
//! A caller that has the host's CPUs to itself, such as a one-shot
//! command, can split a lone worker in two stages as the streamed encoder
//! does ([`compress_grid_two_stage`]): the worker models the tiles while
//! its binary coder, on a thread of its own, codes them as a sequence of
//! streams, one per tile. [`compress_grid`] and [`compress_grid_with_bits`]
//! code every tile on the workers, whose callers, such as a server's
//! worker pool, may already keep every CPU busy.
//!
//! # Examples
//!
//! ```
//! use cbic_core::grid::{compress_grid, decode_roi, decompress_grid, TileGeometry};
//! use cbic_core::CodecConfig;
//! use cbic_image::{corpus::CorpusImage, Parallelism, Rect};
//!
//! let img = CorpusImage::Lena.generate(64, 64);
//! let cfg = CodecConfig::default();
//! let bytes = compress_grid(
//!     img.view(),
//!     &cfg,
//!     TileGeometry::new(32, 32),
//!     1,
//!     Parallelism::Auto,
//! );
//! // Whole-image decode, tiles in parallel.
//! assert_eq!(decompress_grid(&bytes, Parallelism::Threads(4))?, img);
//! // Random-access crop: only the covering tiles are decoded.
//! let crop = decode_roi(&bytes, Rect::new(40, 8, 16, 20), Parallelism::Sequential)?;
//! assert_eq!(crop.dimensions(), (16, 20));
//! assert_eq!(crop.row(0), &img.row(8)[40..56]);
//! # Ok::<(), cbic_image::CbicError>(())
//! ```

use crate::codec::{decode_rows_checked, CodecConfig};
use crate::coder_thread::{use_coder_thread, CoderThread};
use crate::container::{header_bytes, read_header, ContainerHeader, HEADER_LEN, VERSION_V4};
use crate::engine::{DecoderState, EncoderState};
use crate::stream::StreamDecoder;
use cbic_arith::{BinaryDecoder, BinaryEncoder};
use cbic_bitio::{BitReader, BitSink, BitWriter};
use cbic_image::{CbicError, Image, ImageView, Parallelism, Rect};
use std::io::{Read, Seek, SeekFrom};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default tile edge in pixels (256×256 tiles), chosen so a tile is large
/// enough to amortize model cold-start (~64 KP) yet small enough that a
/// 4K frame yields a healthy 15×9 grid for the scheduler.
pub const DEFAULT_TILE_SIZE: u32 = 256;

/// Ceiling on the tile count of one container. At the 256 MP image cap a
/// forged header could otherwise claim 2^28 1×1 tiles and demand a 4 GiB
/// index allocation; one million tiles covers every sane geometry (a
/// 16384×16384 image at 16×16 tiles) while bounding the index at 16 MiB.
pub const MAX_TILES: usize = 1 << 20;

/// Bytes of one serialized tile-index entry (offset u64 + len u32 + crc u32).
pub const INDEX_ENTRY_LEN: usize = 16;

/// The 2D tile partition of an image: tiles of `tile_w`×`tile_h` pixels,
/// laid out row-major; right/bottom edge tiles are clamped to the image.
///
/// # Examples
///
/// ```
/// use cbic_core::grid::TileGeometry;
///
/// let geom = TileGeometry::new(256, 256);
/// assert_eq!(geom.grid(1000, 600), (4, 3));
/// assert_eq!(geom.tile_rect(3, 2, 1000, 600), (768, 512, 232, 88));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGeometry {
    tile_w: u32,
    tile_h: u32,
}

impl Default for TileGeometry {
    /// [`DEFAULT_TILE_SIZE`]-square tiles.
    fn default() -> Self {
        Self::new(DEFAULT_TILE_SIZE, DEFAULT_TILE_SIZE)
    }
}

impl TileGeometry {
    /// Tiles of `tile_w`×`tile_h` pixels.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(tile_w: u32, tile_h: u32) -> Self {
        assert!(tile_w > 0 && tile_h > 0, "tile dimensions must be nonzero");
        Self { tile_w, tile_h }
    }

    /// Tile size in pixels, `(tile_w, tile_h)`.
    pub fn tile_size(&self) -> (u32, u32) {
        (self.tile_w, self.tile_h)
    }

    /// Grid shape `(cols, rows)` covering a `width`×`height` image.
    pub fn grid(&self, width: usize, height: usize) -> (usize, usize) {
        (
            width.div_ceil(self.tile_w as usize).max(1),
            height.div_ceil(self.tile_h as usize).max(1),
        )
    }

    /// Pixel rectangle `(x, y, w, h)` of the tile at `(col, row)` in a
    /// `width`×`height` image — edge tiles are clamped to the image.
    pub fn tile_rect(
        &self,
        col: usize,
        row: usize,
        width: usize,
        height: usize,
    ) -> (usize, usize, usize, usize) {
        let x = col * self.tile_w as usize;
        let y = row * self.tile_h as usize;
        let w = (self.tile_w as usize).min(width - x);
        let h = (self.tile_h as usize).min(height - y);
        (x, y, w, h)
    }
}

/// One tile's entry in the serialized index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileEntry {
    /// Byte offset of the tile's substream, relative to the first byte
    /// after the index. Entry `i`'s offset always equals the sum of the
    /// preceding lengths.
    pub offset: u64,
    /// Substream length in bytes.
    pub len: u32,
    /// CRC-32 (IEEE) of the substream bytes.
    pub crc32: u32,
}

/// The parsed (and validated) tile index of a v4 container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileIndex {
    /// Tile geometry declared by the header.
    pub geometry: TileGeometry,
    /// Grid columns (`ceil(width / tile_w)`).
    pub cols: usize,
    /// Grid rows (`ceil(height / tile_h)`).
    pub rows: usize,
    /// Image width in pixels (from the header; kept here so the index
    /// can answer geometry queries on its own).
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// One entry per tile, row-major.
    pub entries: Vec<TileEntry>,
}

impl TileIndex {
    /// Total payload bytes the index accounts for (the sum of every
    /// tile's length).
    pub fn payload_len(&self) -> u64 {
        self.entries
            .last()
            .map_or(0, |e| e.offset + u64::from(e.len))
    }

    /// Pixel rectangle `(x, y, w, h)` of the tile at `(col, row)`.
    pub fn tile_rect(&self, col: usize, row: usize) -> (usize, usize, usize, usize) {
        self.geometry.tile_rect(col, row, self.width, self.height)
    }

    /// Column/row ranges `(c0..=c1, r0..=r1)` of the tiles covering
    /// `roi`, which must lie inside the image.
    ///
    /// # Errors
    ///
    /// [`CbicError::InvalidContainer`] for an empty or out-of-bounds
    /// rectangle.
    pub fn covering(&self, roi: Rect) -> Result<(usize, usize, usize, usize), CbicError> {
        check_roi(roi, self.width, self.height)?;
        let (tw, th) = self.geometry.tile_size();
        let c0 = roi.x as usize / tw as usize;
        let c1 = (roi.x + roi.w - 1) as usize / tw as usize;
        let r0 = roi.y as usize / th as usize;
        let r1 = (roi.y + roi.h - 1) as usize / th as usize;
        Ok((c0, c1, r0, r1))
    }

    /// Reads and validates the serialized index (`cols × rows` entries) of
    /// the v4 container whose fixed header `hdr` was just read off `input`
    /// — the one index reader behind every grid decode.
    fn read_from<R: Read + ?Sized>(
        input: &mut R,
        hdr: &ContainerHeader,
    ) -> Result<Self, CbicError> {
        let Some((tile_w, tile_h)) = hdr.tile else {
            return Err(CbicError::InvalidContainer(
                "not a version-4 tiled container".into(),
            ));
        };
        let geometry = TileGeometry::new(tile_w, tile_h);
        let (width, height) = (hdr.width, hdr.height);
        let (cols, rows) = geometry.grid(width, height);
        let tiles = cols
            .checked_mul(rows)
            .filter(|&t| t <= MAX_TILES)
            .ok_or_else(|| {
                CbicError::InvalidContainer(format!(
                    "{cols}x{rows} tile grid exceeds the {MAX_TILES}-tile limit"
                ))
            })?;
        // `take` bounds the allocation by what the stream actually holds,
        // so a forged grid shape cannot trigger an oversized reservation.
        let mut raw = Vec::new();
        input
            .take((tiles * INDEX_ENTRY_LEN) as u64)
            .read_to_end(&mut raw)?;
        if raw.len() != tiles * INDEX_ENTRY_LEN {
            return Err(CbicError::Truncated);
        }
        let mut entries = Vec::with_capacity(tiles);
        let mut expected_offset = 0u64;
        for (i, chunk) in raw.chunks_exact(INDEX_ENTRY_LEN).enumerate() {
            let offset = u64::from_le_bytes(chunk[..8].try_into().expect("sized"));
            let len = u32::from_le_bytes(chunk[8..12].try_into().expect("sized"));
            let crc32 = u32::from_le_bytes(chunk[12..16].try_into().expect("sized"));
            if offset != expected_offset {
                return Err(CbicError::InvalidContainer(format!(
                    "tile {i} offset {offset} is not cumulative (expected {expected_offset})"
                )));
            }
            expected_offset += u64::from(len);
            entries.push(TileEntry { offset, len, crc32 });
        }
        Ok(Self {
            geometry,
            cols,
            rows,
            width,
            height,
            entries,
        })
    }

    /// Checks that `found` payload bytes follow the index: fewer is
    /// [`CbicError::Truncated`], more a structured
    /// [`CbicError::InvalidContainer`].
    fn check_payload_len(&self, found: u64) -> Result<(), CbicError> {
        let promised = self.payload_len();
        match found.cmp(&promised) {
            std::cmp::Ordering::Less => Err(CbicError::Truncated),
            std::cmp::Ordering::Greater => Err(CbicError::InvalidContainer(format!(
                "{found} payload bytes but the tile index accounts for {promised}"
            ))),
            std::cmp::Ordering::Equal => Ok(()),
        }
    }
}

/// Rejects an empty or out-of-bounds region of interest ([`Rect::fits`])
/// with a structured error naming both rectangles.
fn check_roi(roi: Rect, width: usize, height: usize) -> Result<(), CbicError> {
    if roi.fits(width, height) {
        return Ok(());
    }
    Err(CbicError::InvalidContainer(format!(
        "ROI {roi} outside the {width}x{height} image"
    )))
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes` —
/// the checksum the tile index carries per substream.
///
/// # Examples
///
/// ```
/// use cbic_core::grid::crc32;
///
/// assert_eq!(crc32(b""), 0);
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926); // the standard check value
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in bytes {
        crc = TABLE[usize::from((crc as u8) ^ b)] ^ (crc >> 8);
    }
    !crc
}

/// The tile scheduler: runs `job` over every index `0..jobs` on
/// `par`-many scoped workers. Workers *claim* indices in order off a
/// shared atomic cursor (work stealing from one queue: a fast worker keeps
/// claiming while a slow one finishes its tile) and each owns one
/// `make_state()` value reused across all its claims. Outputs land in
/// index order regardless of the schedule.
fn run_tiles<O, S, G, F>(jobs: usize, par: Parallelism, make_state: G, job: F) -> Vec<O>
where
    O: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> O + Sync,
{
    let workers = par.workers(jobs);
    if workers <= 1 {
        let mut state = make_state();
        return (0..jobs).map(|idx| job(&mut state, idx)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut outputs: Vec<Option<O>> = (0..jobs).map(|_| None).collect();
    std::thread::scope(|scope| {
        let (cursor, make_state, job) = (&cursor, &make_state, &job);
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut state = make_state();
                    let mut done = Vec::new();
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= jobs {
                            break;
                        }
                        done.push((idx, job(&mut state, idx)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (idx, out) in handle.join().expect("tile worker panicked") {
                outputs[idx] = Some(out);
            }
        }
    });
    outputs
        .into_iter()
        .map(|o| o.expect("every tile coded"))
        .collect()
}

/// Encodes one tile on a reused engine state, returning its substream —
/// exactly the raw arithmetic payload ([`encode_raw`](crate::encode_raw)
/// of the tile view) — and its exact payload bits.
fn encode_tile(state: &mut EncoderState, tile: ImageView<'_>) -> (Vec<u8>, u64) {
    state.reset(tile.width(), tile.bit_depth());
    let mut enc = BinaryEncoder::new(BitWriter::new());
    state.encode_view(tile, &mut enc);
    let writer = enc.finish();
    let bits = writer.bits_written();
    (writer.into_bytes(), bits)
}

/// Encodes `tiles` in order on one engine state, each a stream of
/// `coder`'s thread, and returns what [`encode_tile`] returns per tile.
/// The coder does not hold the model up: tile `k + 1` is modelled here
/// while that thread codes tile `k`.
fn encode_tiles_on<'a>(
    mut coder: CoderThread,
    mut state: EncoderState,
    tiles: impl ExactSizeIterator<Item = ImageView<'a>>,
) -> Vec<(Vec<u8>, u64)> {
    let streams = tiles.len();
    for tile in tiles {
        state.reset(tile.width(), tile.bit_depth());
        state.encode_view(tile, &mut coder);
        coder.end_stream();
    }
    let coded = (0..streams).map(|_| coder.take_stream()).collect();
    coder.join();
    coded
}

/// Compresses a view into a version-4 grid container: fixed header, tile
/// index, then one independently decodable substream per tile, coded on
/// `par` worker threads. The bytes never depend on the schedule.
///
/// # Examples
///
/// ```
/// use cbic_core::grid::{compress_grid, decompress_grid, TileGeometry};
/// use cbic_core::CodecConfig;
/// use cbic_image::{corpus::CorpusImage, Parallelism};
///
/// let img = CorpusImage::Barb.generate(48, 48);
/// let bytes = compress_grid(
///     img.view(),
///     &CodecConfig::default(),
///     TileGeometry::new(16, 16),
///     1,
///     Parallelism::Auto,
/// );
/// assert_eq!(bytes[4], 4, "version byte");
/// assert_eq!(decompress_grid(&bytes, Parallelism::Auto)?, img);
/// # Ok::<(), cbic_image::CbicError>(())
/// ```
///
/// `lanes` is kept for callers written when the coder had lanes; coder
/// lanes are retired, so it must be 1.
///
/// # Panics
///
/// Panics if `lanes` is not 1, the configuration is invalid, the image
/// exceeds the container's 2^28-pixel ceiling, or the grid would exceed
/// [`MAX_TILES`].
pub fn compress_grid(
    img: ImageView<'_>,
    cfg: &CodecConfig,
    geom: TileGeometry,
    lanes: usize,
    par: Parallelism,
) -> Vec<u8> {
    assert_eq!(lanes, 1, "coder lanes are retired: lanes must be 1");
    compress_grid_with_bits(img, cfg, geom, par).0
}

/// [`compress_grid`] that also returns the exact entropy-coded payload
/// bits summed over every tile (flush tails included; excludes headers
/// and the index) — what the bench harness reports as bits per pixel.
pub fn compress_grid_with_bits(
    img: ImageView<'_>,
    cfg: &CodecConfig,
    geom: TileGeometry,
    par: Parallelism,
) -> (Vec<u8>, u64) {
    encode_grid(img, cfg, geom, par, None)
}

/// [`compress_grid_with_bits`] for a caller that has the host's CPUs to
/// itself: when one worker codes every tile and more than one CPU is
/// available, that worker's binary coder runs on a thread of its own (see
/// "Scheduling" in the module docs). The third value says whether it did;
/// the bytes are the same either way.
///
/// # Errors
///
/// [`CbicError::InvalidContainer`] if the image exceeds the container's
/// 2^28-pixel ceiling.
///
/// # Panics
///
/// Panics if the configuration is invalid or the grid would exceed
/// [`MAX_TILES`].
pub fn compress_grid_two_stage(
    img: ImageView<'_>,
    cfg: &CodecConfig,
    geom: TileGeometry,
    par: Parallelism,
) -> Result<(Vec<u8>, u64, bool), CbicError> {
    crate::container::check_container_dimensions(img.width(), img.height())?;
    let (cols, rows) = geom.grid(img.width(), img.height());
    let coder = use_coder_thread(par.workers(cols * rows))
        .then(CoderThread::spawn)
        .flatten();
    let coder_thread = coder.is_some();
    let (bytes, bits) = encode_grid(img, cfg, geom, par, coder);
    Ok((bytes, bits, coder_thread))
}

/// [`compress_grid_with_bits`] with every tile coded into `coder` by one
/// worker if it is given, else inline on `par` workers.
pub(crate) fn encode_grid(
    img: ImageView<'_>,
    cfg: &CodecConfig,
    geom: TileGeometry,
    par: Parallelism,
    coder: Option<CoderThread>,
) -> (Vec<u8>, u64) {
    let (width, height) = img.dimensions();
    crate::container::check_container_dimensions(width, height)
        .expect("image within the container's pixel ceiling");
    let (cols, rows) = geom.grid(width, height);
    let tiles = cols * rows;
    assert!(
        tiles <= MAX_TILES,
        "{cols}x{rows} tile grid exceeds the {MAX_TILES}-tile limit"
    );

    let bit_depth = img.bit_depth();
    let tile = |idx: usize| {
        let (x, y, w, h) = geom.tile_rect(idx % cols, idx / cols, width, height);
        img.crop(x, y, w, h)
    };
    let state = || EncoderState::new(1, bit_depth, cfg);
    let coded: Vec<(Vec<u8>, u64)> = match coder {
        Some(coder) => encode_tiles_on(coder, state(), (0..tiles).map(tile)),
        None => run_tiles(tiles, par, state, |state, idx| {
            encode_tile(state, tile(idx))
        }),
    };

    let payload_bits: u64 = coded.iter().map(|(_, bits)| bits).sum();
    let body: usize = coded.iter().map(|(sub, _)| sub.len()).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + 12 + tiles * INDEX_ENTRY_LEN + body);
    // The shared fixed-header serializer keeps the first 23 bytes
    // byte-identical to every other path; v4 then owns the extension.
    let (base, _) = header_bytes(cfg, width, height, bit_depth);
    out.extend_from_slice(&base[..HEADER_LEN]);
    out[4] = VERSION_V4;
    out.push(bit_depth);
    out.push(1); // the lane byte of the retired coder lanes
    let (tw, th) = geom.tile_size();
    out.extend_from_slice(&tw.to_le_bytes());
    out.extend_from_slice(&th.to_le_bytes());
    let mut offset = 0u64;
    for (sub, _) in &coded {
        let len = u32::try_from(sub.len()).expect("tile substream below 4 GiB");
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&crc32(sub).to_le_bytes());
        offset += u64::from(len);
    }
    for (sub, _) in &coded {
        out.extend_from_slice(sub);
    }
    (out, payload_bits)
}

/// Parses a version-4 container into its header, validated tile index,
/// and payload slice (the concatenated substreams).
///
/// # Errors
///
/// [`CbicError::InvalidContainer`] for non-v4 containers, impossible grid
/// shapes, non-cumulative index offsets, or trailing bytes beyond what
/// the index accounts for; [`CbicError::Truncated`] when the bytes end
/// inside the header, the index, or the promised payload.
pub fn parse_grid(bytes: &[u8]) -> Result<(ContainerHeader, TileIndex, &[u8]), CbicError> {
    let mut source = bytes;
    let hdr = read_header(&mut source)?;
    let index = TileIndex::read_from(&mut source, &hdr)?;
    index.check_payload_len(source.len() as u64)?;
    Ok((hdr, index, source))
}

/// Checks a tile substream against the CRC-32 its index entry records.
fn check_crc(index: &TileIndex, idx: usize, sub: &[u8]) -> Result<(), CbicError> {
    if crc32(sub) == index.entries[idx].crc32 {
        return Ok(());
    }
    Err(CbicError::InvalidContainer(format!(
        "tile ({}, {}) checksum mismatch",
        idx % index.cols,
        idx / index.cols
    )))
}

/// The one tile loop of every grid decode: decodes `subs` — the
/// `(tile index, substream)` pairs of the tiles covering `roi`, in
/// row-major order — on `par` workers and assembles the `roi` crop. A
/// whole-image decode is the full rectangle. Each job checks its
/// substream's CRC-32 before decoding it, so the checks run on the
/// workers too. Safe code cannot hand workers disjoint 2D windows of one
/// buffer, so each tile decodes into its own image and is copied into
/// place afterwards — linear in pixels, and small next to the arithmetic
/// decode. A substream that runs dry stops its tile within a row
/// ([`decode_rows_checked`]).
fn decode_tiles(
    hdr: &ContainerHeader,
    index: &TileIndex,
    roi: Rect,
    subs: &[(usize, &[u8])],
    par: Parallelism,
) -> Result<Image, CbicError> {
    let decoded: Vec<Result<Image, CbicError>> = run_tiles(
        subs.len(),
        par,
        || DecoderState::new(1, hdr.bit_depth, &hdr.cfg),
        |state, i| {
            let (idx, sub) = subs[i];
            check_crc(index, idx, sub)?;
            let (_, _, w, h) = index.tile_rect(idx % index.cols, idx / index.cols);
            state.reset(w, hdr.bit_depth);
            let mut tile = Image::with_depth(w, h, hdr.bit_depth);
            let mut dec = BinaryDecoder::new(BitReader::new(sub));
            decode_rows_checked(state, &mut dec, &mut tile.view_mut())?;
            Ok(tile)
        },
    );
    let (rx, ry) = (roi.x as usize, roi.y as usize);
    let (rw, rh) = (roi.w as usize, roi.h as usize);
    let mut out = Image::with_depth(rw, rh, hdr.bit_depth);
    for (&(idx, _), tile) in subs.iter().zip(decoded) {
        let tile = tile?;
        let (tx, ty, tw, th) = index.tile_rect(idx % index.cols, idx / index.cols);
        // Intersection of the tile with the ROI, in both coordinate frames.
        let (x0, x1) = (rx.max(tx), (rx + rw).min(tx + tw));
        let (y0, y1) = (ry.max(ty), (ry + rh).min(ty + th));
        for y in y0..y1 {
            out.row_mut(y - ry)[x0 - rx..x1 - rx]
                .copy_from_slice(&tile.row(y - ty)[x0 - tx..x1 - tx]);
        }
    }
    Ok(out)
}

/// Decompresses a version-4 grid container produced by [`compress_grid`],
/// decoding tiles on `par` worker threads. The pixels never depend on the
/// schedule.
///
/// # Errors
///
/// As [`parse_grid`], plus [`CbicError::Truncated`] when a tile's
/// arithmetic payload ends before its pixels do and
/// [`CbicError::InvalidContainer`] on a checksum mismatch.
pub fn decompress_grid(bytes: &[u8], par: Parallelism) -> Result<Image, CbicError> {
    let mut source = bytes;
    let hdr = read_header(&mut source)?;
    decode_grid_bytes(&hdr, source, None, par)
}

/// The grid leg of the readers that are not seekable
/// ([`decode_container`](crate::container::decode_container), the
/// [`DecoderSession`](crate::DecoderSession)): reads the rest of `input`,
/// whose fixed header `hdr` was already consumed, once, and decodes it as
/// [`decode_grid_bytes`] does.
pub(crate) fn decode_grid<R: Read + ?Sized>(
    hdr: &ContainerHeader,
    input: &mut R,
    roi: Option<Rect>,
    par: Parallelism,
) -> Result<Image, CbicError> {
    let mut rest = Vec::new();
    input.read_to_end(&mut rest)?;
    decode_grid_bytes(hdr, &rest, roi, par)
}

/// Decodes the tiles covering `roi` (the whole image when `None`) of the
/// grid whose fixed header `hdr` precedes `rest`, its tile index and
/// substreams; each tile decodes from its slice of `rest`. Errors as
/// [`decompress_grid`], and as [`decode_roi_from`] for the rectangle.
fn decode_grid_bytes(
    hdr: &ContainerHeader,
    mut rest: &[u8],
    roi: Option<Rect>,
    par: Parallelism,
) -> Result<Image, CbicError> {
    let index = TileIndex::read_from(&mut rest, hdr)?;
    index.check_payload_len(rest.len() as u64)?;
    let roi = roi.unwrap_or(Rect::new(0, 0, hdr.width as u32, hdr.height as u32));
    let subs: Vec<(usize, &[u8])> = covering_indices(&index, roi)?
        .into_iter()
        .map(|idx| {
            let e = &index.entries[idx];
            (idx, &rest[e.offset as usize..][..e.len as usize])
        })
        .collect();
    decode_tiles(hdr, &index, roi, &subs, par)
}

/// Row-major indices of the tiles covering `roi`.
fn covering_indices(index: &TileIndex, roi: Rect) -> Result<Vec<usize>, CbicError> {
    let (c0, c1, r0, r1) = index.covering(roi)?;
    let mut indices = Vec::with_capacity((c1 - c0 + 1) * (r1 - r0 + 1));
    for row in r0..=r1 {
        for col in c0..=c1 {
            indices.push(row * index.cols + col);
        }
    }
    Ok(indices)
}

/// [`decode_roi_from`] over a container held in memory (an
/// [`io::Cursor`](std::io::Cursor) over `bytes`).
///
/// # Errors
///
/// As [`decode_roi_from`].
pub fn decode_roi(bytes: &[u8], roi: Rect, par: Parallelism) -> Result<Image, CbicError> {
    decode_roi_from(&mut std::io::Cursor::new(bytes), roi, par)
}

/// Random-access crop decode of any container version from a seekable
/// source: returns exactly the `roi.w`×`roi.h` crop, identical to cropping
/// a full decode, at the cost of only what the rectangle needs.
///
/// * A version-4 grid: reads the header and index, then **seeks straight
///   to the covering tiles** — the bytes of every other tile are never
///   read, which is what makes crop decodes of huge archive files cheap
///   (asserted by the counting-reader test).
/// * A flat container: streams the rows down to the rectangle's last one
///   and keeps only the crop; no row below the rectangle is decoded.
///
/// The source's final position is unspecified.
///
/// # Errors
///
/// [`CbicError::InvalidContainer`] for an empty or out-of-bounds rectangle,
/// the header errors of [`decompress`](crate::decompress), and
/// [`CbicError::Truncated`] when a payload ends before the rows the
/// rectangle needs; transport failures surface as [`CbicError::Io`]. On
/// a grid, as [`parse_grid`]: a source whose length disagrees with the
/// tile index is [`CbicError::Truncated`] (shorter) or a structured
/// [`CbicError::InvalidContainer`] (trailing bytes), and a covering tile
/// that fails its checksum is [`CbicError::InvalidContainer`].
pub fn decode_roi_from<R: Read + Seek>(
    input: &mut R,
    roi: Rect,
    par: Parallelism,
) -> Result<Image, CbicError> {
    let hdr = read_header(input)?;
    if hdr.tile.is_none() {
        return decode_flat_roi(hdr, input, roi);
    }
    let index = TileIndex::read_from(input, &hdr)?;
    let base = input.stream_position()?;
    // Validate the source length against the index *by seeking*, not
    // reading: the whole point of the index is that non-covering tiles'
    // bytes stay untouched.
    let end = input.seek(SeekFrom::End(0))?;
    index.check_payload_len(end - base)?;
    let indices = covering_indices(&index, roi)?;
    let mut bufs: Vec<(usize, Vec<u8>)> = Vec::with_capacity(indices.len());
    for idx in indices {
        let entry = &index.entries[idx];
        input.seek(SeekFrom::Start(base + entry.offset))?;
        let mut buf = Vec::new();
        input.take(u64::from(entry.len)).read_to_end(&mut buf)?;
        if buf.len() != entry.len as usize {
            return Err(CbicError::Truncated);
        }
        bufs.push((idx, buf));
    }
    let subs: Vec<(usize, &[u8])> = bufs.iter().map(|(i, b)| (*i, b.as_slice())).collect();
    decode_tiles(&hdr, &index, roi, &subs, par)
}

/// The flat-container leg of every crop ([`decode_roi_from`],
/// [`decode_container`](crate::container::decode_container)): streams
/// rows `0..roi.y + roi.h` through a [`StreamDecoder`] (with its per-row
/// padding-budget check) and keeps the rectangle's columns of its rows,
/// so it reads the input only as far as those rows need.
pub(crate) fn decode_flat_roi<R: Read>(
    hdr: ContainerHeader,
    input: R,
    roi: Rect,
) -> Result<Image, CbicError> {
    check_roi(roi, hdr.width, hdr.height)?;
    let (x0, y0) = (roi.x as usize, roi.y as usize);
    let (w, h) = (roi.w as usize, roi.h as usize);
    let mut out = Image::with_depth(w, h, hdr.bit_depth);
    let mut row = vec![0u16; hdr.width];
    let mut dec = StreamDecoder::with_header(hdr, input)?;
    for y in 0..y0 + h {
        dec.next_row(&mut row)?;
        if y >= y0 {
            out.row_mut(y - y0).copy_from_slice(&row[x0..x0 + w]);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{compress, decompress, parse_header, MAX_HEADER_LEN};
    use cbic_image::corpus::CorpusImage;
    use std::io::Cursor;

    fn geom(tw: u32, th: u32) -> TileGeometry {
        TileGeometry::new(tw, th)
    }

    #[test]
    fn grid_roundtrip_various_geometries() {
        let img = CorpusImage::Goldhill.generate(48, 40);
        let cfg = CodecConfig::default();
        for (tw, th) in [(48, 40), (16, 16), (17, 13), (48, 8), (8, 40), (1, 1000)] {
            let bytes = compress_grid(img.view(), &cfg, geom(tw, th), 1, Parallelism::Sequential);
            assert_eq!(
                decompress_grid(&bytes, Parallelism::Sequential).unwrap(),
                img,
                "{tw}x{th} tiles"
            );
        }
    }

    #[test]
    fn deep_and_shallow_depths_roundtrip() {
        let cfg = CodecConfig::default();
        for depth in [1u8, 4, 8, 12, 16] {
            let max = if depth == 16 {
                u16::MAX as u32
            } else {
                (1 << depth) - 1
            };
            let img = Image::from_fn16(37, 29, depth, |x, y| {
                ((x as u32 * 977 + y as u32 * 331) % (max + 1)) as u16
            });
            let bytes = compress_grid(img.view(), &cfg, geom(16, 16), 1, Parallelism::Auto);
            let back = decompress_grid(&bytes, Parallelism::Auto).unwrap();
            assert_eq!(back, img, "depth {depth}");
            assert_eq!(back.bit_depth(), depth);
        }
    }

    #[test]
    #[should_panic(expected = "lanes must be 1")]
    fn compress_grid_accepts_only_one_lane() {
        let img = CorpusImage::Barb.generate(16, 16);
        let cfg = CodecConfig::default();
        compress_grid(img.view(), &cfg, geom(8, 8), 2, Parallelism::Sequential);
    }

    #[test]
    fn parallel_encode_is_byte_identical_to_sequential() {
        let img = CorpusImage::Mandrill.generate(50, 34);
        let cfg = CodecConfig::default();
        let seq = compress_grid(img.view(), &cfg, geom(16, 16), 1, Parallelism::Sequential);
        for par in [
            Parallelism::Threads(2),
            Parallelism::Threads(7),
            Parallelism::Auto,
        ] {
            assert_eq!(
                compress_grid(img.view(), &cfg, geom(16, 16), 1, par),
                seq,
                "{par:?}"
            );
        }
        // And the parallel decoder agrees with the sequential one.
        assert_eq!(
            decompress_grid(&seq, Parallelism::Threads(4)).unwrap(),
            decompress_grid(&seq, Parallelism::Sequential).unwrap()
        );
    }

    #[test]
    fn grid_bytes_match_across_coder_placements_and_worker_counts() {
        use crate::codec::{encode_model_only, encode_raw};
        use crate::coder_thread::CHUNK;
        let cfg = CodecConfig::default();
        let noisy = |w: usize, h: usize, depth: u8| {
            Image::from_fn16(w, h, depth, |x, y| {
                let i = (y * w + x) as u64;
                let hash = i.wrapping_mul(6_364_136_223_846_793_005) >> 40;
                ((x * 29 + y * 13) as u64 ^ (hash & 0x3F)) as u16 & (u16::MAX >> (16 - depth))
            })
        };
        // 1x1-px tiles, 1-px-wide columns, ragged edges and a 1x1 grid.
        let mut cases: Vec<(Image, Vec<(u32, u32)>)> = [1u8, 8, 12, 16]
            .into_iter()
            .map(|depth| {
                (
                    noisy(37, 29, depth),
                    vec![(1, 1), (1, 29), (16, 16), (10, 7), (37, 29)],
                )
            })
            .collect();
        // A tile over more than 8 chunks of coded decisions, and ragged
        // neighbours.
        let big = noisy(200, 180, 8);
        let coded = encode_model_only(big.view().crop(0, 0, 160, 170), &cfg).coded_decisions;
        assert!(coded > 8 * CHUNK as u64, "{coded} coded decisions");
        cases.push((big, vec![(200, 180), (160, 170)]));
        for (img, geometries) in &cases {
            for &(tw, th) in geometries {
                let context = format!("{}-bit, {tw}x{th} tiles", img.bit_depth());
                let placed = |par, coder| encode_grid(img.view(), &cfg, geom(tw, th), par, coder);
                let expected = placed(Parallelism::Sequential, None);
                let threaded = placed(Parallelism::Sequential, CoderThread::spawn());
                assert!(threaded == expected, "{context}, coder thread");
                for workers in [2, 7] {
                    let got = placed(Parallelism::Threads(workers), None);
                    assert!(got == expected, "{context}, {workers} workers");
                }
                // The two-stage entry point places the coder by the rule
                // and says where it ran.
                let (cols, rows) = geom(tw, th).grid(img.width(), img.height());
                for par in [Parallelism::Sequential, Parallelism::Threads(2)] {
                    let (bytes, bits, coder_thread) =
                        compress_grid_two_stage(img.view(), &cfg, geom(tw, th), par).unwrap();
                    assert!((bytes, bits) == expected, "{context}, two stages, {par:?}");
                    let rule = use_coder_thread(par.workers(cols * rows));
                    assert_eq!(coder_thread, rule, "{context}, {par:?}");
                }
                let (_, index, payload) = parse_grid(&expected.0).unwrap();
                if index.entries.len() == 1 {
                    let (raw, stats) = encode_raw(img.view(), &cfg);
                    assert!(payload == raw, "{context}: the flat payload");
                    assert_eq!(expected.1, stats.payload_bits, "{context}");
                }
                assert_eq!(
                    decompress_grid(&expected.0, Parallelism::Sequential).unwrap(),
                    *img
                );
            }
        }
    }

    #[test]
    fn tile_overhead_is_bounded() {
        // Cold-start per tile costs bits; for 4 full-width tiles of a
        // 128-line image the overhead must stay modest (~10%), and shrink
        // with image size as the warm-up amortizes.
        let cfg = CodecConfig::default();
        let overhead = |size: usize| -> f64 {
            let img = CorpusImage::Barb.generate(size, size);
            let bands = |n: usize| {
                let g = geom(size as u32, size.div_ceil(n) as u32);
                compress_grid(img.view(), &cfg, g, 1, Parallelism::Auto).len()
            };
            let (one, four) = (bands(1), bands(4));
            assert!(four >= one, "tiling cannot help compression");
            (four - one) as f64 / one as f64
        };
        let small = overhead(128);
        assert!(small < 0.12, "tile overhead {:.1}%", small * 100.0);
        let large = overhead(256);
        assert!(
            large < small,
            "overhead must amortize: {large:.3} vs {small:.3}"
        );
    }

    #[test]
    fn one_by_one_grid_carries_the_flat_payload_bits() {
        // The acceptance pin: a 1x1 grid's single substream is exactly the
        // flat container's payload.
        let images = [
            CorpusImage::Lena.generate(32, 32),
            Image::from_fn16(24, 18, 12, |x, y| (x * 150 + y) as u16),
        ];
        let cfg = CodecConfig::default();
        for img in &images {
            let g = geom(img.width() as u32, img.height() as u32);
            let grid = compress_grid(img.view(), &cfg, g, 1, Parallelism::Sequential);
            let flat = compress(img.view(), &cfg);
            let (hdr, payload) = parse_header(&flat).unwrap();
            assert_eq!(hdr.tile, None);
            let (ghdr, index, gpayload) = parse_grid(&grid).unwrap();
            assert_eq!((index.cols, index.rows), (1, 1));
            assert_eq!(ghdr.cfg, hdr.cfg);
            assert_eq!(
                gpayload, payload,
                "1x1 grid must carry the flat payload bits"
            );
        }
    }

    #[test]
    fn index_entries_are_cumulative_and_crc_checked() {
        let img = CorpusImage::Lena.generate(40, 40);
        let bytes = compress_grid(
            img.view(),
            &CodecConfig::default(),
            geom(16, 16),
            1,
            Parallelism::Sequential,
        );
        let (_, index, payload) = parse_grid(&bytes).unwrap();
        assert_eq!((index.cols, index.rows), (3, 3));
        let mut expected = 0u64;
        for (i, e) in index.entries.iter().enumerate() {
            assert_eq!(e.offset, expected, "entry {i}");
            let sub = &payload[e.offset as usize..(e.offset + u64::from(e.len)) as usize];
            assert_eq!(crc32(sub), e.crc32, "entry {i} checksum");
            expected += u64::from(e.len);
        }
        assert_eq!(expected, payload.len() as u64);
    }

    #[test]
    fn decompress_dispatches_v4() {
        // `decompress`, the slice decoder of every version, must route v4
        // to the grid path.
        let img = CorpusImage::Zelda.generate(33, 47);
        let bytes = compress_grid(
            img.view(),
            &CodecConfig::default(),
            geom(16, 16),
            1,
            Parallelism::Auto,
        );
        assert_eq!(decompress(&bytes).unwrap(), img);
    }

    #[test]
    fn corrupt_index_and_payload_error_structurally() {
        let img = CorpusImage::Boat.generate(32, 32);
        let bytes = compress_grid(
            img.view(),
            &CodecConfig::default(),
            geom(16, 16),
            1,
            Parallelism::Sequential,
        );
        let index_start = MAX_HEADER_LEN + 8;
        // Truncations: inside the tile-geometry words, inside the index,
        // and inside the payload all surface as Truncated.
        for cut in [MAX_HEADER_LEN + 3, index_start + 7, bytes.len() - 1] {
            assert!(
                matches!(
                    decompress_grid(&bytes[..cut], Parallelism::Sequential),
                    Err(CbicError::Truncated)
                ),
                "cut at {cut}"
            );
        }
        // A non-cumulative offset is an InvalidContainer, not a panic.
        let mut bad = bytes.clone();
        bad[index_start] ^= 1;
        assert!(matches!(
            decompress_grid(&bad, Parallelism::Sequential),
            Err(CbicError::InvalidContainer(_))
        ));
        // A flipped payload byte trips the tile checksum.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        let err = decompress_grid(&bad, Parallelism::Sequential).unwrap_err();
        assert!(
            matches!(&err, CbicError::InvalidContainer(m) if m.contains("checksum")),
            "{err:?}"
        );
        // Trailing bytes beyond the index's accounting are rejected, by
        // the whole-container reader too.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(matches!(
            decompress_grid(&bad, Parallelism::Sequential),
            Err(CbicError::InvalidContainer(_))
        ));
        let err = decompress(&bad).unwrap_err();
        assert!(
            matches!(&err, CbicError::InvalidContainer(m) if m.contains("tile index accounts")),
            "{err:?}"
        );
        // Zero tile dimensions are rejected at the header.
        let mut bad = bytes;
        bad[MAX_HEADER_LEN..MAX_HEADER_LEN + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decompress_grid(&bad, Parallelism::Sequential),
            Err(CbicError::InvalidContainer(_))
        ));
    }

    #[test]
    fn forged_grid_shapes_are_rejected_before_allocation() {
        let img = CorpusImage::Boat.generate(32, 32);
        let mut bytes = compress_grid(
            img.view(),
            &CodecConfig::default(),
            geom(16, 16),
            1,
            Parallelism::Sequential,
        );
        // Forge 1x1-pixel tiles over a claimed-huge image: the tile-count
        // cap must reject it before any index-sized allocation.
        bytes[6..10].copy_from_slice(&(1u32 << 14).to_le_bytes());
        bytes[10..14].copy_from_slice(&(1u32 << 14).to_le_bytes());
        bytes[MAX_HEADER_LEN..MAX_HEADER_LEN + 4].copy_from_slice(&1u32.to_le_bytes());
        bytes[MAX_HEADER_LEN + 4..MAX_HEADER_LEN + 8].copy_from_slice(&1u32.to_le_bytes());
        let err = decompress_grid(&bytes, Parallelism::Sequential).unwrap_err();
        assert!(
            matches!(&err, CbicError::InvalidContainer(m) if m.contains("tile")),
            "{err:?}"
        );
    }

    #[test]
    fn roi_equals_crop_of_full_decode() {
        let img = CorpusImage::Barb.generate(64, 48);
        let bytes = compress_grid(
            img.view(),
            &CodecConfig::default(),
            geom(16, 16),
            1,
            Parallelism::Sequential,
        );
        let full = decompress_grid(&bytes, Parallelism::Sequential).unwrap();
        for roi in [
            Rect::new(0, 0, 64, 48),   // full image
            Rect::new(17, 5, 1, 1),    // single pixel
            Rect::new(15, 15, 18, 18), // straddles four tile boundaries
            Rect::new(48, 32, 16, 16), // exactly the last tile
            Rect::new(0, 47, 64, 1),   // bottom row
        ] {
            let crop = decode_roi(&bytes, roi, Parallelism::Sequential).unwrap();
            let reference = full
                .view()
                .crop(
                    roi.x as usize,
                    roi.y as usize,
                    roi.w as usize,
                    roi.h as usize,
                )
                .to_image();
            assert_eq!(crop, reference, "{roi:?}");
            // The seekable path agrees.
            let mut cursor = Cursor::new(&bytes);
            let seeked = decode_roi_from(&mut cursor, roi, Parallelism::Sequential).unwrap();
            assert_eq!(seeked, reference, "seek path, {roi:?}");
        }
    }

    #[test]
    fn roi_rejects_out_of_bounds_rects() {
        let img = CorpusImage::Lena.generate(32, 32);
        let bytes = compress_grid(
            img.view(),
            &CodecConfig::default(),
            geom(16, 16),
            1,
            Parallelism::Sequential,
        );
        for roi in [
            Rect::new(0, 0, 0, 4),
            Rect::new(0, 0, 33, 1),
            Rect::new(32, 0, 1, 1),
            Rect::new(30, 30, 4, 4),
            Rect::new(u32::MAX, u32::MAX, 1, 1),
        ] {
            assert!(
                matches!(
                    decode_roi(&bytes, roi, Parallelism::Sequential),
                    Err(CbicError::InvalidContainer(_))
                ),
                "{roi:?}"
            );
        }
    }

    #[test]
    fn both_roi_entry_points_crop_flat_and_grid_containers() {
        let img = CorpusImage::Peppers.generate(40, 40);
        let cfg = CodecConfig::default();
        let roi = Rect::new(5, 9, 13, 17);
        let reference = img.view().crop(5, 9, 13, 17).to_image();
        for bytes in [
            compress(img.view(), &cfg),
            compress_grid(img.view(), &cfg, geom(16, 16), 1, Parallelism::Sequential),
        ] {
            assert_eq!(
                decode_roi(&bytes, roi, Parallelism::Sequential).unwrap(),
                reference
            );
            let mut cursor = Cursor::new(&bytes);
            assert_eq!(
                decode_roi_from(&mut cursor, roi, Parallelism::Sequential).unwrap(),
                reference
            );
        }
    }

    #[test]
    fn seekable_roi_crops_a_flat_container_without_decoding_rows_below_it() {
        let img = CorpusImage::Lena.generate(48, 40);
        let bytes = compress(img.view(), &CodecConfig::default());
        for roi in [
            Rect::new(0, 0, 48, 40),
            Rect::new(47, 0, 1, 1),
            Rect::new(3, 10, 20, 5),
        ] {
            let (x, y, w, h) = (
                roi.x as usize,
                roi.y as usize,
                roi.w as usize,
                roi.h as usize,
            );
            let reference = img.view().crop(x, y, w, h).to_image();
            let crop = decode_roi_from(&mut Cursor::new(&bytes), roi, Parallelism::Sequential);
            assert_eq!(crop.unwrap(), reference, "{roi:?}");
        }
        // A payload cut after the rows a crop needs still yields that
        // crop; the full decode reports the cut.
        let cut = &bytes[..bytes.len() * 3 / 4];
        assert!(matches!(decompress(cut), Err(CbicError::Truncated)));
        let top = Rect::new(0, 0, 48, 4);
        assert_eq!(
            decode_roi(cut, top, Parallelism::Sequential).unwrap(),
            img.view().crop(0, 0, 48, 4).to_image()
        );
        for roi in [Rect::new(0, 0, 49, 1), Rect::new(0, 40, 1, 1)] {
            assert!(
                matches!(
                    decode_roi_from(&mut Cursor::new(&bytes), roi, Parallelism::Sequential),
                    Err(CbicError::InvalidContainer(_))
                ),
                "{roi:?}"
            );
        }
    }

    /// A reader that counts the payload bytes actually read — the
    /// acceptance harness for "a crop decode touches only the covering
    /// tiles' bytes".
    struct CountingReader<R> {
        inner: R,
        read: u64,
    }

    impl<R: Read> Read for CountingReader<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n as u64;
            Ok(n)
        }
    }

    impl<R: Seek> Seek for CountingReader<R> {
        fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    #[test]
    fn seekable_roi_reads_only_the_covering_tiles() {
        // 1024x512 at 256-pixel tiles: a 4x2 grid. A one-tile crop must
        // read the header + index + exactly that tile's bytes — no other
        // tile's payload.
        let img = Image::from_fn(1024, 512, |x, y| {
            ((x / 7) as u8).wrapping_add((y / 5) as u8).wrapping_mul(31)
        });
        let bytes = compress_grid(
            img.view(),
            &CodecConfig::default(),
            TileGeometry::default(),
            1,
            Parallelism::Auto,
        );
        let (_, index, payload) = parse_grid(&bytes).unwrap();
        assert_eq!((index.cols, index.rows), (4, 2));
        let header_and_index = bytes.len() - payload.len();

        // A crop strictly inside tile (1, 1).
        let roi = Rect::new(300, 300, 100, 100);
        let covered = &index.entries[index.cols + 1];
        let mut reader = CountingReader {
            inner: Cursor::new(&bytes),
            read: 0,
        };
        let crop = decode_roi_from(&mut reader, roi, Parallelism::Sequential).unwrap();
        assert_eq!(
            crop,
            img.view().crop(300, 300, 100, 100).to_image(),
            "crop pixels must match the source"
        );
        assert_eq!(
            reader.read,
            (header_and_index as u64) + u64::from(covered.len),
            "crop decode must read exactly the header, index, and the one covering tile"
        );
        assert!(
            reader.read < bytes.len() as u64 / 4,
            "one tile of eight plus the index must be far below the container size"
        );
    }

    #[test]
    fn tile_geometry_accessors() {
        let g = TileGeometry::default();
        assert_eq!(g.tile_size(), (DEFAULT_TILE_SIZE, DEFAULT_TILE_SIZE));
        assert_eq!(g.grid(1, 1), (1, 1));
        assert_eq!(g.grid(257, 256), (2, 1));
        let g = TileGeometry::new(10, 10);
        assert_eq!(g.tile_rect(1, 1, 25, 15), (10, 10, 10, 5));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_tile_geometry_panics() {
        let _ = TileGeometry::new(0, 16);
    }
}
