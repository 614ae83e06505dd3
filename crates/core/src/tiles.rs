//! Tile-parallel coding — the paper's multi-core scaling path.
//!
//! Section V closes with: "The low complexity means that a multi-core
//! solution could be used to scale up the performance." This module
//! implements exactly that decomposition: the image is split into
//! horizontal bands, each coded by an *independent* instance of the codec
//! (its own contexts, trees, and arithmetic coder), so `N` hardware cores —
//! or `N` software threads — can run one band each with zero shared state.
//!
//! Bands are **zero-copy**: [`split_bands`] returns borrowed
//! [`ImageView`] row ranges of the source image (no pixel is copied before
//! coding starts), and the decode side writes every band straight into
//! disjoint [`ImageViewMut`] windows of one
//! preallocated image.
//!
//! Both [`compress_tiled`] and [`decompress_tiled`] take a [`Parallelism`]
//! knob selecting how many worker threads code the bands. Because every
//! band is a self-contained stream, the schedule cannot change the bits:
//! parallel output is byte-identical to the sequential reference, which the
//! property tests in this crate assert.
//!
//! The price is model cold-start per band (every band re-learns its
//! statistics), measured by the `tile_overhead` test below and by the
//! throughput benches; the pipeline model in `cbic-hw` quantifies the
//! speed-up side.
//!
//! # Examples
//!
//! ```
//! use cbic_core::tiles::{compress_tiled, decompress_tiled, Parallelism};
//! use cbic_core::CodecConfig;
//! use cbic_image::corpus::CorpusImage;
//!
//! let img = CorpusImage::Boat.generate(64, 64);
//! let bytes = compress_tiled(img.view(), &CodecConfig::default(), 4, Parallelism::Threads(4));
//! assert_eq!(decompress_tiled(&bytes, Parallelism::Sequential)?, img);
//! # Ok::<(), cbic_core::CodecError>(())
//! ```

use crate::codec::{encode_raw, CodecConfig, EncodeStats};
use crate::container::{
    compress, decode_payload_into, parse_header, CodecError, ContainerHeader, HEADER_LEN,
};
use cbic_image::{CbicError, Codec, DecodeOptions, EncodeOptions, Image, ImageView, ImageViewMut};
use std::io::{Read, Write};

pub use cbic_image::Parallelism;

/// Runs `job` over every input on `par`-many scoped threads, consuming the
/// inputs and returning the outputs in input order regardless of the
/// schedule.
fn run_banded<I, O, F>(inputs: Vec<I>, par: Parallelism, job: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let workers = par.workers(inputs.len());
    if workers <= 1 {
        return inputs.into_iter().map(job).collect();
    }
    let total = inputs.len();
    let chunk = total.div_ceil(workers);
    let mut buckets: Vec<Vec<(usize, I)>> = Vec::new();
    let mut it = inputs.into_iter().enumerate();
    loop {
        let bucket: Vec<(usize, I)> = it.by_ref().take(chunk).collect();
        if bucket.is_empty() {
            break;
        }
        buckets.push(bucket);
    }
    let mut outputs: Vec<Option<O>> = (0..total).map(|_| None).collect();
    std::thread::scope(|scope| {
        let job = &job;
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    bucket
                        .into_iter()
                        .map(|(i, item)| (i, job(item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, out) in handle.join().expect("band worker panicked") {
                outputs[i] = Some(out);
            }
        }
    });
    outputs
        .into_iter()
        .map(|o| o.expect("every band computed"))
        .collect()
}

/// The near-equal band partition of `height` rows into `tiles` bands (the
/// first `height % tiles` bands get one extra row).
fn band_heights(height: usize, tiles: usize) -> Vec<usize> {
    let base = height / tiles;
    let extra = height % tiles;
    (0..tiles).map(|t| base + usize::from(t < extra)).collect()
}

/// Splits a view into `tiles` horizontal bands of near-equal height —
/// **zero-copy**: each band is a borrowed row range of `img`, so the
/// encode path never duplicates a pixel.
///
/// # Panics
///
/// Panics if `tiles` is zero or exceeds the view height.
pub fn split_bands<'a>(img: ImageView<'a>, tiles: usize) -> Vec<ImageView<'a>> {
    let height = img.height();
    assert!(
        tiles >= 1 && tiles <= height,
        "tile count {tiles} outside 1..={height}"
    );
    let mut bands = Vec::with_capacity(tiles);
    let mut y0 = 0usize;
    for h in band_heights(height, tiles) {
        bands.push(img.row_range(y0, h));
        y0 += h;
    }
    debug_assert_eq!(y0, height);
    bands
}

/// Encodes each band independently, returning per-band payloads and stats.
/// Bands can be distributed across cores; this reference implementation
/// runs them sequentially for determinism.
pub fn encode_bands(
    img: ImageView<'_>,
    cfg: &CodecConfig,
    tiles: usize,
) -> Vec<(Vec<u8>, EncodeStats)> {
    split_bands(img, tiles)
        .into_iter()
        .map(|band| encode_raw(band, cfg))
        .collect()
}

/// Magic for the tiled container.
const TILE_MAGIC: &[u8; 4] = b"CBTI";

/// Bytes a band contributes to a container at minimum: its `u32` length
/// prefix plus a standard (version-1) container header.
const MIN_BAND_BYTES: usize = 4 + HEADER_LEN;

/// Compresses a view with `tiles` independent bands into one container:
/// `CBTI`, tile count (u32 LE), then per tile a length-prefixed standard
/// container (which carries the config, band dimensions, and bit depth).
/// Bands are **borrowed row-range views** encoded on `par` worker threads;
/// no pixel is copied on this path, and the output does not depend on
/// `par`.
///
/// # Panics
///
/// Panics if `tiles` is zero or exceeds the view height.
pub fn compress_tiled(
    img: ImageView<'_>,
    cfg: &CodecConfig,
    tiles: usize,
    par: Parallelism,
) -> Vec<u8> {
    let bands = split_bands(img, tiles);
    let payloads: Vec<Vec<u8>> = run_banded(bands, par, |band| compress(band, cfg));
    let body: usize = payloads.iter().map(|p| 4 + p.len()).sum();
    let mut out = Vec::with_capacity(8 + body);
    out.extend_from_slice(TILE_MAGIC);
    out.extend_from_slice(&(tiles as u32).to_le_bytes());
    for payload in &payloads {
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

/// One parsed band: its header fields and coded body.
type Band<'a> = (ContainerHeader, &'a [u8]);

/// Checks that the band shapes could have come from [`split_bands`]:
/// equal widths and depths, heights differing by at most one, taller
/// bands first.
fn validate_band_shapes(bands: &[Band<'_>]) -> Result<(), CodecError> {
    let width = bands[0].0.width;
    let depth = bands[0].0.bit_depth;
    let mut prev_height = usize::MAX;
    let (mut min_h, mut max_h) = (usize::MAX, 0usize);
    for (hdr, _) in bands {
        if hdr.width != width {
            return Err(CodecError::InvalidHeader("inconsistent band widths".into()));
        }
        if hdr.bit_depth != depth {
            return Err(CodecError::InvalidHeader(
                "inconsistent band bit depths".into(),
            ));
        }
        if hdr.height > prev_height {
            return Err(CodecError::InvalidHeader(
                "band heights must be non-increasing".into(),
            ));
        }
        prev_height = hdr.height;
        min_h = min_h.min(hdr.height);
        max_h = max_h.max(hdr.height);
    }
    if max_h - min_h > 1 {
        return Err(CodecError::InvalidHeader(format!(
            "band heights {min_h}..{max_h} differ by more than one"
        )));
    }
    Ok(())
}

/// Decodes parsed bands straight into disjoint windows of one
/// preallocated image — the zero-copy reassembly both tiled decode paths
/// share. Shapes must already be validated.
fn decode_bands_into(bands: Vec<Band<'_>>, par: Parallelism) -> Result<Image, CodecError> {
    let width = bands[0].0.width;
    let depth = bands[0].0.bit_depth;
    let heights: Vec<usize> = bands.iter().map(|(h, _)| h.height).collect();
    let height: usize = heights.iter().sum();
    let mut out = Image::with_depth(width, height, depth);
    let jobs: Vec<(Band<'_>, ImageViewMut<'_>)> = bands
        .into_iter()
        .zip(out.view_mut().split_rows(&heights))
        .collect();
    let results = run_banded(jobs, par, |((hdr, body), mut window)| {
        decode_payload_into(&hdr, body, &mut window)
    });
    results.into_iter().collect::<Result<(), _>>()?;
    Ok(out)
}

/// Decompresses a tiled container, reassembling the bands. Each band is
/// decoded (on `par` worker threads) directly into its row range of the
/// one preallocated output image; the result does not depend on `par`.
///
/// # Errors
///
/// Returns [`CodecError`] on malformed containers, tile counts the encoder
/// cannot produce, or band shapes inconsistent with [`split_bands`]'s
/// equal partition.
pub fn decompress_tiled(bytes: &[u8], par: Parallelism) -> Result<Image, CodecError> {
    if bytes.len() < 8 {
        return Err(CodecError::Truncated);
    }
    if &bytes[..4] != TILE_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let tiles = u32::from_le_bytes(bytes[4..8].try_into().expect("sized")) as usize;
    // The encoder writes one band per tile, each at least MIN_BAND_BYTES
    // long, so any larger count cannot have come from `compress_tiled` —
    // reject it before allocating anything proportional to it.
    if tiles == 0 || tiles > (bytes.len() - 8) / MIN_BAND_BYTES {
        return Err(CodecError::InvalidHeader(format!(
            "tile count {tiles} impossible for a {}-byte container",
            bytes.len()
        )));
    }
    let mut pos = 8usize;
    let mut bands: Vec<Band<'_>> = Vec::with_capacity(tiles);
    for _ in 0..tiles {
        let len_bytes = bytes.get(pos..pos + 4).ok_or(CodecError::Truncated)?;
        let len = u32::from_le_bytes(len_bytes.try_into().expect("sized")) as usize;
        pos += 4;
        let payload = bytes.get(pos..pos + len).ok_or(CodecError::Truncated)?;
        pos += len;
        bands.push(parse_header(payload)?);
    }
    if pos != bytes.len() {
        return Err(CodecError::InvalidHeader(format!(
            "{} trailing bytes after {tiles} bands",
            bytes.len() - pos
        )));
    }
    validate_band_shapes(&bands)?;
    decode_bands_into(bands, par)
}

/// The tiled multi-core variant on the unified [`Codec`] surface, so the
/// registry can auto-detect and decode `CBTI` containers like any other.
///
/// Band count and worker threads come from the
/// [`EncodeOptions`]/[`DecodeOptions`] of each call
/// (`opts.tiles`, `opts.parallelism`); the struct holds the model
/// configuration and the default band geometry.
///
/// # Examples
///
/// ```
/// use cbic_core::tiles::Tiled;
/// use cbic_image::{Codec, DecodeOptions, EncodeOptions, Image, Parallelism};
///
/// let codec = Tiled::default();
/// let img = Image::from_fn(32, 32, |x, y| (x * 3 + y) as u8);
/// let opts = EncodeOptions::new()
///     .with_tiles(4)
///     .with_parallelism(Parallelism::Threads(4));
/// let bytes = codec.encode_vec(img.view(), &opts)?;
/// assert_eq!(codec.decode_vec(&bytes, &DecodeOptions::default())?, img);
/// assert_eq!(codec.name(), "tiled");
/// # Ok::<(), cbic_image::CbicError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Tiled {
    /// Configuration shared by every band's codec instance.
    pub cfg: CodecConfig,
    /// Default number of horizontal bands when the encode options do not
    /// override it (always clamped to the image height).
    pub tiles: usize,
}

impl Default for Tiled {
    fn default() -> Self {
        Self {
            cfg: CodecConfig::default(),
            tiles: 4,
        }
    }
}

impl Codec for Tiled {
    fn name(&self) -> &'static str {
        "tiled"
    }

    fn magic(&self) -> Option<[u8; 4]> {
        Some(*TILE_MAGIC)
    }

    /// Each band embeds a standard container, so the bands carry any
    /// model the flat format supports — classic or wide-hash.
    fn model_modes(&self) -> &'static [&'static str] {
        &["classic", "wide"]
    }

    /// Encodes `opts.tiles` (default: the struct's geometry) independent
    /// zero-copy band views on `opts.parallelism` workers. The bytes do
    /// not depend on the schedule.
    fn encode(
        &self,
        img: ImageView<'_>,
        opts: &EncodeOptions,
        sink: &mut dyn Write,
    ) -> Result<cbic_image::EncodeStats, CbicError> {
        // A non-classic request on the options overrides the codec's own
        // model (mirroring `Proposed::encode`); each band then embeds a
        // version-5 container carrying the model byte.
        let mut cfg = self.cfg;
        if !opts.model.is_classic() {
            cfg.model = opts.model;
        }
        cfg.model.validate().map_err(CbicError::InvalidContainer)?;
        let tiles = opts.tiles.unwrap_or(self.tiles).clamp(1, img.height());
        let bytes = compress_tiled(img, &cfg, tiles, opts.parallelism);
        sink.write_all(&bytes).map_err(CbicError::from)?;
        Ok(cbic_image::EncodeStats::new(
            img.pixel_count() as u64,
            bytes.len() as u64,
            None,
        ))
    }

    /// Buffered decode on `opts.parallelism` workers (one band each,
    /// written straight into the preallocated output image).
    fn decode_vec(&self, bytes: &[u8], opts: &DecodeOptions) -> Result<Image, CbicError> {
        decompress_tiled(bytes, opts.parallelism).map_err(CbicError::from)
    }

    /// Chunked streaming decode: bands are length-prefixed, so each one is
    /// read and validated in turn. By default (and at
    /// [`Parallelism::Sequential`]/[`Parallelism::Auto`]) every band is
    /// also arithmetic-decoded as it arrives, keeping peak
    /// compressed-side buffering at one band — the streaming entry point
    /// favors the bounded-memory guarantee. An explicit
    /// [`Parallelism::Threads`] request instead collects the validated
    /// band payloads and decodes them concurrently (compressed-side
    /// buffering grows to the container, still far below the decoded
    /// image); the buffered [`Codec::decode_vec`] path parallelizes under
    /// `Auto` too, since its input is already fully resident.
    fn decode(&self, input: &mut dyn Read, opts: &DecodeOptions) -> Result<Image, CbicError> {
        let read_exact = |input: &mut dyn Read, buf: &mut [u8]| -> Result<(), CbicError> {
            input.read_exact(buf).map_err(CbicError::from)
        };

        let mut head = [0u8; 8];
        read_exact(input, &mut head)?;
        if &head[..4] != TILE_MAGIC {
            return Err(CbicError::bad_magic(&head));
        }
        let tiles = u32::from_le_bytes(head[4..8].try_into().expect("sized")) as usize;
        // Without the container length in hand, bound the tile count by the
        // same 2^28-pixel ceiling the band headers enforce: every band has
        // at least one row, so more bands than pixels is impossible.
        if tiles == 0 || tiles > 1 << 28 {
            return Err(CbicError::InvalidContainer(format!(
                "tile count {tiles} impossible"
            )));
        }
        // Only an explicit thread request trades the one-band memory bound
        // for concurrency; `Auto` must not silently buffer the container.
        let parallel = matches!(opts.parallelism, Parallelism::Threads(n) if n > 1) && tiles > 1;
        // Sequential path: bands decoded as they arrive, assembled at the
        // end with row-wise copies.
        let mut decoded: Vec<Image> = Vec::new();
        // Parallel path: validated `(header, payload)` frames awaiting
        // the banded decode below.
        let mut frames: Vec<(ContainerHeader, Vec<u8>)> = Vec::new();
        let mut payload = Vec::new();
        // Shape validation runs on each band header *before* its payload is
        // arithmetic-decoded, mirroring decompress_tiled's fail-fast order:
        // equal widths and depths, non-increasing heights, spread of at
        // most one.
        let mut first: Option<ContainerHeader> = None;
        let (mut min_h, mut max_h) = (usize::MAX, 0usize);
        for _ in 0..tiles {
            let mut len_bytes = [0u8; 4];
            read_exact(input, &mut len_bytes)?;
            let len = u32::from_le_bytes(len_bytes) as usize;
            if len < HEADER_LEN {
                return Err(CbicError::Truncated);
            }
            payload.clear();
            // `take` bounds the allocation by what the stream actually
            // holds, so a forged length cannot trigger a huge reservation.
            input
                .take(len as u64)
                .read_to_end(&mut payload)
                .map_err(CbicError::from)?;
            if payload.len() != len {
                return Err(CbicError::Truncated);
            }
            let (hdr, body) = parse_header(&payload).map_err(CbicError::from)?;
            if let Some(first) = &first {
                if hdr.width != first.width {
                    return Err(CbicError::InvalidContainer(
                        "inconsistent band widths".into(),
                    ));
                }
                if hdr.bit_depth != first.bit_depth {
                    return Err(CbicError::InvalidContainer(
                        "inconsistent band bit depths".into(),
                    ));
                }
                if hdr.height > min_h {
                    return Err(CbicError::InvalidContainer(
                        "band heights must be non-increasing".into(),
                    ));
                }
            }
            first.get_or_insert(hdr);
            min_h = min_h.min(hdr.height);
            max_h = max_h.max(hdr.height);
            if max_h - min_h > 1 {
                return Err(CbicError::InvalidContainer(format!(
                    "band heights {min_h}..{max_h} differ by more than one"
                )));
            }
            if parallel {
                frames.push((hdr, body.to_vec()));
            } else {
                let mut band = Image::with_depth(hdr.width, hdr.height, hdr.bit_depth);
                decode_payload_into(&hdr, body, &mut band.view_mut()).map_err(CbicError::from)?;
                decoded.push(band);
            }
        }
        if input.read(&mut [0u8]).map_err(CbicError::from)? != 0 {
            return Err(CbicError::InvalidContainer(
                "trailing bytes after final band".into(),
            ));
        }

        if parallel {
            let bands: Vec<Band<'_>> = frames.iter().map(|(h, p)| (*h, p.as_slice())).collect();
            return decode_bands_into(bands, opts.parallelism).map_err(CbicError::from);
        }

        // Row-wise reassembly of the sequentially decoded bands.
        let width = decoded[0].width();
        let depth = decoded[0].bit_depth();
        let height: usize = decoded.iter().map(Image::height).sum();
        let mut out = Image::with_depth(width, height, depth);
        let mut y0 = 0usize;
        for band in &decoded {
            for y in 0..band.height() {
                out.row_mut(y0 + y).copy_from_slice(band.row(y));
            }
            y0 += band.height();
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbic_image::corpus::CorpusImage;

    #[test]
    fn split_covers_image_exactly_and_borrows() {
        let img = CorpusImage::Lena.generate(32, 50);
        for tiles in [1, 2, 3, 7, 50] {
            let bands = split_bands(img.view(), tiles);
            assert_eq!(bands.len(), tiles);
            let total: usize = bands.iter().map(ImageView::height).sum();
            assert_eq!(total, 50);
            // Heights differ by at most one.
            let hs: Vec<_> = bands.iter().map(ImageView::height).collect();
            assert!(hs.iter().max().unwrap() - hs.iter().min().unwrap() <= 1);
            // Zero-copy: each band's first row *is* the image's row.
            let mut y0 = 0;
            for band in &bands {
                assert_eq!(band.row(0), img.row(y0), "band at row {y0} must borrow");
                y0 += band.height();
            }
        }
    }

    #[test]
    fn tiled_roundtrip_various_counts() {
        let img = CorpusImage::Goldhill.generate(48, 48);
        for tiles in [1, 2, 3, 4, 6, 48] {
            let bytes = compress_tiled(
                img.view(),
                &CodecConfig::default(),
                tiles,
                Parallelism::Auto,
            );
            assert_eq!(
                decompress_tiled(&bytes, Parallelism::Auto).unwrap(),
                img,
                "{tiles} tiles"
            );
        }
    }

    #[test]
    fn sixteen_bit_tiled_roundtrip() {
        let img = Image::from_fn16(40, 36, 16, |x, y| (x * 1500 + y * 7) as u16);
        for tiles in [1, 3, 5] {
            let bytes = compress_tiled(
                img.view(),
                &CodecConfig::default(),
                tiles,
                Parallelism::Auto,
            );
            let back = decompress_tiled(&bytes, Parallelism::Threads(2)).unwrap();
            assert_eq!(back, img, "{tiles} tiles");
            assert_eq!(back.bit_depth(), 16);
        }
    }

    #[test]
    fn parallel_output_is_byte_identical_to_sequential() {
        let img = CorpusImage::Barb.generate(40, 53);
        let cfg = CodecConfig::default();
        for tiles in [1, 2, 4, 7] {
            let seq = compress_tiled(img.view(), &cfg, tiles, Parallelism::Sequential);
            for par in [
                Parallelism::Threads(2),
                Parallelism::Threads(4),
                Parallelism::Threads(16),
                Parallelism::Auto,
            ] {
                assert_eq!(
                    compress_tiled(img.view(), &cfg, tiles, par),
                    seq,
                    "{tiles} tiles, {par:?}"
                );
            }
            assert_eq!(
                decompress_tiled(&seq, Parallelism::Threads(3)).unwrap(),
                img
            );
        }
    }

    #[test]
    fn one_tile_equals_untiled_payload() {
        let img = CorpusImage::Zelda.generate(40, 40);
        let cfg = CodecConfig::default();
        let tiled = compress_tiled(img.view(), &cfg, 1, Parallelism::Sequential);
        let plain = crate::container::compress(img.view(), &cfg);
        // CBTI magic + count + length prefix, then the identical container.
        assert_eq!(&tiled[12..], &plain[..]);
    }

    #[test]
    fn tile_overhead_is_bounded() {
        // Cold-start per band costs bits; for 4 bands of a 128-line image
        // the overhead must stay modest (~10%), and shrink with image size
        // as the warm-up amortizes.
        let cfg = CodecConfig::default();
        let overhead = |size: usize| -> f64 {
            let img = CorpusImage::Barb.generate(size, size);
            let one = compress_tiled(img.view(), &cfg, 1, Parallelism::Auto).len();
            let four = compress_tiled(img.view(), &cfg, 4, Parallelism::Auto).len();
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
    fn rejects_corrupt_tiled_containers() {
        let img = CorpusImage::Boat.generate(24, 24);
        let bytes = compress_tiled(
            img.view(),
            &CodecConfig::default(),
            2,
            Parallelism::Sequential,
        );
        let dec = |b: &[u8]| decompress_tiled(b, Parallelism::Sequential);
        assert_eq!(dec(&bytes[..3]), Err(CodecError::Truncated));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(dec(&bad), Err(CodecError::BadMagic));
        let mut short = bytes.clone();
        short.truncate(bytes.len() - 5);
        assert!(dec(&short).is_err());
    }

    #[test]
    fn rejects_impossible_tile_counts() {
        let img = CorpusImage::Boat.generate(24, 24);
        let mut bytes = compress_tiled(
            img.view(),
            &CodecConfig::default(),
            2,
            Parallelism::Sequential,
        );
        // A count understating the band data errors (extra bytes), one
        // slightly overstating it errors (truncated third band)...
        for count in [1u32, 3] {
            bytes[4..8].copy_from_slice(&count.to_le_bytes());
            assert!(
                decompress_tiled(&bytes, Parallelism::Sequential).is_err(),
                "count {count}"
            );
        }
        // ...and counts the encoder can never fit into this container
        // length are rejected up front, before any allocation sized by
        // them (the seed accepted anything below 2^16).
        for count in [100u32, 65_535, 70_000, u32::MAX] {
            bytes[4..8].copy_from_slice(&count.to_le_bytes());
            assert!(
                matches!(
                    decompress_tiled(&bytes, Parallelism::Sequential),
                    Err(CodecError::InvalidHeader(_))
                ),
                "count {count}"
            );
        }
        bytes[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decompress_tiled(&bytes, Parallelism::Sequential),
            Err(CodecError::InvalidHeader(_))
        ));
    }

    #[test]
    fn rejects_band_shapes_split_bands_cannot_produce() {
        let cfg = CodecConfig::default();
        let frame = |bands: &[Image]| -> Vec<u8> {
            let mut out = Vec::new();
            out.extend_from_slice(TILE_MAGIC);
            out.extend_from_slice(&(bands.len() as u32).to_le_bytes());
            for band in bands {
                let payload = crate::container::compress(band.view(), &cfg);
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                out.extend_from_slice(&payload);
            }
            out
        };
        let band = |w: usize, h: usize| Image::from_fn(w, h, |x, y| (x + y) as u8);

        // Heights 3 and 1 differ by two — an equal partition never does.
        let bad_heights = frame(&[band(16, 3), band(16, 1)]);
        assert!(matches!(
            decompress_tiled(&bad_heights, Parallelism::Sequential),
            Err(CodecError::InvalidHeader(_))
        ));
        // The short band must come last, as split_bands emits it.
        let bad_order = frame(&[band(16, 2), band(16, 3)]);
        assert!(matches!(
            decompress_tiled(&bad_order, Parallelism::Sequential),
            Err(CodecError::InvalidHeader(_))
        ));
        // Mismatched widths never come from one image.
        let bad_widths = frame(&[band(16, 2), band(8, 2)]);
        assert!(matches!(
            decompress_tiled(&bad_widths, Parallelism::Sequential),
            Err(CodecError::InvalidHeader(_))
        ));
        // Mismatched depths never come from one image either.
        let deep = Image::from_fn16(16, 2, 12, |x, y| (x * 100 + y) as u16);
        let bad_depths = frame(&[band(16, 2), deep]);
        assert!(matches!(
            decompress_tiled(&bad_depths, Parallelism::Sequential),
            Err(CodecError::InvalidHeader(_))
        ));
        // The legal shape still decodes.
        let good = frame(&[band(16, 3), band(16, 2)]);
        assert_eq!(
            decompress_tiled(&good, Parallelism::Sequential)
                .unwrap()
                .dimensions(),
            (16, 5)
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn zero_tiles_panics() {
        let img = CorpusImage::Boat.generate(16, 16);
        let _ = compress_tiled(
            img.view(),
            &CodecConfig::default(),
            0,
            Parallelism::Sequential,
        );
    }
}
