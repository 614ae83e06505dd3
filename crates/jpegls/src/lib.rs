//! JPEG-LS (LOCO-I) baseline codec.
//!
//! The paper's Table 1 compares its scheme against JPEG-LS, the ISO/ITU-T
//! T.87 standard built from HP's LOCO-I algorithm (Weinberger, Seroussi &
//! Sapiro, IEEE TIP 2000 — the paper's reference \[4\]). This crate is a
//! from-scratch implementation of the complete coding flow:
//!
//! * **MED/MAP prediction** over the `{a=W, b=N, c=NW, d=NE}` causal
//!   template;
//! * **365 regular contexts** from three quantized gradients with sign
//!   folding, each holding the `(A, B, C, N)` state of the standard;
//! * **bias cancellation** (the `C[q]` correction with `B`/`N` update);
//! * **length-limited Golomb-Rice coding** of the mapped residual
//!   (via `cbic-rice`);
//! * **run mode** (gradient-flat contexts) with the `J[32]` run-length
//!   table and the two run-interruption contexts;
//! * optional **near-lossless** operation (`NEAR > 0`), guaranteeing
//!   `|x − x̂| ≤ NEAR` per sample.
//!
//! The bitstream is this crate's own framing (not the T.87 marker syntax):
//! the reproduction needs the *algorithm*'s bit rate, not interchange with
//! other JPEG-LS files.
//!
//! # Examples
//!
//! ```
//! use cbic_image::corpus::CorpusImage;
//! use cbic_jpegls::{compress, decompress, JpeglsConfig};
//!
//! let img = CorpusImage::Boat.generate(64, 64);
//! let bytes = compress(img.view(), &JpeglsConfig::default());
//! assert_eq!(decompress(&bytes)?, img);
//! # Ok::<(), cbic_jpegls::JpeglsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod params;

#[cfg(test)]
mod proptests;

pub use codec::{decode_raw, encode_raw, EncodeStats};
pub use params::{JpeglsConfig, JpeglsError};

use cbic_image::framing::{self, FramingError};
use cbic_image::{Image, ImageView};

const MAGIC: &[u8; 4] = b"CBLS";

impl From<FramingError> for JpeglsError {
    fn from(e: FramingError) -> Self {
        match e {
            FramingError::BadMagic => JpeglsError::BadMagic,
            FramingError::Truncated => JpeglsError::Truncated,
            FramingError::Invalid(msg) => JpeglsError::InvalidHeader(msg),
        }
    }
}

/// This crate's container framing — the shared dimensioned header of
/// [`cbic_image::framing`] (legacy 8-bit layout, deep-sentinel extension)
/// followed by this codec's NEAR byte and the payload — written once here
/// so [`compress`] and the [`cbic_image::Codec`] impl cannot drift apart.
fn write_container(
    img: ImageView<'_>,
    near: u8,
    payload: &[u8],
    out: &mut dyn std::io::Write,
) -> std::io::Result<()> {
    framing::write_dims_header(out, MAGIC, img.width(), img.height(), img.bit_depth())?;
    out.write_all(&[near])?;
    out.write_all(payload)
}

/// Bytes the container framing adds ahead of the payload.
fn container_overhead(bit_depth: u8) -> u64 {
    framing::dims_header_len(bit_depth) + 1
}

/// Parses this crate's container framing, returning
/// `(width, height, bit_depth, near, payload)`. Shared by [`decompress`]
/// and the CLI's `info` reporting.
pub fn parse_container(bytes: &[u8]) -> Result<(usize, usize, u8, u8, &[u8]), JpeglsError> {
    let (width, height, bit_depth, rest) = framing::parse_dims_header(bytes, MAGIC)?;
    let (&near, payload) = rest.split_first().ok_or(JpeglsError::Truncated)?;
    Ok((width, height, bit_depth, near, payload))
}

/// Compresses the pixels of a view into a self-describing container
/// (`CBLS` magic, width/height, NEAR, then the entropy-coded payload).
///
/// The container records only the depth and the NEAR bound; the decoder
/// rebuilds the configuration as [`JpeglsConfig::for_depth`] of that
/// pair (whose thresholds are depth-only, matching every stream this
/// crate has ever written). Encode with a `for_depth` configuration — as
/// [`Jpegls`] and the CLI do — for self-describing streams.
pub fn compress(img: ImageView<'_>, cfg: &JpeglsConfig) -> Vec<u8> {
    let (payload, _) = encode_raw(img, cfg);
    let mut out = Vec::with_capacity(payload.len() + 18);
    write_container(img, cfg.near, &payload, &mut out).expect("Vec writes cannot fail");
    out
}

/// Decompresses a container produced by [`compress`].
///
/// # Errors
///
/// Returns [`JpeglsError`] on malformed headers.
pub fn decompress(bytes: &[u8]) -> Result<Image, JpeglsError> {
    let (width, height, bit_depth, near, payload) = parse_container(bytes)?;
    // `for_depth` thresholds depend only on the depth, so this rebuilds
    // the encoder's configuration exactly — including for every 8-bit
    // near-lossless stream the pre-view-API crate ever wrote.
    Ok(decode_raw(
        payload,
        width,
        height,
        &JpeglsConfig::for_depth(bit_depth, near),
    ))
}

impl From<JpeglsError> for cbic_image::CbicError {
    fn from(e: JpeglsError) -> Self {
        use cbic_image::CbicError;
        match e {
            JpeglsError::BadMagic => CbicError::BadMagic { found: None },
            JpeglsError::Truncated => CbicError::Truncated,
            JpeglsError::InvalidHeader(msg) => CbicError::InvalidContainer(msg),
        }
    }
}

/// Lossless JPEG-LS on the unified [`cbic_image::Codec`] surface.
///
/// Only the lossless configuration implements the trait (the trait's
/// contract is exact reconstruction); use [`compress`]/[`decompress`]
/// directly for near-lossless operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Jpegls;

impl cbic_image::Codec for Jpegls {
    fn name(&self) -> &'static str {
        "jpegls"
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
        let cfg = JpeglsConfig::for_depth(img.bit_depth(), 0);
        let (payload, stats) = encode_raw(img, &cfg);
        write_container(img, cfg.near, &payload, sink)?;
        Ok(cbic_image::EncodeStats::new(
            stats.pixels,
            container_overhead(img.bit_depth()) + payload.len() as u64,
            Some(stats.payload_bits),
        ))
    }

    fn decode(
        &self,
        source: &mut dyn std::io::Read,
        _opts: &cbic_image::DecodeOptions,
    ) -> Result<Image, cbic_image::CbicError> {
        let mut bytes = Vec::new();
        source.read_to_end(&mut bytes)?;
        decompress(&bytes).map_err(cbic_image::CbicError::from)
    }
}

#[cfg(test)]
mod container_tests {
    use super::*;
    use cbic_image::corpus::CorpusImage;

    #[test]
    fn container_roundtrip() {
        let img = CorpusImage::Peppers.generate(32, 32);
        let bytes = compress(img.view(), &JpeglsConfig::default());
        assert_eq!(decompress(&bytes).unwrap(), img);
    }

    #[test]
    fn container_rejects_garbage() {
        assert_eq!(decompress(b"nope"), Err(JpeglsError::Truncated));
        assert_eq!(decompress(b"XXXX0000000000000"), Err(JpeglsError::BadMagic));
    }

    #[test]
    fn legacy_default_threshold_near_streams_decode() {
        // Pre-view-API encoders (and direct compress calls with the Annex C
        // defaults) wrote near-lossless streams at thresholds (3,7,21);
        // decompress must rebuild exactly that configuration for 8-bit
        // containers or the context models diverge.
        let img = CorpusImage::Goldhill.generate(40, 40);
        let legacy_cfg = JpeglsConfig {
            near: 3,
            ..JpeglsConfig::default()
        };
        let bytes = compress(img.view(), &legacy_cfg);
        let out = decompress(&bytes).unwrap();
        for (p, q) in img.samples().iter().zip(out.samples()) {
            assert!(
                (i32::from(*p) - i32::from(*q)).abs() <= 3,
                "NEAR bound violated on a legacy-config stream"
            );
        }
    }

    #[test]
    fn near_travels_in_header() {
        let img = CorpusImage::Lena.generate(32, 32);
        // 8-bit near-lossless streams use the Annex C default thresholds
        // (the historical format decompress rebuilds).
        let cfg = JpeglsConfig {
            near: 2,
            ..JpeglsConfig::default()
        };
        let bytes = compress(img.view(), &cfg);
        let out = decompress(&bytes).unwrap();
        for (p, q) in img.samples().iter().zip(out.samples()) {
            assert!((i32::from(*p) - i32::from(*q)).abs() <= 2);
        }
    }
}
