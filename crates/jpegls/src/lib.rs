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
//!   table and the two run-interruption contexts.
//!
//! Coding is lossless (`NEAR = 0`), at the T.87 default parameters of the
//! sample depth, so the depth is the only input besides the pixels: the
//! API is [`compress`]/[`decompress`] and [`encode_raw`]/[`decode_raw`],
//! as in the other baselines. Near-lossless coding is retired: no writer
//! emits it, and [`decompress`] refuses a container whose NEAR byte is not
//! 0.
//!
//! The bitstream is this crate's own framing (not the T.87 marker syntax):
//! the reproduction needs the *algorithm*'s bit rate, not interchange with
//! other JPEG-LS files.
//!
//! # Examples
//!
//! ```
//! use cbic_image::corpus::CorpusImage;
//! use cbic_jpegls::{compress, decompress};
//!
//! let img = CorpusImage::Boat.generate(64, 64);
//! let bytes = compress(img.view());
//! assert_eq!(decompress(&bytes)?, img);
//! # Ok::<(), cbic_image::CbicError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod params;

#[cfg(test)]
mod proptests;

pub use codec::{decode_raw, encode_raw, EncodeStats};

use cbic_image::framing;
use cbic_image::{CbicError, Image, ImageView};

const MAGIC: &[u8; 4] = b"CBLS";

/// This crate's container framing — the shared dimensioned header of
/// [`cbic_image::framing`] (legacy 8-bit layout, deep-sentinel extension)
/// followed by this codec's NEAR byte, always 0, and the payload —
/// written once here so [`compress`] and the [`cbic_image::Codec`] impl
/// cannot drift apart.
fn write_container(
    img: ImageView<'_>,
    payload: &[u8],
    out: &mut dyn std::io::Write,
) -> Result<(), CbicError> {
    framing::write_dims_header(out, MAGIC, img.width(), img.height(), img.bit_depth())?;
    out.write_all(&[0])?;
    Ok(out.write_all(payload)?)
}

/// Bytes the container framing adds ahead of the payload.
fn container_overhead(bit_depth: u8) -> u64 {
    framing::dims_header_len(bit_depth) + 1
}

/// Parses this crate's container framing, returning
/// `(width, height, bit_depth, payload)`. Shared by [`decompress`] and
/// the CLI's `info` reporting.
///
/// # Errors
///
/// The framing's errors ([`framing::parse_dims_header`]), and
/// [`CbicError::InvalidContainer`] for a NEAR byte other than 0:
/// near-lossless containers are retired.
pub fn parse_container(bytes: &[u8]) -> Result<(usize, usize, u8, &[u8]), CbicError> {
    let (width, height, bit_depth, rest) = framing::parse_dims_header(bytes, MAGIC)?;
    match rest.split_first() {
        Some((0, payload)) => Ok((width, height, bit_depth, payload)),
        Some((near, _)) => Err(CbicError::InvalidContainer(format!(
            "NEAR {near}: near-lossless JPEG-LS is retired and no longer decodes"
        ))),
        None => Err(CbicError::Truncated),
    }
}

/// Compresses the pixels of a view into a self-describing container
/// (`CBLS` magic, width/height, a NEAR byte of 0, then the entropy-coded
/// payload).
pub fn compress(img: ImageView<'_>) -> Vec<u8> {
    let (payload, _) = encode_raw(img);
    let mut out = Vec::with_capacity(payload.len() + 18);
    write_container(img, &payload, &mut out).expect("Vec writes cannot fail");
    out
}

/// Decompresses a container produced by [`compress`].
///
/// # Errors
///
/// Returns a [`CbicError`] on malformed headers and retired
/// near-lossless containers, and [`CbicError::Truncated`] for payloads
/// that run out before the last sample.
pub fn decompress(bytes: &[u8]) -> Result<Image, CbicError> {
    let (width, height, bit_depth, payload) = parse_container(bytes)?;
    decode_raw(payload, width, height, bit_depth)
}

/// JPEG-LS on the unified [`cbic_image::Codec`] surface.
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
    ) -> Result<cbic_image::EncodeStats, CbicError> {
        let (payload, stats) = encode_raw(img);
        write_container(img, &payload, sink)?;
        Ok(cbic_image::EncodeStats::new(
            stats.pixels,
            container_overhead(img.bit_depth()) + payload.len() as u64,
            Some(stats.payload_bits),
        ))
    }

    /// Decodes the whole image; `opts.roi` crops it afterwards
    /// ([`Image::crop_to`]).
    fn decode(
        &self,
        source: &mut dyn std::io::Read,
        opts: &cbic_image::DecodeOptions,
    ) -> Result<Image, CbicError> {
        let mut bytes = Vec::new();
        source.read_to_end(&mut bytes)?;
        decompress(&bytes)?.crop_to(opts.roi)
    }
}

#[cfg(test)]
mod container_tests {
    use super::*;
    use cbic_image::corpus::CorpusImage;

    #[test]
    fn container_roundtrip() {
        let img = CorpusImage::Peppers.generate(32, 32);
        let bytes = compress(img.view());
        assert_eq!(decompress(&bytes).unwrap(), img);
    }

    #[test]
    fn container_rejects_garbage() {
        assert!(matches!(decompress(b"nope"), Err(CbicError::Truncated)));
        assert!(matches!(
            decompress(b"XXXX0000000000000"),
            Err(CbicError::BadMagic { found: Some(m) }) if &m == b"XXXX"
        ));
    }

    #[test]
    fn near_lossless_containers_are_refused() {
        let img = CorpusImage::Lena.generate(32, 32);
        let mut bytes = compress(img.view());
        assert_eq!(bytes[12], 0, "writers emit NEAR 0");
        bytes[12] = 3;
        let err = decompress(&bytes).unwrap_err();
        assert!(
            matches!(&err, CbicError::InvalidContainer(m) if m.contains("NEAR 3")
                && m.contains("near-lossless") && m.contains("retired")),
            "{err:?}"
        );
    }

    #[test]
    fn a_payload_cut_in_half_is_truncated() {
        for img in [
            CorpusImage::Lena.generate(32, 32),
            cbic_image::Image::from_fn(32, 32, |_, _| 9),
        ] {
            let bytes = compress(img.view());
            assert!(matches!(
                decompress(&bytes[..bytes.len() / 2]),
                Err(CbicError::Truncated)
            ));
        }
    }
}
