//! CALIC baseline codec (Wu & Memon, IEEE Trans. Communications 1997 —
//! the paper's reference \[3\]).
//!
//! CALIC is the state-of-the-art software scheme the paper measures itself
//! against: the proposed hardware codec deliberately trades a little
//! compression (512 vs CALIC's larger context set) for implementability.
//! This crate implements continuous-tone CALIC with:
//!
//! * the full **GAP** predictor (shared with `cbic-core`, which inherited
//!   it from CALIC in the first place);
//! * an **8-event texture pattern** `{N, W, NW, NE, NN, WW, 2N−NN, 2W−WW}`
//!   compared against the prediction — twice the events of the hardware
//!   codec's 6;
//! * **1024 compound contexts** (256 texture patterns × 4 quantized error
//!   energies) for error feedback with 8-bit counts and exact division —
//!   richer and more precise than the hardware codec's 512 contexts with
//!   5-bit counts and LUT division;
//! * adaptive arithmetic coding of the remapped errors conditioned on the
//!   8 quantized error-energy contexts (same entropy back end as the rest
//!   of the workspace).
//!
//! Binary (bi-level) mode of full CALIC is not implemented: on the
//! continuous-tone corpus it rarely engages.
//!
//! # Examples
//!
//! ```
//! use cbic_calic::{compress, decompress};
//! use cbic_image::corpus::CorpusImage;
//!
//! let img = CorpusImage::Peppers.generate(48, 48);
//! let bytes = compress(img.view());
//! assert_eq!(decompress(&bytes)?, img);
//! # Ok::<(), cbic_image::CbicError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;

#[cfg(test)]
mod proptests;

pub use codec::{decode_raw, encode_raw, EncodeStats};

use cbic_image::framing;
use cbic_image::{CbicError, Image, ImageView};

const MAGIC: &[u8; 4] = b"CBCA";

/// This crate's container framing — the shared dimensioned header of
/// [`cbic_image::framing`] (legacy 8-bit layout, deep-sentinel extension)
/// followed directly by the payload — written once here so [`compress`]
/// and the [`cbic_image::Codec`] impl cannot drift apart.
fn write_container(
    img: ImageView<'_>,
    payload: &[u8],
    out: &mut dyn std::io::Write,
) -> Result<(), CbicError> {
    framing::write_dims_header(out, MAGIC, img.width(), img.height(), img.bit_depth())?;
    Ok(out.write_all(payload)?)
}

/// Parses this crate's container framing, returning
/// `(width, height, bit_depth, payload)`. Shared by [`decompress`] and
/// the CLI's `info` reporting.
///
/// # Errors
///
/// The framing's errors ([`framing::parse_dims_header`]).
pub fn parse_container(bytes: &[u8]) -> Result<(usize, usize, u8, &[u8]), CbicError> {
    framing::parse_dims_header(bytes, MAGIC)
}

/// Compresses the pixels of a view into a self-describing container.
pub fn compress(img: ImageView<'_>) -> Vec<u8> {
    let (payload, _) = encode_raw(img);
    let mut out = Vec::with_capacity(payload.len() + 17);
    write_container(img, &payload, &mut out).expect("Vec writes cannot fail");
    out
}

/// Decompresses a container produced by [`compress`].
///
/// # Errors
///
/// Returns a [`CbicError`] on malformed headers, and
/// [`CbicError::Truncated`] for payloads that run out before the last
/// sample.
pub fn decompress(bytes: &[u8]) -> Result<Image, CbicError> {
    let (width, height, bit_depth, payload) = parse_container(bytes)?;
    decode_raw(payload, width, height, bit_depth)
}

/// CALIC on the unified [`cbic_image::Codec`] surface.
///
/// The encode path writes the container straight to the sink and reports
/// the exact payload bits from the same pass, so size queries cost one
/// encode. Decoding buffers the source (the CALIC model is not
/// incremental), consuming it to end-of-stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calic;

impl cbic_image::Codec for Calic {
    fn name(&self) -> &'static str {
        "calic"
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
        let img = CorpusImage::Boat.generate(32, 32);
        assert_eq!(decompress(&compress(img.view())).unwrap(), img);
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(decompress(b"xx"), Err(CbicError::Truncated)));
        assert!(matches!(
            decompress(b"AAAA00000000"),
            Err(CbicError::BadMagic { found: Some(m) }) if &m == b"AAAA"
        ));
    }

    #[test]
    fn a_payload_cut_in_half_is_truncated() {
        for img in [
            CorpusImage::Lena.generate(32, 32),
            Image::from_fn(32, 32, |_, _| 9),
        ] {
            let bytes = compress(img.view());
            assert!(matches!(
                decompress(&bytes[..bytes.len() / 2]),
                Err(CbicError::Truncated)
            ));
        }
    }
}
