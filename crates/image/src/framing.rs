//! Shared dimensioned-container framing for the baseline codecs.
//!
//! The CALIC, JPEG-LS, and SLP crates each own an independent container
//! format, but all three frame it the same way: a 4-byte magic, the
//! image dimensions, and (since the bit-depth redesign) an optional
//! deep-sample header extension. This module defines that scheme once —
//! the sentinel value, the write/parse logic, and the size accounting —
//! so a validation fix cannot silently drift between the crates:
//!
//! ```text
//! 8-bit (legacy, byte-identical to the historical format):
//!     magic(4) width(u32 LE) height(u32 LE) ...
//! deeper:
//!     magic(4) 0xFFFFFFFF bit_depth(1) width(u32 LE) height(u32 LE) ...
//! ```
//!
//! The `0xFFFFFFFF` sentinel can never be a legal legacy width (widths
//! are bounded by the shared 2^28-pixel cap), so old streams keep
//! decoding unchanged.

use crate::CbicError;
use std::io::Write;

/// Sentinel "width" introducing the extended (deep-sample) header.
const DEEP_SENTINEL: u32 = u32::MAX;

/// The shared pixel ceiling: 2^28, matching the core container's cap.
const MAX_PIXELS: usize = 1 << 28;

/// Writes the magic, the optional deep-sample extension, and the
/// dimensions. The caller appends any codec-specific fields (JPEG-LS's
/// reserved byte) and the payload.
///
/// # Errors
///
/// [`CbicError::Io`] when `out` fails.
pub fn write_dims_header(
    out: &mut dyn Write,
    magic: &[u8; 4],
    width: usize,
    height: usize,
    bit_depth: u8,
) -> Result<(), CbicError> {
    out.write_all(magic)?;
    if bit_depth != 8 {
        out.write_all(&DEEP_SENTINEL.to_le_bytes())?;
        out.write_all(&[bit_depth])?;
    }
    out.write_all(&(width as u32).to_le_bytes())?;
    out.write_all(&(height as u32).to_le_bytes())?;
    Ok(())
}

/// Bytes [`write_dims_header`] emits: 12 for the legacy 8-bit layout, 17
/// with the deep extension.
pub fn dims_header_len(bit_depth: u8) -> u64 {
    if bit_depth == 8 {
        12
    } else {
        17
    }
}

/// Parses a header written by [`write_dims_header`], returning
/// `(width, height, bit_depth, rest)` where `rest` starts at the first
/// byte after the dimensions.
///
/// # Errors
///
/// [`CbicError::BadMagic`] on a foreign magic,
/// [`CbicError::Truncated`] when the header is cut short, and
/// [`CbicError::InvalidContainer`] for zero dimensions, images beyond the
/// 2^28-pixel cap, or a malformed depth extension.
pub fn parse_dims_header<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
) -> Result<(usize, usize, u8, &'a [u8]), CbicError> {
    if bytes.len() < 12 {
        return Err(CbicError::Truncated);
    }
    if &bytes[..4] != magic {
        return Err(CbicError::bad_magic(bytes));
    }
    let first = u32::from_le_bytes(bytes[4..8].try_into().expect("sized"));
    let (bit_depth, dims_at) = if first == DEEP_SENTINEL {
        if bytes.len() < 17 {
            return Err(CbicError::Truncated);
        }
        let depth = bytes[8];
        if !(1..=16).contains(&depth) || depth == 8 {
            return Err(CbicError::InvalidContainer(format!(
                "bit depth {depth} invalid for an extended header"
            )));
        }
        (depth, 9usize)
    } else {
        (8u8, 4usize)
    };
    let width = u32::from_le_bytes(bytes[dims_at..dims_at + 4].try_into().expect("sized")) as usize;
    let height =
        u32::from_le_bytes(bytes[dims_at + 4..dims_at + 8].try_into().expect("sized")) as usize;
    if width == 0 || height == 0 {
        return Err(CbicError::InvalidContainer("zero dimension".into()));
    }
    if width.saturating_mul(height) > MAX_PIXELS {
        return Err(CbicError::InvalidContainer("image too large".into()));
    }
    Ok((width, height, bit_depth, &bytes[dims_at + 8..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 4] = b"TEST";

    fn roundtrip(width: usize, height: usize, depth: u8) -> Vec<u8> {
        let mut out = Vec::new();
        write_dims_header(&mut out, MAGIC, width, height, depth).unwrap();
        assert_eq!(out.len() as u64, dims_header_len(depth));
        out
    }

    #[test]
    fn legacy_layout_is_twelve_bytes() {
        let hdr = roundtrip(640, 480, 8);
        assert_eq!(hdr.len(), 12);
        let (w, h, d, rest) = parse_dims_header(&hdr, MAGIC).unwrap();
        assert_eq!((w, h, d), (640, 480, 8));
        assert!(rest.is_empty());
    }

    #[test]
    fn deep_layout_carries_the_depth() {
        let mut hdr = roundtrip(33, 21, 12);
        hdr.extend_from_slice(b"payload");
        let (w, h, d, rest) = parse_dims_header(&hdr, MAGIC).unwrap();
        assert_eq!((w, h, d), (33, 21, 12));
        assert_eq!(rest, b"payload");
    }

    #[test]
    fn rejects_malformed_headers() {
        assert!(matches!(
            parse_dims_header(b"TE", MAGIC),
            Err(CbicError::Truncated)
        ));
        assert!(matches!(
            parse_dims_header(b"XXXX00000000", MAGIC),
            Err(CbicError::BadMagic { found: Some(m) }) if &m == b"XXXX"
        ));
        // Sentinel with a truncated extension.
        let mut short = Vec::new();
        short.extend_from_slice(MAGIC);
        short.extend_from_slice(&u32::MAX.to_le_bytes());
        short.extend_from_slice(&[12, 0, 0]);
        assert!(matches!(
            parse_dims_header(&short, MAGIC),
            Err(CbicError::Truncated)
        ));
        // Sentinel claiming depth 8 (must use the legacy layout) or 0.
        for depth in [0u8, 8, 17] {
            let mut bad = Vec::new();
            write_dims_header(&mut bad, MAGIC, 4, 4, 10).unwrap();
            bad[8] = depth;
            assert!(
                matches!(
                    parse_dims_header(&bad, MAGIC),
                    Err(CbicError::InvalidContainer(_))
                ),
                "depth {depth}"
            );
        }
        // Zero dims and the pixel cap.
        let zero = roundtrip(4, 4, 8);
        let mut zero_w = zero.clone();
        zero_w[4..8].fill(0);
        assert!(matches!(
            parse_dims_header(&zero_w, MAGIC),
            Err(CbicError::InvalidContainer(_))
        ));
        let mut huge = zero;
        huge[4..8].copy_from_slice(&(1u32 << 20).to_le_bytes());
        huge[8..12].copy_from_slice(&(1u32 << 20).to_le_bytes());
        assert!(matches!(
            parse_dims_header(&huge, MAGIC),
            Err(CbicError::InvalidContainer(_))
        ));
    }
}
