//! Property-based tests for the codec: losslessness is the headline
//! invariant, under arbitrary images, arbitrary configurations, and
//! arbitrary sample depths.

use proptest::prelude::*;

use crate::codec::{decode_raw, encode_raw, CodecConfig, ModelMode};
use crate::container::{compress, decompress};
use crate::context::DivisionKind;
use cbic_arith::EstimatorConfig;
use cbic_image::Image;

fn arb_image() -> impl Strategy<Value = Image> {
    (1usize..24, 1usize..24).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<u8>(), w * h)
            .prop_map(move |data| Image::from_vec(w, h, data).expect("sized to match"))
    })
}

/// Arbitrary images at arbitrary 9–16-bit depths, samples masked to fit.
fn arb_deep_image() -> impl Strategy<Value = Image> {
    (1usize..16, 1usize..16, 9u8..=16).prop_flat_map(|(w, h, depth)| {
        proptest::collection::vec(any::<u16>(), w * h).prop_map(move |data| {
            let mask = if depth == 16 {
                u16::MAX
            } else {
                (1u16 << depth) - 1
            };
            let data = data.into_iter().map(|v| v & mask).collect();
            Image::from_samples(w, h, depth, data).expect("masked to depth")
        })
    })
}

fn arb_config() -> impl Strategy<Value = CodecConfig> {
    (
        10u8..=16,
        1u16..=64,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0u8..=6,
        (any::<bool>(), 4u8..=12),
    )
        .prop_map(
            |(count_bits, increment, feedback, aging, exact, texture_bits, (wide, banks))| {
                CodecConfig {
                    estimator: EstimatorConfig {
                        count_bits,
                        increment,
                        ..EstimatorConfig::default()
                    },
                    error_feedback: feedback,
                    aging,
                    division: if exact {
                        DivisionKind::Exact
                    } else {
                        DivisionKind::Lut
                    },
                    texture_bits,
                    model: if wide {
                        ModelMode::WideHash { banks_log2: banks }
                    } else {
                        ModelMode::Classic
                    },
                }
            },
        )
}

proptest! {
    /// Lossless round-trip for arbitrary pixel content under the default
    /// configuration.
    #[test]
    fn roundtrip_arbitrary_images(img in arb_image()) {
        let cfg = CodecConfig::default();
        let (bytes, stats) = encode_raw(img.view(), &cfg);
        prop_assert_eq!(stats.pixels as usize, img.pixel_count());
        let back = decode_raw(&bytes, img.width(), img.height(), 8, &cfg);
        prop_assert_eq!(back, img);
    }

    /// Lossless round-trip for arbitrary deep (9–16-bit) content.
    #[test]
    fn roundtrip_arbitrary_deep_images(img in arb_deep_image()) {
        let cfg = CodecConfig::default();
        let (bytes, _) = encode_raw(img.view(), &cfg);
        let back = decode_raw(&bytes, img.width(), img.height(), img.bit_depth(), &cfg);
        prop_assert_eq!(back, img);
    }

    /// Lossless round-trip under arbitrary configurations.
    #[test]
    fn roundtrip_arbitrary_configs(img in arb_image(), cfg in arb_config()) {
        let (bytes, _) = encode_raw(img.view(), &cfg);
        let back = decode_raw(&bytes, img.width(), img.height(), 8, &cfg);
        prop_assert_eq!(back, img);
    }

    /// The container round-trips and self-describes arbitrary configs,
    /// at 8-bit and at deep sample depths.
    #[test]
    fn container_roundtrip(img in arb_image(), cfg in arb_config()) {
        let bytes = compress(img.view(), &cfg);
        prop_assert_eq!(decompress(&bytes).expect("valid container"), img);
    }

    /// Deep containers carry their depth and round-trip losslessly.
    #[test]
    fn deep_container_roundtrip(img in arb_deep_image(), cfg in arb_config()) {
        let bytes = compress(img.view(), &cfg);
        let back = decompress(&bytes).expect("valid container");
        prop_assert_eq!(back.bit_depth(), img.bit_depth());
        prop_assert_eq!(back, img);
    }

    /// Corrupted headers parse to an error or to a syntactically valid
    /// header; they never panic. Decoding proceeds only for small claimed
    /// dimensions (callers validate dimensions from `parse_header` before
    /// committing to a decode of arbitrary size).
    #[test]
    fn corrupt_headers_do_not_panic(
        img in arb_image(),
        byte in 0usize..23,
        val in any::<u8>(),
    ) {
        let mut bytes = compress(img.view(), &CodecConfig::default());
        bytes[byte] = val;
        if let Ok((hdr, _)) = crate::container::parse_header(&bytes) {
            if hdr.width * hdr.height <= 1 << 16 {
                let _ = decompress(&bytes); // garbage pixels are fine
            }
        }
    }

    /// Compressed size is never catastrophically larger than the input
    /// (escape overhead bounds expansion at ~15%).
    #[test]
    fn bounded_expansion(img in arb_image()) {
        let (bytes, _) = encode_raw(img.view(), &CodecConfig::default());
        let budget = img.pixel_count() * 8 * 120 / 100 + 64 * 8;
        prop_assert!(bytes.len() * 8 <= budget,
            "{} pixels -> {} bits", img.pixel_count(), bytes.len() * 8);
    }

    /// Deep-sample expansion stays bounded too: the two-bank estimator
    /// costs at most ~20% over the raw depth plus flush slack.
    #[test]
    fn bounded_expansion_deep(img in arb_deep_image()) {
        let (bytes, _) = encode_raw(img.view(), &CodecConfig::default());
        let depth = usize::from(img.bit_depth());
        let budget = img.pixel_count() * (depth + 2) * 120 / 100 + 64 * 8;
        prop_assert!(bytes.len() * 8 <= budget,
            "{} pixels at {depth} bits -> {} bits", img.pixel_count(), bytes.len() * 8);
    }

    /// Encoding through a strided window is byte-identical to encoding its
    /// contiguous copy: the bits depend on pixels, never on the stride.
    #[test]
    fn strided_views_encode_identically(
        img in arb_image(),
        frac in 0u8..4,
    ) {
        let (w, h) = img.dimensions();
        // A window anchored somewhere inside the image.
        let x0 = (usize::from(frac) * w / 5).min(w - 1);
        let y0 = (usize::from(frac) * h / 5).min(h - 1);
        let window = img.view().crop(x0, y0, w - x0, h - y0);
        let cfg = CodecConfig::default();
        let (from_view, _) = encode_raw(window, &cfg);
        let (from_copy, _) = encode_raw(window.to_image().view(), &cfg);
        prop_assert_eq!(from_view, from_copy);
    }

    /// Golden-model equivalence: the hardware-constrained streaming
    /// encoder (3 rotating line buffers) is bit-identical to the
    /// algorithmic reference on arbitrary images and configurations.
    #[test]
    fn hwpipe_matches_reference(img in arb_image(), cfg in arb_config()) {
        let (reference, _) = encode_raw(img.view(), &cfg);
        let hw = crate::hwpipe::HwEncoder::encode_image(img.view(), &cfg);
        prop_assert_eq!(hw, reference);
    }

    /// The hardware model agrees with the reference at deep depths too.
    #[test]
    fn hwpipe_matches_reference_deep(img in arb_deep_image()) {
        let cfg = CodecConfig::default();
        let (reference, _) = encode_raw(img.view(), &cfg);
        let hw = crate::hwpipe::HwEncoder::encode_image(img.view(), &cfg);
        prop_assert_eq!(hw, reference);
    }

    /// Tiled containers round-trip at every legal tile count.
    #[test]
    fn tiles_roundtrip(img in arb_image(), tiles in 1usize..8) {
        use crate::tiles::{compress_tiled, decompress_tiled, Parallelism};
        let tiles = tiles.min(img.height());
        let bytes = compress_tiled(img.view(), &CodecConfig::default(), tiles, Parallelism::Auto);
        prop_assert_eq!(
            decompress_tiled(&bytes, Parallelism::Auto).expect("valid container"),
            img
        );
    }

    /// Thread-parallel banded coding is byte-identical to the sequential
    /// reference at the band counts the throughput benches exercise, and
    /// the parallel decoder agrees with the sequential one.
    #[test]
    fn tiles_parallel_equals_sequential(
        img in arb_image(),
        tiles in (0usize..4).prop_map(|i| [1usize, 2, 4, 7][i]),
        workers in 2usize..6,
    ) {
        use crate::tiles::{compress_tiled, decompress_tiled, Parallelism};
        let cfg = CodecConfig::default();
        let tiles = tiles.min(img.height());
        let seq = compress_tiled(img.view(), &cfg, tiles, Parallelism::Sequential);
        let par = compress_tiled(img.view(), &cfg, tiles, Parallelism::Threads(workers));
        prop_assert_eq!(&par, &seq, "encode must not depend on the schedule");
        let seq_img = decompress_tiled(&seq, Parallelism::Sequential).expect("valid");
        let par_img = decompress_tiled(&seq, Parallelism::Threads(workers)).expect("valid");
        prop_assert_eq!(&seq_img, &par_img);
        prop_assert_eq!(&seq_img, &img);
    }

    /// A single-band tiled container is deterministic with respect to the
    /// untiled decoder path: the outer `CBTI` framing is always rejected
    /// (wrong magic), while the inner band — a standard container — always
    /// decodes to the original image.
    #[test]
    fn single_band_tile_vs_untiled_decoder(img in arb_image()) {
        use crate::tiles::{compress_tiled, Parallelism};
        let bytes = compress_tiled(img.view(), &CodecConfig::default(), 1, Parallelism::Sequential);
        prop_assert_eq!(decompress(&bytes), Err(crate::CodecError::BadMagic));
        // CBTI magic (4) + tile count (4) + band length prefix (4).
        prop_assert_eq!(decompress(&bytes[12..]).expect("inner container"), img);
    }

    /// Every strict prefix of a flat container decodes to an error or to
    /// an image, never a panic; a prefix that ends inside the header is
    /// always [`CodecError::Truncated`](crate::CodecError::Truncated).
    #[test]
    fn truncated_containers_error_cleanly(
        img in arb_image(),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = compress(img.view(), &CodecConfig::default());
        let cut = (((bytes.len() - 1) as f64) * cut_frac) as usize;
        let result = decompress(&bytes[..cut]);
        if cut < crate::container::HEADER_LEN {
            prop_assert_eq!(result, Err(crate::CodecError::Truncated));
        }
    }

    /// Arbitrary single-byte corruption anywhere in a flat container —
    /// header or payload — yields either a structured error or garbage
    /// pixels, never a panic.
    #[test]
    fn corrupt_containers_do_not_panic(
        img in arb_image(),
        pos_frac in 0.0f64..1.0,
        val in any::<u8>(),
    ) {
        let mut bytes = compress(img.view(), &CodecConfig::default());
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] = val;
        if let Ok((hdr, _)) = crate::container::parse_header(&bytes) {
            if hdr.width * hdr.height <= 1 << 16 {
                let _ = decompress(&bytes); // any Err/garbage is fine
            }
        }
    }
}

proptest! {
    /// Random-access crop decode is exact: `decode_roi(rect)` over a
    /// grid container (v4 classic, v5 wide) equals the same crop of a
    /// full decode, for random rects (the generator's endpoints cover
    /// single-pixel and full-image rects, and free tile sizes make
    /// boundary-straddling the common case) across depths 1–16 and both
    /// context-model modes.
    #[test]
    fn decode_roi_equals_crop_of_full_decode(
        img in arb_graded_depth_image(),
        wide in any::<bool>(),
        (tw, th) in (1u32..=20, 1u32..=20),
        (fx, fy, fw, fh) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..=1.0, 0.0f64..=1.0),
    ) {
        use crate::grid::{compress_grid, decode_roi, decompress_grid, TileGeometry};
        use cbic_image::{Parallelism, Rect};

        let cfg = CodecConfig {
            model: if wide {
                ModelMode::WideHash {
                    banks_log2: crate::bigctx::DEFAULT_BANKS_LOG2,
                }
            } else {
                ModelMode::Classic
            },
            ..CodecConfig::default()
        };

        let (w, h) = img.dimensions();
        let x = (fx * (w - 1) as f64) as u32;
        let y = (fy * (h - 1) as f64) as u32;
        let rw = 1 + (fw * (w as u32 - x - 1) as f64) as u32;
        let rh = 1 + (fh * (h as u32 - y - 1) as f64) as u32;
        let roi = Rect::new(x, y, rw, rh);

        let bytes = compress_grid(
            img.view(),
            &cfg,
            TileGeometry::new(tw, th),
            1,
            Parallelism::Sequential,
        );
        let full = decompress_grid(&bytes, Parallelism::Sequential)
            .expect("fresh container decodes");
        prop_assert_eq!(&full, &img, "grid container must be lossless");
        let crop = decode_roi(&bytes, roi, Parallelism::Sequential)
            .expect("in-bounds ROI decodes");
        let reference = full
            .view()
            .crop(x as usize, y as usize, rw as usize, rh as usize)
            .to_image();
        prop_assert_eq!(crop, reference);
    }
}

/// Arbitrary images across the full 1–16-bit depth range, samples masked
/// to fit — the ROI property runs the whole depth ladder, not just 8-bit.
fn arb_graded_depth_image() -> impl Strategy<Value = Image> {
    (1usize..40, 1usize..40, 1u8..=16).prop_flat_map(|(w, h, depth)| {
        proptest::collection::vec(any::<u16>(), w * h).prop_map(move |data| {
            let mask = if depth == 16 {
                u16::MAX
            } else {
                (1u16 << depth) - 1
            };
            let data = data.into_iter().map(|v| v & mask).collect();
            Image::from_samples(w, h, depth, data).expect("masked to depth")
        })
    })
}
