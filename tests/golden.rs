//! Golden-corpus regression fixtures: the compressed bitstream of every
//! registry codec on a panel of synthetic image classes is checked in
//! under `tests/golden/`, and each fresh encode is byte-compared against
//! its fixture.
//!
//! Any change to the bitstream — an estimator tweak, a reordered decision,
//! a container field — shows up as a failing diff here instead of a silent
//! format break. If a change is *intentional*, regenerate the fixtures
//! with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```
//!
//! and commit the resulting `tests/golden/*.bin` files together with the
//! change that moved the bits.

use cbic::image::corpus::CorpusImage;
use std::path::PathBuf;

/// Fixture image size: small enough that the whole corpus stays a few
/// kilobytes, large enough to exercise adaptation and escapes.
const SIZE: usize = 32;

/// One fixture per codec per image class: a smooth portrait stand-in, an
/// oriented texture, and a high-frequency one.
const CLASSES: [CorpusImage; 3] = [CorpusImage::Lena, CorpusImage::Barb, CorpusImage::Mandrill];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn check(name: &str, fresh: &[u8]) {
    let path = golden_dir().join(format!("{name}.bin"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, fresh).expect("write fixture");
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden",
            path.display()
        )
    });
    if golden != fresh {
        let first_diff = golden
            .iter()
            .zip(fresh.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| golden.len().min(fresh.len()));
        panic!(
            "bitstream drift for {name}: fixture {} bytes, fresh {} bytes, first diff at \
             offset {first_diff}.\nIf this change is intentional, regenerate with \
             UPDATE_GOLDEN=1 cargo test --test golden and commit the new fixtures.",
            golden.len(),
            fresh.len()
        );
    }
}

#[test]
fn every_registry_codec_matches_its_golden_fixtures() {
    let registry = cbic::default_registry();
    let enc = cbic::EncodeOptions::default();
    let dec = cbic::DecodeOptions::default();
    for codec in registry.codecs() {
        for class in CLASSES {
            let img = class.generate(SIZE, SIZE);
            let bytes = codec.encode_vec(img.view(), &enc).unwrap();
            check(
                &format!("{}_{}_{}", codec.name(), class.name(), SIZE),
                &bytes,
            );
            // The fixture must also still decode to the source image, so a
            // decoder regression cannot hide behind a matching encoder.
            assert_eq!(
                codec.decode_vec(&bytes, &dec).unwrap(),
                img,
                "{} on {:?}",
                codec.name(),
                class
            );
        }
    }
}

#[test]
fn legacy_fixtures_stay_on_pre_lane_container_versions() {
    // The flat 8-bit streams keep the exact format they had before coder
    // lanes came and went: decode the committed v1 fixtures straight off
    // disk and check their version byte. (Skipped while regenerating —
    // the fixtures may not exist yet on a fresh checkout.)
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return;
    }
    for class in CLASSES {
        let path = golden_dir().join(format!("proposed_{}_{}.bin", class.name(), SIZE));
        let bytes = std::fs::read(&path).expect("committed fixture");
        assert_eq!(bytes[4], 1, "flat 8-bit fixtures stay container v1");
        assert_eq!(
            cbic::core::decompress(&bytes).unwrap(),
            class.generate(SIZE, SIZE),
            "{class:?}"
        );
    }
}

#[test]
fn grid_v4_containers_match_their_golden_fixtures() {
    // Container v4: the 2D tile grid with its seekable index. Two
    // geometries pin the index layout and the per-tile substream framing —
    // a 2×2 grid of 16×16 tiles and a 4×4 grid of 8×8 tiles. Each fixture
    // must also decode losslessly, both whole and through a random-access
    // crop.
    use cbic::core::grid::{compress_grid, decode_roi, decompress_grid, TileGeometry};
    use cbic::core::CodecConfig;
    use cbic::image::Parallelism;
    use cbic::Rect;
    let cfg = CodecConfig::default();
    for (grid_name, tile) in [("grid2x2", 16u32), ("grid4x4", 8)] {
        for class in CLASSES {
            let img = class.generate(SIZE, SIZE);
            let bytes = compress_grid(
                img.view(),
                &cfg,
                TileGeometry::new(tile, tile),
                1,
                Parallelism::Sequential,
            );
            assert_eq!(bytes[4], 4, "v4 version byte");
            check(
                &format!("proposed_{grid_name}_{}_{}", class.name(), SIZE),
                &bytes,
            );
            assert_eq!(
                decompress_grid(&bytes, Parallelism::Sequential).unwrap(),
                img,
                "{grid_name} on {class:?}"
            );
            // A crop straddling all four interior tile corners.
            let roi = Rect::new(tile - 3, tile - 3, 7, 7);
            assert_eq!(
                decode_roi(&bytes, roi, Parallelism::Sequential).unwrap(),
                img.view()
                    .crop(roi.x as usize, roi.y as usize, 7, 7)
                    .to_image(),
                "{grid_name} ROI on {class:?}"
            );
        }
    }
}

#[test]
fn pre_v4_fixtures_stay_byte_identical() {
    // Shipping container v4 must not move a single bit of v1/v2: pin the
    // checksum and length of every fixture from before the grid subsystem
    // that is still committed, and of the kept fixtures of retired
    // formats, which no encoder writes any more: `proposed_lanes4_lena_32`
    // (version 3, coder lanes), `proposed_wide_lena_32` (version 5, the
    // wide-hash model), `tiled_lena_32` (the `CBTI` band container) and
    // `universal_mixed` (the `CBUN` universal container).
    // A mismatch here means an old container changed — that is a format
    // break, never something to regenerate past. (Skipped while
    // regenerating, like the other committed-file checks.)
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return;
    }
    const PINNED: [(&str, u32, usize); 16] = [
        ("calic_barb_32.bin", 0x4B52_924C, 900),
        ("calic_lena_32.bin", 0x58E8_1651, 846),
        ("calic_mandrill_32.bin", 0x63BC_7A0F, 940),
        ("jpegls_barb_32.bin", 0x936A_F0BE, 735),
        ("jpegls_lena_32.bin", 0x2682_7387, 662),
        ("jpegls_mandrill_32.bin", 0xEDA3_CF50, 933),
        ("proposed_barb_32.bin", 0xB82F_A693, 859),
        ("proposed_lanes4_lena_32.bin", 0x7629_15DF, 824),
        ("proposed_wide_lena_32.bin", 0x16D8_540F, 814),
        ("proposed_lena_32.bin", 0xDA99_2458, 803),
        ("proposed_mandrill_32.bin", 0x0BCA_39C8, 928),
        ("slp_barb_32.bin", 0x4A23_FCDF, 701),
        ("slp_lena_32.bin", 0x8C1E_8A3B, 648),
        ("slp_mandrill_32.bin", 0xEAB8_667D, 830),
        ("tiled_lena_32.bin", 0x4A23_AD83, 1017),
        ("universal_mixed.bin", 0x38CC_299E, 897),
    ];
    for (name, crc, len) in PINNED {
        let bytes = std::fs::read(golden_dir().join(name))
            .unwrap_or_else(|e| panic!("pinned fixture {name} must stay committed: {e}"));
        assert_eq!(bytes.len(), len, "{name} length drifted");
        assert_eq!(
            cbic::core::grid::crc32(&bytes),
            crc,
            "{name} bytes drifted — an old container format changed"
        );
    }
}

#[test]
fn pre_v5_fixtures_stay_byte_identical() {
    // The v4 grid fixtures survived the v5 wide-hash model coming and
    // going: together with `pre_v4_fixtures_stay_byte_identical` this pins
    // every committed fixture.
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return;
    }
    const V4_GRID: [(&str, u32, usize); 6] = [
        ("proposed_grid2x2_barb_32.bin", 0xE8CB_93F4, 1042),
        ("proposed_grid2x2_lena_32.bin", 0xE4AD_B1B4, 985),
        ("proposed_grid2x2_mandrill_32.bin", 0xBE44_31DA, 1073),
        ("proposed_grid4x4_barb_32.bin", 0x754F_684C, 1300),
        ("proposed_grid4x4_lena_32.bin", 0xD12B_98DB, 1275),
        ("proposed_grid4x4_mandrill_32.bin", 0x574F_402A, 1315),
    ];
    for (name, crc, len) in V4_GRID {
        let bytes = std::fs::read(golden_dir().join(name))
            .unwrap_or_else(|e| panic!("pre-v5 fixture {name} must stay committed: {e}"));
        assert_eq!(bytes.len(), len, "{name} length drifted");
        assert_eq!(
            cbic::core::grid::crc32(&bytes),
            crc,
            "{name} bytes drifted — a pre-v5 container format changed"
        );
    }
}

#[test]
fn streaming_encoder_matches_the_proposed_golden_fixtures() {
    // The streaming path must produce the exact fixture bytes too — the
    // golden corpus pins the format for *both* transports.
    use cbic::core::{stream::StreamEncoder, CodecConfig};
    for class in CLASSES {
        let img = class.generate(SIZE, SIZE);
        let cfg = CodecConfig::default();
        let mut enc = StreamEncoder::with_depth(Vec::new(), SIZE, SIZE, 8, &cfg).unwrap();
        for row in img.view().rows() {
            enc.push_row(row).unwrap();
        }
        let bytes = enc.finish().unwrap();
        check(&format!("proposed_{}_{}", class.name(), SIZE), &bytes);
    }
}
