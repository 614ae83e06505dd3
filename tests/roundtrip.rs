//! Cross-crate integration: every codec in the workspace must round-trip
//! the shared corpus losslessly, through both the raw and container APIs,
//! and interoperate with the PGM pipeline.

use cbic::core::CodecConfig;
use cbic::image::corpus::{self, CorpusImage};
use cbic::image::{pgm, Image};

const SIZE: usize = 96;

#[test]
fn every_codec_roundtrips_the_whole_corpus() {
    for (name, img) in corpus::generate(SIZE) {
        // Proposed (container API).
        let bytes = cbic::core::compress(img.view(), &CodecConfig::default());
        assert_eq!(
            cbic::core::decompress(&bytes).unwrap(),
            img,
            "proposed on {name:?}"
        );
        // CALIC.
        let bytes = cbic::calic::compress(img.view());
        assert_eq!(
            cbic::calic::decompress(&bytes).unwrap(),
            img,
            "calic on {name:?}"
        );
        // JPEG-LS.
        let bytes = cbic::jpegls::compress(img.view());
        assert_eq!(
            cbic::jpegls::decompress(&bytes).unwrap(),
            img,
            "jpegls on {name:?}"
        );
        // SLP.
        let bytes = cbic::slp::compress(img.view());
        assert_eq!(
            cbic::slp::decompress(&bytes).unwrap(),
            img,
            "slp on {name:?}"
        );
    }
}

#[test]
fn pgm_to_codec_to_pgm_pipeline() {
    // The workflow a user with real images follows: PGM in, compress,
    // decompress, PGM out, bit-identical.
    let img = CorpusImage::Peppers.generate(SIZE, SIZE);
    let pgm_bytes = pgm::encode(&img);
    let loaded = pgm::decode(&pgm_bytes).unwrap();
    let compressed = cbic::core::compress(loaded.view(), &CodecConfig::default());
    let restored = cbic::core::decompress(&compressed).unwrap();
    assert_eq!(pgm::encode(&restored), pgm_bytes);
}

#[test]
fn containers_are_mutually_unintelligible() {
    // Feeding one codec's container to another must error, not crash or
    // silently decode.
    let img = CorpusImage::Boat.generate(32, 32);
    let core_bytes = cbic::core::compress(img.view(), &CodecConfig::default());
    assert!(cbic::jpegls::decompress(&core_bytes).is_err());
    assert!(cbic::calic::decompress(&core_bytes).is_err());
    assert!(cbic::slp::decompress(&core_bytes).is_err());
    let ls_bytes = cbic::jpegls::compress(img.view());
    assert!(cbic::core::decompress(&ls_bytes).is_err());
}

#[test]
fn extreme_images_roundtrip_everywhere() {
    let cases: Vec<(&str, Image)> = vec![
        ("all_black", Image::from_fn(40, 40, |_, _| 0)),
        ("all_white", Image::from_fn(40, 40, |_, _| 255)),
        (
            "checkerboard",
            Image::from_fn(40, 40, |x, y| ((x + y) % 2 * 255) as u8),
        ),
        (
            "vertical_bars",
            Image::from_fn(40, 40, |x, _| ((x % 2) * 255) as u8),
        ),
        (
            "impulse",
            Image::from_fn(40, 40, |x, y| if (x, y) == (20, 20) { 255 } else { 0 }),
        ),
        ("single_pixel", Image::from_fn(1, 1, |_, _| 137)),
        ("one_row", Image::from_fn(64, 1, |x, _| (x * 4) as u8)),
        ("one_col", Image::from_fn(1, 64, |_, y| (y * 4) as u8)),
    ];
    for (name, img) in &cases {
        let b = cbic::core::compress(img.view(), &CodecConfig::default());
        assert_eq!(&cbic::core::decompress(&b).unwrap(), img, "core on {name}");
        let b = cbic::calic::compress(img.view());
        assert_eq!(
            &cbic::calic::decompress(&b).unwrap(),
            img,
            "calic on {name}"
        );
        let b = cbic::jpegls::compress(img.view());
        assert_eq!(
            &cbic::jpegls::decompress(&b).unwrap(),
            img,
            "jpegls on {name}"
        );
        let b = cbic::slp::compress(img.view());
        assert_eq!(&cbic::slp::decompress(&b).unwrap(), img, "slp on {name}");
    }
}

#[test]
fn facade_reexports_are_usable_together() {
    // One program using every layer through the facade.
    let img = CorpusImage::Zelda.generate(48, 48);
    let mut w = cbic::bitio::BitWriter::new();
    cbic::rice::encode(&mut w, 42, 3);
    let rice_bytes = w.into_bytes();
    let mut r = cbic::bitio::BitReader::new(&rice_bytes);
    assert_eq!(cbic::rice::decode(&mut r, 3), Some(42));

    let lut = cbic::hw::divlut::DivLut::new();
    assert_eq!(lut.table_bytes(), 1024);

    let (payload, stats) = cbic::core::encode_raw(img.view(), &CodecConfig::default());
    assert!(stats.bits_per_pixel() > 0.0);
    assert_eq!(
        cbic::core::decode_raw(&payload, 48, 48, 8, &CodecConfig::default()),
        img
    );
}

#[test]
fn codec_trait_objects_are_interchangeable() {
    // The registry is the single source of codecs; nothing is hand-listed.
    let codecs = cbic::all_codecs();
    let img = CorpusImage::Goldhill.generate(64, 64);
    let enc = cbic::EncodeOptions::default();
    let dec = cbic::DecodeOptions::default();
    let mut seen = std::collections::HashSet::new();
    for codec in &codecs {
        assert!(seen.insert(codec.name()), "duplicate codec name");
        let bytes = codec.encode_vec(img.view(), &enc).unwrap();
        assert_eq!(
            codec.decode_vec(&bytes, &dec).unwrap(),
            img,
            "{}",
            codec.name()
        );
        let bpp = codec.bits_per_pixel(img.view(), &enc).unwrap();
        assert!(bpp > 0.0 && bpp < 8.0, "{}: {bpp}", codec.name());
        // Cross-feeding another codec's container must error.
        for other in &codecs {
            if other.name() != codec.name() {
                assert!(
                    other.decode_vec(&bytes, &dec).is_err(),
                    "{} accepted a {} container",
                    other.name(),
                    codec.name()
                );
            }
        }
    }
}

#[test]
fn random_garbage_never_panics_any_decoder() {
    // Deterministic pseudo-random garbage, with and without valid magics:
    // every decoder must return an error or garbage pixels, never panic.
    use cbic::image::synth::lattice;
    for seed in 0..20u64 {
        let len = 16 + (seed as usize * 37) % 200;
        let mut garbage: Vec<u8> = (0..len)
            .map(|i| (lattice(seed, i as i64, 0) * 256.0) as u8)
            .collect();
        let registry = cbic::default_registry();
        let opts = cbic::DecodeOptions::default();
        let _ = cbic::core::decompress(&garbage);
        let _ = cbic::calic::decompress(&garbage);
        let _ = cbic::jpegls::decompress(&garbage);
        let _ = cbic::slp::decompress(&garbage);
        let _ = cbic::core::decompress_grid(&garbage, cbic::core::Parallelism::Auto);
        let _ = registry.decode_auto(&garbage, &opts);
        // Now with a valid magic but garbage bodies (small dims so a
        // "successful" garbage decode stays cheap); version 4 takes the
        // tile-grid reader, and the retired CBTI magic must be refused.
        for (magic, version) in [
            (b"CBIC", 1),
            (b"CBIC", 4),
            (b"CBCA", 1),
            (b"CBLS", 1),
            (b"CBSL", 1),
            (b"CBTI", 1),
        ] {
            garbage[..4].copy_from_slice(magic);
            garbage[4..12].copy_from_slice(&[version, 1, 16, 0, 0, 0, 16, 0]);
            let _ = cbic::core::decompress(&garbage);
            let _ = cbic::calic::decompress(&garbage);
            let _ = cbic::jpegls::decompress(&garbage);
            let _ = cbic::slp::decompress(&garbage);
            let _ = cbic::core::decompress_grid(&garbage, cbic::core::Parallelism::Auto);
            let _ = registry.decode_auto(&garbage, &opts);
        }
    }
}
