//! The view-API redesign, locked down: encoding through borrowed, strided
//! [`ImageView`]s is byte-identical to encoding owned copies (stride can
//! never leak into the bits), and 8–16-bit sample depths round-trip
//! losslessly through every registry codec, the universal dispatcher, and
//! the tile-grid + streaming paths.

use cbic::core::grid::{compress_grid, decompress_grid, TileGeometry};
use cbic::core::stream::{compress_to, decompress_from};
use cbic::core::CodecConfig;
use cbic::image::corpus::CorpusImage;
use cbic::image::{pgm, Image, ImageView};
use cbic::universal::dispatch::{Chunk, UniversalCodec};
use cbic::{DecodeOptions, EncodeOptions, Parallelism};
use proptest::prelude::*;

fn opts() -> (EncodeOptions, DecodeOptions) {
    (EncodeOptions::default(), DecodeOptions::default())
}

/// A deterministic deep test image: depth-scaled corpus-like content with
/// full use of the sample range.
fn deep_image(width: usize, height: usize, depth: u8) -> Image {
    let modulus = if depth == 16 { 65536u32 } else { 1u32 << depth };
    Image::from_fn16(width, height, depth, |x, y| {
        (((x * x + 3 * y) as u32 * 1103 + (x * y) as u32 * 13) % modulus) as u16
    })
}

#[test]
fn every_codec_is_stride_blind() {
    // A band view and an interior crop of a larger image must encode to
    // exactly the bytes of their owned contiguous copies.
    let img = CorpusImage::Barb.generate(48, 40);
    let (enc, _) = opts();
    let windows: Vec<ImageView<'_>> = vec![
        img.view(),
        img.view().row_range(7, 21),
        img.view().crop(5, 3, 31, 29),
        img.view().crop(17, 0, 31, 40),
    ];
    for codec in cbic::all_codecs() {
        for (i, window) in windows.iter().enumerate() {
            let from_view = codec.encode_vec(*window, &enc).unwrap();
            let from_copy = codec.encode_vec(window.to_image().view(), &enc).unwrap();
            assert_eq!(
                from_view,
                from_copy,
                "{} window {i}: stride leaked into the bits",
                codec.name()
            );
        }
    }
}

#[test]
fn band_tiles_are_zero_copy_and_match_owned_encodes() {
    // The full-width tiles `cbic compress --threads N` writes are borrowed
    // row ranges of the image, and encode exactly like owned copies.
    let img = CorpusImage::Lena.generate(40, 37);
    let cfg = CodecConfig::default();
    for tiles in [1, 3, 5] {
        let geom = TileGeometry::new(40, 37usize.div_ceil(tiles) as u32);
        let (_, rows) = geom.grid(40, 37);
        for row in 0..rows {
            let (_, y0, _, h) = geom.tile_rect(0, row, 40, 37);
            let band = img.view().row_range(y0, h);
            // Zero-copy: the band's rows are the image's rows.
            assert_eq!(band.row(0), img.row(y0));
            // Differential: band view encode == owned band encode.
            let (from_view, _) = cbic::core::encode_raw(band, &cfg);
            let (from_copy, _) = cbic::core::encode_raw(band.to_image().view(), &cfg);
            assert_eq!(from_view, from_copy);
        }
    }
}

#[test]
fn sixteen_bit_roundtrips_through_every_registry_codec() {
    let registry = cbic::default_registry();
    let (enc, dec) = opts();
    for depth in [9u8, 12, 16] {
        let img = deep_image(33, 29, depth);
        for codec in registry.codecs() {
            let bytes = codec.encode_vec(img.view(), &enc).unwrap();
            let back = codec.decode_vec(&bytes, &dec).unwrap();
            assert_eq!(back, img, "{} at depth {depth}", codec.name());
            assert_eq!(back.bit_depth(), depth, "{}", codec.name());
            // Deep containers must still auto-detect by magic.
            assert_eq!(
                registry.detect(&bytes).map(|c| c.name()),
                Some(codec.name()),
                "detection lost at depth {depth}"
            );
            assert_eq!(registry.decode_auto(&bytes, &dec).unwrap(), img);
        }
    }
}

#[test]
fn sixteen_bit_universal_dispatch_roundtrips() {
    let codec = UniversalCodec::default();
    let chunks = vec![
        Chunk::Data(b"deep imagery manifest\n".repeat(10)),
        Chunk::Image(deep_image(24, 24, 16)),
        Chunk::Image(CorpusImage::Zelda.generate(24, 24)),
        Chunk::Image(deep_image(16, 31, 12)),
    ];
    let bytes = codec.encode(&chunks);
    assert_eq!(codec.decode(&bytes).unwrap(), chunks);
}

#[test]
fn sixteen_bit_tiled_and_streaming_paths_roundtrip() {
    let cfg = CodecConfig::default();
    for depth in [10u8, 16] {
        let img = deep_image(40, 33, depth);
        // Grids of full-width tiles, coded and decoded in parallel.
        for tiles in [2, 4] {
            let geom = TileGeometry::new(40, 33usize.div_ceil(tiles) as u32);
            let bytes = compress_grid(img.view(), &cfg, geom, 1, Parallelism::Auto);
            assert_eq!(
                decompress_grid(&bytes, Parallelism::Threads(3)).unwrap(),
                img,
                "depth {depth}, {tiles} tiles"
            );
        }
        // Row streaming, byte-identical to buffered.
        let streamed = compress_to(img.view(), &cfg, Vec::new()).unwrap();
        assert_eq!(streamed, cbic::core::compress(img.view(), &cfg));
        assert_eq!(decompress_from(&streamed[..]).unwrap(), img);
    }
}

#[test]
fn sixteen_bit_pgm_to_codec_to_pgm() {
    // The acceptance path: PGM in, any registry codec, PGM out, losslessly.
    let registry = cbic::default_registry();
    let (enc, dec) = opts();
    let img = deep_image(21, 17, 16);
    let pgm_bytes = pgm::encode(&img);
    let loaded = pgm::decode(&pgm_bytes).unwrap();
    assert_eq!(loaded, img);
    for codec in registry.codecs() {
        let container = codec.encode_vec(loaded.view(), &enc).unwrap();
        let decoded = codec.decode_vec(&container, &dec).unwrap();
        let out = pgm::encode(&decoded);
        assert_eq!(out, pgm_bytes, "{} PGM roundtrip", codec.name());
    }
}

proptest! {
    /// Differential property: for every registry codec, an arbitrary
    /// interior window encodes byte-identically through the borrowed view
    /// and through its owned copy.
    #[test]
    fn arbitrary_windows_are_stride_blind(
        seed in 0u64..512,
        x0 in 0usize..12,
        y0 in 0usize..12,
        w in 4usize..20,
        h in 4usize..20,
    ) {
        let img = Image::from_fn(32, 32, |x, y| {
            (128.0 + 90.0 * cbic::image::synth::fbm(seed, x as f64, y as f64, 6.0, 3, 0.5)) as u8
        });
        let w = w.min(32 - x0);
        let h = h.min(32 - y0);
        let window = img.view().crop(x0, y0, w, h);
        let (enc, _) = opts();
        for codec in cbic::all_codecs() {
            let a = codec.encode_vec(window, &enc).unwrap();
            let b = codec.encode_vec(window.to_image().view(), &enc).unwrap();
            prop_assert_eq!(a, b, "{} leaked the stride", codec.name());
        }
    }

    /// Arbitrary deep images round-trip losslessly through every registry
    /// codec and keep their declared depth.
    #[test]
    fn arbitrary_deep_images_roundtrip(
        w in 1usize..14,
        h in 1usize..14,
        depth in 9u8..=16,
        seed in any::<u64>(),
    ) {
        let mask = if depth == 16 { u16::MAX } else { (1u16 << depth) - 1 };
        let mut state = seed | 1;
        let img = Image::from_fn16(w, h, depth, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as u16) & mask
        });
        let (enc, dec) = opts();
        for codec in cbic::all_codecs() {
            let bytes = codec.encode_vec(img.view(), &enc).unwrap();
            let back = codec.decode_vec(&bytes, &dec).unwrap();
            prop_assert_eq!(&back, &img, "{} at depth {}", codec.name(), depth);
            prop_assert_eq!(back.bit_depth(), depth);
        }
    }
}
