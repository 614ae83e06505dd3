//! Differential tests for the streaming layer, plus the
//! truncated/corrupted-stream contract of every decoder.
//!
//! The streaming pipeline (`StreamEncoder`/`StreamDecoder`,
//! `StreamBitWriter`/`StreamBitReader`) must be a pure *transport* change:
//! byte-identical to the buffered `compress`/`encode_raw`/session
//! paths on every input. The property tests here drive all three encoders
//! over random images (including 1-pixel-wide, 1-row, and extreme-aspect
//! shapes) and a config sweep, and the corruption suite pins down that
//! mid-stream EOF and flipped magic bytes produce errors — never panics,
//! never unbounded allocation.

use cbic::core::grid::{compress_grid, crc32, decompress_grid, TileGeometry};
use cbic::core::stream::{StreamDecoder, StreamEncoder};
use cbic::core::{compress, decompress, encode_raw, CodecConfig, DecoderSession, EncoderSession};
use cbic::image::corpus::CorpusImage;
use cbic::image::Image;
use cbic::{CbicError, Codec, DecodeOptions, EncodeOptions, Parallelism, Rect};
use proptest::prelude::*;

/// `img` pushed row by row through a [`StreamEncoder`] into a `Vec`.
fn stream(img: &Image, cfg: &CodecConfig) -> Vec<u8> {
    let (w, h) = img.dimensions();
    let mut enc = StreamEncoder::with_depth(Vec::new(), w, h, img.bit_depth(), cfg).unwrap();
    for row in img.view().rows() {
        enc.push_row(row).unwrap();
    }
    enc.finish().unwrap()
}

/// `bytes` pulled row by row out of a [`StreamDecoder`].
fn stream_decode(bytes: &[u8]) -> Result<Image, CbicError> {
    StreamDecoder::new(bytes)?.decode_all()
}

fn arb_image() -> impl Strategy<Value = Image> {
    (1usize..40, 1usize..40).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<u8>(), w * h)
            .prop_map(move |data| Image::from_vec(w, h, data).expect("sized to match"))
    })
}

proptest! {
    /// StreamEncoder output == buffered `compress` == the reusable
    /// `EncoderSession` == header + `encode_raw`, byte for byte, on
    /// arbitrary images.
    #[test]
    fn stream_encoder_is_byte_identical_to_all_buffered_encoders(img in arb_image()) {
        let cfg = CodecConfig::default();
        let buffered = compress(img.view(), &cfg);
        let streamed = stream(&img, &cfg);
        prop_assert_eq!(&streamed, &buffered);
        let mut session_out = Vec::new();
        EncoderSession::new(&cfg)
            .encode(img.view(), &mut session_out)
            .expect("Vec sink");
        prop_assert_eq!(&session_out, &buffered);

        let (raw, _) = encode_raw(img.view(), &cfg);
        prop_assert_eq!(&buffered[buffered.len() - raw.len()..], &raw[..]);
    }

    /// Streaming decode of streaming output reproduces the image exactly.
    #[test]
    fn stream_roundtrip_is_lossless(img in arb_image()) {
        let cfg = CodecConfig::default();
        let bytes = stream(&img, &cfg);
        prop_assert_eq!(stream_decode(&bytes).expect("own stream"), img);
    }

    /// Cross-matrix: the buffered session decoder reads streamed bytes and
    /// the stream decoder reads the session encoder's bytes.
    #[test]
    fn stream_and_buffered_decoders_are_interchangeable(img in arb_image()) {
        let cfg = CodecConfig::default();
        let bytes = compress(img.view(), &cfg);
        prop_assert_eq!(stream_decode(&bytes).expect("buffered bytes"), img.clone());
        let streamed = stream(&img, &cfg);
        let back = DecoderSession::new().decode(&mut &streamed[..]).expect("streamed bytes");
        prop_assert_eq!(back, img);
    }
}

#[test]
fn equivalence_holds_on_edge_shapes() {
    // 1-pixel-wide, 1-row, and maximum-aspect shapes: the row-history
    // rotation and the first-row/first-column boundary rules all degenerate
    // here, so these shapes catch any divergence the random sizes miss.
    let cfg = CodecConfig::default();
    for (w, h) in [
        (1, 1),
        (1, 2),
        (2, 1),
        (1, 257),
        (257, 1),
        (1, 4096),
        (4096, 1),
        (16384, 2),
        (2, 16384),
    ] {
        let img = Image::from_fn(w, h, |x, y| (x * 31 + y * 17) as u8);
        let buffered = compress(img.view(), &cfg);
        let streamed = stream(&img, &cfg);
        assert_eq!(streamed, buffered, "{w}x{h}");
        assert_eq!(stream_decode(&streamed).unwrap(), img, "{w}x{h}");
    }
}

#[test]
fn equivalence_holds_across_configs() {
    let img = CorpusImage::Barb.generate(40, 40);
    for cfg in [
        CodecConfig::default(),
        CodecConfig {
            error_feedback: false,
            ..CodecConfig::default()
        },
        CodecConfig {
            texture_bits: 0,
            ..CodecConfig::default()
        },
        CodecConfig {
            division: cbic::core::DivisionKind::Exact,
            ..CodecConfig::default()
        },
    ] {
        let buffered = compress(img.view(), &cfg);
        let streamed = stream(&img, &cfg);
        assert_eq!(streamed, buffered, "{cfg:?}");
    }
}

#[test]
fn sink_and_buffered_paths_match_for_every_registry_codec() {
    let img = CorpusImage::Peppers.generate(32, 32);
    let registry = cbic::default_registry();
    let enc = EncodeOptions::default();
    let dec = DecodeOptions::default();
    for codec in registry.codecs() {
        let buffered = codec.encode_vec(img.view(), &enc).unwrap();
        let mut streamed = Vec::new();
        let stats = codec.encode(img.view(), &enc, &mut streamed).unwrap();
        assert_eq!(streamed, buffered, "{}", codec.name());
        assert_eq!(
            stats.container_bytes,
            buffered.len() as u64,
            "{} container_bytes must be exact",
            codec.name()
        );
        // The counting-sink measure path reports the same size without
        // materializing anything.
        let measured = codec.measure(img.view(), &enc).unwrap();
        assert_eq!(measured, stats, "{}", codec.name());
        let mut source: &[u8] = &buffered;
        let back = codec.decode(&mut source, &dec).unwrap();
        assert_eq!(back, img, "{}", codec.name());
        // And through magic-routed stream dispatch.
        assert_eq!(
            registry.decode_stream(&mut &buffered[..], &dec).unwrap(),
            img,
            "{}",
            codec.name()
        );
        // A region of interest comes back as exactly the crop, and a
        // rectangle reaching outside the image as a structured error.
        let crop = codec.decode_vec(&buffered, &dec.with_roi(Rect::new(3, 5, 8, 8)));
        let reference = img.view().crop(3, 5, 8, 8).to_image();
        assert_eq!(crop.unwrap(), reference, "{}", codec.name());
        let outside = codec.decode_vec(&buffered, &dec.with_roi(Rect::new(30, 0, 8, 8)));
        assert!(
            matches!(outside, Err(CbicError::InvalidContainer(_))),
            "{}: {outside:?}",
            codec.name()
        );
    }
}

// ---------------------------------------------------------------------------
// Truncated / corrupted streams: error, never panic, never unbounded alloc.
// ---------------------------------------------------------------------------

#[test]
fn core_decoder_errors_on_mid_stream_eof() {
    let img = CorpusImage::Goldhill.generate(64, 64);
    let bytes = compress(img.view(), &CodecConfig::default());
    assert!(bytes.len() > 120, "need a real payload for the cuts below");
    // Cuts inside the header, just past it, mid-payload, and near the end.
    for cut in [0, 3, 12, 22, 23, 40, bytes.len() / 2, bytes.len() - 32] {
        let err = decompress(&bytes[..cut]).expect_err("truncated must error");
        assert!(
            matches!(err, CbicError::Truncated),
            "cut {cut}: got {err:?}"
        );
        // The buffered session decoder agrees.
        let session_err = DecoderSession::new()
            .decode(&mut &bytes[..cut])
            .expect_err("truncated must error");
        assert!(
            matches!(session_err, CbicError::Truncated),
            "session cut {cut}: got {session_err:?}"
        );
    }
}

/// A v4 grid of `bands` full-width tiles (the partition `cbic compress
/// --threads N` writes) of a 48×48 image.
fn band_grid(img: &Image, bands: usize) -> Vec<u8> {
    let geom = TileGeometry::new(48, 48usize.div_ceil(bands) as u32);
    compress_grid(
        img.view(),
        &CodecConfig::default(),
        geom,
        1,
        Parallelism::Sequential,
    )
}

#[test]
fn tiled_decoder_errors_on_mid_stream_eof() {
    let img = CorpusImage::Boat.generate(48, 48);
    let bytes = band_grid(&img, 3);
    for cut in [0, 5, 9, 30, bytes.len() / 2, bytes.len() - 24] {
        assert!(
            decompress_grid(&bytes[..cut], Parallelism::Sequential).is_err(),
            "cut {cut}"
        );
        // The codec's streaming decode path must agree.
        let codec = cbic::core::Proposed::default();
        let mut source: &[u8] = &bytes[..cut];
        assert!(
            codec
                .decode(&mut source, &DecodeOptions::default())
                .is_err(),
            "stream cut {cut}"
        );
    }
}

#[test]
fn tiled_decoder_errors_on_truncated_final_band_payload() {
    // A cut *inside* the last tile's arithmetic payload, with its index
    // entry rewritten (length and CRC) so the container parses, must
    // still be rejected: the tile decoder runs out of payload.
    let img = CorpusImage::Barb.generate(48, 48);
    let mut bytes = band_grid(&img, 2);
    let cut = 40;
    bytes.truncate(bytes.len() - cut);
    // Index layout: 33-byte header, then per tile offset u64, len u32, crc u32.
    let entry = 33 + 16;
    let len = u32::from_le_bytes(bytes[entry + 8..entry + 12].try_into().unwrap()) as usize;
    let new_len = len - cut;
    bytes[entry + 8..entry + 12].copy_from_slice(&(new_len as u32).to_le_bytes());
    let crc = crc32(&bytes[bytes.len() - new_len..]);
    bytes[entry + 12..entry + 16].copy_from_slice(&crc.to_le_bytes());
    assert!(matches!(
        decompress_grid(&bytes, Parallelism::Sequential),
        Err(CbicError::Truncated)
    ));
}

#[test]
fn every_decoder_rejects_flipped_magic() {
    let img = CorpusImage::Zelda.generate(24, 24);
    let cfg = CodecConfig::default();

    let mut core_bytes = compress(img.view(), &cfg);
    core_bytes[0] ^= 0x20;
    assert!(matches!(
        decompress(&core_bytes),
        Err(CbicError::BadMagic { found: Some(m) }) if &m == b"cBIC"
    ));
    assert!(matches!(
        StreamDecoder::new(&core_bytes[..]).expect_err("flipped magic"),
        CbicError::BadMagic { found: Some(_) }
    ));

    let mut grid_bytes = compress_grid(
        img.view(),
        &cfg,
        TileGeometry::new(24, 12),
        1,
        Parallelism::Sequential,
    );
    grid_bytes[1] ^= 0xFF;
    assert!(matches!(
        decompress_grid(&grid_bytes, Parallelism::Sequential),
        Err(CbicError::BadMagic { found: Some(_) })
    ));
}

#[test]
fn forged_headers_cannot_force_huge_allocations() {
    // A corrupted header claiming a gigantic image must be rejected before
    // any allocation proportional to the claim.
    let img = CorpusImage::Boat.generate(16, 16);
    let mut bytes = compress(img.view(), &CodecConfig::default());
    bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    bytes[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decompress(&bytes),
        Err(CbicError::InvalidContainer(_))
    ));
    assert!(matches!(
        StreamDecoder::new(&bytes[..]).err(),
        Some(CbicError::InvalidContainer(_))
    ));
}

/// The ≥64-megapixel acceptance check: an 8192×8192 synthetic image
/// round-trips through the row-streaming encoder/decoder with codec-side
/// state bounded to O(rows). Rows are generated and checked on the fly —
/// the *source* image is never materialized either. Ignored by default
/// (several seconds in release, minutes in debug); run explicitly with
/// `cargo test --release --test streaming -- --ignored`.
#[test]
#[ignore = "64-megapixel soak test; run with --ignored in release"]
fn sixty_four_megapixel_roundtrip_in_bounded_memory() {
    const N: usize = 8192;
    let cfg = CodecConfig::default();
    let pixel = |x: usize, y: usize| {
        u16::from(((x / 7) as u8).wrapping_add((y / 5) as u8).wrapping_mul(31))
    };

    let mut enc = StreamEncoder::with_depth(Vec::new(), N, N, 8, &cfg).unwrap();
    let mut row = vec![0u16; N];
    for y in 0..N {
        for (x, slot) in row.iter_mut().enumerate() {
            *slot = pixel(x, y);
        }
        enc.push_row(&row).unwrap();
    }
    let bytes = enc.finish().unwrap();
    assert!(bytes.len() < N * N, "synthetic content must compress");

    let mut dec = StreamDecoder::new(&bytes[..]).unwrap();
    assert_eq!(dec.dimensions(), (N, N));
    for y in 0..N {
        dec.next_row(&mut row).unwrap();
        for (x, &v) in row.iter().enumerate() {
            assert_eq!(v, pixel(x, y), "mismatch at ({x},{y})");
        }
    }
}

/// The 64-megapixel soak for the v4 tile grid: an 8192×8192 frame goes
/// through `compress_grid` on four worker threads (32×32 grid of 256×256
/// tiles), decodes back bit-exactly in parallel, the parallel bytes match
/// the sequential bytes, and a random-access crop out of the middle needs
/// only the covering tiles. Ignored by default for the same reason as the
/// streaming soak above; run with `cargo test --release --test streaming
/// -- --ignored`.
#[test]
#[ignore = "64-megapixel tiled soak test; run with --ignored in release"]
fn sixty_four_megapixel_tiled_roundtrip_and_roi() {
    use cbic::core::grid::{compress_grid, decode_roi, decompress_grid, parse_grid, TileGeometry};
    use cbic::Rect;

    const N: usize = 8192;
    let cfg = CodecConfig::default();
    let pixel = |x: usize, y: usize| ((x / 7) as u8).wrapping_add((y / 5) as u8).wrapping_mul(31);
    let img = Image::from_fn(N, N, pixel);
    let geom = TileGeometry::default(); // 256×256 → a 32×32 grid

    let par = Parallelism::Threads(4);
    let bytes = compress_grid(img.view(), &cfg, geom, 1, par);
    assert!(bytes.len() < N * N, "synthetic content must compress");
    let (_, index, _) = parse_grid(&bytes).unwrap();
    assert_eq!((index.cols, index.rows), (32, 32));

    // The wavefront schedule must never leak into the bytes.
    let sequential = compress_grid(img.view(), &cfg, geom, 1, Parallelism::Sequential);
    assert_eq!(bytes, sequential, "parallel encode must be deterministic");

    let back = decompress_grid(&bytes, par).unwrap();
    assert_eq!(back, img, "64 MP tiled roundtrip must be lossless");

    // Random access: a 300×200 crop straddling tile boundaries.
    let roi = Rect::new(4000, 4000, 300, 200);
    let crop = decode_roi(&bytes, roi, Parallelism::Sequential).unwrap();
    assert_eq!(crop, img.view().crop(4000, 4000, 300, 200).to_image());
}

/// The finished stream's exact payload bits are shared by every encode
/// path, with `StreamEncodeStats` payload/container byte totals that match
/// the finished container (the quantities `cbic info` prints).
#[test]
fn payload_bits_match_the_container_payload_exactly() {
    let img = CorpusImage::Lena.generate(32, 32);
    let cfg = CodecConfig::default();
    let buffered = compress(img.view(), &cfg);

    let mut enc =
        StreamEncoder::with_depth(Vec::new(), img.width(), img.height(), 8, &cfg).unwrap();
    for row in img.view().rows() {
        enc.push_row(row).unwrap();
    }
    let (out, stats) = enc.finish_with_stats().unwrap();
    assert_eq!(out, buffered);
    assert_eq!(stats.container_bytes as usize, buffered.len());

    // `cbic info`'s payload is the container minus its 23-byte v1
    // header — `payload_bytes` must be exactly that, so the CLI's bpp
    // agrees with `info`.
    assert_eq!(stats.payload_bytes, (buffered.len() - 23) as u64);

    // The exact coded-bit count is short of the byte-aligned payload only
    // by the align padding — strictly under 8 bits.
    let payload_bits = stats.payload_bytes * 8;
    assert!(stats.payload_bits <= payload_bits);
    assert!(
        payload_bits - stats.payload_bits < 8,
        "{} vs {payload_bits}",
        stats.payload_bits
    );

    // The buffered encode path reports the identical exact count.
    let mut session_out = Vec::new();
    let session_stats = EncoderSession::new(&cfg)
        .encode(img.view(), &mut session_out)
        .unwrap();
    assert_eq!(session_stats.payload_bits, stats.payload_bits);
    assert_eq!(session_out, buffered);
}

#[test]
fn stream_encoder_counts_rows_and_rejects_overflow() {
    let cfg = CodecConfig::default();
    let mut enc = StreamEncoder::with_depth(Vec::new(), 8, 2, 8, &cfg).unwrap();
    assert_eq!((enc.width(), enc.height()), (8, 2));
    enc.push_row(&[1; 8]).unwrap();
    enc.push_row(&[2; 8]).unwrap();
    assert_eq!(enc.rows_pushed(), 2);
    let bytes = enc.finish().unwrap();
    let img = decompress(&bytes).unwrap();
    assert_eq!(img.dimensions(), (8, 2));
}
