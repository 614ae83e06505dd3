//! The error-hierarchy contract: every legacy error converts into
//! [`CbicError`] structurally, every decoder failure on corrupted or
//! truncated input is a structured variant (never a panic, never a bare
//! string), and I/O error kinds survive the conversions.

use cbic::core::CodecError;
use cbic::image::corpus::CorpusImage;
use cbic::image::{Image, ImageError, RegistryError};
use cbic::universal::dispatch::{Chunk, UniversalCodec};
use cbic::universal::UniversalError;
use cbic::{CbicError, Codec, DecodeOptions, EncodeOptions};
use proptest::prelude::*;
use std::io;

// ---------------------------------------------------------------------------
// Exhaustive From conversions: one assertion per source variant.
// ---------------------------------------------------------------------------

/// `(source error, predicate over the converted CbicError)` pairs.
type ConversionCases<E> = Vec<(E, fn(&CbicError) -> bool)>;

#[test]
fn codec_error_conversions_cover_every_variant() {
    let cases: ConversionCases<CodecError> = vec![
        (CodecError::BadMagic, |e| {
            matches!(e, CbicError::BadMagic { found: None })
        }),
        (CodecError::UnsupportedVersion(7), |e| {
            matches!(e, CbicError::UnsupportedVersion(7))
        }),
        (CodecError::UnsupportedCodec(3), |e| {
            matches!(e, CbicError::UnsupportedCodec(3))
        }),
        (CodecError::Truncated, |e| matches!(e, CbicError::Truncated)),
        (
            CodecError::InvalidHeader("bad field".into()),
            |e| matches!(e, CbicError::InvalidContainer(m) if m == "bad field"),
        ),
        (
            CodecError::Io(io::ErrorKind::BrokenPipe, "gone".into()),
            |e| matches!(e, CbicError::Io(inner) if inner.kind() == io::ErrorKind::BrokenPipe),
        ),
        // Io(UnexpectedEof) normalizes to the structured Truncated variant.
        (
            CodecError::Io(io::ErrorKind::UnexpectedEof, "cut".into()),
            |e| matches!(e, CbicError::Truncated),
        ),
    ];
    for (src, check) in cases {
        let msg = format!("{src:?}");
        let converted = CbicError::from(src);
        assert!(check(&converted), "{msg} became {converted:?}");
    }
}

#[test]
fn image_error_conversions_cover_every_variant() {
    let cases: ConversionCases<ImageError> = vec![
        (
            ImageError::DimensionMismatch {
                width: 2,
                height: 2,
                len: 5,
            },
            |e| {
                matches!(
                    e,
                    CbicError::Image(ImageError::DimensionMismatch { len: 5, .. })
                )
            },
        ),
        (ImageError::EmptyImage, |e| {
            matches!(e, CbicError::Image(ImageError::EmptyImage))
        }),
        (ImageError::PgmParse("no magic".into()), |e| {
            matches!(e, CbicError::Image(ImageError::PgmParse(_)))
        }),
        (
            ImageError::Codec("mangled".into()),
            |e| matches!(e, CbicError::InvalidContainer(m) if m == "mangled"),
        ),
        (ImageError::Io("offline".into()), |e| {
            matches!(e, CbicError::Io(_))
        }),
    ];
    for (src, check) in cases {
        let msg = format!("{src:?}");
        let converted = CbicError::from(src);
        assert!(check(&converted), "{msg} became {converted:?}");
    }
}

#[test]
fn registry_and_universal_error_conversions_cover_every_variant() {
    let dup = CbicError::from(RegistryError::DuplicateName("x".into()));
    assert!(matches!(
        dup,
        CbicError::Registry(RegistryError::DuplicateName(_))
    ));
    let clash = CbicError::from(RegistryError::MagicCollision {
        magic: *b"AAAA",
        holder: "a".into(),
        rejected: "b".into(),
    });
    assert!(matches!(
        clash,
        CbicError::Registry(RegistryError::MagicCollision { .. })
    ));

    let cases: ConversionCases<UniversalError> = vec![
        (UniversalError::BadMagic, |e| {
            matches!(e, CbicError::BadMagic { found: None })
        }),
        (UniversalError::Truncated, |e| {
            matches!(e, CbicError::Truncated)
        }),
        (
            UniversalError::InvalidStream("tag 9".into()),
            |e| matches!(e, CbicError::InvalidContainer(m) if m == "tag 9"),
        ),
        (UniversalError::Io("reset".into()), |e| {
            matches!(e, CbicError::Io(_))
        }),
    ];
    for (src, check) in cases {
        let msg = format!("{src:?}");
        let converted = CbicError::from(src);
        assert!(check(&converted), "{msg} became {converted:?}");
    }
}

// ---------------------------------------------------------------------------
// The ErrorKind-preservation regression (the old ImageError::Io(String)
// path used to flatten everything to a message).
// ---------------------------------------------------------------------------

#[test]
fn unexpected_eof_survives_a_truncated_decode() {
    let img = CorpusImage::Goldhill.generate(48, 48);
    let enc = EncodeOptions::default();
    let dec = DecodeOptions::default();
    // A cut inside the container header: every codec must report a
    // truncation whose io kind is recoverable as UnexpectedEof.
    for codec in cbic::all_codecs() {
        let bytes = codec.encode_vec(img.view(), &enc).unwrap();
        let err = codec
            .decode_vec(&bytes[..10], &dec)
            .expect_err("truncated header must error");
        assert_eq!(
            err.io_kind(),
            Some(io::ErrorKind::UnexpectedEof),
            "{}: {err:?}",
            codec.name()
        );
        // ...and converting onward into std::io keeps it too.
        assert_eq!(
            io::Error::from(err).kind(),
            io::ErrorKind::UnexpectedEof,
            "{}",
            codec.name()
        );
    }

    // A cut mid-payload: the paper's codec (and its tiled variant) track
    // decoder padding, so even a deep truncation surfaces as Truncated
    // with the kind intact — not garbage pixels, not a bare string.
    let registry = cbic::default_registry();
    for name in ["proposed", "tiled"] {
        let codec = registry.expect_name(name).unwrap();
        let bytes = codec.encode_vec(img.view(), &enc).unwrap();
        let err = codec
            .decode_vec(&bytes[..bytes.len() / 2], &dec)
            .expect_err("mid-payload truncation must error");
        assert_eq!(
            err.io_kind(),
            Some(io::ErrorKind::UnexpectedEof),
            "{name}: {err:?}"
        );
    }
}

#[test]
fn transport_error_kinds_survive_decode() {
    /// Yields `prefix`, then fails with the given kind.
    struct FailAfter(Vec<u8>, usize, io::ErrorKind);
    impl io::Read for FailAfter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.1 >= self.0.len() {
                return Err(io::Error::new(self.2, "transport failure"));
            }
            let n = buf.len().min(self.0.len() - self.1).min(16);
            buf[..n].copy_from_slice(&self.0[self.1..self.1 + n]);
            self.1 += n;
            Ok(n)
        }
    }

    let img = CorpusImage::Lena.generate(64, 64);
    let codec = cbic::core::Proposed::default();
    let bytes = codec
        .encode_vec(img.view(), &EncodeOptions::default())
        .unwrap();
    for kind in [io::ErrorKind::ConnectionReset, io::ErrorKind::TimedOut] {
        let mut source = FailAfter(bytes[..bytes.len() / 2].to_vec(), 0, kind);
        let err = codec
            .decode(&mut source, &DecodeOptions::default())
            .expect_err("failing transport must error");
        assert_eq!(err.io_kind(), Some(kind), "{err:?}");
    }
}

#[test]
fn encode_sink_failures_preserve_kind_for_every_codec() {
    struct Failing(io::ErrorKind);
    impl io::Write for Failing {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(self.0, "sink failure"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let img = CorpusImage::Zelda.generate(24, 24);
    for codec in cbic::all_codecs() {
        let err = codec
            .encode(
                img.view(),
                &EncodeOptions::default(),
                &mut Failing(io::ErrorKind::StorageFull),
            )
            .expect_err("failing sink must error");
        assert_eq!(
            err.io_kind(),
            Some(io::ErrorKind::StorageFull),
            "{}: {err:?}",
            codec.name()
        );
    }
}

// ---------------------------------------------------------------------------
// Property: corrupted/truncated input produces structured errors, never a
// panic. (Catching lossless decodes of corrupt input is not the point —
// single bit flips in an arithmetic payload can decode to garbage pixels —
// but *errors* must be structured variants.)
// ---------------------------------------------------------------------------

/// Every variant the decoders may legally produce for malformed input.
fn assert_structured(err: &CbicError, context: &str) {
    match err {
        CbicError::BadMagic { .. }
        | CbicError::UnsupportedVersion(_)
        | CbicError::UnsupportedCodec(_)
        | CbicError::Truncated
        | CbicError::InvalidContainer(_)
        | CbicError::Image(_)
        | CbicError::Io(_) => {}
        other => panic!("{context}: unexpected error class {other:?}"),
    }
}

proptest! {
    /// Truncation at any byte boundary: every registry codec either
    /// errors with a structured variant or (for prefix-free cut points)
    /// returns an image — never panics, never a stringly error.
    #[test]
    fn truncated_containers_yield_structured_errors(
        cut_permille in 0usize..1000,
        class in 0usize..3,
    ) {
        let img = [CorpusImage::Lena, CorpusImage::Barb, CorpusImage::Mandrill][class]
            .generate(16, 16);
        let enc = EncodeOptions::default();
        let dec = DecodeOptions::default();
        for codec in cbic::all_codecs() {
            let bytes = codec.encode_vec(img.view(), &enc).unwrap();
            let cut = cut_permille * bytes.len() / 1000;
            if let Err(e) = codec.decode_vec(&bytes[..cut], &dec) {
                assert_structured(&e, codec.name());
            }
        }
    }

    /// Flipping any single byte past the framing fields (magic and
    /// dimension corruption has dedicated deterministic tests — and
    /// corrupted dimensions legally decode as huge garbage images, which
    /// is too slow to sweep here): decoders must produce structured
    /// errors or garbage pixels, never panic.
    #[test]
    fn corrupted_containers_yield_structured_errors(
        pos_permille in 0usize..1000,
        xor in 1u8..=255,
    ) {
        let img = CorpusImage::Zelda.generate(16, 16);
        let enc = EncodeOptions::default();
        let dec = DecodeOptions::default();
        let registry = cbic::default_registry();
        for codec in registry.codecs() {
            let mut bytes = codec.encode_vec(img.view(), &enc).unwrap();
            let pos = (16 + pos_permille * (bytes.len() - 16) / 1000).min(bytes.len() - 1);
            bytes[pos] ^= xor;
            if let Err(e) = registry.decode_auto(&bytes, &dec) {
                assert_structured(&e, codec.name());
            }
        }
    }

    /// Pseudo-random garbage through the auto-detecting entry points.
    #[test]
    fn random_garbage_yields_structured_errors(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let registry = cbic::default_registry();
        let dec = DecodeOptions::default();
        if let Err(e) = registry.decode_auto(&bytes, &dec) {
            assert_structured(&e, "decode_auto");
        }
        let mut source: &[u8] = &bytes;
        if let Err(e) = registry.decode_stream(&mut source, &dec) {
            assert_structured(&e, "decode_stream");
        }
        // The universal container decoder has its own framing; its errors
        // convert into the same hierarchy.
        if let Err(e) = UniversalCodec::default().decode(&bytes) {
            assert_structured(&CbicError::from(e), "universal");
        }
    }
}

#[test]
fn v5_model_header_corruption_yields_structured_errors() {
    // Container v5 carries two new header bytes — the model byte
    // (banks_log2 at offset 25) and the flat/tiled layout flag (offset
    // 26). Forging either outside its legal range must be rejected as a
    // structured header error, and truncating the stream at every v5
    // header boundary must surface as Truncated — never a panic, never a
    // garbage image that silently used the wrong context model.
    use cbic::core::bigctx::DEFAULT_BANKS_LOG2;
    use cbic::core::{compress, decompress, CodecConfig, ModelMode};
    let img = CorpusImage::Lena.generate(16, 16);
    let cfg = CodecConfig {
        model: ModelMode::WideHash {
            banks_log2: DEFAULT_BANKS_LOG2,
        },
        ..CodecConfig::default()
    };
    let bytes = compress(img.view(), &cfg);
    assert_eq!(bytes[4], 5, "wide streams ride container v5");

    // Forged model byte: every value outside BANKS_LOG2_RANGE (4..=16).
    for forged in [0u8, 1, 3, 17, 64, 255] {
        let mut c = bytes.clone();
        c[25] = forged;
        let err = decompress(&c).expect_err("forged model byte must be rejected");
        assert!(
            matches!(&err, CodecError::InvalidHeader(m) if m.contains("banks_log2")),
            "banks_log2={forged} gave {err:?}"
        );
    }

    // Forged layout flag: anything past {flat, tiled}.
    for forged in [2u8, 7, 255] {
        let mut c = bytes.clone();
        c[26] = forged;
        let err = decompress(&c).expect_err("forged layout flag must be rejected");
        assert!(
            matches!(&err, CodecError::InvalidHeader(m) if m.contains("layout")),
            "layout={forged} gave {err:?}"
        );
    }

    // Truncation at each v5 header boundary: the fixed prefix, the
    // depth/lanes bytes, the model byte, the layout flag, and one byte
    // into the payload.
    for cut in [22usize, 23, 24, 25, 26, 27] {
        let err = decompress(&bytes[..cut]).expect_err("truncated v5 header must error");
        assert_structured(&CbicError::from(err), &format!("v5 truncation at {cut}"));
    }
}

// ---------------------------------------------------------------------------
// The retired lane-interleaved container (version 3) and the lane byte that
// versions 4 and 5 keep: readers refuse them with structured errors.
// ---------------------------------------------------------------------------

/// The one committed container of the retired version 3 (four coder lanes).
const RETIRED_V3: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/proposed_lanes4_lena_32.bin"
);

/// The v3 fixture, plus a v4 grid and a flat v5 container whose lane byte
/// is forged to 0, 2 and 33.
fn retired_lane_containers() -> Vec<(String, Vec<u8>)> {
    use cbic::core::{compress, compress_grid, CodecConfig, ModelMode, TileGeometry};
    let img = CorpusImage::Lena.generate(32, 32);
    let grid = compress_grid(
        img.view(),
        &CodecConfig::default(),
        TileGeometry::new(16, 16),
        1,
        cbic::image::Parallelism::Sequential,
    );
    let wide = CodecConfig {
        model: ModelMode::WideHash { banks_log2: 10 },
        ..CodecConfig::default()
    };
    let v3 = std::fs::read(RETIRED_V3).expect("committed v3 fixture");
    assert_eq!(v3[4], 3, "the fixture is a version-3 container");
    let mut out = vec![("v3 fixture".to_string(), v3)];
    for (name, bytes) in [("v4 grid", grid), ("v5 flat", compress(img.view(), &wide))] {
        assert_eq!(bytes[24], 1, "{name}: writers emit lane byte 1");
        for lanes in [0u8, 2, 33] {
            let mut forged = bytes.clone();
            forged[24] = lanes;
            out.push((format!("{name} with lane byte {lanes}"), forged));
        }
    }
    out
}

#[test]
fn retired_lane_containers_fail_structurally_on_every_decode_path() {
    use cbic::core::session::DecoderSession;
    use cbic::core::stream::StreamDecoder;
    use cbic::core::{decode_roi, decompress, decompress_grid};
    use cbic::image::Parallelism;
    let registry = cbic::default_registry();
    let roi = cbic::Rect::new(0, 0, 8, 8);
    let dec = DecodeOptions::default();
    for (name, bytes) in retired_lane_containers() {
        let errors: [(&str, CbicError); 6] = [
            ("decompress", decompress(&bytes).unwrap_err().into()),
            (
                "StreamDecoder::new",
                StreamDecoder::new(&bytes[..]).unwrap_err().into(),
            ),
            (
                "DecoderSession::decode",
                DecoderSession::new().decode(&mut &bytes[..]).unwrap_err(),
            ),
            (
                "decompress_grid",
                decompress_grid(&bytes, Parallelism::Sequential)
                    .unwrap_err()
                    .into(),
            ),
            (
                "decode_roi",
                decode_roi(&bytes, roi, Parallelism::Sequential)
                    .unwrap_err()
                    .into(),
            ),
            (
                "decode_stream",
                registry.decode_stream(&mut &bytes[..], &dec).unwrap_err(),
            ),
        ];
        for (path, err) in errors {
            let refused = if bytes[4] == 3 {
                matches!(err, CbicError::UnsupportedVersion(3))
            } else {
                matches!(&err, CbicError::InvalidContainer(m) if m.contains("lane"))
            };
            assert!(refused, "{path} on {name}: {err:?}");
        }
    }
}

#[test]
fn cli_names_the_retired_version() {
    for args in [
        vec!["info", RETIRED_V3],
        vec!["decompress", RETIRED_V3, "-"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cbic"))
            .args(&args)
            .output()
            .expect("run cbic");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("version 3") && stderr.contains("retired"),
            "{args:?}: {stderr}"
        );
    }
}

/// A small container whose header is forged to claim 16384×16384 pixels
/// (the 2^28-pixel ceiling): its payload runs out within the first row.
fn forged_huge_container() -> Vec<u8> {
    use cbic::core::{compress, CodecConfig};
    let mut bytes = compress(
        CorpusImage::Lena.generate(24, 24).view(),
        &CodecConfig::default(),
    );
    bytes[6..10].copy_from_slice(&16384u32.to_le_bytes());
    bytes[10..14].copy_from_slice(&16384u32.to_le_bytes());
    bytes
}

#[test]
fn streamed_decoder_stops_at_the_first_row_past_the_padding_budget() {
    use cbic::core::stream::StreamDecoder;
    let bytes = forged_huge_container();
    let mut dec = StreamDecoder::new(&bytes[..]).expect("dimensions within the ceiling");
    assert_eq!(dec.dimensions(), (16384, 16384));
    let mut row = vec![0u16; 16384];
    let err = loop {
        if let Err(e) = dec.next_row(&mut row) {
            break e;
        }
        assert!(dec.rows_decoded() < 2, "decoded past row 2 without error");
    };
    assert_eq!(err, CodecError::Truncated);
    assert!(dec.rows_decoded() <= 2, "{} rows", dec.rows_decoded());
}

#[test]
fn cli_reports_a_forged_huge_container_as_truncated() {
    use std::io::Write as _;
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_cbic"))
        .args(["decompress", "-", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run cbic");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(&forged_huge_container())
        .expect("feed the container");
    let out = child.wait_with_output().expect("cbic exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("truncated container"), "{stderr}");
}

#[test]
fn universal_decode_errors_convert_structurally() {
    let codec = UniversalCodec::default();
    let bytes = codec.encode(&[
        Chunk::Data(b"payload".repeat(40)),
        Chunk::Image(Image::from_fn(16, 16, |x, y| (x * y) as u8)),
    ]);
    for cut in [0, 3, 8, 20, bytes.len() - 1] {
        let err = codec.decode(&bytes[..cut]).expect_err("truncated");
        assert_structured(&CbicError::from(err), "universal truncation");
    }
}
