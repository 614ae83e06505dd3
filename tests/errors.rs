//! The error-hierarchy contract: every legacy error converts into
//! [`CbicError`] structurally, every decoder failure on corrupted or
//! truncated input is a structured variant (never a panic, never a bare
//! string), and I/O error kinds survive the conversions.

use cbic::core::CodecError;
use cbic::image::corpus::CorpusImage;
use cbic::image::{ImageError, RegistryError};
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
fn registry_error_conversions_cover_every_variant() {
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

    // A cut mid-payload: the paper's codec, flat and as a grid of four
    // full-width tiles, tracks decoder padding and the tile index, so
    // even a deep truncation surfaces as Truncated with the kind intact —
    // not garbage pixels, not a bare string.
    let codec = cbic::core::Proposed::default();
    for (name, opts) in [("flat", enc), ("grid", enc.with_tile(48, 12))] {
        let bytes = codec.encode_vec(img.view(), &opts).unwrap();
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
    }
}

#[test]
fn v5_model_header_corruption_yields_structured_errors() {
    // Container v5 (the retired wide-hash model) is refused at its version
    // byte, whatever its model byte (offset 25) and layout flag (offset
    // 26) hold, and a v5 header cut at any boundary is a structured error
    // too — never a panic, never a garbage image.
    use cbic::core::decompress;
    let bytes = std::fs::read(RETIRED_V5).expect("committed v5 fixture");
    assert_eq!(bytes[4], 5, "the fixture is a version-5 container");
    for (at, forged) in [
        (25usize, 0u8),
        (25, 3),
        (25, 17),
        (25, 255),
        (26, 1),
        (26, 7),
    ] {
        let mut c = bytes.clone();
        c[at] = forged;
        assert_eq!(
            decompress(&c),
            Err(CodecError::UnsupportedVersion(5)),
            "byte {at} = {forged}"
        );
    }
    for cut in [4usize, 5, 22, 23, 24, 25, 26, 27] {
        let err = decompress(&bytes[..cut]).expect_err("truncated v5 header must error");
        assert_structured(&CbicError::from(err), &format!("v5 truncation at {cut}"));
    }
}

// ---------------------------------------------------------------------------
// Retired formats — the lane-interleaved container (version 3) and the lane
// byte version 4 keeps, the wide-hash model (version 5), the `CBTI` band
// container and the `CBUN` universal container: readers refuse them with
// structured errors.
// ---------------------------------------------------------------------------

/// The one committed container of the retired version 3 (four coder lanes).
const RETIRED_V3: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/proposed_lanes4_lena_32.bin"
);

/// The one committed container of the retired version 5 (the wide-hash
/// context model at 2^10 banks).
const RETIRED_V5: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/proposed_wide_lena_32.bin"
);

/// The one committed container of the retired `CBTI` band format.
const RETIRED_CBTI: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/tiled_lena_32.bin"
);

/// The one committed container of the retired `CBUN` universal format
/// (a byte chunk and an image chunk).
const RETIRED_CBUN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/universal_mixed.bin"
);

/// The v3 fixture, plus a v4 grid whose lane byte is forged to 0, 2
/// and 33.
fn retired_lane_containers() -> Vec<(String, Vec<u8>)> {
    use cbic::core::{compress_grid, CodecConfig, TileGeometry};
    let img = CorpusImage::Lena.generate(32, 32);
    let grid = compress_grid(
        img.view(),
        &CodecConfig::default(),
        TileGeometry::new(16, 16),
        1,
        cbic::image::Parallelism::Sequential,
    );
    let v3 = std::fs::read(RETIRED_V3).expect("committed v3 fixture");
    assert_eq!(v3[4], 3, "the fixture is a version-3 container");
    let mut out = vec![("v3 fixture".to_string(), v3)];
    assert_eq!(grid[24], 1, "writers emit lane byte 1");
    for lanes in [0u8, 2, 33] {
        let mut forged = grid.clone();
        forged[24] = lanes;
        out.push((format!("v4 grid with lane byte {lanes}"), forged));
    }
    out
}

/// The error of each `CBIC` decode path on `bytes`: the flat, streamed,
/// session, grid and ROI decoders, and the registry's stream dispatch.
fn every_decode_path_error(bytes: &[u8]) -> [(&'static str, CbicError); 6] {
    use cbic::core::session::DecoderSession;
    use cbic::core::stream::StreamDecoder;
    use cbic::core::{decode_roi, decompress, decompress_grid};
    use cbic::image::Parallelism;
    let roi = cbic::Rect::new(0, 0, 8, 8);
    [
        ("decompress", decompress(bytes).unwrap_err().into()),
        (
            "StreamDecoder::new",
            StreamDecoder::new(bytes).unwrap_err().into(),
        ),
        (
            "DecoderSession::decode",
            DecoderSession::new().decode(&mut &bytes[..]).unwrap_err(),
        ),
        (
            "decompress_grid",
            decompress_grid(bytes, Parallelism::Sequential)
                .unwrap_err()
                .into(),
        ),
        (
            "decode_roi",
            decode_roi(bytes, roi, Parallelism::Sequential)
                .unwrap_err()
                .into(),
        ),
        (
            "decode_stream",
            cbic::default_registry()
                .decode_stream(&mut &bytes[..], &DecodeOptions::default())
                .unwrap_err(),
        ),
    ]
}

#[test]
fn retired_lane_containers_fail_structurally_on_every_decode_path() {
    for (name, bytes) in retired_lane_containers() {
        let errors = every_decode_path_error(&bytes);
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
fn bytes_after_a_grid_payload_fail_on_every_decode_path() {
    // Every grid leg reads the index the same way, so one byte more than
    // the index accounts for is refused everywhere, not only by the
    // slice decoders.
    use cbic::core::{compress_grid, CodecConfig, TileGeometry};
    let img = CorpusImage::Lena.generate(32, 32);
    let mut grid = compress_grid(
        img.view(),
        &CodecConfig::default(),
        TileGeometry::new(16, 16),
        1,
        cbic::image::Parallelism::Sequential,
    );
    grid.push(0);
    for (path, err) in every_decode_path_error(&grid) {
        let refused = match path {
            // The row-streaming decoder refuses every grid.
            "StreamDecoder::new" => matches!(err, CbicError::InvalidContainer(_)),
            _ => {
                matches!(&err, CbicError::InvalidContainer(m) if m.contains("tile index accounts"))
            }
        };
        assert!(refused, "{path}: {err:?}");
    }
}

#[test]
fn retired_wide_and_band_containers_fail_structurally() {
    // Version 5: every CBIC decode path answers UnsupportedVersion(5).
    let v5 = std::fs::read(RETIRED_V5).expect("committed v5 fixture");
    for (path, err) in every_decode_path_error(&v5) {
        assert!(
            matches!(err, CbicError::UnsupportedVersion(5)),
            "{path}: {err:?}"
        );
    }
    assert!(matches!(
        cbic::core::decode_roi(
            &v5,
            cbic::Rect::new(0, 0, 8, 8),
            cbic::Parallelism::Sequential
        ),
        Err(CodecError::UnsupportedVersion(5))
    ));
    // CBTI and CBUN: no registered codec claims the band or the
    // universal container's magic.
    let registry = cbic::default_registry();
    let dec = DecodeOptions::default();
    for (fixture, magic) in [(RETIRED_CBTI, b"CBTI"), (RETIRED_CBUN, b"CBUN")] {
        let bytes = std::fs::read(fixture).expect("committed fixture");
        let errors = [
            registry.decode_stream(&mut &bytes[..], &dec).unwrap_err(),
            registry.decode_auto(&bytes, &dec).unwrap_err(),
        ];
        for err in errors {
            assert!(
                matches!(err, CbicError::BadMagic { found: Some(m) } if &m == magic),
                "{err:?}"
            );
        }
    }
}

#[test]
fn cli_names_the_retired_version() {
    for (fixture, names) in [
        (RETIRED_V3, ["version 3", "retired"]),
        (RETIRED_V5, ["version 5", "wide-hash"]),
        (RETIRED_CBTI, ["CBTI", "band container"]),
        (RETIRED_CBUN, ["CBUN", "universal"]),
    ] {
        for args in [vec!["info", fixture], vec!["decompress", fixture, "-"]] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_cbic"))
                .args(&args)
                .output()
                .expect("run cbic");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(
                names.iter().all(|n| stderr.contains(n)) && stderr.contains("retired"),
                "{args:?}: {stderr}"
            );
        }
    }
}

#[test]
fn cli_tile_names_the_flag_it_cannot_be_combined_with() {
    let dir = std::env::temp_dir().join(format!("cbic-tile-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (pgm, refused) = (dir.join("in.pgm"), dir.join("refused.cbic"));
    cbic::image::pgm::write_file(&pgm, &CorpusImage::Lena.generate(32, 32)).expect("write input");
    let p = std::path::Path::new;
    for (flags, says) in [
        (
            ["--near", "3"],
            "--near (jpegls) cannot be combined with --tile",
        ),
        (
            ["--codec", "calic"],
            "--tile applies to the proposed codec, not calic",
        ),
    ] {
        let mut args = vec![p("compress")];
        args.extend(flags.map(p));
        args.extend([p("--tile"), p("8x8"), &pgm, &refused]);
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cbic"))
            .args(&args)
            .output()
            .expect("run cbic");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(says), "{args:?}: {stderr}");
        assert!(!refused.exists(), "{args:?} wrote output");
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn cli_info_prints_the_version_byte_and_the_substream_payload() {
    use cbic::core::{compress, compress_grid, CodecConfig, TileGeometry};
    let dir = std::env::temp_dir().join(format!("cbic-info-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let cfg = CodecConfig::default();
    let lena = CorpusImage::Lena.generate(32, 32);
    let deep = cbic::image::Image::from_fn16(32, 32, 12, |x, y| ((x * 97 + y * 31) % 4096) as u16);
    let one_tile = TileGeometry::new(32, 32);
    for (name, bytes) in [
        ("flat.cbic", compress(lena.view(), &cfg)),
        (
            "grid1x1.cbic",
            compress_grid(
                lena.view(),
                &cfg,
                one_tile,
                1,
                cbic::Parallelism::Sequential,
            ),
        ),
        ("deep.cbic", compress(deep.view(), &cfg)),
    ] {
        std::fs::write(dir.join(name), bytes).expect("write container");
    }
    let info = |path: std::path::PathBuf| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cbic"))
            .arg("info")
            .arg(&path)
            .output()
            .expect("run cbic");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{}: {stderr}", path.display());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let payload = |stdout: &str| {
        let line = stdout.lines().find(|l| l.starts_with("payload: "));
        line.unwrap_or_else(|| panic!("no payload line: {stdout}"))
            .to_owned()
    };
    // The version line echoes the container's version byte.
    for (path, version) in [
        (golden.join("proposed_lena_32.bin"), "version: 1,"),
        (dir.join("deep.cbic"), "version: 2,"),
        (golden.join("proposed_grid2x2_lena_32.bin"), "version: 4,"),
    ] {
        let stdout = info(path);
        assert!(stdout.contains(version), "{version}: {stdout}");
    }
    // A grid's payload is its tile substreams, index excluded: one tile
    // covering the image reports the flat container's payload, and a 2x2
    // grid reports what its `grid:` line counts.
    let flat = info(dir.join("flat.cbic"));
    assert_eq!(payload(&flat), payload(&info(dir.join("grid1x1.cbic"))));
    let grid = info(golden.join("proposed_grid2x2_lena_32.bin"));
    let line = payload(&grid);
    let bytes = line.split(' ').nth(1).expect("a byte count");
    assert!(
        grid.contains(&format!("substreams {bytes} bytes")),
        "{grid}"
    );
    let calic = info(golden.join("calic_lena_32.bin"));
    assert!(calic.starts_with("container: calic,"), "{calic}");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn cli_threads_without_tile_writes_a_grid_of_full_width_tiles() {
    let dir = std::env::temp_dir().join(format!("cbic-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (pgm, container, back) = (
        dir.join("in.pgm"),
        dir.join("out.cbic"),
        dir.join("back.pgm"),
    );
    let img = CorpusImage::Barb.generate(40, 30);
    cbic::image::pgm::write_file(&pgm, &img).expect("write input");
    let run = |args: &[&std::path::Path]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cbic"))
            .args(args)
            .output()
            .expect("run cbic");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let p = std::path::Path::new;
    run(&[p("compress"), p("--threads"), p("2"), &pgm, &container]);
    let bytes = std::fs::read(&container).expect("container written");
    assert_eq!(bytes[4], 4, "version byte");
    let (hdr, index, _) = cbic::core::grid::parse_grid(&bytes).expect("a v4 grid");
    assert_eq!((index.cols, index.rows), (1, 2));
    assert_eq!(index.geometry.tile_size(), (40, 15));
    assert_eq!((hdr.width, hdr.height), (40, 30));
    run(&[p("decompress"), &container, &back]);
    assert_eq!(
        cbic::image::pgm::read_file(&back).expect("read output"),
        img
    );
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn cli_threads_defaults_to_one_worker_and_refuses_zero() {
    let dir = std::env::temp_dir().join(format!("cbic-threads-one-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (pgm, container, back) = (
        dir.join("in.pgm"),
        dir.join("out.cbic"),
        dir.join("back.pgm"),
    );
    cbic::image::pgm::write_file(&pgm, &CorpusImage::Barb.generate(32, 32)).expect("write input");
    let run = |args: &[&std::path::Path]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_cbic"))
            .args(args)
            .output()
            .expect("run cbic")
    };
    let p = std::path::Path::new;
    // Without --threads the grid is coded by one worker, and says so.
    for (args, says) in [
        (
            vec![p("compress"), p("--tile"), p("16x16"), &pgm, &container],
            "1 thread, coder",
        ),
        (vec![p("decompress"), &container, &back], "1 thread)"),
    ] {
        let out = run(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        assert!(stderr.contains(says), "{args:?}: {stderr}");
    }
    // --threads 0 is a usage error on every command that takes it, and
    // no output is written.
    let refused = dir.join("refused.out");
    for args in [
        vec![p("compress"), p("--threads"), p("0"), &pgm, &refused],
        vec![
            p("decompress"),
            p("--threads"),
            p("0"),
            &container,
            &refused,
        ],
        vec![
            p("crop"),
            p("--rect"),
            p("0,0,4,4"),
            p("--threads"),
            p("0"),
            &container,
            &refused,
        ],
    ] {
        let out = run(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("--threads must be at least 1"),
            "{args:?}: {stderr}"
        );
        assert!(!refused.exists(), "{args:?} wrote output");
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn cli_compress_says_where_the_coder_ran() {
    let dir = std::env::temp_dir().join(format!("cbic-coder-placement-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (pgm, container) = (dir.join("in.pgm"), dir.join("out.cbic"));
    cbic::image::pgm::write_file(&pgm, &CorpusImage::Barb.generate(40, 30)).expect("write input");
    // The status line reports where the library ran the coder; the
    // documented placement is a thread of its own iff one worker codes
    // and more than one CPU is available.
    let several_cpus = std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
    let p = std::path::Path::new;
    for (flags, one_worker) in [
        (vec![], true),
        (vec!["--tile", "16x16"], true),
        (vec!["--tile", "16x16", "--threads", "2"], false),
        (vec!["--tile", "64x64", "--threads", "2"], true),
    ] {
        let mut args = vec![p("compress")];
        args.extend(flags.into_iter().map(p));
        args.extend([pgm.as_path(), container.as_path()]);
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cbic"))
            .args(&args)
            .output()
            .expect("run cbic");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        let placement = match one_worker && several_cpus {
            true => "coder on its own thread)",
            false => "coder inline)",
        };
        assert!(stderr.contains(placement), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn cli_bench_prints_each_codecs_bit_rate_and_no_timings() {
    let dir = std::env::temp_dir().join(format!("cbic-bench-rows-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let pgm = dir.join("in.pgm");
    let img = CorpusImage::Barb.generate(40, 30);
    cbic::image::pgm::write_file(&pgm, &img).expect("write input");
    let bench = |args: &[&std::ffi::OsStr]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_cbic"))
            .arg("bench")
            .args(args)
            .output()
            .expect("run cbic")
    };
    let out = bench(&[pgm.as_os_str()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // A codec row is `NAME BPP RATIO`; the decision-profile line is longer.
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .filter(|row| row.len() == 3 && row[1].parse::<f64>().is_ok())
        .collect();
    let codecs = cbic::all_codecs();
    assert_eq!(rows.len(), codecs.len(), "{stdout}");
    for (row, codec) in rows.iter().zip(&codecs) {
        let bpp = codec
            .payload_bits_per_pixel(img.view(), &EncodeOptions::default())
            .expect("corpus image encodes");
        assert_eq!(row[..2], [codec.name(), &format!("{bpp:.3}")], "{stdout}");
    }
    assert!(stdout.contains("decisions/px budget"), "{stdout}");
    assert!(!stdout.contains("MP/s"), "{stdout}");
    // The retired `--iters` is refused, not taken as the input path.
    let out = bench(&["--iters".as_ref(), "5".as_ref(), pgm.as_os_str()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("bench needs IN.pgm"), "{stderr}");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

/// `cbic compress` of `pgm` bytes fed on stdin into `output`: the exit
/// code and stderr.
fn cli_compress(pgm: &[u8], output: &str) -> (Option<i32>, String) {
    use std::io::Write as _;
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_cbic"))
        .args(["compress", "-", output])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run cbic");
    // cbic may stop reading early; a refused write is not the test's error.
    let _ = child.stdin.take().expect("piped stdin").write_all(pgm);
    let out = child.wait_with_output().expect("cbic exits");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_compress_names_the_pgm_row_it_could_not_read() {
    let pgm = cbic::image::pgm::encode(&CorpusImage::Lena.generate(64, 64));
    let header = pgm.len() - 64 * 64;
    let (code, stderr) = cli_compress(&pgm[..header + 10 * 64 + 30], "-");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("reading pixel row 10"), "{stderr}");
}

#[test]
fn cli_compress_into_a_full_device_fails_with_the_os_error() {
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    // The small container fails at the final flush, the large one while
    // rows are still being coded.
    for side in [32, 512] {
        let pgm = cbic::image::pgm::encode(&CorpusImage::Mandrill.generate(side, side));
        let (code, stderr) = cli_compress(&pgm, "/dev/full");
        assert_eq!(code, Some(1), "{side}: {stderr}");
        assert!(stderr.contains("os error"), "{side}: {stderr}");
    }
}

/// A small container whose header is forged to claim `side`×`side`
/// pixels (16384 is the 2^28-pixel ceiling): its payload runs out within
/// the first row.
fn forged_container(side: u32) -> Vec<u8> {
    use cbic::core::{compress, CodecConfig};
    let mut bytes = compress(
        CorpusImage::Lena.generate(24, 24).view(),
        &CodecConfig::default(),
    );
    bytes[6..10].copy_from_slice(&side.to_le_bytes());
    bytes[10..14].copy_from_slice(&side.to_le_bytes());
    bytes
}

#[test]
fn streamed_decoder_stops_at_the_first_row_past_the_padding_budget() {
    use cbic::core::stream::StreamDecoder;
    let bytes = forged_container(16384);
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
fn buffered_decoders_report_a_forged_container_as_truncated() {
    // The buffered paths stop at the first row past the padding budget
    // (their row counts are pinned by cbic-core's own tests); here each
    // public entry point must answer Truncated. 4096x4096 keeps the
    // up-front image allocations small.
    use cbic::core::session::DecoderSession;
    use cbic::core::{decode_roi, decompress};
    let bytes = forged_container(4096);
    let roi = cbic::Rect::new(0, 0, 8, 8);
    let errors: [(&str, CbicError); 4] = [
        ("decompress", decompress(&bytes).unwrap_err().into()),
        (
            "DecoderSession::decode",
            DecoderSession::new().decode(&mut &bytes[..]).unwrap_err(),
        ),
        (
            "decode_roi",
            decode_roi(&bytes, roi, cbic::Parallelism::Sequential)
                .unwrap_err()
                .into(),
        ),
        (
            "decode_stream",
            cbic::default_registry()
                .decode_stream(&mut &bytes[..], &DecodeOptions::default())
                .unwrap_err(),
        ),
    ];
    for (path, err) in errors {
        assert!(matches!(err, CbicError::Truncated), "{path}: {err:?}");
    }
}

#[test]
fn cli_reports_a_forged_huge_container_as_truncated() {
    use std::io::Write as _;
    use std::process::{Command, Stdio};
    // The streamed decompress and the buffered decode-then-crop.
    for args in [
        vec!["decompress", "-", "-"],
        vec!["crop", "--rect", "0,0,8,8", "-", "-"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cbic"))
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("run cbic");
        child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(&forged_container(16384))
            .expect("feed the container");
        let out = child.wait_with_output().expect("cbic exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("truncated container"), "{args:?}: {stderr}");
    }
}
