//! Engine-parity differential suite: every coding path in the workspace
//! drives the one `cbic_core::engine` datapath, so every encoder must
//! produce byte-identical streams and every decoder must reconstruct
//! identically — across bit depths 1..=16, strided views, and the
//! `CodecConfig` sweep (texture/count bits, division kinds, feedback and
//! aging toggles).
//!
//! These proptests tie the row-streaming `StreamEncoder`/`StreamDecoder`
//! (the flat path of `cbic compress`/`decompress`) to every buffered path:
//! any divergence between `encode_raw`, the bounded-memory stream coders,
//! and the reusable session path is a failure here before it is a
//! corrupted stream in the wild.

use cbic::core::session::{DecoderSession, EncoderSession};
use cbic::core::stream::StreamEncoder;
use cbic::core::{compress, decode_raw, decompress, encode_raw, CodecConfig, DivisionKind};
use cbic::image::Image;
use cbic_arith::EstimatorConfig;
use proptest::prelude::*;

/// Arbitrary images at arbitrary 1..=16-bit depths, samples masked to the
/// depth.
fn arb_any_depth_image() -> impl Strategy<Value = Image> {
    (1usize..24, 1usize..24, 1u8..=16).prop_flat_map(|(w, h, depth)| {
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

/// The full configuration sweep the container can carry.
fn arb_config() -> impl Strategy<Value = CodecConfig> {
    (
        10u8..=16,
        1u16..=64,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0u8..=6,
    )
        .prop_map(
            |(count_bits, increment, feedback, aging, exact, texture_bits)| CodecConfig {
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
            },
        )
}

/// Encode `img` through all three entry points, asserting the raw payload
/// (and container where applicable) is byte-identical everywhere, then
/// decode through the three dual paths and assert pixel-exact recovery.
fn assert_all_paths_agree(img: &Image, cfg: &CodecConfig) {
    // 1. The algorithmic reference.
    let (raw, stats) = encode_raw(img.view(), cfg);
    assert_eq!(stats.pixels as usize, img.pixel_count());

    // 2. The bounded-memory streaming encoder (emits the container).
    let container = compress(img.view(), cfg);
    let (w, h) = img.dimensions();
    let mut enc = StreamEncoder::with_depth(Vec::new(), w, h, img.bit_depth(), cfg).unwrap();
    for row in img.view().rows() {
        enc.push_row(row).expect("Vec sink");
    }
    let streamed = enc.finish().expect("Vec sink");
    assert_eq!(streamed, container, "StreamEncoder diverged from compress");
    assert_eq!(
        &container[container.len() - raw.len()..],
        &raw[..],
        "container payload diverged from encode_raw"
    );

    // 3. The reusable session (fresh here; reuse is exercised separately).
    let mut session = EncoderSession::new(cfg);
    let mut session_bytes = Vec::new();
    session
        .encode(img.view(), &mut session_bytes)
        .expect("Vec sink");
    assert_eq!(
        session_bytes, container,
        "EncoderSession diverged from compress"
    );

    // Decode side: all three duals must reconstruct the image exactly —
    // the row-streaming `decompress`, the raw buffered decoder, and the
    // session.
    assert_eq!(&decompress(&container).expect("own container"), img);
    assert_eq!(&decode_raw(&raw, w, h, img.bit_depth(), cfg), img);
    let mut dec_session = DecoderSession::new();
    assert_eq!(
        &dec_session.decode(&mut &container[..]).expect("session"),
        img
    );
}

proptest! {
    /// All three encode paths and all three decode paths agree on
    /// arbitrary content at arbitrary depth under the default
    /// configuration.
    #[test]
    fn all_paths_agree_across_depths(img in arb_any_depth_image()) {
        assert_all_paths_agree(&img, &CodecConfig::default());
    }

    /// The same equivalence under the full configuration sweep.
    #[test]
    fn all_paths_agree_across_configs(img in arb_any_depth_image(), cfg in arb_config()) {
        assert_all_paths_agree(&img, &cfg);
    }

    /// Strided band/crop views feed the engine identically to their
    /// contiguous copies at every depth — the stride can never leak into
    /// the bits.
    #[test]
    fn strided_views_encode_identically_at_any_depth(
        img in arb_any_depth_image(),
        frac in 0u8..4,
    ) {
        let (w, h) = img.dimensions();
        let x0 = (usize::from(frac) * w / 5).min(w - 1);
        let y0 = (usize::from(frac) * h / 5).min(h - 1);
        let window = img.view().crop(x0, y0, w - x0, h - y0);
        let cfg = CodecConfig::default();
        let (from_view, _) = encode_raw(window, &cfg);
        let (from_copy, _) = encode_raw(window.to_image().view(), &cfg);
        prop_assert_eq!(from_view, from_copy);
    }

    /// A session reused across a random mixed-depth batch stays
    /// byte-identical to per-image fresh state, and the decoder session
    /// tracks it.
    #[test]
    fn session_reuse_is_byte_identical_across_random_batches(
        imgs in proptest::collection::vec(arb_any_depth_image(), 1..5),
        cfg in arb_config(),
    ) {
        let mut enc = EncoderSession::new(&cfg);
        let mut dec = DecoderSession::new();
        for img in &imgs {
            let mut out = Vec::new();
            enc.encode(img.view(), &mut out).expect("Vec sink");
            prop_assert_eq!(&out, &compress(img.view(), &cfg));
            prop_assert_eq!(&dec.decode(&mut &out[..]).expect("own container"), img);
        }
    }
}

#[test]
fn all_paths_agree_on_edge_shapes() {
    let cfg = CodecConfig::default();
    for depth in [1u8, 8, 16] {
        let max = if depth == 16 {
            u32::from(u16::MAX)
        } else {
            (1u32 << depth) - 1
        };
        for (w, h) in [(1, 1), (1, 9), (9, 1), (2, 2), (31, 3), (3, 31)] {
            let img = Image::from_fn16(w, h, depth, |x, y| {
                ((x as u32 * 97 + y as u32 * 31) % (max + 1)) as u16
            });
            assert_all_paths_agree(&img, &cfg);
        }
    }
}

#[test]
fn tiled_band_workers_run_the_same_engine() {
    // Each tile of a v4 grid is a standard stream: its substream must
    // equal encode_raw on the tile's crop — i.e. the tile workers drive
    // the same engine as every other path. Full-width tiles (the
    // partition `cbic compress --threads 3` writes) and a 2D grid.
    use cbic::core::grid::{compress_grid, parse_grid, TileGeometry};
    use cbic::image::Parallelism;
    let cfg = CodecConfig::default();
    let img = Image::from_fn16(40, 33, 12, |x, y| ((x * 101 + y * 13) % 4096) as u16);
    for geom in [TileGeometry::new(40, 11), TileGeometry::new(16, 12)] {
        let container = compress_grid(img.view(), &cfg, geom, 1, Parallelism::Threads(2));
        let (_, index, payload) = parse_grid(&container).expect("own grid parses");
        for (i, entry) in index.entries.iter().enumerate() {
            let (x, y, w, h) = index.tile_rect(i % index.cols, i / index.cols);
            let start = entry.offset as usize;
            let sub = &payload[start..start + entry.len as usize];
            let (raw, _) = encode_raw(img.view().crop(x, y, w, h), &cfg);
            assert_eq!(sub, &raw[..], "tile {i} diverged from the engine reference");
        }
    }
}
