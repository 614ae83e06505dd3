//! Tele-medicine archive scenario — the paper's second motivating
//! application ("lossless image compression is increasingly significant
//! since it is required by many upcoming applications, such as
//! Tele-medicine").
//!
//! A radiology archive must store scans *bit-exactly* (lossy artifacts are
//! diagnostically unacceptable and often legally prohibited), yet fit as
//! many studies as possible on its storage tier. This example:
//!
//! 1. synthesizes a small study of CT-slice-like images,
//! 2. archives them with all four Table 1 codecs,
//! 3. verifies every slice decodes bit-exactly (a checksum audit, as an
//!    archive integrity pass would do),
//! 4. reports the capacity gained over raw storage.
//!
//! Run with: `cargo run --release --example medical_archive`

use cbic::core::CodecConfig;
use cbic::image::{synth, Image};

/// Synthesizes a CT-slice-like image: an elliptical body outline, organ
/// blobs, fine parenchymal texture, and scanner noise, on a black air
/// background.
fn ct_slice(size: usize, z: u64) -> Image {
    let s = size as f64;
    Image::from_fn(size, size, |xi, yi| {
        let (x, y) = (xi as f64 / s - 0.5, yi as f64 / s - 0.5);
        let r = (x * x * 1.6 + y * y * 2.4).sqrt();
        if r > 0.46 {
            // Air: near-black with faint detector noise.
            return synth::quantize(4.0 + 1.2 * synth::gauss(z, xi as i64, yi as i64));
        }
        let body = 95.0 + 25.0 * synth::fbm(z, xi as f64, yi as f64, 40.0, 3, 0.5);
        // Organ blobs vary slowly across slices (z enters the seed).
        let organ = 45.0 * synth::soft_disk(x, y, -0.10, 0.02 + z as f64 * 0.004, 0.16, 0.05)
            + 30.0 * synth::soft_disk(x, y, 0.14, -0.05, 0.12, 0.04);
        // Bone: bright rim.
        let rim = if r > 0.40 {
            90.0 * ((r - 0.40) / 0.06)
        } else {
            0.0
        };
        let texture = 7.0 * synth::fbm(z + 13, xi as f64, yi as f64, 5.0, 2, 0.6);
        let noise = 2.0 * synth::gauss(z ^ 0xC7, xi as i64, yi as i64);
        synth::quantize(body + organ + rim + texture + noise)
    })
}

/// FNV-1a over pixel data — the archive's integrity checksum.
fn checksum(img: &Image) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &p in img.samples() {
        h ^= u64::from(p);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn main() {
    const SLICES: usize = 8;
    const SIZE: usize = 384;

    let study: Vec<Image> = (0..SLICES).map(|z| ct_slice(SIZE, z as u64)).collect();
    let raw_bytes = SLICES * SIZE * SIZE;
    println!(
        "study: {SLICES} slices of {SIZE}x{SIZE} = {} KB raw",
        raw_bytes / 1024
    );

    // Archive with each codec and audit bit-exactness via checksums.
    let mut results: Vec<(&str, usize)> = Vec::new();

    let mut proposed_total = 0usize;
    for img in &study {
        let bytes = cbic::core::compress(img.view(), &CodecConfig::default());
        let restored = cbic::core::decompress(&bytes).expect("valid container");
        assert_eq!(checksum(&restored), checksum(img), "audit failure");
        proposed_total += bytes.len();
    }
    results.push(("proposed (SOCC 2007)", proposed_total));

    let mut calic_total = 0usize;
    for img in &study {
        let bytes = cbic::calic::compress(img.view());
        assert_eq!(
            checksum(&cbic::calic::decompress(&bytes).expect("valid")),
            checksum(img)
        );
        calic_total += bytes.len();
    }
    results.push(("CALIC", calic_total));

    let mut jpegls_total = 0usize;
    for img in &study {
        let bytes = cbic::jpegls::compress(img.view());
        assert_eq!(
            checksum(&cbic::jpegls::decompress(&bytes).expect("valid")),
            checksum(img)
        );
        jpegls_total += bytes.len();
    }
    results.push(("JPEG-LS", jpegls_total));

    let mut slp_total = 0usize;
    for img in &study {
        let bytes = cbic::slp::compress(img.view());
        assert_eq!(
            checksum(&cbic::slp::decompress(&bytes).expect("valid")),
            checksum(img)
        );
        slp_total += bytes.len();
    }
    results.push(("SLP(M0)", slp_total));

    println!(
        "\nall {} slices audited bit-exact under every codec\n",
        SLICES
    );
    println!(
        "{:<22} {:>10} {:>8} {:>14}",
        "codec", "archive", "ratio", "studies/TB"
    );
    for (name, total) in &results {
        println!(
            "{name:<22} {:>7} KB {:>8.2} {:>14.0}",
            total / 1024,
            raw_bytes as f64 / *total as f64,
            1e12 / *total as f64
        );
    }
    let (best, best_total) = results.iter().min_by_key(|(_, t)| *t).expect("nonempty");
    println!(
        "\nbest: {best} stores {:.1}x more studies than raw storage",
        raw_bytes as f64 / *best_total as f64
    );
}
