//! The LOCO-I / JPEG-LS coding flow (ITU-T T.87 Annexes A.2–A.7).
//!
//! Encoder and decoder share every model rule (context quantization, MED
//! prediction, bias correction, run-length state machine); they differ only
//! in the direction of the Golomb-coded residual. Both sides operate on
//! *reconstructed* samples, which makes the near-lossless mode (`NEAR > 0`)
//! work with the identical code path — for `NEAR = 0` the reconstruction
//! equals the source and the codec is lossless.

use crate::params::{JpeglsConfig, J, MAX_C, MIN_C};
use cbic_bitio::{BitReader, BitSink, BitSource, BitWriter};
use cbic_image::{Image, ImageView};
use cbic_rice::{decode_limited, encode_limited};

/// Number of regular (gradient) contexts after sign folding.
const REGULAR_CONTEXTS: usize = 364;
/// Run-interruption contexts: `RItype` 0 and 1.
const RI0: usize = REGULAR_CONTEXTS;
const CONTEXTS: usize = REGULAR_CONTEXTS + 2;

/// Statistics accumulated while encoding one image.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncodeStats {
    /// Pixels coded.
    pub pixels: u64,
    /// Payload bits produced.
    pub payload_bits: u64,
    /// Pixels absorbed by run mode.
    pub run_pixels: u64,
    /// Run segments terminated by an interruption sample.
    pub run_interruptions: u64,
}

impl EncodeStats {
    /// Compressed bit rate in bits per pixel.
    pub fn bits_per_pixel(&self) -> f64 {
        if self.pixels == 0 {
            0.0
        } else {
            self.payload_bits as f64 / self.pixels as f64
        }
    }
}

/// The adaptive state shared by encoder and decoder.
struct State {
    cfg: JpeglsConfig,
    maxval: i32,
    range: i32,
    qbpp: u32,
    limit: u32,
    near: i32,
    a: [u32; CONTEXTS],
    b: [i32; CONTEXTS],
    c: [i32; CONTEXTS],
    n: [u32; CONTEXTS],
    /// Negative-error counters of the two run-interruption contexts.
    nn: [u32; 2],
    run_index: usize,
}

impl State {
    fn new(cfg: &JpeglsConfig) -> Self {
        let a_init = cfg.a_init();
        Self {
            cfg: *cfg,
            maxval: cfg.maxval(),
            range: cfg.range(),
            qbpp: cfg.qbpp(),
            limit: cfg.limit(),
            near: i32::from(cfg.near),
            a: [a_init; CONTEXTS],
            b: [0; CONTEXTS],
            c: [0; CONTEXTS],
            n: [1; CONTEXTS],
            nn: [0; 2],
            run_index: 0,
        }
    }

    /// Gradient quantizer (A.3.3) with the NEAR dead zone.
    fn quantize_gradient(&self, g: i32) -> i32 {
        let c = &self.cfg;
        if g <= -c.t3 {
            -4
        } else if g <= -c.t2 {
            -3
        } else if g <= -c.t1 {
            -2
        } else if g < -self.near {
            -1
        } else if g <= self.near {
            0
        } else if g < c.t1 {
            1
        } else if g < c.t2 {
            2
        } else if g < c.t3 {
            3
        } else {
            4
        }
    }

    /// Dense context index + sign from the quantized gradient triple.
    /// `(0,0,0)` is run mode and never reaches here.
    fn context(&self, mut q1: i32, mut q2: i32, mut q3: i32) -> (usize, i32) {
        debug_assert!(!(q1 == 0 && q2 == 0 && q3 == 0));
        let sign = if q1 < 0 || (q1 == 0 && (q2 < 0 || (q2 == 0 && q3 < 0))) {
            q1 = -q1;
            q2 = -q2;
            q3 = -q3;
            -1
        } else {
            1
        };
        let idx = if q1 == 0 && q2 == 0 {
            (q3 - 1) as usize // 0..=3
        } else if q1 == 0 {
            4 + ((q2 - 1) * 9 + (q3 + 4)) as usize // 4..=39
        } else {
            40 + ((q1 - 1) * 81 + (q2 + 4) * 9 + (q3 + 4)) as usize // 40..=363
        };
        debug_assert!(idx < REGULAR_CONTEXTS);
        (idx, sign)
    }

    /// MED (median edge detector) prediction (A.4.2).
    fn med(a: i32, b: i32, c: i32) -> i32 {
        if c >= a.max(b) {
            a.min(b)
        } else if c <= a.min(b) {
            a.max(b)
        } else {
            a + b - c
        }
    }

    /// Golomb parameter for a regular context (A.5.1).
    fn golomb_k(&self, q: usize) -> u32 {
        let mut k = 0;
        while (self.n[q] << k) < self.a[q] && k < 24 {
            k += 1;
        }
        k
    }

    /// NEAR quantization of a raw error (A.4.4).
    fn quantize_error(&self, e: i32) -> i32 {
        if self.near == 0 {
            e
        } else if e > 0 {
            (self.near + e) / (2 * self.near + 1)
        } else {
            -((self.near - e) / (2 * self.near + 1))
        }
    }

    /// Modulo-RANGE reduction of a quantized error (A.4.5).
    fn mod_range(&self, mut e: i32) -> i32 {
        if e < 0 {
            e += self.range;
        }
        if e >= (self.range + 1) / 2 {
            e -= self.range;
        }
        e
    }

    /// Reconstruction shared by both sides (A.4.4 / F.2): prediction plus
    /// de-quantized error, fixed back into the sample range.
    fn reconstruct(&self, px: i32, sign: i32, errval: i32) -> i32 {
        let mut rx = px + sign * errval * (2 * self.near + 1);
        if rx < -self.near {
            rx += self.range * (2 * self.near + 1);
        } else if rx > self.maxval + self.near {
            rx -= self.range * (2 * self.near + 1);
        }
        rx.clamp(0, self.maxval)
    }

    /// A/B/N update + bias computation of a regular context (A.6).
    fn update_regular(&mut self, q: usize, errval: i32) {
        self.b[q] += errval * (2 * self.near + 1);
        self.a[q] += errval.unsigned_abs();
        if self.n[q] == self.cfg.reset {
            self.a[q] >>= 1;
            self.b[q] = if self.b[q] >= 0 {
                self.b[q] >> 1
            } else {
                -((1 - self.b[q]) >> 1)
            };
            self.n[q] >>= 1;
        }
        self.n[q] += 1;
        let n = self.n[q] as i32;
        if self.b[q] <= -n {
            self.b[q] += n;
            if self.c[q] > MIN_C {
                self.c[q] -= 1;
            }
            if self.b[q] <= -n {
                self.b[q] = -n + 1;
            }
        } else if self.b[q] > 0 {
            self.b[q] -= n;
            if self.c[q] < MAX_C {
                self.c[q] += 1;
            }
            if self.b[q] > 0 {
                self.b[q] = 0;
            }
        }
    }

    /// Golomb parameter of a run-interruption context (A.7.2.1).
    fn interruption_k(&self, ritype: usize) -> u32 {
        let q = RI0 + ritype;
        let temp = if ritype == 1 {
            self.a[q] + (self.n[q] >> 1)
        } else {
            self.a[q]
        };
        let mut k = 0;
        while (self.n[q] << k) < temp && k < 24 {
            k += 1;
        }
        k
    }

    /// The sign/`map` predicate of A.7.2.2 (`true` when a *positive* error
    /// takes `map = 1`); its negation governs negative errors.
    fn interruption_cond_pos(&self, ritype: usize, k: u32) -> bool {
        k == 0 && 2 * self.nn[ritype] < self.n[RI0 + ritype]
    }

    /// Statistics update of a run-interruption context (A.7.2.2).
    fn update_interruption(&mut self, ritype: usize, errval: i32, emerr: u32) {
        let q = RI0 + ritype;
        if errval < 0 {
            self.nn[ritype] += 1;
        }
        self.a[q] += (emerr + 1 - ritype as u32) >> 1;
        if self.n[q] == self.cfg.reset {
            self.a[q] >>= 1;
            self.n[q] >>= 1;
            self.nn[ritype] >>= 1;
        }
        self.n[q] += 1;
    }
}

/// Encodes the pixels of `img`, returning the raw payload and statistics.
///
/// The configuration's `bit_depth` must match the view's.
pub fn encode_raw(img: ImageView<'_>, cfg: &JpeglsConfig) -> (Vec<u8>, EncodeStats) {
    assert_eq!(
        cfg.bit_depth,
        img.bit_depth(),
        "configuration depth must match the image"
    );
    let (width, height) = img.dimensions();
    let mut st = State::new(cfg);
    let mut w = BitWriter::new();
    let mut stats = EncodeStats {
        pixels: (width * height) as u64,
        ..EncodeStats::default()
    };

    let mut prev = vec![0i32; width + 2];
    let mut cur = vec![0i32; width + 2];

    for y in 0..height {
        let src = img.row(y);
        cur[0] = prev[1];
        prev[width + 1] = prev[width];
        let mut x = 0usize;
        while x < width {
            let idx = x + 1;
            let ra = cur[idx - 1];
            let rb = prev[idx];
            let rc = prev[idx - 1];
            let rd = prev[idx + 1];
            let q1 = st.quantize_gradient(rd - rb);
            let q2 = st.quantize_gradient(rb - rc);
            let q3 = st.quantize_gradient(rc - ra);

            if q1 == 0 && q2 == 0 && q3 == 0 {
                // ---- Run mode (A.7) ----
                let runval = ra;
                let mut runcnt = 0usize;
                while x + runcnt < width && (i32::from(src[x + runcnt]) - runval).abs() <= st.near {
                    cur[x + runcnt + 1] = runval;
                    runcnt += 1;
                }
                stats.run_pixels += runcnt as u64;
                let eol = x + runcnt == width;
                let mut rc_rem = runcnt;
                while rc_rem >= (1usize << J[st.run_index]) {
                    w.write_bit(true);
                    rc_rem -= 1usize << J[st.run_index];
                    if st.run_index < 31 {
                        st.run_index += 1;
                    }
                }
                if eol {
                    if rc_rem > 0 {
                        w.write_bit(true);
                    }
                    x += runcnt;
                    continue;
                }
                w.write_bit(false);
                w.write_bits(rc_rem as u64, J[st.run_index]);
                x += runcnt;
                stats.run_interruptions += 1;

                // ---- Run interruption sample (A.7.2) ----
                let idx = x + 1;
                let ra = runval;
                let rb = prev[idx];
                let ritype = usize::from((ra - rb).abs() <= st.near);
                let px = if ritype == 1 { ra } else { rb };
                let mut errval = i32::from(src[x]) - px;
                let flip = ritype == 0 && ra > rb;
                if flip {
                    errval = -errval;
                }
                let sign = if flip { -1 } else { 1 };
                let errq = st.mod_range(st.quantize_error(errval));
                cur[idx] = st.reconstruct(px, sign, errq);
                let k = st.interruption_k(ritype);
                let cond_pos = st.interruption_cond_pos(ritype, k);
                let map = if errq == 0 {
                    false
                } else if errq > 0 {
                    cond_pos
                } else {
                    !cond_pos
                };
                let emerr = (2 * errq.unsigned_abs()) as i32 - ritype as i32 - i32::from(map);
                debug_assert!(emerr >= 0, "emerr {emerr}");
                encode_limited(
                    &mut w,
                    emerr as u32,
                    k,
                    st.limit - J[st.run_index] - 1,
                    st.qbpp,
                );
                st.update_interruption(ritype, errq, emerr as u32);
                if st.run_index > 0 {
                    st.run_index -= 1;
                }
                x += 1;
            } else {
                // ---- Regular mode (A.4–A.6) ----
                let (q, sign) = st.context(q1, q2, q3);
                let px = (State::med(ra, rb, rc) + sign * st.c[q]).clamp(0, st.maxval);
                let raw = (i32::from(src[x]) - px) * sign;
                let errq = st.quantize_error(raw);
                cur[idx] = st.reconstruct(px, sign, errq);
                let errval = st.mod_range(errq);
                let k = st.golomb_k(q);
                let merr = if st.near == 0 && k == 0 && 2 * st.b[q] <= -(st.n[q] as i32) {
                    if errval >= 0 {
                        2 * errval + 1
                    } else {
                        -2 * (errval + 1)
                    }
                } else if errval >= 0 {
                    2 * errval
                } else {
                    -2 * errval - 1
                };
                encode_limited(&mut w, merr as u32, k, st.limit, st.qbpp);
                st.update_regular(q, errval);
                x += 1;
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }

    stats.payload_bits = w.bits_written();
    (w.into_bytes(), stats)
}

/// Decodes a payload produced by [`encode_raw`] with matching dimensions
/// and configuration (the configuration's `bit_depth` fixes the output
/// depth).
pub fn decode_raw(bytes: &[u8], width: usize, height: usize, cfg: &JpeglsConfig) -> Image {
    let mut st = State::new(cfg);
    let mut r = BitReader::new(bytes);
    let mut out = Image::with_depth(width, height, cfg.bit_depth);

    let mut prev = vec![0i32; width + 2];
    let mut cur = vec![0i32; width + 2];

    for y in 0..height {
        cur[0] = prev[1];
        prev[width + 1] = prev[width];
        let mut x = 0usize;
        while x < width {
            let idx = x + 1;
            let ra = cur[idx - 1];
            let rb = prev[idx];
            let rc = prev[idx - 1];
            let rd = prev[idx + 1];
            let q1 = st.quantize_gradient(rd - rb);
            let q2 = st.quantize_gradient(rb - rc);
            let q3 = st.quantize_gradient(rc - ra);

            if q1 == 0 && q2 == 0 && q3 == 0 {
                // ---- Run mode ----
                let runval = ra;
                let mut run = 0usize;
                let mut eol = false;
                loop {
                    let remaining = width - x - run;
                    if remaining == 0 {
                        eol = true;
                        break;
                    }
                    if r.read_bit() {
                        let rg = 1usize << J[st.run_index];
                        if rg < remaining {
                            run += rg;
                            if st.run_index < 31 {
                                st.run_index += 1;
                            }
                        } else if rg == remaining {
                            run += rg;
                            if st.run_index < 31 {
                                st.run_index += 1;
                            }
                            eol = true;
                            break;
                        } else {
                            run += remaining;
                            eol = true;
                            break;
                        }
                    } else {
                        run += r.read_bits(J[st.run_index]) as usize;
                        break;
                    }
                }
                for i in 0..run {
                    cur[x + i + 1] = runval;
                    out.set(x + i, y, runval as u16);
                }
                x += run;
                if eol {
                    continue;
                }

                // ---- Run interruption sample ----
                let idx = x + 1;
                let ra = runval;
                let rb = prev[idx];
                let ritype = usize::from((ra - rb).abs() <= st.near);
                let px = if ritype == 1 { ra } else { rb };
                let flip = ritype == 0 && ra > rb;
                let sign = if flip { -1 } else { 1 };
                let k = st.interruption_k(ritype);
                let emerr =
                    decode_limited(&mut r, k, st.limit - J[st.run_index] - 1, st.qbpp).unwrap_or(0);
                // Invert the A.7.2.2 mapping: parity of emerr + RItype
                // recovers `map`, the predicate recovers the sign.
                let tmp = emerr as i32 + ritype as i32;
                let map = tmp & 1 == 1;
                let mag = (tmp + i32::from(map)) / 2;
                let cond_pos = st.interruption_cond_pos(ritype, k);
                let errq = if mag == 0 {
                    0
                } else if map == cond_pos {
                    mag
                } else {
                    -mag
                };
                let rx = st.reconstruct(px, sign, errq);
                cur[idx] = rx;
                out.set(x, y, rx as u16);
                st.update_interruption(ritype, errq, emerr);
                if st.run_index > 0 {
                    st.run_index -= 1;
                }
                x += 1;
            } else {
                // ---- Regular mode ----
                let (q, sign) = st.context(q1, q2, q3);
                let px = (State::med(ra, rb, rc) + sign * st.c[q]).clamp(0, st.maxval);
                let k = st.golomb_k(q);
                let merr = decode_limited(&mut r, k, st.limit, st.qbpp).unwrap_or(0) as i32;
                let errval = if st.near == 0 && k == 0 && 2 * st.b[q] <= -(st.n[q] as i32) {
                    if merr % 2 == 1 {
                        (merr - 1) / 2
                    } else {
                        -(merr / 2) - 1
                    }
                } else if merr % 2 == 0 {
                    merr / 2
                } else {
                    -((merr + 1) / 2)
                };
                let rx = st.reconstruct(px, sign, errval);
                cur[idx] = rx;
                out.set(x, y, rx as u16);
                st.update_regular(q, errval);
                x += 1;
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbic_image::corpus::CorpusImage;

    fn roundtrip(img: &Image, cfg: &JpeglsConfig) -> EncodeStats {
        let (bytes, stats) = encode_raw(img.view(), cfg);
        let back = decode_raw(&bytes, img.width(), img.height(), cfg);
        if cfg.near == 0 {
            assert_eq!(&back, img, "lossless roundtrip failed");
        } else {
            for (p, q) in img.samples().iter().zip(back.samples()) {
                assert!(
                    (i32::from(*p) - i32::from(*q)).abs() <= i32::from(cfg.near),
                    "near-lossless bound violated"
                );
            }
        }
        stats
    }

    #[test]
    fn roundtrip_corpus() {
        for (name, img) in cbic_image::corpus::generate(48) {
            let stats = roundtrip(&img, &JpeglsConfig::default());
            assert!(stats.payload_bits > 0, "{name:?}");
        }
    }

    #[test]
    fn roundtrip_tiny_shapes() {
        for (w, h) in [(1, 1), (1, 9), (9, 1), (3, 2), (16, 16)] {
            let img = Image::from_fn(w, h, |x, y| (x * 37 + y * 11) as u8);
            roundtrip(&img, &JpeglsConfig::default());
        }
    }

    #[test]
    fn roundtrip_deep_depths() {
        for depth in [10u8, 12, 16] {
            let cfg = JpeglsConfig::for_depth(depth, 0);
            let img = Image::from_fn16(24, 24, depth, |x, y| {
                ((x as u32 * 709 + y as u32 * 6151) % (1u32 << depth.min(15))) as u16
            });
            roundtrip(&img, &cfg);
        }
    }

    #[test]
    fn smooth_sixteen_bit_content_beats_raw_depth() {
        // T.87's A-accumulator init scales with RANGE (1024 at 16 bits),
        // so the Golomb parameter starts high and decays over the image —
        // small frames pay a warm-up cost but must still clearly beat the
        // 16 bpp raw rate on predictable content.
        let cfg = JpeglsConfig::for_depth(16, 0);
        let img = Image::from_fn16(96, 96, 16, |x, y| ((x + y) * 300) as u16);
        let stats = roundtrip(&img, &cfg);
        assert!(
            stats.bits_per_pixel() < 12.0,
            "smooth 16-bit ramp cost {} bpp",
            stats.bits_per_pixel()
        );
    }

    #[test]
    fn constant_image_uses_run_mode() {
        let img = Image::from_fn(128, 128, |_, _| 77);
        let stats = roundtrip(&img, &JpeglsConfig::default());
        assert!(stats.run_pixels as usize >= 16_000, "runs: {stats:?}");
        assert!(
            stats.bits_per_pixel() < 0.05,
            "constant image cost {} bpp",
            stats.bits_per_pixel()
        );
    }

    #[test]
    fn vertical_stripes_interrupt_runs() {
        // Flat runs of 8 then a step: run mode + interruption samples.
        let img = Image::from_fn(64, 64, |x, _| ((x / 8) * 32) as u8);
        let stats = roundtrip(&img, &JpeglsConfig::default());
        assert!(stats.run_interruptions > 0);
    }

    #[test]
    fn gradient_image_compresses() {
        let img = Image::from_fn(128, 128, |x, y| ((x + 2 * y) / 2 % 256) as u8);
        let stats = roundtrip(&img, &JpeglsConfig::default());
        assert!(
            stats.bits_per_pixel() < 1.5,
            "got {} bpp",
            stats.bits_per_pixel()
        );
    }

    #[test]
    fn noise_stays_bounded() {
        let img = Image::from_fn(64, 64, |x, y| {
            (cbic_image::synth::lattice(3, x as i64, y as i64) * 256.0) as u8
        });
        let stats = roundtrip(&img, &JpeglsConfig::default());
        assert!(
            stats.bits_per_pixel() < 9.5,
            "noise cost {} bpp",
            stats.bits_per_pixel()
        );
    }

    #[test]
    fn near_lossless_reduces_rate() {
        let img = CorpusImage::Goldhill.generate(96, 96);
        let lossless = roundtrip(&img, &JpeglsConfig::default());
        let near2 = roundtrip(
            &img,
            &JpeglsConfig {
                near: 2,
                ..JpeglsConfig::default()
            },
        );
        assert!(
            near2.bits_per_pixel() < lossless.bits_per_pixel() - 0.5,
            "near {} vs lossless {}",
            near2.bits_per_pixel(),
            lossless.bits_per_pixel()
        );
    }

    #[test]
    fn near_bound_is_respected_for_all_near_values() {
        let img = CorpusImage::Barb.generate(48, 48);
        for near in 1..=4u8 {
            roundtrip(
                &img,
                &JpeglsConfig {
                    near,
                    ..JpeglsConfig::default()
                },
            );
        }
    }

    #[test]
    fn context_mapping_is_dense_and_unique() {
        let st = State::new(&JpeglsConfig::default());
        let mut seen = vec![false; REGULAR_CONTEXTS];
        for q1 in -4i32..=4 {
            for q2 in -4i32..=4 {
                for q3 in -4i32..=4 {
                    if q1 == 0 && q2 == 0 && q3 == 0 {
                        continue;
                    }
                    let (idx, sign) = st.context(q1, q2, q3);
                    assert!(idx < REGULAR_CONTEXTS);
                    // Context of the negated triple maps to the same index
                    // with the opposite sign.
                    let (idx2, sign2) = st.context(-q1, -q2, -q3);
                    assert_eq!(idx, idx2);
                    assert_eq!(sign, -sign2);
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "all 364 contexts reachable");
    }

    #[test]
    fn med_is_the_loco_predictor() {
        assert_eq!(State::med(10, 20, 5), 20, "c below both: max");
        assert_eq!(State::med(10, 20, 25), 10, "c above both: min");
        assert_eq!(State::med(10, 20, 15), 15, "planar: a+b-c");
    }

    #[test]
    fn beats_order0_entropy_on_structured_content() {
        let img = CorpusImage::Lena.generate(96, 96);
        let stats = roundtrip(&img, &JpeglsConfig::default());
        assert!(
            stats.bits_per_pixel() < img.entropy(),
            "JPEG-LS {} bpp vs order-0 {} bpp",
            stats.bits_per_pixel(),
            img.entropy()
        );
    }
}
