//! Seeded workload inputs.
//!
//! Every input is built from windows cut from the seven synthetic corpus
//! classes (the paper's Table 1 panel), at offsets drawn from the run's
//! seed. The class mix is the same for every seed, so the work per run is
//! comparable across seeds; the offsets make the bytes differ, so no seed
//! can be tuned for.

use cbic_image::corpus::CorpusImage;
use cbic_image::Image;

/// Side of the generated class images the windows are cut from.
const BASE: usize = 640;

/// One input image with a label for error messages.
pub struct Input {
    pub label: String,
    pub img: Image,
}

/// splitmix64: a small, well-mixed generator, so inputs depend on the
/// seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The seven class images, generated once per run.
pub struct Bases(Vec<(CorpusImage, Image)>);

impl Bases {
    pub fn generate() -> Self {
        Self(
            CorpusImage::ALL
                .iter()
                .map(|&c| (c, c.generate(BASE, BASE)))
                .collect(),
        )
    }

    /// A `side`×`side` window of class `class` at a seeded offset.
    fn window(&self, class: usize, side: usize, rng: &mut Rng) -> (String, Image) {
        let (kind, base) = &self.0[class % self.0.len()];
        let (x0, y0) = (rng.below(BASE - side + 1), rng.below(BASE - side + 1));
        let img = Image::from_fn(side, side, |x, y| base.get(x0 + x, y0 + y) as u8);
        (format!("{}@{x0},{y0}", kind.name()), img)
    }

    /// One `side`×`side` window of every class.
    pub fn windows(&self, side: usize, rng: &mut Rng) -> Vec<Input> {
        (0..self.0.len())
            .map(|class| {
                let (label, img) = self.window(class, side, rng);
                Input { label, img }
            })
            .collect()
    }

    /// One mosaic of `n`×`n` windows of side `side`, window `k` (row-major)
    /// from class `k mod 7`, so neighbouring tiles differ in content.
    pub fn mosaic(&self, n: usize, side: usize, rng: &mut Rng) -> Input {
        let quads: Vec<(String, Image)> = (0..n * n).map(|k| self.window(k, side, rng)).collect();
        let img = Image::from_fn(n * side, n * side, |x, y| {
            quads[(y / side) * n + x / side].1.get(x % side, y % side) as u8
        });
        let label = format!("{0}x{0} mosaic from {1}", n * side, quads[0].0);
        Input { label, img }
    }
}
