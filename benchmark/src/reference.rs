//! Host-speed normalization.
//!
//! On a shared host the speed of a core switches between a fast and a slow
//! state, in phases of a few seconds to a minute, as other tenants load
//! it: a 2048×2048 `cbic compress` takes about 0.85 s in the fast state
//! and 1.35 s in the slow one, measured on a 2-vCPU cloud VM, and
//! consecutive runs land in either. A median over a run's operations then
//! jumps with the share of slow phases the run happens to catch, so the
//! benchmark reports a low quantile ([`FAST_QUANTILE`]) of each
//! operation's times instead: the time in the fast state, which every run
//! that sees some fast phase measures alike.
//!
//! A run that sees no fast phase at all is caught by a fixed reference
//! process run before every measured operation (or epoch of service
//! traffic); the run's times are reported as
//!
//! ```text
//! normalized = time × NOMINAL_SECS / reference time
//! ```
//!
//! with the same low quantile of the run's reference times, that is, in
//! seconds at the host speed where the reference takes [`NOMINAL_SECS`].
//! The reference tracks the host's state but with less swing than `cbic`
//! (about 1.1–1.3× against 1.35–1.6× between the states), so it only
//! narrows the gap of an all-slow run, and one reference run is far too
//! noisy to place a single operation. The reference is this harness
//! re-executed with `--reference`, so no change to the program can move
//! it. Like a `cbic` run it starts a process, fills a 512 KiB reciprocal
//! table and codes pixels through a miniature of the codec (see
//! [`kernel`]). Operations that keep several cores busy (the two-thread
//! grid, the service's connections) are normalized by as many reference
//! processes run at once.

use std::hint::black_box;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The reference's wall time at nominal host speed (about its time on a
/// 2 GHz Xeon core when the host is quiet).
pub const NOMINAL_SECS: f64 = 0.01;

/// Flag that makes the harness run the kernel once and exit.
pub const FLAG: &str = "--reference";

/// The quantile of a run's times that is reported: low enough to be the
/// fast state whenever a run sees one.
pub const FAST_QUANTILE: f64 = 0.1;

/// The value at quantile `q` of `values` (nearest rank).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Runs the reference process as many times at once as the measured
/// operation keeps cores busy, and keeps every time.
pub struct Reference {
    exe: PathBuf,
    parallel: usize,
    times: Vec<f64>,
}

impl Reference {
    pub fn new(parallel: usize) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
        Ok(Self {
            exe,
            parallel,
            times: Vec::new(),
        })
    }

    /// Runs the reference once.
    pub fn sample(&mut self) -> Result<(), String> {
        let secs = self.run()?;
        self.times.push(secs);
        Ok(())
    }

    /// The factor that takes this run's wall times to nominal host speed:
    /// [`NOMINAL_SECS`] over the run's [`FAST_QUANTILE`] reference time.
    pub fn factor(&self) -> f64 {
        NOMINAL_SECS / quantile(&self.times, FAST_QUANTILE)
    }

    /// Reference runs so far.
    pub fn samples(&self) -> usize {
        self.times.len()
    }

    /// Runs the reference processes once and returns their wall time: with
    /// several at once, the time at their mean speed (`n / Σ 1/tᵢ`), since
    /// work spread over the cores finishes at their summed speed.
    fn run(&self) -> Result<f64, String> {
        let times: Vec<Result<f64, String>> = std::thread::scope(|scope| {
            let runs: Vec<_> = (0..self.parallel)
                .map(|_| scope.spawn(|| self.run_once()))
                .collect();
            runs.into_iter()
                .map(|run| run.join().expect("reference thread panicked"))
                .collect()
        });
        let mut speed = 0.0;
        for secs in times {
            speed += 1.0 / secs?;
        }
        Ok(self.parallel as f64 / speed)
    }

    fn run_once(&self) -> Result<f64, String> {
        let start = Instant::now();
        let status = Command::new(&self.exe)
            .arg(FLAG)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("running the reference: {e}"))?;
        let secs = start.elapsed().as_secs_f64();
        if status.success() {
            Ok(secs)
        } else {
            Err(format!("the reference process failed: {status}"))
        }
    }
}

/// The kernel the reference process runs: a miniature of the codec the
/// benchmark measures, so it has the same mix of dependent multiplies,
/// patternless branches and table reads, and slows down under the same
/// contention. Like `cbic` it first fills a 512 KiB reciprocal table,
/// then predicts each pixel of a fixed synthetic image from its causal
/// neighbours (median edge detector plus a per-context bias), and codes
/// the folded error as eight adaptive binary decisions through an interval
/// coder with bulk renormalisation.
pub fn kernel() {
    const WIDTH: usize = 256;
    const HEIGHT: usize = 192;
    const HALF: u32 = 1 << 31;
    // A floating-point reciprocal is close enough here (nothing decodes
    // the output) and keeps the table's set-up from outweighing the loop,
    // which is where the codec spends its time.
    let recip: Vec<u64> = (0..=1u32 << 16)
        .map(|d| (18_446_744_073_709_551_616.0 / f64::from(d.max(2))) as u64)
        .collect();
    let mut x = 0x243F_6A88_85A3_08D3u64;
    let image: Vec<i32> = (0..WIDTH * HEIGHT)
        .map(|i| {
            x = xorshift(x);
            ((i % WIDTH) as i32 * 3 / 4 + (i / WIDTH) as i32 + (x & 15) as i32) & 255
        })
        .collect();
    let mut sums = [0i32; 64];
    let mut counts = [0i32; 64];
    let mut tree = vec![[1u32; 2]; 8 * 256];
    let (mut low, mut high, mut pending) = (0u32, u32::MAX, 0u32);
    let mut out = BitSink::default();
    for y in 1..HEIGHT {
        for col in 1..WIDTH - 1 {
            let at = |dx: usize, dy: usize| image[(y - dy) * WIDTH + col + 1 - dx];
            let (w, n, nw, ne, value) = (at(2, 0), at(1, 1), at(2, 1), at(0, 1), at(1, 0));
            let pred = if nw >= w.max(n) {
                w.min(n)
            } else if nw <= w.min(n) {
                w.max(n)
            } else {
                w + n - nw
            };
            let grad = (w - nw).abs() + (n - nw).abs() + (ne - n).abs();
            let qe = (32 - (grad as u32).leading_zeros()).min(7) as usize;
            let ctx = qe << 3
                | usize::from(w > pred) << 2
                | usize::from(n > pred) << 1
                | usize::from(ne > pred);
            let bias = if counts[ctx] > 0 {
                sums[ctx] / counts[ctx]
            } else {
                0
            };
            let err = (value - (pred + bias).clamp(0, 255) + 128).rem_euclid(256) - 128;
            sums[ctx] += err;
            counts[ctx] += 1;
            if counts[ctx] == 32 {
                sums[ctx] /= 2;
                counts[ctx] = 16;
            }
            let folded = if err >= 0 { 2 * err } else { -2 * err - 1 } as u32;
            let mut node = 1;
            for level in (0..8).rev() {
                let bit = (folded >> level) & 1;
                let node_counts = &mut tree[qe * 256 + node];
                let total = node_counts[0] + node_counts[1];
                let range = u64::from(high - low) + 1;
                let scaled = u128::from(range * u64::from(node_counts[0]))
                    * u128::from(recip[total as usize]);
                let split = u64::from(low) + (scaled >> 64) as u64;
                if bit == 1 {
                    low = split as u32;
                } else {
                    high = (split - 1) as u32;
                }
                let settled = (low ^ high).leading_zeros();
                if settled > 0 {
                    let first = low >> 31 == 1;
                    out.put(first);
                    for _ in 0..pending {
                        out.put(!first);
                    }
                    pending = 0;
                    for b in (0..settled - 1).rev() {
                        out.put((low >> (31 - settled + 1 + b)) & 1 == 1);
                    }
                }
                low = (u64::from(low) << settled) as u32;
                high = ((u64::from(high) << settled) | ((1u64 << settled) - 1)) as u32;
                let straddle = (low << 1).leading_ones().min((high << 1).leading_zeros());
                pending += straddle;
                low = (low << straddle) & !HALF;
                high = HALF | ((high << straddle) & !HALF) | ((1u32 << straddle) - 1);
                node_counts[bit as usize] += 32;
                if node_counts[0] + node_counts[1] > 1 << 14 {
                    node_counts[0] = node_counts[0].div_ceil(2);
                    node_counts[1] = node_counts[1].div_ceil(2);
                }
                node = node * 2 + bit as usize;
            }
        }
    }
    black_box(out.bytes.len() as u64 ^ out.acc);
}

#[derive(Default)]
struct BitSink {
    bytes: Vec<u8>,
    acc: u64,
    filled: u32,
}

impl BitSink {
    fn put(&mut self, bit: bool) {
        self.acc = (self.acc << 1) | u64::from(bit);
        self.filled += 1;
        if self.filled == 64 {
            self.bytes.extend_from_slice(&self.acc.to_be_bytes());
            (self.acc, self.filled) = (0, 0);
        }
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^ (x << 17)
}
