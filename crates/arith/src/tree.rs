//! The "dynamic tree" of the paper's probability estimator.
//!
//! Each coding context owns a balanced binary tree over the 2ⁿ-symbol
//! alphabet. A symbol is identified with the root-to-leaf path given by its
//! bits (MSB first), and coding a symbol means coding the n left/right
//! decisions along that path.
//!
//! # Memory layout (and why it matches the paper's 4 KBytes)
//!
//! Every internal node stores a **single** counter: the number of times a
//! symbol passed through the node and went *left*. The number of times the
//! node was visited at all is not stored — it is inherited from the parent
//! during descent (the root's visit count is the tree total). With 255
//! nodes × 14-bit counters per tree and 9 trees, the estimator needs
//! ≈ 4 KBytes of SRAM, exactly the figure the paper reports. Storing
//! (left, right) pairs would double that.

use crate::bincoder::{recip_table, DecisionDecoder, DecisionEncoder};
use crate::coder::EstimatorConfig;
use std::sync::OnceLock;

/// Per-depth path-node-index ROMs: entry `s` of the depth-`d` ROM packs
/// the heap indices of the `d` internal nodes on symbol `s`'s root-to-leaf
/// path, one byte per level (level `k` in bits `8k..8k+8`).
///
/// The tree *shape* is static — only the counters adapt — so the node
/// sequence of a descent is a pure function of `(depth, symbol)`. Encoding
/// knows the symbol up front, so with the ROM one descent becomes one u64
/// load plus `depth` independent counter loads instead of a serial
/// `node = 2·node + bit` address chain. Node indices fit a byte because a
/// level-`k` node index is below `2^(k+1) ≤ 2^depth ≤ 256`.
fn path_rom(depth: u32) -> &'static [u64] {
    static ROMS: [OnceLock<Vec<u64>>; 9] = [const { OnceLock::new() }; 9];
    ROMS[depth as usize].get_or_init(|| {
        (0..1u32 << depth)
            .map(|s| {
                let mut packed = 0u64;
                for k in 0..depth {
                    let node = (1u32 << k) | (s >> (depth - k));
                    packed |= u64::from(node) << (8 * k);
                }
                packed
            })
            .collect()
    })
}

/// One level of [`TreeModel::decode_and_update`]: a one-sided count pins
/// the bit without touching the coder (deterministic-prefix skipping,
/// decode side); any other decision goes to the coder with its
/// pre-scaled `P(0)`, `f`.
#[inline(always)]
fn decide<D: DecisionDecoder>(dec: &mut D, c0: u16, visits: u16, f: u64) -> bool {
    if c0 == 0 {
        true
    } else if c0 == visits {
        false
    } else {
        dec.decode_scaled(c0.into(), visits.into(), f)
    }
}

/// Captured per-level decision probabilities of one symbol's root-to-leaf
/// path: the `(c0, visits)` pair of every internal node the symbol
/// traverses, recorded in one descent by
/// [`TreeModel::capture_and_update`] and replayed into the arithmetic
/// coder.
///
/// This is the encode path of symbols that may escape: instead of three
/// separate descents per symbol (escape probe, decision coding, count
/// update) the tree is walked **once**, and the coder consumes the
/// captured slice afterwards. The emitted bits are identical to the
/// three-descent sequence — only the number of tree traversals changes.
#[derive(Debug, Clone, Copy)]
pub struct DecisionPath {
    c0: [u32; 8],
    visits: [u32; 8],
    len: u32,
}

impl DecisionPath {
    /// An empty path, ready to be filled by
    /// [`TreeModel::capture_and_update`].
    pub const fn empty() -> Self {
        Self {
            c0: [0; 8],
            visits: [0; 8],
            len: 0,
        }
    }

    /// Number of captured decisions (the tree depth).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` until a capture fills the path.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Replays the captured decision sequence of `symbol` into the coder —
    /// bit-identical to [`TreeModel::encode_decisions`] with the counts
    /// that were current at capture time.
    #[inline]
    pub fn replay<E: DecisionEncoder>(&self, enc: &mut E, symbol: u8) {
        for k in 0..self.len {
            let bit = (symbol >> (self.len - 1 - k)) & 1 == 1;
            let i = k as usize;
            enc.encode(bit, self.c0[i], self.visits[i]);
        }
    }
}

impl Default for DecisionPath {
    fn default() -> Self {
        Self::empty()
    }
}

/// One adaptive context tree over a `2^depth`-symbol alphabet.
///
/// See this module's source documentation for the representation. The tree
/// maintains the invariant `left[i] <= visits(i)` for every node, where
/// `visits` is derived top-down from [`Self::total`].
///
/// # Examples
///
/// ```
/// use cbic_arith::{BinaryDecoder, BinaryEncoder, EstimatorConfig, TreeModel};
/// use cbic_bitio::{BitReader, BitWriter};
///
/// let cfg = EstimatorConfig::default();
/// let mut enc_tree = TreeModel::new(8, cfg);
/// let mut enc = BinaryEncoder::new(BitWriter::new());
/// enc_tree.encode_decisions(&mut enc, 200);
/// enc_tree.update(200);
/// let bytes = enc.finish().into_bytes();
///
/// let mut dec_tree = TreeModel::new(8, cfg);
/// let mut dec = BinaryDecoder::new(BitReader::new(&bytes));
/// assert_eq!(dec_tree.decode_decisions(&mut dec), 200);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeModel {
    /// `left[i]` = count of left outcomes at heap node `i` (index 0 unused).
    /// Heap layout: root at 1, children of `i` at `2i` (left) and `2i+1`.
    left: Vec<u16>,
    /// Visit count of the root = total symbols accumulated (post-aging).
    total: u32,
    depth: u32,
    max_total: u32,
    increment: u32,
    rescales: u64,
    /// One bit per symbol: **may** the symbol's path contain a zero
    /// branch? Zero branches are *created* only by [`Self::rescale`]
    /// (which recomputes this mask exactly) and *removed* only by
    /// [`Self::update`] (which leaves the mask alone), so a clear bit is
    /// a guarantee — the symbol cannot escape and its decisions can be
    /// coded in one fused descent — while a set bit merely routes the
    /// symbol through the exact capture walk.
    maybe_zero: [u64; 4],
    /// Shared per-depth path-node ROM (see [`path_rom`]): flattens the
    /// encode-side descent into independent counter loads.
    rom: &'static [u64],
}

impl TreeModel {
    /// Creates a tree over a `2^depth`-symbol alphabet with uniform initial
    /// probabilities (each symbol starts at `1 / 2^depth`, the paper's
    /// "initially, all the symbols in the alphabet are assigned an equal
    /// probability").
    ///
    /// # Panics
    ///
    /// Panics if `depth` is not in `1..=8`, or if the configuration's
    /// counter width cannot hold the initial uniform counts
    /// (`count_bits` must satisfy `2^count_bits - 1 >= 2^(depth+1)`).
    pub fn new(depth: u32, cfg: EstimatorConfig) -> Self {
        assert!((1..=8).contains(&depth), "depth {depth} out of range 1..=8");
        let max_total = cfg.max_total();
        assert!(
            max_total >= 1 << (depth + 1),
            "count_bits {} too small for a {}-bit alphabet",
            cfg.count_bits,
            depth
        );
        assert!(
            cfg.increment >= 1 && u32::from(cfg.increment) <= max_total / 2,
            "increment {} outside 1..={} (counter totals would overflow the cap)",
            cfg.increment,
            max_total / 2
        );
        let nodes = 1usize << depth; // indices 1..nodes are internal nodes
        let mut tree = Self {
            left: vec![0u16; nodes],
            total: 0,
            depth,
            max_total,
            increment: u32::from(cfg.increment),
            rescales: 0,
            maybe_zero: [0; 4],
            rom: path_rom(depth),
        };
        tree.reset();
        tree
    }

    /// Restores the initial uniform distribution in place, reusing the
    /// node storage — the session-reuse path's alternative to
    /// reconstructing the tree per image.
    pub fn reset(&mut self) {
        let depth = self.depth;
        for (i, slot) in self.left.iter_mut().enumerate().skip(1) {
            let node_depth = u32::BITS - 1 - (i as u32).leading_zeros();
            *slot = 1 << (depth - 1 - node_depth);
        }
        self.total = 1 << depth;
        self.rescales = 0;
        // The uniform distribution has no zero branch anywhere.
        self.maybe_zero = [0; 4];
    }

    /// Number of symbol bits (tree levels).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of internal nodes (counters) in the tree.
    pub fn node_count(&self) -> usize {
        self.left.len() - 1
    }

    /// Total visit count at the root.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// How many tree-wide halvings have occurred.
    pub fn rescales(&self) -> u64 {
        self.rescales
    }

    /// `true` if `symbol` currently has zero probability, i.e. some decision
    /// on its path has a zero count and the symbol must be *escaped*.
    ///
    /// This happens after tree-wide halvings decay a once-seen branch to
    /// zero — the paper's "counts of symbols that have not been seen before
    /// will be rescaled from 1 to 0, resulting in escape".
    #[inline]
    pub fn path_has_zero(&self, symbol: u8) -> bool {
        debug_assert!(u32::from(symbol) < (1u32 << self.depth) || self.depth == 8);
        let mut node = 1usize;
        let mut visits = self.total;
        for k in (0..self.depth).rev() {
            let bit = (symbol >> k) & 1;
            let c0 = u32::from(self.left[node]);
            let branch = if bit == 0 { c0 } else { visits - c0 };
            if branch == 0 {
                return true;
            }
            visits = branch;
            node = node * 2 + usize::from(bit);
        }
        false
    }

    /// Codes the decision path of `symbol` using the *current* counts.
    ///
    /// Does **not** update the model; call [`Self::update`] afterwards (the
    /// split lets the escape mechanism update the tree even for symbols that
    /// were transmitted through the static tree instead).
    ///
    /// # Panics
    ///
    /// Debug-panics if `symbol` has zero probability (the caller must check
    /// [`Self::path_has_zero`] and escape).
    #[inline]
    pub fn encode_decisions<E: DecisionEncoder>(&self, enc: &mut E, symbol: u8) {
        let mut node = 1usize;
        let mut visits = self.total;
        for k in (0..self.depth).rev() {
            let bit = (symbol >> k) & 1 == 1;
            let c0 = u32::from(self.left[node]);
            enc.encode(bit, c0, visits);
            visits = if bit { visits - c0 } else { c0 };
            node = node * 2 + usize::from(bit);
        }
    }

    /// Decodes one symbol's decision path using the *current* counts.
    ///
    /// Does **not** update the model; call [`Self::update`] afterwards.
    #[inline]
    pub fn decode_decisions<D: DecisionDecoder>(&self, dec: &mut D) -> u8 {
        let mut node = 1usize;
        let mut visits = self.total;
        let mut symbol = 0u8;
        for _ in 0..self.depth {
            let c0 = u32::from(self.left[node]);
            let bit = dec.decode(c0, visits);
            visits = if bit { visits - c0 } else { c0 };
            symbol = (symbol << 1) | u8::from(bit);
            node = node * 2 + usize::from(bit);
        }
        symbol
    }

    /// The single-descent capture: walks `symbol`'s root-to-leaf path
    /// **once**, capturing each level's `(c0, visits)` pair into `path`,
    /// detecting whether the symbol must escape, and folding the count
    /// update into the same descent. Returns `true` when some branch on
    /// the path has a zero count (the symbol must be escaped; the
    /// captured probabilities are then meaningless and must not be
    /// replayed).
    ///
    /// Equivalent to `path_has_zero` + `encode_decisions`-capture +
    /// [`Self::update`], in one traversal instead of three: the captured
    /// pairs are the **pre-update** counts, and the rare rescale case
    /// falls back to a separate capture so the coded probabilities never
    /// see a half-aged tree.
    #[inline]
    pub fn capture_and_update(&mut self, symbol: u8, path: &mut DecisionPath) -> bool {
        path.len = self.depth;
        if self.total + self.increment > self.max_total {
            // Aging imminent: capture with the pre-rescale counts the
            // coder must use, then let the plain update rescale and add.
            let escaped = self.capture(symbol, path);
            self.update(symbol);
            return escaped;
        }
        let inc = self.increment as u16;
        // Flattened descent: the ROM supplies every node index up front,
        // so the `left[]` loads are independent instead of chained through
        // `node = 2·node + bit` address arithmetic.
        let nodes = self.rom[usize::from(symbol)];
        let mut visits = self.total;
        let mut escaped = false;
        for k in 0..self.depth {
            let bit = (symbol >> (self.depth - 1 - k)) & 1;
            let node = ((nodes >> (8 * k)) & 0xFF) as usize;
            let c0 = u32::from(self.left[node]);
            let i = k as usize;
            path.c0[i] = c0;
            path.visits[i] = visits;
            // By the invariant `left[node] <= visits`, both branches are
            // non-negative; once a branch hits zero every deeper count is
            // zero too, so the walk stays well-defined.
            let branch = if bit == 0 { c0 } else { visits - c0 };
            escaped |= branch == 0;
            // Branchless conditional bump: the symbol bits are close to
            // random, so a `if bit == 0` store would mispredict every
            // other level of the descent.
            self.left[node] += inc & u16::from(bit).wrapping_sub(1);
            visits = branch;
        }
        self.total += self.increment;
        escaped
    }

    /// Read-only capture of `symbol`'s path (the rescale-imminent slow
    /// branch of [`Self::capture_and_update`]).
    fn capture(&self, symbol: u8, path: &mut DecisionPath) -> bool {
        let mut node = 1usize;
        let mut visits = self.total;
        let mut escaped = false;
        for k in 0..self.depth {
            let bit = (symbol >> (self.depth - 1 - k)) & 1;
            let c0 = u32::from(self.left[node]);
            let i = k as usize;
            path.c0[i] = c0;
            path.visits[i] = visits;
            let branch = if bit == 0 { c0 } else { visits - c0 };
            escaped |= branch == 0;
            visits = branch;
            node = node * 2 + usize::from(bit);
        }
        escaped
    }

    /// The decoder's fused descent: decodes one symbol's decisions and
    /// applies the count update in the same walk (each node's counter is
    /// read before it is bumped, so the decoded probabilities match the
    /// encoder's pre-update capture exactly). Falls back to decode-then-
    /// update when a rescale is due, mirroring
    /// [`Self::capture_and_update`].
    ///
    /// Deterministic levels (`c0 == 0` or `c0 == visits`) are resolved
    /// here at the model layer — the encoder emitted zero bits for them,
    /// so the decoder never consults the bitstream; only the coder's
    /// decision counters are advanced (in one batched
    /// [`note_deterministic`](DecisionDecoder::note_deterministic) call,
    /// for the levels the coder's own coded count did not take).
    ///
    /// **Look-ahead.** Each decoded bit picks the next node, so a plain
    /// descent puts the node's counter load, its reciprocal load and the
    /// `c0·⌈2⁶⁴/visits⌉` multiply between two interval splits. Here, while
    /// a level's bit decodes, both children's counters (adjacent at `2n`
    /// and `2n + 1`) are loaded and both children's `P(0)` pre-scaled —
    /// the left child's visits are `c0`, the right child's `visits − c0` —
    /// so the bit only selects the taken child's `(c0, visits, f)` and the
    /// coder splits on `f` through
    /// [`decode_scaled`](DecisionDecoder::decode_scaled). The products
    /// wrap: a deterministic child gets an `f` that is never used. The
    /// coded probabilities are the ones the plain descent forms, so the
    /// decoded bits are too.
    #[inline]
    pub fn decode_and_update<D: DecisionDecoder>(&mut self, dec: &mut D) -> u8 {
        if self.total + self.increment > self.max_total {
            let symbol = self.decode_decisions(dec);
            self.update(symbol);
            return symbol;
        }
        let recip = recip_table();
        let scaled = |c0: u16, visits: u16| u64::from(c0).wrapping_mul(recip[usize::from(visits)]);
        let inc = self.increment as u16;
        let coded_before = dec.coded_decisions();
        let left = &mut self.left[..];
        let mut node = 1usize;
        // No rescale is due, so the total is under the counter cap, which
        // is below 2^16.
        let mut visits = self.total as u16;
        let mut c0 = left[node];
        let mut f = scaled(c0, visits);
        // Down to the last internal level, whose children are leaves.
        while let Some(&[l, r]) = left.get(2 * node..2 * node + 2) {
            let (fl, fr) = (scaled(l, c0), scaled(r, visits - c0));
            let bit = decide(dec, c0, visits, f);
            // Branchless conditional bump (see `capture_and_update`).
            left[node] += inc & u16::from(bit).wrapping_sub(1);
            node = node * 2 + usize::from(bit);
            // The taken child, picked with masks: an `if` on the bit
            // compiled to a branch on it (see `Interval::step`).
            let (one, one64) = (u16::from(bit).wrapping_neg(), u64::from(bit).wrapping_neg());
            visits = ((visits - c0) & one) | (c0 & !one);
            c0 = (r & one) | (l & !one);
            f = (fr & one64) | (fl & !one64);
        }
        let bit = decide(dec, c0, visits, f);
        left[node] += inc & u16::from(bit).wrapping_sub(1);
        // The leaf below the last node, counted from the first leaf.
        let symbol = (node * 2 + usize::from(bit) - left.len()) as u8;
        let coded = dec.coded_decisions() - coded_before;
        dec.note_deterministic(u64::from(self.depth) - coded);
        self.total += self.increment;
        symbol
    }

    /// Accumulates `symbol` into the tree, halving all counters first if the
    /// root total would exceed the configured cap (the paper's overflow
    /// rescaling, which "ages" the statistics).
    #[inline]
    pub fn update(&mut self, symbol: u8) {
        if self.total + self.increment > self.max_total {
            self.rescale();
        }
        let inc = self.increment as u16;
        let mut node = 1usize;
        for k in (0..self.depth).rev() {
            let bit = (symbol >> k) & 1;
            // Branchless conditional bump (see `capture_and_update`).
            self.left[node] += inc & u16::from(bit).wrapping_sub(1);
            node = node * 2 + usize::from(bit);
        }
        self.total += self.increment;
    }

    /// Halves every counter in the tree (and the root total), then
    /// recomputes the maybe-zero mask exactly — rescaling is the only
    /// operation that can create zero branches, so the mask is precise at
    /// this point and only grows stale in the safe direction (updates
    /// remove zeros but never add them).
    fn rescale(&mut self) {
        for c in &mut self.left[1..] {
            *c >>= 1;
        }
        self.total >>= 1;
        self.rescales += 1;
        self.maybe_zero = [0; 4];
        self.mark_zero_paths(1, self.total, 0, self.depth);
    }

    /// Marks every symbol under `node` whose remaining path crosses an
    /// empty branch (`visits` is the node's inherited visit count,
    /// `prefix` the symbol bits chosen so far).
    fn mark_zero_paths(&mut self, node: usize, visits: u32, prefix: u32, levels_left: u32) {
        if levels_left == 0 {
            return;
        }
        let c0 = u32::from(self.left[node]);
        let c1 = visits - c0;
        for (bit, branch) in [(0u32, c0), (1u32, c1)] {
            let child_prefix = (prefix << 1) | bit;
            if branch == 0 {
                // Every symbol with this prefix escapes: set the whole
                // 2^(levels_left - 1)-symbol run in one mask pass.
                let first = (child_prefix << (levels_left - 1)) as usize;
                let count = 1usize << (levels_left - 1);
                for s in first..first + count {
                    self.maybe_zero[s >> 6] |= 1u64 << (s & 63);
                }
            } else {
                self.mark_zero_paths(
                    node * 2 + bit as usize,
                    branch,
                    child_prefix,
                    levels_left - 1,
                );
            }
        }
    }

    /// `true` when `symbol`'s path **might** cross a zero branch (a set
    /// bit in the maybe-zero mask). A `false` answer is a guarantee that
    /// [`Self::path_has_zero`] is `false`, letting encoders skip the
    /// escape probe and code in one fused descent.
    #[inline]
    pub fn maybe_escapes(&self, symbol: u8) -> bool {
        let s = usize::from(symbol);
        self.maybe_zero[s >> 6] & (1u64 << (s & 63)) != 0
    }

    /// The encoder's fused fast path for symbols whose mask bit is clear:
    /// codes the decision path and applies the update in a single
    /// descent, bit-identical to `encode_decisions` + [`Self::update`].
    /// Falls back to the two-step sequence when a rescale is due (the
    /// coded probabilities must be the pre-rescale counts).
    ///
    /// # Panics
    ///
    /// Debug-panics (inside the arithmetic coder) if the path does have a
    /// zero branch — callers must check [`Self::maybe_escapes`] first.
    #[inline]
    pub fn encode_and_update<E: DecisionEncoder>(&mut self, enc: &mut E, symbol: u8) {
        if self.total + self.increment > self.max_total {
            self.encode_decisions(enc, symbol);
            self.update(symbol);
            return;
        }
        let inc = self.increment as u16;
        let mut node = 1usize;
        let mut visits = self.total;
        for k in (0..self.depth).rev() {
            let bit = (symbol >> k) & 1 == 1;
            let c0 = u32::from(self.left[node]);
            enc.encode(bit, c0, visits);
            // Branchless conditional bump (see `capture_and_update`).
            self.left[node] += inc & u16::from(bit).wrapping_sub(1);
            visits = if bit { visits - c0 } else { c0 };
            node = node * 2 + usize::from(bit);
        }
        self.total += self.increment;
    }

    /// Probability of `symbol` as a fraction (numerator, denominator-log2
    /// scaled): returns the product of per-level conditionals as an `f64`.
    /// Intended for diagnostics and tests, not the coding path.
    pub fn probability(&self, symbol: u8) -> f64 {
        let mut node = 1usize;
        let mut visits = self.total;
        let mut p = 1.0f64;
        for k in (0..self.depth).rev() {
            let bit = (symbol >> k) & 1;
            let c0 = u32::from(self.left[node]);
            let branch = if bit == 0 { c0 } else { visits - c0 };
            if visits == 0 {
                return 0.0;
            }
            p *= f64::from(branch) / f64::from(visits);
            if branch == 0 {
                return 0.0;
            }
            visits = branch;
            node = node * 2 + usize::from(bit);
        }
        p
    }

    /// Verifies the structural invariant `left[i] <= visits(i)` everywhere.
    /// Exposed for tests and debugging.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.check_node(1, self.total)
    }

    fn check_node(&self, node: usize, visits: u32) -> Result<(), String> {
        if node >= self.left.len() {
            return Ok(());
        }
        let c0 = u32::from(self.left[node]);
        if c0 > visits {
            return Err(format!(
                "node {node}: left count {c0} exceeds visits {visits}"
            ));
        }
        self.check_node(node * 2, c0)?;
        self.check_node(node * 2 + 1, visits - c0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinaryDecoder, BinaryEncoder};
    use cbic_bitio::{BitReader, BitWriter};

    fn cfg() -> EstimatorConfig {
        EstimatorConfig::default()
    }

    #[test]
    fn initial_distribution_is_uniform() {
        let t = TreeModel::new(8, cfg());
        assert_eq!(t.total(), 256);
        assert_eq!(t.node_count(), 255);
        for s in [0u8, 1, 127, 128, 200, 255] {
            let p = t.probability(s);
            assert!((p - 1.0 / 256.0).abs() < 1e-12, "p({s}) = {p}");
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn smaller_alphabets_are_uniform_too() {
        for depth in 1..=7 {
            let t = TreeModel::new(depth, cfg());
            let expected = 1.0 / f64::from(1u32 << depth);
            assert!((t.probability(0) - expected).abs() < 1e-12);
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn update_raises_probability() {
        let mut t = TreeModel::new(8, cfg());
        let before = t.probability(42);
        for _ in 0..10 {
            t.update(42);
        }
        let after = t.probability(42);
        assert!(after > before * 5.0, "before {before}, after {after}");
        t.check_invariants().unwrap();
    }

    #[test]
    fn update_preserves_invariants_under_stress() {
        let mut t = TreeModel::new(8, cfg());
        for i in 0u32..20_000 {
            t.update((i.wrapping_mul(2654435761) >> 8) as u8);
        }
        t.check_invariants().unwrap();
        assert!(t.rescales() > 0, "cap must have been hit");
        assert!(t.total() <= cfg().max_total());
    }

    #[test]
    fn rescaling_creates_zero_probability_paths() {
        // Small counter width forces frequent halvings; a symbol seen once
        // must eventually decay to probability zero.
        let cfg = EstimatorConfig {
            count_bits: 10,
            increment: 32,
            ..EstimatorConfig::default()
        };
        let mut t = TreeModel::new(8, cfg);
        t.update(7); // seen once
        assert!(!t.path_has_zero(7));
        for _ in 0..10_000 {
            t.update(200);
        }
        assert!(t.path_has_zero(7), "symbol 7 should have decayed to zero");
        // ...but the hammered symbol keeps a healthy probability.
        assert!(t.probability(200) > 0.9);
        t.check_invariants().unwrap();
    }

    #[test]
    fn no_initial_escapes() {
        let t = TreeModel::new(8, cfg());
        for s in 0..=255u8 {
            assert!(!t.path_has_zero(s));
        }
    }

    #[test]
    fn roundtrip_with_adaptation() {
        let symbols: Vec<u8> = (0..3000u32)
            .map(|i| ((i * i * 31) % 97) as u8) // skewed distribution
            .collect();

        let mut enc_tree = TreeModel::new(8, cfg());
        let mut enc = BinaryEncoder::new(BitWriter::new());
        for &s in &symbols {
            assert!(!s_escapes(&enc_tree, s), "test stream should not escape");
            enc_tree.encode_decisions(&mut enc, s);
            enc_tree.update(s);
        }
        let bytes = enc.finish().into_bytes();

        let mut dec_tree = TreeModel::new(8, cfg());
        let mut dec = BinaryDecoder::new(BitReader::new(&bytes));
        for &s in &symbols {
            assert_eq!(dec_tree.decode_decisions(&mut dec), s);
            dec_tree.update(s);
        }
        assert_eq!(enc_tree, dec_tree, "encoder and decoder models must agree");

        fn s_escapes(t: &TreeModel, s: u8) -> bool {
            t.path_has_zero(s)
        }
    }

    #[test]
    fn adaptation_beats_uniform_coding() {
        // A heavily skewed source must cost well under 8 bits/symbol.
        let symbols: Vec<u8> = (0..20_000u32).map(|i| ((i % 10) / 9 * 17) as u8).collect();
        let mut tree = TreeModel::new(8, cfg());
        let mut enc = BinaryEncoder::new(BitWriter::new());
        for &s in &symbols {
            tree.encode_decisions(&mut enc, s);
            tree.update(s);
        }
        let bits = enc.finish().into_bytes().len() * 8;
        let bps = bits as f64 / symbols.len() as f64;
        assert!(bps < 1.0, "skewed source cost {bps} bits/symbol");
    }

    /// A clear maybe-zero bit must guarantee a nonzero path, at every
    /// point of a long adapting run with frequent rescales; and the fused
    /// encode fast path must match the two-step reference bit for bit.
    #[test]
    fn maybe_zero_mask_is_sound_and_fast_encode_matches() {
        let cfg = EstimatorConfig {
            count_bits: 10,
            increment: 32,
            ..EstimatorConfig::default()
        };
        let mut fast = TreeModel::new(8, cfg);
        let mut slow = TreeModel::new(8, cfg);
        let mut fast_enc = BinaryEncoder::new(BitWriter::new());
        let mut slow_enc = BinaryEncoder::new(BitWriter::new());
        let mut fast_hits = 0u32;
        for i in 0..8000u32 {
            let s = (i.wrapping_mul(2654435761) >> 18) as u8;
            // Soundness: a clear bit means the exact probe agrees.
            if !fast.maybe_escapes(s) {
                assert!(!fast.path_has_zero(s), "mask lied about symbol {s}");
            }
            if fast.path_has_zero(s) {
                assert!(fast.maybe_escapes(s), "zero path with clear mask bit");
                fast.update(s);
                slow.update(s);
                continue;
            }
            if fast.maybe_escapes(s) {
                // Stale-maybe: exact walk (reference handles it the same).
                fast.encode_decisions(&mut fast_enc, s);
                fast.update(s);
            } else {
                fast_hits += 1;
                fast.encode_and_update(&mut fast_enc, s);
            }
            slow.encode_decisions(&mut slow_enc, s);
            slow.update(s);
            assert_eq!(fast, slow, "state diverged at step {i}");
        }
        assert!(fast_hits > 0, "fast path never taken");
        assert!(fast.rescales() > 0, "test must cross rescales");
        assert_eq!(
            fast_enc.finish().into_bytes(),
            slow_enc.finish().into_bytes()
        );
    }

    /// The batched single-descent path must be bit- and state-identical to
    /// the historical three-descent sequence, including across rescales
    /// and escapes.
    #[test]
    fn capture_and_update_matches_three_descent_reference() {
        let cfg = EstimatorConfig {
            count_bits: 10, // narrow: forces frequent rescales and escapes
            increment: 32,
            ..EstimatorConfig::default()
        };
        let symbols: Vec<u8> = (0..5000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();

        let mut fast = TreeModel::new(8, cfg);
        let mut slow = TreeModel::new(8, cfg);
        let mut fast_enc = BinaryEncoder::new(BitWriter::new());
        let mut slow_enc = BinaryEncoder::new(BitWriter::new());
        let mut path = DecisionPath::empty();
        for &s in &symbols {
            let fast_escaped = fast.capture_and_update(s, &mut path);
            let slow_escaped = slow.path_has_zero(s);
            assert_eq!(fast_escaped, slow_escaped, "escape disagreement on {s}");
            if !fast_escaped {
                path.replay(&mut fast_enc, s);
                slow.encode_decisions(&mut slow_enc, s);
            }
            slow.update(s);
            assert_eq!(fast, slow, "tree state diverged after {s}");
        }
        assert_eq!(
            fast_enc.finish().into_bytes(),
            slow_enc.finish().into_bytes(),
            "batched path emitted different bits"
        );
    }

    #[test]
    fn decode_and_update_matches_reference() {
        let cfg = EstimatorConfig {
            count_bits: 10,
            increment: 32,
            ..EstimatorConfig::default()
        };
        // Build a stream with the reference encoder (skipping escapes).
        let symbols: Vec<u8> = (0..3000u32).map(|i| ((i * 31) % 256) as u8).collect();
        let mut enc_tree = TreeModel::new(8, cfg);
        let mut enc = BinaryEncoder::new(BitWriter::new());
        let mut coded = Vec::new();
        for &s in &symbols {
            if !enc_tree.path_has_zero(s) {
                enc_tree.encode_decisions(&mut enc, s);
                coded.push(s);
            }
            enc_tree.update(s);
        }
        let bytes = enc.finish().into_bytes();

        // The fused decoder must reproduce the coded symbols; replay the
        // skipped (escaped) updates outside the coder, as SymbolCoder does.
        let mut dec_tree = TreeModel::new(8, cfg);
        let mut dec = BinaryDecoder::new(BitReader::new(&bytes));
        let mut it = coded.iter();
        for &s in &symbols {
            if dec_tree.path_has_zero(s) {
                dec_tree.update(s);
            } else {
                assert_eq!(dec_tree.decode_and_update(&mut dec), *it.next().unwrap());
            }
        }
        assert_eq!(dec_tree, enc_tree, "decoder state diverged");
    }

    #[test]
    fn decision_path_replay_layout() {
        let t = TreeModel::new(3, cfg());
        let mut path = DecisionPath::empty();
        assert!(path.is_empty());
        let mut t2 = t.clone();
        assert!(!t2.capture_and_update(0b101, &mut path));
        assert_eq!(path.len(), 3);
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn rejects_insufficient_counter_width() {
        let cfg = EstimatorConfig {
            count_bits: 8,
            ..EstimatorConfig::default()
        };
        let _ = TreeModel::new(8, cfg);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_zero_depth() {
        let _ = TreeModel::new(0, cfg());
    }
}
