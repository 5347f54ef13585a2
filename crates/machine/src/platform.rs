//! Machine descriptions with hidden ground-truth port mappings.
//!
//! Each platform assigns every instruction form a µop decomposition
//! (the ground truth PMEvo tries to recover), a result latency, and a
//! port-blocking duration (1 = fully pipelined; >1 models non-pipelined
//! units such as dividers, the exception the paper notes under
//! Definition 3). The decompositions follow the published structure of
//! the respective microarchitectures (Intel/AMD/ARM optimization guides,
//! uops.info) at the class × width × quirk granularity.

use pmevo_core::{InstId, PortSet, ThreeLevelMapping, UopEntry};
use pmevo_isa::{synth, InstructionForm, InstructionSet, OpClass};

/// Descriptive metadata of a platform (the rows of paper Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformInfo {
    /// Manufacturer analog (e.g. `"Intel-like"`).
    pub manufacturer: String,
    /// Processor analog (e.g. `"Core i7 6700 (simulated)"`).
    pub processor: String,
    /// Microarchitecture analog.
    pub microarch: String,
    /// Human-readable port summary (e.g. `"8 + DIV"`).
    pub ports_desc: String,
    /// Instruction-set name.
    pub isa_name: String,
    /// Nominal clock frequency in GHz (descriptive only; the simulator
    /// counts cycles).
    pub clock_ghz: f64,
}

/// Per-form execution parameters assigned by the ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecParams {
    /// Result latency in cycles (producer → consumer).
    pub latency: u32,
    /// Cycles each µop of the form occupies its port (1 = pipelined).
    pub blocking: u32,
}

/// A simulated machine: instruction set, ground-truth mapping, timing
/// parameters and pipeline shape.
///
/// # Example
///
/// ```
/// use pmevo_machine::platforms;
///
/// let skl = platforms::skl();
/// assert_eq!(skl.num_ports(), 9); // 8 + DIV pipe (paper Table 1)
/// assert_eq!(skl.isa().len(), 310);
/// ```
#[derive(Debug, Clone)]
pub struct Platform {
    name: String,
    info: PlatformInfo,
    isa: InstructionSet,
    ground_truth: ThreeLevelMapping,
    exec: Vec<ExecParams>,
    fetch_width: u32,
    window_size: u32,
}

impl Platform {
    /// Assembles a platform from its parts.
    ///
    /// # Panics
    ///
    /// Panics if table lengths disagree with the instruction set, or if
    /// `fetch_width`/`window_size` is zero.
    pub fn new(
        name: impl Into<String>,
        info: PlatformInfo,
        isa: InstructionSet,
        ground_truth: ThreeLevelMapping,
        exec: Vec<ExecParams>,
        fetch_width: u32,
        window_size: u32,
    ) -> Self {
        assert_eq!(ground_truth.num_insts(), isa.len(), "mapping/ISA mismatch");
        assert_eq!(exec.len(), isa.len(), "exec table/ISA mismatch");
        assert!(fetch_width > 0 && window_size > 0);
        Platform {
            name: name.into(),
            info,
            isa,
            ground_truth,
            exec,
            fetch_width,
            window_size,
        }
    }

    /// Short name used in result tables (`"SKL"`, `"ZEN"`, `"A72"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Descriptive metadata (paper Table 1).
    pub fn info(&self) -> &PlatformInfo {
        &self.info
    }

    /// The instruction set of the machine.
    pub fn isa(&self) -> &InstructionSet {
        &self.isa
    }

    /// The hidden ground-truth port mapping.
    ///
    /// PMEvo never reads this; it exists for the oracle baselines and for
    /// validating inferred mappings.
    pub fn ground_truth(&self) -> &ThreeLevelMapping {
        &self.ground_truth
    }

    /// Number of ports in the machine model.
    pub fn num_ports(&self) -> usize {
        self.ground_truth.num_ports()
    }

    /// Execution parameters of a form.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn exec_params(&self, id: InstId) -> ExecParams {
        self.exec[id.index()]
    }

    /// µops fetched/renamed per cycle.
    pub fn fetch_width(&self) -> u32 {
        self.fetch_width
    }

    /// Scheduler window capacity in µops.
    pub fn window_size(&self) -> u32 {
        self.window_size
    }
}

fn ps(ports: &[usize]) -> PortSet {
    PortSet::from_ports(ports)
}

fn u(count: u32, ports: PortSet) -> UopEntry {
    UopEntry::new(count, ports)
}

/// SKL-like ground truth for one form. Ports: 0,1,5,6 integer ALU;
/// 0,6 shifts/branch-adjacent; 1,5 lea/slow-int; 0,1,5 vector ALU;
/// 2,3 load; 4 store-data; 7 store-address (with 2,3); 8 the DIV pipe.
fn skl_decomp(f: &InstructionForm) -> (Vec<UopEntry>, ExecParams) {
    use OpClass::*;
    let w = f.max_width_bits();
    let mem_read = f
        .operands
        .iter()
        .any(|o| matches!(o, pmevo_isa::OperandKind::Mem { access, .. } if access.is_read()));
    let mut uops;
    let mut lat;
    let mut blocking = 1;
    match f.class {
        IntAlu => {
            uops = if f.quirk == 1 {
                vec![u(1, ps(&[0, 6]))]
            } else {
                vec![u(1, ps(&[0, 1, 5, 6]))]
            };
            lat = 1;
        }
        Shift => {
            uops = if f.quirk == 1 {
                vec![u(1, ps(&[1])), u(1, ps(&[0, 6]))]
            } else {
                vec![u(1, ps(&[0, 6]))]
            };
            lat = if f.quirk == 1 { 3 } else { 1 };
        }
        Lea => {
            uops = if f.quirk == 1 {
                vec![u(1, ps(&[1]))]
            } else {
                vec![u(1, ps(&[1, 5]))]
            };
            lat = if f.quirk == 1 { 3 } else { 1 };
        }
        IntMul => {
            uops = if f.quirk == 1 {
                vec![u(1, ps(&[1])), u(1, ps(&[5]))]
            } else {
                vec![u(1, ps(&[1]))]
            };
            lat = 3;
        }
        IntDiv => {
            let k = if w >= 64 { 8 } else { 4 };
            uops = vec![u(1, ps(&[0])), u(k, ps(&[8]))];
            lat = if w >= 64 { 36 } else { 24 };
        }
        BitTest => {
            uops = match f.quirk {
                0 => vec![u(1, ps(&[0, 6]))],
                4 => vec![u(1, ps(&[1]))],
                _ => vec![u(2, ps(&[0, 6]))],
            };
            lat = if f.quirk == 4 { 3 } else { 1 };
        }
        CondMove => {
            uops = vec![u(1, ps(&[0, 6]))];
            lat = 1;
        }
        VecAlu => {
            uops = vec![u(1, ps(&[0, 1, 5]))];
            lat = if f.name.starts_with("add") || f.name.starts_with("sub") {
                4
            } else {
                1
            };
        }
        VecMul => {
            uops = vec![u(1, ps(&[0, 1]))];
            lat = 4;
        }
        VecDiv => {
            let k = if w >= 256 { 5 } else { 3 };
            uops = vec![u(1, ps(&[0])), u(k, ps(&[8]))];
            lat = if f.quirk == 1 { 18 } else { 11 };
        }
        Shuffle => {
            uops = vec![u(1, ps(&[5]))];
            lat = 1;
        }
        Convert => {
            uops = vec![u(1, ps(&[1])), u(1, ps(&[5]))];
            lat = 4;
        }
        Load => {
            uops = vec![u(1, ps(&[2, 3]))];
            lat = 4;
        }
        Store => {
            uops = vec![u(1, ps(&[4])), u(1, ps(&[2, 3, 7]))];
            lat = 1;
        }
    }
    if mem_read && !matches!(f.class, Load) {
        uops.push(u(1, ps(&[2, 3])));
        lat += 4;
    }
    if matches!(f.class, IntDiv | VecDiv) {
        blocking = 1; // SKL models the divider as extra µops on port 8
    }
    (
        uops,
        ExecParams {
            latency: lat,
            blocking,
        },
    )
}

/// ZEN-like ground truth. Ports: 0–3 integer ALUs (3 also multiply/divide);
/// 4,5 AGU/load; 6 store; 7–9 FP/vector pipes. 256-bit operations split
/// into two 128-bit µops (Zen+ has 128-bit datapaths).
fn zen_decomp(f: &InstructionForm) -> (Vec<UopEntry>, ExecParams) {
    use OpClass::*;
    let w = f.max_width_bits();
    let dbl = if w >= 256 { 2 } else { 1 };
    let mem_read = f
        .operands
        .iter()
        .any(|o| matches!(o, pmevo_isa::OperandKind::Mem { access, .. } if access.is_read()));
    let mut uops;
    let mut lat;
    let mut blocking = 1;
    match f.class {
        IntAlu => {
            uops = if f.quirk == 1 {
                vec![u(1, ps(&[0, 1]))]
            } else {
                vec![u(1, ps(&[0, 1, 2, 3]))]
            };
            lat = 1;
        }
        Shift => {
            uops = if f.quirk == 1 {
                vec![u(1, ps(&[1, 2])), u(1, ps(&[0, 1, 2, 3]))]
            } else {
                vec![u(1, ps(&[1, 2]))]
            };
            lat = 1;
        }
        Lea => {
            uops = if f.quirk == 1 {
                vec![u(1, ps(&[1, 2]))]
            } else {
                vec![u(1, ps(&[0, 1, 2, 3]))]
            };
            lat = 1;
        }
        IntMul => {
            uops = if f.quirk == 1 {
                vec![u(1, ps(&[3])), u(1, ps(&[0, 1, 2, 3]))]
            } else {
                vec![u(1, ps(&[3]))]
            };
            lat = 3;
        }
        IntDiv => {
            uops = vec![u(1, ps(&[3]))];
            lat = if w >= 64 { 30 } else { 20 };
            blocking = if w >= 64 { 14 } else { 9 };
        }
        BitTest => {
            uops = match f.quirk {
                0 => vec![u(1, ps(&[1, 2]))],
                4 => vec![u(1, ps(&[0, 1, 2, 3]))],
                _ => vec![u(2, ps(&[1, 2]))],
            };
            lat = 1;
        }
        CondMove => {
            uops = vec![u(1, ps(&[0, 1, 2, 3]))];
            lat = 1;
        }
        VecAlu => {
            uops = vec![u(dbl, ps(&[7, 8, 9]))];
            lat = if f.name.contains("add") || f.name.contains("sub") {
                3
            } else {
                1
            };
        }
        VecMul => {
            uops = vec![u(dbl, ps(&[7]))];
            lat = 4;
        }
        VecDiv => {
            uops = vec![u(dbl, ps(&[9]))];
            lat = if f.quirk == 1 { 20 } else { 13 };
            blocking = if f.quirk == 1 { 9 } else { 5 };
        }
        Shuffle => {
            uops = vec![u(dbl, ps(&[8]))];
            lat = 1;
        }
        Convert => {
            uops = vec![u(1, ps(&[7])), u(1, ps(&[8]))];
            lat = 4;
        }
        Load => {
            uops = vec![u(dbl, ps(&[4, 5]))];
            lat = 4;
        }
        Store => {
            uops = vec![u(dbl, ps(&[6])), u(1, ps(&[4, 5]))];
            lat = 1;
        }
    }
    if mem_read && !matches!(f.class, Load) {
        uops.push(u(1, ps(&[4, 5])));
        lat += 4;
    }
    (
        uops,
        ExecParams {
            latency: lat,
            blocking,
        },
    )
}

/// A72-like ground truth. Ports: 0,1 integer ALUs; 2 the M pipe
/// (multiply/divide/shifted ops); 3,4 FP/NEON; 5 load; 6 store. The
/// branch port of the real A72 is omitted, as in the paper (§5.1.1).
fn a72_decomp(f: &InstructionForm) -> (Vec<UopEntry>, ExecParams) {
    use OpClass::*;
    let mem_read = f
        .operands
        .iter()
        .any(|o| matches!(o, pmevo_isa::OperandKind::Mem { access, .. } if access.is_read()));
    let mut uops;
    let mut lat;
    let mut blocking = 1;
    match f.class {
        IntAlu => {
            uops = if f.quirk == 1 {
                vec![u(1, ps(&[2]))] // shifted-operand forms use the M pipe
            } else {
                vec![u(1, ps(&[0, 1]))]
            };
            lat = if f.quirk == 1 { 2 } else { 1 };
        }
        Shift => {
            uops = vec![u(1, ps(&[0, 1]))];
            lat = 1;
        }
        Lea => {
            uops = vec![u(1, ps(&[0, 1]))];
            lat = 1;
        }
        BitTest => {
            uops = vec![u(1, ps(&[0, 1]))];
            lat = 1;
        }
        IntMul => {
            uops = if f.quirk == 1 {
                vec![u(1, ps(&[2])), u(1, ps(&[0, 1]))]
            } else {
                vec![u(1, ps(&[2]))]
            };
            lat = 3;
        }
        IntDiv => {
            uops = vec![u(1, ps(&[2]))];
            lat = 12;
            blocking = 12;
        }
        CondMove => {
            uops = vec![u(1, ps(&[0, 1]))];
            lat = 1;
        }
        VecAlu => {
            uops = vec![u(1, ps(&[3, 4]))];
            lat = 3;
        }
        VecMul => {
            uops = vec![u(1, ps(&[3]))];
            lat = 5;
        }
        VecDiv => {
            uops = vec![u(1, ps(&[3]))];
            lat = if f.quirk == 1 { 17 } else { 11 };
            blocking = if f.quirk == 1 { 10 } else { 6 };
        }
        Shuffle => {
            uops = vec![u(1, ps(&[4]))];
            lat = 3;
        }
        Convert => {
            uops = if f.quirk == 1 {
                vec![u(1, ps(&[3, 4])), u(1, ps(&[0, 1]))]
            } else {
                vec![u(1, ps(&[3, 4]))]
            };
            lat = 4;
        }
        Load => {
            uops = vec![u(1, ps(&[5]))];
            lat = 4;
        }
        Store => {
            uops = vec![u(1, ps(&[6]))];
            lat = 1;
        }
    }
    if mem_read && !matches!(f.class, Load) {
        uops.push(u(1, ps(&[5])));
        lat += 4;
    }
    (
        uops,
        ExecParams {
            latency: lat,
            blocking,
        },
    )
}

fn build(
    name: &str,
    info: PlatformInfo,
    isa: InstructionSet,
    num_ports: usize,
    decomp_fn: impl Fn(&InstructionForm) -> (Vec<UopEntry>, ExecParams),
    fetch_width: u32,
    window_size: u32,
) -> Platform {
    let mut decomp = Vec::with_capacity(isa.len());
    let mut exec = Vec::with_capacity(isa.len());
    for f in isa.forms() {
        let (uops, params) = decomp_fn(f);
        decomp.push(uops);
        exec.push(params);
    }
    let gt = ThreeLevelMapping::new(num_ports, decomp);
    Platform::new(name, info, isa, gt, exec, fetch_width, window_size)
}

/// The SKL-analog machine: 8 ports + DIV pipe, x86-like ISA, wide and
/// deep out-of-order engine (paper Table 1, Intel Core i7-6700).
pub fn skl() -> Platform {
    build(
        "SKL",
        PlatformInfo {
            manufacturer: "Intel-like".into(),
            processor: "Core i7 6700 (simulated)".into(),
            microarch: "Skylake".into(),
            ports_desc: "8 + DIV".into(),
            isa_name: "x86-64".into(),
            clock_ghz: 3.4,
        },
        synth::synthetic_x86(),
        9,
        skl_decomp,
        4,
        97,
    )
}

/// The ZEN-analog machine: 10 ports, x86-like ISA, 128-bit vector
/// datapaths (paper Table 1, AMD Ryzen 5 2600X).
pub fn zen() -> Platform {
    build(
        "ZEN",
        PlatformInfo {
            manufacturer: "AMD-like".into(),
            processor: "Ryzen 5 2600X (simulated)".into(),
            microarch: "Zen+".into(),
            ports_desc: "10".into(),
            isa_name: "x86-64".into(),
            clock_ghz: 3.6,
        },
        synth::synthetic_x86(),
        10,
        zen_decomp,
        5,
        72,
    )
}

/// The A72-analog machine: 7 ports (branch port omitted), ARM-like ISA,
/// narrow and shallow out-of-order engine — the paper attributes A72's
/// higher prediction error to exactly this (§5.3.2).
pub fn a72() -> Platform {
    build(
        "A72",
        PlatformInfo {
            manufacturer: "RockChip-like".into(),
            processor: "RK3399 (simulated)".into(),
            microarch: "Cortex-A72".into(),
            ports_desc: "7 + BR".into(),
            isa_name: "ARMv8-A".into(),
            clock_ghz: 1.8,
        },
        synth::synthetic_arm(),
        7,
        a72_decomp,
        3,
        40,
    )
}

/// TINY-like ground truth over the six-form toy ISA. Ports: 0,1 integer
/// ALU (0 also multiply; the divider is a 4-µop port-0 chain); 2 load;
/// 3 store; 1 vector. Everything is fully pipelined so the cycle-level
/// simulator tracks the bottleneck model closely — TINY exists for
/// smoke tests and CI sweeps where held-out accuracy should reflect
/// inference quality, not frontend artifacts.
fn tiny_decomp(f: &InstructionForm) -> (Vec<UopEntry>, ExecParams) {
    use OpClass::*;
    let (uops, lat) = match f.class {
        IntMul => (vec![u(1, ps(&[0]))], 3),
        IntDiv => (vec![u(4, ps(&[0]))], 8),
        Load => (vec![u(1, ps(&[2]))], 4),
        Store => (vec![u(1, ps(&[3]))], 1),
        VecAlu | VecMul | VecDiv | Shuffle | Convert => (vec![u(1, ps(&[1]))], 2),
        _ => (vec![u(1, ps(&[0, 1]))], 1),
    };
    (
        uops,
        ExecParams {
            latency: lat,
            blocking: 1,
        },
    )
}

/// The TINY toy machine: 4 ports over the six-form
/// [`pmevo_isa::synth::tiny_isa`] — small enough for smoke tests and CI
/// sweeps (`fig_budget` runs its budget × policy grid on it), yet with
/// real port structure (shared ALU ports, a port-restricted multiplier
/// and multi-µop divider, disjoint load/store pipes) so inference has
/// something to find.
pub fn tiny() -> Platform {
    build(
        "TINY",
        PlatformInfo {
            manufacturer: "toy".into(),
            processor: "toy core (simulated)".into(),
            microarch: "tiny".into(),
            ports_desc: "4".into(),
            isa_name: "tiny".into(),
            clock_ghz: 1.0,
        },
        synth::tiny_isa(),
        4,
        tiny_decomp,
        4,
        32,
    )
}

/// Looks up a built-in platform by its (case-insensitive) name —
/// `"SKL"`, `"ZEN"`, `"A72"` or `"TINY"` — the shared resolver behind
/// every CLI `--platform` flag and the serving layer's
/// mapping-artifact loading.
pub fn by_name(name: &str) -> Option<Platform> {
    match name.to_uppercase().as_str() {
        "SKL" => Some(skl()),
        "ZEN" => Some(zen()),
        "A72" => Some(a72()),
        "TINY" => Some(tiny()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_resolves_case_insensitively() {
        assert_eq!(by_name("skl").unwrap().name(), "SKL");
        assert_eq!(by_name("Tiny").unwrap().name(), "TINY");
        assert!(by_name("M1").is_none());
    }

    #[test]
    fn platforms_are_well_formed() {
        for (p, ports, forms) in [
            (skl(), 9, 310),
            (zen(), 10, 310),
            (a72(), 7, 390),
            (tiny(), 4, 6),
        ] {
            assert_eq!(p.num_ports(), ports, "{}", p.name());
            assert_eq!(p.isa().len(), forms, "{}", p.name());
            assert_eq!(p.ground_truth().num_insts(), forms);
            // Every form has at least one µop and sane parameters.
            for id in p.isa().ids() {
                assert!(!p.ground_truth().decomposition(id).is_empty());
                let e = p.exec_params(id);
                assert!(e.latency >= 1 && e.blocking >= 1);
            }
        }
    }

    #[test]
    fn skl_has_div_pipe_uops() {
        let p = skl();
        let div = p.isa().find("div_r64_r64").expect("div form exists");
        let d = p.ground_truth().decomposition(div);
        assert!(d.iter().any(|e| e.ports == ps(&[8]) && e.count > 1));
    }

    #[test]
    fn zen_doubles_256_bit_vector_ops() {
        let p = zen();
        let v128 = p.isa().find("paddd_v128_v128_v128").unwrap();
        let v256 = p.isa().find("paddd_v256_v256_v256").unwrap();
        let n128: u32 = p.ground_truth().num_uops_of(v128);
        let n256: u32 = p.ground_truth().num_uops_of(v256);
        assert_eq!(n256, 2 * n128);
        // ...while SKL executes both as one µop.
        let s = skl();
        assert_eq!(
            s.ground_truth().num_uops_of(v128),
            s.ground_truth().num_uops_of(v256)
        );
    }

    #[test]
    fn a72_divider_blocks_its_port() {
        let p = a72();
        let div = p.isa().find("sdiv_r64_r64_r64").unwrap();
        assert!(p.exec_params(div).blocking > 1);
    }

    #[test]
    fn ground_truth_congruence_exists() {
        // Plenty of forms must share decompositions (the basis of the
        // paper's congruence filtering working at all).
        let p = skl();
        let gt = p.ground_truth();
        let mut distinct: Vec<Vec<UopEntry>> = gt.decompositions().map(<[_]>::to_vec).collect();
        distinct.sort_by_key(|d| format!("{d:?}"));
        distinct.dedup();
        assert!(
            distinct.len() * 2 < p.isa().len(),
            "only {} distinct decompositions over {} forms",
            distinct.len(),
            p.isa().len()
        );
    }
}
