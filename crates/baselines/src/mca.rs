//! The llvm-mca-style baseline: a hand-maintained port-mapping model.
//!
//! llvm-mca predicts from LLVM's scheduling models, which are carefully
//! tuned for mainstream Intel chips but were coarse for AMD Zen+ and ARM
//! Cortex-A72 at the paper's time — the paper measures 9.7 % MAPE on SKL
//! versus 50.8 % / 65.3 % with systematic throughput *over-estimation* on
//! ZEN / A72 (Table 3/4, Figure 7).
//!
//! We reproduce that structure: the SKL model deviates from the ground
//! truth only in small ways, while the ZEN and A72 models make the
//! classic scheduling-model mistakes — too-narrow port groups, ignored
//! µop splitting, no double-pumping of 256-bit operations — which inflate
//! predicted cycle counts.

use pmevo_core::{MappingPredictor, PortSet, ThreeLevelMapping, UopEntry};
use pmevo_isa::{InstructionForm, OpClass};
use pmevo_machine::Platform;

fn ps(ports: &[usize]) -> PortSet {
    PortSet::from_ports(ports)
}

fn u(count: u32, ports: PortSet) -> UopEntry {
    UopEntry::new(count, ports)
}

/// SKL scheduling model: near-correct, with the small deviations typical
/// of a hand-maintained model (BTx family modeled as a single µop, the
/// divider pipe merged into port 0).
fn skl_model(f: &InstructionForm) -> Vec<UopEntry> {
    use OpClass::*;
    let mem_read = f
        .operands
        .iter()
        .any(|o| matches!(o, pmevo_isa::OperandKind::Mem { access, .. } if access.is_read()));
    let mut uops = match f.class {
        IntAlu => vec![u(1, ps(&[0, 1, 5, 6]))],
        Shift => vec![u(1, ps(&[0, 6]))],
        Lea => vec![u(1, ps(&[1, 5]))],
        IntMul => vec![u(1, ps(&[1]))],
        IntDiv => vec![u(1, ps(&[0])), u(6, ps(&[8]))],
        BitTest => vec![u(1, ps(&[0, 6]))], // deviation: BTx as one µop
        CondMove => vec![u(1, ps(&[0, 6]))],
        VecAlu => vec![u(1, ps(&[0, 1, 5]))],
        VecMul => vec![u(1, ps(&[0, 1]))],
        VecDiv => vec![u(1, ps(&[0])), u(4, ps(&[8]))],
        Shuffle => vec![u(1, ps(&[5]))],
        Convert => vec![u(1, ps(&[1])), u(1, ps(&[5]))],
        Load => vec![u(1, ps(&[2, 3]))],
        Store => vec![u(1, ps(&[4])), u(1, ps(&[2, 3, 7]))],
    };
    if mem_read && f.class != Load {
        uops.push(u(1, ps(&[2, 3])));
    }
    uops
}

/// ZEN scheduling model: the immature-model mistakes — integer ALUs
/// modeled on two ports instead of four, a single load pipe, no
/// double-pumped 256-bit handling, vector pipes over-merged.
fn zen_model(f: &InstructionForm) -> Vec<UopEntry> {
    use OpClass::*;
    let mem_read = f
        .operands
        .iter()
        .any(|o| matches!(o, pmevo_isa::OperandKind::Mem { access, .. } if access.is_read()));
    let mut uops = match f.class {
        IntAlu => vec![u(1, ps(&[0, 1]))], // reality: 4 ALU ports
        Shift => vec![u(1, ps(&[1]))],
        Lea => vec![u(1, ps(&[0, 1]))],
        IntMul => vec![u(1, ps(&[3]))],
        IntDiv => vec![u(16, ps(&[3]))], // over-estimates the divider
        BitTest => vec![u(1, ps(&[1]))],
        CondMove => vec![u(1, ps(&[0, 1]))],
        VecAlu => vec![u(1, ps(&[7]))], // reality: 3 vector pipes
        VecMul => vec![u(1, ps(&[7]))],
        VecDiv => vec![u(8, ps(&[7]))],
        Shuffle => vec![u(1, ps(&[7]))],
        Convert => vec![u(2, ps(&[7]))],
        Load => vec![u(1, ps(&[4]))], // reality: 2 load pipes
        Store => vec![u(1, ps(&[6]))],
    };
    if mem_read && f.class != Load {
        uops.push(u(1, ps(&[4])));
    }
    uops
}

/// A72 scheduling model: similar coarseness — one modeled integer port,
/// one modeled NEON port, shifted-operand forms not specialized.
fn a72_model(f: &InstructionForm) -> Vec<UopEntry> {
    use OpClass::*;
    let mem_read = f
        .operands
        .iter()
        .any(|o| matches!(o, pmevo_isa::OperandKind::Mem { access, .. } if access.is_read()));
    let mut uops = match f.class {
        IntAlu => vec![u(1, ps(&[0]))], // reality: 2 ALU ports
        Shift => vec![u(1, ps(&[0]))],
        Lea => vec![u(1, ps(&[0]))],
        BitTest => vec![u(1, ps(&[0]))],
        IntMul => vec![u(1, ps(&[2]))],
        IntDiv => vec![u(14, ps(&[2]))],
        CondMove => vec![u(1, ps(&[0]))],
        VecAlu => vec![u(1, ps(&[3]))], // reality: 2 NEON pipes
        VecMul => vec![u(1, ps(&[3]))],
        VecDiv => vec![u(8, ps(&[3]))],
        Shuffle => vec![u(1, ps(&[3]))],
        Convert => vec![u(1, ps(&[3]))],
        Load => vec![u(1, ps(&[5]))],
        Store => vec![u(1, ps(&[6]))],
    };
    if mem_read && f.class != Load {
        uops.push(u(1, ps(&[5])));
    }
    uops
}

/// Builds the llvm-mca-style predictor for one of the built-in
/// platforms.
///
/// # Panics
///
/// Panics if the platform is not one of `"SKL"`, `"ZEN"`, `"A72"`.
pub fn mca_like(platform: &Platform) -> MappingPredictor {
    let model: fn(&InstructionForm) -> Vec<UopEntry> = match platform.name() {
        "SKL" => skl_model,
        "ZEN" => zen_model,
        "A72" => a72_model,
        other => panic!("no llvm-mca model for platform {other}"),
    };
    let decomp = platform.isa().forms().iter().map(model).collect();
    let mapping = ThreeLevelMapping::new(platform.num_ports(), decomp);
    MappingPredictor::new("llvm-mca", mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmevo_core::{Experiment, InstId, ThroughputPredictor};
    use pmevo_machine::platforms;

    #[test]
    fn mca_covers_all_platforms() {
        for p in [platforms::skl(), platforms::zen(), platforms::a72()] {
            let m = mca_like(&p);
            assert_eq!(m.name(), "llvm-mca");
            assert_eq!(m.mapping().num_insts(), p.isa().len());
        }
    }

    #[test]
    fn mca_is_accurate_on_skl_but_overestimates_on_zen() {
        let skl = platforms::skl();
        let zen = platforms::zen();
        let mca_skl = mca_like(&skl);
        let mca_zen = mca_like(&zen);
        // Compare against ground-truth model on basic ALU experiments.
        let mut skl_err = 0.0;
        let mut zen_over = 0usize;
        let mut n = 0usize;
        for i in (0..60u32).step_by(3) {
            let e = Experiment::singleton(InstId(i));
            let t_skl = skl.ground_truth().throughput(&e);
            skl_err += (mca_skl.predict(&e) - t_skl).abs() / t_skl;
            let t_zen = zen.ground_truth().throughput(&e);
            if mca_zen.predict(&e) > t_zen * 1.2 {
                zen_over += 1;
            }
            n += 1;
        }
        assert!(skl_err / n as f64 <= 0.25, "SKL model too wrong");
        assert!(
            zen_over * 2 >= n,
            "expected systematic ZEN over-estimation ({zen_over}/{n})"
        );
    }

    #[test]
    #[should_panic(expected = "no llvm-mca model")]
    fn unknown_platform_panics() {
        let skl = platforms::skl();
        let custom = pmevo_machine::Platform::new(
            "CUSTOM",
            skl.info().clone(),
            skl.isa().clone(),
            skl.ground_truth().clone(),
            skl.isa().ids().map(|i| skl.exec_params(i)).collect(),
            4,
            97,
        );
        mca_like(&custom);
    }
}
