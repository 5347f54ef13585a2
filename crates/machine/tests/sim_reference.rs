//! Differential test of the cycle-level simulator against a frozen
//! reference.
//!
//! `reference` below is the simulator's original loop, kept verbatim: it
//! rescans the whole scheduler window every cycle, removes issued µops
//! from the middle of a `VecDeque`, and simulates every iteration. The
//! library's event-driven simulator (idle-cycle skipping, steady-state
//! fast-forward) must reproduce it bit for bit on all three `SimResult`
//! fields, on random machines and kernels far outside the built-in
//! platforms: 1–10 ports, fetch width 1–8, windows of 1–200 µops,
//! port blocking 0–12, latencies 1–40, loop bodies from 1 to 120
//! instructions, register files down to 4 GPRs, forms with more reads
//! than the three tracked dependency slots, and runs too short for the
//! fast-forward to trigger.
//!
//! CI runs this file on its own with `PROPTEST_CASES=2048`. The crate is
//! held to `rustfmt` in CI; `#[rustfmt::skip]` keeps `reference` verbatim.

use pmevo_core::{Experiment, InstId, PortSet, ThreeLevelMapping, UopEntry};
use pmevo_isa::synth::{synthetic_arm, synthetic_x86, tiny_isa};
use pmevo_isa::{
    Access, InstructionForm, InstructionSet, Kernel, LoopBuilder, OpClass, OperandKind, Reg,
    RegClass, Width,
};
use pmevo_machine::platform::ExecParams;
use pmevo_machine::{simulate_kernel, Platform, PlatformInfo, SimResult};
use proptest::prelude::*;
use rand::Rng;

/// A µop waiting in the scheduler window.
#[derive(Debug, Clone, Copy)]
struct WindowUop {
    /// Index into the global instruction stream.
    inst_idx: usize,
    /// Compact port mask of the µop.
    ports: u64,
    /// Port-blocking duration.
    blocking: u32,
}

/// Per-dynamic-instruction bookkeeping.
#[derive(Debug, Clone, Copy)]
struct InstState {
    /// Producer instruction indices for each read operand (compressed:
    /// up to 3 tracked producers; extra reads fold into the max).
    deps: [usize; 3],
    /// Number of µops not yet issued.
    uops_left: u32,
    /// Max issue cycle among the instruction's µops so far.
    last_issue: u64,
    /// Cycle when results are available (`u64::MAX` until known).
    complete: u64,
    /// Result latency.
    latency: u32,
}

const NO_DEP: usize = usize::MAX;

/// Simulates `iters` iterations of `kernel` on `platform` and reports the
/// steady-state throughput measured over the post-warm-up iterations.
///
/// `warmup` iterations are excluded from the measurement; the defaults
/// used by [`Measurer`](crate::Measurer) are generous enough for every
/// built-in platform.
///
/// # Panics
///
/// Panics if the kernel is empty, `iters <= warmup`, or the kernel
/// references forms outside the platform's ISA.
#[rustfmt::skip]
fn reference(platform: &Platform, kernel: &Kernel, warmup: u32, iters: u32) -> SimResult {
    assert!(!kernel.is_empty(), "cannot simulate an empty kernel");
    assert!(iters > warmup, "need iters > warmup");

    let body = kernel.insts();
    let body_len = body.len();
    let num_ports = platform.num_ports();

    // Pre-resolve per-body-position µop lists and exec parameters.
    struct BodyEntry {
        uops: Vec<(u64, u32)>, // (port mask, blocking)
        latency: u32,
    }
    let entries: Vec<BodyEntry> = body
        .iter()
        .map(|ki| {
            let params = platform.exec_params(ki.inst);
            let uops = platform
                .ground_truth()
                .decomposition(ki.inst)
                .iter()
                .flat_map(|e| {
                    std::iter::repeat_n((e.ports.mask(), params.blocking), e.count as usize)
                })
                .collect();
            BodyEntry {
                uops,
                latency: params.latency,
            }
        })
        .collect();

    // Register rename table: last writer instruction index per register.
    let mut last_writer = [[NO_DEP; 64]; 2];
    let reg_slot = |r: Reg| -> (usize, usize) {
        let c = match r.class {
            RegClass::Gpr => 0,
            RegClass::Vec => 1,
        };
        (c, r.index as usize % 64)
    };

    let total_insts = body_len * iters as usize;
    let mut insts: Vec<InstState> = Vec::with_capacity(total_insts);
    let mut window: std::collections::VecDeque<WindowUop> =
        std::collections::VecDeque::with_capacity(platform.window_size() as usize + 8);

    let mut port_free_at = vec![0u64; num_ports];
    let mut cycle: u64 = 0;
    let mut next_fetch_inst = 0usize; // next dynamic instruction to rename
    let mut fetch_uop_pos = 0usize; // next µop within that instruction
    // Cycle at which the last instruction of each iteration finished
    // issuing; used for the steady-state measurement.
    let mut iter_end_cycle = vec![0u64; iters as usize];
    let mut iters_done = 0usize;

    let fetch_width = platform.fetch_width() as usize;
    let window_size = platform.window_size() as usize;

    while iters_done < iters as usize {
        // --- Issue: oldest-first greedy over waiting µops. ---
        let mut issued_any = false;
        let mut i = 0;
        while i < window.len() {
            let uop = window[i];
            let st = &insts[uop.inst_idx];
            // Operand readiness: all producers complete by this cycle.
            let ready = st
                .deps
                .iter()
                .all(|&d| d == NO_DEP || insts[d].complete <= cycle);
            if ready {
                // Find a free port in the µop's port set; rotate the
                // starting port with the cycle count to avoid systematic
                // bias toward low port numbers.
                let mut chosen = None;
                let start = (cycle as usize) % num_ports;
                for off in 0..num_ports {
                    let p = (start + off) % num_ports;
                    if (uop.ports >> p) & 1 == 1 && port_free_at[p] <= cycle {
                        chosen = Some(p);
                        break;
                    }
                }
                if let Some(p) = chosen {
                    port_free_at[p] = cycle + u64::from(uop.blocking);
                    let st = &mut insts[uop.inst_idx];
                    st.uops_left -= 1;
                    st.last_issue = st.last_issue.max(cycle);
                    if st.uops_left == 0 {
                        st.complete = st.last_issue + u64::from(st.latency);
                        // Iteration boundary: the last instruction of an
                        // iteration finished issuing.
                        let iter_idx = uop.inst_idx / body_len;
                        if uop.inst_idx % body_len == body_len - 1 {
                            iter_end_cycle[iter_idx] = st.last_issue;
                            iters_done += 1;
                        }
                    }
                    window.remove(i);
                    issued_any = true;
                    continue; // do not advance i: next µop shifted in
                }
            }
            i += 1;
        }

        // --- Fetch/rename: up to fetch_width µops into the window. ---
        let mut fetched = 0;
        while fetched < fetch_width
            && window.len() < window_size
            && next_fetch_inst < total_insts
        {
            let body_pos = next_fetch_inst % body_len;
            if fetch_uop_pos == 0 {
                // Rename the instruction: capture RAW producers.
                let ki = &body[body_pos];
                let mut deps = [NO_DEP; 3];
                let mut extra = NO_DEP;
                for (k, &r) in ki.reads.iter().enumerate() {
                    let (c, s) = reg_slot(r);
                    let producer = last_writer[c][s];
                    if k < 3 {
                        deps[k] = producer;
                    } else if producer != NO_DEP && (extra == NO_DEP || producer > extra) {
                        extra = producer;
                    }
                }
                if extra != NO_DEP {
                    // Fold surplus reads into the slot with the oldest dep.
                    deps[2] = if deps[2] == NO_DEP { extra } else { deps[2].max(extra) };
                }
                insts.push(InstState {
                    deps,
                    uops_left: entries[body_pos].uops.len() as u32,
                    last_issue: 0,
                    complete: u64::MAX,
                    latency: entries[body_pos].latency,
                });
                for &w in &ki.writes {
                    let (c, s) = reg_slot(w);
                    last_writer[c][s] = next_fetch_inst;
                }
            }
            let (ports, blocking) = entries[body_pos].uops[fetch_uop_pos];
            window.push_back(WindowUop {
                inst_idx: next_fetch_inst,
                ports,
                blocking,
            });
            fetch_uop_pos += 1;
            fetched += 1;
            if fetch_uop_pos == entries[body_pos].uops.len() {
                fetch_uop_pos = 0;
                next_fetch_inst += 1;
            }
        }

        // Guard against (impossible) livelock: if nothing happened and
        // nothing can happen, the model is broken — fail loudly.
        if !issued_any && fetched == 0 && window.is_empty() && next_fetch_inst >= total_insts {
            break;
        }
        cycle += 1;
    }

    let total_cycles = cycle;
    let w = warmup as usize;
    let n = iters as usize;
    let span = iter_end_cycle[n - 1].saturating_sub(iter_end_cycle[w]) as f64;
    let cycles_per_iter = span / (n - 1 - w) as f64;
    let cycles_per_instance = cycles_per_iter / f64::from(kernel.instances_per_iter());
    SimResult {
        cycles_per_iter,
        cycles_per_instance,
        total_cycles,
    }
}

/// Forms with more register reads than the three tracked dependency
/// slots (the surplus folds into the last slot), mixing register classes
/// and memory operands.
fn wide_isa() -> InstructionSet {
    use OperandKind as O;
    let (g, v) = (RegClass::Gpr, RegClass::Vec);
    let shapes: Vec<(OpClass, Vec<OperandKind>)> = vec![
        (
            OpClass::IntAlu,
            vec![
                O::reg_write(g, Width::W64),
                O::reg_read(g, Width::W64),
                O::reg_read(g, Width::W64),
                O::reg_read(g, Width::W64),
                O::reg_read(g, Width::W64),
            ],
        ),
        (
            OpClass::VecMul,
            vec![
                O::reg_write(v, Width::W128),
                O::reg_read(v, Width::W128),
                O::reg_read(g, Width::W64),
                O::reg_read(v, Width::W128),
                O::reg_read(g, Width::W64),
                O::Mem {
                    width: Width::W64,
                    access: Access::Read,
                },
            ],
        ),
        (
            OpClass::Load,
            vec![
                O::reg_write(g, Width::W64),
                O::Mem {
                    width: Width::W64,
                    access: Access::Read,
                },
            ],
        ),
        (
            OpClass::Store,
            vec![
                O::Mem {
                    width: Width::W64,
                    access: Access::Write,
                },
                O::reg_read(g, Width::W64),
                O::reg_read(v, Width::W128),
            ],
        ),
        (
            OpClass::IntMul,
            vec![
                O::reg_write(g, Width::W64),
                O::reg_write(v, Width::W128),
                O::reg_read(g, Width::W64),
            ],
        ),
    ];
    let mut isa = InstructionSet::new("wide");
    for (i, (class, ops)) in shapes.into_iter().enumerate() {
        isa.push(InstructionForm::new(format!("wide{i}"), class, ops, 0));
    }
    isa
}

/// A random machine over one of four ISAs: every form gets 1–3 µop
/// entries of 1–3 µops (mostly 1) on random non-empty port sets, a
/// latency in 1–40 and a port-blocking time in 0–12 (mostly 1:
/// pipelined).
fn random_platform(seed: u64, ports: usize, fetch: u32, window: u32, isa: usize) -> Platform {
    let mut rng = StdRng::seed_from_u64(seed);
    let isa = match isa {
        0 => tiny_isa(),
        1 => wide_isa(),
        2 => synthetic_x86(),
        _ => synthetic_arm(),
    };
    let mut decomp = Vec::with_capacity(isa.len());
    let mut exec = Vec::with_capacity(isa.len());
    for _ in 0..isa.len() {
        let entries = rng.gen_range(1..=3);
        decomp.push(
            (0..entries)
                .map(|_| {
                    let mask = rng.gen_range(1..(1u64 << ports));
                    let set: Vec<usize> = (0..ports).filter(|p| mask >> p & 1 == 1).collect();
                    let count = if rng.gen_range(0..3) == 0 {
                        rng.gen_range(2..=3)
                    } else {
                        1
                    };
                    UopEntry::new(count, PortSet::from_ports(&set))
                })
                .collect::<Vec<_>>(),
        );
        let blocking = if rng.gen_range(0..4) == 0 {
            rng.gen_range(0..=12)
        } else {
            1
        };
        exec.push(ExecParams {
            latency: rng.gen_range(1..=40),
            blocking,
        });
    }
    Platform::new(
        "RANDOM",
        PlatformInfo {
            manufacturer: "test".into(),
            processor: "random".into(),
            microarch: "random".into(),
            ports_desc: ports.to_string(),
            isa_name: isa.name().to_string(),
            clock_ghz: 1.0,
        },
        isa,
        ThreeLevelMapping::new(ports, decomp),
        exec,
        fetch,
        window,
    )
}

/// The smallest register file every form of `isa` can be allocated in:
/// one GPR per GPR operand plus the memory base pointer, one vector
/// register per vector operand.
fn register_floor(isa: &InstructionSet) -> (usize, usize) {
    let mut floor = (2, 1);
    for f in isa.forms() {
        let count = |c: RegClass| {
            f.operands
                .iter()
                .filter(|o| matches!(o, OperandKind::Reg { class, .. } if *class == c))
                .count()
        };
        floor.0 = floor.0.max(count(RegClass::Gpr) + 1);
        floor.1 = floor.1.max(count(RegClass::Vec));
    }
    floor
}

/// 1–4 forms of `p` drawn at random with counts 1–4 (a form drawn twice
/// adds up its counts).
fn random_experiment(p: &Platform, seed: u64, forms: usize) -> Experiment {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let n = p.isa().len() as u32;
    let counts: Vec<(InstId, u32)> = (0..forms)
        .map(|_| (InstId(rng.gen_range(0..n)), rng.gen_range(1..=4)))
        .collect();
    Experiment::from_counts(&counts)
}

/// `(warmup, iters)` pairs: the first two are too short for the
/// fast-forward to trigger.
const RUNS: [(u32, u32); 6] = [(0, 2), (1, 3), (2, 6), (3, 12), (5, 24), (10, 40)];

fn bits(r: SimResult) -> (u64, u64, u64) {
    (
        r.cycles_per_iter.to_bits(),
        r.cycles_per_instance.to_bits(),
        r.total_cycles,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The event-driven simulator reproduces the reference loop bit for
    /// bit: `cycles_per_iter`, `cycles_per_instance` and `total_cycles`.
    #[test]
    fn simulator_matches_the_reference_bit_for_bit(
        seed in 0u64..u64::MAX,
        ports in 1usize..=10,
        fetch in 1u32..=8,
        window in prop_oneof![1u32..=12, 1u32..=200],
        isa in 0usize..4,
        forms in 1usize..=4,
        body in prop_oneof![Just(1usize), Just(3usize), Just(7usize), Just(50usize), Just(120usize)],
        // 80 GPRs overflow the rename table's 64 slots per class, which
        // aliases registers modulo 64.
        (gprs, vecs) in (prop_oneof![4usize..=6, 4usize..=16, Just(80usize)], 1usize..=16),
        run in 0usize..RUNS.len(),
    ) {
        // Long runs on the longest body cost the reference seconds in
        // unoptimized builds; 12 iterations of 120 instructions already
        // leave the fast-forward room to trigger.
        let (warmup, iters) = RUNS[if body == 120 { run.min(3) } else { run }];
        let p = random_platform(seed, ports, fetch, window, isa);
        let e = random_experiment(&p, seed, forms);
        let (min_gprs, min_vecs) = register_floor(p.isa());
        let (gprs, vecs) = (usize::max(gprs, min_gprs), usize::max(vecs, min_vecs));
        let kernel = LoopBuilder::new(p.isa())
            .body_len(body)
            .register_file(gprs, vecs)
            .build(&e);
        let want = reference(&p, &kernel, warmup, iters);
        let got = simulate_kernel(&p, &kernel, warmup, iters);
        prop_assert_eq!(
            bits(got),
            bits(want),
            "seed {} ports {} fetch {} window {} isa {} forms {} body {} regs {}/{} run {}/{}: \
             got {:?}, reference {:?}",
            seed, ports, fetch, window, isa, forms, body, gprs, vecs, warmup, iters, got, want
        );
    }
}
