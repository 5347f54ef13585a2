//! Golden gate for the cycle-level simulator.
//!
//! The simulator stands in for the hardware: every measurement, every
//! inferred mapping and every benchmark checksum downstream is a function
//! of its output bits. These tests pin an FNV-1a checksum over the exact
//! `SimResult` of a fixed kernel corpus per platform — every singleton
//! plus a seeded sample of plain (`1:1`) and ratio (`m:n`) pairs, built
//! with the default measurement harness settings. The constants were
//! computed with the original window-rescanning simulator; any change to
//! the simulator that moves a single bit of `cycles_per_instance`,
//! `cycles_per_iter` or `total_cycles` on this corpus fails here.

use pmevo_core::{Experiment, InstId};
use pmevo_isa::LoopBuilder;
use pmevo_machine::{platforms, simulate_kernel, MeasureConfig, Platform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// All singletons of `p` plus `pairs` seeded pair experiments,
/// alternating plain `1:1` pairs and ratio pairs with counts in `1..=4`.
fn corpus(p: &Platform, seed: u64, pairs: usize) -> Vec<Experiment> {
    let n = p.isa().len() as u32;
    let mut out: Vec<Experiment> = (0..n).map(|i| Experiment::singleton(InstId(i))).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for k in 0..pairs {
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n - 1);
        if b >= a {
            b += 1;
        }
        let (m, c) = if k % 2 == 0 {
            (1, 1)
        } else {
            (rng.gen_range(1..=4u32), rng.gen_range(1..=4u32))
        };
        out.push(Experiment::pair(InstId(a), m, InstId(b), c));
    }
    out
}

/// FNV-1a over the bits of every result of simulating `corpus` on `p`
/// with the default harness settings (50-instruction bodies, 15 warm-up
/// and 75 measured iterations).
fn checksum(p: &Platform, corpus: &[Experiment]) -> u64 {
    let config = MeasureConfig::default();
    let builder = LoopBuilder::new(p.isa()).body_len(config.body_len);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in corpus {
        let kernel = builder.build(e);
        let r = simulate_kernel(
            p,
            &kernel,
            config.warmup_iters,
            config.warmup_iters + config.measure_iters,
        );
        for word in [
            r.cycles_per_instance.to_bits(),
            r.cycles_per_iter.to_bits(),
            r.total_cycles,
        ] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn check(p: Platform, seed: u64, pairs: usize, want: u64) {
    let corpus = corpus(&p, seed, pairs);
    let got = checksum(&p, &corpus);
    assert_eq!(
        got,
        want,
        "{}: simulator output moved on the {}-kernel golden corpus (got {got:#018x})",
        p.name(),
        corpus.len()
    );
}

#[test]
fn skl_golden_checksum() {
    check(platforms::skl(), 0x5EED_0001, 400, 0xf16a_0877_68f9_2056);
}

#[test]
fn zen_golden_checksum() {
    check(platforms::zen(), 0x5EED_0002, 400, 0xb2f6_3e4e_9de0_0726);
}

#[test]
fn a72_golden_checksum() {
    check(platforms::a72(), 0x5EED_0003, 400, 0xe3e6_3801_01bb_5156);
}

#[test]
fn tiny_golden_checksum() {
    check(platforms::tiny(), 0x5EED_0004, 120, 0x35f7_04c7_f740_3292);
}
