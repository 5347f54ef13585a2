//! The fitness hot path performs **zero heap allocations per evaluation
//! after warm-up**, verified with a counting global allocator, on a small
//! 5-port set and on a 9-port, SKL-sized one that takes the factored
//! subset-table path.
//!
//! The counter is a per-thread cell, so allocations by the libtest
//! harness (which runs on its own threads) cannot leak into the measured
//! window — only what the evaluating thread itself allocates counts.

use pmevo_core::{Experiment, InstId, MeasuredExperiment, PortSet, ThreeLevelMapping, UopEntry};
use pmevo_evo::FitnessEngine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

std::thread_local! {
    /// Const-initialized so reading/bumping it never allocates itself.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

fn bump() {
    // `try_with`: allocations during TLS teardown are simply not counted.
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn uop(count: u32, ports: &[usize]) -> UopEntry {
    UopEntry::new(count, PortSet::from_ports(ports))
}

/// Singleton and pair experiments over every instruction of `gt`,
/// labeled by its own predictions.
fn labeled_experiments(gt: &ThreeLevelMapping) -> Vec<MeasuredExperiment> {
    let n = gt.num_insts() as u32;
    let mut exps = Vec::new();
    for i in 0..n {
        exps.push(Experiment::singleton(InstId(i)));
        for j in (i + 1)..n {
            exps.push(Experiment::pair(InstId(i), 2, InstId(j), 1));
        }
    }
    exps.into_iter()
        .map(|e| {
            let t = gt.throughput(&e);
            MeasuredExperiment::new(e, t)
        })
        .collect()
}

/// A 6-instruction, 5-port ground truth with singleton + pair
/// experiments labeled by its own predictions.
fn small_training_set() -> (ThreeLevelMapping, Vec<MeasuredExperiment>) {
    let gt = ThreeLevelMapping::new(
        5,
        vec![
            vec![uop(1, &[0])],
            vec![uop(1, &[0, 1])],
            vec![uop(2, &[1, 2]), uop(1, &[3])],
            vec![uop(1, &[2, 3, 4])],
            vec![uop(3, &[4])],
            vec![uop(1, &[0, 4]), uop(1, &[1, 2])],
        ],
    );
    let measured = labeled_experiments(&gt);
    (gt, measured)
}

/// A 9-port, SKL-sized training set: 30 instructions of 1–4 µop
/// bundles each (deterministic pseudo-random port sets), 465 singleton
/// and pair experiments — the shape the factored path serves.
fn skl_sized_training_set() -> (ThreeLevelMapping, Vec<MeasuredExperiment>) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let decomp = (0..30)
        .map(|_| {
            let bundles = 1 + next() % 4;
            (0..bundles)
                .map(|_| {
                    let mask = 1 + next() % 511;
                    UopEntry::new(1 + (next() % 3) as u32, PortSet::from_mask(mask))
                })
                .collect()
        })
        .collect();
    let gt = ThreeLevelMapping::new(9, decomp);
    let measured = labeled_experiments(&gt);
    (gt, measured)
}

#[test]
fn hot_path_is_allocation_free_after_warmup() {
    for (gt, measured) in [small_training_set(), skl_sized_training_set()] {
        assert_allocation_free(&gt, &measured);
    }
}

fn assert_allocation_free(gt: &ThreeLevelMapping, measured: &[MeasuredExperiment]) {
    // Thread count 1: a batch runs on the calling thread and allocates
    // only its result vectors (per *batch*, not per evaluation); the
    // per-evaluation claim is about the solver path, measured here.
    let mut engine = FitnessEngine::new(measured, 1);

    let m1 = gt.clone();
    let mut m2 = gt.clone();
    m2.set_decomposition(InstId(0), vec![uop(2, &[0, 1]), uop(1, &[2])]);

    // Warm-up: grow every scratch buffer (zeta window, loaded-mapping
    // tables, subset-sum tables, delta staging, error cache) to
    // steady-state size.
    for _ in 0..3 {
        engine.evaluate(&m1);
        engine.evaluate(&m2);
    }
    let mut cache = engine.build_cache(&m1);
    engine.try_update(&m2, &cache, InstId(0));
    engine.commit_update(&mut cache);
    engine.try_update(&m1, &cache, InstId(0));
    engine.commit_update(&mut cache);

    let before = thread_allocations();
    let mut acc = 0.0f64;
    for _ in 0..64 {
        // Full evaluations...
        acc += engine.evaluate(&m1).error;
        acc += engine.evaluate(&m2).error;
        // ...and delta evaluations, committed both ways.
        acc += engine.try_update(&m2, &cache, InstId(0)).error;
        engine.commit_update(&mut cache);
        acc += engine.try_update(&m1, &cache, InstId(0)).error;
        engine.commit_update(&mut cache);
    }
    let after = thread_allocations();

    assert!(acc.is_finite());
    assert_eq!(
        after - before,
        0,
        "fitness hot path allocated {} times across 256 evaluations on {} ports",
        after - before,
        gt.num_ports()
    );
}
