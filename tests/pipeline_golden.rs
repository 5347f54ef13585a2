//! Golden gate for the whole inference pipeline: FNV-1a hashes of what
//! a fixed set of TINY sessions produce — the report, the last
//! checkpoint on disk, and the checkpoints left by runs halted after 1,
//! 3 and 8 checkpoint writes — for every selection policy at one and two
//! islands. Resuming from any of those checkpoints must reproduce the
//! same report and leave the same last checkpoint.
//!
//! The hashes are absolute: a refactor of the pipeline that changes any
//! bit of its output fails here by name. After an intentional change,
//! the failure message prints the full replacement table.

mod common;

use common::{load_without_timings, ScratchDir};
use pmevo::core::binfmt::fnv1a;
use pmevo::core::checkpoint::CheckpointPhase;
use pmevo::core::{MeasurementBudget, SelectionPolicy};
use pmevo::machine::platforms;
use pmevo::{Session, SessionCheckpoint, SessionReport};
use std::path::Path;

/// Checkpoint-write counts after which the halted runs stop.
const HALTS: [u32; 3] = [1, 3, 8];

/// One pinned configuration and its hashes.
struct Golden {
    policy: SelectionPolicy,
    islands: u32,
    /// The uninterrupted run's `without_timings().to_json()`.
    report: u64,
    /// The last checkpoint the uninterrupted run leaves on disk (the
    /// pre-polish one for the adaptive policies).
    last_checkpoint: u64,
    /// The checkpoint left by the run halted after `HALTS[i]` writes.
    halted: [u64; 3],
}

const ONE_SHOT: SelectionPolicy = SelectionPolicy::OneShot;
const DISAGREEMENT: SelectionPolicy = SelectionPolicy::Disagreement { top_k: 3 };
const UNIFORM: SelectionPolicy = SelectionPolicy::Uniform { top_k: 3 };

const GOLDEN: [Golden; 6] = [
    Golden {
        policy: ONE_SHOT,
        islands: 1,
        report: 0xa90040f5565b12ce,
        last_checkpoint: 0xaeb38c8d6ef935e9,
        halted: [0xaeee7ff18b799c30, 0x3201468ad47c7076, 0x3a8bb9faad1084fa],
    },
    Golden {
        policy: ONE_SHOT,
        islands: 2,
        report: 0xd6ee15fca2ecf34e,
        last_checkpoint: 0x364688460d67aa1b,
        halted: [0xc0399b1775a8a280, 0x4cb516a4d44adcc9, 0xa89c92dbef81d4f0],
    },
    Golden {
        policy: DISAGREEMENT,
        islands: 1,
        report: 0x1891266807705cd7,
        last_checkpoint: 0xb49447492671b410,
        halted: [0xfe07fe91b7dee22f, 0x3da25599973c4d73, 0xd599dcde75f4e311],
    },
    Golden {
        policy: DISAGREEMENT,
        islands: 2,
        report: 0x99fd0268ee72e705,
        last_checkpoint: 0xd57dc8d0b4d9bb20,
        halted: [0x591bc83cb78c5b58, 0x9c3366ef94107840, 0x880146eff8994b5a],
    },
    Golden {
        policy: UNIFORM,
        islands: 1,
        report: 0x6d36d35426d77a08,
        last_checkpoint: 0x7925e2ebe4378b90,
        halted: [0xd1a77844b8247269, 0x5952e3c62ecc3c89, 0x9d30c8577e4a6b16],
    },
    Golden {
        policy: UNIFORM,
        islands: 2,
        report: 0xcea0b7914258b807,
        last_checkpoint: 0x80be7d66af19f17d,
        halted: [0x1009399ec79a7110, 0x7cc31de84107ca48, 0xa74b34762b5d2c2e],
    },
];

/// Runs one TINY session that checkpoints to `checkpoint` after every
/// generation: seed 77, population 24, 10 generations, 2 workers, 32
/// accuracy benchmarks, and a 30-measurement budget for the adaptive
/// policies.
fn run(
    policy: SelectionPolicy,
    islands: u32,
    checkpoint: &Path,
    halt_after: Option<u32>,
    resume: Option<SessionCheckpoint>,
) -> SessionReport {
    let mut builder = Session::builder()
        .platform(platforms::tiny())
        .seed(77)
        .population(24)
        .max_generations(10)
        .islands(islands)
        .accuracy_benchmarks(32)
        .selection(policy)
        .checkpoint(checkpoint, 1);
    if policy.is_adaptive() {
        builder = builder.budget(MeasurementBudget::measurements(30));
    }
    if let Some(n) = halt_after {
        builder = builder.halt_after_checkpoints(n);
    }
    if let Some(snapshot) = resume {
        builder = builder.resume_from(snapshot);
    }
    let mut session = builder.build().expect("session config is valid");
    session.set_worker_threads(2);
    session.run()
}

fn report_hash(report: &SessionReport) -> u64 {
    fnv1a(report.without_timings().to_json().as_bytes())
}

fn checkpoint_hash(path: &Path) -> u64 {
    fnv1a(load_without_timings(path).to_json().as_bytes())
}

fn tag(g: &Golden) -> String {
    format!("{}_i{}", g.policy.slug(), g.islands)
}

/// The phase a run halted after `writes` checkpoint writes stops in.
fn expected_phase(policy: SelectionPolicy, writes: u32) -> CheckpointPhase {
    match (policy.is_adaptive(), writes) {
        (false, _) => CheckpointPhase::OneShot,
        (true, 1 | 3) => CheckpointPhase::Round(0),
        (true, _) => CheckpointPhase::Round(1),
    }
}

#[test]
fn fresh_runs_match_the_golden_hashes() {
    let dir = ScratchDir::new("golden_fresh");
    let mut actual = Vec::new();
    for g in &GOLDEN {
        let last = dir.path(&format!("{}_full.json", tag(g)));
        let report = report_hash(&run(g.policy, g.islands, &last, None, None));
        let final_phase = if g.policy.is_adaptive() {
            CheckpointPhase::PrePolish
        } else {
            CheckpointPhase::OneShot
        };
        assert_eq!(load_without_timings(&last).phase, final_phase, "{}", tag(g));
        let mut halted = [0u64; 3];
        for (slot, &writes) in halted.iter_mut().zip(&HALTS) {
            let path = dir.path(&format!("{}_halt{writes}.json", tag(g)));
            run(g.policy, g.islands, &path, Some(writes), None);
            let phase = load_without_timings(&path).phase;
            assert_eq!(
                phase,
                expected_phase(g.policy, writes),
                "{} halted at {writes}",
                tag(g)
            );
            *slot = checkpoint_hash(&path);
        }
        actual.push((g, report, checkpoint_hash(&last), halted));
    }
    let table: String = actual
        .iter()
        .map(|(g, report, last, [h1, h3, h8])| {
            format!(
                "    Golden {{ policy: {}, islands: {}, report: {report:#018x}, \
                 last_checkpoint: {last:#018x}, halted: [{h1:#018x}, {h3:#018x}, {h8:#018x}] }},\n",
                match g.policy {
                    SelectionPolicy::OneShot => "ONE_SHOT",
                    SelectionPolicy::Disagreement { .. } => "DISAGREEMENT",
                    SelectionPolicy::Uniform { .. } => "UNIFORM",
                },
                g.islands
            )
        })
        .collect();
    let matches = actual.iter().all(|(g, report, last, halted)| {
        *report == g.report && *last == g.last_checkpoint && *halted == g.halted
    });
    assert!(
        matches,
        "pipeline output drifted; the hashes of this build are:\n{table}"
    );
}

#[test]
fn resumed_runs_reproduce_the_golden_hashes() {
    let dir = ScratchDir::new("golden_resume");
    for g in &GOLDEN {
        let full = dir.path(&format!("{}_full.json", tag(g)));
        run(g.policy, g.islands, &full, None, None);
        let mut starts = vec![("last".to_owned(), full)];
        for writes in HALTS {
            let path = dir.path(&format!("{}_halt{writes}.json", tag(g)));
            run(g.policy, g.islands, &path, Some(writes), None);
            starts.push((format!("halt{writes}"), path));
        }
        for (name, start) in starts {
            // The resumed run keeps checkpointing into a copy, so the
            // start file stays untouched.
            let live = dir.path(&format!("{}_{name}_resumed.json", tag(g)));
            std::fs::copy(&start, &live).expect("copy checkpoint");
            let snapshot = SessionCheckpoint::load(&live).expect("checkpoint loads");
            let report = run(g.policy, g.islands, &live, None, Some(snapshot));
            assert_eq!(
                report_hash(&report),
                g.report,
                "{} resumed from {name}",
                tag(g)
            );
            assert_eq!(
                checkpoint_hash(&live),
                g.last_checkpoint,
                "{} resumed from {name} left another last checkpoint",
                tag(g)
            );
        }
    }
}
