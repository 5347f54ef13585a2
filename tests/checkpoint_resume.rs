//! Checkpoint/resume test pyramid: a session killed at an arbitrary
//! checkpoint and resumed from the artifact must reproduce the
//! uninterrupted run bit-for-bit (timings aside), for every worker
//! count and island count — plus a golden on-disk fixture that pins the
//! v1 artifact format itself.

mod common;

use common::{load_without_timings, ScratchDir};
use proptest::prelude::*;
use pmevo::core::{MeasurementBudget, SelectionPolicy};
use pmevo::machine::platforms;
use pmevo::{Session, SessionCheckpoint, SessionReport};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Everything that parameterizes one inference run in these tests.
#[derive(Clone, Copy)]
struct Run {
    seed: u64,
    islands: u32,
    workers: usize,
    /// `true` → adaptive (disagreement selection under a budget),
    /// `false` → one-shot over the full corpus.
    adaptive: bool,
}

/// Build and run a TINY-platform session. `checkpoint` is
/// `(path, every, halt_after)`; `halt_after = 0` means run to the end.
fn run_session(
    run: Run,
    checkpoint: Option<(&Path, u32, u32)>,
    resume: Option<SessionCheckpoint>,
) -> SessionReport {
    let mut builder = Session::builder()
        .platform(platforms::tiny())
        .seed(run.seed)
        .population(24)
        .max_generations(10)
        .islands(run.islands)
        .accuracy_benchmarks(6);
    if run.adaptive {
        builder = builder
            .selection(SelectionPolicy::Disagreement { top_k: 3 })
            .budget(MeasurementBudget::measurements(30));
    }
    if let Some((path, every, halt_after)) = checkpoint {
        builder = builder.checkpoint(path, every);
        if halt_after > 0 {
            builder = builder.halt_after_checkpoints(halt_after);
        }
    }
    if let Some(snapshot) = resume {
        builder = builder.resume_from(snapshot);
    }
    let mut session = builder.build().expect("session config is valid");
    session.set_worker_threads(run.workers);
    session.run()
}

/// Run the kill → resume → compare cycle once and return
/// `(uninterrupted, resumed)` reports.
fn kill_and_resume(
    run: Run,
    dir: &ScratchDir,
    tag: &str,
    halt_after: u32,
) -> (SessionReport, SessionReport) {
    let ck = dir.path(&format!("ck_{tag}.json"));
    let full = run_session(run, None, None);
    let halted = run_session(run, Some((&ck, 1, halt_after)), None);
    // The halted run must actually have stopped early, or the test
    // degenerates into comparing two complete runs.
    assert!(
        halted.rounds.len() <= full.rounds.len(),
        "halted run ran past the uninterrupted one"
    );
    let snapshot = SessionCheckpoint::load(&ck).expect("halted run wrote a checkpoint");
    let resumed = run_session(run, Some((&ck, 1, 0)), Some(snapshot));
    (full, resumed)
}

/// The acceptance bar from the issue: an adaptive session killed
/// mid-flight and resumed from its checkpoint produces a report
/// bit-identical to the uninterrupted run — at 1, 2 and 8 workers.
#[test]
fn killed_adaptive_session_resumes_bit_identically_at_1_2_8_workers() {
    let dir = ScratchDir::new("adaptive_workers");
    let mut reports = Vec::new();
    for workers in [1usize, 2, 8] {
        let run = Run { seed: 77, islands: 2, workers, adaptive: true };
        let (full, resumed) = kill_and_resume(run, &dir, &format!("w{workers}"), 3);
        assert_eq!(
            resumed.without_timings(),
            full.without_timings(),
            "resume diverged at {workers} workers"
        );
        reports.push(full.without_timings());
    }
    // And the uninterrupted runs themselves are worker-count invariant.
    assert_eq!(reports[0], reports[1], "1 vs 2 workers");
    assert_eq!(reports[0], reports[2], "1 vs 8 workers");
}

/// Same bar for the one-shot pipeline, which snapshots mid-evolution
/// rather than between selection rounds.
#[test]
fn killed_one_shot_session_resumes_bit_identically() {
    let dir = ScratchDir::new("one_shot");
    for workers in [1usize, 2, 8] {
        let run = Run { seed: 5, islands: 3, workers, adaptive: false };
        let (full, resumed) = kill_and_resume(run, &dir, &format!("w{workers}"), 2);
        assert_eq!(
            resumed.without_timings(),
            full.without_timings(),
            "one-shot resume diverged at {workers} workers"
        );
    }
}

/// The island × worker bit-identity matrix: for each island count, all
/// worker counts agree, and for a fixed seed the report depends only on
/// the island count.
#[test]
fn island_reports_are_worker_count_invariant() {
    for islands in [1u32, 2, 4] {
        let reference = run_session(
            Run { seed: 11, islands, workers: 1, adaptive: false },
            None,
            None,
        )
        .without_timings();
        for workers in [2usize, 8] {
            let report = run_session(
                Run { seed: 11, islands, workers, adaptive: false },
                None,
                None,
            );
            assert_eq!(
                report.without_timings(),
                reference,
                "islands={islands} diverged at {workers} workers"
            );
        }
    }
}

/// A resumed run must not re-measure experiments the checkpointed
/// segment already paid for: total measurements across the kill/resume
/// cycle equal the uninterrupted run's.
#[test]
fn resume_does_not_re_measure() {
    let dir = ScratchDir::new("billing");
    let run = Run { seed: 3, islands: 2, workers: 2, adaptive: true };
    let (full, resumed) = kill_and_resume(run, &dir, "billing", 2);
    assert_eq!(resumed.measurements_performed, full.measurements_performed);
}

/// A resumed run reports the previous process's measurement time as
/// benchmarking time, but its inference time is its own wall time minus
/// its own measurement time — not minus the previous process's too.
#[test]
fn resumed_run_reports_its_own_inference_time() {
    let hour = Duration::from_secs(3600);
    for adaptive in [true, false] {
        let dir = ScratchDir::new(&format!("inference_time_{adaptive}"));
        let ck = dir.path("ck.json");
        let run = Run { seed: 7, islands: 1, workers: 2, adaptive };
        run_session(run, Some((&ck, 1, 3)), None);
        let mut snapshot = SessionCheckpoint::load(&ck).expect("halted run wrote a checkpoint");
        snapshot.used.measurement_time = hour;
        let resumed = run_session(run, Some((&ck, 1, 0)), Some(snapshot));
        assert!(resumed.inference_time > Duration::ZERO, "adaptive={adaptive}");
        assert!(resumed.benchmarking_time >= hour, "adaptive={adaptive}");
    }
}

proptest! {
    // Each case runs three full inference sessions; keep the budget
    // small (PROPTEST_CASES only caps this downward).
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Kill/resume fuzz: checkpoint at a random generation of a run
    /// with random seed/island-count/pipeline, drop the session, resume
    /// from the artifact — the final report is bit-identical to the
    /// uninterrupted run.
    #[test]
    fn resume_from_any_checkpoint_reproduces_the_uninterrupted_run(
        seed in 0u64..10_000,
        halt_after in 1u32..6,
        islands in 1u32..5,
        adaptive in 0u32..2,
    ) {
        let adaptive = adaptive == 1;
        let dir = ScratchDir::new("fuzz");
        let run = Run { seed, islands, workers: 2, adaptive };
        let tag = format!("s{seed}_h{halt_after}_i{islands}_{adaptive}");
        let (full, resumed) = kill_and_resume(run, &dir, &tag, halt_after);
        prop_assert_eq!(resumed.without_timings(), full.without_timings());
    }
}

/// Path of the committed golden checkpoint artifact.
fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint_v1.json")
}

/// The parameters the golden fixture was generated with; the regen test
/// below and the decode test must agree on them.
const GOLDEN: Run = Run { seed: 424_242, islands: 2, workers: 2, adaptive: true };

/// The committed v1 artifact keeps decoding: old checkpoints stay
/// resumable as the code evolves. Also pins the canonical round trip.
#[test]
fn golden_checkpoint_v1_still_decodes() {
    let text = std::fs::read_to_string(fixture_path()).expect("golden fixture present");
    let cp = SessionCheckpoint::from_json(&text).expect("golden v1 checkpoint decodes");
    assert_eq!(cp.seed, GOLDEN.seed);
    assert_eq!(cp.islands, GOLDEN.islands);
    assert_eq!(cp.num_insts, platforms::tiny().isa().len());
    assert_eq!(cp.num_ports, platforms::tiny().num_ports());
    assert_eq!(cp.selection, SelectionPolicy::Disagreement { top_k: 3 });
    assert_eq!(cp.budget, MeasurementBudget::measurements(30));
    let evo = cp.evo.as_ref().expect("mid-evolution checkpoint carries state");
    assert_eq!(evo.islands.len(), GOLDEN.islands as usize);
    for island in &evo.islands {
        assert_eq!(island.population.len(), cp.population_size as usize);
    }
    // Canonical form survives a decode → encode → decode cycle.
    let again = SessionCheckpoint::from_json(&cp.to_json()).expect("round trip decodes");
    assert_eq!(again, cp);
}

/// The golden fixture still resumes to the same report as the
/// uninterrupted run with its recorded parameters.
#[test]
fn golden_checkpoint_v1_still_resumes() {
    let dir = ScratchDir::new("golden_resume");
    let ck = dir.path("golden_live.json");
    // Copy the fixture so the resumed run's own checkpoints don't
    // overwrite the committed artifact.
    std::fs::copy(fixture_path(), &ck).expect("copy fixture into scratch");
    let snapshot = SessionCheckpoint::load(&ck).expect("golden fixture loads");
    let resumed = run_session(GOLDEN, Some((&ck, 1, 0)), Some(snapshot));
    let full = run_session(GOLDEN, None, None);
    assert_eq!(resumed.without_timings(), full.without_timings());
}

/// The fixture-generation procedure: halt the golden run after its
/// second checkpoint and write that checkpoint to `out` with its
/// wall-clock fields — the only run-to-run unstable ones — zeroed.
fn write_golden_fixture(name: &str, out: &Path) {
    let dir = ScratchDir::new(name);
    let ck = dir.path("ck.json");
    let _ = run_session(GOLDEN, Some((&ck, 1, 2)), None);
    load_without_timings(&ck).save(out).expect("write golden fixture");
}

/// The committed fixture is exactly what this build generates: the
/// procedure above, written to a scratch path, reproduces it byte for
/// byte.
#[test]
fn golden_checkpoint_v1_regenerates_byte_for_byte() {
    let dir = ScratchDir::new("golden_regen_check");
    let out = dir.path("regenerated.json");
    write_golden_fixture("golden_regen_check_run", &out);
    let regenerated = std::fs::read(&out).expect("regenerated fixture");
    let committed = std::fs::read(fixture_path()).expect("golden fixture present");
    assert!(regenerated == committed, "the golden checkpoint fixture no longer regenerates");
}

/// Regenerates `tests/fixtures/checkpoint_v1.json`. Run explicitly
/// (`cargo test -- --ignored regenerate_golden`) after an intentional
/// format change, then commit the new artifact.
#[test]
#[ignore = "writes the committed golden fixture; run by hand after intentional format changes"]
fn regenerate_golden_checkpoint_fixture() {
    write_golden_fixture("golden_regen", &fixture_path());
}
