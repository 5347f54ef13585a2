//! PMEvo end-to-end benchmark harness.
//!
//! ```text
//! perfbench-harness --workload NAME --seed N --seconds S --trace 0|1
//!                   --daemon PATH/TO/pmevo-serve [--work DIR]
//! ```
//!
//! Every workload is one PMEvo user session: infer a port mapping with
//! `Session::run` (repeated for the inference share of `--seconds`), then
//! serve throughput predictions from it through a `pmevo-serve` daemon on
//! a Unix socket for the rest. The workloads differ in where the work
//! lies; see `perfbench/README.md`. The last line of standard output is
//! the JSON result: end-to-end metrics with `--trace 0`, per-layer
//! metrics (from spans and single-threaded probes) with `--trace 1`.

mod adapters;
mod infer;
mod serve;
mod stats;
mod trace;

use infer::{Fingerprint, InferSpec, Universe};
use pmevo_core::{MeasurementBudget, SelectionPolicy, ThreeLevelMapping, UopEntry};
use serve::Served;
use stats::{quantile, Metrics};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

struct Workload {
    name: &'static str,
    infer: InferSpec,
    /// Share of `--seconds` spent on inference; the rest serves.
    infer_share: f64,
    /// Platforms whose ground-truth artifacts are served beside the
    /// inferred mapping.
    platforms: &'static [&'static str],
    /// Distinct blocks in the bulk pool.
    pool: usize,
}

impl Workload {
    /// Serving dominates: `peak_rss_mb` is then the daemon's, and the
    /// batch-solver probe runs on the interactive blocks instead of the
    /// training corpus (each workload's dominant use of the kernel).
    fn serves_mostly(&self) -> bool {
        self.infer_share < 0.5
    }
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "infer-a72",
            infer: InferSpec {
                platform: "A72",
                forms: Some(80),
                selection: SelectionPolicy::OneShot,
                budget: MeasurementBudget::UNLIMITED,
                population: 100,
                generations: 30,
            },
            infer_share: 0.75,
            platforms: &[],
            pool: 1024,
        },
        Workload {
            name: "infer-skl-adaptive",
            infer: InferSpec {
                platform: "SKL",
                forms: None,
                selection: SelectionPolicy::Disagreement { top_k: 64 },
                budget: MeasurementBudget::measurements(1000),
                population: 64,
                generations: 20,
            },
            infer_share: 0.75,
            platforms: &[],
            pool: 1024,
        },
        Workload {
            name: "serve-mix",
            infer: InferSpec {
                platform: "A72",
                forms: Some(32),
                selection: SelectionPolicy::OneShot,
                budget: MeasurementBudget::UNLIMITED,
                population: 100,
                generations: 30,
            },
            infer_share: 0.2,
            platforms: &["SKL", "ZEN", "A72"],
            pool: 4096,
        },
    ]
}

const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("infer_s", "s"),
    ("measurements", "count"),
    ("serve_lines_per_s", "lines/s"),
    ("serve_rtt_p50_ms", "ms"),
    ("serve_rtt_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

// `heldout_mape_pct` is deterministic per seed but varies several-fold
// between seeds (the evolutionary search lands in different optima), far
// beyond any bound an end-to-end metric may have, so it is reported with
// the traced run and pinned per seed by the determinism ledger instead.
const PER_LAYER: [(&str, &str); 29] = [
    ("heldout_mape_pct", "%"),
    ("machine.measure_s", "s"),
    ("machine.measure_share", "fraction"),
    ("machine.batches", "count"),
    ("machine.us_per_measurement", "us"),
    ("machine.sim_us_per_kernel", "us"),
    ("machine.sim_cycles", "cycles"),
    ("machine.sim_mcycles_per_s", "Mcycles/s"),
    ("isa.loop_build_us", "us"),
    ("evo.self_s", "s"),
    ("evo.self_share", "fraction"),
    ("evo.round_self_ms", "ms"),
    ("evo.rounds", "count"),
    ("evo.classes", "count"),
    ("evo.fitness_us_per_candidate", "us"),
    ("evo.fitness_delta_us", "us"),
    ("evo.congruence_ms", "ms"),
    ("core.solver_ns_per_exp", "ns"),
    ("core.parse_ns_per_line", "ns"),
    ("predict.hit_rate", "fraction"),
    ("predict.misses", "count"),
    ("predict.miss_solve_ms", "ms"),
    ("predict.hit_ns_per_query", "ns"),
    ("predict.miss_ns_per_query", "ns"),
    ("serve.windows", "count"),
    ("serve.queries_per_window", "count"),
    ("serve.cross_connection_windows", "count"),
    ("serve.reload_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let required = |flag: &str| value(flag).ok_or_else(|| format!("missing {flag}"));
    let number = |flag: &str| -> Result<u64, String> {
        required(flag)?
            .parse()
            .map_err(|_| format!("{flag} expects a whole number"))
    };
    let trace = match required("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload: required("--workload")?.to_owned(),
        seed: number("--seed")?,
        seconds: number("--seconds")? as f64,
        trace,
        daemon: PathBuf::from(required("--daemon")?),
        work: PathBuf::from(value("--work").unwrap_or(".bench_work")),
    })
}

/// The mapping the daemon hot-swaps in on every other `!reload`: the
/// universe's ground truth, or (should inference have recovered it bit
/// for bit) the inferred mapping with one µop added.
fn reload_alternate(universe: &Universe, inferred: &ThreeLevelMapping) -> ThreeLevelMapping {
    let gt = universe.ground_truth();
    if &gt != inferred {
        return gt;
    }
    let mut m = inferred.clone();
    let first = m.decomposition(pmevo_core::InstId(0)).to_vec();
    let mut bumped = first.clone();
    bumped.push(UopEntry::new(1, first[0].ports));
    m.set_decomposition(pmevo_core::InstId(0), bumped);
    m
}

/// Deterministic values of earlier runs of the same workload and seed,
/// kept in the work directory: a run whose values differ fails.
fn check_ledger(dir: &Path, key: &str, values: &BTreeMap<&'static str, String>) -> Vec<String> {
    let path = dir.join("ledger").join(format!("{key}.txt"));
    let mut known: BTreeMap<String, String> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.split_once('=').map(|(k, v)| (k.to_owned(), v.to_owned())))
        .collect();
    let mut mismatches = Vec::new();
    for (k, v) in values {
        match known.get(*k) {
            Some(old) if old != v => {
                mismatches.push(format!("{k} is {v}, an earlier run of this seed had {old}"))
            }
            Some(_) => {}
            None => {
                known.insert((*k).to_owned(), v.clone());
            }
        }
    }
    let text: String = known.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    let _ = std::fs::create_dir_all(path.parent().expect("ledger path has a parent"));
    if let Err(e) = std::fs::write(&path, text) {
        mismatches.push(format!("cannot write {}: {e}", path.display()));
    }
    mismatches
}

struct RunResult {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn run(w: &Workload, args: &Args) -> RunResult {
    let mut out = RunResult {
        metrics: Metrics::default(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let dir = args.work.join(w.name);
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        out.errors
            .push(format!("cannot create {}: {e}", dir.display()));
        return out;
    }
    if let Err(e) = adapters::self_test() {
        out.errors.push(format!("adapter self-test: {e}"));
    }

    // Inference.
    let infer_budget = args.seconds * w.infer_share;
    let reps = infer::run_phase(
        &w.infer,
        args.seed,
        infer_budget,
        args.trace,
        if args.trace { 2 } else { 3 },
    );
    out.attempted += reps.len() as u64;
    let reference = reps.iter().find_map(|r| r.outcome.as_ref().ok());
    let Some(reference) = reference else {
        out.failed += reps.len() as u64;
        out.errors.extend(
            reps.iter()
                .filter_map(|r| r.outcome.as_ref().err().cloned())
                .take(1),
        );
        return out;
    };
    let fingerprint: Fingerprint = reference.fingerprint();
    for rep in &reps {
        match &rep.outcome {
            Err(e) => {
                out.failed += 1;
                out.errors.push(e.clone());
            }
            Ok(o) if o.fingerprint() != fingerprint => {
                out.failed += 1;
                out.errors.push(format!(
                    "rep fingerprint {:?} differs from {fingerprint:?}",
                    o.fingerprint()
                ));
            }
            Ok(_) => {}
        }
    }
    let m = &mut out.metrics;
    let untraced: Vec<f64> = reps
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.infer_s)
        .collect();
    let infer_setup = stats::median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    m.put("infer_s", stats::median(&untraced));
    m.put("measurements", fingerprint.measurements as f64);
    m.put("evo.classes", fingerprint.classes as f64);
    m.put("evo.rounds", fingerprint.rounds as f64);
    let universe = Universe::build(&w.infer);
    let mapping = &reference.report.mapping;
    let mape = infer::heldout_mape(&universe, mapping, args.seed);
    m.put("heldout_mape_pct", mape);
    if args.trace {
        infer::span_metrics(&reps, m);
    }

    // Serving.
    let mut served: Vec<Served> = w
        .platforms
        .iter()
        .map(|name| {
            let p = pmevo::machine::platforms::by_name(name).expect("built-in platform");
            Served {
                name: (*name).to_owned(),
                names: p.isa().forms().iter().map(|f| f.name.clone()).collect(),
                mapping: p.ground_truth().clone(),
                reload_to: None,
            }
        })
        .collect();
    served.push(Served {
        name: "INF".into(),
        names: universe.names(),
        mapping: mapping.clone(),
        reload_to: Some(reload_alternate(&universe, mapping)),
    });
    let serve_tracer = Tracer::new(args.trace);
    let serve_seconds = args.seconds - infer_budget;
    match serve::run_phase(
        &args.daemon,
        &dir,
        &served,
        w.pool,
        args.seed,
        serve_seconds,
        &serve_tracer,
    ) {
        Err(e) => out.errors.push(format!("serving phase: {e}")),
        Ok(s) => {
            let m = &mut out.metrics;
            m.put("setup_s", infer_setup + s.setup_s);
            m.put("serve_lines_per_s", s.lines_per_s);
            m.put("serve_rtt_p50_ms", quantile(&s.rtt_ms, 0.5));
            // p99 per run of 1000 consecutive requests (ten samples beyond
            // each), then the median: one scheduling hiccup moves one chunk.
            let p99s: Vec<f64> = s
                .rtt_ms
                .chunks_exact(1000)
                .map(|c| quantile(c, 0.99))
                .collect();
            m.put("serve_rtt_p99_ms", stats::median(&p99s));
            if s.rtt_ms.len() < 1000 {
                out.errors.push(format!(
                    "only {} interactive requests; p99 needs 1000",
                    s.rtt_ms.len()
                ));
            }
            let rss = if w.serves_mostly() {
                s.daemon_peak_rss_mb
            } else {
                serve::peak_rss_mb("/proc/self/status")
            };
            m.put("peak_rss_mb", rss);
            out.attempted += s.attempted;
            out.failed += s.failed;
            out.errors.extend(s.errors.iter().cloned());
            if args.trace {
                serve::stats_metrics(&s, m);
                let probe_tracer = Tracer::new(true);
                if let Some(traced) = reps
                    .iter()
                    .filter(|r| r.traced)
                    .find_map(|r| r.outcome.as_ref().ok())
                {
                    let probed =
                        infer::probes(&w.infer, &universe, traced, args.seed, &probe_tracer, m);
                    if let Err(e) = probed {
                        out.errors.push(format!("inference probe: {e}"));
                    }
                }
                // With `serves_mostly`, this replaces the training-corpus
                // `core.solver_ns_per_exp` with the interactive blocks'.
                let probed = serve::probes(&s, &served, w.serves_mostly(), &serve_tracer, m);
                if let Err(e) = probed {
                    out.errors.push(format!("serving probe: {e}"));
                }
                // The spans, written out now that the run is over.
                let mut dumps: Vec<(String, Vec<trace::Span>)> = reps
                    .iter()
                    .enumerate()
                    .filter_map(|(i, r)| {
                        r.outcome
                            .as_ref()
                            .ok()
                            .filter(|_| r.traced)
                            .map(|o| (format!("infer-{i}"), o.spans.clone()))
                    })
                    .collect();
                dumps.push(("serve".into(), serve_tracer.spans()));
                dumps.push(("probes".into(), probe_tracer.spans()));
                for (part, spans) in dumps {
                    let path = dir.join(format!("spans.{part}.jsonl"));
                    if let Err(e) = trace::write_jsonl(&spans, &path) {
                        out.errors
                            .push(format!("cannot write {}: {e}", path.display()));
                    }
                }
            }
        }
    }

    // Cross-run determinism.
    let mut values: BTreeMap<&'static str, String> = BTreeMap::new();
    values.insert("checksum", format!("{:016x}", fingerprint.checksum));
    values.insert("measurements", fingerprint.measurements.to_string());
    values.insert("classes", fingerprint.classes.to_string());
    values.insert("rounds", fingerprint.rounds.to_string());
    values.insert("heldout_mape_pct", format!("{:016x}", mape.to_bits()));
    if let Some(c) = out.metrics.get("machine.sim_cycles") {
        values.insert("machine.sim_cycles", format!("{:016x}", c.to_bits()));
    }
    let key = format!(
        "{}-{}-{:016x}",
        w.name,
        args.seed,
        pmevo_core::binfmt::fnv1a(format!("{:?}", w.infer).as_bytes())
    );
    let mismatches = check_ledger(&args.work, &key, &values);
    if !mismatches.is_empty() {
        out.failed += 1;
        out.errors.extend(mismatches);
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: perfbench-harness --workload NAME --seed N --seconds S --trace 0|1 --daemon PATH [--work DIR]");
            return ExitCode::from(2);
        }
    };
    let all = workloads();
    let Some(w) = all.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = all.iter().map(|w| w.name).collect();
        eprintln!(
            "error: unknown workload {:?} (expected one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let result = run(w, &args);
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut errors = result.errors;
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        match result.metrics.get(name) {
            Some(v) => {
                println!("{:<32} {v:>16.6} {unit}", name);
                fields.push(format!(r#""{name}":{{"value":{v},"unit":"{unit}"}}"#));
            }
            None => errors.push(format!("metric {name} was not measured")),
        }
    }
    let failed_ratio = result.failed as f64 / result.attempted.max(1) as f64;
    println!(
        "{:<32} {failed_ratio:>16.6} fraction ({} of {} operations)",
        "failed_ratio", result.failed, result.attempted
    );
    for e in &errors {
        eprintln!("error: {e}");
    }
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        errors.is_empty() && result.failed == 0,
        result.attempted.max(1),
        result.failed,
        fields.join(",")
    );
    ExitCode::SUCCESS
}
