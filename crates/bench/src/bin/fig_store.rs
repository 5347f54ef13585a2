//! Memory-budget sweep for the budgeted [`MappingStore`]: what do
//! eviction and lazy reload cost — and what do they change — as the
//! number of registered mapping artifacts and the payload byte budget
//! vary?
//!
//! Usage: `cargo run --release -p pmevo-bench --bin fig_store
//!         [--mappings-list 4,16,64] [--budget-pcts 0,25,50,100]
//!         [--queries 3000] [--distinct 96] [--batch 64] [--seed 9]
//!         [--timings] [--out BENCH_store.json]`
//!
//! The workload is fully seeded: for each mapping count the sweep
//! generates that many synthetic binary artifacts (`.bin`, embedded
//! name tables) in a scratch directory of its own (removed when the
//! sweep ends), registers them as evictable
//! entries, and replays one seeded query stream — single worker, cache
//! off, fixed batch size — against an unbudgeted store and against
//! byte budgets at each percentage of the total payload size. Every
//! budgeted cell must answer **bit-identically** to the unbudgeted
//! reference (the sweep asserts it); what the budget changes is the
//! eviction/reload traffic and the resident byte count, which each cell
//! reports.
//!
//! **Without** `--timings` the artifact contains no wall-clock fields
//! and no filesystem paths, so two runs emit identical bytes and CI
//! `cmp`s them. With `--timings` each cell additionally reports
//! queries/second, making the cost of riding the reload path visible.

use pmevo_bench::Args;
use pmevo_core::binfmt::fnv1a;
use pmevo_core::json::{self, Value};
use pmevo_core::{Experiment, InstId, MappingArtifact, PortSet, ThreeLevelMapping, UopEntry};
use pmevo_predict::{MappingId, MappingStore, Predictor, PredictorConfig, ResidencyStats};
use pmevo_stats::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One seeded synthetic mapping artifact: a small random ISA with a
/// random decomposition — stand-in for one fleet machine's inferred
/// mapping.
fn synthetic_artifact(rng: &mut StdRng) -> MappingArtifact {
    let num_ports = rng.gen_range(2..=6usize);
    let num_insts = rng.gen_range(4..=12usize);
    let decomp = (0..num_insts)
        .map(|_| {
            (0..rng.gen_range(1..=3u32))
                .map(|_| {
                    let mask = rng.gen_range(1..(1u64 << num_ports));
                    UopEntry::new(rng.gen_range(1..=2), PortSet::from_mask(mask))
                })
                .collect()
        })
        .collect();
    let mapping = ThreeLevelMapping::new(num_ports, decomp);
    let names = (0..mapping.num_insts()).map(|i| format!("op{i}")).collect();
    MappingArtifact::new(names, mapping)
}

/// The fleet's scratch directory: private to this process, so
/// concurrent sweeps never share artifact files, and removed when the
/// sweep ends.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("pmevo_fig_store_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes `count` seeded artifacts into `dir` and returns their paths,
/// in registration order.
fn write_fleet(dir: &Path, count: usize, seed: u64) -> Vec<PathBuf> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let path = dir.join(format!("m{count}_{i}.bin"));
            std::fs::write(&path, synthetic_artifact(&mut rng).to_bytes())
                .expect("write artifact");
            path
        })
        .collect()
}

/// Registers the fleet into a store with the given budget. Entries are
/// registered from their files, so they are evictable and reloadable.
fn build_store(paths: &[PathBuf], budget: Option<u64>) -> MappingStore {
    let mut store = MappingStore::with_budget(budget);
    for (i, path) in paths.iter().enumerate() {
        store
            .insert_from_file(format!("M{i}"), path.to_str().expect("utf-8 path"), None)
            .expect("fleet artifact registers");
    }
    store
}

/// The seeded skewed query stream: `total` queries drawn from a pool of
/// `distinct` blocks spread over the fleet. Ids are registration-order,
/// so the same stream is valid against every store built from `paths`.
fn workload(
    store: &MappingStore,
    total: usize,
    distinct: usize,
    seed: u64,
) -> Vec<(MappingId, Experiment)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5706_e57a_b1e5);
    let ids: Vec<MappingId> = store.ids().collect();
    let pool: Vec<(MappingId, Experiment)> = (0..distinct)
        .map(|_| {
            let id = ids[rng.gen_range(0..ids.len())];
            let num_insts = store.get(id).num_insts();
            let counts: Vec<(InstId, u32)> = (0..rng.gen_range(1..=3u32))
                .map(|_| (InstId(rng.gen_range(0..num_insts as u32)), rng.gen_range(1..=3)))
                .collect();
            (id, Experiment::from_counts(&counts))
        })
        .collect();
    (0..total).map(|_| pool[rng.gen_range(0..pool.len())].clone()).collect()
}

struct CellResult {
    checksum: u64,
    stats: ResidencyStats,
    resident: usize,
    elapsed_ns: Option<u128>,
}

/// Replays the workload against one store configuration: single worker,
/// cache off, fixed batch size — the store (and its reload path) is the
/// only variable.
fn run_cell(
    paths: &[PathBuf],
    budget: Option<u64>,
    queries: &[(MappingId, Experiment)],
    batch: usize,
    timings: bool,
) -> CellResult {
    let store = build_store(paths, budget);
    let predictor = Predictor::new(store, PredictorConfig { workers: 1, cache_capacity: 0 });
    let mut cycles: Vec<f64> = Vec::with_capacity(queries.len());
    let started = Instant::now();
    for chunk in queries.chunks(batch.max(1)) {
        for result in predictor.try_predict_routed(chunk) {
            cycles.push(result.expect("artifacts stay readable for the whole sweep"));
        }
    }
    let elapsed = started.elapsed();
    let store = predictor.snapshot();
    // FNV-1a over the raw bits of every prediction, in query order:
    // equal checksums mean bit-identical serving results.
    let bits: Vec<u8> = cycles.iter().flat_map(|t| t.to_bits().to_le_bytes()).collect();
    CellResult {
        checksum: fnv1a(&bits),
        stats: store.residency_stats(),
        resident: store.resident_count(),
        elapsed_ns: timings.then_some(elapsed.as_nanos()),
    }
}

fn parse_list(args: &Args, name: &str, default: &str) -> Vec<usize> {
    args.get_str(name)
        .unwrap_or(default)
        .split(',')
        .map(|v| {
            v.trim()
                .parse()
                .unwrap_or_else(|_| panic!("--{name} expects comma-separated integers"))
        })
        .collect()
}

fn main() {
    let args = Args::parse();
    let seed = args.seed(9);
    let total = args.get_usize("queries", 3000);
    let distinct = args.get_usize("distinct", 96).max(1);
    let batch = args.get_usize("batch", 64);
    let mappings_list = parse_list(&args, "mappings-list", "4,16,64");
    let budget_pcts = parse_list(&args, "budget-pcts", "0,25,50,100");
    let timings = args.has("timings");
    let out = args.get_str("out").unwrap_or("BENCH_store.json").to_owned();

    println!(
        "fig_store: {total} queries over {distinct} distinct blocks per fleet, \
         single worker, cache off (seed {seed})\n"
    );

    let mut table = Table::new(vec![
        "mappings", "budget", "evictions", "reloads", "resident", "checksum", "q/s",
    ]);
    let mut rows = Vec::new();
    let scratch = ScratchDir::new();
    for &count in &mappings_list {
        let paths = write_fleet(&scratch.0, count, seed);
        let reference_store = build_store(&paths, None);
        let total_payload: u64 =
            reference_store.ids().map(|id| reference_store.get(id).payload_bytes()).sum();
        let queries = workload(&reference_store, total, distinct, seed);
        drop(reference_store);

        // The unbudgeted reference first, then every budgeted cell.
        let budgets: Vec<Option<u64>> = std::iter::once(None)
            .chain(budget_pcts.iter().map(|&pct| Some(total_payload * pct as u64 / 100)))
            .collect();
        let mut reference_checksum = None;
        for (cell, &budget) in budgets.iter().enumerate() {
            let r = run_cell(&paths, budget, &queries, batch, timings);
            match reference_checksum {
                None => reference_checksum = Some(r.checksum),
                Some(reference) => assert_eq!(
                    r.checksum, reference,
                    "a budget must never change a single answered bit \
                     ({count} mappings, budget {budget:?})"
                ),
            }
            let budget_label = match budget {
                None => "none".to_owned(),
                Some(b) => format!("{b} ({}%)", budget_pcts[cell - 1]),
            };
            let qps = r.elapsed_ns.map(|ns| total as f64 / (ns as f64 / 1e9));
            table.row(vec![
                count.to_string(),
                budget_label,
                r.stats.evictions.to_string(),
                r.stats.reloads.to_string(),
                format!("{}/{count}", r.resident),
                format!("{:016x}", r.checksum),
                qps.map(|q| format!("{q:.0}")).unwrap_or_else(|| "-".into()),
            ]);
            rows.push(Value::Obj(vec![
                ("mappings".into(), Value::UInt(count as u64)),
                (
                    "budget_pct".into(),
                    if cell == 0 {
                        Value::Null
                    } else {
                        Value::UInt(budget_pcts[cell - 1] as u64)
                    },
                ),
                ("budget_bytes".into(), budget.map_or(Value::Null, Value::UInt)),
                ("total_payload_bytes".into(), Value::UInt(total_payload)),
                ("evictions".into(), Value::UInt(r.stats.evictions)),
                ("reloads".into(), Value::UInt(r.stats.reloads)),
                ("resident_bytes".into(), Value::UInt(r.stats.resident_bytes)),
                ("name_bytes".into(), Value::UInt(r.stats.name_bytes)),
                ("resident".into(), Value::UInt(r.resident as u64)),
                ("checksum".into(), Value::UInt(r.checksum)),
                (
                    "queries_per_sec".into(),
                    qps.map(Value::Num).unwrap_or(Value::Null),
                ),
            ]));
        }
    }
    println!("{table}");

    let artifact = Value::Obj(vec![
        ("seed".into(), Value::UInt(seed)),
        ("queries".into(), Value::UInt(total as u64)),
        ("distinct".into(), Value::UInt(distinct as u64)),
        ("batch".into(), Value::UInt(batch as u64)),
        ("cells".into(), Value::Arr(rows)),
    ]);
    let text = json::write_pretty(&artifact);
    std::fs::write(&out, &text).expect("write BENCH_store.json");
    let parsed = json::parse(&text).expect("emitted artifact parses");
    let n = parsed.get("cells").and_then(Value::as_arr).expect("artifact has cells").len();
    assert_eq!(
        n,
        mappings_list.len() * (budget_pcts.len() + 1),
        "artifact covers every sweep cell"
    );
    println!("wrote {n} cells to {out}");
}
