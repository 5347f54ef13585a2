//! Serving-throughput sweep for the `pmevo-predict` layer: how many
//! sequences per second does a [`Predictor`] answer as batch size,
//! worker count and result caching vary?
//!
//! Usage: `cargo run --release -p pmevo-bench --bin fig_predict
//!         [--platform SKL,ZEN,A72] [--sequences 20000] [--distinct 400]
//!         [--batches 1,64,1024] [--jobs-list 1,2,8] [--cache 65536]
//!         [--seed 5] [--timings] [--out BENCH_predict.json]`
//!
//! The workload is a seeded, skewed query stream — `--sequences` queries
//! drawn from a pool of `--distinct` basic blocks across a 3-platform
//! [`MappingStore`] (ground-truth mappings stand in for deployed
//! inferred artifacts) — replayed identically against every sweep cell.
//! Every cell reports deterministic serving counters (hit rate, a
//! checksum over all predicted cycles in query order): **without**
//! `--timings` the artifact contains no wall-clock fields at all, so two
//! runs emit identical bytes and CI `cmp`s them, exactly like
//! `fig_budget`. With `--timings` each cell additionally reports
//! sequences/second, and the artifact gains the headline ratio
//! `speedup_cached_batch_vs_uncached_single` (the cached, batched,
//! pooled path vs per-sequence uncached prediction).
//!
//! Every configuration is paired with a `cache_capacity: 0` companion
//! cell, so the 0%-hit-rate (pure miss-path) throughput is always part
//! of the sweep; `--cache 0` collapses the sweep to *only* those
//! uncached cells — the CI determinism gate runs that mode double and
//! `cmp`s the artifacts.

use pmevo_bench::Args;
use pmevo_core::binfmt::fnv1a;
use pmevo_core::json::{self, Value};
use pmevo_core::{Experiment, InstId};
use pmevo_machine::platforms;
use pmevo_predict::{MappingId, MappingStore, Predictor, PredictorConfig};
use pmevo_stats::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// One sweep cell: a serving configuration the workload is replayed
/// against.
struct Cell {
    batch: usize,
    workers: usize,
    cache_capacity: usize,
}

struct CellResult {
    hit_rate: f64,
    cache_hits: u64,
    checksum: u64,
    total_cycles: f64,
    elapsed_ns: Option<u128>,
}

fn build_store(platform_names: &[String]) -> MappingStore {
    let mut store = MappingStore::new();
    for name in platform_names {
        let p = platforms::by_name(name)
            .unwrap_or_else(|| panic!("unknown platform {name:?}; expected SKL, ZEN, A72 or TINY"));
        let names = p.isa().forms().iter().map(|f| f.name.clone()).collect();
        store.insert(p.name(), names, p.ground_truth().clone());
    }
    store
}

/// The seeded skewed query stream: `total` queries drawn uniformly from
/// a pool of `distinct` random basic blocks spread over the store's
/// mappings.
fn workload(store: &MappingStore, total: usize, distinct: usize, seed: u64) -> Vec<(MappingId, Experiment)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ids: Vec<MappingId> = store.ids().collect();
    let pool: Vec<(MappingId, Experiment)> = (0..distinct)
        .map(|_| {
            let id = ids[rng.gen_range(0..ids.len())];
            let num_insts = store.get(id).num_insts();
            let counts: Vec<(InstId, u32)> = (0..rng.gen_range(1..=4u32))
                .map(|_| (InstId(rng.gen_range(0..num_insts as u32)), rng.gen_range(1..=3)))
                .collect();
            (id, Experiment::from_counts(&counts))
        })
        .collect();
    (0..total).map(|_| pool[rng.gen_range(0..pool.len())].clone()).collect()
}

/// Replays the workload against one serving configuration, returning
/// predictions in query order plus the serving counters.
fn run_cell(cell: &Cell, platform_names: &[String], queries: &[(MappingId, Experiment)], timings: bool) -> CellResult {
    // A fresh store and predictor per cell: no cache state or solver
    // warm-up leaks between cells.
    let store = build_store(platform_names);
    let predictor = Predictor::new(
        store,
        PredictorConfig { workers: cell.workers, cache_capacity: cell.cache_capacity },
    );
    let mut cycles: Vec<f64> = vec![0.0; queries.len()];
    let started = Instant::now();
    for (chunk, offset) in queries.chunks(cell.batch).zip(chunk_offsets(queries.len(), cell.batch)) {
        // The predictor groups each window per mapping, exactly like the
        // CLI's serving mode.
        for (k, t) in predictor.predict_routed(chunk).into_iter().enumerate() {
            cycles[offset + k] = t;
        }
    }
    let elapsed = started.elapsed();
    let stats = predictor.stats();
    // FNV-1a over the raw bits of every prediction, in query order:
    // equal checksums mean bit-identical serving results.
    let bits: Vec<u8> = cycles.iter().flat_map(|t| t.to_bits().to_le_bytes()).collect();
    CellResult {
        hit_rate: stats.hit_rate(),
        cache_hits: stats.cache_hits,
        checksum: fnv1a(&bits),
        total_cycles: cycles.iter().sum(),
        elapsed_ns: timings.then_some(elapsed.as_nanos()),
    }
}

fn chunk_offsets(len: usize, chunk: usize) -> impl Iterator<Item = usize> {
    (0..len).step_by(chunk.max(1))
}

fn parse_list(args: &Args, name: &str, default: &str) -> Vec<usize> {
    args.get_str(name)
        .unwrap_or(default)
        .split(',')
        .map(|v| v.trim().parse().unwrap_or_else(|_| panic!("--{name} expects comma-separated integers")))
        .collect()
}

fn main() {
    let args = Args::parse();
    let seed = args.seed(5);
    let total = args.get_usize("sequences", 20_000);
    let distinct = args.get_usize("distinct", 400).max(1);
    let cache_capacity = args.get_usize("cache", 1 << 16);
    let batches = parse_list(&args, "batches", "1,64,1024");
    let jobs_list = parse_list(&args, "jobs-list", "1,2,8");
    let timings = args.has("timings");
    let out = args.get_str("out").unwrap_or("BENCH_predict.json").to_owned();
    let platform_names: Vec<String> = args
        .get_str("platform")
        .unwrap_or("SKL,ZEN,A72")
        .split(',')
        .map(|s| s.trim().to_uppercase())
        .collect();

    let store = build_store(&platform_names);
    let queries = workload(&store, total, distinct, seed);
    println!(
        "fig_predict: {total} queries over {distinct} distinct blocks, {}-platform store (seed {seed})\n",
        platform_names.len()
    );

    let mut cells: Vec<Cell> = Vec::new();
    for &batch in &batches {
        for &workers in &jobs_list {
            cells.push(Cell { batch: batch.max(1), workers, cache_capacity });
            // The 0%-hit-rate companion cell for every configuration.
            // Under `--cache 0` the whole sweep *is* the uncached sweep
            // and the cell above already covers it.
            if cache_capacity != 0 {
                cells.push(Cell { batch: batch.max(1), workers, cache_capacity: 0 });
            }
        }
    }

    let mut table = Table::new(vec!["batch", "workers", "cache", "hit rate", "checksum", "seq/s"]);
    let mut rows = Vec::with_capacity(cells.len());
    let mut cached_batch_ns: Option<u128> = None;
    let mut uncached_single_ns: Option<u128> = None;
    for cell in &cells {
        let r = run_cell(cell, &platform_names, &queries, timings);
        // The headline comparison: best cached batched cell vs the
        // per-sequence uncached baseline (batch 1, one worker, no cache).
        if let Some(ns) = r.elapsed_ns {
            if cell.cache_capacity > 0 && cell.batch > 1 {
                cached_batch_ns = Some(cached_batch_ns.map_or(ns, |best| best.min(ns)));
            }
            if cell.cache_capacity == 0 && cell.batch == 1 && cell.workers == 1 {
                uncached_single_ns = Some(ns);
            }
        }
        let seq_per_sec = r
            .elapsed_ns
            .map(|ns| total as f64 / (ns as f64 / 1e9));
        table.row(vec![
            cell.batch.to_string(),
            cell.workers.to_string(),
            if cell.cache_capacity > 0 { cell.cache_capacity.to_string() } else { "off".into() },
            format!("{:.1}%", 100.0 * r.hit_rate),
            format!("{:016x}", r.checksum),
            seq_per_sec.map(|s| format!("{s:.0}")).unwrap_or_else(|| "-".into()),
        ]);
        rows.push(Value::Obj(vec![
            ("batch".into(), Value::UInt(cell.batch as u64)),
            ("workers".into(), Value::UInt(cell.workers as u64)),
            ("cache_capacity".into(), Value::UInt(cell.cache_capacity as u64)),
            ("cache_hits".into(), Value::UInt(r.cache_hits)),
            ("hit_rate".into(), Value::Num(r.hit_rate)),
            ("checksum".into(), Value::UInt(r.checksum)),
            ("total_cycles".into(), Value::Num(r.total_cycles)),
            (
                "seq_per_sec".into(),
                seq_per_sec.map(Value::Num).unwrap_or(Value::Null),
            ),
        ]));
    }
    println!("{table}");

    // Every cell must have served the same results: the checksum is a
    // pure function of (workload, mappings), independent of batch size,
    // worker count and caching.
    let reference = match &rows[0].get("checksum") {
        Some(Value::UInt(c)) => *c,
        _ => unreachable!("checksum is always emitted"),
    };
    for row in &rows {
        assert_eq!(
            row.get("checksum").and_then(Value::as_u64),
            Some(reference),
            "serving results must be identical across all cells"
        );
    }

    let speedup = match (cached_batch_ns, uncached_single_ns) {
        (Some(fast), Some(slow)) => {
            let ratio = slow as f64 / fast as f64;
            println!("cached batch path vs per-sequence uncached: {ratio:.1}x");
            Value::Num(ratio)
        }
        _ => Value::Null,
    };
    let artifact = Value::Obj(vec![
        ("seed".into(), Value::UInt(seed)),
        ("sequences".into(), Value::UInt(total as u64)),
        ("distinct".into(), Value::UInt(distinct as u64)),
        (
            "platforms".into(),
            Value::Arr(platform_names.iter().cloned().map(Value::Str).collect()),
        ),
        ("cells".into(), Value::Arr(rows)),
        ("speedup_cached_batch_vs_uncached_single".into(), speedup),
    ]);
    let text = json::write_pretty(&artifact);
    std::fs::write(&out, &text).expect("write BENCH_predict.json");
    let parsed = json::parse(&text).expect("emitted artifact parses");
    let n = parsed.get("cells").and_then(Value::as_arr).expect("artifact has cells").len();
    assert_eq!(n, cells.len(), "artifact covers every sweep cell");
    println!("wrote {n} cells to {out}");
}
