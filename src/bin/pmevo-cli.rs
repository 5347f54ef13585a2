//! `pmevo-cli` — command-line front end for the PMEvo reproduction.
//!
//! Subcommands:
//!
//! * `platforms` — list the built-in simulated machines;
//! * `infer --platform SKL [--population 300] [--algorithm pmevo]
//!   [--seed N] [--out mapping.json] [--format json|bin]
//!   [--report report.json]` — run an inference session and write the
//!   mapping (and optionally the full session report); `--format bin`
//!   writes the compact binary artifact ([`MappingArtifact`]), which
//!   embeds the platform's instruction-name table; `--islands N` evolves
//!   N subpopulations over one worker pool, `--checkpoint FILE` writes a
//!   resumable evolution-state artifact every `--checkpoint-every`
//!   generations, and `--resume` continues from it bit-identically
//!   (flags not repeated are adopted from the artifact);
//! * `show --platform SKL --mapping mapping.json [--limit 20]` — render
//!   a mapping (a JSON or binary artifact) in uops.info-style notation;
//! * `convert --in artifact --out artifact [--platform SKL]` — convert
//!   a mapping artifact between JSON and the compact binary format (the
//!   direction is sniffed from the input's magic); JSON inputs need
//!   `--platform` to supply the name table the binary format embeds;
//! * `predict --mapping SKL=skl.json [--mapping ZEN=zen.json ...]
//!   [--jobs 4] [--cache 65536] [--batch 1024]` — the serving mode:
//!   read line-oriented instruction sequences from stdin (optionally
//!   prefixed `PLATFORM:`), answer each as a JSON line on stdout
//!   through a cached, worker-pooled [`pmevo_predict::Predictor`];
//! * `predict --platform SKL --mapping mapping.json --experiment
//!   "add_r64_r64:2,imul_r64_r64:1"` — one-off mode: predict (and
//!   measure) the throughput of one experiment, written in the serving
//!   mode's sequence grammar;
//! * `predict --corpus blocks.txt --isa x86 --uarch skl
//!   --mapping SKL=skl.json` — corpus replay: parse a BHive-style file
//!   of disassembled basic blocks (AT&T or Intel syntax), resolve each
//!   instruction onto the target microarchitecture's form universe via
//!   [`pmevo::x86`], predict every fully-mapped block's throughput, and
//!   finish with one deterministic coverage/accounting JSON line;
//! * `client --connect HOST:PORT | --unix PATH` — pipe stdin to a
//!   running `pmevo-serve` daemon and its responses to stdout (the
//!   socket-framed equivalent of `predict`'s stdin/stdout pipe).
//!
//! Exit code 2 on usage errors, 1 on malformed flag values and runtime
//! failures; never a panic on the serving paths.

use pmevo::baselines::{CountingAlgorithm, LpAlgorithm, RandomAlgorithm};
use pmevo::core::json::{self, Value};
use pmevo::core::{render, Experiment, MappingArtifact, SequenceParseError, ServeRecord};
use pmevo::machine::{platforms, MeasureConfig, Measurer, Platform};
use pmevo::core::{MeasurementBudget, SelectionPolicy};
use pmevo::predict::{MappingId, MappingStore, Predictor, PredictorConfig, StoredMapping};
use pmevo::serve::flags::{byte_flag, flag, flag_all, num_flag, positive_flag};
use pmevo::serve::{load_spec_artifact, route_line, store_from_specs};
use pmevo::{Session, SessionCheckpoint};
use std::io::{BufRead, Read, Write};
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage: pmevo-cli <platforms|infer|show|predict|convert|client> [flags]\n\
         \n\
         pmevo-cli platforms\n\
         pmevo-cli infer   --platform SKL [--population 300] [--generations N]\n\
                           [--algorithm pmevo] [--seed N] [--out mapping.json]\n\
                           [--format json|bin] [--report report.json]\n\
                           [--islands N] [--selection one-shot|disagreement|uniform]\n\
                           [--top-k N] [--budget MEASUREMENTS]\n\
                           [--checkpoint FILE [--checkpoint-every GENS] [--resume]\n\
                            [--halt-after-checkpoints N]]\n\
                           (--resume continues from FILE bit-identically; flags\n\
                            not repeated are adopted from the artifact)\n\
         pmevo-cli show    --platform SKL --mapping mapping.json [--limit 20]\n\
         pmevo-cli convert --in artifact --out artifact [--platform SKL]\n\
                           (JSON <-> compact binary; JSON to binary needs\n\
                            --platform for the instruction-name table)\n\
         pmevo-cli predict --mapping SKL=skl.json [--mapping ZEN=zen.json ...]\n\
                           [--jobs N] [--cache N] [--batch N] [--store-budget BYTES]\n\
                           (streams stdin sequences like \"SKL: add_r64_r64; imul_r64_r64 x2\"\n\
                            to JSON throughputs on stdout)\n\
         pmevo-cli predict --platform SKL --mapping mapping.json \\\n\
                           --experiment \"add_r64_r64:2,imul_r64_r64:1\"\n\
         pmevo-cli predict --corpus blocks.txt --uarch skl [--isa x86]\n\
                           --mapping SKL=skl.json [--jobs N] [--cache N]\n\
                           (replays a basic-block corpus: one JSON line per\n\
                            block, then one accounting line, on stdout)\n\
         pmevo-cli client  --connect HOST:PORT | --unix PATH\n\
                           (pipes stdin to a pmevo-serve daemon, responses to stdout)"
    );
    ExitCode::from(2)
}

/// Resolves the numeric flag `name` (default `default`); on a malformed
/// value, prints the error and the usage text and fails with exit 1.
fn parsed_flag<T>(args: &[String], name: &str, default: T) -> Result<T, ExitCode>
where
    T: std::str::FromStr + std::fmt::Display,
{
    num_flag(args, name, default).map_err(|message| {
        eprintln!("{message}");
        let _ = usage();
        ExitCode::FAILURE
    })
}

/// [`parsed_flag`] for counts that must be at least 1.
fn positive_parsed_flag(args: &[String], name: &str, default: usize) -> Result<usize, ExitCode> {
    positive_flag(args, name, default).map_err(|message| {
        eprintln!("{message}");
        let _ = usage();
        ExitCode::FAILURE
    })
}

fn platform_from(args: &[String]) -> Result<Platform, ExitCode> {
    match flag(args, "--platform").as_deref().map(str::to_uppercase) {
        Some(ref s) if s == "SKL" => Ok(platforms::skl()),
        Some(ref s) if s == "ZEN" => Ok(platforms::zen()),
        Some(ref s) if s == "A72" => Ok(platforms::a72()),
        Some(ref s) if s == "TINY" => Ok(platforms::tiny()),
        Some(other) => {
            eprintln!("unknown platform {other}; expected SKL, ZEN, A72 or TINY");
            Err(ExitCode::from(2))
        }
        None => {
            eprintln!("missing --platform");
            Err(ExitCode::from(2))
        }
    }
}

fn cmd_platforms() -> ExitCode {
    for p in [
        platforms::skl(),
        platforms::zen(),
        platforms::a72(),
        platforms::tiny(),
    ] {
        println!(
            "{:4} {:10} {:8} {} forms, {} ports, fetch {}, window {}",
            p.name(),
            p.info().microarch,
            p.info().isa_name,
            p.isa().len(),
            p.num_ports(),
            p.fetch_width(),
            p.window_size()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_infer(args: &[String]) -> ExitCode {
    let platform = match platform_from(args) {
        Ok(p) => p,
        Err(c) => return c,
    };
    let mut population = match positive_parsed_flag(args, "--population", 300) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let mut seed = match parsed_flag(args, "--seed", 0x90ADu64) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let generations = match parsed_flag(args, "--generations", 0u32) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let mut islands = match positive_parsed_flag(args, "--islands", 1) {
        Ok(v) => v as u32,
        Err(c) => return c,
    };
    let top_k = match positive_parsed_flag(args, "--top-k", 16) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let mut selection = match flag(args, "--selection").as_deref() {
        None | Some("one-shot") => SelectionPolicy::OneShot,
        Some("disagreement") => SelectionPolicy::Disagreement { top_k },
        Some("uniform") => SelectionPolicy::Uniform { top_k },
        Some(other) => {
            eprintln!("unknown --selection {other}; expected one-shot, disagreement or uniform");
            return ExitCode::from(2);
        }
    };
    let mut budget = match parsed_flag(args, "--budget", 0u64) {
        Ok(0) => MeasurementBudget::UNLIMITED,
        Ok(n) => MeasurementBudget::measurements(n),
        Err(c) => return c,
    };
    let checkpoint_path = flag(args, "--checkpoint");
    let checkpoint_every = match parsed_flag(args, "--checkpoint-every", 8u32) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let halt_after = match parsed_flag(args, "--halt-after-checkpoints", 0u32) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let resume = args.iter().any(|a| a == "--resume");
    // A resumed run adopts the artifact's header for every flag the user
    // did not repeat, so `--checkpoint FILE --resume` alone continues a
    // run bit-identically; explicitly conflicting flags are rejected by
    // the session builder.
    let snapshot = if resume {
        let Some(path) = checkpoint_path.as_deref() else {
            eprintln!("--resume needs --checkpoint FILE (the artifact to continue from)");
            return ExitCode::from(2);
        };
        match SessionCheckpoint::load(std::path::Path::new(path)) {
            Ok(snapshot) => {
                let explicit = |name: &str| flag(args, name).is_some();
                if !explicit("--seed") {
                    seed = snapshot.seed;
                }
                if !explicit("--population") {
                    population = snapshot.population_size as usize;
                }
                if !explicit("--islands") {
                    islands = snapshot.islands;
                }
                if !explicit("--selection") {
                    selection = snapshot.selection;
                }
                if !explicit("--budget") {
                    budget = snapshot.budget;
                }
                Some(snapshot)
            }
            Err(e) => {
                eprintln!("error: cannot resume: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let format = flag(args, "--format").unwrap_or_else(|| "json".into());
    if format != "json" && format != "bin" {
        eprintln!("unknown --format {format}; expected json or bin");
        return ExitCode::from(2);
    }
    let out = flag(args, "--out")
        .unwrap_or_else(|| format!("pmevo_{}.{format}", platform.name().to_lowercase()));
    // The binary artifact embeds the instruction-name table; capture it
    // before the platform moves into the session builder.
    let inst_names: Vec<String> =
        platform.isa().forms().iter().map(|f| f.name.clone()).collect();

    let algorithm = flag(args, "--algorithm").unwrap_or_else(|| "pmevo".into());
    if algorithm != "pmevo" && (checkpoint_path.is_some() || islands > 1) {
        eprintln!("--islands and --checkpoint are only supported by the pmevo algorithm");
        return ExitCode::from(2);
    }
    eprintln!(
        "inferring port mapping for {} with {algorithm} (population {population}, seed {seed}) ...",
        platform.name()
    );
    let mut builder = Session::builder()
        .platform(platform)
        .seed(seed)
        .population(population)
        .islands(islands)
        .selection(selection)
        .budget(budget);
    if generations > 0 {
        builder = builder.max_generations(generations);
    }
    if let Some(path) = checkpoint_path {
        builder = builder.checkpoint(path, checkpoint_every);
    }
    if let Some(snapshot) = snapshot {
        builder = builder.resume_from(snapshot);
    }
    if halt_after > 0 {
        builder = builder.halt_after_checkpoints(halt_after);
    }
    let builder = match algorithm.as_str() {
        "pmevo" => builder,
        "counting" => builder.algorithm(CountingAlgorithm),
        "random" => builder.algorithm(RandomAlgorithm::new(seed)),
        "lp" => builder.algorithm(LpAlgorithm::default()),
        other => {
            eprintln!("unknown algorithm {other}; expected pmevo, counting, random or lp");
            return ExitCode::from(2);
        }
    };
    let report = match builder.build() {
        Ok(session) => session.run(),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("{report}");
    if let Some(report_path) = flag(args, "--report") {
        if let Err(e) = std::fs::write(&report_path, report.to_json_pretty()) {
            eprintln!("cannot write {report_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("session report written to {report_path}");
    }
    let artifact_bytes = if format == "bin" {
        MappingArtifact::new(inst_names, report.mapping.clone()).to_bytes()
    } else {
        report.mapping.to_json_pretty().into_bytes()
    };
    if let Err(e) = std::fs::write(&out, artifact_bytes) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{out}");
    ExitCode::SUCCESS
}

/// `convert`: re-encode a mapping artifact between JSON and the compact
/// binary format, sniffing the direction from the input's content. The
/// binary format embeds the instruction-name table, so converting *to*
/// it needs `--platform`; converting *from* it drops the table (the
/// JSON artifact format has none — it is the mapping alone).
fn cmd_convert(args: &[String]) -> ExitCode {
    let (Some(input), Some(out)) = (flag(args, "--in"), flag(args, "--out")) else {
        eprintln!("convert needs --in <artifact> and --out <artifact>");
        return ExitCode::from(2);
    };
    let bytes = match std::fs::read(&input) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let written = if MappingArtifact::sniff(&bytes) {
        match MappingArtifact::from_bytes(&bytes) {
            Ok(artifact) => std::fs::write(&out, artifact.mapping().to_json_pretty()),
            Err(e) => {
                eprintln!("cannot decode {input}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        // JSON in: the name table must come from a built-in platform.
        if flag(args, "--platform").is_none() {
            eprintln!(
                "converting a JSON artifact to binary needs --platform \
                 (the binary format embeds the platform's instruction names)"
            );
            return ExitCode::from(2);
        }
        let platform = match platform_from(args) {
            Ok(p) => p,
            Err(c) => return c,
        };
        match load_spec_artifact(platform.name(), &input) {
            Ok((_, loaded)) => {
                let artifact = MappingArtifact::new(loaded.inst_names, loaded.mapping);
                std::fs::write(&out, artifact.to_bytes())
            }
            Err(message) => {
                eprintln!("error: {message}");
                return ExitCode::FAILURE;
            }
        }
    };
    if let Err(e) = written {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{out}");
    ExitCode::SUCCESS
}

fn cmd_show(args: &[String]) -> ExitCode {
    let platform = match platform_from(args) {
        Ok(p) => p,
        Err(c) => return c,
    };
    let limit = match parsed_flag(args, "--limit", usize::MAX) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let entry = match platform_entry(args, &platform) {
        Ok(e) => e,
        Err(c) => return c,
    };
    let mapping = match entry.mapping() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let s = render::summary(&mapping, |i| entry.inst_names()[i.index()].clone());
    for (name, decomp) in s.lines().iter().take(limit) {
        println!("{name:28} {decomp}");
    }
    if s.lines().len() > limit {
        println!("... ({} more)", s.lines().len() - limit);
    }
    println!();
    print!("port pressure:");
    for (p, mass) in s.port_usage().iter().enumerate() {
        print!("  p{p}={mass:.1}");
    }
    println!();
    ExitCode::SUCCESS
}

/// Loads the `--mapping` flags of serving mode into a store. Accepts
/// `NAME=file` (a built-in platform name, which provides the
/// instruction names, or any name with a binary artifact, which embeds
/// them) or a bare `file.json` with `--platform`; bare specs are
/// normalized to `NAME=path` so the daemon and the offline pipe share
/// one loader ([`store_from_specs`]). `--store-budget` caps the bytes
/// of mapping payloads held resident; the rest reload lazily.
fn build_store(args: &[String]) -> Result<MappingStore, ExitCode> {
    let budget = byte_flag(args, "--store-budget").map_err(|message| {
        eprintln!("{message}");
        let _ = usage();
        ExitCode::FAILURE
    })?;
    let mut specs = flag_all(args, "--mapping");
    if specs.iter().any(|s| !s.contains('=')) {
        let platform = platform_from(args)?;
        for spec in &mut specs {
            if !spec.contains('=') {
                *spec = format!("{}={spec}", platform.name());
            }
        }
    }
    store_from_specs(&specs, budget).map_err(|message| {
        eprintln!("error: {message}");
        // No --mapping at all is a usage error; an artifact that does
        // not load is a runtime failure.
        if specs.is_empty() {
            usage()
        } else {
            let _ = usage();
            ExitCode::FAILURE
        }
    })
}

/// The `--mapping` artifact of `--platform`, loaded through
/// [`build_store`], which checks it against the platform's instruction
/// names and port count — what `show` and one-off `predict` work on.
fn platform_entry(args: &[String], platform: &Platform) -> Result<Arc<StoredMapping>, ExitCode> {
    let store = build_store(args)?;
    match store.latest(platform.name()) {
        Some(id) => Ok(store.get_arc(id)),
        None => {
            eprintln!("error: no --mapping for platform {}", platform.name());
            Err(usage())
        }
    }
}

/// Serving mode: stream sequences from stdin through a [`Predictor`],
/// one JSON result line per input line, in input order.
fn cmd_predict_stream(args: &[String]) -> ExitCode {
    // Flags are validated before any file is touched, so a typo'd
    // `--jobs abc` is reported as itself, not masked by a store error.
    let jobs = match positive_parsed_flag(args, "--jobs", 1) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let cache = match parsed_flag(args, "--cache", 1usize << 16) {
        Ok(v) => v,
        Err(c) => return c,
    };
    // `--batch 0` would silently turn the flush threshold into
    // "always", so zero is rejected rather than clamped.
    let batch = match positive_parsed_flag(args, "--batch", 1024) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let store = match build_store(args) {
        Ok(s) => s,
        Err(c) => return c,
    };
    // Unprefixed lines go to the latest version of the first-loaded
    // name, matching how prefixed lines resolve. `build_store` already
    // refused an empty store, so the first id exists.
    let Some(first_id) = store.ids().next() else {
        eprintln!("error: at least one --mapping NAME=file.json is required");
        return ExitCode::from(2);
    };
    let default_name = store.get(first_id).name().to_owned();
    let predictor = Predictor::new(store, PredictorConfig { workers: jobs, cache_capacity: cache });
    let store = predictor.snapshot();
    let labels: Vec<String> = store.ids().map(|id| store.get(id).label()).collect();

    let stdin = std::io::stdin();
    if std::io::IsTerminal::is_terminal(&stdin) {
        eprintln!(
            "reading sequences from stdin (one per line, Ctrl-D to finish); \
             use --experiment \"form:count,...\" for a one-off prediction"
        );
    }
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    // One entry per pending input line: a routed sequence or a parse
    // failure (kept in the batch so output stays strictly line-ordered).
    enum Entry {
        Seq(MappingId, Experiment),
        Failed(String),
    }
    let mut pending: Vec<(u64, Entry)> = Vec::with_capacity(batch);
    let mut errors = 0u64;
    let flush = |pending: &mut Vec<(u64, Entry)>, out: &mut dyn Write| {
        // The predictor groups the window per mapping; results come back
        // in input order and are re-interleaved with the failed lines.
        let (slots, queries): (Vec<usize>, Vec<(MappingId, Experiment)>) = pending
            .iter()
            .enumerate()
            .filter_map(|(slot, (_, e))| match e {
                Entry::Seq(id, seq) => Some((slot, (*id, seq.clone()))),
                Entry::Failed(_) => None,
            })
            .unzip();
        let mut cycles = vec![None; pending.len()];
        for (slot, t) in slots.into_iter().zip(predictor.try_predict_routed(&queries)) {
            cycles[slot] = Some(t);
        }
        for ((line, entry), t) in pending.drain(..).zip(cycles) {
            let record = match (entry, t) {
                (Entry::Seq(id, _), Some(Ok(cycles))) => {
                    ServeRecord::Cycles { line, mapping: labels[id.index()].clone(), cycles }
                }
                // An evicted payload whose lazy reload failed (artifact
                // gone from under a budgeted store): the error names the
                // artifact path, and the stream keeps going.
                (Entry::Seq(..), Some(Err(e))) => ServeRecord::Error {
                    line,
                    message: format!("prediction unavailable: {e}"),
                },
                // The predictor answers every routed query; an empty
                // slot would be a predictor bug — report it as this
                // line's record instead of killing the whole stream.
                (Entry::Seq(..), None) => {
                    ServeRecord::Error { line, message: "prediction unavailable".to_string() }
                }
                (Entry::Failed(message), _) => ServeRecord::Error { line, message },
            };
            writeln!(out, "{}", record.to_json_line()).expect("write stdout");
        }
    };

    for (idx, line) in stdin.lock().lines().enumerate() {
        let line_no = idx as u64 + 1;
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("stdin read error at line {line_no}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // An optional `PLATFORM:` prefix routes the line to a specific
        // stored mapping; the prefix is only consumed when it names one
        // (case-insensitively) — shared with the daemon via
        // `serve::route_line`.
        let Some((id, seq_text)) = route_line(&store, &default_name, &line) else {
            errors += 1;
            pending.push((
                line_no,
                Entry::Failed(format!("no mapping registered under {default_name:?}")),
            ));
            continue;
        };
        match store.get(id).parse(seq_text) {
            Ok(e) => pending.push((line_no, Entry::Seq(id, e))),
            Err(SequenceParseError::Empty) => {} // blank/comment line
            Err(err) => {
                errors += 1;
                pending.push((line_no, Entry::Failed(err.to_string())));
            }
        }
        if pending.len() >= batch {
            flush(&mut pending, &mut out);
        }
    }
    flush(&mut pending, &mut out);
    out.flush().expect("flush stdout");
    let stats = predictor.stats();
    eprintln!(
        "predicted {} sequences in {} batches ({} workers, {:.1}% cache hits, {} errors)",
        stats.queries,
        stats.batches,
        predictor.workers(),
        100.0 * stats.hit_rate(),
        errors
    );
    ExitCode::SUCCESS
}

/// Corpus replay: parse a BHive-style file of disassembled basic
/// blocks, resolve every instruction onto the `--uarch` table's form
/// universe, predict each fully-mapped block's throughput, and emit one
/// JSON record per block plus a final accounting line. Everything on
/// stdout is a pure function of (corpus, uarch, mapping) — worker count
/// never changes a byte.
fn cmd_predict_corpus(args: &[String], corpus_path: &str) -> ExitCode {
    if let Some(isa) = flag(args, "--isa") {
        if !isa.eq_ignore_ascii_case("x86") {
            eprintln!("unsupported --isa {isa}; corpus replay reads x86-64 disassembly");
            return ExitCode::from(2);
        }
    }
    let Some(uarch) = flag(args, "--uarch") else {
        eprintln!("missing --uarch (skl, zen or a72) for corpus replay");
        return ExitCode::from(2);
    };
    let Some(table) = pmevo::x86::by_name(&uarch) else {
        eprintln!("unknown uarch {uarch}; expected skl, zen or a72");
        return ExitCode::from(2);
    };
    let jobs = match positive_parsed_flag(args, "--jobs", 1) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let cache = match parsed_flag(args, "--cache", 1usize << 16) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let store = match build_store(args) {
        Ok(s) => s,
        Err(c) => return c,
    };
    let Some(id) = store.latest(table.platform()) else {
        eprintln!(
            "corpus replay on {} needs --mapping {}=file.json",
            table.name(),
            table.platform()
        );
        return ExitCode::from(2);
    };
    let label = store.get(id).label();
    // The platform with the same name as the table provides the form
    // universe the table's keys resolve into.
    let Some(platform) = platforms::by_name(table.platform()) else {
        eprintln!("no built-in platform named {}", table.platform());
        return ExitCode::FAILURE;
    };
    let corpus = match std::fs::read_to_string(corpus_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot read {corpus_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let predictor = Predictor::new(store, PredictorConfig { workers: jobs, cache_capacity: cache });
    let uarch_name = table.name();
    let resolver = pmevo::x86::Resolver::new(table, platform.isa());
    let r = pmevo::x86::replay(&corpus, &resolver, &predictor, id);

    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    for (block, outcome) in r.outcomes.iter().enumerate() {
        let record = match &outcome.result {
            pmevo::x86::BlockResult::Cycles(cycles) => Value::Obj(vec![
                ("block".into(), Value::UInt(block as u64)),
                ("line".into(), Value::UInt(u64::from(outcome.start_line))),
                ("insts".into(), Value::UInt(u64::from(outcome.insts))),
                ("mapping".into(), Value::Str(label.clone())),
                ("cycles".into(), Value::Num(*cycles)),
            ]),
            pmevo::x86::BlockResult::Unmapped { line, column, reason, detail } => Value::Obj(vec![
                ("block".into(), Value::UInt(block as u64)),
                ("line".into(), Value::UInt(u64::from(*line))),
                ("column".into(), Value::UInt(u64::from(*column))),
                ("reason".into(), Value::Str((*reason).to_string())),
                ("error".into(), Value::Str(detail.clone())),
            ]),
        };
        writeln!(out, "{}", json::write_compact(&record)).expect("write stdout");
    }
    let acc = &r.accounting;
    writeln!(out, "{}", pmevo::x86::accounting_json(acc)).expect("write stdout");
    out.flush().expect("flush stdout");
    eprintln!(
        "replayed {} blocks ({} insts) on {} against {label}: \
         {} predicted, block coverage {:.1}%, inst coverage {:.1}%",
        acc.blocks,
        acc.insts,
        uarch_name,
        acc.mapped_blocks,
        100.0 * acc.block_coverage(),
        100.0 * acc.inst_coverage()
    );
    for (reason, n) in &acc.by_reason {
        eprintln!("  unmapped blocks: {n} {reason}");
    }
    ExitCode::SUCCESS
}

fn cmd_predict(args: &[String]) -> ExitCode {
    if let Some(path) = flag(args, "--corpus") {
        // --corpus switches predict into BHive-style replay mode.
        return cmd_predict_corpus(args, &path);
    }
    let Some(spec) = flag(args, "--experiment") else {
        // No --experiment: the streaming serving mode.
        return cmd_predict_stream(args);
    };
    let platform = match platform_from(args) {
        Ok(p) => p,
        Err(c) => return c,
    };
    let entry = match platform_entry(args, &platform) {
        Ok(e) => e,
        Err(c) => return c,
    };
    let experiment = match entry.parse(&spec) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let predicted = match entry.mapping() {
        Ok(m) => m.throughput(&experiment),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let measured = Measurer::new(&platform, MeasureConfig::default()).measure(&experiment);
    println!("experiment: {experiment}");
    println!("predicted:  {predicted:.3} cycles");
    println!("measured:   {measured:.3} cycles (simulator)");
    println!(
        "rel. error: {:.1}%",
        100.0 * (predicted - measured).abs() / measured
    );
    ExitCode::SUCCESS
}

/// Pipes stdin to a running `pmevo-serve` daemon and the daemon's
/// responses to stdout. The write half is shut down at stdin EOF; the
/// daemon then answers everything still queued and closes, so "read
/// until EOF" collects exactly the responses for our lines — no response
/// counting, no sentinel records.
fn run_client<S>(
    stream: S,
    shutdown_write: impl FnOnce(&S) -> std::io::Result<()> + Send,
) -> ExitCode
where
    S: Read + Write + Send + Sync + 'static,
    for<'a> &'a S: Read + Write,
{
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> std::io::Result<()> {
            let mut to_daemon = &stream;
            std::io::copy(&mut std::io::stdin().lock(), &mut to_daemon)?;
            to_daemon.flush()?;
            shutdown_write(&stream)
        });
        let mut stdout = std::io::stdout().lock();
        let received = std::io::copy(&mut BufReadAdapter(&stream), &mut stdout);
        let sent = sender.join().expect("sender thread");
        match (sent, received) {
            (Ok(()), Ok(_)) => ExitCode::SUCCESS,
            (Err(e), _) => {
                eprintln!("error: sending to daemon failed: {e}");
                ExitCode::FAILURE
            }
            (_, Err(e)) => {
                eprintln!("error: reading daemon responses failed: {e}");
                ExitCode::FAILURE
            }
        }
    })
}

/// `std::io::copy` source over `&S` (reads borrow the stream shared
/// with the sender thread).
struct BufReadAdapter<'a, S>(&'a S);

impl<S> Read for BufReadAdapter<'_, S>
where
    for<'a> &'a S: Read,
{
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

fn cmd_client(args: &[String]) -> ExitCode {
    match (flag(args, "--connect"), flag(args, "--unix")) {
        (Some(addr), None) => match std::net::TcpStream::connect(&addr) {
            Ok(stream) => {
                run_client(stream, |s| s.shutdown(std::net::Shutdown::Write))
            }
            Err(e) => {
                eprintln!("error: cannot connect to {addr}: {e}");
                ExitCode::FAILURE
            }
        },
        #[cfg(unix)]
        (None, Some(path)) => match std::os::unix::net::UnixStream::connect(&path) {
            Ok(stream) => {
                run_client(stream, |s| s.shutdown(std::net::Shutdown::Write))
            }
            Err(e) => {
                eprintln!("error: cannot connect to {path}: {e}");
                ExitCode::FAILURE
            }
        },
        #[cfg(not(unix))]
        (None, Some(_)) => {
            eprintln!("error: --unix is only supported on Unix platforms");
            ExitCode::FAILURE
        }
        _ => {
            eprintln!("error: client needs exactly one of --connect HOST:PORT or --unix PATH");
            usage()
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("platforms") => cmd_platforms(),
        Some("infer") => cmd_infer(&args[1..]),
        Some("show") => cmd_show(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("predict") => cmd_predict(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        _ => usage(),
    }
}
