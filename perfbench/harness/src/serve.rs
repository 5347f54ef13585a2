//! The serving phase: a `pmevo-serve` daemon on a Unix socket, driven by
//! a bulk closed loop (pipelined lines from a skewed pool of repeated
//! blocks) and an interactive closed loop (one fresh block at a time,
//! plus a periodic `!reload`). Every response is checked against an
//! in-process `Predictor` over the artifact version it names.

use crate::stats::{median, time_per_call, Metrics};
use crate::trace::Tracer;
use pmevo_core::json::{self, Value};
use pmevo_core::{
    parse_sequence, CompiledExperiments, Experiment, InstId, MappingArtifact, MeasuredExperiment,
    ServeRecord, ThreeLevelMapping, ThroughputSolver,
};
use pmevo_predict::{MappingId, MappingStore, Predictor, PredictorConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One mapping the daemon serves. A mapping with `reload_to` is the
/// reload target: odd versions carry `mapping`, even versions `reload_to`.
pub struct Served {
    pub name: String,
    pub names: Vec<String>,
    pub mapping: ThreeLevelMapping,
    pub reload_to: Option<ThreeLevelMapping>,
}

/// Bulk lines kept outstanding, below the daemon's default `--inflight`
/// of 1024.
const WINDOW: usize = 256;
/// Interactive requests between two `!reload`s.
const RELOAD_EVERY: usize = 250;
/// Daemon start-ups timed for `setup_s`; the last one is served on.
const SETUPS: usize = 5;

/// A pool line: the served mapping it routes to, its block, and the
/// line text (`NAME: a; b; ...`).
pub struct Item {
    served: usize,
    experiment: Experiment,
    line: String,
    /// Byte offset of the sequence text after the `NAME:` route.
    seq_start: usize,
}

/// An answered interactive request.
struct Answer {
    served: usize,
    experiment: Experiment,
    version: u64,
    cycles: f64,
}

pub struct ServeResult {
    pub setup_s: f64,
    pub lines_per_s: f64,
    pub rtt_ms: Vec<f64>,
    pub reload_ms: Vec<f64>,
    pub daemon_peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub stats: Value,
    pool: Vec<Item>,
    bulk_stream: Vec<u32>,
    answers: Vec<Answer>,
}

/// The reference: every served mapping in an in-process store, the
/// reload target under two versions.
struct Reference {
    predictor: Predictor,
    /// Store id per served mapping, for odd and even versions.
    ids: Vec<[MappingId; 2]>,
}

impl Reference {
    fn new(served: &[Served], config: PredictorConfig) -> Reference {
        let mut store = MappingStore::new();
        let ids = served
            .iter()
            .map(|s| {
                let odd = store.insert(s.name.clone(), s.names.clone(), s.mapping.clone());
                let even = match &s.reload_to {
                    Some(m) => store.insert(s.name.clone(), s.names.clone(), m.clone()),
                    None => odd,
                };
                [odd, even]
            })
            .collect();
        Reference {
            predictor: Predictor::new(store, config),
            ids,
        }
    }

    fn id(&self, served: usize, version: u64) -> MappingId {
        self.ids[served][usize::from(version.is_multiple_of(2))]
    }
}

struct Daemon(Child);

impl Daemon {
    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.0.id()))
    }

    /// Waits for the process to exit, killing it after `timeout`.
    fn reap(&mut self, timeout: Duration) -> bool {
        let start = Instant::now();
        while start.elapsed() < timeout {
            if let Ok(Some(status)) = self.0.try_wait() {
                return status.success();
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One client connection: line-buffered reads, raw writes.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    sent: u64,
}

impl Conn {
    fn new(stream: UnixStream) -> std::io::Result<Conn> {
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            sent: 0,
        })
    }

    /// Sends one line and reads its one-line response.
    fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.sent += 1;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed",
            ));
        }
        response.truncate(response.trim_end().len());
        Ok(response)
    }
}

fn spawn_daemon(
    bin: &Path,
    dir: &Path,
    specs: &[String],
    jobs: usize,
) -> Result<(Daemon, UnixStream, f64), String> {
    let sock = dir.join("d.sock");
    let _ = std::fs::remove_file(&sock);
    let log = std::fs::File::create(dir.join("daemon.log")).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut cmd = Command::new(bin);
    cmd.arg("--unix")
        .arg(&sock)
        .arg("--jobs")
        .arg(jobs.to_string());
    for spec in specs {
        cmd.arg("--mapping").arg(spec);
    }
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut daemon = Daemon(child);
    loop {
        if let Ok(stream) = UnixStream::connect(&sock) {
            return Ok((daemon, stream, start.elapsed().as_secs_f64()));
        }
        if let Ok(Some(status)) = daemon.0.try_wait() {
            return Err(format!(
                "daemon exited during start-up ({status}); see {}",
                dir.join("daemon.log").display()
            ));
        }
        if start.elapsed() > Duration::from_secs(30) {
            return Err("daemon socket not ready after 30 s".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn shutdown(daemon: &mut Daemon, conn: &mut Conn) -> Result<(), String> {
    let ack = conn
        .request("!shutdown")
        .map_err(|e| format!("shutdown: {e}"))?;
    if !ack.contains("shutting down") {
        return Err(format!("unexpected shutdown ack {ack:?}"));
    }
    if daemon.reap(Duration::from_secs(20)) {
        Ok(())
    } else {
        Err("daemon did not exit cleanly after !shutdown".into())
    }
}

fn random_block(rng: &mut StdRng, served: &Served) -> (Experiment, String) {
    let ids: Vec<u32> = (0..5)
        .map(|_| rng.gen_range(0..served.names.len() as u32))
        .collect();
    let text: Vec<&str> = ids
        .iter()
        .map(|&i| served.names[i as usize].as_str())
        .collect();
    let counts: Vec<(InstId, u32)> = ids.iter().map(|&i| (InstId(i), 1)).collect();
    (
        Experiment::from_counts(&counts),
        format!("{}: {}", served.name, text.join("; ")),
    )
}

/// The `,"cycles":T}` tail of a response record for `cycles`.
fn cycles_tail(cycles: f64) -> String {
    let record = ServeRecord::Cycles {
        line: 0,
        mapping: String::new(),
        cycles,
    }
    .to_json_line();
    record
        .split_once(r#""mapping":"""#)
        .expect("record names its mapping")
        .1
        .to_owned()
}

/// Checks one bulk response without allocating: the line number, the
/// mapping label (name, and a version that exists and never goes back),
/// and the cycles text bit for bit. Returns the version.
fn check_bulk(
    resp: &str,
    line_no: u64,
    name: &str,
    tails: &[String; 2],
    max_version: u64,
    last: u64,
) -> Option<u64> {
    let rest = resp.strip_prefix(r#"{"line":"#)?;
    let (num, rest) = rest.split_once(',')?;
    if num.parse::<u64>().ok()? != line_no {
        return None;
    }
    let rest = rest.strip_prefix(r#""mapping":""#)?;
    let (label, tail) = rest.split_once('"')?;
    let (label_name, version) = label.rsplit_once('@')?;
    let version: u64 = version.parse().ok()?;
    let ok = label_name == name
        && version >= last.max(1)
        && version <= max_version
        && tail == tails[usize::from(version.is_multiple_of(2))];
    ok.then_some(version)
}

struct BulkOutcome {
    sent: u64,
    answered: u64,
    failed: u64,
    elapsed_s: f64,
    first_error: Option<String>,
}

#[allow(clippy::too_many_arguments)]
fn bulk_loop(
    mut conn: Conn,
    pool: &[Item],
    served: &[Served],
    tails: &[[String; 2]],
    stream: &[u32],
    window: usize,
    deadline: Instant,
    reloads_sent: &AtomicU64,
) -> BulkOutcome {
    let mut out = BulkOutcome {
        sent: 0,
        answered: 0,
        failed: 0,
        elapsed_s: 0.0,
        first_error: None,
    };
    let mut outstanding: VecDeque<u32> = VecDeque::with_capacity(window);
    let mut last_version = vec![1u64; served.len()];
    let mut buf: Vec<u8> = Vec::new();
    let mut next = 0usize;
    let start = Instant::now();
    let mut send =
        |k: usize, conn: &mut Conn, outstanding: &mut VecDeque<u32>, out: &mut BulkOutcome| {
            buf.clear();
            for _ in 0..k {
                let p = stream[next % stream.len()];
                next += 1;
                buf.extend_from_slice(pool[p as usize].line.as_bytes());
                buf.push(b'\n');
                outstanding.push_back(p);
            }
            out.sent += k as u64;
            conn.writer.write_all(&buf)
        };
    if let Err(e) = send(window, &mut conn, &mut outstanding, &mut out) {
        out.first_error = Some(format!("bulk send: {e}"));
    }
    let mut line = String::new();
    while !outstanding.is_empty() && out.first_error.is_none() {
        let mut answered_now = 0;
        loop {
            line.clear();
            match conn.reader.read_line(&mut line) {
                Ok(0) => {
                    out.first_error = Some("daemon closed the bulk connection".into());
                    break;
                }
                Ok(_) => {}
                Err(e) => {
                    out.first_error = Some(format!("bulk read: {e}"));
                    break;
                }
            }
            let p = outstanding
                .pop_front()
                .expect("a response answers an outstanding line") as usize;
            out.answered += 1;
            answered_now += 1;
            let item = &pool[p];
            let max_version = reloads_sent.load(Ordering::SeqCst) + 1;
            let limit = if served[item.served].reload_to.is_some() {
                max_version
            } else {
                1
            };
            match check_bulk(
                line.trim_end(),
                out.answered,
                &served[item.served].name,
                &tails[p],
                limit,
                last_version[item.served],
            ) {
                Some(v) => last_version[item.served] = v,
                None => {
                    out.failed += 1;
                    if out.first_error.is_none() && out.failed == 1 {
                        eprintln!(
                            "bulk mismatch at line {}: {}",
                            out.answered,
                            line.trim_end()
                        );
                    }
                }
            }
            // Drain what is already buffered before writing again.
            if outstanding.is_empty() || !conn.reader.buffer().contains(&b'\n') {
                break;
            }
        }
        if Instant::now() < deadline && out.first_error.is_none() {
            if let Err(e) = send(answered_now, &mut conn, &mut outstanding, &mut out) {
                out.first_error = Some(format!("bulk send: {e}"));
            }
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    // Lines that never got an answer are failures.
    out.failed += outstanding.len() as u64;
    out
}

fn write_artifact(path: &Path, served: &Served, mapping: &ThreeLevelMapping) -> Result<(), String> {
    let bytes = MappingArtifact::new(served.names.clone(), mapping.clone()).to_bytes();
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn stat(stats: &Value, key: &str) -> f64 {
    match stats.get(key) {
        Some(&Value::Num(v)) => v,
        Some(&Value::UInt(v)) => v as f64,
        _ => f64::NAN,
    }
}

/// Runs the serving phase for `seconds` of load and checks every answer.
pub fn run_phase(
    daemon_bin: &Path,
    dir: &Path,
    served: &[Served],
    pool_size: usize,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
) -> Result<ServeResult, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x05E7_EB0B);
    let reference = Reference::new(
        served,
        PredictorConfig {
            workers: 1,
            cache_capacity: 0,
        },
    );

    // Artifacts: one per served mapping, plus the reload target's
    // alternate version.
    let mut specs = Vec::new();
    let mut reload_paths: Vec<PathBuf> = Vec::new();
    let mut target = None;
    for (i, s) in served.iter().enumerate() {
        let path = dir.join(format!("{}-1.bin", s.name));
        write_artifact(&path, s, &s.mapping)?;
        specs.push(format!("{}={}", s.name, path.display()));
        if let Some(alt) = &s.reload_to {
            let alt_path = dir.join(format!("{}-2.bin", s.name));
            write_artifact(&alt_path, s, alt)?;
            reload_paths = vec![path, alt_path];
            target = Some(i);
        }
    }
    let target = target.ok_or("no served mapping is a reload target")?;

    // The bulk pool and its expected responses, one tail per version
    // parity, from the in-process reference.
    let mut seen: BTreeSet<(usize, Experiment)> = BTreeSet::new();
    let mut pool = Vec::with_capacity(pool_size);
    while pool.len() < pool_size {
        let s = pool.len() % served.len();
        let (experiment, line) = random_block(&mut rng, &served[s]);
        if seen.insert((s, experiment.clone())) {
            pool.push(Item {
                served: s,
                experiment,
                seq_start: served[s].name.len() + 1,
                line,
            });
        }
    }
    let expect = |version: u64| -> Vec<f64> {
        let queries: Vec<(MappingId, Experiment)> = pool
            .iter()
            .map(|it| (reference.id(it.served, version), it.experiment.clone()))
            .collect();
        reference.predictor.predict_routed(&queries)
    };
    let (odd, even) = (expect(1), expect(2));
    let tails: Vec<[String; 2]> = odd
        .iter()
        .zip(&even)
        .map(|(&a, &b)| [cycles_tail(a), cycles_tail(b)])
        .collect();
    // The tails must splice into exactly what the wire format writes.
    let sample = ServeRecord::Cycles {
        line: 7,
        mapping: format!("{}@1", served[0].name),
        cycles: odd[0],
    };
    if format!(
        r#"{{"line":7,"mapping":"{}@1"{}"#,
        served[0].name, tails[0][0]
    ) != sample.to_json_line()
    {
        return Err("response format differs from ServeRecord::to_json_line".into());
    }
    // A skewed pick sequence: low pool indices repeat most.
    let bulk_stream: Vec<u32> = (0..1 << 16)
        .map(|_| (pool_size as f64 * rng.gen::<f64>().powi(3)) as u32)
        .collect();

    // Set-up: start the daemon `setups` times, serve on the last one.
    // The daemon's `--jobs`: two workers, or fewer on a smaller machine.
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let mut setup_times = Vec::new();
    let mut live = None;
    for round in 0..SETUPS {
        let (mut daemon, stream, secs) = spawn_daemon(daemon_bin, dir, &specs, jobs)?;
        setup_times.push(secs);
        let mut conn = Conn::new(stream).map_err(|e| e.to_string())?;
        if round + 1 < SETUPS {
            shutdown(&mut daemon, &mut conn)?;
        } else {
            live = Some((daemon, conn));
        }
    }
    let (mut daemon, mut inter) = live.expect("at least one set-up");
    let bulk_conn = Conn::new(UnixStream::connect(dir.join("d.sock")).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;

    let _phase = tracer.enter("serve.phase");
    let reloads_sent = AtomicU64::new(0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut errors = Vec::new();
    let mut rtt_ms = Vec::new();
    let mut reload_ms = Vec::new();
    // Interactive requests: served mapping, block, line number, the
    // version it must be answered by, and the response.
    let mut pending: Vec<(usize, Experiment, u64, u64, String)> = Vec::new();
    let mut reload_failed = 0u64;
    let bulk = std::thread::scope(|scope| {
        let bulk = scope.spawn(|| {
            bulk_loop(
                bulk_conn,
                &pool,
                served,
                &tails,
                &bulk_stream,
                WINDOW,
                deadline,
                &reloads_sent,
            )
        });
        let mut requests = 0usize;
        while Instant::now() < deadline {
            requests += 1;
            if requests.is_multiple_of(RELOAD_EVERY + 1) {
                let k = reloads_sent.fetch_add(1, Ordering::SeqCst) + 1;
                let path = &reload_paths[(k % 2) as usize];
                let label = format!("{}@{}", served[target].name, k + 1);
                let _span = tracer.enter("serve.reload");
                let start = Instant::now();
                let response = inter.request(&format!(
                    "!reload {}={}",
                    served[target].name,
                    path.display()
                ));
                reload_ms.push(start.elapsed().as_secs_f64() * 1e3);
                let want = json::write_compact(&Value::Obj(vec![
                    ("line".into(), Value::UInt(inter.sent)),
                    ("reloaded".into(), Value::Str(label)),
                ]));
                match response {
                    Ok(r) if r == want => {}
                    Ok(r) => {
                        reload_failed += 1;
                        errors.push(format!("reload answered {r:?}, expected {want:?}"));
                    }
                    Err(e) => {
                        reload_failed += 1;
                        errors.push(format!("reload failed: {e}"));
                        break;
                    }
                }
                continue;
            }
            let s = rng.gen_range(0..served.len());
            let (experiment, line) = loop {
                let block = random_block(&mut rng, &served[s]);
                if seen.insert((s, block.0.clone())) {
                    break block;
                }
            };
            // This connection waits for every reload's ack, so its lines
            // route to exactly the newest version.
            let version = if served[s].reload_to.is_some() {
                reloads_sent.load(Ordering::SeqCst) + 1
            } else {
                1
            };
            let _span = tracer.enter("serve.request");
            let start = Instant::now();
            match inter.request(&line) {
                Ok(r) => {
                    rtt_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    pending.push((s, experiment, inter.sent, version, r));
                }
                Err(e) => {
                    errors.push(format!("interactive request failed: {e}"));
                    break;
                }
            }
        }
        bulk.join().expect("bulk client thread panicked")
    });
    drop(_phase);

    let stats_line = inter
        .request("!stats")
        .map_err(|e| format!("!stats: {e}"))?;
    let stats = json::parse(&stats_line)
        .ok()
        .and_then(|v| v.get("stats").cloned())
        .ok_or_else(|| format!("unparsable !stats response {stats_line:?}"))?;
    let daemon_peak_rss_mb = daemon.peak_rss_mb();
    if let Err(e) = shutdown(&mut daemon, &mut inter) {
        errors.push(e);
    }
    if let Some(e) = bulk.first_error {
        errors.push(e);
    }

    // Interactive answers against the reference, byte for byte.
    let queries: Vec<(MappingId, Experiment)> = pending
        .iter()
        .map(|(s, e, _, version, _)| (reference.id(*s, *version), e.clone()))
        .collect();
    let expected = reference.predictor.predict_routed(&queries);
    let mut answers = Vec::with_capacity(pending.len());
    let mut inter_failed = 0u64;
    for ((s, experiment, line, version, response), cycles) in pending.into_iter().zip(expected) {
        let record = ServeRecord::Cycles {
            line,
            mapping: format!("{}@{version}", served[s].name),
            cycles,
        };
        if record.to_json_line() == response {
            answers.push(Answer {
                served: s,
                experiment,
                version,
                cycles,
            });
        } else {
            inter_failed += 1;
            if inter_failed == 1 {
                errors.push(format!("interactive line {line} answered {response:?}"));
            }
        }
    }
    if bulk.failed > 0 {
        errors.push(format!("{} bulk lines failed", bulk.failed));
    }

    Ok(ServeResult {
        setup_s: median(&setup_times),
        lines_per_s: bulk.answered as f64 / bulk.elapsed_s,
        rtt_ms,
        reload_ms,
        daemon_peak_rss_mb,
        attempted: bulk.sent + inter.sent,
        failed: bulk.failed + inter_failed + reload_failed,
        errors,
        stats,
        pool,
        bulk_stream: (0..bulk.sent)
            .map(|i| bulk_stream[i as usize % bulk_stream.len()])
            .collect(),
        answers,
    })
}

/// Serving counters from the daemon's `!stats`.
pub fn stats_metrics(result: &ServeResult, metrics: &mut Metrics) {
    let s = &result.stats;
    let windows = stat(s, "coalesced_windows");
    metrics.put("predict.hit_rate", stat(s, "hit_rate"));
    metrics.put("predict.misses", stat(s, "misses"));
    metrics.put("predict.miss_solve_ms", stat(s, "miss_solve_ms"));
    metrics.put("serve.windows", windows);
    metrics.put("serve.queries_per_window", stat(s, "queries") / windows);
    metrics.put(
        "serve.cross_connection_windows",
        stat(s, "cross_connection_windows"),
    );
    metrics.put("serve.reload_ms", median(&result.reload_ms));
}

/// The single-threaded probes of the serving layers (`core` parsing and,
/// with `solver`, the batch solver on the interactive blocks; `predict`
/// hits and misses), each checked against what the daemon answered.
pub fn probes(
    result: &ServeResult,
    served: &[Served],
    solver: bool,
    tracer: &Tracer,
    metrics: &mut Metrics,
) -> Result<(), String> {
    // core: parse_sequence over the pool lines.
    let resolvers: Vec<BTreeMap<&str, InstId>> = served
        .iter()
        .map(|s| {
            s.names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.as_str(), InstId(i as u32)))
                .collect()
        })
        .collect();
    let mut parsed = Vec::with_capacity(result.pool.len());
    let parse_s = {
        let _span = tracer.enter("core.parse_sequence");
        time_per_call(0.05, || {
            parsed.clear();
            parsed.extend(result.pool.iter().map(|it| {
                let names = &resolvers[it.served];
                parse_sequence(&it.line[it.seq_start..], |n| names.get(n).copied())
            }));
        })
    };
    metrics.put(
        "core.parse_ns_per_line",
        parse_s * 1e9 / result.pool.len() as f64,
    );
    if result
        .pool
        .iter()
        .zip(&parsed)
        .any(|(it, p)| p.as_ref() != Ok(&it.experiment))
    {
        return Err("parse_sequence disagrees with the generated blocks".into());
    }

    // predict: cached hits on the bulk stream, misses on the interactive one.
    let warm = Reference::new(
        served,
        PredictorConfig {
            workers: 1,
            cache_capacity: 1 << 16,
        },
    );
    let bulk: Vec<(MappingId, Experiment)> = result
        .bulk_stream
        .iter()
        .take(200_000)
        .map(|&p| {
            (
                warm.id(result.pool[p as usize].served, 1),
                result.pool[p as usize].experiment.clone(),
            )
        })
        .collect();
    let cold = warm.predictor.predict_routed(&bulk);
    let mut hot = Vec::new();
    let hit_s = {
        let _span = tracer.enter("predict.predict_routed_hits");
        time_per_call(0.05, || hot = warm.predictor.predict_routed(&bulk))
    };
    metrics.put(
        "predict.hit_ns_per_query",
        hit_s * 1e9 / bulk.len().max(1) as f64,
    );
    if hot != cold {
        return Err("warm-cache answers differ from cold ones".into());
    }
    let uncached = Reference::new(
        served,
        PredictorConfig {
            workers: 1,
            cache_capacity: 0,
        },
    );
    let misses: Vec<(MappingId, Experiment)> = result
        .answers
        .iter()
        .map(|a| (uncached.id(a.served, a.version), a.experiment.clone()))
        .collect();
    let mut answered = Vec::new();
    let miss_s = {
        let _span = tracer.enter("predict.predict_routed_misses");
        time_per_call(0.05, || {
            answered = uncached.predictor.predict_routed(&misses)
        })
    };
    metrics.put(
        "predict.miss_ns_per_query",
        miss_s * 1e9 / misses.len().max(1) as f64,
    );
    if result
        .answers
        .iter()
        .zip(&answered)
        .any(|(a, &c)| a.cycles != c)
    {
        return Err("Predictor::predict_routed disagrees with the daemon's answers".into());
    }

    // core: the batch solver on the interactive blocks, per mapping version.
    if solver {
        let mut groups: BTreeMap<(usize, bool), Vec<&Answer>> = BTreeMap::new();
        for a in &result.answers {
            let alternate = served[a.served].reload_to.is_some() && a.version % 2 == 0;
            groups.entry((a.served, alternate)).or_default().push(a);
        }
        let mut solver = ThroughputSolver::new();
        let (mut solve_s, mut solved) = (0.0, 0usize);
        let _span = tracer.enter("core.predict_batch");
        for ((s, alternate), answers) in groups {
            let mapping = if alternate {
                served[s].reload_to.as_ref().expect("alternate exists")
            } else {
                &served[s].mapping
            };
            let compiled = CompiledExperiments::compile(
                &answers
                    .iter()
                    .map(|a| MeasuredExperiment::new(a.experiment.clone(), 1.0))
                    .collect::<Vec<_>>(),
            );
            let indices: Vec<u32> = (0..answers.len() as u32).collect();
            let mut out = Vec::new();
            solve_s += time_per_call(0.01, || {
                solver.load_mapping(&compiled, mapping);
                solver.predict_batch(&compiled, &indices, &mut out);
            });
            solved += answers.len();
            if answers.iter().zip(&out).any(|(a, &c)| a.cycles != c) {
                return Err(
                    "ThroughputSolver::predict_batch disagrees with the daemon's answers".into(),
                );
            }
        }
        metrics.put(
            "core.solver_ns_per_exp",
            solve_s * 1e9 / solved.max(1) as f64,
        );
    }
    Ok(())
}
