//! The daemon: per-connection reader/writer threads, a shared submission
//! queue, one coalescer thread batching across connections, and the
//! control plane (stats, hot reload, shutdown).

use crate::specs::{load_spec_artifact, route_line};
use pmevo_core::json::{self, Value};
use pmevo_core::{parse_control, pool, ControlVerb, Experiment, SequenceParseError, ServeRecord};
use pmevo_predict::{MappingId, MappingStore, PredictStats, Predictor, PredictorConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads of the underlying [`Predictor`].
    pub workers: usize,
    /// LRU result-cache capacity per stored mapping (0 disables caching).
    pub cache_capacity: usize,
    /// Largest cross-connection batch the coalescer submits at once.
    pub max_batch: usize,
    /// Longest the coalescer waits for more submissions after the first
    /// one of a window. `0` means "take whatever is queued right now".
    pub max_delay: Duration,
    /// Per-connection cap on unanswered lines: a client that stops
    /// reading responses blocks only its own reader once it has this
    /// many in flight, never the shared queue.
    pub max_inflight: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: pool::available_workers(),
            cache_capacity: 1 << 16,
            max_batch: 1024,
            max_delay: Duration::from_millis(1),
            max_inflight: 1024,
        }
    }
}

/// Per-connection backpressure gate: at most `cap` submitted-but-
/// unanswered lines. The reader acquires before submitting; the writer
/// releases after each response record reaches the socket buffer.
struct Gate {
    cap: usize,
    inflight: Mutex<usize>,
    changed: Condvar,
    /// Set when the writer is gone — wakes and cancels blocked readers
    /// so a dead connection cannot park a thread forever.
    closed: AtomicBool,
}

impl Gate {
    fn new(cap: usize) -> Arc<Gate> {
        Arc::new(Gate {
            cap: cap.max(1),
            inflight: Mutex::new(0),
            changed: Condvar::new(),
            closed: AtomicBool::new(false),
        })
    }

    /// Blocks until a slot frees up. Returns `false` (no slot taken)
    /// when the connection or the whole daemon is shutting down.
    fn acquire(&self, abort: &AtomicBool) -> bool {
        let mut inflight = self.inflight.lock().expect("gate poisoned");
        loop {
            if self.closed.load(Ordering::Relaxed) || abort.load(Ordering::Relaxed) {
                return false;
            }
            if *inflight < self.cap {
                *inflight += 1;
                return true;
            }
            // Bounded waits so the abort flag is observed even if the
            // writer died without a close (defense in depth).
            let (guard, _) = self
                .changed
                .wait_timeout(inflight, Duration::from_millis(100))
                .expect("gate poisoned");
            inflight = guard;
        }
    }

    fn release(&self) {
        let mut inflight = self.inflight.lock().expect("gate poisoned");
        *inflight = inflight.saturating_sub(1);
        self.changed.notify_one();
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
        self.changed.notify_all();
    }
}

/// What one input line asks for.
enum Payload {
    /// A routed, parsed sequence line.
    Seq(MappingId, Experiment),
    /// A line that failed routing/parsing — answered with an error
    /// record *in order*, so it rides the queue like everything else.
    Failed(String),
    /// A control verb; the coalescer flushes the window in flight first
    /// (barrier), then acks so the submitting reader resumes.
    Control(ControlVerb, Sender<()>),
}

/// One unit on the shared submission queue.
struct Submission {
    /// Client-side 1-based input line number.
    line: u64,
    payload: Payload,
    /// The submitting connection's response channel.
    reply: SyncSender<String>,
    /// The submitting connection's backpressure gate (released by the
    /// writer once the response is written).
    gate: Arc<Gate>,
}

/// Counters that are the daemon's, not the predictor's.
struct DaemonStats {
    live_connections: AtomicU64,
    total_connections: AtomicU64,
    coalesced_windows: AtomicU64,
    /// Windows merging submissions from more than one connection —
    /// direct evidence the coalescer is doing its job.
    cross_connection_windows: AtomicU64,
}

/// The predictor counters and wall-clock time at the previous `!stats`
/// call — the baseline the per-window hit/miss split is computed
/// against. Each `!stats` response reports the delta since the last one
/// and resets the baseline, so operators polling the verb see *recent*
/// traffic shape (has it fallen off the cached path?), not the
/// since-boot average.
struct WindowBaseline {
    stats: PredictStats,
    at: Instant,
}

struct Shared {
    predictor: Predictor,
    /// Unprefixed lines route to the latest version of this name (the
    /// first-loaded mapping, same rule as `pmevo-cli predict`).
    default_name: String,
    config: ServeConfig,
    stats: DaemonStats,
    window: Mutex<WindowBaseline>,
    shutdown: AtomicBool,
    started: Instant,
}

/// A running prediction daemon. See the crate docs for the protocol.
///
/// Listeners are attached with [`listen_tcp`](Server::listen_tcp) /
/// [`listen_unix`](Server::listen_unix) (any number, concurrently); the
/// daemon runs until a client sends `!shutdown` or [`stop`](Server::stop)
/// is called, then [`join`](Server::join) reaps every thread.
pub struct Server {
    shared: Arc<Shared>,
    submit: Sender<Submission>,
    coalescer: Option<JoinHandle<()>>,
    listeners: Mutex<Vec<JoinHandle<()>>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Stands up a daemon over `store`.
    ///
    /// # Errors
    ///
    /// `at least one --mapping NAME=file.json is required` when the
    /// store is empty — a serving process must have something to answer
    /// from (and refusing here is what keeps the serving path free of
    /// the old `expect("store is non-empty")` panic).
    pub fn new(store: MappingStore, config: ServeConfig) -> Result<Server, String> {
        let Some(first) = store.ids().next() else {
            return Err("at least one --mapping NAME=file.json is required".to_string());
        };
        let default_name = store.get(first).name().to_owned();
        let predictor = Predictor::new(
            store,
            PredictorConfig { workers: config.workers, cache_capacity: config.cache_capacity },
        );
        let started = Instant::now();
        let shared = Arc::new(Shared {
            predictor,
            default_name,
            config,
            stats: DaemonStats {
                live_connections: AtomicU64::new(0),
                total_connections: AtomicU64::new(0),
                coalesced_windows: AtomicU64::new(0),
                cross_connection_windows: AtomicU64::new(0),
            },
            window: Mutex::new(WindowBaseline { stats: PredictStats::default(), at: started }),
            shutdown: AtomicBool::new(false),
            started,
        });
        let (submit, queue) = channel();
        let coalescer = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || coalesce_loop(&shared, &queue))
        };
        Ok(Server {
            shared,
            submit,
            coalescer: Some(coalescer),
            listeners: Mutex::new(Vec::new()),
            connections: Arc::new(Mutex::new(Vec::new())),
        })
    }

    /// The predictor behind the daemon (snapshots, counters).
    pub fn predictor(&self) -> &Predictor {
        &self.shared.predictor
    }

    /// Whether shutdown has been requested (verb or [`stop`](Server::stop)).
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::Relaxed)
    }

    /// Serves one already-established connection: spawns its reader and
    /// writer threads. `reader`/`writer` are the two directions of the
    /// same socket (e.g. a [`std::net::TcpStream`] and its
    /// `try_clone`); both should carry read/write timeouts so a dead
    /// peer cannot park the threads past shutdown.
    pub fn handle_connection<R, W>(&self, reader: R, writer: W)
    where
        R: Read + Send + 'static,
        W: Write + Send + 'static,
    {
        handle_connection_on(
            &self.shared,
            &self.submit,
            &self.connections,
            Box::new(reader),
            Box::new(writer),
        );
    }

    /// Accepts TCP connections until shutdown. The listener is switched
    /// to non-blocking so the loop can observe the shutdown flag.
    pub fn listen_tcp(&self, listener: TcpListener) {
        listener.set_nonblocking(true).expect("listener into non-blocking mode");
        let accept = self.spawn_acceptor(move || match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).ok();
                stream.set_read_timeout(Some(POLL_INTERVAL)).ok();
                stream.set_write_timeout(Some(Duration::from_secs(30))).ok();
                let reader = stream.try_clone().ok()?;
                Some((Box::new(reader) as Box<dyn Read + Send>, Box::new(stream) as Box<dyn Write + Send>))
            }
            Err(_) => None,
        });
        self.listeners.lock().expect("listener registry poisoned").push(accept);
    }

    /// Accepts Unix-socket connections until shutdown, like
    /// [`listen_tcp`](Server::listen_tcp).
    #[cfg(unix)]
    pub fn listen_unix(&self, listener: UnixListener) {
        listener.set_nonblocking(true).expect("listener into non-blocking mode");
        let accept = self.spawn_acceptor(move || match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).ok();
                stream.set_read_timeout(Some(POLL_INTERVAL)).ok();
                stream.set_write_timeout(Some(Duration::from_secs(30))).ok();
                let reader = stream.try_clone().ok()?;
                Some((Box::new(reader) as Box<dyn Read + Send>, Box::new(stream) as Box<dyn Write + Send>))
            }
            Err(_) => None,
        });
        self.listeners.lock().expect("listener registry poisoned").push(accept);
    }

    fn spawn_acceptor<F>(&self, mut accept: F) -> JoinHandle<()>
    where
        F: FnMut() -> Option<(Box<dyn Read + Send>, Box<dyn Write + Send>)> + Send + 'static,
    {
        let shared = Arc::clone(&self.shared);
        let submit = self.submit.clone();
        let connections = Arc::clone(&self.connections);
        std::thread::spawn(move || {
            while !shared.shutdown.load(Ordering::Relaxed) {
                match accept() {
                    Some((reader, writer)) => {
                        handle_connection_on(&shared, &submit, &connections, reader, writer);
                    }
                    None => std::thread::sleep(POLL_INTERVAL),
                }
            }
        })
    }

    /// Requests shutdown programmatically (equivalent to a client's
    /// `!shutdown`) and returns once the coalescer has acknowledged it.
    pub fn stop(&self) {
        let (ack_tx, ack_rx) = channel();
        let (reply, _discard) = mpsc::sync_channel(1);
        let sent = self
            .submit
            .send(Submission {
                line: 0,
                payload: Payload::Control(ControlVerb::Shutdown, ack_tx),
                reply,
                gate: Gate::new(1),
            })
            .is_ok();
        if sent {
            let _ = ack_rx.recv();
        }
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }

    /// Joins every daemon thread: listeners, the coalescer, then all
    /// connection reader/writer threads. Call after shutdown has been
    /// requested; connections drain their queued responses first.
    pub fn join(mut self) {
        for handle in self.listeners.lock().expect("listener registry poisoned").drain(..) {
            let _ = handle.join();
        }
        // Dropping the master submission sender (after the listeners are
        // gone) lets the coalescer observe disconnect-at-idle; on
        // `!shutdown` it has already broken out of its loop.
        drop(std::mem::replace(&mut self.submit, channel().0));
        if let Some(coalescer) = self.coalescer.take() {
            let _ = coalescer.join();
        }
        let handles: Vec<JoinHandle<()>> =
            self.connections.lock().expect("connection registry poisoned").drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// How often blocked reads and accept loops re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// `Server::handle_connection`, callable from acceptor threads that only
/// hold the shared pieces.
fn handle_connection_on(
    shared: &Arc<Shared>,
    submit: &Sender<Submission>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
) {
    shared.stats.total_connections.fetch_add(1, Ordering::Relaxed);
    shared.stats.live_connections.fetch_add(1, Ordering::Relaxed);
    let gate = Gate::new(shared.config.max_inflight);
    // Response capacity == gate capacity: the coalescer's try_send
    // cannot overflow a channel whose slots are gated one-per-line.
    let (reply, responses) = mpsc::sync_channel::<String>(shared.config.max_inflight);

    let mut threads = connections.lock().expect("connection registry poisoned");
    threads.push({
        let shared = Arc::clone(shared);
        let submit = submit.clone();
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || read_loop(&shared, &submit, reader, &reply, &gate))
    });
    threads.push({
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            write_loop(&responses, writer, &gate);
            gate.close();
            shared.stats.live_connections.fetch_sub(1, Ordering::Relaxed);
        })
    });
}

/// Reads lines off one connection, routes/parses them, and feeds the
/// shared submission queue. Blank and comment-only lines produce no
/// submission (and no response), exactly like the offline pipe.
fn read_loop<R: Read>(
    shared: &Shared,
    submit: &Sender<Submission>,
    reader: R,
    reply: &SyncSender<String>,
    gate: &Arc<Gate>,
) {
    let mut reader = BufReader::new(reader);
    let mut line = String::new();
    let mut line_no: u64 = 0;
    loop {
        if shared.shutdown.load(Ordering::Relaxed) || gate.closed.load(Ordering::Relaxed) {
            break;
        }
        match reader.read_line(&mut line) {
            // EOF with nothing pending: client is done sending. A final
            // unterminated line (non-empty `line`) still gets processed;
            // the next call returns `Ok(0)` again and breaks.
            Ok(0) if line.is_empty() => break,
            Ok(_) => {}
            // Read timeout: loop to re-check the shutdown flag. The
            // timeout may land mid-line, with a partial prefix already
            // appended to `line` — it must NOT be cleared, or the rest
            // of the line would later parse as a line of its own. The
            // next successful read appends the remainder.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => break,
        }
        line_no += 1;
        // Take the line out (leaving `line` empty for the next read) so
        // every `continue` below starts the next iteration clean.
        let owned = std::mem::take(&mut line);
        let text = owned.trim_end_matches(['\n', '\r']);

        let payload = if let Some(control) = parse_control(text) {
            match control {
                Ok(verb) => {
                    let (ack_tx, ack_rx) = channel();
                    if !gate.acquire(&shared.shutdown) {
                        break;
                    }
                    let wants_shutdown = matches!(verb, ControlVerb::Shutdown);
                    if submit
                        .send(Submission {
                            line: line_no,
                            payload: Payload::Control(verb, ack_tx),
                            reply: reply.clone(),
                            gate: Arc::clone(gate),
                        })
                        .is_err()
                    {
                        break;
                    }
                    // Wait for the barrier: lines after a control verb
                    // must observe its effect (reload routing, stats
                    // counts), so the reader stalls until it is applied.
                    let _ = ack_rx.recv();
                    if wants_shutdown {
                        break;
                    }
                    continue;
                }
                Err(message) => Payload::Failed(message),
            }
        } else {
            let store = shared.predictor.snapshot();
            match route_line(&store, &shared.default_name, text) {
                None => Payload::Failed(format!(
                    "no mapping registered under {:?}",
                    shared.default_name
                )),
                Some((id, seq_text)) => match store.get(id).parse(seq_text) {
                    Ok(seq) => Payload::Seq(id, seq),
                    Err(SequenceParseError::Empty) => continue, // blank/comment line
                    Err(err) => Payload::Failed(err.to_string()),
                },
            }
        };
        if !gate.acquire(&shared.shutdown) {
            break;
        }
        if submit
            .send(Submission { line: line_no, payload, reply: reply.clone(), gate: Arc::clone(gate) })
            .is_err()
        {
            break;
        }
    }
    // Dropping our `reply` clone (and the ones riding queued
    // submissions, as they are answered) is what closes the writer.
}

/// Writes response records to one connection, releasing the gate per
/// record. Exits when every reply sender is gone (reader done + queue
/// drained) or the socket dies.
fn write_loop<W: Write>(responses: &Receiver<String>, writer: W, gate: &Gate) {
    let mut out = std::io::BufWriter::new(writer);
    while let Ok(record) = responses.recv() {
        if writeln!(out, "{record}").is_err() {
            break;
        }
        gate.release();
        // Drain whatever else is queued before paying for a flush.
        while let Ok(record) = responses.try_recv() {
            if writeln!(out, "{record}").is_err() {
                return;
            }
            gate.release();
        }
        if out.flush().is_err() {
            break;
        }
    }
}

enum Flow {
    Continue,
    Shutdown,
}

/// The coalescer: drains the shared queue into windows of at most
/// `max_batch` submissions, waiting at most `max_delay` after the first,
/// and answers each window through one routed predictor batch. Control
/// verbs are barriers: the open window is flushed before the verb runs.
fn coalesce_loop(shared: &Shared, queue: &Receiver<Submission>) {
    let mut window: Vec<Submission> = Vec::new();
    loop {
        let Ok(first) = queue.recv() else { break };
        let mut barrier = None;
        if matches!(first.payload, Payload::Control(..)) {
            barrier = Some(first);
        } else {
            window.push(first);
            let deadline = Instant::now() + shared.config.max_delay;
            while window.len() < shared.config.max_batch && barrier.is_none() {
                let left = deadline.saturating_duration_since(Instant::now());
                match queue.recv_timeout(left) {
                    Ok(s) if matches!(s.payload, Payload::Control(..)) => barrier = Some(s),
                    Ok(s) => window.push(s),
                    Err(mpsc::RecvTimeoutError::Timeout) => break,
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        flush_window(shared, &mut window);
        if let Some(control) = barrier {
            if matches!(run_control(shared, control), Flow::Shutdown) {
                break;
            }
        }
    }
}

/// Answers one window: the sequence submissions go through a single
/// `predict_routed` call (grouped per mapping inside), then every
/// submission gets its record pushed to its connection's writer, in
/// queue order — which per connection is input order.
fn flush_window(shared: &Shared, window: &mut Vec<Submission>) {
    if window.is_empty() {
        return;
    }
    shared.stats.coalesced_windows.fetch_add(1, Ordering::Relaxed);
    {
        let mut sources: Vec<*const Gate> =
            window.iter().map(|s| Arc::as_ptr(&s.gate)).collect();
        sources.sort_unstable();
        sources.dedup();
        if sources.len() > 1 {
            shared.stats.cross_connection_windows.fetch_add(1, Ordering::Relaxed);
        }
    }
    let queries: Vec<(MappingId, Experiment)> = window
        .iter()
        .filter_map(|s| match &s.payload {
            Payload::Seq(id, seq) => Some((*id, seq.clone())),
            _ => None,
        })
        .collect();
    let cycles = shared.predictor.try_predict_routed(&queries);
    let mut answered = cycles.into_iter();
    // Labels resolve through the *current* snapshot; ids are append-only
    // across reloads, so an id routed pre-reload still labels correctly.
    let store = shared.predictor.snapshot();
    for submission in window.drain(..) {
        let record = match submission.payload {
            Payload::Seq(id, _) => match answered.next() {
                Some(Ok(cycles)) => ServeRecord::Cycles {
                    line: submission.line,
                    mapping: store.get(id).label(),
                    cycles,
                },
                // An evicted payload whose lazy reload failed (artifact
                // deleted or corrupted underneath a budgeted store): the
                // error — which names the artifact path — is this line's
                // record, and every other line in the window still
                // answers.
                Some(Err(e)) => ServeRecord::Error {
                    line: submission.line,
                    message: format!("prediction unavailable: {e}"),
                },
                // try_predict_routed answers every query; a short return
                // would be a predictor bug, but a daemon reports it
                // instead of dying.
                None => ServeRecord::Error {
                    line: submission.line,
                    message: "prediction unavailable".to_string(),
                },
            },
            Payload::Failed(message) => {
                ServeRecord::Error { line: submission.line, message }
            }
            Payload::Control(..) => unreachable!("control submissions never enter a window"),
        };
        deliver(&submission.reply, &submission.gate, record.to_json_line());
    }
}

/// Pushes one record to a connection's writer without ever blocking the
/// coalescer. The gate caps in-flight lines at the channel capacity, so
/// a full channel means the connection is broken (writer dead with
/// queued items) — the record is dropped and the gate slot released so
/// the reader can unwind.
fn deliver(reply: &SyncSender<String>, gate: &Gate, record: String) {
    match reply.try_send(record) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => gate.release(),
    }
}

/// Executes a control verb (after the window barrier) and acks the
/// submitting reader.
fn run_control(shared: &Shared, submission: Submission) -> Flow {
    let Payload::Control(verb, ack) = &submission.payload else {
        unreachable!("run_control only sees control submissions");
    };
    let (record, flow) = match verb {
        ControlVerb::Stats => (stats_record(shared, submission.line), Flow::Continue),
        ControlVerb::Mappings => (mappings_record(shared, submission.line), Flow::Continue),
        ControlVerb::Reload { name, path } => (reload(shared, submission.line, name, path), Flow::Continue),
        ControlVerb::Shutdown => {
            shared.shutdown.store(true, Ordering::Relaxed);
            (
                json::write_compact(&Value::Obj(vec![
                    ("line".into(), Value::UInt(submission.line)),
                    ("ok".into(), Value::Str("shutting down".into())),
                ])),
                Flow::Shutdown,
            )
        }
    };
    deliver(&submission.reply, &submission.gate, record);
    let _ = ack.send(());
    flow
}

/// Loads a new mapping version and swaps it into the live store. The
/// response carries the new `name@version` label; routing of lines read
/// after this point resolves to it, while batches already in flight
/// drain against the snapshot they started with.
///
/// The registration is atomic: a failing reload — unreadable file,
/// corrupt artifact, shape or name-table mismatch — leaves the serving
/// snapshot exactly as it was (no partial entry, no burned version) and
/// answers with an error record naming the artifact path, so a later
/// retry against a fixed file lands as the *next* version.
fn reload(shared: &Shared, line: u64, name: &str, path: &str) -> String {
    let reloaded = load_spec_artifact(name, path).and_then(|(canonical, loaded)| {
        shared.predictor.insert_loaded(canonical, loaded).map_err(|e| e.to_string())
    });
    match reloaded {
        Ok(id) => {
            let label = shared.predictor.snapshot().get(id).label();
            json::write_compact(&Value::Obj(vec![
                ("line".into(), Value::UInt(line)),
                ("reloaded".into(), Value::Str(label)),
            ]))
        }
        Err(message) => {
            ServeRecord::Error { line, message: format!("reload failed: {message}") }.to_json_line()
        }
    }
}

/// Per-mapping breakdown shared by `!stats` and `!mappings`: the
/// `name@version` label, its query count, and its payload residency
/// (whether the decomposition is in memory right now, and how many
/// bytes it is accounted at) — in store order (load order).
fn mapping_entries(shared: &Shared) -> Vec<Value> {
    let store = shared.predictor.snapshot();
    store
        .ids()
        .zip(shared.predictor.per_mapping_queries())
        .map(|(id, (label, queries))| {
            let entry = store.get(id);
            Value::Obj(vec![
                ("mapping".into(), Value::Str(label)),
                ("queries".into(), Value::UInt(queries)),
                ("resident".into(), Value::Bool(entry.is_resident())),
                ("bytes".into(), Value::UInt(entry.payload_bytes())),
            ])
        })
        .collect()
}

/// The store-level residency counters for `!stats`: the byte budget (or
/// `null` when unbudgeted), bytes currently resident (payloads and
/// interned name tables separately), and the cumulative eviction/reload
/// counts that show the budget machinery working.
fn store_record(shared: &Shared) -> Value {
    let store = shared.predictor.snapshot();
    let r = store.residency_stats();
    Value::Obj(vec![
        ("budget".into(), r.budget.map_or(Value::Null, Value::UInt)),
        ("resident_bytes".into(), Value::UInt(r.resident_bytes)),
        ("name_bytes".into(), Value::UInt(r.name_bytes)),
        ("evictions".into(), Value::UInt(r.evictions)),
        ("reloads".into(), Value::UInt(r.reloads)),
        ("entries".into(), Value::UInt(store.len() as u64)),
        ("resident".into(), Value::UInt(store.resident_count() as u64)),
    ])
}

/// The `!mappings` response: every loaded mapping as a `name@version`
/// label with its per-mapping query count and payload residency, in
/// store order (load order). A slimmer view than `!stats` for clients
/// that only need to know what the daemon can route to — e.g. the serve
/// smoke script checking verb wiring.
fn mappings_record(shared: &Shared, line: u64) -> String {
    json::write_compact(&Value::Obj(vec![
        ("line".into(), Value::UInt(line)),
        ("mappings".into(), Value::Arr(mapping_entries(shared))),
    ]))
}

/// The `!stats` response: predictor counters, daemon counters, QPS, the
/// hit/miss split since the previous `!stats` (the *window*), and the
/// per-mapping load breakdown.
fn stats_record(shared: &Shared, line: u64) -> String {
    let p = shared.predictor.stats();
    let now = Instant::now();
    // Delta against the previous `!stats`, then advance the baseline.
    // Saturating: concurrent `!stats` calls may interleave their counter
    // reads with the baseline swap, and a window must never underflow.
    let (w, window_wall) = {
        let mut baseline = shared.window.lock().expect("window baseline poisoned");
        let prev = baseline.stats;
        let wall = now.saturating_duration_since(baseline.at);
        baseline.stats = p;
        baseline.at = now;
        (
            PredictStats {
                queries: p.queries.saturating_sub(prev.queries),
                cache_hits: p.cache_hits.saturating_sub(prev.cache_hits),
                batches: p.batches.saturating_sub(prev.batches),
                miss_solve_ns: p.miss_solve_ns.saturating_sub(prev.miss_solve_ns),
            },
            wall,
        )
    };
    // Fraction of the window's wall-clock the predictor spent solving
    // misses — ~0 means traffic is riding the cache, ~1 means the miss
    // path is saturating a core.
    let miss_solve_share = if window_wall.as_nanos() > 0 {
        w.miss_solve_ns as f64 / window_wall.as_nanos() as f64
    } else {
        0.0
    };
    let uptime = shared.started.elapsed();
    let qps = if uptime.as_secs_f64() > 0.0 {
        p.queries as f64 / uptime.as_secs_f64()
    } else {
        0.0
    };
    json::write_compact(&Value::Obj(vec![
        ("line".into(), Value::UInt(line)),
        (
            "stats".into(),
            Value::Obj(vec![
                ("queries".into(), Value::UInt(p.queries)),
                ("cache_hits".into(), Value::UInt(p.cache_hits)),
                ("hit_rate".into(), Value::Num(p.hit_rate())),
                ("predictor_batches".into(), Value::UInt(p.batches)),
                (
                    "coalesced_windows".into(),
                    Value::UInt(shared.stats.coalesced_windows.load(Ordering::Relaxed)),
                ),
                (
                    "cross_connection_windows".into(),
                    Value::UInt(shared.stats.cross_connection_windows.load(Ordering::Relaxed)),
                ),
                (
                    "connections".into(),
                    Value::UInt(shared.stats.live_connections.load(Ordering::Relaxed)),
                ),
                (
                    "total_connections".into(),
                    Value::UInt(shared.stats.total_connections.load(Ordering::Relaxed)),
                ),
                ("uptime_ms".into(), Value::UInt(uptime.as_millis() as u64)),
                ("qps".into(), Value::Num(qps)),
                ("misses".into(), Value::UInt(p.misses())),
                ("miss_solve_ms".into(), Value::Num(p.miss_solve_ns as f64 / 1e6)),
                (
                    "window".into(),
                    Value::Obj(vec![
                        ("queries".into(), Value::UInt(w.queries)),
                        ("cache_hits".into(), Value::UInt(w.cache_hits)),
                        ("misses".into(), Value::UInt(w.misses())),
                        ("hit_rate".into(), Value::Num(w.hit_rate())),
                        ("miss_solve_ms".into(), Value::Num(w.miss_solve_ns as f64 / 1e6)),
                        ("miss_solve_share".into(), Value::Num(miss_solve_share)),
                    ]),
                ),
                ("mappings".into(), Value::Arr(mapping_entries(shared))),
                ("store".into(), store_record(shared)),
            ]),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmevo_machine::platforms;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn tiny_store() -> MappingStore {
        let mut store = MappingStore::new();
        let tiny = platforms::tiny();
        let names: Vec<String> = tiny.isa().forms().iter().map(|f| f.name.clone()).collect();
        store.insert("TINY", names, tiny.ground_truth().clone());
        store
    }

    fn quick_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            cache_capacity: 1024,
            max_batch: 8,
            max_delay: Duration::from_millis(1),
            max_inflight: 64,
        }
    }

    fn start_tcp(store: MappingStore) -> (Server, std::net::SocketAddr) {
        let server = Server::new(store, quick_config()).expect("non-empty store");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind test listener");
        let addr = listener.local_addr().unwrap();
        server.listen_tcp(listener);
        (server, addr)
    }

    /// Sends `lines` on one connection, closes the write half, and
    /// returns every response line.
    fn roundtrip(addr: std::net::SocketAddr, lines: &str) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(lines.as_bytes()).expect("send");
        stream.shutdown(std::net::Shutdown::Write).expect("half-close");
        BufReader::new(stream).lines().map(|l| l.expect("read response")).collect()
    }

    #[test]
    fn an_empty_store_is_refused_not_served() {
        let err = Server::new(MappingStore::new(), quick_config()).err().expect("must refuse");
        assert_eq!(err, "at least one --mapping NAME=file.json is required");
    }

    const ADD: &str = "add_r64_r64_r64";
    const MUL: &str = "mul_r64_r64_r64";

    #[test]
    fn one_connection_gets_offline_identical_records() {
        let (server, addr) = start_tcp(tiny_store());
        let responses = roundtrip(
            addr,
            &format!("{ADD}\n{ADD}; {MUL}\n\nnot_an_inst\nTINY: {ADD}; {MUL} x2\n"),
        );
        // Offline reference: the same lines through the predictor.
        let store = server.predictor().snapshot();
        let id = store.latest("TINY").unwrap();
        let a = server.predictor().predict(id, &store.get(id).parse(ADD).unwrap());
        let b =
            server.predictor().predict(id, &store.get(id).parse(&format!("{ADD}; {MUL}")).unwrap());
        let c = server
            .predictor()
            .predict(id, &store.get(id).parse(&format!(" {ADD}; {MUL} x2")).unwrap());
        assert_eq!(responses.len(), 4, "blank line yields no record: {responses:?}");
        assert_eq!(
            responses[0],
            ServeRecord::Cycles { line: 1, mapping: "TINY@1".into(), cycles: a }.to_json_line()
        );
        assert_eq!(
            responses[1],
            ServeRecord::Cycles { line: 2, mapping: "TINY@1".into(), cycles: b }.to_json_line()
        );
        assert!(
            responses[2].starts_with("{\"line\":4,\"error\":"),
            "unknown instruction becomes an error record: {}",
            responses[2]
        );
        assert_eq!(
            responses[3],
            ServeRecord::Cycles { line: 5, mapping: "TINY@1".into(), cycles: c }.to_json_line()
        );
        server.stop();
        server.join();
    }

    #[test]
    fn concurrent_clients_each_see_their_own_ordered_stream() {
        let (server, addr) = start_tcp(tiny_store());
        let clients: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let input: String = (0..32)
                        .map(|j| format!("{ADD}:{}\n{MUL}; {ADD}\n", (i + j) % 5 + 1))
                        .collect();
                    (i, roundtrip(addr, &input))
                })
            })
            .collect();
        let mut per_client = Vec::new();
        for handle in clients {
            per_client.push(handle.join().expect("client thread"));
        }
        for (i, responses) in &per_client {
            assert_eq!(responses.len(), 64, "client {i} got every line answered");
            for (n, line) in responses.iter().enumerate() {
                assert!(
                    line.starts_with(&format!("{{\"line\":{},\"mapping\":\"TINY@1\"", n + 1)),
                    "client {i} line {} in order: {line}",
                    n + 1
                );
            }
        }
        // Same-content lines from different clients must agree bit-for-bit.
        let first: Vec<&str> =
            per_client.iter().map(|(_, r)| r[1].split_once(',').unwrap().1).collect();
        assert!(first.windows(2).all(|w| w[0] == w[1]), "mul add identical everywhere: {first:?}");
        server.stop();
        server.join();
    }

    #[test]
    fn reload_swaps_routing_mid_stream_and_drains_cleanly() {
        let dir =
            std::env::temp_dir().join(format!("pmevo_serve_reload_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("tiny_v2.json");
        std::fs::write(&artifact, platforms::tiny().ground_truth().to_json_pretty()).unwrap();

        let (server, addr) = start_tcp(tiny_store());
        let responses = roundtrip(
            addr,
            &format!(
                "{ADD}\n!reload TINY={}\n{ADD}\n!reload TINY=/nope.json\n!stats\n",
                artifact.display()
            ),
        );
        assert_eq!(responses.len(), 5, "{responses:?}");
        assert!(responses[0].contains("\"mapping\":\"TINY@1\""), "{}", responses[0]);
        assert_eq!(
            responses[1],
            "{\"line\":2,\"reloaded\":\"TINY@2\"}",
            "reload answers with the new version"
        );
        assert!(
            responses[2].contains("\"mapping\":\"TINY@2\""),
            "lines after the reload route to the new version: {}",
            responses[2]
        );
        assert!(
            responses[3].starts_with("{\"line\":4,\"error\":\"reload failed:"),
            "a bad reload is an error record, not a crash: {}",
            responses[3]
        );
        assert!(
            responses[4].contains("{\"mapping\":\"TINY@1\",\"queries\":1,\"resident\":true,\"bytes\":")
                && responses[4].contains("{\"mapping\":\"TINY@2\",\"queries\":1,\"resident\":true,\"bytes\":"),
            "stats break down the per-mapping load and residency: {}",
            responses[4]
        );
        assert!(
            responses[4].contains("\"store\":{\"budget\":null,\"resident_bytes\":"),
            "stats report the store's residency counters: {}",
            responses[4]
        );
        server.stop();
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_reloads_are_atomic_and_name_the_path() {
        let dir = std::env::temp_dir().join(format!(
            "pmevo_serve_reload_atomic_test_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let garbage = dir.join("garbage.bin");
        // Sniffs as a binary artifact, then fails to decode.
        std::fs::write(&garbage, b"PMEVOBINgarbage").unwrap();

        let (server, addr) = start_tcp(tiny_store());
        let responses = roundtrip(
            addr,
            &format!(
                "!reload TINY={}\n!reload TINY=/definitely/not/here.bin\n!mappings\n",
                garbage.display()
            ),
        );
        assert_eq!(responses.len(), 3, "{responses:?}");
        assert!(
            responses[0].contains("\"error\":\"reload failed:")
                && responses[0].contains("garbage.bin"),
            "a corrupt artifact fails with its path named: {}",
            responses[0]
        );
        assert!(
            responses[1].contains("/definitely/not/here.bin"),
            "an unreadable artifact fails with its path named: {}",
            responses[1]
        );
        assert!(
            responses[2].contains("\"mapping\":\"TINY@1\"")
                && !responses[2].contains("TINY@2"),
            "failed reloads leave the store untouched: {}",
            responses[2]
        );

        // Fix the artifact and retry: the reload lands as version 2 —
        // the failures burned no version numbers and left no partial
        // entry behind.
        let fixed = dir.join("tiny_fixed.json");
        std::fs::write(&fixed, platforms::tiny().ground_truth().to_json_pretty()).unwrap();
        let responses =
            roundtrip(addr, &format!("!reload TINY={}\n!mappings\n", fixed.display()));
        assert_eq!(responses[0], "{\"line\":1,\"reloaded\":\"TINY@2\"}", "{responses:?}");
        assert!(
            responses[1].contains("\"mapping\":\"TINY@1\"")
                && responses[1].contains("\"mapping\":\"TINY@2\""),
            "both versions are listed after the healed reload: {}",
            responses[1]
        );
        server.stop();
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_verb_stops_the_daemon_for_everyone() {
        let (server, addr) = start_tcp(tiny_store());
        let responses = roundtrip(addr, &format!("{ADD}\n!shutdown\n"));
        assert_eq!(responses.len(), 2, "{responses:?}");
        assert_eq!(responses[1], "{\"line\":2,\"ok\":\"shutting down\"}");
        assert!(server.is_shutdown());
        server.join();
        // New connections are refused once the accept loop has exited.
        assert!(
            TcpStream::connect(addr).map(|_| ()).is_err()
                || roundtrip(addr, &format!("{ADD}\n")).is_empty(),
            "no service after shutdown"
        );
    }

    #[test]
    fn malformed_control_lines_answer_with_error_records() {
        let (server, addr) = start_tcp(tiny_store());
        let responses = roundtrip(addr, &format!("!frobnicate\n!reload notaspec\n{ADD}\n"));
        assert_eq!(responses.len(), 3, "{responses:?}");
        assert!(responses[0].starts_with("{\"line\":1,\"error\":"), "{}", responses[0]);
        assert!(responses[1].starts_with("{\"line\":2,\"error\":"), "{}", responses[1]);
        assert!(responses[2].contains("\"cycles\":"), "{}", responses[2]);
        server.stop();
        server.join();
    }
}
