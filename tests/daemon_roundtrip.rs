//! The daemon contract: a client's response stream over the socket is
//! **byte-identical** to `pmevo-cli predict` run offline over the same
//! input lines — regardless of how many other clients are being served
//! concurrently, how the coalescer windows the traffic, or whether a
//! hot reload lands mid-stream on another connection.

use proptest::prelude::*;
use pmevo::machine::platforms;
use pmevo::serve::{store_from_specs, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// A temporary directory owned by one test (or one proptest case) of one
/// test process, removed on drop. Tests run concurrently, and several
/// test processes may share the temp dir, so no two of them ever write
/// the same artifact path.
struct ArtifactDir(PathBuf);

impl ArtifactDir {
    fn new() -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pmevo_daemon_roundtrip_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        ArtifactDir(dir)
    }

    /// Writes the TINY ground-truth mapping as an artifact and returns its
    /// path — the same file format `pmevo-cli infer --out` produces. The
    /// write goes to a temporary file renamed into place, so a reader
    /// never sees a partial artifact.
    fn tiny_artifact(&self, file: &str) -> PathBuf {
        let path = self.0.join(file);
        let tmp = self.0.join(format!("{file}.tmp"));
        std::fs::write(&tmp, platforms::tiny().ground_truth().to_json_pretty())
            .expect("write artifact");
        std::fs::rename(&tmp, &path).expect("move artifact into place");
        path
    }
}

impl Drop for ArtifactDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn start_daemon(dir: &ArtifactDir) -> (Server, SocketAddr, PathBuf) {
    let artifact = dir.tiny_artifact("tiny.json");
    let store = store_from_specs(&[format!("TINY={}", artifact.display())], None)
        .expect("ground-truth artifact loads");
    let config = ServeConfig {
        workers: 2,
        cache_capacity: 4096,
        max_batch: 16,
        max_delay: Duration::from_millis(1),
        max_inflight: 64,
    };
    let server = Server::new(store, config).expect("non-empty store");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    server.listen_tcp(listener);
    (server, addr, artifact)
}

/// One client session: send every line, half-close, read to EOF.
fn via_daemon(addr: SocketAddr, input: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(input.as_bytes()).expect("send");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => response.push_str(&line),
            Err(e) => panic!("daemon read failed: {e}"),
        }
    }
    response
}

/// The offline reference: the same lines through `pmevo-cli predict`.
fn via_offline(artifact: &Path, input: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pmevo-cli"))
        .args(["predict", "--mapping", &format!("TINY={}", artifact.display())])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pmevo-cli predict");
    child.stdin.take().expect("stdin").write_all(input.as_bytes()).expect("feed stdin");
    let out = child.wait_with_output().expect("pmevo-cli predict runs");
    assert!(out.status.success(), "offline predict must succeed");
    String::from_utf8(out.stdout).expect("utf-8 records")
}

/// A random input line: valid sequences (optionally `TINY:`-prefixed,
/// with repeat counts), junk that parses to an error record, and blank
/// or comment lines that produce no record at all.
fn line_strategy() -> impl Strategy<Value = String> {
    let forms: Vec<String> =
        platforms::tiny().isa().forms().iter().map(|f| f.name.clone()).collect();
    let form = {
        let forms = forms.clone();
        (0..forms.len()).prop_map(move |i| forms[i].clone())
    };
    let seq = {
        let forms = forms.clone();
        ((0..forms.len()), 1u32..4).prop_map(move |(i, n)| format!("{} x{n}", forms[i]))
    };
    let multi = {
        let forms = forms.clone();
        ((0..forms.len()), (0..forms.len()), 1u32..3)
            .prop_map(move |(a, b, n)| format!("{}; {}:{n}", forms[a], forms[b]))
    };
    let bad_count = {
        let forms = forms.clone();
        (0..forms.len()).prop_map(move |i| format!("{} x0", forms[i]))
    };
    prop_oneof![
        seq,
        multi,
        form.prop_map(|f| format!("TINY: {f}")),
        Just("definitely_not_an_instruction".to_string()),
        bad_count,
        Just(String::new()),
        Just("# just a comment".to_string()),
    ]
}

proptest! {
    // Each case stands up a daemon and spawns one offline CLI process
    // per client, so the case budget stays tiny; coverage comes from
    // the random interleavings inside each case.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// N concurrent clients with random line mixes: every client's
    /// socket response stream equals its own offline run, byte for
    /// byte. This is the whole serving contract — coalescing windows,
    /// scheduling and batching may differ run to run, response bytes
    /// may not.
    #[test]
    fn concurrent_clients_match_offline_byte_for_byte(
        scripts in proptest::collection::vec(
            proptest::collection::vec(line_strategy(), 1..24),
            2..4,
        )
    ) {
        let dir = ArtifactDir::new();
        let (server, addr, artifact) = start_daemon(&dir);
        let clients: Vec<_> = scripts
            .iter()
            .map(|lines| {
                let input = lines.iter().map(|l| format!("{l}\n")).collect::<String>();
                std::thread::spawn(move || via_daemon(addr, &input))
            })
            .collect();
        let served: Vec<String> =
            clients.into_iter().map(|h| h.join().expect("client thread")).collect();
        for (lines, served) in scripts.iter().zip(served) {
            let input = lines.iter().map(|l| format!("{l}\n")).collect::<String>();
            let offline = via_offline(&artifact, &input);
            prop_assert_eq!(
                &offline, &served,
                "daemon responses must be byte-identical to offline predict"
            );
        }
        server.stop();
        server.join();
    }
}

/// `!stats` reports the hit/miss split *per window* (since the previous
/// `!stats`): a first wave of distinct sequences is all misses, the
/// identical second wave is answered entirely from the cache. The verb
/// is a barrier in the coalescer, so every prediction of a wave is
/// counted before its stats record is built.
#[test]
fn stats_windows_split_hits_and_misses() {
    let dir = ArtifactDir::new();
    let (server, addr, _artifact) = start_daemon(&dir);
    let lines: String = (1..=5).map(|n| format!("add_r64_r64_r64 x{n}\n")).collect();
    let first = via_daemon(addr, &format!("{lines}!stats\n"));
    let stats1 = first.lines().last().expect("stats record");
    assert!(
        stats1.contains("\"window\":{\"queries\":5,\"cache_hits\":0,\"misses\":5,"),
        "first window must be all misses: {stats1}"
    );
    let second = via_daemon(addr, &format!("{lines}!stats\n"));
    let stats2 = second.lines().last().expect("stats record");
    assert!(
        stats2.contains("\"window\":{\"queries\":5,\"cache_hits\":5,\"misses\":0,"),
        "second window must be all cache hits: {stats2}"
    );
    for stats in [stats1, stats2] {
        assert!(stats.contains("\"miss_solve_share\":"), "window solve share: {stats}");
        assert!(stats.contains("\"miss_solve_ms\":"), "cumulative solve time: {stats}");
    }
    server.stop();
    server.join();
}

/// `!mappings` lists every loaded `name@version` with its cumulative
/// query count — and, being a coalescer barrier like `!stats`, counts
/// every prediction of the preceding lines before answering.
#[test]
fn mappings_verb_lists_versions_and_query_counts() {
    let dir = ArtifactDir::new();
    let (server, addr, _artifact) = start_daemon(&dir);

    let empty = via_daemon(addr, "!mappings\n");
    let record = empty.trim_end();
    assert!(
        record.starts_with("{\"line\":1,\"mappings\":[{\"mapping\":\"TINY@1\",\"queries\":0,")
            && record.contains("\"resident\":true,\"bytes\":"),
        "fresh daemon: one mapping, zero queries, resident: {record}"
    );

    let lines: String = (1..=7).map(|n| format!("add_r64_r64_r64 x{n}\n")).collect();
    let after = via_daemon(addr, &format!("{lines}!mappings\n"));
    let record = after.lines().last().expect("mappings record");
    assert!(
        record.starts_with("{\"line\":8,\"mappings\":[{\"mapping\":\"TINY@1\",\"queries\":7,"),
        "the verb is a barrier: all 7 queries are counted before it answers: {record}"
    );

    // After a hot reload both versions are listed; only the new one
    // takes subsequent (unprefixed) traffic.
    let v2 = dir.tiny_artifact("tiny_mappings_v2.json");
    let reload = via_daemon(
        addr,
        &format!("!reload TINY={}\nadd_r64_r64_r64 x2\n!mappings\n", v2.display()),
    );
    let record = reload.lines().last().expect("mappings record");
    assert!(
        record.starts_with("{\"line\":3,\"mappings\":[{\"mapping\":\"TINY@1\",\"queries\":7,")
            && record.contains("{\"mapping\":\"TINY@2\",\"queries\":1,"),
        "both versions listed, traffic attributed per version: {record}"
    );

    server.stop();
    server.join();
}

/// A hot reload on one connection must not disturb another client's
/// in-flight stream: the bystander keeps getting records for every
/// line, all referencing a valid mapping version, in input order.
#[test]
fn reload_mid_stream_leaves_other_clients_consistent() {
    let dir = ArtifactDir::new();
    let (server, addr, _artifact) = start_daemon(&dir);
    let v2 = dir.tiny_artifact("tiny_v2.json");

    let streamer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut responses = Vec::new();
        for i in 0..200 {
            writeln!(stream, "add_r64_r64_r64 x{}", i % 7 + 1).expect("send");
            if i == 100 {
                // Give the reloader a window to land mid-stream.
                std::thread::sleep(Duration::from_millis(5));
            }
            let mut line = String::new();
            reader.read_line(&mut line).expect("response");
            responses.push(line);
        }
        responses
    });

    std::thread::sleep(Duration::from_millis(2));
    let reload_response =
        via_daemon(addr, &format!("!reload TINY={}\n", v2.display()));
    assert!(
        reload_response.contains("\"reloaded\":\"TINY@2\""),
        "reload must answer with the new version: {reload_response}"
    );

    let responses = streamer.join().expect("streamer thread");
    assert_eq!(responses.len(), 200, "every line answered across the reload");
    for (i, line) in responses.iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"line\":{},\"mapping\":\"TINY@", i + 1)),
            "line {} stays ordered and routed across the reload: {line}",
            i + 1
        );
        assert!(line.contains("\"cycles\":"), "line {}: {line}", i + 1);
    }
    server.stop();
    server.join();
}
