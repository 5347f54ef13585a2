//! The serving path of `pmevo-cli` must never panic on malformed
//! input: bad numeric flags, zero worker/batch counts and a missing
//! `--mapping` all get a printable error plus the usage text on stderr
//! and a nonzero exit — no backtraces, no aborts. Corpus-replay mode
//! additionally pinpoints bad corpus lines by line *and* column and
//! suggests the nearest known mnemonic for typos.

mod common;

use common::ScratchDir;
use pmevo::machine::platforms;
use std::process::{Command, Output, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pmevo-cli"))
}

fn run(args: &[&str]) -> Output {
    cli()
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn pmevo-cli")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Every graceful failure: no panic marker, an `error:` line naming the
/// offense, the usage text for orientation.
fn assert_graceful(out: &Output, needle: &str) {
    let stderr = stderr_of(out);
    assert!(
        !stderr.contains("panicked"),
        "serving path must not panic:\n{stderr}"
    );
    assert!(stderr.contains(needle), "stderr must contain {needle:?}:\n{stderr}");
    assert!(stderr.contains("usage: pmevo-cli"), "stderr must show usage:\n{stderr}");
    assert!(!out.status.success());
}

#[test]
fn malformed_numeric_flags_error_instead_of_panicking() {
    for flag in ["--jobs", "--cache", "--batch"] {
        let out = run(&["predict", "--mapping", "TINY=whatever.json", flag, "abc"]);
        assert_graceful(&out, &format!("error: {flag} expects a number, got \"abc\""));
        assert_eq!(out.status.code(), Some(1), "bad {flag} value exits 1");
    }
    for (cmd, flag) in [("infer", "--population"), ("infer", "--seed"), ("show", "--limit")] {
        let out = run(&[cmd, "--platform", "TINY", flag, "abc"]);
        assert_graceful(&out, &format!("error: {flag} expects a number, got \"abc\""));
    }
}

#[test]
fn zero_worker_and_batch_counts_are_rejected_loudly() {
    // --jobs 0 would build an empty worker pool; --batch 0 would turn
    // the flush threshold into "always" and silently degrade batching.
    for flag in ["--jobs", "--batch"] {
        let out = run(&["predict", "--mapping", "TINY=whatever.json", flag, "0"]);
        assert_graceful(&out, &format!("error: {flag} must be at least 1, got 0"));
        assert_eq!(out.status.code(), Some(1));
    }
}

#[test]
fn predict_without_mappings_asks_for_one() {
    let out = run(&["predict"]);
    assert_graceful(&out, "at least one --mapping NAME=file.json is required");
    assert_eq!(out.status.code(), Some(2), "missing flags are usage errors");
}

#[test]
fn unreadable_and_malformed_mapping_specs_error_cleanly() {
    let dir = ScratchDir::new("unreadable_and_malformed_mapping_specs_error_cleanly");
    let out = run(&["predict", "--mapping", "TINY=/definitely/not/here.json"]);
    assert_graceful(&out, "cannot read /definitely/not/here.json");

    // A free (non-platform) name is legal only for binary artifacts,
    // which embed their instruction names; a JSON artifact under one is
    // refused with a pointer at the converter.
    let tiny = dir.write("free_name.json", &platforms::tiny().ground_truth().to_json_pretty());
    let out = run(&["predict", "--mapping", &format!("M1={}", tiny.display())]);
    assert_graceful(&out, "\"M1\" is not a built-in platform");
    assert_graceful(&out, "see `pmevo-cli convert`");
}

#[test]
fn mapping_names_with_reserved_characters_are_rejected() {
    // `@` is the version separator of the `name@version` grammar; a
    // registered name containing it would make `!reload TINY@2=...`
    // ambiguous forever after.
    let out = run(&["predict", "--mapping", "TINY@2=whatever.json"]);
    assert_graceful(&out, "invalid mapping name \"TINY@2\"");
    assert_graceful(&out, "must not contain '@'");

    let out = run(&["predict", "--mapping", "BAD NAME=whatever.json"]);
    assert_graceful(&out, "invalid mapping name \"BAD NAME\"");
}

#[test]
fn malformed_store_budget_is_rejected_loudly() {
    for bad in ["abc", "12q", "-5"] {
        let out = run(&["predict", "--mapping", "TINY=whatever.json", "--store-budget", bad]);
        assert_graceful(
            &out,
            &format!("error: --store-budget expects bytes (with an optional k/m/g suffix), got {bad:?}"),
        );
        assert_eq!(out.status.code(), Some(1), "bad --store-budget value exits 1");
    }
}

#[test]
fn infer_rejects_unknown_artifact_formats() {
    let out = run(&["infer", "--platform", "TINY", "--format", "msgpack"]);
    let stderr = stderr_of(&out);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("unknown --format msgpack; expected json or bin"), "{stderr}");
    assert_eq!(out.status.code(), Some(2), "unknown format is a usage error");
}

#[test]
fn convert_errors_are_reported_cleanly() {
    let dir = ScratchDir::new("convert_errors_are_reported_cleanly");
    // Missing --in/--out is a usage error.
    let out = run(&["convert"]);
    assert_corpus_error(&out, "convert needs --in <artifact> and --out <artifact>");
    assert_eq!(out.status.code(), Some(2));

    let out = run(&["convert", "--in", "/definitely/not/here.bin", "--out", "x.json"]);
    assert_corpus_error(&out, "cannot read /definitely/not/here.bin");
    assert_eq!(out.status.code(), Some(1));

    // JSON → binary without a platform: the binary format embeds the
    // instruction-name table, which JSON artifacts do not carry.
    let tiny = dir.write("convert_tiny.json", &platforms::tiny().ground_truth().to_json_pretty());
    let out = run(&["convert", "--in", tiny.to_str().unwrap(), "--out", "x.bin"]);
    assert_corpus_error(&out, "converting a JSON artifact to binary needs --platform");
    assert_eq!(out.status.code(), Some(2));

    // A corrupt binary artifact decodes to a structured error naming the
    // byte offset, not a panic.
    let garbage = dir.write("convert_garbage.bin", "PMEVOBINgarbage-not-a-real-artifact");
    let out = run(&["convert", "--in", garbage.to_str().unwrap(), "--out", "x.json"]);
    assert_corpus_error(&out, "cannot decode");
    assert_corpus_error(&out, "at byte");
}

#[test]
fn client_without_an_endpoint_is_a_usage_error() {
    let out = run(&["client"]);
    assert_graceful(&out, "exactly one of --connect HOST:PORT or --unix PATH");
}

/// A corpus-mode failure: nonzero exit, no panic, a stderr line naming
/// the offense (these are flag-level errors, reported without the full
/// usage dump).
fn assert_corpus_error(out: &Output, needle: &str) {
    let stderr = stderr_of(out);
    assert!(!stderr.contains("panicked"), "corpus mode must not panic:\n{stderr}");
    assert!(stderr.contains(needle), "stderr must contain {needle:?}:\n{stderr}");
    assert!(!out.status.success());
}

#[test]
fn corpus_mode_flag_errors_are_reported_cleanly() {
    let dir = ScratchDir::new("corpus_mode_flag_errors_are_reported_cleanly");
    let corpus = dir.write("corpus_flags.txt", "addq %rax, %rbx\n");
    let corpus = corpus.to_str().unwrap();

    let out = run(&["predict", "--corpus", corpus]);
    assert_corpus_error(&out, "missing --uarch (skl, zen or a72)");
    assert_eq!(out.status.code(), Some(2));

    let out = run(&["predict", "--corpus", corpus, "--uarch", "m1"]);
    assert_corpus_error(&out, "unknown uarch m1; expected skl, zen or a72");

    let out = run(&["predict", "--corpus", corpus, "--uarch", "skl", "--isa", "riscv"]);
    assert_corpus_error(&out, "unsupported --isa riscv");

    // A mapping for the wrong platform: the error names the one needed.
    let tiny = dir.write("tiny.json", &platforms::tiny().ground_truth().to_json_pretty());
    let out = run(&[
        "predict", "--corpus", corpus, "--uarch", "skl",
        "--mapping", &format!("TINY={}", tiny.display()),
    ]);
    assert_corpus_error(&out, "corpus replay on skl needs --mapping SKL=file.json");

    let skl = dir.write("skl.json", &platforms::skl().ground_truth().to_json_pretty());
    let out = run(&[
        "predict", "--corpus", "/definitely/not/here.txt", "--uarch", "skl",
        "--mapping", &format!("SKL={}", skl.display()),
    ]);
    assert_corpus_error(&out, "cannot read /definitely/not/here.txt");
}

/// Unmappable corpus lines come back as records carrying the 1-based
/// line *and column* of the offending token, and typo'd mnemonics get a
/// nearest-known suggestion.
#[test]
fn corpus_records_carry_line_column_and_suggestions() {
    let dir = ScratchDir::new("corpus_records_carry_line_column_and_suggestions");
    let corpus = dir.write(
        "corpus_bad.txt",
        "addq %rax, %rbx\n\naddd %rax, %rbx\n\nmov rax, @x\n",
    );
    let skl = dir.write("skl.json", &platforms::skl().ground_truth().to_json_pretty());
    let out = run(&[
        "predict",
        "--corpus", corpus.to_str().unwrap(),
        "--uarch", "skl",
        "--mapping", &format!("SKL={}", skl.display()),
    ]);
    let stderr = stderr_of(&out);
    assert!(out.status.success(), "replay with bad lines still exits 0:\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);

    // Block 0 maps; block 1 is a typo with a suggestion; block 2 is
    // lexically malformed with a column inside the operand.
    assert!(stdout.contains("\"block\":0,\"line\":1,\"insts\":1,\"mapping\":\"SKL@1\",\"cycles\":"), "{stdout}");
    assert!(
        stdout.contains("\"block\":1,\"line\":3,\"column\":1,\"reason\":\"unknown_mnemonic\""),
        "{stdout}"
    );
    assert!(stdout.contains("did you mean \\\"add\\\"?"), "{stdout}");
    assert!(
        stdout.contains("\"block\":2,\"line\":5,\"column\":10,\"reason\":\"malformed_line\""),
        "{stdout}"
    );
    // The final line is the accounting summary, with every block counted.
    let last = stdout.lines().last().expect("accounting line");
    assert!(last.starts_with("{\"blocks\":3,\"mapped_blocks\":1,"), "{last}");
    assert!(last.contains("\"by_reason\":{\"malformed_line\":1,\"unknown_mnemonic\":1}"), "{last}");
}

/// The one-off `--experiment` path suggests the nearest known form for
/// a typo'd instruction name.
#[test]
fn experiment_mode_suggests_nearest_form() {
    let dir = ScratchDir::new("experiment_mode_suggests_nearest_form");
    let tiny = dir.write("tiny.json", &platforms::tiny().ground_truth().to_json_pretty());
    let out = run(&[
        "predict",
        "--platform", "TINY",
        "--mapping", tiny.to_str().unwrap(),
        "--experiment", "add_r64_r64_r6:1",
    ]);
    assert!(!out.status.success());
    let stderr = stderr_of(&out);
    assert!(
        stderr.contains(
            "unknown instruction form \"add_r64_r64_r6\" (did you mean \"add_r64_r64_r64\"?)"
        ),
        "{stderr}"
    );
}

/// A zero repeat count in the one-off `--experiment` path is a parse
/// error: it neither panics in the loop builder nor drops the term from
/// a longer experiment.
#[test]
fn experiment_mode_rejects_zero_counts() {
    let dir = ScratchDir::new("experiment_mode_rejects_zero_counts");
    let tiny = dir.write("tiny.json", &platforms::tiny().ground_truth().to_json_pretty());
    for spec in ["add_r64_r64_r64:0", "add_r64_r64_r64:0,mul_r64_r64_r64:2"] {
        let out = run(&[
            "predict",
            "--platform", "TINY",
            "--mapping", tiny.to_str().unwrap(),
            "--experiment", spec,
        ]);
        let stderr = stderr_of(&out);
        assert!(!stderr.contains("panicked"), "{spec}: {stderr}");
        assert!(stderr.contains("bad repeat count"), "{spec}: {stderr}");
        assert_eq!(out.status.code(), Some(2), "{spec}: {stderr}");
    }
}

/// `show` reads a binary artifact like every other mapping reader, and
/// renders it exactly like the JSON artifact it was converted from.
#[test]
fn show_renders_a_binary_artifact_like_its_json() {
    let dir = ScratchDir::new("show_renders_a_binary_artifact_like_its_json");
    let json = dir.write("tiny.json", &platforms::tiny().ground_truth().to_json_pretty());
    let bin = dir.path("tiny.bin");
    let (json, bin) = (json.to_str().unwrap(), bin.to_str().unwrap());
    let out = run(&["convert", "--in", json, "--out", bin, "--platform", "TINY"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let show = |path: &str| run(&["show", "--platform", "TINY", "--mapping", path]);
    let (from_json, from_bin) = (show(json), show(bin));
    assert!(from_json.status.success(), "{}", stderr_of(&from_json));
    assert!(from_bin.status.success(), "{}", stderr_of(&from_bin));
    assert_eq!(
        String::from_utf8_lossy(&from_bin.stdout),
        String::from_utf8_lossy(&from_json.stdout)
    );
}

// ---------------------------------------------------------------------------
// Checkpoint/resume error paths: a corrupted, truncated, missing or
// mismatched artifact must produce a positioned error, never a panic.

/// The committed known-good v1 checkpoint artifact.
fn golden_checkpoint() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/checkpoint_v1.json"
    ))
    .expect("golden checkpoint fixture present")
}

#[test]
fn resume_without_checkpoint_flag_is_a_usage_error() {
    let out = run(&["infer", "--platform", "TINY", "--resume"]);
    assert_corpus_error(&out, "--resume needs --checkpoint FILE");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn truncated_checkpoint_reports_the_byte_position() {
    let dir = ScratchDir::new("truncated_checkpoint_reports_the_byte_position");
    let golden = golden_checkpoint();
    let truncated = dir.write("ck_truncated.json", &golden[..golden.len() / 2]);
    let out = run(&[
        "infer", "--platform", "TINY",
        "--checkpoint", truncated.to_str().unwrap(),
        "--resume",
    ]);
    assert_corpus_error(&out, "error: cannot resume:");
    assert_corpus_error(&out, "at byte");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn corrupted_checkpoint_is_rejected_without_panicking() {
    let dir = ScratchDir::new("corrupted_checkpoint_is_rejected_without_panicking");
    let garbage = dir.write("ck_garbage.json", "this is not a checkpoint");
    let out = run(&[
        "infer", "--platform", "TINY",
        "--checkpoint", garbage.to_str().unwrap(),
        "--resume",
    ]);
    assert_corpus_error(&out, "error: cannot resume:");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn future_checkpoint_version_is_named_in_the_error() {
    let dir = ScratchDir::new("future_checkpoint_version_is_named_in_the_error");
    let from_the_future = golden_checkpoint().replace("\"version\":1,", "\"version\":99,");
    let path = dir.write("ck_v99.json", &from_the_future);
    let out = run(&[
        "infer", "--platform", "TINY",
        "--checkpoint", path.to_str().unwrap(),
        "--resume",
    ]);
    assert_corpus_error(&out, "unsupported checkpoint version 99");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn missing_checkpoint_file_names_the_path() {
    let out = run(&[
        "infer", "--platform", "TINY",
        "--checkpoint", "/definitely/not/here/ck.json",
        "--resume",
    ]);
    assert_corpus_error(&out, "checkpoint I/O error on /definitely/not/here/ck.json");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn checkpoint_for_another_platform_is_a_header_mismatch() {
    let dir = ScratchDir::new("checkpoint_for_another_platform_is_a_header_mismatch");
    // The golden artifact records the 6-form TINY universe; resuming it
    // into an SKL session must name the universe mismatch.
    let path = dir.write("ck_tiny.json", &golden_checkpoint());
    let out = run(&[
        "infer", "--platform", "SKL",
        "--checkpoint", path.to_str().unwrap(),
        "--resume",
    ]);
    assert_corpus_error(&out, "checkpoint does not match this session:");
    assert_corpus_error(&out, "checkpointed universe is 6x4");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn conflicting_seed_on_resume_is_a_header_mismatch() {
    let dir = ScratchDir::new("conflicting_seed_on_resume_is_a_header_mismatch");
    // Flags not repeated on resume are adopted from the artifact, but an
    // explicitly conflicting one is an error, not a silent divergence.
    let path = dir.write("ck_seed.json", &golden_checkpoint());
    let out = run(&[
        "infer", "--platform", "TINY",
        "--checkpoint", path.to_str().unwrap(),
        "--resume",
        "--seed", "1",
    ]);
    assert_corpus_error(&out, "checkpoint does not match this session:");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn islands_and_checkpoint_require_the_pmevo_algorithm() {
    let out = run(&["infer", "--platform", "TINY", "--algorithm", "counting", "--islands", "2"]);
    assert_corpus_error(&out, "--islands and --checkpoint are only supported by the pmevo algorithm");
    assert_eq!(out.status.code(), Some(2));
}
