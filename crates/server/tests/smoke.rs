//! End-to-end smoke test: pipes the scripted multi-tenant session in
//! `tests/data/smoke.in` through the built `whynot-server` binary and
//! diffs stdout against the committed golden transcript. The same
//! pair of files backs the CI smoke gate, so a protocol change that
//! alters the wire output fails here first — regenerate the golden
//! deliberately, never by accident.
//!
//! Batch answers are bit-identical at every thread count (the
//! executor contract), so the transcript is stable even though the
//! test pins `WHYNOT_SERVER_THREADS=2` for good measure.
//!
//! A second golden, `smoke.budget1.golden`, pins LRU eviction end to
//! end: the same script at `WHYNOT_SERVER_CACHE_BUDGET=1`, whose
//! `mutate` and `stats` lines report the invalidation and per-cache
//! eviction counts.

use std::io::Write;
use std::process::{Command, Stdio};

/// Pipes `script` through the built `whynot-server` binary with the
/// `WHYNOT_SERVER_*` environment cleared except for `env`, and returns
/// its stdout, asserting a clean exit.
fn run_server(script: &str, env: &[(&str, &str)]) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_whynot-server"));
    cmd.env("WHYNOT_SERVER_THREADS", "2")
        .env_remove("WHYNOT_SERVER_QUEUE_DEPTH")
        .env_remove("WHYNOT_SERVER_CACHE_BUDGET")
        .env_remove("WHYNOT_SERVER_SNAPSHOT_DIR")
        .env_remove("WHYNOT_SERVER_MAX_TENANTS");
    for (key, value) in env {
        cmd.env(key, value);
    }
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn whynot-server");

    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("server exits");

    assert!(
        out.status.success(),
        "server exited with {:?}; stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 transcript")
}

/// Asserts `got` equals `golden` line by line, naming the first
/// divergent line.
fn assert_transcript(got: &str, golden: &str) {
    if got != golden {
        for (i, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
            assert_eq!(g, w, "transcript diverges at line {}", i + 1);
        }
        assert_eq!(
            got.lines().count(),
            golden.lines().count(),
            "transcript length differs"
        );
        panic!("transcripts differ only in trailing whitespace");
    }
}

#[test]
fn scripted_session_matches_golden_transcript() {
    let got = run_server(include_str!("data/smoke.in"), &[]);
    assert_transcript(&got, include_str!("data/smoke.golden"));
}

/// The same script with every session cache capped at one entry: the
/// answers are unchanged, and the eviction and invalidation counters
/// match the committed transcript.
#[test]
fn scripted_session_at_cache_budget_one_matches_golden_transcript() {
    let got = run_server(
        include_str!("data/smoke.in"),
        &[("WHYNOT_SERVER_CACHE_BUDGET", "1")],
    );
    assert_transcript(&got, include_str!("data/smoke.budget1.golden"));
}

/// One hostile wire line must not abort the process: a `mutate` whose
/// delta nests 200 000 arrays deep (a recursive parser would overflow
/// the stack) is answered with an error, and the next line is served.
#[test]
fn deeply_nested_mutate_line_is_rejected_and_serving_continues() {
    let script = include_str!("data/smoke.in");
    // The tenant definitions from the smoke script, up to its first ask.
    let end = script
        .find("tenants\n")
        .expect("smoke script lists tenants");
    let create = &script[..end];
    let hostile = format!("mutate alpha | {}\n", "[".repeat(200_000));
    let got = run_server(&format!("{create}{hostile}ping\nshutdown\n"), &[]);
    let lines: Vec<&str> = got.lines().collect();
    let n = lines.len();
    assert!(n >= 3, "{got}");
    let rejected = lines[n - 3];
    assert!(
        rejected.starts_with("{\"ok\":false,\"command\":\"mutate\""),
        "{rejected}"
    );
    assert!(rejected.contains("nesting"), "{rejected}");
    assert_eq!(lines[n - 2], "{\"ok\":true,\"command\":\"ping\"}");
}
