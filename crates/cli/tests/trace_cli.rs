//! Pins the `mwn trace` CLI contract that downstream tooling (JSONL
//! consumers, shell pipelines) relies on.

use std::process::Command;

fn mwn(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mwn"))
        .args(args)
        .output()
        .expect("spawn mwn")
}

/// JSONL output is line-oriented: every record is one line and the
/// stream ends with exactly one trailing newline, so `wc -l`, `jq` and
/// appending streams all see clean record boundaries.
#[test]
fn trace_jsonl_ends_with_exactly_one_trailing_newline() {
    let out = mwn(&[
        "trace", "--hops", "1", "--events", "20", "--format", "jsonl",
    ]);
    assert!(out.status.success(), "trace failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(!stdout.is_empty());
    assert!(stdout.ends_with('\n'), "missing trailing newline");
    assert!(!stdout.ends_with("\n\n"), "more than one trailing newline");
    for line in stdout.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object line: {line:?}"
        );
    }
}

/// Unknown transport variants are a usage error: exit code 2 with a
/// diagnostic on stderr, nothing on stdout.
#[test]
fn trace_unknown_transport_exits_2() {
    let out = mwn(&["trace", "--transport", "carrier-pigeon"]);
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        !stdout.lines().any(|l| l.starts_with('{')),
        "usage errors must not emit records"
    );
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(
        stderr.contains("carrier-pigeon"),
        "diagnostic should name the bad variant: {stderr}"
    );
}

/// Asserts the one-line error contract: exit code 2, a single `error:`
/// line on stderr, and no usage dump on either stream.
fn assert_one_line_error(out: &std::process::Output) -> String {
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8(out.stderr.clone()).expect("utf-8");
    assert_eq!(stderr.lines().count(), 1, "not one line: {stderr:?}");
    assert!(stderr.starts_with("error: "), "{stderr:?}");
    assert!(
        !stdout.contains("USAGE") && !stderr.contains("USAGE"),
        "usage text dumped: {stdout}{stderr}"
    );
    stderr
}

/// An invalid traffic model is a usage error, not a panic.
#[test]
fn traffic_zero_flows_is_a_one_line_error() {
    let out = mwn(&["traffic", "--nodes", "10", "--flows", "0"]);
    let stderr = assert_one_line_error(&out);
    assert!(stderr.contains("max_flows"), "{stderr}");
}

#[test]
fn unknown_bench_flag_is_a_one_line_error() {
    let out = mwn(&["bench", "--bogus"]);
    let stderr = assert_one_line_error(&out);
    assert!(stderr.contains("--bogus"), "{stderr}");
}
