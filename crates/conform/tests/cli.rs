//! Exit codes of the `nonmask-run` binary: a bad command line or a
//! degenerate instance size exits 1 with an `error:` line, never 101
//! with a panic; and every seed flag reads hex as well as decimal.
//!
//! Every rejected case stops before a socket run, a corpus or a
//! synthesis search starts, so the suite stays fast on one core.

use std::process::{Command, Output};

fn nonmask_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nonmask-run"))
        .args(args)
        .output()
        .expect("nonmask-run starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Run `args`, expect exit code 1, and return stderr.
fn rejected(args: &[&str]) -> String {
    let out = nonmask_run(args);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "nonmask-run {args:?}: {err}");
    assert!(err.starts_with("error: "), "nonmask-run {args:?}: {err}");
    assert!(!err.contains("panicked"), "nonmask-run {args:?}: {err}");
    err
}

#[test]
fn degenerate_synth_sizes_are_one_error_line() {
    for (args, message) in [
        (
            &["synth", "--protocol", "token-ring", "--nodes", "1"][..],
            "bad spec: a ring needs at least two nodes",
        ),
        (
            &["synth", "--protocol", "token-ring", "--window", "0"],
            "bad spec: the window needs at least two values",
        ),
        (
            &["synth", "--protocol", "diffusing", "--nodes", "1"],
            "bad spec: a tree needs at least two nodes",
        ),
        (
            &["synth", "--protocol", "coloring", "--nodes", "0"],
            "bad spec: a tree needs at least two nodes",
        ),
        (
            &["synth", "--protocol", "coloring", "--colors", "1"],
            "bad spec: proper coloring needs at least two colors",
        ),
    ] {
        assert_eq!(rejected(args), format!("error: {message}\n"), "{args:?}");
    }
}

#[test]
fn degenerate_sizes_and_bad_values_exit_1() {
    for (args, first_line) in [
        (
            &["token-ring", "--nodes", "1"][..],
            "error: token-ring needs --nodes >= 2",
        ),
        (
            &["check", "--nodes", "1"],
            "error: check needs --nodes >= 2",
        ),
        (
            &["byzantine", "--nodes", "3"],
            "error: byzantine needs --nodes >= 4",
        ),
        (
            &["byzantine", "--byz", "1,x"],
            "error: --byz: invalid digit found in string",
        ),
        (
            &["byzantine", "--check-nodes", "9"],
            "error: --check-nodes must be in 4..=7 for bfs (the space is enumerated)",
        ),
        (
            &["fleet", "--tenants", "0"],
            "error: invalid fleet config: fleet has zero tenants",
        ),
        (
            &["fleet", "--seed", "0xZZ"],
            "error: --seed: invalid digit found in string",
        ),
    ] {
        let err = rejected(args);
        assert_eq!(err.lines().next(), Some(first_line), "{args:?}");
    }
}

/// The digest line of a small fleet run with `--seed seed`.
fn fleet_digest(seed: &str) -> String {
    let out = nonmask_run(&["fleet", "--tenants", "8", "--seed", seed]);
    assert!(
        out.status.success(),
        "fleet --seed {seed}: {}",
        stderr(&out)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let digest = stdout.split("digest ").nth(1).expect("a digest line");
    digest.lines().next().unwrap_or_default().to_owned()
}

#[test]
fn a_hex_seed_is_the_same_seed_as_its_decimal() {
    assert_eq!(fleet_digest("0xF1EE7001"), fleet_digest("4058935297"));
    assert_eq!(fleet_digest("0x10"), fleet_digest("16"));
}

#[test]
fn check_rejects_the_protocol_run_flags_it_does_not_read() {
    for flag in [
        &["--loss", "0.9"][..],
        &["--crash", "2"],
        &["--json", "out.json"],
        &["--seed", "7"],
        &["--shards", "2"],
        &["--timeout-ms", "10"],
    ] {
        let mut args = vec!["check", "--nodes", "3"];
        args.extend(flag);
        let err = rejected(&args);
        let first = format!("error: check does not take `{}`", flag[0]);
        assert_eq!(err.lines().next(), Some(first.as_str()), "{args:?}");
    }
}

#[test]
fn an_unwritable_json_path_fails_before_the_run() {
    let args = [
        "token-ring",
        "--nodes",
        "3",
        "--json",
        "/nonexistent/dir/out.json",
    ];
    let out = nonmask_run(&args);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.starts_with("error: cannot create /nonexistent/dir/out.json: "),
        "{err}"
    );
    assert_eq!(err.lines().count(), 1, "{err}");
    // The run prints `launching …` before any node starts.
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "",
        "nothing was launched"
    );
}
