//! CLI-contract regression tests for the `hisq` binary, run against
//! the real executable (`CARGO_BIN_EXE_hisq`): unknown flags and flag
//! conflicts must exit 2 with a usage message — never run a sweep with
//! a silently ignored option — and `--quick` must execute the reduced
//! grid successfully. A grid past the scenario limit exits 1 before
//! anything is expanded.

use std::process::Command;

/// Workspace-root path of a committed golden-corpus scenario file.
const SCENARIO: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/scenarios/bisp_vs_lockstep.json"
);

fn hisq(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hisq"))
        .args(args)
        .output()
        .expect("hisq binary runs")
}

#[test]
fn unknown_run_flag_exits_2_with_usage() {
    let out = hisq(&["run", SCENARIO, "--turbo"]);
    assert_eq!(out.status.code(), Some(2), "unknown flags are an error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--turbo`"), "{stderr}");
    assert!(stderr.contains("usage: hisq"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "a rejected invocation must not produce a report"
    );
}

#[test]
fn quick_conflicts_with_repetitions() {
    let out = hisq(&["run", SCENARIO, "--quick", "--repetitions", "2"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--quick conflicts with --repetitions"),
        "{stderr}"
    );
}

#[test]
fn quick_run_executes_the_reduced_grid() {
    let out = hisq(&["run", SCENARIO, "--quick", "--json"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The quick pass of the 2×2 corpus grid is the grid itself (it is
    // already single-shot, single-repetition).
    assert!(stdout.starts_with("{\"scenarios\":4,"), "{stdout}");
}

/// A grid too large to expand is a typed error (exit 1), not an abort
/// on a terabyte allocation.
#[test]
fn validate_rejects_a_grid_past_the_scenario_limit() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("huge_repetitions.json");
    std::fs::write(
        &path,
        r#"{"schema_version": 1, "name": "huge", "repetitions": 4000000000,
            "base": {"workload": {"suite": "w_state_n12"}, "scheme": "bisp"}}"#,
    )
    .expect("temp file is writable");
    let out = hisq(&["validate", path.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("scenario.repetitions: grid points x repetitions exceed"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn run_rejects_repetitions_past_the_scenario_limit() {
    for reps in ["4000000000", "18446744073709551615"] {
        let out = hisq(&["run", SCENARIO, "--repetitions", reps]);
        assert_eq!(out.status.code(), Some(1), "--repetitions {reps}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("grid points x repetitions exceed"),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "no sweep runs");
    }
}
