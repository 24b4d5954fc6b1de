//! Integration tests of the `gpm` command-line tool.

use std::process::Command;

fn gpm(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_gpm"))
        .args(args)
        .output()
        .expect("spawn gpm binary");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn list_prints_the_suite() {
    let (stdout, _, ok) = gpm(&["list"]);
    assert!(ok);
    for name in ["mandelbulbGPU", "Spmv", "kmeans", "hybridsort"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn schemes_lists_every_policy() {
    let (stdout, _, ok) = gpm(&["schemes"]);
    assert!(ok);
    for s in ["turbo-core", "ppk", "mpc", "to", "equalizer-perf"] {
        assert!(stdout.contains(s), "missing {s}");
    }
}

#[test]
fn run_produces_valid_json() {
    let (stdout, stderr, ok) = gpm(&[
        "run",
        "--workload",
        "NBody",
        "--scheme",
        "to",
        "--fast",
        "--json",
    ]);
    assert!(ok, "stderr: {stderr}");
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert_eq!(v["workload"], "NBody");
    assert_eq!(v["scheme"], "TO");
    assert!(v["energy_savings_pct"].as_f64().unwrap() > 0.0);
    assert!(v["speedup"].as_f64().unwrap() > 0.5);
}

#[test]
fn sweep_marks_one_energy_optimum() {
    let (stdout, _, ok) = gpm(&["sweep", "--kernel", "peak"]);
    assert!(ok);
    let marks = stdout.matches('*').count();
    assert_eq!(marks, 1, "expected exactly one optimal mark:\n{stdout}");
}

#[test]
fn trace_prints_one_row_per_invocation() {
    let (stdout, _, ok) = gpm(&["trace", "--workload", "Spmv"]);
    assert!(ok);
    assert_eq!(stdout.lines().count(), 30);
}

#[test]
fn unknown_command_fails_with_usage() {
    let (stdout, _, ok) = gpm(&["frobnicate"]);
    assert!(!ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn run_rejects_unknown_workload_and_scheme() {
    let (_, stderr, ok) = gpm(&["run", "--workload", "nope", "--scheme", "mpc"]);
    assert!(!ok);
    assert!(stderr.contains("unknown workload"));
    let (_, stderr, ok) = gpm(&["run", "--workload", "NBody", "--scheme", "nope"]);
    assert!(!ok);
    assert!(stderr.contains("unknown scheme"));
}

#[test]
fn corrupted_cache_is_a_load_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("gpm_cli_cache_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ctx.json");
    let path_str = path.to_str().unwrap();
    let run = ["run", "--workload", "NBody", "--scheme", "mpc", "--fast"];
    let (_, stderr, ok) = gpm(&[&run[..], &["--cache", path_str]].concat());
    assert!(ok, "stderr: {stderr}");

    // Point the first split's right child far past the end of its tree.
    let json = std::fs::read_to_string(&path).unwrap();
    let at = json.find("\"right\":").expect("saved forest has a split") + "\"right\":".len();
    let digits = json[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let corrupted = format!("{}1000000{}", &json[..at], &json[at + digits..]);
    std::fs::write(&path, corrupted).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_gpm"))
        .args(run)
        .args(["--cache", path_str])
        .output()
        .expect("spawn gpm binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("cannot load"), "stderr: {stderr}");
    assert!(
        stderr.contains("out-of-range right child"),
        "stderr: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
