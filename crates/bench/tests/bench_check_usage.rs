//! `bench-check`'s command line: a gate flag that would gate nothing is
//! a usage error, not a silent pass.

use std::process::Command;

fn bench_check(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench-check"))
        .args(args)
        .output()
        .expect("bench-check runs")
}

#[test]
fn boundary_ratio_without_a_bench_file_is_a_usage_error() {
    let out = bench_check(&["--chrome", "t.json", "--max-boundary-ratio", "1.0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--max-boundary-ratio"), "{stderr}");
}

#[test]
fn no_artifact_at_all_is_a_usage_error() {
    assert_eq!(bench_check(&[]).status.code(), Some(2));
}
