//! `bench-check`'s command line: anything but `--scrape <addr>` is a
//! usage error, not a silent pass.

use std::process::Command;

fn bench_check(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench-check"))
        .args(args)
        .output()
        .expect("bench-check runs")
}

#[test]
fn no_artifact_at_all_is_a_usage_error() {
    assert_eq!(bench_check(&[]).status.code(), Some(2));
}

#[test]
fn a_file_argument_is_a_usage_error() {
    for args in [
        &["k.json"][..],
        &["--chrome", "t.json"],
        &["--scrape"],
        &["--scrape", "127.0.0.1:1", "k.json"],
    ] {
        let out = bench_check(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--scrape <addr>"), "{args:?}: {stderr}");
    }
}
