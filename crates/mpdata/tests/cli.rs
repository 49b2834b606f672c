//! `mpdata-run` end to end: the input gate must let every shipped
//! `--problem` through (and the run must still verify bitwise), the
//! one-island `fused` strategy must accept every knob, and bad input
//! must fail with a one-line `error:` naming the cause.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mpdata-run"))
        .args(args)
        .output()
        .expect("spawn mpdata-run")
}

#[test]
fn every_problem_passes_the_input_gate_and_verifies() {
    for problem in ["gaussian", "cone", "random"] {
        for strategy in ["islands", "fused"] {
            let out = run(&[
                "--problem",
                problem,
                "--strategy",
                strategy,
                "--domain",
                "13,10,4",
                "--steps",
                "3",
                "--workers",
                "2",
                "--islands",
                "2",
                "--fuse-steps",
                "2",
                "--tile",
                "4x3",
                "--self-schedule",
                "2",
                "--verify",
            ]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success() && stdout.contains("max |Δ| vs reference = 0.000e0"),
                "{problem}/{strategy}: {stdout}{}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}

/// The default `--cache` is the library's budget, so a paper-shaped
/// (256 × 64 cross-section) grid plans out of the box.
#[test]
fn paper_cross_section_runs_without_a_cache_flag() {
    let out = run(&[
        "--domain",
        "8,256,64",
        "--steps",
        "1",
        "--strategy",
        "islands",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bad_input_exits_non_zero_naming_the_cause() {
    for (args, cause) in [
        (&["--strategy", "bogus"][..], "unknown strategy"),
        (&["--workers", "4", "--islands", "3"][..], "divisible"),
        (
            &["--boundary", "periodic", "--strategy", "fused"][..],
            "--boundary periodic",
        ),
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(cause),
            "{args:?}: {stderr}"
        );
    }
}
