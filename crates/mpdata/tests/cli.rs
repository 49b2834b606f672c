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
        (&["--workers", "4", "--islands", "3"][..], "divisible"),
        (&["--balance", "model"][..], "unknown flag \"--balance\""),
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

/// A domain no array can hold is refused while parsing, not by a
/// panic inside the field generator (2^32 × 2^32 cells wrap to 0).
#[test]
fn oversized_domain_is_rejected_naming_the_flag() {
    let out = run(&[
        "--domain",
        "4294967296,4294967296,1",
        "--steps",
        "1",
        "--strategy",
        "reference",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: --domain ") && !stderr.contains("panicked"),
        "{stderr}"
    );
}

/// A mistyped `--problem` / `--strategy` is rejected while parsing —
/// naming the flag and what it accepts — before the pool is spawned or
/// `--serve-metrics` binds and announces a port.
#[test]
fn unknown_problem_or_strategy_is_rejected_before_anything_starts() {
    for (flag, value, accepted) in [
        ("--problem", "cnoe", "gaussian|cone|random"),
        (
            "--strategy",
            "bogus",
            "reference|original|fused|islands|exchange",
        ),
    ] {
        let out = run(&[flag, value, "--serve-metrics", "127.0.0.1:0"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(
            stderr.starts_with(&format!(
                "error: unknown {flag} {value:?}; use {accepted}\n"
            )),
            "{flag}: {stderr}"
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("metrics "), "{flag}: {stdout}");
    }
}

#[test]
fn help_lists_no_balance_flag() {
    let out = run(&["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success() && stdout.contains("--self-schedule"));
    assert!(!stdout.contains("--balance"), "{stdout}");
}

/// The summary says what the intermediates occupy: windows beside the
/// hull they replace (untiled), tile scratch (tiled), shared
/// full-domain arrays (stage-synchronous), nothing for the serial
/// reference, which plans no schedule.
#[test]
fn summary_reports_the_scratch_footprint() {
    let scratch_line = |extra: &[&str]| {
        let mut args = vec!["--domain", "40,16,8", "--steps", "2", "--workers", "1"];
        args.extend(["--islands", "1", "--cache", "65536", "--verify"]);
        args.extend(extra);
        let out = run(&args);
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success() && stdout.contains("max |Δ| vs reference = 0.000e0"),
            "{extra:?}: {stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = stdout
            .lines()
            .find_map(|l| l.strip_prefix("scratch      : "));
        line.map(str::to_owned)
    };
    // 64 KiB cuts the 40 planes into several blocks: 17 windows, each
    // far shallower than the hull, and the bytes say so.
    let line = scratch_line(&["--strategy", "fused"]).expect("a scratch line");
    let numbers: Vec<f64> = line
        .split(|c: char| !c.is_ascii_digit() && c != '.')
        .filter_map(|t| t.parse().ok())
        .collect();
    let [window_mb, count, planes, hull_mb] = numbers[..] else {
        panic!("unexpected scratch line: {line}");
    };
    assert!(line.contains("windows of ≤") && line.contains("hull would be"));
    assert_eq!(count, 17.0, "{line}");
    assert!(planes < 20.0 && window_mb < hull_mb / 2.0, "{line}");
    assert_eq!(hull_mb, 0.7, "17 × 40×16×8 × 8 B — {line}");

    let tiled = scratch_line(&["--strategy", "fused", "--tile", "8x8"]).expect("a scratch line");
    assert!(
        tiled.ends_with("MB of rank-private tile scratch"),
        "{tiled}"
    );
    assert_eq!(
        scratch_line(&["--strategy", "original"]).as_deref(),
        Some("0.7 MB in 17 full-domain arrays shared by 1 island")
    );
    assert_eq!(scratch_line(&["--strategy", "reference"]), None);
}

/// The stage-synchronous strategies run periodic boundaries, verify
/// bitwise, and print the same plan summary as the islands.
#[test]
fn original_and_exchange_run_periodic_and_report_their_plan() {
    for (strategy, rank_cut, shared_by) in [
        ("original", "I (24 planes ≥ 12 rows)", "1 island"),
        ("exchange", "I (12 planes ≥ 12 rows)", "2 islands"),
    ] {
        let out = run(&[
            "--strategy",
            strategy,
            "--boundary",
            "periodic",
            "--problem",
            "random",
            "--domain",
            "24,12,8",
            "--steps",
            "3",
            "--workers",
            "2",
            "--islands",
            "2",
            "--verify",
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("max |Δ| vs reference = 0.000e0"),
            "{strategy}: {stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains(&format!("rank cut     : {rank_cut}\n")),
            "{strategy}: {stdout}"
        );
        let scratch =
            format!("scratch      : 0.3 MB in 17 full-domain arrays shared by {shared_by}\n");
        assert!(stdout.contains(&scratch), "{strategy}: {stdout}");
    }
}

/// The summary names the rank cut that ran and the sweep that decided
/// it: `I` where every sweep is at least as deep as wide, `J` where
/// wavefront blocks are thin; tiled and reference runs have none.
#[test]
fn summary_reports_the_rank_cut() {
    let rank_cut = |extra: &[&str]| {
        let mut args = vec!["--steps", "2", "--workers", "2"];
        args.extend(["--islands", "1", "--verify"]);
        args.extend(extra);
        let out = run(&args);
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success() && stdout.contains("max |Δ| vs reference = 0.000e0"),
            "{extra:?}: {stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = stdout
            .lines()
            .find_map(|l| l.strip_prefix("rank cut     : "));
        line.map(str::to_owned)
    };
    let fused = ["--strategy", "fused", "--domain"];
    assert_eq!(
        rank_cut(&[&fused[..], &["32,32,16"]].concat()).as_deref(),
        Some("I (32 planes ≥ 32 rows)")
    );
    // 64 KiB cuts the 40 planes into blocks thinner than 16 rows.
    let line = rank_cut(&[&fused[..], &["40,16,8", "--cache", "65536"]].concat())
        .expect("a rank cut line");
    assert!(
        line.starts_with("J (") && line.ends_with(" planes < 16 rows)"),
        "{line}"
    );
    assert_eq!(
        rank_cut(&[&fused[..], &["32,32,16", "--tile", "8x8"]].concat()),
        None
    );
    assert_eq!(
        rank_cut(&["--strategy", "original", "--domain", "16,8,4"]).as_deref(),
        Some("I (16 planes ≥ 8 rows)")
    );
    assert_eq!(
        rank_cut(&["--strategy", "reference", "--domain", "16,8,4"]),
        None
    );
}

/// A traced run keeps every span: the trace rings are sized from the
/// schedule that runs. Depth-1 blocks (`--cache 1`) record ≈ 2 200
/// spans per step here, so 40 steps hold ≈ 86 000 — more than the
/// 2^16 a flat per-step allowance gave rings at this step count.
#[test]
fn traced_depth_one_run_drops_no_events() {
    let out = run(&[
        "--domain",
        "64,8,4",
        "--cache",
        "1",
        "--strategy",
        "fused",
        "--workers",
        "1",
        "--steps",
        "40",
        "--metrics",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("steps: 40 "),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("dropped events: 0\n"), "{stdout}");
    assert!(!stdout.contains("DEGRADED"), "{stdout}");
}

/// Only `islands` and `exchange` read `--islands`, so only they need it
/// to divide `--workers`: the one-island and serial strategies run on
/// a worker count the default `--islands 2` does not divide, and the
/// summary names the one island they ran.
#[test]
fn islands_divide_workers_only_where_they_are_read() {
    let args = |strategy| {
        [
            "--strategy",
            strategy,
            "--workers",
            "3",
            "--steps",
            "2",
            "--domain",
            "16,8,8",
            "--verify",
        ]
    };
    for strategy in ["fused", "original", "reference"] {
        let out = run(&args(strategy));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success()
                && stdout.contains("workers=3 islands=1 ")
                && stdout.contains("max |Δ| vs reference = 0.000e0"),
            "{strategy}: {stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    for strategy in ["islands", "exchange"] {
        let out = run(&args(strategy));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{strategy}: {stderr}");
        assert!(
            stderr.contains("--workers") && stderr.contains("--islands"),
            "{strategy}: {stderr}"
        );
    }
}

/// The Chrome trace a traced run leaves on disk is one the in-repo
/// validator accepts, read back from the file rather than from memory.
#[test]
fn trace_file_on_disk_validates() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-trace.json");
    let out = run(&[
        "--domain",
        "32,16,8",
        "--steps",
        "3",
        "--strategy",
        "islands",
        "--workers",
        "2",
        "--islands",
        "2",
        "--trace",
        path.to_str().expect("utf-8 path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let summary = islands_trace::chrome::validate(&text).expect("valid Chrome trace");
    // The dispatching thread and two islands, each with complete
    // dispatch or kernel spans.
    assert_eq!(summary.pids, [0, 1, 2], "{summary:?}");
    assert!(summary.category_us("kernel") > 0.0, "{summary:?}");
}

/// A domain whose full-domain arrays alone exceed the address-space
/// limit is refused with exit code 1 before anything is allocated, not
/// aborted inside the allocator. The shell gives up if it cannot set
/// the limit: without it the run would try to allocate tens of GB.
#[cfg(target_os = "linux")]
#[test]
fn a_domain_beyond_the_memory_limit_is_refused() {
    let bin = env!("CARGO_BIN_EXE_mpdata-run");
    let script = format!("ulimit -v 2000000 || exit 97; exec '{bin}' --domain 1024,1024,256");
    let out = Command::new("sh").args(["-c", &script]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let refused = stderr.starts_with("error: --domain 1024,1024,256 needs at least");
    assert!(refused && stderr.contains("address-space limit") && stderr.lines().count() == 1);
}
