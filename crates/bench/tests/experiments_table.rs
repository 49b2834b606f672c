//! The experiments table's contract: every committed report has exactly
//! one row, `--check` names the row and line of any drift and the files
//! no row produces, a false claim fails the run in both modes, and the
//! shared paper sweep is the sweep a fresh simulation gives.

use islands_bench::experiments::{drive, results_dir, Ctx, Experiment, Report, EXPERIMENTS};
use islands_bench::{measure_sweep, StrategyTimes, CPU_COUNTS};
use islands_core::Workload;
use std::fmt::{self, Write};
use std::io;
use std::path::PathBuf;

/// A fresh, empty directory under the test target's scratch space.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("experiments-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn greeting(_: &Ctx, r: &mut Report) -> fmt::Result {
    writeln!(r, "hello")?;
    r.check("the greeting is polite ....", true, "(always)")
}

fn false_claim(_: &Ctx, r: &mut Report) -> fmt::Result {
    r.check("two is odd ....", 2 % 2 == 1, "")
}

const TOY: [Experiment; 2] = [
    Experiment {
        name: "greeting",
        anchor: "test row",
        run: greeting,
    },
    Experiment {
        name: "false_claim",
        anchor: "test row",
        run: false_claim,
    },
];

#[test]
fn row_names_are_unique_and_match_the_committed_reports() {
    let mut names: Vec<String> = EXPERIMENTS
        .iter()
        .map(|e| format!("{}.txt", e.name))
        .collect();
    names.sort();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "duplicate row name");
    let mut files: Vec<String> = std::fs::read_dir(results_dir())
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(names, files);
}

#[test]
fn write_then_check_round_trips() {
    let dir = scratch_dir("roundtrip");
    let mut echo = Vec::new();
    let failures = drive(&TOY[..1], &["greeting".into()], &dir, false, &mut echo).unwrap();
    assert!(failures.is_empty(), "{failures:?}");
    let text = std::fs::read_to_string(dir.join("greeting.txt")).unwrap();
    assert_eq!(
        text,
        "hello\ncheck: the greeting is polite .... true (always)\n"
    );
    assert_eq!(String::from_utf8(echo).unwrap(), text);
    let failures = drive(&TOY[..1], &[], &dir, true, &mut io::sink()).unwrap();
    assert!(failures.is_empty(), "{failures:?}");
}

#[test]
fn check_reports_a_one_byte_drift_with_its_row_and_line() {
    let dir = scratch_dir("drift");
    let drifted = "hello\ncheck: the greeting is polite .... true (alwayz)\n";
    std::fs::write(dir.join("greeting.txt"), drifted).unwrap();
    let failures = drive(&TOY[..1], &[], &dir, true, &mut io::sink()).unwrap();
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].starts_with("greeting: "), "{}", failures[0]);
    assert!(failures[0].contains("differs at line 2"), "{}", failures[0]);
    assert!(failures[0].contains("(alwayz)"), "{}", failures[0]);
    // Check mode writes nothing.
    assert_eq!(
        std::fs::read_to_string(dir.join("greeting.txt")).unwrap(),
        drifted
    );
}

#[test]
fn check_reports_a_committed_file_no_row_produces() {
    let dir = scratch_dir("orphan");
    drive(&TOY[..1], &[], &dir, false, &mut io::sink()).unwrap();
    std::fs::write(dir.join("retired.txt"), "old\n").unwrap();
    let failures = drive(&TOY[..1], &[], &dir, true, &mut io::sink()).unwrap();
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(
        failures[0].ends_with("retired.txt has no experiment row"),
        "{}",
        failures[0]
    );
}

#[test]
fn a_false_claim_fails_the_run_in_both_modes() {
    let dir = scratch_dir("claim");
    for check in [false, true] {
        let failures = drive(&TOY, &[], &dir, check, &mut io::sink()).unwrap();
        assert_eq!(
            failures,
            ["false_claim (test row): claim is false: two is odd"]
        );
    }
    let text = std::fs::read_to_string(dir.join("false_claim.txt")).unwrap();
    assert_eq!(text, "check: two is odd .... false\n");
}

#[test]
fn an_unknown_name_is_refused() {
    let dir = scratch_dir("unknown");
    let err = drive(&TOY, &["tabel1".into()], &dir, true, &mut io::sink()).unwrap_err();
    assert!(err.contains("tabel1"), "{err}");
}

#[test]
fn the_memoised_sweep_equals_a_fresh_one_bit_for_bit() {
    let bits =
        |t: &StrategyTimes| [t.original_serial, t.original, t.fused, t.islands].map(f64::to_bits);
    let ctx = Ctx::default();
    let fresh = measure_sweep(&CPU_COUNTS, &Workload::paper());
    assert_eq!(ctx.sweep().len(), fresh.len());
    for (memo, fresh) in ctx.sweep().iter().zip(&fresh) {
        assert_eq!((memo.p, bits(memo)), (fresh.p, bits(fresh)));
    }
    assert!(std::ptr::eq(ctx.sweep(), ctx.sweep()), "simulated once");
}
