//! `experiments [--check] [name …]` — regenerates the paper's tables,
//! figures and ablations (every row of
//! [`islands_bench::experiments::EXPERIMENTS`] when no name is given).
//!
//! Without `--check` each report is written to `results/<name>.txt` and
//! echoed to stdout. With `--check` nothing is written: each report is
//! compared byte for byte with the committed file. Either way the run
//! exits 1 on drift, on a file in `results/` that no row produces, or on
//! any false `check:` claim, and 2 on a usage error.

use islands_bench::experiments::{drive, results_dir, EXPERIMENTS};

fn main() {
    let mut check = false;
    let mut names = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            flag if flag.starts_with('-') => usage(&format!("unknown flag {flag:?}")),
            _ => names.push(arg),
        }
    }
    let dir = results_dir();
    match drive(
        &EXPERIMENTS,
        &names,
        &dir,
        check,
        &mut std::io::stdout().lock(),
    ) {
        Err(e) => usage(&e),
        Ok(failures) if failures.is_empty() => {
            if check {
                println!(
                    "{} matches every report it was checked against.",
                    dir.display()
                );
            }
        }
        Ok(failures) => {
            for f in &failures {
                eprintln!("experiments: {f}");
            }
            std::process::exit(1);
        }
    }
}

fn usage(error: &str) -> ! {
    eprintln!("experiments: {error}");
    eprintln!("usage: experiments [--check] [name …]; the rows are:");
    for e in &EXPERIMENTS {
        eprintln!("  {:<18} {}", e.name, e.anchor);
    }
    std::process::exit(2);
}
