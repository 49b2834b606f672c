//! `telemetry-overhead` — measures what the live telemetry plane costs
//! the computation it observes (EXPERIMENTS.md E18).
//!
//! The plane's hot-path contract is that workers only ever pay the
//! wait-free seqlock ring writes they already pay for tracing, while
//! the background collector thread drains those rings concurrently.
//! This binary prices that claim: it times warmed steady-state batches
//! of the islands executor twice over identically-built plans —
//!
//! 1. **baseline** — tracing disabled, no collector;
//! 2. **live** — a trace session open, a `MetricsRegistry` attached to
//!    the pool, and the collector draining on a tight 2 ms interval
//!    (tighter than the 20 ms production cadence, to overstate rather
//!    than hide the interference).
//!
//! Each side reports the *median* of its batch times (medians shrug off
//! one preempted batch; means do not). `--gate R` exits non-zero when
//! `live/baseline` exceeds `R`. The design budget is ≤ 1.02 with a
//! spare hardware thread for the collector; CI runs `--quick --gate
//! 1.25` on shared runners, a backstop for gross regressions only.
//! `--quick` shrinks the domain and batch count for smoke runs.

use mpdata::{gaussian_pulse, IslandsExecutor};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stencil_engine::{Axis, Region3};
use work_scheduler::{TeamSpec, WorkerPool};

struct Opts {
    gate: Option<f64>,
    quick: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut o = Opts {
        gate: None,
        quick: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => o.quick = true,
            "--gate" => {
                let v = args.next().ok_or("--gate needs a ratio")?;
                let r: f64 = v.parse().map_err(|e| format!("bad --gate {v:?}: {e}"))?;
                if !(r.is_finite() && r >= 1.0) {
                    return Err(format!("--gate must be at least 1, got {v}"));
                }
                o.gate = Some(r);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// Builds a pool + warmed islands executor, optionally brings up the
/// live plane (session + collector on `registry`), and returns the
/// median batch wall time in nanoseconds over `batches` runs of
/// `steps` steps.
fn measure(
    domain: Region3,
    steps: usize,
    batches: usize,
    plane: Option<&Arc<islands_trace::registry::MetricsRegistry>>,
) -> f64 {
    let workers = 4;
    let mut pool = WorkerPool::new(workers);
    if let Some(reg) = plane {
        pool.attach_telemetry(Arc::clone(reg), Duration::from_millis(2));
    }
    let session = plane.map(|_| islands_trace::Session::start());
    let exec =
        IslandsExecutor::new(&pool, TeamSpec::even(workers, 2), Axis::I).cache_bytes(1 << 20);
    let mut fields = gaussian_pulse(domain, (0.2, 0.1, 0.05));
    // Warm-up under the same conditions as the measurement: plan build,
    // lazily-initialized runtime paths, and (on the live side) ring
    // registration plus collector mirror growth.
    exec.run(&mut fields, 2).unwrap();
    if plane.is_some() {
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut times: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            exec.run(&mut fields, steps).unwrap();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    drop(exec);
    pool.detach_telemetry();
    if let Some(session) = session {
        assert!(
            !session.finish().events.is_empty(),
            "live side recorded no spans — it measured nothing"
        );
    }
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

fn main() {
    let o = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("telemetry-overhead: {e}\nusage: telemetry-overhead [--gate R] [--quick]");
            std::process::exit(2);
        }
    };
    let (domain, steps, batches) = if o.quick {
        (Region3::of_extent(60, 30, 16), 8, 7)
    } else {
        (Region3::of_extent(120, 60, 32), 8, 15)
    };
    islands_trace::set_ring_capacity(1 << 18);

    let baseline = measure(domain, steps, batches, None);

    let registry = Arc::new(islands_trace::registry::MetricsRegistry::new(2));
    let live = measure(domain, steps, batches, Some(&registry));
    let snap = registry.snapshot();
    assert!(
        snap.events_folded > 0,
        "collector folded no spans — the live side measured nothing"
    );

    let ratio = live / baseline;
    println!(
        "telemetry-overhead: baseline {:.3} ms/batch, live {:.3} ms/batch \
         ({} events folded, {} dropped) -> ratio {ratio:.4}",
        baseline / 1e6,
        live / 1e6,
        snap.events_folded,
        snap.dropped_events,
    );
    if let Some(gate) = o.gate {
        if ratio > gate {
            eprintln!(
                "telemetry-overhead: ratio {ratio:.4} exceeds the gate {gate} — \
                 the live plane is perturbing the run"
            );
            std::process::exit(1);
        }
        println!("telemetry-overhead: ratio under the gate {gate}");
    }
}
