//! `stencil-lint` — CI entry point for both analyzer passes.
//!
//! With no arguments, runs the full matrix — pattern conformance for
//! every boundary condition and kernel path over both the 17-stage
//! (iord = 2) and the extended iord = 3 graphs, then plan-time
//! disjointness of the executor's own [`StepSchedule`]s over a spread of
//! domains, partitions, team shapes and split axes crossed with the
//! knob lattice (schedule × fuse depth × tile mode), and of the
//! stage-synchronous Original and Exchange schedules — and exits
//! non-zero if *any* diagnostic is produced.
//!
//! The seeded bugs that show each pass catches faults are tests:
//! `tests/prover_mutants.rs` at the workspace root.
//!
//! Exit codes: 0 clean, 1 diagnostics found, 2 usage error (any
//! argument) or tracing unavailable (release build — rebuild in debug).

use islands_analysis::{check_disjointness, check_problem, lower, Diagnostic, KernelPath};
use islands_core::Partition;
use mpdata::{
    Boundary, ExchangeExecutor, MpdataProblem, OriginalExecutor, ScheduleKnobs, SchedulePolicy,
    StepSchedule, TileMode,
};
use stencil_engine::{trace, Axis, Range1, Region3};
use work_scheduler::{TeamSpec, WorkerPool};

/// Cache budget used for all disjointness plans — small enough to force
/// several wavefront blocks per island on the lint domains.
const CACHE_BYTES: usize = 64 * 1024;

/// At most this many diagnostics are printed per run.
const PRINT_CAP: usize = 40;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

fn run(args: &[String]) -> i32 {
    if !args.is_empty() {
        eprintln!("usage: stencil-lint (no arguments)");
        return 2;
    }
    if !trace::is_enabled() {
        eprintln!(
            "stencil-lint: access tracing is compiled out of release builds; \
             run with a debug profile (plain `cargo run`)"
        );
        return 2;
    }
    report(&full_matrix())
}

fn report(diagnostics: &[Diagnostic]) -> i32 {
    for d in diagnostics.iter().take(PRINT_CAP) {
        println!("{d}");
    }
    if diagnostics.len() > PRINT_CAP {
        println!("... and {} more", diagnostics.len() - PRINT_CAP);
    }
    if diagnostics.is_empty() {
        println!("stencil-lint: clean");
        0
    } else {
        println!("stencil-lint: {} diagnostic(s)", diagnostics.len());
        1
    }
}

/// A small domain with non-trivial (negative and positive) bases, so
/// any global-vs-relative coordinate confusion in a kernel or in the
/// checker itself surfaces immediately.
fn conformance_domain() -> Region3 {
    Region3::new(Range1::new(2, 7), Range1::new(-1, 3), Range1::new(3, 6))
}

fn full_matrix() -> Vec<Diagnostic> {
    let mut all = Vec::new();

    // Pass 1: conformance. iord = 2 is the paper's 17-stage graph; the
    // iord = 3 graph adds the second corrective iteration's stages.
    for (iord, bcs) in [
        (2, &[Boundary::Open, Boundary::Periodic][..]),
        // The stage kinds and their kernels are those of iord = 2,
        // which covers both boundaries; keep the wider graph to Open.
        (3, &[Boundary::Open][..]),
    ] {
        for &bc in bcs {
            let problem = MpdataProblem::with_iord(iord).with_boundary(bc);
            for path in [KernelPath::Dispatch, KernelPath::Scalar] {
                let rep = check_problem(&problem, conformance_domain(), path)
                    .expect("tracing checked at startup");
                println!(
                    "conformance iord={iord} bc={bc:?} path={path}: \
                     {} stages x {} invocations, {} diagnostic(s)",
                    rep.stages,
                    rep.cells / rep.stages.max(1),
                    rep.diagnostics.len()
                );
                all.extend(rep.diagnostics);
            }
        }
    }

    // Pass 2: disjointness over a spread of schedules.
    let problem = MpdataProblem::standard();
    // Each domain carries the I-cut points of its uneven three-island
    // partition (widths 8/7/9 and 4/4/5).
    let domains = [
        (Region3::of_extent(24, 12, 6), [0, 8, 15, 24]),
        // Prime extents (13 × 7 × 5) with mixed bases.
        (
            Region3::new(Range1::new(-3, 10), Range1::new(2, 9), Range1::new(0, 5)),
            [-3, 1, 5, 10],
        ),
    ];
    for (domain, uneven_cuts) in domains {
        let mut partitions: Vec<(String, Vec<Region3>)> = Vec::new();
        for islands in [1, 2, 4, 16] {
            // 16 islands exceed the slab count of both domains along I:
            // the surplus parts are empty, as in the executor.
            let p = Partition::one_d(domain, islands_core::Variant::A, islands)
                .expect("non-zero island count");
            partitions.push((p.description().to_string(), p.parts().to_vec()));
        }
        let pb = Partition::one_d(domain, islands_core::Variant::B, 3).expect("non-zero");
        partitions.push((pb.description().to_string(), pb.parts().to_vec()));
        let grid = Partition::grid2d(domain, 2, 2).expect("non-zero");
        partitions.push((grid.description().to_string(), grid.parts().to_vec()));

        // Non-uniform explicit cuts: slab widths differ, so any "equal
        // shares" assumption in the planner would misalign.
        let uneven = uneven_cuts
            .windows(2)
            .map(|c| domain.with_range(Axis::I, Range1::new(c[0], c[1])))
            .collect();
        partitions.push(("uneven 1D A x 3".to_string(), uneven));

        // Degenerate extremes: a 1-cell-wide island next to the rest of
        // the domain, and more islands than there are I-slabs (the
        // surplus parts are empty, as in the executor).
        let ir = domain.range(Axis::I);
        let sliver = vec![
            domain.with_range(Axis::I, Range1::new(ir.lo, ir.lo + 1)),
            domain.with_range(Axis::I, Range1::new(ir.lo + 1, ir.hi)),
        ];
        partitions.push(("1-cell sliver + remainder".to_string(), sliver));
        let overcut = Partition::one_d(domain, islands_core::Variant::A, ir.len() + 3)
            .expect("non-zero island count");
        partitions.push((
            format!("{} (P > nx)", overcut.description()),
            overcut.parts().to_vec(),
        ));

        for (desc, parts) in &partitions {
            // `None`: the cut an executor derives when none is named —
            // each team's longest axis among I and J.
            for split_axis in [Some(Axis::J), Some(Axis::K), Some(Axis::I), None] {
                let split = split_axis.map_or("derived".to_string(), |a| format!("{a:?}"));
                for shape in ["uniform-2", "mixed"] {
                    let sizes: Vec<usize> = match shape {
                        "uniform-2" => vec![2; parts.len()],
                        _ => (0..parts.len()).map(|n| 1 + n % 3).collect(),
                    };
                    // The whole knob lattice on one (axis, shape)
                    // combination per partition keeps the matrix
                    // affordable — with its untiled half again under
                    // the derived cut, which follows the fused steps'
                    // regions (tiles are handed out whole: no cut); the
                    // others prove the two schedule policies of the
                    // classic per-step sweeps.
                    for knobs in lattice(split_axis) {
                        let classic = knobs.fuse_steps == 1 && knobs.tile == TileMode::Off;
                        let wider = shape == "uniform-2"
                            && match split_axis {
                                Some(Axis::J) => true,
                                None => knobs.tile == TileMode::Off,
                                Some(_) => false,
                            };
                        if classic || wider {
                            let what = format!(
                                "domain={domain:?} partition={desc} split={split} teams={shape}"
                            );
                            all.extend(prove(&problem, domain, parts, &sizes, knobs, &what));
                        }
                    }
                }
            }
        }
    }

    // Sliver tiles on a small prime-extent domain: every tile is a
    // single (i, j) column, the degenerate extreme of the tile cutter.
    let domain = Region3::of_extent(11, 7, 4);
    let parts = domain.split(Axis::I, 2);
    for fuse_steps in [1, 2] {
        let knobs = ScheduleKnobs {
            cache_bytes: CACHE_BYTES,
            fuse_steps,
            tile: TileMode::Fixed { ti: 1, tj: 1 },
            ..ScheduleKnobs::default()
        };
        let what = format!("domain={domain:?} partition=1D x 2");
        all.extend(prove(&problem, domain, &parts, &[2, 2], knobs, &what));
    }

    // The benchmark's `knobs_mid` workload, exactly as it runs: one
    // island of two workers on 128×128×64 under the library-default
    // cache budget, auto tiles × 2-step epochs × 4 chunks per rank.
    let domain = Region3::of_extent(128, 128, 64);
    let knobs = ScheduleKnobs {
        schedule: SchedulePolicy::Dynamic { chunks_per_rank: 4 },
        fuse_steps: 2,
        tile: TileMode::Auto,
        ..ScheduleKnobs::default()
    };
    let what = format!("domain={domain:?} partition=whole (knobs_mid)");
    all.extend(prove(&problem, domain, &[domain], &[2], knobs, &what));

    // The stage-synchronous baselines, lowered from the executors that
    // replay them: Original on 1–8 ranks, Exchange on 1–4 islands of
    // 1–2 ranks cut along I or J — on a domain thinner than four cells
    // both ways too (P > nx: idle islands) — for both graphs.
    let pools: Vec<WorkerPool> = (1..=8).map(WorkerPool::new).collect();
    for iord in [2, 3] {
        let problem = MpdataProblem::with_iord(iord);
        for domain in [
            Region3::of_extent(24, 12, 6),
            Region3::new(Range1::new(-3, 10), Range1::new(2, 9), Range1::new(0, 5)),
            Region3::of_extent(3, 3, 4),
        ] {
            for (ranks, pool) in (1..).zip(&pools) {
                let exec = OriginalExecutor::with_problem(pool, problem.clone());
                let what = format!("original iord={iord} domain={domain:?} ranks={ranks}");
                all.extend(prove_baseline(&exec.schedule_for(domain), &what));
            }
            for islands in 1..=4 {
                for axis in [Axis::I, Axis::J] {
                    for ranks in 1..=2 {
                        let workers = islands * ranks;
                        let teams = TeamSpec::even(workers, islands);
                        let exec = ExchangeExecutor::with_problem(
                            &pools[workers - 1],
                            teams,
                            axis,
                            problem.clone(),
                        );
                        let what = format!(
                            "exchange iord={iord} domain={domain:?} partition={axis:?} x \
                             {islands} ranks={ranks}"
                        );
                        all.extend(prove_baseline(&exec.schedule_for(domain), &what));
                    }
                }
            }
        }
    }
    all
}

/// Lowers and proves a stage-synchronous executor's own schedule;
/// prints one line, returns the diagnostics.
fn prove_baseline(schedule: &StepSchedule, what: &str) -> Vec<Diagnostic> {
    let found = check_disjointness(&lower(schedule));
    println!("disjointness {what}: {} diagnostic(s)", found.len());
    found
}

/// The knob lattice the executor offers, at the lint cache budget:
/// schedule policy × fuse depth × tile mode — a mid-size tile that
/// straddles part boundaries, a fat tile that swallows whole parts, and
/// the cache-driven auto sizer.
fn lattice(split_axis: Option<Axis>) -> Vec<ScheduleKnobs> {
    let mut out = Vec::new();
    for schedule in [
        SchedulePolicy::Static,
        SchedulePolicy::Dynamic { chunks_per_rank: 3 },
    ] {
        for fuse_steps in [1, 2, 3] {
            for tile in [
                TileMode::Off,
                TileMode::Fixed { ti: 3, tj: 2 },
                TileMode::Fixed { ti: 64, tj: 64 },
                TileMode::Auto,
            ] {
                out.push(ScheduleKnobs {
                    cache_bytes: CACHE_BYTES,
                    split_axis,
                    schedule,
                    fuse_steps,
                    tile,
                });
            }
        }
    }
    out
}

/// Builds the schedule an executor with these settings replays, lowers
/// it and proves it; prints one line, returns the diagnostics.
fn prove(
    problem: &MpdataProblem,
    domain: Region3,
    parts: &[Region3],
    team_sizes: &[usize],
    knobs: ScheduleKnobs,
    what: &str,
) -> Vec<Diagnostic> {
    let schedule = StepSchedule::build(problem, domain, parts, team_sizes, knobs)
        .expect("lint domains fit the cache budget");
    let found = check_disjointness(&lower(&schedule));
    println!(
        "disjointness {what} schedule={:?} fuse={} tile={:?}: {} diagnostic(s)",
        knobs.schedule,
        knobs.fuse_steps,
        knobs.tile,
        found.len()
    );
    found
}
