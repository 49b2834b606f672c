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
//! `--mutant <name>` instead seeds one known-bad input and runs the
//! relevant pass on it; the exit code is still "non-zero iff
//! diagnostics", so CI asserts the linter *fails* on these (the
//! schedule mutants perturb the lowered real schedule):
//!
//! * `drop-offset` — stage 0's donor-cell pattern loses `(-1, 0, 0)`,
//!   so the kernel reads an undeclared offset;
//! * `overlap-partition` — two island parts overlap, so both teams
//!   write the same output cells with no intra-step synchronization;
//! * `overlap-ranks` — rank 0's write slices are widened past the team
//!   split, overlapping rank 1 inside barrier-fenced epochs;
//! * `stale-output` — one island's writes to the shared output are
//!   dropped, so its half of a reused output buffer would carry the
//!   previous step's values;
//! * `overlap-chunks` — under a self-scheduled plan, one dynamic
//!   chunk's write region is widened into the next chunk's share, so
//!   two concurrently claimable work units write the same cells;
//! * `fused-overlap-step2` — in a temporally blocked (k = 3) plan, rank
//!   0's write slices of the *second* fused step are widened past the
//!   team split, so the fused epoch table races where the unfused one
//!   would not;
//! * `tile-halo-too-narrow` — in a tile-fused plan, every tile's
//!   first-stage scratch writes are shaved by one I-slab, modelling a
//!   rebased scratch footprint too small for the chain's halo reads;
//!   later stages then read cells no earlier stage of the tile wrote;
//! * `window-too-narrow` — one scratch buffer's sliding window is
//!   declared a plane shallower than the schedule sized it, so some
//!   block reads a plane its alias has already overwritten;
//! * `exchange-fence-dropped` — a two-island Exchange schedule loses
//!   its per-stage global barriers (`stage_synchronous` cleared), so an
//!   island's halo reads of the shared intermediates race with its
//!   neighbour's writes of them;
//! * `producer-dropped` — a two-island schedule lowered from an
//!   `IslandsExecutor` loses team 0's first epoch that writes an
//!   intermediate, so a later stage reads team scratch no earlier epoch
//!   wrote — what the replay, which never re-zeroes scratch, would
//!   serve from the previous step.
//!
//! Exit codes: 0 clean, 1 diagnostics found, 2 tracing unavailable
//! (release build — rebuild in debug).

use islands_analysis::{
    check_disjointness, check_graph, check_problem, lower, with_offset_removed, Diagnostic, Epoch,
    KernelPath, SchedulePlan,
};
use islands_core::Partition;
use mpdata::{
    Boundary, ExchangeExecutor, IslandsExecutor, MpdataProblem, OriginalExecutor, ScheduleKnobs,
    SchedulePolicy, StepSchedule, TileMode,
};
use stencil_engine::{trace, Axis, Offset3, Range1, Region3};
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
    if !trace::is_enabled() {
        eprintln!(
            "stencil-lint: access tracing is compiled out of release builds; \
             run with a debug profile (plain `cargo run`)"
        );
        return 2;
    }
    let mutant = match args {
        [] => None,
        [flag, name] if flag == "--mutant" => Some(name.as_str()),
        _ => {
            eprintln!(
                "usage: stencil-lint [--mutant drop-offset|overlap-partition\
                 |overlap-ranks|stale-output|overlap-chunks|fused-overlap-step2\
                 |tile-halo-too-narrow|window-too-narrow|exchange-fence-dropped\
                 |producer-dropped]"
            );
            return 2;
        }
    };
    let diagnostics = match mutant {
        None => full_matrix(),
        Some("drop-offset") => mutant_drop_offset(),
        Some("overlap-partition") => mutant_overlap_partition(),
        Some("overlap-ranks") => mutant_overlap_ranks(),
        Some("stale-output") => mutant_stale_output(),
        Some("overlap-chunks") => mutant_overlap_chunks(),
        Some("fused-overlap-step2") => mutant_fused_overlap_step2(),
        Some("tile-halo-too-narrow") => mutant_tile_halo_too_narrow(),
        Some("window-too-narrow") => mutant_window_too_narrow(),
        Some("exchange-fence-dropped") => mutant_exchange_fence_dropped(),
        Some("producer-dropped") => mutant_producer_dropped(),
        Some(other) => {
            eprintln!("stencil-lint: unknown mutant `{other}`");
            return 2;
        }
    };
    report(&diagnostics)
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
    let found = check_disjointness(&schedule_plan(problem, domain, parts, team_sizes, knobs));
    println!(
        "disjointness {what} schedule={:?} fuse={} tile={:?}: {} diagnostic(s)",
        knobs.schedule,
        knobs.fuse_steps,
        knobs.tile,
        found.len()
    );
    found
}

fn schedule_plan(
    problem: &MpdataProblem,
    domain: Region3,
    parts: &[Region3],
    team_sizes: &[usize],
    knobs: ScheduleKnobs,
) -> SchedulePlan {
    let schedule = StepSchedule::build(problem, domain, parts, team_sizes, knobs)
        .expect("lint domains fit the cache budget");
    lower(&schedule)
}

fn mutant_drop_offset() -> Vec<Diagnostic> {
    let problem = MpdataProblem::standard();
    // Stage 0 (donor-cell flux along i) declares x at {(0,0,0), (-1,0,0)};
    // drop the upstream neighbour from the declaration.
    let mutated = with_offset_removed(
        problem.graph(),
        0,
        0,
        Offset3 {
            di: -1,
            dj: 0,
            dk: 0,
        },
    );
    check_graph(
        &mutated,
        problem.kinds(),
        problem.boundary(),
        conformance_domain(),
        KernelPath::Dispatch,
    )
    .expect("tracing checked at startup")
    .diagnostics
}

/// The rank cut of every schedule mutant, named so that the seeded
/// overlaps do not move with the derived choice.
const MUTANT_SPLIT: Axis = Axis::J;

/// The schedule every schedule mutant perturbs: two islands of two
/// ranks on 16×12×6 (`parts` defaults to the even I-split) cut along
/// [`MUTANT_SPLIT`], lowered from the real builder.
fn mutant_plan(parts: Option<Vec<Region3>>, knobs: ScheduleKnobs) -> SchedulePlan {
    let domain = Region3::of_extent(16, 12, 6);
    let parts = parts.unwrap_or_else(|| domain.split(Axis::I, 2));
    let knobs = ScheduleKnobs {
        cache_bytes: CACHE_BYTES,
        split_axis: Some(MUTANT_SPLIT),
        ..knobs
    };
    schedule_plan(&MpdataProblem::standard(), domain, &parts, &[2, 2], knobs)
}

/// Widens slot 0's writes one slab along the split axis, into slot 1's
/// share of the same barrier-fenced epoch, in every epoch `select`
/// picks.
fn widen_slot0(plan: &mut SchedulePlan, select: impl Fn(&Epoch) -> bool) {
    let axis = MUTANT_SPLIT;
    let hi_max = plan.domain.range(axis).hi;
    for team in &mut plan.teams {
        for ep in team.epochs.iter_mut().filter(|ep| select(ep)) {
            if let Some(slot0) = ep.per_rank.first_mut() {
                for acc in slot0.iter_mut().filter(|a| a.write) {
                    let r = acc.region.range(axis);
                    let hi = (r.hi + 1).min(hi_max);
                    acc.region = acc.region.with_range(axis, Range1::new(r.lo, hi));
                }
            }
        }
    }
}

fn mutant_overlap_partition() -> Vec<Diagnostic> {
    let halves = Region3::of_extent(16, 12, 6).split(Axis::I, 2);
    // Widen the second island one slab into the first: both teams now
    // write the overlap of the shared output with no step-internal sync.
    // The parts go straight to the schedule builder — the executor's
    // own cover assertion would reject them first.
    let grown = halves[1].with_range(Axis::I, Range1::new(halves[1].i.lo - 1, halves[1].i.hi));
    let plan = mutant_plan(Some(vec![halves[0], grown]), ScheduleKnobs::default());
    check_disjointness(&plan)
}

fn mutant_overlap_ranks() -> Vec<Diagnostic> {
    let mut plan = mutant_plan(None, ScheduleKnobs::default());
    // Rank 0 past its split boundary, into rank 1's share.
    widen_slot0(&mut plan, |_| true);
    check_disjointness(&plan)
}

fn mutant_overlap_chunks() -> Vec<Diagnostic> {
    // Two ranks × two chunks each: four claimable slots per epoch.
    let mut plan = mutant_plan(
        None,
        ScheduleKnobs {
            schedule: SchedulePolicy::Dynamic { chunks_per_rank: 2 },
            ..ScheduleKnobs::default()
        },
    );
    // The first chunk into the second chunk's share. Unlike
    // `overlap-ranks` this overlap is between two units a *single*
    // worker may claim back to back — still unsafe, because another
    // worker can claim the second chunk concurrently.
    widen_slot0(&mut plan, |_| true);
    check_disjointness(&plan)
}

fn mutant_fused_overlap_step2() -> Vec<Diagnostic> {
    let mut plan = mutant_plan(
        None,
        ScheduleKnobs {
            fuse_steps: 3,
            ..ScheduleKnobs::default()
        },
    );
    // Only in the *second* fused step's epochs, so a checker that
    // collapses the fused table to its first (or last) step would miss
    // the race.
    widen_slot0(&mut plan, |ep| ep.label.starts_with("step 1 /"));
    check_disjointness(&plan)
}

fn mutant_tile_halo_too_narrow() -> Vec<Diagnostic> {
    let mut plan = mutant_plan(
        None,
        ScheduleKnobs {
            tile: TileMode::Fixed { ti: 4, tj: 4 },
            ..ScheduleKnobs::default()
        },
    );
    // Shave one I-slab off every tile's first-stage scratch writes: the
    // chain now computes the producer over less than tile + halo —
    // exactly what a rebased scratch footprint one cell too narrow
    // would do — so later stages read cells no stage of the tile wrote.
    for team in &mut plan.teams {
        if let Some(ep) = team.epochs.first_mut() {
            for accs in &mut ep.per_rank {
                for acc in accs.iter_mut().filter(|a| a.write) {
                    let r = acc.region.range(Axis::I);
                    acc.region = acc.region.with_range(Axis::I, Range1::new(r.lo + 1, r.hi));
                }
            }
        }
    }
    check_disjointness(&plan)
}

fn mutant_window_too_narrow() -> Vec<Diagnostic> {
    // One island of two ranks on 24 planes under a budget that cuts it
    // into several wavefront blocks, so the windows are genuinely
    // shallower than the scratch hull.
    let domain = Region3::of_extent(24, 12, 6);
    let knobs = ScheduleKnobs {
        cache_bytes: CACHE_BYTES / 2,
        split_axis: Some(MUTANT_SPLIT),
        ..ScheduleKnobs::default()
    };
    let mut plan = schedule_plan(&MpdataProblem::standard(), domain, &[domain], &[2], knobs);
    // The first stage's output loses one plane of storage: the deepest
    // reach-back of its consumers now lands on a recycled slot.
    plan.teams[0].windows[0].1 -= 1;
    check_disjointness(&plan)
}

fn mutant_exchange_fence_dropped() -> Vec<Diagnostic> {
    // Two islands of two ranks, lowered from the Exchange executor —
    // then the plan forgets that every stage ends at the global
    // barrier: an island's halo reads of its neighbour's intermediates
    // now race with the neighbour's writes.
    let pool = WorkerPool::new(4);
    let exec = ExchangeExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I);
    let mut plan = lower(&exec.schedule_for(Region3::of_extent(16, 12, 6)));
    plan.stage_synchronous = false;
    check_disjointness(&plan)
}

fn mutant_producer_dropped() -> Vec<Diagnostic> {
    // Two islands of two ranks, lowered from the islands executor —
    // then team 0 skips its first epoch that writes an intermediate.
    let pool = WorkerPool::new(4);
    let exec = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I).cache_bytes(CACHE_BYTES);
    let schedule = exec
        .schedule_for(Region3::of_extent(16, 12, 6))
        .expect("the mutant domain fits the cache budget");
    let mut plan = lower(&schedule);
    let producer = plan.teams[0]
        .epochs
        .iter()
        .position(|ep| {
            let mut accs = ep.per_rank.iter().flatten();
            accs.any(|a| a.write && !plan.shared[a.field])
        })
        .expect("team 0 produces intermediates");
    plan.teams[0].epochs.remove(producer);
    check_disjointness(&plan)
}

fn mutant_stale_output() -> Vec<Diagnostic> {
    let mut plan = mutant_plan(None, ScheduleKnobs::default());
    // Drop the second island's writes to the shared output: its half of
    // the domain is never produced this step, which a reused output
    // buffer (the persistent-plan path) turns into last step's data.
    let out = (0..plan.field_names.len())
        .find(|&f| plan.shared[f] && !plan.external[f])
        .expect("the graph has an output field");
    for ep in &mut plan.teams[1].epochs {
        for accs in &mut ep.per_rank {
            accs.retain(|a| !(a.write && a.field == out));
        }
    }
    check_disjointness(&plan)
}
