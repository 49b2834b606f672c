//! Regression pins: the linter must *fail* on seeded bugs.
//!
//! Each test feeds a known-bad declaration or schedule to the analyzer
//! and asserts the specific diagnostic code comes back — so a future
//! refactor cannot silently lobotomize a check.

use islands_analysis::{
    check_disjointness, check_graph, islands_plan, islands_plan_tiled, lower, with_offset_removed,
    DiagnosticCode, KernelPath, PlannedAccess, SchedulePlan,
};
use mpdata::{
    ExchangeExecutor, IslandsExecutor, MpdataProblem, OriginalExecutor, ScheduleKnobs,
    SchedulePolicy, StepSchedule,
};
use stencil_engine::{Axis, Offset3, Range1, Region3, StageGraph, StencilPattern};
use work_scheduler::{TeamSpec, WorkerPool};

fn domain() -> Region3 {
    Region3::new(Range1::new(2, 7), Range1::new(-1, 3), Range1::new(3, 6))
}

const CACHE: usize = 64 * 1024;

/// The lowered real schedule of two 2-rank islands over `parts` under
/// `knobs` (at the test cache budget).
fn plan_with(d: Region3, parts: &[Region3], knobs: ScheduleKnobs) -> SchedulePlan {
    let knobs = ScheduleKnobs {
        cache_bytes: CACHE,
        ..knobs
    };
    let schedule =
        StepSchedule::build(&MpdataProblem::standard(), d, parts, &[2, 2], knobs).unwrap();
    lower(&schedule)
}

fn dynamic(chunks_per_rank: usize) -> ScheduleKnobs {
    ScheduleKnobs {
        schedule: SchedulePolicy::Dynamic { chunks_per_rank },
        ..ScheduleKnobs::default()
    }
}

fn fused(fuse_steps: usize) -> ScheduleKnobs {
    ScheduleKnobs {
        fuse_steps,
        ..ScheduleKnobs::default()
    }
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "needs the debug-only access recorder")]
fn dropped_offset_is_an_undeclared_read() {
    let problem = MpdataProblem::standard();
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
    for path in [KernelPath::Dispatch, KernelPath::Scalar] {
        let rep = check_graph(
            &mutated,
            problem.kinds(),
            problem.boundary(),
            domain(),
            path,
        )
        .unwrap();
        assert!(
            rep.diagnostics
                .iter()
                .any(|d| d.code == DiagnosticCode::UndeclaredRead
                    && d.site == "flux_i"
                    && d.field == "x"
                    && d.detail.contains("(-1, 0, 0)")),
            "expected the undeclared (-1,0,0) read of x, got: {:?}",
            rep.diagnostics
        );
    }
}

/// Widens one declared pattern with an offset the kernel never reads.
fn with_offset_added(
    graph: &StageGraph,
    stage: usize,
    slot: usize,
    o: (i64, i64, i64),
) -> StageGraph {
    let mut stages = graph.stages().to_vec();
    let (_, pat) = &mut stages[stage].inputs[slot];
    let mut offsets: Vec<(i64, i64, i64)> =
        pat.offsets().iter().map(|p| (p.di, p.dj, p.dk)).collect();
    offsets.push(o);
    *pat = StencilPattern::from_offsets(offsets);
    StageGraph::build(graph.fields().clone(), stages).unwrap()
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "needs the debug-only access recorder")]
fn padded_pattern_is_an_overdeclared_offset() {
    let problem = MpdataProblem::standard();
    // Stage 0 reads the Courant field u1 pointwise; declare a phantom
    // (0, 0, -1) dependency on it.
    let mutated = with_offset_added(problem.graph(), 0, 1, (0, 0, -1));
    let rep = check_graph(
        &mutated,
        problem.kinds(),
        problem.boundary(),
        domain(),
        KernelPath::Dispatch,
    )
    .unwrap();
    assert!(
        rep.diagnostics
            .iter()
            .any(|d| d.code == DiagnosticCode::OverdeclaredOffset
                && d.site == "flux_i"
                && d.detail.contains("(0, 0, -1)")),
        "expected the phantom (0,0,-1) offset, got: {:?}",
        rep.diagnostics
    );
}

#[test]
fn overlapping_parts_are_a_cross_team_overlap() {
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let halves = d.split(Axis::I, 2);
    let grown = halves[1].with_range(Axis::I, Range1::new(halves[1].i.lo - 1, halves[1].i.hi));
    let plan = islands_plan(&problem, d, &[halves[0], grown], &[2, 2], Axis::J, CACHE).unwrap();
    let found = check_disjointness(&plan);
    assert!(
        found
            .iter()
            .any(|f| f.code == DiagnosticCode::CrossTeamOverlap && f.field == "xout"),
        "expected a cross-team xout overlap, got: {found:?}"
    );
}

#[test]
fn widened_rank_slices_are_an_intra_team_overlap() {
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    let split = Axis::J;
    let mut plan = islands_plan(&problem, d, &parts, &[2, 2], split, CACHE).unwrap();
    for team in &mut plan.teams {
        for ep in &mut team.epochs {
            if let Some(rank0) = ep.per_rank.first_mut() {
                for acc in rank0.iter_mut().filter(|a| a.write) {
                    let r = acc.region.range(split);
                    let hi = (r.hi + 1).min(d.range(split).hi);
                    acc.region = acc.region.with_range(split, Range1::new(r.lo, hi));
                }
            }
        }
    }
    let found = check_disjointness(&plan);
    assert!(
        found
            .iter()
            .any(|f| f.code == DiagnosticCode::IntraTeamOverlap),
        "expected an intra-team overlap, got: {found:?}"
    );
}

#[test]
fn writing_an_external_is_flagged() {
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    let mut plan = islands_plan(&problem, d, &parts, &[1, 1], Axis::J, CACHE).unwrap();
    let x = plan.field_names.iter().position(|n| n == "x").unwrap();
    assert!(plan.external[x]);
    plan.teams[0].epochs[0].per_rank[0].push(PlannedAccess {
        field: x,
        region: parts[0],
        write: true,
    });
    let found = check_disjointness(&plan);
    assert!(
        found
            .iter()
            .any(|f| f.code == DiagnosticCode::ExternalWrite && f.field == "x"),
        "expected an external-write, got: {found:?}"
    );
}

#[test]
fn deleting_a_producer_epoch_is_an_uncovered_read() {
    // The `producer-dropped` mutant: the schedule an islands executor
    // replays, minus team 0's first epoch that writes an intermediate.
    // The replay never re-zeroes scratch, so rule 4 is what stands
    // between such a schedule and last step's values.
    let pool = WorkerPool::new(4);
    let exec = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I).cache_bytes(CACHE);
    let mut plan = lower(&exec.schedule_for(Region3::of_extent(16, 12, 6)).unwrap());
    assert_eq!(check_disjointness(&plan), vec![], "control not clean");
    let producer = plan.teams[0]
        .epochs
        .iter()
        .position(|ep| {
            let mut accs = ep.per_rank.iter().flatten();
            accs.any(|a| a.write && !plan.shared[a.field])
        })
        .unwrap();
    // Block 0, stage flux_i, the f1 producer: the low-order update's
    // read of f1 is now uncovered.
    assert!(plan.teams[0].epochs[producer].label.contains("flux_i"));
    plan.teams[0].epochs.remove(producer);
    let found = check_disjointness(&plan);
    assert!(
        found.iter().any(|f| f.code == DiagnosticCode::UncoveredRead
            && f.field == "f1"
            && f.site.starts_with("team 0 ")),
        "expected team 0's read of f1 uncovered, got: {found:?}"
    );
}

#[test]
fn dropping_an_islands_output_writes_is_an_uncovered_output() {
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    let mut plan = islands_plan(&problem, d, &parts, &[2, 2], Axis::J, CACHE).unwrap();
    // Team 1 never writes xout: with the persistent-plan executors the
    // output buffer is reused across steps, so its half would silently
    // keep the previous step's values.
    let out = plan.field_names.iter().position(|n| n == "xout").unwrap();
    for ep in &mut plan.teams[1].epochs {
        for accs in &mut ep.per_rank {
            accs.retain(|a| !(a.write && a.field == out));
        }
    }
    let found = check_disjointness(&plan);
    assert!(
        found
            .iter()
            .any(|f| f.code == DiagnosticCode::UncoveredOutput && f.field == "xout"),
        "expected an uncovered output over team 1's half, got: {found:?}"
    );
    // The gap must name team 1's (upper-i) half, not team 0's.
    let gap = found
        .iter()
        .find(|f| f.code == DiagnosticCode::UncoveredOutput)
        .unwrap();
    assert!(
        gap.detail.contains("[8, 16)"),
        "gap should cover i = [8, 16), got: {}",
        gap.detail
    );
}

#[test]
fn widened_chunk_is_an_intra_team_overlap_naming_both_slots() {
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    let split = Axis::J;
    // Two ranks × two chunks: four claimable slots per epoch. Widen the
    // first chunk's writes one slab into the second chunk's share — any
    // claim order where different workers take slots 0 and 1 races.
    // The cut is named: the widening below must follow it.
    let knobs = ScheduleKnobs {
        split_axis: Some(split),
        ..dynamic(2)
    };
    let mut plan = plan_with(d, &parts, knobs);
    for team in &mut plan.teams {
        for ep in &mut team.epochs {
            if let Some(chunk0) = ep.per_rank.first_mut() {
                for acc in chunk0.iter_mut().filter(|a| a.write) {
                    let r = acc.region.range(split);
                    let hi = (r.hi + 1).min(d.range(split).hi);
                    acc.region = acc.region.with_range(split, Range1::new(r.lo, hi));
                }
            }
        }
    }
    let found = check_disjointness(&plan);
    let hit = found
        .iter()
        .find(|f| f.code == DiagnosticCode::IntraTeamOverlap)
        .unwrap_or_else(|| panic!("expected an intra-team chunk overlap, got: {found:?}"));
    // The diagnostic must name both overlapping chunk slots and mark the
    // epoch as dynamically scheduled.
    assert!(
        hit.site.contains("(dynamic chunks)"),
        "site should mark the dynamic schedule, got: {}",
        hit.site
    );
    assert!(
        hit.detail.contains("rank 0 writes") && hit.detail.contains("rank 1 writes"),
        "detail should name both chunk slots, got: {}",
        hit.detail
    );
}

#[test]
fn clean_schedule_stays_clean_as_a_control() {
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    let plan = islands_plan(&problem, d, &parts, &[2, 2], Axis::J, CACHE).unwrap();
    assert_eq!(check_disjointness(&plan), vec![]);
    // The dynamic variant of the same schedule is clean too: chunk-level
    // disjointness holds, so any claim order is safe.
    let dyn_plan = plan_with(d, &parts, dynamic(3));
    assert_eq!(check_disjointness(&dyn_plan), vec![]);
}

#[test]
fn widened_second_fused_step_is_an_intra_team_overlap() {
    // The temporal-blocking mutant: rank 0's write slices of the
    // *second* fused step (label prefix "step 1 /") are widened past
    // the team split. A checker that only modelled the first or last
    // fused step would miss this.
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    let split = Axis::J;
    let knobs = ScheduleKnobs {
        split_axis: Some(split),
        ..fused(3)
    };
    let mut plan = plan_with(d, &parts, knobs);
    for team in &mut plan.teams {
        for ep in &mut team.epochs {
            if !ep.label.starts_with("step 1 /") {
                continue;
            }
            if let Some(rank0) = ep.per_rank.first_mut() {
                for acc in rank0.iter_mut().filter(|a| a.write) {
                    let r = acc.region.range(split);
                    let hi = (r.hi + 1).min(d.range(split).hi);
                    acc.region = acc.region.with_range(split, Range1::new(r.lo, hi));
                }
            }
        }
    }
    let found = check_disjointness(&plan);
    let hit = found
        .iter()
        .find(|f| f.code == DiagnosticCode::IntraTeamOverlap)
        .unwrap_or_else(|| panic!("expected an intra-team overlap, got: {found:?}"));
    assert!(
        hit.site.contains("step 1 /"),
        "overlap should sit in the second fused step, got: {}",
        hit.site
    );
    // The widened final-stage write lands in an x slot, so the fused
    // model must surface a slot-field overlap too.
    assert!(
        found
            .iter()
            .any(|f| f.code == DiagnosticCode::IntraTeamOverlap && f.field.starts_with("x@slot")),
        "expected an x-slot overlap among: {found:?}"
    );
}

#[test]
fn dropping_first_step_producers_is_an_uncovered_slot_read() {
    // Delete every final-stage (x-slot) write of fused step 0: step 1's
    // advected reads now resolve to a slot nobody produced. Rule 4 must
    // name the slot pseudo-field — this is the machine proof that the
    // halo widening of earlier fused steps is load-bearing.
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    let mut plan = plan_with(d, &parts, fused(2));
    let slot0 = plan
        .field_names
        .iter()
        .position(|n| n == "x@slot0")
        .expect("fused plans expose the slot pseudo-fields");
    assert!(!plan.shared[slot0] && !plan.external[slot0]);
    for team in &mut plan.teams {
        for ep in &mut team.epochs {
            for accs in &mut ep.per_rank {
                accs.retain(|a| !(a.write && a.field == slot0));
            }
        }
    }
    let found = check_disjointness(&plan);
    assert!(
        found
            .iter()
            .any(|f| f.code == DiagnosticCode::UncoveredRead && f.field == "x@slot0"),
        "expected an uncovered x@slot0 read, got: {found:?}"
    );
}

#[test]
fn clean_fused_schedule_stays_clean_as_a_control() {
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    for fuse in [2, 3, 4] {
        let plan = plan_with(d, &parts, fused(fuse));
        assert_eq!(check_disjointness(&plan), vec![], "fuse={fuse} not clean");
    }
    // fuse = 1 degenerates to the classic plan, labels included.
    let fused1 = plan_with(d, &parts, fused(1));
    let plain = islands_plan(&problem, d, &parts, &[2, 2], Axis::J, CACHE).unwrap();
    assert_eq!(fused1.field_names, plain.field_names);
    assert_eq!(
        fused1.teams[0].epochs[0].label,
        plain.teams[0].epochs[0].label
    );
}

#[test]
fn shaved_tile_producer_is_an_uncovered_tile_scratch_read() {
    // The tile-halo mutant: every tile's first-stage scratch writes
    // lose one I-slab, as a rebased scratch footprint one cell too
    // narrow would; later stages of the chain then read cells no stage
    // of that tile wrote, named by the tile's private pseudo-field.
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    let mut plan = islands_plan_tiled(&problem, d, &parts, (4, 4), 1);
    assert_eq!(check_disjointness(&plan), vec![], "control not clean");
    for team in &mut plan.teams {
        let ep = team.epochs.first_mut().unwrap();
        for acc in ep.per_rank.iter_mut().flatten().filter(|a| a.write) {
            let r = acc.region.range(Axis::I);
            acc.region = acc.region.with_range(Axis::I, Range1::new(r.lo + 1, r.hi));
        }
    }
    let found = check_disjointness(&plan);
    assert!(
        found
            .iter()
            .any(|f| f.code == DiagnosticCode::UncoveredRead && f.field == "t0/s0/tile0:f1"),
        "expected an uncovered tile-scratch read, got: {found:?}"
    );
}

#[test]
fn composed_knobs_stay_clean_and_route_x_through_slots() {
    // Combinations no hand-written mirror expressed: dynamic × fused,
    // and tiled × dynamic × fused. The x-slot hand-off of the fused
    // steps must show up in the lowered real schedule either way.
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    for tile in [
        mpdata::TileMode::Off,
        mpdata::TileMode::Fixed { ti: 4, tj: 4 },
    ] {
        let knobs = ScheduleKnobs {
            fuse_steps: 2,
            tile,
            ..dynamic(2)
        };
        let plan = plan_with(d, &parts, knobs);
        assert_eq!(check_disjointness(&plan), vec![], "{tile:?} not clean");
        assert!(plan.field_names.iter().any(|n| n == "x@slot0"));
    }
}

/// The lowered schedule of a two-island Exchange executor (two ranks
/// per island) on 16×12×6.
fn exchange_plan() -> SchedulePlan {
    let pool = WorkerPool::new(4);
    let exec = ExchangeExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I);
    lower(&exec.schedule_for(Region3::of_extent(16, 12, 6)))
}

#[test]
fn dropped_exchange_fence_is_a_cross_team_overlap() {
    let clean = exchange_plan();
    assert!(clean.stage_synchronous);
    assert_eq!(check_disjointness(&clean), vec![], "control not clean");
    // The stage-synchronous Original is clean too, and keeps its flag.
    let pool = WorkerPool::new(3);
    let original = lower(&OriginalExecutor::new(&pool).schedule_for(Region3::of_extent(9, 7, 4)));
    assert!(original.stage_synchronous);
    assert_eq!(check_disjointness(&original), vec![]);

    // Without the per-stage global barriers, each island's halo reads
    // of the shared intermediates race with its neighbour's writes.
    let mut unfenced = clean;
    unfenced.stage_synchronous = false;
    let found = check_disjointness(&unfenced);
    assert!(
        !found.is_empty()
            && found
                .iter()
                .all(|f| f.code == DiagnosticCode::CrossTeamOverlap),
        "expected only cross-team overlaps, got: {found:?}"
    );
    // The low-order update reads f1 one plane past island 0's part.
    assert!(
        found.iter().any(|f| f.site == "teams 1+0"
            && f.field == "f1"
            && f.detail.contains("team 1 writes [8, 16)")
            && f.detail.contains("team 0 reads [0, 9)")),
        "expected island 0 reading island 1's f1, got: {found:?}"
    );
}

#[test]
fn stage_synchronous_rules_hold_per_epoch() {
    let clean = exchange_plan();
    let f1 = clean.field_names.iter().position(|n| n == "f1").unwrap();
    assert!(clean.shared[f1] && !clean.external[f1]);

    // Island 1's f1 producer widened one plane into island 0's part:
    // both write it in the same epoch, before the global barrier.
    let mut widened = clean.clone();
    let ep = &mut widened.teams[1].epochs[0];
    assert_eq!(ep.label, "stage flux_i");
    for acc in ep.per_rank.iter_mut().flatten().filter(|a| a.write) {
        let r = acc.region.range(Axis::I);
        acc.region = acc.region.with_range(Axis::I, Range1::new(r.lo - 1, r.hi));
    }
    let found = check_disjointness(&widened);
    assert!(
        found
            .iter()
            .any(|f| f.code == DiagnosticCode::CrossTeamOverlap
                && f.site == "teams 0+1 / stage flux_i"
                && f.field == "f1"),
        "expected a same-epoch f1 overlap, got: {found:?}"
    );

    // Island 1 never produces its half of f1: island 0's halo read of
    // it is covered by no team, and the shared array is left stale.
    let mut dropped = clean;
    dropped.teams[1].epochs[0]
        .per_rank
        .iter_mut()
        .for_each(|accs| {
            accs.retain(|a| !(a.write && a.field == f1));
        });
    let found = check_disjointness(&dropped);
    assert!(
        found.iter().any(|f| f.code == DiagnosticCode::UncoveredRead
            && f.field == "f1"
            && f.site.starts_with("team 0 ")
            && f.detail.contains("no earlier epoch of any team wrote")),
        "expected island 0's f1 halo read uncovered, got: {found:?}"
    );
    assert!(
        found
            .iter()
            .any(|f| f.code == DiagnosticCode::UncoveredOutput && f.field == "f1"),
        "expected f1's stale half reported, got: {found:?}"
    );
}

#[test]
fn narrowed_scratch_window_is_a_window_alias() {
    // The sliding-window mutant: one island of two ranks, cut into
    // many thin wavefront blocks, so its scratch buffers store far
    // fewer planes than the 24-plane hull. The first stage's output
    // loses one plane of storage.
    let d = Region3::of_extent(24, 12, 6);
    let knobs = ScheduleKnobs {
        cache_bytes: CACHE / 2,
        ..ScheduleKnobs::default()
    };
    let schedule = StepSchedule::build(&MpdataProblem::standard(), d, &[d], &[2], knobs).unwrap();
    let clean = lower(&schedule);
    let (field, planes) = clean.teams[0].windows[0];
    assert_eq!(clean.field_names[field], "f1");
    assert!(planes < 24 / 2, "the control must really be windowed");
    assert_eq!(check_disjointness(&clean), vec![], "control not clean");
    // A deeper window than needed wastes memory, never correctness.
    let mut roomy = clean.clone();
    roomy.teams[0].windows[0].1 += 1;
    assert_eq!(check_disjointness(&roomy), vec![]);

    let mut narrow = clean.clone();
    narrow.teams[0].windows[0].1 -= 1;
    let found = check_disjointness(&narrow);
    // Block 0 computes planes 0..planes of f1 — exactly one window.
    let write = format!("writes plane 0 with plane {} already written", planes - 1);
    let read = format!("reads plane 0 with plane {} already written", planes - 1);
    assert!(
        !found.is_empty()
            && found
                .iter()
                .all(|f| f.code == DiagnosticCode::WindowAlias && f.field == "f1"),
        "expected only window aliases of f1, got: {found:?}"
    );
    // Both sides of the hazard are named, with block and planes: the
    // producer recycling a live slot and the consumer reading it.
    for (stage, what) in [("flux_i", &write), ("low_order", &read)] {
        assert!(
            found.iter().any(|f| {
                f.site.contains(&format!("block 0 / stage {stage}"))
                    && f.detail.contains(what.as_str())
                    && f.detail.contains(&format!("window holds {}", planes - 1))
            }),
            "no `{what}` at block 0 / stage {stage}: {found:?}"
        );
    }
}
