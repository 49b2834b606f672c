//! One schedule: the plan that is proved is the plan that runs.
//!
//! For a seeded sample of the configuration lattice — domain (prime
//! extents included) × partition (P > nx included) × schedule policy ×
//! fuse depth × tile mode — one `IslandsExecutor` instance must (a)
//! reproduce the serial reference bitwise and (b) hand out, from the
//! very plan it just replayed, a [`mpdata::StepSchedule`] whose lowering
//! `check_disjointness` finds race-free. The executors name no rank
//! cut, so the lattice is proved under the one `StepSchedule::build`
//! derives — `I` wherever a team's sweeps are at least as deep as wide
//! (fixed cases add teams with more ranks than planes), `J` elsewhere —
//! and `rank_axis` must report the cut the unit slices really have. The
//! paper's baselines, `OriginalExecutor` and `ExchangeExecutor`, are
//! sampled the same way in their stage-synchronous shape — periodic
//! boundaries included, which only that shape runs. A prover-only
//! list covers the corners the sampled runs do not reach. A
//! source-level test keeps the prover from growing a private copy of
//! the schedule again.

use islands_analysis::{check_disjointness, lower};
use mpdata::{
    random_fields, Boundary, ExchangeExecutor, IslandsExecutor, MpdataProblem, OriginalExecutor,
    ReferenceExecutor, ScheduleKnobs, SchedulePolicy, StepSchedule, TileMode,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use stencil_engine::rng::{Rng64, Xoshiro256pp};
use stencil_engine::{Axis, Range1, Region3};
use work_scheduler::{TeamSpec, WorkerPool};

/// Per untiled multi-rank team, the rank cut its unit slices have —
/// read off the write regions the prover is fed — checked against what
/// `rank_axis` reports and against the longest-axis rule. Returns how
/// many such teams are cut along `[I, J]`.
fn rank_cuts(sched: &StepSchedule, label: &str) -> [usize; 2] {
    assert_eq!(sched.knobs().split_axis, None, "no cut was named — {label}");
    // (team, epoch) → the written region of every slot.
    let mut epochs: BTreeMap<(usize, usize), Vec<Region3>> = BTreeMap::new();
    if sched.knobs().tile == TileMode::Off {
        for a in sched.accesses().into_iter().filter(|a| a.write) {
            epochs.entry((a.team, a.epoch)).or_default().push(a.region);
        }
    }
    let mut seen = [0; 2];
    for team in 0..sched.team_count() {
        let regions: Vec<Region3> = epochs
            .iter()
            .filter(|((t, _), _)| *t == team)
            .map(|(_, slots)| slots.iter().fold(Region3::empty(), |h, r| h.hull(*r)))
            .collect();
        let sliced = epochs
            .iter()
            .any(|((t, _), slots)| *t == team && slots.len() > 1);
        if !sliced {
            continue;
        }
        let axis = sched.rank_axis(team);
        let deep = regions.iter().all(|r| r.i.len() >= r.j.len());
        assert_eq!(axis == Axis::I, deep, "team {team} cut {axis:?} — {label}");
        // Slots of one epoch differ along the reported axis only.
        for ((t, _), slots) in &epochs {
            for r in slots.iter().filter(|_| *t == team) {
                for other in [Axis::I, Axis::J, Axis::K] {
                    if other != axis {
                        assert_eq!(r.range(other), slots[0].range(other), "{label}");
                    }
                }
            }
        }
        seen[usize::from(axis == Axis::J)] += 1;
    }
    seen
}

#[test]
fn sampled_lattice_runs_bitwise_and_lints_clean() {
    const SAMPLES: usize = 24;
    // Teams whose derived cut is I with more ranks than some sweep has
    // planes (the surplus ranks idle at the team barriers, they do not
    // hang; the last one in six wavefront blocks): `[ni, nj, nk,
    // islands, ranks, cache]`. Run after the samples.
    const DEEP_TEAMS: [[usize; 6]; 3] = [
        [3, 2, 4, 1, 4, 48 * 1024],
        [9, 3, 5, 2, 3, 48 * 1024],
        [40, 2, 3, 1, 3, 4 * 1024],
    ];
    let mut cuts = [0; 2];
    let mut rng = Xoshiro256pp::seed_from_u64(0x15_1A2D5);
    // Extents mix composite and prime lengths; the bases are shifted
    // so relative-vs-global coordinate slips surface.
    let extents = [(12, 8, 4), (13, 7, 5), (5, 11, 3), (16, 6, 4)];
    for case in 0..SAMPLES + DEEP_TEAMS.len() {
        let deep = DEEP_TEAMS.get(case.wrapping_sub(SAMPLES)).copied();
        let (ni, nj, nk) =
            deep.map_or_else(|| extents[rng.below(extents.len())], |d| (d[0], d[1], d[2]));
        let lo = rng.below(4) as i64 - 2;
        let domain = Region3::new(
            Range1::new(lo, lo + ni as i64),
            Range1::new(1, 1 + nj as i64),
            Range1::new(0, nk as i64),
        );
        // 1 island, a few, or more than there are I-slabs (P > nx: the
        // surplus islands own empty parts).
        let islands = deep.map_or_else(|| [1, 2, 3, 4, ni + 2][rng.below(5)], |d| d[3]);
        let ranks = deep.map_or_else(|| 1 + rng.below(2), |d| d[4]);
        let pool = WorkerPool::new(islands * ranks);
        let teams = TeamSpec::even(islands * ranks, islands);
        let axis = [Axis::I, Axis::J][rng.below(2)];
        let fuse = 1 + rng.below(3);
        let tile = match if deep.is_some() { 0 } else { rng.below(3) } {
            0 => TileMode::Off,
            1 => TileMode::Auto,
            _ => TileMode::Fixed {
                ti: 1 + rng.below(6),
                tj: 1 + rng.below(6),
            },
        };
        let schedule = match rng.below(8) {
            chunks_per_rank @ 1..=4 => SchedulePolicy::Dynamic { chunks_per_rank },
            _ => SchedulePolicy::Static,
        };
        // Even island counts may instead form an explicit 2 × P/2 grid.
        let grid = deep.is_none() && islands % 2 == 0 && rng.next_bool();
        let mut exec = IslandsExecutor::new(&pool, teams, axis)
            .cache_bytes(deep.map_or(48 * 1024, |d| d[5]))
            .fuse_steps(fuse)
            .tile(tile)
            .schedule(schedule);
        if grid {
            let halves = domain.split(Axis::I, 2);
            exec = exec.with_partition(
                halves
                    .iter()
                    .flat_map(|h| h.split(Axis::J, islands / 2))
                    .collect(),
            );
        }
        let steps = 1 + rng.below(5);
        let label = format!(
            "case {case}: {domain:?}, {islands} islands × {ranks} along {axis:?} (grid: {grid}), \
             {schedule:?}, fuse {fuse}, {tile:?}, {steps} steps"
        );

        eprintln!("{label}");
        let mut fields = random_fields(&mut rng, domain, 0.7);
        let mut expect = fields.clone();
        ReferenceExecutor::new().run(&mut expect, steps);
        let planned = exec.schedule_for(domain).unwrap();
        exec.run(&mut fields, steps).unwrap();
        assert_eq!(fields.x.max_abs_diff(&expect.x), 0.0, "diverged — {label}");

        // The run replayed the cached plan, and the schedule handed out
        // is that plan's own table, not a rebuilt copy.
        let ran = exec.schedule_for(domain).unwrap();
        assert!(Arc::ptr_eq(&planned, &ran), "plan rebuilt — {label}");
        assert_eq!(check_disjointness(&lower(&ran)), vec![], "{label}");
        let seen = rank_cuts(&ran, &label);
        if deep.is_some() {
            assert!(seen[0] > 0 && seen[1] == 0, "expected I teams — {label}");
        }
        cuts = [cuts[0] + seen[0], cuts[1] + seen[1]];
    }
    assert!(
        cuts[0] > DEEP_TEAMS.len() && cuts[1] > 0,
        "the samples should meet both derived cuts: {cuts:?} teams along [I, J]"
    );
}

#[test]
fn stage_synchronous_baselines_run_bitwise_and_lint_clean() {
    const SAMPLES: usize = 16;
    let mut rng = Xoshiro256pp::seed_from_u64(0x0E_C4A6);
    // Prime and composite extents, one thinner than any island count
    // below, with shifted bases.
    let extents = [(12, 8, 4), (13, 7, 5), (5, 11, 3), (3, 2, 4)];
    // [Original, Exchange] × [Open, Periodic] samples, and Exchange
    // samples with idle islands (P > nx).
    let mut seen = [[0; 2]; 2];
    let mut idle = 0;
    for case in 0..SAMPLES {
        let (ni, nj, nk) = extents[rng.below(extents.len())];
        let lo = rng.below(4) as i64 - 2;
        let domain = Region3::new(
            Range1::new(lo, lo + ni as i64),
            Range1::new(-1, nj as i64 - 1),
            Range1::new(0, nk as i64),
        );
        let bc = [Boundary::Open, Boundary::Periodic][rng.below(2)];
        let problem = MpdataProblem::standard().with_boundary(bc);
        let exchange = rng.next_bool();
        let axis = [Axis::I, Axis::J][rng.below(2)];
        // Original: one team of 1–8 ranks. Exchange: a few islands, or
        // more than there are slabs along the cut, of 1–2 ranks each.
        let (islands, ranks) = if exchange {
            ([2, 3, 4, ni.max(nj) + 1][rng.below(4)], 1 + rng.below(2))
        } else {
            (1, 1 + rng.below(8))
        };
        let steps = 1 + rng.below(5);
        let shape = if exchange {
            format!("exchange, {islands} islands × {ranks} along {axis:?}")
        } else {
            format!("original, {ranks} ranks")
        };
        let label = format!("case {case}: {shape} on {domain:?}, {bc:?}, {steps} steps");
        eprintln!("{label}");
        let pool = WorkerPool::new(islands * ranks);
        let mut fields = random_fields(&mut rng, domain, 0.7);
        let mut expect = fields.clone();
        ReferenceExecutor::with_problem(problem.clone()).run(&mut expect, steps);
        let (planned, ran) = if exchange {
            let teams = TeamSpec::even(islands * ranks, islands);
            let exec = ExchangeExecutor::with_problem(&pool, teams, axis, problem);
            let planned = exec.schedule_for(domain);
            exec.run(&mut fields, steps);
            (planned, exec.schedule_for(domain))
        } else {
            let exec = OriginalExecutor::with_problem(&pool, problem);
            let planned = exec.schedule_for(domain);
            exec.run(&mut fields, steps);
            (planned, exec.schedule_for(domain))
        };
        assert_eq!(fields.x.max_abs_diff(&expect.x), 0.0, "diverged — {label}");
        assert!(Arc::ptr_eq(&planned, &ran), "plan rebuilt — {label}");
        assert!(ran.stage_synchronous(), "{label}");
        assert_eq!(check_disjointness(&lower(&ran)), vec![], "{label}");
        seen[usize::from(exchange)][usize::from(bc == Boundary::Periodic)] += 1;
        idle += usize::from(islands > domain.range(axis).len());
    }
    assert!(
        seen.iter().flatten().all(|&n| n > 0) && idle > 0,
        "the samples should meet both baselines under both boundaries and idle \
         islands: {seen:?} [original, exchange] × [open, periodic], {idle} with idle islands"
    );
}

#[test]
fn corner_schedules_lint_clean() {
    // Corners the sampled runs above do not reach: the 4- and 30-stage
    // graphs (iord 1 and 3), islands cut along K, single-cell and
    // single-plane domains, and more teams than planes. The replay
    // re-zeroes nothing, so each must prove covered as built: `[iord,
    // ni, nj, nk, islands, ranks]`, islands cut along `axis`.
    let cases: [([usize; 6], Axis); 8] = [
        ([1, 5, 4, 3, 2, 2], Axis::I),
        ([3, 6, 5, 4, 2, 2], Axis::J),
        ([2, 6, 5, 4, 2, 2], Axis::K),
        ([3, 4, 3, 5, 3, 1], Axis::K),
        ([2, 1, 1, 1, 1, 1], Axis::I),
        ([3, 1, 1, 1, 3, 2], Axis::J),
        ([2, 2, 3, 1, 2, 3], Axis::J),
        ([1, 2, 3, 1, 4, 2], Axis::I),
    ];
    let knobs = [
        ScheduleKnobs::default(),
        ScheduleKnobs {
            split_axis: Some(Axis::K),
            fuse_steps: 3,
            ..ScheduleKnobs::default()
        },
        ScheduleKnobs {
            schedule: SchedulePolicy::Dynamic { chunks_per_rank: 2 },
            fuse_steps: 2,
            ..ScheduleKnobs::default()
        },
        ScheduleKnobs {
            tile: TileMode::Fixed { ti: 1, tj: 1 },
            fuse_steps: 2,
            ..ScheduleKnobs::default()
        },
    ];
    for ([iord, ni, nj, nk, islands, ranks], axis) in cases {
        let problem = MpdataProblem::with_iord(iord);
        let domain = Region3::new(
            Range1::new(-1, ni as i64 - 1),
            Range1::new(2, 2 + nj as i64),
            Range1::new(0, nk as i64),
        );
        let parts = domain.split(axis, islands);
        for knobs in knobs {
            let knobs = ScheduleKnobs {
                cache_bytes: 48 * 1024,
                ..knobs
            };
            let label = format!("iord {iord}, {domain:?}, {islands} × {ranks} along {axis:?}");
            let sched = StepSchedule::build(&problem, domain, &parts, &vec![ranks; islands], knobs)
                .unwrap_or_else(|e| panic!("{e} — {label}, {knobs:?}"));
            let found = check_disjointness(&lower(&sched));
            assert_eq!(found, vec![], "{label}, {knobs:?}");
        }
    }
}

/// Strips `//` comments (line and doc) so prose may name what code may
/// not.
fn code_only(source: &str) -> String {
    source
        .lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn the_prover_derives_no_schedule_of_its_own() {
    // The region-deriving primitives `StepSchedule::build` is made of.
    // If the prover names one, it is re-deriving (a mirror of) the
    // schedule instead of lowering the one that runs.
    const DERIVING: &[&str] = &[
        "BlockPlanner",
        "plan_wavefront",
        "tile_grid",
        "rank_slice",
        "required_regions",
        "external_read_regions",
    ];
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect("readable source file");
    let prover = code_only(&read("crates/analysis/src/disjoint.rs"));
    for name in DERIVING {
        assert!(
            !prover.contains(name),
            "crates/analysis/src/disjoint.rs names `{name}`: lower \
             `mpdata::StepSchedule::accesses` instead of re-deriving regions"
        );
    }
    // And `mpdata` keeps the work split to itself, so no mirror can be
    // rebuilt from outside the crate.
    assert!(
        code_only(&read("crates/mpdata/src/exec.rs")).contains("pub(crate) fn rank_slice"),
        "mpdata::rank_slice must stay crate-private"
    );
    assert!(!code_only(&read("crates/mpdata/src/lib.rs")).contains("rank_slice"));
}
