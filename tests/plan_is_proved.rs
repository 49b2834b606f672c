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
//! boundaries included, which only that shape runs.
//!
//! The prover-only `lattice()` is the whole list of proved schedules:
//! 936, built the way their executors build them and proved without
//! running —
//! partitions × named and derived rank cuts × team shapes × the knob
//! lattice on two domains, sliver tiles, the benchmark's exact
//! `knobs_mid` configuration, the Original and Exchange baselines for
//! `iord` 2 and 3, and corners (`iord` 1 and 3, K island cuts,
//! single-cell domains, more teams than planes). It is pinned at its
//! row count and proved in five shards; `cargo test --test
//! plan_is_proved lattice_has -- --nocapture` lists its labels. A
//! source-level test keeps the prover from growing a private copy of
//! the schedule again.

use islands_analysis::{check_disjointness, lower, Diagnostic};
use islands_core::{Partition, Variant};
use mpdata::{
    random_fields, Access, Boundary, ExchangeExecutor, IslandsExecutor, MpdataProblem,
    OriginalExecutor, ReferenceExecutor, ScheduleKnobs, SchedulePolicy, StepSchedule, TileMode,
};
use std::collections::{BTreeMap, BTreeSet};
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

/// The cache budget of the lattice's islands rows: small enough to cut
/// several wavefront blocks per island on its domains.
const CACHE_BYTES: usize = 64 * 1024;

/// How many schedules [`lattice`] proves.
const LATTICE_ROWS: usize = 936;

/// The lattice is proved in this many test functions, row `n` in the
/// `n % SHARDS`-th, so the test harness spreads it over its threads.
/// Five is prime to the knob lattice's loops of 2, 3 and 4, so each
/// shard gets its share of the costly tile modes.
const SHARDS: usize = 5;

/// How one lattice schedule is built: the way the executor that
/// replays it builds it.
enum Build {
    /// [`StepSchedule::build`] straight from its inputs: the islands
    /// schedule of one partition, team shape and knob combination.
    Islands {
        parts: Vec<Region3>,
        ranks: Vec<usize>,
        knobs: ScheduleKnobs,
    },
    /// `OriginalExecutor`'s one team of `ranks` workers.
    Original { ranks: usize },
    /// `ExchangeExecutor`'s `islands` teams of `ranks`, cut along `axis`.
    Exchange {
        islands: usize,
        axis: Axis,
        ranks: usize,
    },
}

/// One schedule of the lattice — the `iord` graph's on `domain` — and
/// the label its failures name.
struct Row {
    label: String,
    iord: usize,
    domain: Region3,
    build: Build,
}

impl Row {
    /// Builds the schedule, lowers it and proves it.
    fn diagnostics(&self) -> Vec<Diagnostic> {
        let problem = MpdataProblem::with_iord(self.iord);
        let schedule = match &self.build {
            Build::Islands {
                parts,
                ranks,
                knobs,
            } => {
                let built = StepSchedule::build(&problem, self.domain, parts, ranks, *knobs);
                Arc::new(built.unwrap_or_else(|e| panic!("{e} — {}", self.label)))
            }
            Build::Original { ranks } => {
                let pool = WorkerPool::new(*ranks);
                OriginalExecutor::with_problem(&pool, problem).schedule_for(self.domain)
            }
            Build::Exchange {
                islands,
                axis,
                ranks,
            } => {
                let pool = WorkerPool::new(islands * ranks);
                let teams = TeamSpec::even(islands * ranks, *islands);
                let exec = ExchangeExecutor::with_problem(&pool, teams, *axis, problem);
                exec.schedule_for(self.domain)
            }
        };
        assert_blocks_are_swept(&schedule, &self.label);
        check_disjointness(&lower(&schedule))
    }
}

/// `blocks()` and the access stream describe one schedule: walking
/// every team's blocks in program order, the distinct write slices of
/// each `(block, stage)` sweep — the block is the tile slot of a tiled
/// access — come next in the stream and tile exactly that stage's
/// region of the block, and no write is left over. So every non-empty
/// stage region is swept, and every sweep is one of `blocks()`. A
/// stage-synchronous team, idle ones included, runs one block.
fn assert_blocks_are_swept(sched: &StepSchedule, label: &str) {
    let tiled = sched.knobs().tile != TileMode::Off;
    let key_of = |a: &Access| {
        [
            a.team,
            a.step,
            if tiled { a.slot } else { a.block },
            a.stage,
        ]
    };
    let accesses = sched.accesses();
    let mut writes = accesses.iter().filter(|a| a.write).peekable();
    let mut slices: Vec<Region3> = Vec::new();
    for team in 0..sched.team_count() {
        if sched.stage_synchronous() {
            assert_eq!(sched.blocks(team, 0).len(), 1, "team {team} — {label}");
        }
        for step in 0..sched.knobs().fuse_steps {
            for (block, b) in sched.blocks(team, step).iter().enumerate() {
                for (stage, &region) in b.stage_regions.iter().enumerate() {
                    let key = [team, step, block, stage];
                    slices.clear();
                    while let Some(a) = writes.next_if(|a| key_of(a) == key) {
                        if !slices.contains(&a.region) {
                            slices.push(a.region);
                        }
                    }
                    for (n, slice) in slices.iter().enumerate() {
                        assert!(
                            region.contains_region(*slice)
                                && !slices[..n].iter().any(|s| s.overlaps(*slice)),
                            "{key:?} writes {slice:?} in {region:?} — {label}"
                        );
                    }
                    let cells = slices.iter().map(|s| s.cells()).sum::<usize>();
                    assert_eq!(cells, region.cells(), "{key:?} — {label}");
                }
            }
        }
    }
    assert_eq!(writes.next(), None, "a write outside every block — {label}");
}

/// Appends the islands schedule of `what` under `knobs`, labelled with
/// the knobs.
fn push_islands(
    rows: &mut Vec<Row>,
    what: &str,
    iord: usize,
    domain: Region3,
    parts: &[Region3],
    ranks: Vec<usize>,
    knobs: ScheduleKnobs,
) {
    rows.push(Row {
        label: format!(
            "{what} schedule={:?} fuse={} tile={:?}",
            knobs.schedule, knobs.fuse_steps, knobs.tile
        ),
        iord,
        domain,
        build: Build::Islands {
            parts: parts.to_vec(),
            ranks,
            knobs,
        },
    });
}

/// The knob lattice the executor offers, at [`CACHE_BYTES`]: schedule
/// policy × fuse depth × tile mode — a mid-size tile that straddles
/// part boundaries, a fat tile that swallows whole parts, and the
/// cache-driven auto sizer.
fn knob_lattice(split_axis: Option<Axis>) -> Vec<ScheduleKnobs> {
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

/// The partitions of `domain` the lattice proves, described: 1, 2, 4
/// and 16 islands along I (16 exceed both domains' slab count, so the
/// surplus parts are empty, as in the executor), three along J, a 2 × 2
/// grid, uneven explicit cuts at `uneven_cuts` (any "equal shares"
/// assumption in the planner would misalign), a 1-cell-wide island next
/// to the rest, and three more islands than there are I-slabs.
fn partitions(domain: Region3, uneven_cuts: [i64; 4]) -> Vec<(String, Vec<Region3>)> {
    let described = |p: Partition| (p.description().to_string(), p.parts().to_vec());
    let mut out: Vec<_> = [1, 2, 4, 16]
        .map(|islands| described(Partition::one_d(domain, Variant::A, islands).unwrap()))
        .into();
    out.push(described(Partition::one_d(domain, Variant::B, 3).unwrap()));
    out.push(described(Partition::grid2d(domain, 2, 2).unwrap()));
    let uneven = uneven_cuts
        .windows(2)
        .map(|c| domain.with_range(Axis::I, Range1::new(c[0], c[1])))
        .collect();
    out.push(("uneven 1D A x 3".to_string(), uneven));
    let ir = domain.range(Axis::I);
    let sliver = vec![
        domain.with_range(Axis::I, Range1::new(ir.lo, ir.lo + 1)),
        domain.with_range(Axis::I, Range1::new(ir.lo + 1, ir.hi)),
    ];
    out.push(("1-cell sliver + remainder".to_string(), sliver));
    let (desc, parts) = described(Partition::one_d(domain, Variant::A, ir.len() + 3).unwrap());
    out.push((format!("{desc} (P > nx)"), parts));
    out
}

/// Every schedule the prover must find race-free, labelled. Rows are
/// only ever appended, so a label list diffs cleanly against an older
/// one.
fn lattice() -> Vec<Row> {
    let mut rows = Vec::new();
    // Both domains × every partition × the rank cuts J, K, I and the
    // one an executor derives when none is named (each team's longest
    // axis among I and J) × two team shapes × the knob lattice. The
    // whole knob lattice runs on uniform teams cut along J, and its
    // untiled half again under the derived cut, which follows the
    // fused steps' regions (tiles are handed out whole: no cut); the
    // other combinations prove the two schedule policies of the classic
    // per-step sweeps. Each domain carries the I-cut points of its
    // uneven three-island partition (widths 8/7/9 and 4/4/5).
    let domains = [
        (Region3::of_extent(24, 12, 6), [0, 8, 15, 24]),
        // Prime extents (13 × 7 × 5) with mixed bases.
        (
            Region3::new(Range1::new(-3, 10), Range1::new(2, 9), Range1::new(0, 5)),
            [-3, 1, 5, 10],
        ),
    ];
    for (domain, uneven_cuts) in domains {
        for (desc, parts) in partitions(domain, uneven_cuts) {
            for split_axis in [Some(Axis::J), Some(Axis::K), Some(Axis::I), None] {
                let split = split_axis.map_or("derived".to_string(), |a| format!("{a:?}"));
                for shape in ["uniform-2", "mixed"] {
                    let ranks: Vec<usize> = match shape {
                        "uniform-2" => vec![2; parts.len()],
                        _ => (0..parts.len()).map(|n| 1 + n % 3).collect(),
                    };
                    let what =
                        format!("domain={domain:?} partition={desc} split={split} teams={shape}");
                    for knobs in knob_lattice(split_axis) {
                        let classic = knobs.fuse_steps == 1 && knobs.tile == TileMode::Off;
                        let wider = shape == "uniform-2"
                            && match split_axis {
                                Some(Axis::J) => true,
                                None => knobs.tile == TileMode::Off,
                                Some(_) => false,
                            };
                        if classic || wider {
                            push_islands(&mut rows, &what, 2, domain, &parts, ranks.clone(), knobs);
                        }
                    }
                }
            }
        }
    }

    // Sliver tiles on a small prime-extent domain: every tile is a
    // single (i, j) column, the degenerate extreme of the tile cutter.
    let domain = Region3::of_extent(11, 7, 4);
    let what = format!("domain={domain:?} partition=1D x 2");
    for fuse_steps in [1, 2] {
        let knobs = ScheduleKnobs {
            cache_bytes: CACHE_BYTES,
            fuse_steps,
            tile: TileMode::Fixed { ti: 1, tj: 1 },
            ..ScheduleKnobs::default()
        };
        let parts = domain.split(Axis::I, 2);
        push_islands(&mut rows, &what, 2, domain, &parts, vec![2, 2], knobs);
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
    push_islands(&mut rows, &what, 2, domain, &[domain], vec![2], knobs);

    // The stage-synchronous baselines, from the executors that replay
    // them: Original on 1–8 ranks, Exchange on 1–4 islands of 1–2
    // ranks cut along I or J — on a domain thinner than four cells both
    // ways too (P > nx: idle islands) — for both graphs.
    for iord in [2, 3] {
        for domain in [
            Region3::of_extent(24, 12, 6),
            Region3::new(Range1::new(-3, 10), Range1::new(2, 9), Range1::new(0, 5)),
            Region3::of_extent(3, 3, 4),
        ] {
            for ranks in 1..=8 {
                rows.push(Row {
                    label: format!("original iord={iord} domain={domain:?} ranks={ranks}"),
                    iord,
                    domain,
                    build: Build::Original { ranks },
                });
            }
            for islands in 1..=4 {
                for axis in [Axis::I, Axis::J] {
                    for ranks in 1..=2 {
                        rows.push(Row {
                            label: format!(
                                "exchange iord={iord} domain={domain:?} partition={axis:?} x \
                                 {islands} ranks={ranks}"
                            ),
                            iord,
                            domain,
                            build: Build::Exchange {
                                islands,
                                axis,
                                ranks,
                            },
                        });
                    }
                }
            }
        }
    }

    // Three islands of the prime domain cut evenly along I (5/4/4), two
    // ranks each, split along J.
    let domain = Region3::new(Range1::new(-3, 10), Range1::new(2, 9), Range1::new(0, 5));
    let even = Partition::one_d(domain, Variant::A, 3).unwrap();
    let knobs = ScheduleKnobs {
        cache_bytes: CACHE_BYTES,
        split_axis: Some(Axis::J),
        ..ScheduleKnobs::default()
    };
    let what = format!(
        "domain={domain:?} partition={} split=J teams=uniform-2",
        even.description()
    );
    push_islands(&mut rows, &what, 2, domain, even.parts(), vec![2; 3], knobs);

    // Corners: the 4- and 30-stage graphs (iord 1 and 3), islands cut
    // along K, single-cell and single-plane domains, and more teams
    // than planes: `[iord, ni, nj, nk, islands, ranks]`, islands cut
    // along `axis`.
    let corners: [([usize; 6], Axis); 8] = [
        ([1, 5, 4, 3, 2, 2], Axis::I),
        ([3, 6, 5, 4, 2, 2], Axis::J),
        ([2, 6, 5, 4, 2, 2], Axis::K),
        ([3, 4, 3, 5, 3, 1], Axis::K),
        ([2, 1, 1, 1, 1, 1], Axis::I),
        ([3, 1, 1, 1, 3, 2], Axis::J),
        ([2, 2, 3, 1, 2, 3], Axis::J),
        ([1, 2, 3, 1, 4, 2], Axis::I),
    ];
    let corner_knobs = [
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
    for ([iord, ni, nj, nk, islands, ranks], axis) in corners {
        let domain = Region3::new(
            Range1::new(-1, ni as i64 - 1),
            Range1::new(2, 2 + nj as i64),
            Range1::new(0, nk as i64),
        );
        let parts = domain.split(axis, islands);
        for knobs in corner_knobs {
            let split = knobs
                .split_axis
                .map_or("derived".to_string(), |a| format!("{a:?}"));
            let what = format!(
                "iord={iord} domain={domain:?} partition={axis:?} x {islands} split={split} \
                 teams=uniform-{ranks}"
            );
            let knobs = ScheduleKnobs {
                cache_bytes: 48 * 1024,
                ..knobs
            };
            push_islands(
                &mut rows,
                &what,
                iord,
                domain,
                &parts,
                vec![ranks; islands],
                knobs,
            );
        }
    }
    rows
}

/// Proves every `SHARDS`-th lattice row from `shard` on.
fn prove_shard(shard: usize) {
    let mut failures = Vec::new();
    for row in lattice().into_iter().skip(shard).step_by(SHARDS) {
        let found = row.diagnostics();
        failures.extend(found.iter().map(|d| format!("{}: {d}", row.label)));
    }
    assert!(
        failures.is_empty(),
        "{} diagnostic(s), the first:\n{}",
        failures.len(),
        failures[..failures.len().min(40)].join("\n")
    );
}

#[test]
fn lattice_has_its_pinned_rows() {
    let rows = lattice();
    let labels: BTreeSet<&str> = rows.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(labels.len(), rows.len(), "two rows share a label");
    assert_eq!(rows.len(), LATTICE_ROWS);
    // `-- --nocapture` lists what the lattice proves.
    for row in &rows {
        println!("{}", row.label);
    }
}

#[test]
fn lattice_shard_0_lints_clean() {
    prove_shard(0);
}

#[test]
fn lattice_shard_1_lints_clean() {
    prove_shard(1);
}

#[test]
fn lattice_shard_2_lints_clean() {
    prove_shard(2);
}

#[test]
fn lattice_shard_3_lints_clean() {
    prove_shard(3);
}

#[test]
fn lattice_shard_4_lints_clean() {
    prove_shard(4);
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
