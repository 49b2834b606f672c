//! The untiled replay keeps each intermediate in a sliding window of
//! i-planes instead of an array over the island's whole hull.
//!
//! For a seeded sample of domain (prime extents, shifted bases) ×
//! partition (1-D along I or J, 2 × P/2 grids, more islands than slabs)
//! × schedule policy × fuse depth, under a 1-byte cache budget — below
//! any block, so every island of every fused step plans depth-1
//! wavefront blocks, as many as it has i-planes: the
//! run reproduces the serial reference bitwise *through the windows*,
//! the schedule it replayed lints clean (rule 6 `window-alias`
//! included), every island cut into three or more blocks stores fewer
//! planes than its hull for every field, and the windows are exact —
//! one plane less on any one field and the prover names it. Blocks that
//! thin are wider than deep, so the derived rank cut of the samples is
//! `J`; fixed one-row-wide domains follow whose teams it cuts along `I`
//! — ranks own whole planes of the windows, and the ones beyond a
//! block's depth idle.

use islands_analysis::{check_disjointness, lower, DiagnosticCode};
use mpdata::{
    random_fields, IslandsExecutor, ReferenceExecutor, SchedulePolicy, DEFAULT_CACHE_BYTES,
};
use stencil_engine::rng::{Rng64, Xoshiro256pp};
use stencil_engine::{Axis, Range1, Region3};
use work_scheduler::{TeamSpec, WorkerPool};

#[test]
fn windows_run_bitwise_lint_clean_and_are_exact() {
    const SAMPLES: usize = 16;
    // `[ni, nj, nk, islands, ranks]` of the I-cut cases, run after the
    // samples.
    const DEEP_TEAMS: [[usize; 5]; 3] = [[37, 1, 4, 1, 3], [43, 1, 3, 2, 2], [29, 1, 5, 1, 2]];
    let mut rng = Xoshiro256pp::seed_from_u64(0x5C2A_7C11);
    let extents = [(23, 7, 5), (29, 5, 3), (31, 6, 4), (17, 11, 3)];
    let mut windowed_cases = 0;
    for case in 0..SAMPLES + DEEP_TEAMS.len() {
        let deep = DEEP_TEAMS.get(case.wrapping_sub(SAMPLES)).copied();
        let (ni, nj, nk) =
            deep.map_or_else(|| extents[rng.below(extents.len())], |d| (d[0], d[1], d[2]));
        let lo = rng.below(7) as i64 - 3;
        let domain = Region3::new(
            Range1::new(lo, lo + ni as i64),
            Range1::new(-2, nj as i64 - 2),
            Range1::new(1, 1 + nk as i64),
        );
        // Every partition shape comes round twice; the rest is drawn.
        let (axis, islands, grid) = [
            (Axis::I, 1, false),
            (Axis::I, 2, false),
            (Axis::J, 3, false),
            (Axis::I, 4, true),
            (Axis::I, ni + 2, false),
            (Axis::J, 2, false),
            (Axis::I, 3, false),
            (Axis::J, nj + 2, false),
        ][case % 8];
        let (axis, islands, grid) = deep.map_or((axis, islands, grid), |d| (Axis::I, d[3], false));
        let parts: Vec<Region3> = if grid {
            let halves = domain.split(Axis::I, 2);
            halves.iter().flat_map(|h| h.split(Axis::J, 2)).collect()
        } else {
            domain.split(axis, islands)
        };
        let ranks = deep.map_or_else(|| 1 + rng.below(2), |d| d[4]);
        let fuse = 1 + rng.below(3);
        let schedule = match rng.below(4) {
            chunks_per_rank @ 1..=2 => SchedulePolicy::Dynamic { chunks_per_rank },
            _ => SchedulePolicy::Static,
        };
        let pool = WorkerPool::new(islands * ranks);
        let teams = TeamSpec::even(islands * ranks, islands);
        let exec = IslandsExecutor::new(&pool, teams, axis)
            .cache_bytes(1)
            .fuse_steps(fuse)
            .schedule(schedule);
        let exec = if grid {
            exec.with_partition(parts.clone())
        } else {
            exec
        };
        let steps = 1 + rng.below(5);
        let label = format!(
            "case {case}: {domain:?}, {islands} islands × {ranks} along {axis:?} (grid: {grid}), \
             {schedule:?}, fuse {fuse}, {steps} steps"
        );
        eprintln!("{label}");

        let mut fields = random_fields(&mut rng, domain, 0.7);
        let mut expect = fields.clone();
        ReferenceExecutor::new().run(&mut expect, steps);
        exec.run(&mut fields, steps).unwrap();
        assert_eq!(fields.x.max_abs_diff(&expect.x), 0.0, "diverged — {label}");

        let ran = exec.schedule_for(domain).unwrap();
        let mut plan = lower(&ran);
        assert_eq!(check_disjointness(&plan), vec![], "{label}");
        if deep.is_some() {
            for team in 0..islands {
                assert_eq!(ran.rank_axis(team), Axis::I, "team {team} — {label}");
            }
        }

        // Blocks per island, of the fused step with the fewest (each
        // step has its own blocking, and a window must serve the
        // deepest).
        let blocks: Vec<usize> = (0..islands)
            .map(|team| {
                (0..fuse)
                    .map(|ts| ran.blocks(team, ts).len())
                    .min()
                    .unwrap_or(0)
            })
            .collect();
        let windows = ran.scratch_windows();
        for w in &windows {
            assert!(
                w.planes >= 1 && w.planes <= w.hull.i.len(),
                "{w:?} — {label}"
            );
            if blocks[w.team] >= 3 {
                assert!(w.planes < w.hull.i.len(), "{w:?} keeps its hull — {label}");
            }
        }
        // Depth-1 blocks cut some island into three or more blocks in
        // every fused step — unless there are more islands than I-slabs
        // (one-plane parts).
        let cut = blocks.iter().any(|&b| b >= 3);
        let one_plane_parts = axis == Axis::I && islands > ni;
        assert!(cut || one_plane_parts, "{blocks:?} — {label}");
        windowed_cases += usize::from(cut);
        let stored: usize = windows
            .iter()
            .map(|w| w.planes * w.hull.j.len() * w.hull.k.len() * 8)
            .sum();
        assert_eq!(ran.scratch_bytes(), stored, "{label}");

        // Exactness: any one window a plane shallower is an alias.
        let pick = windows[rng.below(windows.len())];
        let slot = plan.teams[pick.team]
            .windows
            .iter_mut()
            .find(|(f, _)| *f == pick.field.index())
            .expect("every scratch window is lowered");
        assert_eq!(slot.1, pick.planes);
        slot.1 -= 1;
        let name = &plan.field_names[pick.field.index()];
        let found = check_disjointness(&plan);
        assert!(
            !found.is_empty()
                && found.iter().all(|d| d.code == DiagnosticCode::WindowAlias
                    && d.field == *name
                    && d.site.starts_with(&format!("team {} ", pick.team))),
            "{pick:?} shrunk by a plane: {found:?} — {label}"
        );
    }
    assert!(
        windowed_cases >= SAMPLES / 2 + DEEP_TEAMS.len(),
        "only {windowed_cases} of {} cases had an island of three or more blocks",
        SAMPLES + DEEP_TEAMS.len()
    );
}

/// The plans the default budget gives the benchmark's shapes, without
/// stepping: the paper grid splits into depth-1 wavefront blocks whose
/// windows fit a core's share of cache, and the small grid stays one
/// block. Every schedule lints clean.
#[test]
fn default_budget_sizes_windows_for_a_core() {
    // `[ni, nj, nk, islands, ranks]`, blocks per team, most scratch bytes.
    let cases = [
        ([256, 256, 64, 1, 1], 256, 5_200_000),
        ([256, 256, 64, 2, 1], 128, 12_700_000),
        ([32, 32, 16, 1, 2], 1, 2_300_000),
    ];
    for ([ni, nj, nk, islands, ranks], blocks, most) in cases {
        let label = format!("{ni}×{nj}×{nk} on {islands}×{ranks}");
        let domain = Region3::of_extent(ni, nj, nk);
        let pool = WorkerPool::new(islands * ranks);
        let teams = TeamSpec::even(islands * ranks, islands);
        let exec = IslandsExecutor::new(&pool, teams, Axis::I);
        let ran = exec.schedule_for(domain).unwrap();
        assert_eq!(ran.knobs().cache_bytes, DEFAULT_CACHE_BYTES, "{label}");
        let per_team: Vec<usize> = (0..islands).map(|t| ran.blocks(t, 0).len()).collect();
        assert_eq!(per_team, vec![blocks; islands], "{label}");
        assert!(
            ran.scratch_bytes() <= most,
            "{} B — {label}",
            ran.scratch_bytes()
        );
        assert_eq!(check_disjointness(&lower(&ran)), vec![], "{label}");
    }
}
