//! The cache study replays the schedule that runs: `perf_model`'s
//! address stream walks `StepSchedule::accesses()` into the arrays
//! `StepSchedule::storage()` says the executor allocates, so one replay
//! covers every shape the executor plans.
//!
//! The constants of the first test are the counters of the schedule
//! walk the replay replaced (its own `Blocking` sweep over a field
//! layout of whole arrays and sliding windows), computed on the same
//! domain, cache and block budget: the replay reproduces them exactly.
//! The second test replays a shape that walk could not express — two
//! teams, tiles on rank-private scratch, two fused steps through the x
//! slots, tiles claimed from queues — and checks that every address
//! lands inside the storage of its own buffer.

use mpdata::{
    Buffer, MpdataProblem, OriginalExecutor, ScheduleKnobs, SchedulePolicy, StepSchedule, TileMode,
};
use numa_sim::{CacheConfig, CacheStats};
use perf_model::{address_stream, replay_schedule};
use stencil_engine::{Axis, Region3};
use work_scheduler::WorkerPool;

const CACHE: CacheConfig = CacheConfig {
    capacity_bytes: 64 << 10,
    ways: 16,
    line_bytes: 64,
};

#[test]
fn per_stage_and_wavefront_replays_are_pinned() {
    let domain = Region3::of_extent(24, 16, 8);
    let per_stage = OriginalExecutor::new(&WorkerPool::new(1)).schedule_for(domain);
    assert_eq!(
        replay_schedule(&per_stage, CACHE),
        (
            CacheStats {
                accesses: 497_664,
                hits: 469_231,
                misses: 28_433,
            },
            565_248.0
        )
    );
    // A 64 KiB block budget plans six blocks of depth 4.
    let knobs = ScheduleKnobs {
        cache_bytes: 64 << 10,
        ..ScheduleKnobs::default()
    };
    let problem = MpdataProblem::standard();
    let wavefront = StepSchedule::build(&problem, domain, &[domain], &[1], knobs).unwrap();
    assert_eq!(
        replay_schedule(&wavefront, CACHE),
        (
            CacheStats {
                accesses: 497_664,
                hits: 486_574,
                misses: 11_090,
            },
            239_616.0
        )
    );
}

#[test]
fn tiled_fused_two_team_replay_stays_in_its_buffers() {
    let domain = Region3::of_extent(20, 12, 6);
    let knobs = ScheduleKnobs {
        cache_bytes: 64 << 10,
        split_axis: None,
        schedule: SchedulePolicy::Dynamic { chunks_per_rank: 2 },
        fuse_steps: 2,
        tile: TileMode::Fixed { ti: 4, tj: 6 },
    };
    let problem = MpdataProblem::standard();
    let parts = domain.split(Axis::I, 2);
    let schedule = StepSchedule::build(&problem, domain, &parts, &[2, 2], knobs).unwrap();
    let accesses = schedule.accesses();
    let kinds: [fn(Buffer) -> bool; 3] = [
        |b| matches!(b, Buffer::Shared(_)),
        |b| matches!(b, Buffer::XSlot(_)),
        |b| matches!(b, Buffer::TileScratch(_)),
    ];
    for kind in kinds {
        assert!(accesses.iter().any(|a| kind(a.buffer)));
    }
    let mut storages = Vec::new();
    let mut touches = [0u64; 2];
    address_stream(&schedule, |team, addr, storage| {
        assert!(
            storage.contains(&addr),
            "team {team}: {addr} outside {storage:?}"
        );
        touches[team] += 1;
        if !storages.contains(&storage) {
            storages.push(storage);
        }
    });
    assert!(
        touches.iter().all(|&n| n > 0),
        "both teams replay: {touches:?}"
    );
    // The replay lays out what the executor allocates: five externals
    // and the output, then per team both x slots and each of its two
    // ranks' 17 tile scratch arrays — the scratch at the executor's own
    // byte count. With k = 2 only x slot 0 is ever touched.
    let storage = schedule.storage();
    assert_eq!(storage.len(), 6 + 2 * (2 + 2 * 17));
    let scratch = storage
        .iter()
        .filter(|s| matches!(s.buffer, Buffer::TileScratch(_)));
    let cells: usize = scratch.map(|s| s.hull.cells()).sum();
    assert_eq!(cells * 8, schedule.scratch_bytes());
    assert_eq!(storages.len(), storage.len() - 2);
    // Buffers sit back to back, never overlapping.
    storages.sort_by_key(|s| s.start);
    for pair in storages.windows(2) {
        assert!(pair[0].end <= pair[1].start, "{pair:?}");
    }
    let (stats, floor) = replay_schedule(&schedule, CACHE);
    assert_eq!(stats.accesses, touches.iter().sum::<u64>());
    assert!(floor > 0.0);
    assert!(
        stats.miss_bytes(CACHE.line_bytes) >= floor,
        "{stats:?} vs {floor}"
    );
}
