//! Trace-driven cache study. The §3.2 claim — fused blocks keep the
//! intermediates in cache across all 17 stages — is checked, not
//! assumed: the schedule the executors run ([`StepSchedule::accesses`])
//! becomes the exact byte-address stream of one replay, fed through the
//! set-associative LRU model of `numa-sim`. Nothing here derives a
//! schedule.

use mpdata::{Access, Buffer, StepSchedule};
use numa_sim::{CacheConfig, CacheSim, CacheStats};
use std::collections::HashMap;
use std::ops::Range;
use stencil_engine::{Region3, BYTES_PER_CELL};

/// One buffer's storage and the cells it answers for: plane `i` of
/// `hull` in slot `(i - hull.i.lo) mod planes` — the rule of
/// `Array3::windowed`; `planes = hull.i.len()` is a plain array.
#[derive(Clone, Copy, Debug)]
struct Window {
    base: u64,
    bytes: u64,
    hull: Region3,
    planes: u64,
}

impl Window {
    fn addr(&self, i: i64, j: i64, k: i64) -> u64 {
        let h = self.hull;
        let at = |x: i64, lo: i64| (x - lo) as u64;
        let (nj, nk) = (h.j.len() as u64, h.k.len() as u64);
        let cell = (at(i, h.i.lo) % self.planes * nj + at(j, h.j.lo)) * nk + at(k, h.k.lo);
        self.base + cell * BYTES_PER_CELL as u64
    }
}

/// Where each array of [`StepSchedule::storage`] sits, keyed by owner
/// and buffer: back to back field by field, then team by team and rank
/// by rank, x slots last (`FieldId` order for one team's untiled,
/// unfused schedule), each padded to 4 KiB plus a 4 KiB stagger against
/// set aliasing.
fn layout(schedule: &StepSchedule) -> HashMap<((usize, usize), Buffer), Window> {
    let mut storage = schedule.storage();
    storage.sort_by_key(|s| match s.buffer {
        Buffer::Shared(f) | Buffer::Scratch(f) | Buffer::TileScratch(f) => {
            (f.index(), s.team, s.rank)
        }
        Buffer::XSlot(n) => (usize::MAX, s.team, n),
    });
    let mut next = 0;
    let mut windows = HashMap::new();
    for s in storage {
        let bytes = (s.cells() * BYTES_PER_CELL) as u64;
        let (base, hull, planes) = (next, s.hull, s.planes as u64);
        let window = Window {
            base,
            bytes,
            hull,
            planes,
        };
        windows.insert(((s.team, s.rank), s.buffer), window);
        next += bytes.div_ceil(4096) * 4096 + 4096;
    }
    windows
}

/// Streams every byte address one full replay of `schedule` touches to
/// `visit(team, address, storage of its buffer)`, team by team in
/// program order: each work unit's write region cell by cell in `(i, j,
/// k)` order, each cell reading every offset of the stage's declared
/// patterns from the buffers the unit's reads name (resolved by the
/// kernels' own [`mpdata::Boundary::resolve`]), then writing its outputs.
pub fn address_stream(schedule: &StepSchedule, mut visit: impl FnMut(usize, u64, Range<u64>)) {
    let (d, stages) = (schedule.domain(), schedule.problem().graph().stages());
    let bc = schedule.problem().boundary();
    let accesses = schedule.accesses();
    let mut windows = layout(schedule);
    let key = |a: &Access| (schedule.owner(a), a.buffer);
    let units = accesses.chunk_by(|a, b| (a.team, a.epoch, a.slot) == (b.team, b.epoch, b.slot));
    for unit in units {
        let (team, st) = (unit[0].team, &stages[unit[0].stage]);
        // Writes, one per output, precede reads, one per input. A tile
        // chain's row rebases its rank store to a plain array over the
        // row's region.
        let (writes, reads) = unit.split_at(st.outputs.len());
        for w in writes
            .iter()
            .filter(|w| matches!(w.buffer, Buffer::TileScratch(_)))
        {
            let store = windows.get_mut(&key(w)).expect("laid out");
            (store.hull, store.planes) = (w.region, w.region.i.len() as u64);
        }
        let at = |a: &Access| windows[&key(a)];
        let outs: Vec<Window> = writes.iter().map(at).collect();
        let ins = reads.iter().zip(&st.inputs);
        let ins: Vec<_> = ins.map(|(a, (_, p))| (at(a), p.offsets())).collect();
        let mut touch =
            |w: &Window, (i, j, k)| visit(team, w.addr(i, j, k), w.base..w.base + w.bytes);
        let r = writes[0].region;
        for i in r.i.lo..r.i.hi {
            for j in r.j.lo..r.j.hi {
                for k in r.k.lo..r.k.hi {
                    for (w, offsets) in &ins {
                        for o in *offsets {
                            let (ii, jj) = (bc.resolve(d.i, i + o.di), bc.resolve(d.j, j + o.dj));
                            touch(w, (ii, jj, bc.resolve(d.k, k + o.dk)));
                        }
                    }
                    outs.iter().for_each(|w| touch(w, (i, j, k)));
                }
            }
        }
    }
}

/// Replays `schedule`'s [`address_stream`] through one cache of geometry
/// `cache` per team, each starting cold. Returns every team's counters
/// summed, and the compulsory floor: bytes of each distinct line each
/// team touches, once (one bit per line of the layout, per team).
pub fn replay_schedule(schedule: &StepSchedule, cache: CacheConfig) -> (CacheStats, f64) {
    let line_bytes = cache.line_bytes as u64;
    let mut teams: Vec<_> = (0..schedule.team_count())
        .map(|_| (CacheSim::new(cache), Vec::<u64>::new()))
        .collect();
    let (mut stats, mut cold) = (CacheStats::default(), 0);
    address_stream(schedule, |team, addr, _| {
        let (sim, seen) = &mut teams[team];
        stats.hits += u64::from(sim.access(addr));
        stats.accesses += 1;
        let line = addr / line_bytes;
        let (word, bit) = ((line / 64) as usize, 1 << (line % 64));
        if seen.len() <= word {
            seen.resize(word + 1, 0);
        }
        cold += u64::from(seen[word] & bit == 0);
        seen[word] |= bit;
    });
    stats.misses = stats.accesses - stats.hits;
    (stats, (cold * line_bytes) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdata::{MpdataProblem, OriginalExecutor, ScheduleKnobs};
    use std::sync::Arc;
    use stencil_engine::FieldRole;
    use work_scheduler::WorkerPool;

    fn cfg(kb: usize) -> CacheConfig {
        CacheConfig {
            capacity_bytes: kb * 1024,
            ways: 16,
            line_bytes: 64,
        }
    }

    /// The per-stage schedule (original version): every stage sweeps the
    /// whole domain before the next starts.
    fn per_stage(domain: Region3) -> Arc<StepSchedule> {
        OriginalExecutor::new(&WorkerPool::new(1)).schedule_for(domain)
    }

    /// The one-island (3+1)D wavefront at a block budget.
    fn wavefront(domain: Region3, budget: usize) -> StepSchedule {
        let knobs = ScheduleKnobs {
            cache_bytes: budget,
            ..ScheduleKnobs::default()
        };
        StepSchedule::build(&MpdataProblem::standard(), domain, &[domain], &[1], knobs).unwrap()
    }

    #[test]
    fn blocked_schedule_slashes_misses() {
        // Scaled-down domain and cache preserving the ratio
        // working-set : cache of the paper setup.
        let domain = Region3::of_extent(48, 32, 8);
        let cache = cfg(256);
        let per_stage = replay_schedule(&per_stage(domain), cache).0;
        // Size blocks to half the cache — the usual safety margin, and
        // what keeps the block working set clear of conflict evictions.
        let schedule = wavefront(domain, cache.capacity_bytes / 2);
        let blocks = schedule.blocks(0, 0).len();
        assert!(blocks > 2, "need several blocks for a fair test");
        let blocked = replay_schedule(&schedule, cache).0;
        let ratio = per_stage.miss_bytes(64) / blocked.miss_bytes(64);
        assert!(
            ratio > 2.5,
            "blocked schedule must cut miss traffic sharply (got {ratio:.2}: {} vs {} lines);\n             at paper scale (94 array sweeps vs ~7 compulsory) the ratio exceeds 10x",
            per_stage.misses,
            blocked.misses
        );
    }

    #[test]
    fn blocked_misses_approach_compulsory_floor() {
        let domain = Region3::of_extent(48, 32, 8);
        let cache = cfg(512);
        let (blocked, floor) = replay_schedule(&wavefront(domain, cache.capacity_bytes / 2), cache);
        // Externals + output + windows: far below the 23 whole arrays
        // a full-hull layout would have to touch once.
        let whole = replay_schedule(&per_stage(domain), cache).1;
        assert!(
            floor < 0.6 * whole,
            "windows {floor} vs whole arrays {whole}"
        );
        let excess = blocked.miss_bytes(64) / floor;
        assert!(
            excess < 2.0,
            "blocked miss bytes must be within 2× of the compulsory floor (got {excess:.2})"
        );
    }

    #[test]
    fn tiny_cache_defeats_blocking() {
        // With a cache far below one block's working set, even the
        // blocked schedule thrashes — blocking is not magic.
        let domain = Region3::of_extent(32, 32, 8);
        let big = cfg(512);
        let tiny = cfg(8);
        let schedule = wavefront(domain, big.capacity_bytes);
        let with_big = replay_schedule(&schedule, big).0;
        let with_tiny = replay_schedule(&schedule, tiny).0;
        assert!(
            with_tiny.misses > 2 * with_big.misses,
            "tiny {} vs big {}",
            with_tiny.misses,
            with_big.misses
        );
    }

    #[test]
    fn layout_staggers_fields() {
        let domain = Region3::of_extent(8, 8, 8);
        let schedule = per_stage(domain);
        let l = layout(&schedule);
        let fields: Vec<_> = schedule.problem().graph().fields().iter().collect();
        let a0 = l[&((0, 0), Buffer::Shared(fields[0].0))].addr(0, 0, 0);
        let a1 = l[&((0, 0), Buffer::Shared(fields[1].0))].addr(0, 0, 0);
        assert!(a1 - a0 >= (domain.cells() * 8) as u64);
        let mut touches = 0;
        address_stream(&schedule, |_, addr, storage| {
            assert!(storage.contains(&addr), "{addr} outside {storage:?}");
            touches += 1;
        });
        assert!(touches > 0);
    }

    #[test]
    fn windowed_layout_wraps_intermediates_only() {
        let domain = Region3::of_extent(32, 8, 8);
        let schedule = wavefront(domain, 64 * 1024);
        let l = layout(&schedule);
        let g = schedule.problem().graph();
        for (f, _, role) in g.fields().iter() {
            if role == FieldRole::Intermediate {
                let w = l[&((0, 0), Buffer::Scratch(f))];
                let planes = w.planes as i64;
                assert!(0 < planes && planes < 32, "field {f:?} window {planes}");
                // The slot rule of `Array3::windowed`.
                assert_eq!(w.addr(3, 1, 2), w.addr(3 + planes, 1, 2));
                assert_ne!(w.addr(3, 1, 2), w.addr(2 + planes, 1, 2));
            } else {
                let w = l[&((0, 0), Buffer::Shared(f))];
                let all: std::collections::HashSet<u64> =
                    (0..32).map(|i| w.addr(i, 0, 0)).collect();
                assert_eq!(all.len(), 32);
            }
        }
        // Storage never overlaps between fields.
        let mut windows: Vec<_> = l.values().collect();
        windows.sort_by_key(|w| w.base);
        for pair in windows.windows(2) {
            assert!(pair[0].base + pair[0].bytes < pair[1].base);
        }
    }
}
