//! Debug-only access tracing for [`crate::Array3`].
//!
//! The conformance pass of the `islands-analysis` crate needs to know
//! *exactly* which cells a kernel reads and writes, so it can diff the
//! observed access set against the [`crate::StencilPattern`]s a stage
//! declares. Rather than interposing a wrapper type (impossible for the
//! concrete `Array3` methods the row kernels monomorphize against), the
//! accessors [`crate::Array3::get`], [`crate::Array3::set`],
//! [`crate::Plane::run`] and [`crate::Array3::run_mut`] (and the one-row
//! form built on them, `row`) call into this module. A
//! run is logged as the `k`-window it stands for in each of its rows,
//! not as the slice it borrows.
//!
//! The hooks are compiled only under `debug_assertions` and are further
//! gated at runtime behind a single relaxed atomic load, so release
//! builds pay nothing and debug builds pay one predictable branch per
//! access unless a recording is active *somewhere*. Recording itself is
//! thread-local: accesses performed by other threads while one thread
//! records are not attributed to that thread's log.
//!
//! ```
//! use stencil_engine::{trace, Array3, Region3};
//! let a = Array3::zeros(Region3::of_extent(2, 2, 2));
//! let (v, log) = trace::record(|| a.get(1, 0, 1));
//! assert_eq!(v, 0.0);
//! if trace::is_enabled() {
//!     assert_eq!(log.reads, vec![(trace::array_key(&a), 1, 0, 1)]);
//! }
//! ```

use crate::array3::Array3;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Identity of a traced array: the address of its heap storage. Stable
/// for the lifetime of the array (moving an [`Array3`] does not move its
/// data), and unique among simultaneously live arrays.
pub type ArrayKey = usize;

/// The key under which accesses to `a` are logged.
pub fn array_key(a: &Array3) -> ArrayKey {
    a.as_slice().as_ptr() as ArrayKey
}

/// Every cell access performed during one [`record`] call, in program
/// order. Coordinates are global `(i, j, k)` indices; row accesses are
/// expanded to one entry per cell.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessLog {
    /// `(array, i, j, k)` of every cell read.
    pub reads: Vec<(ArrayKey, i64, i64, i64)>,
    /// `(array, i, j, k)` of every cell written.
    pub writes: Vec<(ArrayKey, i64, i64, i64)>,
}

/// Number of threads currently inside [`record`] — the cheap global gate
/// the per-access hooks check before touching thread-local state.
static ACTIVE_RECORDERS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static LOG: RefCell<Option<AccessLog>> = const { RefCell::new(None) };
}

/// Whether this build can trace accesses. Recording is compiled out of
/// release builds: [`record`] still runs its closure there but returns
/// an empty [`AccessLog`]. Callers that *depend* on the log (the
/// conformance linter) must refuse to run when this returns `false`.
pub fn is_enabled() -> bool {
    cfg!(debug_assertions)
}

/// Runs `f` with access recording active on this thread and returns its
/// result together with the accesses it performed.
///
/// # Panics
///
/// Panics when called re-entrantly from within an active recording on
/// the same thread (nested logs would silently mis-attribute accesses).
pub fn record<R>(f: impl FnOnce() -> R) -> (R, AccessLog) {
    if !is_enabled() {
        return (f(), AccessLog::default());
    }
    LOG.with(|slot| {
        let mut s = slot.borrow_mut();
        assert!(s.is_none(), "trace::record does not nest");
        *s = Some(AccessLog::default());
    });
    // ordering: SeqCst — one bump per recorded closure (never a hot
    // path); SC keeps the recorder count trivially coherent with the
    // paired release in `Reset` below.
    ACTIVE_RECORDERS.fetch_add(1, Ordering::SeqCst);
    // Restore the gate and slot even if `f` panics, so a caught panic
    // (e.g. a #[should_panic] test) cannot poison later recordings.
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            // ordering: SeqCst — release half of the recorder gate.
            ACTIVE_RECORDERS.fetch_sub(1, Ordering::SeqCst);
            LOG.with(|slot| *slot.borrow_mut() = None);
        }
    }
    let reset = Reset;
    let out = f();
    let log = LOG.with(|slot| slot.borrow_mut().take().expect("recording active"));
    // `Reset` would clear an already-taken slot; keep its gate release.
    drop(reset);
    (out, log)
}

#[cfg(debug_assertions)]
#[inline(always)]
fn recording() -> bool {
    // ordering: Relaxed — a fast-path hint: the access hooks only need
    // to know whether *this* thread is recording, which the thread-
    // local LOG answers authoritatively right after.
    ACTIVE_RECORDERS.load(Ordering::Relaxed) > 0
}

/// Hook: one cell of `key` was read.
#[cfg(debug_assertions)]
#[inline(always)]
pub(crate) fn on_read(key: ArrayKey, i: i64, j: i64, k: i64) {
    if recording() {
        LOG.with(|slot| {
            if let Some(log) = slot.borrow_mut().as_mut() {
                log.reads.push((key, i, j, k));
            }
        });
    }
}

/// Hook: one cell of `key` was written.
#[cfg(debug_assertions)]
#[inline(always)]
pub(crate) fn on_write(key: ArrayKey, i: i64, j: i64, k: i64) {
    if recording() {
        LOG.with(|slot| {
            if let Some(log) = slot.borrow_mut().as_mut() {
                log.writes.push((key, i, j, k));
            }
        });
    }
}

/// Hook: the row `(i, j, kr)` of `key` was borrowed for reading.
#[cfg(debug_assertions)]
#[inline(always)]
pub(crate) fn on_read_row(key: ArrayKey, i: i64, j: i64, kr: crate::region::Range1) {
    if recording() {
        LOG.with(|slot| {
            if let Some(log) = slot.borrow_mut().as_mut() {
                for k in kr.lo..kr.hi {
                    log.reads.push((key, i, j, k));
                }
            }
        });
    }
}

/// Hook: the row `(i, j, kr)` of `key` was borrowed for writing.
#[cfg(debug_assertions)]
#[inline(always)]
pub(crate) fn on_write_row(key: ArrayKey, i: i64, j: i64, kr: crate::region::Range1) {
    if recording() {
        LOG.with(|slot| {
            if let Some(log) = slot.borrow_mut().as_mut() {
                for k in kr.lo..kr.hi {
                    log.writes.push((key, i, j, k));
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{Range1, Region3};

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "needs the debug-only access recorder")]
    fn record_captures_get_and_set() {
        let mut a = Array3::zeros(Region3::of_extent(3, 3, 3));
        let key = array_key(&a);
        let (_, log) = record(|| {
            let v = a.get(1, 2, 0);
            a.set(0, 0, 2, v + 1.0);
        });
        assert_eq!(log.reads, vec![(key, 1, 2, 0)]);
        assert_eq!(log.writes, vec![(key, 0, 0, 2)]);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "needs the debug-only access recorder")]
    fn record_expands_rows_per_cell() {
        let mut a = Array3::zeros(Region3::of_extent(2, 2, 4));
        let key = array_key(&a);
        let (_, log) = record(|| {
            let _ = a.row(1, 0, Range1::new(1, 4));
            let _ = a.run_mut(0, 1, 0, 2);
        });
        assert_eq!(
            log.reads,
            vec![(key, 1, 0, 1), (key, 1, 0, 2), (key, 1, 0, 3)]
        );
        assert_eq!(log.writes, vec![(key, 0, 1, 0), (key, 0, 1, 1)]);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "needs the debug-only access recorder")]
    fn record_expands_runs_per_row_window() {
        let r = Region3::new(Range1::new(0, 2), Range1::new(3, 7), Range1::new(-1, 3));
        let mut a = Array3::zeros(r);
        let key = array_key(&a);
        // Three rows of window [0, 2): 2 * 4 + 2 cells from (.., 0).
        let (_, log) = record(|| {
            assert_eq!(a.plane(1).run(4, 0, 10).len(), 10);
            assert_eq!(a.run_mut(0, 3, 0, 10).len(), 10);
        });
        let cells = |i, j0: i64| {
            let rows = (j0..j0 + 3).flat_map(|j| [(key, i, j, 0), (key, i, j, 1)]);
            rows.collect::<Vec<_>>()
        };
        assert_eq!(log.reads, cells(1, 4));
        assert_eq!(log.writes, cells(0, 3));
    }

    #[test]
    fn accesses_outside_record_are_not_logged() {
        let a = Array3::zeros(Region3::of_extent(2, 2, 2));
        let _ = a.get(0, 0, 0); // not recording: must not panic or log
        let (_, log) = record(|| ());
        assert!(log.reads.is_empty() && log.writes.is_empty());
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "needs the debug-only access recorder")]
    fn keys_distinguish_arrays() {
        let a = Array3::zeros(Region3::of_extent(2, 2, 2));
        let b = Array3::zeros(Region3::of_extent(2, 2, 2));
        assert_ne!(array_key(&a), array_key(&b));
        let (_, log) = record(|| {
            let _ = a.get(0, 0, 0);
            let _ = b.get(1, 1, 1);
        });
        assert_eq!(log.reads[0].0, array_key(&a));
        assert_eq!(log.reads[1].0, array_key(&b));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not nest")]
    fn nested_recording_panics() {
        let _ = record(|| record(|| ()));
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "needs the debug-only access recorder")]
    fn recording_recovers_after_inner_panic() {
        let caught = std::panic::catch_unwind(|| record(|| panic!("boom")));
        assert!(caught.is_err());
        // The gate and slot must be reset: a fresh recording works.
        let a = Array3::zeros(Region3::of_extent(1, 1, 1));
        let (_, log) = record(|| a.get(0, 0, 0));
        assert_eq!(log.reads.len(), 1);
    }
}
