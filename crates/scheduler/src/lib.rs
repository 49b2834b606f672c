//! # work-scheduler
//!
//! Execution substrate for the islands-of-cores reproduction: a
//! persistent [`WorkerPool`] of threads, grouped into [`TeamSpec`] work
//! teams with private [`SenseBarrier`]s, plus the [`DisjointCell`]
//! primitive that lets team ranks write disjoint regions of shared
//! arrays.
//!
//! The design mirrors the paper's proprietary scheduler: threads are
//! created once (the paper also pins them to cores; here they are
//! ordinary host threads, and NUMA placement lives in `numa-sim`); all
//! work distribution, synchronization, and data placement decisions
//! are made by the library rather than by an OpenMP runtime.
//!
//! ## Example: islands synchronize only at step end
//!
//! ```
//! use work_scheduler::{TeamSpec, WorkerPool};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let pool = WorkerPool::new(4);
//! let teams = TeamSpec::even(4, 2); // two islands of two cores
//! let stages_done = AtomicUsize::new(0);
//! pool.run_teams(&teams, |ctx| {
//!     for _stage in 0..3 {
//!         // ... compute this team's part of the stage ...
//!         ctx.team_barrier(); // intra-island sync only
//!         stages_done.fetch_add(1, Ordering::SeqCst);
//!     }
//! });
//! // run_teams returning is the global once-per-step synchronization.
//! assert_eq!(stages_done.load(Ordering::SeqCst), 4 * 3);
//! ```

#![warn(missing_docs)]
// `unsafe` is confined to three well-documented primitives: the scoped
// lifetime erasure in `WorkerPool::broadcast`, the aliasing contract of
// `DisjointCell`, and the initialized-prefix invariant of `InlineVec`.
#![deny(unsafe_op_in_unsafe_fn)]

mod barrier;
mod dynamic;
mod inline_vec;
#[cfg(feature = "model")]
pub mod modelcheck_suite;
mod pool;
mod share;
mod sync;
mod team;

pub use barrier::{available_cores, spin_budget_for, BarrierScope, SenseBarrier};
pub use dynamic::ChunkQueue;
pub use inline_vec::InlineVec;
pub use pool::{WorkerCtx, WorkerPool};
pub use share::{AccessTracker, DisjointCell};
pub use team::{BuildTeamsError, TeamCtx, TeamSpec};
