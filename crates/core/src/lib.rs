//! # islands-core
//!
//! The islands-of-cores approach (Szustak, Wyrzykowski & Jakl,
//! PaCT 2017): NUMA-aware partitioning, redundant-computation analysis
//! and execution planning for heterogeneous stencil computations.
//!
//! The crate owns the paper's contribution proper:
//!
//! * [`Partition`] / [`Variant`] — 1-D island partitions along the
//!   first (A) or second (B) dimension, plus the future-work 2-D grids;
//! * [`extra_elements`] — the exact redundant-update accounting behind
//!   Table 2;
//! * [`IslandLayout`] — affinity-aware mapping of neighbouring parts
//!   onto interconnect-adjacent processors;
//! * [`plan_original`] / [`plan_fused`] / [`plan_islands`] — planners
//!   that lower each execution strategy onto a simulated SMP/NUMA
//!   machine, from which every table and figure of the paper is
//!   regenerated (the *real-thread* executors live in the `mpdata`
//!   crate and are verified bitwise-equivalent).
//!
//! ## Example: the trade-off in one picture
//!
//! ```
//! use islands_core::{
//!     estimate, plan_fused, plan_islands, InitPolicy, Variant, Workload,
//! };
//! use numa_sim::{SimConfig, UvParams};
//! use stencil_engine::Region3;
//!
//! let machine = UvParams::uv2000(8).build();
//! let w = Workload {
//!     domain: Region3::of_extent(128, 64, 16),
//!     steps: 10,
//!     cache_bytes: 512 * 1024,
//! };
//! let cfg = SimConfig::default();
//! let fused = estimate(&machine, &plan_fused(&machine, &w, InitPolicy::ParallelFirstTouch)?, &w, &cfg)?;
//! let islands = estimate(&machine, &plan_islands(&machine, &w, Variant::A)?, &w, &cfg)?;
//! // Communication-avoiding redundant computation wins on 8 sockets.
//! assert!(islands.total_seconds < fused.total_seconds);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mapping;
mod overlap;
mod partition;
mod planner;

pub use mapping::{IslandLayout, IslandSpec};
pub use overlap::{extra_elements, per_island_extra, ExtraElements};
pub use partition::{BuildPartitionError, Partition, Variant};
pub use planner::{
    estimate, plan_fused, plan_islands, plan_islands_exchange, plan_islands_partitioned,
    plan_islands_with_layout, plan_original, InitPolicy, RunEstimate, Workload, GLOBAL_BARRIER,
};
