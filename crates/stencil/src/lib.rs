//! # stencil-engine
//!
//! Structural substrate for heterogeneous stencil computations: dense 3-D
//! arrays, index regions, stencil access patterns, stage dependency graphs
//! and the (3+1)D block decomposition used by the islands-of-cores
//! reproduction (Szustak, Wyrzykowski & Jakl, PaCT 2017).
//!
//! The crate deliberately separates the *shape* of a computation (which
//! cells each stage reads and writes — [`StageDef`], [`StageGraph`]) from
//! its *numerics*, which live with the problem (`mpdata`'s stage kernels).
//! The same shape information then drives three different consumers:
//!
//! 1. the real multithreaded executors in the `mpdata` crate,
//! 2. the redundant-computation ("extra elements") analysis behind the
//!    islands-of-cores approach (`islands-core` crate),
//! 3. the work traces fed to the NUMA machine simulator (`numa-sim`).
//!
//! ## Example
//!
//! ```
//! use stencil_engine::{
//!     Array3, BlockPlanner, FieldRole, FieldTable, Region3, StageDef,
//!     StageGraph, StageId, StencilPattern,
//! };
//!
//! // A one-stage graph: out[c] = x[c-1] + x[c+1] along i.
//! let mut fields = FieldTable::new();
//! let x = fields.add("x", FieldRole::External);
//! let out = fields.add("out", FieldRole::Output);
//! let stage = StageDef {
//!     id: StageId(0),
//!     name: "avg".into(),
//!     outputs: vec![out],
//!     inputs: vec![(x, StencilPattern::from_offsets([(-1, 0, 0), (1, 0, 0)]))],
//!     flops_per_cell: 1.0,
//! };
//! let graph = StageGraph::build(fields, vec![stage])?;
//!
//! // Plan cache-sized blocks over a domain.
//! let domain = Region3::of_extent(128, 32, 32);
//! let blocking = BlockPlanner::new(1 << 20).plan(&graph, domain, domain)?;
//! assert!(blocking.total_updates() >= domain.cells());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array3;
mod block;
mod field;
mod graph;
mod pattern;
mod region;
pub mod rng;
mod stage;
mod tile;
pub mod trace;

pub use array3::{Array3, Plane};
pub use block::{
    fused_traffic_bytes, original_traffic_bytes, staged_traffic_bytes, tiled_traffic_bytes,
    BlockPlan, BlockPlanner, Blocking, PlanBlocksError, BYTES_PER_CELL,
};
pub use field::{FieldId, FieldRole, FieldTable};
pub use graph::{BuildGraphError, StageGraph};
pub use pattern::{Offset3, StencilPattern};
pub use region::{Axis, Halo3, Range1, Region3};
pub use stage::{StageDef, StageId};
pub use tile::{choose_tile, tile_grid};
