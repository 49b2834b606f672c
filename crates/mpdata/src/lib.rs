//! # mpdata
//!
//! A full 3-D implementation of the Multidimensional Positive Definite
//! Advection Transport Algorithm (MPDATA) — donor-cell first pass plus
//! one antidiffusive corrective iteration with the non-oscillatory
//! option — decomposed into the 17 heterogeneous stencil stages studied
//! by the islands-of-cores paper (Szustak, Wyrzykowski & Jakl,
//! PaCT 2017).
//!
//! Four executors share the same kernels and the same declared stage
//! graph, so their results are **bitwise identical** (asserted by the
//! test suite):
//!
//! * [`ReferenceExecutor`] — serial, full-size intermediates.
//! * [`OriginalExecutor`] — the paper's "Original": per-stage parallel
//!   sweeps with intermediates in main memory.
//! * [`IslandsExecutor`] — the contribution: one island (work team) per
//!   processor, each running the (3+1)D decomposition (cache-sized
//!   blocks, all 17 stages fused per block) on its part and
//!   *recomputing* halo elements instead of communicating within a time
//!   step. [`IslandsExecutor::single_island`] is the pure (3+1)D
//!   strategy: one island spanning every core.
//! * [`ExchangeExecutor`] — the ablation: islands that exchange halos
//!   between stages instead of recomputing them.
//!
//! ## Quickstart
//!
//! ```
//! use mpdata::{gaussian_pulse, ReferenceExecutor};
//! use stencil_engine::Region3;
//!
//! let domain = Region3::of_extent(32, 16, 8);
//! let mut fields = gaussian_pulse(domain, (0.3, 0.0, 0.0));
//! fields.close_boundaries();
//! ReferenceExecutor::new().run(&mut fields, 10);
//! assert!(fields.x.min() >= 0.0); // positive definite
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod diagnostics;
mod exchange;
mod exec;
mod fields;
mod graph;
mod islands;
mod kernels;
mod kernels_fast;
mod original;
mod plan;
mod reference;

pub use diagnostics::{error_norms, CflViolation, ErrorNorms};
pub use exchange::ExchangeExecutor;
pub use fields::{gaussian_pulse, random_fields, rotating_cone, MpdataFields, EPS};
pub use graph::{
    flops_per_cell, mpdata_graph, ExternalIds, MpdataFieldIds, MpdataProblem, StageKind,
    STAGE_COUNT, STAGE_FLOPS, STANDARD_KINDS,
};
pub use islands::IslandsExecutor;
pub use kernels::{apply_kind, apply_kind_scalar, apply_stage, Boundary};
pub use original::OriginalExecutor;
pub use plan::{
    Access, Buffer, ScheduleKnobs, SchedulePolicy, ScratchWindow, StepSchedule, TileMode,
    DEFAULT_CACHE_BYTES,
};
pub use reference::ReferenceExecutor;
