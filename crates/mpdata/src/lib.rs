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
//! test suite). Every parallel one replays a [`StepSchedule`] — one
//! derivation, proved by `islands-analysis` — in one of two shapes:
//!
//! * [`ReferenceExecutor`] — serial, full-size intermediates.
//! * [`OriginalExecutor`] — the paper's "Original": one team of every
//!   worker sweeps each stage over the whole domain, intermediates in
//!   main memory, a global barrier between stages (the
//!   stage-synchronous shape).
//! * [`IslandsExecutor`] — the contribution: one island (work team) per
//!   processor, each running the (3+1)D decomposition (cache-sized
//!   blocks, all 17 stages fused per block) on its part and
//!   *recomputing* halo elements instead of communicating within a time
//!   step. [`IslandsExecutor::single_island`] is the pure (3+1)D
//!   strategy: one island spanning every core.
//! * [`ExchangeExecutor`] — the ablation: islands that exchange halos
//!   between stages instead of recomputing them (the stage-synchronous
//!   shape with one team per island, halos read in place from shared
//!   full-domain intermediates).
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
mod exec;
mod fields;
mod graph;
mod islands;
mod kernels;
mod kernels_fast;
mod plan;
mod reference;

pub use diagnostics::{error_norms, CflViolation, ErrorNorms};
pub use fields::{gaussian_pulse, random_fields, rotating_cone, MpdataFields, EPS};
pub use graph::{
    flops_per_cell, mpdata_graph, ExternalIds, MpdataProblem, StageKind, STAGE_COUNT,
    STANDARD_KINDS,
};
pub use islands::{ExchangeExecutor, IslandsExecutor, OriginalExecutor};
pub use kernels::{apply_kind, apply_kind_scalar, apply_stage, Boundary};
pub use kernels_fast::kernel_isa;
pub use plan::{
    Access, Buffer, ScheduleKnobs, SchedulePolicy, ScratchWindow, StepSchedule, Storage, TileMode,
    DEFAULT_CACHE_BYTES,
};
pub use reference::ReferenceExecutor;
