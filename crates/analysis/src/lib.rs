//! # islands-analysis
//!
//! Machine-checked access contracts for the islands-of-cores
//! reproduction. The stage graph's declared [`StencilPattern`]s are
//! what three subsystems trust — the backward requirement analysis, the
//! block planner and the overlap accounting. MPDATA writes them once,
//! as its kernels' taps (`mpdata`'s graph derives each input's pattern
//! from them), so this crate *proves* the two assumptions left,
//! instead of asserting them by convention:
//!
//! 1. **Pattern conformance** ([`check_problem`] / [`check_graph`]):
//!    the traversal every kernel runs reads exactly the offsets its
//!    stage declares — its taps — and writes exactly the requested
//!    cells of its declared outputs, observed through the debug-only
//!    access recorder of [`stencil_engine::trace`]; a mutated
//!    declaration ([`with_offset_removed`]) is caught.
//! 2. **Plan-time disjointness** ([`lower`] / [`check_disjointness`]):
//!    for the very [`mpdata::StepSchedule`] an executor replays — any
//!    partition, team shape and knob combination, and the
//!    stage-synchronous baselines — no slot's write region intersects
//!    another slot's read-or-write region of the same field within a
//!    synchronization epoch, and all reads of produced fields are
//!    covered by earlier writes behind a fence.
//!
//! The workspace root's tests run both passes: `tests/stencil_contract.rs`
//! proves every real stage graph conformant, `tests/plan_is_proved.rs`
//! proves its lattice of executor schedules disjoint at a pinned count,
//! and `tests/prover_mutants.rs` proves both passes *would* catch seeded
//! declaration and schedule bugs, each by its diagnostic code.
//!
//! [`StencilPattern`]: stencil_engine::StencilPattern

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conformance;
mod diag;
mod disjoint;

pub use conformance::{
    check_graph, check_problem, with_offset_removed, ConformanceReport, KernelPath,
    TraceUnavailable,
};
pub use diag::{Diagnostic, DiagnosticCode};
pub use disjoint::{
    check_disjointness, islands_plan, islands_plan_tiled, lower, Epoch, PlannedAccess,
    SchedulePlan, TeamPlan,
};
