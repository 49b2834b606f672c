//! # islands-bench
//!
//! The benchmark harness: the [`experiments`] table regenerates every
//! table, figure and ablation of the paper into `results/` (one
//! `experiments` binary, `--check` for the drift gate; see `DESIGN.md`
//! §5 for the experiment index), plus the std-only microbench harness
//! behind `benches/kernels.rs` (see [`microbench`]) and the artifact
//! validator `bench-check`.
//!
//! This library holds what the experiment rows share: the paper's
//! published numbers (for side-by-side printing) and [`measure`], which
//! plans and simulates each strategy on the UV 2000 model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use islands_trace::json;

pub mod experiments;
pub mod microbench;

use islands_core::{
    estimate, plan_fused, plan_islands, plan_original, InitPolicy, Variant, Workload,
};
use numa_sim::{Machine, SimConfig, TraceSet, UvParams};

/// The processor counts of the paper's sweeps.
pub const CPU_COUNTS: [usize; 14] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14];

/// Paper Table 1 row "Original" (serial first touch), seconds.
pub const PAPER_T1_ORIGINAL_SERIAL: [f64; 14] = [
    30.4, 44.5, 58.2, 61.5, 64.3, 70.1, 71.6, 73.7, 75.4, 77.6, 78.4, 78.2, 80.6, 82.2,
];

/// Paper Table 1/3 row "Original" (parallel first touch), seconds.
#[allow(clippy::approx_constant)] // the measured 3.14 s is not π
pub const PAPER_ORIGINAL: [f64; 14] = [
    30.40, 15.40, 10.50, 7.87, 6.55, 5.61, 4.95, 4.27, 4.01, 3.58, 3.31, 3.14, 2.95, 2.81,
];

/// Paper Table 1/3 row "(3+1)D", seconds.
pub const PAPER_FUSED: [f64; 14] = [
    9.00, 8.20, 7.38, 7.98, 7.06, 7.22, 7.26, 7.69, 9.11, 9.48, 10.20, 10.10, 10.30, 10.40,
];

/// Paper Table 3 row "Islands of cores", seconds.
pub const PAPER_ISLANDS: [f64; 14] = [
    9.00, 5.62, 4.17, 2.93, 2.34, 1.97, 1.72, 1.49, 1.36, 1.25, 1.12, 1.06, 1.05, 1.01,
];

/// Paper Table 2 row "Variant A", percent extra elements.
pub const PAPER_EXTRA_A: [f64; 14] = [
    0.00, 0.25, 0.49, 0.74, 0.99, 1.24, 1.48, 1.73, 1.98, 2.22, 2.47, 2.72, 2.96, 3.21,
];

/// Paper Table 2 row "Variant B", percent extra elements.
pub const PAPER_EXTRA_B: [f64; 14] = [
    0.00, 0.49, 0.99, 1.48, 1.98, 2.47, 2.96, 3.46, 3.95, 4.45, 4.94, 5.43, 5.93, 6.42,
];

/// Paper Table 4 row "Sustained performance" (Gflop/s); note the paper
/// omits the P = 13 column.
pub const PAPER_SUSTAINED: [f64; 13] = [
    42.7, 68.5, 92.5, 131.9, 165.5, 197.0, 226.1, 261.4, 287.0, 325.9, 349.8, 370.3, 390.1,
];

/// Measured times of the three strategies at one processor count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StrategyTimes {
    /// Processor (socket) count.
    pub p: usize,
    /// Original version, serial first touch.
    pub original_serial: f64,
    /// Original version, parallel first touch.
    pub original: f64,
    /// Pure (3+1)D decomposition.
    pub fused: f64,
    /// Islands-of-cores, variant A.
    pub islands: f64,
}

/// Simulates `traces` on `machine` under the default [`SimConfig`] and
/// returns the run's seconds over `w.steps`.
///
/// # Panics
///
/// Panics if the simulation fails — a programming error for the
/// planners' traces.
pub(crate) fn seconds(machine: &Machine, traces: &TraceSet, w: &Workload) -> f64 {
    estimate(machine, traces, w, &SimConfig::default())
        .expect("plan simulates")
        .total_seconds
}

/// Runs all four strategies for `p` sockets of the UV 2000 on the given
/// workload.
///
/// # Panics
///
/// Panics if planning or simulation fails — these are programming
/// errors for the paper workload.
pub fn measure(p: usize, w: &Workload) -> StrategyTimes {
    let machine = UvParams::uv2000(p).build();
    let original = |init| seconds(&machine, &plan_original(&machine, w, init), w);
    let fused = plan_fused(&machine, w, InitPolicy::ParallelFirstTouch).expect("fused plans");
    let islands = plan_islands(&machine, w, Variant::A).expect("islands plans");
    StrategyTimes {
        p,
        original_serial: original(InitPolicy::SerialFirstTouch),
        original: original(InitPolicy::ParallelFirstTouch),
        fused: seconds(&machine, &fused, w),
        islands: seconds(&machine, &islands, w),
    }
}

/// Runs [`measure`] for every processor count in `ps`.
pub fn measure_sweep(ps: &[usize], w: &Workload) -> Vec<StrategyTimes> {
    ps.iter().map(|&p| measure(p, w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_engine::Region3;

    #[test]
    fn measure_small_config_orders_strategies() {
        // A reduced workload keeps the unit test fast; orderings at
        // P = 4 must already match the paper: islands < original <
        // fused, and serial-init original worst.
        let w = Workload {
            domain: Region3::of_extent(128, 64, 16),
            steps: 5,
            cache_bytes: 1 << 20,
        };
        let t = measure(4, &w);
        assert!(t.islands < t.original, "{t:?}");
        assert!(t.original < t.original_serial, "{t:?}");
        assert!(t.islands < t.fused, "{t:?}");
    }

    #[test]
    fn paper_constants_are_consistent() {
        // S_pr at P=14 from the published rows ≈ 10.3.
        let spr = PAPER_FUSED[13] / PAPER_ISLANDS[13];
        assert!((10.2..10.4).contains(&spr));
        // Variant B ≈ 2 × variant A.
        for p in 1..14 {
            let ratio = PAPER_EXTRA_B[p] / PAPER_EXTRA_A[p];
            assert!((1.9..2.1).contains(&ratio), "p={p}: {ratio}");
        }
    }
}
