//! # perf-model
//!
//! Flop and main-memory-traffic accounting plus the performance metrics
//! and table rendering used to regenerate every table and figure of the
//! islands-of-cores paper (sustained Gflop/s, utilization of theoretical
//! peak, parallel efficiency, the S_pr/S_ov speedups, and the §3.2
//! traffic comparison, also measured by [`replay_schedule`]).
//!
//! ## Example
//!
//! ```
//! use perf_model::{sustained_gflops, utilization_percent, Table};
//! use stencil_engine::Region3;
//!
//! let domain = Region3::of_extent(1024, 512, 64);
//! let gf = sustained_gflops(domain, 50, 9.0);
//! let util = utilization_percent(gf, 105.6);
//! let mut t = Table::numbered_columns("Sustained performance", 1);
//! t.push_row("Gflop/s", vec![gf]);
//! assert!(util > 30.0);
//! assert!(t.render().contains("Gflop/s"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache_study;
mod metrics;
mod model;
mod plot;
mod tables;
mod traffic;

pub use cache_study::{address_stream, replay_schedule};
pub use metrics::{
    overall_speedup, parallel_efficiency_percent, partial_speedup, sustained_gflops, useful_flops,
    utilization_percent,
};
pub use model::{predict, relative_error, ModelPrediction};
pub use plot::AsciiPlot;
pub use tables::Table;
pub use traffic::{fused_traffic_blocked, fused_traffic_ideal, original_traffic, TrafficReport};
