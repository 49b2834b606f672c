//! # numa-sim
//!
//! A discrete-event simulator of SMP/NUMA machines, built as the hardware
//! substitute for the SGI UV 2000 server the islands-of-cores paper was
//! evaluated on (see `DESIGN.md` §2 for the substitution argument).
//!
//! The model has three layers:
//!
//! * [`Machine`] — topology: sockets with cores, shared caches and memory
//!   controllers; blade hubs; a NUMAlink-style backplane; shortest-path
//!   routes. [`UvParams::uv2000`] builds the paper's testbed.
//! * [`Placement`] — first-touch memory placement: which node's DRAM
//!   backs which slab of each array (serial vs. parallel initialization
//!   is exactly the paper's Table 1 distinction).
//! * [`simulate`] — the engine: per-core [`Op`] streams contend for
//!   controllers, cache ports and directed links; barriers couple cores.
//!   Local streaming, remote streaming, and latency-bound remote-cache
//!   pulls each behave qualitatively differently, which is what makes
//!   the original / (3+1)D / islands orderings come out of the model.
//!   A stream is pushed op by op, or produced by a [`TeamProgram`] one
//!   chunk at a time while the engine runs.
//!
//! ## Example
//!
//! ```
//! use numa_sim::{
//!     simulate, BarrierId, CoreId, Cursor, NodeId, Op, SimConfig, TeamProgram, TraceSet,
//!     UvParams,
//! };
//!
//! /// Three rounds of 1 Gflop per core, each closed by a team barrier:
//! /// one chunk per round, produced when the engine reaches it.
//! #[derive(Debug)]
//! struct Rounds {
//!     cores: Vec<CoreId>,
//!     barrier: BarrierId,
//! }
//!
//! impl TeamProgram for Rounds {
//!     fn cores(&self) -> &[CoreId] {
//!         &self.cores
//!     }
//!
//!     fn cursor(&self) -> Cursor<'_> {
//!         let mut round = 0;
//!         Box::new(move |streams| {
//!             if round == 3 {
//!                 return false;
//!             }
//!             round += 1;
//!             for stream in streams {
//!                 stream.push(Op::Compute { flops: 1e9 });
//!                 stream.push(Op::Barrier { id: self.barrier });
//!             }
//!             true
//!         })
//!     }
//! }
//!
//! let machine = UvParams::uv2000(2).build();
//! let mut traces = TraceSet::for_cores(machine.core_count());
//! // Core 0 and core 8 (the other socket) run the rounds; then core 8
//! // reads 100 MB of node 0's memory across the blade.
//! let cores = vec![CoreId(0), CoreId(8)];
//! let barrier = traces.add_barrier(cores.clone());
//! traces.add_program(Rounds { cores, barrier });
//! traces.push(CoreId(8), Op::MemRead { node: NodeId(0), bytes: 100e6 });
//! assert_eq!(traces.op_count(), 13);
//! let report = simulate(&machine, &traces, &SimConfig::default())?;
//! assert!(report.makespan > 0.0);
//! assert_eq!(report.barrier_episodes, 3);
//! assert_eq!(report.mem_remote_bytes, 100e6);
//! # Ok::<(), numa_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod engine;
mod memory;
mod presets;
mod report;
mod topology;
mod trace;

pub use cache::{CacheConfig, CacheSim, CacheStats};
pub use engine::{simulate, SimConfig, SimError, SimReport};
pub use memory::Placement;
pub use presets::{xeon_e5_2660v2, ScaleOutParams, UvParams};
pub use report::summarize;
pub use topology::{
    BuildMachineError, CoreId, CoreSpec, LinkId, LinkSpec, Machine, NodeId, NodeSpec,
};
pub use trace::{BarrierId, BarrierSpec, Cursor, Op, TeamProgram, TraceError, TraceSet};
