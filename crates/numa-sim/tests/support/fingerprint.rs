//! Bit-exact fingerprints of simulator inputs and outputs, shared by
//! `engine_properties.rs` and `crates/core/tests/plan_fingerprints.rs`
//! (`#[path]`-included; a subdirectory of `tests/` is not a test target).
//!
//! A fingerprint folds every field that can influence, or is, a
//! simulated statistic — floats by `to_bits`, so "equal" means the same
//! bits, not the same rounded print. The constants pinned in the tests
//! were computed on the commit before the planner emitter / engine
//! batch-release rewrite: they hold while "same trace, same statistics"
//! holds.

use numa_sim::{NodeId, Op, SimReport, TraceSet};
use stencil_engine::rng::{Rng64, SplitMix64};

/// A fresh running hash ([`SplitMix64::absorb`], the repository's
/// order-sensitive fingerprint primitive).
pub fn hasher() -> SplitMix64 {
    SplitMix64::new(0x1505_1505_1505_1505)
}

fn absorb_floats(h: &mut SplitMix64, xs: &[f64]) {
    h.absorb(xs.len() as u64);
    for x in xs {
        h.absorb(x.to_bits());
    }
}

/// Every op of every core in stream order (discriminant, node, bytes,
/// flops, barrier id) plus the barrier table. Taken over the
/// materialised streams, so a program trace and a pushed replay of it
/// fingerprint alike.
pub fn trace_fingerprint(ts: &TraceSet) -> u64 {
    let mut h = hasher();
    let streams = ts.streams();
    h.absorb(streams.len() as u64);
    for stream in &streams {
        h.absorb(stream.len() as u64);
        for op in stream {
            let (kind, node, bytes, flops) = match *op {
                Op::Compute { flops } => (0, NodeId(0), 0.0, flops),
                Op::MemRead { node, bytes } => (1, node, bytes, 0.0),
                Op::MemWrite { node, bytes } => (2, node, bytes, 0.0),
                Op::CacheRead { node, bytes } => (3, node, bytes, 0.0),
                Op::Stream {
                    node,
                    bytes,
                    flops,
                    write,
                } => (4 + u64::from(write), node, bytes, flops),
                Op::Barrier { id } => (6, NodeId(id.index()), 0.0, 0.0),
            };
            h.absorb(kind)
                .absorb(node.index() as u64)
                .absorb(bytes.to_bits())
                .absorb(flops.to_bits());
        }
    }
    h.absorb(ts.barriers.len() as u64);
    for spec in &ts.barriers {
        h.absorb(spec.participants.len() as u64);
        for p in &spec.participants {
            h.absorb(p.index() as u64);
        }
    }
    h.next_u64()
}

/// Every scalar and every vector element of a report.
pub fn report_fingerprint(r: &SimReport) -> u64 {
    let mut h = hasher();
    h.absorb(r.makespan.to_bits());
    for per_core in [&r.core_compute, &r.core_transfer, &r.core_barrier_wait] {
        absorb_floats(&mut h, per_core);
    }
    for total in [
        r.mem_local_bytes,
        r.mem_remote_bytes,
        r.cache_remote_bytes,
        r.cache_local_bytes,
    ] {
        h.absorb(total.to_bits());
    }
    for per_resource in [&r.link_busy, &r.link_bytes, &r.memctrl_busy] {
        absorb_floats(&mut h, per_resource);
    }
    h.absorb(r.barrier_episodes as u64);
    h.next_u64()
}
