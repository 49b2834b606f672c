//! Work traces: the per-core operation streams the engine executes.
//!
//! Execution planners (in `islands-core`) translate an execution strategy
//! — original, (3+1)D, islands-of-cores — into one [`CoreTrace`] per core
//! plus a set of [`BarrierSpec`]s. The trace granularity is a *work item*
//! (a stage applied to a region chunk, a slab streamed from memory), not
//! individual instructions: coarse enough to simulate 112 cores over a
//! full time step in milliseconds, fine enough that queueing on shared
//! memory controllers and NUMAlink ports reproduces the paper's
//! contention phenomena.

use crate::topology::{CoreId, NodeId};
use std::error::Error;
use std::fmt;

/// Identifier of a barrier within one [`TraceSet`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BarrierId(pub usize);

impl BarrierId {
    /// The index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// One operation of a core's trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// Execute `flops` floating-point operations from cache-resident data.
    Compute {
        /// Number of double-precision operations.
        flops: f64,
    },
    /// Stream `bytes` from the DRAM of `node` into this core's cache.
    MemRead {
        /// Home node of the data.
        node: NodeId,
        /// Bytes transferred.
        bytes: f64,
    },
    /// Stream `bytes` from this core's cache to the DRAM of `node`.
    MemWrite {
        /// Home node of the data.
        node: NodeId,
        /// Bytes transferred.
        bytes: f64,
    },
    /// Pull `bytes` that currently live in the *cache* of another node
    /// (coherence traffic). Far more expensive per byte than streaming
    /// DRAM: demand misses are limited by line-sized round trips.
    CacheRead {
        /// Node whose cache holds the data.
        node: NodeId,
        /// Bytes transferred.
        bytes: f64,
    },
    /// A streaming kernel: move `bytes` between this core and the DRAM
    /// of `node` while executing `flops` arithmetic. Hardware
    /// prefetching overlaps the two, so the core is busy for the
    /// *maximum* of the transfer time and the compute time — while the
    /// transfer still reserves controller and link capacity. This is the
    /// natural model for stencil sweeps, which are max(memory, compute)
    /// bound rather than the sum.
    Stream {
        /// Home node of the data.
        node: NodeId,
        /// Bytes transferred.
        bytes: f64,
        /// Overlapped double-precision operations.
        flops: f64,
        /// `true` when the stream writes to memory (data flows
        /// core → home), `false` for a read stream.
        write: bool,
    },
    /// Synchronize with the other participants of the barrier.
    Barrier {
        /// Which barrier.
        id: BarrierId,
    },
}

/// Participants of a reusable barrier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BarrierSpec {
    /// The cores that must all arrive to release an episode.
    pub participants: Vec<CoreId>,
}

/// A complete simulation input: one op stream per core (cores without
/// work simply have empty streams) and the barrier table.
#[derive(Clone, Debug, Default)]
pub struct TraceSet {
    /// `ops[c]` is the stream of core `c`.
    pub ops: Vec<Vec<Op>>,
    /// Barrier table indexed by [`BarrierId`].
    pub barriers: Vec<BarrierSpec>,
}

/// Error validating a [`TraceSet`] against a machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The trace set has streams for more cores than the machine has.
    TooManyCores {
        /// Streams provided.
        given: usize,
        /// Cores available.
        available: usize,
    },
    /// An op references a node outside the machine.
    BadNode {
        /// Core whose stream is invalid.
        core: CoreId,
        /// Index of the op.
        op: usize,
    },
    /// An op references a barrier outside the table, or a barrier lists a
    /// participant with no stream, or the episode counts of the
    /// participants of one barrier disagree.
    BadBarrier {
        /// The offending barrier.
        id: BarrierId,
    },
    /// A transfer has a negative or non-finite byte count / flop count.
    BadAmount {
        /// Core whose stream is invalid.
        core: CoreId,
        /// Index of the op.
        op: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::TooManyCores { given, available } => {
                write!(
                    f,
                    "trace has {given} core streams but machine has {available} cores"
                )
            }
            TraceError::BadNode { core, op } => write!(f, "{core} op {op} references a bad node"),
            TraceError::BadBarrier { id } => write!(f, "barrier {} is inconsistent", id.0),
            TraceError::BadAmount { core, op } => {
                write!(f, "{core} op {op} has a non-finite or negative amount")
            }
        }
    }
}

impl Error for TraceError {}

impl TraceSet {
    /// Creates an empty trace set for `cores` cores.
    pub fn for_cores(cores: usize) -> Self {
        TraceSet {
            ops: vec![Vec::new(); cores],
            barriers: Vec::new(),
        }
    }

    /// Registers a barrier over `participants` and returns its id.
    pub fn add_barrier(&mut self, participants: Vec<CoreId>) -> BarrierId {
        let id = BarrierId(self.barriers.len());
        self.barriers.push(BarrierSpec { participants });
        id
    }

    /// Appends `op` to the stream of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn push(&mut self, core: CoreId, op: Op) {
        self.ops[core.index()].push(op);
    }

    /// Total ops across all cores.
    pub fn op_count(&self) -> usize {
        self.ops.iter().map(Vec::len).sum()
    }

    /// Validates the trace set against a machine with `node_count` nodes
    /// and `core_count` cores.
    ///
    /// # Errors
    ///
    /// See [`TraceError`].
    pub fn validate(&self, node_count: usize, core_count: usize) -> Result<(), TraceError> {
        if self.ops.len() > core_count {
            return Err(TraceError::TooManyCores {
                given: self.ops.len(),
                available: core_count,
            });
        }
        // One row of `cores` entries per barrier: who belongs to it, and
        // how often each core waits on it. A barrier op is then one table
        // lookup, whatever the size of its team.
        let cores = self.ops.len();
        let mut member = vec![false; self.barriers.len() * cores];
        for (b, spec) in self.barriers.iter().enumerate() {
            for p in spec.participants.iter().filter(|p| p.index() < cores) {
                member[b * cores + p.index()] = true;
            }
        }
        let mut waits = vec![0usize; member.len()];
        for (c, stream) in self.ops.iter().enumerate() {
            let core = CoreId(c);
            for (n, op) in stream.iter().enumerate() {
                match *op {
                    Op::Compute { flops } => {
                        if !flops.is_finite() || flops < 0.0 {
                            return Err(TraceError::BadAmount { core, op: n });
                        }
                    }
                    Op::MemRead { node, bytes }
                    | Op::MemWrite { node, bytes }
                    | Op::CacheRead { node, bytes } => {
                        if node.index() >= node_count {
                            return Err(TraceError::BadNode { core, op: n });
                        }
                        if !bytes.is_finite() || bytes < 0.0 {
                            return Err(TraceError::BadAmount { core, op: n });
                        }
                    }
                    Op::Stream {
                        node, bytes, flops, ..
                    } => {
                        if node.index() >= node_count {
                            return Err(TraceError::BadNode { core, op: n });
                        }
                        if !bytes.is_finite() || bytes < 0.0 || !flops.is_finite() || flops < 0.0 {
                            return Err(TraceError::BadAmount { core, op: n });
                        }
                    }
                    Op::Barrier { id } => {
                        if id.index() >= self.barriers.len() || !member[id.index() * cores + c] {
                            return Err(TraceError::BadBarrier { id });
                        }
                        waits[id.index() * cores + c] += 1;
                    }
                }
            }
        }
        for (b, spec) in self.barriers.iter().enumerate() {
            let id = BarrierId(b);
            // Every participant must have a stream and hit the barrier
            // the same number of times (possibly zero for an unused
            // barrier); only participants may hit it (checked above).
            if spec.participants.iter().any(|p| p.index() >= cores) {
                return Err(TraceError::BadBarrier { id });
            }
            let mut counts = spec
                .participants
                .iter()
                .map(|p| waits[b * cores + p.index()]);
            if let Some(first) = counts.next() {
                if counts.any(|c| c != first) {
                    return Err(TraceError::BadBarrier { id });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_count() {
        let mut t = TraceSet::for_cores(2);
        let b = t.add_barrier(vec![CoreId(0), CoreId(1)]);
        t.push(CoreId(0), Op::Compute { flops: 100.0 });
        t.push(CoreId(0), Op::Barrier { id: b });
        t.push(CoreId(1), Op::Barrier { id: b });
        assert_eq!(t.op_count(), 3);
        t.validate(1, 2).unwrap();
    }

    #[test]
    fn validate_rejects_bad_node() {
        let mut t = TraceSet::for_cores(1);
        t.push(
            CoreId(0),
            Op::MemRead {
                node: NodeId(5),
                bytes: 10.0,
            },
        );
        assert!(matches!(t.validate(2, 1), Err(TraceError::BadNode { .. })));
    }

    #[test]
    fn validate_rejects_negative_amounts() {
        let mut t = TraceSet::for_cores(1);
        t.push(CoreId(0), Op::Compute { flops: -1.0 });
        assert!(matches!(
            t.validate(1, 1),
            Err(TraceError::BadAmount { .. })
        ));
    }

    #[test]
    fn validate_rejects_unbalanced_barrier_episodes() {
        let mut t = TraceSet::for_cores(2);
        let b = t.add_barrier(vec![CoreId(0), CoreId(1)]);
        t.push(CoreId(0), Op::Barrier { id: b });
        t.push(CoreId(0), Op::Barrier { id: b });
        t.push(CoreId(1), Op::Barrier { id: b });
        assert_eq!(t.validate(1, 2), Err(TraceError::BadBarrier { id: b }));
    }

    #[test]
    fn validate_rejects_non_participant_wait() {
        let mut t = TraceSet::for_cores(2);
        let b = t.add_barrier(vec![CoreId(0)]);
        t.push(CoreId(1), Op::Barrier { id: b });
        assert_eq!(t.validate(1, 2), Err(TraceError::BadBarrier { id: b }));
    }

    #[test]
    fn validate_rejects_participant_without_a_stream() {
        let mut t = TraceSet::for_cores(2);
        let ok = t.add_barrier(vec![CoreId(0), CoreId(1)]);
        let b = t.add_barrier(vec![CoreId(1), CoreId(2)]);
        t.push(CoreId(0), Op::Barrier { id: ok });
        t.push(CoreId(1), Op::Barrier { id: ok });
        assert_eq!(t.validate(1, 4), Err(TraceError::BadBarrier { id: b }));
    }

    #[test]
    fn validate_rejects_unknown_barrier() {
        let mut t = TraceSet::for_cores(1);
        t.push(CoreId(0), Op::Barrier { id: BarrierId(3) });
        assert_eq!(
            t.validate(1, 1),
            Err(TraceError::BadBarrier { id: BarrierId(3) })
        );
    }

    #[test]
    fn validate_rejects_too_many_cores() {
        let t = TraceSet::for_cores(9);
        assert!(matches!(
            t.validate(1, 8),
            Err(TraceError::TooManyCores { .. })
        ));
    }
}
