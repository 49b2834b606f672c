//! Work traces: the per-core operation streams the engine executes.
//!
//! Execution planners (in `islands-core`) translate an execution strategy
//! — original, (3+1)D, islands-of-cores — into a [`TraceSet`]: one op
//! stream per core plus a table of [`BarrierSpec`]s. A stream is pushed
//! op by op ([`TraceSet::push`]), or begins with the ops of a
//! [`TeamProgram`] that the engine expands one chunk at a time while it
//! runs, followed by whatever was pushed. The trace granularity is a
//! *work item* (a stage applied to a region chunk, a slab streamed from
//! memory), not individual instructions: coarse enough to simulate 112
//! cores over a full time step in milliseconds, fine enough that queueing
//! on shared memory controllers and NUMAlink ports reproduces the paper's
//! contention phenomena.

use crate::topology::{CoreId, NodeId};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

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

/// One expansion of a [`TeamProgram`]: each call appends the next chunk
/// — `streams[rank]` receives the ops of the team's `rank`-th core — and
/// returns `true`, or returns `false` once the program is exhausted.
pub type Cursor<'a> = Box<dyn FnMut(&mut [Vec<Op>]) -> bool + 'a>;

/// A team's share of a trace as a program rather than as stored ops.
///
/// The engine asks for a chunk when one of the team's cores has run out
/// of ops, so a chunk that ends every rank's ops at a barrier of the
/// whole team is never requested before all ranks have finished the
/// previous one, and the team's queued ops never exceed about two
/// chunks. Every [`Self::cursor`] must start over and produce the same
/// ops: a trace set is simulated, counted and materialised through
/// cursors of its own.
pub trait TeamProgram: fmt::Debug + Send + Sync {
    /// The team's cores in rank order.
    fn cores(&self) -> &[CoreId];

    /// A fresh expansion from the first chunk; any scratch the expansion
    /// needs belongs to the cursor.
    fn cursor(&self) -> Cursor<'_>;
}

/// A complete simulation input: one op stream per core (cores without
/// work simply have empty streams) and the barrier table.
///
/// A core's stream is the ops of its team program, if it has one, then
/// the ops pushed to it.
#[derive(Clone, Debug, Default)]
pub struct TraceSet {
    /// `ops[c]` holds the ops pushed to core `c`.
    pub(crate) ops: Vec<Vec<Op>>,
    /// Team programs, each core in at most one.
    pub(crate) programs: Vec<Arc<dyn TeamProgram>>,
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
    /// An op references a barrier outside the table or one its core does
    /// not participate in, or a barrier lists a participant with no
    /// stream or lists one twice, or the episode counts of the
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

/// The per-op checks, with what they check against tabulated once: one
/// row of `cores` entries per barrier saying who belongs to it, so a
/// barrier op is one lookup whatever the size of its team.
#[derive(Clone, Debug)]
pub(crate) struct OpCheck {
    nodes: usize,
    cores: usize,
    barriers: usize,
    member: Vec<bool>,
}

impl OpCheck {
    /// Whether `core` may run `op`.
    #[inline]
    fn accepts(&self, core: usize, op: Op) -> bool {
        let amount = |x: f64| (0.0..f64::INFINITY).contains(&x);
        let node = |node: NodeId| node.index() < self.nodes;
        match op {
            Op::Compute { flops } => amount(flops),
            Op::MemRead { node: n, bytes }
            | Op::MemWrite { node: n, bytes }
            | Op::CacheRead { node: n, bytes } => node(n) && amount(bytes),
            Op::Stream {
                node: n,
                bytes,
                flops,
                ..
            } => node(n) && amount(bytes) && amount(flops),
            Op::Barrier { id } => {
                id.index() < self.barriers && self.member[id.index() * self.cores + core]
            }
        }
    }

    /// Checks `op`, the `n`-th op of the stream of `core`.
    pub(crate) fn check(&self, core: usize, n: usize, op: Op) -> Result<(), TraceError> {
        if self.accepts(core, op) {
            return Ok(());
        }
        let core = CoreId(core);
        Err(match op {
            Op::Barrier { id } => TraceError::BadBarrier { id },
            Op::MemRead { node, .. }
            | Op::MemWrite { node, .. }
            | Op::CacheRead { node, .. }
            | Op::Stream { node, .. }
                if node.index() >= self.nodes =>
            {
                TraceError::BadNode { core, op: n }
            }
            _ => TraceError::BadAmount { core, op: n },
        })
    }

    /// Checks `ops`, which start at index `first` of the stream of
    /// `core`.
    pub(crate) fn check_all(
        &self,
        core: usize,
        first: usize,
        ops: &[Op],
    ) -> Result<(), TraceError> {
        match ops.iter().position(|&op| !self.accepts(core, op)) {
            Some(n) => self.check(core, first + n, ops[n]),
            None => Ok(()),
        }
    }
}

impl TraceSet {
    /// Creates an empty trace set for `cores` cores.
    pub fn for_cores(cores: usize) -> Self {
        TraceSet {
            ops: vec![Vec::new(); cores],
            programs: Vec::new(),
            barriers: Vec::new(),
        }
    }

    /// Registers a barrier over `participants` and returns its id.
    pub fn add_barrier(&mut self, participants: Vec<CoreId>) -> BarrierId {
        let id = BarrierId(self.barriers.len());
        self.barriers.push(BarrierSpec { participants });
        id
    }

    /// Appends `op` to the stream of `core`, after its team program's ops
    /// if it has one.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn push(&mut self, core: CoreId, op: Op) {
        self.ops[core.index()].push(op);
    }

    /// Adds a team program: the streams of its cores begin with its ops.
    ///
    /// # Panics
    ///
    /// Panics if one of its cores is out of range, listed twice, or
    /// already in another program.
    pub fn add_program(&mut self, program: impl TeamProgram + 'static) {
        let mut taken = vec![false; self.ops.len()];
        let existing = self.programs.iter().flat_map(|p| p.cores());
        for core in existing.chain(program.cores()) {
            assert!(
                core.index() < taken.len(),
                "{core} is outside the trace set"
            );
            assert!(
                !std::mem::replace(&mut taken[core.index()], true),
                "{core} is in two team programs"
            );
        }
        self.programs.push(Arc::new(program));
    }

    /// Runs a fresh cursor over every program to its end, handing each
    /// chunk's ops to `visit` core by core; nothing is kept.
    fn expand(&self, mut visit: impl FnMut(CoreId, &[Op])) {
        for program in &self.programs {
            let cores = program.cores();
            let mut chunk = vec![Vec::new(); cores.len()];
            let mut next = program.cursor();
            loop {
                let more = next(&mut chunk);
                for (&core, ops) in cores.iter().zip(&mut chunk) {
                    visit(core, ops);
                    ops.clear();
                }
                if !more {
                    break;
                }
            }
        }
    }

    /// Total ops across all cores (program ops are counted as they are
    /// produced, not stored).
    pub fn op_count(&self) -> usize {
        let mut count = self.ops.iter().map(Vec::len).sum();
        self.expand(|_, ops| count += ops.len());
        count
    }

    /// Every core's whole stream, materialised: what the engine runs.
    pub fn streams(&self) -> Vec<Vec<Op>> {
        let mut streams = vec![Vec::new(); self.ops.len()];
        self.expand(|core, ops| streams[core.index()].extend_from_slice(ops));
        for (stream, pushed) in streams.iter_mut().zip(&self.ops) {
            stream.extend_from_slice(pushed);
        }
        streams
    }

    /// Validates the trace set against a machine with `node_count` nodes
    /// and `core_count` cores.
    ///
    /// Without team programs every check runs here. With programs the
    /// barrier table is checked here, and every op as it enters a core's
    /// stream while the engine runs; an unbalanced barrier then ends the
    /// run as a deadlock.
    ///
    /// # Errors
    ///
    /// See [`TraceError`].
    pub fn validate(&self, node_count: usize, core_count: usize) -> Result<(), TraceError> {
        self.checker(node_count, core_count).map(drop)
    }

    /// [`Self::validate`], returning the per-op checks for the ops still
    /// to come.
    pub(crate) fn checker(
        &self,
        node_count: usize,
        core_count: usize,
    ) -> Result<OpCheck, TraceError> {
        if self.ops.len() > core_count {
            return Err(TraceError::TooManyCores {
                given: self.ops.len(),
                available: core_count,
            });
        }
        let cores = self.ops.len();
        let mut member = vec![false; self.barriers.len() * cores];
        // Per barrier: does it list a participant with no stream, or one
        // twice?
        let mut bad = vec![false; self.barriers.len()];
        for (b, spec) in self.barriers.iter().enumerate() {
            for p in &spec.participants {
                match member.get_mut(b * cores + p.index()) {
                    Some(slot) if p.index() < cores && !*slot => *slot = true,
                    _ => bad[b] = true,
                }
            }
        }
        let check = OpCheck {
            nodes: node_count,
            cores,
            barriers: self.barriers.len(),
            member,
        };
        let first_bad = || bad.iter().position(|&b| b).map(BarrierId);
        if !self.programs.is_empty() {
            return match first_bad() {
                Some(id) => Err(TraceError::BadBarrier { id }),
                None => Ok(check),
            };
        }
        let mut waits = vec![0usize; check.member.len()];
        for (c, stream) in self.ops.iter().enumerate() {
            for (n, &op) in stream.iter().enumerate() {
                check.check(c, n, op)?;
                if let Op::Barrier { id } = op {
                    waits[id.index() * cores + c] += 1;
                }
            }
        }
        for (b, spec) in self.barriers.iter().enumerate() {
            let id = BarrierId(b);
            // Every participant must have a stream, be listed once and
            // hit the barrier the same number of times (possibly zero for
            // an unused barrier); only participants may hit it (checked
            // above).
            if bad[b] {
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
        Ok(check)
    }
}

/// A team program read from a script, chunk by chunk, for tests.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct Scripted {
    pub(crate) cores: Vec<CoreId>,
    /// `chunks[n][rank]`: the ops of `rank` in chunk `n`.
    pub(crate) chunks: Vec<Vec<Vec<Op>>>,
}

#[cfg(test)]
impl TeamProgram for Scripted {
    fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    fn cursor(&self) -> Cursor<'_> {
        let mut chunks = self.chunks.iter();
        Box::new(move |streams| {
            let Some(chunk) = chunks.next() else {
                return false;
            };
            for (stream, ops) in streams.iter_mut().zip(chunk) {
                stream.extend_from_slice(ops);
            }
            true
        })
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
    fn program_ops_come_first_and_are_counted_without_storing() {
        let mut t = TraceSet::for_cores(3);
        let b = t.add_barrier(vec![CoreId(2), CoreId(0)]);
        let work = Op::Compute { flops: 1.0 };
        let sync = Op::Barrier { id: b };
        t.push(CoreId(0), work);
        t.add_program(Scripted {
            cores: vec![CoreId(2), CoreId(0)],
            chunks: vec![vec![vec![work, sync], vec![sync]]; 2],
        });
        assert_eq!(t.op_count(), 7);
        assert_eq!(
            t.streams(),
            vec![vec![sync, sync, work], vec![], vec![work, sync, work, sync]]
        );
        // Counting and materialising start fresh cursors every time.
        assert_eq!(t.op_count(), 7);
        t.validate(1, 3).unwrap();
    }

    #[test]
    #[should_panic(expected = "in two team programs")]
    fn a_core_belongs_to_one_program() {
        let mut t = TraceSet::for_cores(2);
        let team = |cores: Vec<CoreId>| Scripted {
            cores,
            chunks: Vec::new(),
        };
        t.add_program(team(vec![CoreId(0), CoreId(1)]));
        t.add_program(team(vec![CoreId(1)]));
    }

    #[test]
    #[should_panic(expected = "outside the trace set")]
    fn program_cores_must_have_streams() {
        TraceSet::for_cores(2).add_program(Scripted {
            cores: vec![CoreId(2)],
            chunks: Vec::new(),
        });
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
    fn validate_rejects_duplicate_participants() {
        // An episode counts participant slots: a core listed twice could
        // never fill one, so the run would end in a deadlock.
        for participants in [vec![0, 0], vec![0, 1, 1]] {
            let participants: Vec<CoreId> = participants.into_iter().map(CoreId).collect();
            let mut pushed = TraceSet::for_cores(2);
            let b = pushed.add_barrier(participants.clone());
            for &c in &participants {
                pushed.push(c, Op::Barrier { id: b });
            }
            assert_eq!(pushed.validate(1, 2), Err(TraceError::BadBarrier { id: b }));
            // With a program, the barrier table is checked up front.
            let mut program = TraceSet::for_cores(2);
            let b = program.add_barrier(participants);
            program.add_program(Scripted {
                cores: vec![CoreId(0)],
                chunks: Vec::new(),
            });
            assert_eq!(
                program.validate(1, 2),
                Err(TraceError::BadBarrier { id: b })
            );
        }
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
