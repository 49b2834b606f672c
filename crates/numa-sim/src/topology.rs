//! Machine topology: cores, NUMA nodes, blades and interconnect links.
//!
//! A [`Machine`] is a graph of [`NodeSpec`]s (sockets with cores, a cache
//! and a memory controller, or core-less switch/hub nodes) connected by
//! full-duplex [`LinkSpec`]s. Routes between nodes are shortest paths
//! precomputed with BFS; the discrete-event engine charges transfers
//! against every link of the route, per direction.

use std::error::Error;
use std::fmt;

/// Identifier of a core, dense across the whole machine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct CoreId(pub usize);

impl CoreId {
    /// The index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Identifier of a NUMA node (socket, hub or switch).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifier of a directed link resource (`link.index * 2 + direction`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct LinkId(pub usize);

impl LinkId {
    /// The index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Per-core execution parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoreSpec {
    /// Clock frequency in Hz.
    pub freq_hz: f64,
    /// Peak double-precision flops per cycle (AVX without FMA: 4).
    pub flops_per_cycle: f64,
    /// Fraction of peak a cache-resident stencil kernel sustains
    /// (vectorization losses, dependency chains, divisions).
    pub efficiency: f64,
}

impl CoreSpec {
    /// Peak flop rate in flop/s.
    pub fn peak_flops(&self) -> f64 {
        self.freq_hz * self.flops_per_cycle
    }

    /// Sustained flop rate for compute-bound kernels in flop/s.
    pub fn sustained_flops(&self) -> f64 {
        self.peak_flops() * self.efficiency
    }
}

/// One NUMA node: a socket with cores, shared cache and a local memory
/// controller — or, with `cores == 0`, a core-less hub/switch.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeSpec {
    /// Number of cores (0 for hubs/switches).
    pub cores: usize,
    /// Execution parameters of each core (ignored when `cores == 0`).
    pub core: CoreSpec,
    /// Local DRAM bandwidth in bytes/s (0 for memory-less hubs).
    pub dram_bandwidth: f64,
    /// DRAM access latency in seconds.
    pub dram_latency: f64,
    /// Intra-node shared-cache bandwidth in bytes/s, used for
    /// core-to-core traffic that stays inside the node.
    pub l3_bandwidth: f64,
    /// Shared last-level cache capacity in bytes (drives (3+1)D block
    /// sizing).
    pub l3_bytes: usize,
}

/// A full-duplex link between two nodes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Bandwidth per direction in bytes/s.
    pub bandwidth: f64,
    /// One-way latency in seconds.
    pub latency: f64,
}

/// Error building a [`Machine`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildMachineError {
    /// The machine has no cores anywhere.
    NoCores,
    /// A link references a node that does not exist.
    DanglingLink {
        /// Index of the offending link.
        link: usize,
    },
    /// Some pair of nodes has no connecting path.
    Disconnected {
        /// A node unreachable from node 0.
        node: NodeId,
    },
}

impl fmt::Display for BuildMachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildMachineError::NoCores => write!(f, "machine has no cores"),
            BuildMachineError::DanglingLink { link } => {
                write!(f, "link {link} references a missing node")
            }
            BuildMachineError::Disconnected { node } => {
                write!(f, "{node} is unreachable from node0")
            }
        }
    }
}

impl Error for BuildMachineError {}

/// An immutable machine description with precomputed routes.
#[derive(Clone, Debug)]
pub struct Machine {
    nodes: Vec<NodeSpec>,
    links: Vec<LinkSpec>,
    core_node: Vec<NodeId>,
    node_cores: Vec<Vec<CoreId>>,
    /// Every shortest path back to back: the directed link resources
    /// along a → b start at `route_start[a * n + b]` and run for
    /// `hops[a * n + b]` links (`n` nodes).
    routes: Vec<LinkId>,
    route_start: Vec<usize>,
    hops: Vec<usize>,
}

impl Machine {
    /// Validates and builds a machine, computing shortest routes.
    ///
    /// # Errors
    ///
    /// See [`BuildMachineError`].
    pub fn build(nodes: Vec<NodeSpec>, links: Vec<LinkSpec>) -> Result<Self, BuildMachineError> {
        let n = nodes.len();
        for (idx, l) in links.iter().enumerate() {
            if l.a.index() >= n || l.b.index() >= n {
                return Err(BuildMachineError::DanglingLink { link: idx });
            }
        }
        // Dense core numbering: node 0's cores first, then node 1's, ...
        let mut core_node = Vec::new();
        let mut node_cores = vec![Vec::new(); n];
        for (ni, node) in nodes.iter().enumerate() {
            for _ in 0..node.cores {
                let c = CoreId(core_node.len());
                node_cores[ni].push(c);
                core_node.push(NodeId(ni));
            }
        }
        if core_node.is_empty() {
            return Err(BuildMachineError::NoCores);
        }
        // Adjacency: (neighbour, link index, direction) where direction 0
        // means travelling a → b.
        let mut adj: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); n];
        for (idx, l) in links.iter().enumerate() {
            adj[l.a.index()].push((l.b.index(), idx, 0));
            adj[l.b.index()].push((l.a.index(), idx, 1));
        }
        // BFS from every node, over one scratch reused across sources:
        // per node, its distance and the (node, link) it was reached by.
        let mut routes = Vec::new();
        let mut route_start = Vec::with_capacity(n * n);
        let mut hops = Vec::with_capacity(n * n);
        let mut dist = vec![usize::MAX; n];
        let mut prev = vec![(0, LinkId(0)); n];
        let mut queue = std::collections::VecDeque::with_capacity(n);
        for src in 0..n {
            dist.fill(usize::MAX);
            dist[src] = 0;
            queue.push_back(src);
            while let Some(u) = queue.pop_front() {
                for &(v, link, dir) in &adj[u] {
                    if dist[v] == usize::MAX {
                        dist[v] = dist[u] + 1;
                        prev[v] = (u, LinkId(link * 2 + dir));
                        queue.push_back(v);
                    }
                }
            }
            for (dst, &d) in dist.iter().enumerate() {
                if d == usize::MAX {
                    return Err(BuildMachineError::Disconnected { node: NodeId(dst) });
                }
                // The path src → dst, filled back to front from dst.
                let start = routes.len();
                routes.resize(start + d, LinkId(0));
                let mut cur = dst;
                for slot in routes[start..].iter_mut().rev() {
                    (cur, *slot) = prev[cur];
                }
                route_start.push(start);
                hops.push(d);
            }
        }
        Ok(Machine {
            nodes,
            links,
            core_node,
            node_cores,
            routes,
            route_start,
            hops,
        })
    }

    /// Node specifications.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Link specifications (undirected; each yields two directed
    /// resources).
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// Total number of cores.
    pub fn core_count(&self) -> usize {
        self.core_node.len()
    }

    /// Number of nodes (including core-less hubs).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes that actually carry cores (sockets), in index order.
    pub fn compute_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&n| self.nodes[n].cores > 0)
            .map(NodeId)
            .collect()
    }

    /// The node hosting `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn node_of(&self, core: CoreId) -> NodeId {
        self.core_node[core.index()]
    }

    /// The cores of `node`.
    pub fn cores_of(&self, node: NodeId) -> &[CoreId] {
        &self.node_cores[node.index()]
    }

    /// Directed link resources along the shortest path `from → to`
    /// (empty when `from == to`).
    pub fn route(&self, from: NodeId, to: NodeId) -> &[LinkId] {
        let pair = from.index() * self.nodes.len() + to.index();
        &self.routes[self.route_start[pair]..][..self.hops[pair]]
    }

    /// Hop count of the shortest path.
    pub fn hops(&self, from: NodeId, to: NodeId) -> usize {
        self.hops[from.index() * self.nodes.len() + to.index()]
    }

    /// Bandwidth of a directed link resource in bytes/s.
    pub fn link_bandwidth(&self, link: LinkId) -> f64 {
        self.links[link.index() / 2].bandwidth
    }

    /// One-way latency of a directed link resource in seconds.
    pub fn link_latency(&self, link: LinkId) -> f64 {
        self.links[link.index() / 2].latency
    }

    /// Total latency along the route `from → to`.
    pub fn route_latency(&self, from: NodeId, to: NodeId) -> f64 {
        self.route(from, to)
            .iter()
            .map(|&l| self.link_latency(l))
            .sum()
    }

    /// Narrowest bandwidth along the route, or `f64::INFINITY` for the
    /// local route.
    pub fn route_bandwidth(&self, from: NodeId, to: NodeId) -> f64 {
        self.route(from, to)
            .iter()
            .map(|&l| self.link_bandwidth(l))
            .fold(f64::INFINITY, f64::min)
    }

    /// A compact human-readable description of the machine (an
    /// `lstopo`-style summary).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let sockets = self.compute_nodes();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "machine: {} cores on {} sockets ({} nodes incl. hubs), peak {:.1} Gflop/s",
            self.core_count(),
            sockets.len(),
            self.node_count(),
            self.peak_flops() / 1e9
        );
        for n in &sockets {
            let spec = &self.nodes[n.index()];
            let _ = writeln!(
                out,
                "  {}: {} cores @ {:.1} GHz, {:.0} GB/s DRAM, {} MiB L3",
                n,
                spec.cores,
                spec.core.freq_hz / 1e9,
                spec.dram_bandwidth / 1e9,
                spec.l3_bytes >> 20
            );
        }
        if !self.links.is_empty() {
            let far = sockets
                .iter()
                .flat_map(|a| sockets.iter().map(move |b| self.hops(*a, *b)))
                .max()
                .unwrap_or(0);
            let _ = writeln!(
                out,
                "  interconnect: {} links, max socket distance {} hops, narrowest socket-to-socket path {:.1} GB/s",
                self.links.len(),
                far,
                sockets
                    .iter()
                    .flat_map(|a| sockets
                        .iter()
                        .filter(move |b| *b != a)
                        .map(move |b| self.route_bandwidth(*a, *b)))
                    .fold(f64::INFINITY, f64::min)
                    / 1e9
            );
        }
        out
    }

    /// Theoretical peak double-precision performance of all cores, flop/s.
    pub fn peak_flops(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.cores as f64 * n.core.peak_flops())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn socket(cores: usize) -> NodeSpec {
        NodeSpec {
            cores,
            core: CoreSpec {
                freq_hz: 3.3e9,
                flops_per_cycle: 4.0,
                efficiency: 0.5,
            },
            dram_bandwidth: 50e9,
            dram_latency: 90e-9,
            l3_bandwidth: 200e9,
            l3_bytes: 16 << 20,
        }
    }

    fn hub() -> NodeSpec {
        NodeSpec {
            cores: 0,
            core: CoreSpec {
                freq_hz: 0.0,
                flops_per_cycle: 0.0,
                efficiency: 0.0,
            },
            dram_bandwidth: 0.0,
            dram_latency: 0.0,
            l3_bandwidth: 0.0,
            l3_bytes: 0,
        }
    }

    fn link(a: usize, b: usize) -> LinkSpec {
        LinkSpec {
            a: NodeId(a),
            b: NodeId(b),
            bandwidth: 6.7e9,
            latency: 500e-9,
        }
    }

    #[test]
    fn dense_core_numbering() {
        let m = Machine::build(vec![socket(2), socket(3)], vec![link(0, 1)]).unwrap();
        assert_eq!(m.core_count(), 5);
        assert_eq!(m.node_of(CoreId(0)), NodeId(0));
        assert_eq!(m.node_of(CoreId(1)), NodeId(0));
        assert_eq!(m.node_of(CoreId(2)), NodeId(1));
        assert_eq!(m.cores_of(NodeId(1)), &[CoreId(2), CoreId(3), CoreId(4)]);
    }

    #[test]
    fn routes_via_hub() {
        // sockets 0,1 — hub 2 in the middle.
        let m = Machine::build(
            vec![socket(1), socket(1), hub()],
            vec![link(0, 2), link(1, 2)],
        )
        .unwrap();
        let r = m.route(NodeId(0), NodeId(1));
        assert_eq!(r.len(), 2);
        assert_eq!(m.hops(NodeId(0), NodeId(1)), 2);
        assert!(m.route(NodeId(0), NodeId(0)).is_empty());
        assert_eq!(m.hops(NodeId(1), NodeId(1)), 0);
        assert_eq!(m.compute_nodes(), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn directed_resources_differ_by_direction() {
        let m = Machine::build(vec![socket(1), socket(1)], vec![link(0, 1)]).unwrap();
        let fwd = m.route(NodeId(0), NodeId(1)).to_vec();
        let back = m.route(NodeId(1), NodeId(0)).to_vec();
        assert_ne!(fwd, back, "directions must map to distinct resources");
        assert_eq!(m.route_bandwidth(NodeId(0), NodeId(1)), 6.7e9);
        assert_eq!(m.route_latency(NodeId(0), NodeId(1)), 500e-9);
        assert_eq!(m.route_bandwidth(NodeId(0), NodeId(0)), f64::INFINITY);
    }

    #[test]
    fn build_errors() {
        assert_eq!(
            Machine::build(vec![hub()], vec![]).unwrap_err(),
            BuildMachineError::NoCores
        );
        assert_eq!(
            Machine::build(vec![socket(1)], vec![link(0, 3)]).unwrap_err(),
            BuildMachineError::DanglingLink { link: 0 }
        );
        assert_eq!(
            Machine::build(vec![socket(1), socket(1)], vec![]).unwrap_err(),
            BuildMachineError::Disconnected { node: NodeId(1) }
        );
    }

    #[test]
    fn peak_flops_sums_sockets() {
        let m = Machine::build(
            vec![socket(8), socket(8), hub()],
            vec![link(0, 2), link(1, 2)],
        )
        .unwrap();
        let per_socket = 8.0 * 3.3e9 * 4.0;
        assert!((m.peak_flops() - 2.0 * per_socket).abs() < 1.0);
    }

    #[test]
    fn summary_reports_key_facts() {
        let m = Machine::build(
            vec![socket(2), socket(2), hub()],
            vec![link(0, 2), link(1, 2)],
        )
        .unwrap();
        let s = m.summary();
        assert!(s.contains("4 cores on 2 sockets"));
        assert!(s.contains("3.3 GHz"));
        assert!(s.contains("max socket distance 2 hops"));
        assert!(s.contains("6.7 GB/s"));
        // Single-socket machines skip the interconnect line.
        let one = Machine::build(vec![socket(4)], vec![]).unwrap();
        assert!(!one.summary().contains("interconnect"));
    }

    #[test]
    fn core_spec_rates() {
        let c = CoreSpec {
            freq_hz: 3.3e9,
            flops_per_cycle: 4.0,
            efficiency: 0.5,
        };
        assert!((c.peak_flops() - 13.2e9).abs() < 1.0);
        assert!((c.sustained_flops() - 6.6e9).abs() < 1.0);
    }
}
