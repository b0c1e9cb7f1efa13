//! Undirected graphs and basic graph algorithms.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// A node identifier: nodes are numbered `0 .. k`.
pub type NodeId = usize;

/// Typed rejection reasons for [`Graph::try_add_edge`].
///
/// The panicking [`Graph::add_edge`] keeps its historical contract;
/// callers assembling graphs from untrusted or machine-generated edge
/// lists (fuzzers, file loaders, degenerate-size sweeps) use
/// [`Graph::try_add_edge`] and get these instead of a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint is `>= node_count()`.
    OutOfRange {
        /// The offending endpoint.
        node: NodeId,
        /// The number of nodes in the graph.
        nodes: usize,
    },
    /// Both endpoints are the same node. A self-loop would make the
    /// round engine deliver a node its own message, which no CONGEST
    /// protocol in this repo is written to expect.
    SelfLoop {
        /// The node.
        node: NodeId,
    },
    /// The edge is already present. A parallel edge would double-deliver
    /// every message sent over it in the flat engine.
    Duplicate {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::OutOfRange { node, nodes } => {
                write!(f, "endpoint {node} out of range for {nodes} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::Duplicate { u, v } => write!(f, "duplicate edge {{{u}, {v}}}"),
        }
    }
}

impl Error for GraphError {}

/// An undirected simple graph with adjacency lists.
///
/// Node identifiers are dense (`0 .. node_count()`). Self-loops and
/// parallel edges are rejected at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl Graph {
    /// Creates an edgeless graph with `k` nodes.
    pub fn new(k: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); k],
            edge_count: 0,
        }
    }

    /// Builds a graph from an edge list.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints, self-loops, or duplicate edges.
    pub fn from_edges(k: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut g = Graph::new(k);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Builds a graph from an edge list, silently skipping self-loops
    /// and duplicate edges (in either orientation) instead of panicking.
    /// Out-of-range endpoints are still a hard error: they indicate a
    /// sizing bug, not a redundant edge.
    ///
    /// The result runs identically on the flat and reference engines to
    /// a graph built from the deduplicated list with [`Graph::from_edges`]
    /// — without dedup a parallel edge would double-deliver messages.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints.
    pub fn from_edges_dedup(k: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut g = Graph::new(k);
        for &(u, v) in edges {
            match g.try_add_edge(u, v) {
                Ok(()) | Err(GraphError::SelfLoop { .. }) | Err(GraphError::Duplicate { .. }) => {}
                Err(e @ GraphError::OutOfRange { .. }) => panic!("{e}"),
            }
        }
        g
    }

    /// Builds a graph directly from adjacency lists, preserving the
    /// neighbor *order* of every list. The round engine's message
    /// staging and inbox ordering follow neighbor order, so this is the
    /// constructor that lets an implicit topology materialize into a
    /// [`Graph`] whose engine runs are bit-identical to its on-the-fly
    /// runs (see [`ImplicitTopology::materialize`]).
    ///
    /// # Panics
    ///
    /// Panics if any list contains an out-of-range node, a self-loop, a
    /// duplicate neighbor, or if the lists are not symmetric (`u` lists
    /// `v` but `v` does not list `u`).
    pub fn from_adjacency(adj: Vec<Vec<NodeId>>) -> Self {
        let k = adj.len();
        let mut stamp = vec![usize::MAX; k];
        let mut half_edges = 0usize;
        for (u, nbrs) in adj.iter().enumerate() {
            for &v in nbrs {
                assert!(v < k, "endpoint {v} out of range for {k} nodes");
                assert_ne!(u, v, "self-loops are not allowed");
                assert!(stamp[v] != u, "duplicate edge {{{u}, {v}}}");
                stamp[v] = u;
                assert!(
                    adj[v].contains(&u),
                    "asymmetric adjacency: {u} lists {v} but not vice versa"
                );
                half_edges += 1;
            }
        }
        debug_assert!(half_edges.is_multiple_of(2));
        Graph {
            adj,
            edge_count: half_edges / 2,
        }
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints, self-loops, or duplicate edges.
    /// Fallible callers use [`Graph::try_add_edge`].
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            u < self.adj.len() && v < self.adj.len(),
            "endpoint out of range"
        );
        assert_ne!(u, v, "self-loops are not allowed");
        assert!(!self.adj[u].contains(&v), "duplicate edge {{{u}, {v}}}");
        self.adj[u].push(v);
        self.adj[v].push(u);
        self.edge_count += 1;
    }

    /// Adds the undirected edge `{u, v}`, returning a typed
    /// [`GraphError`] instead of panicking on out-of-range endpoints,
    /// self-loops, or duplicate edges. On `Err` the graph is unchanged.
    ///
    /// # Errors
    ///
    /// [`GraphError::OutOfRange`], [`GraphError::SelfLoop`], or
    /// [`GraphError::Duplicate`].
    pub fn try_add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        let k = self.adj.len();
        for node in [u, v] {
            if node >= k {
                return Err(GraphError::OutOfRange { node, nodes: k });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if self.adj[u].contains(&v) {
            return Err(GraphError::Duplicate { u, v });
        }
        self.adj[u].push(v);
        self.adj[v].push(u);
        self.edge_count += 1;
        Ok(())
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v].len()
    }

    /// Whether `{u, v}` is an edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u].contains(&v)
    }

    /// BFS distances from `source`; unreachable nodes get `None`.
    pub fn bfs_distances(&self, source: NodeId) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.node_count()];
        let mut queue = VecDeque::new();
        dist[source] = Some(0);
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("queued nodes have distances");
            for &w in &self.adj[u] {
                if dist[w].is_none() {
                    dist[w] = Some(du + 1);
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Whether the graph is connected (true for the empty and 1-node
    /// graphs).
    pub fn is_connected(&self) -> bool {
        if self.node_count() <= 1 {
            return true;
        }
        self.bfs_distances(0).iter().all(|d| d.is_some())
    }

    /// The eccentricity of `v`: max distance to any node.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected.
    pub fn eccentricity(&self, v: NodeId) -> usize {
        self.bfs_distances(v)
            .iter()
            .map(|d| d.expect("eccentricity requires a connected graph"))
            .max()
            .unwrap_or(0)
    }

    /// The exact diameter, via BFS from every node — O(k·m). Fine for
    /// experiment-scale graphs (k up to a few tens of thousands).
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected.
    pub fn diameter(&self) -> usize {
        (0..self.node_count())
            .map(|v| self.eccentricity(v))
            .max()
            .unwrap_or(0)
    }

    /// Iterates over all undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, nbrs)| nbrs.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
    }

    /// Connected components: returns `component[v]` labels in
    /// `0..component_count`, numbered by discovery order.
    pub fn connected_components(&self) -> (Vec<usize>, usize) {
        let k = self.node_count();
        let mut comp = vec![usize::MAX; k];
        let mut count = 0usize;
        for start in 0..k {
            if comp[start] != usize::MAX {
                continue;
            }
            let id = count;
            count += 1;
            let mut stack = vec![start];
            comp[start] = id;
            while let Some(u) = stack.pop() {
                for &w in &self.adj[u] {
                    if comp[w] == usize::MAX {
                        comp[w] = id;
                        stack.push(w);
                    }
                }
            }
        }
        (comp, count)
    }

    /// Minimum, mean, and maximum degree — the quantities that drive
    /// Luby-phase counts and congestion hot spots.
    ///
    /// # Panics
    ///
    /// Panics on an empty graph.
    pub fn degree_stats(&self) -> DegreeStats {
        assert!(self.node_count() > 0, "degree stats need a non-empty graph");
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut sum = 0usize;
        for v in 0..self.node_count() {
            let d = self.degree(v);
            min = min.min(d);
            max = max.max(d);
            sum += d;
        }
        DegreeStats {
            min,
            max,
            mean: sum as f64 / self.node_count() as f64,
        }
    }

    /// The induced subgraph on `nodes` (which must be distinct). Node
    /// `i` of the result corresponds to `nodes[i]`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or duplicate entries.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> Graph {
        let mut index_of = vec![usize::MAX; self.node_count()];
        for (i, &v) in nodes.iter().enumerate() {
            assert!(v < self.node_count(), "node {v} out of range");
            assert_eq!(index_of[v], usize::MAX, "node {v} listed twice");
            index_of[v] = i;
        }
        let mut g = Graph::new(nodes.len());
        for (i, &v) in nodes.iter().enumerate() {
            for &w in &self.adj[v] {
                let j = index_of[w];
                if j != usize::MAX && i < j {
                    g.add_edge(i, j);
                }
            }
        }
        g
    }

    /// Renders the graph in Graphviz DOT format, optionally highlighting
    /// a set of nodes (e.g. MIS centers) with a `fillcolor`.
    pub fn to_dot(&self, name: &str, highlight: Option<&[NodeId]>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "graph {name} {{");
        if let Some(hl) = highlight {
            for &v in hl {
                let _ = writeln!(out, "  {v} [style=filled, fillcolor=lightblue];");
            }
        }
        for (u, v) in self.edges() {
            let _ = writeln!(out, "  {u} -- {v};");
        }
        out.push_str("}\n");
        out
    }
}

/// A compressed-sparse-row view of a [`Graph`].
///
/// The per-node `Vec<NodeId>` adjacency lists of [`Graph`] are flattened
/// into one `neighbors` array indexed by an `offsets` array, so the hot
/// path of the round engine walks a single contiguous allocation instead
/// of chasing one heap pointer per node. Neighbor order is preserved
/// exactly, so anything iterating `neighbors(v)` sees the same sequence
/// as [`Graph::neighbors`].
///
/// A `Csr` is a reusable buffer: [`Csr::rebuild_from`] refills it from a
/// graph without allocating once its capacity has grown, which is what
/// lets a reused [`crate::engine::Network`] run Monte-Carlo trial after
/// trial allocation-free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
    max_degree: usize,
}

impl Csr {
    /// Creates an empty CSR (zero nodes) to be filled by
    /// [`Csr::rebuild_from`].
    pub fn new() -> Self {
        Csr::default()
    }

    /// Builds a CSR from a graph.
    pub fn from_graph(g: &Graph) -> Self {
        let mut csr = Csr::new();
        csr.rebuild_from(g);
        csr
    }

    /// Refills this CSR from `g`, reusing the existing buffers. Does not
    /// allocate once the buffers have grown to the graph's size.
    pub fn rebuild_from(&mut self, g: &Graph) {
        self.offsets.clear();
        self.neighbors.clear();
        self.max_degree = 0;
        self.offsets.reserve(g.node_count() + 1);
        self.neighbors.reserve(2 * g.edge_count());
        self.offsets.push(0);
        for v in 0..g.node_count() {
            let nbrs = g.neighbors(v);
            self.max_degree = self.max_degree.max(nbrs.len());
            self.neighbors.extend_from_slice(nbrs);
            self.offsets.push(self.neighbors.len());
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Neighbors of `v`, in the same order as [`Graph::neighbors`].
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The largest degree in the graph (0 for an empty graph).
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }
}

/// A topology whose neighbor lists are computed on the fly instead of
/// being stored.
///
/// An explicit [`Graph`] on 10⁷ nodes costs gigabytes of adjacency
/// lists; a torus or hypercube on the same node count is fully
/// described by its dimensions. Implementors yield each node's
/// neighbors into a caller-provided buffer in a **fixed canonical
/// order** — the round engine's message staging and inbox ordering
/// follow neighbor order, so the order is part of the topology's
/// identity: a run on the implicit form and a run on
/// [`ImplicitTopology::materialize`]'s output are bit-identical.
///
/// [`Graph`] itself implements the trait (borrowing its stored lists
/// and ignoring the buffer), so engine and protocol entry points
/// generic over `ImplicitTopology` accept both materialized and
/// implicit networks; [`crate::engine::Network`] keeps its CSR fast
/// path for `Graph` through [`ImplicitTopology::prime_csr`].
pub trait ImplicitTopology {
    /// Number of nodes; ids are dense `0..node_count()`.
    fn node_count(&self) -> usize;

    /// An upper bound on the degree of any node, used to size the
    /// engine's per-neighbor accounting buffers. Must be `>=` every
    /// actual degree; a slack bound only costs a few unused slots.
    fn max_degree(&self) -> usize;

    /// Writes `v`'s neighbors into `buf` (clearing it first) and
    /// returns them. The order must be identical on every call — it is
    /// observable through engine runs. Implementations backed by stored
    /// adjacency (like [`Graph`]) may ignore `buf` and return their own
    /// slice.
    fn neighbors<'a>(&'a self, v: NodeId, buf: &'a mut Vec<NodeId>) -> &'a [NodeId];

    /// Materializes the topology into an explicit [`Graph`] with the
    /// same neighbor order, validating symmetry and simplicity on the
    /// way. Engine runs on the result are bit-identical to runs on
    /// `self` — the property the implicit-vs-materialized differential
    /// tests pin. Intended for small instances (tests, diameter
    /// calculations); at 10⁷ nodes this is exactly the allocation the
    /// trait exists to avoid.
    fn materialize(&self) -> Graph {
        let k = self.node_count();
        let mut buf = Vec::new();
        let mut adj = Vec::with_capacity(k);
        for v in 0..k {
            adj.push(self.neighbors(v, &mut buf).to_vec());
        }
        Graph::from_adjacency(adj)
    }

    /// Engine hook: refresh `csr` if this topology has stored adjacency
    /// worth flattening into a packed scan view, and return whether the
    /// engine should read neighbors from the CSR instead of calling
    /// [`ImplicitTopology::neighbors`]. The default (implicit families)
    /// leaves the CSR untouched and returns `false`; [`Graph`] rebuilds
    /// it and returns `true`.
    fn prime_csr(&self, _csr: &mut Csr) -> bool {
        false
    }
}

impl ImplicitTopology for Graph {
    fn node_count(&self) -> usize {
        self.adj.len()
    }

    fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    fn neighbors<'a>(&'a self, v: NodeId, _buf: &'a mut Vec<NodeId>) -> &'a [NodeId] {
        &self.adj[v]
    }

    fn materialize(&self) -> Graph {
        self.clone()
    }

    fn prime_csr(&self, csr: &mut Csr) -> bool {
        csr.rebuild_from(self);
        true
    }
}

/// Degree summary returned by [`Graph::degree_stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Smallest degree.
    pub min: usize,
    /// Largest degree.
    pub max: usize,
    /// Mean degree (`2m/k`).
    pub mean: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_connected());
    }

    #[test]
    fn add_edges_and_query() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut g = Graph::new(2);
        g.add_edge(0, 0);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicate_edge() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut g = Graph::new(2);
        g.add_edge(0, 5);
    }

    #[test]
    fn bfs_distances_on_line() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let d = g.bfs_distances(0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn bfs_detects_unreachable() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let d = g.bfs_distances(0);
        assert_eq!(d[2], None);
        assert!(!g.is_connected());
    }

    #[test]
    fn diameter_of_line_and_cycle() {
        let line = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(line.diameter(), 4);
        let cycle = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        assert_eq!(cycle.diameter(), 3);
    }

    #[test]
    fn eccentricity_center_vs_leaf() {
        let line = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(line.eccentricity(2), 2);
        assert_eq!(line.eccentricity(0), 4);
    }

    #[test]
    fn edges_iterator_unique() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (u, v) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn connected_components_counts() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let (comp, count) = g.connected_components();
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[3], comp[5]);
    }

    #[test]
    fn connected_graph_has_one_component() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let (_, count) = g.connected_components();
        assert_eq!(count, 1);
    }

    #[test]
    fn degree_stats_on_star() {
        let mut g = Graph::new(5);
        for i in 1..5 {
            g.add_edge(0, i);
        }
        let s = g.degree_stats();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let sub = g.induced_subgraph(&[0, 1, 2]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2); // (0,1) and (1,2); (0,4)/(2,3) cut
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 2));
        assert!(!sub.has_edge(0, 2));
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn induced_subgraph_rejects_duplicates() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let _ = g.induced_subgraph(&[0, 0]);
    }

    #[test]
    fn csr_matches_adjacency_lists() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)]);
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.node_count(), 5);
        assert_eq!(csr.max_degree(), 3);
        for v in 0..5 {
            assert_eq!(csr.neighbors(v), g.neighbors(v));
            assert_eq!(csr.degree(v), g.degree(v));
        }
    }

    #[test]
    fn csr_rebuild_reuses_buffers() {
        let g1 = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let g2 = Graph::from_edges(2, &[(0, 1)]);
        let mut csr = Csr::from_graph(&g1);
        csr.rebuild_from(&g2);
        assert_eq!(csr.node_count(), 2);
        assert_eq!(csr.neighbors(0), &[1]);
        assert_eq!(csr.max_degree(), 1);
        assert_eq!(csr, Csr::from_graph(&g2));
    }

    #[test]
    fn csr_empty_graph() {
        let csr = Csr::from_graph(&Graph::new(0));
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.max_degree(), 0);
        assert_eq!(Csr::new().node_count(), 0);
    }

    #[test]
    fn try_add_edge_reports_typed_errors() {
        let mut g = Graph::new(3);
        assert_eq!(
            g.try_add_edge(0, 5),
            Err(GraphError::OutOfRange { node: 5, nodes: 3 })
        );
        assert_eq!(g.try_add_edge(1, 1), Err(GraphError::SelfLoop { node: 1 }));
        assert_eq!(g.try_add_edge(0, 1), Ok(()));
        assert_eq!(
            g.try_add_edge(1, 0),
            Err(GraphError::Duplicate { u: 1, v: 0 })
        );
        // Errors leave the graph unchanged.
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn from_edges_dedup_skips_redundant_edges() {
        let g = Graph::from_edges_dedup(3, &[(0, 1), (1, 0), (0, 0), (0, 1), (1, 2)]);
        assert_eq!(g, Graph::from_edges(3, &[(0, 1), (1, 2)]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_dedup_still_rejects_out_of_range() {
        let _ = Graph::from_edges_dedup(2, &[(0, 7)]);
    }

    #[test]
    fn from_adjacency_round_trips_and_counts_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let adj: Vec<Vec<NodeId>> = (0..4).map(|v| g.neighbors(v).to_vec()).collect();
        let g2 = Graph::from_adjacency(adj);
        assert_eq!(g2, g);
    }

    #[test]
    #[should_panic(expected = "asymmetric")]
    fn from_adjacency_rejects_asymmetry() {
        let _ = Graph::from_adjacency(vec![vec![1], vec![]]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn from_adjacency_rejects_duplicates() {
        let _ = Graph::from_adjacency(vec![vec![1, 1], vec![0, 0]]);
    }

    #[test]
    fn graph_implements_implicit_topology() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 3)]);
        let mut buf = Vec::new();
        assert_eq!(ImplicitTopology::node_count(&g), 4);
        assert_eq!(ImplicitTopology::max_degree(&g), 2);
        for v in 0..4 {
            assert_eq!(ImplicitTopology::neighbors(&g, v, &mut buf), g.neighbors(v));
        }
        assert_eq!(ImplicitTopology::materialize(&g), g);
        let mut csr = Csr::new();
        assert!(g.prime_csr(&mut csr));
        assert_eq!(csr, Csr::from_graph(&g));
    }

    #[test]
    fn dot_export_contains_edges_and_highlights() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let dot = g.to_dot("demo", Some(&[1]));
        assert!(dot.starts_with("graph demo {"));
        assert!(dot.contains("0 -- 1;"));
        assert!(dot.contains("1 -- 2;"));
        assert!(dot.contains("1 [style=filled"));
        assert!(dot.trim_end().ends_with('}'));
    }
}
