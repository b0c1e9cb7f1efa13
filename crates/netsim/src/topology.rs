//! Topology generators for experiments.
//!
//! The paper's round complexities depend on the network diameter `D`
//! (e.g. CONGEST testing in `O(D + n/(kε⁴))` rounds), so experiments
//! sweep over topologies with very different diameters: the line
//! (`D = k−1`), ring, star (`D = 2`), complete graph (`D = 1`), balanced
//! binary tree (`D = Θ(log k)`), 2D grid (`D = Θ(√k)`) and connected
//! Erdős–Rényi graphs (`D = Θ(log k)` w.h.p.).

use crate::graph::{Graph, ImplicitTopology, NodeId};
use rand::Rng;

/// A line (path) on `k` nodes: `0 — 1 — ... — k−1`. Diameter `k−1`.
///
/// `line(0)` is the empty graph and `line(1)` a singleton; both are
/// valid [`Graph`] values, and the round engine reports the empty one
/// as a typed [`crate::engine::EngineError::EmptyNetwork`] instead of
/// silently succeeding on zero nodes.
pub fn line(k: usize) -> Graph {
    let mut g = Graph::new(k);
    for i in 1..k {
        g.add_edge(i - 1, i);
    }
    g
}

/// A ring (cycle) on `k ≥ 3` nodes. Diameter `⌊k/2⌋`.
///
/// # Panics
///
/// Panics if `k < 3`.
pub fn ring(k: usize) -> Graph {
    assert!(k >= 3, "a ring needs at least 3 nodes");
    let mut g = line(k);
    g.add_edge(k - 1, 0);
    g
}

/// A star on `k ≥ 1` nodes with node 0 as the hub. Diameter 2 (0 for
/// the degenerate `star(1)`, which is a valid singleton — a hub with no
/// spokes — rather than a panic).
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn star(k: usize) -> Graph {
    assert!(k >= 1, "a star needs at least 1 node (the hub)");
    let mut g = Graph::new(k);
    for i in 1..k {
        g.add_edge(0, i);
    }
    g
}

/// The complete graph on `k` nodes. Diameter 1 (`complete(1)` is a
/// valid singleton).
///
/// # Panics
///
/// Panics if the `k·(k−1)/2` edge count overflows `usize` — a sizing
/// bug caught before it turns into an absurd allocation.
pub fn complete(k: usize) -> Graph {
    if k > 1 {
        k.checked_mul(k - 1)
            .expect("complete(k): edge count overflows usize");
    }
    let mut g = Graph::new(k);
    for u in 0..k {
        for v in (u + 1)..k {
            g.add_edge(u, v);
        }
    }
    g
}

/// Two complete graphs on `⌈k/2⌉` and `⌊k/2⌋` nodes joined by a single
/// bridge edge `(0, ⌈k/2⌉)`. The canonical far-from-expander instance
/// for conductance testing: the cut at the bridge has conductance
/// `Θ(1/k²)`, so lazy random walks stay trapped on their side and the
/// endpoint collision statistic roughly doubles versus a true expander.
///
/// # Panics
///
/// Panics if `k < 4` (each side needs at least 2 nodes to be a clique)
/// or if the clique edge count overflows `usize`.
pub fn bridged_cliques(k: usize) -> Graph {
    assert!(k >= 4, "bridged_cliques needs k >= 4 (got {k})");
    let left = k.div_ceil(2);
    k.checked_mul(k - 1)
        .expect("bridged_cliques(k): edge count overflows usize");
    let mut g = Graph::new(k);
    for u in 0..left {
        for v in (u + 1)..left {
            g.add_edge(u, v);
        }
    }
    for u in left..k {
        for v in (u + 1)..k {
            g.add_edge(u, v);
        }
    }
    g.add_edge(0, left);
    g
}

/// A balanced binary tree on `k` nodes (heap layout: node `i`'s children
/// are `2i+1`, `2i+2`). Diameter `Θ(log k)`.
pub fn balanced_binary_tree(k: usize) -> Graph {
    let mut g = Graph::new(k);
    for i in 1..k {
        g.add_edge((i - 1) / 2, i);
    }
    g
}

/// A 2D grid with `rows × cols` nodes (row-major ids). Diameter
/// `rows + cols − 2`.
///
/// # Panics
///
/// Panics if either dimension is zero (`grid(r, 0)` used to silently
/// return the empty graph) or if `rows · cols` overflows `usize`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(
        rows >= 1 && cols >= 1,
        "grid dimensions must be at least 1x1 (got {rows}x{cols})"
    );
    let k = rows
        .checked_mul(cols)
        .expect("grid(rows, cols): node count overflows usize");
    let mut g = Graph::new(k);
    for r in 0..rows {
        for c in 0..cols {
            let id = r * cols + c;
            if c + 1 < cols {
                g.add_edge(id, id + 1);
            }
            if r + 1 < rows {
                g.add_edge(id, id + cols);
            }
        }
    }
    g
}

/// A connected Erdős–Rényi graph `G(k, p)`: edges drawn independently
/// with probability `p`, then augmented with a random spanning-path edge
/// for every node left disconnected (so the result is always connected
/// while staying close to `G(k, p)` for `p` above the connectivity
/// threshold).
///
/// # Panics
///
/// Panics unless `0 < p <= 1`.
pub fn connected_erdos_renyi<R: Rng + ?Sized>(k: usize, p: f64, rng: &mut R) -> Graph {
    assert!(p > 0.0 && p <= 1.0, "edge probability must be in (0, 1]");
    let mut g = Graph::new(k);
    for u in 0..k {
        for v in (u + 1)..k {
            if rng.gen::<f64>() < p {
                g.add_edge(u, v);
            }
        }
    }
    // Stitch components together: chain one representative per
    // component (keeps degree inflation minimal).
    let (comp, n_comp) = g.connected_components();
    if n_comp > 1 {
        // Pick one representative per component and chain them.
        let mut reps = vec![None; n_comp];
        for v in 0..k {
            if reps[comp[v]].is_none() {
                reps[comp[v]] = Some(v);
            }
        }
        let reps: Vec<usize> = reps
            .into_iter()
            .map(|r| r.expect("component has a node"))
            .collect();
        for w in reps.windows(2) {
            if !g.has_edge(w[0], w[1]) {
                g.add_edge(w[0], w[1]);
            }
        }
    }
    g
}

// ---------------------------------------------------------------------------
// Implicit families: neighbors computed on the fly, no stored edge list.
//
// At 10⁶–10⁷ nodes a materialized adjacency costs gigabytes before the
// first round runs; these families implement [`ImplicitTopology`]
// directly so the engine can ask for `neighbors(v)` in O(degree) with
// zero setup memory. Every family's neighbor order is canonical and
// documented, because the order is observable through engine runs (it
// fixes inbox order and therefore counter-keyed fault streams).
// `materialize()` (the trait default) validates symmetry/simplicity via
// `Graph::from_adjacency`, which the differential tests lean on.
// ---------------------------------------------------------------------------

/// A 2D torus (wrap-around grid) with `rows × cols` nodes, row-major
/// ids. Diameter `⌊rows/2⌋ + ⌊cols/2⌋`.
///
/// Neighbor order is up, down, left, right (wrapping), with duplicates
/// collapsed (a dimension of length 2 makes up == down) and self-edges
/// skipped (a dimension of length 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Torus2d {
    rows: usize,
    cols: usize,
}

impl Torus2d {
    /// Builds a `rows × cols` torus descriptor.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `rows · cols` overflows
    /// `usize`.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(
            rows >= 1 && cols >= 1,
            "torus dimensions must be at least 1x1 (got {rows}x{cols})"
        );
        rows.checked_mul(cols)
            .expect("Torus2d::new: node count overflows usize");
        Torus2d { rows, cols }
    }

    /// Row dimension.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column dimension.
    pub fn cols(&self) -> usize {
        self.cols
    }
}

impl ImplicitTopology for Torus2d {
    fn node_count(&self) -> usize {
        self.rows * self.cols
    }

    fn max_degree(&self) -> usize {
        let per_dim = |len: usize| if len >= 3 { 2 } else { len - 1 };
        per_dim(self.rows) + per_dim(self.cols)
    }

    fn neighbors<'a>(&'a self, v: NodeId, buf: &'a mut Vec<NodeId>) -> &'a [NodeId] {
        buf.clear();
        let (rows, cols) = (self.rows, self.cols);
        let r = v / cols;
        let c = v - r * cols;
        // The modulo wraps `(r ± 1) mod rows`, `(c ± 1) mod cols` as
        // compare-and-wrap: one division per call instead of six.
        let up = if r == 0 {
            v + (rows - 1) * cols
        } else {
            v - cols
        };
        let down = if r + 1 == rows { c } else { v + cols };
        let left = if c == 0 { v + cols - 1 } else { v - 1 };
        let right = if c + 1 == cols { v - c } else { v + 1 };
        if rows >= 3 && cols >= 3 {
            // All four are distinct and none is `v`.
            buf.extend_from_slice(&[up, down, left, right]);
            return buf;
        }
        for cand in [up, down, left, right] {
            if cand != v && !buf.contains(&cand) {
                buf.push(cand);
            }
        }
        buf
    }
}

/// The `dim`-dimensional hypercube on `2^dim` nodes: `u ~ v` iff their
/// ids differ in exactly one bit. Diameter `dim`.
///
/// Neighbor order flips bit 0 first: `v ^ 1, v ^ 2, …, v ^ 2^(dim−1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypercube {
    dim: u32,
}

impl Hypercube {
    /// Builds a `dim`-dimensional hypercube descriptor (`dim == 0` is a
    /// singleton).
    ///
    /// # Panics
    ///
    /// Panics if `2^dim` overflows `usize`.
    pub fn new(dim: u32) -> Self {
        assert!(dim < usize::BITS, "Hypercube::new: 2^{dim} overflows usize");
        Hypercube { dim }
    }

    /// Number of dimensions (= degree of every node).
    pub fn dim(&self) -> u32 {
        self.dim
    }
}

impl ImplicitTopology for Hypercube {
    fn node_count(&self) -> usize {
        1usize << self.dim
    }

    fn max_degree(&self) -> usize {
        self.dim as usize
    }

    fn neighbors<'a>(&'a self, v: NodeId, buf: &'a mut Vec<NodeId>) -> &'a [NodeId] {
        buf.clear();
        for i in 0..self.dim {
            buf.push(v ^ (1usize << i));
        }
        buf
    }
}

/// The Margulis–Gabber–Galil expander on `Z_m × Z_m` (`m = side`),
/// `m² ` nodes with id `x·m + y`. Each node connects to the eight
/// images/preimages of the two affine generators `(x ± 2y, y)`,
/// `(x ± (2y+1), y)`, `(x, y ± 2x)`, `(x, y ± (2x+1))` (mod `m`), a
/// classical constant-degree expander family — diameter `Θ(log k)` with
/// spectral gap bounded away from zero.
///
/// Neighbor order is the generator order above, with duplicates
/// collapsed and self-edges skipped (both occur for small `m`). The
/// candidate set is closed under inversion, so the relation is
/// symmetric and `materialize()` passes `Graph::from_adjacency`'s
/// symmetry check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MargulisExpander {
    side: usize,
}

impl MargulisExpander {
    /// Builds the expander descriptor on `side²` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `side == 0` or `side²` overflows `usize`.
    pub fn new(side: usize) -> Self {
        assert!(side >= 1, "MargulisExpander::new: side must be at least 1");
        side.checked_mul(side)
            .expect("MargulisExpander::new: node count overflows usize");
        MargulisExpander { side }
    }

    /// Grid side length (`node_count == side²`).
    pub fn side(&self) -> usize {
        self.side
    }
}

impl ImplicitTopology for MargulisExpander {
    fn node_count(&self) -> usize {
        self.side * self.side
    }

    fn max_degree(&self) -> usize {
        // Eight generators, but never more neighbors than other nodes.
        8.min(self.node_count().saturating_sub(1))
    }

    fn neighbors<'a>(&'a self, v: NodeId, buf: &'a mut Vec<NodeId>) -> &'a [NodeId] {
        buf.clear();
        let m = self.side;
        let (x, y) = (v / m, v % m);
        let add = |a: usize, b: usize| (a + b % m) % m;
        let sub = |a: usize, b: usize| (a + m - b % m) % m;
        for (nx, ny) in [
            (add(x, 2 * y), y),
            (add(x, 2 * y + 1), y),
            (sub(x, 2 * y), y),
            (sub(x, 2 * y + 1), y),
            (x, add(y, 2 * x)),
            (x, add(y, 2 * x + 1)),
            (x, sub(y, 2 * x)),
            (x, sub(y, 2 * x + 1)),
        ] {
            let cand = nx * m + ny;
            if cand != v && !buf.contains(&cand) {
                buf.push(cand);
            }
        }
        buf
    }
}

/// Implicit form of [`line()`]: identical node ids and neighbor order
/// (`[v−1, v+1]` clipped at the ends), so `materialize()` equals
/// `line(k)` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImplicitLine {
    /// Number of nodes.
    pub k: usize,
}

impl ImplicitTopology for ImplicitLine {
    fn node_count(&self) -> usize {
        self.k
    }

    fn max_degree(&self) -> usize {
        match self.k {
            0 | 1 => 0,
            2 => 1,
            _ => 2,
        }
    }

    fn neighbors<'a>(&'a self, v: NodeId, buf: &'a mut Vec<NodeId>) -> &'a [NodeId] {
        buf.clear();
        if v > 0 {
            buf.push(v - 1);
        }
        if v + 1 < self.k {
            buf.push(v + 1);
        }
        buf
    }
}

/// Implicit form of [`ring()`]: neighbor order matches the generator's
/// edge-insertion order (`adj[0] = [1, k−1]`, `adj[k−1] = [k−2, 0]`,
/// interior `[v−1, v+1]`), so `materialize()` equals `ring(k)` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImplicitRing {
    k: usize,
}

impl ImplicitRing {
    /// Builds a `k`-node ring descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `k < 3` (matching [`ring()`]).
    pub fn new(k: usize) -> Self {
        assert!(k >= 3, "a ring needs at least 3 nodes");
        ImplicitRing { k }
    }
}

impl ImplicitTopology for ImplicitRing {
    fn node_count(&self) -> usize {
        self.k
    }

    fn max_degree(&self) -> usize {
        2
    }

    fn neighbors<'a>(&'a self, v: NodeId, buf: &'a mut Vec<NodeId>) -> &'a [NodeId] {
        buf.clear();
        if v == 0 {
            buf.push(1);
            buf.push(self.k - 1);
        } else if v == self.k - 1 {
            buf.push(v - 1);
            buf.push(0);
        } else {
            buf.push(v - 1);
            buf.push(v + 1);
        }
        buf
    }
}

/// Implicit form of [`balanced_binary_tree()`] (heap layout): neighbor
/// order `[parent, 2v+1, 2v+2]` clipped to range, matching the
/// generator's edge-insertion order so `materialize()` equals
/// `balanced_binary_tree(k)` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImplicitTree {
    /// Number of nodes.
    pub k: usize,
}

impl ImplicitTopology for ImplicitTree {
    fn node_count(&self) -> usize {
        self.k
    }

    fn max_degree(&self) -> usize {
        match self.k {
            0 | 1 => 0,
            2 => 1,
            3 => 2,
            _ => 3,
        }
    }

    fn neighbors<'a>(&'a self, v: NodeId, buf: &'a mut Vec<NodeId>) -> &'a [NodeId] {
        buf.clear();
        if v > 0 {
            buf.push((v - 1) / 2);
        }
        for child in [2 * v + 1, 2 * v + 2] {
            if child < self.k {
                buf.push(child);
            }
        }
        buf
    }
}

/// Catalogue of named topologies, used by experiment harnesses to sweep
/// uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// [`line()`] — maximal diameter `k−1`.
    Line,
    /// [`ring`] — diameter `⌊k/2⌋`.
    Ring,
    /// [`star`] — diameter 2.
    Star,
    /// [`balanced_binary_tree`] — diameter `Θ(log k)`.
    Tree,
    /// Square-ish [`grid`] — diameter `Θ(√k)`.
    Grid,
    /// [`connected_erdos_renyi`] with `p = 2 ln k / k` — diameter
    /// `Θ(log k)` w.h.p.
    ErdosRenyi,
}

impl Topology {
    /// All catalogue topologies.
    pub const ALL: [Topology; 6] = [
        Topology::Line,
        Topology::Ring,
        Topology::Star,
        Topology::Tree,
        Topology::Grid,
        Topology::ErdosRenyi,
    ];

    /// Short machine-friendly name.
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Line => "line",
            Topology::Ring => "ring",
            Topology::Star => "star",
            Topology::Tree => "tree",
            Topology::Grid => "grid",
            Topology::ErdosRenyi => "erdos-renyi",
        }
    }

    /// Instantiates the topology on (roughly) `k` nodes — the grid
    /// rounds `k` down to a full rectangle.
    pub fn instantiate<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> Graph {
        match self {
            Topology::Line => line(k),
            Topology::Ring => ring(k.max(3)),
            Topology::Star => star(k.max(2)),
            Topology::Tree => balanced_binary_tree(k),
            Topology::Grid => {
                let side = (k as f64).sqrt().floor().max(1.0) as usize;
                grid(side, k / side)
            }
            Topology::ErdosRenyi => {
                let p = (2.0 * (k.max(2) as f64).ln() / k.max(2) as f64).min(1.0);
                connected_erdos_renyi(k, p, rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn line_shape() {
        let g = line(5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.diameter(), 4);
        assert!(g.is_connected());
    }

    #[test]
    fn ring_shape() {
        let g = ring(8);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(g.diameter(), 4);
        assert!(g.neighbors(0).contains(&7));
    }

    #[test]
    fn star_shape() {
        let g = star(10);
        assert_eq!(g.edge_count(), 9);
        assert_eq!(g.degree(0), 9);
        assert_eq!(g.diameter(), 2);
    }

    #[test]
    fn complete_shape() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.diameter(), 1);
    }

    #[test]
    fn bridged_cliques_shape() {
        let g = bridged_cliques(10);
        assert_eq!(g.node_count(), 10);
        // Two K5s plus the bridge.
        assert_eq!(g.edge_count(), 2 * 10 + 1);
        assert!(g.is_connected());
        assert_eq!(g.degree(0), 5); // clique-internal 4 + bridge
        assert_eq!(g.degree(5), 5);
        assert_eq!(g.degree(1), 4);
        assert_eq!(g.diameter(), 3);
    }

    #[test]
    fn bridged_cliques_odd_split() {
        let g = bridged_cliques(7);
        assert_eq!(g.node_count(), 7);
        // K4 (6 edges) + K3 (3 edges) + bridge.
        assert_eq!(g.edge_count(), 10);
        assert!(g.is_connected());
    }

    #[test]
    #[should_panic(expected = "bridged_cliques needs k >= 4")]
    fn bridged_cliques_too_small_panics() {
        let _ = bridged_cliques(3);
    }

    #[test]
    fn tree_shape() {
        let g = balanced_binary_tree(15);
        assert_eq!(g.edge_count(), 14);
        assert!(g.is_connected());
        // Depth 3 full tree: diameter 6 (leaf to leaf).
        assert_eq!(g.diameter(), 6);
    }

    #[test]
    fn grid_shape() {
        let g = grid(4, 5);
        assert_eq!(g.node_count(), 20);
        assert_eq!(g.edge_count(), 4 * 4 + 3 * 5);
        assert_eq!(g.diameter(), 3 + 4);
    }

    #[test]
    fn erdos_renyi_always_connected() {
        let mut rng = StdRng::seed_from_u64(1);
        for k in [5usize, 20, 100] {
            // Even far below the connectivity threshold, stitching keeps
            // the output connected.
            let g = connected_erdos_renyi(k, 0.01, &mut rng);
            assert!(g.is_connected(), "k={k} disconnected");
        }
    }

    #[test]
    fn erdos_renyi_density_tracks_p() {
        let mut rng = StdRng::seed_from_u64(2);
        let k = 200;
        let g = connected_erdos_renyi(k, 0.1, &mut rng);
        let expected = 0.1 * (k * (k - 1) / 2) as f64;
        let actual = g.edge_count() as f64;
        assert!(
            (actual - expected).abs() / expected < 0.2,
            "edges {actual} vs expected {expected}"
        );
    }

    #[test]
    fn catalogue_instantiates_connected() {
        let mut rng = StdRng::seed_from_u64(3);
        for t in Topology::ALL {
            let g = t.instantiate(64, &mut rng);
            assert!(g.is_connected(), "{} disconnected", t.name());
            assert!(g.node_count() >= 56, "{} too small", t.name());
        }
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn ring_too_small() {
        let _ = ring(2);
    }

    #[test]
    fn degenerate_sizes_are_valid_singletons() {
        assert_eq!(line(0).node_count(), 0);
        assert_eq!(line(1).node_count(), 1);
        let hub = star(1);
        assert_eq!(hub.node_count(), 1);
        assert_eq!(hub.edge_count(), 0);
        let k1 = complete(1);
        assert_eq!(k1.node_count(), 1);
        assert_eq!(k1.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least 1 node")]
    fn star_zero_panics() {
        let _ = star(0);
    }

    #[test]
    #[should_panic(expected = "at least 1x1")]
    fn grid_zero_dimension_panics() {
        let _ = grid(3, 0);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn grid_size_overflow_panics() {
        let _ = grid(usize::MAX, 2);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn complete_size_overflow_panics() {
        let _ = complete(usize::MAX);
    }

    #[test]
    fn implicit_line_ring_tree_match_generators() {
        for k in [0usize, 1, 2, 3, 5, 17] {
            assert_eq!(ImplicitLine { k }.materialize(), line(k), "line k={k}");
            assert_eq!(
                ImplicitTree { k }.materialize(),
                balanced_binary_tree(k),
                "tree k={k}"
            );
        }
        for k in [3usize, 4, 9, 32] {
            assert_eq!(ImplicitRing::new(k).materialize(), ring(k), "ring k={k}");
        }
    }

    #[test]
    fn torus_shape() {
        let t = Torus2d::new(4, 4);
        let g = t.materialize();
        assert_eq!(g.node_count(), 16);
        for v in 0..16 {
            assert_eq!(g.degree(v), 4, "node {v}");
        }
        assert_eq!(g.diameter(), 4);
    }

    #[test]
    fn torus_degenerate_dimensions() {
        // 1x1: a singleton, no self-loop.
        let g = Torus2d::new(1, 1).materialize();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
        // 2x2: wrap-around duplicates collapse, leaving a 4-cycle.
        let g = Torus2d::new(2, 2).materialize();
        assert_eq!(g.node_count(), 4);
        for v in 0..4 {
            assert_eq!(g.degree(v), 2, "node {v}");
        }
        // 1xN: a ring seen from one row.
        let g = Torus2d::new(1, 5).materialize();
        assert_eq!(g.edge_count(), 5);
        assert!(g.is_connected());
    }

    #[test]
    fn hypercube_shape() {
        let h = Hypercube::new(4);
        let g = h.materialize();
        assert_eq!(g.node_count(), 16);
        for v in 0..16 {
            assert_eq!(g.degree(v), 4, "node {v}");
        }
        assert_eq!(g.diameter(), 4);
        // dim 0: a singleton.
        assert_eq!(Hypercube::new(0).materialize().node_count(), 1);
    }

    #[test]
    fn expander_is_connected_and_symmetric() {
        for side in [1usize, 2, 3, 5, 8] {
            // materialize() validates symmetry + simplicity internally.
            let g = MargulisExpander::new(side).materialize();
            assert_eq!(g.node_count(), side * side);
            assert!(g.is_connected(), "side={side} disconnected");
            let bound = MargulisExpander::new(side).max_degree();
            for v in 0..g.node_count() {
                assert!(g.degree(v) <= bound, "side={side} node {v}");
            }
        }
    }

    #[test]
    fn implicit_max_degree_bounds_hold() {
        let topos: Vec<(Box<dyn Fn() -> Graph>, usize)> = vec![
            (
                Box::new(|| Torus2d::new(3, 7).materialize()),
                Torus2d::new(3, 7).max_degree(),
            ),
            (
                Box::new(|| Hypercube::new(5).materialize()),
                Hypercube::new(5).max_degree(),
            ),
            (
                Box::new(|| ImplicitLine { k: 9 }.materialize()),
                ImplicitLine { k: 9 }.max_degree(),
            ),
            (
                Box::new(|| ImplicitRing::new(6).materialize()),
                ImplicitRing::new(6).max_degree(),
            ),
            (
                Box::new(|| ImplicitTree { k: 12 }.materialize()),
                ImplicitTree { k: 12 }.max_degree(),
            ),
        ];
        for (build, bound) in topos {
            let g = build();
            for v in 0..g.node_count() {
                assert!(g.degree(v) <= bound);
            }
        }
    }
}
