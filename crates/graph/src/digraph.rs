//! The core directed graph data structure, stored in CSR form.

use crate::{EdgeId, GraphError, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// A directed edge (arc) with an integer capacity.
///
/// Capacity is the number of tokens the arc can carry in a single timestep
/// (paper §3.1: "any number of tokens, up to the capacity of the link, can
/// be transferred across a link in unit time").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Source node of the arc.
    pub src: NodeId,
    /// Destination node of the arc.
    pub dst: NodeId,
    /// Tokens per timestep the arc can carry. Always at least 1.
    pub capacity: u32,
}

/// Sentinel terminating the intrusive adjacency lists. An arc id of
/// `u32::MAX` is unreachable in practice (the arc arrays alone would need
/// > 48 GiB), so the sentinel cannot collide with a real arc.
const NIL: u32 = u32::MAX;

/// The lazily built compressed-sparse-row index: all arcs sorted by
/// endpoint with per-node offset ranges, in both directions. Within a
/// node's range, arcs appear in insertion order (the build is a stable
/// counting sort over ascending arc ids), matching the iteration order of
/// the old per-node `Vec<EdgeId>` adjacency exactly.
#[derive(Debug)]
struct CsrIndex {
    /// `out_start[v]..out_start[v + 1]` indexes `out_arcs` for node `v`.
    out_start: Vec<u32>,
    /// Arc ids grouped by source node, insertion order within a node.
    out_arcs: Vec<EdgeId>,
    /// `in_start[v]..in_start[v + 1]` indexes `in_arcs` for node `v`.
    in_start: Vec<u32>,
    /// Arc ids grouped by destination node, insertion order within a node.
    in_arcs: Vec<EdgeId>,
}

impl CsrIndex {
    fn out_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.out_start[v.index()] as usize..self.out_start[v.index() + 1] as usize
    }

    fn in_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.in_start[v.index()] as usize..self.in_start[v.index() + 1] as usize
    }
}

/// A simple, weighted, directed graph.
///
/// Nodes and edges are identified by dense indices ([`NodeId`], [`EdgeId`])
/// assigned in insertion order.
///
/// # Representation
///
/// Arcs live in flat struct-of-arrays storage (`arc_src` / `arc_dst` /
/// `arc_cap`, indexed by [`EdgeId`]) so capacity scans touch one dense
/// array. Adjacency queries are served from a compressed-sparse-row index
/// — all arc ids counting-sorted by endpoint, with per-node offset ranges
/// — built lazily on first query and cached until the next structural
/// mutation. During construction bursts the cache stays cold and duplicate
/// detection walks small intrusive linked lists threaded through the arc
/// arrays instead, so interleaving `add_edge` with `has_edge` (as the
/// generators do) never pays for an index rebuild.
///
/// Invariants:
///
/// - No self-loops (the OCD base graph is simple; self-arcs appear only in
///   the integer-program extension handled by `ocd-solver`).
/// - No parallel arcs: re-adding an arc sums its capacity into the existing
///   one and returns the existing [`EdgeId`].
/// - Every arc has capacity ≥ 1.
///
/// # Examples
///
/// ```
/// use ocd_graph::DiGraph;
///
/// let mut g = DiGraph::with_nodes(3);
/// let (a, b, c) = (g.node(0), g.node(1), g.node(2));
/// g.add_edge(a, b, 2).unwrap();
/// g.add_edge_symmetric(b, c, 5).unwrap();
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 3);
/// assert_eq!(g.in_capacity(c), 5);
/// assert_eq!(g.out_degree(b), 1);
/// ```
#[derive(Default)]
pub struct DiGraph {
    /// Source node of each arc, indexed by [`EdgeId`].
    arc_src: Vec<NodeId>,
    /// Destination node of each arc, indexed by [`EdgeId`].
    arc_dst: Vec<NodeId>,
    /// Capacity of each arc, indexed by [`EdgeId`].
    arc_cap: Vec<u32>,
    /// Head of each node's out-arc list (`NIL` = empty), newest first.
    first_out: Vec<u32>,
    /// Head of each node's in-arc list (`NIL` = empty), newest first.
    first_in: Vec<u32>,
    /// Next arc in the source node's out-list, indexed by arc.
    next_out: Vec<u32>,
    /// Next arc in the destination node's in-list, indexed by arc.
    next_in: Vec<u32>,
    /// Out-degree per node, maintained incrementally so degree queries and
    /// shorter-side duplicate scans never force an index build.
    out_deg: Vec<u32>,
    /// In-degree per node.
    in_deg: Vec<u32>,
    /// Lazily built CSR index; cleared by structural mutations. Capacity
    /// updates do not clear it (the index stores no capacities).
    csr: OnceLock<CsrIndex>,
}

/// Serialized form: node count plus the edge list. Adjacency and the CSR
/// index are derived, so deserialization rebuilds them — re-validating the
/// invariants and rejecting duplicate arcs outright (a duplicated arc in a
/// hand-edited file is a data error, not a request to merge capacities).
/// Serialization writes the same two fields straight from the graph.
#[derive(Deserialize)]
struct DiGraphRepr {
    node_count: usize,
    edges: Vec<Edge>,
}

impl Serialize for DiGraph {
    fn serialize<S: serde::Serializer + ?Sized>(&self, serializer: &mut S) -> Result<(), S::Error> {
        serializer.begin_map()?;
        serializer.serialize_field("node_count", &self.node_count())?;
        serializer.serialize_key("edges")?;
        serializer.collect_seq(self.edges())?;
        serializer.end_map()
    }
}

impl<'de> Deserialize<'de> for DiGraph {
    fn deserialize<D: serde::Deserializer<'de> + ?Sized>(
        deserializer: &mut D,
    ) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        let repr = DiGraphRepr::deserialize(deserializer)?;
        DiGraph::from_edges(repr.node_count, repr.edges)
            .map_err(|err| D::Error::custom(err.to_string()))
    }
}

impl Clone for DiGraph {
    fn clone(&self) -> Self {
        // The CSR cache is intentionally not cloned: the clone rebuilds it
        // on first query, keeping clones cheap and the cache un-shared.
        DiGraph {
            arc_src: self.arc_src.clone(),
            arc_dst: self.arc_dst.clone(),
            arc_cap: self.arc_cap.clone(),
            first_out: self.first_out.clone(),
            first_in: self.first_in.clone(),
            next_out: self.next_out.clone(),
            next_in: self.next_in.clone(),
            out_deg: self.out_deg.clone(),
            in_deg: self.in_deg.clone(),
            csr: OnceLock::new(),
        }
    }
}

impl DiGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        DiGraph::default()
    }

    /// Creates a graph with `n` nodes and no edges.
    #[must_use]
    pub fn with_nodes(n: usize) -> Self {
        DiGraph {
            first_out: vec![NIL; n],
            first_in: vec![NIL; n],
            out_deg: vec![0; n],
            in_deg: vec![0; n],
            ..DiGraph::default()
        }
    }

    /// Builds a graph from a node count and an edge list, validating every
    /// arc and rejecting duplicates (unlike [`DiGraph::add_edge`], which
    /// merges them). Storage is reserved up front, so construction is
    /// `O(n + Σ min-degree)` with no reallocation.
    ///
    /// # Errors
    ///
    /// Returns the usual per-arc errors (out-of-bounds, self-loop, zero
    /// capacity) and [`GraphError::DuplicateArc`] if the same `(src, dst)`
    /// pair appears twice.
    pub fn from_edges(
        node_count: usize,
        edges: impl IntoIterator<Item = Edge>,
    ) -> Result<Self, GraphError> {
        let edges = edges.into_iter();
        let mut g = DiGraph::with_nodes(node_count);
        let (lower, _) = edges.size_hint();
        g.reserve_edges(lower);
        for e in edges {
            g.check_arc(e.src, e.dst, e.capacity)?;
            if g.find_edge(e.src, e.dst).is_some() {
                return Err(GraphError::DuplicateArc {
                    src: e.src,
                    dst: e.dst,
                });
            }
            g.push_arc(e.src, e.dst, e.capacity);
        }
        Ok(g)
    }

    /// Reserves storage for at least `additional` more arcs.
    pub fn reserve_edges(&mut self, additional: usize) {
        self.arc_src.reserve(additional);
        self.arc_dst.reserve(additional);
        self.arc_cap.reserve(additional);
        self.next_out.reserve(additional);
        self.next_in.reserve(additional);
    }

    /// Adds a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::new(self.first_out.len());
        self.first_out.push(NIL);
        self.first_in.push(NIL);
        self.out_deg.push(0);
        self.in_deg.push(0);
        self.csr.take();
        id
    }

    /// Adds `n` new isolated nodes and returns their ids in order.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node()).collect()
    }

    /// Returns the id of the node with raw index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.node_count()`.
    #[must_use]
    pub fn node(&self, index: usize) -> NodeId {
        assert!(
            index < self.node_count(),
            "node index {index} out of bounds (graph has {} nodes)",
            self.node_count()
        );
        NodeId::new(index)
    }

    /// Returns whether `node` is a valid id for this graph.
    #[must_use]
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.node_count()
    }

    fn check_node(&self, node: NodeId) -> Result<(), GraphError> {
        if self.contains_node(node) {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds {
                node,
                node_count: self.node_count(),
            })
        }
    }

    fn check_arc(&self, src: NodeId, dst: NodeId, capacity: u32) -> Result<(), GraphError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(GraphError::SelfLoop { node: src });
        }
        if capacity == 0 {
            return Err(GraphError::ZeroCapacity { src, dst });
        }
        Ok(())
    }

    /// Appends a pre-validated, known-absent arc.
    fn push_arc(&mut self, src: NodeId, dst: NodeId, capacity: u32) -> EdgeId {
        let id = EdgeId::new(self.arc_src.len());
        self.arc_src.push(src);
        self.arc_dst.push(dst);
        self.arc_cap.push(capacity);
        self.next_out.push(self.first_out[src.index()]);
        self.first_out[src.index()] = id.0;
        self.next_in.push(self.first_in[dst.index()]);
        self.first_in[dst.index()] = id.0;
        self.out_deg[src.index()] += 1;
        self.in_deg[dst.index()] += 1;
        self.csr.take();
        id
    }

    /// Adds a directed arc from `src` to `dst` with the given capacity.
    ///
    /// If the arc already exists, the capacities are summed (the paper's
    /// §3.1 rule for multi-arcs) and the existing id is returned.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if either endpoint does not
    /// exist, [`GraphError::SelfLoop`] if `src == dst`, and
    /// [`GraphError::ZeroCapacity`] if `capacity == 0`.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        capacity: u32,
    ) -> Result<EdgeId, GraphError> {
        self.check_arc(src, dst, capacity)?;
        if let Some(id) = self.find_edge(src, dst) {
            self.arc_cap[id.index()] += capacity;
            return Ok(id);
        }
        Ok(self.push_arc(src, dst, capacity))
    }

    /// Adds both `(u, v)` and `(v, u)` with the same capacity, modelling an
    /// undirected overlay link. Returns the two arc ids `(u→v, v→u)`.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`DiGraph::add_edge`].
    pub fn add_edge_symmetric(
        &mut self,
        u: NodeId,
        v: NodeId,
        capacity: u32,
    ) -> Result<(EdgeId, EdgeId), GraphError> {
        let forward = self.add_edge(u, v, capacity)?;
        let backward = self.add_edge(v, u, capacity)?;
        Ok((forward, backward))
    }

    /// Number of nodes in the graph.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.first_out.len()
    }

    /// Number of directed arcs in the graph.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.arc_src.len()
    }

    /// Returns the edge record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[must_use]
    pub fn edge(&self, id: EdgeId) -> Edge {
        Edge {
            src: self.arc_src[id.index()],
            dst: self.arc_dst[id.index()],
            capacity: self.arc_cap[id.index()],
        }
    }

    /// Capacity of arc `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[must_use]
    pub fn capacity(&self, id: EdgeId) -> u32 {
        self.arc_cap[id.index()]
    }

    /// Overwrites the capacity of arc `id`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ZeroCapacity`] if `capacity == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn set_capacity(&mut self, id: EdgeId, capacity: u32) -> Result<(), GraphError> {
        if capacity == 0 {
            return Err(GraphError::ZeroCapacity {
                src: self.arc_src[id.index()],
                dst: self.arc_dst[id.index()],
            });
        }
        self.arc_cap[id.index()] = capacity;
        Ok(())
    }

    /// The CSR index, built on first use after a structural mutation.
    fn csr(&self) -> &CsrIndex {
        self.csr.get_or_init(|| {
            let n = self.node_count();
            let (out_start, out_arcs) = Self::build_index(n, &self.arc_src);
            let (in_start, in_arcs) = Self::build_index(n, &self.arc_dst);
            CsrIndex {
                out_start,
                out_arcs,
                in_start,
                in_arcs,
            }
        })
    }

    /// Stable counting sort of all arc ids by `endpoints[arc]`: ascending
    /// arc id within each node, i.e. insertion order.
    fn build_index(n: usize, endpoints: &[NodeId]) -> (Vec<u32>, Vec<EdgeId>) {
        let mut start = vec![0u32; n + 1];
        for v in endpoints {
            start[v.index() + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut arcs = vec![EdgeId(0); endpoints.len()];
        let mut cursor: Vec<u32> = start[..n].to_vec();
        for (a, v) in endpoints.iter().enumerate() {
            arcs[cursor[v.index()] as usize] = EdgeId::new(a);
            cursor[v.index()] += 1;
        }
        (start, arcs)
    }

    /// Looks up the arc from `src` to `dst`, if present. Scans the sparser
    /// endpoint's adjacency (`O(min(out-degree, in-degree))`), through the
    /// CSR index when it is warm or the intrusive lists while mutating.
    #[must_use]
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        if !self.contains_node(src) || !self.contains_node(dst) {
            return None;
        }
        if self.out_deg[src.index()] <= self.in_deg[dst.index()] {
            if let Some(csr) = self.csr.get() {
                csr.out_arcs[csr.out_range(src)]
                    .iter()
                    .copied()
                    .find(|&e| self.arc_dst[e.index()] == dst)
            } else {
                let mut a = self.first_out[src.index()];
                while a != NIL {
                    if self.arc_dst[a as usize] == dst {
                        return Some(EdgeId(a));
                    }
                    a = self.next_out[a as usize];
                }
                None
            }
        } else if let Some(csr) = self.csr.get() {
            csr.in_arcs[csr.in_range(dst)]
                .iter()
                .copied()
                .find(|&e| self.arc_src[e.index()] == src)
        } else {
            let mut a = self.first_in[dst.index()];
            while a != NIL {
                if self.arc_src[a as usize] == src {
                    return Some(EdgeId(a));
                }
                a = self.next_in[a as usize];
            }
            None
        }
    }

    /// Returns whether an arc from `src` to `dst` exists.
    #[must_use]
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.find_edge(src, dst).is_some()
    }

    /// Iterates over all node ids in index order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Iterates over all edge ids in insertion order.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edge_count()).map(EdgeId::new)
    }

    /// Iterates over all edges in insertion order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = Edge> + '_ {
        self.edge_ids().map(|e| self.edge(e))
    }

    /// Ids of arcs leaving `v`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn out_edges(&self, v: NodeId) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        let csr = self.csr();
        csr.out_arcs[csr.out_range(v)].iter().copied()
    }

    /// Ids of arcs entering `v`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn in_edges(&self, v: NodeId) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        let csr = self.csr();
        csr.in_arcs[csr.in_range(v)].iter().copied()
    }

    /// Nodes reachable from `v` along a single arc.
    pub fn out_neighbors(&self, v: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.out_edges(v).map(|e| self.arc_dst[e.index()])
    }

    /// Nodes with a single arc into `v`.
    pub fn in_neighbors(&self, v: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.in_edges(v).map(|e| self.arc_src[e.index()])
    }

    /// Nodes adjacent to `v` in either direction, deduplicated, in
    /// ascending id order. This is the neighbour set used by the LOCD
    /// knowledge model (§4.1: information travels bidirectionally).
    #[must_use]
    pub fn neighbors_undirected(&self, v: NodeId) -> Vec<NodeId> {
        let mut all: Vec<NodeId> = self.out_neighbors(v).chain(self.in_neighbors(v)).collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Number of arcs leaving `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[must_use]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_deg[v.index()] as usize
    }

    /// Number of arcs entering `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[must_use]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_deg[v.index()] as usize
    }

    /// Total capacity of arcs entering `v` (tokens per timestep that `v`
    /// can receive). Used by the paper's `M_i(v)` lower bound (§5.1).
    #[must_use]
    pub fn in_capacity(&self, v: NodeId) -> u64 {
        self.in_edges(v)
            .map(|e| u64::from(self.arc_cap[e.index()]))
            .sum()
    }

    /// Total capacity of arcs leaving `v`.
    #[must_use]
    pub fn out_capacity(&self, v: NodeId) -> u64 {
        self.out_edges(v)
            .map(|e| u64::from(self.arc_cap[e.index()]))
            .sum()
    }

    /// Sum of all arc capacities.
    #[must_use]
    pub fn total_capacity(&self) -> u64 {
        self.arc_cap.iter().map(|&c| u64::from(c)).sum()
    }

    /// Estimated heap usage of the graph in bytes: arc storage, intrusive
    /// lists, degree arrays, and the CSR index if currently built. Used by
    /// the scale experiments' bytes-per-vertex column.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let arcs = self.arc_src.capacity() * size_of::<NodeId>()
            + self.arc_dst.capacity() * size_of::<NodeId>()
            + self.arc_cap.capacity() * size_of::<u32>()
            + self.next_out.capacity() * size_of::<u32>()
            + self.next_in.capacity() * size_of::<u32>();
        let nodes = self.first_out.capacity() * size_of::<u32>()
            + self.first_in.capacity() * size_of::<u32>()
            + self.out_deg.capacity() * size_of::<u32>()
            + self.in_deg.capacity() * size_of::<u32>();
        let csr = self.csr.get().map_or(0, |c| {
            c.out_start.capacity() * size_of::<u32>()
                + c.in_start.capacity() * size_of::<u32>()
                + c.out_arcs.capacity() * size_of::<EdgeId>()
                + c.in_arcs.capacity() * size_of::<EdgeId>()
        });
        arcs + nodes + csr
    }

    /// Returns the graph with every arc reversed (capacities preserved).
    #[must_use]
    pub fn reversed(&self) -> DiGraph {
        let mut g = DiGraph::with_nodes(self.node_count());
        g.reserve_edges(self.edge_count());
        for e in self.edges() {
            g.add_edge(e.dst, e.src, e.capacity)
                .expect("reversing a valid edge cannot fail");
        }
        g
    }

    /// Returns whether for every arc `(u, v)` the reverse arc `(v, u)` also
    /// exists (capacities may differ).
    #[must_use]
    pub fn is_symmetric(&self) -> bool {
        self.edges().all(|e| self.has_edge(e.dst, e.src))
    }
}

impl fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DiGraph {{ nodes: {}, edges: [", self.node_count())?;
        for e in self.edges() {
            writeln!(f, "  {} -> {} (cap {}),", e.src, e.dst, e.capacity)?;
        }
        write!(f, "] }}")
    }
}

impl PartialEq for DiGraph {
    fn eq(&self, other: &Self) -> bool {
        self.node_count() == other.node_count()
            && self.arc_src == other.arc_src
            && self.arc_dst == other.arc_dst
            && self.arc_cap == other.arc_cap
    }
}

impl Eq for DiGraph {}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (DiGraph, NodeId, NodeId, NodeId) {
        let mut g = DiGraph::with_nodes(3);
        let (a, b, c) = (g.node(0), g.node(1), g.node(2));
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(b, c, 2).unwrap();
        g.add_edge(c, a, 3).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.total_capacity(), 0);
    }

    #[test]
    fn add_nodes_assigns_dense_ids() {
        let mut g = DiGraph::new();
        let ids = g.add_nodes(4);
        assert_eq!(
            ids.iter().map(|n| n.index()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn parallel_arc_merges_capacity() {
        let mut g = DiGraph::with_nodes(2);
        let e1 = g.add_edge(g.node(0), g.node(1), 3).unwrap();
        let e2 = g.add_edge(g.node(0), g.node(1), 4).unwrap();
        assert_eq!(e1, e2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.capacity(e1), 7);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = DiGraph::with_nodes(1);
        let v = g.node(0);
        assert_eq!(g.add_edge(v, v, 1), Err(GraphError::SelfLoop { node: v }));
    }

    #[test]
    fn zero_capacity_rejected() {
        let mut g = DiGraph::with_nodes(2);
        let err = g.add_edge(g.node(0), g.node(1), 0).unwrap_err();
        assert!(matches!(err, GraphError::ZeroCapacity { .. }));
    }

    #[test]
    fn out_of_bounds_node_rejected() {
        let mut g = DiGraph::with_nodes(2);
        let bogus = NodeId::new(5);
        let err = g.add_edge(g.node(0), bogus, 1).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfBounds { .. }));
    }

    #[test]
    fn adjacency_is_consistent() {
        let (g, a, b, c) = triangle();
        assert_eq!(g.out_neighbors(a).collect::<Vec<_>>(), vec![b]);
        assert_eq!(g.in_neighbors(a).collect::<Vec<_>>(), vec![c]);
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(a), 1);
        assert_eq!(g.in_capacity(c), 2);
        assert_eq!(g.out_capacity(c), 3);
        assert_eq!(g.total_capacity(), 6);
    }

    #[test]
    fn csr_survives_interleaved_mutation() {
        // Query (forcing an index build), then mutate, then query again:
        // the rebuilt index must reflect the mutation.
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), 1).unwrap();
        assert_eq!(g.out_degree(g.node(0)), 1);
        assert_eq!(g.out_edges(g.node(0)).count(), 1);
        g.add_edge(g.node(0), g.node(2), 1).unwrap();
        g.add_edge(g.node(3), g.node(0), 1).unwrap();
        assert_eq!(
            g.out_neighbors(g.node(0)).collect::<Vec<_>>(),
            vec![g.node(1), g.node(2)],
            "insertion order within a node"
        );
        assert_eq!(
            g.in_neighbors(g.node(0)).collect::<Vec<_>>(),
            vec![g.node(3)]
        );
        assert_eq!(g.find_edge(g.node(0), g.node(2)), Some(EdgeId::new(1)));
    }

    #[test]
    fn out_edges_iterate_in_insertion_order() {
        let mut g = DiGraph::with_nodes(5);
        // Interleave sources so CSR grouping has to reorder arc ids.
        g.add_edge(g.node(2), g.node(0), 1).unwrap();
        g.add_edge(g.node(1), g.node(3), 1).unwrap();
        g.add_edge(g.node(2), g.node(4), 1).unwrap();
        g.add_edge(g.node(1), g.node(0), 1).unwrap();
        g.add_edge(g.node(2), g.node(3), 1).unwrap();
        let out2: Vec<usize> = g.out_edges(g.node(2)).map(|e| e.index()).collect();
        assert_eq!(out2, vec![0, 2, 4]);
        let out1: Vec<usize> = g.out_edges(g.node(1)).map(|e| e.index()).collect();
        assert_eq!(out1, vec![1, 3]);
        let in0: Vec<usize> = g.in_edges(g.node(0)).map(|e| e.index()).collect();
        assert_eq!(in0, vec![0, 3]);
    }

    #[test]
    fn neighbors_undirected_deduplicates() {
        let mut g = DiGraph::with_nodes(2);
        let (a, b) = (g.node(0), g.node(1));
        g.add_edge_symmetric(a, b, 1).unwrap();
        assert_eq!(g.neighbors_undirected(a), vec![b]);
    }

    #[test]
    fn find_edge_and_has_edge() {
        let (g, a, b, _) = triangle();
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
        let e = g.find_edge(a, b).unwrap();
        assert_eq!(g.edge(e).src, a);
        assert_eq!(g.edge(e).dst, b);
        assert_eq!(g.find_edge(a, NodeId::new(99)), None, "oob lookup is None");
    }

    #[test]
    fn reversed_swaps_direction() {
        let (g, a, b, _) = triangle();
        let r = g.reversed();
        assert!(r.has_edge(b, a));
        assert!(!r.has_edge(a, b));
        assert_eq!(r.edge_count(), g.edge_count());
        assert_eq!(r.total_capacity(), g.total_capacity());
    }

    #[test]
    fn symmetric_detection() {
        let (g, ..) = triangle();
        assert!(!g.is_symmetric());
        let mut s = DiGraph::with_nodes(2);
        s.add_edge_symmetric(s.node(0), s.node(1), 2).unwrap();
        assert!(s.is_symmetric());
    }

    #[test]
    fn set_capacity_updates_and_validates() {
        let (mut g, a, b, _) = triangle();
        let e = g.find_edge(a, b).unwrap();
        g.set_capacity(e, 9).unwrap();
        assert_eq!(g.capacity(e), 9);
        assert!(g.set_capacity(e, 0).is_err());
        assert_eq!(g.capacity(e), 9, "failed update must not clobber capacity");
    }

    #[test]
    fn memory_bytes_tracks_growth() {
        let empty = DiGraph::with_nodes(100);
        let mut g = DiGraph::with_nodes(100);
        for i in 1..100 {
            g.add_edge(g.node(0), g.node(i), 1).unwrap();
        }
        let _ = g.out_edges(g.node(0)); // build the CSR index too
        assert!(g.memory_bytes() > empty.memory_bytes());
    }

    #[test]
    fn serde_round_trip_preserves_lookup() {
        let (g, a, b, _) = triangle();
        let json = serde_json::to_string(&g).unwrap();
        let g2: DiGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, g2);
        assert_eq!(g2.find_edge(a, b), g.find_edge(a, b));
        assert_eq!(g2.out_neighbors(a).count(), g.out_neighbors(a).count());
    }

    #[test]
    fn serde_rejects_invalid_graphs() {
        // Self-loop smuggled into the serialized form.
        let bad = r#"{"node_count": 2, "edges": [{"src": 0, "dst": 0, "capacity": 1}]}"#;
        let err = serde_json::from_str::<DiGraph>(bad).unwrap_err();
        assert!(err.to_string().contains("self-loop"));
        let oob = r#"{"node_count": 1, "edges": [{"src": 0, "dst": 5, "capacity": 1}]}"#;
        assert!(serde_json::from_str::<DiGraph>(oob).is_err());
    }

    #[test]
    fn serde_rejects_duplicate_arcs() {
        // add_edge would merge these into capacity 3; a serialized file
        // carrying a duplicate arc is malformed and must be rejected.
        let dup = r#"{"node_count": 2, "edges": [
            {"src": 0, "dst": 1, "capacity": 1},
            {"src": 0, "dst": 1, "capacity": 2}
        ]}"#;
        let err = serde_json::from_str::<DiGraph>(dup).unwrap_err();
        assert!(err.to_string().contains("duplicate arc"), "{err}");
        // The reverse direction is a different arc, not a duplicate.
        let ok = r#"{"node_count": 2, "edges": [
            {"src": 0, "dst": 1, "capacity": 1},
            {"src": 1, "dst": 0, "capacity": 2}
        ]}"#;
        assert!(serde_json::from_str::<DiGraph>(ok).is_ok());
    }

    #[test]
    fn from_edges_validates_and_preserves_order() {
        let edges = vec![
            Edge {
                src: NodeId::new(0),
                dst: NodeId::new(1),
                capacity: 2,
            },
            Edge {
                src: NodeId::new(1),
                dst: NodeId::new(2),
                capacity: 3,
            },
        ];
        let g = DiGraph::from_edges(3, edges.clone()).unwrap();
        assert_eq!(g.edges().collect::<Vec<_>>(), edges);
        let dup = DiGraph::from_edges(3, edges.iter().copied().chain([edges[0]]));
        assert_eq!(
            dup.unwrap_err(),
            GraphError::DuplicateArc {
                src: NodeId::new(0),
                dst: NodeId::new(1),
            }
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn node_accessor_panics_out_of_bounds() {
        let g = DiGraph::with_nodes(1);
        let _ = g.node(1);
    }
}
