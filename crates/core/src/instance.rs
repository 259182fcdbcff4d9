//! OCD problem instances: a graph plus the *have* and *want* functions.

use crate::{NodeBudgets, Token, TokenSet};
use ocd_graph::{algo, DiGraph, NodeId};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// A complete OCD problem instance (§3.1): the weighted digraph
/// `G = (V, E)`, the token universe `T = {0, …, m-1}`, and per-vertex
/// have/want sets.
///
/// Construct with [`Instance::builder`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Instance {
    graph: DiGraph,
    num_tokens: usize,
    have: Vec<TokenSet>,
    want: Vec<TokenSet>,
    /// Optional per-vertex uplink/downlink budgets (the node-capacity
    /// regime). Omitted from JSON when absent so unbudgeted instances
    /// serialize exactly as before the field existed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    node_budgets: Option<NodeBudgets>,
}

/// Builder for [`Instance`].
///
/// # Examples
///
/// ```
/// use ocd_core::{Instance, Token};
/// use ocd_graph::generate::classic;
///
/// let g = classic::path(3, 1, true);
/// let instance = Instance::builder(g, 2)
///     .have(0, [Token::new(0), Token::new(1)])
///     .want_all_everywhere()
///     .build()
///     .unwrap();
/// assert!(instance.is_satisfiable());
/// assert_eq!(instance.total_deficiency(), 4); // vertices 1 and 2 × 2 tokens
/// ```
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    graph: DiGraph,
    num_tokens: usize,
    have: Vec<TokenSet>,
    want: Vec<TokenSet>,
    node_budgets: Option<NodeBudgets>,
    /// Vertices referenced by have/want calls that are not in the graph;
    /// reported at build() time so the fluent chain stays ergonomic.
    out_of_bounds: Vec<usize>,
}

/// Errors from [`InstanceBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InstanceError {
    /// A have/want assignment referenced a vertex not in the graph.
    VertexOutOfBounds {
        /// The offending vertex index.
        vertex: usize,
        /// Number of vertices in the graph.
        node_count: usize,
    },
    /// A token is wanted somewhere but initially possessed nowhere, so no
    /// schedule can ever deliver it.
    OrphanToken {
        /// The token nobody has.
        token: Token,
    },
    /// Attached [`NodeBudgets`] cover a different number of vertices
    /// than the graph has.
    BudgetsLengthMismatch {
        /// Vertices covered by the budgets.
        budgets: usize,
        /// Number of vertices in the graph.
        node_count: usize,
    },
    /// A have or want list does not hold one set per vertex (see
    /// [`Instance::check_shape`]).
    SetCount {
        /// `"have"` or `"want"`.
        list: &'static str,
        /// Sets in the list.
        sets: usize,
        /// Number of vertices in the graph.
        node_count: usize,
    },
    /// A have or want set is over a different token universe than the
    /// instance (see [`Instance::check_shape`]).
    Universe {
        /// `"have"` or `"want"`.
        list: &'static str,
        /// The vertex whose set is malformed.
        vertex: usize,
        /// The set's universe.
        universe: usize,
        /// The instance's token count.
        num_tokens: usize,
    },
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::VertexOutOfBounds { vertex, node_count } => {
                write!(
                    f,
                    "vertex {vertex} out of bounds for a graph with {node_count} nodes"
                )
            }
            InstanceError::OrphanToken { token } => {
                write!(f, "token {token} is wanted but no vertex initially has it")
            }
            InstanceError::BudgetsLengthMismatch {
                budgets,
                node_count,
            } => {
                write!(
                    f,
                    "node budgets cover {budgets} vertices but the graph has {node_count}"
                )
            }
            InstanceError::SetCount {
                list,
                sets,
                node_count,
            } => write!(
                f,
                "{list} list holds {sets} sets but the graph has {node_count} vertices"
            ),
            InstanceError::Universe {
                list,
                vertex,
                universe,
                num_tokens,
            } => write!(
                f,
                "{list} set of vertex {vertex} is over {universe} tokens but the instance has {num_tokens}"
            ),
        }
    }
}

impl Error for InstanceError {}

impl InstanceBuilder {
    /// Assigns `tokens` to vertex `vertex`'s initial *have* set
    /// (accumulative across calls).
    ///
    /// # Panics
    ///
    /// Panics if a token is outside the universe. Vertex bounds are
    /// checked at [`build`](Self::build) time.
    #[must_use]
    pub fn have(mut self, vertex: usize, tokens: impl IntoIterator<Item = Token>) -> Self {
        if vertex < self.have.len() {
            for t in tokens {
                self.have[vertex].insert(t);
            }
        } else {
            self.out_of_bounds.push(vertex);
        }
        self
    }

    /// Assigns `tokens` to vertex `vertex`'s *want* set (accumulative).
    #[must_use]
    pub fn want(mut self, vertex: usize, tokens: impl IntoIterator<Item = Token>) -> Self {
        if vertex < self.want.len() {
            for t in tokens {
                self.want[vertex].insert(t);
            }
        } else {
            self.out_of_bounds.push(vertex);
        }
        self
    }

    /// Replaces vertex `vertex`'s have set with an explicit [`TokenSet`].
    #[must_use]
    pub fn have_set(mut self, vertex: usize, tokens: TokenSet) -> Self {
        if vertex < self.have.len() {
            self.have[vertex] = tokens;
        } else {
            self.out_of_bounds.push(vertex);
        }
        self
    }

    /// Replaces vertex `vertex`'s want set with an explicit [`TokenSet`].
    #[must_use]
    pub fn want_set(mut self, vertex: usize, tokens: TokenSet) -> Self {
        if vertex < self.want.len() {
            self.want[vertex] = tokens;
        } else {
            self.out_of_bounds.push(vertex);
        }
        self
    }

    /// Makes every vertex want the entire token universe — the paper's
    /// baseline "single source distributes a file to all vertices".
    #[must_use]
    pub fn want_all_everywhere(mut self) -> Self {
        for w in &mut self.want {
            *w = TokenSet::full(self.num_tokens);
        }
        self
    }

    /// Attaches per-vertex uplink/downlink budgets (the node-capacity
    /// regime). Length is checked against the graph at
    /// [`build`](Self::build) time.
    #[must_use]
    pub fn node_budgets(mut self, budgets: NodeBudgets) -> Self {
        self.node_budgets = Some(budgets);
        self
    }

    /// Finalizes the instance.
    ///
    /// # Errors
    ///
    /// Returns [`InstanceError::VertexOutOfBounds`] if any assignment
    /// referenced a missing vertex, [`InstanceError::OrphanToken`] if
    /// some wanted token is possessed by no vertex (such an instance can
    /// never be satisfied, cf. §3.2 satisfiability), and
    /// [`InstanceError::BudgetsLengthMismatch`] if attached
    /// [`NodeBudgets`] do not cover exactly the graph's vertex set.
    pub fn build(self) -> Result<Instance, InstanceError> {
        if let Some(&vertex) = self.out_of_bounds.first() {
            return Err(InstanceError::VertexOutOfBounds {
                vertex,
                node_count: self.graph.node_count(),
            });
        }
        let mut all_have = TokenSet::new(self.num_tokens);
        let mut all_want = TokenSet::new(self.num_tokens);
        for h in &self.have {
            all_have.union_with(h);
        }
        for w in &self.want {
            all_want.union_with(w);
        }
        if let Some(token) = all_want.difference(&all_have).first() {
            return Err(InstanceError::OrphanToken { token });
        }
        if let Some(b) = &self.node_budgets {
            if b.len() != self.graph.node_count() {
                return Err(InstanceError::BudgetsLengthMismatch {
                    budgets: b.len(),
                    node_count: self.graph.node_count(),
                });
            }
        }
        Ok(Instance {
            graph: self.graph,
            num_tokens: self.num_tokens,
            have: self.have,
            want: self.want,
            node_budgets: self.node_budgets,
        })
    }
}

impl Instance {
    /// Starts building an instance over `graph` with tokens
    /// `{0, …, num_tokens-1}`. All have/want sets start empty.
    #[must_use]
    pub fn builder(graph: DiGraph, num_tokens: usize) -> InstanceBuilder {
        let n = graph.node_count();
        InstanceBuilder {
            graph,
            num_tokens,
            have: vec![TokenSet::new(num_tokens); n],
            want: vec![TokenSet::new(num_tokens); n],
            node_budgets: None,
            out_of_bounds: Vec::new(),
        }
    }

    /// Checks the shape that deserialization cannot: one have and one
    /// want set per vertex, each over the instance's token universe.
    /// [`InstanceBuilder::build`] guarantees it; an instance read from
    /// JSON must pass this before anything indexes it.
    ///
    /// # Errors
    ///
    /// [`InstanceError::SetCount`] or [`InstanceError::Universe`] for the
    /// first malformed list.
    pub fn check_shape(&self) -> Result<(), InstanceError> {
        let node_count = self.graph.node_count();
        for (list, sets) in [("have", &self.have), ("want", &self.want)] {
            if sets.len() != node_count {
                return Err(InstanceError::SetCount {
                    list,
                    sets: sets.len(),
                    node_count,
                });
            }
            if let Some(vertex) = sets.iter().position(|s| s.universe() != self.num_tokens) {
                return Err(InstanceError::Universe {
                    list,
                    vertex,
                    universe: sets[vertex].universe(),
                    num_tokens: self.num_tokens,
                });
            }
        }
        Ok(())
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Size of the token universe, `m = |T|`.
    #[must_use]
    pub fn num_tokens(&self) -> usize {
        self.num_tokens
    }

    /// Per-vertex uplink/downlink budgets, if this instance is in the
    /// node-capacity regime. `None` means the pure §3.1 arc-capacitated
    /// model.
    #[must_use]
    pub fn node_budgets(&self) -> Option<&NodeBudgets> {
        self.node_budgets.as_ref()
    }

    /// Number of vertices, `n = |V|`.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.graph.node_count()
    }

    /// Initial possession `h(v)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[must_use]
    pub fn have(&self, v: NodeId) -> &TokenSet {
        &self.have[v.index()]
    }

    /// Target set `w(v)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[must_use]
    pub fn want(&self, v: NodeId) -> &TokenSet {
        &self.want[v.index()]
    }

    /// All initial possession sets, indexed by vertex.
    #[must_use]
    pub fn have_all(&self) -> &[TokenSet] {
        &self.have
    }

    /// All want sets, indexed by vertex.
    #[must_use]
    pub fn want_all(&self) -> &[TokenSet] {
        &self.want
    }

    /// Vertices that initially possess `token`.
    #[must_use]
    pub fn havers_of(&self, token: Token) -> Vec<NodeId> {
        self.graph
            .nodes()
            .filter(|&v| self.have[v.index()].contains(token))
            .collect()
    }

    /// Vertices that want `token` but do not initially possess it.
    #[must_use]
    pub fn needers_of(&self, token: Token) -> Vec<NodeId> {
        self.graph
            .nodes()
            .filter(|&v| {
                self.want[v.index()].contains(token) && !self.have[v.index()].contains(token)
            })
            .collect()
    }

    /// Tokens vertex `v` still needs: `w(v) \ h(v)`.
    #[must_use]
    pub fn deficiency(&self, v: NodeId) -> TokenSet {
        self.want[v.index()].difference(&self.have[v.index()])
    }

    /// Total number of (vertex, token) deliveries any successful schedule
    /// must make: `Σ_v |w(v) \ h(v)|`. This is the paper's simple
    /// remaining-bandwidth lower bound (§5.1).
    #[must_use]
    pub fn total_deficiency(&self) -> u64 {
        self.graph
            .nodes()
            .map(|v| self.want[v.index()].difference_len(&self.have[v.index()]) as u64)
            .sum()
    }

    /// Whether every want is already satisfied by the initial possession.
    #[must_use]
    pub fn is_trivially_satisfied(&self) -> bool {
        self.total_deficiency() == 0
    }

    /// Whether a successful schedule exists at all: every token must be
    /// able to *reach* every vertex that wants it, i.e. each needy vertex
    /// is reachable from some haver of the token (§3.2).
    #[must_use]
    pub fn is_satisfiable(&self) -> bool {
        for t in 0..self.num_tokens {
            let token = Token::new(t);
            let havers = self.havers_of(token);
            let needers = self.needers_of(token);
            if needers.is_empty() {
                continue;
            }
            if havers.is_empty() {
                return false;
            }
            let dist = algo::bfs_distances_multi(&self.graph, havers);
            if needers.iter().any(|v| dist[v.index()] == algo::UNREACHABLE) {
                return false;
            }
        }
        true
    }

    /// Summary statistics, useful for experiment logs.
    #[must_use]
    pub fn stats(&self) -> InstanceStats {
        InstanceStats {
            vertices: self.num_vertices(),
            arcs: self.graph.edge_count(),
            tokens: self.num_tokens,
            total_capacity: self.graph.total_capacity(),
            total_deficiency: self.total_deficiency(),
            receivers: self
                .graph
                .nodes()
                .filter(|&v| !self.deficiency(v).is_empty())
                .count(),
        }
    }
}

/// Summary counters describing an [`Instance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstanceStats {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of arcs.
    pub arcs: usize,
    /// Token universe size.
    pub tokens: usize,
    /// Sum of all arc capacities.
    pub total_capacity: u64,
    /// `Σ_v |w(v) \ h(v)|`.
    pub total_deficiency: u64,
    /// Vertices with non-empty deficiency.
    pub receivers: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocd_graph::generate::classic;

    fn tok(i: usize) -> Token {
        Token::new(i)
    }

    #[test]
    fn builder_happy_path() {
        let g = classic::path(3, 2, true);
        let inst = Instance::builder(g, 3)
            .have(0, [tok(0), tok(1)])
            .have(2, [tok(2)])
            .want(1, [tok(0), tok(2)])
            .build()
            .unwrap();
        assert_eq!(inst.num_tokens(), 3);
        assert_eq!(inst.num_vertices(), 3);
        assert_eq!(inst.have(inst.graph().node(0)).len(), 2);
        assert_eq!(inst.deficiency(inst.graph().node(1)).len(), 2);
        assert_eq!(inst.total_deficiency(), 2);
        assert!(inst.is_satisfiable());
        assert!(!inst.is_trivially_satisfied());
    }

    #[test]
    fn builder_rejects_out_of_bounds_vertex() {
        let g = classic::path(2, 1, true);
        let err = Instance::builder(g, 1)
            .have(5, [tok(0)])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            InstanceError::VertexOutOfBounds {
                vertex: 5,
                node_count: 2
            }
        );
    }

    #[test]
    fn builder_rejects_orphan_token() {
        let g = classic::path(2, 1, true);
        let err = Instance::builder(g, 2)
            .have(0, [tok(0)])
            .want(1, [tok(0), tok(1)])
            .build()
            .unwrap_err();
        assert_eq!(err, InstanceError::OrphanToken { token: tok(1) });
        assert!(err.to_string().contains("wanted but no vertex"));
    }

    #[test]
    fn unwanted_orphan_tokens_are_fine() {
        // Token 1 exists in the universe but nobody wants or has it.
        let g = classic::path(2, 1, true);
        let inst = Instance::builder(g, 2)
            .have(0, [tok(0)])
            .want(1, [tok(0)])
            .build()
            .unwrap();
        assert!(inst.is_satisfiable());
    }

    #[test]
    fn unreachable_wanter_is_unsatisfiable() {
        // 0 -> 1 only; 1 has the token, 0 wants it, but no arc 1 -> 0.
        let mut g = ocd_graph::DiGraph::with_nodes(2);
        g.add_edge(g.node(0), g.node(1), 1).unwrap();
        let inst = Instance::builder(g, 1)
            .have(1, [tok(0)])
            .want(0, [tok(0)])
            .build()
            .unwrap();
        assert!(!inst.is_satisfiable());
    }

    #[test]
    fn haver_wanting_its_own_token_is_satisfied() {
        let g = classic::path(2, 1, true);
        let inst = Instance::builder(g, 1)
            .have(0, [tok(0)])
            .want(0, [tok(0)])
            .build()
            .unwrap();
        assert!(inst.is_trivially_satisfied());
        assert!(inst.is_satisfiable());
        assert_eq!(inst.needers_of(tok(0)), vec![]);
    }

    #[test]
    fn want_all_everywhere_covers_all_vertices() {
        let g = classic::star(4, 1, true);
        let inst = Instance::builder(g, 2)
            .have(0, [tok(0), tok(1)])
            .want_all_everywhere()
            .build()
            .unwrap();
        assert_eq!(inst.total_deficiency(), 6);
        let s = inst.stats();
        assert_eq!(s.receivers, 3);
        assert_eq!(s.tokens, 2);
        assert_eq!(s.vertices, 4);
    }

    #[test]
    fn havers_and_needers() {
        let g = classic::path(3, 1, true);
        let inst = Instance::builder(g, 1)
            .have(0, [tok(0)])
            .have(1, [tok(0)])
            .want(2, [tok(0)])
            .build()
            .unwrap();
        assert_eq!(inst.havers_of(tok(0)).len(), 2);
        assert_eq!(inst.needers_of(tok(0)), vec![inst.graph().node(2)]);
    }

    #[test]
    fn have_set_and_want_set_replace() {
        let g = classic::path(2, 1, true);
        let inst = Instance::builder(g, 4)
            .have(0, [tok(0)])
            .have_set(0, TokenSet::from_range(4, 2..4))
            .want_set(1, TokenSet::from_range(4, 2..3))
            .build()
            .unwrap();
        // have_set replaced the earlier accumulation.
        assert!(!inst.have(inst.graph().node(0)).contains(tok(0)));
        assert!(inst.have(inst.graph().node(0)).contains(tok(2)));
        assert_eq!(inst.want(inst.graph().node(1)).len(), 1);
    }

    #[test]
    fn serde_round_trip() {
        let g = classic::cycle(3, 2, true);
        let inst = Instance::builder(g, 2)
            .have(0, [tok(0), tok(1)])
            .want_all_everywhere()
            .build()
            .unwrap();
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn unbudgeted_json_has_no_budget_field_and_old_json_still_parses() {
        let g = classic::path(2, 1, true);
        let inst = Instance::builder(g, 1)
            .have(0, [tok(0)])
            .want(1, [tok(0)])
            .build()
            .unwrap();
        let json = serde_json::to_string(&inst).unwrap();
        // Pre-budget serialization is preserved byte-for-byte: the
        // optional field is skipped when absent, so JSON written by
        // older versions parses and re-serializes identically.
        assert!(!json.contains("node_budgets"));
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(inst, back);
        assert!(back.node_budgets().is_none());
    }

    #[test]
    fn budgeted_instance_round_trips() {
        let g = classic::path(3, 2, true);
        let budgets = crate::NodeBudgets::server_peers(3, 2, 1);
        let inst = Instance::builder(g, 2)
            .have(0, [tok(0), tok(1)])
            .want_all_everywhere()
            .node_budgets(budgets.clone())
            .build()
            .unwrap();
        assert_eq!(inst.node_budgets(), Some(&budgets));
        let json = serde_json::to_string(&inst).unwrap();
        assert!(json.contains("node_budgets"));
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(inst, back);
        assert_eq!(back.node_budgets(), Some(&budgets));
    }

    #[test]
    fn builder_rejects_budget_length_mismatch() {
        let g = classic::path(3, 1, true);
        let err = Instance::builder(g, 1)
            .have(0, [tok(0)])
            .want(2, [tok(0)])
            .node_budgets(crate::NodeBudgets::uplink_only(2, 1))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            InstanceError::BudgetsLengthMismatch {
                budgets: 2,
                node_count: 3
            }
        );
        assert!(err.to_string().contains("cover 2 vertices"));
    }
}
