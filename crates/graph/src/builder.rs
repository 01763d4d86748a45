//! Mutable builder for [`TemporalGraph`].

use crate::temporal::TemporalGraph;
use crate::types::{TemporalEdge, Timestamp, VertexId};

/// Accumulates edges and produces an immutable [`TemporalGraph`].
///
/// The builder accepts edges in any order; [`GraphBuilder::build`] sorts them
/// by `(timestamp, source, destination)` (attributes break remaining ties)
/// and assigns dense edge ids in that order. The vertex count is the maximum of any explicitly requested count
/// (see [`GraphBuilder::with_vertices`]) and `max endpoint + 1`.
///
/// # Example
/// ```
/// use pce_graph::GraphBuilder;
///
/// let g = GraphBuilder::new()
///     .add_edge(0, 1, 10)
///     .add_edge(1, 2, 20)
///     .add_edge(2, 0, 30)
///     .build();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 3);
/// ```
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    min_vertices: usize,
    edges: Vec<TemporalEdge>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder that guarantees at least `n` vertices in the built
    /// graph even if some of them end up isolated.
    pub fn with_vertices(n: usize) -> Self {
        Self {
            min_vertices: n,
            edges: Vec::new(),
        }
    }

    /// Creates a builder pre-populated with `edges` and at least `n` vertices.
    pub fn from_edges(n: usize, edges: Vec<TemporalEdge>) -> Self {
        Self {
            min_vertices: n,
            edges,
        }
    }

    /// Adds a directed temporal edge `src → dst` with timestamp `ts`.
    #[must_use]
    pub fn add_edge(mut self, src: VertexId, dst: VertexId, ts: Timestamp) -> Self {
        self.edges.push(TemporalEdge::new(src, dst, ts));
        self
    }

    /// Adds a directed edge with timestamp `0` (for non-temporal graphs).
    #[must_use]
    pub fn add_static_edge(self, src: VertexId, dst: VertexId) -> Self {
        self.add_edge(src, dst, 0)
    }

    /// Adds a directed temporal edge in place (non-consuming variant, handy
    /// inside loops).
    pub fn push_edge(&mut self, src: VertexId, dst: VertexId, ts: Timestamp) {
        self.edges.push(TemporalEdge::new(src, dst, ts));
    }

    /// Adds a fully-specified edge (including attributes) in place.
    pub fn push_attr_edge(&mut self, edge: TemporalEdge) {
        self.edges.push(edge);
    }

    /// Adds every edge from an iterator.
    #[must_use]
    pub fn extend_edges<I>(mut self, edges: I) -> Self
    where
        I: IntoIterator<Item = TemporalEdge>,
    {
        self.edges.extend(edges);
        self
    }

    /// Number of edges currently buffered.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if no edges have been added yet.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Finalises the builder into an immutable CSR graph.
    pub fn build(self) -> TemporalGraph {
        let Self {
            min_vertices,
            mut edges,
        } = self;
        let max_endpoint = edges
            .iter()
            .map(|e| e.src.max(e.dst) as usize + 1)
            .max()
            .unwrap_or(0);
        let n = min_vertices.max(max_endpoint);
        // Full edge order (attributes break ties) so graphs built from
        // attribute-distinct parallel edges are deterministic. Sorting on the
        // timestamp alone first, then each run of equal timestamps by the
        // full order, gives the same order as one full sort for less work.
        edges.sort_unstable_by_key(|e| e.ts);
        for tied in edges.chunk_by_mut(|a, b| a.ts == b.ts) {
            tied.sort_unstable();
        }
        TemporalGraph::from_parts(n, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_vertex_count_from_endpoints() {
        let g = GraphBuilder::new().add_edge(3, 7, 1).build();
        assert_eq!(g.num_vertices(), 8);
    }

    #[test]
    fn with_vertices_keeps_isolated_vertices() {
        let g = GraphBuilder::with_vertices(100).add_edge(0, 1, 1).build();
        assert_eq!(g.num_vertices(), 100);
    }

    #[test]
    fn build_sorts_edges_by_timestamp() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 30)
            .add_edge(1, 2, 10)
            .add_edge(2, 0, 20)
            .build();
        let ts: Vec<_> = g.edges().iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![10, 20, 30]);
    }

    /// The two-pass sort orders edges exactly as one full sort would, on
    /// seeded edges whose timestamps, endpoints and attributes all tie often.
    #[test]
    fn build_order_matches_a_full_sort() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let edges: Vec<TemporalEdge> = (0..500)
                .map(|_| {
                    TemporalEdge::with_attrs(
                        rng.gen_range(0..6),
                        rng.gen_range(0..6),
                        rng.gen_range(0..20),
                        rng.gen_range(0..4),
                        rng.gen_range(0..3u32) as u16,
                    )
                })
                .collect();
            let mut expected = edges.clone();
            expected.sort_unstable();
            let g = GraphBuilder::from_edges(0, edges).build();
            assert_eq!(g.edges(), &expected[..], "seed {seed}");
        }
    }

    #[test]
    fn push_and_extend() {
        let mut b = GraphBuilder::new();
        b.push_edge(0, 1, 1);
        b.push_edge(1, 0, 2);
        let b = b.extend_edges(vec![TemporalEdge::new(1, 2, 3), TemporalEdge::new(2, 1, 4)]);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        let g = b.build();
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn parallel_edges_are_preserved() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(0, 1, 2)
            .add_edge(0, 1, 2)
            .build();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_degree(0), 3);
    }

    #[test]
    fn static_edges_default_timestamp_zero() {
        let g = GraphBuilder::new().add_static_edge(0, 1).build();
        assert_eq!(g.edge(0).ts, 0);
    }
}
