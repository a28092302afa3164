//! Compact architecture graphs.
//!
//! The result of flattening a nested [`crate::Architecture`]: a single
//! hierarchy of leaf layers with unique vertex ids and explicit edges —
//! the representation the providers store, scan for LCP queries, and key
//! owner maps by (§4.2).

use evostore_tensor::{ContentHash, Fnv128, VertexId};
use serde::{Deserialize, Serialize};

use crate::layer::{LayerConfig, TensorSpec};

/// One leaf-layer vertex of a compact graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompactVertex {
    /// The leaf layer configuration.
    pub config: LayerConfig,
    /// Cached structural signature of `config` (what LCP matches on).
    pub sig: ContentHash,
}

/// A flattened leaf-layer DAG with unique vertex ids.
///
/// Invariants (established by [`crate::flatten::flatten`]; a graph that
/// arrived off the wire has them only once [`CompactGraph::validate`] has
/// passed):
/// * vertex `0` is the unique source (the input layer) — the BFS root;
/// * every vertex is reachable from vertex `0`;
/// * the graph is acyclic and has no duplicate edge;
/// * `in_degree[v]` equals the number of edges ending at `v`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompactGraph {
    vertices: Vec<CompactVertex>,
    out_edges: Vec<Vec<u32>>,
    in_degree: Vec<u32>,
}

impl CompactGraph {
    /// Assemble a compact graph from parts. Intended for `flatten` and for
    /// tests; invariants are debug-asserted, not re-verified.
    pub(crate) fn from_parts(
        vertices: Vec<CompactVertex>,
        out_edges: Vec<Vec<u32>>,
        in_degree: Vec<u32>,
    ) -> CompactGraph {
        debug_assert_eq!(vertices.len(), out_edges.len());
        debug_assert_eq!(vertices.len(), in_degree.len());
        CompactGraph {
            vertices,
            out_edges,
            in_degree,
        }
    }

    /// Check the type's invariants in O(V + E). `Deserialize` is derived,
    /// so a graph decoded from a request carries whatever the sender
    /// wrote; [`crate::lcp::lcp`] and the cone hashes index by edge
    /// target and count in-degrees down, and panic on a graph that lies.
    /// Handlers call this before a decoded graph reaches either.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.vertices.len();
        if self.out_edges.len() != n || self.in_degree.len() != n {
            return Err(format!(
                "{n} vertices but {} edge lists and {} in-degrees",
                self.out_edges.len(),
                self.in_degree.len()
            ));
        }
        if n == 0 {
            return Ok(());
        }
        let mut counted = vec![0u32; n];
        // `last_from[t] == u + 1` once edge (u, t) has been seen.
        let mut last_from = vec![0u32; n];
        for (from, tos) in self.out_edges.iter().enumerate() {
            let mark = from as u32 + 1;
            for &to in tos {
                let Some(seen) = last_from.get_mut(to as usize) else {
                    return Err(format!("edge ({from},{to}) leaves the {n} vertices"));
                };
                if std::mem::replace(seen, mark) == mark {
                    return Err(format!("duplicate edge ({from},{to})"));
                }
                counted[to as usize] += 1;
            }
        }
        if counted != self.in_degree {
            return Err("in-degrees do not match the edge relation".into());
        }
        if let Some(v) = (1..n).find(|&v| counted[v] == 0) {
            return Err(format!("vertex {v} is a second source"));
        }
        if counted[0] != 0 {
            return Err("vertex 0 has an incoming edge".into());
        }
        // Kahn from the one source: an acyclic graph is consumed whole.
        let mut ready = vec![0u32];
        let mut ordered = 0usize;
        while let Some(u) = ready.pop() {
            ordered += 1;
            for &v in &self.out_edges[u as usize] {
                counted[v as usize] -= 1;
                if counted[v as usize] == 0 {
                    ready.push(v);
                }
            }
        }
        if ordered != n {
            return Err(format!("cycle: {} vertices are never ready", n - ordered));
        }
        Ok(())
    }

    /// Number of leaf-layer vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True when the graph has no vertices (never produced by `flatten`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The BFS root (input layer).
    #[inline]
    pub fn root(&self) -> VertexId {
        VertexId(0)
    }

    /// Vertex lookup.
    #[inline]
    pub fn vertex(&self, v: VertexId) -> &CompactVertex {
        &self.vertices[v.0 as usize]
    }

    /// Structural signature of vertex `v`.
    #[inline]
    pub fn sig(&self, v: VertexId) -> ContentHash {
        self.vertices[v.0 as usize].sig
    }

    /// Out-neighbors of `v`, in deterministic flattening order.
    #[inline]
    pub fn out(&self, v: VertexId) -> &[u32] {
        &self.out_edges[v.0 as usize]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> u32 {
        self.in_degree[v.0 as usize]
    }

    /// Iterate vertex ids in id order (which is BFS-discovery order).
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertices.len() as u32).map(VertexId)
    }

    /// All edges as `(from, to)` pairs.
    pub fn edge_list(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (from, tos) in self.out_edges.iter().enumerate() {
            for &to in tos {
                out.push((from as u32, to));
            }
        }
        out
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.out_edges.iter().map(Vec::len).sum()
    }

    /// Parameter tensor specs of vertex `v`.
    pub fn param_specs(&self, v: VertexId) -> Vec<TensorSpec> {
        self.vertex(v).config.param_specs()
    }

    /// Total parameter bytes over all vertices.
    pub fn total_param_bytes(&self) -> usize {
        self.vertices.iter().map(|v| v.config.param_bytes()).sum()
    }

    /// Parameter bytes restricted to a vertex subset (e.g. an LCP prefix).
    pub fn param_bytes_of(&self, subset: &[VertexId]) -> usize {
        subset
            .iter()
            .map(|&v| self.vertex(v).config.param_bytes())
            .sum()
    }

    /// Topological order (Kahn). The graph is acyclic by construction, so
    /// this always yields every vertex.
    pub fn topo_order(&self) -> Vec<VertexId> {
        let n = self.len();
        let mut indeg = self.in_degree.clone();
        let mut queue: std::collections::VecDeque<u32> =
            (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            order.push(VertexId(u));
            for &v in &self.out_edges[u as usize] {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    queue.push_back(v);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "cycle in a CompactGraph");
        order
    }

    /// Whole-graph structural signature: vertex signatures in id order plus
    /// the edge relation. Two graphs with equal `arch_signature` are the
    /// same architecture *as flattened* (used as the catalog key by the
    /// Redis baseline and for dedup bookkeeping).
    pub fn arch_signature(&self) -> ContentHash {
        let mut h = Fnv128::new();
        h.update_u64(self.vertices.len() as u64);
        for v in &self.vertices {
            h.update(&v.sig.0.to_le_bytes());
        }
        for (from, tos) in self.out_edges.iter().enumerate() {
            h.update_u32(from as u32);
            h.update_u64(tos.len() as u64);
            for &t in tos {
                h.update_u32(t);
            }
        }
        h.finish()
    }

    /// Serialize to JSON (the paper populates metadata catalogs with
    /// JSON-serialized architectures, §5.5).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("CompactGraph serializes infallibly")
    }

    /// Parse a graph serialized with [`CompactGraph::to_json`].
    pub fn from_json(s: &str) -> Result<CompactGraph, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Display-friendly single-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{} vertices, {} edges, {:.1} MB params",
            self.len(),
            self.edge_count(),
            self.total_param_bytes() as f64 / (1024.0 * 1024.0)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::flatten::flatten;
    use crate::layer::{Activation, LayerConfig, LayerKind};

    fn seq_model(units: &[u32]) -> CompactGraph {
        let mut a = Architecture::new("seq");
        let mut prev = a.add_layer(LayerConfig::new(
            "in",
            LayerKind::Input {
                shape: vec![units[0]],
            },
        ));
        let mut inf = units[0];
        for (i, &u) in units.iter().enumerate().skip(1) {
            prev = a.chain(
                prev,
                LayerConfig::new(
                    format!("d{i}"),
                    LayerKind::Dense {
                        in_features: inf,
                        units: u,
                        activation: Activation::ReLU,
                    },
                ),
            );
            inf = u;
        }
        flatten(&a).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = seq_model(&[4, 8, 2]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.root(), VertexId(0));
        assert_eq!(g.in_degree(VertexId(0)), 0);
        assert_eq!(g.in_degree(VertexId(1)), 1);
        assert!(!g.is_empty());
    }

    #[test]
    fn validate_accepts_flattened_graphs_and_names_each_defect() {
        let g = seq_model(&[4, 8, 2]);
        assert_eq!(g.validate(), Ok(()));
        let broken = |out_edges: Vec<Vec<u32>>, in_degree: Vec<u32>| {
            CompactGraph {
                vertices: g.vertices.clone(),
                out_edges,
                in_degree,
            }
            .validate()
            .unwrap_err()
        };
        let cases = [
            (vec![vec![1], vec![2]], vec![0, 1, 1], "edge lists"),
            (vec![vec![1], vec![7], vec![]], vec![0, 1, 1], "leaves"),
            (
                vec![vec![1, 1], vec![2], vec![]],
                vec![0, 2, 1],
                "duplicate",
            ),
            (vec![vec![1], vec![2], vec![]], vec![0, 1, 2], "in-degrees"),
            (
                vec![vec![1], vec![], vec![]],
                vec![0, 1, 0],
                "second source",
            ),
            (vec![vec![1], vec![2, 0], vec![]], vec![1, 1, 1], "vertex 0"),
            (vec![vec![1], vec![2], vec![1]], vec![0, 2, 1], "cycle"),
        ];
        for (out_edges, in_degree, what) in cases {
            let err = broken(out_edges, in_degree);
            assert!(err.contains(what), "expected `{what}` in `{err}`");
        }
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = seq_model(&[4, 8, 8, 2]);
        let order = g.topo_order();
        assert_eq!(order.len(), g.len());
        let pos: std::collections::HashMap<u32, usize> =
            order.iter().enumerate().map(|(i, v)| (v.0, i)).collect();
        for (a, b) in g.edge_list() {
            assert!(pos[&a] < pos[&b]);
        }
    }

    #[test]
    fn json_roundtrip() {
        let g = seq_model(&[4, 8, 2]);
        let j = g.to_json();
        let back = CompactGraph::from_json(&j).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.arch_signature(), g.arch_signature());
    }

    #[test]
    fn arch_signature_differs_for_different_widths() {
        let a = seq_model(&[4, 8, 2]);
        let b = seq_model(&[4, 9, 2]);
        assert_ne!(a.arch_signature(), b.arch_signature());
    }

    #[test]
    fn param_bytes_of_subset() {
        let g = seq_model(&[4, 8, 2]);
        let all: Vec<VertexId> = g.vertex_ids().collect();
        assert_eq!(g.param_bytes_of(&all), g.total_param_bytes());
        assert_eq!(g.param_bytes_of(&[VertexId(0)]), 0); // input layer
    }
}
