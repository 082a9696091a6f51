//! Immutable compressed-sparse-row (CSR) graph storage.
//!
//! The whole PSPC stack works on unweighted, undirected graphs (the paper's
//! setting, §II). Vertices are dense `u32` ids in `0..n`; adjacency lists are
//! stored sorted so that neighbor iteration is cache-friendly and membership
//! tests can binary-search.

use serde::{Deserialize, Serialize};

/// Vertex identifier. Dense, `0..n`.
pub type VertexId = u32;

/// An immutable undirected, unweighted graph in CSR form.
///
/// Construct via [`crate::builder::GraphBuilder`] (which deduplicates edges,
/// removes self-loops and symmetrizes), or [`Graph::from_csr_parts`] when the
/// invariants are already guaranteed.
///
/// Invariants:
/// * `offsets.len() == n + 1`, `offsets[0] == 0`, non-decreasing;
/// * `targets[offsets[v]..offsets[v+1]]` is the sorted, duplicate-free
///   neighbor list of `v`, never containing `v` itself;
/// * symmetry: `u ∈ nbr(v) ⇔ v ∈ nbr(u)`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
}

impl Graph {
    /// Builds a graph directly from CSR arrays.
    ///
    /// # Panics
    /// Panics (in debug builds, full validation; in release, cheap checks
    /// only) if the CSR invariants listed on [`Graph`] are violated.
    pub fn from_csr_parts(offsets: Vec<u64>, targets: Vec<VertexId>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have n+1 entries");
        assert_eq!(
            *offsets.last().unwrap() as usize,
            targets.len(),
            "last offset must equal the target-array length"
        );
        let g = Graph { offsets, targets };
        debug_assert!(g.validate().is_ok(), "{:?}", g.validate());
        g
    }

    /// Builds a graph from CSR arrays of untrusted origin (e.g. a binary
    /// snapshot), running full validation and returning an error instead
    /// of panicking on violated invariants.
    pub fn try_from_csr_parts(offsets: Vec<u64>, targets: Vec<VertexId>) -> Result<Self, String> {
        if offsets.is_empty() {
            return Err("offsets must have n+1 entries".into());
        }
        if *offsets.last().unwrap() as usize != targets.len() {
            return Err("last offset must equal the target-array length".into());
        }
        let g = Graph { offsets, targets };
        g.validate()?;
        Ok(g)
    }

    /// Number of vertices `n = |V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m = |E|` (each edge counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Number of directed arcs stored (`2m`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Average degree `2m / n` (0.0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_arcs() as f64 / self.num_vertices() as f64
        }
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Sorted neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Whether edge `(u, v)` exists. `O(log deg(u))`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u as usize >= self.num_vertices() || v as usize >= self.num_vertices() {
            return false;
        }
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over every undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices()
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v)
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Degree sequence indexed by vertex.
    pub fn degrees(&self) -> Vec<u32> {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v) as u32)
            .collect()
    }

    /// Returns a new graph with vertices relabeled so that old vertex
    /// `perm[i]` becomes new vertex `i` (i.e. `perm` lists old ids in new-id
    /// order).
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn relabel(&self, perm: &[VertexId]) -> Graph {
        let n = self.num_vertices();
        assert_eq!(perm.len(), n, "perm length must equal n");
        let mut inv = vec![VertexId::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            assert!(
                inv[old as usize] == VertexId::MAX,
                "perm contains duplicate id {old}"
            );
            inv[old as usize] = new as VertexId;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut targets = Vec::with_capacity(self.targets.len());
        for &old in perm {
            let mut row: Vec<VertexId> = self
                .neighbors(old)
                .iter()
                .map(|&w| inv[w as usize])
                .collect();
            row.sort_unstable();
            targets.extend_from_slice(&row);
            offsets.push(targets.len() as u64);
        }
        Graph { offsets, targets }
    }

    /// Induced subgraph on `keep` (sorted & deduplicated internally).
    ///
    /// Returns the subgraph plus the mapping `sub_id -> original_id`.
    pub fn induced_subgraph(&self, keep: &[VertexId]) -> (Graph, Vec<VertexId>) {
        let mut ids: Vec<VertexId> = keep.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let n = self.num_vertices();
        let mut map = vec![VertexId::MAX; n];
        for (sub, &orig) in ids.iter().enumerate() {
            map[orig as usize] = sub as VertexId;
        }
        let mut offsets = Vec::with_capacity(ids.len() + 1);
        offsets.push(0u64);
        let mut targets = Vec::new();
        for &orig in &ids {
            for &w in self.neighbors(orig) {
                let s = map[w as usize];
                if s != VertexId::MAX {
                    targets.push(s);
                }
            }
            // Neighbor lists remain sorted because `map` is monotone on `ids`.
            offsets.push(targets.len() as u64);
        }
        (Graph { offsets, targets }, ids)
    }

    /// Full structural validation of the CSR invariants, in O(n + m).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices();
        if self.offsets[0] != 0 {
            return Err("offsets[0] != 0".into());
        }
        if let Some(v) = (0..n).find(|&v| self.offsets[v] > self.offsets[v + 1]) {
            return Err(format!("offsets decrease at {v}"));
        }
        check_adjacency(n, |v| self.neighbors(v as VertexId))
    }

    /// Heap bytes used by the CSR arrays.
    pub fn size_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
    }
}

/// Checks `n` adjacency rows, `row(v)` for `v` in `0..n`, against the
/// [`Graph`] invariants: every row strictly sorted, in range and free of
/// self loops, and the rows symmetric.
///
/// Runs in O(n + m) with one cursor per row. Rows are visited in ascending
/// order, and the arc `(v, w)` must find `v` at row `w`'s cursor, which
/// then advances: in a symmetric graph every smaller entry `x` of row `w`
/// was consumed when row `x` was visited. A mismatch names the arc whose
/// reverse is missing — `(v, w)`, or `(w, x)` when the cursor is stuck on
/// an `x < v` that row `x` does not list back.
pub fn check_adjacency<'a>(n: usize, row: impl Fn(usize) -> &'a [VertexId]) -> Result<(), String> {
    let mut cursor = vec![0usize; n];
    for v in 0..n {
        let nb = row(v);
        if nb.windows(2).any(|p| p[0] >= p[1]) {
            return Err(format!("neighbors of {v} not strictly sorted"));
        }
        for &w in nb {
            if w as usize >= n {
                return Err(format!("vertex {v} has out-of-range neighbor {w}"));
            }
            if w as usize == v {
                return Err(format!("self loop at {v}"));
            }
            let c = &mut cursor[w as usize];
            match row(w as usize).get(*c) {
                Some(&x) if x as usize == v => *c += 1,
                Some(&x) if (x as usize) < v => {
                    return Err(format!("asymmetric edge ({w}, {x})"));
                }
                _ => return Err(format!("asymmetric edge ({v}, {w})")),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path3() -> Graph {
        GraphBuilder::new().edges([(0, 1), (1, 2)]).build()
    }

    #[test]
    fn basic_accessors() {
        let g = path3();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_arcs(), 4);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!((g.avg_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn edges_iterates_once_per_edge() {
        let g = path3();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn relabel_reverses() {
        let g = path3();
        // new 0 = old 2, new 1 = old 1, new 2 = old 0
        let r = g.relabel(&[2, 1, 0]);
        assert_eq!(r.neighbors(0), &[1]);
        assert_eq!(r.neighbors(1), &[0, 2]);
        assert!(r.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn relabel_rejects_non_permutation() {
        path3().relabel(&[0, 0, 1]);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
            .build();
        let (sub, ids) = g.induced_subgraph(&[0, 1, 2]);
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(sub.num_edges(), 3); // triangle 0-1-2 (0-2 chord kept)
        assert!(sub.validate().is_ok());
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().num_vertices(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn validate_detects_asymmetry() {
        let g = Graph {
            offsets: vec![0, 1, 1],
            targets: vec![1],
        };
        assert!(g.validate().is_err());

        // Row 2 is [0, 1, 3, 4]. Dropping its first, a middle or its last
        // entry leaves the reverse arc without a partner.
        let full = GraphBuilder::new()
            .edges([(2, 0), (2, 1), (2, 3), (2, 4), (0, 1), (3, 4)])
            .build();
        assert_eq!(full.neighbors(2), &[0, 1, 3, 4]);
        assert!(full.validate().is_ok());
        for (dropped, arc) in [(0, (0, 2)), (3, (3, 2)), (4, (4, 2))] {
            let mut offsets = vec![0u64];
            let mut targets = Vec::new();
            for v in full.vertices() {
                let row = full.neighbors(v).iter().copied();
                targets.extend(row.filter(|&w| (v, w) != (2, dropped)));
                offsets.push(targets.len() as u64);
            }
            let g = Graph { offsets, targets };
            assert_eq!(
                g.validate(),
                Err(format!("asymmetric edge ({}, {})", arc.0, arc.1)),
                "row 2 without {dropped}"
            );
        }
    }

    #[test]
    fn size_bytes_counts_arrays() {
        let g = path3();
        assert_eq!(g.size_bytes(), 4 * 8 + 4 * 4);
    }
}
