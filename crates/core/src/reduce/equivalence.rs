//! Reduction by neighborhood equivalence (paper §IV.B).
//!
//! `u ≡ v` iff `nbr(u) \ {v} = nbr(v) \ {u}` — either identical open
//! neighborhoods (non-adjacent *false twins*) or identical closed
//! neighborhoods (adjacent *true twins*). Each class keeps one
//! representative carrying the class size as a multiplicity weight; the
//! index is then built with weighted path counting (internal vertices
//! multiply their weight — the adjustment the paper warns is needed to
//! avoid "grossly underestimated" counts).
//!
//! A shortest path between vertices of *different* classes visits at most
//! one member per class (twins share neighborhoods, so a second visit could
//! always be shortcut), which makes original shortest paths correspond
//! one-to-one to weighted reduced paths. Same-class pairs are answered
//! directly: true twins are adjacent (`dist 1, count 1`); false twins are
//! at distance 2 with one path per common (original) neighbor.
//!
//! One collapsing round is performed (false twins first, then true twins
//! among the remainder); iterating to a fixpoint would shrink further, but
//! a class could then hold twins of both kinds, and its same-class pairs
//! would lose the closed-form answers above.

use crate::label::Count;
use pspc_graph::{Graph, GraphBuilder, SpcAnswer, VertexId};
use std::collections::HashMap;

/// How a reduced vertex came to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClassKind {
    /// Not merged with anything.
    Singleton,
    /// Class of ≥ 2 vertices with identical open neighborhoods.
    FalseTwins,
    /// Class of ≥ 2 vertices with identical closed neighborhoods.
    TrueTwins,
}

/// Neighborhood-equivalence reduction with the mappings and weights needed
/// for exact original-pair queries.
#[derive(Clone, Debug)]
pub struct EquivalenceReduction {
    reduced_graph: Graph,
    /// original id -> reduced id
    rep_of: Vec<u32>,
    /// reduced id -> class multiplicity
    weights: Vec<Count>,
    /// reduced id -> class kind
    kinds: Vec<ClassKind>,
}

impl EquivalenceReduction {
    /// Computes one round of twin collapsing on `g`.
    pub fn reduce(g: &Graph) -> Self {
        let n = g.num_vertices();
        let mut class_of: Vec<u32> = vec![u32::MAX; n];
        let mut kinds: Vec<ClassKind> = Vec::new();
        let mut weights: Vec<Count> = Vec::new();
        let mut reps: Vec<VertexId> = Vec::new();

        // Pass 1: false twins — identical open neighborhoods (which implies
        // non-adjacency: u ∈ nbr(u) is impossible).
        let mut open: HashMap<&[VertexId], Vec<VertexId>> = HashMap::new();
        for v in 0..n as VertexId {
            if g.degree(v) > 0 {
                open.entry(g.neighbors(v)).or_default().push(v);
            }
        }
        let mut consumed = vec![false; n];
        let mut false_classes: Vec<Vec<VertexId>> =
            open.into_values().filter(|c| c.len() >= 2).collect();
        false_classes.sort_by_key(|c| c[0]); // deterministic class ids
        for members in &false_classes {
            let id = reps.len() as u32;
            for &m in members {
                class_of[m as usize] = id;
                consumed[m as usize] = true;
            }
            reps.push(members[0]);
            kinds.push(ClassKind::FalseTwins);
            weights.push(members.len() as Count);
        }

        // Pass 2: true twins among the remainder — identical closed
        // neighborhoods (which implies mutual adjacency).
        let mut closed: HashMap<Vec<VertexId>, Vec<VertexId>> = HashMap::new();
        for v in 0..n as VertexId {
            if consumed[v as usize] || g.degree(v) == 0 {
                continue;
            }
            let mut key: Vec<VertexId> = g.neighbors(v).to_vec();
            let pos = key.partition_point(|&x| x < v);
            key.insert(pos, v);
            closed.entry(key).or_default().push(v);
        }
        let mut true_classes: Vec<Vec<VertexId>> =
            closed.into_values().filter(|c| c.len() >= 2).collect();
        true_classes.sort_by_key(|c| c[0]);
        for members in &true_classes {
            let id = reps.len() as u32;
            for &m in members {
                class_of[m as usize] = id;
            }
            reps.push(members[0]);
            kinds.push(ClassKind::TrueTwins);
            weights.push(members.len() as Count);
        }

        // Singletons.
        for v in 0..n as VertexId {
            if class_of[v as usize] == u32::MAX {
                class_of[v as usize] = reps.len() as u32;
                reps.push(v);
                kinds.push(ClassKind::Singleton);
                weights.push(1);
            }
        }

        // Reduced graph: one vertex per class; intra-class edges dropped
        // (true-twin cliques — never on a shortest path between classes).
        let mut b = GraphBuilder::new().num_vertices(reps.len());
        for (u, v) in g.edges() {
            let (ru, rv) = (class_of[u as usize], class_of[v as usize]);
            if ru != rv {
                b.push_edge(ru, rv);
            }
        }
        EquivalenceReduction {
            reduced_graph: b.build(),
            rep_of: class_of,
            weights,
            kinds,
        }
    }

    /// The reduced graph to index (with [`EquivalenceReduction::weights`]).
    pub fn reduced_graph(&self) -> &Graph {
        &self.reduced_graph
    }

    /// Class multiplicities, indexed by reduced id.
    pub fn weights(&self) -> &[Count] {
        &self.weights
    }

    /// Reduced id of an original vertex.
    pub fn rep_of(&self, v: VertexId) -> u32 {
        self.rep_of[v as usize]
    }

    /// Number of reduced vertices.
    pub fn num_reduced(&self) -> usize {
        self.weights.len()
    }

    /// Answers `SPC(s, t)` for *original* vertices, delegating cross-class
    /// subqueries (reduced ids) to `reduced_query` — typically a weighted
    /// [`crate::SpcIndex`] built on [`EquivalenceReduction::reduced_graph`].
    pub fn query(
        &self,
        s: VertexId,
        t: VertexId,
        reduced_query: impl Fn(u32, u32) -> SpcAnswer,
    ) -> SpcAnswer {
        if s == t {
            return SpcAnswer { dist: 0, count: 1 };
        }
        let (rs, rt) = (self.rep_of(s), self.rep_of(t));
        if rs != rt {
            return reduced_query(rs, rt);
        }
        match self.kinds[rs as usize] {
            ClassKind::TrueTwins => SpcAnswer { dist: 1, count: 1 },
            ClassKind::FalseTwins => {
                // One path per original common neighbor = Σ weights of the
                // reduced neighbors of the class.
                let count: Count = self
                    .reduced_graph
                    .neighbors(rs)
                    .iter()
                    .map(|&x| self.weights[x as usize])
                    .fold(0, Count::saturating_add);
                if count == 0 {
                    SpcAnswer::UNREACHABLE
                } else {
                    SpcAnswer { dist: 2, count }
                }
            }
            ClassKind::Singleton => {
                unreachable!("distinct originals cannot share a singleton class")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_pspc_with_order, PspcConfig};
    use pspc_graph::spc_bfs::spc_pair;
    use pspc_order::OrderingStrategy;

    fn check_all_pairs(g: &Graph) -> EquivalenceReduction {
        let red = EquivalenceReduction::reduce(g);
        let rg = red.reduced_graph().clone();
        let order = OrderingStrategy::Degree.compute(&rg);
        let (idx, _) =
            build_pspc_with_order(&rg, order, Some(red.weights()), &PspcConfig::default());
        let n = g.num_vertices() as u32;
        for s in 0..n {
            for t in 0..n {
                let got = red.query(s, t, |a, b| idx.query(a, b));
                let want = spc_pair(g, s, t);
                assert_eq!(got, want, "mismatch at ({s},{t})");
            }
        }
        red
    }

    #[test]
    fn false_twins_collapse() {
        // 1 and 2 share neighborhood {0, 3}: false twins.
        let g = GraphBuilder::new()
            .edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
            .build();
        let red = check_all_pairs(&g);
        assert_eq!(red.num_reduced(), 4);
        assert_eq!(red.rep_of(1), red.rep_of(2));
    }

    #[test]
    fn true_twins_collapse() {
        // 0 and 1 adjacent with N[0] = N[1] = {0,1,2,3}.
        let g = GraphBuilder::new()
            .edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4)])
            .build();
        let red = check_all_pairs(&g);
        assert_eq!(red.rep_of(0), red.rep_of(1));
        assert_eq!(red.num_reduced(), 4);
    }

    #[test]
    fn star_leaves_are_false_twins() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (0, 2), (0, 3), (0, 4)])
            .build();
        let red = check_all_pairs(&g);
        // all 4 leaves share {0}
        assert_eq!(red.num_reduced(), 2);
        let leaf_class = red.rep_of(1);
        assert_eq!(red.weights()[leaf_class as usize], 4);
    }

    #[test]
    fn clique_members_are_true_twins() {
        let mut b = GraphBuilder::new();
        for u in 0..4u32 {
            for v in u + 1..4 {
                b.push_edge(u, v);
            }
        }
        let g = b.build();
        let red = check_all_pairs(&g);
        assert_eq!(red.num_reduced(), 1);
    }

    #[test]
    fn no_twins_graph_unchanged() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 3), (3, 4)])
            .build();
        let red = check_all_pairs(&g);
        assert_eq!(red.num_reduced(), 5);
        assert!(red.kinds.iter().all(|&k| k == ClassKind::Singleton));
    }

    #[test]
    fn isolated_vertices_stay_singletons() {
        let g = GraphBuilder::new().num_vertices(4).edge(0, 1).build();
        let red = check_all_pairs(&g);
        // 2 and 3 are isolated: same (empty) neighborhood but never merged,
        // so unreachable pairs stay unreachable.
        assert_ne!(red.rep_of(2), red.rep_of(3));
    }

    #[test]
    fn mixed_twins_and_diamond() {
        // diamond 0-{1,2}-3 plus pendant twins 4,5 on 3
        let g = GraphBuilder::new()
            .edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)])
            .build();
        check_all_pairs(&g);
    }

    #[test]
    fn weighted_counts_cross_twins() {
        // Two twin groups chained: {1,2} between 0 and 3, {4,5} between 3
        // and 6: spc(0,6) must be 2 * 2 = 4.
        let g = GraphBuilder::new()
            .edges([
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 6),
                (5, 6),
            ])
            .build();
        let red = check_all_pairs(&g);
        // classes: {1,2}, {4,5}, {0}, {3}, {6}
        assert_eq!(red.num_reduced(), 5);
        assert_eq!(red.rep_of(1), red.rep_of(2));
        assert_eq!(red.rep_of(4), red.rep_of(5));
    }
}
