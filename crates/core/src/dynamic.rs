//! Incremental (insertion-only) 2-hop *distance* labeling — the dynamic
//! maintenance building block the paper surveys in §VI ("for the edge
//! insertion, a partial BFS for each affected hub is started from one of
//! the inserted-edge endpoints", after Akiba, Iwata & Yoshida, WWW 2014).
//!
//! Counts cannot be maintained this way: an inserted edge can change the
//! *number* of shortest paths between pairs whose distance is unchanged,
//! which stale entries would silently miscount — exactly why dynamic SPC
//! remains open (the paper's related-work discussion cites distance-only
//! and cycle-counting dynamic schemes). This module therefore maintains the
//! distance layer only: on `insert_edge(a, b)`, every hub of `a` resumes
//! its pruned BFS from `b` (and symmetrically), adding or tightening
//! entries. Stale longer-distance entries are left in place — they are
//! upper bounds, and the resumed BFS restores the cover, so the min-over-
//! common-hubs query stays exact.
//!
//! Use it to answer distance queries on an evolving graph between full
//! [`crate::SpcIndex`] rebuilds (which remain the way to refresh counts).
//!
//! The pruning probe of the BFS from hub `h` at vertex `v` asks whether the
//! current labels already certify `dist(h, v) ≤ d`. Of the PSPC builder's
//! two exact probe rules, one applies here:
//!
//! * **First witness.** The answer is yes iff *some* common hub `x` has
//!   `dist(h, x) + dist(x, v) ≤ d`, so the scan of `L(v)` stops at the
//!   first such `x`, each entry tested branch-free as
//!   `dist(h, x) + dist(x, v) < d + 1` ([`DistScratch::sum_below`]). Prune
//!   decisions are unchanged, and the labels depend on nothing else, so
//!   the index is the same.
//! * **Newest level** has no counterpart: the pruned BFS adds entries hub
//!   by hub rather than level by level, so no part of `L(v)` is known to
//!   be unable to witness.

use crate::scratch::DistScratch;
use pspc_graph::csr::check_adjacency;
use pspc_graph::{Graph, VertexId};
use pspc_order::{OrderingStrategy, VertexOrder};

/// A dynamic 2-hop distance index over an evolving undirected graph.
#[derive(Clone, Debug)]
pub struct DynamicDistanceIndex {
    order: VertexOrder,
    /// Mutable rank-space adjacency (sorted).
    adj: Vec<Vec<u32>>,
    /// Rank-space labels, each sorted by hub: `(hub, dist)`.
    labels: Vec<Vec<(u32, u16)>>,
    /// Entries added or tightened by insertions since construction.
    updated_entries: usize,
}

impl DynamicDistanceIndex {
    /// Builds the initial index by pruned BFS in rank order (distance-only
    /// pruned landmark labeling).
    pub fn build(g: &Graph, strategy: OrderingStrategy) -> Self {
        let order = strategy.compute(g);
        let n = g.num_vertices();
        let rg = g.relabel(order.order());
        let adj: Vec<Vec<u32>> = (0..n as u32).map(|v| rg.neighbors(v).to_vec()).collect();
        let mut idx = DynamicDistanceIndex {
            order,
            adj,
            labels: vec![Vec::new(); n],
            updated_entries: 0,
        };
        let mut scratch = DistScratch::new(n);
        for h in 0..n as u32 {
            idx.labels[h as usize].push((h, 0));
            // Seed with h's lower-ranked neighbors at distance 1 (seeding
            // with h itself would be self-pruned by its own fresh entry).
            let seeds: Vec<(u32, u16)> = idx.adj[h as usize]
                .iter()
                .copied()
                .filter(|&w| w > h)
                .map(|w| (w, 1))
                .collect();
            idx.resume_bfs(h, &seeds, &mut scratch);
        }
        idx.updated_entries = 0; // construction doesn't count as updates
        idx
    }

    /// Reassembles an index from its persisted parts (the snapshot load
    /// path — see `PSPCDYN2` in [`crate::serialize`]). Validates every
    /// structural invariant the query and insert paths rely on, so
    /// corrupt input errors here instead of panicking later.
    pub fn from_raw(
        order: VertexOrder,
        adj: Vec<Vec<u32>>,
        labels: Vec<Vec<(u32, u16)>>,
    ) -> Result<Self, String> {
        let n = order.len();
        if adj.len() != n || labels.len() != n {
            return Err("adjacency/label row counts disagree with the order".into());
        }
        check_adjacency(n, |r| adj[r].as_slice()).map_err(|e| format!("adjacency: {e}"))?;
        for (r, row) in labels.iter().enumerate() {
            if row.windows(2).any(|w| w[0].0 >= w[1].0) {
                return Err(format!("rank {r}: label hubs not strictly sorted"));
            }
            if row.iter().any(|&(h, _)| h as usize > r) {
                return Err(format!("rank {r}: hub ranked below owner"));
            }
            match row.last() {
                Some(&(h, 0)) if h as usize == r => {}
                _ => return Err(format!("rank {r}: missing (r, 0) self entry")),
            }
        }
        Ok(DynamicDistanceIndex {
            order,
            adj,
            labels,
            updated_entries: 0,
        })
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Total label entries.
    pub fn num_entries(&self) -> usize {
        self.labels.iter().map(Vec::len).sum()
    }

    /// Undirected edges currently in the maintained adjacency.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// The vertex order the index was built under.
    pub fn order(&self) -> &VertexOrder {
        &self.order
    }

    /// Rank-space sorted adjacency of the vertex holding `rank`.
    pub fn adj_of_rank(&self, rank: u32) -> &[u32] {
        &self.adj[rank as usize]
    }

    /// Rank-space `(hub, dist)` label row of the vertex holding `rank`,
    /// sorted by hub.
    pub fn labels_of_rank(&self, rank: u32) -> &[(u32, u16)] {
        &self.labels[rank as usize]
    }

    /// Entries added or tightened by [`DynamicDistanceIndex::insert_edge`].
    pub fn updated_entries(&self) -> usize {
        self.updated_entries
    }

    /// Exact shortest distance between original vertices, `None` if
    /// disconnected.
    pub fn distance(&self, s: VertexId, t: VertexId) -> Option<u16> {
        self.distance_ranks(self.order.rank_of(s), self.order.rank_of(t))
    }

    /// Rank-space variant of [`DynamicDistanceIndex::distance`] for
    /// callers (the `pspc_service` engine) that translate ids to ranks
    /// once per batch.
    pub fn distance_ranks(&self, rs: u32, rt: u32) -> Option<u16> {
        if rs == rt {
            return Some(0);
        }
        let (a, b) = (&self.labels[rs as usize], &self.labels[rt as usize]);
        let (mut i, mut j) = (0usize, 0usize);
        let mut best = u32::MAX;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    best = best.min(a[i].1 as u32 + b[j].1 as u32);
                    i += 1;
                    j += 1;
                }
            }
        }
        (best != u32::MAX).then(|| best.min(u16::MAX as u32) as u16)
    }

    /// Inserts the undirected edge `(u, v)` (original ids, which must be
    /// `< num_vertices`) and repairs the labeling: each hub of either
    /// endpoint resumes its pruned BFS across the new edge. Duplicate and
    /// self-loop insertions are ignored. Returns whether a new edge was
    /// actually added.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        let (ru, rv) = (self.order.rank_of(u), self.order.rank_of(v));
        if let Err(pos) = self.adj[ru as usize].binary_search(&rv) {
            self.adj[ru as usize].insert(pos, rv);
        } else {
            return false; // already present
        }
        if let Err(pos) = self.adj[rv as usize].binary_search(&ru) {
            self.adj[rv as usize].insert(pos, ru);
        }
        let mut scratch = DistScratch::new(self.labels.len());
        // Hubs of u can now reach further through v, and vice versa. The
        // hub lists are cloned up front because the resumed BFS mutates
        // labels (possibly of u/v themselves).
        let hubs_u: Vec<(u32, u16)> = self.labels[ru as usize].clone();
        for &(h, dh) in &hubs_u {
            self.resume_bfs(h, &[(rv, dh.saturating_add(1))], &mut scratch);
        }
        let hubs_v: Vec<(u32, u16)> = self.labels[rv as usize].clone();
        for &(h, dh) in &hubs_v {
            self.resume_bfs(h, &[(ru, dh.saturating_add(1))], &mut scratch);
        }
        true
    }

    /// Adds or tightens the entry `(hub, d)` on rank `r`. Returns whether
    /// anything changed.
    fn upsert(&mut self, r: u32, hub: u32, d: u16) -> bool {
        let row = &mut self.labels[r as usize];
        match row.binary_search_by_key(&hub, |&(h, _)| h) {
            Ok(i) => {
                if row[i].1 > d {
                    row[i].1 = d;
                    self.updated_entries += 1;
                    true
                } else {
                    false
                }
            }
            Err(i) => {
                row.insert(i, (hub, d));
                self.updated_entries += 1;
                true
            }
        }
    }

    /// Pruned BFS of hub `h`, resumed from the given seed vertices.
    /// Restricted to vertices ranked below `h`; a vertex is pruned when the
    /// current labeling already certifies a distance `≤ d` via a
    /// higher-ranked hub (or via `h` itself).
    fn resume_bfs(&mut self, h: u32, seeds: &[(u32, u16)], scratch: &mut DistScratch) {
        scratch.clear();
        for &(hub, dist) in &self.labels[h as usize] {
            scratch.set(hub, dist);
        }
        // Frontier of (vertex, dist) pairs in nondecreasing dist order.
        let mut frontier: Vec<(u32, u16)> =
            seeds.iter().copied().filter(|&(v, _)| v >= h).collect();
        let mut next: Vec<(u32, u16)> = Vec::new();
        while !frontier.is_empty() {
            for &(v, d) in &frontier {
                // Query(h, v) ≤ d over the current labeling (h's label
                // loaded), decided at the first witness hub.
                let covered = self.labels[v as usize]
                    .iter()
                    .any(|&(hub, dv)| scratch.sum_below(hub, dv, d as u32 + 1));
                if covered {
                    continue; // already covered at least as tightly
                }
                if !self.upsert(v, h, d) {
                    continue;
                }
                for i in 0..self.adj[v as usize].len() {
                    let w = self.adj[v as usize][i];
                    if w > h {
                        next.push((w, d.saturating_add(1)));
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspc_graph::generators::erdos_renyi;
    use pspc_graph::traversal::bfs_distances;
    use pspc_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_all_distances(idx: &DynamicDistanceIndex, g: &Graph) {
        let n = g.num_vertices() as u32;
        for s in 0..n {
            let truth = bfs_distances(g, s);
            for t in 0..n {
                let want = (truth[t as usize] != u16::MAX).then_some(truth[t as usize]);
                assert_eq!(idx.distance(s, t), want, "({s},{t})");
            }
        }
    }

    #[test]
    fn static_build_is_exact() {
        let g = erdos_renyi(60, 140, 3);
        let idx = DynamicDistanceIndex::build(&g, OrderingStrategy::Degree);
        check_all_distances(&idx, &g);
    }

    #[test]
    fn single_insertion_shortens_path() {
        // Path 0-1-2-3-4; inserting (0,4) collapses the distance to 1.
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 3), (3, 4)])
            .build();
        let mut idx = DynamicDistanceIndex::build(&g, OrderingStrategy::Degree);
        assert_eq!(idx.distance(0, 4), Some(4));
        idx.insert_edge(0, 4);
        assert_eq!(idx.distance(0, 4), Some(1));
        assert_eq!(idx.distance(1, 4), Some(2));
        assert_eq!(idx.distance(1, 3), Some(2), "old distances survive");
        assert!(idx.updated_entries() > 0);
    }

    #[test]
    fn insertion_connects_components() {
        let g = GraphBuilder::new()
            .num_vertices(6)
            .edges([(0, 1), (1, 2), (3, 4), (4, 5)])
            .build();
        let mut idx = DynamicDistanceIndex::build(&g, OrderingStrategy::Degree);
        assert_eq!(idx.distance(0, 5), None);
        idx.insert_edge(2, 3);
        assert_eq!(idx.distance(0, 5), Some(5));
        assert_eq!(idx.distance(2, 3), Some(1));
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let g = GraphBuilder::new().edges([(0, 1), (1, 2)]).build();
        let mut idx = DynamicDistanceIndex::build(&g, OrderingStrategy::Degree);
        let before = idx.num_entries();
        assert!(!idx.insert_edge(0, 1));
        assert!(!idx.insert_edge(1, 1));
        assert_eq!(idx.num_entries(), before);
        assert!(idx.insert_edge(0, 2));
        assert_eq!(idx.num_edges(), 3);
    }

    #[test]
    fn from_raw_round_trips_and_validates() {
        let g = erdos_renyi(30, 60, 11);
        let idx = DynamicDistanceIndex::build(&g, OrderingStrategy::Degree);
        let n = idx.num_vertices() as u32;
        let adj: Vec<Vec<u32>> = (0..n).map(|r| idx.adj_of_rank(r).to_vec()).collect();
        let labels: Vec<Vec<(u32, u16)>> = (0..n).map(|r| idx.labels_of_rank(r).to_vec()).collect();
        let rebuilt =
            DynamicDistanceIndex::from_raw(idx.order().clone(), adj.clone(), labels.clone())
                .unwrap();
        check_all_distances(&rebuilt, &g);

        // Row-count mismatch.
        assert!(DynamicDistanceIndex::from_raw(
            idx.order().clone(),
            adj[1..].to_vec(),
            labels.clone()
        )
        .is_err());
        // Asymmetric adjacency.
        let mut bad_adj = adj.clone();
        if let Some(&w) = bad_adj[0].first() {
            let pos = bad_adj[w as usize].binary_search(&0).unwrap();
            bad_adj[w as usize].remove(pos);
            assert!(
                DynamicDistanceIndex::from_raw(idx.order().clone(), bad_adj, labels.clone())
                    .is_err()
            );
        }
        // Missing self entry.
        let mut bad_labels = labels.clone();
        bad_labels[0].pop();
        assert!(DynamicDistanceIndex::from_raw(idx.order().clone(), adj, bad_labels).is_err());
    }

    #[test]
    fn random_insertion_stream_stays_exact() {
        let mut rng = StdRng::seed_from_u64(17);
        let g = erdos_renyi(40, 70, 5);
        let mut idx = DynamicDistanceIndex::build(&g, OrderingStrategy::Degree);
        let mut b = GraphBuilder::new().num_vertices(40);
        for (u, v) in g.edges() {
            b.push_edge(u, v);
        }
        let mut current = g;
        for _ in 0..25 {
            let u = rng.gen_range(0..40u32);
            let v = rng.gen_range(0..40u32);
            if u == v {
                continue;
            }
            idx.insert_edge(u, v);
            b.push_edge(u, v);
            current = b.clone().build();
            check_all_distances(&idx, &current);
        }
        let _ = current;
    }
}
