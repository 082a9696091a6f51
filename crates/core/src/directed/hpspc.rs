//! Sequential directed HP-SPC: one forward and one backward pruned
//! counting BFS per vertex, in rank order.
//!
//! The forward BFS from hub `s` over out-arcs, restricted to lower-ranked
//! vertices, counts exactly the trough paths `s → u` and appends to
//! `Lin(u)`; the backward BFS (over in-arcs) counts trough paths `u → s`
//! and appends to `Lout(u)`. Pruning queries combine `Lout(s)`/`Lin(u)`
//! (forward) and `Lout(u)`/`Lin(s)` (backward) over the already-built
//! partial index, exactly as in the undirected case.

use super::DiSpcIndex;
use crate::label::{Count, IndexStats, LabelEntry, LabelSet};
use pspc_graph::digraph::DiGraph;
use pspc_graph::traversal::UNREACHABLE;
use pspc_order::VertexOrder;
use std::time::Instant;

/// Builds the directed index under the total-degree order.
pub fn build_di_hpspc(g: &DiGraph) -> DiSpcIndex {
    let t0 = Instant::now();
    let order = super::di_degree_order(g);
    let order_seconds = t0.elapsed().as_secs_f64();
    let mut idx = build_di_hpspc_with_order(g, order);
    idx.stats_mut().order_seconds = order_seconds;
    idx
}

/// Builds the directed index under a precomputed order.
pub fn build_di_hpspc_with_order(g: &DiGraph, order: VertexOrder) -> DiSpcIndex {
    assert_eq!(order.len(), g.num_vertices());
    let t0 = Instant::now();
    let rg = g.relabel(order.order());
    let n = rg.num_vertices();

    let mut lin: Vec<Vec<LabelEntry>> = vec![Vec::new(); n];
    let mut lout: Vec<Vec<LabelEntry>> = vec![Vec::new(); n];
    // Scratch reused across sources; reset via touch lists.
    let mut hub_dist = vec![UNREACHABLE; n];
    let mut dist = vec![UNREACHABLE; n];
    let mut count = vec![0 as Count; n];
    let mut touched: Vec<u32> = Vec::new();
    let mut frontier: Vec<u32> = Vec::new();
    let mut next: Vec<u32> = Vec::new();
    let mut discovered: Vec<u32> = Vec::new();

    for s in 0..n as u32 {
        lin[s as usize].push(LabelEntry {
            hub: s,
            dist: 0,
            count: 1,
        });
        lout[s as usize].push(LabelEntry {
            hub: s,
            dist: 0,
            count: 1,
        });

        // ---- Forward sweep: trough paths s -> u, labels into Lin(u).
        // Witness legs: dist(s->h) from Lout(s), dist(h->u) from Lin(u).
        for e in &lout[s as usize] {
            hub_dist[e.hub as usize] = e.dist;
        }
        dist[s as usize] = 0;
        count[s as usize] = 1;
        touched.push(s);
        frontier.clear();
        frontier.push(s);
        let mut d: u16 = 0;
        while !frontier.is_empty() {
            d += 1;
            for &u in &frontier {
                let cu = count[u as usize];
                for &v in rg.out_neighbors(u) {
                    if v < s {
                        continue;
                    }
                    if dist[v as usize] == UNREACHABLE {
                        dist[v as usize] = d;
                        count[v as usize] = cu;
                        touched.push(v);
                        discovered.push(v);
                    } else if dist[v as usize] == d {
                        count[v as usize] = count[v as usize].saturating_add(cu);
                    }
                }
            }
            next.clear();
            for &v in &discovered {
                // Pruned at the first hub witnessing a shorter s -> v path.
                let pruned = lin[v as usize].iter().any(|e| {
                    let ds = hub_dist[e.hub as usize];
                    ds != UNREACHABLE && (ds as u32 + e.dist as u32) < d as u32
                });
                if pruned {
                    continue;
                }
                lin[v as usize].push(LabelEntry {
                    hub: s,
                    dist: d,
                    count: count[v as usize],
                });
                next.push(v);
            }
            discovered.clear();
            std::mem::swap(&mut frontier, &mut next);
        }
        for e in &lout[s as usize] {
            hub_dist[e.hub as usize] = UNREACHABLE;
        }
        for &v in &touched {
            dist[v as usize] = UNREACHABLE;
            count[v as usize] = 0;
        }
        touched.clear();

        // ---- Backward sweep: trough paths u -> s, labels into Lout(u).
        // Witness legs: dist(u->h) from Lout(u), dist(h->s) from Lin(s).
        for e in &lin[s as usize] {
            hub_dist[e.hub as usize] = e.dist;
        }
        dist[s as usize] = 0;
        count[s as usize] = 1;
        touched.push(s);
        frontier.clear();
        frontier.push(s);
        let mut d: u16 = 0;
        while !frontier.is_empty() {
            d += 1;
            for &u in &frontier {
                let cu = count[u as usize];
                for &v in rg.in_neighbors(u) {
                    if v < s {
                        continue;
                    }
                    if dist[v as usize] == UNREACHABLE {
                        dist[v as usize] = d;
                        count[v as usize] = cu;
                        touched.push(v);
                        discovered.push(v);
                    } else if dist[v as usize] == d {
                        count[v as usize] = count[v as usize].saturating_add(cu);
                    }
                }
            }
            next.clear();
            for &v in &discovered {
                // Pruned at the first hub witnessing a shorter v -> s path.
                let pruned = lout[v as usize].iter().any(|e| {
                    let ds = hub_dist[e.hub as usize];
                    ds != UNREACHABLE && (e.dist as u32 + ds as u32) < d as u32
                });
                if pruned {
                    continue;
                }
                lout[v as usize].push(LabelEntry {
                    hub: s,
                    dist: d,
                    count: count[v as usize],
                });
                next.push(v);
            }
            discovered.clear();
            std::mem::swap(&mut frontier, &mut next);
        }
        for e in &lin[s as usize] {
            hub_dist[e.hub as usize] = UNREACHABLE;
        }
        for &v in &touched {
            dist[v as usize] = UNREACHABLE;
            count[v as usize] = 0;
        }
        touched.clear();
    }

    let lin: Vec<LabelSet> = lin.into_iter().map(LabelSet::from_entries).collect();
    let lout: Vec<LabelSet> = lout.into_iter().map(LabelSet::from_entries).collect();
    let stats = IndexStats {
        construction_seconds: t0.elapsed().as_secs_f64(),
        ..IndexStats::default()
    };
    DiSpcIndex::new(order, lin, lout, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspc_graph::digraph::{di_spc_pair, erdos_renyi_digraph, DiGraphBuilder};

    fn check_all_pairs(g: &DiGraph) {
        let idx = build_di_hpspc(g);
        let n = g.num_vertices() as u32;
        for s in 0..n {
            for t in 0..n {
                assert_eq!(idx.query(s, t), di_spc_pair(g, s, t), "mismatch ({s},{t})");
            }
        }
    }

    #[test]
    fn directed_diamond() {
        let g = DiGraphBuilder::new()
            .arcs([(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
            .build();
        check_all_pairs(&g);
    }

    #[test]
    fn asymmetric_reachability() {
        // A dag: 0 -> 1 -> 2, nothing back.
        let g = DiGraphBuilder::new().arcs([(0, 1), (1, 2)]).build();
        let idx = build_di_hpspc(&g);
        assert!(idx.query(0, 2).is_reachable());
        assert!(!idx.query(2, 0).is_reachable());
    }

    #[test]
    fn random_digraphs_exact() {
        for seed in 0..4u64 {
            let g = erdos_renyi_digraph(35, 180, seed);
            check_all_pairs(&g);
        }
    }

    #[test]
    fn directed_cycle_exact() {
        let g = DiGraphBuilder::new()
            .arcs((0..7u32).map(|i| (i, (i + 1) % 7)))
            .build();
        check_all_pairs(&g);
    }

    #[test]
    fn matches_undirected_index_on_symmetric_digraph() {
        use pspc_graph::digraph::from_undirected;
        let ug = pspc_graph::generators::erdos_renyi(40, 100, 3);
        let dg = from_undirected(&ug);
        let didx = build_di_hpspc(&dg);
        let uidx = crate::hpspc::build_hpspc(&ug, pspc_order::OrderingStrategy::Degree);
        for s in 0..40u32 {
            for t in 0..40u32 {
                assert_eq!(didx.query(s, t), uidx.query(s, t), "({s},{t})");
            }
        }
    }
}
