//! HP-SPC — the sequential state-of-the-art baseline (Zhang & Yu, SIGMOD
//! 2020) that PSPC is compared against in every experiment.
//!
//! The index is built by one pruned counting BFS per vertex, in rank order
//! (rank 0 first). The BFS from source `s` is restricted to vertices ranked
//! *below* `s`, so the paths it counts are exactly the trough paths with
//! peak `s`; the 2-hop query against the already-built labels prunes any
//! vertex whose true distance to `s` is shorter than the restricted BFS
//! distance (in that case no trough path through it can be shortest —
//! Theorem 1). A vertex reached at its true distance still receives a label
//! (the *non-canonical* case: only some shortest paths have peak `s`) and
//! keeps expanding.
//!
//! The rank-order pruning is what makes this construction order-dependent
//! (Lemma 1) and hence sequential — the motivation for PSPC.

use crate::common::{to_rank_space, weights_to_rank_space};
use crate::label::{Count, IndexStats, LabelEntry, LabelSet, SpcIndex};
use pspc_graph::traversal::UNREACHABLE;
use pspc_graph::Graph;
use pspc_order::{OrderingStrategy, VertexOrder};
use std::time::Instant;

/// Builds the HP-SPC index, computing the vertex order with `strategy`
/// (order time is recorded in the stats, as in the paper's Exp 1).
pub fn build_hpspc(g: &Graph, strategy: OrderingStrategy) -> SpcIndex {
    let t0 = Instant::now();
    let order = strategy.compute(g);
    let order_seconds = t0.elapsed().as_secs_f64();
    let mut idx = build_hpspc_with_order(g, order, None);
    idx.stats_mut().order_seconds = order_seconds;
    idx
}

/// Builds the HP-SPC index under a precomputed order; `weights` are
/// optional vertex multiplicities in *original* id space (equivalence
/// reduction support).
pub fn build_hpspc_with_order(
    g: &Graph,
    order: VertexOrder,
    weights: Option<&[Count]>,
) -> SpcIndex {
    assert_eq!(order.len(), g.num_vertices(), "order must cover the graph");
    let t0 = Instant::now();
    let rg = to_rank_space(g, &order);
    let n = rg.num_vertices();
    let rank_weights = weights.map(|w| weights_to_rank_space(&order, w));

    let mut labels: Vec<Vec<LabelEntry>> = vec![Vec::new(); n];
    // Scratch reused across sources; reset via touch lists.
    let mut hub_dist = vec![UNREACHABLE; n];
    let mut dist = vec![UNREACHABLE; n];
    let mut count = vec![0 as Count; n];
    let mut touched: Vec<u32> = Vec::new();
    let mut frontier: Vec<u32> = Vec::new();
    let mut next: Vec<u32> = Vec::new();
    let mut discovered: Vec<u32> = Vec::new();

    for s in 0..n as u32 {
        // Load the source's hub distances for O(1)-probe 2-hop queries.
        for e in &labels[s as usize] {
            hub_dist[e.hub as usize] = e.dist;
        }
        labels[s as usize].push(LabelEntry {
            hub: s,
            dist: 0,
            count: 1,
        });
        dist[s as usize] = 0;
        count[s as usize] = 1;
        touched.push(s);
        frontier.clear();
        frontier.push(s);
        let mut d: u16 = 0;
        while !frontier.is_empty() {
            d += 1;
            for &u in &frontier {
                // Extending through u makes it internal: apply multiplicity.
                let c_thru = match &rank_weights {
                    Some(w) if u != s => count[u as usize].saturating_mul(w[u as usize]),
                    _ => count[u as usize],
                };
                for &v in rg.neighbors(u) {
                    if v < s {
                        continue; // ranked above the source: never on a trough path
                    }
                    if dist[v as usize] == UNREACHABLE {
                        dist[v as usize] = d;
                        count[v as usize] = c_thru;
                        touched.push(v);
                        discovered.push(v);
                    } else if dist[v as usize] == d {
                        count[v as usize] = count[v as usize].saturating_add(c_thru);
                    }
                }
            }
            next.clear();
            for &v in &discovered {
                // Query(s, v, L_<s) < d, decided at the first common hub
                // ranked above s that witnesses a shorter path.
                let pruned = labels[v as usize].iter().any(|e| {
                    let ds = hub_dist[e.hub as usize];
                    ds != UNREACHABLE && (ds as u32 + e.dist as u32) < d as u32
                });
                if pruned {
                    continue; // no trough shortest path through v
                }
                labels[v as usize].push(LabelEntry {
                    hub: s,
                    dist: d,
                    count: count[v as usize],
                });
                next.push(v);
            }
            discovered.clear();
            std::mem::swap(&mut frontier, &mut next);
        }
        // Unload scratch.
        for e in &labels[s as usize] {
            hub_dist[e.hub as usize] = UNREACHABLE;
        }
        for &v in &touched {
            dist[v as usize] = UNREACHABLE;
            count[v as usize] = 0;
        }
        touched.clear();
    }

    let label_sets: Vec<LabelSet> = labels.into_iter().map(LabelSet::from_entries).collect();
    let stats = IndexStats {
        construction_seconds: t0.elapsed().as_secs_f64(),
        ..IndexStats::default()
    };
    SpcIndex::new(order, label_sets, rank_weights, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{figure2_graph, figure2_order};
    use pspc_graph::spc_bfs::spc_all_pairs;
    use pspc_graph::{GraphBuilder, SpcAnswer};

    /// Table II golden test: the index of Figure 2 must match the paper
    /// entry for entry.
    #[test]
    fn table2_labels_exact() {
        let g = figure2_graph();
        let o = figure2_order();
        let idx = build_hpspc_with_order(&g, o.clone(), None);
        // Expected labels per original vertex, written as (hub original id,
        // dist, count), transcribed from Table II (1-based -> 0-based).
        type Entry = (u32, u16, u64);
        let expect: Vec<(u32, Vec<Entry>)> = vec![
            (0, vec![(0, 0, 1)]),
            (
                1,
                vec![(0, 2, 2), (6, 2, 1), (3, 1, 1), (9, 1, 1), (1, 0, 1)],
            ),
            (2, vec![(0, 1, 1), (6, 2, 1), (2, 0, 1)]),
            (3, vec![(0, 1, 1), (6, 1, 1), (3, 0, 1)]),
            (4, vec![(0, 1, 1), (6, 1, 1), (4, 0, 1)]),
            (5, vec![(0, 2, 1), (6, 1, 1), (2, 1, 1), (5, 0, 1)]),
            (6, vec![(0, 2, 2), (6, 0, 1)]),
            (7, vec![(0, 3, 3), (6, 1, 1), (9, 2, 1), (7, 0, 1)]),
            (
                8,
                vec![
                    (0, 2, 1),
                    (6, 2, 1),
                    (3, 3, 1),
                    (9, 1, 1),
                    (7, 1, 1),
                    (8, 0, 1),
                ],
            ),
            (9, vec![(0, 1, 1), (6, 3, 2), (3, 2, 1), (9, 0, 1)]),
        ];
        for (v, entries) in expect {
            let ls = idx.labels_of_vertex(v);
            let mut got: Vec<(u32, u16, u64)> = ls
                .iter()
                .map(|e| (o.vertex_at(e.hub), e.dist, e.count))
                .collect();
            got.sort_unstable();
            let mut want = entries;
            want.sort_unstable();
            assert_eq!(got, want, "label mismatch at v{}", v + 1);
        }
        assert!(idx.validate().is_ok());
    }

    /// Example 1 of the paper, with its arithmetic slip corrected:
    /// SPC(v10, v7) = 4 shortest paths of length 3 (hub v1 contributes
    /// 1·2 at distance 1+2 and hub v7 contributes 2·1 at distance 3+0).
    #[test]
    fn example1_query() {
        let g = figure2_graph();
        let idx = build_hpspc_with_order(&g, figure2_order(), None);
        assert_eq!(idx.query(9, 6), SpcAnswer { dist: 3, count: 4 });
    }

    #[test]
    fn matches_brute_force_all_pairs() {
        let g = figure2_graph();
        let idx = build_hpspc(&g, OrderingStrategy::Degree);
        let truth = spc_all_pairs(&g);
        for s in 0..10u32 {
            for t in 0..10u32 {
                assert_eq!(
                    idx.query(s, t),
                    truth[s as usize][t as usize],
                    "mismatch at ({s},{t})"
                );
            }
        }
    }

    #[test]
    fn disconnected_graph_supported() {
        let g = GraphBuilder::new()
            .num_vertices(5)
            .edges([(0, 1), (2, 3)])
            .build();
        let idx = build_hpspc(&g, OrderingStrategy::Degree);
        assert!(idx.query(0, 1).is_reachable());
        assert!(!idx.query(0, 2).is_reachable());
        assert!(!idx.query(4, 0).is_reachable());
        assert_eq!(idx.query(4, 4), SpcAnswer { dist: 0, count: 1 });
    }

    #[test]
    fn weighted_counts_match_brute_force() {
        // diamond with an extra tail
        let g = GraphBuilder::new()
            .edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
            .build();
        let w: Vec<Count> = vec![1, 2, 3, 1, 1];
        let order = OrderingStrategy::Degree.compute(&g);
        let idx = build_hpspc_with_order(&g, order, Some(&w));
        for s in 0..5u32 {
            for t in 0..5u32 {
                if s == t {
                    continue;
                }
                let truth = pspc_graph::spc_bfs::spc_pair_weighted(&g, s, t, Some(&w));
                assert_eq!(idx.query(s, t), truth, "mismatch at ({s},{t})");
            }
        }
    }

    #[test]
    fn every_order_strategy_yields_correct_queries() {
        let g = pspc_graph::generators::erdos_renyi(40, 90, 11);
        let truth = spc_all_pairs(&g);
        for strategy in [
            OrderingStrategy::Degree,
            OrderingStrategy::TreeDecomposition,
            OrderingStrategy::SignificantPath,
            OrderingStrategy::Hybrid { delta: 3 },
        ] {
            let idx = build_hpspc(&g, strategy);
            for s in 0..40u32 {
                for t in 0..40u32 {
                    assert_eq!(
                        idx.query(s, t),
                        truth[s as usize][t as usize],
                        "{} mismatch at ({s},{t})",
                        strategy.name()
                    );
                }
            }
        }
    }
}
