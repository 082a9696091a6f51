//! Parallel directed PSPC: the distance-iteration construction of §III
//! applied to both label directions simultaneously.
//!
//! Iteration `d` derives, for every vertex `u` independently,
//!
//! * `Lin_d(u)` by pulling the level-`d−1` in-label entries of `u`'s
//!   **in**-neighbors (a trough path `w → u` of length `d` enters `u`
//!   through some in-neighbor at distance `d−1` from `w`), pruned by the
//!   forward 2-hop query `Lout(w) / Lin(u)` over the frozen snapshot;
//! * `Lout_d(u)` by pulling the level-`d−1` out-label entries of `u`'s
//!   **out**-neighbors, pruned by the backward query `Lout(u) / Lin(w)`.
//!
//! Both queries go through the undirected builder's `probe` under its two
//! exact rules:
//!
//! * **First witness.** A candidate is pruned iff *some* hub gives a path
//!   shorter than `d`, so the probe stops at the first one.
//! * **Newest level.** The level-`d−1` entries of the probed label
//!   (`Lout(w)` when extending `Lin`, `Lin(w)` when extending `Lout`) could
//!   only witness with `u` itself at distance 0. But hubs of either label
//!   of `w` rank at or above `w`, which ranks above `u`, so that level is
//!   skipped, using the *other* side's `prev_start`.
//!
//! The undirected builder's other two shortcuts stay out. Label
//! Elimination loads all of `u`'s own-side label, because the bound that
//! confines a duplicate hub to the two newest levels needs edges that run
//! both ways. With the full load, testing landmarks first would save
//! nothing, so elimination still comes first.
//!
//! Landmark filtering keeps two distance tables per landmark rank: forward
//! (BFS over out-arcs) for in-label pruning and backward (over in-arcs)
//! for out-label pruning. As in the undirected builder, all reads hit the
//! frozen snapshot and the result is deterministic for any thread count.

use super::DiSpcIndex;
use crate::builder::probe;
use crate::label::{IndexStats, LabelEntry, LabelSet};
use crate::scratch::{Workspace, WorkspacePool};
use pspc_graph::digraph::{di_bfs_backward_into, di_bfs_forward_into, DiGraph};
use pspc_graph::VertexId;
use pspc_order::VertexOrder;
use rayon::prelude::*;
use std::time::Instant;

/// Configuration of the directed builder (a deliberate subset of
/// [`crate::PspcConfig`] — pull paradigm, dynamic chunking).
#[derive(Clone, Debug)]
pub struct DiPspcConfig {
    /// Worker threads; 0 ⇒ all available.
    pub threads: usize,
    /// Landmark table pairs (0 disables).
    pub num_landmarks: usize,
}

impl Default for DiPspcConfig {
    fn default() -> Self {
        DiPspcConfig {
            threads: 0,
            num_landmarks: 100,
        }
    }
}

/// Forward/backward landmark distance tables for the top-`k` ranks.
struct DiLandmarks {
    k: usize,
    n: usize,
    fwd: Vec<u16>,
    bwd: Vec<u16>,
}

impl DiLandmarks {
    fn build(rg: &DiGraph, k: usize) -> Self {
        let n = rg.num_vertices();
        let k = k.min(n);
        let mut fwd = vec![u16::MAX; k * n];
        let mut bwd = vec![u16::MAX; k * n];
        fwd.par_chunks_mut(n.max(1))
            .enumerate()
            .for_each(|(w, row)| {
                di_bfs_forward_into(rg, w as VertexId, row);
            });
        bwd.par_chunks_mut(n.max(1))
            .enumerate()
            .for_each(|(w, row)| {
                di_bfs_backward_into(rg, w as VertexId, row);
            });
        DiLandmarks { k, n, fwd, bwd }
    }

    #[inline]
    fn covers(&self, w: u32) -> bool {
        (w as usize) < self.k
    }

    /// `dist(w → u) < d`?
    #[inline]
    fn prunes_in(&self, w: u32, u: u32, d: u16) -> bool {
        self.fwd[w as usize * self.n + u as usize] < d
    }

    /// `dist(u → w) < d`?
    #[inline]
    fn prunes_out(&self, w: u32, u: u32, d: u16) -> bool {
        self.bwd[w as usize * self.n + u as usize] < d
    }
}

/// Builds the directed PSPC index under the total-degree order.
pub fn build_di_pspc(g: &DiGraph, config: &DiPspcConfig) -> DiSpcIndex {
    let t0 = Instant::now();
    let order = super::di_degree_order(g);
    let order_seconds = t0.elapsed().as_secs_f64();
    let mut idx = build_di_pspc_with_order(g, order, config);
    idx.stats_mut().order_seconds = order_seconds;
    idx
}

/// Builds the directed PSPC index under a precomputed order.
pub fn build_di_pspc_with_order(
    g: &DiGraph,
    order: VertexOrder,
    config: &DiPspcConfig,
) -> DiSpcIndex {
    assert_eq!(order.len(), g.num_vertices());
    let n = g.num_vertices();
    let threads = if config.threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        config.threads
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build rayon pool");
    let rg = g.relabel(order.order());

    let t_ll = Instant::now();
    let landmarks = (config.num_landmarks > 0)
        .then(|| pool.install(|| DiLandmarks::build(&rg, config.num_landmarks)));
    let landmark_seconds = t_ll.elapsed().as_secs_f64();

    let t_lc = Instant::now();
    let self_label = |u: u32| {
        vec![LabelEntry {
            hub: u,
            dist: 0,
            count: 1,
        }]
    };
    let mut lin: Vec<Vec<LabelEntry>> = (0..n as u32).map(self_label).collect();
    let mut lout: Vec<Vec<LabelEntry>> = (0..n as u32).map(self_label).collect();
    let mut ps_in: Vec<u32> = vec![0; n];
    let mut ps_out: Vec<u32> = vec![0; n];
    let wpool = WorkspacePool::new(n);

    let mut d: u16 = 0;
    loop {
        d = match d.checked_add(1) {
            Some(v) => v,
            None => break,
        };
        let sin = Side {
            labels: &lin,
            prev_start: &ps_in,
        };
        let sout = Side {
            labels: &lout,
            prev_start: &ps_out,
        };
        let lm = landmarks.as_ref();
        // One parallel pass computes both directions' new levels; each
        // vertex slot is written by exactly one task.
        let new: Vec<(Vec<LabelEntry>, Vec<LabelEntry>)> = pool.install(|| {
            (0..n as u32)
                .into_par_iter()
                .with_min_len(256)
                .map(|u| {
                    wpool.with(|ws| {
                        let new_in = propagate_side(&rg, u, d, sin, sout, lm, ws, true);
                        let new_out = propagate_side(&rg, u, d, sout, sin, lm, ws, false);
                        (new_in, new_out)
                    })
                })
                .collect()
        });
        let mut new_entries = 0usize;
        for (u, (bi, bo)) in new.into_iter().enumerate() {
            new_entries += bi.len() + bo.len();
            ps_in[u] = lin[u].len() as u32;
            ps_out[u] = lout[u].len() as u32;
            lin[u].extend(bi);
            lout[u].extend(bo);
        }
        if new_entries == 0 {
            break;
        }
    }

    let lin: Vec<LabelSet> =
        pool.install(|| lin.into_par_iter().map(LabelSet::from_entries).collect());
    let lout: Vec<LabelSet> =
        pool.install(|| lout.into_par_iter().map(LabelSet::from_entries).collect());
    let stats = IndexStats {
        landmark_seconds,
        construction_seconds: t_lc.elapsed().as_secs_f64(),
        ..IndexStats::default()
    };
    DiSpcIndex::new(order, lin, lout, stats)
}

/// One label direction's frozen snapshot: the labels, and where each
/// vertex's level-`d−1` entries start.
#[derive(Clone, Copy)]
struct Side<'a> {
    labels: &'a [Vec<LabelEntry>],
    prev_start: &'a [u32],
}

/// Computes one side's level-`d` entries for vertex `u`.
///
/// `own` is the side being extended (`lin` when `in_side`, else `lout`);
/// `other` is the opposite side, used for the 2-hop pruning query.
#[allow(clippy::too_many_arguments)]
fn propagate_side(
    rg: &DiGraph,
    u: u32,
    d: u16,
    own: Side<'_>,
    other: Side<'_>,
    landmarks: Option<&DiLandmarks>,
    ws: &mut Workspace,
    in_side: bool,
) -> Vec<LabelEntry> {
    ws.cand.clear();
    let sources: &[VertexId] = if in_side {
        rg.in_neighbors(u)
    } else {
        rg.out_neighbors(u)
    };
    for &v in sources {
        let start = own.prev_start[v as usize] as usize;
        for e in &own.labels[v as usize][start..] {
            if e.hub < u {
                ws.cand.add(e.hub, e.count);
            }
        }
    }
    if ws.cand.is_empty() {
        return Vec::new();
    }
    // Load u's own-side label for elimination and the query probe.
    ws.dist.clear();
    for e in &own.labels[u as usize] {
        ws.dist.set(e.hub, e.dist);
    }
    let mut hubs: Vec<u32> = ws.cand.touched().to_vec();
    hubs.sort_unstable();
    let mut out = Vec::new();
    for &w in &hubs {
        if ws.dist.contains(w) {
            continue; // Label Elimination
        }
        let pruned = match landmarks {
            Some(lm) if lm.covers(w) => {
                if in_side {
                    lm.prunes_in(w, u, d)
                } else {
                    lm.prunes_out(w, u, d)
                }
            }
            _ => {
                // Forward pair (w -> u): legs dist(w->h) ∈ Lout(w) and
                // dist(h->u) ∈ Lin(u) [loaded]. Backward pair (u -> w):
                // legs dist(h->w) ∈ Lin(w) and dist(u->h) ∈ Lout(u)
                // [loaded]. Either way: probe `other[w]` without its
                // newest level against the scratch.
                let older = &other.labels[w as usize][..other.prev_start[w as usize] as usize];
                probe(older, &ws.dist, d).0
            }
        };
        if !pruned {
            out.push(LabelEntry {
                hub: w,
                dist: d,
                count: ws.cand.count(w),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directed::hpspc::build_di_hpspc_with_order;
    use pspc_graph::digraph::{di_spc_pair, erdos_renyi_digraph, random_orientation};

    #[test]
    fn matches_sequential_builder_exactly() {
        for seed in 0..3u64 {
            let g = erdos_renyi_digraph(60, 300, seed);
            let order = super::super::di_degree_order(&g);
            let seq = build_di_hpspc_with_order(&g, order.clone());
            for landmarks in [0usize, 8] {
                let cfg = DiPspcConfig {
                    num_landmarks: landmarks,
                    ..DiPspcConfig::default()
                };
                let par = build_di_pspc_with_order(&g, order.clone(), &cfg);
                assert_eq!(
                    seq.lin_arena(),
                    par.lin_arena(),
                    "lin seed={seed} lm={landmarks}"
                );
                assert_eq!(
                    seq.lout_arena(),
                    par.lout_arena(),
                    "lout seed={seed} lm={landmarks}"
                );
            }
        }
    }

    #[test]
    fn queries_match_brute_force() {
        let g = erdos_renyi_digraph(50, 220, 9);
        let idx = build_di_pspc(&g, &DiPspcConfig::default());
        for s in 0..50u32 {
            for t in 0..50u32 {
                assert_eq!(idx.query(s, t), di_spc_pair(&g, s, t), "({s},{t})");
            }
        }
    }

    #[test]
    fn oriented_social_graph_exact() {
        let ug = pspc_graph::generators::barabasi_albert(80, 2, 4);
        let g = random_orientation(&ug, 0.3, 5);
        let idx = build_di_pspc(&g, &DiPspcConfig::default());
        for s in (0..80u32).step_by(7) {
            for t in 0..80u32 {
                assert_eq!(idx.query(s, t), di_spc_pair(&g, s, t), "({s},{t})");
            }
        }
    }

    #[test]
    fn deterministic_across_threads() {
        let g = erdos_renyi_digraph(70, 350, 2);
        let a = build_di_pspc(
            &g,
            &DiPspcConfig {
                threads: 1,
                ..DiPspcConfig::default()
            },
        );
        let b = build_di_pspc(
            &g,
            &DiPspcConfig {
                threads: 4,
                ..DiPspcConfig::default()
            },
        );
        assert_eq!(a.lin_arena(), b.lin_arena());
        assert_eq!(a.lout_arena(), b.lout_arena());
    }

    #[test]
    fn dag_longest_chain() {
        // Layered DAG with multiple parallel routes.
        let mut b = pspc_graph::digraph::DiGraphBuilder::new();
        for layer in 0..5u32 {
            for i in 0..3u32 {
                for j in 0..3u32 {
                    b.push_arc(layer * 3 + i, (layer + 1) * 3 + j);
                }
            }
        }
        let g = b.build();
        let idx = build_di_pspc(&g, &DiPspcConfig::default());
        // 0 -> any vertex in layer 5: 3^4 routes through 4 free layers.
        assert_eq!(idx.query(0, 15).count, 81);
        assert_eq!(idx.query(0, 15).dist, 5);
        assert!(!idx.query(15, 0).is_reachable());
    }
}
