//! Pull-based label propagation (paper Algorithm 2 / Definition 10) and the
//! candidate filter shared with the push paradigm.
//!
//! In iteration `d`, vertex `u` *pulls* the level-`d-1` label entries of its
//! neighbors, merges duplicates (Label Merging), drops hubs ranked below `u`
//! (Lemma 3), drops hubs already present in `L(u)` (Label Elimination), and
//! drops candidates refuted by the 2-hop pruning query over the frozen
//! snapshot `L_{≤d-1}` (Lemma 4) — answered in O(1) when the hub is a
//! landmark. Survivors become `L_d(u)`.
//!
//! [`filter_candidates`] decides each candidate `(w, d)` of `u` under four
//! exact rules, so the index is the same ESPC:
//!
//! * **Landmarks first.** A landmark-covered `w` is decided by
//!   `dist(w, u) < d` on exact BFS distances. That holds whenever
//!   `w ∈ L(u)`, so the test needs nothing from `L(u)` and no elimination.
//! * **Two newest levels for elimination (undirected only).** The
//!   candidate came from a neighbour `v` whose level `d-1` holds `w`, so
//!   `dist(w, v) = d-1` and, `u` and `v` being adjacent,
//!   `dist(w, u) ≥ d-2`. An entry for `w` already in `L(u)` stores
//!   `dist(w, u) ≤ d-1`, so it lies in level `d-2` or `d-1`: only those
//!   are loaded before elimination. The older levels are loaded at the
//!   first candidate that needs the label probe. (Were an elimination
//!   missed, the probe would still prune `w`: `L(w)` holds `(w, 0)`,
//!   which witnesses `dist(w, u) < d`. So the window sets the work, not
//!   the index.) The directed builder keeps its full load, since an arc
//!   does not bound the distance both ways.
//! * **First witness.** A candidate `(w, d)` is pruned iff *some* hub `x`
//!   has `dist(w, x) + dist(x, u) < d`, so [`probe`] stops at the first
//!   such `x` instead of taking the minimum over every common hub.
//! * **Newest level.** The level-`d-1` entries of `L(w)` have distance
//!   `d-1`, so they could only witness together with `dist(x, u) = 0`,
//!   i.e. `x = u`. But hubs of `L(w)` rank at or above `w`, which ranks
//!   above `u`, so `u` is never one: only `L(w)[..prev_start[w]]` is
//!   probed.
//!
//! Each probed entry costs one scratch load and a branch-free test
//! ([`DistScratch::sum_below`]).
//!
//! Everything reads the frozen snapshot and writes a private output buffer,
//! so iterations are data-race-free and the result is bit-identical for any
//! thread count — the paper's determinism observation (Exp 2).

use super::PropagationCtx;
use crate::label::{Count, LabelEntry};
use crate::scratch::{DistScratch, Workspace};

/// Processes vertex `u` for iteration `ctx.d`: appends its new level-`d`
/// entries (sorted by hub) to `out` and returns the work units expended
/// (candidate entries scanned plus what [`filter_candidates`] reads).
pub(crate) fn process_vertex(
    ctx: &PropagationCtx<'_>,
    u: u32,
    ws: &mut Workspace,
    out: &mut Vec<LabelEntry>,
) -> u64 {
    ws.cand.clear();
    let mut work = 0u64;
    for &v in ctx.rg.neighbors(u) {
        let lv = ctx.prev.row(v as usize);
        work += lv.len() as u64;
        if lv.is_empty() {
            continue;
        }
        // Extending a trough path w..v by the edge (v, u) makes v internal,
        // so v's multiplicity applies — except at d == 1 where the level-0
        // entry is v's own self-label (v is the hub endpoint, not internal).
        let f: Count = if ctx.d == 1 {
            1
        } else {
            ctx.weights.map_or(1, |w| w[v as usize])
        };
        if f == 1 {
            for e in lv {
                if e.hub < u {
                    ws.cand.add(e.hub, e.count);
                }
            }
        } else {
            for e in lv {
                if e.hub < u {
                    ws.cand.add(e.hub, e.count.saturating_mul(f));
                }
            }
        }
    }
    if ws.cand.is_empty() {
        return work;
    }
    // Sort candidates by hub so output order is canonical.
    let mut hubs: Vec<u32> = ws.cand.touched().to_vec();
    hubs.sort_unstable();
    work += filter_candidates(ctx, u, ws, &hubs, out);
    work
}

/// Applies the landmark test, Label Elimination and the pruning query to
/// candidates `(h, ws.cand.count(h))` for `h` in `hubs` (ascending),
/// appending survivors to `out`. Returns the work units read: the two
/// newest levels of `L(u)`, its older levels if some probe runs, one per
/// landmark test, and every `L(w)` entry a probe reads.
///
/// `ws.dist` is (re)loaded with `u`'s label here; `ws.cand` must already
/// hold the merged candidate counts, gathered from neighbours' level `d-1`.
pub(crate) fn filter_candidates(
    ctx: &PropagationCtx<'_>,
    u: u32,
    ws: &mut Workspace,
    hubs: &[u32],
    out: &mut Vec<LabelEntry>,
) -> u64 {
    let (older, recent) = ctx.labels[u as usize].split_at(ctx.recent_start[u as usize] as usize);
    let mut work = recent.len() as u64;
    ws.dist.clear();
    for e in recent {
        ws.dist.set(e.hub, e.dist);
    }
    let mut older_loaded = false;
    let d = ctx.d;
    for &w in hubs {
        let pruned = match (ctx.landmark_bits, ctx.landmarks) {
            // Exact `dist(w, u) < d`, which holds whenever w ∈ L(u).
            (Some(bits), _) if bits.covers(w) => {
                work += 1;
                bits.prunes(w, u)
            }
            (_, Some(lm)) if lm.covers(w) => {
                work += 1;
                lm.prunes(w, u, d)
            }
            (_, _) => {
                // Label Elimination: an entry for w already exists on u,
                // and it can only lie in the two newest levels.
                if ws.dist.contains(w) {
                    continue;
                }
                if !older_loaded {
                    older_loaded = true;
                    work += older.len() as u64;
                    for e in older {
                        ws.dist.set(e.hub, e.dist);
                    }
                }
                // Query(w, u, L_{≤ d-1}) over L(w) without its newest level.
                let lw = &ctx.labels[w as usize][..ctx.prev_start[w as usize] as usize];
                let (pruned, read) = probe(lw, &ws.dist, d);
                work += read;
                pruned
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
    work
}

/// The 2-hop pruning probe: whether some hub `x` of `lw` (a slice of
/// `L(w)`) has `dist(w, x) + dist(x, u) < d`, where `dist` holds `u`'s
/// label. Stops at the first such witness. Returns the decision and the
/// number of `lw` entries read.
#[inline]
pub(crate) fn probe(lw: &[LabelEntry], dist: &DistScratch, d: u16) -> (bool, u64) {
    match lw
        .iter()
        .position(|e| dist.sum_below(e.hub, e.dist, d as u32))
    {
        Some(i) => (true, i as u64 + 1),
        None => (false, lw.len() as u64),
    }
}
