//! Push-based label propagation (paper Algorithm 1 / Definition 9).
//!
//! In iteration `d`, vertex `v` *pushes* its level-`d-1` entries to every
//! neighbor. Emissions are produced chunk-parallel into private buffers,
//! then globally sorted by `(target, hub)` so that each target's candidates
//! are contiguous and duplicate hubs adjacent; targets are then filtered in
//! parallel with the same elimination/merging/pruning rules as the pull
//! paradigm.
//!
//! The materialize-and-sort step is the cost the paper alludes to when it
//! notes duplicates "would be prohibitively expensive" without merging —
//! push is provided for the paradigm comparison; pull is the default.

use super::{LevelSlab, PropagationCtx};
use crate::label::{Count, LabelEntry};
use crate::scratch::WorkspacePool;
use rayon::prelude::*;
use std::ops::Range;

/// One emitted candidate: `(target, hub, count)`.
type Emission = (u32, u32, Count);

/// Runs a full push iteration: writes the new level into `level` and
/// returns the total work units.
pub(crate) fn run_push_iteration(
    ctx: &PropagationCtx<'_>,
    ranges: &[Range<usize>],
    wpool: &WorkspacePool,
    level: &mut LevelSlab,
) -> u64 {
    // Phase A: emissions, chunk-parallel over sources.
    let buffers: Vec<Vec<Emission>> = ranges
        .par_iter()
        .map(|r| {
            let mut out: Vec<Emission> = Vec::new();
            for v in r.clone() {
                let lv = ctx.prev.row(v);
                if lv.is_empty() {
                    continue;
                }
                // v becomes internal when its paths extend to a neighbor.
                let f: Count = if ctx.d == 1 {
                    1
                } else {
                    ctx.weights.map_or(1, |w| w[v])
                };
                for &t in ctx.rg.neighbors(v as u32) {
                    for e in lv {
                        if e.hub < t {
                            out.push((t, e.hub, e.count.saturating_mul(f)));
                        }
                    }
                }
            }
            out
        })
        .collect();
    let mut all: Vec<Emission> = Vec::with_capacity(buffers.iter().map(Vec::len).sum());
    for b in buffers {
        all.extend(b);
    }
    let mut work = all.len() as u64;
    // Phase B: sort by (target, hub) — duplicates become adjacent.
    all.par_sort_unstable_by_key(|&(t, h, _)| ((t as u64) << 32) | h as u64);
    // Group boundaries per target.
    let mut groups: Vec<Range<usize>> = Vec::new();
    let mut i = 0usize;
    while i < all.len() {
        let t = all[i].0;
        let mut j = i + 1;
        while j < all.len() && all[j].0 == t {
            j += 1;
        }
        groups.push(i..j);
        i = j;
    }
    // Filter each target group in parallel. Groups ascend by target, so
    // their outputs joined in group order are the level's slab.
    let results: Vec<(u32, Vec<LabelEntry>, u64)> = groups
        .par_iter()
        .map(|g| {
            let target = all[g.start].0;
            wpool.with(|ws| {
                // Merge adjacent duplicates (Label Merging) into the
                // candidate scratch, preserving ascending hub order.
                ws.cand.clear();
                let mut hubs: Vec<u32> = Vec::new();
                for &(_, h, c) in &all[g.clone()] {
                    if hubs.last() != Some(&h) {
                        hubs.push(h);
                    }
                    ws.cand.add(h, c);
                }
                let mut out = Vec::new();
                let w = super::pull::filter_candidates(ctx, target, ws, &hubs, &mut out);
                (target, out, w)
            })
        })
        .collect();
    let mut counts = vec![0u32; ctx.rg.num_vertices()];
    for (t, batch, w) in &results {
        work += w;
        counts[*t as usize] = batch.len() as u32;
    }
    level.fill(results.into_iter().map(|(_, batch, _)| batch), &counts);
    work
}
