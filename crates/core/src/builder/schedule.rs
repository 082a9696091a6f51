//! Schedule plans (paper §III.F) and the work-model speedup estimator.
//!
//! * **Static (node-order-based)**: thread `i` of `t` handles the contiguous
//!   rank range `[i·⌊n/t⌋, (i+1)·⌊n/t⌋)`. Simple, but imbalanced — e.g. in
//!   the pull paradigm the top ranks receive almost no candidates (Lemma 3),
//!   the paper's Example 3.
//! * **Dynamic (cost-function-based)**: vertices are grouped into chunks of
//!   roughly equal *cost* (`cost(v) ≈ Σ_{u ∈ N(v)} |L_{d-1}(u)|`,
//!   approximating Definition 11) and chunks are dispensed to threads on
//!   demand (work stealing).
//!
//! Wall-clock speedup needs as many cores as threads, and Figs. 8–9 use up
//! to 20. So the module also provides [`WorkModel`]: the builder records
//! the per-vertex work of every iteration, and the model replays any
//! thread-count/schedule combination as a makespan simulation — which is
//! precisely the load-balance quantity Figs. 8–9 measure.
//!
//! A work unit is one label entry the builder reads, or one landmark test.
//! For vertex `u` in iteration `d` that is:
//!
//! * the level-`d-1` entries of `u`'s neighbors scanned as candidates
//!   (under push, each emitted candidate instead);
//! * if `u` has candidates, the two newest levels of `L(u)` (`d-2` and
//!   `d-1`), loaded into the distance scratch for Label Elimination;
//! * the older levels of `L(u)`, loaded once, only if some candidate
//!   reaches a pruning probe;
//! * for each pruning probe, the entries of `L(w)` read up to and
//!   including the first witness;
//! * one per candidate a landmark table decides.
//!
//! Label Elimination lookups and the barrier's appends are not charged.

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// How vertices are assigned to threads within one distance iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulePlan {
    /// Node-order-based: `t` contiguous equal-count ranges.
    Static,
    /// Cost-function-based dynamic chunks dispensed on demand.
    Dynamic {
        /// Target number of chunks per thread (more ⇒ finer balancing,
        /// more scheduling overhead). The paper's dynamic plan corresponds
        /// to a small multiple; 8 is the default.
        chunks_per_thread: usize,
    },
}

impl Default for SchedulePlan {
    fn default() -> Self {
        SchedulePlan::Dynamic {
            chunks_per_thread: 8,
        }
    }
}

impl SchedulePlan {
    /// Short name for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulePlan::Static => "Static",
            SchedulePlan::Dynamic { .. } => "Dynamic",
        }
    }
}

/// Equal-count contiguous ranges (the paper's node-order-based plan).
pub fn static_ranges(n: usize, threads: usize) -> Vec<Range<usize>> {
    let t = threads.max(1).min(n.max(1));
    if n == 0 {
        #[allow(clippy::single_range_in_vec_init)]
        return vec![0..0];
    }
    let per = n / t;
    let rem = n % t;
    let mut out = Vec::with_capacity(t);
    let mut start = 0usize;
    for i in 0..t {
        let len = per + usize::from(i < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Cost-balanced contiguous ranges: greedily cuts whenever the accumulated
/// cost reaches `total/target_chunks`.
pub fn cost_ranges(costs: &[u64], target_chunks: usize) -> Vec<Range<usize>> {
    let n = costs.len();
    if n == 0 {
        #[allow(clippy::single_range_in_vec_init)]
        return vec![0..0];
    }
    let total: u64 = costs.iter().sum();
    let chunks = target_chunks.max(1);
    let target = (total / chunks as u64).max(1);
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &c) in costs.iter().enumerate() {
        acc += c;
        if acc >= target && i + 1 < n {
            out.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    out.push(start..n);
    out
}

/// Per-iteration, per-vertex work recorded by the builder; replayable as a
/// makespan model for any thread count and schedule.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct WorkModel {
    /// `per_iteration[d][v]` = work units vertex `v` generated in
    /// iteration `d`.
    pub per_iteration: Vec<Vec<u64>>,
}

impl WorkModel {
    /// Total work units across all iterations.
    pub fn total_work(&self) -> u64 {
        self.per_iteration
            .iter()
            .map(|it| it.iter().sum::<u64>())
            .sum()
    }

    /// Simulated makespan (work units on the busiest thread, summed over
    /// iterations — iterations are barriers).
    pub fn makespan(&self, threads: usize, plan: SchedulePlan) -> u64 {
        let t = threads.max(1);
        self.per_iteration
            .iter()
            .map(|works| match plan {
                SchedulePlan::Static => static_ranges(works.len(), t)
                    .into_iter()
                    .map(|r| works[r].iter().sum::<u64>())
                    .max()
                    .unwrap_or(0),
                SchedulePlan::Dynamic { chunks_per_thread } => {
                    let ranges = cost_ranges(works, t * chunks_per_thread.max(1));
                    // Greedy list scheduling: next chunk goes to the least
                    // loaded thread — the steady-state of work stealing.
                    let mut load = vec![0u64; t];
                    for r in ranges {
                        let w: u64 = works[r].iter().sum();
                        let min = load
                            .iter_mut()
                            .min_by_key(|l| **l)
                            .expect("at least one thread");
                        *min += w;
                    }
                    load.into_iter().max().unwrap_or(0)
                }
            })
            .sum()
    }

    /// Modelled speedup over one thread: `total_work / makespan(t)`.
    /// This is what Fig. 8 plots (wall-clock on the paper's 20-core box;
    /// here the load-balance-limited ideal, which ignores memory bandwidth
    /// and barrier cost).
    pub fn speedup(&self, threads: usize, plan: SchedulePlan) -> f64 {
        let total = self.total_work();
        if total == 0 {
            return 1.0;
        }
        let ms = self.makespan(threads, plan).max(1);
        total as f64 / ms as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_ranges_cover_exactly() {
        let r = static_ranges(10, 3);
        assert_eq!(r.len(), 3);
        assert_eq!(r[0], 0..4);
        assert_eq!(r[1], 4..7);
        assert_eq!(r[2], 7..10);
    }

    #[test]
    fn static_more_threads_than_vertices() {
        let r = static_ranges(2, 8);
        assert_eq!(r.iter().map(|r| r.len()).sum::<usize>(), 2);
    }

    #[test]
    fn cost_ranges_balance() {
        // One heavy vertex at the front; cost chunking must cut around it.
        let costs = vec![100u64, 1, 1, 1, 1, 1, 1, 1];
        let r = cost_ranges(&costs, 4);
        assert!(r.len() >= 2);
        assert_eq!(r.iter().map(|r| r.len()).sum::<usize>(), 8);
        assert_eq!(r[0], 0..1, "heavy vertex isolated in its own chunk");
    }

    #[test]
    fn cost_ranges_empty_and_uniform() {
        assert_eq!(cost_ranges(&[], 4), vec![0..0]);
        let r = cost_ranges(&[1; 12], 4);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn dynamic_beats_static_on_skew() {
        // Iteration where all work is at the tail: static chunking puts it
        // all on the last thread; dynamic splits it.
        let mut works = vec![0u64; 100];
        for w in works.iter_mut().skip(75) {
            *w = 10;
        }
        let model = WorkModel {
            per_iteration: vec![works],
        };
        let s_static = model.speedup(4, SchedulePlan::Static);
        let s_dyn = model.speedup(
            4,
            SchedulePlan::Dynamic {
                chunks_per_thread: 8,
            },
        );
        assert!(
            s_dyn > s_static,
            "dynamic {s_dyn:.2} should beat static {s_static:.2}"
        );
    }

    #[test]
    fn speedup_monotone_enough() {
        let model = WorkModel {
            per_iteration: vec![vec![1; 1000], vec![2; 1000]],
        };
        let s1 = model.speedup(1, SchedulePlan::default());
        let s8 = model.speedup(8, SchedulePlan::default());
        assert!((s1 - 1.0).abs() < 1e-9);
        assert!(s8 > 6.0, "near-linear on uniform work, got {s8:.2}");
    }
}
