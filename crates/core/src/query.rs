//! Point-to-point SPC query evaluation over an [`SpcIndex`] (paper Eq. 1–2)
//! and the embarrassingly parallel batch executor (Exp 3 / Fig. 9).
//!
//! `SPC(s, t)` scans the two sorted label sets for common hubs, keeps the
//! hubs minimizing `d(s,h) + d(h,t)` and sums `c(s,h)·c(h,t)` over them.
//! For weighted (equivalence-reduced) indexes a common hub `h ∉ {s, t}`
//! additionally contributes its multiplicity factor `w(h)`, because `h` is
//! an internal vertex of the recombined path.
//!
//! # Merge strategy
//!
//! The common case — two label sets of comparable size — runs a
//! branch-reduced linear merge: the advance of both cursors is computed
//! arithmetically from the comparison, so the only data-dependent branch
//! in the loop is the (rare) equal-hub hit. When one set is much larger
//! than the other (`≥ GALLOP_RATIO×`), the merge instead *gallops*: it
//! walks the smaller set and advances through the larger one by
//! exponential search, turning `O(|A| + |B|)` into `O(|A| · log |B|)` —
//! the classic skewed-intersection trick. Both paths visit common hubs
//! in ascending order, so answers are bit-identical regardless of which
//! path ran (pinned by tests).
//!
//! # Count overflow policy
//!
//! Shortest-path counts are [`Count`] (`u64`) and **saturate** at
//! `u64::MAX` — both in the per-hub products `c(s,h)·c(h,t)` (computed
//! through a `u128` intermediate) and in the tie sum over hubs. A returned
//! count of `u64::MAX` therefore means "at least `u64::MAX` shortest
//! paths". Saturation was chosen over erroring or widening to `u128`
//! because (a) the index construction already accumulates counts
//! saturatingly, so wider arithmetic at the query boundary could not
//! restore exactness, and (b) path counts grow exponentially with graph
//! size — any fixed width eventually saturates, and a graceful "at least"
//! answer keeps the query service total. Distances saturate at
//! `u16::MAX - 1` hops likewise (`u16::MAX` is reserved for
//! "unreachable"). Boundary behavior is pinned by the
//! `overflow_policy_*` tests in this module.

use crate::label::{Count, LabelView, SpcIndex};
use pspc_graph::{SpcAnswer, VertexId};
use rayon::prelude::*;

/// Size ratio beyond which the merge gallops through the larger set
/// instead of scanning it linearly.
const GALLOP_RATIO: usize = 8;

/// Running minimum-distance / tie-sum accumulator of the merge.
struct MergeAcc {
    best: u32,
    acc: Count,
}

impl MergeAcc {
    #[inline]
    fn new() -> Self {
        MergeAcc {
            best: u32::MAX,
            acc: 0,
        }
    }

    /// Folds in one common hub at combined distance `d`; `count` is only
    /// evaluated when the hub ties the current best distance, so losing
    /// hubs never pay for the (possibly weighted) product.
    #[inline]
    fn hit(&mut self, d: u32, count: impl FnOnce() -> Count) {
        if d < self.best {
            self.best = d;
            self.acc = 0;
        }
        if d == self.best {
            self.acc = self.acc.saturating_add(count());
        }
    }

    #[inline]
    fn finish(self) -> SpcAnswer {
        if self.best == u32::MAX {
            SpcAnswer::UNREACHABLE
        } else {
            SpcAnswer {
                dist: self.best.min(u16::MAX as u32) as u16,
                count: self.acc,
            }
        }
    }
}

/// Merge-based query over two rank-space label views.
///
/// `sa`/`sb` are the ranks of the two endpoints (needed to suppress the
/// weight factor when the common hub *is* an endpoint); `weights` are the
/// rank-indexed vertex multiplicities, if any.
pub fn query_label_sets(
    a: LabelView<'_>,
    b: LabelView<'_>,
    sa: u32,
    sb: u32,
    weights: Option<&[Count]>,
) -> SpcAnswer {
    // Walk the smaller set; the answer is symmetric in (a, sa) ↔ (b, sb).
    let (a, b, sa, sb) = if a.len() <= b.len() {
        (a, b, sa, sb)
    } else {
        (b, a, sb, sa)
    };
    if b.len() >= GALLOP_RATIO * a.len().max(1) {
        merge_gallop(a, b, sa, sb, weights)
    } else {
        merge_linear(a, b, sa, sb, weights)
    }
}

/// Branch-reduced linear merge: both cursor advances are computed from
/// the three-way comparison without a jump, so mispredictions are paid
/// only on the equal-hub hits.
fn merge_linear(
    a: LabelView<'_>,
    b: LabelView<'_>,
    sa: u32,
    sb: u32,
    weights: Option<&[Count]>,
) -> SpcAnswer {
    let (ha, hb) = (a.hubs(), b.hubs());
    let (mut i, mut j) = (0usize, 0usize);
    let mut m = MergeAcc::new();
    while i < ha.len() && j < hb.len() {
        let (x, y) = (ha[i], hb[j]);
        if x == y {
            m.hit(a.dists()[i] as u32 + b.dists()[j] as u32, || {
                hub_contribution(a, b, i, j, sa, sb, weights)
            });
        }
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
    m.finish()
}

/// `c(s,h)·c(h,t)` (times the multiplicity of an internal hub) for the
/// common hub at positions `i`/`j`.
#[inline]
fn hub_contribution(
    a: LabelView<'_>,
    b: LabelView<'_>,
    i: usize,
    j: usize,
    sa: u32,
    sb: u32,
    weights: Option<&[Count]>,
) -> Count {
    let c = mul_sat(a.counts()[i], b.counts()[j]);
    match weights {
        Some(w) => {
            let h = a.hubs()[i];
            if h != sa && h != sb {
                mul_sat(c, w[h as usize])
            } else {
                c
            }
        }
        None => c,
    }
}

/// Skewed merge: for each hub of the small set `a`, advance through the
/// large set `b` by exponential search from the current cursor.
fn merge_gallop(
    a: LabelView<'_>,
    b: LabelView<'_>,
    sa: u32,
    sb: u32,
    weights: Option<&[Count]>,
) -> SpcAnswer {
    let (ha, hb) = (a.hubs(), b.hubs());
    let mut j = 0usize;
    let mut m = MergeAcc::new();
    for (i, &h) in ha.iter().enumerate() {
        j = gallop_to(hb, j, h);
        if j == hb.len() {
            break;
        }
        if hb[j] == h {
            m.hit(a.dists()[i] as u32 + b.dists()[j] as u32, || {
                hub_contribution(a, b, i, j, sa, sb, weights)
            });
            j += 1;
        }
    }
    m.finish()
}

/// First index `>= lo` with `hb[idx] >= target` (== `hb.len()` if none),
/// found by doubling steps from `lo` then a binary search over the
/// bracketed window.
#[inline]
fn gallop_to(hb: &[u32], lo: usize, target: u32) -> usize {
    if lo >= hb.len() || hb[lo] >= target {
        return lo;
    }
    // Invariant: hb[base] < target; probe at base + step.
    let mut base = lo;
    let mut step = 1usize;
    loop {
        let probe = base + step;
        if probe >= hb.len() {
            break;
        }
        if hb[probe] >= target {
            // Bracketed: answer in (base, probe].
            return base + 1 + hb[base + 1..probe].partition_point(|&x| x < target);
        }
        base = probe;
        step <<= 1;
    }
    base + 1 + hb[base + 1..].partition_point(|&x| x < target)
}

#[inline]
fn mul_sat(a: Count, b: Count) -> Count {
    // u128 intermediate so legitimate large products saturate cleanly.
    let p = a as u128 * b as u128;
    if p > Count::MAX as u128 {
        Count::MAX
    } else {
        p as Count
    }
}

/// Reusable buffers for repeated batch evaluation.
///
/// A caller answering chunk after chunk on one thread should not
/// reallocate the rank-translation and answer vectors per chunk; one
/// `BatchScratch` amortizes them across its owner's lifetime. Used by
/// [`SpcIndex::query_batch_with_scratch`]. (The `pspc_service` worker
/// pool instead fills a fresh buffer per chunk via
/// [`SpcIndex::query_rank_batch_into`], because its answers are shipped
/// to the submitting thread through a channel.)
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Rank-space pairs of the current chunk.
    ranks: Vec<(u32, u32)>,
    /// Answers of the current chunk, index-aligned with the input.
    answers: Vec<SpcAnswer>,
}

impl BatchScratch {
    /// Creates an empty scratch (buffers grow to the largest chunk seen).
    pub fn new() -> Self {
        Self::default()
    }

    /// Answers from the most recent batch (index-aligned with its input).
    pub fn answers(&self) -> &[SpcAnswer] {
        &self.answers
    }
}

impl SpcIndex {
    /// `SPC(s, t)` for original vertex ids.
    ///
    /// The returned count **saturates** at `u64::MAX` (see the
    /// [module-level overflow policy](self)); the distance saturates at
    /// `u16::MAX - 1`.
    pub fn query(&self, s: VertexId, t: VertexId) -> SpcAnswer {
        let rs = self.order().rank_of(s);
        let rt = self.order().rank_of(t);
        self.query_ranks(rs, rt)
    }

    /// `SPC` between two ranks.
    pub fn query_ranks(&self, rs: u32, rt: u32) -> SpcAnswer {
        if rs == rt {
            return SpcAnswer { dist: 0, count: 1 };
        }
        query_label_sets(
            self.labels_of_rank(rs),
            self.labels_of_rank(rt),
            rs,
            rt,
            self.weights(),
        )
    }

    /// Shortest distance only (convenience).
    pub fn distance(&self, s: VertexId, t: VertexId) -> Option<u16> {
        let a = self.query(s, t);
        a.is_reachable().then_some(a.dist)
    }

    /// Answers a batch of queries in parallel on the current rayon pool
    /// (the paper's parallel query evaluation: queries are independent, so
    /// they are dynamically distributed over threads).
    pub fn query_batch(&self, pairs: &[(VertexId, VertexId)]) -> Vec<SpcAnswer> {
        pairs.par_iter().map(|&(s, t)| self.query(s, t)).collect()
    }

    /// Sequential batch evaluation (baseline for the Fig. 9 speedup).
    pub fn query_batch_sequential(&self, pairs: &[(VertexId, VertexId)]) -> Vec<SpcAnswer> {
        pairs.iter().map(|&(s, t)| self.query(s, t)).collect()
    }

    /// Allocation-free batch evaluation into a reusable [`BatchScratch`].
    ///
    /// Answers land in `scratch` (also returned as a slice), index-aligned
    /// with `pairs`. Rank translation happens once per pair up front, so
    /// the hot loop touches only rank-space label views. This is the entry
    /// point for embedders that evaluate chunk after chunk on one thread
    /// and read answers in place; workers that must *ship* answers to
    /// another thread use [`SpcIndex::query_rank_batch_into`] instead
    /// (the borrow of a worker-local scratch cannot cross a channel).
    pub fn query_batch_with_scratch<'s>(
        &self,
        pairs: &[(VertexId, VertexId)],
        scratch: &'s mut BatchScratch,
    ) -> &'s [SpcAnswer] {
        scratch.ranks.clear();
        scratch.ranks.extend(
            pairs
                .iter()
                .map(|&(s, t)| (self.order().rank_of(s), self.order().rank_of(t))),
        );
        scratch.answers.clear();
        scratch.answers.extend(
            scratch
                .ranks
                .iter()
                .map(|&(rs, rt)| self.query_ranks(rs, rt)),
        );
        &scratch.answers
    }

    /// Rank-space variant of [`SpcIndex::query_batch_with_scratch`] for
    /// callers that translated vertex ids to ranks once up front, reading
    /// answers in place from the scratch.
    pub fn query_rank_batch_with_scratch<'s>(
        &self,
        rank_pairs: &[(u32, u32)],
        scratch: &'s mut BatchScratch,
    ) -> &'s [SpcAnswer] {
        self.query_rank_batch_into(rank_pairs, &mut scratch.answers);
        &scratch.answers
    }

    /// Rank-space batch evaluation into a **caller-owned** buffer.
    ///
    /// `out` is cleared and refilled, index-aligned with `rank_pairs`.
    /// Unlike the scratch variants this ties no borrow to a worker-local
    /// scratch, so a persistent pool worker can fill a buffer and ship it
    /// to the submitter through a channel without an extra copy — the
    /// pool-friendly lifetime the long-lived `pspc_service` workers need.
    pub fn query_rank_batch_into(&self, rank_pairs: &[(u32, u32)], out: &mut Vec<SpcAnswer>) {
        out.clear();
        out.extend(rank_pairs.iter().map(|&(rs, rt)| self.query_ranks(rs, rt)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{IndexStats, LabelEntry, LabelSet};
    use pspc_order::VertexOrder;

    fn ls(entries: &[(u32, u16, Count)]) -> LabelSet {
        LabelSet::from_entries(
            entries
                .iter()
                .map(|&(hub, dist, count)| LabelEntry { hub, dist, count })
                .collect(),
        )
    }

    fn q(a: &LabelSet, b: &LabelSet, sa: u32, sb: u32, w: Option<&[Count]>) -> SpcAnswer {
        query_label_sets(a.as_view(), b.as_view(), sa, sb, w)
    }

    /// Reference merge (the original unoptimized three-way loop) used to
    /// pin the optimized paths.
    fn reference_merge(
        a: &LabelSet,
        b: &LabelSet,
        sa: u32,
        sb: u32,
        weights: Option<&[Count]>,
    ) -> SpcAnswer {
        let (ha, hb) = (a.hubs(), b.hubs());
        let (mut i, mut j) = (0usize, 0usize);
        let mut best: u32 = u32::MAX;
        let mut acc: Count = 0;
        while i < ha.len() && j < hb.len() {
            match ha[i].cmp(&hb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let h = ha[i];
                    let d = a.dists()[i] as u32 + b.dists()[j] as u32;
                    if d < best {
                        best = d;
                        acc = 0;
                    }
                    if d == best {
                        let mut c = mul_sat(a.counts()[i], b.counts()[j]);
                        if let Some(w) = weights {
                            if h != sa && h != sb {
                                c = mul_sat(c, w[h as usize]);
                            }
                        }
                        acc = acc.saturating_add(c);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        if best == u32::MAX {
            SpcAnswer::UNREACHABLE
        } else {
            SpcAnswer {
                dist: best.min(u16::MAX as u32) as u16,
                count: acc,
            }
        }
    }

    #[test]
    fn merge_picks_min_distance_hubs() {
        // Hub 0 gives dist 4 count 2, hub 1 gives dist 3 count 6.
        let a = ls(&[(0, 2, 2), (1, 1, 2)]);
        let b = ls(&[(0, 2, 1), (1, 2, 3)]);
        let ans = q(&a, &b, 8, 9, None);
        assert_eq!(ans, SpcAnswer { dist: 3, count: 6 });
    }

    #[test]
    fn ties_sum_counts() {
        let a = ls(&[(0, 1, 2), (1, 2, 5)]);
        let b = ls(&[(0, 2, 3), (1, 1, 1)]);
        // both hubs give dist 3: 2*3 + 5*1 = 11
        let ans = q(&a, &b, 8, 9, None);
        assert_eq!(ans, SpcAnswer { dist: 3, count: 11 });
    }

    #[test]
    fn disjoint_hub_sets_unreachable() {
        let a = ls(&[(0, 1, 1)]);
        let b = ls(&[(1, 1, 1)]);
        assert_eq!(q(&a, &b, 2, 3, None), SpcAnswer::UNREACHABLE);
    }

    #[test]
    fn weight_applied_to_internal_hub_only() {
        let w = vec![7u64, 1, 1, 1];
        let a = ls(&[(0, 1, 1)]);
        let b = ls(&[(0, 1, 1)]);
        // hub 0 internal: factor 7
        assert_eq!(q(&a, &b, 2, 3, Some(&w)), SpcAnswer { dist: 2, count: 7 });
        // hub 0 == endpoint sa: no factor
        assert_eq!(q(&a, &b, 0, 3, Some(&w)), SpcAnswer { dist: 2, count: 1 });
    }

    #[test]
    fn saturating_multiplication() {
        let a = ls(&[(0, 1, Count::MAX / 2)]);
        let b = ls(&[(0, 1, 4)]);
        let ans = q(&a, &b, 1, 2, None);
        assert_eq!(ans.count, Count::MAX);
    }

    #[test]
    fn self_query_is_identity() {
        let order = VertexOrder::identity(2);
        let idx = SpcIndex::new(
            order,
            vec![ls(&[(0, 0, 1)]), ls(&[(0, 1, 1), (1, 0, 1)])],
            None,
            IndexStats::default(),
        );
        assert_eq!(idx.query(0, 0), SpcAnswer { dist: 0, count: 1 });
        assert_eq!(idx.query(0, 1), SpcAnswer { dist: 1, count: 1 });
    }

    #[test]
    fn overflow_policy_saturates_product_at_query_boundary() {
        // Two vertices whose only common hub carries near-MAX counts on
        // both sides: the product must come back as exactly u64::MAX, not
        // wrap or panic.
        let order = VertexOrder::identity(3);
        let idx = SpcIndex::new(
            order,
            vec![
                ls(&[(0, 0, 1)]),
                ls(&[(0, 1, Count::MAX / 2), (1, 0, 1)]),
                ls(&[(0, 1, 3), (2, 0, 1)]),
            ],
            None,
            IndexStats::default(),
        );
        assert_eq!(
            idx.query(1, 2),
            SpcAnswer {
                dist: 2,
                count: Count::MAX
            }
        );
    }

    #[test]
    fn overflow_policy_saturates_tie_sum_at_query_boundary() {
        // Two tied hubs whose contributions sum past u64::MAX: the tie
        // accumulation must saturate as well.
        let a = ls(&[(0, 1, Count::MAX - 1), (1, 1, Count::MAX - 1)]);
        let b = ls(&[(0, 1, 1), (1, 1, 1)]);
        let ans = q(&a, &b, 8, 9, None);
        assert_eq!(
            ans,
            SpcAnswer {
                dist: 2,
                count: Count::MAX
            }
        );
    }

    #[test]
    fn overflow_policy_saturates_weighted_hub() {
        // The equivalence-reduction weight factor participates in the same
        // saturating product.
        let w = vec![Count::MAX, 1];
        let a = ls(&[(0, 1, 2)]);
        let b = ls(&[(0, 1, 2)]);
        assert_eq!(q(&a, &b, 1, 1, Some(&w)).count, Count::MAX);
    }

    #[test]
    fn gallop_to_finds_lower_bounds() {
        let hb: Vec<u32> = vec![2, 4, 6, 8, 100, 101, 102, 200];
        for lo in 0..hb.len() {
            for target in [0u32, 2, 3, 8, 99, 100, 150, 200, 201] {
                let want = lo + hb[lo..].partition_point(|&x| x < target);
                assert_eq!(gallop_to(&hb, lo, target), want, "lo={lo} target={target}");
            }
        }
        assert_eq!(gallop_to(&[], 0, 5), 0);
    }

    /// Both optimized paths must be bit-identical to the reference merge
    /// on skewed, weighted and tied workloads — including the asymmetric
    /// case that triggers galloping in either argument order.
    #[test]
    fn gallop_and_linear_match_reference() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let weights: Vec<Count> = (0..4096).map(|i| 1 + (i as u64 % 5)).collect();
        for round in 0..200 {
            // Sizes span the gallop threshold in both directions.
            let (la, lb) = match round % 4 {
                0 => (1 + (next() % 4) as usize, 200 + (next() % 200) as usize),
                1 => (200 + (next() % 200) as usize, 1 + (next() % 4) as usize),
                2 => (next() as usize % 50, next() as usize % 50),
                _ => (next() as usize % 12, 100 + (next() % 100) as usize),
            };
            let gen = |len: usize, next: &mut dyn FnMut() -> u64| {
                let mut hubs: Vec<u32> = (0..len).map(|_| (next() % 4000) as u32).collect();
                hubs.sort_unstable();
                hubs.dedup();
                let entries = hubs
                    .into_iter()
                    .map(|h| LabelEntry {
                        hub: h,
                        dist: (next() % 7) as u16,
                        count: 1 + next() % 9,
                    })
                    .collect();
                LabelSet::from_entries(entries)
            };
            let a = gen(la, &mut next);
            let b = gen(lb, &mut next);
            let sa = (next() % 4000) as u32;
            let sb = (next() % 4000) as u32;
            for w in [None, Some(&weights[..])] {
                let want = reference_merge(&a, &b, sa, sb, w);
                assert_eq!(q(&a, &b, sa, sb, w), want, "round {round}");
                // Symmetry: swapping arguments must not change the answer.
                assert_eq!(q(&b, &a, sb, sa, w), want, "round {round} swapped");
                // Pin both internal paths directly, not just the dispatch.
                assert_eq!(
                    merge_linear(a.as_view(), b.as_view(), sa, sb, w),
                    want,
                    "round {round} linear"
                );
                assert_eq!(
                    merge_gallop(a.as_view(), b.as_view(), sa, sb, w),
                    want,
                    "round {round} gallop"
                );
            }
        }
    }

    #[test]
    fn batch_with_scratch_matches_sequential_and_reuses_buffers() {
        let order = VertexOrder::identity(3);
        let idx = SpcIndex::new(
            order,
            vec![
                ls(&[(0, 0, 1)]),
                ls(&[(0, 1, 1), (1, 0, 1)]),
                ls(&[(0, 1, 2), (2, 0, 1)]),
            ],
            None,
            IndexStats::default(),
        );
        let mut scratch = BatchScratch::new();
        let pairs = vec![(0, 1), (1, 2), (2, 2), (0, 2)];
        let got = idx.query_batch_with_scratch(&pairs, &mut scratch).to_vec();
        assert_eq!(got, idx.query_batch_sequential(&pairs));
        assert_eq!(scratch.answers(), &got[..]);
        // A second, shorter batch through the same scratch must not see
        // stale entries.
        let pairs2 = vec![(1, 1)];
        let got2 = idx.query_batch_with_scratch(&pairs2, &mut scratch);
        assert_eq!(got2, &[SpcAnswer { dist: 0, count: 1 }]);
    }

    #[test]
    fn rank_batch_into_reuses_owned_buffer() {
        let order = VertexOrder::identity(3);
        let idx = SpcIndex::new(
            order,
            vec![
                ls(&[(0, 0, 1)]),
                ls(&[(0, 1, 1), (1, 0, 1)]),
                ls(&[(0, 1, 2), (2, 0, 1)]),
            ],
            None,
            IndexStats::default(),
        );
        let mut out = Vec::new();
        idx.query_rank_batch_into(&[(0, 1), (1, 2), (2, 2)], &mut out);
        assert_eq!(out, idx.query_batch_sequential(&[(0, 1), (1, 2), (2, 2)]));
        // A shorter refill through the same buffer must not keep stale
        // tail entries.
        idx.query_rank_batch_into(&[(1, 1)], &mut out);
        assert_eq!(out, vec![SpcAnswer { dist: 0, count: 1 }]);
    }

    #[test]
    fn batch_matches_sequential() {
        let order = VertexOrder::identity(2);
        let idx = SpcIndex::new(
            order,
            vec![ls(&[(0, 0, 1)]), ls(&[(0, 1, 1), (1, 0, 1)])],
            None,
            IndexStats::default(),
        );
        let pairs = vec![(0, 1), (1, 0), (0, 0), (1, 1)];
        assert_eq!(idx.query_batch(&pairs), idx.query_batch_sequential(&pairs));
    }
}
