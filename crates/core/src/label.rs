//! ESPC label storage and the [`SpcIndex`] type.
//!
//! A label entry `(w, d, c)` on vertex `u` states that hub `w` is ranked
//! above `u`, `dist(w, u) = d`, and `c` counts the *trough* shortest paths
//! between `u` and `w` — those on which `w` is the unique highest-ranked
//! vertex (paper §III, Theorem 1). The multiset of such entries is the Exact
//! Shortest Path Covering (ESPC): it is uniquely determined by the graph and
//! the total order, which is why the sequential HP-SPC builder and the
//! parallel PSPC builder must produce *identical* indexes (paper Exp 2) —
//! an invariant the test suite checks directly.
//!
//! Everything is stored in **rank space**: vertex ids inside the index are
//! ranks (0 = highest). Hub comparisons become integer `<` and label arrays
//! are kept sorted by hub rank for merge-style queries.
//!
//! # Storage layout
//!
//! Builders stage per-vertex labels in [`LabelSet`] (one
//! structure-of-arrays triple per vertex), but a finished [`SpcIndex`]
//! holds a single flat [`LabelArena`]: one CSR `offsets` array plus three
//! contiguous global arrays (`hubs`/`dists`/`counts`) shared by all
//! vertices. A million-vertex index is four allocations instead of ~3
//! million, queries read two cache-linear slices instead of pointer
//! chasing per-vertex `Vec`s, and snapshots can persist the arrays
//! verbatim ([`crate::serialize`] format v2). The borrowed [`LabelView`]
//! is the query-path handle into the arena.

use crate::section::Section;
use pspc_graph::VertexId;
use pspc_order::VertexOrder;
use serde::{Deserialize, Serialize};

/// Saturating shortest-path count.
///
/// All count arithmetic — label construction, equivalence-reduction
/// weights, and the query-time products and tie sums — **saturates** at
/// `u64::MAX` rather than wrapping, erroring, or widening to `u128`;
/// `u64::MAX` reads as "at least this many paths". The full rationale and
/// boundary tests live in [`crate::query`].
pub type Count = u64;

/// One label entry: `(hub rank, distance, trough count)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LabelEntry {
    /// Rank of the hub vertex (0 = highest rank).
    pub hub: u32,
    /// Exact shortest distance between the hub and the labeled vertex.
    pub dist: u16,
    /// Number of trough shortest paths (saturating).
    pub count: Count,
}

/// The label set of a single vertex, sorted by hub rank (structure of
/// arrays for cache-friendly merging).
///
/// This is the **builder-side staging type**: construction code
/// accumulates one `LabelSet` per vertex, and [`SpcIndex::new`] packs
/// them into the flat [`LabelArena`] exactly once. Query code never
/// touches `LabelSet` — it works on borrowed [`LabelView`]s.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelSet {
    hubs: Vec<u32>,
    dists: Vec<u16>,
    counts: Vec<Count>,
}

impl LabelSet {
    /// Builds from entries; sorts by hub rank.
    ///
    /// # Panics
    /// Panics if two entries share a hub (the ESPC has one entry per hub).
    pub fn from_entries(mut entries: Vec<LabelEntry>) -> Self {
        entries.sort_unstable_by_key(|e| e.hub);
        for w in entries.windows(2) {
            assert!(
                w[0].hub != w[1].hub,
                "duplicate hub {} in label set",
                w[0].hub
            );
        }
        let mut s = LabelSet {
            hubs: Vec::with_capacity(entries.len()),
            dists: Vec::with_capacity(entries.len()),
            counts: Vec::with_capacity(entries.len()),
        };
        for e in entries {
            s.hubs.push(e.hub);
            s.dists.push(e.dist);
            s.counts.push(e.count);
        }
        s
    }

    /// Appends an entry; the caller must append in increasing hub order
    /// (debug-asserted).
    #[inline]
    pub fn push(&mut self, e: LabelEntry) {
        debug_assert!(
            self.hubs.last().is_none_or(|&h| h < e.hub),
            "labels must be appended in increasing hub order"
        );
        self.hubs.push(e.hub);
        self.dists.push(e.dist);
        self.counts.push(e.count);
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.hubs.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hubs.is_empty()
    }

    /// Hub ranks, ascending.
    #[inline]
    pub fn hubs(&self) -> &[u32] {
        &self.hubs
    }

    /// Distances, parallel to [`LabelSet::hubs`].
    #[inline]
    pub fn dists(&self) -> &[u16] {
        &self.dists
    }

    /// Counts, parallel to [`LabelSet::hubs`].
    #[inline]
    pub fn counts(&self) -> &[Count] {
        &self.counts
    }

    /// Borrowed view with the same shape the query path uses.
    #[inline]
    pub fn as_view(&self) -> LabelView<'_> {
        LabelView {
            hubs: &self.hubs,
            dists: &self.dists,
            counts: &self.counts,
        }
    }

    /// Entry view at position `i`.
    #[inline]
    pub fn entry(&self, i: usize) -> LabelEntry {
        LabelEntry {
            hub: self.hubs[i],
            dist: self.dists[i],
            count: self.counts[i],
        }
    }

    /// Iterator over entries in hub order.
    pub fn iter(&self) -> impl Iterator<Item = LabelEntry> + '_ {
        (0..self.len()).map(move |i| self.entry(i))
    }

    /// The distance recorded for `hub`, if present. `O(log len)`.
    pub fn dist_to(&self, hub: u32) -> Option<u16> {
        self.hubs.binary_search(&hub).ok().map(|i| self.dists[i])
    }

    /// Heap bytes of this label set.
    pub fn size_bytes(&self) -> usize {
        self.hubs.len() * 4 + self.dists.len() * 2 + self.counts.len() * 8
    }
}

/// A borrowed, zero-copy view of one vertex's labels inside a
/// [`LabelArena`] (or a staged [`LabelSet`], via [`LabelSet::as_view`]).
///
/// `Copy`, two words per array — this is what the query merge operates
/// on, so the hot path carries slices, not owning containers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LabelView<'a> {
    hubs: &'a [u32],
    dists: &'a [u16],
    counts: &'a [Count],
}

impl<'a> LabelView<'a> {
    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.hubs.len()
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hubs.is_empty()
    }

    /// Hub ranks, ascending.
    #[inline]
    pub fn hubs(&self) -> &'a [u32] {
        self.hubs
    }

    /// Distances, parallel to [`LabelView::hubs`].
    #[inline]
    pub fn dists(&self) -> &'a [u16] {
        self.dists
    }

    /// Counts, parallel to [`LabelView::hubs`].
    #[inline]
    pub fn counts(&self) -> &'a [Count] {
        self.counts
    }

    /// Entry at position `i`.
    #[inline]
    pub fn entry(&self, i: usize) -> LabelEntry {
        LabelEntry {
            hub: self.hubs[i],
            dist: self.dists[i],
            count: self.counts[i],
        }
    }

    /// Iterator over entries in hub order.
    pub fn iter(&self) -> impl Iterator<Item = LabelEntry> + 'a {
        let (hubs, dists, counts) = (self.hubs, self.dists, self.counts);
        (0..hubs.len()).map(move |i| LabelEntry {
            hub: hubs[i],
            dist: dists[i],
            count: counts[i],
        })
    }

    /// The distance recorded for `hub`, if present. `O(log len)`.
    pub fn dist_to(&self, hub: u32) -> Option<u16> {
        self.hubs.binary_search(&hub).ok().map(|i| self.dists[i])
    }

    /// Materializes the view as an owned staging [`LabelSet`].
    pub fn to_label_set(&self) -> LabelSet {
        LabelSet {
            hubs: self.hubs.to_vec(),
            dists: self.dists.to_vec(),
            counts: self.counts.to_vec(),
        }
    }
}

/// Flat CSR arena holding the labels of **all** vertices.
///
/// `offsets` has `n + 1` entries; vertex (rank) `r`'s labels are the
/// half-open range `offsets[r]..offsets[r + 1]` of the three parallel
/// global arrays. Four allocations total, independent of the vertex
/// count; rows are contiguous and rank-adjacent rows are cache-adjacent.
/// The snapshot format v2 persists these arrays verbatim
/// ([`crate::serialize`]), and because each array is a [`Section`] the
/// arena can equally be served zero-copy from a page-aligned file mapping
/// (the `--mmap` load path) — owned and mapped arenas are indistinguishable
/// to query code.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LabelArena {
    /// CSR row starts (`n + 1` entries, `offsets[0] == 0`).
    offsets: Section<u64>,
    /// Hub ranks, ascending within each row.
    hubs: Section<u32>,
    /// Distances, parallel to `hubs`.
    dists: Section<u16>,
    /// Trough counts, parallel to `hubs`.
    counts: Section<Count>,
}

impl LabelArena {
    /// Packs staged per-vertex label sets into one contiguous arena.
    pub fn from_label_sets(sets: Vec<LabelSet>) -> Self {
        let total: usize = sets.iter().map(LabelSet::len).sum();
        let mut offsets = Vec::with_capacity(sets.len() + 1);
        let mut hubs = Vec::with_capacity(total);
        let mut dists = Vec::with_capacity(total);
        let mut counts = Vec::with_capacity(total);
        offsets.push(0);
        for s in &sets {
            hubs.extend_from_slice(s.hubs());
            dists.extend_from_slice(s.dists());
            counts.extend_from_slice(s.counts());
            offsets.push(hubs.len() as u64);
        }
        LabelArena {
            offsets: offsets.into(),
            hubs: hubs.into(),
            dists: dists.into(),
            counts: counts.into(),
        }
    }

    /// Packs per-vertex rows of entries, each sorted by hub, into one
    /// contiguous arena. Panics on a duplicate hub within a row.
    pub(crate) fn from_sorted_rows(rows: &[Vec<LabelEntry>]) -> Self {
        let total: usize = rows.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut hubs = Vec::with_capacity(total);
        let mut dists = Vec::with_capacity(total);
        let mut counts = Vec::with_capacity(total);
        offsets.push(0);
        for row in rows {
            for w in row.windows(2) {
                assert!(
                    w[0].hub < w[1].hub,
                    "duplicate hub {} in label set",
                    w[1].hub
                );
            }
            hubs.extend(row.iter().map(|e| e.hub));
            dists.extend(row.iter().map(|e| e.dist));
            counts.extend(row.iter().map(|e| e.count));
            offsets.push(hubs.len() as u64);
        }
        LabelArena {
            offsets: offsets.into(),
            hubs: hubs.into(),
            dists: dists.into(),
            counts: counts.into(),
        }
    }

    /// Reassembles an arena from CSR sections — owned (`Vec`s convert
    /// with `.into()`) or borrowed from a file mapping (the snapshot load
    /// paths). Validates the structural invariants that indexing relies
    /// on — corrupt input must error here, never panic later. For mapped
    /// sections this touches only the (small) offsets section, so it does
    /// not fault the bulk label pages in.
    pub fn from_sections(
        offsets: Section<u64>,
        hubs: Section<u32>,
        dists: Section<u16>,
        counts: Section<Count>,
    ) -> Result<Self, String> {
        let m = hubs.len();
        if dists.len() != m || counts.len() != m {
            return Err("label arrays disagree in length".into());
        }
        match (offsets.first(), offsets.last()) {
            (Some(&0), Some(&last)) if last == m as u64 => {}
            _ => return Err("offsets must start at 0 and end at the entry count".into()),
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets not monotonically nondecreasing".into());
        }
        Ok(LabelArena {
            offsets,
            hubs,
            dists,
            counts,
        })
    }

    /// True when any section serves straight off a file mapping.
    pub fn is_mapped(&self) -> bool {
        self.offsets.is_mapped()
            || self.hubs.is_mapped()
            || self.dists.is_mapped()
            || self.counts.is_mapped()
    }

    /// Number of vertices (CSR rows).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total label entries across all vertices.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.hubs.len()
    }

    /// Entries of the vertex holding `rank`.
    #[inline]
    pub fn len_of(&self, rank: u32) -> usize {
        let r = rank as usize;
        (self.offsets[r + 1] - self.offsets[r]) as usize
    }

    /// Borrowed label view of the vertex holding `rank`.
    #[inline]
    pub fn view(&self, rank: u32) -> LabelView<'_> {
        let r = rank as usize;
        let (lo, hi) = (self.offsets[r] as usize, self.offsets[r + 1] as usize);
        LabelView {
            hubs: &self.hubs[lo..hi],
            dists: &self.dists[lo..hi],
            counts: &self.counts[lo..hi],
        }
    }

    /// Iterator over every vertex's view, in rank order.
    pub fn views(&self) -> impl Iterator<Item = LabelView<'_>> {
        (0..self.num_vertices() as u32).map(move |r| self.view(r))
    }

    /// CSR row starts (`n + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Global hub array.
    #[inline]
    pub fn hubs(&self) -> &[u32] {
        &self.hubs
    }

    /// Global distance array.
    #[inline]
    pub fn dists(&self) -> &[u16] {
        &self.dists
    }

    /// Global count array.
    #[inline]
    pub fn counts(&self) -> &[Count] {
        &self.counts
    }

    /// Heap bytes of the entry payload (4 + 2 + 8 per entry, matching
    /// the paper's index-size accounting; the CSR offsets add
    /// `8 * (n + 1)` on top).
    pub fn size_bytes(&self) -> usize {
        self.hubs.len() * 4 + self.dists.len() * 2 + self.counts.len() * 8
    }
}

/// Summary statistics of a built index (feeds Exp 2 and Exp 8).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct IndexStats {
    /// Total number of label entries across all vertices.
    pub total_entries: usize,
    /// Total label bytes (4 hub + 2 dist + 8 count per entry).
    pub label_bytes: usize,
    /// Average entries per vertex.
    pub avg_label_size: f64,
    /// Maximum entries on any single vertex.
    pub max_label_size: usize,
    /// Seconds spent computing the vertex order.
    pub order_seconds: f64,
    /// Seconds spent building landmark distance tables (LL phase).
    pub landmark_seconds: f64,
    /// Seconds spent in label construction proper (LC phase).
    pub construction_seconds: f64,
}

impl IndexStats {
    /// Total indexing seconds (Order + LL + LC), the quantity of Fig. 5.
    pub fn total_seconds(&self) -> f64 {
        self.order_seconds + self.landmark_seconds + self.construction_seconds
    }

    /// Index size in mebibytes, the quantity of Fig. 6.
    pub fn size_mib(&self) -> f64 {
        self.label_bytes as f64 / (1024.0 * 1024.0)
    }
}

/// A complete ESPC shortest-path-counting index.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpcIndex {
    order: VertexOrder,
    /// All labels, rank-indexed rows in one flat CSR arena.
    labels: LabelArena,
    /// Vertex multiplicities by rank (`None` ⇒ all 1). Used by the
    /// neighborhood-equivalence reduction (paper §IV.B).
    weights: Option<Section<Count>>,
    stats: IndexStats,
}

impl SpcIndex {
    /// Assembles an index from rank-space staged label sets, packing
    /// them into the flat arena exactly once.
    pub fn new(
        order: VertexOrder,
        labels: Vec<LabelSet>,
        weights: Option<Vec<Count>>,
        stats: IndexStats,
    ) -> Self {
        assert_eq!(order.len(), labels.len(), "one label set per vertex");
        Self::from_arena(order, LabelArena::from_label_sets(labels), weights, stats)
    }

    /// Assembles an index from an already-flat arena (the snapshot v2
    /// load path and the PSPC builder).
    pub fn from_arena(
        order: VertexOrder,
        labels: LabelArena,
        weights: Option<Vec<Count>>,
        stats: IndexStats,
    ) -> Self {
        Self::from_arena_sections(order, labels, weights.map(Section::from_vec), stats)
    }

    /// Like [`SpcIndex::from_arena`] but accepts weights as a [`Section`],
    /// so the zero-copy loader can keep them on the file mapping.
    pub fn from_arena_sections(
        order: VertexOrder,
        labels: LabelArena,
        weights: Option<Section<Count>>,
        mut stats: IndexStats,
    ) -> Self {
        assert_eq!(
            order.len(),
            labels.num_vertices(),
            "one label row per vertex"
        );
        if let Some(w) = &weights {
            assert_eq!(w.len(), labels.num_vertices(), "one weight per vertex");
        }
        stats.total_entries = labels.num_entries();
        stats.label_bytes = labels.size_bytes();
        stats.max_label_size = (0..labels.num_vertices() as u32)
            .map(|r| labels.len_of(r))
            .max()
            .unwrap_or(0);
        stats.avg_label_size = if labels.num_vertices() == 0 {
            0.0
        } else {
            stats.total_entries as f64 / labels.num_vertices() as f64
        };
        SpcIndex {
            order,
            labels,
            weights,
            stats,
        }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.labels.num_vertices()
    }

    /// The vertex order the index was built under.
    pub fn order(&self) -> &VertexOrder {
        &self.order
    }

    /// Label view of the vertex holding `rank`.
    #[inline]
    pub fn labels_of_rank(&self, rank: u32) -> LabelView<'_> {
        self.labels.view(rank)
    }

    /// Label view of original vertex `v`.
    pub fn labels_of_vertex(&self, v: VertexId) -> LabelView<'_> {
        self.labels.view(self.order.rank_of(v))
    }

    /// Vertex multiplicities by rank, if the index is weighted.
    pub fn weights(&self) -> Option<&[Count]> {
        self.weights.as_deref()
    }

    /// Index statistics.
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// Mutable access for builders recording phase timings.
    pub fn stats_mut(&mut self) -> &mut IndexStats {
        &mut self.stats
    }

    /// The flat label arena (rank-indexed CSR rows).
    pub fn label_arena(&self) -> &LabelArena {
        &self.labels
    }

    /// True when the index serves zero-copy off a file mapping.
    pub fn is_mapped(&self) -> bool {
        self.labels.is_mapped() || self.weights.as_ref().is_some_and(|w| w.is_mapped())
    }

    /// Structural sanity check: hub order sorted, hubs ranked above owner,
    /// self-label present with `(rank, 0, 1)`.
    pub fn validate(&self) -> Result<(), String> {
        for (r, ls) in self.labels.views().enumerate() {
            let r = r as u32;
            if ls.hubs().windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("rank {r}: hubs not strictly sorted"));
            }
            match ls.hubs().last() {
                Some(&h) if h == r => {}
                _ => return Err(format!("rank {r}: missing self label")),
            }
            let i = ls.len() - 1;
            if ls.dists()[i] != 0 || ls.counts()[i] != 1 {
                return Err(format!("rank {r}: self label must be (r, 0, 1)"));
            }
            if ls.hubs().iter().any(|&h| h > r) {
                return Err(format!("rank {r}: hub ranked below owner"));
            }
            if ls.counts().contains(&0) {
                return Err(format!("rank {r}: zero-count entry"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(hub: u32, dist: u16, count: Count) -> LabelEntry {
        LabelEntry { hub, dist, count }
    }

    #[test]
    fn from_entries_sorts() {
        let ls = LabelSet::from_entries(vec![entry(5, 2, 1), entry(1, 1, 3)]);
        assert_eq!(ls.hubs(), &[1, 5]);
        assert_eq!(ls.dists(), &[1, 2]);
        assert_eq!(ls.counts(), &[3, 1]);
        assert_eq!(ls.dist_to(5), Some(2));
        assert_eq!(ls.dist_to(2), None);
    }

    #[test]
    #[should_panic(expected = "duplicate hub")]
    fn sorted_rows_reject_duplicate_hub() {
        LabelArena::from_sorted_rows(&[vec![entry(1, 1, 1), entry(1, 2, 1)]]);
    }

    #[test]
    #[should_panic(expected = "duplicate hub")]
    fn duplicate_hub_rejected() {
        LabelSet::from_entries(vec![entry(1, 1, 1), entry(1, 2, 1)]);
    }

    #[test]
    fn index_stats_computed() {
        let order = VertexOrder::identity(2);
        let l0 = LabelSet::from_entries(vec![entry(0, 0, 1)]);
        let l1 = LabelSet::from_entries(vec![entry(0, 1, 1), entry(1, 0, 1)]);
        let idx = SpcIndex::new(order, vec![l0, l1], None, IndexStats::default());
        assert_eq!(idx.stats().total_entries, 3);
        assert_eq!(idx.stats().max_label_size, 2);
        assert!((idx.stats().avg_label_size - 1.5).abs() < 1e-12);
        assert_eq!(idx.stats().label_bytes, 3 * 14);
        assert!(idx.validate().is_ok());
    }

    #[test]
    fn validate_catches_missing_self_label() {
        let order = VertexOrder::identity(1);
        let idx = SpcIndex::new(
            order,
            vec![LabelSet::default()],
            None,
            IndexStats::default(),
        );
        assert!(idx.validate().is_err());
    }

    #[test]
    fn entry_iteration() {
        let ls = LabelSet::from_entries(vec![entry(0, 1, 2), entry(3, 0, 1)]);
        let v: Vec<_> = ls.iter().collect();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], entry(0, 1, 2));
    }

    #[test]
    fn arena_packs_rows_contiguously() {
        let sets = vec![
            LabelSet::from_entries(vec![entry(0, 0, 1)]),
            LabelSet::from_entries(vec![entry(0, 1, 2), entry(1, 0, 1)]),
            LabelSet::default(),
            LabelSet::from_entries(vec![entry(2, 3, 4)]),
        ];
        let arena = LabelArena::from_label_sets(sets.clone());
        assert_eq!(arena.num_vertices(), 4);
        assert_eq!(arena.num_entries(), 4);
        assert_eq!(arena.offsets(), &[0, 1, 3, 3, 4]);
        for (r, s) in sets.iter().enumerate() {
            let v = arena.view(r as u32);
            assert_eq!(v.hubs(), s.hubs(), "row {r}");
            assert_eq!(v.dists(), s.dists(), "row {r}");
            assert_eq!(v.counts(), s.counts(), "row {r}");
            assert_eq!(v.len(), arena.len_of(r as u32));
        }
        assert_eq!(arena.view(2).len(), 0);
        assert!(arena.view(2).is_empty());
        assert_eq!(arena.size_bytes(), 4 * 14);
    }

    #[test]
    fn arena_from_raw_validates() {
        let from_raw = |o: Vec<u64>, h: Vec<u32>, d: Vec<u16>, c: Vec<Count>| {
            LabelArena::from_sections(o.into(), h.into(), d.into(), c.into())
        };
        let ok = from_raw(vec![0, 1], vec![0], vec![0], vec![1]);
        assert!(ok.is_ok());
        // Length mismatch.
        assert!(from_raw(vec![0, 1], vec![0], vec![], vec![1]).is_err());
        // Bad first/last offset.
        assert!(from_raw(vec![1, 1], vec![0], vec![0], vec![1]).is_err());
        assert!(from_raw(vec![0, 2], vec![0], vec![0], vec![1]).is_err());
        assert!(from_raw(vec![], vec![], vec![], vec![]).is_err());
        // Non-monotonic offsets.
        assert!(from_raw(vec![0, 2, 1, 2], (0..2).collect(), vec![0; 2], vec![1; 2]).is_err());
    }

    #[test]
    fn view_round_trips_and_probes() {
        let ls = LabelSet::from_entries(vec![entry(1, 1, 3), entry(5, 2, 1)]);
        let v = ls.as_view();
        assert_eq!(v.len(), 2);
        assert_eq!(v.dist_to(5), Some(2));
        assert_eq!(v.dist_to(4), None);
        assert_eq!(v.entry(0), entry(1, 1, 3));
        assert_eq!(v.iter().collect::<Vec<_>>(), ls.iter().collect::<Vec<_>>());
        assert_eq!(v.to_label_set(), ls);
    }
}
