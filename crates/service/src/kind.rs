//! One batch-query interface over every index kind the workspace builds.
//!
//! The paper's index family covers three shapes: the undirected ESPC
//! counting index ([`SpcIndex`]), the directed `Lin`/`Lout` extension
//! ([`DiSpcIndex`], §II.A) and the insertion-only dynamic distance
//! labeling ([`DynamicDistanceIndex`], §VI). [`IndexKind`] wraps all
//! three behind the uniform rank-translate → chunk → answer pipeline the
//! [`crate::QueryEngine`] drives, so the engine, the CLI and the
//! `pspc_server` daemon serve whichever kind a snapshot holds without
//! separate code paths.
//!
//! # Per-kind query semantics
//!
//! * **Undirected** — `SPC(s, t)`: exact distance and saturating
//!   shortest-path count, identical to
//!   [`SpcIndex::query_batch_sequential`].
//! * **Directed** — `SPC(s → t)`: the batch pair `(s, t)` is an ordered
//!   source → target query over `Lout(s) ∩ Lin(t)`.
//! * **Dynamic** — exact *distance* on the evolving graph; counts are
//!   not maintained by the dynamic labeling (see [`pspc_core::dynamic`]
//!   for why), so a reachable answer reports `count = 1` and
//!   unreachable pairs the usual [`SpcAnswer::UNREACHABLE`] sentinel.
//!
//! # Mutability
//!
//! Only the dynamic kind is mutable: it lives behind an `RwLock`, engine
//! workers answer each chunk under a read lock, and
//! [`IndexKind::insert_edges`] takes the write lock — in-flight chunks
//! drain, the insertion repairs the labeling, and queued chunks then
//! observe the post-insert index. Inserting into the other kinds fails
//! with [`InsertError::NotDynamic`] (the daemon maps this to HTTP 409).

use parking_lot::RwLock;
use pspc_core::{DiSpcIndex, DynamicDistanceIndex, ShardedSpcIndex, SnapshotKind, SpcIndex};
use pspc_graph::{SpcAnswer, VertexId};
use std::sync::atomic::{AtomicU64, Ordering};

/// Edges applied per write-lock acquisition in
/// [`IndexKind::insert_edges`]: large insert batches release the lock
/// between slices so queued query chunks interleave instead of stalling
/// behind the whole batch.
pub const INSERT_SLICE: usize = 256;

/// A servable index of any kind. See the [module docs](self).
pub enum IndexKind {
    /// The undirected ESPC counting index.
    Undirected(SpcIndex),
    /// The directed `Lin`/`Lout` counting index; pairs are s → t.
    Directed(DiSpcIndex),
    /// The insertion-only dynamic distance index, mutable under a write
    /// lock while queries drain around it.
    Dynamic(DynamicShared),
    /// The undirected index served from a sharded snapshot with bounded
    /// mapped residency (`pspc serve --mmap` on a shard manifest).
    /// Query semantics are identical to [`IndexKind::Undirected`].
    Sharded(ShardedSpcIndex),
}

/// The shared state of a served dynamic index: the labeling behind its
/// write lock plus the **index generation counter**.
///
/// The counter starts at 0 and is bumped (under the write lock) by every
/// [`IndexKind::insert_edges`] slice that actually changed the graph, so
/// any observer holding a generation value can tell whether the index
/// has since evolved. The [`crate::cache::AnswerCache`] stamps entries
/// with the generation loaded *before* an answer was computed and
/// rejects any entry whose stamp is not current — which makes an insert
/// an implicit whole-cache invalidation. Static kinds report a constant
/// generation of 0 (their graphs never change).
pub struct DynamicShared {
    index: RwLock<DynamicDistanceIndex>,
    generation: AtomicU64,
}

impl DynamicShared {
    fn new(index: DynamicDistanceIndex) -> Self {
        DynamicShared {
            index: RwLock::new(index),
            generation: AtomicU64::new(0),
        }
    }
}

/// Rejection from [`IndexKind::insert_edges`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertError {
    /// The served index is not the dynamic kind; it cannot accept edge
    /// insertions (rebuild instead).
    NotDynamic,
    /// An endpoint is outside the index's vertex range.
    OutOfRange {
        /// The offending edge.
        edge: (VertexId, VertexId),
        /// Vertices the index covers.
        num_vertices: usize,
    },
}

impl std::fmt::Display for InsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            InsertError::NotDynamic => {
                write!(
                    f,
                    "index is not dynamic: edge insertions need a snapshot built with --dynamic"
                )
            }
            InsertError::OutOfRange {
                edge: (u, v),
                num_vertices,
            } => write!(
                f,
                "vertex out of range in edge ({u}, {v}): index has {num_vertices} vertices"
            ),
        }
    }
}

impl std::error::Error for InsertError {}

/// Maps a dynamic distance answer onto the wire answer shape: the
/// dynamic labeling maintains distances only, so a reachable pair
/// reports `count = 1` and an unreachable one the usual
/// [`SpcAnswer::UNREACHABLE`] sentinel. Public so reference
/// implementations (the parity harness, benchmarks) share the one
/// mapping instead of re-encoding it.
#[inline]
pub fn dyn_answer(d: Option<u16>) -> SpcAnswer {
    match d {
        Some(dist) => SpcAnswer { dist, count: 1 },
        None => SpcAnswer::UNREACHABLE,
    }
}

impl IndexKind {
    /// Kind name, matching [`pspc_core::snapshot_kind_name`].
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::Undirected(_) => "undirected",
            IndexKind::Directed(_) => "directed",
            IndexKind::Dynamic(_) => "dynamic",
            IndexKind::Sharded(_) => "sharded",
        }
    }

    /// Numeric kind code for metrics gauges: 0 undirected, 1 directed,
    /// 2 dynamic, 3 sharded.
    pub fn code(&self) -> u8 {
        match self {
            IndexKind::Undirected(_) => 0,
            IndexKind::Directed(_) => 1,
            IndexKind::Dynamic(_) => 2,
            IndexKind::Sharded(_) => 3,
        }
    }

    /// The sharded index behind this kind, if any — the daemon samples
    /// its residency gauge (`pspc_index_resident_shards`) from here.
    pub fn as_sharded(&self) -> Option<&ShardedSpcIndex> {
        match self {
            IndexKind::Sharded(i) => Some(i),
            _ => None,
        }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        match self {
            IndexKind::Undirected(i) => i.num_vertices(),
            IndexKind::Directed(i) => i.num_vertices(),
            IndexKind::Dynamic(d) => d.index.read().num_vertices(),
            IndexKind::Sharded(i) => i.num_vertices(),
        }
    }

    /// Whether [`IndexKind::insert_edges`] can succeed on this kind.
    pub fn is_dynamic(&self) -> bool {
        matches!(self, IndexKind::Dynamic(_))
    }

    /// Label payload bytes of the served index (the daemon's
    /// `pspc_index_label_bytes` gauge). The dynamic labeling stores
    /// `(u32 hub, u16 dist)` entries.
    pub fn label_bytes(&self) -> usize {
        match self {
            IndexKind::Undirected(i) => i.stats().label_bytes,
            IndexKind::Directed(i) => i.stats().label_bytes,
            IndexKind::Dynamic(d) => d.index.read().num_entries() * 6,
            IndexKind::Sharded(i) => i.label_bytes(),
        }
    }

    /// Translates original-id pairs into rank space once per batch (the
    /// sort key and the per-chunk queries both live in rank space).
    pub fn rank_pairs(&self, pairs: &[(VertexId, VertexId)]) -> Vec<(u32, u32)> {
        let translate = |order: &pspc_order::VertexOrder| {
            pairs
                .iter()
                .map(|&(s, t)| (order.rank_of(s), order.rank_of(t)))
                .collect()
        };
        match self {
            IndexKind::Undirected(i) => translate(i.order()),
            IndexKind::Directed(i) => translate(i.order()),
            // The vertex order is fixed at build time — insertions never
            // re-rank — so ranks translated here stay valid even if an
            // insert lands before the chunks execute.
            IndexKind::Dynamic(d) => translate(d.index.read().order()),
            IndexKind::Sharded(i) => translate(i.order()),
        }
    }

    /// Rank-space chunk evaluation into a caller-owned buffer (`out` is
    /// cleared and refilled index-aligned). The dynamic kind holds the
    /// read lock for the whole chunk, so an insert waits for at most one
    /// chunk per worker before its write lock is granted.
    pub fn query_rank_batch_into(&self, rank_pairs: &[(u32, u32)], out: &mut Vec<SpcAnswer>) {
        match self {
            IndexKind::Undirected(i) => i.query_rank_batch_into(rank_pairs, out),
            IndexKind::Directed(i) => i.query_rank_batch_into(rank_pairs, out),
            IndexKind::Sharded(i) => i.query_rank_batch_into(rank_pairs, out),
            IndexKind::Dynamic(d) => {
                let idx = d.index.read();
                out.clear();
                out.extend(
                    rank_pairs
                        .iter()
                        .map(|&(rs, rt)| dyn_answer(idx.distance_ranks(rs, rt))),
                );
            }
        }
    }

    /// The single-threaded reference evaluation the parity harness pins
    /// the engine against: plain sequential queries, no pool, no chunks.
    pub fn query_batch_sequential(&self, pairs: &[(VertexId, VertexId)]) -> Vec<SpcAnswer> {
        match self {
            IndexKind::Undirected(i) => i.query_batch_sequential(pairs),
            IndexKind::Directed(i) => i.query_batch_sequential(pairs),
            IndexKind::Sharded(i) => i.query_batch_sequential(pairs),
            IndexKind::Dynamic(d) => {
                let idx = d.index.read();
                pairs
                    .iter()
                    .map(|&(s, t)| dyn_answer(idx.distance(s, t)))
                    .collect()
            }
        }
    }

    /// Applies edge insertions to a dynamic index under the write lock
    /// (queries drain around it; see the [module docs](self)). Returns
    /// how many edges were actually new (duplicates and self-loops do
    /// not count). All-or-nothing on validation: no edge is applied if
    /// any endpoint is out of range.
    ///
    /// Large batches are applied in [`INSERT_SLICE`]-edge slices with
    /// the write lock released between them, so a huge insert frame
    /// cannot starve query traffic for its whole duration — queries see
    /// the index after some prefix of the batch, which is already the
    /// chunk-level consistency the engine promises.
    pub fn insert_edges(&self, edges: &[(VertexId, VertexId)]) -> Result<usize, InsertError> {
        let IndexKind::Dynamic(d) = self else {
            return Err(InsertError::NotDynamic);
        };
        let n = self.num_vertices();
        if let Some(&(u, v)) = edges
            .iter()
            .find(|&&(u, v)| u as usize >= n || v as usize >= n)
        {
            return Err(InsertError::OutOfRange {
                edge: (u, v),
                num_vertices: n,
            });
        }
        let mut applied = 0;
        for slice in edges.chunks(INSERT_SLICE) {
            let mut idx = d.index.write();
            let new = slice
                .iter()
                .filter(|&&(u, v)| idx.insert_edge(u, v))
                .count();
            if new > 0 {
                // Bump *after* the edges land and still under the write
                // lock, so no reader can observe the new generation
                // paired with the old graph. A racing cache fill that
                // loaded the old generation before this bump stamps its
                // entry stale — conservative, never incorrect.
                d.generation.fetch_add(1, Ordering::Release);
            }
            applied += new;
        }
        Ok(applied)
    }

    /// The index generation counter: 0 at load, bumped by every
    /// [`IndexKind::insert_edges`] slice that changed the graph. Static
    /// kinds are constant 0 — their graphs never evolve, so any stamped
    /// answer stays valid forever. See [`DynamicShared`].
    ///
    /// Consumers beyond the cache's stale-entry check: the adaptive
    /// cache advisor resizes the answer cache *between* generations —
    /// [`crate::AnswerCache::resize`] needs no coordination with this
    /// counter because every surviving entry keeps its stamp, so a
    /// resize racing an insert still serves no stale answer.
    pub fn generation(&self) -> u64 {
        match self {
            IndexKind::Undirected(_) | IndexKind::Directed(_) | IndexKind::Sharded(_) => 0,
            IndexKind::Dynamic(d) => d.generation.load(Ordering::Acquire),
        }
    }
}

impl From<SnapshotKind> for IndexKind {
    fn from(s: SnapshotKind) -> Self {
        match s {
            SnapshotKind::Undirected(i) => IndexKind::Undirected(i),
            SnapshotKind::Directed(i) => IndexKind::Directed(i),
            SnapshotKind::Dynamic(i) => IndexKind::Dynamic(DynamicShared::new(i)),
        }
    }
}

impl From<SpcIndex> for IndexKind {
    fn from(i: SpcIndex) -> Self {
        IndexKind::Undirected(i)
    }
}

impl From<DiSpcIndex> for IndexKind {
    fn from(i: DiSpcIndex) -> Self {
        IndexKind::Directed(i)
    }
}

impl From<DynamicDistanceIndex> for IndexKind {
    fn from(i: DynamicDistanceIndex) -> Self {
        IndexKind::Dynamic(DynamicShared::new(i))
    }
}

impl From<ShardedSpcIndex> for IndexKind {
    fn from(i: ShardedSpcIndex) -> Self {
        IndexKind::Sharded(i)
    }
}

impl std::fmt::Debug for IndexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "IndexKind::{} ({} vertices)",
            self.name(),
            self.num_vertices()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspc_core::directed::pspc::{build_di_pspc, DiPspcConfig};
    use pspc_core::{build_pspc, PspcConfig};
    use pspc_graph::digraph::erdos_renyi_digraph;
    use pspc_graph::generators::erdos_renyi;
    use pspc_order::OrderingStrategy;

    #[test]
    fn kind_names_and_codes() {
        let g = erdos_renyi(30, 60, 1);
        let und: IndexKind = build_pspc(&g, &PspcConfig::default()).0.into();
        let dir: IndexKind =
            build_di_pspc(&erdos_renyi_digraph(30, 90, 1), &DiPspcConfig::default()).into();
        let dynk: IndexKind = DynamicDistanceIndex::build(&g, OrderingStrategy::Degree).into();
        for (k, name, code, dynamic) in [
            (&und, "undirected", 0u8, false),
            (&dir, "directed", 1, false),
            (&dynk, "dynamic", 2, true),
        ] {
            assert_eq!(k.name(), name);
            assert_eq!(k.code(), code);
            assert_eq!(k.is_dynamic(), dynamic);
            assert_eq!(k.num_vertices(), 30);
            assert!(format!("{k:?}").contains(name));
        }
    }

    #[test]
    fn sequential_reference_matches_underlying_index() {
        let g = erdos_renyi(40, 90, 2);
        let pairs: Vec<(u32, u32)> = (0..40).map(|i| (i, (i * 7 + 3) % 40)).collect();

        let (spc, _) = build_pspc(&g, &PspcConfig::default());
        let expect = spc.query_batch_sequential(&pairs);
        let und: IndexKind = spc.into();
        assert_eq!(und.query_batch_sequential(&pairs), expect);

        let dg = erdos_renyi_digraph(40, 150, 2);
        let di = build_di_pspc(&dg, &DiPspcConfig::default());
        let expect: Vec<_> = pairs.iter().map(|&(s, t)| di.query(s, t)).collect();
        let dir: IndexKind = di.into();
        assert_eq!(dir.query_batch_sequential(&pairs), expect);

        let dyn_idx = DynamicDistanceIndex::build(&g, OrderingStrategy::Degree);
        let expect: Vec<_> = pairs
            .iter()
            .map(|&(s, t)| super::dyn_answer(dyn_idx.distance(s, t)))
            .collect();
        let dynk: IndexKind = dyn_idx.into();
        assert_eq!(dynk.query_batch_sequential(&pairs), expect);
    }

    #[test]
    fn insert_semantics_per_kind() {
        let g = erdos_renyi(20, 30, 3);
        let und: IndexKind = build_pspc(&g, &PspcConfig::default()).0.into();
        assert_eq!(und.insert_edges(&[(0, 1)]), Err(InsertError::NotDynamic));

        let dynk: IndexKind = DynamicDistanceIndex::build(&g, OrderingStrategy::Degree).into();
        assert_eq!(
            dynk.insert_edges(&[(0, 99)]),
            Err(InsertError::OutOfRange {
                edge: (0, 99),
                num_vertices: 20
            })
        );
        // Self loops and duplicates are not counted as applied.
        let applied = dynk.insert_edges(&[(4, 4), (0, 19), (0, 19)]).unwrap();
        assert_eq!(applied, 1);
        assert_eq!(
            dynk.query_batch_sequential(&[(0, 19)])[0],
            SpcAnswer { dist: 1, count: 1 }
        );
    }

    #[test]
    fn generation_tracks_graph_changes_only() {
        let g = erdos_renyi(20, 30, 3);
        let und: IndexKind = build_pspc(&g, &PspcConfig::default()).0.into();
        assert_eq!(und.generation(), 0);
        let _ = und.insert_edges(&[(0, 1)]);
        assert_eq!(und.generation(), 0, "static kinds never advance");

        let dynk: IndexKind = DynamicDistanceIndex::build(&g, OrderingStrategy::Degree).into();
        assert_eq!(dynk.generation(), 0);
        // A rejected batch changes nothing.
        assert!(dynk.insert_edges(&[(0, 99)]).is_err());
        assert_eq!(dynk.generation(), 0);
        // Self-loops and duplicates of existing edges change nothing.
        let dup = g.neighbors(0).first().copied().map(|v| (0, v));
        if let Some(dup) = dup {
            assert_eq!(dynk.insert_edges(&[(4, 4), dup]).unwrap(), 0);
            assert_eq!(dynk.generation(), 0);
        }
        // A batch that applies at least one new edge advances it.
        assert_eq!(dynk.insert_edges(&[(0, 19)]).unwrap(), 1);
        assert_eq!(dynk.generation(), 1);
        // And monotonically so.
        assert_eq!(dynk.insert_edges(&[(1, 19)]).unwrap(), 1);
        assert_eq!(dynk.generation(), 2);
    }

    #[test]
    fn insert_error_messages_are_actionable() {
        assert!(InsertError::NotDynamic.to_string().contains("--dynamic"));
        assert!(InsertError::OutOfRange {
            edge: (0, 99),
            num_vertices: 20
        }
        .to_string()
        .contains("out of range"));
    }
}
