//! Property-based coverage of the snapshot formats ([`pspc_core::serialize`]):
//! v2 round-trip identity, v1 ↔ v2 cross-format equality (on the v1
//! fixtures, since nothing writes v1 any more), the directed
//! (`PSPCDIR2`) and dynamic (`PSPCDYN2`) section layouts, kind
//! auto-detection, and — the part hand-written cases tend to miss — that
//! truncating or corrupting a snapshot at *arbitrary* positions
//! (including every section boundary) errors instead of panicking or
//! loading garbage.

use proptest::collection::vec;
use proptest::prelude::*;
use pspc_core::builder::{build_pspc, build_pspc_with_order};
use pspc_core::directed::pspc::{build_di_pspc, DiPspcConfig};
use pspc_core::serialize::{
    any_index_from_binary, di_index_from_binary, di_index_to_binary, dyn_index_from_binary,
    dyn_index_to_binary, index_from_binary, index_to_binary, snapshot_kind_name, Bytes,
};
use pspc_core::{
    map_index_from_file, open_sharded, sharded_to_owned, write_sharded_index, DiSpcIndex,
    DynamicDistanceIndex, PspcConfig, SnapshotKind, SpcIndex,
};
use pspc_graph::digraph::DiGraphBuilder;
use pspc_graph::generators::barabasi_albert;
use pspc_graph::{Graph, GraphBuilder};
use pspc_order::OrderingStrategy;

/// v1 snapshots of `barabasi_albert(24, 2, 1)`, unweighted and weighted,
/// written by the retired v1 writer (`golden_snapshots.rs` pins them).
const V1: &[u8] = include_bytes!("fixtures/ba24.v1.pspc");
const V1_WEIGHTED: &[u8] = include_bytes!("fixtures/ba24w.v1.pspc");

/// Strategy: an arbitrary simple graph with up to `max_n` vertices.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        vec((0..n as u32, 0..n as u32), 0..max_m)
            .prop_map(move |edges| GraphBuilder::new().num_vertices(n).edges(edges).build())
    })
}

/// Builds a (possibly weighted) index for snapshot testing.
fn build_index(g: &Graph, weighted: bool) -> SpcIndex {
    let n = g.num_vertices();
    let weights: Option<Vec<u64>> = weighted.then(|| (0..n as u64).map(|i| 1 + i % 3).collect());
    let order = OrderingStrategy::Degree.compute(g);
    build_pspc_with_order(g, order, weights.as_deref(), &PspcConfig::default()).0
}

/// The v2 header plus prefix sums of its six sections — every boundary a
/// reader could mis-handle.
fn v2_section_boundaries(idx: &SpcIndex) -> Vec<usize> {
    let n = idx.num_vertices();
    let m = idx.label_arena().num_entries();
    let w = if idx.weights().is_some() { n * 8 } else { 0 };
    let mut at = 80; // fixed header
    let mut cuts = vec![0, 8, 32, at];
    for len in [(n + 1) * 8, w, m * 8, n * 4, m * 4, m * 2] {
        at += len;
        cuts.push(at);
    }
    cuts
}

/// Header prefix plus prefix sums of the nine `PSPCDIR2` sections.
fn dir_section_boundaries(idx: &DiSpcIndex) -> Vec<usize> {
    let n = idx.num_vertices();
    let (m_in, m_out) = (
        idx.lin_arena().num_entries(),
        idx.lout_arena().num_entries(),
    );
    let mut at = 112; // fixed header
    let mut cuts = vec![0, 8, 40, at];
    for len in [
        (n + 1) * 8,
        (n + 1) * 8,
        m_in * 8,
        m_out * 8,
        n * 4,
        m_in * 4,
        m_out * 4,
        m_in * 2,
        m_out * 2,
    ] {
        at += len;
        cuts.push(at);
    }
    cuts
}

/// Header prefix plus prefix sums of the six `PSPCDYN2` sections.
fn dyn_section_boundaries(idx: &DynamicDistanceIndex) -> Vec<usize> {
    let n = idx.num_vertices();
    let m = idx.num_entries();
    let a = 2 * idx.num_edges();
    let mut at = 88; // fixed header
    let mut cuts = vec![0, 8, 40, at];
    for len in [(n + 1) * 8, (n + 1) * 8, n * 4, a * 4, m * 4, m * 2] {
        at += len;
        cuts.push(at);
    }
    cuts
}

/// Directed index over the clamped arc list.
fn build_directed(n: usize, arcs: &[(u32, u32)]) -> DiSpcIndex {
    let arcs: Vec<(u32, u32)> = arcs
        .iter()
        .map(|&(u, v)| (u % n as u32, v % n as u32))
        .collect();
    let g = DiGraphBuilder::new().num_vertices(n).arcs(arcs).build();
    build_di_pspc(&g, &DiPspcConfig::default())
}

/// Dynamic index over the clamped edge list, with a few post-build
/// insertions so the maintained adjacency differs from the build input.
fn build_dynamic(n: usize, edges: &[(u32, u32)], inserts: &[(u32, u32)]) -> DynamicDistanceIndex {
    let clamp = |ps: &[(u32, u32)]| -> Vec<(u32, u32)> {
        ps.iter()
            .map(|&(u, v)| (u % n as u32, v % n as u32))
            .collect()
    };
    let g = GraphBuilder::new()
        .num_vertices(n)
        .edges(clamp(edges))
        .build();
    let mut idx = DynamicDistanceIndex::build(&g, OrderingStrategy::Degree);
    for (u, v) in clamp(inserts) {
        idx.insert_edge(u, v);
    }
    idx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// v2 snapshots restore the order, arena and weights bit for bit.
    #[test]
    fn v2_round_trip_identity(g in arb_graph(36, 100), weighted in any::<bool>()) {
        let idx = build_index(&g, weighted);
        let restored = index_from_binary(index_to_binary(&idx)).unwrap();
        prop_assert_eq!(idx.order(), restored.order());
        prop_assert_eq!(idx.label_arena(), restored.label_arena());
        prop_assert_eq!(idx.weights(), restored.weights());
    }

    /// Truncating a v2 snapshot anywhere — in particular at and around
    /// every header/section boundary — errors, never panics, and never
    /// loads as a shorter valid snapshot.
    #[test]
    fn v2_truncation_errors_at_every_boundary(
        g in arb_graph(28, 70),
        weighted in any::<bool>(),
        jitter in 0usize..4,
    ) {
        let idx = build_index(&g, weighted);
        let bin = index_to_binary(&idx);
        for cut in v2_section_boundaries(&idx) {
            for len in cut.saturating_sub(jitter)..=(cut + jitter).min(bin.len()) {
                if len == bin.len() {
                    continue;
                }
                prop_assert!(
                    index_from_binary(bin.slice(..len)).is_err(),
                    "truncation to {} bytes of {} accepted", len, bin.len()
                );
            }
        }
        // Extending past the exact length must be rejected too.
        let mut extended = bin.to_vec();
        extended.extend_from_slice(&[0; 3]);
        prop_assert!(index_from_binary(Bytes::from(extended)).is_err());
        prop_assert!(index_from_binary(bin).is_ok());
    }

    /// `PSPCDIR2` snapshots restore the order and both label arenas bit
    /// for bit, and directed queries agree with the original.
    #[test]
    fn directed_round_trip_identity(
        n in 2usize..30,
        arcs in vec((0u32..30, 0u32..30), 0..120),
    ) {
        let idx = build_directed(n, &arcs);
        let restored = di_index_from_binary(di_index_to_binary(&idx)).unwrap();
        prop_assert_eq!(idx.order(), restored.order());
        prop_assert_eq!(idx.lin_arena(), restored.lin_arena());
        prop_assert_eq!(idx.lout_arena(), restored.lout_arena());
        for s in 0..(n as u32).min(6) {
            for t in 0..n as u32 {
                prop_assert_eq!(idx.query(s, t), restored.query(s, t));
            }
        }
    }

    /// `PSPCDYN2` snapshots restore the evolved adjacency and labeling:
    /// distances agree everywhere, and the restored index keeps
    /// accepting insertions with correct results.
    #[test]
    fn dynamic_round_trip_identity(
        n in 2usize..26,
        edges in vec((0u32..26, 0u32..26), 0..70),
        inserts in vec((0u32..26, 0u32..26), 0..12),
        extra in (0u32..26, 0u32..26),
    ) {
        let idx = build_dynamic(n, &edges, &inserts);
        let mut restored = dyn_index_from_binary(dyn_index_to_binary(&idx)).unwrap();
        prop_assert_eq!(idx.order(), restored.order());
        for s in 0..n as u32 {
            for t in 0..n as u32 {
                prop_assert_eq!(idx.distance(s, t), restored.distance(s, t));
            }
        }
        let (u, v) = (extra.0 % n as u32, extra.1 % n as u32);
        let mut reference = idx.clone();
        prop_assert_eq!(reference.insert_edge(u, v), restored.insert_edge(u, v));
        for s in 0..n as u32 {
            prop_assert_eq!(reference.distance(s, v), restored.distance(s, v));
        }
    }

    /// Kind auto-detection never misclassifies: every serialization's
    /// magic maps to its kind name, and `any_index_from_binary` yields
    /// the matching variant.
    #[test]
    fn kind_detection_never_misclassifies(
        n in 2usize..24,
        edges in vec((0u32..24, 0u32..24), 0..60),
        weighted in any::<bool>(),
    ) {
        let g = GraphBuilder::new()
            .num_vertices(n)
            .edges(edges.iter().map(|&(u, v)| (u % n as u32, v % n as u32)).collect::<Vec<_>>())
            .build();
        let und = build_index(&g, weighted);
        let dir = build_directed(n, &edges);
        let dynix = build_dynamic(n, &edges, &[]);
        for (bytes, want) in [
            (index_to_binary(&und), "undirected"),
            (Bytes::from(if weighted { V1_WEIGHTED } else { V1 }), "undirected"),
            (di_index_to_binary(&dir), "directed"),
            (dyn_index_to_binary(&dynix), "dynamic"),
        ] {
            prop_assert_eq!(snapshot_kind_name(&bytes), Some(want));
            let loaded = any_index_from_binary(bytes).unwrap();
            prop_assert_eq!(loaded.name(), want);
            let matches = matches!(
                (&loaded, want),
                (SnapshotKind::Undirected(_), "undirected")
                    | (SnapshotKind::Directed(_), "directed")
                    | (SnapshotKind::Dynamic(_), "dynamic")
            );
            prop_assert!(matches, "variant/name mismatch for {}", want);
        }
        // The undirected-only loader refuses the other kinds cleanly.
        prop_assert!(index_from_binary(di_index_to_binary(&dir)).is_err());
        prop_assert!(index_from_binary(dyn_index_to_binary(&dynix)).is_err());
    }

    /// Truncating a directed or dynamic snapshot at and around every
    /// header/section boundary errors, never panics, and never loads as
    /// a shorter valid snapshot; trailing bytes are rejected too.
    #[test]
    fn directed_dynamic_truncation_errors_at_every_boundary(
        n in 2usize..20,
        edges in vec((0u32..20, 0u32..20), 0..50),
        jitter in 0usize..4,
    ) {
        let dir = build_directed(n, &edges);
        let dynix = build_dynamic(n, &edges, &[]);
        for (bin, cuts) in [
            (di_index_to_binary(&dir), dir_section_boundaries(&dir)),
            (dyn_index_to_binary(&dynix), dyn_section_boundaries(&dynix)),
        ] {
            prop_assert_eq!(*cuts.last().unwrap(), bin.len());
            for cut in cuts {
                for len in cut.saturating_sub(jitter)..=(cut + jitter).min(bin.len()) {
                    if len == bin.len() {
                        continue;
                    }
                    prop_assert!(
                        any_index_from_binary(bin.slice(..len)).is_err(),
                        "truncation to {} bytes of {} accepted", len, bin.len()
                    );
                }
            }
            let mut extended = bin.to_vec();
            extended.extend_from_slice(&[0; 3]);
            prop_assert!(any_index_from_binary(Bytes::from(extended)).is_err());
            prop_assert!(any_index_from_binary(bin).is_ok());
        }
    }

    /// Flipping an arbitrary byte of a directed or dynamic snapshot must
    /// not panic: the load errors or yields an index passing the kind's
    /// structural validation.
    #[test]
    fn directed_dynamic_corruption_never_panics(
        n in 2usize..18,
        edges in vec((0u32..18, 0u32..18), 0..40),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let dir = build_directed(n, &edges);
        let dynix = build_dynamic(n, &edges, &[]);
        for bin in [di_index_to_binary(&dir), dyn_index_to_binary(&dynix)] {
            let mut tampered = bin.to_vec();
            let pos = (pos_seed % tampered.len() as u64) as usize;
            tampered[pos] ^= flip;
            // Both loaders validate structurally on load, so an Ok here
            // is a different but well-formed snapshot; a flipped magic
            // byte may also fall back to the v1 parser, which errors.
            let _ = any_index_from_binary(Bytes::from(tampered));
        }
    }

    /// Flipping an arbitrary byte of either format must not panic: the
    /// load either errors or yields an index that still passes full
    /// structural validation (e.g. a flipped count byte is a different
    /// but well-formed snapshot).
    #[test]
    fn corruption_never_panics(
        g in arb_graph(24, 60),
        weighted in any::<bool>(),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let idx = build_index(&g, weighted);
        let v1 = Bytes::from(if weighted { V1_WEIGHTED } else { V1 });
        for bin in [index_to_binary(&idx), v1] {
            let mut tampered = bin.to_vec();
            let pos = (pos_seed % tampered.len() as u64) as usize;
            tampered[pos] ^= flip;
            if let Ok(loaded) = index_from_binary(Bytes::from(tampered)) {
                prop_assert!(
                    loaded.validate().is_ok(),
                    "corrupt snapshot loaded without passing validation"
                );
            }
        }
    }
}

/// A v1 snapshot and a v2 snapshot of the same index load to equal
/// indexes (and queries agree with the original). The v1 side is a
/// fixture, so this runs on the two fixture indexes, not on random graphs.
#[test]
fn v1_v2_cross_format_equality() {
    let g = barabasi_albert(24, 2, 1);
    let w: Vec<u64> = (0..24).map(|i| 1 + i % 4).collect();
    let weighted = build_pspc_with_order(
        &g,
        OrderingStrategy::Degree.compute(&g),
        Some(&w),
        &PspcConfig::default(),
    );
    let unweighted = build_pspc(&g, &PspcConfig::default());
    for (v1, (idx, _)) in [(V1, unweighted), (V1_WEIGHTED, weighted)] {
        let from_v1 = index_from_binary(Bytes::from(v1)).unwrap();
        let from_v2 = index_from_binary(index_to_binary(&idx)).unwrap();
        assert_eq!(&from_v1, &from_v2);
        let n = g.num_vertices() as u32;
        for s in 0..n.min(8) {
            for t in 0..n {
                assert_eq!(idx.query(s, t), from_v2.query(s, t));
            }
        }
    }
}

/// A collision-free temp path for file-backed property cases.
fn temp_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "pspc-prop-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// RAII cleanup of a snapshot path and any `.NNNN` shard siblings.
struct TempSnapshot(std::path::PathBuf);

impl Drop for TempSnapshot {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        for i in 0..128 {
            let mut name = self.0.file_name().unwrap().to_os_string();
            name.push(format!(".{i:04}"));
            if std::fs::remove_file(self.0.with_file_name(name)).is_err() {
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The mapped loader and the copying loader produce bit-identical
    /// answers over arbitrary undirected snapshots (weighted included).
    #[test]
    fn mapped_matches_copying_loader(g in arb_graph(30, 80), weighted in any::<bool>()) {
        let idx = build_index(&g, weighted);
        let path = TempSnapshot(temp_path("map-und"));
        std::fs::write(&path.0, index_to_binary(&idx)).unwrap();
        let loaded = map_index_from_file(&path.0).unwrap();
        prop_assert!(matches!(loaded, SnapshotKind::Undirected(_)));
        let SnapshotKind::Undirected(mapped) = loaded else { unreachable!() };
        prop_assert!(mapped.is_mapped());
        prop_assert_eq!(idx.order(), mapped.order());
        prop_assert_eq!(idx.weights(), mapped.weights());
        let n = g.num_vertices() as u32;
        for s in 0..n.min(6) {
            for t in 0..n {
                prop_assert_eq!(idx.query(s, t), mapped.query(s, t));
            }
        }
    }

    /// Same parity for arbitrary directed snapshots.
    #[test]
    fn mapped_directed_matches_copying_loader(
        n in 2usize..24,
        arcs in vec((0u32..24, 0u32..24), 0..80),
    ) {
        let idx = build_directed(n, &arcs);
        let path = TempSnapshot(temp_path("map-dir"));
        std::fs::write(&path.0, di_index_to_binary(&idx)).unwrap();
        let loaded = map_index_from_file(&path.0).unwrap();
        prop_assert!(matches!(loaded, SnapshotKind::Directed(_)));
        let SnapshotKind::Directed(mapped) = loaded else { unreachable!() };
        for s in 0..(n as u32).min(6) {
            for t in 0..n as u32 {
                prop_assert_eq!(idx.query(s, t), mapped.query(s, t));
            }
        }
    }

    /// Dynamic snapshots are never mapped (they mutate in place): the
    /// mapped loader signals `Unsupported` and the copying loader keeps
    /// working on the same file.
    #[test]
    fn mapped_dynamic_is_unsupported(
        n in 2usize..20,
        edges in vec((0u32..20, 0u32..20), 0..50),
    ) {
        let idx = build_dynamic(n, &edges, &[]);
        let path = TempSnapshot(temp_path("map-dyn"));
        std::fs::write(&path.0, dyn_index_to_binary(&idx)).unwrap();
        let err = map_index_from_file(&path.0).unwrap_err();
        prop_assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
        prop_assert!(any_index_from_binary(Bytes::from(std::fs::read(&path.0).unwrap())).is_ok());
    }

    /// Sharded snapshots round-trip: the lazily-mapped sharded index and
    /// the owned reader both answer bit-identically to the source index,
    /// for arbitrary graphs, shard-size targets and residency caps.
    #[test]
    fn sharded_matches_source_index(
        g in arb_graph(30, 80),
        weighted in any::<bool>(),
        shard_bytes in 128u64..4096,
        max_resident in 1usize..4,
    ) {
        let idx = build_index(&g, weighted);
        let path = TempSnapshot(temp_path("shard"));
        write_sharded_index(&idx, &path.0, shard_bytes).unwrap();
        let owned = sharded_to_owned(&path.0).unwrap();
        prop_assert_eq!(idx.label_arena(), owned.label_arena());
        prop_assert_eq!(idx.order(), owned.order());
        prop_assert_eq!(idx.weights(), owned.weights());
        let sharded = open_sharded(&path.0, max_resident).unwrap();
        let n = g.num_vertices() as u32;
        for s in 0..n.min(6) {
            for t in 0..n {
                prop_assert_eq!(idx.query(s, t), sharded.query(s, t));
            }
            prop_assert!(sharded.resident_shards() <= sharded.max_resident());
        }
    }

    /// Truncating the manifest anywhere, or a shard file at and around
    /// every section boundary, errors — never UB, segfault or panic.
    #[test]
    fn sharded_truncation_errors_at_every_boundary(
        g in arb_graph(24, 60),
        weighted in any::<bool>(),
        manifest_cut_seed in any::<u64>(),
        jitter in 0usize..4,
    ) {
        let idx = build_index(&g, weighted);
        let path = TempSnapshot(temp_path("shard-trunc"));
        write_sharded_index(&idx, &path.0, 512).unwrap();
        let manifest = std::fs::read(&path.0).unwrap();

        // Arbitrary manifest prefix (strictly shorter) is rejected.
        let cut = (manifest_cut_seed % manifest.len() as u64) as usize;
        if cut < manifest.len() {
            std::fs::write(&path.0, &manifest[..cut]).unwrap();
            prop_assert!(open_sharded(&path.0, 2).is_err(), "manifest prefix {} accepted", cut);
            prop_assert!(sharded_to_owned(&path.0).is_err());
            std::fs::write(&path.0, &manifest).unwrap();
        }

        // Shard 0 cut at every section boundary ± jitter is rejected.
        let mut name = path.0.file_name().unwrap().to_os_string();
        name.push(".0000");
        let shard0 = path.0.with_file_name(name);
        let bytes = std::fs::read(&shard0).unwrap();
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let mut cuts = vec![0usize, 8, 71, 72];
        let mut at = 72; // fixed shard header
        for i in 0..4 {
            at += u64_at(40 + 8 * i) as usize;
            cuts.push(at);
        }
        prop_assert_eq!(*cuts.last().unwrap(), bytes.len());
        for cut in cuts {
            for len in cut.saturating_sub(jitter)..=(cut + jitter).min(bytes.len()) {
                if len == bytes.len() {
                    continue;
                }
                std::fs::write(&shard0, &bytes[..len]).unwrap();
                prop_assert!(open_sharded(&path.0, 2).is_err(), "shard cut {} accepted", len);
                prop_assert!(sharded_to_owned(&path.0).is_err());
            }
        }
        std::fs::write(&shard0, &bytes).unwrap();
        prop_assert!(open_sharded(&path.0, 2).is_ok());
    }
}
