//! The cross-kind parity harness: for random graphs and random batches,
//! [`QueryEngine`] answers over every [`IndexKind`] are pinned
//! bit-identical to the corresponding `pspc_core` sequential reference,
//! across 1/2/4 worker configurations.
//!
//! * `Undirected` — `SpcIndex::query_batch_sequential`;
//! * `Directed` — `DiSpcIndex::query_batch_sequential` over a digraph
//!   built from the same arc list (ordered `s → t` pairs);
//! * `Dynamic` — the dynamic distance index after a stream of edge
//!   insertions, applied to the reference copy directly and to the
//!   engine's copy through [`QueryEngine::apply_inserts`] (so the
//!   write-lock path itself is under test), mapped onto the wire answer
//!   shape (`count = 1` when reachable).
//!
//! Every engine runs with the result cache **enabled** and each batch
//! twice — the second pass is served from the cache, so hit-path parity
//! is pinned alongside miss-path parity. The dynamic leg additionally
//! fills the cache *before* applying the inserts, proving generation
//! stamping invalidates pre-insert answers.

use proptest::collection::vec;
use proptest::prelude::*;
use pspc_core::directed::pspc::{build_di_pspc, DiPspcConfig};
use pspc_core::{build_pspc, DynamicDistanceIndex, PspcConfig};
use pspc_graph::digraph::DiGraphBuilder;
use pspc_graph::{GraphBuilder, SpcAnswer};
use pspc_order::OrderingStrategy;
use pspc_service::kind::dyn_answer;
use pspc_service::{EngineConfig, IndexKind, QueryEngine};

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// Runs `make_kind()` through the engine at every worker count and pins
/// the answers against `expect` (panicking asserts — the proptest shim
/// reports the generated inputs on panic).
fn assert_engine_parity(
    make_kind: &dyn Fn() -> IndexKind,
    pairs: &[(u32, u32)],
    expect: &[SpcAnswer],
    chunk_size: usize,
) {
    for workers in WORKER_COUNTS {
        let engine = QueryEngine::with_kind(
            make_kind(),
            EngineConfig {
                workers,
                chunk_size,
                cache_capacity: 256,
                ..EngineConfig::default()
            },
        );
        // Twice: the first pass fills the cache, the second is served
        // (at least partly) from it — both must match the reference.
        for pass in ["cold", "warm"] {
            assert_eq!(
                engine.run(pairs).as_slice(),
                expect,
                "kind={} workers={} chunk={} pass={}",
                engine.kind().name(),
                workers,
                chunk_size,
                pass
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_matches_sequential_reference_for_every_kind(
        n in 2usize..40,
        raw_edges in vec((0u32..40, 0u32..40), 0..140),
        raw_inserts in vec((0u32..40, 0u32..40), 1..20),
        raw_pairs in vec((0u32..40, 0u32..40), 0..200),
        chunk_size in 1usize..48,
    ) {
        let n32 = n as u32;
        let clamp = |ps: &[(u32, u32)]| -> Vec<(u32, u32)> {
            ps.iter().map(|&(a, b)| (a % n32, b % n32)).collect()
        };
        let edges = clamp(&raw_edges);
        let inserts = clamp(&raw_inserts);
        let pairs = clamp(&raw_pairs);

        // Undirected: the counting index.
        let g = GraphBuilder::new().num_vertices(n).edges(edges.clone()).build();
        let (spc, _) = build_pspc(&g, &PspcConfig::default());
        let expect = spc.query_batch_sequential(&pairs);
        assert_engine_parity(
            &|| spc.clone().into(),
            &pairs,
            &expect,
            chunk_size,
        );

        // Directed: the same pair list as an arc list, pairs are s → t.
        let dg = DiGraphBuilder::new().num_vertices(n).arcs(edges.clone()).build();
        let di = build_di_pspc(&dg, &DiPspcConfig::default());
        let expect = di.query_batch_sequential(&pairs);
        assert_engine_parity(
            &|| di.clone().into(),
            &pairs,
            &expect,
            chunk_size,
        );

        // Dynamic: post-insert distances. The reference copy takes the
        // insertions directly; each engine takes them through
        // apply_inserts, exercising the write-lock path.
        let mut reference = DynamicDistanceIndex::build(&g, OrderingStrategy::Degree);
        for &(u, v) in &inserts {
            reference.insert_edge(u, v);
        }
        let expect: Vec<SpcAnswer> = pairs
            .iter()
            .map(|&(s, t)| dyn_answer(reference.distance(s, t)))
            .collect();
        for workers in WORKER_COUNTS {
            let engine = QueryEngine::with_kind(
                DynamicDistanceIndex::build(&g, OrderingStrategy::Degree),
                EngineConfig {
                    workers,
                    chunk_size,
                    cache_capacity: 256,
                    ..EngineConfig::default()
                },
            );
            // Fill the cache with pre-insert answers first: if an
            // applied insert fails to invalidate them, the post-insert
            // pass below serves stale distances and diverges.
            let _ = engine.run(&pairs);
            engine.apply_inserts(&inserts).expect("dynamic engine accepts inserts");
            for pass in ["cold", "warm"] {
                prop_assert_eq!(
                    engine.run(&pairs),
                    expect.clone(),
                    "dynamic: workers={} chunk={} pass={}",
                    workers,
                    chunk_size,
                    pass
                );
            }
        }
    }
}
