//! Cache-correctness pins for the hot-pair result cache.
//!
//! * a proptest interleaving random query batches and edge insertions
//!   over a dynamic index, run across 1/2/4 workers: every answer from
//!   the cache-enabled engine must be bit-identical to a sequential
//!   reference index that applied the same operations in the same order
//!   (so a stale cache hit anywhere diverges and fails);
//! * an eviction test proving the configured capacity is respected under
//!   a working set far larger than the cache;
//! * a generation test proving a warm hit never survives an
//!   `apply_inserts` that changed the graph.

use proptest::collection::vec;
use proptest::prelude::*;
use pspc_core::DynamicDistanceIndex;
use pspc_graph::GraphBuilder;
use pspc_order::OrderingStrategy;
use pspc_service::kind::dyn_answer;
use pspc_service::{EngineConfig, QueryEngine};

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Replays the same op sequence against (a) a sequential reference
    /// index and (b) a cache-enabled engine, asserting every query
    /// batch bit-identical. Because batches repeat pairs within and
    /// across steps, later steps are routinely served from the cache —
    /// including right after inserts, where only generation stamping
    /// keeps the answers honest.
    #[test]
    fn cached_answers_match_uncached_under_interleaving(
        n in 3usize..24,
        raw_edges in vec((0u32..24, 0u32..24), 1..60),
        // Each step: (tag, pair list) — tag 0 inserts the (truncated)
        // list as edges, anything else queries it as a batch.
        ops in vec((0u32..4, vec((0u32..24, 0u32..24), 1..24)), 1..16),
    ) {
        let n32 = n as u32;
        let clamp = |ps: &[(u32, u32)]| -> Vec<(u32, u32)> {
            ps.iter().map(|&(a, b)| (a % n32, b % n32)).collect()
        };
        let g = GraphBuilder::new()
            .num_vertices(n)
            .edges(clamp(&raw_edges))
            .build();

        for workers in WORKER_COUNTS {
            let mut reference = DynamicDistanceIndex::build(&g, OrderingStrategy::Degree);
            let engine = QueryEngine::with_kind(
                DynamicDistanceIndex::build(&g, OrderingStrategy::Degree),
                EngineConfig {
                    workers,
                    chunk_size: 8,
                    cache_capacity: 64,
                    ..EngineConfig::default()
                },
            );
            for (step, (tag, list)) in ops.iter().enumerate() {
                if *tag == 0 {
                    let es: Vec<_> = clamp(list).into_iter().take(5).collect();
                    for &(u, v) in &es {
                        reference.insert_edge(u, v);
                    }
                    engine.apply_inserts(&es).expect("in-range inserts");
                } else {
                    let ps = clamp(list);
                    let expect: Vec<_> = ps
                        .iter()
                        .map(|&(s, t)| dyn_answer(reference.distance(s, t)))
                        .collect();
                    // Twice: fill then hit, both against the same
                    // reference state.
                    for pass in ["cold", "warm"] {
                        prop_assert_eq!(
                            engine.run(&ps),
                            expect.clone(),
                            "workers={} step={} pass={}",
                            workers,
                            step,
                            pass
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn eviction_respects_capacity_under_large_working_set() {
    let g = GraphBuilder::new()
        .num_vertices(64)
        .edges((0..63u32).map(|i| (i, i + 1)))
        .build();
    let engine = QueryEngine::with_kind(
        DynamicDistanceIndex::build(&g, OrderingStrategy::Degree),
        EngineConfig {
            workers: 2,
            cache_capacity: 32,
            ..EngineConfig::default()
        },
    );
    // 64 * 64 = 4096 distinct pairs against 32 slots.
    let all: Vec<(u32, u32)> = (0..64u32)
        .flat_map(|s| (0..64u32).map(move |t| (s, t)))
        .collect();
    for chunk in all.chunks(256) {
        let _ = engine.run(chunk);
    }
    let cache = engine.cache().expect("enabled");
    let stats = cache.stats();
    assert!(
        stats.entries <= cache.capacity() as u64,
        "entries {} exceed capacity {}",
        stats.entries,
        cache.capacity()
    );
    assert!(
        stats.evictions > 0,
        "a 4096-pair sweep over 32 slots must evict: {stats:?}"
    );
    // Parity survives churn.
    let ps: Vec<(u32, u32)> = (0..64u32).map(|i| (0, i)).collect();
    assert_eq!(engine.run(&ps), engine.kind().query_batch_sequential(&ps));
}

#[test]
fn warm_hits_never_survive_a_graph_changing_insert() {
    // Path 0 — 1 — … — 15: dist(0, 15) = 15 until a shortcut lands.
    let g = GraphBuilder::new()
        .num_vertices(16)
        .edges((0..15u32).map(|i| (i, i + 1)))
        .build();
    let engine = QueryEngine::with_kind(
        DynamicDistanceIndex::build(&g, OrderingStrategy::Degree),
        EngineConfig {
            workers: 1,
            cache_capacity: 16,
            ..EngineConfig::default()
        },
    );
    let pair = [(0u32, 15u32)];
    assert_eq!(engine.run(&pair)[0].dist, 15);
    assert_eq!(engine.run(&pair)[0].dist, 15, "warm hit");
    let hits_before = engine.cache().unwrap().stats().hits;
    assert!(hits_before >= 1, "second pass must have hit");

    assert_eq!(engine.apply_inserts(&[(0, 15)]).unwrap(), 1);
    assert_eq!(engine.kind().generation(), 1);
    assert_eq!(
        engine.run(&pair)[0].dist,
        1,
        "the stale generation-0 entry must not be served"
    );

    // An insert that does NOT change the graph (duplicate) keeps the
    // generation, so warm entries stay valid.
    let hits = engine.cache().unwrap().stats().hits;
    assert_eq!(engine.apply_inserts(&[(0, 15)]).unwrap(), 0);
    assert_eq!(engine.kind().generation(), 1);
    assert_eq!(engine.run(&pair)[0].dist, 1);
    assert!(
        engine.cache().unwrap().stats().hits > hits,
        "a no-op insert must not invalidate warm entries"
    );
}
