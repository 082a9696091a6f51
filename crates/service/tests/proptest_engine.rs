//! Property test pinning the engine's core contract: for random graphs
//! and random batches, [`QueryEngine`] answers are identical —
//! answer-for-answer, in input order — to
//! `SpcIndex::query_batch_sequential`, across 1/2/4 worker
//! configurations, both sharding modes and adversarial chunk sizes.

use proptest::collection::vec;
use proptest::prelude::*;
use pspc_core::{build_pspc, PspcConfig};
use pspc_graph::{Graph, GraphBuilder};
use pspc_service::{EngineConfig, QueryEngine};

fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        vec((0..n as u32, 0..n as u32), 0..max_m)
            .prop_map(move |edges| GraphBuilder::new().num_vertices(n).edges(edges).build())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_sequential_across_worker_counts(
        g in arb_graph(60, 200),
        raw_pairs in vec((0u32..60, 0u32..60), 0..300),
        chunk_size in 1usize..64,
    ) {
        let n = g.num_vertices() as u32;
        let pairs: Vec<(u32, u32)> =
            raw_pairs.iter().map(|&(s, t)| (s % n, t % n)).collect();
        let (index, _) = build_pspc(&g, &PspcConfig::default());
        let expect = index.query_batch_sequential(&pairs);
        for workers in [1usize, 2, 4] {
            let engine = QueryEngine::with_config(
                index.clone(),
                EngineConfig { workers, chunk_size, ..EngineConfig::default() },
            );
            prop_assert_eq!(
                engine.run(&pairs),
                expect.clone(),
                "workers={} chunk={}",
                workers,
                chunk_size
            );
        }
    }
}
