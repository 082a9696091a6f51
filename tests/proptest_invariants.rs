//! Property-based tests over random graphs: the index invariants the whole
//! system rests on, checked against the brute-force oracle on arbitrary
//! inputs rather than hand-picked examples.

use proptest::collection::vec;
use proptest::prelude::*;
use pspc::graph::spc_bfs::{spc_all_pairs, spc_pair_weighted};
use pspc::prelude::*;

/// Strategy: an arbitrary simple graph with up to `max_n` vertices.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        vec((0..n as u32, 0..n as u32), 0..max_m)
            .prop_map(move |edges| GraphBuilder::new().num_vertices(n).edges(edges).build())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// PSPC and HP-SPC build the same ESPC for every graph and order.
    #[test]
    fn espc_unique_given_order(g in arb_graph(40, 120), degree_order in any::<bool>()) {
        let strategy = if degree_order {
            OrderingStrategy::Degree
        } else {
            OrderingStrategy::Hybrid { delta: 2 }
        };
        let order = strategy.compute(&g);
        let seq = build_hpspc_with_order(&g, order.clone(), None);
        let cfg = PspcConfig { ordering: strategy, num_landmarks: 5, ..PspcConfig::default() };
        let (par, _) = build_pspc_with_order(&g, order, None, &cfg);
        prop_assert_eq!(seq.label_arena(), par.label_arena());
    }

    /// Index queries equal the counting-BFS ground truth on ALL pairs.
    #[test]
    fn queries_exact_on_all_pairs(g in arb_graph(30, 90)) {
        let (idx, _) = build_pspc(&g, &PspcConfig { num_landmarks: 4, ..PspcConfig::default() });
        prop_assert!(idx.validate().is_ok());
        let truth = spc_all_pairs(&g);
        let n = g.num_vertices();
        for s in 0..n as u32 {
            for t in 0..n as u32 {
                prop_assert_eq!(idx.query(s, t), truth[s as usize][t as usize]);
            }
        }
    }

    /// Query symmetry: undirected graphs must give SPC(s,t) = SPC(t,s).
    #[test]
    fn query_symmetry(g in arb_graph(35, 100)) {
        let (idx, _) = build_pspc(&g, &PspcConfig::default());
        let n = g.num_vertices() as u32;
        for s in 0..n {
            for t in (s + 1)..n {
                prop_assert_eq!(idx.query(s, t), idx.query(t, s));
            }
        }
    }

    /// The composed reduction pipeline stays exact on arbitrary graphs.
    #[test]
    fn reductions_exact(g in arb_graph(28, 70)) {
        let ri = ReducedIndex::build(&g, &PspcConfig { num_landmarks: 0, ..PspcConfig::default() });
        let truth = spc_all_pairs(&g);
        let n = g.num_vertices() as u32;
        for s in 0..n {
            for t in 0..n {
                prop_assert_eq!(ri.query(s, t), truth[s as usize][t as usize]);
            }
        }
    }

    /// Weighted (multiplicity) counting matches the weighted BFS oracle,
    /// with few enough landmarks that the label probe decides pruning.
    #[test]
    fn weighted_counting_exact(
        g in arb_graph(24, 60),
        seed in 0u64..1000,
        four_landmarks in any::<bool>(),
    ) {
        let n = g.num_vertices();
        let weights: Vec<u64> = (0..n).map(|i| 1 + ((i as u64 * 7 + seed) % 4)).collect();
        let order = OrderingStrategy::Degree.compute(&g);
        let cfg = PspcConfig {
            num_landmarks: if four_landmarks { 4 } else { 0 },
            ..PspcConfig::default()
        };
        let (idx, _) = build_pspc_with_order(&g, order, Some(&weights), &cfg);
        for s in 0..n as u32 {
            for t in 0..n as u32 {
                if s == t { continue; }
                prop_assert_eq!(
                    idx.query(s, t),
                    spc_pair_weighted(&g, s, t, Some(&weights))
                );
            }
        }
    }

    /// Serialization round-trips every index exactly.
    #[test]
    fn snapshot_round_trip(g in arb_graph(30, 80)) {
        use pspc::core::serialize::{index_from_binary, index_to_binary};
        let (idx, _) = build_pspc(&g, &PspcConfig::default());
        let restored = index_from_binary(index_to_binary(&idx)).unwrap();
        prop_assert_eq!(idx.order(), restored.order());
        prop_assert_eq!(idx.label_arena(), restored.label_arena());
    }
}
