//! The acceptance check for the service subsystem: on a ≥100k-pair
//! batch, the engine with N workers must beat `query_batch_sequential`
//! wall-clock — real scaling, not a work model. The timing assertion
//! needs real cores and optimized code, so it is skipped (with a notice)
//! on single-core machines and in debug builds, where the engine's
//! serial rank translation outweighs two workers; answer parity is
//! asserted unconditionally. CI runs it again in release, so the
//! assertion is checked there.

use pspc_core::{build_pspc, PspcConfig};
use pspc_graph::generators::barabasi_albert;
use pspc_service::bench::random_pairs;
use pspc_service::{EngineConfig, QueryEngine};
use std::time::Instant;

fn best_of<R>(runs: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (out.unwrap(), best)
}

#[test]
fn engine_beats_sequential_on_100k_pairs() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let g = barabasi_albert(1500, 3, 77);
    let (index, _) = build_pspc(&g, &PspcConfig::default());
    let pairs = random_pairs(index.num_vertices(), 120_000, 0xC0FFEE);

    let workers = cores.clamp(2, 4);
    let engine = QueryEngine::with_config(
        index,
        EngineConfig {
            workers,
            ..EngineConfig::default()
        },
    );

    // Parity first — on every machine.
    let expect = engine.index().query_batch_sequential(&pairs);
    assert_eq!(engine.run(&pairs), expect);

    if cores < 2 {
        eprintln!("single-core machine: skipping the wall-clock speedup assertion");
        return;
    }
    if cfg!(debug_assertions) {
        eprintln!("debug build: skipping the wall-clock speedup assertion");
        return;
    }

    // Wall-clock comparison, retried to absorb scheduler noise on busy
    // CI runners: the assertion only fails if the engine loses every
    // attempt, which indicates broken parallelism rather than jitter.
    let _ = engine.run(&pairs); // warmup
    let mut last = (0.0f64, 0.0f64);
    for attempt in 1..=3 {
        let (_, seq) = best_of(2, || engine.index().query_batch_sequential(&pairs));
        let (_, par) = best_of(2, || engine.run(&pairs));
        eprintln!(
            "attempt {attempt}: sequential {seq:.3}s vs engine({workers} workers) {par:.3}s \
             on {} pairs ({cores} cores)",
            pairs.len()
        );
        if par < seq {
            return;
        }
        last = (seq, par);
    }
    panic!(
        "engine ({:.3}s, {workers} workers) never beat sequential ({:.3}s) in 3 attempts",
        last.1, last.0
    );
}
