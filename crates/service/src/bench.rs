//! Sustained-throughput measurement for the `pspc bench` subcommand.
//!
//! Throughput (queries/sec) comes from one pass over the whole batch;
//! latency percentiles come from a second pass that submits the same
//! workload as `chunk_size`-pair requests and times each request end to
//! end, the unit a daemon client waits on.

use crate::engine::QueryEngine;
use pspc_graph::VertexId;
use std::fmt;
use std::time::Instant;

/// Results of one benchmark run.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Number of queries in the batch.
    pub queries: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall seconds for the throughput pass.
    pub wall_secs: f64,
    /// Sustained throughput of the engine (queries/second).
    pub qps: f64,
    /// Pairs per request in the latency pass (the engine's chunk size).
    pub request_pairs: usize,
    /// Median request latency (microseconds).
    pub p50_us: f64,
    /// 99th-percentile request latency (microseconds).
    pub p99_us: f64,
    /// Worst request latency (microseconds).
    pub max_us: f64,
    /// Queries with a finite distance.
    pub reachable: usize,
    /// Wall seconds of `query_batch_sequential` on the same batch, when a
    /// baseline comparison was requested.
    pub sequential_secs: Option<f64>,
}

impl BenchReport {
    /// Engine speedup over the sequential baseline, if one was measured.
    pub fn speedup(&self) -> Option<f64> {
        self.sequential_secs.map(|s| s / self.wall_secs)
    }
}

impl fmt::Display for BenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} queries, {} workers: {:.3}s wall, {:.0} queries/sec",
            self.queries, self.workers, self.wall_secs, self.qps
        )?;
        writeln!(
            f,
            "latency per {}-pair request p50 {:.2} us, p99 {:.2} us, max {:.2} us; {} reachable",
            self.request_pairs, self.p50_us, self.p99_us, self.max_us, self.reachable
        )?;
        if let (Some(seq), Some(speedup)) = (self.sequential_secs, self.speedup()) {
            writeln!(
                f,
                "sequential baseline {seq:.3}s — engine speedup {speedup:.2}x"
            )?;
        }
        Ok(())
    }
}

/// Value at quantile `q` (0..=1) of a sorted latency sample, in the
/// nearest-rank convention. Returns 0 on an empty sample.
pub fn percentile_sorted_nanos(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs the full benchmark: a warmup pass, a throughput pass over the
/// whole batch, a latency pass of `chunk_size`-pair requests, and
/// optionally the sequential baseline.
pub fn run_bench(
    engine: &QueryEngine,
    pairs: &[(VertexId, VertexId)],
    compare_sequential: bool,
) -> BenchReport {
    // Warmup: fault in the index and let the OS settle thread placement.
    let warm = &pairs[..pairs.len().min(1000)];
    let _ = engine.run(warm);

    let (answers, report) = engine.run_with_report(pairs);
    let request_pairs = engine.config().chunk_size.max(1);
    let mut lat: Vec<u64> = pairs
        .chunks(request_pairs)
        .map(|request| {
            let t0 = Instant::now();
            engine.run(request);
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    lat.sort_unstable();
    let p50 = percentile_sorted_nanos(&lat, 0.50) as f64 / 1e3;
    let p99 = percentile_sorted_nanos(&lat, 0.99) as f64 / 1e3;
    let max = lat.last().copied().unwrap_or(0) as f64 / 1e3;

    let sequential_secs = compare_sequential.then(|| {
        let t0 = Instant::now();
        let seq = engine.kind().query_batch_sequential(pairs);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(seq, answers, "engine and sequential answers diverge");
        secs
    });

    BenchReport {
        queries: report.queries,
        workers: report.workers,
        wall_secs: report.wall_secs,
        qps: report.qps(),
        request_pairs,
        p50_us: p50,
        p99_us: p99,
        max_us: max,
        reachable: report.reachable,
        sequential_secs,
    }
}

/// Deterministic xorshift query workload over `n` vertices (no `rand`
/// dependency for the CLI).
pub fn random_pairs(n: usize, count: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    assert!(n > 0, "empty index");
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as VertexId
    };
    (0..count).map(|_| (next(), next())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, QueryEngine};
    use pspc_core::{build_pspc, PspcConfig};
    use pspc_graph::generators::barabasi_albert;

    #[test]
    fn percentiles_nearest_rank() {
        let sorted = [10, 20, 30, 40, 50];
        assert_eq!(percentile_sorted_nanos(&sorted, 0.50), 30);
        assert_eq!(percentile_sorted_nanos(&sorted, 0.99), 50);
        assert_eq!(percentile_sorted_nanos(&sorted, 0.0), 10);
        assert_eq!(percentile_sorted_nanos(&[], 0.5), 0);
    }

    #[test]
    fn bench_report_is_consistent() {
        let g = barabasi_albert(200, 3, 21);
        let (index, _) = build_pspc(&g, &PspcConfig::default());
        let engine = QueryEngine::with_config(
            index,
            EngineConfig {
                workers: 2,
                chunk_size: 256,
                sort_by_rank: true,
                ..EngineConfig::default()
            },
        );
        let pairs = random_pairs(200, 5000, 42);
        let r = run_bench(&engine, &pairs, true);
        assert_eq!(r.queries, 5000);
        assert_eq!(r.request_pairs, 256);
        assert!(r.qps > 0.0);
        assert!(r.p50_us <= r.p99_us && r.p99_us <= r.max_us);
        assert!(r.sequential_secs.is_some());
        assert!(r.speedup().unwrap() > 0.0);
        let text = r.to_string();
        assert!(text.contains("queries/sec"));
        assert!(text.contains("speedup"));
    }
}
