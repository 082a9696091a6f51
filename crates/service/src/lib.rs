//! # pspc-service
//!
//! A throughput-oriented batch query service over the PSPC
//! shortest-path-counting index: the piece that turns the paper's
//! microsecond point queries into a front-end that can saturate every
//! core of a query server.
//!
//! * [`engine`] — [`QueryEngine`]: a **persistent worker pool** fed by a
//!   bounded MPMC submission queue (long-lived threads, no per-batch
//!   spawns), batches cut into chunks in input order, and admission
//!   control ([`QueryEngine::try_run`] rejects with
//!   [`SubmitError::Saturated`] instead of queueing unboundedly — the
//!   load-shedding primitive the `pspc_server` daemon builds on);
//! * [`kind`] — [`IndexKind`]: one batch-query interface over the
//!   undirected counting index, the directed `Lin`/`Lout` index and the
//!   insertion-only dynamic distance labeling, so the engine, the CLI
//!   and the daemon serve whichever kind a snapshot holds (dynamic
//!   indexes additionally take live [`QueryEngine::apply_inserts`]
//!   under a write lock);
//! * [`cache`] — [`AnswerCache`]: a sharded, size-bounded hot-pair
//!   result cache probed by the engine before chunking (CLOCK eviction,
//!   no global lock), with entries stamped by the [`IndexKind`]
//!   generation counter so dynamic inserts invalidate implicitly, and
//!   resizable in place ([`AnswerCache::resize`]) for adaptive serving;
//! * [`advisor`] — the adaptive cache advisor: compares the engine's
//!   HyperLogLog distinct-pair estimate against live cache capacity and
//!   hit rate, publishes a recommended capacity
//!   (`pspc_cache_recommended_capacity`) and, under
//!   `pspc serve --cache-adaptive`, resizes the cache between windows;
//! * [`bench`] — sustained-throughput measurement (queries/sec, p50/p99
//!   request latency) and the sequential baseline comparison;
//! * [`pairs`] — text and JSON I/O for query workloads;
//! * [`cli`] — the `stats`/`build`/`query`/`bench` subcommands of the `pspc`
//!   binary (which lives in `pspc_server`, where `serve`, `migrate`,
//!   `query --remote` and `insert --remote` are added on top).
//!
//! # Quick start
//!
//! Build an index snapshot once (the edge list is cached in binary form
//! alongside the text file, so later builds skip parsing):
//!
//! ```text
//! $ pspc build web-Google.txt -o web-Google.pspc --landmarks 100
//! $ pspc query web-Google.pspc --pairs workload.txt --workers 16 > answers.tsv
//! $ pspc query web-Google.pspc --format json 0 42 > answers.json
//! $ pspc bench web-Google.pspc --count 1000000 --compare
//! $ pspc serve web-Google.pspc --addr 0.0.0.0:7411 --workers 16   # see pspc_server
//! ```
//!
//! Or drive the engine as a library:
//!
//! ```
//! use pspc_core::{build_pspc, PspcConfig};
//! use pspc_graph::generators::barabasi_albert;
//! use pspc_service::{EngineConfig, QueryEngine};
//!
//! let g = barabasi_albert(500, 3, 42);
//! let (index, _) = build_pspc(&g, &PspcConfig::default());
//! let engine = QueryEngine::with_config(
//!     index,
//!     EngineConfig { workers: 4, ..EngineConfig::default() },
//! );
//! let answers = engine.run(&[(0, 499), (12, 345)]);
//! assert_eq!(answers.len(), 2);
//! assert!(answers[0].is_reachable());
//! ```
//!
//! Answers are always index-aligned with the input batch; the engine's
//! answers are bit-identical to
//! [`query_batch_sequential`](pspc_core::SpcIndex::query_batch_sequential)
//! (a property test pins this across worker counts). Counts follow the
//! workspace-wide saturation policy documented in [`pspc_core::query`].

#![warn(missing_docs)]

pub mod advisor;
pub mod bench;
pub mod cache;
pub mod cli;
pub mod engine;
pub mod kind;
pub mod pairs;

pub use advisor::CacheAdvice;
pub use bench::{run_bench, BenchReport};
pub use cache::{AnswerCache, CacheStats};
pub use engine::{
    BatchReport, EngineConfig, QueryEngine, SubmitError, WorkerStat, DEFAULT_QUEUE_DEPTH,
    DEFAULT_WINDOW_SECS,
};
pub use kind::{IndexKind, InsertError};
