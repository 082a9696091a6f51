//! # pspc-server
//!
//! The network serving daemon over the PSPC shortest-path-counting
//! index: a long-running process that owns a
//! [`pspc_service::QueryEngine`] (persistent worker pool + bounded
//! submission queue) and exposes it over TCP with admission control and
//! live metrics — the "millions of users" front-end of the workspace.
//!
//! * [`server`] — the daemon: accept loop, per-connection handlers,
//!   graceful shutdown ([`serve`] / [`ServerHandle`]);
//! * [`proto`] — the framed binary wire protocol for low-overhead
//!   clients (encode/decode shared by daemon and client);
//! * [`http`] — a hand-rolled HTTP/1.1 subset (no crates.io access, so
//!   no framework) behind `POST /query`, `POST /insert`, `GET /healthz`,
//!   `GET /metrics`, `GET /debug/trace`, `GET /debug/slow`,
//!   `GET /debug/hotspots`, `GET /debug/timeseries` and
//!   `POST /shutdown`;
//! * [`metrics`] — served/rejected/in-flight counters plus log-bucketed
//!   latency histograms ([`pspc_obs::LogHistogram`]) for request,
//!   insert and per-stage latencies, rendered as Prometheus text
//!   exposition (`# HELP`/`# TYPE`, `_bucket`/`_sum`/`_count` series);
//! * [`client`] — [`RemoteClient`], the binary-protocol client behind
//!   `pspc query --remote`;
//! * [`cli`] — the `pspc` binary: `serve` and remote `query` here,
//!   `stats`/`build`/local `query`/`bench` delegated to [`pspc_service::cli`].
//!
//! Both protocols share one port: connections opening with the bytes
//! `"PSQ1"`, `"PSQ2"` (traced query) or `"PSI1"` speak the binary
//! protocol, everything else is parsed as HTTP.
//!
//! The daemon serves whichever index kind its snapshot holds
//! ([`pspc_service::IndexKind`]): undirected `SPC(s, t)`, directed
//! `SPC(s → t)`, or dynamic distances — the kind is auto-detected from
//! the snapshot magic at load and exposed as the `pspc_index_kind`
//! gauge. Dynamic indexes additionally accept live edge insertions
//! (`POST /insert` with `u v` lines, or the binary `PSI1` frame),
//! applied under a write lock while query chunks drain around it;
//! insert totals surface as `pspc_inserts_total`. Inserting into a
//! non-dynamic index is a clean HTTP 409 / binary `Conflict`.
//!
//! Every request is traced end to end (see [`server::ObsConfig`]): a
//! process-unique trace ID plus per-stage latency attribution (parse,
//! cache probe, prepare, queue wait, execute, merge, write) recorded
//! into stage-labeled histograms on `/metrics`, a bounded ring of
//! completed traces (`GET /debug/trace?n=`) and a top-K slow-query log
//! (`GET /debug/slow?n=`). Clients may supply their own correlation ID
//! — the `x-pspc-trace-id` header over HTTP, the `PSQ2` frame (or
//! `pspc query --remote --trace-id`) over the binary protocol — and the
//! daemon adopts it verbatim. The engine's streaming workload sketches
//! (HyperLogLog distinct pairs, SpaceSaving heavy hitters, windowed
//! time series) surface on `GET /debug/hotspots`,
//! `GET /debug/timeseries` and the `pspc_distinct_pairs_estimate` /
//! `pspc_hot_pair_share` / `pspc_window_*` metric families; under
//! `pspc serve --cache-adaptive` the advisor resizes the result cache
//! toward the distinct-pair estimate between windows. Lifecycle and
//! per-request diagnostics are structured one-line `key=value` records
//! on stderr, gated by `PSPC_LOG=error|warn|info|debug` (`off`
//! silences everything).
//!
//! # Quick start
//!
//! Build an index snapshot, start the daemon, and query it with `curl`
//! (TSV by default, `?format=json` for structured output):
//!
//! ```text
//! $ pspc build web-Google.txt -o web-Google.pspc --landmarks 100
//! $ pspc serve web-Google.pspc --addr 127.0.0.1:7411 --workers 16 --queue-depth 4096 &
//! $ curl -s http://127.0.0.1:7411/healthz
//! ok
//! $ printf '0 42\n7 99\n' | curl -s --data-binary @- http://127.0.0.1:7411/query
//! 0       42      3       2
//! 7       99      4       11
//! $ curl -s http://127.0.0.1:7411/metrics | grep p99
//! pspc_request_latency_p99_us 184.20
//! $ pspc query --remote 127.0.0.1:7411 0 42          # binary protocol
//! $ curl -s -X POST http://127.0.0.1:7411/shutdown   # graceful drain
//! ```
//!
//! When the submission queue is full the daemon *sheds* requests (HTTP
//! 503 / binary `Rejected`) rather than queueing unboundedly; shutdown
//! drains in-flight batches before the worker pool exits. Answers over
//! either protocol are bit-identical to
//! [`pspc_core::SpcIndex::query_batch_sequential`] — the daemon
//! integration test pins this, along with saturation rejection and
//! graceful shutdown.
//!
//! Or embed the daemon:
//!
//! ```
//! use pspc_core::{build_pspc, PspcConfig};
//! use pspc_graph::generators::barabasi_albert;
//! use pspc_server::{client::query_remote, server::serve};
//! use pspc_service::EngineConfig;
//!
//! let g = barabasi_albert(300, 3, 42);
//! let (index, _) = build_pspc(&g, &PspcConfig::default());
//! let handle = serve(index, "127.0.0.1:0", EngineConfig::default()).unwrap();
//! let answers = query_remote(&handle.local_addr().to_string(), &[(0, 299)]).unwrap();
//! assert!(answers[0].is_reachable());
//! handle.shutdown();
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod client;
pub mod http;
pub mod metrics;
pub mod proto;
pub mod server;

pub use client::{query_remote, ClientError, RemoteClient};
pub use metrics::{EngineGauges, Metrics, MetricsSnapshot, WorkloadGauges};
pub use proto::Response;
pub use server::{serve, serve_with_obs, ObsConfig, ServerHandle};
