//! # pspc — Parallel Shortest Path Counting
//!
//! A Rust implementation of *PSPC: Efficient Parallel Shortest Path
//! Counting on Large-Scale Graphs* (Peng, Yu & Wang, ICDE 2023): a 2-hop
//! hub-labeling index that answers *how many* shortest paths connect two
//! vertices (and at what distance) in microseconds, built in parallel
//! without the rank-order dependency of prior constructions.
//!
//! This crate is the facade over the workspace:
//!
//! * [`graph`] ([`pspc_graph`]) — CSR graphs, generators, traversal, the
//!   brute-force counting oracle;
//! * [`order`] ([`pspc_order`]) — degree / tree-decomposition /
//!   significant-path / hybrid vertex orderings;
//! * [`core`] ([`pspc_core`]) — the ESPC index, the sequential HP-SPC
//!   baseline, the parallel PSPC builder, reductions and serialization;
//! * [`service`] ([`pspc_service`]) — the throughput-oriented batch
//!   query engine (persistent worker pool, bounded submission queue,
//!   chunked sharding, admission control);
//! * [`server`] ([`pspc_server`]) — the network serving daemon (HTTP +
//!   framed binary protocol on one port, load shedding, live metrics)
//!   and the `pspc` CLI (`stats`/`build`/`query`/`bench`/`serve`).
//!
//! ## Quickstart
//!
//! ```
//! use pspc::prelude::*;
//!
//! // A diamond: two shortest paths from 0 to 3.
//! let g = GraphBuilder::new().edges([(0, 1), (0, 2), (1, 3), (2, 3)]).build();
//! let (index, _stats) = build_pspc(&g, &PspcConfig::default());
//! let ans = index.query(0, 3);
//! assert_eq!((ans.dist, ans.count), (2, 2));
//! ```

#![warn(missing_docs)]

pub mod applications;

pub use pspc_core as core;
pub use pspc_graph as graph;
pub use pspc_order as order;
pub use pspc_server as server;
pub use pspc_service as service;

pub use pspc_core::{
    build_hpspc, build_pspc, BatchScratch, Count, DiSpcIndex, DynamicDistanceIndex, IndexStats,
    LabelArena, LabelEntry, LabelSet, LabelView, Paradigm, PspcBuildStats, PspcConfig,
    ReducedIndex, SchedulePlan, SnapshotKind, SpcIndex,
};
pub use pspc_graph::{Graph, GraphBuilder, GraphStats, SpcAnswer, VertexId};
pub use pspc_order::{OrderingStrategy, VertexOrder};
pub use pspc_server::{RemoteClient, ServerHandle};
pub use pspc_service::{EngineConfig, IndexKind, InsertError, QueryEngine};

/// Convenient glob-import surface for applications.
pub mod prelude {
    pub use pspc_core::builder::{build_pspc, build_pspc_with_order};
    pub use pspc_core::hpspc::{build_hpspc, build_hpspc_with_order};
    pub use pspc_core::{Count, Paradigm, PspcConfig, ReducedIndex, SchedulePlan, SpcIndex};
    pub use pspc_graph::{Graph, GraphBuilder, SpcAnswer, VertexId};
    pub use pspc_order::{OrderingStrategy, VertexOrder};
}
