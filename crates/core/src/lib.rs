//! # pspc-core
//!
//! The primary contribution of *PSPC: Efficient Parallel Shortest Path
//! Counting on Large-Scale Graphs* (Peng, Yu & Wang, ICDE 2023): an Exact
//! Shortest Path Covering (ESPC) 2-hop labeling index for shortest-path
//! counting, with
//!
//! * [`hpspc`] — the sequential rank-order pruned-BFS baseline (SIGMOD'20);
//! * [`builder`] — the parallel distance-iteration PSPC construction with
//!   pull/push paradigms, static/dynamic schedules and landmark filtering;
//! * [`query`] — microsecond point-to-point queries and parallel batches;
//! * [`reduce`] — 1-shell and neighborhood-equivalence index reductions;
//! * [`directed`] — the §II.A directed (`Lin`/`Lout`) extension;
//! * [`dynamic`] — insertion-only dynamic distance labeling (§VI);
//! * [`serialize`] — binary index snapshots.
//!
//! ```
//! use pspc_core::{build_pspc, PspcConfig};
//! use pspc_graph::generators::barabasi_albert;
//!
//! let g = barabasi_albert(500, 3, 42);
//! let (index, _) = build_pspc(&g, &PspcConfig::default());
//! let ans = index.query(0, 499);
//! assert!(ans.is_reachable());
//! assert!(ans.count >= 1);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod common;
pub mod directed;
pub mod dynamic;
pub mod hpspc;
pub mod label;
pub mod landmark;
pub mod mapped;
pub mod query;
pub mod reduce;
pub mod scratch;
pub mod section;
pub mod serialize;
pub mod shard;

pub use builder::{build_pspc, Paradigm, PspcBuildStats, PspcConfig, SchedulePlan};
pub use directed::DiSpcIndex;
pub use dynamic::DynamicDistanceIndex;
pub use hpspc::build_hpspc;
pub use label::{Count, IndexStats, LabelArena, LabelEntry, LabelSet, LabelView, SpcIndex};
pub use mapped::map_index_from_file;
pub use query::BatchScratch;
pub use reduce::ReducedIndex;
pub use serialize::{
    any_index_from_binary, di_index_from_binary, di_index_to_binary, dyn_index_from_binary,
    dyn_index_to_binary, index_from_binary, index_to_binary, snapshot_kind_name, snapshot_size,
    SnapshotKind,
};
pub use shard::{
    open_sharded, read_magic, sharded_to_owned, write_atomically, write_sharded_index,
    ShardedSpcIndex,
};
