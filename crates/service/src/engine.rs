//! The batch query engine: a **persistent worker pool** fed by a bounded
//! MPMC submission queue, with admission control and graceful
//! drain-on-shutdown.
//!
//! # Execution model
//!
//! Constructing a [`QueryEngine`] spawns `workers` long-lived OS threads,
//! all `recv`ing from one bounded [`crossbeam::channel`] of work chunks —
//! the MPMC queue replaces the per-batch `std::thread::scope` spawns of
//! the original engine, so a daemon serving many small batches pays no
//! thread-spawn latency per request.
//!
//! A batch of `(s, t)` pairs is rank-translated once, put into a
//! *processing order* — either the input order, or (default) sorted by
//! the source vertex's rank so consecutive queries touch neighboring
//! label sets — and cut into fixed-size chunks. Each chunk is one queue
//! message; workers pull chunks as they free up (dynamic load balancing:
//! a chunk of hub-heavy queries does not stall the other workers), answer
//! them into an owned buffer ([`pspc_core::SpcIndex::query_rank_batch_into`])
//! and ship it back through a per-batch reply channel. The submitter
//! reassembles answers index-aligned with its input.
//!
//! # Admission control
//!
//! The submission queue holds at most [`EngineConfig::queue_depth`]
//! chunks. [`QueryEngine::try_run`] *rejects* a batch (with
//! [`SubmitError::Saturated`]) instead of queueing it when the queue
//! cannot take all of its chunks — the daemon front-end uses this to shed
//! load instead of building an unbounded backlog. The blocking paths
//! ([`QueryEngine::run`] etc.) apply backpressure instead: they wait for
//! queue slots, which is what a CLI batch job wants.
//!
//! # Shutdown
//!
//! Dropping the engine (or calling [`QueryEngine::into_index`]) closes
//! the queue and joins the workers. Closing is graceful by construction:
//! the channel hands out every queued chunk before reporting disconnect,
//! so in-flight batches complete and only then do workers exit.

use crate::advisor;
use crate::cache::AnswerCache;
use crate::kind::{IndexKind, InsertError};
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;
use pspc_core::SpcIndex;
use pspc_graph::{SpcAnswer, VertexId};
use pspc_obs::{Span, Stage, TimeSeriesRing, WorkloadSketch, DEFAULT_HEAVY_HITTERS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default bound of the submission queue, in chunks.
pub const DEFAULT_QUEUE_DEPTH: usize = 4096;

/// Default workload time-series window length, in seconds.
pub const DEFAULT_WINDOW_SECS: u64 = 10;

/// Closed windows the workload time-series ring retains.
const TIMESERIES_CAPACITY: usize = 64;

/// Sketcher backlog (in pairs) up to which heavy-hitter recording stays
/// exact; each further doubling of the backlog doubles the sampling
/// stride. Low-rate workloads (anything the duty-cycled sketcher drains
/// within a couple of chunks of lag) stay exact; at saturation the
/// backlog a single [`SKETCHER_MAX_IDLE`] accumulates must map to a
/// stride near [`SKETCHER_MAX_STRIDE`], or drains outgrow the idle
/// budget and the sketcher's CPU share climbs back over the bar.
const SKETCHER_EXACT_BACKLOG: usize = 2 * 1024;

/// Upper bound on the sketcher's sampling stride under overload: 1-in-64
/// recording caps the heavy-hitter cost near the totals path's, at the
/// price of ±64-ish noise on reported counts.
const SKETCHER_MAX_STRIDE: usize = 64;

/// After each drain the sketcher idles this many times the drain's busy
/// time, capping its steady-state CPU share near `1/(ratio+1)` ≈ 0.4%
/// of one core. Backlog alone is not enough of a throttle: on a
/// single-core host the sketcher can keep its queue short by stealing a
/// large CPU share from the serving threads, and only an explicit duty
/// cycle forces the backlog (and with it the sampling stride) to grow
/// instead. At the maximum stride the sketcher samples a full-rate
/// stream comfortably within this budget.
const SKETCHER_IDLE_RATIO: u32 = 255;

/// Bound on one duty-cycle pause, so drains — and therefore
/// [`QueryEngine::workload_quiesce`] and shutdown — never lag a burst
/// by more than this.
const SKETCHER_MAX_IDLE: std::time::Duration = std::time::Duration::from_millis(100);

/// Tuning knobs for [`QueryEngine`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker threads (0 = one per available core).
    pub workers: usize,
    /// Queries per work chunk. Smaller chunks balance better, larger
    /// chunks amortize dispatch; 1024 is a good default for microsecond
    /// queries.
    pub chunk_size: usize,
    /// Process queries in source-rank order (cache-friendly sharding)
    /// instead of input order. Answers are merged back to input order
    /// either way.
    pub sort_by_rank: bool,
    /// Submission-queue bound in chunks (0 = [`DEFAULT_QUEUE_DEPTH`]).
    /// [`QueryEngine::try_run`] rejects batches that do not fit; the
    /// blocking paths wait for free slots instead.
    pub queue_depth: usize,
    /// Total `(s, t) → answer` cache entries across all shards
    /// (0 disables the cache — the default, so batch jobs that never
    /// repeat a pair pay nothing).
    pub cache_capacity: usize,
    /// Cache shard count (0 = [`crate::cache::DEFAULT_SHARDS`]); ignored
    /// when the cache is disabled.
    pub cache_shards: usize,
    /// Feed the streaming workload sketch (distinct-pair HLL, heavy
    /// hitters, windowed time series) from every batch. On by default —
    /// recording is wait-free and a few nanoseconds per pair; the flag
    /// exists so the overhead bench can measure exactly that.
    pub workload_sketch: bool,
    /// Workload time-series window length in seconds
    /// (0 = [`DEFAULT_WINDOW_SECS`]).
    pub window_secs: u64,
    /// Let the cache advisor resize the result cache between windows
    /// (`pspc serve --cache-adaptive`). Without it the advisor only
    /// publishes its recommendation.
    pub cache_adaptive: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            chunk_size: 1024,
            sort_by_rank: true,
            queue_depth: 0,
            cache_capacity: 0,
            cache_shards: 0,
            workload_sketch: true,
            window_secs: 0,
            cache_adaptive: false,
        }
    }
}

/// Wall-clock facts about one executed batch.
#[derive(Clone, Copy, Debug)]
pub struct BatchReport {
    /// Number of queries answered.
    pub queries: usize,
    /// Worker threads that can have participated (pool size clamped to
    /// the chunk count).
    pub workers: usize,
    /// Work chunks dispensed.
    pub chunks: usize,
    /// Wall-clock seconds for the whole batch.
    pub wall_secs: f64,
    /// Answers with a finite distance.
    pub reachable: usize,
}

impl BatchReport {
    /// Sustained throughput in queries per second.
    pub fn qps(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.queries as f64 / self.wall_secs
        } else {
            f64::INFINITY
        }
    }
}

/// Admission-control rejection from [`QueryEngine::try_run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The submission queue cannot take the batch right now; retry later
    /// or shed the request.
    Saturated {
        /// Chunks currently queued.
        queued: usize,
        /// Queue bound in chunks.
        capacity: usize,
    },
    /// The batch has more chunks than the whole queue holds, so it could
    /// never be admitted; split it or raise `queue_depth`/`chunk_size`.
    TooLarge {
        /// Chunks the batch would occupy.
        chunks: usize,
        /// Queue bound in chunks.
        capacity: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SubmitError::Saturated { queued, capacity } => write!(
                f,
                "submission queue saturated ({queued}/{capacity} chunks queued)"
            ),
            SubmitError::TooLarge { chunks, capacity } => write!(
                f,
                "batch of {chunks} chunks exceeds the queue bound of {capacity}"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One queued unit of work: a chunk of some batch's gathered rank pairs.
struct Task {
    /// The whole batch's rank pairs, in processing order.
    batch: Arc<Vec<(u32, u32)>>,
    /// Chunk bounds within `batch`.
    lo: usize,
    hi: usize,
    /// Chunk index (for the input-order merge).
    chunk: usize,
    /// When the chunk entered the submission queue (for the queue-wait
    /// stage of request traces).
    enqueued: Instant,
    /// Per-batch reply queue.
    reply: Sender<Part>,
}

/// `(chunk index, answers, queue-wait ns, execution ns)` — the last two
/// feed request traces and the per-worker gauges.
type Part = (usize, Vec<SpcAnswer>, u64, u64);

/// Per-worker busy-time/chunk counters, indexed by worker id. Always on:
/// the cost is two `Relaxed` `fetch_add`s per *chunk* (≥1024 queries by
/// default), invisible next to the chunk's execution itself.
struct WorkerStats {
    busy_ns: Box<[AtomicU64]>,
    chunks: Box<[AtomicU64]>,
}

impl WorkerStats {
    fn new(workers: usize) -> Self {
        WorkerStats {
            busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            chunks: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// One pool worker's lifetime counters, as sampled for metrics
/// (`pspc_worker_busy_seconds` / `pspc_worker_chunks_total`): pool
/// imbalance shows up as busy-time skew across workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStat {
    /// Nanoseconds this worker spent executing chunks.
    pub busy_ns: u64,
    /// Chunks this worker executed.
    pub chunks: u64,
}

/// The engine's workload-analytics state: the streaming sketch, the
/// windowed time-series ring, the advisor's latest verdict and the
/// background sketcher thread.
///
/// Recording splits in two so the request path never takes the sketch
/// locks: totals (HLL + pair counter) are wait-free and recorded
/// inline, while the heavy-hitter updates — `O(k)` with three
/// index-map touches per pair on distinct-heavy traffic — are shipped
/// to the sketcher thread through an unbounded channel. `pending`
/// counts shipped-but-unprocessed batches so readers that need the
/// hitters up to date ([`QueryEngine::workload_quiesce`]) can wait for
/// the queue to drain.
struct WorkloadState {
    sketch: Arc<WorkloadSketch>,
    ring: TimeSeriesRing,
    /// Latest recommended cache capacity (0 until the first verdict).
    recommended: AtomicU64,
    /// Window id the advisor last ran for (one verdict per window).
    advised_window: AtomicU64,
    /// Batches shipped to the sketcher and not yet folded in.
    pending: Arc<AtomicU64>,
    /// `None` only during teardown.
    hitter_tx: Option<Sender<Vec<(VertexId, VertexId)>>>,
    sketcher: Option<std::thread::JoinHandle<()>>,
}

impl WorkloadState {
    fn new(window_secs: u64) -> Self {
        let sketch = Arc::new(WorkloadSketch::new(DEFAULT_HEAVY_HITTERS));
        let pending = Arc::new(AtomicU64::new(0));
        let (hitter_tx, hitter_rx) = channel::unbounded::<Vec<(VertexId, VertexId)>>();
        let sketcher = {
            let sketch = Arc::clone(&sketch);
            let pending = Arc::clone(&pending);
            std::thread::Builder::new()
                .name("pspc-sketcher".into())
                .spawn(move || {
                    while let Ok(batch) = hitter_rx.recv() {
                        // Drain whatever has queued up behind this batch
                        // and derive a sampling stride from the backlog:
                        // exact recording while the sketcher keeps up,
                        // systematic 1-in-`stride` sampling once the
                        // serving threads outpace it — heavy-hitter
                        // counts stay unbiased and the sketcher's CPU
                        // share stays bounded instead of competing with
                        // request processing.
                        let mut batches = vec![batch];
                        while let Ok(more) = hitter_rx.try_recv() {
                            batches.push(more);
                        }
                        let queued: usize = batches.iter().map(Vec::len).sum();
                        let stride = (queued / SKETCHER_EXACT_BACKLOG)
                            .next_power_of_two()
                            .min(SKETCHER_MAX_STRIDE);
                        let t0 = Instant::now();
                        for b in &batches {
                            sketch.record_hitters_sampled(b, stride);
                        }
                        pending.fetch_sub(batches.len() as u64, Ordering::Release);
                        // Duty cycle: pay for the busy time just spent
                        // with a proportionally longer pause before the
                        // next drain. Sends during the pause enqueue
                        // without waking anyone, so the per-batch cost
                        // on the serving threads stays a cheap push.
                        let idle = (t0.elapsed() * SKETCHER_IDLE_RATIO).min(SKETCHER_MAX_IDLE);
                        if !idle.is_zero() {
                            std::thread::sleep(idle);
                        }
                    }
                })
                .expect("spawning sketcher thread")
        };
        WorkloadState {
            sketch,
            ring: TimeSeriesRing::new(window_secs, TIMESERIES_CAPACITY),
            recommended: AtomicU64::new(0),
            advised_window: AtomicU64::new(0),
            pending,
            hitter_tx: Some(hitter_tx),
            sketcher: Some(sketcher),
        }
    }

    /// Ships one batch's heavy-hitter updates to the sketcher thread,
    /// falling back to inline recording during teardown.
    fn ship_hitters(&self, pairs: &[(VertexId, VertexId)]) {
        self.pending.fetch_add(1, Ordering::Release);
        let shipped = self
            .hitter_tx
            .as_ref()
            .is_some_and(|tx| tx.send(pairs.to_vec()).is_ok());
        if !shipped {
            self.sketch.record_hitters(pairs);
            self.pending.fetch_sub(1, Ordering::Release);
        }
    }

    fn shutdown(&mut self) {
        self.hitter_tx.take();
        if let Some(h) = self.sketcher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for WorkloadState {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Wall-clock unix seconds (0 before the epoch, which cannot happen on a
/// sane clock).
fn unix_now_s() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// Recycler for the answer buffers that shuttle between workers and
/// submitters.
///
/// Workers fill an owned `Vec<SpcAnswer>` per chunk and ship it through
/// the reply channel; without reuse every chunk of every batch is a
/// fresh allocation. The pool threads those buffers back through the
/// batch path: the submitter returns each part's buffer after scattering
/// its answers, and workers check buffers out (capacity intact) instead
/// of allocating. Bounded so a burst of huge batches cannot pin memory
/// forever.
struct BufferPool {
    free: Mutex<Vec<Vec<SpcAnswer>>>,
    max: usize,
}

impl BufferPool {
    fn new(max: usize) -> Self {
        BufferPool {
            free: Mutex::new(Vec::new()),
            max,
        }
    }

    /// Checks out an empty buffer, keeping whatever capacity it grew to.
    fn take(&self) -> Vec<SpcAnswer> {
        self.free.lock().pop().unwrap_or_default()
    }

    /// Returns a buffer for reuse (dropped if the pool is full).
    fn put(&self, mut buf: Vec<SpcAnswer>) {
        buf.clear();
        let mut free = self.free.lock();
        if free.len() < self.max {
            free.push(buf);
        }
    }
}

fn worker_loop(
    index: Arc<IndexKind>,
    rx: Receiver<Task>,
    buffers: Arc<BufferPool>,
    stats: Arc<WorkerStats>,
    id: usize,
) {
    // recv() drains every queued chunk before reporting disconnect, so a
    // shutdown never drops admitted work.
    while let Ok(task) = rx.recv() {
        let dequeued = Instant::now();
        // Saturating: Instant::duration_since never goes negative.
        let wait_ns = dequeued.duration_since(task.enqueued).as_nanos() as u64;
        let slice = &task.batch[task.lo..task.hi];
        let mut out = buffers.take();
        index.query_rank_batch_into(slice, &mut out);
        let exec_ns = dequeued.elapsed().as_nanos() as u64;
        stats.busy_ns[id].fetch_add(exec_ns, Ordering::Relaxed);
        stats.chunks[id].fetch_add(1, Ordering::Relaxed);
        // A submitter that vanished (disconnected reply) is not an error
        // for the pool; the work is simply discarded.
        let _ = task.reply.send((task.chunk, out, wait_ns, exec_ns));
    }
}

/// A throughput-oriented batch query engine owning a built index (any
/// [`IndexKind`]) and a persistent pool of worker threads.
///
/// See the [module docs](self) for the execution model and the crate docs
/// for a quick start. The engine is `Sync`: a server shares one behind an
/// `Arc` across connection handler threads, each submitting batches
/// concurrently. Dynamic indexes additionally accept live edge
/// insertions through [`QueryEngine::apply_inserts`].
pub struct QueryEngine {
    index: Arc<IndexKind>,
    cfg: EngineConfig,
    /// `None` only during teardown.
    tx: Option<Sender<Task>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Serializes admission decisions so a capacity check and the
    /// subsequent multi-chunk enqueue are atomic against other admitted
    /// submitters.
    submit_lock: Mutex<()>,
    /// Recycled answer buffers shared by workers and submitters.
    buffers: Arc<BufferPool>,
    /// Per-worker busy-time/chunk counters (always on).
    worker_stats: Arc<WorkerStats>,
    /// The hot-pair result cache, when `cfg.cache_capacity > 0`. Probed
    /// before chunking and back-filled after; entries are stamped with
    /// the index generation so inserts invalidate implicitly.
    cache: Option<AnswerCache>,
    /// Workload analytics (sketches + time series + advisor), when
    /// `cfg.workload_sketch`.
    workload: Option<WorkloadState>,
}

impl QueryEngine {
    /// Engine with default configuration (all cores, 1024-query chunks,
    /// rank-sorted sharding, default queue depth).
    pub fn new(index: SpcIndex) -> Self {
        Self::with_config(index, EngineConfig::default())
    }

    /// Engine over an undirected index with explicit configuration
    /// (the dominant case keeps its dedicated constructor).
    pub fn with_config(index: SpcIndex, cfg: EngineConfig) -> Self {
        Self::with_kind(IndexKind::Undirected(index), cfg)
    }

    /// Engine over any [`IndexKind`] with explicit configuration. Spawns
    /// the worker pool.
    pub fn with_kind(index: impl Into<IndexKind>, cfg: EngineConfig) -> Self {
        let index = Arc::new(index.into());
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            cfg.workers
        };
        let depth = if cfg.queue_depth == 0 {
            DEFAULT_QUEUE_DEPTH
        } else {
            cfg.queue_depth
        };
        let (tx, rx) = channel::bounded::<Task>(depth);
        // Enough pooled buffers for every worker to hold one in flight
        // plus a healthy margin of parts awaiting their submitter's
        // scatter; beyond that, returns are dropped rather than hoarded.
        let buffers = Arc::new(BufferPool::new(4 * workers + 16));
        let worker_stats = Arc::new(WorkerStats::new(workers));
        let handles = (0..workers)
            .map(|i| {
                let index = Arc::clone(&index);
                let rx = rx.clone();
                let buffers = Arc::clone(&buffers);
                let stats = Arc::clone(&worker_stats);
                std::thread::Builder::new()
                    .name(format!("pspc-worker-{i}"))
                    .spawn(move || worker_loop(index, rx, buffers, stats, i))
                    .expect("spawning engine worker")
            })
            .collect();
        let cache = (cfg.cache_capacity > 0)
            .then(|| AnswerCache::new(cfg.cache_capacity, cfg.cache_shards));
        let window_secs = if cfg.window_secs == 0 {
            DEFAULT_WINDOW_SECS
        } else {
            cfg.window_secs
        };
        let workload = cfg.workload_sketch.then(|| WorkloadState::new(window_secs));
        QueryEngine {
            index,
            cfg,
            tx: Some(tx),
            handles,
            submit_lock: Mutex::new(()),
            buffers,
            worker_stats,
            cache,
            workload,
        }
    }

    /// Lifetime busy-time/chunk counters per pool worker (index-aligned
    /// with worker ids). Racy-but-coherent gauges for metrics endpoints.
    pub fn worker_stats(&self) -> Vec<WorkerStat> {
        self.worker_stats
            .busy_ns
            .iter()
            .zip(self.worker_stats.chunks.iter())
            .map(|(b, c)| WorkerStat {
                busy_ns: b.load(Ordering::Relaxed),
                chunks: c.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// The result cache, when enabled ([`EngineConfig::cache_capacity`]
    /// \> 0) — e.g. for metrics exposition via
    /// [`crate::cache::AnswerCache::stats`].
    pub fn cache(&self) -> Option<&AnswerCache> {
        self.cache.as_ref()
    }

    /// The streaming workload sketch (distinct-pair HLL + heavy
    /// hitters), when [`EngineConfig::workload_sketch`] is on — the data
    /// behind `GET /debug/hotspots` and the `pspc_distinct_pairs_*`
    /// metric families.
    pub fn workload(&self) -> Option<&WorkloadSketch> {
        self.workload.as_ref().map(|w| w.sketch.as_ref())
    }

    /// Waits (bounded by `timeout`) for the background sketcher thread
    /// to fold every shipped batch into the heavy-hitter sketches, so a
    /// subsequent [`WorkloadSketch::hot_pairs`] /
    /// [`WorkloadSketch::hot_sources`] read reflects all completed
    /// batches. Returns `true` once the queue is drained, `false` on
    /// timeout (under sustained load the queue may never be empty —
    /// callers serve the current values either way). Totals (distinct
    /// estimate, pair counter) are recorded inline and never need this.
    pub fn workload_quiesce(&self, timeout: std::time::Duration) -> bool {
        let Some(w) = &self.workload else { return true };
        let deadline = Instant::now() + timeout;
        while w.pending.load(Ordering::Acquire) > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// The windowed serving time series (qps, hit rate, windowed
    /// p50/p99), when [`EngineConfig::workload_sketch`] is on — the data
    /// behind `GET /debug/timeseries` and the `pspc_window_*` gauges.
    pub fn timeseries(&self) -> Option<&TimeSeriesRing> {
        self.workload.as_ref().map(|w| &w.ring)
    }

    /// The advisor's most recent recommended cache capacity (`None`
    /// while the workload sketch is off or before the first verdict).
    pub fn recommended_cache_capacity(&self) -> Option<u64> {
        let w = self.workload.as_ref()?;
        match w.recommended.load(Ordering::Relaxed) {
            0 => None,
            r => Some(r),
        }
    }

    /// Computes a fresh advisor verdict from the live sketch and cache
    /// gauges without applying it (`None` when the workload sketch is
    /// off). The applied path runs once per window inside the batch
    /// pipeline; this is for inspection (benches, debug endpoints).
    pub fn cache_advice(&self) -> Option<advisor::CacheAdvice> {
        let w = self.workload.as_ref()?;
        Some(advisor::advise(
            w.sketch.distinct_pairs(),
            self.cache.as_ref().map_or(0, AnswerCache::capacity),
            self.cache_hit_rate(),
        ))
    }

    /// Lifetime cache hit rate in `0..=1` (0 without a cache or before
    /// any probe).
    fn cache_hit_rate(&self) -> f64 {
        self.cache.as_ref().map_or(0.0, |c| {
            let s = c.stats();
            let probes = s.hits + s.misses;
            if probes == 0 {
                0.0
            } else {
                s.hits as f64 / probes as f64
            }
        })
    }

    /// Feeds one completed batch into the workload sketch and the time
    /// series, and runs the advisor when a window has turned. The
    /// request-path cost is wait-free (relaxed atomics plus one batch
    /// copy); the locked heavy-hitter updates run on the sketcher
    /// thread, and the advisor runs on at most one batch per window.
    fn record_workload(&self, pairs: &[(VertexId, VertexId)], cache_hits: u64, wall_secs: f64) {
        let Some(w) = &self.workload else { return };
        if pairs.is_empty() {
            return;
        }
        w.sketch.record_totals(pairs);
        w.ship_hitters(pairs);
        let now_s = unix_now_s();
        w.ring.record(
            pairs.len() as u64,
            cache_hits,
            (wall_secs * 1e9) as u64,
            now_s,
        );
        let wid = now_s / w.ring.window_secs();
        if w.advised_window.swap(wid, Ordering::Relaxed) == wid {
            return;
        }
        let advice = advisor::advise(
            w.sketch.distinct_pairs(),
            self.cache.as_ref().map_or(0, AnswerCache::capacity),
            self.cache_hit_rate(),
        );
        w.recommended
            .store(advice.recommended as u64, Ordering::Relaxed);
        if self.cfg.cache_adaptive && advice.resize {
            if let Some(cache) = &self.cache {
                cache.resize(advice.recommended);
            }
        }
    }

    /// The undirected index being served.
    ///
    /// # Panics
    /// Panics when the engine serves a directed or dynamic index — those
    /// callers go through [`QueryEngine::kind`].
    pub fn index(&self) -> &SpcIndex {
        match &*self.index {
            IndexKind::Undirected(i) => i,
            other => panic!(
                "QueryEngine::index: engine serves a {} index; use kind()",
                other.name()
            ),
        }
    }

    /// The index kind being served.
    pub fn kind(&self) -> &IndexKind {
        &self.index
    }

    /// Applies edge insertions to a served **dynamic** index under its
    /// write lock: in-flight query chunks drain first, the labeling is
    /// repaired, and subsequent chunks observe the post-insert graph.
    /// Returns how many edges were new; rejects non-dynamic kinds with
    /// [`InsertError::NotDynamic`] and out-of-range endpoints without
    /// applying anything.
    pub fn apply_inserts(&self, edges: &[(VertexId, VertexId)]) -> Result<usize, InsertError> {
        self.index.insert_edges(edges)
    }

    /// Shuts the pool down (draining queued work) and recovers the
    /// undirected index (e.g. to rebuild the engine with a new config).
    ///
    /// # Panics
    /// Panics when the engine serves a directed or dynamic index.
    pub fn into_index(mut self) -> SpcIndex {
        self.shutdown();
        let arc = Arc::clone(&self.index);
        drop(self);
        // Workers are joined, so this is the last reference.
        match Arc::try_unwrap(arc) {
            Ok(IndexKind::Undirected(i)) => i,
            Ok(other) => panic!(
                "QueryEngine::into_index: engine serves a {} index",
                other.name()
            ),
            Err(a) => match &*a {
                IndexKind::Undirected(i) => i.clone(),
                other => panic!(
                    "QueryEngine::into_index: engine serves a {} index",
                    other.name()
                ),
            },
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.handles.len().max(1)
    }

    /// The submission-queue bound, in chunks.
    pub fn queue_depth(&self) -> usize {
        if self.cfg.queue_depth == 0 {
            DEFAULT_QUEUE_DEPTH
        } else {
            self.cfg.queue_depth
        }
    }

    /// Chunks currently waiting in the submission queue (a live gauge for
    /// metrics endpoints; racy by nature).
    pub fn queued_chunks(&self) -> usize {
        self.tx.as_ref().map_or(0, Sender::len)
    }

    /// Answers a batch; answers are index-aligned with `pairs`. Blocks
    /// for queue slots when the pool is saturated (backpressure).
    pub fn run(&self, pairs: &[(VertexId, VertexId)]) -> Vec<SpcAnswer> {
        self.run_with_report(pairs).0
    }

    /// Answers a batch and reports wall-clock facts.
    pub fn run_with_report(&self, pairs: &[(VertexId, VertexId)]) -> (Vec<SpcAnswer>, BatchReport) {
        self.execute(pairs, false, None)
            .expect("blocking submission cannot be rejected")
    }

    /// Admission-controlled batch execution: **rejects** instead of
    /// queueing when the submission queue cannot take the whole batch.
    /// This is the entry point for network front-ends that must shed load
    /// when saturated rather than hang clients.
    pub fn try_run(
        &self,
        pairs: &[(VertexId, VertexId)],
    ) -> Result<(Vec<SpcAnswer>, BatchReport), SubmitError> {
        self.execute(pairs, true, None)
    }

    /// [`QueryEngine::try_run`] with per-stage attribution into `span`:
    /// cache-probe, prepare (rank translate + order + dispatch),
    /// queue-wait (longest chunk enqueue→dequeue delay), execute (summed
    /// worker busy time over the batch's chunks) and merge. The daemon
    /// threads each request's [`Span`] through here so `/debug/trace`,
    /// `/debug/slow` and the stage histograms see inside the engine.
    pub fn try_run_traced(
        &self,
        pairs: &[(VertexId, VertexId)],
        span: &mut Span,
    ) -> Result<(Vec<SpcAnswer>, BatchReport), SubmitError> {
        self.execute(pairs, true, Some(span))
    }

    /// Closes the submission queue and joins the workers after they drain
    /// it, then stops the workload sketcher thread. Idempotent; also
    /// performed on drop.
    fn shutdown(&mut self) {
        self.tx.take();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        if let Some(w) = &mut self.workload {
            w.shutdown();
        }
    }

    /// Cache front-end over [`QueryEngine::execute_pool`]: probes the
    /// result cache for every pair, submits **only the missing pairs**
    /// to the worker pool and back-fills their answers, all stamped with
    /// the index generation loaded before the probe (a concurrent insert
    /// can therefore only reject fresh entries, never admit stale ones).
    /// With the cache disabled this is a straight passthrough.
    ///
    /// Statistics caveat: when admission control rejects the residual
    /// batch, probe hits/misses have already been counted — a shed batch
    /// leaves its probe trace in [`crate::cache::CacheStats`].
    fn execute(
        &self,
        pairs: &[(VertexId, VertexId)],
        admission: bool,
        mut span: Option<&mut Span>,
    ) -> Result<(Vec<SpcAnswer>, BatchReport), SubmitError> {
        let Some(cache) = &self.cache else {
            let out = self.execute_pool(pairs, admission, span)?;
            self.record_workload(pairs, 0, out.1.wall_secs);
            return Ok(out);
        };
        let n = pairs.len();
        if n == 0 {
            return self.execute_pool(pairs, admission, span);
        }
        let t0 = Instant::now();
        // Load the generation *before* computing anything: an insert
        // landing mid-batch bumps it, so every entry filled below is
        // stamped stale and rejected on the next probe — conservative by
        // construction.
        let generation = self.index.generation();

        let mut answers = vec![SpcAnswer::UNREACHABLE; n];
        let mut missing_idx: Vec<u32> = Vec::new();
        let mut missing_pairs: Vec<(VertexId, VertexId)> = Vec::new();
        for (i, &p) in pairs.iter().enumerate() {
            match cache.get(p, generation) {
                Some(a) => answers[i] = a,
                None => {
                    missing_idx.push(i as u32);
                    missing_pairs.push(p);
                }
            }
        }
        if let Some(s) = span.as_mut() {
            s.add(Stage::CacheProbe, t0.elapsed().as_nanos() as u64);
        }

        let (chunks, workers) = if missing_pairs.is_empty() {
            (0, 0)
        } else {
            let (sub_answers, sub_report) = self.execute_pool(&missing_pairs, admission, span)?;
            for (k, &i) in missing_idx.iter().enumerate() {
                answers[i as usize] = sub_answers[k];
                cache.insert(missing_pairs[k], sub_answers[k], generation);
            }
            (sub_report.chunks, sub_report.workers)
        };

        let report = BatchReport {
            queries: n,
            workers,
            chunks,
            wall_secs: t0.elapsed().as_secs_f64(),
            reachable: answers.iter().filter(|a| a.is_reachable()).count(),
        };
        self.record_workload(pairs, (n - missing_idx.len()) as u64, report.wall_secs);
        Ok((answers, report))
    }

    /// The pool path: rank-translate, order, chunk, dispatch, merge.
    fn execute_pool(
        &self,
        pairs: &[(VertexId, VertexId)],
        admission: bool,
        mut span: Option<&mut Span>,
    ) -> Result<(Vec<SpcAnswer>, BatchReport), SubmitError> {
        let n = pairs.len();
        let chunk = self.cfg.chunk_size.max(1);
        let t0 = Instant::now();
        if n == 0 {
            let report = BatchReport {
                queries: 0,
                workers: 0,
                chunks: 0,
                wall_secs: t0.elapsed().as_secs_f64(),
                reachable: 0,
            };
            return Ok((Vec::new(), report));
        }

        // Translate vertex ids to ranks once — the sort key and the
        // queries both live in rank space, so workers never touch the
        // rank array.
        let ranked: Vec<(u32, u32)> = self.index.rank_pairs(pairs);

        // Processing order: input indices, optionally sorted by the
        // source's rank (then target's) for cache-friendly label access.
        let mut order: Vec<u32> = (0..n as u32).collect();
        if self.cfg.sort_by_rank {
            order.sort_unstable_by_key(|&i| ranked[i as usize]);
        }
        // Gather once so workers index straight into the shared batch.
        let batch: Arc<Vec<(u32, u32)>> = Arc::new(
            order
                .iter()
                .map(|&i| ranked[i as usize])
                .collect::<Vec<_>>(),
        );

        let num_chunks = n.div_ceil(chunk);
        let tx = self.tx.as_ref().expect("engine pool is running");
        let (reply_tx, reply_rx) = channel::unbounded::<Part>();
        let make_task = |c: usize| Task {
            batch: Arc::clone(&batch),
            lo: c * chunk,
            hi: (c * chunk + chunk).min(n),
            chunk: c,
            enqueued: Instant::now(),
            reply: reply_tx.clone(),
        };

        if admission {
            let _admit = self.submit_lock.lock();
            let capacity = self.queue_depth();
            if num_chunks > capacity {
                return Err(SubmitError::TooLarge {
                    chunks: num_chunks,
                    capacity,
                });
            }
            let queued = tx.len();
            if queued + num_chunks > capacity {
                return Err(SubmitError::Saturated { queued, capacity });
            }
            // Capacity is reserved under the lock; these sends cannot
            // block against other admitted submitters (blocking-path
            // submitters racing in can momentarily overfill, which only
            // means a short backpressure wait here).
            for c in 0..num_chunks {
                tx.send(make_task(c)).expect("engine workers alive");
            }
        } else {
            for c in 0..num_chunks {
                // Backpressure: waits for queue slots when saturated.
                tx.send(make_task(c)).expect("engine workers alive");
            }
        }
        drop(reply_tx);
        if let Some(s) = span.as_mut() {
            // Everything up to and including dispatch: rank translation,
            // ordering, gathering, admission and the sends.
            s.add(Stage::Prepare, t0.elapsed().as_nanos() as u64);
        }

        // Collect every chunk's part, then merge in chunk order: keeps
        // the answer scatter cache-friendly.
        let mut parts: Vec<Part> = Vec::with_capacity(num_chunks);
        while parts.len() < num_chunks {
            match reply_rx.recv() {
                Ok(p) => parts.push(p),
                Err(_) => panic!("engine worker terminated with a batch in flight"),
            }
        }
        parts.sort_unstable_by_key(|&(c, ..)| c);
        if let Some(s) = span.as_mut() {
            for &(_, _, wait_ns, exec_ns) in &parts {
                // Queue wait is the *longest* chunk delay (the batch
                // cannot finish sooner); execution is *summed* worker
                // busy time, so it can exceed wall clock when chunks ran
                // in parallel.
                s.add_max(Stage::QueueWait, wait_ns);
                s.add(Stage::Execute, exec_ns);
            }
        }
        let merge_t0 = Instant::now();
        let mut answers = vec![SpcAnswer::UNREACHABLE; n];
        for (c, out, _, _) in parts {
            let lo = c * chunk;
            for (k, &a) in out.iter().enumerate() {
                answers[order[lo + k] as usize] = a;
            }
            // Thread the drained buffer back to the workers.
            self.buffers.put(out);
        }
        if let Some(s) = span.as_mut() {
            s.add(Stage::Merge, merge_t0.elapsed().as_nanos() as u64);
        }

        let report = BatchReport {
            queries: n,
            workers: self.workers().min(num_chunks),
            chunks: num_chunks,
            wall_secs: t0.elapsed().as_secs_f64(),
            reachable: answers.iter().filter(|a| a.is_reachable()).count(),
        };
        Ok((answers, report))
    }
}

impl Drop for QueryEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspc_core::{build_pspc, PspcConfig};
    use pspc_graph::generators::barabasi_albert;

    fn engine(cfg: EngineConfig) -> QueryEngine {
        let g = barabasi_albert(300, 3, 11);
        let (index, _) = build_pspc(&g, &PspcConfig::default());
        QueryEngine::with_config(index, cfg)
    }

    fn pairs(n: usize, modulo: u32, seed: u64) -> Vec<(u32, u32)> {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % modulo as u64) as u32
        };
        (0..n).map(|_| (next(), next())).collect()
    }

    #[test]
    fn answers_are_input_ordered_for_every_config() {
        for workers in [1, 2, 4] {
            for sort_by_rank in [false, true] {
                for chunk_size in [1, 7, 1024] {
                    let e = engine(EngineConfig {
                        workers,
                        chunk_size,
                        sort_by_rank,
                        ..EngineConfig::default()
                    });
                    let ps = pairs(513, 300, 0xFEED);
                    let expect = e.index().query_batch_sequential(&ps);
                    let got = e.run(&ps);
                    assert_eq!(
                        got, expect,
                        "workers={workers} sort={sort_by_rank} chunk={chunk_size}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_batch() {
        let e = engine(EngineConfig::default());
        let (answers, report) = e.run_with_report(&[]);
        assert!(answers.is_empty());
        assert_eq!(report.queries, 0);
        assert_eq!(report.chunks, 0);
    }

    #[test]
    fn report_counts_reachable_and_chunks() {
        let e = engine(EngineConfig {
            workers: 2,
            chunk_size: 100,
            sort_by_rank: true,
            ..EngineConfig::default()
        });
        let ps = pairs(250, 300, 3);
        let (answers, report) = e.run_with_report(&ps);
        assert_eq!(report.queries, 250);
        assert_eq!(report.chunks, 3);
        assert_eq!(
            report.reachable,
            answers.iter().filter(|a| a.is_reachable()).count()
        );
        assert!(report.qps() > 0.0);
    }

    #[test]
    fn workers_clamped_to_chunks() {
        let e = engine(EngineConfig {
            workers: 64,
            chunk_size: 1000,
            sort_by_rank: false,
            ..EngineConfig::default()
        });
        let ps = pairs(10, 300, 9);
        let (_, report) = e.run_with_report(&ps);
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn buffer_pool_recycles_capacity_and_stays_bounded() {
        let pool = BufferPool::new(2);
        let mut b = pool.take();
        b.reserve(100);
        let cap = b.capacity();
        b.push(SpcAnswer::UNREACHABLE);
        pool.put(b);
        let b2 = pool.take();
        assert!(b2.is_empty(), "returned buffers must come back cleared");
        assert!(b2.capacity() >= cap, "capacity must survive recycling");
        for _ in 0..3 {
            pool.put(Vec::with_capacity(1));
        }
        assert_eq!(pool.free.lock().len(), 2, "pool must stay bounded");
    }

    #[test]
    fn pool_survives_many_batches_and_reuse() {
        // A persistent pool must answer batch after batch without
        // respawning; interleave sizes to exercise queue reuse.
        let e = engine(EngineConfig {
            workers: 3,
            chunk_size: 32,
            sort_by_rank: true,
            ..EngineConfig::default()
        });
        for round in 0..20 {
            let ps = pairs(1 + round * 37, 300, round as u64 + 1);
            assert_eq!(e.run(&ps), e.index().query_batch_sequential(&ps));
        }
    }

    #[test]
    fn try_run_accepts_when_idle_and_rejects_oversized() {
        let e = engine(EngineConfig {
            workers: 2,
            chunk_size: 16,
            sort_by_rank: true,
            queue_depth: 4,
            ..EngineConfig::default()
        });
        let ps = pairs(60, 300, 7); // 4 chunks: exactly fits
        let (answers, _) = e.try_run(&ps).expect("fits the queue");
        assert_eq!(answers, e.index().query_batch_sequential(&ps));
        let big = pairs(200, 300, 8); // 13 chunks: can never fit
        assert_eq!(
            e.try_run(&big).map(|_| ()),
            Err(SubmitError::TooLarge {
                chunks: 13,
                capacity: 4
            })
        );
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let e = engine(EngineConfig {
            workers: 4,
            chunk_size: 64,
            sort_by_rank: true,
            ..EngineConfig::default()
        });
        std::thread::scope(|s| {
            for seed in 1..=6u64 {
                let e = &e;
                s.spawn(move || {
                    let ps = pairs(400, 300, seed);
                    assert_eq!(e.run(&ps), e.index().query_batch_sequential(&ps));
                });
            }
        });
    }

    #[test]
    fn into_index_drains_and_recovers() {
        let e = engine(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        let ps = pairs(100, 300, 4);
        let expect = e.index().query_batch_sequential(&ps);
        assert_eq!(e.run(&ps), expect);
        let index = e.into_index();
        assert_eq!(index.query_batch_sequential(&ps), expect);
    }

    #[test]
    fn cached_engine_answers_match_and_repeat_batches_hit() {
        let e = engine(EngineConfig {
            workers: 2,
            chunk_size: 64,
            cache_capacity: 4096,
            ..EngineConfig::default()
        });
        let ps = pairs(400, 300, 21);
        let expect = e.index().query_batch_sequential(&ps);
        assert_eq!(e.run(&ps), expect, "cold pass parity");
        assert_eq!(e.run(&ps), expect, "warm pass parity");
        let stats = e.cache().expect("cache enabled").stats();
        assert!(
            stats.hits >= ps.len() as u64,
            "second pass must be all hits: {stats:?}"
        );
        // try_run goes through the same front-end.
        let (answers, report) = e.try_run(&ps).expect("idle queue");
        assert_eq!(answers, expect);
        assert_eq!(report.chunks, 0, "full hit submits nothing to the pool");
    }

    #[test]
    fn partial_hits_submit_only_missing_pairs() {
        let e = engine(EngineConfig {
            workers: 1,
            chunk_size: 8,
            cache_capacity: 1024,
            ..EngineConfig::default()
        });
        let warm = pairs(64, 300, 33);
        e.run(&warm);
        // Half warm, half cold: the pool only sees the cold half.
        let mut mixed = warm[..32].to_vec();
        mixed.extend(pairs(32, 300, 44));
        let (answers, report) = e.run_with_report(&mixed);
        assert_eq!(answers, e.index().query_batch_sequential(&mixed));
        assert_eq!(report.queries, 64);
        assert!(
            report.chunks <= 32usize.div_ceil(8),
            "only the cold residue is chunked: {report:?}"
        );
    }

    #[test]
    fn traced_run_attributes_stages_and_worker_stats() {
        let e = engine(EngineConfig {
            workers: 2,
            chunk_size: 64,
            sort_by_rank: true,
            ..EngineConfig::default()
        });
        let ps = pairs(300, 300, 77);
        let mut span = Span::new();
        let (answers, report) = e.try_run_traced(&ps, &mut span).expect("idle queue");
        assert_eq!(answers, e.index().query_batch_sequential(&ps));
        let st = span.stage_ns();
        assert!(st[Stage::Prepare as usize] > 0, "prepare attributed");
        assert!(st[Stage::Execute as usize] > 0, "execution attributed");
        assert!(st[Stage::Merge as usize] > 0, "merge attributed");
        assert_eq!(
            st[Stage::CacheProbe as usize],
            0,
            "no cache, no probe stage"
        );
        let stats = e.worker_stats();
        assert_eq!(stats.len(), 2, "one entry per pool worker");
        assert_eq!(
            stats.iter().map(|w| w.chunks).sum::<u64>(),
            report.chunks as u64,
            "every chunk lands in exactly one worker's counter"
        );
        assert!(stats.iter().map(|w| w.busy_ns).sum::<u64>() > 0);
    }

    #[test]
    fn traced_full_cache_hit_probes_without_executing() {
        let e = engine(EngineConfig {
            workers: 2,
            chunk_size: 64,
            cache_capacity: 4096,
            ..EngineConfig::default()
        });
        let ps = pairs(128, 300, 55);
        e.run(&ps); // warm the cache
        let mut span = Span::new();
        let (answers, report) = e.try_run_traced(&ps, &mut span).expect("idle queue");
        assert_eq!(answers, e.index().query_batch_sequential(&ps));
        assert_eq!(report.chunks, 0, "full hit submits nothing");
        let st = span.stage_ns();
        assert!(st[Stage::CacheProbe as usize] > 0, "probe attributed");
        assert_eq!(st[Stage::Execute as usize], 0, "no pool work on a hit");
    }

    #[test]
    fn cache_disabled_by_default() {
        let e = engine(EngineConfig::default());
        assert!(e.cache().is_none());
    }

    #[test]
    fn workload_sketch_records_batches_and_advises() {
        let e = engine(EngineConfig {
            workers: 2,
            cache_capacity: 8192,
            window_secs: 1,
            ..EngineConfig::default()
        });
        // A skewed batch: one dominant pair plus a spread.
        let mut ps = vec![(1u32, 2u32); 300];
        ps.extend(pairs(200, 300, 61));
        e.run(&ps);
        let w = e.workload().expect("workload sketch on by default");
        assert_eq!(w.total_pairs(), 500);
        assert!(w.distinct_pairs() >= 1.0);
        assert!(
            e.workload_quiesce(std::time::Duration::from_secs(5)),
            "sketcher thread did not drain"
        );
        assert_eq!(w.hot_pairs(1)[0].key, (1, 2));
        assert!(w.hot_pair_share() > 0.4);
        let ring = e.timeseries().expect("time series on by default");
        let now = super::unix_now_s();
        let recent = ring.recent(4, now);
        assert!(!recent.is_empty(), "the open window must show traffic");
        assert_eq!(recent.iter().map(|w| w.requests).sum::<u64>(), 1);
        // The advisor ran on the first batch of the first window.
        let advice = e.cache_advice().expect("advice available");
        assert!(advice.recommended >= advisor::MIN_CAPACITY);
        assert_eq!(
            e.recommended_cache_capacity(),
            Some(advisor::MIN_CAPACITY as u64),
            "first verdict ran on a nearly-empty sketch"
        );
    }

    #[test]
    fn workload_sketch_can_be_disabled() {
        let e = engine(EngineConfig {
            workers: 1,
            workload_sketch: false,
            ..EngineConfig::default()
        });
        e.run(&pairs(64, 300, 5));
        assert!(e.workload().is_none());
        assert!(e.timeseries().is_none());
        assert!(e.recommended_cache_capacity().is_none());
        assert!(e.cache_advice().is_none());
    }

    #[test]
    fn adaptive_cache_applies_the_advisors_verdict() {
        // A deliberately oversized cache plus a tiny working set: the
        // advisor must recommend (far) less and, with cache_adaptive on,
        // shrink the live cache when its window turns.
        let e = engine(EngineConfig {
            workers: 2,
            cache_capacity: 100_000,
            cache_adaptive: true,
            window_secs: 1,
            ..EngineConfig::default()
        });
        let ps = pairs(500, 300, 17);
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        // Drive repeat traffic across at least two window turns.
        while Instant::now() < deadline {
            e.run(&ps);
            if e.cache().unwrap().capacity() < 100_000 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        let live = e.cache().unwrap().capacity();
        assert!(
            live < 100_000,
            "adaptive engine must shrink an oversized cache (live {live})"
        );
        // The shrink lands on the advisor's own verdict: the live
        // capacity sits within its resize threshold of the
        // recommendation, so a steady workload triggers no further
        // resizes.
        let rec = e
            .recommended_cache_capacity()
            .expect("advisor published a recommendation") as f64;
        let drift = (rec - live as f64).abs() / live as f64;
        assert!(
            drift <= advisor::RESIZE_THRESHOLD,
            "capacity {live} has not converged onto recommendation {rec:.0}"
        );
        // Answers stay correct across the resize.
        assert_eq!(e.run(&ps), e.index().query_batch_sequential(&ps));
    }

    #[test]
    fn submit_error_messages() {
        let s = SubmitError::Saturated {
            queued: 9,
            capacity: 10,
        };
        assert!(s.to_string().contains("saturated"));
        let t = SubmitError::TooLarge {
            chunks: 99,
            capacity: 10,
        };
        assert!(t.to_string().contains("exceeds"));
    }
}
