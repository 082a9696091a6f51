//! PSPC — the parallel distance-iteration index builder (paper §III.D–F).
//!
//! The index is constructed in `D` iterations (D = diameter): iteration `d`
//! derives every distance-`d` label entry from the frozen snapshot of
//! iterations `< d` (Theorem 3 turns the sequential order dependency into a
//! distance dependency). Within an iteration, vertices are processed fully
//! independently under a configurable schedule plan and paradigm, and the
//! resulting index is *bit-identical* for every thread count, schedule and
//! paradigm — equal, in fact, to the sequential HP-SPC index, because the
//! ESPC is uniquely determined by the vertex order.
//!
//! **Storage during the build.** `labels[v]` holds levels `0..d` of `L(v)`
//! in the order they were added, so a level is a contiguous run, located
//! by two per-vertex starts kept at the barrier:
//!
//! * `prev_start[v]`, where level `d-1` starts. Pruning probes read
//!   `L(w)` up to it (see `pull.rs`: the newest level cannot witness);
//! * `recent_start[v]`, where level `d-2` starts. Label Elimination reads
//!   `L(u)` from it on (see `pull.rs`: in an undirected graph a candidate
//!   hub already on `u` lies in its two newest levels).
//!
//! Each iteration's new level is also staged as one CSR slab
//! ([`LevelSlab`]: an entry array plus `n + 1` offsets, built from a
//! prefix sum of per-vertex row lengths). Parallel chunks cover
//! contiguous, ascending vertex ranges and each appends to its own buffer,
//! so the buffers joined in range order are in vertex order. The next
//! iteration gathers candidates from that slab, not from the tails of `n`
//! separate label vectors; the barrier appends each row to `labels[v]`.
//! Two slabs are live at a time, the level being read and the one being
//! written, and they swap roles at the barrier. Their buffers are reused:
//! a fresh slab per level leaves holes of varying size between the growing
//! label vectors, which raised the peak RSS of a road build by ~18%.
//!
//! At the end each `labels[v]` is sorted by hub in place and the rows are
//! packed straight into the index's [`LabelArena`].
//!
//! ```
//! use pspc_core::builder::{build_pspc, PspcConfig};
//! use pspc_graph::generators::barabasi_albert;
//!
//! let g = barabasi_albert(300, 3, 7);
//! let (index, stats) = build_pspc(&g, &PspcConfig::default());
//! assert!(index.query(0, 299).is_reachable());
//! assert!(stats.iterations > 0);
//! ```

mod pull;
mod push;
pub mod schedule;

pub(crate) use pull::probe;
pub use schedule::{SchedulePlan, WorkModel};

use crate::common::{to_rank_space, weights_to_rank_space};
use crate::label::{Count, IndexStats, LabelArena, LabelEntry, SpcIndex};
use crate::landmark::{Landmarks, ProgressiveLandmarkBits};
use crate::scratch::{Workspace, WorkspacePool};
use pspc_graph::Graph;
use pspc_order::{OrderingStrategy, VertexOrder};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::time::Instant;

/// Propagation paradigm (paper Definitions 9–10).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Paradigm {
    /// Each vertex pulls its neighbors' previous-level entries (default).
    #[default]
    Pull,
    /// Each vertex pushes its previous-level entries to its neighbors.
    Push,
}

/// Configuration of the PSPC builder.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PspcConfig {
    /// Vertex ordering strategy (paper default: hybrid with δ = 5).
    pub ordering: OrderingStrategy,
    /// Pull- or push-based propagation.
    pub paradigm: Paradigm,
    /// Static (node-order) or dynamic (cost-function) schedule.
    pub schedule: SchedulePlan,
    /// Worker threads; 0 ⇒ all available cores.
    pub threads: usize,
    /// Number of landmark distance tables (0 disables the filter;
    /// paper default: 100).
    pub num_landmarks: usize,
    /// Use the paper's one-bit progressive landmark filter for pruning
    /// probes instead of the `u16` tables (§III.H: "one bit is needed").
    /// Identical results, 1/16th the probe memory.
    pub landmark_bitset: bool,
    /// Record per-vertex work for the [`WorkModel`] speedup estimator.
    pub record_work: bool,
}

impl Default for PspcConfig {
    fn default() -> Self {
        PspcConfig {
            ordering: OrderingStrategy::DEFAULT,
            paradigm: Paradigm::Pull,
            schedule: SchedulePlan::default(),
            threads: 0,
            num_landmarks: 100,
            landmark_bitset: false,
            record_work: false,
        }
    }
}

impl PspcConfig {
    /// Resolved thread count.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// Construction-side statistics of a PSPC build.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PspcBuildStats {
    /// Number of distance iterations executed: the largest label distance
    /// plus one, since the last iteration finds nothing new. By the peak
    /// decomposition of shortest paths, that lies between `⌈D/2⌉ + 1` and
    /// `D + 1` for the diameter `D` of the largest indexed component.
    pub iterations: usize,
    /// New label entries created per iteration.
    pub entries_per_iteration: Vec<usize>,
    /// Total work units per iteration: label entries the builder reads
    /// plus one per landmark test. For each vertex `u` with candidates
    /// that is the candidates scanned, the two newest levels of `L(u)`,
    /// its older levels only if a pruning probe runs, and each probe's
    /// entries up to the first witness (see [`schedule`]).
    pub work_per_iteration: Vec<u64>,
    /// Landmark table bytes (construction-time scratch).
    pub landmark_table_bytes: usize,
    /// Per-vertex work trace for the makespan model (present iff
    /// `record_work` was set).
    pub work_model: Option<WorkModel>,
}

/// Builds a PSPC index, computing the vertex order from the configured
/// strategy. Returns the index together with build statistics.
pub fn build_pspc(g: &Graph, config: &PspcConfig) -> (SpcIndex, PspcBuildStats) {
    let t0 = Instant::now();
    let order = config.ordering.compute(g);
    let order_seconds = t0.elapsed().as_secs_f64();
    let (mut idx, stats) = build_pspc_with_order(g, order, None, config);
    idx.stats_mut().order_seconds = order_seconds;
    (idx, stats)
}

/// Builds a PSPC index under a precomputed order, with optional vertex
/// multiplicities (original id space) for equivalence-reduced graphs.
pub fn build_pspc_with_order(
    g: &Graph,
    order: VertexOrder,
    weights: Option<&[Count]>,
    config: &PspcConfig,
) -> (SpcIndex, PspcBuildStats) {
    assert_eq!(order.len(), g.num_vertices(), "order must cover the graph");
    let n = g.num_vertices();
    let threads = config.resolved_threads();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build rayon pool");

    let rg = to_rank_space(g, &order);
    let rank_weights = weights.map(|w| weights_to_rank_space(&order, w));

    // LL phase: landmark distance tables.
    let t_ll = Instant::now();
    let landmarks = if config.num_landmarks > 0 {
        Some(pool.install(|| Landmarks::build(&rg, config.num_landmarks)))
    } else {
        None
    };
    let landmark_seconds = t_ll.elapsed().as_secs_f64();

    // LC phase: distance iterations. Level 0 is every vertex's self entry.
    let t_lc = Instant::now();
    let mut prev = LevelSlab::self_level(n);
    let mut next = LevelSlab::default();
    let mut labels: Vec<Vec<LabelEntry>> = (0..n).map(|v| prev.row(v).to_vec()).collect();
    let mut prev_start: Vec<u32> = vec![0; n];
    let mut recent_start: Vec<u32> = vec![0; n];
    let mut build = PspcBuildStats {
        landmark_table_bytes: landmarks.as_ref().map_or(0, Landmarks::size_bytes),
        work_model: config.record_work.then(WorkModel::default),
        ..PspcBuildStats::default()
    };
    let wpool = WorkspacePool::new(n);
    let mut landmark_bits = (config.landmark_bitset)
        .then(|| landmarks.as_ref().map(ProgressiveLandmarkBits::new))
        .flatten();

    let mut d: u16 = 0;
    loop {
        d = match d.checked_add(1) {
            Some(v) => v,
            None => break, // diameter beyond u16 is out of scope
        };
        if let Some(bits) = &mut landmark_bits {
            bits.advance(d);
        }
        let ctx = PropagationCtx {
            rg: &rg,
            weights: rank_weights.as_deref(),
            labels: &labels,
            prev: &prev,
            prev_start: &prev_start,
            recent_start: &recent_start,
            landmarks: landmarks.as_ref(),
            landmark_bits: landmark_bits.as_ref(),
            d,
        };
        let ranges = plan_ranges(&ctx, config.schedule, threads);
        let mut vertex_work = config.record_work.then(|| vec![0u64; n]);
        let total_work = match config.paradigm {
            Paradigm::Pull => run_pull_iteration(
                &ctx,
                &ranges,
                config.schedule,
                &pool,
                &wpool,
                vertex_work.as_deref_mut(),
                &mut next,
            ),
            Paradigm::Push => {
                pool.install(|| push::run_push_iteration(&ctx, &ranges, &wpool, &mut next))
            }
        };
        // Barrier: append the fresh level to the frozen snapshot.
        pool.install(|| {
            labels
                .par_iter_mut()
                .zip(prev_start.par_iter_mut())
                .zip(recent_start.par_iter_mut())
                .enumerate()
                .for_each(|(v, ((lab, ps), rs))| {
                    *rs = *ps;
                    *ps = lab.len() as u32;
                    lab.extend_from_slice(next.row(v));
                })
        });
        let new_entries = next.len();
        build.entries_per_iteration.push(new_entries);
        build.work_per_iteration.push(total_work);
        if let (Some(model), Some(works)) = (&mut build.work_model, vertex_work) {
            model.per_iteration.push(works);
        }
        std::mem::swap(&mut prev, &mut next);
        if new_entries == 0 {
            break;
        }
    }
    build.iterations = build.entries_per_iteration.len();
    drop((prev, next)); // before the finalize allocates the arena

    // Finalize: sort each label by hub (levels were appended in distance
    // order) in place, then pack the labels into the index's arena on this
    // thread. Staging them through per-vertex allocations on the workers
    // left ~28 MB resident after a 2.2M-entry index was dropped: glibc
    // keeps memory freed into a worker's arena once freeing a slab has
    // raised its trim threshold.
    pool.install(|| {
        labels
            .par_iter_mut()
            .for_each(|l| l.sort_unstable_by_key(|e| e.hub))
    });
    let arena = LabelArena::from_sorted_rows(&labels);
    let stats = IndexStats {
        landmark_seconds,
        construction_seconds: t_lc.elapsed().as_secs_f64(),
        ..IndexStats::default()
    };
    (
        SpcIndex::from_arena(order, arena, rank_weights, stats),
        build,
    )
}

/// Read-only view of the frozen snapshot shared by one iteration.
pub(crate) struct PropagationCtx<'a> {
    pub rg: &'a Graph,
    pub weights: Option<&'a [Count]>,
    /// Levels `0..d` of every label, level by level.
    pub labels: &'a [Vec<LabelEntry>],
    /// Level `d - 1` of every label (also the tail of `labels[v]`).
    pub prev: &'a LevelSlab,
    /// Where level `d - 1` starts in `labels[v]`.
    pub prev_start: &'a [u32],
    /// Where level `d - 2` starts in `labels[v]`: `labels[v][recent_start[v]..]`
    /// are the two newest levels.
    pub recent_start: &'a [u32],
    pub landmarks: Option<&'a Landmarks>,
    pub landmark_bits: Option<&'a ProgressiveLandmarkBits>,
    pub d: u16,
}

/// One distance level of every vertex's label as a CSR slab: the row of
/// vertex `v` is `entries[offsets[v]..offsets[v + 1]]`, sorted by hub.
#[derive(Default)]
pub(crate) struct LevelSlab {
    offsets: Vec<usize>,
    entries: Vec<LabelEntry>,
}

impl LevelSlab {
    /// Level 0: each vertex's self entry.
    fn self_level(n: usize) -> Self {
        LevelSlab {
            offsets: (0..=n).collect(),
            entries: (0..n as u32)
                .map(|u| LabelEntry {
                    hub: u,
                    dist: 0,
                    count: 1,
                })
                .collect(),
        }
    }

    /// Refills the slab, reusing its buffers, from per-chunk entry buffers
    /// given in vertex order and the per-vertex row lengths `counts`.
    fn fill(&mut self, chunks: impl IntoIterator<Item = Vec<LabelEntry>>, counts: &[u32]) {
        self.offsets.clear();
        self.offsets.push(0);
        let mut total = 0usize;
        for &c in counts {
            total += c as usize;
            self.offsets.push(total);
        }
        self.entries.clear();
        for chunk in chunks {
            self.entries.extend_from_slice(&chunk);
        }
        assert_eq!(
            self.entries.len(),
            total,
            "row lengths disagree with the entries"
        );
    }

    /// Row of vertex `v`.
    #[inline]
    fn row(&self, v: usize) -> &[LabelEntry] {
        &self.entries[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Length of the row of vertex `v`.
    #[inline]
    fn row_len(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Entries in the level.
    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Computes the iteration's chunk ranges under the schedule plan.
fn plan_ranges(ctx: &PropagationCtx<'_>, plan: SchedulePlan, threads: usize) -> Vec<Range<usize>> {
    let n = ctx.rg.num_vertices();
    match plan {
        SchedulePlan::Static => schedule::static_ranges(n, threads),
        SchedulePlan::Dynamic { chunks_per_thread } => {
            // cost(u) ≈ Σ_{v ∈ N(u)} |L_{d-1}(v)| (approximate Def. 11).
            let costs: Vec<u64> = (0..n as u32)
                .map(|u| {
                    ctx.rg
                        .neighbors(u)
                        .iter()
                        .map(|&v| ctx.prev.row_len(v as usize) as u64)
                        .sum::<u64>()
                        + 1
                })
                .collect();
            schedule::cost_ranges(&costs, threads * chunks_per_thread.max(1))
        }
    }
}

/// Splits `data` into per-range mutable slices (ranges must be contiguous,
/// ascending and cover `0..data.len()`).
fn split_by_ranges<'a, T>(mut data: &'a mut [T], ranges: &[Range<usize>]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut consumed = 0usize;
    for r in ranges {
        debug_assert_eq!(r.start, consumed, "ranges must be contiguous");
        let (head, tail) = data.split_at_mut(r.len());
        out.push(head);
        data = tail;
        consumed += r.len();
    }
    debug_assert!(data.is_empty(), "ranges must cover all data");
    out
}

/// Executes one pull iteration under the given schedule: writes the new
/// level into `level` and returns the total work units.
///
/// * `Static`: one OS thread per contiguous range (crossbeam scope) — the
///   paper's node-order-based plan, including its imbalance.
/// * `Dynamic`: cost-based chunks on the rayon pool — chunks are dispensed
///   to idle workers (work stealing), the paper's dynamic plan.
///
/// Either way each range appends its survivors to its own buffer and
/// records one row length per vertex; the ranges are contiguous and
/// ascending, so the buffers joined in range order are the level's slab.
fn run_pull_iteration(
    ctx: &PropagationCtx<'_>,
    ranges: &[Range<usize>],
    plan: SchedulePlan,
    pool: &rayon::ThreadPool,
    wpool: &WorkspacePool,
    vertex_work: Option<&mut [u64]>,
    level: &mut LevelSlab,
) -> u64 {
    let mut counts = vec![0u32; ctx.rg.num_vertices()];
    let count_slices = split_by_ranges(&mut counts, ranges);
    let work_slices: Vec<Option<&mut [u64]>> = match vertex_work {
        Some(w) => split_by_ranges(w, ranges).into_iter().map(Some).collect(),
        None => ranges.iter().map(|_| None).collect(),
    };
    let tasks: Vec<_> = ranges
        .iter()
        .zip(count_slices)
        .zip(work_slices)
        .map(|((r, c), w)| (r.clone(), c, w))
        .collect();
    let run = |(range, counts, works): (Range<usize>, &mut [u32], Option<&mut [u64]>)| {
        wpool.with(|ws| pull_range(ctx, range, ws, counts, works))
    };
    let results: Vec<(Vec<LabelEntry>, u64)> = match plan {
        SchedulePlan::Static => crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = tasks
                .into_iter()
                .map(|task| scope.spawn(move |_| run(task)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("static scheduling thread panicked"))
                .collect()
        })
        .expect("static scheduling thread panicked"),
        SchedulePlan::Dynamic { .. } => pool.install(|| tasks.into_par_iter().map(run).collect()),
    };
    let total = results.iter().map(|(_, w)| w).sum();
    level.fill(results.into_iter().map(|(entries, _)| entries), &counts);
    total
}

/// Runs [`pull::process_vertex`] over `range`, appending every vertex's new
/// entries to one buffer and its row length to `counts` (and its work to
/// `works`, if recorded). Returns the buffer and the range's work.
fn pull_range(
    ctx: &PropagationCtx<'_>,
    range: Range<usize>,
    ws: &mut Workspace,
    counts: &mut [u32],
    mut works: Option<&mut [u64]>,
) -> (Vec<LabelEntry>, u64) {
    let mut out = Vec::new();
    let mut sum = 0u64;
    for (i, u) in range.enumerate() {
        let before = out.len();
        let w = pull::process_vertex(ctx, u as u32, ws, &mut out);
        counts[i] = (out.len() - before) as u32;
        if let Some(works) = works.as_deref_mut() {
            works[i] = w;
        }
        sum += w;
    }
    (out, sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{figure2_graph, figure2_order};
    use crate::hpspc::build_hpspc_with_order;
    use pspc_graph::generators::{barabasi_albert, erdos_renyi, perturbed_grid};
    use pspc_graph::spc_bfs::spc_all_pairs;

    fn assert_same_index(a: &SpcIndex, b: &SpcIndex, what: &str) {
        assert_eq!(a.order(), b.order(), "{what}: orders differ");
        assert_eq!(
            a.label_arena(),
            b.label_arena(),
            "{what}: label sets differ"
        );
    }

    #[test]
    fn pspc_equals_hpspc_on_figure2() {
        let g = figure2_graph();
        let o = figure2_order();
        let seq = build_hpspc_with_order(&g, o.clone(), None);
        for landmarks in [0usize, 3] {
            let cfg = PspcConfig {
                ordering: OrderingStrategy::Degree,
                num_landmarks: landmarks,
                ..PspcConfig::default()
            };
            let (par, _) = build_pspc_with_order(&g, o.clone(), None, &cfg);
            assert_same_index(&seq, &par, &format!("landmarks={landmarks}"));
        }
    }

    #[test]
    fn deterministic_across_threads_schedules_paradigms() {
        // BA(150, 3) is shallow (6 iterations), so the two newest levels
        // are nearly all of a label. The perturbed grid is deep (21), so
        // most probes need the older levels of L(u), which are loaded
        // lazily.
        for (name, g) in [
            ("ba", barabasi_albert(150, 3, 21)),
            ("grid", perturbed_grid(12, 12, 0.1, 0.1, 21)),
        ] {
            let o = OrderingStrategy::Degree.compute(&g);
            let reference = build_hpspc_with_order(&g, o.clone(), None);
            for threads in [1usize, 2, 4] {
                for schedule in [
                    SchedulePlan::Static,
                    SchedulePlan::Dynamic {
                        chunks_per_thread: 4,
                    },
                ] {
                    for paradigm in [Paradigm::Pull, Paradigm::Push] {
                        let cfg = PspcConfig {
                            ordering: OrderingStrategy::Degree,
                            paradigm,
                            schedule,
                            threads,
                            num_landmarks: 10,
                            ..PspcConfig::default()
                        };
                        let (idx, _) = build_pspc_with_order(&g, o.clone(), None, &cfg);
                        assert_same_index(
                            &reference,
                            &idx,
                            &format!("{name} t={threads} {:?} {paradigm:?}", schedule.name()),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn queries_match_brute_force() {
        for (i, g) in [
            erdos_renyi(60, 140, 5),
            barabasi_albert(60, 2, 6),
            perturbed_grid(8, 8, 0.1, 0.1, 7),
        ]
        .iter()
        .enumerate()
        {
            let truth = spc_all_pairs(g);
            let n = g.num_vertices() as u32;
            // With the default 100 landmarks every hub of these graphs is
            // a landmark; fewer send most pruning through the label probe.
            for num_landmarks in [0usize, 4] {
                let cfg = PspcConfig {
                    num_landmarks,
                    ..PspcConfig::default()
                };
                let (idx, _) = build_pspc(g, &cfg);
                for s in 0..n {
                    for t in 0..n {
                        assert_eq!(
                            idx.query(s, t),
                            truth[s as usize][t as usize],
                            "graph {i} landmarks={num_landmarks} mismatch at ({s},{t})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn iterations_track_max_label_distance() {
        let g = perturbed_grid(5, 9, 0.0, 0.0, 0); // plain grid, diameter 12
        let (idx, stats) = build_pspc(&g, &PspcConfig::default());
        let max_label_dist = idx.label_arena().dists().iter().copied().max().unwrap() as usize;
        // The loop stops one iteration after the last productive one.
        assert_eq!(stats.iterations, max_label_dist + 1);
        assert_eq!(*stats.entries_per_iteration.last().unwrap(), 0);
        // Peak decomposition bounds: every diameter path splits into two
        // trough legs, so the longest label is between ⌈D/2⌉ and D.
        assert!((6..=12).contains(&max_label_dist));
    }

    #[test]
    fn work_model_recorded_when_asked() {
        let g = barabasi_albert(80, 2, 8);
        let cfg = PspcConfig {
            record_work: true,
            ..PspcConfig::default()
        };
        let (_, stats) = build_pspc(&g, &cfg);
        let model = stats.work_model.expect("work model requested");
        assert_eq!(model.per_iteration.len(), stats.iterations);
        assert!(model.total_work() > 0);
        let s = model.speedup(4, SchedulePlan::default());
        assert!(
            (1.0..=4.0).contains(&s),
            "modelled speedup {s} out of range"
        );
    }

    #[test]
    fn bitset_filter_is_equivalent() {
        let g = barabasi_albert(200, 3, 33);
        let o = OrderingStrategy::Degree.compute(&g);
        let table = PspcConfig {
            ordering: OrderingStrategy::Degree,
            num_landmarks: 16,
            ..PspcConfig::default()
        };
        let bitset = PspcConfig {
            landmark_bitset: true,
            ..table.clone()
        };
        let (a, _) = build_pspc_with_order(&g, o.clone(), None, &table);
        let (b, _) = build_pspc_with_order(&g, o, None, &bitset);
        assert_eq!(a.label_arena(), b.label_arena());
    }

    #[test]
    fn weighted_build_matches_weighted_bfs() {
        let g = erdos_renyi(40, 90, 9);
        let w: Vec<Count> = (0..40).map(|v| 1 + (v % 3) as Count).collect();
        let o = OrderingStrategy::Degree.compute(&g);
        for num_landmarks in [0usize, 4] {
            let cfg = PspcConfig {
                num_landmarks,
                ..PspcConfig::default()
            };
            let (idx, _) = build_pspc_with_order(&g, o.clone(), Some(&w), &cfg);
            for s in 0..40u32 {
                for t in 0..40u32 {
                    if s == t {
                        continue;
                    }
                    let truth = pspc_graph::spc_bfs::spc_pair_weighted(&g, s, t, Some(&w));
                    assert_eq!(
                        idx.query(s, t),
                        truth,
                        "landmarks={num_landmarks} mismatch at ({s},{t})"
                    );
                }
            }
        }
    }
}
