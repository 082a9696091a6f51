//! The four workloads: their seeded inputs and their end-to-end runs.
//! Every workload reports every end-to-end metric; the README in this
//! directory defines each metric per workload.

use crate::input::{self, Rng, Sampler, Source, BATCH};
use crate::load::{self, Expect};
use crate::stats::{self, median, quantile, Report, Tally};
use crate::trace::Tracer;
use pspc_core::{build_pspc, DynamicDistanceIndex, Paradigm, PspcConfig, SpcIndex};
use pspc_graph::{Graph, SpcAnswer, VertexId};
use pspc_order::OrderingStrategy;
use pspc_server::{serve_with_obs, ObsConfig, ServerHandle};
use pspc_service::{EngineConfig, IndexKind};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Build threads and daemon workers (the target host has 2 cores).
pub const THREADS: usize = 2;
/// Open-loop offered rate, requests/s (about a third of the closed-loop
/// capacity of `serve-uniform`).
pub const OPEN_RATE: f64 = 1_000.0;
/// `serve-skewed-writes`: result-cache entries, held-out edges, insert
/// rate, Zipf exponent and pair universe.
pub const CACHE_CAPACITY: usize = 65_536;
const SKEWED_HELD: usize = 2_000;
pub const INSERT_RATE: f64 = 20.0;
const ZIPF_THETA: f64 = 1.1;
const ZIPF_UNIVERSE: usize = 100_000;
/// Uniform pair pool every request of the static workloads draws from.
const UNIFORM_POOL: usize = 32_768;
/// Edges the traced run of the static workloads holds out and re-inserts
/// in-process.
const PROBE_HELD: usize = 256;
/// Daemon set-ups per run (`setup_s` is their median) and graph loads.
const SETUPS: usize = 11;
const GRAPH_LOADS: usize = 31;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BuildSocial,
    BuildRoad,
    ServeUniform,
    ServeSkewedWrites,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BuildSocial,
        Workload::BuildRoad,
        Workload::ServeUniform,
        Workload::ServeSkewedWrites,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BuildSocial => "build-social",
            Workload::BuildRoad => "build-road",
            Workload::ServeUniform => "serve-uniform",
            Workload::ServeSkewedWrites => "serve-skewed-writes",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Per-run settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory for snapshots, removed when the run ends.
    pub work: PathBuf,
}

/// The seeded inputs of one workload.
pub struct Inputs {
    /// The graph the static index is built on (for `serve-skewed-writes`
    /// the initial graph, before any insert).
    pub graph: Graph,
    /// The graph the dynamic index starts from, and the held-out edges
    /// inserted into it, in order.
    pub dyn_graph: Graph,
    pub held: Vec<(VertexId, VertexId)>,
    /// The pair universe requests are drawn from, and how.
    pub pairs: Vec<(VertexId, VertexId)>,
    pub sampler: Sampler,
}

impl Inputs {
    pub fn generate(w: Workload, seed: u64) -> Inputs {
        let g = match w {
            Workload::BuildRoad => input::road(seed),
            _ => input::social(seed),
        };
        let n = g.num_vertices();
        let mut rng = Rng::stream(seed, 1);
        if w == Workload::ServeSkewedWrites {
            let (g0, held) = input::hold_out(&g, SKEWED_HELD);
            return Inputs {
                graph: g0.clone(),
                dyn_graph: g0,
                held,
                pairs: input::uniform_pairs(n, ZIPF_UNIVERSE, &mut rng),
                sampler: Sampler::Zipf(input::Zipf::new(ZIPF_UNIVERSE, ZIPF_THETA)),
            };
        }
        let (dyn_graph, held) = input::hold_out(&g, PROBE_HELD);
        Inputs {
            graph: g,
            dyn_graph,
            held,
            pairs: input::uniform_pairs(n, UNIFORM_POOL, &mut rng),
            sampler: Sampler::Blocks,
        }
    }

    pub fn source(&self) -> Source<'_> {
        Source {
            pairs: &self.pairs,
            sampler: &self.sampler,
        }
    }
}

/// The `PspcConfig` of every build: the defaults (hybrid order, 100
/// landmarks, dynamic schedule) at a fixed thread count.
pub fn build_config(threads: usize, paradigm: Paradigm) -> PspcConfig {
    PspcConfig {
        threads,
        paradigm,
        ..PspcConfig::default()
    }
}

/// The engine settings `pspc serve` ships with, at [`THREADS`] workers.
pub fn serve_config(cache_capacity: usize) -> EngineConfig {
    EngineConfig {
        workers: THREADS,
        cache_capacity,
        ..EngineConfig::default()
    }
}

/// Starts the daemon in-process on an ephemeral local port.
pub fn start_daemon(
    kind: IndexKind,
    cfg: EngineConfig,
    obs: ObsConfig,
) -> io::Result<ServerHandle> {
    serve_with_obs(kind, "127.0.0.1:0", cfg, obs)
}

pub fn addr(h: &ServerHandle) -> String {
    h.local_addr().to_string()
}

const MIB: f64 = (1u64 << 20) as f64;

/// Checks `answer(s, t)` against the counting BFS on `g` for `pairs`
/// (grouped by source); `counts` false compares distances only, as the
/// dynamic index maintains no counts. Returns the mismatches.
pub fn oracle_mismatches(
    g: &Graph,
    pairs: &[(VertexId, VertexId)],
    counts: bool,
    mut answer: impl FnMut(&[(VertexId, VertexId)]) -> Vec<SpcAnswer>,
) -> usize {
    let got = answer(pairs);
    let mut bad = 0;
    let mut last = None;
    let mut truth = (Vec::new(), Vec::new());
    for (&(s, t), a) in pairs.iter().zip(&got) {
        if last != Some(s) {
            truth = pspc_graph::spc_bfs::spc_from_source(g, s);
            last = Some(s);
        }
        let (d, c) = (truth.0[t as usize], truth.1[t as usize]);
        let ok = a.dist == d && (!counts || a.count == c);
        bad += usize::from(!ok);
    }
    bad + pairs.len().saturating_sub(got.len())
}

/// ~200 oracle pairs: 8 sources × 25 targets.
pub fn oracle_sample(n: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    input::oracle_pairs(n, 8, 25, &mut Rng::stream(seed, 2))
}

/// Order-sensitive digest of an index's order and labels, to check that
/// repeated builds agree without keeping two indexes alive.
fn fingerprint(idx: &SpcIndex) -> u64 {
    let arena = idx.label_arena();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x0100_0000_01b3);
    idx.order().order().iter().for_each(|&v| mix(v as u64));
    arena.offsets().iter().for_each(|&o| mix(o));
    arena.hubs().iter().for_each(|&x| mix(x as u64));
    arena.dists().iter().for_each(|&x| mix(x as u64));
    arena.counts().iter().for_each(|&x| mix(x));
    h
}

/// Runs the end-to-end measurement of `w` into `rep`.
pub fn end_to_end(w: Workload, ctx: &Ctx, inp: &Inputs, rep: &mut Report) -> io::Result<()> {
    match w {
        Workload::BuildSocial | Workload::BuildRoad => build_run(ctx, inp, rep),
        Workload::ServeUniform => uniform_run(ctx, inp, rep),
        Workload::ServeSkewedWrites => skewed_run(ctx, inp, rep),
    }
}

/// Serving rounds per run of the serve workloads.
const ROUNDS: usize = 8;
/// Dynamic-index builds of `serve-skewed-writes` (`build_s` is the best).
const DYN_BUILDS: usize = 3;

/// Interleaved serving rounds of one run. Each figure is collected per
/// window across all rounds, so that the best window can come from any
/// part of the run: a small shared host runs in fast and slow phases of
/// several seconds, and other machines only ever slow this one down, so
/// the best window is what the code achieves when left alone.
#[derive(Default)]
struct Segments {
    /// Pairs/s per [`load::WINDOW`] of the closed loops.
    qps: Vec<f64>,
    /// Median latency per [`load::WINDOW`] and p99 per second of the
    /// open loops, µs.
    p50: Vec<f64>,
    p99: Vec<f64>,
    late_max_ms: f64,
    insert_us: Vec<f64>,
    applied: Vec<(VertexId, VertexId)>,
    seen: Vec<u16>,
    tally: Tally,
    rounds: u64,
}

impl Segments {
    /// One round: a closed loop on [`THREADS`] connections, then the open
    /// loop on `open_conns` connections with `inserts` paced alongside.
    #[allow(clippy::too_many_arguments)]
    fn round(
        &mut self,
        a: &str,
        src: &Source,
        expect: &Expect,
        closed_secs: f64,
        open_secs: f64,
        open_conns: usize,
        inserts: Option<load::InsertPlan>,
        seed: u64,
    ) {
        let mut tr = Tracer::new(false);
        let seed = seed ^ (self.rounds << 32);
        self.rounds += 1;
        let c = load::closed_loop(a, src, expect, THREADS, closed_secs, seed, &mut tr);
        self.qps.extend(c.window_rates());
        self.tally.add(c.tally);
        load::merge_seen(&mut self.seen, c.seen);
        let (o, ins) = load::open_loop(
            a, src, expect, open_conns, OPEN_RATE, open_secs, seed, inserts, &mut tr,
        );
        self.p50.extend(o.window_quantiles(0.5, load::WINDOW));
        self.p99.extend(o.window_quantiles(0.99, 1.0));
        self.late_max_ms = self.late_max_ms.max(o.late_max_ms).max(ins.late_max_ms);
        self.tally.add(o.tally);
        load::merge_seen(&mut self.seen, o.seen);
        self.insert_us.extend(ins.lat_us);
        self.applied.extend(ins.applied);
        self.tally.add(ins.tally);
    }

    /// Records `qps` (best window), `p50_us` (best window), `p99_us`
    /// (best second, printed only), the insert latencies over all inserts
    /// (printed only) and the generator check.
    fn report(&self, h: &ServerHandle, rep: &mut Report) {
        let best = |v: &[f64], pick: fn(f64, f64) -> f64| v.iter().copied().reduce(pick);
        rep.tally.add(self.tally);
        rep.put(
            "qps",
            best(&self.qps, f64::max).unwrap_or(f64::NAN),
            "pairs/s",
        );
        rep.put(
            "p50_us",
            best(&self.p50, f64::min).unwrap_or(f64::NAN),
            "us",
        );
        rep.print_only(
            "p99_us",
            best(&self.p99, f64::min).unwrap_or(f64::NAN),
            "us",
        );
        if !self.insert_us.is_empty() {
            rep.print_only("insert_p50_us", median(&self.insert_us), "us");
            rep.print_only("insert_p99_us", quantile(&self.insert_us, 0.99), "us");
        }
        loadgen_verdict(self.late_max_ms, rep);
        let p99s: Vec<String> = self.p99.iter().map(|x| format!("{x:.0}")).collect();
        rep.notes.push(format!(
            "p99 of each open-loop second (us): {}",
            p99s.join(" ")
        ));
        let rejected = h.metrics().rejected;
        if rejected > 0 {
            rep.notes.push(format!("daemon shed {rejected} requests"));
        }
    }
}

/// An open loop whose generator ran this late cannot vouch for its
/// percentiles: it no longer offered the stated rate.
const LATE_LIMIT_MS: f64 = 50.0;

fn loadgen_verdict(late_max_ms: f64, rep: &mut Report) {
    if late_max_ms > LATE_LIMIT_MS {
        rep.notes.push(format!(
            "UNFIT FOR LATENCY COMPARISON: the open-loop generator fell {late_max_ms:.1} ms \
             behind (limit {LATE_LIMIT_MS} ms), so p50_us/p99_us of this run are not comparable"
        ));
    } else {
        rep.notes.push(format!(
            "open-loop generator at most {late_max_ms:.2} ms late"
        ));
    }
}

/// `g` plus `edges`.
fn with_edges(g: &Graph, edges: &[(VertexId, VertexId)]) -> Graph {
    pspc_graph::GraphBuilder::new()
        .num_vertices(g.num_vertices())
        .edges(g.edges().chain(edges.iter().copied()))
        .build()
}

/// Seconds of `--seconds` one round of a build workload stands for (its
/// build plus a serving round), so a 16 s run makes 2 rounds.
const BUILD_ROUND_SECS: f64 = 6.5;

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `build-*`: load the graph, then rounds of one timed build followed by
/// a serving round on the first built index. The peak RSS of a round is
/// reset before its build, so it covers the build on top of the daemon.
fn build_run(ctx: &Ctx, inp: &Inputs, rep: &mut Report) -> io::Result<()> {
    let g = &inp.graph;
    let bytes = pspc_graph::io::to_binary(g);
    let mut loads = Vec::new();
    for _ in 0..GRAPH_LOADS {
        let t = Instant::now();
        let loaded = pspc_graph::io::from_binary(bytes.clone())?;
        loads.push(t.elapsed().as_secs_f64());
        rep.check(&loaded == g, "graph bytes round trip");
    }
    rep.put("setup_s", median(&loads), "s");

    let rounds = ((ctx.seconds / BUILD_ROUND_SECS) as usize).max(2);
    let cfg = build_config(THREADS, Paradigm::Pull);
    let oracle = oracle_sample(g.num_vertices(), ctx.seed);
    let (mut times, mut peaks, mut first_fp, mut served) = (Vec::new(), Vec::new(), None, None);
    let mut seg = Segments::default();
    for _ in 0..rounds {
        stats::reset_peak_rss();
        let t = Instant::now();
        let (idx, _) = build_pspc(g, &cfg);
        times.push(t.elapsed().as_secs_f64());
        peaks.push(stats::peak_rss_mib());
        let fp = fingerprint(&idx);
        match first_fp {
            None => {
                let bad = oracle_mismatches(g, &oracle, true, |p| idx.query_batch_sequential(p));
                rep.check(bad == 0, &format!("{bad} built answers differ from BFS"));
                first_fp = Some(fp);
                rep.put("index_mib", idx.stats().label_bytes as f64 / MIB, "MiB");
                let expect = Expect::Exact(idx.query_batch_sequential(&inp.pairs));
                served = Some((
                    start_daemon(idx.into(), serve_config(0), ObsConfig::default())?,
                    expect,
                ));
            }
            Some(f) => rep.check(f == fp, "repeated builds differ"),
        }
        let (h, expect) = served.as_ref().expect("the first build is served");
        seg.round(
            &addr(h),
            &inp.source(),
            expect,
            1.0,
            2.0,
            THREADS,
            None,
            ctx.seed,
        );
    }
    // The best build, for the reason given at `Segments`.
    rep.put("build_s", min(&times), "s");
    rep.put("peak_rss_mib", min(&peaks), "MiB");
    let (h, _) = served.expect("the first build is served");
    seg.report(&h, rep);
    h.shutdown();
    Ok(())
}

/// After the writers stop, answers over the socket must equal BFS on the
/// final graph exactly.
fn check_final_distances(h: &ServerHandle, final_graph: &Graph, rep: &mut Report) {
    let n = final_graph.num_vertices();
    let pairs = input::oracle_pairs(n, 16, 64, &mut Rng::stream(n as u64, 3));
    let a = addr(h);
    // A failed request answers with a sentinel no BFS answer can match.
    let failed = SpcAnswer {
        dist: u16::MAX - 1,
        count: u64::MAX,
    };
    let bad = oracle_mismatches(final_graph, &pairs, false, |p| {
        p.chunks(BATCH)
            .flat_map(|c| {
                pspc_server::query_remote(&a, c).unwrap_or_else(|_| vec![failed; c.len()])
            })
            .collect()
    });
    rep.check(
        bad == 0,
        &format!("{bad} post-insert answers differ from BFS"),
    );
}

/// `serve-uniform`: the social index as a v2 snapshot, mmap-loaded and
/// served with the cache off, in rounds of closed loop and open loop.
fn uniform_run(ctx: &Ctx, inp: &Inputs, rep: &mut Report) -> io::Result<()> {
    let g = &inp.graph;
    let t = Instant::now();
    let (idx, _) = build_pspc(g, &build_config(THREADS, Paradigm::Pull));
    rep.put("build_s", t.elapsed().as_secs_f64(), "s");
    let oracle = oracle_sample(g.num_vertices(), ctx.seed);
    let bad = oracle_mismatches(g, &oracle, true, |p| idx.query_batch_sequential(p));
    rep.check(bad == 0, &format!("{bad} index answers differ from BFS"));
    let expect = Expect::Exact(idx.query_batch_sequential(&inp.pairs));
    rep.put("index_mib", idx.stats().label_bytes as f64 / MIB, "MiB");
    let snap = ctx.work.join("social.pspc");
    write_snapshot(&snap, |w| pspc_core::serialize::write_index_to(w, &idx))?;
    drop(idx);

    stats::reset_peak_rss();
    let open = || -> io::Result<IndexKind> { Ok(pspc_core::map_index_from_file(&snap)?.into()) };
    let h = timed_setups(open, serve_config(0), inp, &expect, rep)?;
    let (a, src, mut seg) = (addr(&h), inp.source(), Segments::default());
    let round_secs = ctx.seconds / ROUNDS as f64;
    for _ in 0..ROUNDS {
        seg.round(
            &a,
            &src,
            &expect,
            0.4 * round_secs,
            0.5 * round_secs,
            THREADS,
            None,
            ctx.seed,
        );
    }
    rep.put("peak_rss_mib", stats::peak_rss_mib(), "MiB");
    seg.report(&h, rep);
    h.shutdown();
    Ok(())
}

/// Writes a snapshot through a buffered writer.
pub fn write_snapshot(
    path: &Path,
    write: impl FnOnce(&mut io::BufWriter<std::fs::File>) -> io::Result<()>,
) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    write(&mut w)?;
    io::Write::flush(&mut w)
}

/// Times [`SETUPS`] daemon set-ups from snapshot open to the first correct
/// answer over the socket, records their median as `setup_s`, and keeps
/// the last daemon running.
fn timed_setups(
    open: impl Fn() -> io::Result<IndexKind>,
    cfg: EngineConfig,
    inp: &Inputs,
    expect: &Expect,
    rep: &mut Report,
) -> io::Result<ServerHandle> {
    let idx: Vec<u32> = (0..BATCH as u32).collect();
    let pairs = &inp.pairs[..BATCH];
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(h) = last.take() {
            ServerHandle::shutdown(h);
        }
        let t = Instant::now();
        let h = start_daemon(open()?, cfg, ObsConfig::default())?;
        let ok = load::first_answer(&addr(&h), pairs, &idx, expect);
        times.push(t.elapsed().as_secs_f64());
        rep.check(matches!(ok, Ok(true)), "first answer after set-up");
        last = Some(h);
    }
    rep.put("setup_s", median(&times), "s");
    Ok(last.expect("SETUPS > 0"))
}

/// `serve-skewed-writes`: a dynamic index of the social graph minus its
/// last 2,000 edges, copy-loaded and served with a result cache; rounds
/// of a closed loop, then Zipf queries on one connection while held-out
/// edges go back in over HTTP at a fixed rate.
fn skewed_run(ctx: &Ctx, inp: &Inputs, rep: &mut Report) -> io::Result<()> {
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..DYN_BUILDS {
        drop(built.take());
        let t = Instant::now();
        built = Some(DynamicDistanceIndex::build(
            &inp.dyn_graph,
            OrderingStrategy::DEFAULT,
        ));
        times.push(t.elapsed().as_secs_f64());
    }
    let d = built.expect("DYN_BUILDS > 0");
    rep.put("build_s", min(&times), "s");
    rep.put("index_mib", d.num_entries() as f64 * 6.0 / MIB, "MiB");
    let snap = ctx.work.join("social.pspcdyn");
    write_snapshot(&snap, |w| pspc_core::serialize::write_dyn_index_to(w, &d))?;
    drop(d);
    let initial = input::bfs_pair_distances(&inp.dyn_graph, &inp.pairs);
    let expect = Expect::AtMost(initial);

    stats::reset_peak_rss();
    let open = || -> io::Result<IndexKind> {
        let bytes = bytes::Bytes::from(std::fs::read(&snap)?);
        Ok(pspc_core::any_index_from_binary(bytes)?.into())
    };
    let h = timed_setups(open, serve_config(CACHE_CAPACITY), inp, &expect, rep)?;
    let (a, src, mut seg) = (addr(&h), inp.source(), Segments::default());
    let round_secs = ctx.seconds / ROUNDS as f64;
    for _ in 0..ROUNDS {
        let plan = load::InsertPlan {
            edges: &inp.held[seg.insert_us.len().min(inp.held.len())..],
            rate: INSERT_RATE,
        };
        seg.round(
            &a,
            &src,
            &expect,
            0.4 * round_secs,
            0.55 * round_secs,
            1,
            Some(plan),
            ctx.seed,
        );
    }
    rep.put("peak_rss_mib", stats::peak_rss_mib(), "MiB");
    seg.report(&h, rep);
    check_after_writes(&h, inp, &seg.applied, &[&seg.seen], rep);
    h.shutdown();
    Ok(())
}

/// The final graph is the initial one plus every acknowledged insert.
/// Every distance answered while writers ran must be at least the
/// final-graph distance (the at-most-initial bound was checked inline),
/// and a post-run batch must equal BFS on the final graph exactly.
pub fn check_after_writes(
    h: &ServerHandle,
    inp: &Inputs,
    applied: &[(VertexId, VertexId)],
    seen: &[&Vec<u16>],
    rep: &mut Report,
) {
    let final_graph = with_edges(&inp.dyn_graph, applied);
    let lower = input::bfs_pair_distances(&final_graph, &inp.pairs);
    let below = seen
        .iter()
        .flat_map(|s| s.iter().zip(&lower))
        .filter(|(got, low)| got < low)
        .count();
    rep.check(
        below == 0,
        &format!("{below} in-flight distances below the final graph's"),
    );
    check_final_distances(h, &final_graph, rep);
    rep.notes
        .push(format!("inserts applied: {}", applied.len()));
}
