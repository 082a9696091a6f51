//! The traced run: every layer timed from outside, through spans the
//! benchmark records around its own calls into each crate's public API.
//! Per-layer metrics are read back from those spans (or, for counts,
//! from what the public API returns).

use crate::input::{Rng, BATCH};
use crate::load::{self, Expect};
use crate::stats::{median, Report};
use crate::trace::Tracer;
use crate::workloads::{
    addr, build_config, check_after_writes, oracle_mismatches, oracle_sample, serve_config,
    start_daemon, write_snapshot, Ctx, Inputs, Workload, CACHE_CAPACITY, INSERT_RATE, OPEN_RATE,
    THREADS,
};
use pspc_core::landmark::Landmarks;
use pspc_core::{DynamicDistanceIndex, Paradigm, SpcIndex};
use pspc_graph::{GraphBuilder, SpcAnswer, VertexId};
use pspc_obs::{Span, Stage};
use pspc_order::OrderingStrategy;
use pspc_server::proto::{self, Response};
use pspc_server::{ObsConfig, ServerHandle};
use pspc_service::{AnswerCache, EngineConfig, IndexKind, QueryEngine};
use std::io;
use std::time::{Duration, Instant};

const LOAD: &str = "pspc_graph::io::from_binary";
const ORDER: &str = "pspc_order::OrderingStrategy::compute";
const RANK_SPACE: &str = "pspc_core::common::to_rank_space";
const LANDMARKS: &str = "pspc_core::landmark::Landmarks::build";
const BUILD_2T: &str = "pspc_core::builder::build_pspc_with_order(pull,2t)";
const BUILD_1T: &str = "pspc_core::builder::build_pspc_with_order(pull,1t)";
const BUILD_PUSH: &str = "pspc_core::builder::build_pspc_with_order(push,2t)";
const MERGE: &str = "pspc_core::SpcIndex::query_rank_batch_into";
const COPY_LOAD: &str = "pspc_core::serialize::index_from_binary(read)";
const MMAP_LOAD: &str = "pspc_core::mapped::map_index_from_file";
const SHARDED: &str = "pspc_core::shard::open_sharded+first_answer";
const RANK_PAIRS: &str = "pspc_service::IndexKind::rank_pairs";
const RUN_64: &str = "pspc_service::QueryEngine::run_with_report(64)";
const RUN_SERVED: &str = "pspc_service::QueryEngine::run(64,served-config)";
const CACHE_GET: &str = "pspc_service::AnswerCache::get";
const DYN_BUILD: &str = "pspc_core::DynamicDistanceIndex::build";
const DYN_QUERY: &str = "pspc_service::IndexKind::query_rank_batch_into(dynamic)";
const APPLY: &str = "pspc_service::QueryEngine::apply_inserts";
const ENCODE: &str = "pspc_server::proto::write_request+write_response";
const DECODE: &str = "pspc_server::proto::read_frame+read_response";
const HTTP_PARSE: &str = "pspc_server::http::read_request+read_pairs";

/// Requests of the pair stream the in-process layers replay.
const STREAM_BATCHES: usize = 512;
/// Repetitions of the short in-process probes.
const REPEATS: usize = 400;
/// Target byte size of one shard of the sharded snapshot.
const SHARD_BYTES: u64 = 4 << 20;
/// Single-edge inserts applied in-process.
const APPLY_EDGES: usize = 256;

/// Runs every layer probe of workload `w` with spans on.
pub fn traced(
    w: Workload,
    ctx: &Ctx,
    inp: &Inputs,
    rep: &mut Report,
    tr: &mut Tracer,
) -> io::Result<()> {
    let g = &inp.graph;
    let bytes = pspc_graph::io::to_binary(g);
    for _ in 0..15 {
        let loaded = tr.span(LOAD, |_| pspc_graph::io::from_binary(bytes.clone()))?;
        rep.check(&loaded == g, "graph bytes round trip");
    }
    rep.put("graph.load_ms", tr.median_ms(LOAD), "ms");

    let idx = build_layers(ctx, inp, rep, tr);

    // The pair stream every in-process probe replays: the requests the
    // load generator would send.
    let src = inp.source();
    let mut rng = Rng::stream(ctx.seed, 4);
    let (mut bi, mut bp, mut stream) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..STREAM_BATCHES {
        src.next_batch(&mut rng, &mut bi, &mut bp);
        stream.extend_from_slice(&bp);
    }
    let expected = merge_layers(&idx, &stream, rep, tr);
    let snap = snapshot_layers(ctx, &idx, &stream, &expected, rep, tr)?;
    let static_expect = (w != Workload::ServeSkewedWrites)
        .then(|| Expect::Exact(idx.query_batch_sequential(&inp.pairs)));
    engine_layers(idx, &stream, &expected, rep, tr);
    let dyn_snapshot = dynamic_layers(ctx, inp, &stream, rep, tr)?;
    wire_layers(&stream, &expected, rep, tr);

    // Daemon legs: static workloads serve the mmap-loaded snapshot,
    // serve-skewed-writes the copy-loaded dynamic one with its cache.
    let (open, cache, expect): (Box<dyn Fn() -> io::Result<IndexKind>>, usize, Expect) =
        match static_expect {
            Some(expect) => {
                let open = move || -> io::Result<IndexKind> {
                    Ok(pspc_core::map_index_from_file(&snap)?.into())
                };
                (Box::new(open), 0, expect)
            }
            None => {
                let initial = crate::input::bfs_pair_distances(&inp.dyn_graph, &inp.pairs);
                let open = move || -> io::Result<IndexKind> {
                    let bytes = bytes::Bytes::from(std::fs::read(&dyn_snapshot)?);
                    Ok(pspc_core::any_index_from_binary(bytes)?.into())
                };
                (Box::new(open), CACHE_CAPACITY, Expect::AtMost(initial))
            }
        };
    daemon_layers(w, ctx, inp, &*open, cache, &expect, rep, tr)
}

/// Order, landmarks and the three builds (pull at 2 and 1 threads, push
/// at 2), which must produce equal indexes. Returns the 2-thread index.
fn build_layers(ctx: &Ctx, inp: &Inputs, rep: &mut Report, tr: &mut Tracer) -> SpcIndex {
    let g = &inp.graph;
    let order = tr.span(ORDER, |_| OrderingStrategy::DEFAULT.compute(g));
    let rg = tr.span(RANK_SPACE, |_| pspc_core::common::to_rank_space(g, &order));
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build()
        .expect("building a rayon pool");
    let cfg = build_config(THREADS, Paradigm::Pull);
    tr.span(LANDMARKS, |_| {
        pool.install(|| Landmarks::build(&rg, cfg.num_landmarks))
    });
    drop(rg);
    let (idx, stats) = tr.span(BUILD_2T, |_| {
        pspc_core::builder::build_pspc_with_order(g, order.clone(), None, &cfg)
    });
    let oracle = oracle_sample(g.num_vertices(), ctx.seed);
    let bad = oracle_mismatches(g, &oracle, true, |p| idx.query_batch_sequential(p));
    rep.check(bad == 0, &format!("{bad} built answers differ from BFS"));
    for (name, threads, paradigm) in [
        (BUILD_1T, 1, Paradigm::Pull),
        (BUILD_PUSH, THREADS, Paradigm::Push),
    ] {
        let cfg = build_config(threads, paradigm);
        let (mut other, _) = tr.span(name, |_| {
            pspc_core::builder::build_pspc_with_order(g, order.clone(), None, &cfg)
        });
        // Stats carry wall-clock timings; the labels, order and weights
        // must be identical.
        *other.stats_mut() = *idx.stats();
        rep.check(
            other == idx,
            &format!("{name} index differs from the 2-thread pull index"),
        );
    }

    let overhead = tr.median_ms(RANK_SPACE) + tr.median_ms(LANDMARKS);
    let lc_ms = tr.median_ms(BUILD_2T) - overhead;
    let entries: usize = stats.entries_per_iteration.iter().sum();
    let work: u64 = stats.work_per_iteration.iter().sum();
    rep.put("order.ms", tr.median_ms(ORDER), "ms");
    rep.put("landmark.ms", tr.median_ms(LANDMARKS), "ms");
    rep.put("builder.lc_ms", lc_ms, "ms");
    rep.put("builder.iterations", stats.iterations as f64, "count");
    rep.put(
        "builder.ms_per_iteration",
        lc_ms / stats.iterations as f64,
        "ms",
    );
    rep.put("builder.entries", entries as f64, "count");
    rep.put("builder.work", work as f64, "count");
    rep.put(
        "builder.work_per_entry",
        work as f64 / entries as f64,
        "ratio",
    );
    rep.put(
        "builder.push_lc_ms",
        tr.median_ms(BUILD_PUSH) - overhead,
        "ms",
    );
    rep.put(
        "builder.speedup_2t",
        tr.median_ms(BUILD_1T) / tr.median_ms(BUILD_2T),
        "x",
    );
    let s = idx.stats();
    rep.put("index.entries", s.total_entries as f64, "count");
    rep.put(
        "index.bytes_per_entry",
        s.label_bytes as f64 / s.total_entries as f64,
        "B",
    );
    rep.put("index.avg_label", s.avg_label_size, "count");
    idx
}

/// Sequential merge cost on the stream, plus the merge-path counts taken
/// from label lengths with the engine's rule (gallop when the larger
/// label is at least 8× the smaller). Returns the stream's answers.
fn merge_layers(
    idx: &SpcIndex,
    stream: &[(VertexId, VertexId)],
    rep: &mut Report,
    tr: &mut Tracer,
) -> Vec<SpcAnswer> {
    let ranks: Vec<(u32, u32)> = stream
        .iter()
        .map(|&(s, t)| (idx.order().rank_of(s), idx.order().rank_of(t)))
        .collect();
    let mut all = Vec::with_capacity(ranks.len());
    let mut out = Vec::with_capacity(BATCH);
    let t0 = Instant::now();
    while tr.durations(MERGE).len() < 3 || t0.elapsed() < Duration::from_millis(300) {
        all.clear();
        tr.span(MERGE, |_| {
            for chunk in ranks.chunks(BATCH) {
                idx.query_rank_batch_into(chunk, &mut out);
                all.extend_from_slice(&out);
            }
        });
    }
    rep.put(
        "merge.ns_per_query",
        median(&tr.durations(MERGE)) / ranks.len() as f64,
        "ns",
    );
    let (mut entries, mut gallop, mut merged) = (0usize, 0usize, 0usize);
    for &(rs, rt) in ranks.iter().filter(|(rs, rt)| rs != rt) {
        let (a, b) = (idx.labels_of_rank(rs).len(), idx.labels_of_rank(rt).len());
        entries += a + b;
        gallop += usize::from(a.max(b) >= 8 * a.min(b).max(1));
        merged += 1;
    }
    rep.put(
        "merge.entries_per_query",
        entries as f64 / merged as f64,
        "count",
    );
    rep.put("merge.gallop_share", gallop as f64 / merged as f64, "ratio");
    all
}

/// Copy, mmap and sharded loads of the v2 snapshot, each checked by
/// answering the first request of the stream. Returns the snapshot path.
fn snapshot_layers(
    ctx: &Ctx,
    idx: &SpcIndex,
    stream: &[(VertexId, VertexId)],
    expected: &[SpcAnswer],
    rep: &mut Report,
    tr: &mut Tracer,
) -> io::Result<std::path::PathBuf> {
    let snap = ctx.work.join("layers.pspc");
    write_snapshot(&snap, |w| pspc_core::serialize::write_index_to(w, idx))?;
    let manifest = ctx.work.join("layers.pspcm");
    pspc_core::write_sharded_index(idx, &manifest, SHARD_BYTES)?;
    let (first, want) = (&stream[..BATCH], &expected[..BATCH]);
    for _ in 0..5 {
        let copy = tr.span(COPY_LOAD, |_| {
            pspc_core::index_from_binary(bytes::Bytes::from(std::fs::read(&snap)?))
        })?;
        rep.check(
            copy.query_batch_sequential(first) == want,
            "copy-loaded answers",
        );
        drop(copy);
        let mapped = tr.span(MMAP_LOAD, |_| pspc_core::map_index_from_file(&snap))?;
        let ok = matches!(&mapped, pspc_core::SnapshotKind::Undirected(m)
            if m.query_batch_sequential(first) == want);
        rep.check(ok, "mmap-loaded answers");
        let answer = tr.span(SHARDED, |_| -> io::Result<SpcAnswer> {
            let sharded = pspc_core::open_sharded(&manifest, 0)?;
            Ok(sharded.query(first[0].0, first[0].1))
        })?;
        rep.check(answer == want[0], "sharded first answer");
    }
    rep.put("snapshot.copy_load_ms", tr.median_ms(COPY_LOAD), "ms");
    rep.put("snapshot.mmap_load_ms", tr.median_ms(MMAP_LOAD), "ms");
    rep.put(
        "snapshot.sharded_first_answer_ms",
        tr.median_ms(SHARDED),
        "ms",
    );
    Ok(snap)
}

/// Median of each engine stage (µs) over traced batches.
fn stage_medians(spans: &[Span]) -> [f64; Stage::COUNT] {
    let mut out = [0.0; Stage::COUNT];
    for (i, o) in out.iter_mut().enumerate() {
        let v: Vec<f64> = spans.iter().map(|s| s.stage_ns()[i] as f64 / 1e3).collect();
        *o = median(&v);
    }
    out
}

/// The query engine in-process: rank translation, 64-pair batches, the
/// stage split of `try_run_traced` at 64 and 120k pairs, the cost of the
/// workload sketch, and the answer cache's probe.
fn engine_layers(
    idx: SpcIndex,
    stream: &[(VertexId, VertexId)],
    expected: &[SpcAnswer],
    rep: &mut Report,
    tr: &mut Tracer,
) {
    let engine = QueryEngine::with_config(idx, serve_config(0));
    for _ in 0..5 {
        tr.span(RANK_PAIRS, |_| engine.kind().rank_pairs(stream));
    }
    rep.put(
        "engine.rank_ns_per_pair",
        median(&tr.durations(RANK_PAIRS)) / stream.len() as f64,
        "ns",
    );
    let batches: Vec<_> = stream.chunks(BATCH).zip(expected.chunks(BATCH)).collect();
    for &(b, want) in batches.iter().cycle().take(REPEATS) {
        let (answers, _) = tr.span(RUN_64, |_| engine.run_with_report(b));
        rep.check(answers == want, "engine answers (64 pairs)");
    }
    let batch_us = tr.median_ms(RUN_64) * 1e3;
    rep.put("engine.batch_us", batch_us, "us");

    let mut small = Vec::new();
    for &(b, want) in batches.iter().cycle().take(REPEATS) {
        let mut span = Span::new();
        let ok = matches!(engine.try_run_traced(b, &mut span), Ok((a, _)) if a == want);
        rep.check(ok, "traced engine answers (64 pairs)");
        small.push(span);
    }
    let big: Vec<_> = stream.iter().copied().cycle().take(120_000).collect();
    let want_big: Vec<_> = expected.iter().copied().cycle().take(120_000).collect();
    let (mut large, mut walls) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let mut span = Span::new();
        let t = Instant::now();
        let ok = matches!(engine.try_run_traced(&big, &mut span), Ok((a, _)) if a == want_big);
        walls.push(t.elapsed().as_secs_f64() * 1e6);
        rep.check(ok, "traced engine answers (120k pairs)");
        large.push(span);
    }
    for (suffix, spans) in [("64", &small), ("120k", &large)] {
        let m = stage_medians(spans);
        for (stage, name) in [
            (Stage::Prepare, "prepare_us"),
            (Stage::QueueWait, "queue_wait_us"),
            (Stage::Execute, "execute_us"),
            (Stage::Merge, "merge_us"),
        ] {
            rep.put(&format!("engine.{name}.{suffix}"), m[stage as usize], "us");
        }
        if suffix == "120k" {
            let serial = m[Stage::Prepare as usize] + m[Stage::Merge as usize];
            rep.put("engine.serial_share.120k", serial / median(&walls), "ratio");
        }
    }

    // Workload sketch off vs on, alternating legs of 64-pair batches.
    let mut idx = engine.into_index();
    let (mut on, mut off) = (0.0, 0.0);
    for _ in 0..3 {
        for sketch in [false, true] {
            let cfg = EngineConfig {
                workload_sketch: sketch,
                ..serve_config(0)
            };
            let e = QueryEngine::with_config(idx, cfg);
            let t = Instant::now();
            for &(b, _) in batches.iter().cycle().take(4 * REPEATS) {
                std::hint::black_box(e.run(b));
            }
            *if sketch { &mut on } else { &mut off } += t.elapsed().as_secs_f64();
            idx = e.into_index();
        }
    }
    rep.put("obs.sketch_overhead_64", on / off - 1.0, "ratio");

    let cache = AnswerCache::new(CACHE_CAPACITY, 0);
    for (&p, &a) in stream.iter().zip(expected) {
        cache.insert(p, a, 0);
    }
    for _ in 0..3 {
        let hits = tr.span(CACHE_GET, |_| {
            stream
                .iter()
                .filter(|&&p| cache.get(p, 0).is_some())
                .count()
        });
        std::hint::black_box(hits);
    }
    rep.put(
        "cache.probe_ns",
        median(&tr.durations(CACHE_GET)) / stream.len() as f64,
        "ns",
    );
}

/// The dynamic distance index in-process: build, query cost and
/// single-edge inserts through the engine. Writes the initial dynamic
/// snapshot (served by the daemon legs of `serve-skewed-writes`) and
/// returns its path.
fn dynamic_layers(
    ctx: &Ctx,
    inp: &Inputs,
    stream: &[(VertexId, VertexId)],
    rep: &mut Report,
    tr: &mut Tracer,
) -> io::Result<std::path::PathBuf> {
    let d = tr.span(DYN_BUILD, |_| {
        DynamicDistanceIndex::build(&inp.dyn_graph, OrderingStrategy::DEFAULT)
    });
    let snap = ctx.work.join("layers.pspcdyn");
    write_snapshot(&snap, |w| pspc_core::serialize::write_dyn_index_to(w, &d))?;
    let engine = QueryEngine::with_kind(d, serve_config(0));
    let ranks = engine.kind().rank_pairs(stream);
    let mut out = Vec::with_capacity(BATCH);
    for _ in 0..5 {
        tr.span(DYN_QUERY, |_| {
            for chunk in ranks.chunks(BATCH) {
                engine.kind().query_rank_batch_into(chunk, &mut out);
            }
        });
    }
    rep.put(
        "dyn.ns_per_query",
        median(&tr.durations(DYN_QUERY)) / ranks.len() as f64,
        "ns",
    );
    let edges = &inp.held[..APPLY_EDGES.min(inp.held.len())];
    for e in edges {
        let applied = tr.span(APPLY, |_| engine.apply_inserts(std::slice::from_ref(e)));
        rep.check(applied.is_ok(), "in-process insert");
    }
    rep.put("insert.apply_us", tr.median_ms(APPLY) * 1e3, "us");
    rep.put(
        "insert.generation_bumps",
        engine.kind().generation() as f64,
        "count",
    );
    let after = GraphBuilder::new()
        .num_vertices(inp.dyn_graph.num_vertices())
        .edges(inp.dyn_graph.edges().chain(edges.iter().copied()))
        .build();
    let oracle = oracle_sample(after.num_vertices(), ctx.seed);
    let bad = oracle_mismatches(&after, &oracle, false, |p| engine.run(p));
    rep.check(
        bad == 0,
        &format!("{bad} dynamic answers differ from BFS after inserts"),
    );
    Ok(snap)
}

/// Binary protocol encode/decode over in-memory buffers, and parsing of
/// one `POST /insert` request.
fn wire_layers(
    stream: &[(VertexId, VertexId)],
    expected: &[SpcAnswer],
    rep: &mut Report,
    tr: &mut Tracer,
) {
    let (pairs, answers) = (&stream[..BATCH], expected[..BATCH].to_vec());
    let response = Response::Answers(answers);
    let (mut req, mut resp) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        tr.span(ENCODE, |_| {
            for _ in 0..REPEATS {
                req.clear();
                resp.clear();
                proto::write_request(&mut req, pairs).expect("in-memory write");
                proto::write_response(&mut resp, &response).expect("in-memory write");
            }
        });
        let decoded = tr.span(DECODE, |_| {
            let mut last = None;
            for _ in 0..REPEATS {
                let frame = proto::read_frame(&mut req.as_slice());
                let answer = proto::read_response(&mut resp.as_slice());
                last = Some((frame, answer));
            }
            last
        });
        let ok = matches!(decoded, Some((Ok(Some(proto::Frame::Query(p))), Ok(r)))
            if p == pairs && r == response);
        rep.check(ok, "wire round trip");
    }
    let per_pair = (REPEATS * BATCH) as f64;
    rep.put(
        "wire.encode_ns_per_pair",
        median(&tr.durations(ENCODE)) / per_pair,
        "ns",
    );
    rep.put(
        "wire.decode_ns_per_pair",
        median(&tr.durations(DECODE)) / per_pair,
        "ns",
    );

    let raw = b"POST /insert HTTP/1.1\r\nhost: perfbench\r\ncontent-length: 9\r\n\r\n1234 567\n";
    for _ in 0..5 {
        let parsed = tr.span(HTTP_PARSE, |_| {
            let mut last = None;
            for _ in 0..REPEATS {
                let req = pspc_server::http::read_request(&mut raw.as_slice());
                last = Some(
                    req.map(|r| r.map(|r| pspc_service::pairs::read_pairs(r.body.as_slice()))),
                );
            }
            last
        });
        let ok = matches!(parsed, Some(Ok(Some(Ok(e)))) if e == [(1234, 567)]);
        rep.check(ok, "insert request parse");
    }
    rep.put(
        "http.insert_parse_us",
        median(&tr.durations(HTTP_PARSE)) / REPEATS as f64 / 1e3,
        "us",
    );
}

/// The daemon over real sockets: round-trip overhead, the cost of the
/// benchmark's own spans and of the daemon's request tracing, then the
/// open loop (with the writers on `serve-skewed-writes`) for the cache,
/// shedding and generator figures.
#[allow(clippy::too_many_arguments)]
fn daemon_layers(
    w: Workload,
    ctx: &Ctx,
    inp: &Inputs,
    open: &dyn Fn() -> io::Result<IndexKind>,
    cache: usize,
    expect: &Expect,
    rep: &mut Report,
    tr: &mut Tracer,
) -> io::Result<()> {
    let src = inp.source();
    let start = |tracing: bool| -> io::Result<ServerHandle> {
        let obs = ObsConfig {
            tracing,
            ..ObsConfig::default()
        };
        start_daemon(open()?, serve_config(cache), obs)
    };
    let mut untraced = Tracer::new(false);
    let mut legs = Vec::new();
    // Every daemon first gets a short closed loop, so its cache (if any)
    // and page cache are as warm as in the untraced run.
    let warm =
        |a: &str, t: &mut Tracer| load::closed_loop(a, &src, expect, THREADS, 0.3, ctx.seed, t);

    // The same engine configuration in-process over the same snapshot:
    // the batch time a socket round trip adds to.
    let inproc = QueryEngine::with_kind(open()?, serve_config(cache));
    let mut rng = Rng::stream(ctx.seed, 5);
    let (mut bi, mut bp, mut seen) = (Vec::new(), Vec::new(), expect.seen_buffer());
    for i in 0..2 * REPEATS {
        src.next_batch(&mut rng, &mut bi, &mut bp);
        let answers = if i < REPEATS {
            inproc.run(&bp)
        } else {
            tr.span(RUN_SERVED, |_| inproc.run(&bp))
        };
        rep.check(expect.check(&bi, &answers, &mut seen), "in-process answers");
    }
    drop(inproc);

    // Round trip on one connection, then 2-connection throughput with the
    // benchmark's spans off and on.
    let h = start(true)?;
    let a = addr(&h);
    legs.push(warm(&a, &mut untraced));
    let single = load::closed_loop(&a, &src, expect, 1, 0.5, ctx.seed, tr);
    let plain = load::closed_loop(&a, &src, expect, THREADS, 1.0, ctx.seed, &mut untraced);
    let spanned = load::closed_loop(&a, &src, expect, THREADS, 1.0, ctx.seed, tr);
    h.shutdown();
    let overhead = median(&single.rt_us) - tr.median_ms(RUN_SERVED) * 1e3;
    rep.put("server.overhead_us", overhead, "us");
    rep.put(
        "trace.overhead",
        plain.mean_qps() / spanned.mean_qps() - 1.0,
        "ratio",
    );

    // The daemon's own request tracing off.
    let h = start(false)?;
    let a = addr(&h);
    legs.push(warm(&a, &mut untraced));
    let no_obs = load::closed_loop(&a, &src, expect, THREADS, 1.0, ctx.seed, &mut untraced);
    h.shutdown();
    rep.put(
        "obs.trace_overhead",
        no_obs.mean_qps() / plain.mean_qps() - 1.0,
        "ratio",
    );

    // The open loop, as in the untraced run.
    let h = start(true)?;
    let a = addr(&h);
    legs.push(warm(&a, &mut untraced));
    let before = h.metrics();
    let skewed = w == Workload::ServeSkewedWrites;
    let plan = skewed.then(|| load::InsertPlan {
        edges: &inp.held,
        rate: INSERT_RATE,
    });
    let (conns, secs) = if skewed { (1, 3.0) } else { (THREADS, 2.0) };
    let (open_run, ins) =
        load::open_loop(&a, &src, expect, conns, OPEN_RATE, secs, ctx.seed, plan, tr);
    let after = h.metrics();
    for t in [
        single.tally,
        plain.tally,
        spanned.tally,
        no_obs.tally,
        open_run.tally,
        ins.tally,
    ] {
        rep.tally.add(t);
    }
    legs.iter().for_each(|l| rep.tally.add(l.tally));
    let (hits, misses, evictions) = match (before.cache, after.cache) {
        (Some(b), Some(a)) => (
            a.hits - b.hits,
            a.misses - b.misses,
            a.evictions - b.evictions,
        ),
        _ => (0, 0, 0),
    };
    let probes = (hits + misses).max(1);
    rep.put("cache.hit_rate", hits as f64 / probes as f64, "ratio");
    rep.put("cache.evictions", evictions as f64, "count");
    rep.put(
        "cache.invalidations",
        (after.index_generation - before.index_generation) as f64,
        "count",
    );
    rep.put("server.rejected", after.rejected as f64, "count");
    rep.put(
        "loadgen.late_max_ms",
        open_run.late_max_ms.max(ins.late_max_ms),
        "ms",
    );
    if skewed {
        check_after_writes(&h, inp, &ins.applied, &[&open_run.seen, &single.seen], rep);
    }
    h.shutdown();
    Ok(())
}
