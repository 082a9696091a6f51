//! Argument parsing and subcommand dispatch for the `pspc` binary.
//!
//! ```text
//! pspc stats <edges.txt>
//! pspc build <edges.txt> -o <index.pspc> [--order degree|td|sig|hybrid[:δ]]
//!            [--landmarks k] [--threads t] [--push] [--static] [--no-cache]
//!            [--directed | --dynamic]
//! pspc query <index.pspc> [--pairs <file|->] [--workers n] [--chunk n]
//!            [--no-sort] [s t ...]
//! pspc bench <index.pspc> [--count n] [--seed s] [--workers n] [--chunk n]
//!            [--no-sort] [--compare]
//! ```
//!
//! `stats` prints the vertex/edge counts, degrees, component count and
//! an approximate diameter of an edge list. `build` goes through the
//! binary edge-list cache
//! ([`pspc_graph::io::load_or_build_cache`]): the first build of a dataset
//! parses the text and drops an `<edges>.pspcg` snapshot next to it;
//! subsequent builds load the snapshot. `--directed` treats each input
//! line as an arc `u → v` and builds the `Lin`/`Lout` index
//! (`PSPCDIR2` snapshot); `--dynamic` builds the insertion-only dynamic
//! distance labeling (`PSPCDYN2`). `query` reads pairs from a file, from
//! stdin (`--pairs -`), or inline from the argument list, answers them
//! on the worker pool over **whichever kind the snapshot holds** (the
//! kind is auto-detected from the magic), and prints
//! `s\tt\tdist\tcount` lines. `bench` reports sustained throughput and the
//! latency percentiles of `--chunk`-pair requests for a random workload,
//! optionally against the sequential baseline (`--compare`).

use crate::bench::{random_pairs, run_bench};
use crate::engine::{EngineConfig, QueryEngine};
use crate::kind::IndexKind;
use crate::pairs::{read_pairs, write_answers};
use pspc_core::builder::{build_pspc, Paradigm, PspcConfig, SchedulePlan};
use pspc_core::directed::pspc::{build_di_pspc, DiPspcConfig};
use pspc_core::serialize::{
    any_index_from_binary, index_from_binary, write_di_index_to, write_dyn_index_to,
    write_index_to, Bytes,
};
use pspc_core::{
    read_magic, sharded_to_owned, write_atomically, write_sharded_index, DynamicDistanceIndex,
    SnapshotKind, SpcIndex,
};
use pspc_graph::digraph::DiGraphBuilder;
use pspc_graph::io::{load_or_build_cache_verbose, read_edge_list_file, CacheOutcome};
use pspc_graph::GraphStats;
use pspc_obs::{info, warn};
use pspc_order::OrderingStrategy;

const USAGE: &str = "usage: pspc stats <edges> | \
pspc build <edges> -o <index> [--order o] [--landmarks k] \
[--threads t] [--push] [--static] [--no-cache] [--directed | --dynamic] \
[--shard-bytes n] | \
pspc query <index> [--pairs <file|->] [--workers n] [--chunk n] [--no-sort] \
[--format tsv|json] [s t ...] | pspc bench <index> [--count n] [--seed s] [--workers n] \
[--chunk n] [--no-sort] [--compare]";

/// Answer output encodings of `pspc query` (and the HTTP front-end).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OutputFormat {
    /// `s\tt\tdist\tcount` lines ([`write_answers`]).
    #[default]
    Tsv,
    /// A JSON array of answer objects ([`crate::pairs::write_answers_json`]).
    Json,
}

impl std::str::FromStr for OutputFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "tsv" => Ok(OutputFormat::Tsv),
            "json" => Ok(OutputFormat::Json),
            other => Err(format!("unknown format {other} (tsv|json)")),
        }
    }
}

/// Entry point shared by `main` and the tests.
pub fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("stats") => cmd_stats(&args[1..]),
        Some("build") => cmd_build(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other}\n{USAGE}")),
        None => Err(format!("missing command\n{USAGE}")),
    }
}

/// Parses `--order degree|td|sig|hybrid[:delta]`.
fn parse_order(s: &str) -> Result<OrderingStrategy, String> {
    match s {
        "degree" => Ok(OrderingStrategy::Degree),
        "td" => Ok(OrderingStrategy::TreeDecomposition),
        "sig" => Ok(OrderingStrategy::SignificantPath),
        "hybrid" => Ok(OrderingStrategy::DEFAULT),
        other => {
            if let Some(d) = other.strip_prefix("hybrid:") {
                let delta: u32 = d.parse().map_err(|e| format!("bad δ in {other}: {e}"))?;
                Ok(OrderingStrategy::Hybrid { delta })
            } else {
                Err(format!("unknown order {other} (degree|td|sig|hybrid[:δ])"))
            }
        }
    }
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("stats: expected exactly one edge-list path".into());
    };
    let g = read_edge_list_file(path).map_err(|e| format!("reading {path}: {e}"))?;
    let s = GraphStats::compute(&g);
    println!("vertices           {}", s.num_vertices);
    println!("edges              {}", s.num_edges);
    println!("avg degree         {:.2}", s.avg_degree);
    println!("max degree         {}", s.max_degree);
    println!("components         {}", s.num_components);
    println!("diameter (approx)  {}", s.diameter_estimate);
    Ok(())
}

/// Which index kind `pspc build` produces.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BuildKind {
    Undirected,
    Directed,
    Dynamic,
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let mut input: Option<&str> = None;
    let mut output: Option<&str> = None;
    let mut use_cache = true;
    let mut kind = BuildKind::Undirected;
    let mut shard_bytes: Option<u64> = None;
    let mut config = PspcConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("missing value for {flag}"))
        };
        match a.as_str() {
            "-o" | "--output" => output = Some(value("-o")?),
            "--order" => config.ordering = parse_order(value("--order")?)?,
            "--landmarks" => {
                config.num_landmarks = value("--landmarks")?
                    .parse()
                    .map_err(|e| format!("bad --landmarks: {e}"))?
            }
            "--threads" => {
                config.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?
            }
            "--push" => config.paradigm = Paradigm::Push,
            "--static" => config.schedule = SchedulePlan::Static,
            "--no-cache" => use_cache = false,
            "--shard-bytes" => {
                shard_bytes = Some(
                    value("--shard-bytes")?
                        .parse()
                        .map_err(|e| format!("bad --shard-bytes: {e}"))?,
                )
            }
            "--directed" => kind = BuildKind::Directed,
            "--dynamic" => kind = BuildKind::Dynamic,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            path => {
                if input.is_some() {
                    return Err(format!("unexpected positional argument {path}"));
                }
                input = Some(path);
            }
        }
    }
    if args.iter().any(|a| a == "--directed") && args.iter().any(|a| a == "--dynamic") {
        return Err("build: --directed and --dynamic are mutually exclusive".into());
    }
    // Reject flags the chosen builder has no knob for, instead of
    // silently building something other than what was asked: the
    // directed builder always uses its total-degree order and the pull
    // paradigm; the dynamic builder takes only an ordering and runs
    // sequentially.
    let unsupported: &[&str] = match kind {
        BuildKind::Undirected => &[],
        BuildKind::Directed => &["--order", "--push", "--static", "--shard-bytes"],
        BuildKind::Dynamic => &[
            "--landmarks",
            "--threads",
            "--push",
            "--static",
            "--shard-bytes",
        ],
    };
    if let Some(flag) = args.iter().find(|a| unsupported.contains(&a.as_str())) {
        let kind_flag = if kind == BuildKind::Directed {
            "--directed"
        } else {
            "--dynamic"
        };
        return Err(format!(
            "build: {flag} does not apply to a {kind_flag} build"
        ));
    }
    let input = input.ok_or("build: missing edge-list path")?;
    let output = output.ok_or("build: missing -o <output>")?;

    if kind == BuildKind::Directed {
        return build_directed(input, output, &config);
    }

    let g = if use_cache {
        let (g, outcome) =
            load_or_build_cache_verbose(input).map_err(|e| format!("reading {input}: {e}"))?;
        match outcome {
            CacheOutcome::Hit => info!("loaded binary graph cache", input = input),
            CacheOutcome::Built => info!("parsed graph; wrote binary cache", input = input),
            CacheOutcome::Refreshed => info!("graph cache was stale; re-parsed", input = input),
            CacheOutcome::BuiltUncached => {
                warn!(
                    "parsed graph but could not write its binary cache",
                    input = input
                )
            }
        }
        g
    } else {
        read_edge_list_file(input).map_err(|e| format!("reading {input}: {e}"))?
    };
    info!(
        "building index",
        vertices = g.num_vertices(),
        edges = g.num_edges(),
    );
    let snapshot = match kind {
        BuildKind::Undirected => {
            let (index, _) = build_pspc(&g, &config);
            let s = index.stats();
            info!(
                "index built",
                secs = format!("{:.2}", s.total_seconds()),
                entries = s.total_entries,
                mib = format!("{:.2}", s.size_mib()),
                avg_label = format!("{:.1}", s.avg_label_size),
            );
            if let Some(sb) = shard_bytes {
                let shards = write_sharded_index(&index, output, sb)
                    .map_err(|e| format!("writing {output}: {e}"))?;
                info!(
                    "sharded index snapshot written",
                    path = output,
                    shards = shards
                );
                return Ok(());
            }
            SnapshotKind::Undirected(index)
        }
        BuildKind::Dynamic => {
            let t0 = std::time::Instant::now();
            let index = DynamicDistanceIndex::build(&g, config.ordering);
            info!(
                "dynamic distance index built",
                secs = format!("{:.2}", t0.elapsed().as_secs_f64()),
                entries = index.num_entries(),
            );
            SnapshotKind::Dynamic(index)
        }
        BuildKind::Directed => unreachable!("handled above"),
    };
    let bytes = write_any_index(output, &snapshot)?;
    info!("index snapshot written", path = output, bytes = bytes);
    Ok(())
}

/// `pspc build --directed`: each input line is an arc `u → v`; builds
/// the `Lin`/`Lout` index and writes a `PSPCDIR2` snapshot. The binary
/// graph cache stores undirected CSR graphs, so the directed path always
/// parses the text.
fn build_directed(input: &str, output: &str, config: &PspcConfig) -> Result<(), String> {
    let f = std::fs::File::open(input).map_err(|e| format!("opening {input}: {e}"))?;
    let arcs =
        read_pairs(std::io::BufReader::new(f)).map_err(|e| format!("reading {input}: {e}"))?;
    let g = DiGraphBuilder::new().arcs(arcs).build();
    info!(
        "building directed index",
        vertices = g.num_vertices(),
        arcs = g.num_arcs(),
    );
    let di_config = DiPspcConfig {
        threads: config.threads,
        num_landmarks: config.num_landmarks,
    };
    let index = build_di_pspc(&g, &di_config);
    let s = index.stats();
    info!(
        "directed index built",
        secs = format!("{:.2}", s.total_seconds()),
        entries = s.total_entries,
        mib = format!("{:.2}", s.size_mib()),
    );
    let bytes = write_any_index(output, &SnapshotKind::Directed(index))?;
    info!("index snapshot written", path = output, bytes = bytes);
    Ok(())
}

/// Reads an **undirected** index snapshot from disk.
pub fn load_index(path: &str) -> Result<SpcIndex, String> {
    let data = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    index_from_binary(Bytes::from(data)).map_err(|e| format!("loading {path}: {e}"))
}

/// Reads an index snapshot of **any** kind from disk, dispatching on the
/// snapshot magic (shared with `pspc_server`'s `serve` and `migrate`
/// subcommands). Sharded manifests load through the owned reader, so
/// `query`/`bench`/`migrate` work on them transparently. Directories and
/// sub-8-byte files get the crisp `unrecognized snapshot` error instead
/// of a panic or a raw read failure.
pub fn load_any_index(path: &str) -> Result<SnapshotKind, String> {
    let magic = read_magic(path).map_err(|e| format!("loading {path}: {e}"))?;
    if pspc_core::snapshot_kind_name(&magic) == Some("sharded") {
        let idx = sharded_to_owned(path).map_err(|e| format!("loading {path}: {e}"))?;
        return Ok(SnapshotKind::Undirected(idx));
    }
    let data = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    any_index_from_binary(Bytes::from(data)).map_err(|e| format!("loading {path}: {e}"))
}

/// Writes `snapshot` to `path` in its kind's format, streamed through a
/// temp file and an atomic rename ([`write_atomically`]), so no second
/// copy of the index is buffered and a failed write never leaves a
/// truncated snapshot under `path` (shared with `pspc_server`'s `migrate`
/// subcommand). Returns the snapshot's size in bytes.
pub fn write_any_index(path: &str, snapshot: &SnapshotKind) -> Result<u64, String> {
    let written = write_atomically(std::path::Path::new(path), |f| {
        let mut w = std::io::BufWriter::new(f);
        match snapshot {
            SnapshotKind::Undirected(i) => write_index_to(&mut w, i),
            SnapshotKind::Directed(i) => write_di_index_to(&mut w, i),
            SnapshotKind::Dynamic(i) => write_dyn_index_to(&mut w, i),
        }?;
        std::io::Write::flush(&mut w)
    });
    written
        .and_then(|()| std::fs::metadata(path))
        .map(|m| m.len())
        .map_err(|e| format!("writing {path}: {e}"))
}

/// Flags shared by `query` and `bench`.
struct EngineFlags {
    cfg: EngineConfig,
    rest: Vec<String>,
}

/// Subcommand-specific flag hook: consumes a token (and possibly its
/// value from the iterator) and reports whether it handled it.
type ExtraFlagParser<'a> =
    dyn FnMut(&str, &mut std::slice::Iter<String>) -> Result<bool, String> + 'a;

fn parse_engine_flags(
    args: &[String],
    extra: &mut ExtraFlagParser<'_>,
) -> Result<EngineFlags, String> {
    let mut cfg = EngineConfig::default();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" => {
                cfg.workers = it
                    .next()
                    .ok_or("missing --workers value")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?
            }
            "--chunk" => {
                cfg.chunk_size = it
                    .next()
                    .ok_or("missing --chunk value")?
                    .parse::<usize>()
                    .map_err(|e| format!("bad --chunk: {e}"))?
                    .max(1)
            }
            "--no-sort" => cfg.sort_by_rank = false,
            other => {
                if !extra(other, &mut it)? {
                    rest.push(other.to_string());
                }
            }
        }
    }
    Ok(EngineFlags { cfg, rest })
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let mut pairs_src: Option<String> = None;
    let mut format = OutputFormat::Tsv;
    let flags = parse_engine_flags(args, &mut |flag, it| match flag {
        "--pairs" => {
            pairs_src = Some(it.next().ok_or("missing --pairs value")?.clone());
            Ok(true)
        }
        "--format" => {
            format = it.next().ok_or("missing --format value")?.parse()?;
            Ok(true)
        }
        f if f.starts_with("--") => Err(format!("unknown flag {f}")),
        _ => Ok(false),
    })?;
    let (index_path, inline) = flags
        .rest
        .split_first()
        .ok_or("query: missing index path")?;

    let pairs: Vec<(u64, u64)> = if let Some(src) = pairs_src {
        if !inline.is_empty() {
            return Err("query: give either --pairs or inline ids, not both".into());
        }
        let parsed = if src == "-" {
            read_pairs(std::io::stdin().lock())
        } else {
            let f = std::fs::File::open(&src).map_err(|e| format!("opening {src}: {e}"))?;
            read_pairs(std::io::BufReader::new(f))
        }
        .map_err(|e| format!("reading pairs: {e}"))?;
        parsed.iter().map(|&(s, t)| (s as u64, t as u64)).collect()
    } else {
        if inline.is_empty() || !inline.len().is_multiple_of(2) {
            return Err("query: need --pairs <file|-> or an even number of vertex ids".into());
        }
        inline
            .chunks_exact(2)
            .map(|p| -> Result<(u64, u64), String> {
                let s = p[0].parse().map_err(|e| format!("bad vertex: {e}"))?;
                let t = p[1].parse().map_err(|e| format!("bad vertex: {e}"))?;
                Ok((s, t))
            })
            .collect::<Result<_, _>>()?
    };

    let kind: IndexKind = load_any_index(index_path)?.into();
    let n = kind.num_vertices() as u64;
    if let Some(&(s, t)) = pairs.iter().find(|&&(s, t)| s >= n || t >= n) {
        return Err(format!("vertex out of range in ({s}, {t}): n = {n}"));
    }
    let pairs: Vec<(u32, u32)> = pairs.iter().map(|&(s, t)| (s as u32, t as u32)).collect();

    let engine = QueryEngine::with_kind(kind, flags.cfg);
    let (answers, report) = engine.run_with_report(&pairs);
    let out = std::io::stdout().lock();
    match format {
        OutputFormat::Tsv => write_answers(&pairs, &answers, out),
        OutputFormat::Json => crate::pairs::write_answers_json(&pairs, &answers, out),
    }
    .map_err(|e| format!("writing answers: {e}"))?;
    info!(
        "query batch complete",
        queries = report.queries,
        workers = report.workers,
        secs = format!("{:.3}", report.wall_secs),
        qps = format!("{:.0}", report.qps()),
    );
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let mut count = 100_000usize;
    let mut seed = 42u64;
    let mut compare = false;
    let flags = parse_engine_flags(args, &mut |flag, it| match flag {
        "--count" => {
            count = it
                .next()
                .ok_or("missing --count value")?
                .parse()
                .map_err(|e| format!("bad --count: {e}"))?;
            Ok(true)
        }
        "--seed" => {
            seed = it
                .next()
                .ok_or("missing --seed value")?
                .parse()
                .map_err(|e| format!("bad --seed: {e}"))?;
            Ok(true)
        }
        "--compare" => {
            compare = true;
            Ok(true)
        }
        f if f.starts_with("--") => Err(format!("unknown flag {f}")),
        _ => Ok(false),
    })?;
    let index_path = flags.rest.first().ok_or("bench: missing index path")?;
    if flags.rest.len() > 1 {
        return Err(format!("unexpected argument {}", flags.rest[1]));
    }
    let kind: IndexKind = load_any_index(index_path)?.into();
    let pairs = random_pairs(kind.num_vertices(), count, seed);
    let engine = QueryEngine::with_kind(kind, flags.cfg);
    let report = run_bench(&engine, &pairs, compare);
    print!("{report}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn order_parsing() {
        assert_eq!(parse_order("degree").unwrap(), OrderingStrategy::Degree);
        assert_eq!(
            parse_order("hybrid:9").unwrap(),
            OrderingStrategy::Hybrid { delta: 9 }
        );
        assert!(parse_order("nope").is_err());
        assert!(parse_order("hybrid:x").is_err());
    }

    #[test]
    fn rejects_unknown_commands_and_flags() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&s(&[])).is_err());
        assert!(run(&s(&["query", "idx", "--bogus"])).is_err());
        assert!(run(&s(&["bench", "idx", "--bogus"])).is_err());
        assert!(run(&s(&["help"])).is_ok());
    }

    #[test]
    fn full_pipeline_through_temp_files() {
        let dir = std::env::temp_dir().join("pspc_service_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("edges.txt");
        let index = dir.join("index.pspc");
        let queries = dir.join("queries.txt");
        let cache = pspc_graph::io::cache_path_for(&edges);
        std::fs::remove_file(&cache).ok();
        std::fs::write(&edges, "0 1\n0 2\n1 3\n2 3\n3 4\n").unwrap();
        std::fs::write(&queries, "# workload\n0 3\n4 0\n").unwrap();
        let e = edges.to_str().unwrap();
        let i = index.to_str().unwrap();
        let q = queries.to_str().unwrap();

        run(&s(&["stats", e])).unwrap();
        assert!(run(&s(&["stats"])).is_err());

        // Build twice: the second run must hit the binary cache.
        run(&s(&[
            "build",
            e,
            "-o",
            i,
            "--order",
            "degree",
            "--landmarks",
            "2",
        ]))
        .unwrap();
        assert!(cache.exists());
        run(&s(&["build", e, "-o", i, "--order", "degree"])).unwrap();

        // Query: inline pairs, file pairs, engine flags.
        run(&s(&["query", i, "0", "3"])).unwrap();
        run(&s(&[
            "query",
            i,
            "--pairs",
            q,
            "--workers",
            "2",
            "--chunk",
            "1",
        ]))
        .unwrap();
        run(&s(&["query", i, "--pairs", q, "--no-sort"])).unwrap();
        run(&s(&["query", i, "--format", "json", "0", "3"])).unwrap();
        assert!(run(&s(&["query", i, "--format", "yaml", "0", "3"])).is_err());

        // Bench with the sequential comparison.
        run(&s(&[
            "bench",
            i,
            "--count",
            "500",
            "--workers",
            "2",
            "--compare",
        ]))
        .unwrap();

        // Error paths: odd ids, out-of-range vertex, both pair sources.
        assert!(run(&s(&["query", i, "0"])).is_err());
        assert!(run(&s(&["query", i, "0", "99"])).is_err());
        assert!(run(&s(&["query", i, "--pairs", q, "0", "3"])).is_err());

        std::fs::remove_file(&edges).ok();
        std::fs::remove_file(&index).ok();
        std::fs::remove_file(&queries).ok();
        std::fs::remove_file(&cache).ok();
    }

    #[test]
    fn directed_and_dynamic_builds_produce_queryable_snapshots() {
        let dir = std::env::temp_dir().join("pspc_service_cli_kinds_test");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("edges.txt");
        // A directed 4-cycle plus a chord 0→2: SPC(0 → 3) = 1 via
        // 0→1→2→3? No — 0→2→3 has length 2, 0→1→2→3 length 3.
        std::fs::write(&edges, "0 1\n1 2\n2 3\n3 0\n0 2\n").unwrap();
        let e = edges.to_str().unwrap();

        let di = dir.join("index_dir.pspc");
        run(&s(&["build", e, "-o", di.to_str().unwrap(), "--directed"])).unwrap();
        assert_eq!(&std::fs::read(&di).unwrap()[..8], b"PSPCDIR2");
        // Query through the engine: directed pairs are ordered.
        run(&s(&["query", di.to_str().unwrap(), "0", "3", "3", "1"])).unwrap();
        let kind: IndexKind = load_any_index(di.to_str().unwrap()).unwrap().into();
        let answers = kind.query_batch_sequential(&[(0, 3), (3, 1)]);
        assert_eq!(answers[0].dist, 2); // 0→2→3
        assert_eq!(answers[1].dist, 2); // 3→0→1

        let dyn_path = dir.join("index_dyn.pspc");
        run(&s(&[
            "build",
            e,
            "-o",
            dyn_path.to_str().unwrap(),
            "--dynamic",
        ]))
        .unwrap();
        assert_eq!(&std::fs::read(&dyn_path).unwrap()[..8], b"PSPCDYN2");
        run(&s(&["query", dyn_path.to_str().unwrap(), "0", "3"])).unwrap();
        let kind: IndexKind = load_any_index(dyn_path.to_str().unwrap()).unwrap().into();
        // Undirected dynamic distances over the same edge list.
        assert_eq!(kind.query_batch_sequential(&[(0, 3)])[0].dist, 1);
        // The served kind accepts inserts; a fresh edge shortens nothing
        // here but must round-trip through the engine-facing API.
        assert_eq!(kind.insert_edges(&[(1, 3)]).unwrap(), 1);
        assert_eq!(kind.query_batch_sequential(&[(1, 3)])[0].dist, 1);

        // The flags are mutually exclusive, and flags the chosen builder
        // cannot honor are rejected rather than silently ignored.
        assert!(run(&s(&[
            "build",
            e,
            "-o",
            "/tmp/x.pspc",
            "--directed",
            "--dynamic"
        ]))
        .is_err());
        let err = run(&s(&[
            "build",
            e,
            "-o",
            "/tmp/x.pspc",
            "--directed",
            "--order",
            "td",
        ]))
        .unwrap_err();
        assert!(err.contains("--order"), "{err}");
        let err = run(&s(&[
            "build",
            e,
            "-o",
            "/tmp/x.pspc",
            "--dynamic",
            "--landmarks",
            "2",
        ]))
        .unwrap_err();
        assert!(err.contains("--landmarks"), "{err}");

        // Snapshots are renamed into place: no temp file is left behind.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(!names.iter().any(|n| n.ends_with(".tmp")), "{names:?}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_build_produces_a_queryable_manifest() {
        let dir = std::env::temp_dir().join("pspc_service_cli_shard_test");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("edges.txt");
        let text: String = (0..120u32)
            .map(|i| format!("{} {}\n{} {}\n", i, (i + 1) % 120, i, (i + 7) % 120))
            .collect();
        std::fs::write(&edges, text).unwrap();
        let e = edges.to_str().unwrap();
        let manifest = dir.join("index.pspc");
        let m = manifest.to_str().unwrap();

        // Tiny shard target → several shard files next to the manifest.
        run(&s(&[
            "build",
            e,
            "-o",
            m,
            "--no-cache",
            "--shard-bytes",
            "1024",
        ]))
        .unwrap();
        assert_eq!(&std::fs::read(&manifest).unwrap()[..8], b"PSPCSHM1");
        let shard0 = dir.join("index.pspc.0000");
        assert_eq!(&std::fs::read(&shard0).unwrap()[..8], b"PSPCSHD1");

        // query and bench work on the manifest through the owned reader,
        // and answers agree with a monolithic build of the same graph.
        run(&s(&["query", m, "0", "60"])).unwrap();
        run(&s(&["bench", m, "--count", "200"])).unwrap();
        let mono = dir.join("mono.pspc");
        run(&s(&[
            "build",
            e,
            "-o",
            mono.to_str().unwrap(),
            "--no-cache",
        ]))
        .unwrap();
        let from_manifest: IndexKind = load_any_index(m).unwrap().into();
        let from_mono: IndexKind = load_any_index(mono.to_str().unwrap()).unwrap().into();
        let ps: Vec<(u32, u32)> = (0..120).map(|i| (i, (i * 31 + 5) % 120)).collect();
        assert_eq!(
            from_manifest.query_batch_sequential(&ps),
            from_mono.query_batch_sequential(&ps)
        );

        // --shard-bytes applies only to the undirected builder.
        let err = run(&s(&[
            "build",
            e,
            "-o",
            "/tmp/x.pspc",
            "--dynamic",
            "--shard-bytes",
            "1024",
        ]))
        .unwrap_err();
        assert!(err.contains("--shard-bytes"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unrecognized_snapshots_error_crisply_never_panic() {
        let dir = std::env::temp_dir().join("pspc_service_cli_badsnap_test");
        std::fs::create_dir_all(&dir).unwrap();

        // Empty file, 7-byte file (one short of the magic), and a
        // directory path: every subcommand reports a crisp error.
        let empty = dir.join("empty.pspc");
        std::fs::write(&empty, b"").unwrap();
        let seven = dir.join("seven.pspc");
        std::fs::write(&seven, b"PSPCIDX").unwrap();
        let d = dir.to_str().unwrap();

        for path in [empty.to_str().unwrap(), seven.to_str().unwrap()] {
            let err = run(&s(&["query", path, "0", "1"])).unwrap_err();
            assert!(err.contains("unrecognized snapshot"), "query {path}: {err}");
            let err = run(&s(&["bench", path, "--count", "10"])).unwrap_err();
            assert!(err.contains("unrecognized snapshot"), "bench {path}: {err}");
        }
        let err = run(&s(&["query", d, "0", "1"])).unwrap_err();
        assert!(err.contains("directory"), "query on dir: {err}");
        let err = run(&s(&["bench", d, "--count", "10"])).unwrap_err();
        assert!(err.contains("directory"), "bench on dir: {err}");
        // Eight bytes of garbage is unrecognized too.
        let junk = dir.join("junk.pspc");
        std::fs::write(&junk, b"NOTPSPC!junkjunk").unwrap();
        let err = run(&s(&["query", junk.to_str().unwrap(), "0", "1"])).unwrap_err();
        assert!(err.contains("not a PSPC index snapshot"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }
}
