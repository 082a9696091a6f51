//! The full `pspc` command-line surface: `serve`, `migrate`, remote
//! `query` and remote `insert` are handled here, everything else
//! delegates to [`pspc_service::cli`] (`stats`, `build`, local `query`,
//! `bench`).
//!
//! Results (answers, applied-edge counts) go to stdout; progress and
//! lifecycle diagnostics are structured `PSPC_LOG` records on stderr.

use crate::client::RemoteClient;
use crate::server::{serve_with_obs, ObsConfig};
use pspc_core::SnapshotKind;
use pspc_obs::{info, warn};
use pspc_service::cli::{load_any_index, write_any_index, OutputFormat};
use pspc_service::pairs::{read_pairs, write_answers, write_answers_json};
use pspc_service::EngineConfig;

const USAGE: &str = "usage: pspc serve <index> [--addr host:port] [--workers n] \
[--queue-depth n] [--chunk n] [--no-sort] [--cache-capacity n] [--cache-shards n] \
[--cache-adaptive] [--no-trace] [--no-sketch] [--mmap [--max-resident-shards k]] \
| pspc query --remote host:port \
[--pairs <file|->] [--format tsv|json] [--trace-id n] [s t ...] | \
pspc insert --remote host:port \
[--pairs <file|->] [u v ...] | pspc migrate <old> <new> [--shard [--shard-bytes n]] | \
pspc stats|build|query|bench ... (see `pspc help` for the local subcommands)";

/// Entry point of the `pspc` binary: dispatches `serve`, `migrate`,
/// `query --remote` and `insert`, falls through to the `pspc_service`
/// subcommands.
pub fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("migrate") => cmd_migrate(&args[1..]),
        Some("query") if args.iter().any(|a| a == "--remote") => cmd_remote_query(&args[1..]),
        Some("insert") => cmd_remote_insert(&args[1..]),
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            pspc_service::cli::run(args)
        }
        _ => pspc_service::cli::run(args),
    }
}

/// Default target label-payload bytes per shard for
/// `pspc migrate --shard` when `--shard-bytes` is not given: 256 MiB.
const DEFAULT_SHARD_BYTES: u64 = 256 << 20;

/// `pspc migrate <old> <new> [--shard [--shard-bytes n]]`: re-encodes
/// any readable snapshot — legacy undirected v1, any current kind, or a
/// shard manifest — in its kind's v2 section layout; `--shard` emits a
/// sharded snapshot (manifest + shard files) instead, for undirected
/// indexes only. The destination is streamed through a temp file and an
/// atomic rename, so a failed migrate never leaves a truncated snapshot
/// under the destination name.
fn cmd_migrate(args: &[String]) -> Result<(), String> {
    let mut paths: Vec<&str> = Vec::new();
    let mut shard = false;
    let mut shard_bytes = DEFAULT_SHARD_BYTES;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--shard" => shard = true,
            "--shard-bytes" => {
                shard = true;
                shard_bytes = it
                    .next()
                    .ok_or("missing value for --shard-bytes")?
                    .parse()
                    .map_err(|e| format!("bad --shard-bytes: {e}"))?;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}\n{USAGE}")),
            path => paths.push(path),
        }
    }
    let [old, new] = paths[..] else {
        return Err(format!("migrate: expected <old> <new>\n{USAGE}"));
    };
    if old == new {
        return Err("migrate: refusing to overwrite the input in place".into());
    }
    let t0 = std::time::Instant::now();
    let snapshot = load_any_index(old)?;
    let load_secs = t0.elapsed().as_secs_f64();
    if shard {
        let SnapshotKind::Undirected(i) = &snapshot else {
            return Err(format!(
                "migrate: --shard applies to undirected snapshots only, not {}",
                snapshot.name()
            ));
        };
        let shards = pspc_core::write_sharded_index(i, new, shard_bytes)
            .map_err(|e| format!("writing {new}: {e}"))?;
        info!(
            "migrated snapshot to sharded layout",
            old = old,
            new = new,
            shards = shards,
            vertices = snapshot.num_vertices(),
            load_ms = format!("{:.1}", load_secs * 1e3),
        );
        return Ok(());
    }
    let bytes = write_any_index(new, &snapshot)?;
    info!(
        "migrated snapshot",
        old = old,
        new = new,
        kind = snapshot.name(),
        vertices = snapshot.num_vertices(),
        load_ms = format!("{:.1}", load_secs * 1e3),
        bytes = bytes,
    );
    Ok(())
}

/// Loads a snapshot zero-copy for `pspc serve --mmap`: a shard manifest
/// opens as a lazily-mapped [`pspc_service::IndexKind::Sharded`] index
/// with `max_resident` residency; anything else goes through
/// [`pspc_core::map_index_from_file`]. `ErrorKind::Unsupported` means
/// the snapshot kind cannot be mapped (dynamic, legacy v1) — the caller
/// falls back to the copying loader with a warning.
fn load_mmap_index(path: &str, max_resident: usize) -> std::io::Result<pspc_service::IndexKind> {
    let magic = pspc_core::read_magic(path)?;
    if pspc_core::snapshot_kind_name(&magic) == Some("sharded") {
        return Ok(pspc_service::IndexKind::Sharded(pspc_core::open_sharded(
            path,
            max_resident,
        )?));
    }
    Ok(pspc_core::map_index_from_file(path)?.into())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut index_path: Option<&str> = None;
    let mut addr = "127.0.0.1:7411".to_string();
    let mut cfg = EngineConfig::default();
    let mut obs = ObsConfig::default();
    let mut mmap = false;
    let mut max_resident_shards = 0usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("missing value for {flag}"))
        };
        match a.as_str() {
            "--addr" => addr = value("--addr")?.clone(),
            "--workers" => {
                cfg.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?
            }
            "--queue-depth" => {
                cfg.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("bad --queue-depth: {e}"))?
            }
            "--chunk" => {
                cfg.chunk_size = value("--chunk")?
                    .parse::<usize>()
                    .map_err(|e| format!("bad --chunk: {e}"))?
                    .max(1)
            }
            "--no-sort" => cfg.sort_by_rank = false,
            // 0 (the default) disables the result cache entirely.
            "--cache-capacity" => {
                cfg.cache_capacity = value("--cache-capacity")?
                    .parse()
                    .map_err(|e| format!("bad --cache-capacity: {e}"))?
            }
            "--cache-shards" => {
                cfg.cache_shards = value("--cache-shards")?
                    .parse()
                    .map_err(|e| format!("bad --cache-shards: {e}"))?
            }
            // Let the advisor resize the result cache between windows.
            "--cache-adaptive" => cfg.cache_adaptive = true,
            "--mmap" => mmap = true,
            // Residency cap for a sharded index under --mmap; 0 (the
            // default) keeps every shard mapped.
            "--max-resident-shards" => {
                max_resident_shards = value("--max-resident-shards")?
                    .parse()
                    .map_err(|e| format!("bad --max-resident-shards: {e}"))?
            }
            "--no-trace" => obs.tracing = false,
            // Disable the workload sketches (HLL + heavy hitters +
            // time-series); /debug/hotspots then reports enabled:false.
            "--no-sketch" => cfg.workload_sketch = false,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}\n{USAGE}")),
            path => {
                if index_path.is_some() {
                    return Err(format!("unexpected positional argument {path}"));
                }
                index_path = Some(path);
            }
        }
    }
    let index_path = index_path.ok_or("serve: missing index path")?;
    if max_resident_shards > 0 && !mmap {
        return Err("serve: --max-resident-shards needs --mmap".into());
    }
    let t0 = std::time::Instant::now();
    let mut mapped = false;
    let index: pspc_service::IndexKind = if mmap {
        match load_mmap_index(index_path, max_resident_shards) {
            Ok(k) => {
                mapped = true;
                k
            }
            // Unsupported means the kind cannot be mapped (dynamic,
            // legacy v1): serve it anyway through the copying loader.
            // Anything else (corrupt, missing, truncated) is fatal —
            // silently degrading would mask real damage.
            Err(e) if e.kind() == std::io::ErrorKind::Unsupported => {
                warn!(
                    "mmap load unsupported; falling back to the copying loader",
                    path = index_path,
                    reason = e.to_string(),
                );
                load_any_index(index_path)?.into()
            }
            Err(e) => return Err(format!("loading {index_path}: {e}")),
        }
    } else {
        load_any_index(index_path)?.into()
    };
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    info!(
        "index loaded",
        path = index_path,
        kind = index.name(),
        vertices = index.num_vertices(),
        mmap = mapped,
        load_ms = format!("{load_ms:.1}"),
    );
    let insertable = index.is_dynamic();
    if cfg.cache_capacity > 0 {
        info!(
            "result cache enabled",
            capacity = cfg.cache_capacity,
            shards = if cfg.cache_shards == 0 {
                pspc_service::cache::DEFAULT_SHARDS
            } else {
                cfg.cache_shards
            },
        );
    }
    if cfg.cache_adaptive {
        if cfg.cache_capacity == 0 {
            return Err("serve: --cache-adaptive needs a cache; give --cache-capacity > 0".into());
        }
        info!(
            "adaptive cache advisor enabled",
            capacity = cfg.cache_capacity
        );
    }
    // serve_with_obs logs "daemon listening" with the resolved address.
    let handle =
        serve_with_obs(index, &addr, cfg, obs).map_err(|e| format!("binding {addr}: {e}"))?;
    handle.record_index_load_ms(load_ms);
    handle.record_index_mmap(mapped);
    info!(
        "endpoints ready",
        addr = handle.local_addr(),
        insert = insertable,
        endpoints = "/query,/insert,/healthz,/metrics,/debug/trace,/debug/slow,\
                     /debug/hotspots,/debug/timeseries,/shutdown",
    );
    let final_metrics = handle.wait();
    info!(
        "daemon exit",
        uptime_secs = format!("{:.1}", final_metrics.uptime_secs),
        served = final_metrics.served,
        rejected = final_metrics.rejected,
        bad = final_metrics.client_errors,
    );
    Ok(())
}

fn cmd_remote_query(args: &[String]) -> Result<(), String> {
    let mut remote: Option<String> = None;
    let mut pairs_src: Option<String> = None;
    let mut format = OutputFormat::Tsv;
    let mut trace_id: Option<u64> = None;
    let mut inline: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("missing value for {flag}"))
        };
        match a.as_str() {
            "--remote" => remote = Some(value("--remote")?.clone()),
            "--pairs" => pairs_src = Some(value("--pairs")?.clone()),
            "--format" => format = value("--format")?.parse()?,
            // Propagate a caller-chosen correlation ID to the daemon
            // (PSQ2 frame); it shows up in the daemon's /debug/trace.
            "--trace-id" => {
                trace_id = Some(
                    value("--trace-id")?
                        .parse()
                        .map_err(|e| format!("bad --trace-id: {e}"))?,
                )
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}\n{USAGE}")),
            other => inline.push(other.to_string()),
        }
    }
    let remote = remote.ok_or("query: missing --remote host:port")?;

    let pairs: Vec<(u32, u32)> = if let Some(src) = pairs_src {
        if !inline.is_empty() {
            return Err("query: give either --pairs or inline ids, not both".into());
        }
        if src == "-" {
            read_pairs(std::io::stdin().lock())
        } else {
            let f = std::fs::File::open(&src).map_err(|e| format!("opening {src}: {e}"))?;
            read_pairs(std::io::BufReader::new(f))
        }
        .map_err(|e| format!("reading pairs: {e}"))?
    } else {
        if inline.is_empty() || !inline.len().is_multiple_of(2) {
            return Err("query: need --pairs <file|-> or an even number of vertex ids".into());
        }
        inline
            .chunks_exact(2)
            .map(|p| -> Result<(u32, u32), String> {
                let s = p[0].parse().map_err(|e| format!("bad vertex: {e}"))?;
                let t = p[1].parse().map_err(|e| format!("bad vertex: {e}"))?;
                Ok((s, t))
            })
            .collect::<Result<_, _>>()?
    };

    let mut client =
        RemoteClient::connect(&remote).map_err(|e| format!("connecting to {remote}: {e}"))?;
    let t0 = std::time::Instant::now();
    let answers = match trace_id {
        Some(id) => client.query_batch_traced(id, &pairs),
        None => client.query_batch(&pairs),
    }
    .map_err(|e| format!("querying {remote}: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    let out = std::io::stdout().lock();
    match format {
        OutputFormat::Tsv => write_answers(&pairs, &answers, out),
        OutputFormat::Json => write_answers_json(&pairs, &answers, out),
    }
    .map_err(|e| format!("writing answers: {e}"))?;
    info!(
        "remote query round-trip",
        queries = pairs.len(),
        secs = format!("{secs:.3}"),
        qps = format!("{:.0}", pairs.len() as f64 / secs.max(1e-9)),
    );
    Ok(())
}

/// `pspc insert --remote host:port [--pairs <file|->] [u v ...]`: sends
/// edge insertions to a daemon serving a dynamic index over the binary
/// protocol (`PSI1` frame) and reports how many edges were new.
fn cmd_remote_insert(args: &[String]) -> Result<(), String> {
    let mut remote: Option<String> = None;
    let mut pairs_src: Option<String> = None;
    let mut inline: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("missing value for {flag}"))
        };
        match a.as_str() {
            "--remote" => remote = Some(value("--remote")?.clone()),
            "--pairs" => pairs_src = Some(value("--pairs")?.clone()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}\n{USAGE}")),
            other => inline.push(other.to_string()),
        }
    }
    let remote = remote.ok_or("insert: missing --remote host:port")?;

    let edges: Vec<(u32, u32)> = if let Some(src) = pairs_src {
        if !inline.is_empty() {
            return Err("insert: give either --pairs or inline ids, not both".into());
        }
        if src == "-" {
            read_pairs(std::io::stdin().lock())
        } else {
            let f = std::fs::File::open(&src).map_err(|e| format!("opening {src}: {e}"))?;
            read_pairs(std::io::BufReader::new(f))
        }
        .map_err(|e| format!("reading edges: {e}"))?
    } else {
        if inline.is_empty() || !inline.len().is_multiple_of(2) {
            return Err("insert: need --pairs <file|-> or an even number of vertex ids".into());
        }
        inline
            .chunks_exact(2)
            .map(|p| -> Result<(u32, u32), String> {
                let u = p[0].parse().map_err(|e| format!("bad vertex: {e}"))?;
                let v = p[1].parse().map_err(|e| format!("bad vertex: {e}"))?;
                Ok((u, v))
            })
            .collect::<Result<_, _>>()?
    };

    let mut client =
        RemoteClient::connect(&remote).map_err(|e| format!("connecting to {remote}: {e}"))?;
    let applied = client
        .insert_edges(&edges)
        .map_err(|e| format!("inserting into {remote}: {e}"))?;
    println!("applied {applied} of {} edges", edges.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn delegates_unknown_to_service_and_rejects_bad_flags() {
        // Unknown commands fall through to the service CLI, which
        // rejects them with its usage text.
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&s(&["serve"])).is_err()); // missing index
        assert!(run(&s(&["serve", "i", "--bogus"])).is_err());
        assert!(run(&s(&["query", "--remote"])).is_err()); // missing value
        assert!(run(&s(&["query", "--remote", "x", "--bogus"])).is_err());
        assert!(run(&s(&["query", "--remote", "x", "1"])).is_err()); // odd ids
        assert!(run(&s(&[
            "query",
            "--remote",
            "x",
            "--trace-id",
            "zap",
            "0",
            "1"
        ]))
        .is_err());
        assert!(run(&s(&["query", "--remote", "x", "--trace-id"])).is_err());
        assert!(run(&s(&["serve", "--cache-adaptive"])).is_err()); // missing index
        assert!(run(&s(&["insert"])).is_err()); // missing --remote
        assert!(run(&s(&["insert", "--remote", "x", "--bogus"])).is_err());
        assert!(run(&s(&["insert", "--remote", "x", "1"])).is_err()); // odd ids
        assert!(run(&s(&["help"])).is_ok());
    }

    #[test]
    fn migrate_round_trips_v1_to_v2() {
        use pspc_core::serialize::index_to_binary;
        use pspc_service::cli::load_index;
        let dir = std::env::temp_dir().join("pspc_migrate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let old = dir.join("old_v1.pspc");
        let new = dir.join("new_v2.pspc");
        // The v1 fixture holds this index; nothing writes v1 any more.
        let g = pspc_graph::generators::barabasi_albert(24, 2, 1);
        let (idx, _) = pspc_core::build_pspc(&g, &pspc_core::PspcConfig::default());
        let v1 = include_bytes!("../../core/tests/fixtures/ba24.v1.pspc");
        std::fs::write(&old, v1).unwrap();

        run(&s(&[
            "migrate",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
        ]))
        .unwrap();

        // The migrated file is v2 byte-for-byte and loads to the exact
        // same index as the v1 original.
        let migrated_bytes = std::fs::read(&new).unwrap();
        assert_eq!(&migrated_bytes[..8], b"PSPCIDX2");
        assert_eq!(migrated_bytes, index_to_binary(&idx).to_vec());
        // (Timing stats are not persisted, so compare the persisted
        // parts, not the whole struct.)
        let restored = load_index(new.to_str().unwrap()).unwrap();
        assert_eq!(restored.order(), idx.order());
        assert_eq!(restored.label_arena(), idx.label_arena());
        assert_eq!(restored.weights(), idx.weights());
        for (s, t) in [(0u32, 23u32), (3, 17), (20, 20)] {
            assert_eq!(restored.query(s, t), idx.query(s, t));
        }

        // Migrating a v2 file is an idempotent re-encode.
        let again = dir.join("again_v2.pspc");
        run(&s(&[
            "migrate",
            new.to_str().unwrap(),
            again.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(std::fs::read(&again).unwrap(), migrated_bytes);

        // Error paths: arity, in-place, unreadable input.
        assert!(run(&s(&["migrate", "only_one"])).is_err());
        assert!(run(&s(&["migrate", "same", "same"])).is_err());
        assert!(run(&s(&["migrate", "/nonexistent/x", "/tmp/y"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn migrate_is_idempotent_for_directed_and_dynamic_snapshots() {
        use pspc_core::directed::pspc::{build_di_pspc, DiPspcConfig};
        use pspc_core::serialize::{di_index_to_binary, dyn_index_to_binary};
        use pspc_core::DynamicDistanceIndex;
        use pspc_order::OrderingStrategy;
        let dir = std::env::temp_dir().join("pspc_migrate_kinds_test");
        std::fs::create_dir_all(&dir).unwrap();

        let dg = pspc_graph::digraph::erdos_renyi_digraph(50, 160, 4);
        let di_bytes = di_index_to_binary(&build_di_pspc(&dg, &DiPspcConfig::default()));
        let g = pspc_graph::generators::erdos_renyi(50, 120, 4);
        let dyn_bytes =
            dyn_index_to_binary(&DynamicDistanceIndex::build(&g, OrderingStrategy::Degree));

        for (name, magic, bytes) in [
            ("dir", b"PSPCDIR2".as_slice(), di_bytes),
            ("dyn", b"PSPCDYN2".as_slice(), dyn_bytes),
        ] {
            let old = dir.join(format!("{name}_old.pspc"));
            let new = dir.join(format!("{name}_new.pspc"));
            std::fs::write(&old, &bytes).unwrap();
            run(&s(&[
                "migrate",
                old.to_str().unwrap(),
                new.to_str().unwrap(),
            ]))
            .unwrap();
            let migrated = std::fs::read(&new).unwrap();
            assert_eq!(&migrated[..8], magic);
            // Kind-preserving and byte-identical: these formats have one
            // canonical encoding, so migrate is the identity on them.
            assert_eq!(migrated, bytes.to_vec());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remote_query_to_unreachable_host_reports_connect_error() {
        // Port 1 on localhost is essentially never listening.
        let err = run(&s(&["query", "--remote", "127.0.0.1:1", "0", "1"])).unwrap_err();
        assert!(err.contains("connecting"), "{err}");
    }
}
