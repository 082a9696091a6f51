//! Daemon integration tests: boot a real server on an ephemeral port and
//! drive it over real sockets.
//!
//! Pins the ISSUE's acceptance criteria: answers over TCP (both
//! protocols) are bit-identical to `query_batch_sequential`, a saturated
//! submission queue *rejects* new work instead of hanging, shutdown
//! drains in-flight batches, and a **dynamic** index accepts
//! `POST /insert` / binary `PSI1` insertions whose effects are visible
//! to subsequent queries on the same and on concurrent connections
//! (while non-dynamic indexes answer a clean 409 / `Conflict`).

use pspc_core::{build_pspc, DynamicDistanceIndex, PspcConfig, SpcIndex};
use pspc_graph::generators::barabasi_albert;
use pspc_graph::GraphBuilder;
use pspc_order::OrderingStrategy;
use pspc_server::client::{ClientError, RemoteClient};
use pspc_server::server::{serve, ServerHandle};
use pspc_service::pairs::{parse_answers_json, write_answers};
use pspc_service::EngineConfig;
use std::io::{Read, Write};
use std::net::TcpStream;

fn small_index() -> SpcIndex {
    let g = barabasi_albert(300, 3, 7);
    build_pspc(&g, &PspcConfig::default()).0
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

/// One HTTP exchange over a fresh connection; returns (status line, body).
fn http_request(addr: &str, method: &str, path: &str, body: &[u8]) -> (String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .unwrap();
    stream.write_all(body).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete response headers");
    let status =
        String::from_utf8_lossy(&raw[..raw.iter().position(|&b| b == b'\r').unwrap()]).into_owned();
    (status, raw[header_end + 4..].to_vec())
}

fn start(index: &SpcIndex, cfg: EngineConfig) -> (ServerHandle, String) {
    let handle = serve(index.clone(), "127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = handle.local_addr().to_string();
    (handle, addr)
}

/// One HTTP exchange on an already-open keep-alive connection; returns
/// (status line, body). Unlike [`http_request`], the connection stays
/// usable for the next exchange.
fn http_exchange(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &[u8],
) -> (String, Vec<u8>) {
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .unwrap();
    stream.write_all(body).unwrap();
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).unwrap();
        head.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&head).into_owned();
    let status = head.lines().next().unwrap().to_string();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let lower = l.to_ascii_lowercase();
            lower
                .strip_prefix("content-length:")
                .map(|v| v.trim().parse().unwrap())
        })
        .expect("response carries content-length");
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).unwrap();
    (status, body)
}

/// A served dynamic index over the path graph `0 — 1 — … — (n-1)`.
fn start_dynamic_path(n: u32, cfg: EngineConfig) -> (ServerHandle, String) {
    let g = GraphBuilder::new()
        .num_vertices(n as usize)
        .edges((0..n - 1).map(|i| (i, i + 1)))
        .build();
    let idx = DynamicDistanceIndex::build(&g, OrderingStrategy::Degree);
    let handle = serve(idx, "127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = handle.local_addr().to_string();
    (handle, addr)
}

#[test]
fn mixed_http_and_binary_workload_matches_sequential() {
    let index = small_index();
    let (handle, addr) = start(
        &index,
        EngineConfig {
            workers: 2,
            chunk_size: 64,
            ..EngineConfig::default()
        },
    );

    // Health first.
    let (status, body) = http_request(&addr, "GET", "/healthz", b"");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, b"ok\n");

    // Concurrent clients: two binary (persistent connections, several
    // batches each), one HTTP TSV, one HTTP JSON.
    std::thread::scope(|s| {
        for seed in [1u64, 2] {
            let (index, addr) = (&index, &addr);
            s.spawn(move || {
                let mut client = RemoteClient::connect(addr).unwrap();
                for round in 0..5 {
                    let ps = pairs(200 + round * 31, 300, seed * 100 + round as u64);
                    let got = client.query_batch(&ps).unwrap();
                    assert_eq!(got, index.query_batch_sequential(&ps));
                }
            });
        }
        for seed in [11u64, 12] {
            let (index, addr) = (&index, &addr);
            s.spawn(move || {
                let ps = pairs(150, 300, seed);
                let workload: String = ps.iter().map(|(a, b)| format!("{a} {b}\n")).collect();
                let expect = index.query_batch_sequential(&ps);
                // TSV body must be byte-identical to the local writer.
                let (status, body) = http_request(addr, "POST", "/query", workload.as_bytes());
                assert!(status.contains("200"), "{status}");
                let mut tsv = Vec::new();
                write_answers(&ps, &expect, &mut tsv).unwrap();
                assert_eq!(body, tsv);
                // JSON round-trips to the same answers.
                let (status, body) =
                    http_request(addr, "POST", "/query?format=json", workload.as_bytes());
                assert!(status.contains("200"), "{status}");
                let rows = parse_answers_json(&String::from_utf8(body).unwrap()).unwrap();
                assert_eq!(rows.len(), ps.len());
                for ((got_pair, got), (&pair, want)) in rows.iter().zip(ps.iter().zip(&expect)) {
                    assert_eq!(*got_pair, pair);
                    assert_eq!(got, want);
                }
            });
        }
    });

    // Metrics reflect the traffic.
    let (status, body) = http_request(&addr, "GET", "/metrics", b"");
    assert!(status.contains("200"), "{status}");
    let text = String::from_utf8(body).unwrap();
    let served: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("pspc_requests_served_total "))
        .unwrap()
        .parse()
        .unwrap();
    assert!(served >= 14, "served {served} of expected >= 14\n{text}");
    assert!(text.contains("pspc_request_latency_p99_us"));
    assert!(text.contains("pspc_uptime_seconds"));

    let final_metrics = handle.shutdown();
    assert_eq!(final_metrics.rejected, 0);
    assert_eq!(final_metrics.in_flight, 0);
}

#[test]
fn bad_requests_get_errors_not_hangs() {
    let index = small_index();
    let (handle, addr) = start(&index, EngineConfig::default());

    // HTTP: unknown endpoint, garbage body, out-of-range vertex.
    let (status, _) = http_request(&addr, "GET", "/nope", b"");
    assert!(status.contains("404"), "{status}");
    let (status, _) = http_request(&addr, "POST", "/query", b"0 zebra\n");
    assert!(status.contains("400"), "{status}");
    let (status, body) = http_request(&addr, "POST", "/query", b"0 299999\n");
    assert!(status.contains("400"), "{status}");
    assert!(String::from_utf8_lossy(&body).contains("out of range"));
    let (status, _) = http_request(&addr, "DELETE", "/query", b"");
    assert!(status.contains("405"), "{status}");

    // Binary: out-of-range vertex is a BadRequest response, and the
    // connection stays usable afterwards.
    let mut client = RemoteClient::connect(&addr).unwrap();
    match client.query_batch(&[(0, 1_000_000)]) {
        Err(ClientError::BadRequest(msg)) => assert!(msg.contains("out of range"), "{msg}"),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    let ps = pairs(50, 300, 5);
    assert_eq!(
        client.query_batch(&ps).unwrap(),
        index.query_batch_sequential(&ps)
    );

    // Three of the above count as client errors (garbage body and the
    // two out-of-range batches); 404/405 routing misses do not.
    let m = handle.shutdown();
    assert!(m.client_errors >= 3, "client_errors = {}", m.client_errors);
}

#[test]
fn saturated_queue_rejects_new_work_instead_of_hanging() {
    let index = small_index();
    // One worker, a 4-chunk queue, 10k-query chunks: any two concurrent
    // 30k-pair batches cannot both be admitted — the second sees >4
    // queued chunks and must be shed.
    let (handle, addr) = start(
        &index,
        EngineConfig {
            workers: 1,
            chunk_size: 10_000,
            queue_depth: 4,
            ..EngineConfig::default()
        },
    );

    let outcomes: Vec<Result<(), ()>> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..4u64)
            .map(|seed| {
                let (index, addr) = (&index, &addr);
                s.spawn(move || {
                    let mut client = RemoteClient::connect(addr).unwrap();
                    let mut outcomes = Vec::new();
                    for round in 0..3 {
                        let ps = pairs(30_000, 300, seed * 10 + round + 1);
                        match client.query_batch(&ps) {
                            Ok(got) => {
                                assert_eq!(got, index.query_batch_sequential(&ps));
                                outcomes.push(Ok(()));
                            }
                            Err(ClientError::Rejected(msg)) => {
                                assert!(msg.contains("saturated"), "{msg}");
                                outcomes.push(Err(()));
                            }
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                    outcomes
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect()
    });

    let accepted = outcomes.iter().filter(|o| o.is_ok()).count();
    let rejected = outcomes.len() - accepted;
    assert!(accepted >= 1, "someone must get through");
    assert!(
        rejected >= 1,
        "4 concurrent 3-chunk batches against a 4-chunk queue and one worker \
         must shed at least one request"
    );
    let m = handle.shutdown();
    assert_eq!(m.rejected, rejected as u64);
}

#[test]
fn shutdown_drains_in_flight_batches() {
    let index = small_index();
    let (handle, addr) = start(
        &index,
        EngineConfig {
            workers: 1,
            chunk_size: 4096,
            ..EngineConfig::default()
        },
    );

    // A hefty batch that is still in flight when the main thread
    // triggers shutdown: wait until the daemon has read it and handed it
    // to the engine, rather than guessing with a sleep that a stalled
    // host can outlast.
    let ps = pairs(120_000, 300, 99);
    let expect = index.query_batch_sequential(&ps);
    let answers = std::thread::scope(|s| {
        let worker = s.spawn(|| RemoteClient::connect(&addr).unwrap().query_batch(&ps));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let m = handle.metrics();
            if m.in_flight >= 1 || m.served >= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "the daemon never picked up the batch"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let m = handle.shutdown(); // must wait for the batch, not kill it
        assert_eq!(m.in_flight, 0);
        worker.join().unwrap()
    });
    assert_eq!(answers.expect("drained, not dropped"), expect);

    // The listener is gone afterwards.
    assert!(TcpStream::connect(&addr).is_err());
}

#[test]
fn insert_then_query_returns_post_insert_answers_on_all_paths() {
    // Path graph 0 — 1 — … — 9: dist(0, 9) = 9 before any insert.
    let (handle, addr) = start_dynamic_path(10, EngineConfig::default());

    // Same keep-alive connection: query → insert → query observes the
    // shortcut.
    let mut conn = TcpStream::connect(&addr).unwrap();
    let (status, body) = http_exchange(&mut conn, "POST", "/query", b"0 9\n");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, b"0\t9\t9\t1\n");
    let (status, body) = http_exchange(&mut conn, "POST", "/insert", b"0 9\n");
    assert!(status.contains("200"), "{status}");
    assert_eq!(String::from_utf8_lossy(&body), "applied 1 of 1 edges\n");
    let (status, body) = http_exchange(&mut conn, "POST", "/query", b"0 9\n");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, b"0\t9\t1\t1\n");

    // A concurrent, separate connection sees the post-insert graph too.
    let (status, body) = http_request(&addr, "POST", "/query", b"0 9\n");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, b"0\t9\t1\t1\n");

    // Binary protocol: insert frame then query frame on one connection.
    let mut client = RemoteClient::connect(&addr).unwrap();
    assert_eq!(
        client.query_batch(&[(0, 5)]).unwrap(),
        vec![pspc_graph::SpcAnswer { dist: 5, count: 1 }]
    );
    assert_eq!(client.insert_edges(&[(0, 5)]).unwrap(), 1);
    assert_eq!(
        client.query_batch(&[(0, 5)]).unwrap(),
        vec![pspc_graph::SpcAnswer { dist: 1, count: 1 }]
    );
    // Duplicate and self-loop edges are acknowledged but not applied.
    assert_eq!(client.insert_edges(&[(0, 5), (3, 3)]).unwrap(), 0);
    // Out-of-range endpoints are a BadRequest, and the connection stays
    // usable.
    match client.insert_edges(&[(0, 99)]) {
        Err(ClientError::BadRequest(msg)) => assert!(msg.contains("out of range"), "{msg}"),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    assert_eq!(
        client.query_batch(&[(0, 9)]).unwrap(),
        vec![pspc_graph::SpcAnswer { dist: 1, count: 1 }]
    );

    // Metrics: kind gauge says dynamic, insert totals reflect the two
    // applied edges across three accepted insert requests, and the
    // generation counter advanced once per graph-changing insert
    // (duplicates and rejected batches do not bump it).
    let (status, body) = http_request(&addr, "GET", "/metrics", b"");
    assert!(status.contains("200"), "{status}");
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("pspc_index_kind 2"), "{text}");
    assert!(text.contains("pspc_insert_requests_total 3"), "{text}");
    assert!(text.contains("pspc_inserts_total 2"), "{text}");
    assert!(text.contains("pspc_index_generation 2"), "{text}");
    assert!(text.contains("pspc_insert_latency_p50_us"), "{text}");

    let m = handle.shutdown();
    assert_eq!(m.inserts, 2);
    assert_eq!(m.insert_requests, 3);
    assert_eq!(m.index_generation, 2);
    assert!(
        m.insert_p99_us > 0.0,
        "accepted inserts must feed the latency ring"
    );
}

#[test]
fn concurrent_inserts_and_queries_never_hang_or_diverge() {
    // Inserts land under the write lock while query batches drain around
    // it; afterwards every connection sees the fully evolved path-plus-
    // shortcuts graph.
    let (handle, addr) = start_dynamic_path(
        64,
        EngineConfig {
            workers: 2,
            chunk_size: 8,
            ..EngineConfig::default()
        },
    );
    std::thread::scope(|s| {
        for seed in [3u64, 4] {
            let addr = &addr;
            s.spawn(move || {
                let mut client = RemoteClient::connect(addr).unwrap();
                for round in 0..6 {
                    let ps = pairs(100, 64, seed * 10 + round);
                    // Distances evolve concurrently; just demand sane
                    // answers (a path graph stays connected).
                    for a in client.query_batch(&ps).unwrap() {
                        assert!(a.is_reachable());
                    }
                }
            });
        }
        s.spawn(|| {
            let mut client = RemoteClient::connect(&addr).unwrap();
            for i in 0..16u32 {
                // Shortcut 0 — (4i + 3).
                client.insert_edges(&[(0, 4 * i + 3)]).unwrap();
            }
        });
    });
    // Every shortcut is now visible: dist(0, 4i + 3) = 1.
    let mut client = RemoteClient::connect(&addr).unwrap();
    let ps: Vec<(u32, u32)> = (0..16).map(|i| (0, 4 * i + 3)).collect();
    for a in client.query_batch(&ps).unwrap() {
        assert_eq!(a.dist, 1);
    }
    let m = handle.shutdown();
    assert_eq!(m.inserts, 16);
}

#[test]
fn insert_on_non_dynamic_index_is_a_clean_conflict() {
    let index = small_index();
    let (handle, addr) = start(&index, EngineConfig::default());

    // HTTP: 409, not a hang, and the connection keeps serving queries.
    let mut conn = TcpStream::connect(&addr).unwrap();
    let (status, body) = http_exchange(&mut conn, "POST", "/insert", b"0 1\n");
    assert!(status.contains("409"), "{status}");
    assert!(
        String::from_utf8_lossy(&body).contains("not dynamic"),
        "{body:?}"
    );
    let (status, _) = http_exchange(&mut conn, "POST", "/query", b"0 1\n");
    assert!(status.contains("200"), "{status}");

    // Binary: Conflict, and the connection keeps serving queries.
    let mut client = RemoteClient::connect(&addr).unwrap();
    match client.insert_edges(&[(0, 1)]) {
        Err(ClientError::Conflict(msg)) => assert!(msg.contains("not dynamic"), "{msg}"),
        other => panic!("expected Conflict, got {other:?}"),
    }
    let ps = pairs(50, 300, 8);
    assert_eq!(
        client.query_batch(&ps).unwrap(),
        index.query_batch_sequential(&ps)
    );

    let m = handle.shutdown();
    assert_eq!(m.index_kind, 0);
    assert_eq!(m.inserts, 0);
    assert_eq!(m.insert_requests, 0);
    // The two 409s are conflicts, not malformed requests: they land in
    // their own counter and leave pspc_requests_bad_total alone.
    assert_eq!(m.insert_conflicts, 2);
    assert_eq!(
        m.client_errors, 0,
        "a well-formed insert to the wrong index kind must not count as a client error"
    );
}

#[test]
fn cached_daemon_serves_identical_answers_and_exports_cache_metrics() {
    // A cache-enabled dynamic daemon: repeated batches hit, answers stay
    // bit-identical, an applied insert advances the generation and the
    // next identical batch misses (stale stamps) yet still answers the
    // post-insert graph.
    let (handle, addr) = start_dynamic_path(
        16,
        EngineConfig {
            workers: 2,
            cache_capacity: 1024,
            ..EngineConfig::default()
        },
    );

    let mut client = RemoteClient::connect(&addr).unwrap();
    let ps: Vec<(u32, u32)> = (0..15).map(|i| (i, i + 1)).collect();
    let first = client.query_batch(&ps).unwrap();
    for _ in 0..3 {
        assert_eq!(client.query_batch(&ps).unwrap(), first, "warm pass parity");
    }
    let m = handle.metrics();
    let cache = m.cache.expect("cache metrics exported when enabled");
    assert!(
        cache.hits >= ps.len() as u64,
        "repeated batches must hit: {cache:?}"
    );
    assert!(cache.entries >= 1);
    let (status, body) = http_request(&addr, "GET", "/metrics", b"");
    assert!(status.contains("200"), "{status}");
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("pspc_cache_hits_total"), "{text}");
    assert!(text.contains("pspc_cache_misses_total"), "{text}");
    assert!(text.contains("pspc_cache_entries"), "{text}");
    assert!(text.contains("pspc_cache_evictions_total"), "{text}");
    assert!(text.contains("pspc_index_generation 0"), "{text}");

    // Insert a shortcut: the generation advances and dist(0, 15) drops
    // from 15 to 1 — a stale cached answer would still say 15.
    assert_eq!(
        client.query_batch(&[(0, 15)]).unwrap()[0],
        pspc_graph::SpcAnswer { dist: 15, count: 1 }
    );
    assert_eq!(client.insert_edges(&[(0, 15)]).unwrap(), 1);
    assert_eq!(
        client.query_batch(&[(0, 15)]).unwrap()[0],
        pspc_graph::SpcAnswer { dist: 1, count: 1 },
        "post-insert query must not be served from the stale cache"
    );
    let m = handle.shutdown();
    assert_eq!(m.index_generation, 1);
}

#[test]
fn post_shutdown_endpoint_stops_a_waiting_server() {
    let index = small_index();
    let (handle, addr) = start(&index, EngineConfig::default());
    let waiter = std::thread::spawn(move || handle.wait());
    // Serve something first, then ask the daemon to stop, remotely.
    let ps = pairs(100, 300, 3);
    assert_eq!(
        RemoteClient::connect(&addr)
            .unwrap()
            .query_batch(&ps)
            .unwrap(),
        index.query_batch_sequential(&ps)
    );
    let (status, body) = http_request(&addr, "POST", "/shutdown", b"");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, b"shutting down\n");
    let m = waiter.join().unwrap();
    assert_eq!(m.served, 1);
    assert!(TcpStream::connect(&addr).is_err());
}

/// Extracts every `"key":value` numeric field named `key` from a JSON
/// trace dump, in order of appearance.
fn json_numbers(text: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\":");
    text.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &text[at + needle.len()..];
            let end = rest
                .find(|c: char| c != '.' && !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().unwrap()
        })
        .collect()
}

#[test]
fn debug_endpoints_expose_traces_and_slow_log() {
    let index = small_index();
    let (handle, addr) = start(&index, EngineConfig::default());
    let batch = pairs(64, 300, 7);
    let mut body = Vec::new();
    for &(s, t) in &batch {
        writeln!(body, "{s} {t}").unwrap();
    }
    for _ in 0..5 {
        let (status, _) = http_request(&addr, "POST", "/query", &body);
        assert!(status.contains("200"), "{status}");
    }
    // Malformed requests are traced too, with their own status.
    let (status, _) = http_request(&addr, "POST", "/query", b"not numbers\n");
    assert!(status.contains("400"), "{status}");

    // /debug/trace: newest first, every stage present in every object.
    let (status, trace_body) = http_request(&addr, "GET", "/debug/trace?n=4", &[]);
    assert!(status.contains("200"), "{status}");
    let text = String::from_utf8(trace_body).unwrap();
    assert!(text.starts_with('['), "{text}");
    assert_eq!(text.matches("\"trace_id\":").count(), 4, "{text}");
    for stage in [
        "parse",
        "cache_probe",
        "prepare",
        "queue_wait",
        "execute",
        "merge",
        "write",
    ] {
        assert_eq!(
            text.matches(&format!("\"{stage}\":")).count(),
            4,
            "stage {stage} missing from a trace: {text}"
        );
    }
    let newest_first = json_numbers(&text, "trace_id");
    assert!(
        newest_first.windows(2).all(|w| w[0] > w[1]),
        "traces must be newest first: {newest_first:?}"
    );
    assert!(
        text.find("\"status\":\"bad_request\"").unwrap() < text.find("\"status\":\"ok\"").unwrap(),
        "the malformed request is the most recent trace: {text}"
    );

    // /debug/slow: slowest first, populated stage breakdown.
    let (status, slow_body) = http_request(&addr, "GET", "/debug/slow", &[]);
    assert!(status.contains("200"), "{status}");
    let text = String::from_utf8(slow_body).unwrap();
    let totals = json_numbers(&text, "total_us");
    assert!(totals.len() >= 6, "all six requests rank in the top 32");
    assert!(
        totals.windows(2).all(|w| w[0] >= w[1]),
        "slow log must be slowest first: {totals:?}"
    );
    // The slowest trace is a real query: its engine stages are nonzero.
    let first = &text[..text.find("}}").unwrap()];
    for stage in ["prepare", "execute", "merge"] {
        let v = json_numbers(first, stage);
        assert!(
            v.first().is_some_and(|&us| us > 0.0),
            "slowest trace lacks {stage} attribution: {first}"
        );
    }

    // The same traces fed the stage-labeled histograms on /metrics.
    let (status, metrics_body) = http_request(&addr, "GET", "/metrics", &[]);
    assert!(status.contains("200"), "{status}");
    let text = String::from_utf8(metrics_body).unwrap();
    assert!(text.contains("# TYPE pspc_stage_latency_seconds histogram"));
    for stage in pspc_obs::Stage::ALL {
        assert!(
            text.contains(&format!(
                "pspc_stage_latency_seconds_count{{stage=\"{}\"}} 6",
                stage.name()
            )),
            "stage {} count off:\n{text}",
            stage.name()
        );
    }
    assert!(text.contains("# TYPE pspc_request_latency_seconds histogram"));
    assert!(text.contains("pspc_request_latency_seconds_bucket{le=\"+Inf\"} 5"));
    assert!(text.contains("pspc_worker_chunks_total{worker=\"0\"}"));

    let m = handle.shutdown();
    assert_eq!(m.stage_hists[pspc_obs::Stage::Execute as usize].count(), 6);
    assert!(m.stage_hists[pspc_obs::Stage::Execute as usize].sum() > 0);
}

/// Like [`http_request`] but with one extra header line, returning the
/// raw response head as well (for content-type assertions).
fn http_request_raw(
    addr: &str,
    method: &str,
    path: &str,
    extra_header: &str,
    body: &[u8],
) -> (String, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let extra = if extra_header.is_empty() {
        String::new()
    } else {
        format!("{extra_header}\r\n")
    };
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: t\r\n{extra}content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .unwrap();
    stream.write_all(body).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete response headers");
    let head = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    let status = head.lines().next().unwrap().to_string();
    (status, head, raw[head_end + 4..].to_vec())
}

#[test]
fn metrics_content_type_is_versioned_prometheus_exposition() {
    let index = small_index();
    let (handle, addr) = start(&index, EngineConfig::default());
    let (status, head, body) = http_request_raw(&addr, "GET", "/metrics", "", b"");
    assert!(status.contains("200"), "{status}");
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: text/plain; version=0.0.4"),
        "Prometheus scrapers negotiate on the exposition version:\n{head}"
    );
    assert!(String::from_utf8_lossy(&body).contains("pspc_uptime_seconds"));
    handle.shutdown();
}

#[test]
fn non_numeric_debug_params_get_400_not_silent_defaults() {
    let index = small_index();
    let (handle, addr) = start(&index, EngineConfig::default());
    for path in [
        "/debug/trace?n=zebra",
        "/debug/slow?n=",
        "/debug/hotspots?n=-3",
        "/debug/timeseries?n=1.5",
    ] {
        let (status, body) = http_request(&addr, "GET", path, b"");
        assert!(status.contains("400"), "{path}: {status}");
        assert!(
            String::from_utf8_lossy(&body).contains("is not a number"),
            "{path}: {body:?}"
        );
    }
    // Absent and well-formed values still work.
    for path in ["/debug/trace", "/debug/trace?n=4", "/debug/timeseries?n=2"] {
        let (status, _) = http_request(&addr, "GET", path, b"");
        assert!(status.contains("200"), "{path}: {status}");
    }
    let m = handle.shutdown();
    assert_eq!(m.client_errors, 4, "each bad parameter is a client error");
}

#[test]
fn hotspot_and_timeseries_endpoints_expose_the_workload_sketch() {
    let index = small_index();
    let (handle, addr) = start(
        &index,
        EngineConfig {
            workers: 2,
            cache_capacity: 512,
            ..EngineConfig::default()
        },
    );

    // Skewed traffic: pair (7, 9) dominates, source 7 dominates.
    let mut client = RemoteClient::connect(&addr).unwrap();
    let mut batch: Vec<(u32, u32)> = vec![(7, 9); 60];
    batch.extend(pairs(40, 300, 13));
    for _ in 0..4 {
        client.query_batch(&batch).unwrap();
    }

    let (status, body) = http_request(&addr, "GET", "/debug/hotspots?n=4", b"");
    assert!(status.contains("200"), "{status}");
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("\"enabled\":true"), "{text}");
    let totals = json_numbers(&text, "total_pairs");
    assert_eq!(totals, vec![400.0], "{text}");
    assert!(
        json_numbers(&text, "distinct_pairs_estimate")[0] > 0.0,
        "{text}"
    );
    // The dominant pair leads the hot-pair list with its true count.
    let hot_pairs_at = text.find("\"hot_pairs\":[").unwrap();
    let first_hot = &text[hot_pairs_at..];
    assert!(
        first_hot.starts_with("\"hot_pairs\":[{\"s\":7,\"t\":9,\"count\":240"),
        "{text}"
    );
    assert!(text.contains("\"hot_sources\":[{\"vertex\":7,"), "{text}");
    assert!(
        json_numbers(&text, "hot_pair_share")[0] > 0.5,
        "60% of traffic is one pair: {text}"
    );

    // The time series has at least the open window, with live rates.
    let (status, body) = http_request(&addr, "GET", "/debug/timeseries", b"");
    assert!(status.contains("200"), "{status}");
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("\"enabled\":true"), "{text}");
    assert!(text.contains("\"window_secs\":10"), "{text}");
    let queries = json_numbers(&text, "queries");
    assert!(
        !queries.is_empty() && queries.iter().sum::<f64>() == 400.0,
        "{text}"
    );
    assert!(json_numbers(&text, "qps")[0] > 0.0, "{text}");
    assert!(
        json_numbers(&text, "hit_rate")[0] > 0.0,
        "repeat batches hit the cache: {text}"
    );
    assert!(json_numbers(&text, "p99_us")[0] > 0.0, "{text}");

    // The same sketch feeds the metric families.
    let (status, body) = http_request(&addr, "GET", "/metrics", b"");
    assert!(status.contains("200"), "{status}");
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("pspc_workload_pairs_total 400"), "{text}");
    assert!(text.contains("pspc_distinct_pairs_estimate"), "{text}");
    assert!(text.contains("pspc_hot_pair_share"), "{text}");
    assert!(text.contains("pspc_window_qps"), "{text}");
    assert!(text.contains("pspc_window_hit_ratio"), "{text}");
    assert!(text.contains("pspc_window_p50_us"), "{text}");
    assert!(text.contains("pspc_window_p99_us"), "{text}");
    handle.shutdown();
}

#[test]
fn disabled_workload_sketch_reports_cleanly_everywhere() {
    let index = small_index();
    let (handle, addr) = start(
        &index,
        EngineConfig {
            workload_sketch: false,
            ..EngineConfig::default()
        },
    );
    let mut client = RemoteClient::connect(&addr).unwrap();
    client.query_batch(&pairs(50, 300, 17)).unwrap();
    for path in ["/debug/hotspots", "/debug/timeseries"] {
        let (status, body) = http_request(&addr, "GET", path, b"");
        assert!(status.contains("200"), "{path}: {status}");
        assert_eq!(body, b"{\"enabled\":false}\n", "{path}");
    }
    let (_, body) = http_request(&addr, "GET", "/metrics", b"");
    let text = String::from_utf8(body).unwrap();
    assert!(!text.contains("pspc_workload_pairs_total"), "{text}");
    assert!(!text.contains("pspc_window_qps"), "{text}");
    handle.shutdown();
}

#[test]
fn client_trace_ids_round_trip_over_both_protocols() {
    let index = small_index();
    let (handle, addr) = start(&index, EngineConfig::default());
    let ps = pairs(20, 300, 23);
    let mut body = Vec::new();
    for &(s, t) in &ps {
        writeln!(body, "{s} {t}").unwrap();
    }

    // HTTP: the x-pspc-trace-id header is adopted verbatim.
    let (status, _, _) =
        http_request_raw(&addr, "POST", "/query", "x-pspc-trace-id: 424242", &body);
    assert!(status.contains("200"), "{status}");

    // Binary: the PSQ2 frame carries the ID; answers stay identical to
    // the untraced path.
    let mut client = RemoteClient::connect(&addr).unwrap();
    let traced = client.query_batch_traced(987_654_321_987, &ps).unwrap();
    assert_eq!(traced, index.query_batch_sequential(&ps));

    // Both IDs appear verbatim in /debug/trace.
    let (status, trace_body) = http_request(&addr, "GET", "/debug/trace?n=8", b"");
    assert!(status.contains("200"), "{status}");
    let text = String::from_utf8(trace_body).unwrap();
    assert!(text.contains("\"trace_id\":424242,"), "{text}");
    assert!(text.contains("\"trace_id\":987654321987,"), "{text}");

    // An unparsable header is ignored, not adopted (process-unique IDs
    // keep flowing) — and service is unaffected.
    let (status, _, _) = http_request_raw(
        &addr,
        "POST",
        "/query",
        "x-pspc-trace-id: not-a-number",
        &body,
    );
    assert!(status.contains("200"), "{status}");
    let m = handle.shutdown();
    assert_eq!(m.served, 3);
    assert_eq!(m.client_errors, 0);
}

#[test]
fn tracing_can_be_disabled_without_losing_service() {
    use pspc_server::server::{serve_with_obs, ObsConfig};
    let index = small_index();
    let handle = serve_with_obs(
        index.clone(),
        "127.0.0.1:0",
        EngineConfig::default(),
        ObsConfig {
            tracing: false,
            ..ObsConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().to_string();
    let ps = pairs(50, 300, 11);
    assert_eq!(
        RemoteClient::connect(&addr)
            .unwrap()
            .query_batch(&ps)
            .unwrap(),
        index.query_batch_sequential(&ps)
    );
    let (status, body) = http_request(&addr, "GET", "/debug/trace", &[]);
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, b"[]\n", "no traces recorded with tracing off");
    let (_, body) = http_request(&addr, "GET", "/debug/slow", &[]);
    assert_eq!(body, b"[]\n");
    let m = handle.shutdown();
    assert_eq!(m.served, 1, "service itself is unaffected");
    assert!(m.stage_hists.iter().all(|h| h.count() == 0));
}

#[test]
fn sharded_index_serves_with_bounded_residency_and_gauges() {
    use pspc_core::{open_sharded, write_sharded_index};
    use pspc_service::IndexKind;

    let index = small_index();
    let dir = std::env::temp_dir().join(format!("pspc_daemon_shard_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("index.pspc");
    let shards = write_sharded_index(&index, &manifest, 4096).unwrap();
    assert!(shards > 1, "want a multi-shard snapshot, got {shards}");

    let sharded = open_sharded(&manifest, 2).unwrap();
    let handle = serve(
        IndexKind::Sharded(sharded),
        "127.0.0.1:0",
        EngineConfig::default(),
    )
    .unwrap();
    handle.record_index_mmap(true);
    let addr = handle.local_addr().to_string();

    // Remote answers are bit-identical to the source index's sequential
    // reference, across both protocols.
    let ps = pairs(400, 300, 23);
    let expect = index.query_batch_sequential(&ps);
    assert_eq!(
        RemoteClient::connect(&addr)
            .unwrap()
            .query_batch(&ps)
            .unwrap(),
        expect
    );
    let mut body = Vec::new();
    write_answers(&ps, &expect, &mut body).unwrap();
    let tsv: String = ps.iter().map(|(s, t)| format!("{s} {t}\n")).collect();
    let (status, got) = http_request(&addr, "POST", "/query", tsv.as_bytes());
    assert!(status.contains("200"), "{status}");
    assert_eq!(got, body);

    // The gauges: kind 3, mmap 1, residency present and within the cap.
    let (status, metrics) = http_request(&addr, "GET", "/metrics", &[]);
    assert!(status.contains("200"), "{status}");
    let text = String::from_utf8(metrics).unwrap();
    assert!(text.contains("pspc_index_kind 3\n"), "kind gauge:\n{text}");
    assert!(text.contains("pspc_index_mmap 1\n"), "mmap gauge:\n{text}");
    let resident: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("pspc_index_resident_shards "))
        .expect("resident-shards gauge present for sharded kind")
        .trim()
        .parse()
        .unwrap();
    assert!(resident <= 2, "residency {resident} exceeds the cap");
    assert!(
        text.contains("pspc_index_label_bytes"),
        "label-bytes gauge still present"
    );

    // Inserts are cleanly refused: sharded snapshots are static.
    let (status, _) = http_request(&addr, "POST", "/insert", b"0 1\n");
    assert!(status.contains("409"), "{status}");

    // Re-sharding in place: an evicted shard can no longer be mapped
    // back in, so a batch that needs one is shed, not a dead worker or a
    // dropped connection, and the connection keeps serving.
    assert_eq!(write_sharded_index(&index, &manifest, u64::MAX).unwrap(), 1);
    let mut client = RemoteClient::connect(&addr).unwrap();
    let every: Vec<(u32, u32)> = (0..300).map(|v| (v, 299 - v)).collect();
    for _ in 0..2 {
        match client.query_batch(&every) {
            Err(ClientError::Rejected(msg)) => assert!(msg.contains("failed"), "{msg}"),
            other => panic!("expected a rejection, got {other:?}"),
        }
    }
    let same: Vec<(u32, u32)> = (0..300).map(|v| (v, v)).collect();
    assert_eq!(
        client.query_batch(&same).unwrap(),
        index.query_batch_sequential(&same)
    );

    let m = handle.shutdown();
    assert!(m.served >= 2);
    assert_eq!(m.rejected, 2);
    assert_eq!(m.index_kind, 3);
    assert_eq!(m.index_mmap, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_sharded_index_omits_residency_gauge() {
    let index = small_index();
    let (handle, addr) = start(&index, EngineConfig::default());
    let (status, metrics) = http_request(&addr, "GET", "/metrics", &[]);
    assert!(status.contains("200"), "{status}");
    let text = String::from_utf8(metrics).unwrap();
    assert!(text.contains("pspc_index_mmap 0\n"), "{text}");
    assert!(
        !text.contains("pspc_index_resident_shards"),
        "residency gauge must be omitted for non-sharded kinds:\n{text}"
    );
    handle.shutdown();
}
