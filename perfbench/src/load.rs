//! Load from the benchmark process against an in-process daemon: closed
//! loops for throughput, open loops (timed from each request's due time)
//! for latency, and `POST /insert` writers. Every answer is checked.

use crate::input::{Rng, Source};
use crate::stats::{quantile, Tally};
use crate::trace::Tracer;
use pspc_graph::{SpcAnswer, VertexId};
use pspc_server::{ClientError, RemoteClient};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// What a correct answer looks like, indexed like the pair universe.
pub enum Expect {
    /// A static index: every answer equals this one.
    Exact(Vec<SpcAnswer>),
    /// A dynamic distance index under inserts: the distance never exceeds
    /// the initial-graph distance, reachable answers count 1 path, and the
    /// smallest distance seen per pair is kept so it can be checked
    /// against the final graph once the writers stop.
    AtMost(Vec<u16>),
}

impl Expect {
    /// Checks one response; `seen` holds the smallest distance observed
    /// per universe pair (used by [`Expect::AtMost`] only).
    pub fn check(&self, idx: &[u32], answers: &[SpcAnswer], seen: &mut [u16]) -> bool {
        if answers.len() != idx.len() {
            return false;
        }
        match self {
            Expect::Exact(want) => idx
                .iter()
                .zip(answers)
                .all(|(&i, a)| want[i as usize] == *a),
            Expect::AtMost(upper) => idx.iter().zip(answers).all(|(&i, a)| {
                let i = i as usize;
                seen[i] = seen[i].min(a.dist);
                a.dist <= upper[i] && a.count == u64::from(a.is_reachable())
            }),
        }
    }

    /// A fresh per-thread `seen` buffer.
    pub fn seen_buffer(&self) -> Vec<u16> {
        match self {
            Expect::Exact(_) => Vec::new(),
            Expect::AtMost(upper) => vec![u16::MAX; upper.len()],
        }
    }
}

/// Folds another thread's smallest-distance record into `into`.
pub fn merge_seen(into: &mut Vec<u16>, other: Vec<u16>) {
    if into.is_empty() {
        *into = other;
    } else {
        for (a, b) in into.iter_mut().zip(other) {
            *a = (*a).min(b);
        }
    }
}

/// A binary-protocol connection that reconnects after a transport error.
struct Conn<'a> {
    addr: &'a str,
    client: Option<RemoteClient>,
}

impl Conn<'_> {
    fn query(&mut self, pairs: &[(VertexId, VertexId)]) -> Result<Vec<SpcAnswer>, ClientError> {
        let client = match &mut self.client {
            Some(c) => c,
            None => self.client.insert(RemoteClient::connect(self.addr)?),
        };
        let out = client.query_batch(pairs);
        if matches!(out, Err(ClientError::Io(_))) {
            self.client = None;
        }
        out
    }
}

/// Name of the span around one binary query round trip.
const QUERY_SPAN: &str = "pspc_server::RemoteClient::query_batch";
/// Name of the span around one `POST /insert` round trip.
const INSERT_SPAN: &str = "pspc_server::http::post_insert";

/// One request: send, receive, check. Returns whether it succeeded.
fn one_request(
    conn: &mut Conn,
    src: &Source,
    expect: &Expect,
    rng: &mut Rng,
    bufs: &mut (Vec<u32>, Vec<(VertexId, VertexId)>),
    seen: &mut [u16],
    tracer: &mut Tracer,
) -> bool {
    src.next_batch(rng, &mut bufs.0, &mut bufs.1);
    let reply = tracer.span(QUERY_SPAN, |_| conn.query(&bufs.1));
    match reply {
        Ok(answers) => {
            let ok = expect.check(&bufs.0, &answers, seen);
            if !ok {
                eprintln!("perfbench: wrong answer in a {}-pair batch", bufs.1.len());
            }
            ok
        }
        Err(e) => {
            eprintln!("perfbench: query failed: {e}");
            false
        }
    }
}

/// Groups `(t, x)` samples into consecutive windows `width` seconds wide,
/// keeping only the windows that end before `secs`.
fn windows(samples: impl Iterator<Item = (f64, f64)>, secs: f64, width: f64) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); (secs / width).floor() as usize];
    for (t, x) in samples {
        if let Some(w) = out.get_mut((t / width) as usize) {
            w.push(x);
        }
    }
    out
}

/// Width of the windows throughput and median latency are taken over, s.
pub const WINDOW: f64 = 0.1;

/// Outcome of a closed loop.
pub struct Closed {
    /// `(completion time since start in s, pairs answered)` per request.
    pub done: Vec<(f64, u64)>,
    pub secs: f64,
    /// Round-trip time of every request, µs.
    pub rt_us: Vec<f64>,
    pub tally: Tally,
    pub seen: Vec<u16>,
}

impl Closed {
    /// Answered pairs per second over the whole loop.
    pub fn mean_qps(&self) -> f64 {
        self.done.iter().map(|d| d.1).sum::<u64>() as f64 / self.secs
    }

    /// Answered pairs per second in each [`WINDOW`] of the loop.
    pub fn window_rates(&self) -> Vec<f64> {
        windows(
            self.done.iter().map(|&(t, p)| (t, p as f64)),
            self.secs,
            WINDOW,
        )
        .iter()
        .map(|w| w.iter().sum::<f64>() / WINDOW)
        .collect()
    }
}

/// `conns` connections, each sending its next request as soon as the
/// previous answer arrives, for `secs` seconds.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    addr: &str,
    src: &Source,
    expect: &Expect,
    conns: usize,
    secs: f64,
    seed: u64,
    tracer: &mut Tracer,
) -> Closed {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mut tr = tracer.fork(c as u32 + 1);
                scope.spawn(move || {
                    let mut conn = Conn { addr, client: None };
                    let mut rng = Rng::stream(seed, 0xC105ED + c as u64);
                    let mut bufs = (Vec::new(), Vec::new());
                    let mut seen = expect.seen_buffer();
                    let (mut tally, mut done, mut rt_us) =
                        (Tally::default(), Vec::new(), Vec::new());
                    while Instant::now() < deadline {
                        let t0 = Instant::now();
                        let ok = one_request(
                            &mut conn, src, expect, &mut rng, &mut bufs, &mut seen, &mut tr,
                        );
                        rt_us.push(t0.elapsed().as_secs_f64() * 1e6);
                        tally.record(ok);
                        let pairs = if ok { bufs.1.len() as u64 } else { 0 };
                        done.push(((start.elapsed()).as_secs_f64(), pairs));
                    }
                    (tally, done, rt_us, seen, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let mut out = Closed {
        done: Vec::new(),
        secs,
        rt_us: Vec::new(),
        tally: Tally::default(),
        seen: Vec::new(),
    };
    for (tally, done, rt_us, seen, tr) in results {
        out.tally.add(tally);
        out.done.extend(done);
        out.rt_us.extend(rt_us);
        merge_seen(&mut out.seen, seen);
        tracer.join(tr);
    }
    out
}

/// Latencies of an open loop, each timed from its request's due time.
#[derive(Default)]
pub struct Open {
    /// `(due time since start in s, latency in µs)` per request.
    pub samples: Vec<(f64, f64)>,
    /// Length of the loop, s.
    pub secs: f64,
    /// How late the generator sent its latest request, ms.
    pub late_max_ms: f64,
    pub tally: Tally,
    pub seen: Vec<u16>,
}

impl Open {
    fn absorb(&mut self, other: Open) {
        self.samples.extend(other.samples);
        self.late_max_ms = self.late_max_ms.max(other.late_max_ms);
        self.tally.add(other.tally);
        merge_seen(&mut self.seen, other.seen);
    }

    /// The `q`-quantile of every window `width` seconds wide that holds
    /// at least ten samples beyond that quantile, in order.
    pub fn window_quantiles(&self, q: f64, width: f64) -> Vec<f64> {
        let min_samples = (10.0 / (1.0 - q)).round() as usize;
        windows(self.samples.iter().copied(), self.secs, width)
            .iter()
            .filter(|w| w.len() >= min_samples)
            .map(|w| quantile(w, q))
            .collect()
    }
}

/// Paces one open-loop stream: slot `k` of `every` slots is due at
/// `start + (k * every + offset) / rate`. Sleeps until the due time and
/// returns it, or `None` once the stream's time is up.
struct Pacer {
    start: Instant,
    rate: f64,
    secs: f64,
    k: u64,
    every: u64,
    offset: u64,
    late_max_ms: f64,
}

impl Pacer {
    fn new(start: Instant, rate: f64, secs: f64, every: u64, offset: u64) -> Pacer {
        Pacer {
            start,
            rate,
            secs,
            k: 0,
            every,
            offset,
            late_max_ms: 0.0,
        }
    }

    fn next_due(&mut self) -> Option<Instant> {
        let at = (self.k * self.every + self.offset) as f64 / self.rate;
        if at >= self.secs {
            return None;
        }
        self.k += 1;
        let due = self.start + Duration::from_secs_f64(at);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        } else {
            self.late_max_ms = self.late_max_ms.max((now - due).as_secs_f64() * 1e3);
        }
        Some(due)
    }
}

/// A fixed-rate stream of single-edge inserts over one HTTP connection.
pub struct InsertPlan<'a> {
    pub edges: &'a [(VertexId, VertexId)],
    /// Inserts per second.
    pub rate: f64,
}

/// Outcome of an insert stream.
#[derive(Default)]
pub struct Inserts {
    /// Latency per insert, µs (from the due time when paced).
    pub lat_us: Vec<f64>,
    /// Edges the daemon acknowledged, in order.
    pub applied: Vec<(VertexId, VertexId)>,
    pub late_max_ms: f64,
    pub tally: Tally,
}

/// Queries at `rate` requests/s over `conns` connections for `secs`
/// seconds, plus (optionally) a concurrent insert stream.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    addr: &str,
    src: &Source,
    expect: &Expect,
    conns: usize,
    rate: f64,
    secs: f64,
    seed: u64,
    inserts: Option<InsertPlan>,
    tracer: &mut Tracer,
) -> (Open, Inserts) {
    let start = Instant::now() + Duration::from_millis(5);
    let (queries, ins) = std::thread::scope(|scope| {
        let writer = inserts.map(|plan| {
            let mut tr = tracer.fork(conns as u32 + 1);
            scope.spawn(move || {
                let pacer = Pacer::new(start, plan.rate, secs, 1, 0);
                (insert_stream(addr, plan.edges, pacer, &mut tr), tr)
            })
        });
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mut tr = tracer.fork(c as u32 + 1);
                scope.spawn(move || {
                    let mut pacer = Pacer::new(start, rate, secs, conns as u64, c as u64);
                    let mut conn = Conn { addr, client: None };
                    let mut rng = Rng::stream(seed, 0x0BE2 + c as u64);
                    let mut bufs = (Vec::new(), Vec::new());
                    let mut out = Open {
                        seen: expect.seen_buffer(),
                        ..Open::default()
                    };
                    while let Some(due) = pacer.next_due() {
                        let ok = one_request(
                            &mut conn,
                            src,
                            expect,
                            &mut rng,
                            &mut bufs,
                            &mut out.seen,
                            &mut tr,
                        );
                        out.samples.push((
                            (due - start).as_secs_f64(),
                            due.elapsed().as_secs_f64() * 1e6,
                        ));
                        out.tally.record(ok);
                    }
                    out.late_max_ms = pacer.late_max_ms;
                    (out, tr)
                })
            })
            .collect();
        let queries: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("open-loop thread panicked"))
            .collect();
        let ins = writer.map(|h| h.join().expect("insert thread panicked"));
        (queries, ins)
    });
    let mut open = Open {
        secs,
        ..Open::default()
    };
    for (o, tr) in queries {
        open.absorb(o);
        tracer.join(tr);
    }
    let ins = match ins {
        Some((ins, tr)) => {
            tracer.join(tr);
            ins
        }
        None => Inserts::default(),
    };
    (open, ins)
}

/// Sends `edges` one per `POST /insert` on one keep-alive connection,
/// paced by `pacer` and timed from each insert's due time.
fn insert_stream(
    addr: &str,
    edges: &[(VertexId, VertexId)],
    mut pacer: Pacer,
    tracer: &mut Tracer,
) -> Inserts {
    let mut out = Inserts::default();
    let mut conn = None;
    for &(u, v) in edges {
        let Some(t0) = pacer.next_due() else { break };
        let reply = tracer.span(INSERT_SPAN, |_| -> io::Result<bool> {
            let c = match &mut conn {
                Some(c) => c,
                None => conn.insert(HttpConn::connect(addr)?),
            };
            c.post_insert(u, v)
        });
        out.lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        match reply {
            Ok(true) => {
                out.applied.push((u, v));
                out.tally.record(true);
            }
            Ok(false) => {
                eprintln!("perfbench: insert ({u}, {v}) refused");
                out.tally.record(false);
            }
            Err(e) => {
                eprintln!("perfbench: insert ({u}, {v}) failed: {e}");
                out.tally.record(false);
                conn = None;
            }
        }
    }
    out.late_max_ms = pacer.late_max_ms;
    out
}

/// A minimal keep-alive HTTP/1.1 client for `POST /insert`.
struct HttpConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpConn {
    fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(HttpConn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Inserts one edge; `Ok(true)` iff the daemon answered 200.
    fn post_insert(&mut self, u: VertexId, v: VertexId) -> io::Result<bool> {
        let body = format!("{u} {v}\n");
        write!(
            self.writer,
            "POST /insert HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )?;
        self.writer.flush()?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status_ok = line.split_whitespace().nth(1) == Some("200");
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof in headers",
                ));
            }
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(status_ok && body.starts_with(b"applied"))
    }
}

/// One request on a fresh connection; `Ok(true)` iff every answer is
/// correct. Used to time daemon set-up up to its first correct answer.
pub fn first_answer(
    addr: &str,
    pairs: &[(VertexId, VertexId)],
    idx: &[u32],
    expect: &Expect,
) -> Result<bool, ClientError> {
    let answers = RemoteClient::connect(addr)?.query_batch(pairs)?;
    Ok(expect.check(idx, &answers, &mut expect.seen_buffer()))
}
