//! A client for the daemon's framed binary protocol.
//!
//! [`RemoteClient`] keeps one TCP connection open and issues batch after
//! batch over it (the protocol is request/response, so a client is not
//! `Sync` — open one per thread for parallel load). `pspc query
//! --remote` and the `perfbench` load generator both drive this type.

use crate::proto::{self, Response};
use pspc_graph::SpcAnswer;
use std::io::{self, BufReader};
use std::net::TcpStream;

/// Failure modes of a remote batch query or edge insertion.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure.
    Io(io::Error),
    /// The daemon shed the request (admission control, or a batch that
    /// failed in a worker); retry later.
    Rejected(String),
    /// The daemon refused the request as malformed.
    BadRequest(String),
    /// An insert hit a non-dynamic index.
    Conflict(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Rejected(m) => write!(f, "server shed the request: {m}"),
            ClientError::BadRequest(m) => write!(f, "server rejected request: {m}"),
            ClientError::Conflict(m) => write!(f, "server refused insert: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One persistent binary-protocol connection to a daemon.
pub struct RemoteClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RemoteClient {
    /// Connects to `addr` (`host:port`).
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(RemoteClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Answers one batch; answers are index-aligned with `pairs`.
    pub fn query_batch(&mut self, pairs: &[(u32, u32)]) -> Result<Vec<SpcAnswer>, ClientError> {
        proto::write_request(&mut self.writer, pairs)?;
        self.read_answers()
    }

    /// Answers one batch, propagating a client-chosen trace ID (the
    /// `PSQ2` frame): the daemon stamps `trace_id` onto the request's
    /// span, so it appears verbatim in `GET /debug/trace` and the
    /// structured log for cross-service correlation.
    pub fn query_batch_traced(
        &mut self,
        trace_id: u64,
        pairs: &[(u32, u32)],
    ) -> Result<Vec<SpcAnswer>, ClientError> {
        proto::write_request_traced(&mut self.writer, trace_id, pairs)?;
        self.read_answers()
    }

    fn read_answers(&mut self) -> Result<Vec<SpcAnswer>, ClientError> {
        match proto::read_response(&mut self.reader)? {
            Response::Answers(answers) => Ok(answers),
            Response::Applied(_) => Err(unexpected("insert acknowledgement to a query")),
            Response::Rejected(m) => Err(ClientError::Rejected(m)),
            Response::BadRequest(m) => Err(ClientError::BadRequest(m)),
            Response::Conflict(m) => Err(ClientError::Conflict(m)),
        }
    }

    /// Applies undirected edge insertions to a served **dynamic** index;
    /// returns how many edges were actually new. A non-dynamic index
    /// answers [`ClientError::Conflict`].
    pub fn insert_edges(&mut self, edges: &[(u32, u32)]) -> Result<u64, ClientError> {
        proto::write_insert(&mut self.writer, edges)?;
        match proto::read_response(&mut self.reader)? {
            Response::Applied(applied) => Ok(applied),
            Response::Answers(_) => Err(unexpected("answers to an insert")),
            Response::Rejected(m) => Err(ClientError::Rejected(m)),
            Response::BadRequest(m) => Err(ClientError::BadRequest(m)),
            Response::Conflict(m) => Err(ClientError::Conflict(m)),
        }
    }
}

fn unexpected(what: &str) -> ClientError {
    ClientError::Io(io::Error::new(
        io::ErrorKind::InvalidData,
        format!("protocol violation: server sent {what}"),
    ))
}

/// One-shot convenience: connect, answer one batch, close.
pub fn query_remote(addr: &str, pairs: &[(u32, u32)]) -> Result<Vec<SpcAnswer>, ClientError> {
    RemoteClient::connect(addr)?.query_batch(pairs)
}
