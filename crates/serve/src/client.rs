//! Minimal blocking line client for the serve protocol, plus a
//! [`RetryClient`] that reconnects and resends through connection
//! faults. Retrying is safe because selection is deterministic and the
//! server's fingerprint cache replays the stored payload: a request
//! answered twice is answered byte-identically, so a retry can never
//! observe a second, different result.

use std::io::{self, BufRead, BufReader, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{self, Request};

/// Hard cap on one response line. Responses carry full selection traces
/// and can be large, but a server that streams more than this without a
/// newline is broken (or garbling) — fail fast instead of buffering
/// without bound. Mirrors the server-side request-line cap.
pub const MAX_RESPONSE_LINE_BYTES: u64 = 16 * 1024 * 1024;

/// One connection to a running server: send a JSON line, read a JSON line.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:7878`).
    pub fn connect(addr: &str) -> io::Result<Self> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Connect with connect/read/write timeouts. `timeout_ms = None`
    /// blocks indefinitely, matching [`Client::connect`].
    pub fn connect_with_timeout(addr: &str, timeout_ms: Option<u64>) -> io::Result<Self> {
        let stream = match timeout_ms {
            None => TcpStream::connect(addr)?,
            Some(ms) => {
                let timeout = Duration::from_millis(ms.max(1));
                let target = addr
                    .to_socket_addrs()?
                    .next()
                    .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
                let stream = TcpStream::connect_timeout(&target, timeout)?;
                stream.set_read_timeout(Some(timeout))?;
                stream.set_write_timeout(Some(timeout))?;
                stream
            }
        };
        Self::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one raw request line.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        protocol::write_line(&mut self.writer, line)
    }

    /// Read one response line (without the trailing newline). Bounded:
    /// a line over [`MAX_RESPONSE_LINE_BYTES`] is an error, not an
    /// unbounded allocation.
    pub fn recv_line(&mut self) -> io::Result<String> {
        let mut raw = Vec::new();
        let n = (&mut self.reader)
            .take(MAX_RESPONSE_LINE_BYTES + 1)
            .read_until(b'\n', &mut raw)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        if raw.last() != Some(&b'\n') {
            let kind = if raw.len() as u64 > MAX_RESPONSE_LINE_BYTES {
                io::ErrorKind::InvalidData
            } else {
                // EOF mid-line: a severed or half-written response.
                io::ErrorKind::UnexpectedEof
            };
            return Err(io::Error::new(kind, "truncated or oversized response line"));
        }
        let mut line = String::from_utf8(raw).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "response is not valid UTF-8")
        })?;
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Send a raw line and wait for its response.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        self.send_line(line)?;
        self.recv_line()
    }

    /// Serialize and send a [`Request`], waiting for its response.
    pub fn request(&mut self, req: &Request) -> io::Result<String> {
        let line = serde_json::to_string(req)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        self.roundtrip(&line)
    }

    /// Scrape the live OpenMetrics exposition (`{"op":"metrics"}`),
    /// returning the decoded text.
    pub fn scrape(&mut self, id: u64) -> io::Result<String> {
        let line = self.request(&Request::control(id, "metrics"))?;
        crate::protocol::extract_exposition(&line).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response carried no exposition: {line}"),
            )
        })
    }
}

/// How a [`RetryClient`] behaves across connection faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries *after* the first attempt (0 = fail on first fault).
    pub retries: u32,
    /// Fixed sleep between attempts, in milliseconds.
    pub backoff_ms: u64,
    /// Connect/read/write timeout per attempt; `None` blocks.
    pub timeout_ms: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 0,
            backoff_ms: 50,
            timeout_ms: None,
        }
    }
}

/// A client that survives severed, stalled, or garbled connections by
/// reconnecting and resending. A response that is not a valid protocol
/// envelope (garbage bytes, truncation) counts as a fault and is
/// retried, exactly like an I/O error.
#[derive(Debug)]
pub struct RetryClient {
    addr: String,
    policy: RetryPolicy,
    conn: Option<Client>,
}

impl RetryClient {
    /// Lazily-connecting retry client for `addr`.
    pub fn new(addr: &str, policy: RetryPolicy) -> Self {
        RetryClient {
            addr: addr.to_string(),
            policy,
            conn: None,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    fn conn(&mut self) -> io::Result<&mut Client> {
        if self.conn.is_none() {
            self.conn = Some(Client::connect_with_timeout(
                &self.addr,
                self.policy.timeout_ms,
            )?);
        }
        Ok(self.conn.as_mut().expect("connection was just established"))
    }

    /// Send `line` and return a structurally valid response envelope,
    /// reconnecting and resending on any fault, up to the policy's
    /// attempt budget. Returns the last error once the budget is spent.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        let attempts = self.policy.retries.saturating_add(1);
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..attempts {
            if attempt > 0 && self.policy.backoff_ms > 0 {
                std::thread::sleep(Duration::from_millis(self.policy.backoff_ms));
            }
            match self.try_once(line) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    // Whatever went wrong, the stream can no longer be
                    // trusted to be line-aligned: drop it and reconnect.
                    self.conn = None;
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("no attempts were made")))
    }

    fn try_once(&mut self, line: &str) -> io::Result<String> {
        let conn = self.conn()?;
        let resp = conn.roundtrip(line)?;
        if protocol::status_of(&resp).is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response is not a protocol envelope: {resp}"),
            ));
        }
        Ok(resp)
    }

    /// Serialize and send a [`Request`] through [`RetryClient::roundtrip`].
    pub fn request(&mut self, req: &Request) -> io::Result<String> {
        let line = serde_json::to_string(req)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        self.roundtrip(&line)
    }
}
