//! The load generator: a minimal HTTP/1.1 client that sends requests
//! either open-loop (on a schedule) or closed-loop (back to back).
//!
//! The open loop fires each request at its seeded due time whatever
//! happened to earlier ones, and times it from when it was due to its
//! last response byte, so a stall also charges the requests queued
//! behind it. At most `threads` client threads run, each holding at most
//! one connection. Every outcome is kept — non-200 responses, transport
//! errors and timeouts included — so the caller counts them against the
//! attempts.

use crate::trace::{Span, Tracer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Per-request read/write timeout; a request that hits it fails.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// Connection reuse policy of a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Persistent connections, reopened only when the server closes.
    KeepAlive,
    /// A new connection per request (`Connection: close`).
    Close,
}

/// Timeline of one request as the client saw it.
pub struct Exchange {
    /// HTTP status, 0 on a transport error or timeout.
    pub status: u16,
    pub body: Vec<u8>,
    /// Start of the exchange: connect start on a new connection, else
    /// the request write.
    pub start: Instant,
    /// End of connect (equals `start` on a reused connection).
    pub connected: Instant,
    pub first_byte: Instant,
    pub last_byte: Instant,
}

/// One client with at most one open connection.
pub struct Client {
    addr: SocketAddr,
    mode: Mode,
    conn: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    pub fn new(addr: SocketAddr, mode: Mode) -> Self {
        Client {
            addr,
            mode,
            conn: None,
            buf: Vec::with_capacity(8192),
        }
    }

    /// `POST /extract` with `body`; never panics, failures come back as
    /// status 0.
    pub fn post_extract(&mut self, body: &[u8]) -> Exchange {
        let start = Instant::now();
        let mut ex = Exchange {
            status: 0,
            body: Vec::new(),
            start,
            connected: start,
            first_byte: start,
            last_byte: start,
        };
        match self.exchange(body, &mut ex) {
            Ok(keep) => {
                if !keep || self.mode == Mode::Close {
                    self.conn = None;
                }
            }
            Err(_) => {
                self.conn = None;
                ex.status = 0;
                let now = Instant::now();
                ex.first_byte = ex.first_byte.max(ex.connected);
                ex.last_byte = now;
            }
        }
        ex
    }

    fn exchange(&mut self, body: &[u8], ex: &mut Exchange) -> std::io::Result<bool> {
        if self.conn.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, REQUEST_TIMEOUT)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(REQUEST_TIMEOUT))?;
            s.set_write_timeout(Some(REQUEST_TIMEOUT))?;
            self.conn = Some(s);
            ex.connected = Instant::now();
        }
        let stream = self.conn.as_mut().ok_or(std::io::ErrorKind::NotConnected)?;
        let close = if self.mode == Mode::Close {
            "Connection: close\r\n"
        } else {
            ""
        };
        let mut req = format!(
            "POST /extract HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n{close}Content-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        stream.write_all(&req)?;

        self.buf.clear();
        let mut chunk = [0u8; 8192];
        let mut first = true;
        let head_end = loop {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            if first {
                ex.first_byte = Instant::now();
                first = false;
            }
            self.buf.extend_from_slice(&chunk[..n]);
            if let Some(pos) = find(&self.buf, b"\r\n\r\n") {
                break pos + 4;
            }
            if self.buf.len() > 64 * 1024 {
                return Err(std::io::ErrorKind::InvalidData.into());
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or(std::io::ErrorKind::InvalidData)?;
        let mut len = None;
        let mut keep = true;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    len = value.parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    keep = !value.eq_ignore_ascii_case("close");
                }
            }
        }
        let len = len.ok_or(std::io::ErrorKind::InvalidData)?;
        let mut body_bytes = self.buf[head_end..].to_vec();
        while body_bytes.len() < len {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            body_bytes.extend_from_slice(&chunk[..n]);
        }
        if body_bytes.len() != len {
            return Err(std::io::ErrorKind::InvalidData.into());
        }
        ex.last_byte = Instant::now();
        ex.status = status;
        ex.body = body_bytes;
        Ok(keep)
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Outcome of one request of a run.
pub struct Sample {
    /// Index of the request body in the run's input list.
    pub idx: usize,
    pub status: u16,
    pub body: Vec<u8>,
    /// Due time (open loop) or start (closed loop) to last byte, seconds.
    pub latency_s: f64,
    /// How late the generator started the request, seconds.
    pub lateness_s: f64,
}

/// Drive an open loop: request `i` is due at `offsets[i]` seconds after
/// the start and carries `bodies[i]`. With `trace_origin` set, every
/// thread records the client-side split of each request; the spans come
/// back one list per thread.
pub fn open_loop(
    addr: SocketAddr,
    mode: Mode,
    bodies: &[Vec<u8>],
    offsets: &[f64],
    threads: usize,
    trace_origin: Option<Instant>,
) -> (Vec<Sample>, Vec<Vec<Span>>) {
    let next = AtomicUsize::new(0);
    let base = Instant::now();
    let (mut samples, spans): (Vec<Sample>, Vec<Vec<Span>>) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut tracer =
                        Tracer::new(trace_origin.unwrap_or(base), trace_origin.is_some());
                    let mut client = Client::new(addr, mode);
                    let mut samples = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= offsets.len() {
                            break;
                        }
                        let due = base + Duration::from_secs_f64(offsets[i]);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let ex = client.post_extract(&bodies[i]);
                        record_exchange(&mut tracer, i as u64, &ex);
                        samples.push(Sample {
                            idx: i,
                            status: ex.status,
                            latency_s: ex.last_byte.saturating_duration_since(due).as_secs_f64(),
                            lateness_s: ex.start.saturating_duration_since(due).as_secs_f64(),
                            body: ex.body,
                        });
                    }
                    (samples, tracer.into_spans())
                })
            })
            .collect();
        let mut all = Vec::with_capacity(offsets.len());
        let mut spans = Vec::new();
        for h in handles {
            let (samples, thread_spans) = h.join().expect("client thread panicked");
            all.extend(samples);
            spans.push(thread_spans);
        }
        (all, spans)
    });
    samples.sort_by_key(|s| s.idx);
    (samples, spans)
}

/// Client-side split of one exchange: a `client.request` root with
/// `client.connect`, `client.ttfb` (write to first byte) and
/// `client.body` (first to last byte) children.
fn record_exchange(tr: &mut Tracer, req: u64, ex: &Exchange) {
    let root = Some(tr.record(None, "client.request", req, ex.start, ex.last_byte));
    tr.record(root, "client.connect", req, ex.start, ex.connected);
    tr.record(root, "client.ttfb", req, ex.connected, ex.first_byte);
    tr.record(root, "client.body", req, ex.first_byte, ex.last_byte);
}

/// Drive a closed loop: each of `threads` clients sends its next
/// request as soon as the previous one completes, claiming bodies in
/// order until none are left. Returns the samples and the elapsed
/// seconds.
pub fn closed_loop(
    addr: SocketAddr,
    mode: Mode,
    bodies: &[Vec<u8>],
    threads: usize,
) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let base = Instant::now();
    let mut out: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut client = Client::new(addr, mode);
                    let mut samples = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(body) = bodies.get(i) else { break };
                        let ex = client.post_extract(body);
                        samples.push(Sample {
                            idx: i,
                            status: ex.status,
                            latency_s: ex
                                .last_byte
                                .saturating_duration_since(ex.start)
                                .as_secs_f64(),
                            lateness_s: 0.0,
                            body: ex.body,
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = base.elapsed().as_secs_f64();
    out.sort_by_key(|s| s.idx);
    (out, elapsed)
}
