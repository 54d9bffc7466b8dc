//! Open-loop load over one keep-alive connection.
//!
//! A request is sent when it falls due, whether or not earlier replies have
//! arrived (it is pipelined behind them), and is timed from its due time, so
//! a stall on the server delays the measured latency of every request
//! queued behind it. The send lag (sent minus due) is kept per request: it
//! shows how far the generator itself fell behind its schedule.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use retia_json::Value;

use crate::http::{self, ResponseParser};

/// One scheduled request: encoded bytes and the offset it falls due at.
#[derive(Clone, Debug)]
pub struct Planned {
    /// Offset from the phase start.
    pub due: Duration,
    /// Encoded HTTP request.
    pub bytes: Vec<u8>,
}

impl Planned {
    /// A JSON `POST` due at `due`.
    pub fn post(due: Duration, path: &str, body: &Value) -> Planned {
        Planned { due, bytes: http::post_json(path, &body.to_string_compact()) }
    }
}

/// What happened to one planned request. Times are offsets from the phase
/// start.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// When it fell due.
    pub due: Duration,
    /// When its last byte was written.
    pub sent: Duration,
    /// When its reply was complete (`None`: no reply — an I/O failure).
    pub done: Option<Duration>,
    /// Reply status (0 without a reply).
    pub status: u16,
    /// Reply body.
    pub body: Vec<u8>,
}

impl Outcome {
    /// Latency from the due time, if a reply arrived.
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|d| d.saturating_sub(self.due))
    }

    /// How late the generator sent it.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// The reply parsed as JSON (for 2xx replies).
    pub fn json(&self) -> Option<Value> {
        let text = std::str::from_utf8(&self.body).ok()?;
        retia_json::parse(text).ok()
    }
}

/// Replays `plan` (ascending `due`) against `addr` from `start`, then waits
/// up to `drain` after the last due time for outstanding replies.
/// Requests without a reply keep status 0.
///
/// The calling thread writes each request when it falls due; a helper
/// thread reads the replies in order. (A socket read timeout is rounded to
/// the kernel tick, so one thread doing both would send up to a tick late.)
pub fn run_connection(
    addr: SocketAddr,
    start: Instant,
    plan: &[Planned],
    drain: Duration,
) -> Vec<Outcome> {
    let mut outcomes: Vec<Outcome> = plan
        .iter()
        .map(|p| Outcome { due: p.due, sent: p.due, done: None, status: 0, body: Vec::new() })
        .collect();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return outcomes;
    };
    // Pipelined small requests must not wait for Nagle's coalescing.
    let Ok(reader) = stream.set_nodelay(true).and_then(|()| stream.try_clone()) else {
        return outcomes;
    };
    let give_up = start + plan.last().map_or(Duration::ZERO, |p| p.due) + drain;
    let written = AtomicUsize::new(0);
    let replies = std::thread::scope(|s| {
        let replies = s.spawn(|| read_replies(reader, start, plan.len(), give_up, &written));
        for (i, p) in plan.iter().enumerate() {
            std::thread::sleep((start + p.due).saturating_duration_since(Instant::now()));
            // Announced before the write: the reply can beat this thread
            // back from `write_all`.
            written.store(i + 1, Ordering::Release);
            if stream.write_all(&p.bytes).is_err() {
                break;
            }
            outcomes[i].sent = start.elapsed();
        }
        replies.join().expect("reply reader panicked")
    });
    for (o, (done, resp)) in outcomes.iter_mut().zip(replies) {
        o.done = Some(done);
        o.status = resp.status;
        o.body = resp.body;
    }
    // Unblock the server side promptly; the reader is gone.
    let _ = stream.shutdown(std::net::Shutdown::Both);
    outcomes
}

/// Reads up to `expected` replies in order, stopping at `give_up` or when
/// the framing breaks. A reply is only accepted for a request already
/// written.
fn read_replies(
    mut stream: TcpStream,
    start: Instant,
    expected: usize,
    give_up: Instant,
    written: &AtomicUsize,
) -> Vec<(Duration, http::Response)> {
    let mut got = Vec::with_capacity(expected);
    let mut parser = ResponseParser::default();
    let mut buf = vec![0u8; 64 * 1024];
    if stream.set_read_timeout(Some(Duration::from_millis(50))).is_err() {
        return got;
    }
    while got.len() < expected && Instant::now() < give_up {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                parser.feed(&buf[..n]);
                let done = start.elapsed();
                loop {
                    match parser.next_response() {
                        Ok(Some(resp)) if got.len() < written.load(Ordering::Acquire) => {
                            got.push((done, resp));
                        }
                        Ok(None) => break,
                        // A reply nobody asked for, or a malformed head:
                        // the connection's framing is lost.
                        Ok(Some(_)) | Err(_) => return got,
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
    got
}

/// One request on a fresh connection, waiting for its reply.
pub fn request(addr: SocketAddr, bytes: &[u8]) -> Result<(u16, Value), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
    stream.write_all(bytes).map_err(|e| format!("write: {e}"))?;
    let mut parser = ResponseParser::default();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        if let Some(resp) = parser.next_response()? {
            let text = std::str::from_utf8(&resp.body).map_err(|e| e.to_string())?;
            let body = retia_json::parse(text).map_err(|e| format!("reply JSON: {e}"))?;
            return Ok((resp.status, body));
        }
        match stream.read(&mut buf) {
            Ok(0) => return Err("connection closed before the reply".to_string()),
            Ok(n) => parser.feed(&buf[..n]),
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}
