//! Per-connection state for the event-driven server: a nonblocking
//! `TcpStream` plus the read buffer feeding [`crate::http::parse_request_bytes`]
//! and the write buffer holding not-yet-flushed response bytes.
//!
//! The state machine is deliberately small. A connection is either
//! *parsing* (reading bytes, yielding complete requests in arrival
//! order) or *busy* (one of its requests was dispatched to the worker
//! pool and its response hasn't been enqueued yet). While busy, the
//! event loop stops parsing — and stops *reading* — so pipelined
//! responses can never overtake their requests and a flood of pipelined
//! bytes can't balloon memory behind a slow computation. Everything
//! else (routing, deadlines policy, metrics) lives in the server; this
//! module only moves bytes.

use crate::http::{parse_request_bytes, HttpError, Parse, Request};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Cap on buffered-but-unparsed request bytes. One maximal request
/// (line + headers + body) always fits; a peer that pipelines far ahead
/// of our parsing simply stops being read until we catch up.
const MAX_INBUF: usize =
    crate::http::MAX_BODY_BYTES + (crate::http::MAX_HEADERS + 2) * crate::http::MAX_LINE_BYTES;

/// What a readiness-driven read pass observed.
#[derive(Debug, PartialEq, Eq)]
pub enum FillResult {
    /// New bytes landed in the buffer.
    Data,
    /// Orderly EOF from the peer.
    Eof,
    /// Nothing available right now (`WouldBlock` with no data).
    Idle,
}

/// One live client connection.
pub struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// How much of `outbuf` has already been written to the socket.
    out_pos: usize,
    /// When the first byte of the *current* partially-read request
    /// arrived — the anchor for the cumulative slowloris deadline.
    /// `None` between requests (an idle keep-alive peer is not on any
    /// clock).
    pub first_byte_at: Option<Instant>,
    /// A request from this connection is in flight in the worker pool;
    /// parsing (and reading) is paused until its response is enqueued.
    pub busy: bool,
    /// Close the socket once `outbuf` drains.
    pub close_after_flush: bool,
    /// The peer is gone (EOF/reset) — reap after any pending writes.
    pub dead: bool,
}

impl Conn {
    /// Wrap an accepted stream. The caller has already made it
    /// nonblocking.
    pub fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            out_pos: 0,
            first_byte_at: None,
            busy: false,
            close_after_flush: false,
            dead: false,
        }
    }

    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Should the poller watch this connection for readability?
    /// Not while busy (ordering + backpressure) and not once the input
    /// buffer is at capacity.
    pub fn wants_read(&self) -> bool {
        !self.busy && !self.close_after_flush && !self.dead && self.inbuf.len() < MAX_INBUF
    }

    /// Should the poller watch for writability? Only when a flush is
    /// actually pending — waking on an always-writable socket would
    /// spin the loop.
    pub fn wants_write(&self) -> bool {
        self.out_pos < self.outbuf.len()
    }

    /// Read whatever the socket has, up to the buffer cap. Returns
    /// `Data` if any bytes arrived this pass (even if EOF followed —
    /// the buffered bytes still get parsed; `dead` records the EOF).
    pub fn fill(&mut self) -> FillResult {
        let mut got = false;
        let mut chunk = [0u8; 16 * 1024];
        while self.inbuf.len() < MAX_INBUF {
            let room = (MAX_INBUF - self.inbuf.len()).min(chunk.len());
            match self.stream.read(&mut chunk[..room]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    if self.inbuf.is_empty() && self.first_byte_at.is_none() {
                        self.first_byte_at = Some(Instant::now());
                    }
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    got = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if got {
            FillResult::Data
        } else if self.dead {
            FillResult::Eof
        } else {
            FillResult::Idle
        }
    }

    /// Try to parse the next complete request off the buffer.
    ///
    /// * `Some(Ok(req))` — a full request; its bytes are consumed and
    ///   the slowloris clock is reset (re-armed if pipelined bytes
    ///   remain).
    /// * `Some(Err(e))` — the buffer can never parse (or the peer died
    ///   mid-request); answer and close.
    /// * `None` — need more bytes.
    ///
    /// Never called while `busy` — the server enforces that to keep
    /// pipelined responses in order.
    pub fn next_request(&mut self) -> Option<Result<Request, HttpError>> {
        debug_assert!(!self.busy);
        if self.inbuf.is_empty() {
            return None;
        }
        match parse_request_bytes(&self.inbuf) {
            Parse::Complete { req, consumed } => {
                self.inbuf.drain(..consumed);
                self.first_byte_at = if self.inbuf.is_empty() {
                    None
                } else {
                    // Pipelined bytes behind this request: their clock
                    // starts now.
                    Some(Instant::now())
                };
                Some(Ok(req))
            }
            Parse::Partial => {
                if self.dead {
                    // EOF with a half request buffered: a truncated
                    // request, answered 400 rather than dropped.
                    Some(Err(HttpError::Malformed("eof inside request".into())))
                } else {
                    None
                }
            }
            Parse::Bad(e) => Some(Err(e)),
        }
    }

    /// Queue response bytes for flushing.
    pub fn enqueue(&mut self, bytes: &[u8]) {
        self.outbuf.extend_from_slice(bytes);
    }

    /// Write as much pending output as the socket accepts. Returns
    /// `true` once the buffer is fully drained.
    pub fn flush(&mut self) -> bool {
        while self.out_pos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.out_pos >= self.outbuf.len() {
            self.outbuf.clear();
            self.out_pos = 0;
            true
        } else {
            false
        }
    }

    /// Is this connection finished (dead, or told to close and fully
    /// flushed)?
    pub fn reapable(&self) -> bool {
        self.dead || (self.close_after_flush && !self.wants_write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Duration;

    fn pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, Conn::new(server))
    }

    fn fill_until_data(conn: &mut Conn) {
        let t0 = Instant::now();
        loop {
            match conn.fill() {
                FillResult::Data | FillResult::Eof => return,
                FillResult::Idle => {
                    assert!(t0.elapsed() < Duration::from_secs(5), "no data arrived");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    #[test]
    fn parses_pipelined_requests_in_order() {
        let (mut client, mut conn) = pair();
        client
            .write_all(b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n")
            .unwrap();
        fill_until_data(&mut conn);
        let first = conn.next_request().unwrap().unwrap();
        assert_eq!(first.path(), "/healthz");
        let second = conn.next_request().unwrap().unwrap();
        assert_eq!(second.path(), "/metrics");
        assert!(conn.next_request().is_none());
        assert!(conn.first_byte_at.is_none(), "clock must disarm when idle");
    }

    #[test]
    fn partial_request_arms_the_slowloris_clock() {
        let (mut client, mut conn) = pair();
        client.write_all(b"GET /heal").unwrap();
        fill_until_data(&mut conn);
        assert!(conn.next_request().is_none());
        assert!(conn.first_byte_at.is_some(), "clock must arm on first byte");
        client.write_all(b"thz HTTP/1.1\r\n\r\n").unwrap();
        fill_until_data(&mut conn);
        let req = conn.next_request().unwrap().unwrap();
        assert_eq!(req.path(), "/healthz");
        assert!(conn.first_byte_at.is_none());
    }

    #[test]
    fn eof_mid_request_is_malformed() {
        let (mut client, mut conn) = pair();
        client
            .write_all(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort")
            .unwrap();
        drop(client);
        // Keep filling until the EOF lands.
        let t0 = Instant::now();
        while !conn.dead {
            conn.fill();
            assert!(t0.elapsed() < Duration::from_secs(5));
        }
        match conn.next_request() {
            Some(Err(HttpError::Malformed(_))) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn flush_drains_and_reports_completion() {
        let (mut client, mut conn) = pair();
        conn.enqueue(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok");
        assert!(conn.wants_write());
        assert!(conn.flush());
        assert!(!conn.wants_write());
        let mut buf = [0u8; 128];
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let n = client.read(&mut buf).unwrap();
        assert!(std::str::from_utf8(&buf[..n]).unwrap().ends_with("ok"));
    }

    #[test]
    fn busy_connection_stops_reading() {
        let (_client, mut conn) = pair();
        assert!(conn.wants_read());
        conn.busy = true;
        assert!(!conn.wants_read());
        conn.busy = false;
        conn.close_after_flush = true;
        assert!(!conn.wants_read());
        assert!(conn.reapable());
    }
}
