//! A TCP client that commits fault scenarios against a live server.
//!
//! Each [`FaultKind`](crate::plan::FaultKind) maps to one concrete
//! misbehavior on a real socket. The client then *classifies* what it
//! observed into a [`FaultOutcome`] and checks it against the kind's
//! documented guarantee. Crucially the client itself never panics on
//! I/O: a server that closes, resets, or refuses is an outcome to
//! classify, not a test-harness crash.
//!
//! [`Client`] is the well-behaved counterpart: a blocking keep-alive
//! HTTP/1.1 connection for the ordinary requests test suites and
//! benchmarks send around (or instead of) committed faults.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use hms_stats::rng::Rng;

use crate::plan::{FaultCase, FaultKind};

/// What the server observably did in response to a committed fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// A complete HTTP response with this status code.
    Status(u16),
    /// The connection was closed (EOF / reset) without a response —
    /// legitimate for faults where no response is owed.
    ConnectionClosed,
    /// The client abandoned the connection mid-fault by design
    /// (e.g. [`FaultKind::ResetMidRequest`]); nothing was read.
    Dropped,
    /// The server neither answered nor hung up within the client's
    /// read timeout. This is the hung-worker signature and satisfies
    /// no guarantee.
    TimedOut,
}

impl FaultOutcome {
    /// Does this outcome satisfy `kind`'s documented guarantee?
    /// (Process-level guarantees — no panic, no leaked worker — are
    /// checked by the caller probing `/healthz` afterwards.)
    pub fn satisfies(self, kind: FaultKind) -> bool {
        match kind {
            // The request-read deadline must end the trickle: either a
            // 408 made it out or the server just hung up.
            FaultKind::SlowlorisTrickle => {
                matches!(
                    self,
                    FaultOutcome::Status(408) | FaultOutcome::ConnectionClosed
                )
            }
            // A truncated body is a malformed request: 400, or a close
            // if the response raced our half-close.
            FaultKind::TruncateBody => matches!(
                self,
                FaultOutcome::Status(400 | 408) | FaultOutcome::ConnectionClosed
            ),
            FaultKind::ResetMidRequest => matches!(self, FaultOutcome::Dropped),
            FaultKind::OversizedBody => matches!(self, FaultOutcome::Status(413)),
            // Hostile JSON is a client error; semantically-wrong-shape
            // corpus documents may also legitimately earn a 404
            // (unknown kernel).
            FaultKind::MalformedJson => {
                matches!(self, FaultOutcome::Status(s) if (400..500).contains(&s))
            }
        }
    }
}

/// Fault-committing client. One instance per target server.
#[derive(Debug, Clone)]
pub struct FaultClient {
    addr: SocketAddr,
    /// How long to wait for a response before declaring
    /// [`FaultOutcome::TimedOut`]. Must comfortably exceed the server's
    /// request-read deadline.
    pub read_timeout: Duration,
    /// Delay between slowloris trickle chunks. Pick it so the server's
    /// read deadline fires a few chunks in.
    pub trickle_delay: Duration,
}

impl FaultClient {
    pub fn new(addr: SocketAddr) -> FaultClient {
        FaultClient {
            addr,
            read_timeout: Duration::from_secs(10),
            trickle_delay: Duration::from_millis(50),
        }
    }

    /// Commit one fault case against `path` (the well-formed request
    /// body the fault corrupts is `good_body`) and classify the result.
    pub fn commit(&self, case: FaultCase, path: &str, good_body: &[u8]) -> FaultOutcome {
        let mut rng = Rng::seed_from_u64(case.seed);
        let Ok(stream) = TcpStream::connect(self.addr) else {
            return FaultOutcome::ConnectionClosed;
        };
        let _ = stream.set_read_timeout(Some(self.read_timeout));
        let _ = stream.set_nodelay(true);
        match case.kind {
            FaultKind::SlowlorisTrickle => self.slowloris(stream, &mut rng, path, good_body),
            FaultKind::TruncateBody => self.truncate_body(stream, &mut rng, path, good_body),
            FaultKind::ResetMidRequest => {
                // Send the headers promising a body, then vanish. The
                // explicit shutdown makes the disappearance immediate
                // rather than waiting on the OS to flush on drop.
                let mut s = stream;
                let _ = write!(
                    s,
                    "POST {path} HTTP/1.1\r\nhost: f\r\ncontent-length: {}\r\n\r\n",
                    good_body.len().max(1)
                );
                let _ = s.flush();
                let _ = s.shutdown(Shutdown::Both);
                FaultOutcome::Dropped
            }
            FaultKind::OversizedBody => {
                let mut s = stream;
                // Promise far more than any sane cap; send nothing. A
                // correct server rejects on the declared length alone.
                let declared = 2 * 1024 * 1024 + rng.gen_range(0u64..4096);
                let _ = write!(
                    s,
                    "POST {path} HTTP/1.1\r\nhost: f\r\ncontent-length: {declared}\r\n\r\n"
                );
                let _ = s.flush();
                read_outcome(s)
            }
            FaultKind::MalformedJson => {
                let mut s = stream;
                let corpus = crate::corpus::adversarial_json(case.seed, 8);
                let body = &corpus[rng.gen_range(0usize..corpus.len())];
                let _ = write!(
                    s,
                    "POST {path} HTTP/1.1\r\nhost: f\r\ncontent-length: {}\r\n\r\n",
                    body.len()
                );
                let _ = s.write_all(body);
                let _ = s.flush();
                read_outcome(s)
            }
        }
    }

    /// Drip the request a few bytes at a time until the server gives up
    /// (or, pathologically, until the whole request has dripped).
    fn slowloris(
        &self,
        mut stream: TcpStream,
        rng: &mut Rng,
        path: &str,
        good_body: &[u8],
    ) -> FaultOutcome {
        let mut request = format!(
            "POST {path} HTTP/1.1\r\nhost: f\r\ncontent-length: {}\r\n\r\n",
            good_body.len()
        )
        .into_bytes();
        request.extend_from_slice(good_body);
        let mut sent = 0;
        while sent < request.len() {
            let chunk = rng.gen_range(1usize..4).min(request.len() - sent);
            if stream.write_all(&request[sent..sent + chunk]).is_err() {
                // Server already gave up on us mid-trickle; see what it
                // said (a 408 may be buffered) or confirm the close.
                break;
            }
            let _ = stream.flush();
            sent += chunk;
            std::thread::sleep(self.trickle_delay);
        }
        read_outcome(stream)
    }

    /// Declare the full body length, send a strict prefix, half-close.
    fn truncate_body(
        &self,
        mut stream: TcpStream,
        rng: &mut Rng,
        path: &str,
        good_body: &[u8],
    ) -> FaultOutcome {
        let keep = rng.gen_range(0usize..good_body.len().max(1));
        let _ = write!(
            stream,
            "POST {path} HTTP/1.1\r\nhost: f\r\ncontent-length: {}\r\n\r\n",
            good_body.len().max(1)
        );
        let _ = stream.write_all(&good_body[..keep.min(good_body.len())]);
        let _ = stream.flush();
        // Half-close: the server sees EOF where body bytes were owed,
        // while our read side stays open for its 400.
        let _ = stream.shutdown(Shutdown::Write);
        read_outcome(stream)
    }
}

/// A blocking keep-alive HTTP/1.1 client connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `addr`. Reads time out after 60 s, so a hung server
    /// fails the caller instead of blocking it forever.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request and read its response: `(status, body)`.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Read the next response on the connection — including one the
    /// server sends unasked, like a 503 shed at accept.
    pub fn read_response(&mut self) -> io::Result<(u16, String)> {
        let (status, body) = read_response(&mut self.reader)?;
        let body = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
        Ok((status, body))
    }
}

/// Read one HTTP/1.1 response off a blocking `reader`: `(status, body)`.
/// The body is the `content-length` bytes after the headers (none when
/// the header is absent). The one response reader of [`Client`],
/// [`FaultClient`] and the serve benchmark's storm.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<(u16, Vec<u8>)> {
    let status = read_status(reader)?;
    Ok((status, read_body(reader)?))
}

/// The status code of a response's status line. A closed connection
/// reads as `UnexpectedEof`, a line without a code as `InvalidData`.
fn read_status(reader: &mut impl BufRead) -> io::Result<u16> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparseable status line"))
}

/// The headers after the status line, then the `content-length` body.
/// The body grows as bytes arrive, so a lying length costs a short read,
/// not an allocation of the declared size.
fn read_body(reader: &mut impl BufRead) -> io::Result<Vec<u8>> {
    let mut content_length = 0u64;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
        }
    }
    let mut body = Vec::new();
    reader.take(content_length).read_to_end(&mut body)?;
    if (body.len() as u64) < content_length {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(body)
}

/// Read and classify whatever the server sends next on `stream`: a
/// parseable status line is a [`FaultOutcome::Status`] (the rest of the
/// response is drained, whatever state it is in); a timeout is
/// [`FaultOutcome::TimedOut`]; anything else is
/// [`FaultOutcome::ConnectionClosed`].
fn read_outcome(stream: TcpStream) -> FaultOutcome {
    let mut reader = BufReader::new(stream);
    match read_status(&mut reader) {
        Ok(status) => {
            let _ = read_body(&mut reader);
            FaultOutcome::Status(status)
        }
        Err(e) => match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FaultOutcome::TimedOut,
            _ => FaultOutcome::ConnectionClosed,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarantees_match_the_documented_matrix() {
        use FaultKind::*;
        use FaultOutcome::*;
        assert!(Status(408).satisfies(SlowlorisTrickle));
        assert!(ConnectionClosed.satisfies(SlowlorisTrickle));
        assert!(!TimedOut.satisfies(SlowlorisTrickle));
        assert!(Status(400).satisfies(TruncateBody));
        assert!(!Status(200).satisfies(TruncateBody));
        assert!(Dropped.satisfies(ResetMidRequest));
        assert!(Status(413).satisfies(OversizedBody));
        assert!(!Status(400).satisfies(OversizedBody));
        assert!(Status(404).satisfies(MalformedJson));
        assert!(!Status(500).satisfies(MalformedJson));
        assert!(!TimedOut.satisfies(MalformedJson));
    }

    #[test]
    fn read_response_takes_status_and_content_length_body() {
        let read = |bytes: &[u8]| read_response(&mut &bytes[..]);
        let (status, body) =
            read(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\nx: y\r\n\r\nbodyNEXT").unwrap();
        assert_eq!((status, &body[..]), (200, &b"body"[..]));
        assert_eq!(
            read(b"HTTP/1.1 204 No Content\r\n\r\n").unwrap(),
            (204, vec![])
        );
        let kind = |bytes: &[u8]| read(bytes).unwrap_err().kind();
        assert_eq!(kind(b""), io::ErrorKind::UnexpectedEof);
        assert_eq!(kind(b"garbage\r\n\r\n"), io::ErrorKind::InvalidData);
        assert_eq!(
            kind(b"HTTP/1.1 200 OK\r\ncontent-length: x\r\n\r\n"),
            io::ErrorKind::InvalidData
        );
        assert_eq!(
            kind(b"HTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\nshort"),
            io::ErrorKind::UnexpectedEof
        );
        assert_eq!(
            kind(b"HTTP/1.1 200 OK\r\ncontent-le"),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn client_classifies_a_dead_server_as_closed() {
        // Bind-then-drop guarantees a port with no listener.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let client = FaultClient::new(addr);
        let case = FaultCase {
            kind: FaultKind::MalformedJson,
            seed: 1,
        };
        assert_eq!(
            client.commit(case, "/v1/predict", b"{}"),
            FaultOutcome::ConnectionClosed
        );
    }
}
