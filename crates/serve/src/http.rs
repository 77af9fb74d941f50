//! Minimal HTTP/1.1 framing for the event-driven server — just enough
//! for the advisory API: an incremental parser for request-line +
//! headers + `Content-Length` bodies over a byte buffer, and a writer
//! for fixed-length responses. No chunked encoding, no TLS.
//!
//! Limits are enforced on every prefix (not after the whole request
//! lands), so a hostile peer cannot balloon memory: 8 KiB request line,
//! 64 headers of 8 KiB each, 1 MiB body. Timeouts belong to the
//! connection layer ([`crate::conn`]), which knows when a request's
//! first byte arrived.

use std::io::Write;

pub const MAX_LINE_BYTES: usize = 8 * 1024;
pub const MAX_HEADERS: usize = 64;
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    /// Path including any query string, exactly as sent.
    pub target: String,
    /// Header names lowercased; values trimmed.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Path with any `?query` suffix removed.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`, or HTTP/1.0 semantics — we only
    /// speak 1.1, so just the header).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes are not an HTTP/1.1 request we accept; the message is
    /// safe to echo in a 400.
    Malformed(String),
    /// Structurally fine but over a size limit (413 for bodies).
    TooLarge(&'static str),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(what) => write!(f, "{what} too large"),
        }
    }
}

/// Result of attempting to parse one request out of a byte buffer:
/// the caller accumulates bytes as they arrive and re-parses from the
/// front.
#[derive(Debug)]
pub enum Parse {
    /// The buffer holds a prefix of a valid request; feed more bytes.
    Partial,
    /// One complete request; `consumed` bytes of the buffer belong to it
    /// (pipelined peers may have more requests behind it).
    Complete { req: Request, consumed: usize },
    /// The buffer can never become a valid request — the connection is
    /// done after the error response.
    Bad(HttpError),
}

/// Take one CRLF- (or LF-) terminated line starting at `*pos`, advancing
/// `*pos` past the terminator. `Ok(None)` means the line is still
/// incomplete — but the size limit is enforced even then, so an
/// unterminated flood fails fast instead of buffering forever.
fn take_line(buf: &[u8], pos: &mut usize) -> Result<Option<String>, HttpError> {
    let rest = &buf[*pos..];
    match rest.iter().position(|&b| b == b'\n') {
        Some(i) => {
            if i > MAX_LINE_BYTES {
                return Err(HttpError::TooLarge("header line"));
            }
            let mut line = &rest[..i];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            *pos += i + 1;
            match std::str::from_utf8(line) {
                Ok(s) => Ok(Some(s.to_string())),
                Err(_) => Err(HttpError::Malformed("non-UTF-8 header line".into())),
            }
        }
        None => {
            if rest.len() > MAX_LINE_BYTES {
                return Err(HttpError::TooLarge("header line"));
            }
            Ok(None)
        }
    }
}

/// Parse one request from the front of `buf` without consuming it.
/// Limits are checked against the partial prefix too, so a hostile peer
/// cannot balloon the buffer by never finishing a line. Timeouts are
/// not this function's concern: the connection layer tracks when the
/// first byte arrived and gives up on its own clock.
pub fn parse_request_bytes(buf: &[u8]) -> Parse {
    let mut pos = 0usize;
    macro_rules! line {
        () => {
            match take_line(buf, &mut pos) {
                Ok(Some(l)) => l,
                Ok(None) => return Parse::Partial,
                Err(e) => return Parse::Bad(e),
            }
        };
    }
    let request_line = line!();
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Parse::Bad(HttpError::Malformed(format!(
                "bad request line `{request_line}`"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Parse::Bad(HttpError::Malformed(format!("bad version `{version}`")));
    }
    let mut headers = Vec::new();
    loop {
        let l = line!();
        if l.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Parse::Bad(HttpError::TooLarge("header count"));
        }
        let Some((name, value)) = l.split_once(':') else {
            return Parse::Bad(HttpError::Malformed(format!("bad header `{l}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Parse::Bad(HttpError::Malformed(format!("bad content-length `{v}`"))),
        },
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Parse::Bad(HttpError::TooLarge("body"));
    }
    if buf.len() - pos < content_length {
        return Parse::Partial;
    }
    let body = buf[pos..pos + content_length].to_vec();
    Parse::Complete {
        req: Request {
            method: method.to_string(),
            target: target.to_string(),
            headers,
            body,
        },
        consumed: pos + content_length,
    }
}

/// Canonical reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Write one fixed-length response. `close` controls the `Connection`
/// header; the caller owns actually closing the stream.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        if close { "close" } else { "keep-alive" },
    );
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse `bytes` as everything the peer sent before hanging up: a
    /// request still `Partial` at EOF is truncated, the verdict
    /// [`crate::conn::Conn`] gives it.
    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        match parse_request_bytes(bytes) {
            Parse::Complete { req, .. } => Ok(req),
            Parse::Partial => Err(HttpError::Malformed("eof inside request".into())),
            Parse::Bad(e) => Err(e),
        }
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/v1/predict");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"{\"a\"");
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_get_without_body_and_query() {
        let req = parse(b"GET /metrics?x=1 HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/metrics");
        assert!(req.body.is_empty());
        assert!(req.wants_close());
    }

    #[test]
    fn tolerates_bare_lf_lines() {
        let req = parse(b"GET /healthz HTTP/1.1\nHost: y\n\n").unwrap();
        assert_eq!(req.path(), "/healthz");
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(
            parse(b"NOT_A_REQUEST\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/2\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nContent-Length: pony\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversize_body_declaration() {
        let req = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(req.as_bytes()),
            Err(HttpError::TooLarge("body"))
        ));
    }

    #[test]
    fn truncated_body_is_malformed() {
        // A peer that promises 10 bytes and hangs up after 5 sent a
        // *malformed request* (gets a 400), not an invisible I/O blip.
        let truncated = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(matches!(parse_request_bytes(truncated), Parse::Partial));
        assert!(matches!(
            parse(truncated),
            Err(HttpError::Malformed(m)) if m.contains("eof")
        ));
    }

    #[test]
    fn response_bytes_shape() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    /// Every proper prefix of an accepted request is `Partial`, and the
    /// whole buffer — alone or with a pipelined request behind it —
    /// parses to the same request with exactly its own bytes consumed.
    #[test]
    fn incremental_parse_matches_blocking_reader_at_every_split() {
        let corpus: &[&[u8]] = &[
            b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"",
            b"GET /metrics?x=1 HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET /healthz HTTP/1.1\nHost: y\n\n",
            b"POST /v1/search HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        ];
        for bytes in corpus {
            let whole = parse(bytes).unwrap();
            for split in 0..bytes.len() {
                assert!(
                    matches!(parse_request_bytes(&bytes[..split]), Parse::Partial),
                    "prefix of len {split} not Partial"
                );
            }
            let mut pipelined = bytes.to_vec();
            pipelined.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
            match parse_request_bytes(&pipelined) {
                Parse::Complete { req, consumed } => {
                    assert_eq!(consumed, bytes.len());
                    assert_eq!(req.method, whole.method);
                    assert_eq!(req.target, whole.target);
                    assert_eq!(req.headers, whole.headers);
                    assert_eq!(req.body, whole.body);
                }
                other => panic!("full buffer did not complete: {other:?}"),
            }
        }
    }

    #[test]
    fn incremental_parse_handles_pipelined_requests() {
        let bytes: &[u8] =
            b"GET /healthz HTTP/1.1\r\n\r\nPOST /v1/predict HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
        let Parse::Complete { req, consumed } = parse_request_bytes(bytes) else {
            panic!("first request incomplete");
        };
        assert_eq!(req.path(), "/healthz");
        let Parse::Complete { req, consumed: c2 } = parse_request_bytes(&bytes[consumed..]) else {
            panic!("second request incomplete");
        };
        assert_eq!(req.path(), "/v1/predict");
        assert_eq!(req.body, b"{}");
        assert_eq!(consumed + c2, bytes.len());
    }

    #[test]
    fn incremental_parse_enforces_limits_on_partial_prefixes() {
        // An unterminated request line past the limit fails *before* a
        // newline ever shows up.
        let flood = vec![b'A'; MAX_LINE_BYTES + 2];
        assert!(matches!(
            parse_request_bytes(&flood),
            Parse::Bad(HttpError::TooLarge("header line"))
        ));
        // Oversize declared body fails at the header, not after
        // buffering the body.
        let oversize = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse_request_bytes(oversize.as_bytes()),
            Parse::Bad(HttpError::TooLarge("body"))
        ));
        // Malformed verdicts come as soon as the bad line is complete.
        assert!(matches!(
            parse_request_bytes(b"NOT_A_REQUEST\r\n\r\n"),
            Parse::Bad(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_request_bytes(b"GET / HTTP/2\r\n\r\n"),
            Parse::Bad(HttpError::Malformed(_))
        ));
    }
}
