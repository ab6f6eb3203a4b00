//! A minimal, hostile-input-hardened HTTP/1.1 request reader (std-only;
//! the offline dependency set has no hyper).
//!
//! The serving contract this enforces: a connection can be slow, truncated,
//! oversized, or garbage, and the outcome is always a structured
//! [`HttpError`] the accept loop maps to a response (or a clean close) —
//! never a panic, never an unbounded buffer, never a worker wedged past its
//! socket read timeout. Size caps ([`Limits`]) bound per-connection memory;
//! read timeouts (set on the socket by the caller) bound per-connection
//! time; everything else is plain parsing with explicit errors.

use std::io::Read;

/// Per-connection input caps.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum bytes of request line + headers.
    pub max_head: usize,
    /// Maximum bytes of body (`Content-Length` above this is refused
    /// before any body byte is read).
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head: 8 * 1024,
            max_body: 256 * 1024,
        }
    }
}

/// Why a request could not be read. Every variant is a *structured*
/// outcome — the accept loop turns these into 4xx/408 responses or a
/// close, and stays alive either way.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// The peer closed before sending a complete request (the common
    /// mid-request-disconnect chaos case).
    Closed,
    /// The bytes were not a well-formed HTTP/1.1 request.
    Malformed(String),
    /// Request line + headers exceeded [`Limits::max_head`].
    HeadTooLarge,
    /// Declared `Content-Length` exceeded [`Limits::max_body`].
    BodyTooLarge,
    /// The socket read timeout fired (slow-client protection).
    Timeout,
    /// Any other I/O failure.
    Io(std::io::ErrorKind),
}

impl HttpError {
    /// The HTTP status code this error maps to, or `None` when the
    /// connection is not worth responding on (peer already gone).
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::Closed => None,
            HttpError::Malformed(_) => Some(400),
            HttpError::HeadTooLarge => Some(431),
            HttpError::BodyTooLarge => Some(413),
            HttpError::Timeout => Some(408),
            HttpError::Io(_) => None,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed mid-request"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::HeadTooLarge => write!(f, "request head too large"),
            HttpError::BodyTooLarge => write!(f, "request body too large"),
            HttpError::Timeout => write!(f, "read timed out"),
            HttpError::Io(k) => write!(f, "i/o error: {k:?}"),
        }
    }
}

/// One parsed request: just the triple the router needs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Request method (upper-case as sent).
    pub method: String,
    /// Request target path.
    pub path: String,
    /// Decoded UTF-8 body (empty when none was sent).
    pub body: String,
}

fn io_err(e: std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        std::io::ErrorKind::UnexpectedEof => HttpError::Closed,
        k => HttpError::Io(k),
    }
}

/// Reads one HTTP/1.1 request from `r` under `limits`.
///
/// The head is read byte-at-a-time up to `limits.max_head` (terminated by
/// the blank line), so a hostile peer can hold at most `max_head` bytes of
/// buffer; the body is read only after its declared length passes the cap.
/// `Transfer-Encoding` is refused outright — the service speaks only
/// `Content-Length`, which keeps framing unambiguous.
pub fn read_request(r: &mut impl Read, limits: Limits) -> Result<Request, HttpError> {
    let mut head: Vec<u8> = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => {
                return if head.is_empty() {
                    Err(HttpError::Closed)
                } else {
                    Err(HttpError::Malformed("truncated head".to_string()))
                };
            }
            Ok(_) => {
                head.push(byte[0]);
                if head.len() > limits.max_head {
                    return Err(HttpError::HeadTooLarge);
                }
                if head.ends_with(b"\r\n\r\n") {
                    break;
                }
            }
            Err(e) => return Err(io_err(e)),
        }
    }
    let head = std::str::from_utf8(&head)
        .map_err(|_| HttpError::Malformed("head is not UTF-8".to_string()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad version {version:?}")));
    }
    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header {line:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "transfer-encoding" {
            return Err(HttpError::Malformed(
                "transfer-encoding is not supported".to_string(),
            ));
        }
        if name == "content-length" {
            // RFC 9112 §6.3: a repeated header or a value that is not a bare
            // digit string (`usize::from_str` alone would take `+4`) is
            // ambiguous framing.
            if content_length.is_some() {
                return Err(HttpError::Malformed("repeated content-length".to_string()));
            }
            let bad = || HttpError::Malformed(format!("bad content-length {value:?}"));
            if !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(bad());
            }
            content_length = Some(value.parse().map_err(|_| bad())?);
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > limits.max_body {
        return Err(HttpError::BodyTooLarge);
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body).map_err(io_err)?;
    let body = String::from_utf8(body)
        .map_err(|_| HttpError::Malformed("body is not UTF-8".to_string()))?;
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
    })
}

/// Renders a complete `Connection: close` HTTP/1.1 response.
pub fn response_bytes(status: u16, body: &str) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut &bytes[..], Limits::default())
    }

    #[test]
    fn well_formed_requests_parse() {
        let req = read(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/healthz");
        assert_eq!(req.body, "");

        let req = read(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, "{\"a\"");
    }

    #[test]
    fn malformed_and_hostile_inputs_are_structured_errors() {
        // Table of hostile connections: every row must be a structured
        // error — a panic or a hang here is a wedged accept loop in prod.
        type Expect = fn(&HttpError) -> bool;
        let cases: &[(&[u8], Expect)] = &[
            (b"", |e| *e == HttpError::Closed),
            (b"GET", |e| matches!(e, HttpError::Malformed(_))),
            (b"GET /x HTTP/1.1\r\n", |e| {
                matches!(e, HttpError::Malformed(_))
            }),
            (b"\r\n\r\n", |e| matches!(e, HttpError::Malformed(_))),
            (b"GET nopath HTTP/1.1\r\n\r\n", |e| {
                matches!(e, HttpError::Malformed(_))
            }),
            (b"GET /x SMTP/9\r\n\r\n", |e| {
                matches!(e, HttpError::Malformed(_))
            }),
            (b"GET /x HTTP/1.1 extra\r\n\r\n", |e| {
                matches!(e, HttpError::Malformed(_))
            }),
            (b"GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n", |e| {
                matches!(e, HttpError::Malformed(_))
            }),
            (b"POST /x HTTP/1.1\r\nContent-Length: zz\r\n\r\n", |e| {
                matches!(e, HttpError::Malformed(_))
            }),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nabcd",
                |e| matches!(e, HttpError::Malformed(_)),
            ),
            (b"POST /x HTTP/1.1\r\nContent-Length: +4\r\n\r\nabcd", |e| {
                matches!(e, HttpError::Malformed(_))
            }),
            (
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                |e| matches!(e, HttpError::Malformed(_)),
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
                |e| *e == HttpError::Closed,
            ),
            (b"\xff\xfe /x HTTP/1.1\r\n\r\n", |e| {
                matches!(e, HttpError::Malformed(_))
            }),
        ];
        for (bytes, check) in cases {
            let err = read(bytes).expect_err("hostile input must not parse");
            assert!(check(&err), "unexpected error {err:?} for {bytes:?}");
        }
    }

    #[test]
    fn size_caps_bound_memory() {
        let limits = Limits {
            max_head: 64,
            max_body: 16,
        };
        let huge_head = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(100));
        assert_eq!(
            read_request(&mut huge_head.as_bytes(), limits),
            Err(HttpError::HeadTooLarge)
        );
        // An oversized declared body is refused before reading any of it.
        let big = b"POST /x HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        assert_eq!(
            read_request(&mut &big[..], limits),
            Err(HttpError::BodyTooLarge)
        );
    }

    #[test]
    fn error_status_mapping_is_total_for_respondable_errors() {
        assert_eq!(HttpError::Closed.status(), None);
        assert_eq!(HttpError::Malformed("x".into()).status(), Some(400));
        assert_eq!(HttpError::HeadTooLarge.status(), Some(431));
        assert_eq!(HttpError::BodyTooLarge.status(), Some(413));
        assert_eq!(HttpError::Timeout.status(), Some(408));
    }

    #[test]
    fn responses_are_well_formed() {
        let bytes = response_bytes(202, "{\"job\":1}");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 202 Accepted\r\n"));
        assert!(text.contains("Content-Length: 9\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"job\":1}"));
    }
}
