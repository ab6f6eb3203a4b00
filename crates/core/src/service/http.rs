//! A minimal, hostile-input-hardened HTTP/1.1 request reader (std-only;
//! the offline dependency set has no hyper).
//!
//! The serving contract this enforces: a connection can be slow, truncated,
//! oversized, or garbage, and the outcome is always a structured
//! [`HttpError`] the server maps to a response (or a clean close) —
//! never a panic, never an unbounded buffer, never a handler wedged past its
//! request deadline. The head is read into one buffer of
//! [`Limits::max_head`] bytes, in as few `read` calls as the peer's segments
//! allow, so size caps ([`Limits`]) still bound per-connection memory; one
//! deadline for head and body together bounds per-connection time;
//! everything else is plain parsing with explicit errors.

use std::io::Read;
use std::net::TcpStream;
use std::time::{Duration, Instant};

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
/// outcome — the server turns these into 4xx/408 responses or a close,
/// and its handler thread stays alive either way.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// The peer closed before sending a complete request (the common
    /// mid-request-disconnect chaos case).
    Closed,
    /// The bytes were not a well-formed HTTP/1.1 request.
    Malformed(String),
    /// Request line + headers did not end within [`Limits::max_head`]
    /// bytes.
    HeadTooLarge,
    /// Declared `Content-Length` exceeded [`Limits::max_body`].
    BodyTooLarge,
    /// The request deadline passed or a read timed out (slow-client
    /// protection).
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

/// A byte source whose read timeout can be changed between reads: the
/// server's socket, or an in-memory stand-in in tests.
pub trait Source: Read {
    /// Bounds every later `read` by `timeout`, which is never zero.
    fn set_read_timeout(&mut self, timeout: Duration) -> std::io::Result<()>;
}

impl Source for &TcpStream {
    fn set_read_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, Some(timeout))
    }
}

fn io_err(e: std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        std::io::ErrorKind::UnexpectedEof => HttpError::Closed,
        k => HttpError::Io(k),
    }
}

/// Reads one HTTP/1.1 request from `src` under `limits`, by `deadline`.
///
/// The head is read into one buffer of `limits.max_head` bytes and scanned
/// for the blank line that ends it, so a hostile peer can hold at most
/// `max_head` bytes of head, and a head that has not ended when the buffer
/// is full is [`HttpError::HeadTooLarge`]. Bytes that arrived after the
/// blank line are the start of the body. The declared `Content-Length` is
/// checked against `max_body` before any further byte is read, and bytes
/// past it are ignored. `Transfer-Encoding` is refused outright — the
/// service speaks only `Content-Length`, which keeps framing unambiguous.
///
/// The first read waits as long as the timeout `src` already has. Before
/// each later read the timeout is set to the time left until `deadline`,
/// and when none is left the request is [`HttpError::Timeout`]: head and
/// body together get one deadline, however the peer spaces its bytes. A
/// request that arrives in one segment costs one `read` and no timeout
/// change. With no deadline, every read keeps the timeout `src` has.
pub fn read_request(
    src: &mut impl Source,
    limits: Limits,
    deadline: Option<Instant>,
) -> Result<Request, HttpError> {
    let mut first = true;
    let mut read = |buf: &mut [u8]| -> Result<usize, HttpError> {
        loop {
            if !std::mem::replace(&mut first, false) {
                if let Some(deadline) = deadline {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(HttpError::Timeout);
                    }
                    src.set_read_timeout(left).map_err(io_err)?;
                }
            }
            match src.read(buf) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                r => return r.map_err(io_err),
            }
        }
    };

    let mut buf = vec![0u8; limits.max_head];
    let mut len = 0;
    let head_len = loop {
        if len == buf.len() {
            return Err(HttpError::HeadTooLarge);
        }
        let n = read(&mut buf[len..])?;
        if n == 0 {
            return if len == 0 {
                Err(HttpError::Closed)
            } else {
                Err(HttpError::Malformed("truncated head".to_string()))
            };
        }
        // The blank line may straddle two reads: rescan the last three bytes.
        let from = len.saturating_sub(3);
        len += n;
        if let Some(i) = buf[from..len].windows(4).position(|w| w == b"\r\n\r\n") {
            break from + i + 4;
        }
    };
    let head = std::str::from_utf8(&buf[..head_len])
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
    let early = (len - head_len).min(content_length);
    body[..early].copy_from_slice(&buf[head_len..head_len + early]);
    let mut filled = early;
    while filled < content_length {
        match read(&mut body[filled..])? {
            0 => return Err(HttpError::Closed),
            n => filled += n,
        }
    }
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
    use std::collections::VecDeque;

    /// An in-memory [`Source`] that hands out one segment per `read`, and
    /// records the reads and timeout changes it sees.
    struct Segments<'a> {
        segments: VecDeque<&'a [u8]>,
        reads: usize,
        timeouts: Vec<Duration>,
    }

    impl<'a> Segments<'a> {
        fn new(segments: impl IntoIterator<Item = &'a [u8]>) -> Self {
            Segments {
                segments: segments.into_iter().collect(),
                reads: 0,
                timeouts: Vec::new(),
            }
        }

        /// `bytes` in segments of at most `k` bytes.
        fn chunked(bytes: &'a [u8], k: usize) -> Self {
            Segments::new(bytes.chunks(k))
        }
    }

    impl Read for Segments<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let Some(seg) = self.segments.pop_front() else {
                return Ok(0);
            };
            let n = seg.len().min(buf.len());
            buf[..n].copy_from_slice(&seg[..n]);
            if n < seg.len() {
                self.segments.push_front(&seg[n..]);
            }
            Ok(n)
        }
    }

    impl Source for Segments<'_> {
        fn set_read_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
            self.timeouts.push(timeout);
            Ok(())
        }
    }

    /// Reads `bytes` in segments of at most k bytes for every k here, and
    /// checks that the segmentation does not change the result.
    fn read_with(bytes: &[u8], limits: Limits) -> Result<Request, HttpError> {
        let whole = read_request(&mut Segments::new([bytes]), limits, None);
        for k in [1, 2, 3, 7] {
            let chunked = read_request(&mut Segments::chunked(bytes, k), limits, None);
            assert_eq!(
                chunked, whole,
                "{k}-byte reads changed the result for {bytes:?}"
            );
        }
        whole
    }

    fn read(bytes: &[u8]) -> Result<Request, HttpError> {
        read_with(bytes, Limits::default())
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

        // Head and body in one segment: the body starts in the head buffer
        // and continues past it.
        let body = "x".repeat(3 * Limits::default().max_head);
        let raw = format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        assert_eq!(read(raw.as_bytes()).unwrap().body, body);

        // Bytes after the declared body are not part of it.
        let req = read(b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcdef").unwrap();
        assert_eq!(req.body, "abc");

        // The blank line split across two reads, at each point inside it.
        let raw = b"GET /x HTTP/1.1\r\nHost: x\r\n\r\n";
        for cut in raw.len() - 3..raw.len() {
            let (a, b) = raw.split_at(cut);
            let req = read_request(&mut Segments::new([a, b]), Limits::default(), None);
            assert_eq!(req.unwrap().path, "/x", "blank line cut at byte {cut}");
        }
    }

    #[test]
    fn malformed_and_hostile_inputs_are_structured_errors() {
        // Table of hostile connections: every row must be a structured
        // error — a panic or a hang here is a wedged handler in prod.
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
            read_with(huge_head.as_bytes(), limits),
            Err(HttpError::HeadTooLarge)
        );
        // A head of exactly `max_head` bytes fits; one byte more does not.
        let head = |len: usize| format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(len - 18));
        assert_eq!(head(64).len(), 64);
        assert!(read_with(head(64).as_bytes(), limits).is_ok());
        assert_eq!(
            read_with(head(65).as_bytes(), limits),
            Err(HttpError::HeadTooLarge)
        );
        // An oversized declared body is refused before reading any of it.
        let big = b"POST /x HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        assert_eq!(read_with(big, limits), Err(HttpError::BodyTooLarge));
    }

    #[test]
    fn later_reads_get_the_time_left_until_the_deadline() {
        let raw = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        let far = Some(Instant::now() + Duration::from_secs(60));
        // One segment: one read and no timeout change.
        let mut src = Segments::new([&raw[..]]);
        assert!(read_request(&mut src, Limits::default(), far).is_ok());
        assert_eq!((src.reads, src.timeouts.len()), (1, 0));
        // Seven-byte segments: every read after the first gets the time
        // left, which only shrinks.
        let mut src = Segments::chunked(raw, 7);
        assert!(read_request(&mut src, Limits::default(), far).is_ok());
        assert_eq!(src.timeouts.len(), src.reads - 1);
        assert!(src.timeouts.windows(2).all(|w| w[1] <= w[0]));
        assert!(src.timeouts[0] <= Duration::from_secs(60));
        // Past the deadline, the first read still happens and no later one.
        let mut src = Segments::chunked(raw, 7);
        assert_eq!(
            read_request(&mut src, Limits::default(), Some(Instant::now())),
            Err(HttpError::Timeout)
        );
        assert_eq!((src.reads, src.timeouts.len()), (1, 0));
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
