//! Hand-rolled HTTP/1.1 request parsing and response writing.
//!
//! The build environment has no registry access, so the serving layer
//! speaks the small, strict subset of HTTP/1.1 its endpoints need:
//! explicit `Content-Length` bodies and hard limits on line length,
//! header count and body size so a hostile peer cannot make the server
//! buffer without bound. Anything outside the subset is a parse error
//! the server maps to `400`.
//!
//! Parsing is *incremental*: [`RequestParser`] is fed whatever bytes the
//! transport produced — a whole pipelined burst or one byte at a time —
//! and yields complete requests as they materialise. Every connection
//! keeps one parser for its whole life — the blocking front-ends through
//! `RequestParser::read_request`, the reactor by feeding it directly —
//! so requests pipelined into one read are all served, in order, and the
//! caps behave identically no matter how reads are sliced.
//! [`ResponseParser`] is the mirror image for clients reading responses.

use std::io::{self, Read, Write};

/// Upper bound on the request line and on each header line, in bytes.
pub const MAX_LINE_BYTES: usize = 8 * 1024;
/// Upper bound on the number of request headers.
pub const MAX_HEADERS: usize = 64;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The method verb, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// The request target path, query string included.
    pub path: String,
    /// `true` for `HTTP/1.1` requests, `false` for `HTTP/1.0` — the two
    /// versions default to opposite connection persistence.
    pub http11: bool,
    /// Header `(name, value)` pairs in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Whether the client asked to keep the connection open after this
    /// request: HTTP/1.1 persists unless `Connection: close`, HTTP/1.0
    /// closes unless `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        let connection = self.header("connection").map(str::to_ascii_lowercase);
        if self.http11 {
            connection.as_deref() != Some("close")
        } else {
            connection.as_deref() == Some("keep-alive")
        }
    }
    /// The first value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == want).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// Reports non-UTF-8 bodies.
    pub fn body_text(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|e| format!("body is not UTF-8: {e}"))
    }
}

/// Head-parsing progress of a [`RequestParser`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseState {
    /// Waiting for (more of) the request or status line.
    StartLine,
    /// Start line parsed; collecting header lines.
    Headers,
    /// Head complete; the body is `need` bytes long.
    Body { need: usize },
    /// A grammar or caps violation was reported. Terminal: once a
    /// message is rejected the connection's framing is lost.
    Failed,
}

/// The incremental HTTP/1.1 message parser shared by the blocking and
/// reactor paths. See the [module docs](self).
///
/// Feed transport bytes with [`RequestParser::feed`] and drain complete
/// messages with [`RequestParser::next_request`]. Bytes beyond a
/// complete message are retained, so pipelined requests parse one at a
/// time in arrival order.
#[derive(Debug, Clone)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by completed parsing steps.
    consumed: usize,
    state: ParseState,
    max_body: usize,
    /// The message under construction (start line parsed, rest pending).
    method: String,
    path: String,
    http11: bool,
    headers: Vec<(String, String)>,
}

impl RequestParser {
    /// A parser accepting bodies up to `max_body` bytes.
    pub fn new(max_body: usize) -> Self {
        Self {
            buf: Vec::new(),
            consumed: 0,
            state: ParseState::StartLine,
            max_body,
            method: String::new(),
            path: String::new(),
            http11: true,
            headers: Vec::new(),
        }
    }

    /// Appends transport bytes. Feeding never fails — violations are
    /// reported by the next [`RequestParser::next_request`] call, which
    /// is where handlers look for them.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily: once consumed bytes dominate the buffer, shift
        // the live tail down so long-lived pipelined connections do not
        // grow it without bound.
        if self.consumed > 0 && self.consumed >= self.buf.len() / 2 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a parsed message.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Returns the next complete request, reading from `reader` only when
    /// the bytes already buffered hold none — the blocking front-end of
    /// this parser. Keep one parser per connection: bytes read past the
    /// end of one request stay buffered for the next call.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on malformed requests and exceeded
    /// limits, [`io::ErrorKind::UnexpectedEof`] when the peer closes
    /// before a complete request, plus any transport error.
    pub(crate) fn read_request<R: Read>(&mut self, reader: &mut R) -> io::Result<Request> {
        let mut chunk = [0u8; 8 * 1024];
        loop {
            if let Some(request) = self.next_request()? {
                return Ok(request);
            }
            match reader.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-request",
                    ))
                }
                Ok(n) => self.feed(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Takes the next complete line out of the buffer; `Ok(None)` means
    /// more bytes are needed (and the partial line is within caps).
    fn take_line(&mut self) -> io::Result<Option<String>> {
        let pending = &self.buf[self.consumed..];
        let Some(nl) = pending.iter().position(|&b| b == b'\n') else {
            if pending.len() > MAX_LINE_BYTES {
                return Err(invalid(format!("line exceeds {MAX_LINE_BYTES} bytes")));
            }
            return Ok(None);
        };
        let mut line = &pending[..nl];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        if line.len() > MAX_LINE_BYTES {
            return Err(invalid(format!("line exceeds {MAX_LINE_BYTES} bytes")));
        }
        let text = std::str::from_utf8(line)
            .map_err(|e| invalid(format!("non-UTF-8 line: {e}")))?
            .to_string();
        self.consumed += nl + 1;
        Ok(Some(text))
    }

    /// Advances the state machine as far as the buffered bytes allow and
    /// returns the next complete request, if one materialised.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on malformed requests and exceeded
    /// limits. Errors are terminal: the peer's framing can no longer be
    /// trusted, so callers drop the connection.
    pub fn next_request(&mut self) -> io::Result<Option<Request>> {
        match self.advance() {
            Err(e) => {
                self.state = ParseState::Failed;
                Err(e)
            }
            ok => ok,
        }
    }

    fn advance(&mut self) -> io::Result<Option<Request>> {
        loop {
            match self.state {
                ParseState::Failed => {
                    return Err(invalid("parser already failed on this connection".to_string()));
                }
                ParseState::StartLine => {
                    let Some(line) = self.take_line()? else { return Ok(None) };
                    let mut parts = line.split(' ');
                    let (method, path, version) =
                        match (parts.next(), parts.next(), parts.next(), parts.next()) {
                            (Some(m), Some(p), Some(v), None)
                                if !m.is_empty() && p.starts_with('/') =>
                            {
                                (m, p, v)
                            }
                            _ => return Err(invalid(format!("malformed request line {line:?}"))),
                        };
                    if version != "HTTP/1.1" && version != "HTTP/1.0" {
                        return Err(invalid(format!("unsupported protocol {version:?}")));
                    }
                    self.http11 = version == "HTTP/1.1";
                    self.method = method.to_string();
                    self.path = path.to_string();
                    self.headers.clear();
                    self.state = ParseState::Headers;
                }
                ParseState::Headers => {
                    let Some(line) = self.take_line()? else { return Ok(None) };
                    if !line.is_empty() {
                        if self.headers.len() >= MAX_HEADERS {
                            return Err(invalid(format!("more than {MAX_HEADERS} headers")));
                        }
                        let (name, value) = line
                            .split_once(':')
                            .ok_or_else(|| invalid(format!("malformed header {line:?}")))?;
                        self.headers
                            .push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
                        continue;
                    }
                    let need = content_length(&self.headers, self.max_body)?;
                    self.state = ParseState::Body { need };
                }
                ParseState::Body { need } => {
                    if self.buffered() < need {
                        return Ok(None);
                    }
                    let body = self.buf[self.consumed..self.consumed + need].to_vec();
                    self.consumed += need;
                    self.state = ParseState::StartLine;
                    return Ok(Some(Request {
                        method: std::mem::take(&mut self.method),
                        path: std::mem::take(&mut self.path),
                        http11: self.http11,
                        headers: std::mem::take(&mut self.headers),
                        body,
                    }));
                }
            }
        }
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Validates a parsed header block's `Content-Length` against the body
/// cap and returns the announced body size.
fn content_length(headers: &[(String, String)], max_body: usize) -> io::Result<usize> {
    let text = headers.iter().find(|(n, _)| n == "content-length").map(|(_, v)| v.as_str());
    let length = match text {
        None => 0,
        Some(text) => text
            .parse::<usize>()
            .map_err(|e| invalid(format!("bad Content-Length {text:?}: {e}")))?,
    };
    if length > max_body {
        return Err(invalid(format!("Content-Length {length} exceeds the {max_body}-byte limit")));
    }
    Ok(length)
}

/// One response parsed off the wire by [`ResponseParser`].
#[derive(Debug, Clone)]
pub struct ParsedResponse {
    /// The status code.
    pub status: u16,
    /// Header `(name, value)` pairs in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl ParsedResponse {
    /// The first value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == want).map(|(_, v)| v.as_str())
    }
}

/// Incremental HTTP/1.1 *response* parser for clients reading off
/// non-blocking sockets (the open-loop load generator). Shares the caps
/// and buffering behaviour of [`RequestParser`]; only the start-line
/// grammar differs.
#[derive(Debug, Clone)]
pub struct ResponseParser {
    status: Option<u16>,
    inner: RequestParser,
}

impl ResponseParser {
    /// A parser accepting bodies up to `max_body` bytes.
    pub fn new(max_body: usize) -> Self {
        Self { status: None, inner: RequestParser::new(max_body) }
    }

    /// Appends transport bytes (never fails; see
    /// [`RequestParser::feed`]).
    pub fn feed(&mut self, bytes: &[u8]) {
        self.inner.feed(bytes);
    }

    /// Returns the next complete response, if one materialised.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on malformed responses and
    /// exceeded limits; errors are terminal like the request parser's.
    pub fn next_response(&mut self) -> io::Result<Option<ParsedResponse>> {
        if self.inner.state == ParseState::Failed {
            return Err(invalid("parser already failed on this connection".to_string()));
        }
        if self.status.is_none() {
            let line = match self.inner.take_line() {
                Ok(Some(line)) => line,
                Ok(None) => return Ok(None),
                Err(e) => {
                    self.inner.state = ParseState::Failed;
                    return Err(e);
                }
            };
            let mut parts = line.splitn(3, ' ');
            let code = match (parts.next(), parts.next()) {
                (Some(v), Some(c)) if v.starts_with("HTTP/") => c,
                _ => {
                    self.inner.state = ParseState::Failed;
                    return Err(invalid(format!("malformed status line {line:?}")));
                }
            };
            let status = match code.parse::<u16>() {
                Ok(status) => status,
                Err(e) => {
                    self.inner.state = ParseState::Failed;
                    return Err(invalid(format!("bad status code {code:?}: {e}")));
                }
            };
            self.status = Some(status);
            // The remainder (headers + body) follows request grammar.
            self.inner.state = ParseState::Headers;
        }
        match self.inner.next_request()? {
            None => Ok(None),
            Some(message) => {
                let status = self.status.take().expect("status parsed before head completes");
                Ok(Some(ParsedResponse { status, headers: message.headers, body: message.body }))
            }
        }
    }

    /// Removes and returns the bytes buffered past the last parsed
    /// response: the start of a body this parser does not frame, such
    /// as a chunked stream after its head.
    pub(crate) fn take_buffered(&mut self) -> Vec<u8> {
        let rest = self.inner.buf.split_off(self.inner.consumed);
        self.inner.buf.clear();
        self.inner.consumed = 0;
        rest
    }
}

/// The reason phrase of the status codes this server emits.
pub fn status_reason(code: u16) -> &'static str {
    match code {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// One HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    /// An empty response with a status code.
    pub fn new(status: u16) -> Self {
        Self { status, headers: Vec::new(), body: Vec::new() }
    }

    /// A JSON response.
    pub fn json(status: u16, body: &str) -> Self {
        Self::new(status).with_body("application/json", body.as_bytes().to_vec())
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Sets the body and its content type.
    pub fn with_body(mut self, content_type: &str, body: Vec<u8>) -> Self {
        self.headers.retain(|(n, _)| !n.eq_ignore_ascii_case("content-type"));
        self.headers.push(("Content-Type".to_string(), content_type.to_string()));
        self.body = body;
        self
    }

    /// The body bytes.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Serialises the response (status line, headers, `Content-Length`,
    /// `Connection: close`, body) onto the wire.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        self.write_to_with(writer, false)
    }

    /// [`Response::write_to`] with an explicit connection decision:
    /// `keep_alive` advertises `Connection: keep-alive` so the peer may
    /// send another request on this socket, `false` advertises
    /// `Connection: close`. Framing is `Content-Length` either way.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn write_to_with<W: Write>(&self, writer: &mut W, keep_alive: bool) -> io::Result<()> {
        // Head and body leave in one write: fragments written one by one
        // to a socket go out as separate segments, and Nagle holds each
        // after the first until the peer's delayed ACK.
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, status_reason(self.status));
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!(
            "Content-Length: {}\r\nConnection: {}\r\n\r\n",
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        ));
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&self.body);
        writer.write_all(&wire)?;
        writer.flush()
    }
}

/// The head of a chunked streaming response (progress streams). No
/// `Content-Length` — the body is `Transfer-Encoding: chunked` and the
/// connection always closes once the stream ends, so a streaming
/// response is terminal on its connection.
pub fn chunked_head(status: u16, content_type: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
         Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        status_reason(status)
    )
    .into_bytes()
}

/// One chunk of a chunked body: hex length, CRLF, payload, CRLF. Empty
/// payloads are skipped entirely (a zero-length chunk would terminate
/// the stream).
pub fn encode_chunk(payload: &[u8]) -> Vec<u8> {
    if payload.is_empty() {
        return Vec::new();
    }
    let mut wire = format!("{:x}\r\n", payload.len()).into_bytes();
    wire.extend_from_slice(payload);
    wire.extend_from_slice(b"\r\n");
    wire
}

/// The terminating zero-length chunk of a chunked body.
pub fn final_chunk() -> &'static [u8] {
    b"0\r\n\r\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(mut raw: &[u8]) -> io::Result<Request> {
        RequestParser::new(1024).read_request(&mut raw)
    }

    #[test]
    fn pipelined_requests_in_one_read_are_all_returned() {
        let mut wire =
            &b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"[..];
        let mut parser = RequestParser::new(1024);
        assert_eq!(parser.read_request(&mut wire).unwrap().path, "/a");
        let second = parser.read_request(&mut wire).unwrap();
        assert_eq!((second.path.as_str(), second.body_text().unwrap()), ("/b", "hi"));
        let eof = parser.read_request(&mut wire).unwrap_err();
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn requests_parse_with_headers_and_body() {
        let raw = b"POST /v1/attacks HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let request = parse(raw).unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/attacks");
        assert_eq!(request.header("HOST"), Some("x"));
        assert_eq!(request.header("content-length"), Some("4"));
        assert_eq!(request.body_text().unwrap(), "body");
        // Bare-LF requests and bodiless GETs also parse.
        let request = parse(b"GET /healthz HTTP/1.0\n\n").unwrap();
        assert_eq!(request.method, "GET");
        assert!(request.body.is_empty());
    }

    #[test]
    fn malformed_requests_are_invalid_data() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET noslash HTTP/1.1\r\n\r\n",
            b"GET / SPDY/3\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-header\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ] {
            let err = parse(raw).expect_err(&format!("{raw:?}"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{raw:?}");
        }
    }

    #[test]
    fn limits_bound_bodies_lines_and_headers() {
        let announced = b"POST / HTTP/1.1\r\nContent-Length: 2048\r\n\r\n";
        let err = parse(announced).expect_err("over max_body");
        assert!(err.to_string().contains("exceeds"), "{err}");

        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES + 1));
        assert!(parse(long_line.as_bytes()).is_err());

        let mut many_headers = String::from("GET / HTTP/1.1\r\n");
        for k in 0..=MAX_HEADERS {
            many_headers.push_str(&format!("h{k}: v\r\n"));
        }
        many_headers.push_str("\r\n");
        assert!(parse(many_headers.as_bytes()).is_err());
    }

    #[test]
    fn responses_serialise_with_length_and_close() {
        let mut wire = Vec::new();
        Response::json(202, "{\"id\":\"job-1\"}")
            .with_header("Retry-After", "1")
            .write_to(&mut wire)
            .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 202 Accepted\r\n"), "{text}");
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 14\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"id\":\"job-1\"}"));
        assert_eq!(status_reason(429), "Too Many Requests");
        assert_eq!(status_reason(599), "Internal Server Error");
    }

    #[test]
    fn keep_alive_follows_version_defaults_and_connection_header() {
        let wants = |raw: &[u8]| parse(raw).unwrap().wants_keep_alive();
        assert!(wants(b"GET / HTTP/1.1\r\n\r\n"), "1.1 persists by default");
        assert!(!wants(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!wants(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n"), "case-insensitive");
        assert!(!wants(b"GET / HTTP/1.0\r\n\r\n"), "1.0 closes by default");
        assert!(wants(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
        let request = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!request.http11);
    }

    #[test]
    fn keep_alive_responses_advertise_persistence() {
        let mut wire = Vec::new();
        Response::json(200, "{}").write_to_with(&mut wire, true).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");
    }

    #[test]
    fn chunked_helpers_frame_a_stream() {
        let head = String::from_utf8(chunked_head(200, "application/jsonl")).unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert!(head.contains("Transfer-Encoding: chunked\r\n"), "{head}");
        assert!(head.contains("Connection: close\r\n"), "{head}");
        assert!(!head.contains("Content-Length"), "{head}");
        assert_eq!(encode_chunk(b"hello\n"), b"6\r\nhello\n\r\n");
        assert!(encode_chunk(b"").is_empty(), "empty payloads must not terminate the stream");
        assert_eq!(final_chunk(), b"0\r\n\r\n");
    }
}
