//! A minimal blocking HTTP client over `std::net::TcpStream`.
//!
//! Shared by the load generator, the integration tests and the CI smoke
//! job so none of them need an external HTTP tool. [`request`] speaks
//! the one-request-per-connection subset; [`HttpConnection`] holds a
//! keep-alive connection open and frames sequential responses through
//! the incremental [`ResponseParser`], reconnect-on-close left to the
//! caller.

use crate::http::{status_reason, ResponseParser};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Cap on response bodies the client will buffer.
const MAX_RESPONSE_BODY: usize = 16 * 1024 * 1024;

/// Socket deadlines for one request.
///
/// The zero-value of `std::net` timeouts is "block forever", which
/// turned every stalled or half-dead server into a hung client. These
/// defaults are deliberately finite; [`ClientTimeouts::unlimited`]
/// restores the old behaviour for debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientTimeouts {
    /// TCP connect deadline.
    pub connect: Duration,
    /// Per-`read` deadline while receiving the response.
    pub read: Duration,
    /// Per-`write` deadline while sending the request.
    pub write: Duration,
}

impl Default for ClientTimeouts {
    fn default() -> Self {
        Self {
            connect: Duration::from_secs(10),
            read: Duration::from_secs(120),
            write: Duration::from_secs(30),
        }
    }
}

impl ClientTimeouts {
    /// No deadlines at all: every socket operation may block forever.
    pub fn unlimited() -> Self {
        Self { connect: Duration::ZERO, read: Duration::ZERO, write: Duration::ZERO }
    }
}

/// Maps a transport error to [`io::ErrorKind::TimedOut`] when it is a
/// socket deadline expiring, annotated with which phase stalled.
///
/// Linux reports an expired `SO_RCVTIMEO` as `WouldBlock`; other
/// platforms use `TimedOut`. Callers should only ever see the latter.
fn timeout_error(phase: &str, e: io::Error) -> io::Error {
    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) {
        io::Error::new(io::ErrorKind::TimedOut, format!("{phase} timed out: {e}"))
    } else {
        e
    }
}

/// One parsed HTTP response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// The status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
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

    /// `true` when the server announced it will close the connection
    /// after this response (keep-alive cap reached, or shutdown).
    pub fn closes_connection(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Performs one request against `addr` and reads the full response,
/// using the default [`ClientTimeouts`].
///
/// # Errors
///
/// Propagates connection and transport failures, reports malformed
/// responses as [`io::ErrorKind::InvalidData`], and expired socket
/// deadlines as [`io::ErrorKind::TimedOut`].
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<HttpResponse> {
    request_with(addr, method, path, body, ClientTimeouts::default())
}

/// [`request`] with explicit socket deadlines.
///
/// # Errors
///
/// As [`request`].
pub fn request_with(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeouts: ClientTimeouts,
) -> io::Result<HttpResponse> {
    let mut stream = connect(addr, timeouts)?;
    // The whole request goes out in one write: fragments written one by
    // one to the socket would leave as separate segments, each waiting on
    // the peer's delayed ACK.
    let body = body.unwrap_or("");
    let wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(wire.as_bytes()).map_err(|e| timeout_error("request write", e))?;
    read_response(&mut stream, &mut ResponseParser::new(MAX_RESPONSE_BODY))
}

/// Reads the next response off `stream` through `parser`, reading only
/// when the bytes already buffered hold no complete response.
fn read_response(stream: &mut TcpStream, parser: &mut ResponseParser) -> io::Result<HttpResponse> {
    let mut buf = [0u8; 16 * 1024];
    loop {
        if let Some(parsed) = parser.next_response()? {
            return Ok(HttpResponse {
                status: parsed.status,
                headers: parsed.headers,
                body: parsed.body,
            });
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection before the response completed",
                ))
            }
            Ok(n) => parser.feed(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(timeout_error("response read", e)),
        }
    }
}

/// Resolves `addr`, connects within the configured deadline and turns
/// Nagle's algorithm off: every request is one write, and holding it back
/// for an ACK only adds latency.
fn connect(addr: &str, timeouts: ClientTimeouts) -> io::Result<TcpStream> {
    let stream = if timeouts.connect.is_zero() {
        TcpStream::connect(addr)?
    } else {
        let resolved = std::net::ToSocketAddrs::to_socket_addrs(addr)?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("no address for {addr:?}"))
        })?;
        TcpStream::connect_timeout(&resolved, timeouts.connect)
            .map_err(|e| timeout_error("connect", e))?
    };
    let optional = |d: Duration| if d.is_zero() { None } else { Some(d) };
    stream.set_read_timeout(optional(timeouts.read))?;
    stream.set_write_timeout(optional(timeouts.write))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// A persistent keep-alive connection: one TCP stream carrying many
/// sequential requests, each response framed by its `Content-Length`
/// through [`ResponseParser`].
///
/// The server may close the connection after its per-connection request
/// cap (the last response carries `Connection: close`) or an idle
/// timeout; the next [`HttpConnection::request`] then fails with
/// [`io::ErrorKind::UnexpectedEof`] / a transport error and the caller
/// reconnects. Check [`HttpResponse::closes_connection`] to reconnect
/// proactively.
#[derive(Debug)]
pub struct HttpConnection {
    addr: String,
    stream: TcpStream,
    parser: ResponseParser,
}

impl HttpConnection {
    /// Connects to `addr` with the given socket deadlines.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect_to(addr: impl Into<String>, timeouts: ClientTimeouts) -> io::Result<Self> {
        let addr = addr.into();
        let stream = connect(&addr, timeouts)?;
        Ok(Self { addr, stream, parser: ResponseParser::new(MAX_RESPONSE_BODY) })
    }

    /// Performs one request on the persistent connection and reads its
    /// response.
    ///
    /// # Errors
    ///
    /// Transport failures (including the server having closed the
    /// connection between requests, surfaced as
    /// [`io::ErrorKind::UnexpectedEof`]); malformed responses as
    /// [`io::ErrorKind::InvalidData`].
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<HttpResponse> {
        let body = body.unwrap_or("");
        // One buffer, one write (see `request_with`).
        let wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        self.stream.write_all(wire.as_bytes()).map_err(|e| timeout_error("request write", e))?;
        read_response(&mut self.stream, &mut self.parser)
    }
}

/// A convenience wrapper bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    timeouts: ClientTimeouts,
}

impl Client {
    /// A client for `addr` (`host:port`) with default timeouts.
    pub fn new(addr: impl Into<String>) -> Self {
        Self { addr: addr.into(), timeouts: ClientTimeouts::default() }
    }

    /// The same client with explicit socket deadlines.
    pub fn with_timeouts(mut self, timeouts: ClientTimeouts) -> Self {
        self.timeouts = timeouts;
        self
    }

    /// The server address this client targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The socket deadlines this client applies.
    pub fn timeouts(&self) -> ClientTimeouts {
        self.timeouts
    }

    /// Submits an attack job body to `POST /v1/attacks`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn submit(&self, job_json: &str) -> io::Result<HttpResponse> {
        request_with(&self.addr, "POST", "/v1/attacks", Some(job_json), self.timeouts)
    }

    /// Fetches `GET /v1/attacks/{id}`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn status(&self, id: &str) -> io::Result<HttpResponse> {
        request_with(&self.addr, "GET", &format!("/v1/attacks/{id}"), None, self.timeouts)
    }

    /// Fetches the stored result CSV via `GET /v1/attacks/{id}/csv`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn csv(&self, id: &str) -> io::Result<HttpResponse> {
        request_with(&self.addr, "GET", &format!("/v1/attacks/{id}/csv"), None, self.timeouts)
    }

    /// Fetches `GET /healthz`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn healthz(&self) -> io::Result<HttpResponse> {
        request_with(&self.addr, "GET", "/healthz", None, self.timeouts)
    }

    /// Fetches `GET /metrics`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn metrics(&self) -> io::Result<HttpResponse> {
        request_with(&self.addr, "GET", "/metrics", None, self.timeouts)
    }

    /// Follows `GET /v1/attacks/{id}/progress` until the stream ends,
    /// invoking `on_line` for every JSONL record as it arrives and
    /// returning the final status code. The read deadline applies per
    /// read, so a job that keeps producing generations can stream far
    /// longer than one `timeouts.read`.
    ///
    /// # Errors
    ///
    /// Transport failures, malformed chunked framing as
    /// [`io::ErrorKind::InvalidData`].
    pub fn progress(&self, id: &str, mut on_line: impl FnMut(&str)) -> io::Result<u16> {
        let mut stream = connect(&self.addr, self.timeouts)?;
        let wire = format!(
            "GET /v1/attacks/{id}/progress HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n\r\n",
            self.addr
        );
        stream.write_all(wire.as_bytes()).map_err(|e| timeout_error("request write", e))?;
        // A chunked head parses as a response with an empty body; any
        // other answer (a 404 on an unknown job) arrives whole, framed by
        // its Content-Length.
        let mut parser = ResponseParser::new(MAX_RESPONSE_BODY);
        let head = read_response(&mut stream, &mut parser)?;
        if !head.header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
            for line in String::from_utf8_lossy(&head.body).lines().filter(|l| !l.is_empty()) {
                on_line(line);
            }
            return Ok(head.status);
        }
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        // The first chunks may already sit in the parser's buffer; the
        // rest follow on the socket.
        let mut reader = BufReader::new(io::Cursor::new(parser.take_buffered()).chain(stream));
        // Decode chunks as they arrive so the callback observes the
        // stream live, carrying any partial line across chunks.
        let mut carry = String::new();
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line).map_err(|e| timeout_error("response read", e))?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|e| invalid(format!("bad chunk size {:?}: {e}", size_line.trim())))?;
            let mut payload = vec![0u8; size + 2]; // payload + trailing CRLF
            reader.read_exact(&mut payload).map_err(|e| timeout_error("response read", e))?;
            if size == 0 {
                break;
            }
            payload.truncate(size);
            let chunk = std::str::from_utf8(&payload)
                .map_err(|e| invalid(format!("non-UTF-8 progress chunk: {e}")))?;
            carry.push_str(chunk);
            while let Some(nl) = carry.find('\n') {
                let line: String = carry.drain(..=nl).collect();
                let line = line.trim_end();
                if !line.is_empty() {
                    on_line(line);
                }
            }
        }
        if !carry.trim_end().is_empty() {
            on_line(carry.trim_end());
        }
        Ok(head.status)
    }

    /// Polls `GET /v1/attacks/{id}` until the job leaves `queued` /
    /// `running`, waiting `interval` between polls up to `deadline`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::TimedOut`] when the deadline expires, plus any
    /// transport failure.
    pub fn wait(
        &self,
        id: &str,
        interval: Duration,
        deadline: Duration,
    ) -> io::Result<HttpResponse> {
        let start = std::time::Instant::now();
        loop {
            let response = self.status(id)?;
            let text = response.body_text().unwrap_or("");
            if response.status != 200
                || !(text.contains("\"queued\"") || text.contains("\"running\""))
            {
                return Ok(response);
            }
            if start.elapsed() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("job {id} still pending after {deadline:?}"),
                ));
            }
            std::thread::sleep(interval);
        }
    }
}

/// A descriptive string for a reason phrase lookup, used by loadgen's
/// summary output.
pub fn describe_status(code: u16) -> String {
    format!("{code} {}", status_reason(code))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Response;
    use std::net::TcpListener;

    #[test]
    fn read_timeout_surfaces_as_timed_out_instead_of_hanging() {
        // A server that accepts the connection and then says nothing.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let mute = std::thread::spawn(move || {
            // Hold the accepted socket open until the client gives up.
            let (stream, _) = listener.accept().expect("accept");
            std::thread::sleep(Duration::from_secs(2));
            drop(stream);
        });
        let timeouts = ClientTimeouts { read: Duration::from_millis(100), ..Default::default() };
        let started = std::time::Instant::now();
        let err = request_with(&addr, "GET", "/healthz", None, timeouts)
            .expect_err("a mute server must not produce a response");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(err.to_string().contains("response read"), "{err}");
        // The old behaviour was an unbounded block; prove the deadline
        // actually bounded the wait.
        assert!(started.elapsed() < Duration::from_secs(2), "{:?}", started.elapsed());
        mute.join().expect("mute server");
    }

    /// Answers one request on a loopback port with `pieces`, one write
    /// each, and returns the address to dial.
    fn canned_server(pieces: Vec<Vec<u8>>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).expect("nodelay");
            let mut head = Vec::new();
            let mut byte = [0u8; 1];
            while !head.ends_with(b"\r\n\r\n") {
                assert_eq!(stream.read(&mut byte).expect("request read"), 1, "request cut short");
                head.push(byte[0]);
            }
            for piece in pieces {
                stream.write_all(&piece).expect("response write");
            }
        });
        (addr, server)
    }

    #[test]
    fn progress_reads_the_same_stream_however_the_bytes_arrive() {
        use crate::http::{chunked_head, encode_chunk, final_chunk};
        // The second chunk ends mid-record; the third completes it.
        let head = chunked_head(200, "application/jsonl");
        let chunks = [
            encode_chunk(b"{\"type\":\"generation\",\"gen\":0}\n"),
            encode_chunk(b"{\"type\":\"generation\",\"gen\":1}\n{\"type\":\"gen"),
            encode_chunk(b"eration\",\"gen\":2}\n{\"type\":\"progress_end\"}\n"),
            final_chunk().to_vec(),
        ];
        let wire: Vec<u8> = head.iter().chain(chunks.iter().flatten()).copied().collect();
        let together = vec![[head.clone(), chunks[0].clone()].concat(), chunks[1..].concat()];
        let bytewise: Vec<Vec<u8>> = wire.iter().map(|&b| vec![b]).collect();

        let mut seen = Vec::new();
        for pieces in [together, bytewise] {
            let (addr, server) = canned_server(pieces);
            let mut lines = Vec::new();
            let status =
                Client::new(addr).progress("job-1", |line| lines.push(line.to_string())).unwrap();
            server.join().expect("canned server");
            seen.push((status, lines));
        }
        assert_eq!(seen[0], seen[1], "delivery must not change what the client reads");
        let (status, lines) = &seen[0];
        assert_eq!(*status, 200);
        assert_eq!(lines.len(), 4, "{lines:?}");
        assert_eq!(lines[2], "{\"type\":\"generation\",\"gen\":2}");

        // A plain error answer is delivered as its body's lines.
        let mut not_found = Vec::new();
        Response::json(404, "{\"error\":\"unknown job job-9\"}")
            .write_to(&mut not_found)
            .expect("encode 404");
        let (addr, server) = canned_server(not_found.iter().map(|&b| vec![b]).collect());
        let mut lines = Vec::new();
        let status = Client::new(addr).progress("job-9", |line| lines.push(line.to_string()));
        server.join().expect("canned server");
        assert_eq!(status.unwrap(), 404);
        assert_eq!(lines, vec!["{\"error\":\"unknown job job-9\"}".to_string()]);
    }

    #[test]
    fn client_timeouts_are_configurable_and_carried() {
        let custom = ClientTimeouts {
            connect: Duration::from_secs(1),
            read: Duration::from_secs(2),
            write: Duration::from_secs(3),
        };
        let client = Client::new("127.0.0.1:1").with_timeouts(custom);
        assert_eq!(client.timeouts(), custom);
        assert_eq!(ClientTimeouts::unlimited().read, Duration::ZERO);
    }
}
