//! The event-driven connection front-end: one thread, thousands of
//! connections.
//!
//! The blocking front-end (`accept_loop`) spawns a thread per
//! connection, which caps concurrency at whatever the OS tolerates in
//! stacks. This module replaces it with a readiness loop over
//! [`bea_reactor::Poller`]: the listener and every connection are
//! non-blocking and registered with epoll; the loop sleeps until the
//! kernel reports readiness, drains whatever arrived through the
//! incremental [`RequestParser`], routes complete requests through the
//! *same* [`route`](crate::server) the blocking path uses, and flushes
//! responses as sockets accept them. Parsing, routing, admission
//! control and job execution are untouched — the reactor changes how
//! bytes move, never what they mean.
//!
//! Connection lifecycle: connections are **persistent**. A request
//! whose semantics allow keep-alive (HTTP/1.1 without
//! `Connection: close`, or HTTP/1.0 opting in) gets its response and
//! the connection re-arms for the next request; pipelined bursts are
//! answered in arrival order. The connection closes when the client
//! asks (`Connection: close` — any requests still buffered *behind*
//! that request go unanswered, per RFC 9112 §9.6), when the
//! per-connection request cap is reached (the final response
//! advertises `Connection: close`), when a parse error answers `400`,
//! or when the idle sweep finds it silent past the configured timeout.
//!
//! A progress request turns the connection into a **stream**: the
//! chunked response head is buffered immediately and the per-tick pump
//! appends one chunk per telemetry line as the job's
//! [`ProgressFeed`](crate::progress::ProgressFeed) grows, ending with
//! the terminating chunk when the feed finishes. Streams are terminal
//! on the connection (`Connection: close`), and a streaming connection
//! is exempt from the idle sweep while the job is merely quiet — it is
//! only dropped when the *client* stops reading (pending output stuck
//! past the idle timeout) or closes.

use crate::http::{chunked_head, encode_chunk, final_chunk, Request, RequestParser};
use crate::progress::ProgressFeed;
use crate::server::{error_response, route, Routed, Shared};
use bea_reactor::{Event, Interest, Poller, Token};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The listener's registration token; connections start at 1.
const LISTENER: Token = 0;

/// How long the loop sleeps when nothing is ready (also the idle-sweep
/// and stream-pump cadence).
const TICK: Duration = Duration::from_millis(500);

/// Per-read buffer size.
const READ_CHUNK: usize = 16 * 1024;

/// An in-flight progress stream on a connection.
struct ProgressStream {
    feed: Arc<ProgressFeed>,
    /// Lines of the feed already framed into `out`.
    cursor: usize,
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Pending response bytes (everything not yet accepted by the
    /// socket).
    out: Vec<u8>,
    /// Bytes of `out` already written.
    written: usize,
    /// No further requests will be answered; close once `out` (and any
    /// active stream) drains.
    closing: bool,
    /// The active progress stream, if this connection became one.
    progress: Option<ProgressStream>,
    /// Requests answered on this connection (keep-alive cap).
    served: usize,
    last_activity: Instant,
    /// The interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn pending_out(&self) -> bool {
        self.written < self.out.len()
    }

    /// The interest this connection wants: writable while output is
    /// pending; readable otherwise — persistent connections await the
    /// next request, streams watch for the client hanging up.
    fn wanted_interest(&self) -> Interest {
        if self.pending_out() {
            Interest::WRITABLE
        } else {
            Interest::READABLE
        }
    }

    /// Whether the connection still has work: not retired until every
    /// buffered byte is flushed and any stream has ended.
    fn live(&self) -> bool {
        self.progress.is_some() || !self.closing || self.pending_out()
    }
}

/// Runs the reactor until shutdown is requested. `listener` must
/// already be non-blocking.
pub(crate) fn run(listener: TcpListener, shared: Arc<Shared>, mut poller: Poller) {
    if let Err(e) = poller.register(listener.as_raw_fd(), LISTENER, Interest::READABLE) {
        // Registration failing means no connection will ever be seen;
        // surface it and bail rather than spin silently.
        eprintln!("reactor: registering the listener failed: {e}");
        return;
    }
    let mut conns: HashMap<Token, Conn> = HashMap::new();
    let mut next_token: Token = LISTENER + 1;
    let mut events: Vec<Event> = Vec::new();
    let mut last_sweep = Instant::now();

    loop {
        if shared.stop_requested.load(Ordering::SeqCst) {
            break;
        }
        if poller.wait(&mut events, Some(TICK)).is_err() {
            break;
        }
        let batch = std::mem::take(&mut events);
        for event in &batch {
            if event.token == LISTENER {
                accept_ready(&listener, &poller, &mut conns, &mut next_token);
                continue;
            }
            let Some(mut conn) = conns.remove(&event.token) else { continue };
            let keep = handle_event(&mut conn, event, &shared);
            if keep {
                settle(&poller, event.token, &mut conn);
                conns.insert(event.token, conn);
            } else {
                retire(&poller, &conn);
            }
        }
        events = batch;
        pump_streams(&poller, &mut conns);
        if last_sweep.elapsed() >= TICK {
            last_sweep = Instant::now();
            conns.retain(|_, conn| {
                // Streams are exempt while the job is quiet but the
                // client keeps reading; a stream whose output sits
                // unaccepted past the timeout has lost its reader.
                let idle = conn.last_activity.elapsed() >= shared.idle_timeout;
                let live =
                    if conn.progress.is_some() { !(idle && conn.pending_out()) } else { !idle };
                if !live {
                    retire(&poller, conn);
                }
                live
            });
        }
    }
    // Best-effort final drain so responses generated just before the
    // stop (e.g. the `POST /v1/shutdown` acknowledgement) reach their
    // clients, and open streams end with a clean terminating chunk.
    for conn in conns.values_mut() {
        if conn.progress.take().is_some() {
            conn.out.extend_from_slice(final_chunk());
        }
        let _ = flush(conn);
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
}

/// Accepts every pending connection (level-triggered: drain until
/// `WouldBlock`).
fn accept_ready(
    listener: &TcpListener,
    poller: &Poller,
    conns: &mut HashMap<Token, Conn>,
    next_token: &mut Token,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // Responses are flushed whole; Nagle would only hold the
                // tail of a large one back for the peer's ACK.
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                if poller.register(stream.as_raw_fd(), token, Interest::READABLE).is_err() {
                    continue;
                }
                conns.insert(
                    token,
                    Conn {
                        stream,
                        parser: RequestParser::new(bea_core::job::MAX_JOB_BODY_BYTES),
                        out: Vec::new(),
                        written: 0,
                        closing: false,
                        progress: None,
                        served: 0,
                        last_activity: Instant::now(),
                        interest: Interest::READABLE,
                    },
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Processes one readiness event. Returns `false` when the connection
/// is finished (or broken) and should be retired.
fn handle_event(conn: &mut Conn, event: &Event, shared: &Arc<Shared>) -> bool {
    conn.last_activity = Instant::now();
    if event.readable {
        match drain_reads(conn, shared) {
            Ok(open) => {
                if !open {
                    // EOF. A streaming client that went away takes its
                    // stream with it; a plain connection still gets any
                    // already-buffered responses delivered below.
                    if conn.progress.is_some() {
                        return false;
                    }
                    conn.closing = true;
                    if !conn.pending_out() {
                        return false;
                    }
                }
            }
            Err(_) => return false,
        }
    }
    if (event.writable || conn.pending_out()) && flush(conn).is_err() {
        return false;
    }
    if event.closed {
        // Error/hang-up: deliver anything already buffered, then drop.
        let _ = flush(conn);
        return false;
    }
    conn.live()
}

/// Reads until `WouldBlock` or EOF, feeding the parser and answering
/// every complete request (unless the connection already stopped
/// answering: closing, or turned into a stream). Returns `Ok(false)`
/// on EOF.
///
/// # Errors
///
/// Transport failures; the caller retires the connection.
fn drain_reads(conn: &mut Conn, shared: &Arc<Shared>) -> io::Result<bool> {
    let mut buf = [0u8; READ_CHUNK];
    let mut open = true;
    loop {
        match (&conn.stream).read(&mut buf) {
            Ok(0) => {
                open = false;
                break;
            }
            Ok(n) => conn.parser.feed(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    answer_parsed(conn, shared);
    Ok(open)
}

/// Answers every complete buffered request in arrival order, honouring
/// keep-alive semantics: stops answering once the connection is
/// closing (a `Connection: close` request mid-pipeline leaves the rest
/// unanswered) or a progress stream started.
fn answer_parsed(conn: &mut Conn, shared: &Arc<Shared>) {
    while !conn.closing && conn.progress.is_none() {
        match conn.parser.next_request() {
            Ok(Some(request)) => respond(conn, &request, shared),
            Ok(None) => break,
            Err(e) => {
                let started = Instant::now();
                let response = error_response(400, &e.to_string());
                let _ = response.write_to(&mut conn.out);
                shared.metrics.record_request("malformed", 400, started.elapsed());
                shared.log_request("?", "?", 400, started.elapsed());
                conn.closing = true;
                break;
            }
        }
    }
}

/// Routes one request and buffers its response, updating the
/// connection's keep-alive state.
fn respond(conn: &mut Conn, request: &Request, shared: &Arc<Shared>) {
    let started = Instant::now();
    conn.served += 1;
    let keep_alive = request.wants_keep_alive() && conn.served < shared.conn_requests_max;
    let (endpoint, routed) = route(request, shared);
    let status = match routed {
        Routed::Plain(response) => {
            let _ = response.write_to_with(&mut conn.out, keep_alive);
            if !keep_alive {
                conn.closing = true;
            }
            response.status
        }
        Routed::Progress(feed) => {
            // The stream is terminal on this connection whatever the
            // request's keep-alive preference said.
            conn.out.extend_from_slice(&chunked_head(200, "application/jsonl"));
            conn.progress = Some(ProgressStream { feed, cursor: 0 });
            conn.closing = true;
            200
        }
    };
    let elapsed = started.elapsed();
    shared.metrics.record_request(endpoint, status, elapsed);
    shared.log_request(&request.method, &request.path, status, elapsed);
}

/// Advances every active progress stream: frames newly available feed
/// lines as chunks, flushes, retires connections whose stream ended
/// (or whose socket broke).
fn pump_streams(poller: &Poller, conns: &mut HashMap<Token, Conn>) {
    let mut finished: Vec<Token> = Vec::new();
    for (&token, conn) in conns.iter_mut() {
        let Some(stream) = &mut conn.progress else { continue };
        let (lines, feed_done) = stream.feed.poll(stream.cursor);
        if !lines.is_empty() {
            stream.cursor += lines.len();
            for line in &lines {
                let mut payload = line.clone().into_bytes();
                payload.push(b'\n');
                conn.out.extend_from_slice(&encode_chunk(&payload));
            }
            conn.last_activity = Instant::now();
        }
        if feed_done {
            conn.out.extend_from_slice(final_chunk());
            conn.progress = None;
        }
        if flush(conn).is_err() || !conn.live() {
            finished.push(token);
        } else {
            settle(poller, token, conn);
        }
    }
    for token in finished {
        if let Some(conn) = conns.remove(&token) {
            retire(poller, &conn);
        }
    }
}

/// Writes pending output until the socket stops accepting.
///
/// # Errors
///
/// Transport failures; the caller retires the connection.
fn flush(conn: &mut Conn) -> io::Result<()> {
    while conn.pending_out() {
        match (&conn.stream).write(&conn.out[conn.written..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if !conn.pending_out() && conn.written > 0 {
        conn.out.clear();
        conn.written = 0;
    }
    Ok(())
}

/// Re-registers the connection's interest when it changed.
fn settle(poller: &Poller, token: Token, conn: &mut Conn) {
    let wanted = conn.wanted_interest();
    if wanted != conn.interest {
        conn.interest = wanted;
        let _ = poller.modify(conn.stream.as_raw_fd(), token, wanted);
    }
}

/// Deregisters and shuts a finished connection down.
fn retire(poller: &Poller, conn: &Conn) {
    let _ = poller.deregister(conn.stream.as_raw_fd());
    let _ = conn.stream.shutdown(Shutdown::Both);
}
