//! Load generator for the attack server: closed-loop client threads or
//! an open-loop epoll fan-out.
//!
//! ```text
//! # closed loop: 8 threads, 20 submissions each
//! cargo run --release -p bea-bench --bin loadgen -- \
//!     --addr 127.0.0.1:7878 --clients 8 --requests 20 \
//!     --csv target/experiments/loadgen.csv
//!
//! # open loop: 512 concurrent connections, 4096 total submissions
//! cargo run --release -p bea-bench --bin loadgen -- \
//!     --addr 127.0.0.1:7878 --conns 512 --total 4096 \
//!     --bench-out BENCH_serve.json --wait
//! ```
//!
//! In the default closed loop each client thread submits `--requests`
//! jobs back to back. A `429` is backpressure, not loss: the client
//! retries the same job with bounded exponential backoff (base
//! `Retry-After` or 100 ms, doubling per attempt, capped at 5 s, at most
//! [`MAX_SUBMIT_ATTEMPTS`] tries) and only counts the job rejected once
//! every attempt came back `429`. The run reports p50/p99 submit
//! latency, the acceptance/rejection split, and — with `--wait` — polls
//! every accepted job to completion so the tool doubles as an
//! end-to-end soak test. Per-request rows (final status plus how many
//! attempts it took) land in `--csv`.
//!
//! `--conns N` switches to the open loop: one thread multiplexes `N`
//! concurrent non-blocking connections through the same epoll
//! [`Poller`] the server's reactor uses, keeping `N` requests in flight
//! until `--total` submissions have been answered. `429`s are recorded,
//! not retried — the point is to measure the serving layer under a
//! fixed offered concurrency. With `--keepalive` each connection is
//! opened once and reused for its whole share of the submissions
//! (reconnecting transparently when the server's per-connection cap
//! closes it); without it every submission pays a fresh TCP + teardown,
//! which is the baseline the keep-alive speedup is measured against.
//! `--ramp-ms` staggers the initial connection ramp so a burst of
//! simultaneous first requests does not trip admission control before
//! the server has seen any traffic. Results (throughput, p50/p99
//! round-trip latency, the status split, the rejected-rate) merge into
//! the `--bench-out` run log keyed by `(quick, conns, keepalive)`, and
//! `--min-throughput` / `--max-p99-ms` turn the run into a CI gate.
//! `--compare-keepalive` drives both modes back to back against the
//! same server and `--min-keepalive-speedup` gates their throughput
//! ratio.

use bea_bench::args::{self, ArgParser};
use bea_serve::{percentile, Client};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[path = "../../benches/support/runlog.rs"]
mod runlog;

struct Options {
    addr: String,
    clients: usize,
    requests: usize,
    pop: usize,
    gens: usize,
    seed: u64,
    csv: Option<PathBuf>,
    wait: bool,
    conns: usize,
    total: usize,
    tenants: usize,
    bench_out: Option<String>,
    quick: bool,
    min_throughput: Option<f64>,
    max_p99_ms: Option<f64>,
    keepalive: bool,
    compare_keepalive: bool,
    min_keepalive_speedup: Option<f64>,
    ramp_ms: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        addr: "127.0.0.1:7878".to_string(),
        clients: 4,
        requests: 10,
        pop: 4,
        gens: 1,
        seed: 1,
        csv: None,
        wait: false,
        conns: 0,
        total: 0,
        tenants: 1,
        bench_out: None,
        quick: false,
        min_throughput: None,
        max_p99_ms: None,
        keepalive: false,
        compare_keepalive: false,
        min_keepalive_speedup: None,
        ramp_ms: 0,
    };
    let mut args = ArgParser::from_env();
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--addr" => options.addr = args.value(&flag)?,
            "--clients" => options.clients = args.parse(&flag)?,
            "--requests" => options.requests = args.parse(&flag)?,
            "--pop" => options.pop = args.parse(&flag)?,
            "--gens" => options.gens = args.parse(&flag)?,
            "--seed" => options.seed = args.parse(&flag)?,
            "--csv" => options.csv = Some(PathBuf::from(args.value(&flag)?)),
            "--wait" => options.wait = true,
            "--conns" => options.conns = args.parse(&flag)?,
            "--total" => options.total = args.parse(&flag)?,
            "--tenants" => options.tenants = args.parse(&flag)?,
            "--bench-out" => options.bench_out = Some(args.value(&flag)?),
            "--quick" => options.quick = true,
            "--min-throughput" => options.min_throughput = Some(args.parse(&flag)?),
            "--max-p99-ms" => options.max_p99_ms = Some(args.parse(&flag)?),
            "--keepalive" => options.keepalive = true,
            "--compare-keepalive" => options.compare_keepalive = true,
            "--min-keepalive-speedup" => options.min_keepalive_speedup = Some(args.parse(&flag)?),
            "--ramp-ms" => options.ramp_ms = args.parse(&flag)?,
            "--help" | "-h" => {
                return Err("usage: loadgen [--addr HOST:PORT] [--clients N] [--requests N] \
                            [--pop N] [--gens N] [--seed N] [--csv FILE] [--wait]\n\
                            \x20      loadgen --conns N [--total N] [--tenants N] \
                            [--keepalive] [--compare-keepalive] \
                            [--min-keepalive-speedup X] [--ramp-ms MS] \
                            [--bench-out FILE] [--quick] \
                            [--min-throughput RPS] [--max-p99-ms MS] [--wait]\n\
                            closed loop (default): each client thread submits --requests\n\
                            inline-image jobs back to back; 429s retry with backoff\n\
                            open loop (--conns): one epoll thread keeps N connections in\n\
                            flight until --total submissions (default 8xN) are answered;\n\
                            429s are recorded, not retried; --tenants spreads submissions\n\
                            over that many tenant names; --keepalive reuses each\n\
                            connection for its whole share of the submissions instead of\n\
                            one connection per request; --compare-keepalive runs the\n\
                            close-per-request baseline then the keep-alive run against\n\
                            the same server and --min-keepalive-speedup gates their\n\
                            throughput ratio; --ramp-ms spreads the initial connection\n\
                            ramp over that many milliseconds; --bench-out merges each\n\
                            run into a BENCH_serve.json run log keyed by\n\
                            (quick, conns, keepalive) and the\n\
                            --min-throughput/--max-p99-ms gates fail the process when\n\
                            violated\n\
                            --wait polls every accepted job to completion afterwards"
                    .into())
            }
            other => return Err(args::unknown_flag(other)),
        }
    }
    if options.conns == 0 && (options.clients == 0 || options.requests == 0) {
        return Err("--clients and --requests must be positive".into());
    }
    if options.tenants == 0 {
        return Err("--tenants must be positive".into());
    }
    if options.conns > 0 && options.total == 0 {
        options.total = options.conns * 8;
    }
    if (options.keepalive || options.compare_keepalive || options.min_keepalive_speedup.is_some())
        && options.conns == 0
    {
        return Err("--keepalive/--compare-keepalive need the open loop (--conns N)".into());
    }
    if options.min_keepalive_speedup.is_some() && !options.compare_keepalive {
        return Err("--min-keepalive-speedup needs --compare-keepalive".into());
    }
    Ok(options)
}

/// Most submit attempts per job before a `429` storm counts as a real
/// rejection.
const MAX_SUBMIT_ATTEMPTS: u32 = 5;

/// How long to sleep before retry number `attempt` (0-based) of a job
/// the server answered `429`: the advertised `Retry-After` (seconds)
/// when present, otherwise 100 ms, doubled per attempt and capped at
/// 5 s so a saturated server backs clients off without stranding them.
fn backoff_delay(attempt: u32, retry_after_secs: Option<u64>) -> Duration {
    const CAP: Duration = Duration::from_secs(5);
    let base = match retry_after_secs {
        Some(secs) => Duration::from_secs(secs),
        None => Duration::from_millis(100),
    };
    let scaled = base.saturating_mul(1u32 << attempt.min(16));
    scaled.min(CAP)
}

/// One submission's outcome (its final attempt).
struct Sample {
    client: usize,
    request: usize,
    status: u16,
    latency_s: f64,
    attempts: u32,
    id: Option<String>,
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if options.conns > 0 {
        return open_loop(&options);
    }

    println!(
        "loadgen: {} client(s) x {} request(s) against {} (pop {}, gens {})",
        options.clients, options.requests, options.addr, options.pop, options.gens
    );
    let started = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..options.clients)
            .map(|client_id| {
                let addr = options.addr.clone();
                let (pop, gens, seed, requests) =
                    (options.pop, options.gens, options.seed, options.requests);
                scope.spawn(move || {
                    let client = Client::new(addr);
                    let mut samples = Vec::with_capacity(requests);
                    for request_id in 0..requests {
                        // Distinct fills vary the work without changing
                        // the cell identity or requiring pixel payloads.
                        let fill = (client_id * 31 + request_id * 7) % 256;
                        let body = format!(
                            "{{\"arch\":\"yolo\",\"pop\":{pop},\"gens\":{gens},\"seed\":{seed},\
                             \"image\":{{\"width\":64,\"height\":32,\"fill\":[{fill},64,128]}}}}"
                        );
                        // Retry `429` with bounded exponential backoff;
                        // only the final attempt is recorded, so a job
                        // counts rejected only once the storm outlasted
                        // every retry.
                        let mut attempt = 0u32;
                        let final_response = loop {
                            let submit_started = Instant::now();
                            let response = match client.submit(&body) {
                                Ok(response) => response,
                                Err(e) => {
                                    eprintln!("client {client_id}: submit failed: {e}");
                                    break None;
                                }
                            };
                            let latency_s = submit_started.elapsed().as_secs_f64();
                            if response.status == 429 && attempt + 1 < MAX_SUBMIT_ATTEMPTS {
                                let advertised =
                                    response.header("retry-after").and_then(|v| v.parse().ok());
                                std::thread::sleep(backoff_delay(attempt, advertised));
                                attempt += 1;
                                continue;
                            }
                            break Some((response, latency_s));
                        };
                        let Some((response, latency_s)) = final_response else { continue };
                        let id = (response.status == 202).then(|| {
                            bea_core::telemetry::parse_json(response.body_text().unwrap_or("{}"))
                                .ok()
                                .and_then(|v| {
                                    v.get("id").and_then(|id| id.as_str().map(String::from))
                                })
                                .unwrap_or_default()
                        });
                        samples.push(Sample {
                            client: client_id,
                            request: request_id,
                            status: response.status,
                            latency_s,
                            attempts: attempt + 1,
                            id,
                        });
                    }
                    samples
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let wall_s = started.elapsed().as_secs_f64();

    let accepted: Vec<&Sample> = samples.iter().filter(|s| s.status == 202).collect();
    let rejected = samples.iter().filter(|s| s.status == 429).count();
    let other = samples.len() - accepted.len() - rejected;
    let retried = samples.iter().filter(|s| s.attempts > 1).count();
    let mut latencies: Vec<f64> = samples.iter().map(|s| s.latency_s).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    println!(
        "{} submissions in {wall_s:.2}s: {} accepted (202), {rejected} rejected \
         (429 through {MAX_SUBMIT_ATTEMPTS} backoff attempts), {other} other, \
         {retried} needed retries",
        samples.len(),
        accepted.len(),
    );
    println!(
        "submit latency: p50 {:.1}ms, p99 {:.1}ms, max {:.1}ms",
        percentile(&latencies, 50.0) * 1e3,
        percentile(&latencies, 99.0) * 1e3,
        latencies.last().copied().unwrap_or(0.0) * 1e3,
    );

    if let Some(path) = &options.csv {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let mut out = String::from("client,request,status,latency_s,attempts,id\n");
        for s in &samples {
            out.push_str(&format!(
                "{},{},{},{:.6},{},{}\n",
                s.client,
                s.request,
                s.status,
                s.latency_s,
                s.attempts,
                s.id.as_deref().unwrap_or("")
            ));
        }
        match std::fs::File::create(path).and_then(|mut f| f.write_all(out.as_bytes())) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    if options.wait {
        let client = Client::new(options.addr.clone());
        let mut done = 0usize;
        for sample in &accepted {
            let Some(id) = sample.id.as_deref().filter(|id| !id.is_empty()) else { continue };
            match client.wait(id, Duration::from_millis(100), Duration::from_secs(600)) {
                Ok(response)
                    if response.body_text().unwrap_or("").contains("\"status\":\"done\"") =>
                {
                    done += 1;
                }
                Ok(response) => {
                    eprintln!("job {id} ended badly: {:?}", response.body_text());
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("job {id} never finished: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!("all {done} accepted job(s) ran to completion — no accepted job lost");
    }
    ExitCode::SUCCESS
}

/// One in-flight open-loop connection.
#[cfg(unix)]
struct LoadConn {
    stream: std::net::TcpStream,
    /// Which submission this connection is currently carrying.
    request: usize,
    /// The rendered request; `written` bytes already on the wire.
    out: Vec<u8>,
    written: usize,
    parser: bea_serve::http::ResponseParser,
    started: Instant,
    /// The interest currently registered with the poller.
    interest: bea_reactor::Interest,
    /// Transparent replays of `request` on a fresh connection after the
    /// server closed this one under us (per-connection request cap, a
    /// shard restart).
    resends: u32,
}

/// Why a connection could not be pumped further.
#[cfg(unix)]
enum PumpError {
    /// The peer closed before a full response arrived. In keep-alive
    /// mode this is expected at the server's per-connection cap and the
    /// submission replays on a fresh connection; in close-per-request
    /// mode it is a hard failure.
    Closed,
    Fatal(String),
}

/// Replays of one submission before its connection loss counts as a
/// real failure.
#[cfg(unix)]
const MAX_RESENDS: u32 = 3;

/// Responses in the open loop are small JSON bodies; cap generously.
#[cfg(unix)]
const OPEN_LOOP_MAX_BODY: usize = 1024 * 1024;

/// One completed open-loop request.
struct OpenSample {
    status: u16,
    latency_s: f64,
    id: Option<String>,
}

/// The open-loop engine: keeps `conns` submissions in flight over one
/// epoll poller until `total` have been answered. With `keepalive` each
/// connection carries one submission after another; without it each
/// finished connection is replaced by a fresh one. Returns the samples
/// plus how many transparent reconnects the keep-alive path needed.
#[cfg(unix)]
fn drive_open_loop(options: &Options, keepalive: bool) -> Result<(Vec<OpenSample>, usize), String> {
    use bea_reactor::{Event, Interest, Poller};
    use std::os::fd::AsRawFd;

    let mut poller = Poller::new().map_err(|e| format!("epoll unavailable: {e}"))?;
    let body = |request: usize| {
        let fill = (request * 7) % 256;
        let tenant = format!("tenant-{}", request % options.tenants);
        format!(
            "{{\"arch\":\"yolo\",\"pop\":{},\"gens\":{},\"seed\":{},\"tenant\":\"{tenant}\",\
             \"image\":{{\"width\":64,\"height\":32,\"fill\":[{fill},64,128]}}}}",
            options.pop, options.gens, options.seed
        )
    };
    let render = |request: usize| {
        let payload = body(request);
        format!(
            "POST /v1/attacks HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\
             Connection: {}\r\n\r\n{payload}",
            options.addr,
            payload.len(),
            if keepalive { "keep-alive" } else { "close" },
        )
        .into_bytes()
    };
    // Blocking connect (instant on loopback), then non-blocking I/O.
    let open = |request: usize| -> Result<LoadConn, String> {
        let stream = std::net::TcpStream::connect(&options.addr)
            .map_err(|e| format!("connect to {} failed: {e}", options.addr))?;
        stream.set_nonblocking(true).map_err(|e| format!("set_nonblocking failed: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("set_nodelay failed: {e}"))?;
        Ok(LoadConn {
            stream,
            request,
            out: render(request),
            written: 0,
            parser: bea_serve::http::ResponseParser::new(OPEN_LOOP_MAX_BODY),
            started: Instant::now(),
            interest: Interest::BOTH,
            resends: 0,
        })
    };
    // `--ramp-ms` spreads the initial connection opens over that window
    // so the first burst does not hit per-tenant admission all at once.
    let ramp_pause = (options.ramp_ms > 0).then(|| {
        Duration::from_micros(
            (options.ramp_ms.saturating_mul(1000) / options.conns.max(1) as u64).max(1),
        )
    });
    let mut ramping = options.conns;

    let mut conns: std::collections::HashMap<u64, LoadConn> = std::collections::HashMap::new();
    let mut samples = Vec::with_capacity(options.total);
    let mut issued = 0usize;
    let mut reconnects = 0usize;
    let mut next_token = 0u64;
    let mut events: Vec<Event> = Vec::new();
    let mut errors = 0usize;
    // Ramp up to the target concurrency, then replace (close mode) or
    // reuse (keep-alive mode) each finished connection until the budget
    // is spent.
    while samples.len() + errors < options.total {
        while issued < options.total && conns.len() < options.conns {
            if ramping > 0 {
                if let Some(pause) = ramp_pause {
                    std::thread::sleep(pause);
                }
                ramping -= 1;
            }
            let conn = open(issued)?;
            let token = next_token;
            next_token += 1;
            poller
                .register(conn.stream.as_raw_fd(), token, Interest::BOTH)
                .map_err(|e| format!("registering a connection failed: {e}"))?;
            conns.insert(token, conn);
            issued += 1;
        }
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .map_err(|e| format!("epoll wait failed: {e}"))?;
        if events.is_empty() && !conns.is_empty() {
            return Err(format!(
                "open loop stalled: {} connection(s) silent for 10s after {} of {} responses",
                conns.len(),
                samples.len(),
                options.total
            ));
        }
        let batch = std::mem::take(&mut events);
        for event in &batch {
            let Some(mut conn) = conns.remove(&event.token) else { continue };
            match pump_conn(&mut conn, event) {
                Ok(Some((sample, reusable))) => {
                    samples.push(sample);
                    if keepalive && reusable && issued < options.total {
                        // Reuse the warm connection for the next
                        // submission: same socket, fresh request. The
                        // parser stays — it reset itself after the
                        // yielded response.
                        conn.request = issued;
                        conn.out = render(issued);
                        conn.written = 0;
                        conn.started = Instant::now();
                        conn.resends = 0;
                        issued += 1;
                        if conn.interest != Interest::BOTH {
                            poller
                                .modify(conn.stream.as_raw_fd(), event.token, Interest::BOTH)
                                .map_err(|e| format!("re-arming a connection failed: {e}"))?;
                            conn.interest = Interest::BOTH;
                        }
                        conns.insert(event.token, conn);
                    } else {
                        let _ = poller.deregister(conn.stream.as_raw_fd());
                    }
                }
                Ok(None) => {
                    // Once the request is fully written, drop write
                    // interest so level-triggered writability does not
                    // spin the loop while we wait for the response.
                    let desired = if conn.written < conn.out.len() {
                        Interest::BOTH
                    } else {
                        Interest::READABLE
                    };
                    if desired != conn.interest {
                        poller
                            .modify(conn.stream.as_raw_fd(), event.token, desired)
                            .map_err(|e| format!("adjusting connection interest failed: {e}"))?;
                        conn.interest = desired;
                    }
                    conns.insert(event.token, conn);
                }
                Err(PumpError::Closed) if keepalive && conn.resends < MAX_RESENDS => {
                    // The server retired the connection (request cap,
                    // shard restart): replay the same submission on a
                    // fresh socket.
                    let _ = poller.deregister(conn.stream.as_raw_fd());
                    let mut fresh = open(conn.request)?;
                    fresh.resends = conn.resends + 1;
                    let token = next_token;
                    next_token += 1;
                    poller
                        .register(fresh.stream.as_raw_fd(), token, Interest::BOTH)
                        .map_err(|e| format!("registering a connection failed: {e}"))?;
                    conns.insert(token, fresh);
                    reconnects += 1;
                }
                Err(e) => {
                    let _ = poller.deregister(conn.stream.as_raw_fd());
                    let msg = match e {
                        PumpError::Closed => "connection closed before a full response".to_string(),
                        PumpError::Fatal(msg) => msg,
                    };
                    eprintln!("open-loop connection failed: {msg}");
                    errors += 1;
                }
            }
        }
        events = batch;
    }
    if errors > 0 {
        return Err(format!("{errors} connection(s) failed during the open loop"));
    }
    Ok((samples, reconnects))
}

/// Advances one open-loop connection: writes request bytes while the
/// socket accepts them, reads response bytes while they arrive, and
/// returns the finished sample once the response parses, along with
/// whether the server will keep the connection open for another
/// request.
#[cfg(unix)]
fn pump_conn(
    conn: &mut LoadConn,
    event: &bea_reactor::Event,
) -> Result<Option<(OpenSample, bool)>, PumpError> {
    use std::io::ErrorKind;
    use std::io::{Read as _, Write as _};

    let dropped =
        |e: &std::io::Error| matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe);
    if event.writable && conn.written < conn.out.len() {
        loop {
            match (&conn.stream).write(&conn.out[conn.written..]) {
                Ok(0) => return Err(PumpError::Closed),
                Ok(n) => {
                    conn.written += n;
                    if conn.written == conn.out.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if dropped(&e) => return Err(PumpError::Closed),
                Err(e) => return Err(PumpError::Fatal(format!("write failed: {e}"))),
            }
        }
    }
    if event.readable || event.closed {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match (&conn.stream).read(&mut buf) {
                Ok(0) => break,
                Ok(n) => conn.parser.feed(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if dropped(&e) => return Err(PumpError::Closed),
                Err(e) => return Err(PumpError::Fatal(format!("read failed: {e}"))),
            }
        }
        match conn.parser.next_response() {
            Ok(Some(response)) => {
                let id = (response.status == 202)
                    .then(|| {
                        bea_core::telemetry::parse_json(
                            std::str::from_utf8(&response.body).unwrap_or("{}"),
                        )
                        .ok()
                        .and_then(|v| v.get("id").and_then(|id| id.as_str().map(String::from)))
                    })
                    .flatten();
                let reusable = !event.closed
                    && !response
                        .header("connection")
                        .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                return Ok(Some((
                    OpenSample {
                        status: response.status,
                        latency_s: conn.started.elapsed().as_secs_f64(),
                        id,
                    },
                    reusable,
                )));
            }
            Ok(None) => {
                if event.closed {
                    return Err(PumpError::Closed);
                }
            }
            Err(e) => return Err(PumpError::Fatal(format!("malformed response: {e}"))),
        }
    }
    Ok(None)
}

#[cfg(not(unix))]
fn drive_open_loop(
    _options: &Options,
    _keepalive: bool,
) -> Result<(Vec<OpenSample>, usize), String> {
    Err("the open-loop mode needs epoll and is only available on Unix".to_string())
}

/// The digest of one open-loop run the caller gates and reports on.
struct RunStats {
    keepalive: bool,
    throughput: f64,
    p99_ms: f64,
    accepted_ids: Vec<String>,
}

/// Drives one open-loop run in the given connection mode, prints its
/// summary (including the rejected-rate), and merges the record into
/// the `--bench-out` run log keyed by `(quick, conns, keepalive)`.
fn run_open(options: &Options, keepalive: bool) -> Result<RunStats, String> {
    println!(
        "loadgen (open loop, {}): {} concurrent connection(s), {} total submissions, \
         {} tenant(s) against {} (pop {}, gens {})",
        if keepalive { "keep-alive" } else { "close-per-request" },
        options.conns,
        options.total,
        options.tenants,
        options.addr,
        options.pop,
        options.gens
    );
    let started = Instant::now();
    let (samples, reconnects) = drive_open_loop(options, keepalive)?;
    let wall_s = started.elapsed().as_secs_f64();
    let throughput = samples.len() as f64 / wall_s.max(1e-9);
    let accepted: Vec<&OpenSample> = samples.iter().filter(|s| s.status == 202).collect();
    let rejected = samples.iter().filter(|s| s.status == 429).count();
    let other = samples.len() - accepted.len() - rejected;
    let rejected_rate = rejected as f64 / (samples.len().max(1)) as f64;
    let mut latencies: Vec<f64> = samples.iter().map(|s| s.latency_s).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p50_ms = percentile(&latencies, 50.0) * 1e3;
    let p99_ms = percentile(&latencies, 99.0) * 1e3;
    let max_ms = latencies.last().copied().unwrap_or(0.0) * 1e3;
    println!(
        "{} responses in {wall_s:.2}s ({throughput:.0} req/s): {} accepted (202), \
         {rejected} rejected (429, {:.1}% rejected-rate), {other} other, \
         {reconnects} reconnect(s)",
        samples.len(),
        accepted.len(),
        rejected_rate * 100.0,
    );
    println!("round-trip latency: p50 {p50_ms:.1}ms, p99 {p99_ms:.1}ms, max {max_ms:.1}ms");

    if let Some(path) = &options.bench_out {
        // Keyed by (quick, conns, keepalive): a quick CI run and a full
        // run at the same concurrency each keep one record per
        // connection mode. The runlog helper reads the concurrency from
        // the "threads" slot of its key.
        let run = format!(
            "{{\"quick\":{},\"threads\":{},\"conns\":{},\"total\":{},\"tenants\":{},\
             \"keepalive\":{keepalive},\"wall_s\":{wall_s},\"throughput_rps\":{throughput},\
             \"p50_ms\":{p50_ms},\"p99_ms\":{p99_ms},\"max_ms\":{max_ms},\
             \"accepted\":{},\"rejected\":{rejected},\"rejected_rate\":{rejected_rate},\
             \"other\":{other},\"reconnects\":{reconnects}}}",
            options.quick,
            options.conns,
            options.conns,
            options.total,
            options.tenants,
            accepted.len(),
        );
        runlog::merge_keyed_run(path, "serve", &run)?;
        println!("merged run into {path}");
    }
    let accepted_ids =
        accepted.iter().map(|s| s.id.clone().unwrap_or_default()).collect::<Vec<_>>();
    Ok(RunStats { keepalive, throughput, p99_ms, accepted_ids })
}

/// Waits every job in `ids` to completion (between comparison legs).
fn drain_backlog(options: &Options, ids: &[String]) -> Result<(), String> {
    let client = Client::new(options.addr.clone());
    for id in ids {
        if id.is_empty() {
            return Err("an accepted job carried no id".to_string());
        }
        let response = client
            .wait(id, Duration::from_millis(100), Duration::from_secs(600))
            .map_err(|e| format!("job {id} never finished: {e}"))?;
        if !response.body_text().unwrap_or("").contains("\"status\":\"done\"") {
            return Err(format!("job {id} ended badly: {:?}", response.body_text()));
        }
    }
    Ok(())
}

/// Runs the open loop (or the close-vs-keep-alive comparison), reports,
/// persists the run log, applies gates.
fn open_loop(options: &Options) -> ExitCode {
    let modes: &[bool] = if options.compare_keepalive {
        // Baseline first so the keep-alive run measures against a
        // server already warmed by the same workload.
        &[false, true]
    } else if options.keepalive {
        &[true]
    } else {
        &[false]
    };
    let mut runs = Vec::with_capacity(modes.len());
    for (index, &keepalive) in modes.iter().enumerate() {
        match run_open(options, keepalive) {
            Ok(stats) => runs.push(stats),
            Err(e) => {
                eprintln!("open loop failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        if index + 1 < modes.len() {
            // Let the previous leg's backlog finish before the next leg
            // submits, so both modes measure admission against an empty
            // queue rather than the earlier run's leftover depth.
            let backlog = &runs[index].accepted_ids;
            if let Err(e) = drain_backlog(options, backlog) {
                eprintln!("draining the backlog between runs failed: {e}");
                return ExitCode::FAILURE;
            }
            println!("backlog drained ({} job(s) done); starting the next leg", backlog.len());
        }
    }

    if options.wait {
        let client = Client::new(options.addr.clone());
        let mut done = 0usize;
        for id in runs.iter().flat_map(|r| r.accepted_ids.iter()) {
            if id.is_empty() {
                eprintln!("an accepted job carried no id");
                return ExitCode::FAILURE;
            }
            match client.wait(id, Duration::from_millis(100), Duration::from_secs(600)) {
                Ok(response)
                    if response.body_text().unwrap_or("").contains("\"status\":\"done\"") =>
                {
                    done += 1;
                }
                Ok(response) => {
                    eprintln!("job {id} ended badly: {:?}", response.body_text());
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("job {id} never finished: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!("all {done} accepted job(s) ran to completion — no accepted job lost");
    }

    let mut gates_ok = true;
    for run in &runs {
        let label = if run.keepalive { "keep-alive" } else { "close-per-request" };
        if let Some(min) = options.min_throughput {
            if run.throughput < min {
                eprintln!(
                    "GATE FAILED ({label}): throughput {:.0} req/s < required {min:.0}",
                    run.throughput
                );
                gates_ok = false;
            }
        }
        if let Some(max) = options.max_p99_ms {
            if run.p99_ms > max {
                eprintln!("GATE FAILED ({label}): p99 {:.1}ms > allowed {max:.1}ms", run.p99_ms);
                gates_ok = false;
            }
        }
    }
    if options.compare_keepalive {
        let close = runs.iter().find(|r| !r.keepalive).map(|r| r.throughput).unwrap_or(0.0);
        let keepalive = runs.iter().find(|r| r.keepalive).map(|r| r.throughput).unwrap_or(0.0);
        let speedup = keepalive / close.max(1e-9);
        println!(
            "keep-alive speedup: {speedup:.2}x ({keepalive:.0} req/s keep-alive vs \
             {close:.0} req/s close-per-request)"
        );
        if let Some(min) = options.min_keepalive_speedup {
            if speedup < min {
                eprintln!("GATE FAILED: keep-alive speedup {speedup:.2}x < required {min:.2}x");
                gates_ok = false;
            }
        }
    }
    if gates_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_the_default_base_and_caps() {
        assert_eq!(backoff_delay(0, None), Duration::from_millis(100));
        assert_eq!(backoff_delay(1, None), Duration::from_millis(200));
        assert_eq!(backoff_delay(2, None), Duration::from_millis(400));
        assert_eq!(backoff_delay(3, None), Duration::from_millis(800));
        // By attempt 6 the doubled default passes the 5 s cap.
        assert_eq!(backoff_delay(6, None), Duration::from_secs(5));
        assert_eq!(backoff_delay(60, None), Duration::from_secs(5));
    }

    #[test]
    fn backoff_honours_retry_after_up_to_the_cap() {
        assert_eq!(backoff_delay(0, Some(2)), Duration::from_secs(2));
        // Retry-After also doubles per attempt, still capped.
        assert_eq!(backoff_delay(1, Some(2)), Duration::from_secs(4));
        assert_eq!(backoff_delay(2, Some(2)), Duration::from_secs(5));
        assert_eq!(backoff_delay(0, Some(3600)), Duration::from_secs(5));
        assert_eq!(backoff_delay(0, Some(0)), Duration::ZERO);
    }
}
