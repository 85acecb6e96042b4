//! End-to-end shard-router tests driving the real `serve_cli` binary.
//!
//! Two contracts: sharding must not change results — the per-cell CSVs
//! a `--shards 4` cluster serves are byte-identical to a `--shards 1`
//! server's — and a `kill -9` of one shard must not lose accepted jobs:
//! the supervisor respawns the shard, the replayed job log re-runs its
//! pending work, and every submission still reaches `done`.

use bea_serve::http::ResponseParser;
use bea_serve::{client, Client};
use std::collections::BTreeMap;
use std::io::{BufRead, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("bea_shard_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

struct ServeProc {
    child: Child,
    addr: String,
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `serve_cli` with the given extra flags and waits for its
/// "listening on http://ADDR" announcement.
fn spawn_serve(out: &std::path::Path, extra: &[&str]) -> ServeProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve_cli"))
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--smoke")
        .arg("--reactor")
        .arg("--workers")
        .arg("1")
        .arg("--queue")
        .arg("32")
        .arg("--drain-secs")
        .arg("60")
        .arg("--out")
        .arg(out)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("serve_cli spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read serve_cli stdout");
        assert!(n > 0, "serve_cli exited before announcing its address");
        // The supervisor relays shard announcements prefixed "[shard k]";
        // only the un-prefixed line is the front door's own address.
        if let Some(rest) = line.strip_prefix("bea-serve listening on http://") {
            break rest.split_whitespace().next().expect("address").to_string();
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });
    ServeProc { child, addr }
}

/// Asks the process to drain and waits for it to exit.
fn shutdown(proc: &mut ServeProc) {
    let posted = client::request(&proc.addr, "POST", "/v1/shutdown", None);
    assert_eq!(posted.expect("shutdown POST").status, 200);
    let deadline = Instant::now() + Duration::from_secs(90);
    loop {
        match proc.child.try_wait().expect("try_wait") {
            Some(_) => break,
            None if Instant::now() > deadline => {
                let _ = proc.child.kill();
                panic!("serve_cli did not drain within the deadline");
            }
            None => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

/// The job set both tests submit: eight distinct cells.
fn job_bodies() -> Vec<String> {
    let mut bodies = Vec::new();
    for model_seed in 1..=2u64 {
        for image_index in 0..4usize {
            bodies.push(format!(
                "{{\"arch\":\"yolo\",\"model_seed\":{model_seed},\
                 \"image_index\":{image_index},\"pop\":4,\"gens\":1,\"seed\":5}}"
            ));
        }
    }
    bodies
}

fn submitted_id(response: &bea_serve::HttpResponse) -> String {
    assert_eq!(response.status, 202, "{:?}", response.body_text());
    bea_core::telemetry::parse_json(response.body_text().unwrap())
        .ok()
        .and_then(|v| v.get("id").and_then(|id| id.as_str().map(String::from)))
        .expect("202 body carries an id")
}

/// Polls a job to `done`, tolerating transient 503s while a shard is
/// down and being respawned.
fn wait_done(client: &Client, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        match client.status(id) {
            Ok(response) if response.status == 200 => {
                let body = response.body_text().unwrap_or("");
                if body.contains("\"status\":\"done\"") {
                    return;
                }
                assert!(!body.contains("\"status\":\"failed\""), "job {id} failed: {body}");
            }
            Ok(response) => assert!(
                response.status == 503 || response.status == 404,
                "job {id}: unexpected status {}",
                response.status
            ),
            Err(_) => {}
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Fetches a done job's CSV, tolerating transient 503s.
fn fetch_csv(client: &Client, id: &str) -> Vec<u8> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match client.csv(id) {
            Ok(response) if response.status == 200 => return response.body,
            Ok(response) => assert_eq!(response.status, 503, "csv for {id}"),
            Err(_) => {}
        }
        assert!(Instant::now() < deadline, "csv for {id} never arrived");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Runs the job set against one `serve_cli` configuration and returns
/// each job body's served CSV bytes.
fn run_cluster(tag: &str, extra: &[&str]) -> BTreeMap<String, Vec<u8>> {
    let out = scratch(tag);
    let mut proc = spawn_serve(&out, extra);
    let client = Client::new(proc.addr.clone());
    let ids: Vec<(String, String)> = job_bodies()
        .into_iter()
        .map(|body| {
            let id = submitted_id(&client.submit(&body).expect("submit"));
            (body, id)
        })
        .collect();
    for (_, id) in &ids {
        wait_done(&client, id);
    }
    let csvs = ids.iter().map(|(body, id)| (body.clone(), fetch_csv(&client, id))).collect();
    shutdown(&mut proc);
    let _ = std::fs::remove_dir_all(&out);
    csvs
}

#[test]
fn sharded_cluster_serves_byte_identical_csvs() {
    let solo = run_cluster("solo", &[]);
    let sharded = run_cluster("four", &["--shards", "4"]);
    assert_eq!(solo.len(), sharded.len());
    for (body, bytes) in &solo {
        let via_shards = sharded.get(body).expect("every job served under sharding");
        assert!(!bytes.is_empty(), "empty CSV for {body}");
        assert_eq!(
            via_shards, bytes,
            "cell CSV diverged between --shards 1 and --shards 4 for {body}"
        );
    }
}

/// Keep-alive requests through the router answer at loopback speed: each
/// hop sends its request and response in one write on a `TCP_NODELAY`
/// socket, so no hop waits out a delayed ACK (about 88 ms a request
/// through the router when they were written in fragments).
#[test]
fn keep_alive_requests_through_the_router_do_not_stall() {
    let out = scratch("keepalive");
    let mut proc = spawn_serve(&out, &["--shards", "1"]);
    let mut conn =
        client::HttpConnection::connect_to(proc.addr.clone(), Default::default()).expect("connect");
    let started = Instant::now();
    for _ in 0..10 {
        assert_eq!(conn.request("GET", "/healthz", None).expect("healthz").status, 200);
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_millis(200), "10 keep-alive requests took {elapsed:?}");
    drop(conn);
    shutdown(&mut proc);
    let _ = std::fs::remove_dir_all(&out);
}

/// Two requests written in one `write_all` to the router's front door
/// (`--shards 2`: the router's own connection loop) both get answered
/// before the read deadline.
#[test]
fn pipelined_requests_through_the_router_are_all_answered() {
    let out = scratch("pipeline");
    let mut proc = spawn_serve(&out, &["--shards", "2"]);
    let mut stream = TcpStream::connect(&proc.addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\nGET /nope HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("pipelined write");
    let mut parser = ResponseParser::new(1024 * 1024);
    let mut statuses = Vec::new();
    let mut buf = [0u8; 4096];
    while statuses.len() < 2 {
        while let Some(response) = parser.next_response().expect("well-formed response") {
            statuses.push(response.status);
        }
        if statuses.len() < 2 {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => parser.feed(&buf[..n]),
                Err(e) => panic!("read failed after {} responses: {e}", statuses.len()),
            }
        }
    }
    assert_eq!(statuses, [200, 404]);
    drop(stream);
    shutdown(&mut proc);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn killing_one_shard_loses_no_accepted_jobs() {
    let out = scratch("crash");
    let mut proc = spawn_serve(&out, &["--shards", "4"]);
    let client = Client::new(proc.addr.clone());

    let healthz = client.healthz().expect("healthz");
    assert_eq!(healthz.status, 200);
    let health = bea_core::telemetry::parse_json(healthz.body_text().unwrap()).expect("json");
    assert_eq!(health.get("shards").and_then(|v| v.as_u64()), Some(4));

    let ids: Vec<String> = job_bodies()
        .into_iter()
        .map(|body| submitted_id(&client.submit(&body).expect("submit")))
        .collect();

    // Kill the shard that owns the first accepted job, while its work
    // is still queued or running.
    let victim_id: u64 = ids[0]
        .strip_prefix("job-")
        .expect("job ids carry the job- prefix")
        .parse()
        .expect("numeric id suffix");
    let victim_shard = bea_serve::router::shard_for_id(victim_id, 4);
    let bea_core::telemetry::JsonValue::Array(shard_status) =
        health.get("shard_status").expect("shard_status")
    else {
        panic!("shard_status is not an array");
    };
    let pid = shard_status
        .iter()
        .find(|entry| entry.get("shard").and_then(|v| v.as_u64()) == Some(victim_shard as u64))
        .and_then(|entry| entry.get("pid").and_then(|v| v.as_u64()))
        .expect("healthz exposes shard pids");
    let killed = Command::new("kill").args(["-9", &pid.to_string()]).status().expect("kill runs");
    assert!(killed.success(), "kill -9 {pid} failed");

    // Every accepted job — including the killed shard's — still
    // finishes: the supervisor respawns the shard and its replayed job
    // log re-runs the pending work.
    for id in &ids {
        wait_done(&client, id);
    }
    for id in &ids {
        assert!(!fetch_csv(&client, id).is_empty(), "job {id} served no CSV");
    }

    // The merged metrics still answer and count all eight accepted
    // jobs. (Counters reset on the respawned shard are allowed to
    // undercount its share, so only the floor is asserted.)
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.body_text().unwrap();
    assert!(text.contains("bea_serve_jobs_accepted_total"), "{text}");

    shutdown(&mut proc);
    let _ = std::fs::remove_dir_all(&out);
}
