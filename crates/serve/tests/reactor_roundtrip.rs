//! Integration tests for the event-driven front-end, per-config result
//! stores, tenant admission control and job-log recovery.
//!
//! The determinism anchor from `server_roundtrip` carries over
//! unchanged: whatever the transport (reactor vs. thread-per-connection),
//! the CSV a job serves must be byte-identical to a direct `Campaign` run
//! of the same job — including when another job on the same cell, with
//! a different seed, finished after it.

use bea_core::campaign::{Campaign, CampaignConfig, CampaignStore};
use bea_core::AttackJob;
use bea_detect::{Architecture, ModelZoo};
use bea_scene::SyntheticKitti;
use bea_serve::{Client, Server, ServerConfig, TenantPolicy};
use std::path::PathBuf;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("bea_reactor_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// A reactor-mode configuration on the smoke dataset.
fn reactor_config(store_dir: PathBuf, workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        queue_capacity: 32,
        dataset: SyntheticKitti::smoke_set(),
        drain_deadline: Duration::from_secs(120),
        reactor: true,
        ..ServerConfig::new(store_dir)
    }
}

fn job_id(body: &str) -> String {
    let value = bea_core::telemetry::parse_json(body).expect("valid 202 body");
    value.get("id").and_then(|v| v.as_str()).expect("202 body carries an id").to_string()
}

const POLL: Duration = Duration::from_millis(50);
const DEADLINE: Duration = Duration::from_secs(120);

#[test]
fn reactor_jobs_serve_byte_identical_csv() {
    let store_dir = scratch("identity");
    // One worker: the jobs queue up and run one after another, so the
    // seed-6 job on image 0's cell finishes after the seed-5 one.
    let server = Server::start(reactor_config(store_dir.clone(), 1)).expect("server starts");
    let client = Client::new(server.addr().to_string());

    let body = |image: usize, seed: u64| {
        format!(
            "{{\"arch\":\"yolo\",\"model_seed\":1,\"image_index\":{image},\
             \"pop\":8,\"gens\":2,\"seed\":{seed},\"tenant\":\"team-a\"}}"
        )
    };
    // Four distinct cells, then image 0's cell again under another base
    // seed: same cell, different result.
    let inputs = [(0, 5), (1, 5), (2, 5), (3, 5), (0, 6)];
    let mut ids = Vec::new();
    for (image, seed) in inputs {
        let accepted = client.submit(&body(image, seed)).expect("submit");
        assert_eq!(accepted.status, 202, "{:?}", accepted.body_text());
        ids.push(job_id(accepted.body_text().unwrap()));
    }
    for id in &ids {
        let finished = client.wait(id, POLL, DEADLINE).expect("job finishes");
        assert!(
            finished.body_text().unwrap().contains("\"status\":\"done\""),
            "job {id} did not finish: {:?}",
            finished.body_text()
        );
    }

    // Byte-identity of every served CSV against a direct campaign run of
    // its own job.
    let zoo = ModelZoo::with_defaults();
    let dataset = SyntheticKitti::smoke_set();
    let mut served_csvs = Vec::new();
    for (k, ((image, seed), id)) in inputs.iter().zip(&ids).enumerate() {
        let job = AttackJob::from_json(&body(*image, *seed)).expect("job parses");
        let direct_dir = scratch(&format!("identity_direct_{k}"));
        let direct_store = CampaignStore::open(&direct_dir).expect("store opens");
        let spec = job.cell_spec();
        Campaign::new(CampaignConfig {
            attack: job.attack_config(),
            base_seed: job.base_seed,
            jobs: 1,
            telemetry: false,
        })
        .run_with_store(
            std::slice::from_ref(&spec),
            |cell| zoo.model(Architecture::Yolo, cell.model_seed),
            |cell| dataset.image(cell.image_index),
            &direct_store,
        )
        .expect("direct run");
        let served = client.csv(id).expect("csv");
        assert_eq!(served.status, 200);
        let direct_bytes = std::fs::read(direct_store.cell_path(&spec)).expect("direct cell");
        assert_eq!(
            served.body, direct_bytes,
            "{id} (image {image}, seed {seed}) diverged from a direct run of its own config"
        );
        served_csvs.push(served.body);
        let _ = std::fs::remove_dir_all(&direct_dir);
    }
    assert_ne!(served_csvs[0], served_csvs[4], "the two image-0 jobs have different results");

    let report = server.shutdown();
    assert!(!report.deadline_expired);
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn tenants_are_rate_limited_and_quota_bounded_independently() {
    let store_dir = scratch("tenants");
    let mut config = reactor_config(store_dir.clone(), 1);
    // One token, refilled at one token per 2s, and at most one job in
    // the system per tenant.
    config.tenant_policy = TenantPolicy { rate: 0.5, burst: 1.0, quota: 1 };
    let server = Server::start(config).expect("server starts");
    let client = Client::new(server.addr().to_string());

    let body = |tenant: &str| {
        format!(
            "{{\"arch\":\"yolo\",\"pop\":8,\"gens\":2,\"seed\":7,\"tenant\":\"{tenant}\",\
             \"image\":{{\"width\":64,\"height\":32,\"fill\":[40,0,0]}}}}"
        )
    };
    let accepted = client.submit(&body("team-a")).expect("submit");
    assert_eq!(accepted.status, 202, "{:?}", accepted.body_text());
    let id = job_id(accepted.body_text().unwrap());

    // Same tenant, first job still in the system: the quota (checked
    // before the bucket) refuses with a poll hint of one second.
    let refused = client.submit(&body("team-a")).expect("submit");
    assert_eq!(refused.status, 429, "{:?}", refused.body_text());
    assert_eq!(refused.header("retry-after"), Some("1"));
    assert!(refused.body_text().unwrap().contains("quota"), "{:?}", refused.body_text());

    // A different tenant has its own bucket and quota slot. Distinct
    // fill keeps its cell distinct from team-a's.
    let other = client
        .submit(&body("team-b").replace("[40,0,0]", "[0,40,0]"))
        .expect("submit other tenant");
    assert_eq!(other.status, 202, "{:?}", other.body_text());
    let other_id = job_id(other.body_text().unwrap());

    // Invalid tenant names are rejected before touching the queue.
    assert_eq!(client.submit(&body("Team A")).unwrap().status, 400);
    assert_eq!(client.submit(&body(&"t".repeat(33))).unwrap().status, 400);

    // Once team-a's job finishes its quota slot frees; the bucket
    // refills at 0.5 tokens/s, so within a few seconds a resubmission
    // is admitted again.
    client.wait(&id, POLL, DEADLINE).expect("team-a job finishes");
    client.wait(&other_id, POLL, DEADLINE).expect("team-b job finishes");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let readmitted = loop {
        let response = client.submit(&body("team-a")).expect("resubmit");
        if response.status == 202 {
            break response;
        }
        // Quota is free (both jobs finished), so any refusal here is the
        // token bucket with its computed retry hint.
        assert_eq!(response.status, 429);
        assert!(response.body_text().unwrap().contains("rate limit"), "{:?}", response.body_text());
        let retry: u64 = response.header("retry-after").expect("Retry-After").parse().unwrap();
        assert!(retry >= 1, "{retry}");
        assert!(std::time::Instant::now() < deadline, "bucket never refilled");
        std::thread::sleep(Duration::from_millis(250));
    };
    let readmitted_id = job_id(readmitted.body_text().unwrap());
    client.wait(&readmitted_id, POLL, DEADLINE).expect("readmitted job finishes");

    let report = server.shutdown();
    assert!(!report.deadline_expired);
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn job_log_compacts_on_restart_without_changing_replay() {
    let store_dir = scratch("compaction");
    let tiny = |model_seed: usize| {
        format!(
            "{{\"arch\":\"detr\",\"model_seed\":{model_seed},\"pop\":4,\"gens\":1,\"seed\":3,\
             \"image\":{{\"width\":32,\"height\":16,\"fill\":[0,200,0]}}}}"
        )
    };
    let log_lines = || {
        std::fs::read_to_string(store_dir.join("jobs.jsonl"))
            .map(|log| log.lines().filter(|l| !l.trim().is_empty()).count())
            .unwrap_or(0)
    };

    // Phase 1: run three jobs to completion; the append-only log holds
    // one record per accepted job.
    let mut config = reactor_config(store_dir.clone(), 1);
    config.done_retention = 64;
    let server = Server::start(config).expect("server starts");
    let client = Client::new(server.addr().to_string());
    let mut ids = Vec::new();
    for model_seed in [1, 2, 3] {
        let accepted = client.submit(&tiny(model_seed)).expect("submit");
        assert_eq!(accepted.status, 202, "{:?}", accepted.body_text());
        ids.push(job_id(accepted.body_text().unwrap()));
    }
    for id in &ids {
        let finished = client.wait(id, POLL, DEADLINE).expect("job finishes");
        assert!(finished.body_text().unwrap().contains("\"status\":\"done\""));
    }
    server.shutdown();
    assert_eq!(log_lines(), 3, "one record per accepted job before compaction");

    // Phase 2: restart with retention 1. Startup compaction drops all
    // but the newest done record; the retained job still reports done.
    let mut config = reactor_config(store_dir.clone(), 1);
    config.done_retention = 1;
    let server = Server::start(config).expect("server restarts");
    let client = Client::new(server.addr().to_string());
    assert_eq!(log_lines(), 1, "compaction keeps only the newest done record");
    let kept = ids.last().unwrap();
    let status = client.status(kept).expect("status");
    assert_eq!(status.status, 200);
    assert!(status.body_text().unwrap().contains("\"status\":\"done\""), "retained job is done");
    assert_eq!(client.csv(kept).unwrap().status, 200);
    // Submit one more job and stop immediately: it lands in the log and
    // may still be pending when the drain starts.
    let accepted = client.submit(&tiny(4)).expect("submit");
    assert_eq!(accepted.status, 202);
    let late_id = job_id(accepted.body_text().unwrap());
    assert!(!ids.contains(&late_id), "compaction must not reset id allocation");
    server.shutdown();

    // A kill mid-append leaves the last record unterminated: the first
    // half of job-99's record, which was never acknowledged.
    let log_path = store_dir.join("jobs.jsonl");
    let log = std::fs::read_to_string(&log_path).expect("job log");
    let job = AttackJob::from_json(&tiny(6)).expect("job parses").to_json();
    let record = format!("{{\"type\":\"job\",\"id\":99,\"job\":{job}}}");
    std::fs::write(&log_path, format!("{log}{}", &record[..record.len() / 2]))
        .expect("tear the log tail");

    // Phase 3: restart again. The torn record is dropped, and replay of
    // the other non-done records is unchanged by compaction: the late
    // job finishes (now or already) and serves its CSV.
    let mut config = reactor_config(store_dir.clone(), 1);
    config.done_retention = 1;
    let server = Server::start(config).expect("a torn tail does not stop startup");
    let client = Client::new(server.addr().to_string());
    let finished = client.wait(&late_id, POLL, DEADLINE).expect("late job finishes");
    assert!(
        finished.body_text().unwrap().contains("\"status\":\"done\""),
        "job lost across compacting restarts: {:?}",
        finished.body_text()
    );
    assert_eq!(client.csv(&late_id).unwrap().status, 200);
    assert_eq!(client.status("job-99").unwrap().status, 404, "the torn record never replays");
    assert!(log_lines() <= 2, "the log stays bounded across restarts");
    let log = std::fs::read_to_string(&log_path).expect("job log");
    assert!(log.ends_with('\n'), "the torn tail is cut: {log:?}");
    // Appends after the cut start on a fresh line.
    let accepted = client.submit(&tiny(5)).expect("submit");
    assert_eq!(accepted.status, 202);
    let after_id = job_id(accepted.body_text().unwrap());
    client.wait(&after_id, POLL, DEADLINE).expect("job after the cut finishes");
    server.shutdown();
    let log = std::fs::read_to_string(&log_path).expect("job log");
    for line in log.lines() {
        bea_core::telemetry::validate_json(line).expect("every logged record parses");
    }
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn corrupt_job_log_line_refuses_startup() {
    let store_dir = scratch("corrupt_log");
    std::fs::create_dir_all(&store_dir).expect("store dir");
    let record = |id: u64| {
        format!(
            "{{\"type\":\"job\",\"id\":{id},\"job\":{}}}\n",
            AttackJob::from_json("{\"arch\":\"yolo\"}").unwrap().to_json()
        )
    };
    // Only a torn *last* record is an interrupted append; a bad line in
    // the middle is corruption.
    let log = format!("{}{{\"type\":\"job\",\"id\n{}", record(1), record(2));
    std::fs::write(store_dir.join("jobs.jsonl"), &log).expect("write log");
    let err = Server::start(reactor_config(store_dir.clone(), 1)).expect_err("refuses to start");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("corrupt job log line"), "{err}");
    let kept = std::fs::read_to_string(store_dir.join("jobs.jsonl")).expect("log kept");
    assert_eq!(kept, log, "a refused log is left as it was");
    let _ = std::fs::remove_dir_all(&store_dir);
}
