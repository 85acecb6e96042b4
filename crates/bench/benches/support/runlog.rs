//! Merge-or-append persistence for bench `--out` JSON files.
//!
//! The bench binaries record quick (CI smoke) and full runs into the same
//! `BENCH_*.json` file. Overwriting would make a quick run destroy the
//! full-run baseline, so `--out` upserts instead: the document is
//! `{"bench": NAME, "runs": [RUN, ...]}` where each run carries a boolean
//! `"quick"` key, an optional integer `"threads"` key (loadgen's
//! connection count) and an optional boolean `"keepalive"` key, and
//! writing a run replaces the existing run with the same
//! `(quick, threads, keepalive)` triple (or appends when none exists) —
//! so the serve bench keeps one record per concurrency, with keep-alive
//! and close-per-request records side by side. Legacy single-run
//! documents (`{"bench": ..., "quick": ..., "cases": [...]}`) are
//! auto-converted into a one-element `runs` array on first merge.
//!
//! Shared between bench mains via `#[path = "support/runlog.rs"]` — the
//! same arrangement as `alloc_counter.rs`.

use bea_core::telemetry::{parse_json, JsonValue};

/// Upserts `run` (rendered JSON of one run object with a boolean `quick`
/// field) into the keyed run log at `path` and writes the file back.
///
/// Unreadable or foreign documents at `path` are replaced rather than
/// merged, so a corrupted file never wedges the bench.
pub fn merge_keyed_run(path: &str, bench: &str, run: &str) -> Result<(), String> {
    let run = parse_json(run).map_err(|e| format!("internal: run record is invalid: {e}"))?;
    run.get("quick")
        .and_then(JsonValue::as_bool)
        .ok_or("internal: run record lacks a boolean \"quick\" key")?;
    let key = |r: &JsonValue| {
        (
            r.get("quick").and_then(JsonValue::as_bool),
            r.get("threads").and_then(JsonValue::as_u64),
            r.get("keepalive").and_then(JsonValue::as_bool),
        )
    };
    let slot_key = key(&run);
    let mut runs = existing_runs(path, bench);
    match runs.iter_mut().find(|r| key(r) == slot_key) {
        Some(slot) => *slot = run,
        None => runs.push(run),
    }
    let doc = JsonValue::Object(vec![
        ("bench".to_string(), JsonValue::String(bench.to_string())),
        ("runs".to_string(), JsonValue::Array(runs)),
    ]);
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("failed to write {path}: {e}"))
}

/// The runs already recorded at `path` for this bench (empty when the
/// file is missing, unparsable, or belongs to a different bench).
fn existing_runs(path: &str, bench: &str) -> Vec<JsonValue> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = parse_json(&text) else {
        return Vec::new();
    };
    if doc.get("bench").and_then(JsonValue::as_str) != Some(bench) {
        return Vec::new();
    }
    match doc.get("runs") {
        Some(JsonValue::Array(runs)) => runs.clone(),
        // Legacy layout: the document itself is the single run.
        None if doc.get("quick").is_some() => vec![doc.clone()],
        _ => Vec::new(),
    }
}
