//! The repository benchmark: closed-batch campaign capacity and
//! fixed-rate served latency, with a traced mode for per-layer numbers.
//! See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! bash perfbench/run.sh --workload campaign-cached --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last stdout line is the JSON result; a run that cannot measure
//! (missing binary, server that never comes up) exits non-zero without
//! printing one.

mod campaign;
mod detector;
mod host;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `serve_cli` binary the serve workload spawns.
    pub serve_cli: PathBuf,
    /// This run's scratch directory (removed when the run ends).
    pub work: PathBuf,
    /// Where traced runs write their spans.
    pub traces: PathBuf,
}

const WORKLOADS: &[&str] = &["campaign-cached", "serve-sharded"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut serve_cli = PathBuf::from(".bench_build/release/serve_cli");
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--serve-cli" => serve_cli = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    if !(1.0..=60.0).contains(&seconds) {
        return Err("--seconds must be within 1..=60".into());
    }
    let runs = PathBuf::from(".bench_run");
    let work = runs.join(format!("{workload}-seed{seed}-{}", std::process::id()));
    Ok(Args { workload, seed, seconds, trace, serve_cli, work, traces: runs.join("traces") })
}

fn main() -> ExitCode {
    // A campaign set-up sample: a fresh process that sets up and exits.
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, out] = argv.as_slice() {
        if flag == "--set-up" {
            return campaign::set_up_child(std::path::Path::new(out));
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&args.work);
    let probe_before = host::probe_ms();
    let result = match std::fs::create_dir_all(&args.work) {
        Err(e) => Err(format!("cannot create {}: {e}", args.work.display())),
        Ok(()) => match args.workload.as_str() {
            "campaign-cached" => campaign::run(&args),
            _ => serve::run(&args),
        },
    };
    if result.is_ok() {
        let _ = std::fs::remove_dir_all(&args.work);
    }
    match result {
        Ok(mut outcome) => {
            let probe_after = host::probe_ms();
            println!("host.probe_ms before {probe_before:.3} after {probe_after:.3}");
            outcome.metrics.insert("host.probe_ms", (probe_before + probe_after) / 2.0);
            let names = if args.trace { report::PER_LAYER } else { report::END_TO_END };
            for (name, unit) in names {
                let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
                println!("{name:>28} {value:>14.4} {unit}");
            }
            for failure in &outcome.failures {
                println!("FAILED: {failure}");
            }
            println!("{}", report::result_line(&outcome, names));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e} (logs kept in {})", args.work.display());
            ExitCode::FAILURE
        }
    }
}
