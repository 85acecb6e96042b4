//! Steady-state allocation accounting for the attack hot loop.
//!
//! The zero-allocation contract: after a few warm-up iterations, a masked
//! detection loop — the inner loop of the genetic attack — performs **no
//! heap allocations at all**. Weights are pre-packed at model
//! construction and every intermediate buffer comes from the thread-local
//! scratch arenas (`bea_tensor::scratch`), so the steady state only
//! recycles.
//!
//! This bench proves it with a counting `#[global_allocator]`: for each
//! (architecture × kernel policy) configuration it warms a cached model
//! with a few masked detections, then counts allocator calls across a
//! measured window of further iterations with *varying* masks (as the
//! attack would produce). `--check` exits non-zero if any configuration
//! allocates in the window:
//!
//! ```text
//! cargo bench -p bea-bench --bench steady_state -- --check --out BENCH_allocs.json
//! ```
//!
//! * `--quick` shrinks the warm-up and window for CI smoke runs,
//! * `--check` turns the zero-allocation contract into an exit code,
//! * `--out PATH` upserts the records into the keyed run log (see
//!   `support/runlog.rs`).

#[path = "support/alloc_counter.rs"]
mod alloc_counter;
#[path = "support/runlog.rs"]
mod runlog;

use bea_core::telemetry::JsonObject;
use bea_detect::{Architecture, ModelZoo};
use bea_image::FilterMask;
use bea_scene::SyntheticKitti;
use bea_tensor::KernelPolicy;
use std::hint::black_box;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator::new();

/// Allocation counts for one (architecture × policy) configuration.
struct Case {
    name: String,
    iters: u64,
    allocations: u64,
    bytes: u64,
    tapes: u64,
}

impl Case {
    fn allocs_per_iter(&self) -> f64 {
        self.allocations as f64 / self.iters.max(1) as f64
    }

    fn json(&self) -> String {
        JsonObject::new()
            .string("name", &self.name)
            .integer("iters", self.iters)
            .integer("allocations", self.allocations)
            .integer("bytes", self.bytes)
            .integer("tapes", self.tapes)
            .float("allocs_per_iter", self.allocs_per_iter())
            .finish()
    }
}

/// A small off-object perturbation "sticker", re-painted with a different
/// intensity each iteration so every pass evaluates a fresh genome (the
/// shape of work the attack loop produces; a constant mask could hide
/// per-novel-input allocations).
fn paint(mask: &mut FilterMask, iter: u64) {
    let v = 20 + (iter % 60) as i16;
    for dy in 0..3 {
        for dx in 0..4 {
            mask.set((iter as usize + dx) % 3, 4 + dy, 5 + dx, v);
        }
    }
}

fn run_case(arch: Architecture, policy: KernelPolicy, warmup: u64, iters: u64) -> Case {
    let policy_name = match policy {
        KernelPolicy::Reference => "reference",
        KernelPolicy::Blocked => "blocked",
    };
    let name = format!("{}_{policy_name}", arch.name().to_lowercase().replace('-', ""));
    let zoo = ModelZoo::with_defaults().with_kernel_policy(policy);
    let model = zoo.cached_model(arch, 1);
    let img = SyntheticKitti::smoke_set().image(0);
    let mut mask = FilterMask::zeros(img.width(), img.height());

    for i in 0..warmup {
        paint(&mut mask, i);
        let _ = black_box(model.detect_masked(&img, &mask));
    }

    let before = ALLOC.snapshot();
    let tapes_before = bea_tensor::tapes_created();
    for i in 0..iters {
        paint(&mut mask, warmup + i);
        let _ = black_box(model.detect_masked(&img, &mask));
    }
    let delta = ALLOC.snapshot().since(&before);
    // The plain detect path must never touch the autodiff tape: gradients
    // are an explicit white-box opt-in (`Detector::input_gradient`), and a
    // tape recording would both allocate and drag the hot loop.
    let tapes = (bea_tensor::tapes_created() - tapes_before) as u64;

    Case { name, iters, allocations: delta.allocations, bytes: delta.bytes, tapes }
}

struct Options {
    quick: bool,
    check: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options { quick: false, check: false, out: None };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => options.quick = true,
            "--check" => options.check = true,
            "--out" => options.out = Some(args.next().ok_or("--out needs a value")?),
            // cargo bench forwards a --bench marker to harness=false targets.
            "--bench" => {}
            "--help" | "-h" => {
                return Err("usage: steady_state [--quick] [--check] [--out PATH]\n\
                            --quick shrinks warm-up and window for smoke runs\n\
                            --check exits 1 if any configuration allocates at \
                            steady state\n\
                            --out upserts the records into the keyed run log"
                    .into())
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let (warmup, iters) = if options.quick { (3, 2) } else { (8, 5) };

    let configs = [
        (Architecture::Yolo, KernelPolicy::Reference),
        (Architecture::Yolo, KernelPolicy::Blocked),
        (Architecture::Detr, KernelPolicy::Reference),
        (Architecture::Detr, KernelPolicy::Blocked),
    ];
    let cases: Vec<Case> =
        configs.iter().map(|&(arch, policy)| run_case(arch, policy, warmup, iters)).collect();

    println!(
        "{:<20} {:>6} {:>12} {:>12} {:>16}",
        "case", "iters", "allocations", "bytes", "allocs_per_iter"
    );
    for case in &cases {
        println!(
            "{:<20} {:>6} {:>12} {:>12} {:>16.2}",
            case.name,
            case.iters,
            case.allocations,
            case.bytes,
            case.allocs_per_iter()
        );
    }
    let scratch = bea_tensor::scratch::stats();
    println!(
        "scratch: hits={} misses={} retained_bytes={} high_water_bytes={}",
        scratch.hits, scratch.misses, scratch.retained_bytes, scratch.high_water_bytes
    );

    if let Some(path) = &options.out {
        let rendered: Vec<String> = cases.iter().map(Case::json).collect();
        let run = JsonObject::new()
            .boolean("quick", options.quick)
            .integer("warmup", warmup)
            .integer("iters", iters)
            .raw("cases", &format!("[{}]", rendered.join(",")))
            .finish();
        if let Err(e) = runlog::merge_keyed_run(path, "steady_state", &run) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        println!("merged into {path}");
    }

    if options.check {
        let mut failed = false;
        for case in &cases {
            if case.allocations > 0 {
                eprintln!(
                    "steady-state regression: {} performed {} allocations \
                     ({} bytes) over {} iterations; the hot loop must not \
                     allocate after warm-up",
                    case.name, case.allocations, case.bytes, case.iters
                );
                failed = true;
            }
            if case.tapes > 0 {
                eprintln!(
                    "steady-state regression: {} recorded {} autodiff tapes \
                     over {} iterations; plain detection must stay tape-free",
                    case.name, case.tapes, case.iters
                );
                failed = true;
            }
        }
        if failed {
            return ExitCode::FAILURE;
        }
        println!("check passed: zero steady-state allocations across {} configs", cases.len());
    }
    ExitCode::SUCCESS
}
