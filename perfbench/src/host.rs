//! Process accounting from `/proc` and the host probe.

use bea_detect::{Architecture, Detector, ModelZoo};
use bea_scene::SyntheticKitti;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (USER_HZ,
/// 100 on every Linux architecture this runs on).
const CLOCK_TICKS: f64 = 100.0;

/// User + system CPU seconds of a process, every thread included (and
/// threads that already exited).
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_cpu_seconds(&text).ok_or_else(|| format!("{path}: unexpected format"))
}

fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name may contain spaces; fields resume after its ')'.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS)
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_vm_hwm_kib(&text).map(|kib| kib / 1024.0).ok_or_else(|| format!("{path}: no VmHWM line"))
}

fn parse_vm_hwm_kib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The yardstick's matrix product: `A (M×K) · B (K×M)` in `f32`, eight
/// accumulator lanes per step, the shape of the program's GEMM
/// microkernels but this harness's own code, so no program change moves
/// it. 72 KiB of operands: L2-resident, like the program's tiles.
const YARD_M: usize = 48;
const YARD_K: usize = 192;
/// Products per yardstick sample.
const YARD_PRODUCTS: usize = 96;
/// What one yardstick sample takes on the reference host (2 vCPUs, both
/// busy, in its usual state): the host speed every end-to-end time is
/// expressed at. A constant, never measured per run.
pub const YARD_MS: f64 = 5.0;

/// Times one yardstick sample on this thread, in milliseconds.
///
/// This host's speed per instruction drifts by up to 2× over seconds to
/// minutes with its other tenants' load (README.md, "Host speed"), and
/// the program's wall and CPU times drift with it one for one. Samples
/// taken among the program's own work — between cells, around each
/// serve phase — measure that drift, and [`HostSpeed`] divides it out.
pub fn yardstick_ms() -> f64 {
    let a: Vec<f32> = (0..YARD_M * YARD_K).map(|i| (i % 13) as f32 * 0.01).collect();
    let b: Vec<f32> = (0..YARD_K * YARD_M).map(|i| (i % 11) as f32 * 0.02).collect();
    let mut c = vec![0f32; YARD_M * YARD_M];
    let start = Instant::now();
    for _ in 0..YARD_PRODUCTS {
        product(std::hint::black_box(&a), std::hint::black_box(&b), &mut c);
        std::hint::black_box(&mut c);
    }
    start.elapsed().as_secs_f64() * 1e3
}

fn product(a: &[f32], b: &[f32], c: &mut [f32]) {
    for (a_row, c_row) in a.chunks_exact(YARD_K).zip(c.chunks_exact_mut(YARD_M)) {
        let mut acc = [[0f32; 8]; YARD_M / 8];
        for (&av, b_row) in a_row.iter().zip(b.chunks_exact(YARD_M)) {
            for (lanes, b_lanes) in acc.iter_mut().zip(b_row.chunks_exact(8)) {
                for (slot, &bv) in lanes.iter_mut().zip(b_lanes) {
                    *slot += av * bv;
                }
            }
        }
        for (out, lanes) in c_row.chunks_exact_mut(8).zip(&acc) {
            out.copy_from_slice(lanes);
        }
    }
}

/// Yardstick samples taken over one stretch of a run.
#[derive(Debug, Clone, Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    pub fn push(&mut self, ms: f64) {
        self.samples.push(ms);
    }

    /// Takes `per_thread` samples on each of `threads` threads at once
    /// (every core busy, as under the program's load).
    pub fn sample(&mut self, threads: usize, per_thread: usize) {
        let samples: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(move || (0..per_thread).map(|_| yardstick_ms()).collect()))
                .collect::<Vec<std::thread::ScopedJoinHandle<Vec<f64>>>>();
            handles.into_iter().flat_map(|h| h.join().expect("yardstick thread")).collect()
        });
        self.samples.extend(samples);
    }

    pub fn merge(&mut self, other: &HostSpeed) {
        self.samples.extend_from_slice(&other.samples);
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Summed sample time, in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Mean sample time, in milliseconds ([`YARD_MS`] without samples).
    pub fn mean_ms(&self) -> f64 {
        if self.samples.is_empty() {
            YARD_MS
        } else {
            self.total_ms() / self.samples.len() as f64
        }
    }

    /// How many times slower than the reference host this stretch ran:
    /// a time measured in it, divided by this, is that time at the
    /// reference host's speed.
    pub fn slowdown(&self) -> f64 {
        self.mean_ms() / YARD_MS
    }
}

/// Forward passes in one probe unit.
const PROBE_PASSES: usize = 16;
/// Probe units per measurement; the median is reported.
const PROBE_REPEATS: usize = 3;

/// Times a fixed deterministic unit of work — [`PROBE_PASSES`] plain
/// forward passes of one YOLO model on one image, on this thread — and
/// returns the median of [`PROBE_REPEATS`] units in milliseconds. Taken
/// before and after each run while the program is idle, it tells a slow
/// host apart from a slow change; it never scales another metric.
pub fn probe_ms() -> f64 {
    let model = ModelZoo::with_defaults().model(Architecture::Yolo, 1);
    let image = SyntheticKitti::evaluation_set().image(0);
    let times: Vec<f64> = (0..PROBE_REPEATS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..PROBE_PASSES {
                std::hint::black_box(model.detect(std::hint::black_box(&image)));
            }
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_the_name() {
        let stat = "4242 (serve cli) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 75 0 0 20 0 5 0";
        assert_eq!(parse_cpu_seconds(stat), Some(3.25));
        assert_eq!(parse_cpu_seconds("garbage"), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048.0));
    }

    #[test]
    fn yardstick_product_is_a_matrix_product() {
        let a: Vec<f32> = (0..YARD_M * YARD_K).map(|i| (i % 7) as f32).collect();
        let b: Vec<f32> = (0..YARD_K * YARD_M).map(|i| (i % 5) as f32).collect();
        let mut c = vec![0f32; YARD_M * YARD_M];
        product(&a, &b, &mut c);
        for (i, j) in [(0, 0), (3, 17), (47, 47)] {
            let want: f32 = (0..YARD_K).map(|k| a[i * YARD_K + k] * b[k * YARD_M + j]).sum();
            assert_eq!(c[i * YARD_M + j], want);
        }
    }

    #[test]
    fn slowdown_is_the_mean_sample_over_the_reference() {
        let mut speed = HostSpeed::default();
        assert_eq!(speed.slowdown(), 1.0);
        speed.push(YARD_MS);
        speed.push(2.0 * YARD_MS);
        assert_eq!(speed.slowdown(), 1.5);
        let mut sampled = HostSpeed::default();
        sampled.sample(2, 3);
        assert_eq!(sampled.samples.len(), 6);
        assert!(sampled.samples.iter().all(|&ms| ms > 0.0));
        speed.merge(&sampled);
        assert_eq!(speed.samples.len(), 8);
    }

    #[test]
    fn reads_this_process() {
        assert!(cpu_seconds("self").unwrap() >= 0.0);
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
