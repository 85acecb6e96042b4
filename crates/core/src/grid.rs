//! Deterministic sharded execution — the one runner for the attack's
//! compute threads. [`crate::campaign::Campaign`] and
//! [`crate::transfer::TransferGrid`] shard grid cells over it, and
//! [`crate::ButterflyProblem`] shards one generation's masks over it when
//! the attack runs alone.
//!
//! Every caller follows the same discipline: enumerate work units in a
//! caller-defined order, pull unit indices from a shared cursor across
//! `workers` scoped threads, and commit each result into the slot of its
//! *index* — never into arrival order. Scheduling therefore cannot
//! influence any output, which is what lets the determinism suites pin
//! byte-identical artifacts across `--jobs` and thread settings.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a worker-count setting (`--jobs`, `AttackConfig::threads`):
/// `0` means every available core.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        jobs
    }
}

/// Runs `count` independent work units across at most `workers` scoped
/// threads and returns the results in unit order.
///
/// Units are claimed through a shared atomic cursor, so the set of units
/// each thread executes depends on timing — but each worker hands back
/// its `(index, result)` pairs through its join handle and every result
/// lands in `out[index]`, making the returned vector independent of
/// scheduling. `run` must therefore be a pure function of the unit index.
///
/// # Panics
///
/// Re-raises a worker's panic with its own payload once every worker has
/// stopped.
pub fn run_sharded<T, F>(workers: usize, count: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    // One worker still gets its own thread: a new thread is placed on an
    // idle CPU, while the caller (say, a serve worker just woken on the
    // reactor's CPU) would keep competing with the thread that woke it.
    let workers = workers.clamp(1, count);
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            if k >= count {
                return done;
            }
            done.push((k, run(k)));
        }
    };
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
        handles.into_iter().map(|handle| handle.join()).collect()
    });
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(count, || None);
    for pairs in joined {
        let pairs = pairs.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        for (k, value) in pairs {
            slots[k] = Some(value);
        }
    }
    slots.into_iter().map(|slot| slot.expect("every unit filled")).collect()
}

/// FNV-1a 64-bit hash: grid fingerprints and file-name disambiguation.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_unit_order() {
        for workers in [1, 3, 8] {
            let out = run_sharded(workers, 17, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn empty_grid_spawns_nothing() {
        let out: Vec<usize> = run_sharded(4, 0, |_| unreachable!("no units to run"));
        assert!(out.is_empty());
    }

    #[test]
    fn worker_count_clamps_to_unit_count() {
        // More workers than units must not deadlock or drop results.
        let out = run_sharded(64, 2, |i| i + 1);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "unit 5 failed")]
    fn a_worker_panic_keeps_its_own_message() {
        let _ = run_sharded(3, 8, |i| {
            assert_ne!(i, 5, "unit 5 failed");
            i
        });
    }

    #[test]
    fn zero_jobs_resolves_to_at_least_one() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(5), 5);
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
