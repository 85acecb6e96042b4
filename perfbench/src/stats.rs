//! Order statistics, seeded randomness and the open-loop arrival schedule.

/// Nearest-rank percentile (`q` in `[0, 100]`) of unsorted `values`:
/// sorts a copy and asks `bea_serve::percentile`, the server's own.
///
/// `f64::INFINITY` entries stand for refused or failed jobs: they sort
/// last, so they count as missing every latency limit and push the
/// percentile to infinity once they outnumber the samples above it.
/// Returns 0 for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    bea_serve::percentile(&sorted, q)
}

/// The median, as [`percentile`] at 50.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Latency of one open-loop request, timed from when it was *due*: the
/// wait a generator stall imposes counts against the system. A request
/// that never completed (refused or failed) is `+inf`.
pub fn due_latency(due: f64, done: Option<f64>) -> f64 {
    match done {
        Some(done) => done - due,
        None => f64::INFINITY,
    }
}

/// How late the generator sent a request, never negative.
pub fn lateness(due: f64, sent: f64) -> f64 {
    (sent - due).max(0.0)
}

/// SplitMix64: a small, seedable, portable generator. Every input the
/// benchmark makes comes from one of these, so a seed fixes the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so independent draws
    /// (cells, arrivals, samples) do not shift when one of them changes.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `count` distinct values from `0..n`, in draw order.
    pub fn distinct(&mut self, n: usize, count: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        self.shuffle(&mut all);
        all.truncate(count);
        all
    }
}

/// Model seeds per architecture, as in the paper's grid (Table I).
pub const MODEL_SEEDS: u64 = 25;

/// Every `(model seed, image)` cell of one architecture — model seeds
/// `1..=MODEL_SEEDS`, images `0..images` — dealt one image of each model
/// seed in turn, seeds and each seed's images in a seeded order. Any
/// prefix spreads over the model seeds evenly, so a run's cost never
/// hinges on which few models its seed drew.
pub fn dealt_cells(rng: &mut Rng, images: usize) -> Vec<(u64, usize)> {
    let mut seeds: Vec<u64> = (1..=MODEL_SEEDS).collect();
    rng.shuffle(&mut seeds);
    let orders: Vec<Vec<usize>> = seeds
        .iter()
        .map(|_| {
            let mut order: Vec<usize> = (0..images).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect();
    (0..images)
        .flat_map(|turn| seeds.iter().zip(&orders).map(move |(&seed, order)| (seed, order[turn])))
        .collect()
}

/// Due times (seconds after the phase start) of `count` Poisson arrivals
/// at `rate` per second: exponential gaps, the first one included.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, count: usize) -> Vec<f64> {
    let mut at = 0.0;
    (0..count)
        .map(|_| {
            at += -rng.unit().ln() / rate;
            at
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 5.0);
        assert_eq!(percentile(&values, 90.0), 9.0);
        assert_eq!(percentile(&values, 100.0), 10.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn refused_and_failed_jobs_count_as_infinite_latency() {
        // 100 jobs: 85 fast, 5 slow, 10 never completed.
        let mut values = vec![1.0; 85];
        values.extend([2.0; 5]);
        values.extend([due_latency(0.0, None); 10]);
        assert_eq!(percentile(&values, 50.0), 1.0);
        assert_eq!(percentile(&values, 90.0), 2.0);
        assert!(percentile(&values, 91.0).is_infinite());
        // Order of arrival does not matter.
        values.reverse();
        assert_eq!(percentile(&values, 90.0), 2.0);
    }

    #[test]
    fn latency_runs_from_the_due_time_and_lateness_is_clamped() {
        // Due at 1.0, sent late at 1.25, done at 2.0: the stall counts.
        assert_eq!(due_latency(1.0, Some(2.0)), 1.0);
        assert_eq!(lateness(1.0, 1.25), 0.25);
        assert_eq!(lateness(1.0, 0.75), 0.0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson_schedule(&mut Rng::new(7, 1), 5.0, 200);
        let b = poisson_schedule(&mut Rng::new(7, 1), 5.0, 200);
        let c = poisson_schedule(&mut Rng::new(8, 1), 5.0, 200);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // Mean gap near 1/rate.
        let mean_gap = a[199] / 200.0;
        assert!((mean_gap - 0.2).abs() < 0.05, "mean gap {mean_gap}");
    }

    #[test]
    fn dealt_cells_cover_every_cell_spread_over_the_seeds() {
        let cells = dealt_cells(&mut Rng::new(5, 0), 16);
        assert_eq!(cells, dealt_cells(&mut Rng::new(5, 0), 16));
        assert_ne!(cells, dealt_cells(&mut Rng::new(6, 0), 16));
        let mut all = cells.clone();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), MODEL_SEEDS as usize * 16);
        // Every run of MODEL_SEEDS cells holds each model seed once.
        for turn in cells.chunks(MODEL_SEEDS as usize) {
            let mut seeds: Vec<u64> = turn.iter().map(|c| c.0).collect();
            seeds.sort_unstable();
            assert_eq!(seeds, (1..=MODEL_SEEDS).collect::<Vec<_>>());
        }
    }

    #[test]
    fn distinct_draws_do_not_repeat() {
        let mut rng = Rng::new(3, 0);
        let mut drawn = rng.distinct(400, 50);
        assert_eq!(drawn.len(), 50);
        drawn.sort_unstable();
        drawn.dedup();
        assert_eq!(drawn.len(), 50);
    }
}
