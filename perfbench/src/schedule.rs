//! Seeded arrival schedules and seed derivation. Everything a run feeds
//! the program descends from `--seed` through [`derive`], so the same
//! seed replays the same inputs and the same schedule.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// A SplitMix64 finalizer over `seed`, a stream tag and an index: the
/// seed of item `index` of stream `stream`.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)
        ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One open-loop arrival: when it is due, and whether it is a batch
/// session (otherwise interactive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time, from the start of the schedule.
    pub at: Duration,
    /// Batch session (`false`: interactive).
    pub batch: bool,
}

/// A Poisson arrival schedule at `rate_per_s` over `[0, horizon)`,
/// conditioned on its count: exactly `round(rate_per_s × horizon)`
/// arrivals at sorted uniform times (how a Poisson process places a given
/// number of arrivals), of which exactly `round(count × batch_share)`,
/// at seeded positions, are batch sessions. Every seed thus offers the
/// same load; only when it arrives differs.
pub fn poisson(seed: u64, rate_per_s: f64, horizon: Duration, batch_share: f64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(derive(seed, 0xA771, 0));
    let horizon = horizon.as_secs_f64();
    let count = (rate_per_s * horizon).round() as usize;
    let batches = (count as f64 * batch_share).round() as usize;
    let mut times: Vec<f64> = (0..count).map(|_| rng.next_f64() * horizon).collect();
    times.sort_by(f64::total_cmp);
    let mut batch: Vec<bool> = (0..count).map(|i| i < batches).collect();
    batch.shuffle(&mut rng);
    times
        .into_iter()
        .zip(batch)
        .map(|(t, batch)| Arrival {
            at: Duration::from_secs_f64(t),
            batch,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson(7, 70.0, Duration::from_secs(20), 0.2);
        let b = poisson(7, 70.0, Duration::from_secs(20), 0.2);
        assert_eq!(a, b);
        let c = poisson(8, 70.0, Duration::from_secs(20), 0.2);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_holds_rate_mix_and_order() {
        let a = poisson(3, 70.0, Duration::from_secs(20), 0.2);
        assert_eq!(a.len(), 1_400);
        assert_eq!(a.iter().filter(|x| x.batch).count(), 280);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.last().is_some_and(|x| x.at < Duration::from_secs(20)));
        // Roughly uniform over the horizon: each half holds about half.
        let first_half = a.iter().filter(|x| x.at < Duration::from_secs(10)).count();
        assert!((600..800).contains(&first_half), "{first_half}");
        // Batch sessions are spread through the schedule, not bunched.
        let early_batch = a[..700].iter().filter(|x| x.batch).count();
        assert!((100..180).contains(&early_batch), "{early_batch}");
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_index() {
        assert_eq!(derive(1, 2, 3), derive(1, 2, 3));
        assert_ne!(derive(1, 2, 3), derive(1, 2, 4));
        assert_ne!(derive(1, 2, 3), derive(1, 3, 3));
        assert_ne!(derive(1, 2, 3), derive(2, 2, 3));
    }
}
