//! Hardened experiment execution: per-episode panic isolation, bounded
//! retry with reseeding, a per-cell wall-clock watchdog, and partial-result
//! export.
//!
//! The figure harnesses run thousands of episodes; one poisoned episode (a
//! panic in an agent, a degenerate scenario) used to abort the whole run
//! and lose every completed cell. [`run_cell`] isolates each episode behind
//! `catch_unwind`, retries a failed episode a bounded number of times with
//! a reseeded RNG stream, stops early when the cell exceeds its wall-clock
//! budget, and always returns whatever completed — which
//! [`CellOutcome::to_csv`] can export with a per-episode status column so a
//! partial run is still analyzable.

use crate::retry::{self, Attempt, Exhausted, RetryPolicy};
use drive_metrics::export::Csv;
use drive_sim::record::EpisodeRecord;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Seed offset applied per retry so a reattempt does not replay the exact
/// failing stream (odd constant from the SplitMix64 increment).
pub const RESEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Knobs for [`run_cell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Attempts per episode (first try + retries); min 1.
    pub max_attempts: usize,
    /// Soft wall-clock budget for the whole cell. Checked between
    /// episodes (episodes are not preempted mid-flight); `None` disables
    /// the watchdog.
    pub cell_budget: Option<Duration>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            max_attempts: 3,
            cell_budget: None,
        }
    }
}

/// One successfully completed episode.
#[derive(Debug, Clone)]
pub struct EpisodeRun {
    /// Index within the cell.
    pub episode: usize,
    /// Seed the successful attempt ran with.
    pub seed: u64,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: usize,
    /// The record.
    pub record: EpisodeRecord,
}

/// One episode that exhausted its retry budget.
#[derive(Debug, Clone)]
pub struct EpisodeFailure {
    /// Index within the cell.
    pub episode: usize,
    /// Seed of the final failing attempt.
    pub seed: u64,
    /// Attempts consumed.
    pub attempts: usize,
    /// Panic payload of the final attempt, stringified.
    pub reason: String,
}

/// Everything a hardened cell run produced.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Completed episodes, in order.
    pub runs: Vec<EpisodeRun>,
    /// Episodes that failed every attempt.
    pub failures: Vec<EpisodeFailure>,
    /// Episodes requested.
    pub requested: usize,
    /// Episodes actually attempted before the watchdog (if any) fired.
    pub attempted: usize,
    /// Wall-clock time the cell took.
    pub elapsed: Duration,
}

impl CellOutcome {
    /// True when every requested episode produced a record.
    pub fn complete(&self) -> bool {
        self.runs.len() == self.requested
    }

    /// True when the wall-clock watchdog cut the cell short.
    pub fn timed_out(&self) -> bool {
        self.attempted < self.requested
    }

    /// The completed records, dropping episode bookkeeping.
    pub fn into_records(self) -> Vec<EpisodeRecord> {
        self.runs.into_iter().map(|r| r.record).collect()
    }

    /// Per-episode export with a `status` column (`ok` / `failed` /
    /// `skipped`), so partial results survive a degraded run.
    pub fn to_csv(&self) -> Csv {
        let mut csv = Csv::new([
            "episode",
            "seed",
            "status",
            "attempts",
            "steps",
            "passed",
            "collision",
            "attack_success",
            "nominal_return",
            "adv_return",
            "nonfinite_actions",
        ]);
        for run in &self.runs {
            let r = &run.record;
            csv.row([
                run.episode.to_string(),
                run.seed.to_string(),
                "ok".to_string(),
                run.attempts.to_string(),
                r.steps.to_string(),
                r.passed.to_string(),
                r.collision.is_some().to_string(),
                r.attack_success().to_string(),
                format!("{:.3}", r.nominal_return),
                format!("{:.3}", r.adv_return),
                r.nonfinite_actions.to_string(),
            ]);
        }
        for f in &self.failures {
            csv.row([
                f.episode.to_string(),
                f.seed.to_string(),
                "failed".to_string(),
                f.attempts.to_string(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ]);
        }
        for episode in self.attempted..self.requested {
            csv.row([
                episode.to_string(),
                String::new(),
                "skipped".to_string(),
                "0".to_string(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ]);
        }
        csv
    }
}

fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs `requested` episodes through `run_one`, isolating each behind
/// `catch_unwind`.
///
/// Episode `e`'s first attempt uses seed `base_seed + e` — identical to
/// the naive loop, so healthy runs reproduce bit-for-bit. A panicking
/// attempt is retried up to [`ResilienceConfig::max_attempts`] times, each
/// retry offsetting the seed by [`RESEED_STRIDE`]; an episode that
/// exhausts its attempts is recorded as an [`EpisodeFailure`] and the cell
/// moves on. The wall-clock budget is checked between episodes: once
/// exceeded, remaining episodes are skipped (visible via
/// [`CellOutcome::timed_out`]).
///
/// `run_one` must leave shared state usable after a panic; agents heal via
/// their episode-start `reset`, which is why the runner resets everything
/// before stepping.
pub fn run_cell(
    requested: usize,
    base_seed: u64,
    config: &ResilienceConfig,
    mut run_one: impl FnMut(u64) -> EpisodeRecord,
) -> CellOutcome {
    let start = Instant::now();
    let mut outcome = CellOutcome {
        runs: Vec::with_capacity(requested),
        failures: Vec::new(),
        requested,
        attempted: 0,
        elapsed: Duration::ZERO,
    };
    for episode in 0..requested {
        if let Some(budget) = config.cell_budget {
            if start.elapsed() >= budget {
                break;
            }
        }
        outcome.attempted += 1;
        // The shared retry engine drives the attempts; the per-attempt
        // seed offset (`base + episode`, then `+ attempt * RESEED_STRIDE`)
        // is identical to the historical hand-rolled loop, so healthy runs
        // and recorded retry seeds reproduce bit-for-bit.
        let policy = RetryPolicy::attempts(config.max_attempts);
        let result = retry::run(&policy, base_seed, |attempt| {
            let seed = (base_seed + episode as u64)
                .wrapping_add((attempt as u64).wrapping_mul(RESEED_STRIDE));
            match catch_unwind(AssertUnwindSafe(|| run_one(seed))) {
                Ok(record) => Ok((seed, record)),
                Err(payload) => Err((seed, panic_reason(payload))),
            }
        });
        match result {
            Ok(Attempt {
                value: (seed, record),
                attempts,
            }) => outcome.runs.push(EpisodeRun {
                episode,
                seed,
                attempts,
                record,
            }),
            Err(Exhausted {
                attempts,
                last: (seed, reason),
            }) => outcome.failures.push(EpisodeFailure {
                episode,
                seed,
                attempts,
                reason,
            }),
        }
    }
    outcome.elapsed = start.elapsed();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_record(seed: u64) -> EpisodeRecord {
        EpisodeRecord {
            steps: 10,
            dt: 0.1,
            nominal_return: seed as f64,
            ..EpisodeRecord::default()
        }
    }

    #[test]
    fn healthy_cell_matches_naive_seeding() {
        let outcome = run_cell(4, 100, &ResilienceConfig::default(), fake_record);
        assert!(outcome.complete());
        assert!(!outcome.timed_out());
        assert_eq!(outcome.failures.len(), 0);
        let seeds: Vec<u64> = outcome.runs.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![100, 101, 102, 103]);
        assert!(outcome.runs.iter().all(|r| r.attempts == 1));
    }

    #[test]
    fn poisoned_episode_is_retried_with_new_seed() {
        let mut calls = 0;
        let outcome = run_cell(3, 0, &ResilienceConfig::default(), |seed| {
            calls += 1;
            // Episode 1's first attempt (seed == 1) panics; its retry
            // (seed offset by the stride) succeeds.
            if seed == 1 {
                panic!("poisoned episode");
            }
            fake_record(seed)
        });
        assert!(outcome.complete(), "retry must recover the episode");
        assert_eq!(calls, 4, "3 episodes + 1 retry");
        let retried = &outcome.runs[1];
        assert_eq!(retried.episode, 1);
        assert_eq!(retried.attempts, 2);
        assert_eq!(retried.seed, 1 + RESEED_STRIDE);
    }

    #[test]
    fn persistent_failure_is_bounded_and_reported() {
        let mut calls = 0;
        let outcome = run_cell(
            2,
            0,
            &ResilienceConfig {
                max_attempts: 3,
                cell_budget: None,
            },
            |seed| {
                calls += 1;
                // Episode 0's three attempt seeds — fail all of them.
                let ep0 = [0, RESEED_STRIDE, RESEED_STRIDE.wrapping_mul(2)];
                if ep0.contains(&seed) {
                    panic!("always broken");
                }
                fake_record(seed)
            },
        );
        assert!(!outcome.complete());
        assert_eq!(calls, 4, "3 failed attempts + 1 healthy episode");
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].episode, 0);
        assert_eq!(outcome.failures[0].attempts, 3);
        assert_eq!(outcome.failures[0].reason, "always broken");
        assert_eq!(outcome.runs.len(), 1);
    }

    #[test]
    fn wall_clock_watchdog_skips_remaining_episodes() {
        let outcome = run_cell(
            5,
            0,
            &ResilienceConfig {
                max_attempts: 1,
                cell_budget: Some(Duration::ZERO),
            },
            fake_record,
        );
        assert_eq!(outcome.attempted, 0);
        assert!(outcome.timed_out());
        let csv = outcome.to_csv();
        assert_eq!(csv.len(), 5, "skipped episodes still appear in export");
        assert!(csv.to_csv_string().contains("skipped"));
    }

    #[test]
    fn poisoned_figure_cell_retries_and_exports_partial_results() {
        use drive_agents::modular::{ModularAgent, ModularConfig};
        use drive_agents::runner::run_episode;
        use drive_sim::scenario::Scenario;

        // One artificially-poisoned episode in a real figure-style cell:
        // the first attempt of episode 1 panics, the retry completes, and
        // the partial CSV export succeeds instead of the run aborting.
        let scenario = Scenario::default();
        let outcome = run_cell(3, 50, &ResilienceConfig::default(), |seed| {
            if seed == 51 {
                panic!("artificially poisoned episode");
            }
            let mut agent = ModularAgent::new(ModularConfig::default(), 1);
            run_episode(&mut agent, &scenario, seed, None, |_, _, _| {})
        });
        assert!(
            outcome.complete(),
            "retry must recover the poisoned episode"
        );
        assert_eq!(outcome.runs[1].attempts, 2);
        assert!(outcome.runs.iter().all(|r| r.record.steps > 0));

        let dir = std::env::temp_dir().join("repro-bench-resilience-test");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("partial.csv");
        outcome
            .to_csv()
            .write_to(&path)
            .expect("export partial CSV");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 4, "header + 3 episodes");
    }

    #[test]
    fn partial_csv_has_status_for_every_requested_episode() {
        let outcome = run_cell(
            3,
            0,
            &ResilienceConfig {
                max_attempts: 1,
                cell_budget: None,
            },
            |seed| {
                if seed == 1 {
                    panic!("boom");
                }
                fake_record(seed)
            },
        );
        let text = outcome.to_csv().to_csv_string();
        assert_eq!(outcome.to_csv().len(), 3);
        assert!(text.contains("ok"));
        assert!(text.contains("failed"));
        assert!(text
            .lines()
            .next()
            .is_some_and(|h| h.starts_with("episode,seed,status")));
    }
}
