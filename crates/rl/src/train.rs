//! Off-policy training loop and evaluation helpers.

use crate::env::{rollout, Env};
use crate::replay::{ReplayBuffer, Transition};
use crate::sac::{Sac, SacLosses};
use crate::snapshot::{SnapshotConfig, TrainSnapshot};
use crate::stats::RunningStats;
use drive_seed::{fnv1a_64, SeedTree, StreamPos};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of [`train_sac`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Total environment steps to collect.
    pub total_steps: usize,
    /// Steps of uniform-random exploration before using the policy.
    pub start_steps: usize,
    /// Steps collected before the first gradient update.
    pub update_after: usize,
    /// Gradient updates per environment step (may be fractional via
    /// `update_every`: one update every `update_every` env steps).
    pub update_every: usize,
    /// Replay capacity.
    pub replay_capacity: usize,
    /// Master seed; episode seeds derive from it.
    pub seed: u64,
    /// Training-loss watchdog: any loss whose magnitude exceeds this (or
    /// goes non-finite) triggers a rollback to the last healthy learner
    /// snapshot. `f32::INFINITY` disables the watchdog.
    pub loss_divergence_threshold: f32,
    /// Healthy updates between watchdog snapshots of the learner.
    pub snapshot_every: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            total_steps: 20_000,
            start_steps: 1_000,
            update_after: 1_000,
            update_every: 1,
            replay_capacity: 100_000,
            seed: 0,
            loss_divergence_threshold: 1e4,
            snapshot_every: 200,
        }
    }
}

/// Summary statistics of a training run.
#[derive(Debug, Clone, Default)]
pub struct TrainStats {
    /// Return of every completed episode, in order.
    pub episode_returns: Vec<f32>,
    /// Length of every completed episode.
    pub episode_lengths: Vec<usize>,
    /// Losses from the most recent update.
    pub last_losses: SacLosses,
    /// Environment steps executed.
    pub steps: usize,
    /// Streaming statistics of the episode returns.
    pub return_stats: RunningStats,
    /// Times the loss watchdog rolled the learner back to its last healthy
    /// snapshot (0 in a healthy run).
    pub rollbacks: usize,
}

impl TrainStats {
    /// Mean return over the last `n` episodes (all if fewer).
    pub fn recent_mean_return(&self, n: usize) -> f32 {
        if self.episode_returns.is_empty() {
            return 0.0;
        }
        let tail = &self.episode_returns[self.episode_returns.len().saturating_sub(n)..];
        tail.iter().sum::<f32>() / tail.len() as f32
    }
}

/// True when every loss channel is finite and within the divergence bound.
fn losses_healthy(l: &SacLosses, threshold: f32) -> bool {
    [l.q1_loss, l.q2_loss, l.actor_loss, l.alpha]
        .iter()
        .all(|v| v.is_finite() && v.abs() <= threshold)
        && l.entropy.is_finite()
}

/// Runs off-policy SAC training on an environment.
///
/// The loop is the standard one: collect a transition (random during
/// `start_steps`, on-policy stochastic afterwards), store it, and perform
/// one update every `update_every` steps once `update_after` transitions
/// exist.
///
/// A loss watchdog guards the learner: the optimizer occasionally diverges
/// (exploding Q targets, a NaN slipping through a pathological batch), and
/// once parameters go non-finite every later update is garbage. The loop
/// snapshots the learner every [`TrainConfig::snapshot_every`] healthy
/// updates and, when an update reports a non-finite or out-of-bound loss,
/// restores the snapshot instead of continuing from the poisoned state.
/// Rollbacks are counted in [`TrainStats::rollbacks`].
pub fn train_sac<E: Env + ?Sized>(env: &mut E, sac: &mut Sac, config: TrainConfig) -> TrainStats {
    train_sac_resumable(env, sac, config, None)
}

/// Hash pinning a snapshot to its training setup: the full [`TrainConfig`],
/// the SAC hyper-parameters, and the environment shapes. A snapshot taken
/// under any other setup is ignored on resume.
fn train_config_hash<E: Env + ?Sized>(env: &E, sac: &Sac, config: &TrainConfig) -> u64 {
    fnv1a_64(
        format!(
            "{config:?}|{:?}|{}|{}",
            sac.config(),
            env.obs_dim(),
            env.action_dim()
        )
        .as_bytes(),
    )
}

/// [`train_sac`] with optional crash-recovery snapshots.
///
/// When `snapshot` is set, the loop periodically (at episode boundaries, at
/// least [`SnapshotConfig::every_steps`] apart) writes a durable
/// [`TrainSnapshot`] capturing the learner, replay buffer, statistics, and
/// the exact RNG stream position. On the next call with the same
/// configuration, a valid snapshot at that path is restored and training
/// re-enters the loop at the saved step — the completed run is bit-identical
/// to an uninterrupted one, because every source of randomness resumes
/// mid-stream and the environment is re-entered at an episode boundary via
/// its seed. A snapshot from a different configuration, a torn file, or a
/// stale format version is ignored (with a note on stderr) and training
/// starts from scratch. The snapshot file is removed once training
/// completes.
pub fn train_sac_resumable<E: Env + ?Sized>(
    env: &mut E,
    sac: &mut Sac,
    config: TrainConfig,
    snapshot: Option<&SnapshotConfig>,
) -> TrainStats {
    let mut rng = StdRng::seed_from_u64(SeedTree::root(config.seed).child("sac-train").seed());
    let mut buffer = ReplayBuffer::new(config.replay_capacity, env.obs_dim(), env.action_dim());
    let mut stats = TrainStats::default();
    let mut episode_seed = config.seed;
    let mut ep_return = 0.0f32;
    let mut ep_len = 0usize;
    let mut last_good: Option<Sac> = None;
    let mut healthy_updates = 0usize;
    let mut start_step = 0usize;
    let mut last_snapshot_step = 0usize;
    let config_hash = train_config_hash(env, sac, &config);

    if let Some(sc) = snapshot {
        if sc.path.exists() {
            match TrainSnapshot::load(&sc.path, *sac.config()) {
                Ok(snap) if snap.config_hash == config_hash && snap.step <= config.total_steps => {
                    rng = snap.rng.restore();
                    buffer = snap.buffer;
                    stats = snap.stats;
                    episode_seed = snap.episode_seed;
                    *sac = snap.sac;
                    last_good = snap.last_good;
                    healthy_updates = snap.healthy_updates;
                    start_step = snap.step;
                    last_snapshot_step = snap.step;
                }
                Ok(snap) => {
                    eprintln!(
                        "[train] ignoring snapshot {}: config hash {:016x} != {config_hash:016x} \
                         or step {} beyond total {}",
                        sc.path.display(),
                        snap.config_hash,
                        snap.step,
                        config.total_steps
                    );
                }
                Err(e) => {
                    eprintln!(
                        "[train] ignoring unreadable snapshot {}: {e}",
                        sc.path.display()
                    );
                }
            }
        }
    }
    // Fresh start, or re-entry at the episode boundary the snapshot pinned:
    // either way the environment state derives from the episode seed alone.
    let mut obs = env.reset(episode_seed);

    for step in start_step..config.total_steps {
        let action: Vec<f32> = if step < config.start_steps {
            (0..env.action_dim())
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect()
        } else {
            sac.act(&obs, &mut rng, false)
        };
        let s = env.step(&action);
        ep_return += s.reward;
        ep_len += 1;
        buffer.push(Transition {
            obs: std::mem::take(&mut obs),
            action,
            reward: s.reward,
            next_obs: s.obs.clone(),
            terminal: s.done,
        });
        let finished = s.finished();
        obs = s.obs;
        if finished {
            stats.episode_returns.push(ep_return);
            stats.episode_lengths.push(ep_len);
            stats.return_stats.push(ep_return as f64);
            ep_return = 0.0;
            ep_len = 0;
            episode_seed += 1;
            obs = env.reset(episode_seed);
        }
        if buffer.len() >= config.update_after && step % config.update_every.max(1) == 0 {
            let losses = sac.update(&buffer, &mut rng);
            if losses_healthy(&losses, config.loss_divergence_threshold) {
                stats.last_losses = losses;
                healthy_updates += 1;
                if healthy_updates.is_multiple_of(config.snapshot_every.max(1))
                    || last_good.is_none()
                {
                    last_good = Some(sac.clone());
                }
            } else {
                stats.rollbacks += 1;
                if let Some(snapshot) = &last_good {
                    *sac = snapshot.clone();
                }
                // No healthy snapshot yet: keep the (possibly poisoned)
                // learner but still record the event; the next healthy
                // update establishes the first snapshot.
            }
        }
        stats.steps = step + 1;
        // Snapshot only at an episode boundary (the environment state is
        // then fully determined by `episode_seed`), after this step's
        // update has consumed its RNG draws, and never on the final step
        // (the run is about to finish anyway).
        if finished {
            if let Some(sc) = snapshot {
                let done = step + 1;
                if done < config.total_steps && done - last_snapshot_step >= sc.every_steps.max(1) {
                    let snap = TrainSnapshot {
                        step: done,
                        episode_seed,
                        config_hash,
                        rng: StreamPos::capture(&rng),
                        healthy_updates,
                        stats: stats.clone(),
                        sac: sac.clone(),
                        last_good: last_good.clone(),
                        buffer: buffer.clone(),
                    };
                    match snap.save(&sc.path) {
                        Ok(()) => last_snapshot_step = done,
                        Err(e) => eprintln!(
                            "[train] snapshot write to {} failed: {e}",
                            sc.path.display()
                        ),
                    }
                }
            }
        }
    }
    if let Some(sc) = snapshot {
        // The run completed; a leftover snapshot would only confuse the
        // next (fresh) run with the same path.
        let _ = std::fs::remove_file(&sc.path);
    }
    stats
}

/// Evaluation summary over several deterministic episodes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalStats {
    /// Per-episode returns.
    pub returns: Vec<f32>,
    /// Per-episode lengths.
    pub lengths: Vec<usize>,
}

impl EvalStats {
    /// Mean return.
    pub fn mean_return(&self) -> f32 {
        if self.returns.is_empty() {
            0.0
        } else {
            self.returns.iter().sum::<f32>() / self.returns.len() as f32
        }
    }

    /// Mean episode length.
    pub fn mean_length(&self) -> f32 {
        if self.lengths.is_empty() {
            0.0
        } else {
            self.lengths.iter().sum::<usize>() as f32 / self.lengths.len() as f32
        }
    }
}

/// Evaluates a policy (any closure) over `episodes` episodes with seeds
/// `base_seed..base_seed + episodes`.
pub fn evaluate<E: Env + ?Sized, F: FnMut(&[f32]) -> Vec<f32>>(
    env: &mut E,
    mut policy: F,
    episodes: usize,
    base_seed: u64,
) -> EvalStats {
    let mut stats = EvalStats::default();
    for e in 0..episodes {
        let (r, l) = rollout(env, &mut policy, base_seed + e as u64);
        stats.returns.push(r);
        stats.lengths.push(l);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_env::PointEnv;
    use crate::sac::SacConfig;

    #[test]
    fn train_loop_improves_point_env() {
        let mut env = PointEnv::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut sac = Sac::new(
            1,
            1,
            &[32, 32],
            SacConfig {
                batch_size: 64,
                actor_lr: 1e-3,
                critic_lr: 1e-3,
                alpha_lr: 1e-3,
                ..SacConfig::default()
            },
            &mut rng,
        );
        let before = evaluate(
            &mut env,
            |o| sac.act(o, &mut StdRng::seed_from_u64(1), true),
            5,
            100,
        );
        let stats = train_sac(
            &mut env,
            &mut sac,
            TrainConfig {
                total_steps: 4000,
                start_steps: 200,
                update_after: 200,
                ..TrainConfig::default()
            },
        );
        assert!(stats.steps == 4000);
        assert!(!stats.episode_returns.is_empty());
        assert_eq!(
            stats.return_stats.count() as usize,
            stats.episode_returns.len()
        );
        let batch_mean =
            stats.episode_returns.iter().sum::<f32>() as f64 / stats.episode_returns.len() as f64;
        assert!((stats.return_stats.mean() - batch_mean).abs() < 1e-3);
        let after = evaluate(
            &mut env,
            |o| sac.act(o, &mut StdRng::seed_from_u64(1), true),
            5,
            100,
        );
        assert!(
            after.mean_return() > before.mean_return(),
            "training must improve: {} -> {}",
            before.mean_return(),
            after.mean_return()
        );
        assert!(after.mean_return() > -6.0, "got {}", after.mean_return());
    }

    #[test]
    fn watchdog_health_check_flags_bad_losses() {
        let good = SacLosses::default();
        assert!(losses_healthy(&good, 1e4));
        let nan = SacLosses {
            q1_loss: f32::NAN,
            ..SacLosses::default()
        };
        assert!(!losses_healthy(&nan, 1e4));
        let exploded = SacLosses {
            actor_loss: 1e6,
            ..SacLosses::default()
        };
        assert!(!losses_healthy(&exploded, 1e4));
        assert!(losses_healthy(&exploded, f32::INFINITY));
    }

    #[test]
    fn watchdog_rolls_back_diverging_training() {
        // A wildly excessive critic learning rate reliably explodes the
        // Q losses on PointEnv; the watchdog must fire and the learner
        // must come out of training with finite parameters.
        let mut env = PointEnv::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mut sac = Sac::new(
            1,
            1,
            &[16],
            SacConfig {
                batch_size: 32,
                critic_lr: 50.0,
                actor_lr: 1e-3,
                ..SacConfig::default()
            },
            &mut rng,
        );
        let stats = train_sac(
            &mut env,
            &mut sac,
            TrainConfig {
                total_steps: 600,
                start_steps: 50,
                update_after: 50,
                loss_divergence_threshold: 100.0,
                snapshot_every: 5,
                ..TrainConfig::default()
            },
        );
        assert!(stats.rollbacks > 0, "expected the watchdog to fire");
        let out = sac.act(&[0.5], &mut StdRng::seed_from_u64(0), true);
        assert!(
            out.iter().all(|v| v.is_finite()),
            "rolled-back learner acts finitely"
        );
    }

    /// Wrapper that aborts training after a fixed number of env steps —
    /// the in-process stand-in for a SIGKILL (the bench integration test
    /// kills real subprocesses; this unit test pins the library-level
    /// contract).
    struct KillAfter {
        inner: PointEnv,
        remaining: usize,
    }

    impl Env for KillAfter {
        fn obs_dim(&self) -> usize {
            self.inner.obs_dim()
        }
        fn action_dim(&self) -> usize {
            self.inner.action_dim()
        }
        fn reset(&mut self, seed: u64) -> Vec<f32> {
            self.inner.reset(seed)
        }
        fn step(&mut self, action: &[f32]) -> crate::env::EnvStep {
            assert!(self.remaining > 0, "simulated kill");
            self.remaining -= 1;
            self.inner.step(action)
        }
    }

    #[test]
    fn snapshot_resume_matches_uninterrupted_run() {
        // Three runs with the same configuration: (a) straight through,
        // (b) snapshotting but never killed, (c) killed mid-run and
        // resumed from the snapshot. Final policies and statistics must be
        // bit-identical across all three.
        let dir = std::env::temp_dir().join("drive-rl-resume-test");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = TrainConfig {
            total_steps: 900,
            start_steps: 100,
            update_after: 100,
            snapshot_every: 50,
            ..TrainConfig::default()
        };
        let sac_cfg = SacConfig {
            batch_size: 16,
            ..SacConfig::default()
        };
        let fresh_sac = || {
            let mut rng = StdRng::seed_from_u64(2);
            Sac::new(1, 1, &[16], sac_cfg, &mut rng)
        };
        let act_fingerprint = |sac: &Sac| {
            let mut d = StdRng::seed_from_u64(0);
            sac.act(&[0.4], &mut d, true)
        };

        let mut env = PointEnv::new();
        let mut plain = fresh_sac();
        let plain_stats = train_sac(&mut env, &mut plain, cfg);

        let snap_cfg = SnapshotConfig {
            path: dir.join("train.snap"),
            every_steps: 150,
        };
        let mut env = PointEnv::new();
        let mut unkilled = fresh_sac();
        let unkilled_stats = train_sac_resumable(&mut env, &mut unkilled, cfg, Some(&snap_cfg));
        assert!(
            !snap_cfg.path.exists(),
            "completed run must remove its snapshot"
        );
        assert_eq!(plain_stats.episode_returns, unkilled_stats.episode_returns);
        assert_eq!(plain_stats.steps, unkilled_stats.steps);
        assert_eq!(act_fingerprint(&plain), act_fingerprint(&unkilled));

        // Kill the run after 500 env steps; at least one snapshot (first
        // boundary past step 150) is on disk by then.
        let mut kenv = KillAfter {
            inner: PointEnv::new(),
            remaining: 500,
        };
        let mut killed = fresh_sac();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            train_sac_resumable(&mut kenv, &mut killed, cfg, Some(&snap_cfg))
        }));
        assert!(outcome.is_err(), "the kill must interrupt training");
        assert!(snap_cfg.path.exists(), "kill must leave a snapshot behind");

        let mut env = PointEnv::new();
        let mut resumed = fresh_sac();
        let resumed_stats = train_sac_resumable(&mut env, &mut resumed, cfg, Some(&snap_cfg));
        assert!(!snap_cfg.path.exists());
        assert_eq!(plain_stats.episode_returns, resumed_stats.episode_returns);
        assert_eq!(plain_stats.episode_lengths, resumed_stats.episode_lengths);
        assert_eq!(plain_stats.last_losses, resumed_stats.last_losses);
        assert_eq!(plain_stats.steps, resumed_stats.steps);
        assert_eq!(
            plain_stats.return_stats.raw_parts(),
            resumed_stats.return_stats.raw_parts()
        );
        assert_eq!(
            act_fingerprint(&plain),
            act_fingerprint(&resumed),
            "resumed policy diverged from the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_config_snapshot_is_ignored() {
        // A snapshot from a different TrainConfig must not be restored.
        let dir = std::env::temp_dir().join("drive-rl-stale-snap-test");
        let _ = std::fs::remove_dir_all(&dir);
        let snap_cfg = SnapshotConfig {
            path: dir.join("train.snap"),
            every_steps: 100,
        };
        let sac_cfg = SacConfig {
            batch_size: 16,
            ..SacConfig::default()
        };
        let fresh_sac = || {
            let mut rng = StdRng::seed_from_u64(4);
            Sac::new(1, 1, &[16], sac_cfg, &mut rng)
        };
        let base = TrainConfig {
            total_steps: 600,
            start_steps: 100,
            update_after: 100,
            ..TrainConfig::default()
        };
        // Kill a run under `base` so its snapshot survives on disk.
        let mut kenv = KillAfter {
            inner: PointEnv::new(),
            remaining: 400,
        };
        let mut killed = fresh_sac();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            train_sac_resumable(&mut kenv, &mut killed, base, Some(&snap_cfg))
        }));
        assert!(snap_cfg.path.exists());
        // Resume under a *different* config: the stale snapshot must be
        // ignored and the run must equal a fresh one.
        let other = TrainConfig {
            total_steps: 500,
            ..base
        };
        let mut env = PointEnv::new();
        let mut a = fresh_sac();
        let a_stats = train_sac_resumable(&mut env, &mut a, other, Some(&snap_cfg));
        let mut env = PointEnv::new();
        let mut b = fresh_sac();
        let b_stats = train_sac(&mut env, &mut b, other);
        assert_eq!(a_stats.episode_returns, b_stats.episode_returns);
        assert_eq!(a_stats.steps, b_stats.steps);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recent_mean_return_window() {
        let stats = TrainStats {
            episode_returns: vec![0.0, 10.0, 20.0],
            ..TrainStats::default()
        };
        assert_eq!(stats.recent_mean_return(2), 15.0);
        assert_eq!(stats.recent_mean_return(100), 10.0);
        assert_eq!(TrainStats::default().recent_mean_return(5), 0.0);
    }

    #[test]
    fn evaluate_is_deterministic_given_policy() {
        let mut env = PointEnv::new();
        let a = evaluate(&mut env, |o| vec![-o[0]], 3, 7);
        let b = evaluate(&mut env, |o| vec![-o[0]], 3, 7);
        assert_eq!(a, b);
        assert_eq!(a.returns.len(), 3);
        assert!(a.mean_length() > 0.0);
    }
}
