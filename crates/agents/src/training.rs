//! Training of the end-to-end victim policy.
//!
//! Mirrors Section III-C: the policy is trained "with the knowledge of a
//! privileged agent" — here, behaviour cloning of the modular pipeline's
//! demonstrations — and then refined with SAC on the shaped nominal reward.
//! The SAC stage keeps the best-evaluating checkpoint, so refinement can
//! only improve on the clone.

use crate::driving_env::DrivingEnv;
use crate::e2e::E2eAgent;
use crate::modular::{ModularAgent, ModularConfig};
use crate::runner::run_episodes;
use crate::Agent;
use drive_nn::batch::BatchPolicy;
use drive_nn::checkpoint::{self, CheckpointError, Reader};
use drive_nn::gaussian::GaussianPolicy;
use drive_rl::bc::{clone_policy, BcConfig, Demonstrations};
use drive_rl::env::Env;
use drive_rl::replay::{ReplayBuffer, Transition};
use drive_rl::sac::{Sac, SacConfig};
use drive_seed::{fnv1a_64, SeedTree, StreamPos};
use drive_sim::scenario::Scenario;
use drive_sim::sensors::{FeatureConfig, FeatureExtractor};
use drive_sim::world::World;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// Configuration of the victim training pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimTrainConfig {
    /// Demonstration episodes collected from the modular teacher.
    pub demo_episodes: usize,
    /// Uniform steering noise injected while collecting demonstrations
    /// (teacher labels stay clean), covering recovery states.
    pub demo_noise: f64,
    /// Behaviour-cloning gradient steps.
    pub bc_steps: usize,
    /// SAC environment steps after cloning (0 skips refinement).
    pub sac_steps: usize,
    /// Gradient updates happen every this many environment steps.
    pub update_every: usize,
    /// Hidden sizes of actor and critics.
    pub hidden: Vec<usize>,
    /// Evaluation episodes per checkpoint during refinement.
    pub eval_episodes: usize,
    /// Checkpoint / evaluation period in environment steps.
    pub eval_every: usize,
    /// Master seed.
    pub seed: u64,
    /// Crash-recovery snapshot file for the SAC refinement stage. `None`
    /// disables snapshotting (the BC stage is cheap and always recomputes
    /// deterministically; only the long SAC loop is worth journaling).
    pub snapshot_path: Option<PathBuf>,
    /// Minimum environment steps between refinement snapshots.
    pub snapshot_every: usize,
}

impl Default for VictimTrainConfig {
    fn default() -> Self {
        VictimTrainConfig {
            demo_episodes: 80,
            demo_noise: 0.2,
            bc_steps: 10_000,
            sac_steps: 20_000,
            update_every: 2,
            hidden: vec![128, 128],
            eval_episodes: 5,
            eval_every: 4_000,
            seed: 0,
            snapshot_path: None,
            snapshot_every: 4_000,
        }
    }
}

/// Collects `(stacked features, (nu, gamma))` demonstration pairs from the
/// modular pipeline over jittered episodes.
///
/// `exec_noise` adds uniform noise to the *executed* steering while the
/// stored label stays the teacher's clean command (DART-style noise
/// injection), so the clone sees recovery states instead of only the
/// teacher's narrow on-path distribution. Odd episodes run noise-free.
pub fn collect_demonstrations(
    scenario: &Scenario,
    features: &FeatureConfig,
    episodes: usize,
    base_seed: u64,
    exec_noise: f64,
) -> Demonstrations {
    use drive_sim::vehicle::Actuation;
    let mut demos = Demonstrations::new();
    for e in 0..episodes {
        let mut rng = StdRng::seed_from_u64(base_seed + e as u64);
        let episode = scenario.jittered(&mut rng);
        let mut world = World::new(episode);
        let mut agent = ModularAgent::new(ModularConfig::default(), 1);
        let mut extractor = FeatureExtractor::new(features.clone());
        agent.reset(&world);
        extractor.reset();
        let noisy = e % 2 == 0 && exec_noise > 0.0;
        while !world.is_done() {
            let obs = extractor.observe(&world);
            let a = agent.act(&world);
            demos.push(obs, vec![a.steer as f32, a.thrust as f32]);
            let executed = if noisy {
                Actuation::new(a.steer + rng.gen_range(-exec_noise..=exec_noise), a.thrust)
            } else {
                a
            };
            world.step(executed);
        }
    }
    demos
}

/// Mean nominal return and mean passed-count of a policy over deterministic
/// evaluation episodes.
pub fn evaluate_policy(
    policy: &GaussianPolicy,
    scenario: &Scenario,
    features: &FeatureConfig,
    episodes: usize,
    base_seed: u64,
) -> (f64, f64) {
    let mut agent = E2eAgent::new(
        BatchPolicy::from(policy.clone()),
        features.clone(),
        base_seed,
        true,
    );
    let records = run_episodes(&mut agent, scenario, episodes, base_seed);
    let n = episodes.max(1) as f64;
    let mean_return = records.iter().map(|r| r.nominal_return).sum::<f64>() / n;
    let mean_passed = records.iter().map(|r| r.passed as f64).sum::<f64>() / n;
    (mean_return, mean_passed)
}

/// Trains the end-to-end victim policy: behaviour cloning of the modular
/// teacher followed by best-checkpoint SAC refinement on the shaped reward.
pub fn train_victim(
    scenario: &Scenario,
    features: &FeatureConfig,
    config: &VictimTrainConfig,
) -> GaussianPolicy {
    let mut rng = StdRng::seed_from_u64(SeedTree::root(config.seed).child("victim-bc").seed());
    let demos = collect_demonstrations(
        scenario,
        features,
        config.demo_episodes,
        config.seed,
        config.demo_noise,
    );
    let mut policy = GaussianPolicy::new(features.observation_dim(), &config.hidden, 2, &mut rng);
    clone_policy(
        &mut policy,
        &demos,
        BcConfig {
            steps: config.bc_steps,
            batch_size: 128,
            lr: 1e-3,
        },
        &mut rng,
    );
    if config.sac_steps == 0 {
        return policy;
    }
    refine_with_sac(policy, scenario, features, config)
}

/// Version tag of the victim-refinement snapshot file.
const VICTIM_SNAPSHOT_VERSION: &str = "v1";

/// Mid-refinement state of [`refine_with_sac`]: the learner, the replay
/// buffer, the best-checkpoint pair, and the exact RNG stream position.
/// Like [`drive_rl::snapshot::TrainSnapshot`], it is only taken at episode
/// boundaries so the environment re-derives from the episode seed.
struct VictimSnapshot {
    step: usize,
    episode_seed: u64,
    config_hash: u64,
    best_score: f64,
    rng: StreamPos,
    best: GaussianPolicy,
    sac: Sac,
    buffer: ReplayBuffer,
}

impl VictimSnapshot {
    fn encode(&self) -> String {
        let mut buf = String::new();
        buf.push_str(&format!("victim-sac {VICTIM_SNAPSHOT_VERSION}\n"));
        buf.push_str(&format!(
            "meta {} {} {:016x} {}\n",
            self.step, self.episode_seed, self.config_hash, self.best_score
        ));
        buf.push_str(&format!("rng {}\n", self.rng.to_hex()));
        checkpoint::encode_policy_into(&mut buf, &self.best);
        self.sac.encode_state_into(&mut buf);
        self.buffer.encode_into(&mut buf);
        buf
    }

    fn decode(text: &str, sac_config: SacConfig) -> Result<Self, CheckpointError> {
        let parse_err = CheckpointError::Parse;
        let mut r = Reader::new(text);
        let args = r.expect_tag("victim-sac")?;
        let version = *args
            .first()
            .ok_or_else(|| parse_err("victim-sac tag needs a version".into()))?;
        if version != VICTIM_SNAPSHOT_VERSION {
            return Err(CheckpointError::Version {
                found: version.to_string(),
                expected: VICTIM_SNAPSHOT_VERSION,
            });
        }
        let meta = r.expect_tag("meta")?;
        if meta.len() != 4 {
            return Err(parse_err(
                "meta needs '<step> <episode_seed> <config_hash> <best_score>'".into(),
            ));
        }
        let step: usize = meta[0]
            .parse()
            .map_err(|_| parse_err(format!("bad step '{}'", meta[0])))?;
        let episode_seed: u64 = meta[1]
            .parse()
            .map_err(|_| parse_err(format!("bad episode seed '{}'", meta[1])))?;
        let config_hash = u64::from_str_radix(meta[2], 16)
            .map_err(|_| parse_err(format!("bad config hash '{}'", meta[2])))?;
        let best_score: f64 = meta[3]
            .parse()
            .map_err(|_| parse_err(format!("bad best score '{}'", meta[3])))?;
        let rng_args = r.expect_tag("rng")?;
        let rng = StreamPos::from_hex(
            rng_args
                .first()
                .ok_or_else(|| parse_err("rng tag needs a position".into()))?,
        )
        .map_err(CheckpointError::Parse)?;
        let best = checkpoint::decode_policy_from(&mut r)?;
        let sac = Sac::decode_state_from(&mut r, sac_config)?;
        let buffer = ReplayBuffer::decode_from(&mut r)?;
        Ok(VictimSnapshot {
            step,
            episode_seed,
            config_hash,
            best_score,
            rng,
            best,
            sac,
            buffer,
        })
    }

    fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        checkpoint::save_to_file(path, &self.encode())
    }

    fn load(path: &Path, sac_config: SacConfig) -> Result<Self, CheckpointError> {
        Self::decode(&checkpoint::load_from_file(path)?, sac_config)
    }
}

/// SAC refinement with best-checkpoint selection.
///
/// When [`VictimTrainConfig::snapshot_path`] is set, the loop writes
/// durable crash-recovery snapshots at episode boundaries (at least
/// [`VictimTrainConfig::snapshot_every`] env steps apart) and resumes from
/// a matching snapshot on restart, reproducing the uninterrupted run
/// bit-exactly. The snapshot file is removed when refinement completes.
fn refine_with_sac(
    policy: GaussianPolicy,
    scenario: &Scenario,
    features: &FeatureConfig,
    config: &VictimTrainConfig,
) -> GaussianPolicy {
    let mut rng = StdRng::seed_from_u64(SeedTree::root(config.seed).child("victim-sac").seed());
    let eval_seed = 90_000 + config.seed;
    let mut best = policy.clone();
    let (mut best_score, _) =
        evaluate_policy(&best, scenario, features, config.eval_episodes, eval_seed);

    let sac_config = SacConfig {
        init_alpha: 0.02,
        actor_delay: 1000,
        batch_size: 128,
        ..SacConfig::default()
    };
    let mut sac = Sac::with_actor(policy, &config.hidden, sac_config, &mut rng);
    let mut env = DrivingEnv::new(scenario.clone(), features.clone());
    let mut buffer = ReplayBuffer::new(100_000, env.obs_dim(), env.action_dim());

    // The hash pins a snapshot to this exact training setup; the snapshot
    // path itself is excluded so relocating the run directory does not
    // invalidate an otherwise-identical snapshot.
    let hashed_config = VictimTrainConfig {
        snapshot_path: None,
        ..config.clone()
    };
    let config_hash = fnv1a_64(format!("{hashed_config:?}|{scenario:?}|{features:?}").as_bytes());
    let mut start_step = 0usize;
    let mut last_snapshot_step = 0usize;
    let mut episode_seed = config.seed.wrapping_mul(1000) + 1;
    if let Some(path) = &config.snapshot_path {
        if path.exists() {
            match VictimSnapshot::load(path, sac_config) {
                Ok(snap) if snap.config_hash == config_hash && snap.step <= config.sac_steps => {
                    rng = snap.rng.restore();
                    best = snap.best;
                    best_score = snap.best_score;
                    sac = snap.sac;
                    buffer = snap.buffer;
                    episode_seed = snap.episode_seed;
                    start_step = snap.step;
                    last_snapshot_step = snap.step;
                }
                Ok(_) => eprintln!(
                    "[victim] ignoring snapshot {}: different training setup",
                    path.display()
                ),
                Err(e) => eprintln!(
                    "[victim] ignoring unreadable snapshot {}: {e}",
                    path.display()
                ),
            }
        }
    }
    let mut obs = env.reset(episode_seed);

    for step in start_step..config.sac_steps {
        let action = sac.act(&obs, &mut rng, false);
        let s = env.step(&action);
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
            episode_seed += 1;
            obs = env.reset(episode_seed);
        }
        if buffer.len() >= 1000 && step % config.update_every.max(1) == 0 {
            sac.update(&buffer, &mut rng);
        }
        if (step + 1) % config.eval_every == 0 {
            let (score, _) = evaluate_policy(
                &sac.actor,
                scenario,
                features,
                config.eval_episodes,
                eval_seed,
            );
            if score > best_score {
                best_score = score;
                best = sac.actor.clone();
            }
        }
        // Snapshot at episode boundaries only, after this step's RNG draws.
        if finished {
            if let Some(path) = &config.snapshot_path {
                let done = step + 1;
                if done < config.sac_steps
                    && done - last_snapshot_step >= config.snapshot_every.max(1)
                {
                    let snap = VictimSnapshot {
                        step: done,
                        episode_seed,
                        config_hash,
                        best_score,
                        rng: StreamPos::capture(&rng),
                        best: best.clone(),
                        sac: sac.clone(),
                        buffer: buffer.clone(),
                    };
                    match snap.save(path) {
                        Ok(()) => last_snapshot_step = done,
                        Err(e) => {
                            eprintln!("[victim] snapshot write to {} failed: {e}", path.display())
                        }
                    }
                }
            }
        }
    }
    if let Some(path) = &config.snapshot_path {
        let _ = std::fs::remove_file(path);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_features() -> FeatureConfig {
        FeatureConfig::default()
    }

    #[test]
    fn demonstrations_have_consistent_shapes() {
        let scenario = Scenario::default();
        let features = quick_features();
        let demos = collect_demonstrations(&scenario, &features, 2, 0, 0.0);
        // Two full episodes of 180 steps each.
        assert_eq!(demos.len(), 2 * scenario.max_steps);
        let mut rng = StdRng::seed_from_u64(0);
        let (o, a) = demos.sample_batch(4, &mut rng);
        assert_eq!(o.cols(), features.observation_dim());
        assert_eq!(a.cols(), 2);
    }

    #[test]
    fn bc_clone_drives_respectably() {
        // Cloning alone should reproduce most of the teacher's behaviour:
        // positive return and several NPCs passed, no barrier crash.
        let scenario = Scenario::default();
        let features = quick_features();
        let config = VictimTrainConfig {
            demo_episodes: 40,
            bc_steps: 6000,
            sac_steps: 0,
            ..VictimTrainConfig::default()
        };
        let policy = train_victim(&scenario, &features, &config);
        let (ret, passed) = evaluate_policy(&policy, &scenario, &features, 5, 777);
        assert!(ret > 100.0, "mean return {ret}");
        assert!(passed >= 4.0, "mean passed {passed}");
    }

    #[test]
    fn victim_snapshot_encode_decode_round_trips() {
        let features = quick_features();
        let mut rng = StdRng::seed_from_u64(9);
        let sac_config = SacConfig {
            batch_size: 8,
            ..SacConfig::default()
        };
        let policy = GaussianPolicy::new(features.observation_dim(), &[8], 2, &mut rng);
        let sac = Sac::with_actor(policy.clone(), &[8], sac_config, &mut rng);
        let mut buffer = ReplayBuffer::new(64, features.observation_dim(), 2);
        buffer.push(Transition {
            obs: vec![0.1; features.observation_dim()],
            action: vec![0.2, -0.3],
            reward: 1.5,
            next_obs: vec![0.2; features.observation_dim()],
            terminal: false,
        });
        let snap = VictimSnapshot {
            step: 777,
            episode_seed: 12,
            config_hash: 0xabcd,
            best_score: 321.5,
            rng: StreamPos::capture(&rng),
            best: policy,
            sac,
            buffer,
        };
        let back = VictimSnapshot::decode(&snap.encode(), sac_config).expect("round trip");
        assert_eq!(back.step, snap.step);
        assert_eq!(back.episode_seed, snap.episode_seed);
        assert_eq!(back.config_hash, snap.config_hash);
        assert_eq!(back.best_score, snap.best_score);
        assert_eq!(back.rng, snap.rng);
        assert_eq!(back.buffer.len(), snap.buffer.len());
        let obs = drive_nn::mat::Mat::from_row(&vec![0.05; features.observation_dim()]);
        assert_eq!(back.best.mean_action(&obs), snap.best.mean_action(&obs));
        // A stale version is a typed error, not garbage weights.
        let tampered = snap.encode().replacen("victim-sac v1", "victim-sac v0", 1);
        assert!(matches!(
            VictimSnapshot::decode(&tampered, sac_config),
            Err(CheckpointError::Version { .. })
        ));
    }

    #[test]
    fn refinement_snapshots_do_not_change_results_and_clean_up() {
        // The same training run with and without snapshotting must produce
        // the identical policy (snapshot writes draw no randomness), and a
        // completed run must remove its snapshot file.
        let scenario = Scenario::default();
        let features = quick_features();
        let dir = std::env::temp_dir().join("drive-agents-victim-snap-test");
        let _ = std::fs::remove_dir_all(&dir);
        let base = VictimTrainConfig {
            demo_episodes: 4,
            bc_steps: 200,
            sac_steps: 1400,
            update_every: 8,
            hidden: vec![16],
            eval_episodes: 2,
            eval_every: 700,
            seed: 3,
            ..VictimTrainConfig::default()
        };
        let plain = train_victim(&scenario, &features, &base);
        let snap_path = dir.join("victim.snap");
        let snapped_cfg = VictimTrainConfig {
            snapshot_path: Some(snap_path.clone()),
            snapshot_every: 400,
            ..base.clone()
        };
        let snapped = train_victim(&scenario, &features, &snapped_cfg);
        assert!(
            !snap_path.exists(),
            "completed refinement must remove its snapshot"
        );
        let obs = drive_nn::mat::Mat::from_row(&vec![0.1; features.observation_dim()]);
        assert_eq!(plain.mean_action(&obs), snapped.mean_action(&obs));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evaluate_policy_is_deterministic() {
        let scenario = Scenario::default();
        let features = quick_features();
        let mut rng = StdRng::seed_from_u64(5);
        let policy = GaussianPolicy::new(features.observation_dim(), &[16], 2, &mut rng);
        let a = evaluate_policy(&policy, &scenario, &features, 3, 11);
        let b = evaluate_policy(&policy, &scenario, &features, 3, 11);
        assert_eq!(a, b);
    }
}
