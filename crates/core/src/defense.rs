//! Driving-agent enhancement (Section VI): adversarial training via
//! fine-tuning and Progressive Neural Networks behind a Simplex switcher.
//!
//! Both defenses continue SAC training of the end-to-end victim while a
//! (frozen) camera attacker perturbs its steering. Episodes sample an
//! attack budget from the Section VI-A grid; `rho` controls the share of
//! nominal (zero-budget) episodes:
//!
//! * fine-tuning (`pi_adv_rho`): updates the policy weights in place —
//!   effective under attack but subject to catastrophic forgetting;
//! * PNN (`pi_pnn_sigma`): trains a fresh lateral-connected column while
//!   the original weights stay frozen; at deployment a Simplex-style
//!   switcher picks the original policy for `epsilon <= sigma` and the
//!   hardened column otherwise (idealized budget-aware switcher, as in the
//!   paper).

use crate::budget::AttackBudget;
use crate::learned::LearnedAttacker;
use crate::sensor::AttackerSensor;
use drive_agents::driving_env::DrivingEnv;
use drive_agents::e2e::Policy;
use drive_agents::runner::SteerAttacker;
use drive_nn::batch::BatchPolicy;
use drive_nn::gaussian::GaussianPolicy;
use drive_nn::pnn::{PnnInit, PnnPolicy};
use drive_nn::scratch::ActScratch;
use drive_rl::actor::Actor;
use drive_rl::env::Env;
use drive_rl::replay::{ReplayBuffer, Transition};
use drive_rl::sac::{Sac, SacConfig};
use drive_seed::SeedTree;
use drive_sim::scenario::Scenario;
use drive_sim::sensors::FeatureConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of adversarial training (both defenses).
#[derive(Debug, Clone, PartialEq)]
pub struct DefenseTrainConfig {
    /// Share of nominal (zero-budget) episodes, `rho` (e.g. `1/11`, `1/2`).
    pub rho: f64,
    /// SAC environment steps.
    pub sac_steps: usize,
    /// Gradient updates happen every this many environment steps.
    pub update_every: usize,
    /// Hidden sizes for the fresh critics.
    pub hidden: Vec<usize>,
    /// Updates during which only the critics train (protects the
    /// pre-trained policy from fresh-critic gradients).
    pub actor_delay: usize,
    /// Evaluation episodes per checkpoint.
    pub eval_episodes: usize,
    /// Checkpoint / evaluation period in environment steps (0 disables
    /// selection and returns the final weights).
    pub eval_every: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for DefenseTrainConfig {
    fn default() -> Self {
        DefenseTrainConfig {
            rho: 1.0 / 11.0,
            sac_steps: 25_000,
            update_every: 2,
            hidden: vec![128, 128],
            actor_delay: 1500,
            eval_episodes: 3,
            eval_every: 5_000,
            seed: 0,
        }
    }
}

/// Samples a per-episode training budget: zero with probability `rho`,
/// otherwise uniform over `{0.1, ..., 1.0}` (Section VI-A).
pub fn sample_training_budget<R: Rng>(rho: f64, rng: &mut R) -> AttackBudget {
    if rng.gen::<f64>() < rho {
        AttackBudget::ZERO
    } else {
        let grid = AttackBudget::training_grid();
        // Skip the zero entry.
        grid[rng.gen_range(1..grid.len())]
    }
}

/// Runs adversarial SAC training of `actor` (any [`Actor`]) against the
/// given camera attack policy, returning the trained actor.
fn adversarial_train<A: Actor + Clone + Sync>(
    actor: A,
    attacker_policy: &GaussianPolicy,
    scenario: &Scenario,
    features: &FeatureConfig,
    config: &DefenseTrainConfig,
) -> A {
    let mut rng = StdRng::seed_from_u64(SeedTree::root(config.seed).child("finetune").seed());
    let sac_config = SacConfig {
        init_alpha: 0.01,
        actor_lr: 1e-4,
        actor_delay: config.actor_delay,
        batch_size: 128,
        ..SacConfig::default()
    };
    let mut sac = Sac::with_actor(actor, &config.hidden, sac_config, &mut rng);
    let mut env = DrivingEnv::new(scenario.clone(), features.clone());
    let mut buffer = ReplayBuffer::new(100_000, env.obs_dim(), env.action_dim());

    let mut episode_seed = config.seed.wrapping_mul(31337) + 1;
    let mut budget_rng = StdRng::seed_from_u64(SeedTree::root(config.seed).child("budget").seed());
    let attacker_head = BatchPolicy::from(attacker_policy.clone());
    let arm_episode = |env: &mut DrivingEnv, seed: u64, rng: &mut StdRng| -> Vec<f32> {
        let budget = sample_training_budget(config.rho, rng);
        if budget.is_zero() {
            env.set_attack(None);
        } else {
            let mut attacker = LearnedAttacker::new(
                attacker_head.clone(),
                AttackerSensor::camera(features.clone()),
                budget,
                seed,
                true,
            );
            let obs_world = drive_sim::world::World::new(scenario.clone());
            attacker.reset(&obs_world);
            env.set_attack(Some(Box::new(move |w| attacker.delta(w))));
        }
        env.reset(seed)
    };

    let mut best = sac.actor.clone();
    let mut best_score = eval_actor(&best, &attacker_head, scenario, features, config);

    let mut obs = arm_episode(&mut env, episode_seed, &mut budget_rng);
    for step in 0..config.sac_steps {
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
            obs = arm_episode(&mut env, episode_seed, &mut budget_rng);
        }
        if buffer.len() >= 1000 && step % config.update_every.max(1) == 0 {
            sac.update(&buffer, &mut rng);
        }
        if config.eval_every > 0 && (step + 1) % config.eval_every == 0 {
            let score = eval_actor(&sac.actor, &attacker_head, scenario, features, config);
            if score > best_score {
                best_score = score;
                best = sac.actor.clone();
            }
        }
    }
    if config.eval_every > 0 {
        best
    } else {
        sac.actor
    }
}

/// Checkpoint-selection metric: mean nominal driving return across the
/// evaluation budgets, weighted by the training mixture (the zero-budget
/// cell carries weight `rho`, the attacked cells share `1 - rho`).
fn eval_actor<A: Actor + Clone + Sync>(
    actor: &A,
    attacker_head: &BatchPolicy,
    scenario: &Scenario,
    features: &FeatureConfig,
    config: &DefenseTrainConfig,
) -> f64 {
    let eval_budgets = [0.0, 0.25, 0.5, 0.75, 1.0];
    // The budget cells are independent: each gets a fresh environment and
    // attacker, and the actor acts deterministically (its per-cell RNG is
    // never drawn), so evaluating them in parallel is output-identical to
    // the serial loop. `par_map` keeps the means budget-ordered.
    let means = drive_par::par_map(&eval_budgets, |_, &eps| {
        let mut rng =
            StdRng::seed_from_u64(SeedTree::root(config.seed).child("pnn-dataset").seed());
        let budget = AttackBudget::new(eps);
        let mut env = DrivingEnv::new(scenario.clone(), features.clone());
        let mut total = 0.0;
        for e in 0..config.eval_episodes {
            let seed = 40_000 + config.seed + e as u64;
            if budget.is_zero() {
                env.set_attack(None);
            } else {
                let mut attacker = LearnedAttacker::new(
                    attacker_head.clone(),
                    AttackerSensor::camera(features.clone()),
                    budget,
                    seed,
                    true,
                );
                let world = drive_sim::world::World::new(scenario.clone());
                attacker.reset(&world);
                env.set_attack(Some(Box::new(move |w| attacker.delta(w))));
            }
            let mut obs = env.reset(seed);
            loop {
                let a = actor.act(&obs, &mut rng, true);
                let s = env.step(&a);
                total += s.reward as f64;
                let finished = s.finished();
                obs = s.obs;
                if finished {
                    break;
                }
            }
        }
        total / config.eval_episodes.max(1) as f64
    });
    let mut score = 0.0;
    for (&eps, mean) in eval_budgets.iter().zip(means) {
        let weight = if eps == 0.0 {
            config.rho
        } else {
            (1.0 - config.rho) / (eval_budgets.len() - 1) as f64
        };
        score += weight * mean;
    }
    score
}

/// Adversarial training via fine-tuning: returns `pi_adv_rho`, a copy of
/// the original policy whose weights were updated under attack.
pub fn adversarial_finetune(
    original: &GaussianPolicy,
    attacker_policy: &GaussianPolicy,
    scenario: &Scenario,
    features: &FeatureConfig,
    config: &DefenseTrainConfig,
) -> GaussianPolicy {
    adversarial_train(
        original.clone(),
        attacker_policy,
        scenario,
        features,
        config,
    )
}

/// PNN enhancement: freezes the original policy as column 1 and trains a
/// lateral-connected column 2 under attack. Returns the two-column policy;
/// pair it with a [`SimplexSwitcher`] for deployment.
pub fn train_pnn_defense(
    original: &GaussianPolicy,
    attacker_policy: &GaussianPolicy,
    scenario: &Scenario,
    features: &FeatureConfig,
    config: &DefenseTrainConfig,
) -> PnnPolicy {
    let mut rng = StdRng::seed_from_u64(SeedTree::root(config.seed).child("pnn-sac").seed());
    let pnn = PnnPolicy::new(original.clone(), PnnInit::CopyBase, &mut rng);
    adversarial_train(pnn, attacker_policy, scenario, features, config)
}

/// The Simplex-style switcher of Section VI-B: an idealized budget-aware
/// selector between the original column (small/no attack) and the hardened
/// column (large attack).
#[derive(Debug, Clone)]
pub struct SimplexSwitcher {
    pnn: PnnPolicy,
    /// The frozen original column, pre-packed for inference.
    base: BatchPolicy,
    /// Switching threshold `sigma`.
    pub sigma: f64,
    /// The attack budget the switcher believes is active (idealized
    /// knowledge, as the paper assumes; practical proxies are discussed in
    /// Section VI-B).
    pub epsilon: f64,
}

impl SimplexSwitcher {
    /// Wraps a trained PNN with threshold `sigma`, believing budget
    /// `epsilon` is active.
    pub fn new(pnn: PnnPolicy, sigma: f64, epsilon: f64) -> Self {
        SimplexSwitcher {
            base: BatchPolicy::from(pnn.base().clone()),
            pnn,
            sigma,
            epsilon,
        }
    }

    /// Whether the hardened column is active.
    pub fn uses_hardened_column(&self) -> bool {
        self.epsilon > self.sigma
    }

    /// The underlying PNN.
    pub fn pnn(&self) -> &PnnPolicy {
        &self.pnn
    }

    /// Acts through the hardened column (the PNN's column 2) or the
    /// original one, allocation-free — the one column-selection step
    /// behind this switcher and the detector-driven
    /// [`crate::detector::DetectorSimplexAgent`].
    pub(crate) fn column_action_with<'s>(
        &self,
        hardened: bool,
        obs: &[f32],
        rng: &mut StdRng,
        deterministic: bool,
        scratch: &'s mut ActScratch,
    ) -> &'s [f32] {
        if hardened {
            self.pnn.act_with(obs, rng, deterministic, scratch)
        } else {
            self.base.act_with(obs, rng, deterministic, scratch)
        }
    }
}

impl Policy for SimplexSwitcher {
    fn obs_dim(&self) -> usize {
        self.pnn.obs_dim()
    }
    fn action_dim(&self) -> usize {
        self.pnn.action_dim()
    }
    fn action_with<'s>(
        &self,
        obs: &[f32],
        rng: &mut StdRng,
        deterministic: bool,
        scratch: &'s mut ActScratch,
    ) -> &'s [f32] {
        self.column_action_with(
            self.uses_hardened_column(),
            obs,
            rng,
            deterministic,
            scratch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_sampler_respects_rho() {
        let mut rng = StdRng::seed_from_u64(0);
        let n = 4000;
        let zeros = (0..n)
            .filter(|_| sample_training_budget(0.5, &mut rng).is_zero())
            .count();
        let frac = zeros as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "zero fraction {frac}");
        // rho = 0 never yields zero budgets; all within (0, 1].
        for _ in 0..100 {
            let b = sample_training_budget(0.0, &mut rng);
            assert!(b.epsilon() > 0.05 && b.epsilon() <= 1.0);
        }
    }

    #[test]
    fn switcher_picks_columns_by_threshold() {
        let mut rng = StdRng::seed_from_u64(1);
        let dim = FeatureConfig::default().observation_dim();
        let base = GaussianPolicy::new(dim, &[16], 2, &mut rng);
        let pnn = PnnPolicy::new(base.clone(), PnnInit::Random, &mut rng);
        let obs = vec![0.1f32; dim];

        let mut s = ActScratch::default();
        let low = SimplexSwitcher::new(pnn.clone(), 0.4, 0.2);
        assert!(!low.uses_hardened_column());
        let a_low = low
            .action_with(&obs, &mut StdRng::seed_from_u64(0), true, &mut s)
            .to_vec();
        let a_base = base.act(&obs, &mut StdRng::seed_from_u64(0), true);
        assert_eq!(a_low, a_base, "below threshold the base column acts");

        let high = SimplexSwitcher::new(pnn.clone(), 0.4, 0.8);
        assert!(high.uses_hardened_column());
        let a_high = high
            .action_with(&obs, &mut StdRng::seed_from_u64(0), true, &mut s)
            .to_vec();
        assert_eq!(a_high, pnn.act(&obs, &mut StdRng::seed_from_u64(0), true));
        assert_ne!(a_high, a_base, "above threshold the hardened column acts");
    }

    #[test]
    fn short_finetune_runs_end_to_end() {
        // Smoke test with tiny budgets: exercises the attacked-episode
        // arming, the SAC loop, and returns a same-shaped policy.
        let mut rng = StdRng::seed_from_u64(2);
        let features = FeatureConfig::default();
        let dim = features.observation_dim();
        let original = GaussianPolicy::new(dim, &[16], 2, &mut rng);
        let attacker = GaussianPolicy::new(dim, &[16], 1, &mut rng);
        let config = DefenseTrainConfig {
            sac_steps: 1200,
            hidden: vec![16],
            ..DefenseTrainConfig::default()
        };
        let tuned = adversarial_finetune(
            &original,
            &attacker,
            &Scenario::default(),
            &features,
            &config,
        );
        assert_eq!(tuned.obs_dim(), dim);
        assert_eq!(tuned.action_dim(), 2);
    }

    #[test]
    fn short_pnn_training_keeps_base_frozen() {
        let mut rng = StdRng::seed_from_u64(3);
        let features = FeatureConfig::default();
        let dim = features.observation_dim();
        let original = GaussianPolicy::new(dim, &[16], 2, &mut rng);
        let attacker = GaussianPolicy::new(dim, &[16], 1, &mut rng);
        let config = DefenseTrainConfig {
            rho: 0.0,
            sac_steps: 1200,
            hidden: vec![16],
            ..DefenseTrainConfig::default()
        };
        let pnn = train_pnn_defense(
            &original,
            &attacker,
            &Scenario::default(),
            &features,
            &config,
        );
        // Column 1 must still be the original policy, bit for bit.
        let obs = drive_nn::mat::Mat::from_row(&vec![0.2f32; dim]);
        assert_eq!(pnn.base().mean_action(&obs), original.mean_action(&obs));
    }
}
