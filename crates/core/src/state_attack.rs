//! A *state-space* attack baseline, for contrast with the paper's
//! action-space attack.
//!
//! Section II positions action-space attacks against the better-studied
//! state-space attacks (Lin et al. 2017, Gleave et al. 2020) that tamper
//! with the agent's *input*. This module implements the classic
//! gradient-sign variant: during critical moments, the victim's observation
//! vector is perturbed inside an L∞ ball to push the policy's steering
//! output towards the nearest NPC (FGSM for one step, PGD for several).
//!
//! Note the much stronger threat model: the attacker needs **white-box
//! access to the policy** (we differentiate through it) **and write access
//! to the sensor pipeline** — exactly the requirements the paper's
//! black-box action-space attack avoids. The ablation harness quantifies
//! what that extra access buys.

use crate::adv_reward::{AdvReward, AdvRewardConfig};
use drive_agents::Agent;
use drive_nn::gaussian::GaussianPolicy;
use drive_nn::mat::Mat;
use drive_sim::sensors::{FeatureConfig, FeatureExtractor};
use drive_sim::vehicle::Actuation;
use drive_sim::world::{RelativeGeometry, World};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the gradient-based state attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateAttackConfig {
    /// L∞ radius of the observation perturbation.
    pub epsilon: f32,
    /// PGD iterations (1 = FGSM).
    pub steps: usize,
    /// Step size per iteration.
    pub step_size: f32,
}

impl Default for StateAttackConfig {
    fn default() -> Self {
        StateAttackConfig {
            epsilon: 0.1,
            steps: 3,
            step_size: 0.05,
        }
    }
}

/// Computes a PGD perturbation of `obs` that pushes the policy's steering
/// output in direction `sign` (+1 = left). Returns the perturbed
/// observation.
pub fn perturb_observation(
    policy: &mut GaussianPolicy,
    obs: &[f32],
    sign: f32,
    config: &StateAttackConfig,
) -> Vec<f32> {
    let mut adv = obs.to_vec();
    for _ in 0..config.steps.max(1) {
        let m = Mat::from_row(&adv);
        // dL/da with L = sign * steer: gradient 'sign' on the steering
        // channel, 0 on thrust.
        let grad_out = Mat::from_row(&[sign, 0.0]);
        policy.trunk_mut().zero_grad();
        let grad_obs = policy.backward_mean(&m, &grad_out);
        policy.trunk_mut().zero_grad();
        for (v, (&o, &g)) in adv.iter_mut().zip(obs.iter().zip(grad_obs.row(0))) {
            let stepped = *v + config.step_size * g.signum();
            *v = stepped.clamp(o - config.epsilon, o + config.epsilon);
        }
    }
    adv
}

/// A victim agent whose observations are adversarially perturbed — the
/// state-space analogue of the runner's steering attackers.
pub struct StateAttackedAgent {
    policy: GaussianPolicy,
    extractor: FeatureExtractor,
    config: StateAttackConfig,
    adv: AdvReward,
    rng: StdRng,
    /// Steps on which the attack was active (for effort-style reporting).
    active_steps: usize,
    total_steps: usize,
}

impl std::fmt::Debug for StateAttackedAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateAttackedAgent")
            .field("epsilon", &self.config.epsilon)
            .field("active_steps", &self.active_steps)
            .finish()
    }
}

impl StateAttackedAgent {
    /// Wraps the victim policy with an in-pipeline observation attacker.
    pub fn new(
        policy: GaussianPolicy,
        features: FeatureConfig,
        config: StateAttackConfig,
        seed: u64,
    ) -> Self {
        StateAttackedAgent {
            policy,
            extractor: FeatureExtractor::new(features),
            config,
            adv: AdvReward::new(AdvRewardConfig::default()),
            rng: StdRng::seed_from_u64(seed),
            active_steps: 0,
            total_steps: 0,
        }
    }

    /// Fraction of steps on which the observation was perturbed.
    pub fn duty_cycle(&self) -> f64 {
        if self.total_steps == 0 {
            0.0
        } else {
            self.active_steps as f64 / self.total_steps as f64
        }
    }
}

impl Agent for StateAttackedAgent {
    fn reset(&mut self, _world: &World) {
        self.extractor.reset();
        self.active_steps = 0;
        self.total_steps = 0;
    }

    fn act(&mut self, world: &World) -> Actuation {
        let obs = self.extractor.observe(world);
        self.total_steps += 1;
        let obs = if self.adv.critical_moment(world) {
            self.active_steps += 1;
            // Push steering towards the nearest NPC's side.
            let sign = world
                .nearest_npc()
                .map(|(_, npc)| {
                    let rel = RelativeGeometry::between(world.ego(), npc);
                    if rel.e2n.y >= 0.0 {
                        1.0f32
                    } else {
                        -1.0
                    }
                })
                .unwrap_or(0.0);
            perturb_observation(&mut self.policy, &obs, sign, &self.config)
        } else {
            obs
        };
        let a = self.policy.act(&obs, &mut self.rng, true);
        Actuation::new(a[0] as f64, a[1] as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive_sim::scenario::{NpcSpawn, Scenario};

    fn policy(dim: usize) -> GaussianPolicy {
        let mut rng = StdRng::seed_from_u64(3);
        GaussianPolicy::new(dim, &[16], 2, &mut rng)
    }

    #[test]
    fn perturbation_respects_linf_ball() {
        let mut p = policy(8);
        let obs = vec![0.1f32; 8];
        let config = StateAttackConfig {
            epsilon: 0.05,
            steps: 5,
            step_size: 0.04,
        };
        let adv = perturb_observation(&mut p, &obs, 1.0, &config);
        for (a, o) in adv.iter().zip(&obs) {
            assert!((a - o).abs() <= config.epsilon + 1e-6);
        }
        assert_ne!(adv, obs, "non-degenerate gradient must move the obs");
    }

    #[test]
    fn perturbation_moves_steering_in_requested_direction() {
        let mut p = policy(8);
        let obs = vec![0.2f32; 8];
        let mut rng = StdRng::seed_from_u64(0);
        let base = p.act(&obs, &mut rng, true)[0];
        let config = StateAttackConfig {
            epsilon: 0.3,
            steps: 8,
            step_size: 0.08,
        };
        let up = perturb_observation(&mut p, &obs, 1.0, &config);
        let down = perturb_observation(&mut p, &obs, -1.0, &config);
        let steer_up = p.act(&up, &mut rng, true)[0];
        let steer_down = p.act(&down, &mut rng, true)[0];
        assert!(steer_up > base, "{steer_up} vs {base}");
        assert!(steer_down < base, "{steer_down} vs {base}");
    }

    #[test]
    fn attacked_agent_runs_episodes_and_tracks_duty_cycle() {
        let features = FeatureConfig::default();
        let dim = features.observation_dim();
        let s = Scenario {
            npcs: vec![NpcSpawn {
                lane: 2,
                x: 10.0,
                speed: 6.0,
            }],
            ..Default::default()
        };
        let mut agent =
            StateAttackedAgent::new(policy(dim), features, StateAttackConfig::default(), 1);
        let rec = drive_agents::runner::run_episode(&mut agent, &s, 0, None, |_, _, _| {});
        assert!(rec.steps > 0);
        // The NPC starts nearly alongside: some steps must be critical.
        assert!(agent.duty_cycle() > 0.0);
        assert!(agent.duty_cycle() <= 1.0);
    }
}
