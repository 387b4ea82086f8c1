//! The end-to-end driving agent: a learned policy mapping semantic
//! observations directly to actuation variations (Section III-C).

use crate::Agent;
use drive_nn::batch::BatchPolicy;
use drive_nn::gaussian::GaussianPolicy;
use drive_nn::pnn::PnnPolicy;
use drive_nn::scratch::ActScratch;
use drive_sim::sensors::{FeatureConfig, FeatureExtractor};
use drive_sim::vehicle::Actuation;
use drive_sim::world::World;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Anything that maps an observation vector to a bounded action vector.
///
/// Implemented for the frozen, pre-packed [`BatchPolicy`] (evaluation),
/// the plain [`GaussianPolicy`] (weights still training) and
/// [`PnnPolicy`]; the defense switcher in `attack-core` adds its own
/// implementation.
pub trait Policy {
    /// Observation dimensionality this policy expects.
    fn obs_dim(&self) -> usize;
    /// Action dimensionality this policy produces.
    fn action_dim(&self) -> usize;
    /// Computes an action in `[-1, 1]^action_dim` through the reusable
    /// `scratch` and returns it (the slice lives in the scratch).
    /// Allocation-free once the scratch has warmed up. Stochastic actions
    /// draw their noise exactly as `GaussianPolicy::act_with` does, so
    /// implementations are interchangeable on a seeded stream.
    fn action_with<'s>(
        &self,
        obs: &[f32],
        rng: &mut StdRng,
        deterministic: bool,
        scratch: &'s mut ActScratch,
    ) -> &'s [f32];
}

impl Policy for BatchPolicy {
    fn obs_dim(&self) -> usize {
        BatchPolicy::obs_dim(self)
    }
    fn action_dim(&self) -> usize {
        BatchPolicy::action_dim(self)
    }
    fn action_with<'s>(
        &self,
        obs: &[f32],
        rng: &mut StdRng,
        deterministic: bool,
        scratch: &'s mut ActScratch,
    ) -> &'s [f32] {
        self.act_with(obs, rng, deterministic, scratch)
    }
}

impl Policy for GaussianPolicy {
    fn obs_dim(&self) -> usize {
        GaussianPolicy::obs_dim(self)
    }
    fn action_dim(&self) -> usize {
        GaussianPolicy::action_dim(self)
    }
    fn action_with<'s>(
        &self,
        obs: &[f32],
        rng: &mut StdRng,
        deterministic: bool,
        scratch: &'s mut ActScratch,
    ) -> &'s [f32] {
        self.act_with(obs, rng, deterministic, scratch)
    }
}

impl Policy for PnnPolicy {
    fn obs_dim(&self) -> usize {
        PnnPolicy::obs_dim(self)
    }
    fn action_dim(&self) -> usize {
        PnnPolicy::action_dim(self)
    }
    fn action_with<'s>(
        &self,
        obs: &[f32],
        rng: &mut StdRng,
        deterministic: bool,
        scratch: &'s mut ActScratch,
    ) -> &'s [f32] {
        self.act_with(obs, rng, deterministic, scratch)
    }
}

/// An end-to-end agent: semantic feature extractor + learned policy.
///
/// Evaluation wraps a frozen [`BatchPolicy`]; `E2eAgent<GaussianPolicy>`
/// acts on unpacked weights and suits a policy that is still changing.
#[derive(Debug, Clone)]
pub struct E2eAgent<P: Policy> {
    policy: P,
    extractor: FeatureExtractor,
    rng: StdRng,
    deterministic: bool,
    scratch: ActScratch,
    obs: Vec<f32>,
}

impl<P: Policy> E2eAgent<P> {
    /// Wraps a policy for driving. `deterministic` selects `tanh(mean)`
    /// actions (evaluation) versus sampled actions.
    ///
    /// # Panics
    ///
    /// Panics if the policy's dims do not match the feature configuration
    /// (observation) and the 2-D actuation.
    pub fn new(policy: P, features: FeatureConfig, seed: u64, deterministic: bool) -> Self {
        assert_eq!(
            policy.obs_dim(),
            features.observation_dim(),
            "policy obs dim must match feature extractor"
        );
        assert_eq!(
            policy.action_dim(),
            2,
            "driving actions are (steer, thrust)"
        );
        E2eAgent {
            policy,
            extractor: FeatureExtractor::new(features),
            rng: StdRng::seed_from_u64(seed),
            deterministic,
            scratch: ActScratch::default(),
            obs: Vec::new(),
        }
    }

    /// The wrapped policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }
}

impl<P: Policy> Agent for E2eAgent<P> {
    fn reset(&mut self, _world: &World) {
        self.extractor.reset();
    }

    fn act(&mut self, world: &World) -> Actuation {
        self.extractor.observe_into(world, &mut self.obs);
        let a = self.policy.action_with(
            &self.obs,
            &mut self.rng,
            self.deterministic,
            &mut self.scratch,
        );
        Actuation::new(a[0] as f64, a[1] as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive_sim::scenario::Scenario;
    use rand::Rng;

    fn policy() -> GaussianPolicy {
        let mut rng = StdRng::seed_from_u64(0);
        let dim = FeatureConfig::default().observation_dim();
        GaussianPolicy::new(dim, &[16], 2, &mut rng)
    }

    #[test]
    fn produces_bounded_actuation() {
        let mut agent = E2eAgent::new(policy(), FeatureConfig::default(), 1, false);
        let mut world = World::new(Scenario::default());
        agent.reset(&world);
        for _ in 0..5 {
            let a = agent.act(&world);
            assert!(a.steer.abs() <= 1.0 && a.thrust.abs() <= 1.0);
            world.step(a);
        }
    }

    #[test]
    fn deterministic_agent_is_reproducible() {
        let run = || {
            let mut agent = E2eAgent::new(policy(), FeatureConfig::default(), 1, true);
            let mut world = World::new(Scenario::default());
            agent.reset(&world);
            let mut actions = Vec::new();
            for _ in 0..10 {
                let a = agent.act(&world);
                actions.push(a);
                world.step(a);
            }
            actions
        };
        assert_eq!(run(), run());
    }

    /// The packed agent must drive exactly like the unpacked one: the
    /// same actuation every step and the same RNG consumption, for
    /// deterministic (`tanh(mean)`) and sampled actions alike.
    #[test]
    fn packed_agent_matches_unpacked_agent_and_rng_stream() {
        let p = policy();
        for deterministic in [true, false] {
            let mut plain = E2eAgent::new(p.clone(), FeatureConfig::default(), 9, deterministic);
            let mut packed = E2eAgent::new(
                BatchPolicy::from(p.clone()),
                FeatureConfig::default(),
                9,
                deterministic,
            );
            let mut world = World::new(Scenario::default());
            plain.reset(&world);
            packed.reset(&world);
            for step in 0..40 {
                let a = plain.act(&world);
                let b = packed.act(&world);
                assert_eq!(
                    (a.steer.to_bits(), a.thrust.to_bits()),
                    (b.steer.to_bits(), b.thrust.to_bits()),
                    "step {step} det={deterministic}"
                );
                world.step(a);
            }
            assert_eq!(
                plain.rng.gen::<u64>(),
                packed.rng.gen::<u64>(),
                "det={deterministic}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "obs dim")]
    fn dim_mismatch_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let bad = GaussianPolicy::new(7, &[8], 2, &mut rng);
        let _ = E2eAgent::new(bad, FeatureConfig::default(), 0, true);
    }
}
