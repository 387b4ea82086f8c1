//! A geometric "oracle" attacker.
//!
//! This non-learned baseline implements the obvious strategy the
//! adversarial reward encodes: stay quiet until the critical-moment
//! indicator `I(omega)` fires, then steer the ego vehicle straight at the
//! nearest NPC. It serves two purposes:
//!
//! 1. a *baseline* against which the learned attack policies are compared
//!    (ablation benches), and
//! 2. a *teacher* for behaviour-cloning the camera attack policy before SAC
//!    fine-tuning, which makes attacker training fast and reliable on CPU.

use crate::adv_reward::{AdvReward, AdvRewardConfig};
use crate::budget::AttackBudget;
use drive_agents::runner::SteerAttacker;
use drive_sim::world::{RelativeGeometry, World};

/// The geometric oracle attack policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleAttacker {
    /// Budget scaling the injected perturbation.
    pub budget: AttackBudget,
    /// Reward configuration defining the critical window (`beta`, range).
    pub reward: AdvRewardConfig,
}

impl OracleAttacker {
    /// Creates an oracle with the given budget and the default critical
    /// window.
    pub fn new(budget: AttackBudget) -> Self {
        OracleAttacker {
            budget,
            reward: AdvRewardConfig::default(),
        }
    }

    /// Raw attack action in `[-1, 1]` before budget scaling — full-scale
    /// steering towards the nearest NPC during critical moments, zero
    /// otherwise. This is the quantity a learned policy is cloned from.
    pub fn raw_action(&self, world: &World) -> f64 {
        let adv = AdvReward::new(self.reward);
        if !adv.critical_moment(world) {
            return 0.0;
        }
        let (_, npc) = world
            .nearest_npc()
            .expect("critical moment implies a target");
        let rel = RelativeGeometry::between(world.ego(), npc);
        // Steer towards the target's lateral side. e2n already points from
        // ego to NPC; its lateral sign in road frame decides left/right.
        if rel.e2n.y >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }
}

impl SteerAttacker for OracleAttacker {
    fn reset(&mut self, _world: &World) {}

    fn delta(&mut self, world: &World) -> f64 {
        self.budget.scale(self.raw_action(world))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive_agents::modular::{ModularAgent, ModularConfig};
    use drive_agents::runner::run_episode;
    use drive_sim::scenario::{NpcSpawn, Scenario};
    use drive_sim::vehicle::Actuation;
    use drive_sim::world::World;

    #[test]
    fn quiet_when_far_from_traffic() {
        let s = Scenario {
            npcs: vec![NpcSpawn {
                lane: 1,
                x: 120.0,
                speed: 6.0,
            }],
            ..Default::default()
        };
        let world = World::new(s);
        let mut oracle = OracleAttacker::new(AttackBudget::new(1.0));
        assert_eq!(oracle.delta(&world), 0.0);
    }

    #[test]
    fn attacks_towards_adjacent_npc() {
        // NPC level with the ego in the left lane: steer left (+).
        let s = Scenario {
            npcs: vec![NpcSpawn {
                lane: 2,
                x: 2.0,
                speed: 6.0,
            }],
            ..Default::default()
        };
        let mut world = World::new(s);
        world.step(Actuation::new(0.0, 0.0));
        let mut oracle = OracleAttacker::new(AttackBudget::new(0.8));
        assert_eq!(oracle.delta(&world), 0.8);

        // Mirror: NPC in the right lane → steer right (-).
        let s = Scenario {
            npcs: vec![NpcSpawn {
                lane: 0,
                x: 2.0,
                speed: 6.0,
            }],
            ..Default::default()
        };
        let mut world = World::new(s);
        world.step(Actuation::new(0.0, 0.0));
        assert_eq!(oracle.delta(&world), -0.8);
    }

    #[test]
    fn oracle_causes_side_collisions_against_modular_agent() {
        // Full-budget oracle vs the modular pipeline over several seeds:
        // a decent share of episodes must end in the desired side collision.
        let scenario = Scenario::default();
        let mut side = 0;
        let mut any_collision = 0;
        for seed in 0..10 {
            let mut agent = ModularAgent::new(ModularConfig::default(), 1);
            let mut oracle = OracleAttacker::new(AttackBudget::new(1.0));
            let rec = run_episode(&mut agent, &scenario, seed, Some(&mut oracle), |_, _, _| {});
            if rec.side_collision() {
                side += 1;
            }
            if rec.collision.is_some() {
                any_collision += 1;
            }
        }
        assert!(any_collision >= 5, "collisions {any_collision}/10");
        assert!(side >= 3, "side collisions {side}/10");
    }

    #[test]
    fn zero_budget_oracle_is_harmless() {
        let scenario = Scenario::default();
        let mut agent = ModularAgent::new(ModularConfig::default(), 1);
        let mut oracle = OracleAttacker::new(AttackBudget::ZERO);
        let rec = run_episode(&mut agent, &scenario, 3, Some(&mut oracle), |_, _, _| {});
        assert!(rec.collision.is_none());
        assert_eq!(rec.attack_effort(), 0.0);
    }
}
