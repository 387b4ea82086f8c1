//! Adversarial reward shaping (Section IV-D).
//!
//! The attacker maximizes
//! `R_adv = C(lambda) + I(omega) * r_e2n + (1 - I(omega)) * p_m`, where
//!
//! * `C(lambda)` — `+a` for the desired side collision, `-a` for any other
//!   collision (rear-end, barrier, odd postures), `0` otherwise;
//! * `r_e2n = v̂_e2n · v̂_ego` — collision potential towards the nearest
//!   NPC, active only during safety-critical moments;
//! * `I(omega)` — `1` iff `|omega| <= beta` with
//!   `omega = v̂_e2n · v̂_npc` and `beta = cos(pi/6)`: the ego is spatially
//!   alongside-ish the target, the right moment to strike;
//! * `p_m` — the maneuver penalty `-w * |delta|`, teaching the attacker to
//!   stay quiet outside critical windows.
//!
//! The IMU attacker's variant appends the learning-from-teacher term
//! `p_se = -(delta - delta_teacher)^2` (Section IV-E).

use drive_sim::world::{CollisionKind, RelativeGeometry, StepOutcome, World};

/// Weights of the adversarial reward.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdvRewardConfig {
    /// Magnitude `a` of the terminal collision reward/penalty.
    pub collision_reward: f64,
    /// Critical-moment threshold `beta` (the paper uses `cos(pi/6)`).
    pub beta: f64,
    /// Weight on the maneuver penalty `p_m`.
    pub maneuver_weight: f64,
    /// Weight on the teacher square-error term `p_se` (IMU training only).
    pub teacher_weight: f64,
    /// Range (meters) beyond which no NPC is considered a target.
    pub target_range: f64,
}

impl Default for AdvRewardConfig {
    fn default() -> Self {
        AdvRewardConfig {
            collision_reward: 20.0,
            beta: (std::f64::consts::PI / 6.0).cos(),
            maneuver_weight: 0.05,
            teacher_weight: 0.5,
            target_range: 60.0,
        }
    }
}

/// Stateless adversarial reward computer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdvReward {
    /// Configuration in use.
    pub config: AdvRewardConfig,
}

impl AdvReward {
    /// Creates a reward computer.
    pub fn new(config: AdvRewardConfig) -> Self {
        AdvReward { config }
    }

    /// The critical-moment indicator `I(omega)` for the current state.
    ///
    /// Returns `false` when no NPC is within range.
    pub fn critical_moment(&self, world: &World) -> bool {
        match world.nearest_npc() {
            Some((_, npc)) => {
                let rel = RelativeGeometry::between(world.ego(), npc);
                rel.distance <= self.config.target_range && rel.omega().abs() <= self.config.beta
            }
            None => false,
        }
    }

    /// Computes `R_adv` for the post-step world.
    ///
    /// `delta` is the perturbation injected this step.
    pub fn step(&self, world: &World, outcome: &StepOutcome, delta: f64) -> f64 {
        let c = self.config;
        let mut r = 0.0;

        // C(lambda)
        if let Some(collision) = outcome.collision {
            r += match collision.kind {
                CollisionKind::Side => c.collision_reward,
                _ => -c.collision_reward,
            };
        }

        // I(omega) r_e2n + (1 - I(omega)) p_m
        if let Some((_, npc)) = world.nearest_npc() {
            let rel = RelativeGeometry::between(world.ego(), npc);
            let critical = rel.distance <= c.target_range && rel.omega().abs() <= c.beta;
            if critical {
                r += rel.collision_potential();
            } else {
                r += -c.maneuver_weight * delta.abs();
            }
        } else {
            r += -c.maneuver_weight * delta.abs();
        }
        r
    }

    /// The IMU variant `R_adv + p_se` (Section IV-E).
    pub fn step_with_teacher(
        &self,
        world: &World,
        outcome: &StepOutcome,
        delta: f64,
        teacher_delta: f64,
    ) -> f64 {
        let se = (delta - teacher_delta) * (delta - teacher_delta);
        self.step(world, outcome, delta) - self.config.teacher_weight * se
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive_sim::scenario::{NpcSpawn, Scenario};
    use drive_sim::vehicle::Actuation;
    use drive_sim::world::{CollisionEvent, Termination};

    fn outcome_with(collision: Option<CollisionEvent>) -> StepOutcome {
        StepOutcome {
            step: 0,
            collision,
            termination: collision.map(Termination::Collision),
            passed: 0,
        }
    }

    fn world_with_npc(lane: usize, x: f64) -> World {
        let s = Scenario {
            npcs: vec![NpcSpawn {
                lane,
                x,
                speed: 6.0,
            }],
            ..Default::default()
        };
        World::new(s)
    }

    #[test]
    fn side_collision_rewarded_others_penalized() {
        let world = world_with_npc(1, 30.0);
        let adv = AdvReward::default();
        let side = outcome_with(Some(CollisionEvent {
            kind: CollisionKind::Side,
            npc_index: Some(0),
            step: 0,
        }));
        let rear = outcome_with(Some(CollisionEvent {
            kind: CollisionKind::RearEnd,
            npc_index: Some(0),
            step: 0,
        }));
        let barrier = outcome_with(Some(CollisionEvent {
            kind: CollisionKind::Barrier,
            npc_index: None,
            step: 0,
        }));
        let r_side = adv.step(&world, &side, 0.0);
        let r_rear = adv.step(&world, &rear, 0.0);
        let r_barrier = adv.step(&world, &barrier, 0.0);
        assert!(r_side > 10.0);
        assert!(r_rear < -10.0);
        assert!(r_barrier < -10.0);
    }

    #[test]
    fn far_behind_is_not_critical() {
        // Ego 30 m behind the NPC in the same lane: omega ~ 1 > beta.
        let world = world_with_npc(1, 30.0);
        let adv = AdvReward::default();
        assert!(!adv.critical_moment(&world));
        // Outside the critical window, perturbations are penalized.
        let quiet = adv.step(&world, &outcome_with(None), 0.0);
        let loud = adv.step(&world, &outcome_with(None), 1.0);
        assert!(loud < quiet);
        assert!((quiet - 0.0).abs() < 1e-9);
    }

    #[test]
    fn alongside_is_critical_and_rewards_aiming() {
        // NPC in the adjacent lane nearly level with the ego: omega ~ 0.
        let s = Scenario {
            npcs: vec![NpcSpawn {
                lane: 2,
                x: 1.0,
                speed: 6.0,
            }],
            ..Default::default()
        };
        let mut world = World::new(s);
        // One step so vehicles have velocities.
        world.step(Actuation::new(0.0, 0.0));
        let adv = AdvReward::default();
        assert!(adv.critical_moment(&world));
        // During critical moments the maneuver penalty is off: reward is
        // r_e2n regardless of delta.
        let r0 = adv.step(&world, &outcome_with(None), 0.0);
        let r1 = adv.step(&world, &outcome_with(None), 1.0);
        assert!((r0 - r1).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_npc_is_not_a_target() {
        let world = world_with_npc(2, 500.0);
        let adv = AdvReward::default();
        assert!(!adv.critical_moment(&world));
    }

    #[test]
    fn teacher_term_penalizes_disagreement() {
        let world = world_with_npc(1, 30.0);
        let adv = AdvReward::default();
        let out = outcome_with(None);
        let agree = adv.step_with_teacher(&world, &out, 0.3, 0.3);
        let disagree = adv.step_with_teacher(&world, &out, 0.3, -0.7);
        assert!(agree > disagree);
        let base = adv.step(&world, &out, 0.3);
        assert!((agree - base).abs() < 1e-12);
    }

    #[test]
    fn empty_road_never_critical() {
        let mut s = Scenario::default();
        s.npcs.clear();
        let world = World::new(s);
        let adv = AdvReward::default();
        assert!(!adv.critical_moment(&world));
        let r = adv.step(&world, &outcome_with(None), 0.5);
        assert!(r < 0.0, "only the maneuver penalty applies: {r}");
    }
}
