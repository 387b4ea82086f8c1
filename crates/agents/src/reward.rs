//! Shaped nominal driving reward for the end-to-end agent.
//!
//! Section III-C: the reward "computes rewards using the dot product of the
//! vehicle's speed and the waypoints vector", uses the privileged planner's
//! reference path, and aggregates trajectory following, a speed requirement,
//! and safety. The same quantity doubles as the paper's *nominal driving
//! reward* metric (Fig. 4a, Fig. 6) for every agent, attacked or not.

use crate::behavior::{BehaviorConfig, BehaviorPlanner};
use drive_sim::world::{StepOutcome, Termination, World};

/// Weights of the shaped reward.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardConfig {
    /// Weight of the progress term `v . w_hat / v_ref`.
    pub w_progress: f64,
    /// Weight of the quadratic cross-track penalty.
    pub w_track: f64,
    /// Weight of the speed-tracking term.
    pub w_speed: f64,
    /// One-time penalty for any collision (NPC or barrier).
    pub collision_penalty: f64,
}

impl Default for RewardConfig {
    fn default() -> Self {
        RewardConfig {
            w_progress: 1.0,
            w_track: 0.5,
            w_speed: 0.2,
            collision_penalty: 30.0,
        }
    }
}

/// Stateful reward computer: owns a privileged behaviour planner that
/// provides the safe reference path.
#[derive(Debug, Clone)]
pub struct RewardShaper {
    config: RewardConfig,
    planner: BehaviorPlanner,
    /// Normalized cross-track deviation of the last step (for records).
    last_deviation: f64,
    /// Reused plan buffer; not part of the logical shaper state.
    plan_scratch: drive_sim::waypoints::Path,
}

// The scratch buffer is excluded from equality: a deserialized shaper
// (empty scratch) must compare equal to the live shaper it was saved from.
impl PartialEq for RewardShaper {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.planner == other.planner
            && self.last_deviation == other.last_deviation
    }
}

impl RewardShaper {
    /// Creates a shaper whose privileged planner starts in `initial_lane`.
    pub fn new(config: RewardConfig, behavior: BehaviorConfig, initial_lane: usize) -> Self {
        RewardShaper {
            config,
            planner: BehaviorPlanner::new(behavior, initial_lane),
            last_deviation: 0.0,
            plan_scratch: drive_sim::waypoints::Path::default(),
        }
    }

    /// Resets the privileged planner for a new episode.
    pub fn reset(&mut self, world: &World) {
        let lane = world.scenario().road.lane_of(world.ego().pose.position.y);
        self.planner = BehaviorPlanner::new(*self.planner.config(), lane);
        self.last_deviation = 0.0;
    }

    /// Normalized cross-track deviation observed at the last
    /// [`RewardShaper::step`].
    pub fn last_deviation(&self) -> f64 {
        self.last_deviation
    }

    /// Computes the reward for the world state *after* a step with the
    /// given outcome.
    pub fn step(&mut self, world: &World, outcome: &StepOutcome) -> f64 {
        let c = self.config;
        let ego = world.ego();
        self.planner.plan_into(world, &mut self.plan_scratch);
        let path = &self.plan_scratch;
        let proj = path.project(ego.pose.position, ego.pose.heading);
        let wp = path.waypoints()[proj.index];
        let half_lane = world.scenario().road.lane_width / 2.0;
        let deviation = proj.cross_track / half_lane;
        self.last_deviation = deviation;

        let ref_speed = world.scenario().ego_ref_speed;
        let wp_dir = drive_sim::geometry::Vec2::from_angle(wp.heading);
        let progress = ego.velocity().dot(wp_dir) / ref_speed;
        let speed_term = 1.0 - ((ego.speed - wp.target_speed).abs() / ref_speed).min(1.0);

        let mut r =
            c.w_progress * progress + c.w_speed * speed_term - c.w_track * deviation * deviation;
        if outcome.collision.is_some() {
            r -= c.collision_penalty;
        }
        // Running off the road end early is fine (it means fast progress);
        // time limits carry no extra term.
        if matches!(outcome.termination, Some(Termination::RoadEnd)) {
            r += 1.0;
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive_sim::scenario::Scenario;
    use drive_sim::vehicle::Actuation;
    use drive_sim::world::World;

    fn shaper() -> RewardShaper {
        RewardShaper::new(RewardConfig::default(), BehaviorConfig::default(), 1)
    }

    #[test]
    fn on_path_at_speed_earns_high_reward() {
        let mut s = Scenario::default();
        s.npcs.clear();
        let mut world = World::new(s);
        let mut rs = shaper();
        rs.reset(&world);
        let out = world.step(Actuation::new(0.0, 0.0));
        let r = rs.step(&world, &out);
        // Progress ~ 1, speed ~ 1, deviation ~ 0.
        assert!(r > 1.0, "reward {r}");
        assert!(rs.last_deviation().abs() < 0.01);
    }

    #[test]
    fn off_path_is_penalized() {
        let mut s = Scenario::default();
        s.npcs.clear();
        let mut world = World::new(s);
        let mut rs = shaper();
        rs.reset(&world);
        // Steer hard left for a while to drift off the lane center.
        let mut drifted = 0.0;
        for _ in 0..8 {
            let out = world.step(Actuation::new(1.0, 0.0));
            drifted = rs.step(&world, &out);
        }
        let mut straight_world = World::new({
            let mut s = Scenario::default();
            s.npcs.clear();
            s
        });
        let mut rs2 = shaper();
        rs2.reset(&straight_world);
        let mut straight = 0.0;
        for _ in 0..8 {
            let out = straight_world.step(Actuation::new(0.0, 0.0));
            straight = rs2.step(&straight_world, &out);
        }
        assert!(
            drifted < straight,
            "drifted {drifted} vs straight {straight}"
        );
        assert!(rs.last_deviation().abs() > 0.05);
    }

    #[test]
    fn collision_applies_penalty() {
        let mut s = Scenario::default();
        s.npcs.truncate(1);
        s.npcs[0].speed = 0.0;
        s.npcs[0].x = 22.0;
        let mut world = World::new(s);
        let mut rs = shaper();
        rs.reset(&world);
        let mut last = 0.0;
        for _ in 0..60 {
            // The privileged planner would dodge; force straight driving.
            let out = world.step(Actuation::new(0.0, 0.5));
            last = rs.step(&world, &out);
            if world.is_done() {
                break;
            }
        }
        assert!(world.is_done(), "must hit the stopped NPC");
        assert!(last < -10.0, "collision reward {last}");
    }

    #[test]
    fn slow_driving_earns_less_than_reference_speed() {
        let mk = |thrust: f64| {
            let mut s = Scenario::default();
            s.npcs.clear();
            s.ego_speed = 8.0;
            let mut world = World::new(s);
            let mut rs = shaper();
            rs.reset(&world);
            let mut total = 0.0;
            for _ in 0..50 {
                let out = world.step(Actuation::new(0.0, thrust));
                total += rs.step(&world, &out);
            }
            total
        };
        // Accelerating towards 16 beats coasting at ~8.
        assert!(mk(0.8) > mk(0.0));
    }
}
