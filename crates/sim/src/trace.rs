//! Full per-step episode traces with CSV export.
//!
//! Where [`crate::record::EpisodeRecord`] stores the *metrics* of an
//! episode, an [`EpisodeTrace`] stores the *kinematics*: every vehicle's
//! pose and speed at every control step, plus the injected perturbation.
//! Traces feed visualization (the paper's Fig. 1b trajectory plot) and
//! post-hoc analysis; the CSV schema is one row per vehicle per step.

use crate::world::{CollisionEvent, World};

/// Kinematic snapshot of one vehicle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VehicleSnapshot {
    /// World x, meters.
    pub x: f64,
    /// World y, meters.
    pub y: f64,
    /// Heading, radians.
    pub heading: f64,
    /// Speed, m/s.
    pub speed: f64,
    /// Realized normalized steering.
    pub steer: f64,
    /// Realized normalized thrust.
    pub thrust: f64,
}

impl VehicleSnapshot {
    /// Captures a vehicle's current state.
    pub fn of(v: &crate::vehicle::Vehicle) -> Self {
        VehicleSnapshot {
            x: v.pose.position.x,
            y: v.pose.position.y,
            heading: v.pose.heading,
            speed: v.speed,
            steer: v.actuation.steer,
            thrust: v.actuation.thrust,
        }
    }
}

/// One control step of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct StepTrace {
    /// Simulation time at the end of the step, seconds.
    pub time: f64,
    /// Ego vehicle state.
    pub ego: VehicleSnapshot,
    /// NPC states, in scenario order.
    pub npcs: Vec<VehicleSnapshot>,
    /// Injected steering perturbation this step.
    pub perturbation: f64,
    /// Collision detected this step, if any.
    pub collision: Option<CollisionEvent>,
}

/// A whole episode's kinematic history.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EpisodeTrace {
    /// Control period, seconds.
    pub dt: f64,
    /// Steps in order.
    pub steps: Vec<StepTrace>,
}

impl EpisodeTrace {
    /// Creates an empty trace for a world's timing.
    pub fn for_world(world: &World) -> Self {
        EpisodeTrace {
            dt: world.scenario().dt,
            steps: Vec::with_capacity(world.scenario().max_steps),
        }
    }

    /// Captures the current world state (call after each `world.step`).
    pub fn capture(&mut self, world: &World, perturbation: f64, collision: Option<CollisionEvent>) {
        self.steps.push(StepTrace {
            time: world.time(),
            ego: VehicleSnapshot::of(world.ego()),
            npcs: world
                .npcs()
                .iter()
                .map(|n| VehicleSnapshot::of(&n.vehicle))
                .collect(),
            perturbation,
            collision,
        });
    }

    /// Number of captured steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The ego trajectory as `(x, y)` pairs.
    pub fn ego_path(&self) -> Vec<(f64, f64)> {
        self.steps.iter().map(|s| (s.ego.x, s.ego.y)).collect()
    }

    /// Serializes to CSV: one row per vehicle per step.
    ///
    /// Columns: `time, vehicle, x, y, heading, speed, steer, thrust,
    /// perturbation, collision`. `vehicle` is `ego` or `npc<i>`;
    /// `perturbation`/`collision` are only set on ego rows.
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("time,vehicle,x,y,heading,speed,steer,thrust,perturbation,collision\n");
        for s in &self.steps {
            let collision = s
                .collision
                .map(|c| format!("{:?}", c.kind))
                .unwrap_or_default();
            out.push_str(&format!(
                "{:.2},ego,{:.4},{:.4},{:.5},{:.3},{:.4},{:.4},{:.4},{}\n",
                s.time,
                s.ego.x,
                s.ego.y,
                s.ego.heading,
                s.ego.speed,
                s.ego.steer,
                s.ego.thrust,
                s.perturbation,
                collision
            ));
            for (i, n) in s.npcs.iter().enumerate() {
                out.push_str(&format!(
                    "{:.2},npc{i},{:.4},{:.4},{:.5},{:.3},{:.4},{:.4},,\n",
                    s.time, n.x, n.y, n.heading, n.speed, n.steer, n.thrust
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::vehicle::Actuation;

    fn traced_episode(steps: usize) -> EpisodeTrace {
        let mut world = World::new(Scenario::default());
        let mut trace = EpisodeTrace::for_world(&world);
        for _ in 0..steps {
            let out = world.step(Actuation::new(0.0, 0.1));
            trace.capture(&world, 0.05, out.collision);
            if world.is_done() {
                break;
            }
        }
        trace
    }

    #[test]
    fn capture_accumulates_steps() {
        let trace = traced_episode(10);
        assert_eq!(trace.len(), 10);
        assert!(!trace.is_empty());
        assert_eq!(trace.steps[0].npcs.len(), 6);
        // Time advances by dt per step.
        assert!((trace.steps[1].time - trace.steps[0].time - 0.1).abs() < 1e-12);
    }

    #[test]
    fn ego_path_moves_forward() {
        let trace = traced_episode(20);
        let path = trace.ego_path();
        assert!(path.last().unwrap().0 > path.first().unwrap().0);
    }

    #[test]
    fn csv_has_expected_shape() {
        let trace = traced_episode(3);
        let csv = trace.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        // Header + 3 steps x (1 ego + 6 npcs).
        assert_eq!(lines.len(), 1 + 3 * 7);
        assert!(lines[0].starts_with("time,vehicle,x,y"));
        assert!(lines[1].contains(",ego,"));
        assert!(lines[2].contains(",npc0,"));
        // Ego rows carry the perturbation.
        assert!(lines[1].contains("0.0500"));
    }

    #[test]
    fn snapshot_matches_vehicle() {
        let world = World::new(Scenario::default());
        let s = VehicleSnapshot::of(world.ego());
        assert_eq!(s.x, world.ego().pose.position.x);
        assert_eq!(s.speed, 16.0);
    }
}
