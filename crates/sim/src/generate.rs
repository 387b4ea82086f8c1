//! Seeded procedural scenario generation.
//!
//! Turns a point on the scenario axes — road topology × traffic density ×
//! NPC speed mix × fault intensity — plus a [`SeedTree`] node into a
//! validated [`ScenarioSpec`] and a benign [`FaultSchedule`]. The same node
//! always yields the same scenario (the generator draws every random
//! quantity from `StdRng`s seeded by labeled children of the node), and
//! every generated scenario passes [`Scenario::validate`] *including* the
//! per-episode spawn jitter applied later by the episode runners: spawn
//! gaps and lane-window margins are kept wider than the jitter can close.

use crate::faults::FaultSchedule;
use crate::road::Road;
use crate::scenario::{NpcSpawn, Scenario, ScenarioSpec};
use crate::vehicle::VehicleParams;
use drive_seed::SeedTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which road layout to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// The paper's straight three-lane freeway.
    Straight,
    /// Freeway with an on-ramp acceleration lane merging into lane 0.
    OnRamp,
    /// Freeway whose leftmost lane ends mid-episode.
    LaneDrop,
}

impl TopologyKind {
    /// Every topology, in sweep order.
    pub const ALL: [TopologyKind; 3] = [
        TopologyKind::Straight,
        TopologyKind::OnRamp,
        TopologyKind::LaneDrop,
    ];

    /// Stable label used in seeds, artifact names and manifests.
    pub fn label(&self) -> &'static str {
        match self {
            TopologyKind::Straight => "straight",
            TopologyKind::OnRamp => "on_ramp",
            TopologyKind::LaneDrop => "lane_drop",
        }
    }
}

/// Traffic density band: how many NPCs spawn and how tightly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficDensity {
    /// 2–4 NPCs, wide gaps.
    Sparse,
    /// 5–7 NPCs, the paper's spacing.
    Normal,
    /// 8–11 NPCs, tight gaps.
    Dense,
}

impl TrafficDensity {
    /// Every density band, in sweep order.
    pub const ALL: [TrafficDensity; 3] = [
        TrafficDensity::Sparse,
        TrafficDensity::Normal,
        TrafficDensity::Dense,
    ];

    /// Stable label used in seeds, artifact names and manifests.
    pub fn label(&self) -> &'static str {
        match self {
            TrafficDensity::Sparse => "sparse",
            TrafficDensity::Normal => "normal",
            TrafficDensity::Dense => "dense",
        }
    }

    /// Inclusive NPC-count band.
    fn npc_band(&self) -> (usize, usize) {
        match self {
            TrafficDensity::Sparse => (2, 4),
            TrafficDensity::Normal => (5, 7),
            TrafficDensity::Dense => (8, 11),
        }
    }

    /// Longitudinal gap band between consecutive spawns in one lane,
    /// meters. The lower bound stays above one car length plus twice the
    /// per-episode spawn jitter so jittered scenarios always validate.
    fn gap_band(&self) -> (f64, f64) {
        match self {
            TrafficDensity::Sparse => (30.0, 60.0),
            TrafficDensity::Normal => (18.0, 40.0),
            TrafficDensity::Dense => (12.0, 24.0),
        }
    }
}

/// NPC cruise-speed mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpeedMix {
    /// Uniformly slow traffic (the paper's 6 m/s band).
    Slow,
    /// Mixed slow and medium traffic.
    Mixed,
    /// Uniformly fast traffic, closer to the ego's reference speed.
    Fast,
}

impl SpeedMix {
    /// Every speed mix, in sweep order.
    pub const ALL: [SpeedMix; 3] = [SpeedMix::Slow, SpeedMix::Mixed, SpeedMix::Fast];

    /// Stable label used in seeds, artifact names and manifests.
    pub fn label(&self) -> &'static str {
        match self {
            SpeedMix::Slow => "slow",
            SpeedMix::Mixed => "mixed",
            SpeedMix::Fast => "fast",
        }
    }

    /// Cruise-speed band, m/s.
    fn speed_band(&self) -> (f64, f64) {
        match self {
            SpeedMix::Slow => (5.0, 7.0),
            SpeedMix::Mixed => (5.0, 10.0),
            SpeedMix::Fast => (8.0, 12.0),
        }
    }
}

/// One point on the scenario axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioAxes {
    /// Road layout.
    pub topology: TopologyKind,
    /// Traffic density band.
    pub density: TrafficDensity,
    /// NPC cruise-speed mix.
    pub speed_mix: SpeedMix,
    /// Benign fault-schedule intensity (0 disables faults).
    pub fault_intensity: f64,
}

/// A generated scenario plus the fault schedule drawn alongside it.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedScenario {
    /// The validated scenario under its generated name.
    pub spec: ScenarioSpec,
    /// Benign fault schedule for the episode loop (noop at intensity 0).
    pub faults: FaultSchedule,
    /// The axes this scenario was generated from.
    pub axes: ScenarioAxes,
}

/// Margin (beyond the spawn jitter) kept between any spawn and the end of
/// its lane-open window, meters.
const LANE_WINDOW_MARGIN: f64 = 10.0;

/// First x at which NPCs may spawn, meters ahead of the ego at x = 0.
const SPAWN_START_X: f64 = 25.0;

/// Draws the road geometry for `kind` from `rng`.
fn draw_road(kind: TopologyKind, rng: &mut StdRng) -> Road {
    match kind {
        TopologyKind::Straight => Road::default(),
        TopologyKind::OnRamp => {
            let merge_start = rng.gen_range(200.0..280.0);
            Road::on_ramp(3, 3.5, 1500.0, 0.0, merge_start, merge_start + 80.0)
        }
        TopologyKind::LaneDrop => {
            let drop_start = rng.gen_range(250.0..350.0);
            Road::lane_drop(3, 3.5, 1500.0, drop_start, drop_start + 80.0)
        }
    }
}

/// Generates the scenario for one axes point, drawing every random
/// quantity through labeled children of `node`.
///
/// Calling this twice with equal inputs yields identical output; distinct
/// nodes yield independently drawn scenarios.
pub fn generate(axes: ScenarioAxes, node: &SeedTree) -> GeneratedScenario {
    let mut road_rng = StdRng::seed_from_u64(node.child("road").seed());
    let road = draw_road(axes.topology, &mut road_rng);

    let mut rng = StdRng::seed_from_u64(node.child("npcs").seed());
    let (lo, hi) = axes.density.npc_band();
    let count = rng.gen_range(lo..=hi);
    let (gap_lo, gap_hi) = axes.density.gap_band();
    let (speed_lo, speed_hi) = axes.speed_mix.speed_band();

    let base = Scenario::default();
    let jitter = base.spawn_jitter_x;

    // One spawn cursor per addressable lane; each draw advances a lane's
    // cursor by a gap wider than a car length plus twice the jitter, so
    // neither the base nor any jittered variant can overlap.
    let total_lanes = road.total_lanes();
    let mut cursors = vec![SPAWN_START_X; total_lanes];
    // The ego spawns at x = 0 in its lane; keep that lane's first spawn
    // clear of the ego even under jitter.
    let ego_lane = 1.min(road.num_lanes - 1);

    let mut npcs = Vec::with_capacity(count);
    let mut attempts = 0;
    while npcs.len() < count && attempts < count * 8 {
        attempts += 1;
        let lane = rng.gen_range(0..total_lanes);
        let gap = rng.gen_range(gap_lo..gap_hi);
        let x = cursors[lane] + gap;
        // Respect the lane-open window (with margin for jitter) of closing
        // lanes: ramp spawns before the merge deadline, drop-lane spawns
        // before the drop. Lanes that run the whole road only need the
        // spawn to stay within reach of the episode.
        let window_end = road
            .lane_end_x(lane)
            .map(|end| end - jitter - LANE_WINDOW_MARGIN)
            .unwrap_or(f64::INFINITY);
        if x > window_end || x > 400.0 {
            continue;
        }
        let speed = rng.gen_range(speed_lo..speed_hi);
        npcs.push(NpcSpawn { lane, x, speed });
        cursors[lane] = x;
    }
    npcs.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.lane.cmp(&b.lane)));

    let scenario = Scenario {
        road,
        ego_lane,
        npcs,
        ..base
    };
    let name = format!(
        "{}_{}_{}_f{:03}_{:016x}",
        axes.topology.label(),
        axes.density.label(),
        axes.speed_mix.label(),
        (axes.fault_intensity * 100.0).round() as u32,
        node.seed()
    );
    let spec = ScenarioSpec::new(name, scenario).expect("generated scenario must validate");

    let faults = if axes.fault_intensity > 0.0 {
        FaultSchedule::benign(axes.fault_intensity, node.child("faults").seed())
    } else {
        FaultSchedule::none()
    };

    GeneratedScenario { spec, faults, axes }
}

/// Sanity floor used by tests: the tightest generator gap must exceed a
/// car length plus twice the default spawn jitter.
pub fn min_generator_gap() -> f64 {
    TrafficDensity::Dense.gap_band().0
}

/// The corresponding safety requirement.
pub fn min_required_gap() -> f64 {
    VehicleParams::default().length + 2.0 * Scenario::default().spawn_jitter_x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn axes_grid() -> Vec<ScenarioAxes> {
        let mut out = Vec::new();
        for topology in TopologyKind::ALL {
            for density in TrafficDensity::ALL {
                for speed_mix in SpeedMix::ALL {
                    for fault_intensity in [0.0, 0.5] {
                        out.push(ScenarioAxes {
                            topology,
                            density,
                            speed_mix,
                            fault_intensity,
                        });
                    }
                }
            }
        }
        out
    }

    #[test]
    fn generator_gaps_cover_jitter() {
        assert!(min_generator_gap() > min_required_gap());
    }

    #[test]
    fn generated_scenarios_validate_and_replay() {
        let root = SeedTree::root(0xC0FFEE).child("gen");
        for (i, axes) in axes_grid().into_iter().enumerate() {
            let node = root.child(i);
            let g1 = generate(axes, &node);
            let g2 = generate(axes, &node);
            assert_eq!(g1, g2, "same node must regenerate identically");
            assert!(g1.spec.scenario().validate().is_ok());
            // Jittered spawns must stay valid (World::new validates).
            let mut rng = StdRng::seed_from_u64(42 + i as u64);
            let jittered = g1.spec.scenario().jittered(&mut rng);
            let _ = World::new(jittered);
        }
    }

    #[test]
    fn topologies_materialize_their_roads() {
        let node = SeedTree::root(7).child("gen").child(0);
        for (kind, label) in [
            (TopologyKind::Straight, "straight"),
            (TopologyKind::OnRamp, "on_ramp"),
            (TopologyKind::LaneDrop, "lane_drop"),
        ] {
            let g = generate(
                ScenarioAxes {
                    topology: kind,
                    density: TrafficDensity::Normal,
                    speed_mix: SpeedMix::Slow,
                    fault_intensity: 0.0,
                },
                &node,
            );
            assert_eq!(g.spec.scenario().road.topology.label(), label);
            assert!(g.spec.name.starts_with(label));
            assert!(g.faults.is_noop());
        }
    }

    #[test]
    fn fault_axis_draws_a_schedule() {
        let node = SeedTree::root(7).child("gen").child(1);
        let g = generate(
            ScenarioAxes {
                topology: TopologyKind::Straight,
                density: TrafficDensity::Normal,
                speed_mix: SpeedMix::Slow,
                fault_intensity: 0.5,
            },
            &node,
        );
        assert!(!g.faults.is_noop());
        assert_eq!(g.faults.seed, node.child("faults").seed());
    }

    #[test]
    fn distinct_nodes_draw_distinct_traffic() {
        let root = SeedTree::root(99).child("gen");
        let axes = ScenarioAxes {
            topology: TopologyKind::Straight,
            density: TrafficDensity::Normal,
            speed_mix: SpeedMix::Mixed,
            fault_intensity: 0.0,
        };
        let a = generate(axes, &root.child(0));
        let b = generate(axes, &root.child(1));
        assert_ne!(a.spec.fingerprint(), b.spec.fingerprint());
    }
}
