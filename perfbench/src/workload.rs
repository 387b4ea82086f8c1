//! The four benchmark workloads: which experiments each one runs through
//! the engine, at what scale, with which victim-training budget, and which
//! evaluation cells its traced run replays through the decorated episode
//! entry point.

use attack_core::sensor::SensorKind;
use drive_agents::training::VictimTrainConfig;
use repro_bench::{AgentKind, Scale};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 4 grid: `pi_ori` under learned camera and IMU attacks.
    FreewayE2e,
    /// Fig. 6 + Fig. 7 + ablations: every agent kind, defenses, faults.
    MixedAgents,
    /// 432 tiny cells over 108 generated worlds, journal on.
    ScenarioMatrix,
    /// The victim stage of `prepare` at a fixed step budget.
    VictimTrain,
}

/// How big a run is: the benchmark's own size, or a smoke size for the
/// benchmark's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper.
    Full,
    /// A few episodes per cell and a token training budget.
    Smoke,
}

/// Where a replayed cell's episodes run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellWorld {
    /// The pipeline's default freeway, fault-free.
    Freeway,
    /// The default freeway with a benign actuation-fault schedule of this
    /// intensity (ablation arm 7's setting).
    FreewayFaulted(f64),
    /// The scenario-matrix world with this index in the generated grid
    /// (its own benign fault schedule included).
    Generated(usize),
}

/// One evaluation cell the traced run replays: once through the engine's
/// own cell function, once through the decorated episode entry point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayCell {
    /// The driving agent.
    pub kind: AgentKind,
    /// Attacker sensor; `None` is the unattacked cell.
    pub sensor: Option<SensorKind>,
    /// Attack budget `epsilon`.
    pub budget: f64,
    /// Where the episodes run.
    pub world: CellWorld,
    /// Episodes in the cell.
    pub episodes: usize,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 4] = [
        Workload::FreewayE2e,
        Workload::MixedAgents,
        Workload::ScenarioMatrix,
        Workload::VictimTrain,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FreewayE2e => "freeway-e2e",
            Workload::MixedAgents => "mixed-agents",
            Workload::ScenarioMatrix => "scenario-matrix",
            Workload::VictimTrain => "victim-train",
        }
    }

    /// The workload with the given `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Registry names of the experiments the workload runs through
    /// `repro_bench::engine::execute`, in order.
    pub fn experiments(self) -> &'static [&'static str] {
        match self {
            Workload::FreewayE2e => &["fig4"],
            Workload::MixedAgents => &["fig6", "fig7", "ablations"],
            Workload::ScenarioMatrix => &["scenario-matrix"],
            Workload::VictimTrain => &["baseline"],
        }
    }

    /// The evaluation scale; the seed reaches the program only here.
    pub fn scale(self, seed: u64, size: Size) -> Scale {
        let base = match size {
            Size::Full => Scale::paper(),
            Size::Smoke => Scale::smoke(),
        };
        let (box_episodes, scatter_rounds) = match (self, size) {
            (_, Size::Smoke) => (base.box_episodes, base.scatter_rounds),
            // Fig. 4 has ten cells; at 30 episodes each the whole fleet run
            // takes ~70ms. More episodes per cell make it long enough to
            // time and keep the 64-slot fleet full.
            (Workload::FreewayE2e, Size::Full) => (128, base.scatter_rounds),
            // A third of the paper's 30 episodes per cell: the paper-scale
            // grid takes ~17s serial plus fleet, too long to repeat within
            // one run, and single samples on a shared host are too noisy.
            (Workload::MixedAgents, Size::Full) => (10, base.scatter_rounds),
            // The matrix runs `scatter_rounds / 2` episodes per cell: 4.
            (Workload::ScenarioMatrix, Size::Full) => (base.box_episodes, 8),
            // The baseline's two cells: enough nominal episodes that the
            // evaluation after training is timeable.
            (Workload::VictimTrain, Size::Full) => (256, base.scatter_rounds),
        };
        Scale {
            box_episodes,
            scatter_rounds,
            seed,
        }
    }

    /// The victim-stage training budget of this workload. `victim-train`
    /// trains at its full fixed budget; the evaluation workloads run a
    /// small fixed budget so that every workload reports `train_s`.
    pub fn victim_config(self, seed: u64, size: Size) -> VictimTrainConfig {
        let (demo_episodes, bc_steps, sac_steps) = match (self, size) {
            (_, Size::Smoke) => (2, 40, 1_010),
            (Workload::VictimTrain, Size::Full) => (16, 2_000, 2_400),
            (_, Size::Full) => (4, 800, 1_400),
        };
        VictimTrainConfig {
            demo_episodes,
            bc_steps,
            sac_steps,
            seed,
            ..VictimTrainConfig::default()
        }
    }

    /// The cells the traced run replays: a cross-section of the
    /// workload's grid covering every agent kind and attacker it
    /// evaluates.
    pub fn replay_cells(self, size: Size) -> Vec<ReplayCell> {
        let episodes = |full: usize| match size {
            Size::Full => full,
            Size::Smoke => 1,
        };
        let cell = |kind, sensor, budget, world, n| ReplayCell {
            kind,
            sensor,
            budget,
            world,
            episodes: episodes(n),
        };
        let mut cells = Vec::new();
        match self {
            Workload::FreewayE2e => {
                for sensor in [SensorKind::Camera, SensorKind::Imu] {
                    for budget in [0.0, 0.25, 0.5, 0.75, 1.0] {
                        cells.push(cell(
                            AgentKind::E2e,
                            Some(sensor),
                            budget,
                            CellWorld::Freeway,
                            6,
                        ));
                    }
                }
            }
            Workload::MixedAgents => {
                for kind in [
                    AgentKind::Modular,
                    AgentKind::E2e,
                    AgentKind::AdvRhoSmall,
                    AgentKind::AdvRhoHalf,
                    AgentKind::PnnSigma02,
                    AgentKind::PnnSigma04,
                ] {
                    for budget in [0.0, 0.5, 1.0] {
                        cells.push(cell(
                            kind,
                            Some(SensorKind::Camera),
                            budget,
                            CellWorld::Freeway,
                            4,
                        ));
                    }
                }
                for kind in [AgentKind::Modular, AgentKind::E2e] {
                    cells.push(cell(kind, None, 0.0, CellWorld::FreewayFaulted(0.5), 4));
                }
            }
            Workload::ScenarioMatrix => {
                // Every 18th world of the 108: all three topologies, both
                // fault intensities.
                for world in (0..108).step_by(18) {
                    for kind in [AgentKind::E2e, AgentKind::AdvRhoHalf] {
                        for (sensor, budget) in [(None, 0.0), (Some(SensorKind::Camera), 1.0)] {
                            cells.push(cell(kind, sensor, budget, CellWorld::Generated(world), 2));
                        }
                    }
                }
            }
            Workload::VictimTrain => {
                for kind in [AgentKind::Modular, AgentKind::E2e] {
                    cells.push(cell(kind, None, 0.0, CellWorld::Freeway, 8));
                }
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_experiments_exist() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            for name in w.experiments() {
                assert!(repro_bench::Registry::find(name).is_some(), "{name}");
            }
            assert!(!w.replay_cells(Size::Full).is_empty());
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn seed_reaches_scale_and_training() {
        for w in Workload::ALL {
            assert_eq!(w.scale(7, Size::Full).seed, 7);
            assert_eq!(w.victim_config(7, Size::Full).seed, 7);
        }
    }
}
