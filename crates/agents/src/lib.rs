#![warn(missing_docs)]

//! # drive-agents — the two autonomous driving agents under study
//!
//! The paper compares a **modular driving pipeline** (waypoint planner +
//! behaviour layer + PID feedback control, Section III-B) against an
//! **end-to-end DRL agent** (SAC over semantic observations, Section
//! III-C). Both live here, behind the common [`Agent`] trait, together with
//! the shaped nominal driving reward, the RL environment used to train the
//! end-to-end policy, and the episode runner used by every experiment.

use drive_sim::vehicle::Actuation;
use drive_sim::world::World;

pub mod behavior;
pub mod driving_env;
pub mod e2e;
pub mod modular;
pub mod pid;
pub mod reward;
pub mod runner;
pub mod training;

/// A driving agent: maps the world state to actuation-variation commands
/// `(nu, gamma)` that feed the Eq. (1) actuator smoothing.
pub trait Agent {
    /// Called at episode start.
    fn reset(&mut self, world: &World);
    /// Computes this step's actuation variation.
    fn act(&mut self, world: &World) -> Actuation;
}

/// Commonly used items re-exported in one place.
pub mod prelude {
    pub use crate::behavior::{BehaviorConfig, BehaviorPlanner, Maneuver};
    pub use crate::driving_env::{DrivingEnv, SteerAttack};
    pub use crate::e2e::{E2eAgent, Policy};
    pub use crate::modular::{ModularAgent, ModularConfig};
    pub use crate::pid::{Pid, PidConfig};
    pub use crate::reward::{RewardConfig, RewardShaper};
    pub use crate::runner::{run_episode, run_episode_with_faults, run_episodes, SteerAttacker};
    pub use crate::training::{
        collect_demonstrations, evaluate_policy, train_victim, VictimTrainConfig,
    };
    pub use crate::Agent;
}
