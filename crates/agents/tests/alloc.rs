//! Regression tests: the steady-state evaluation hot paths perform zero
//! heap allocations once their scratch buffers have warmed up.
//!
//! - The fleet control loop — `WorldBatch::step` plus
//!   `BehaviorPlanner::plan_into` for every slot: the per-world
//!   `StepScratch` (lead tables + NPC actuations), the batch's command
//!   buffers, and the planner's reused `Path` must all reach a fixed
//!   point.
//! - The serial per-step calls: `E2eAgent::act` over a pre-packed policy,
//!   `LearnedAttacker::delta` with camera and IMU sensors, and the Simplex
//!   switcher's and the detector agent's PNN columns (hardened and base).
//!
//! A counting `#[global_allocator]` wrapping the system allocator makes
//! that an invariant instead of a benchmark hope; the counters are
//! thread-local, so other test threads can't pollute the measurement.

use attack_core::budget::AttackBudget;
use attack_core::defense::SimplexSwitcher;
use attack_core::detector::{DetectorConfig, DetectorSimplexAgent};
use attack_core::learned::LearnedAttacker;
use attack_core::sensor::AttackerSensor;
use drive_agents::behavior::{BehaviorConfig, BehaviorPlanner};
use drive_agents::e2e::E2eAgent;
use drive_agents::runner::SteerAttacker;
use drive_agents::Agent;
use drive_nn::batch::BatchPolicy;
use drive_nn::gaussian::GaussianPolicy;
use drive_nn::pnn::{PnnInit, PnnPolicy};
use drive_sim::batch::WorldBatch;
use drive_sim::scenario::Scenario;
use drive_sim::sensors::{FeatureConfig, ImuConfig};
use drive_sim::vehicle::Actuation;
use drive_sim::waypoints::Path;
use drive_sim::world::World;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// System allocator wrapper counting allocation events on this thread.
/// Only `alloc`/`realloc` count — frees are irrelevant to the invariant.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the bookkeeping around it is a
// thread-local counter bump with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// One lockstep control iteration: plan every slot into its reused buffer,
/// derive a steering command from the projection, step the batch.
fn control_step(
    wb: &mut WorldBatch,
    planners: &mut [BehaviorPlanner],
    bufs: &mut [Path],
    actions: &mut Vec<Actuation>,
    outcomes: &mut Vec<drive_sim::world::StepOutcome>,
) {
    actions.clear();
    for i in 0..wb.len() {
        let world = &wb.worlds()[i];
        planners[i].plan_into(world, &mut bufs[i]);
        let proj = bufs[i].project(world.ego().pose.position, world.ego().pose.heading);
        let steer = (-0.4 * proj.cross_track - 1.5 * proj.heading_error).clamp(-1.0, 1.0);
        actions.push(Actuation::new(steer, 0.2));
    }
    wb.step(actions, outcomes);
}

#[test]
fn steady_state_batch_step_and_plan_are_allocation_free_golden() {
    const BATCH: usize = 8;
    let mut wb = WorldBatch::new();
    let mut planners = Vec::new();
    let mut bufs = Vec::new();
    for slot in 0..BATCH as u64 {
        let mut s = Scenario::default().jittered(&mut StdRng::seed_from_u64(0xA110C + slot));
        s.max_steps = 400;
        let lane = s.ego_lane;
        wb.push(World::new(s));
        planners.push(BehaviorPlanner::new(BehaviorConfig::default(), lane));
        bufs.push(Path::default());
    }
    let mut actions: Vec<Actuation> = Vec::with_capacity(BATCH);
    let mut outcomes = Vec::new();

    // Warm-up: sizes the per-world step scratches, the batch's command
    // buffers, and every planner's waypoint buffer (including
    // the lane-change variant, which shares the same fixed horizon).
    for _ in 0..30 {
        control_step(
            &mut wb,
            &mut planners,
            &mut bufs,
            &mut actions,
            &mut outcomes,
        );
    }

    let before = allocs();
    for _ in 0..10 {
        control_step(
            &mut wb,
            &mut planners,
            &mut bufs,
            &mut actions,
            &mut outcomes,
        );
    }
    let grew = allocs() - before;
    assert_eq!(
        grew, 0,
        "steady-state step+plan loop allocated {grew} times across 10 iterations"
    );
}

/// Steps one world under `act`, warming up for 30 steps, then returns the
/// allocations made inside `act` (and only there — the world's own step
/// is outside the contract) over the next 20.
fn allocs_in_act(mut act: impl FnMut(&World) -> Actuation) -> u64 {
    let mut s = Scenario::default().jittered(&mut StdRng::seed_from_u64(0xA11C));
    s.max_steps = 400;
    let mut world = World::new(s);
    for _ in 0..30 {
        let a = act(&world);
        world.step(a);
    }
    let mut grew = 0;
    for _ in 0..20 {
        let before = allocs();
        let a = act(&world);
        grew += allocs() - before;
        world.step(a);
    }
    grew
}

/// A policy of the victim's shape (60-128-128-4).
fn policy(obs_dim: usize, action_dim: usize) -> GaussianPolicy {
    GaussianPolicy::new(
        obs_dim,
        &[128, 128],
        action_dim,
        &mut StdRng::seed_from_u64(3),
    )
}

#[test]
fn steady_state_e2e_act_is_allocation_free() {
    let features = FeatureConfig::default();
    for deterministic in [true, false] {
        let head = BatchPolicy::from(policy(features.observation_dim(), 2));
        let mut agent = E2eAgent::new(head, features.clone(), 1, deterministic);
        let grew = allocs_in_act(|w| agent.act(w));
        assert_eq!(
            grew, 0,
            "E2eAgent::act (det={deterministic}) allocated {grew} times"
        );
    }
}

#[test]
fn steady_state_learned_attacker_delta_is_allocation_free() {
    let features = FeatureConfig::default();
    let imu = ImuConfig::default();
    let camera = BatchPolicy::from(policy(features.observation_dim(), 1));
    let imu_head = BatchPolicy::from(policy(imu.observation_dim(), 1));
    for (head, sensor) in [
        (camera, AttackerSensor::camera(features.clone())),
        (imu_head, AttackerSensor::imu(imu.clone(), 5)),
    ] {
        let kind = sensor.kind();
        let mut attacker = LearnedAttacker::new(head, sensor, AttackBudget::new(0.5), 2, true);
        let grew = allocs_in_act(|w| Actuation::new(attacker.delta(w), 0.3));
        assert_eq!(
            grew, 0,
            "{kind} LearnedAttacker::delta allocated {grew} times"
        );
    }
}

#[test]
fn steady_state_simplex_columns_are_allocation_free() {
    let features = FeatureConfig::default();
    let base = policy(features.observation_dim(), 2);
    let pnn = PnnPolicy::new(base, PnnInit::Random, &mut StdRng::seed_from_u64(4));
    for epsilon in [0.8, 0.1] {
        let switcher = SimplexSwitcher::new(pnn.clone(), 0.4, epsilon);
        let hardened = switcher.uses_hardened_column();
        let mut agent = E2eAgent::new(switcher, features.clone(), 1, true);
        let grew = allocs_in_act(|w| agent.act(w));
        assert_eq!(
            grew, 0,
            "Simplex (hardened={hardened}) act allocated {grew} times"
        );
    }
    let mut detector =
        DetectorSimplexAgent::new(pnn, 0.2, features.clone(), DetectorConfig::default(), 1);
    let grew = allocs_in_act(|w| detector.act(w));
    assert_eq!(grew, 0, "DetectorSimplexAgent::act allocated {grew} times");
}
