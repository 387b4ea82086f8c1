//! The traced run: the per-layer split of one workload.
//!
//! Every layer is measured from outside the program, in one of two ways:
//!
//! * spans around calls into public functions, taken by the timing
//!   decorators below ([`TimedAgent`], [`TimedAttacker`], [`TimedEnv`])
//!   that wrap the public `drive_agents::Agent`,
//!   `drive_agents::runner::SteerAttacker` and `drive_rl::env::Env` traits
//!   and are passed into the public episode and training entry points;
//! * before/after deltas of the counters the program already exports
//!   (`drive_sim::perf::{steps, fleet}`, `drive_rl::perf::updates`) and of
//!   process CPU time.
//!
//! Spans are kept in memory and written out once, at the end of the run.
//! The decorated episodes must equal the engine's own records for the
//! same cells, and decorated training must produce the same weights as
//! undecorated training.

use crate::bench::{self, eval_run, Metric, Plan, Prepared, FLEET_SLOTS};
use crate::workload::{CellWorld, ReplayCell, Size};
use attack_core::adv_reward::AdvReward;
use attack_core::budget::AttackBudget;
use attack_core::eval::run_attacked_episode_with_faults;
use attack_core::learned::LearnedAttacker;
use attack_core::sensor::{AttackerSensor, SensorKind};
use drive_agents::runner::SteerAttacker;
use drive_agents::training::{collect_demonstrations, train_victim, VictimTrainConfig};
use drive_agents::Agent;
use drive_nn::checkpoint::encode_policy;
use drive_nn::gaussian::GaussianPolicy;
use drive_rl::bc::{clone_policy, BcConfig};
use drive_rl::env::{Env, EnvStep};
use drive_rl::replay::{ReplayBuffer, Transition};
use drive_rl::sac::{Sac, SacConfig};
use drive_rl::train::{train_sac, TrainConfig};
use drive_seed::SeedTree;
use drive_sim::faults::{FaultInjector, FaultSchedule};
use drive_sim::record::EpisodeRecord;
use drive_sim::vehicle::Actuation;
use drive_sim::world::World;
use rand::rngs::StdRng;
use rand::SeedableRng;
use repro_bench::harness::{attacked_records_in, ScenarioCell};
use repro_bench::{build_agent, AgentKind, RunContext};
use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, nanoseconds after the log's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// In-memory span store of one traced run.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }
}

impl SpanLog {
    /// Records a span that started at `start` and ends now.
    pub fn close(&self, name: &'static str, start: Instant) {
        let dur_ns = start.elapsed().as_nanos() as u64;
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.borrow_mut().push(Span {
            name,
            start_ns,
            dur_ns,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.close(name, start);
        out
    }

    /// Total nanoseconds and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(ns, n), s| (ns + s.dur_ns as f64, n + 1))
    }

    /// Mean span length of `name` in `unit_ns` units (0 without spans).
    pub fn mean(&self, name: &str, unit_ns: f64) -> f64 {
        match self.total(name) {
            (_, 0) => 0.0,
            (ns, n) => ns / n as f64 / unit_ns,
        }
    }

    /// Writes every span as `name,start_ns,dur_ns` CSV.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,start_ns,dur_ns")?;
        for s in self.spans.borrow().iter() {
            writeln!(out, "{},{},{}", s.name, s.start_ns, s.dur_ns)?;
        }
        out.flush()
    }
}

/// Top-level stage spans; together they should cover the traced run.
const STAGES: [&str; 7] = [
    "stage.setup",
    "stage.train",
    "stage.rl_split",
    "stage.serial",
    "stage.serial_unjournaled",
    "stage.fleet",
    "stage.replay",
];

/// Times every `act` of a driving agent.
pub struct TimedAgent<'a> {
    inner: Box<dyn Agent>,
    name: &'static str,
    log: &'a SpanLog,
}

impl Agent for TimedAgent<'_> {
    fn reset(&mut self, world: &World) {
        self.inner.reset(world);
    }

    fn act(&mut self, world: &World) -> Actuation {
        let start = Instant::now();
        let a = self.inner.act(world);
        self.log.close(self.name, start);
        a
    }
}

/// Times every `delta` of a steering attacker.
pub struct TimedAttacker<'a, A> {
    inner: A,
    name: &'static str,
    log: &'a SpanLog,
}

impl<A: SteerAttacker> SteerAttacker for TimedAttacker<'_, A> {
    fn reset(&mut self, world: &World) {
        self.inner.reset(world);
    }

    fn delta(&mut self, world: &World) -> f64 {
        let start = Instant::now();
        let d = self.inner.delta(world);
        self.log.close(self.name, start);
        d
    }
}

/// Times every `step` of a training environment.
pub struct TimedEnv<'a, E> {
    inner: E,
    log: &'a SpanLog,
}

impl<E: Env> Env for TimedEnv<'_, E> {
    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }

    fn action_dim(&self) -> usize {
        self.inner.action_dim()
    }

    fn reset(&mut self, seed: u64) -> Vec<f32> {
        self.inner.reset(seed)
    }

    fn step(&mut self, action: &[f32]) -> EnvStep {
        let start = Instant::now();
        let s = self.inner.step(action);
        self.log.close("rl.env_step", start);
        s
    }
}

/// The span name of an agent's `act`.
fn agent_layer(kind: AgentKind) -> &'static str {
    match kind {
        AgentKind::Modular => "agents.modular.act",
        AgentKind::E2e | AgentKind::AdvRhoSmall | AgentKind::AdvRhoHalf => "agents.e2e.act",
        AgentKind::PnnSigma02 | AgentKind::PnnSigma04 => "core.simplex.act",
    }
}

/// The span name of an attacker's `delta`.
fn attacker_layer(sensor: SensorKind) -> &'static str {
    match sensor {
        SensorKind::Camera => "core.attacker.camera",
        SensorKind::Imu => "core.attacker.imu",
    }
}

/// Runs one cell's episodes through the public episode entry point with
/// decorated agent and attacker — the same construction, seeds and order
/// as the engine's serial cell path.
#[allow(clippy::too_many_arguments)]
fn traced_cell(
    log: &SpanLog,
    ctx: &RunContext,
    kind: AgentKind,
    attack: Option<(&GaussianPolicy, SensorKind)>,
    budget: AttackBudget,
    episodes: usize,
    seeds: &SeedTree,
    cell: Option<ScenarioCell<'_>>,
) -> Vec<EpisodeRecord> {
    let config = ctx.config;
    let scenario = cell.map_or(&config.scenario, |c| c.scenario);
    let schedule = cell.and_then(|c| c.faults.filter(|f| !f.is_noop()));
    let adv = AdvReward::default();
    let mut agent = TimedAgent {
        inner: build_agent(
            kind,
            ctx.artifacts,
            config,
            budget,
            seeds.child("agent").seed(),
        ),
        name: agent_layer(kind),
        log,
    };
    let base = seeds.child("episodes").seed();
    (0..episodes as u64)
        .map(|e| {
            let seed = base + e;
            let mut attacker = attack
                .filter(|_| !budget.is_zero())
                .map(|(policy, sensor)| TimedAttacker {
                    inner: LearnedAttacker::new(
                        policy.clone(),
                        match sensor {
                            SensorKind::Camera => AttackerSensor::camera(config.features.clone()),
                            SensorKind::Imu => AttackerSensor::imu(config.imu.clone(), seed),
                        },
                        budget,
                        seed,
                        true,
                    ),
                    name: attacker_layer(sensor),
                    log,
                });
            let mut faults = schedule.map(|s| FaultInjector::for_episode(s, seed));
            log.time("sim.episode", || {
                run_attacked_episode_with_faults(
                    &mut agent,
                    attacker.as_mut().map(|a| a as &mut dyn SteerAttacker),
                    &adv,
                    scenario,
                    seed,
                    faults.as_mut(),
                )
            })
        })
        .collect()
}

/// Replay totals.
struct Replay {
    untraced_s: f64,
    traced_s: f64,
    steps: u64,
}

/// Replays the workload's cross-section of cells twice: untraced through
/// the engine's own cell function, traced through the decorated episode
/// entry point. The records must be identical.
fn replay(plan: &Plan, prepared: &Prepared, log: &SpanLog) -> Result<Replay, String> {
    let ctx = RunContext::new(&prepared.artifacts, &prepared.config, plan.scale());
    let cells: Vec<ReplayCell> = plan.workload.replay_cells(plan.size);
    let generated = if cells
        .iter()
        .any(|c| matches!(c.world, CellWorld::Generated(_)))
    {
        repro_bench::experiments::scenario_matrix::generate_matrix(
            &ctx.seeds_for("scenario-matrix"),
        )
    } else {
        Vec::new()
    };
    let ns = ctx.seeds.child("perfbench-replay");
    let mut out = Replay {
        untraced_s: 0.0,
        traced_s: 0.0,
        steps: 0,
    };
    for (i, c) in cells.iter().enumerate() {
        let seeds = ns.child(i);
        let freeway_faults;
        let cell = match c.world {
            CellWorld::Freeway => None,
            CellWorld::FreewayFaulted(intensity) => {
                freeway_faults = FaultSchedule::benign(intensity, seeds.child("faults").seed());
                Some(ScenarioCell {
                    scenario: &prepared.config.scenario,
                    fingerprint: drive_seed::fnv1a_64(b"freeway"),
                    faults: Some(&freeway_faults),
                })
            }
            CellWorld::Generated(k) => {
                let g = generated
                    .get(k)
                    .ok_or_else(|| format!("no generated world {k}"))?;
                Some(ScenarioCell {
                    scenario: g.spec.scenario(),
                    fingerprint: g.spec.fingerprint(),
                    faults: Some(&g.faults),
                })
            }
        };
        let attack = c.sensor.map(|s| match s {
            SensorKind::Camera => (&prepared.artifacts.camera_attacker, s),
            SensorKind::Imu => (&prepared.artifacts.imu_attacker, s),
        });
        let budget = AttackBudget::new(c.budget);
        let t = Instant::now();
        let expected = attacked_records_in(c.kind, attack, budget, &ctx, c.episodes, &seeds, cell);
        out.untraced_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let got = traced_cell(log, &ctx, c.kind, attack, budget, c.episodes, &seeds, cell);
        out.traced_s += t.elapsed().as_secs_f64();
        if got != expected {
            return Err(format!(
                "traced records differ from the engine's for replay cell {i} ({} {:?} eps={})",
                c.kind.label(),
                c.sensor,
                c.budget
            ));
        }
        out.steps += got.iter().map(|r| r.steps as u64).sum::<u64>();
    }
    Ok(out)
}

/// The victim stage split into its public pieces: demonstrations,
/// behaviour cloning, SAC through `drive_rl::train::train_sac` on a
/// decorated `DrivingEnv`, and timed replay sampling and SAC updates.
/// Decorated and plain pieces must agree exactly.
fn rl_split(plan: &Plan, log: &SpanLog) -> Result<(), String> {
    let pipeline = bench::eval_config(plan.work_dir.join("unused"));
    let (scenario, features) = (&pipeline.scenario, &pipeline.features);
    let cfg = plan.workload.victim_config(plan.seed, plan.size);

    // Demonstrations and cloning exactly as `train_victim` runs them.
    let demos = log.time("rl.demo", || {
        collect_demonstrations(
            scenario,
            features,
            cfg.demo_episodes,
            cfg.seed,
            cfg.demo_noise,
        )
    });
    let mut rng = StdRng::seed_from_u64(SeedTree::root(cfg.seed).child("victim-bc").seed());
    let mut policy = GaussianPolicy::new(features.observation_dim(), &cfg.hidden, 2, &mut rng);
    log.time("rl.bc", || {
        clone_policy(
            &mut policy,
            &demos,
            BcConfig {
                steps: cfg.bc_steps,
                batch_size: 128,
                lr: 1e-3,
            },
            &mut rng,
        )
    });
    let cloned = train_victim(
        scenario,
        features,
        &VictimTrainConfig {
            sac_steps: 0,
            ..cfg.clone()
        },
    );
    if encode_policy(&cloned) != encode_policy(&policy) {
        return Err("split demonstrations + cloning differ from train_victim".into());
    }

    // SAC on the driving task, decorated and plain, from one state.
    let sac_config = SacConfig {
        init_alpha: 0.02,
        actor_delay: 1000,
        batch_size: 128,
        ..SacConfig::default()
    };
    let train_config = TrainConfig {
        total_steps: cfg.sac_steps,
        update_every: cfg.update_every,
        seed: cfg.seed,
        ..TrainConfig::default()
    };
    let critic_rng = StdRng::seed_from_u64(SeedTree::root(cfg.seed).child("victim-sac").seed());
    let new_sac = || {
        Sac::with_actor(
            policy.clone(),
            &cfg.hidden,
            sac_config,
            &mut critic_rng.clone(),
        )
    };
    let env = || drive_agents::driving_env::DrivingEnv::new(scenario.clone(), features.clone());
    let mut traced = new_sac();
    train_sac(
        &mut TimedEnv { inner: env(), log },
        &mut traced,
        train_config,
    );
    let mut plain = new_sac();
    train_sac(&mut env(), &mut plain, train_config);
    if encode_policy(&traced.actor) != encode_policy(&plain.actor) {
        return Err("decorated SAC training diverged from undecorated training".into());
    }

    // Replay sampling and batch-128 updates, one span each.
    let mut env = env();
    let mut buffer = ReplayBuffer::new(100_000, env.obs_dim(), env.action_dim());
    let mut rng = StdRng::seed_from_u64(SeedTree::root(cfg.seed).child("perfbench-updates").seed());
    let mut obs = env.reset(cfg.seed);
    let mut episode = cfg.seed;
    while buffer.len() < 1_000 {
        let action = traced.act(&obs, &mut rng, false);
        let s = env.step(&action);
        let finished = s.finished();
        buffer.push(Transition {
            obs: std::mem::take(&mut obs),
            action,
            reward: s.reward,
            next_obs: s.obs.clone(),
            terminal: s.done,
        });
        obs = s.obs;
        if finished {
            episode += 1;
            obs = env.reset(episode);
        }
    }
    let mut batch = buffer.sample(sac_config.batch_size, &mut rng);
    let updates = match plan.size {
        Size::Full => 48,
        Size::Smoke => 4,
    };
    for _ in 0..updates {
        log.time("rl.replay_sample", || {
            buffer.sample_into(sac_config.batch_size, &mut rng, &mut batch)
        });
        log.time("rl.sac_update", || traced.update_batch(&batch, &mut rng));
    }
    Ok(())
}

/// The traced run: every per-layer metric of the workload.
pub fn run_traced(plan: &Plan) -> Result<bench::Outcome, String> {
    bench::fresh_dir(&plan.work_dir)?;
    let wall = Instant::now();
    let log = SpanLog::default();
    let jobs = drive_par::Executor::current().jobs();

    let (prepared, _) = log.time("stage.setup", || bench::setup_once(plan))?;
    let grid = log.time("stage.setup", || bench::probe_grid(plan, &prepared))?;
    let train = log.time("stage.train", || {
        bench::train_once(plan, &plan.work_dir.join("train"))
    })?;
    if !train.finite {
        return Err("victim training produced non-finite weights".into());
    }
    log.time("stage.rl_split", || rl_split(plan, &log))?;

    let dir = &plan.work_dir;
    let serial = log.time("stage.serial", || {
        eval_run(plan, &prepared, None, true, &dir.join("serial"))
    })?;
    let missing = bench::check_grid(&serial, &grid)?;
    let unjournaled = log.time("stage.serial_unjournaled", || {
        eval_run(plan, &prepared, None, false, &dir.join("serial-nojournal"))
    })?;
    let fleet = log.time("stage.fleet", || {
        eval_run(plan, &prepared, Some(FLEET_SLOTS), true, &dir.join("fleet"))
    })?;
    bench::check_same_csvs(&serial, &fleet)?;
    bench::check_same_csvs(&serial, &unjournaled)?;
    let missing = missing + bench::check_grid(&fleet, &grid)?;
    let replayed = log.time("stage.replay", || replay(plan, &prepared, &log))?;
    let total_s = wall.elapsed().as_secs_f64();

    let staged: f64 = STAGES.iter().map(|s| log.total(s).0).sum::<f64>() / 1e9;
    let span_s = |name| log.total(name).0 / 1e9;
    let in_calls = [
        "agents.modular.act",
        "agents.e2e.act",
        "core.simplex.act",
        "core.attacker.camera",
        "core.attacker.imu",
    ]
    .iter()
    .map(|n| span_s(n))
    .sum::<f64>();
    let step_rest_us = if replayed.steps == 0 {
        0.0
    } else {
        (span_s("sim.episode") - in_calls) / replayed.steps as f64 * 1e6
    };
    let f = fleet.fleet;
    let serial_step_frac = if fleet.steps == 0 {
        0.0
    } else {
        fleet.steps.saturating_sub(f.slot_steps) as f64 / fleet.steps as f64
    };
    let cpu_util = (serial.cpu + fleet.cpu) / ((serial.wall + fleet.wall) * jobs as f64);
    let bc_steps = plan
        .workload
        .victim_config(plan.seed, plan.size)
        .bc_steps
        .max(1);
    let metrics = vec![
        Metric::new(
            "agents.modular.act_us",
            log.mean("agents.modular.act", 1e3),
            "us",
        ),
        Metric::new("agents.e2e.act_us", log.mean("agents.e2e.act", 1e3), "us"),
        Metric::new(
            "core.simplex.act_us",
            log.mean("core.simplex.act", 1e3),
            "us",
        ),
        Metric::new(
            "core.attacker.camera_us",
            log.mean("core.attacker.camera", 1e3),
            "us",
        ),
        Metric::new(
            "core.attacker.imu_us",
            log.mean("core.attacker.imu", 1e3),
            "us",
        ),
        Metric::new("sim.step_rest_us", step_rest_us, "us"),
        Metric::new("sim.steps", serial.steps as f64, "count"),
        Metric::new(
            "sim.fleet.integrate_ns",
            f.integrate_ns_per_slot_step(),
            "ns",
        ),
        Metric::new("sim.fleet.control_ns", f.control_ns_per_slot_step(), "ns"),
        Metric::new("sim.fleet.outcome_ns", f.outcome_ns_per_slot_step(), "ns"),
        Metric::new("nn.fleet.infer_ns_per_row", f.infer_ns_per_row(), "ns"),
        Metric::new("sim.fleet.occupancy", f.occupancy(), "frac"),
        Metric::new("sim.fleet.slot_steps", f.slot_steps as f64, "count"),
        Metric::new("sim.fleet.serial_step_frac", serial_step_frac, "frac"),
        Metric::new("par.cpu_util", cpu_util, "frac"),
        Metric::new("journal.cells", serial.journal_cells as f64, "count"),
        Metric::new("journal.overhead_s", serial.wall - unjournaled.wall, "s"),
        Metric::new("engine.sink_ms", serial.sink * 1e3, "ms"),
        Metric::new("rl.demo_s", span_s("rl.demo"), "s"),
        Metric::new(
            "rl.bc_step_us",
            span_s("rl.bc") / bc_steps as f64 * 1e6,
            "us",
        ),
        Metric::new("rl.env_step_us", log.mean("rl.env_step", 1e3), "us"),
        Metric::new("rl.sac_update_ms", log.mean("rl.sac_update", 1e6), "ms"),
        Metric::new(
            "rl.replay_sample_us",
            log.mean("rl.replay_sample", 1e3),
            "us",
        ),
        Metric::new("rl.updates", train.updates as f64, "count"),
        Metric::new(
            "trace.overhead_frac",
            replayed.traced_s / replayed.untraced_s - 1.0,
            "frac",
        ),
        Metric::new("trace.unattributed_frac", 1.0 - staged / total_s, "frac"),
    ];
    let records = bench::records_dir(plan)?;
    log.write_csv(&records.join(format!(
        "spans-{}-seed{}.csv",
        plan.workload.name(),
        plan.seed
    )))
    .map_err(|e| format!("cannot write spans: {e}"))?;
    Ok(bench::Outcome {
        metrics,
        attempted: 2 * grid.episodes as u64 + train.updates,
        failed: missing as u64,
        jobs,
    })
}
