//! Open-loop load generator for the threaded serving layer.
//!
//! The generator fires logical requests at a fixed wall-clock rate —
//! open-loop, so a slow server does not slow the arrival process down —
//! and hands each tick to a pool of client threads that grows on
//! backpressure: when a tick fires and every client is busy, a new client
//! is spawned (up to a cap) instead of the tick queueing behind in-flight
//! work. Clients retry backpressure sheds through
//! [`crate::retry`] with jittered exponential backoff, tally every
//! attempt, and the run ends with a three-way reconciliation: the
//! server's own counters, the summed per-attempt client tallies, and the
//! logical (post-retry) accounting must all balance.

use crate::retry::{self, Attempt, Exhausted, RetryPolicy};
use drive_metrics::histo::LatencyHistogram;
use drive_nn::gaussian::GaussianPolicy;
use drive_serve::config::ServeConfig;
use drive_serve::faults::FaultPlan;
use drive_serve::pipeline::STEER_FEATURE;
use drive_serve::report::ServeReport;
use drive_serve::request::{Counters, OutcomeKind};
use drive_serve::server::{Server, ServerHandle};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Load-generator shape: rate, volume, retry policy, and pool bounds.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Target logical request rate, requests per second.
    pub qps: u64,
    /// Total logical requests to fire.
    pub requests: u64,
    /// Seed for observation synthesis and retry jitter.
    pub seed: u64,
    /// Dimension of the synthesized observation frames (must exceed
    /// [`STEER_FEATURE`]).
    pub obs_dim: usize,
    /// Client retry policy for backpressure sheds.
    pub retry: RetryPolicy,
    /// Upper bound on the spawn-on-backpressure client pool.
    pub max_clients: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            qps: 500,
            requests: 200,
            seed: 42,
            obs_dim: 6,
            retry: RetryPolicy::attempts(3).with_backoff(
                Duration::from_micros(200),
                Duration::from_millis(2),
                0.5,
            ),
            max_clients: 32,
        }
    }
}

/// How a logical request (one tick, retries included) finally resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogicalStats {
    /// Answered by the full pipeline.
    pub served: u64,
    /// Answered by a degraded rung.
    pub degraded: u64,
    /// Expired in the queue (not retried — the answer window is gone).
    pub timed_out: u64,
    /// Still shed after every retry attempt.
    pub gave_up: u64,
}

impl LogicalStats {
    /// Requests that got an actuation back.
    pub fn answered(&self) -> u64 {
        self.served + self.degraded
    }

    /// All logical resolutions.
    pub fn total(&self) -> u64 {
        self.served + self.degraded + self.timed_out + self.gave_up
    }
}

/// Everything one load-generator run produces.
#[derive(Debug)]
pub struct LoadgenReport {
    /// The server's own end-of-run report (reconciled at drain).
    pub server: ServeReport,
    /// Per-attempt client tallies, summed — must equal the server's
    /// counters field for field.
    pub client_attempts: Counters,
    /// Client-observed enqueue-to-answer latency, µs.
    pub client_latency: LatencyHistogram,
    /// Logical (post-retry) request accounting.
    pub logical: LogicalStats,
    /// Attempts beyond the first, across all logical requests.
    pub retried_attempts: u64,
    /// Clients the pool grew to under backpressure.
    pub clients_spawned: usize,
    /// Wall-clock span from first tick to last resolution, µs.
    pub wall_us: u64,
}

impl LoadgenReport {
    /// Achieved logical request rate over the run's wall clock.
    pub fn achieved_qps(&self) -> u64 {
        if self.wall_us == 0 {
            return 0;
        }
        self.logical.total() * 1_000_000 / self.wall_us
    }

    /// Cross-checks the three ledgers: the server reconciles internally,
    /// the summed per-attempt client tallies equal the server's counters,
    /// and every logical request resolved exactly once.
    ///
    /// # Errors
    ///
    /// Describes the first imbalance found.
    pub fn reconcile(&self, expected_requests: u64) -> Result<(), String> {
        self.server.counters.reconcile()?;
        if self.client_attempts != self.server.counters {
            return Err(format!(
                "client attempt tallies diverge from server counters\n  clients: {}\n  server:  {}",
                self.client_attempts, self.server.counters
            ));
        }
        if self.logical.total() != expected_requests {
            return Err(format!(
                "logical accounting broken: {} resolutions for {} requests",
                self.logical.total(),
                expected_requests
            ));
        }
        Ok(())
    }

    /// Human-readable multi-line summary (wall-clock numbers included, so
    /// not byte-stable across runs — use the simulator for that).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "loadgen: logical served={} degraded={} timed_out={} gave_up={} \
             retried_attempts={} clients={} achieved_qps={}\n",
            self.logical.served,
            self.logical.degraded,
            self.logical.timed_out,
            self.logical.gave_up,
            self.retried_attempts,
            self.clients_spawned,
            self.achieved_qps(),
        ));
        out.push_str(&format!("client latency_us: {}\n", self.client_latency));
        out.push_str(&self.server.render());
        out
    }
}

/// Synthesizes a deterministic observation frame for tick `i`: small
/// seeded noise everywhere, a near-zero steering readback at
/// [`STEER_FEATURE`] so clean runs keep the detector quiet.
pub fn synth_obs(seed: u64, i: u64, obs_dim: usize) -> Vec<f32> {
    (0..obs_dim as u64)
        .map(|j| {
            let x = drive_seed::splitmix64(seed.wrapping_add(i * obs_dim as u64 + j));
            let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
            if j == STEER_FEATURE as u64 {
                ((unit - 0.5) * 0.02) as f32
            } else {
                ((unit - 0.5) * 0.8) as f32
            }
        })
        .collect()
}

/// What one client thread accumulated.
#[derive(Debug, Default)]
struct ClientLedger {
    attempts: Counters,
    latency: LatencyHistogram,
    logical: LogicalStats,
    retried: u64,
}

/// One logical request: attempts through the retry policy, tallying every
/// attempt, until an answer/timeout or the policy is exhausted.
fn drive_ticket(
    handle: &ServerHandle,
    ledger: &mut ClientLedger,
    policy: &RetryPolicy,
    seed: u64,
    ticket: u64,
    obs_dim: usize,
) {
    let result = retry::run(policy, seed.wrapping_add(ticket), |attempt| {
        if attempt > 0 {
            ledger.retried += 1;
        }
        ledger.attempts.submitted += 1;
        let outcome = handle.request(synth_obs(seed, ticket, obs_dim));
        ledger.attempts.record(&outcome);
        if let Some(latency) = outcome.latency_us() {
            ledger.latency.record(latency);
        }
        match outcome.kind() {
            // Backpressure is retryable; anything else is final. A timeout
            // is not retried: the response window the caller cared about
            // is already gone.
            OutcomeKind::Shed => Err(outcome),
            _ => Ok(outcome),
        }
    });
    match result {
        Ok(Attempt { value, .. }) => match value.kind() {
            OutcomeKind::Served => ledger.logical.served += 1,
            OutcomeKind::Degraded => ledger.logical.degraded += 1,
            OutcomeKind::TimedOut => ledger.logical.timed_out += 1,
            OutcomeKind::Shed => unreachable!("sheds are retried or exhausted"),
        },
        Err(Exhausted { .. }) => ledger.logical.gave_up += 1,
    }
}

/// Spawns one client thread draining tickets until the channel closes.
fn spawn_client(
    rx: Arc<Mutex<Receiver<u64>>>,
    handle: ServerHandle,
    idle: Arc<AtomicUsize>,
    config: LoadgenConfig,
) -> JoinHandle<ClientLedger> {
    std::thread::spawn(move || {
        let mut ledger = ClientLedger::default();
        loop {
            idle.fetch_add(1, Ordering::SeqCst);
            // Hold the receiver lock only for the blocking take, so other
            // idle clients can wait alongside.
            let ticket = {
                let guard = rx.lock().expect("ticket receiver");
                guard.recv()
            };
            idle.fetch_sub(1, Ordering::SeqCst);
            let Ok(ticket) = ticket else { break };
            drive_ticket(
                &handle,
                &mut ledger,
                &config.retry,
                config.seed,
                ticket,
                config.obs_dim,
            );
        }
        ledger
    })
}

/// Runs the open-loop generator against a freshly started threaded server
/// and returns the merged, reconcilable report.
///
/// # Panics
///
/// Panics on an invalid [`ServeConfig`], a `qps` of zero, or an `obs_dim`
/// without the steering-readback feature.
pub fn run_loadgen(
    policy: Arc<GaussianPolicy>,
    serve: ServeConfig,
    plan: FaultPlan,
    config: &LoadgenConfig,
) -> LoadgenReport {
    assert!(config.qps > 0, "loadgen qps must be positive");
    assert!(
        config.obs_dim > STEER_FEATURE && config.obs_dim == policy.obs_dim(),
        "loadgen obs_dim must match the policy and carry the steer feature"
    );
    assert!(
        config.max_clients >= 1,
        "the pool needs at least one client"
    );
    let server = Server::start(policy, serve, plan);

    let (tx, rx): (Sender<u64>, Receiver<u64>) = channel();
    let rx = Arc::new(Mutex::new(rx));
    let idle = Arc::new(AtomicUsize::new(0));
    let mut clients = vec![spawn_client(
        rx.clone(),
        server.handle(),
        idle.clone(),
        config.clone(),
    )];

    // Open-loop firing: tick i is due at `epoch + i * gap` regardless of
    // how the server is keeping up.
    let gap = Duration::from_micros(1_000_000 / config.qps.max(1));
    let epoch = Instant::now();
    for i in 0..config.requests {
        let due = epoch + gap * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        // Spawn-on-backpressure: every client busy means this tick would
        // queue behind in-flight work — grow the pool instead, up to the
        // cap (past it, ticks queue; the server sheds if they pile up).
        if idle.load(Ordering::SeqCst) == 0 && clients.len() < config.max_clients {
            clients.push(spawn_client(
                rx.clone(),
                server.handle(),
                idle.clone(),
                config.clone(),
            ));
        }
        tx.send(i).expect("a client pool outlives the dispatcher");
    }
    drop(tx); // closes the channel: clients drain and exit

    let clients_spawned = clients.len();
    let mut client_attempts = Counters::default();
    let mut client_latency = LatencyHistogram::new();
    let mut logical = LogicalStats::default();
    let mut retried_attempts = 0;
    for client in clients {
        let ledger = client.join().expect("client thread");
        client_attempts.merge(&ledger.attempts);
        client_latency.merge(&ledger.latency);
        logical.served += ledger.logical.served;
        logical.degraded += ledger.logical.degraded;
        logical.timed_out += ledger.logical.timed_out;
        logical.gave_up += ledger.logical.gave_up;
        retried_attempts += ledger.retried;
    }
    let wall_us = epoch.elapsed().as_micros() as u64;

    LoadgenReport {
        server: server.shutdown(),
        client_attempts,
        client_latency,
        logical,
        retried_attempts,
        clients_spawned,
        wall_us,
    }
}

/// Sweeps candidate rates (ascending) against real servers and returns the
/// highest one meeting the SLO: client p99 within `slo_p99_us`, nothing
/// given up, nothing timed out. Wall-clock, so indicative rather than
/// reproducible — the deterministic twin is
/// [`drive_serve::sim::max_qps_at_slo`].
pub fn find_max_qps(
    policy: &Arc<GaussianPolicy>,
    serve: &ServeConfig,
    base: &LoadgenConfig,
    slo_p99_us: u64,
    candidates: &[u64],
) -> Option<u64> {
    let mut best = None;
    for &qps in candidates {
        let config = LoadgenConfig {
            qps,
            ..base.clone()
        };
        let plan = FaultPlan::none(serve.workers);
        let report = run_loadgen(policy.clone(), serve.clone(), plan, &config);
        if report.reconcile(config.requests).is_ok()
            && report.client_latency.p99() <= slo_p99_us
            && report.logical.gave_up == 0
            && report.logical.timed_out == 0
            && best.is_none_or(|b| qps > b)
        {
            best = Some(qps);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive_serve::faults::FaultPlanConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn policy(obs_dim: usize) -> Arc<GaussianPolicy> {
        let mut rng = StdRng::seed_from_u64(23);
        Arc::new(GaussianPolicy::new(obs_dim, &[16], 2, &mut rng))
    }

    #[test]
    fn light_load_reconciles_and_answers_everything() {
        let config = LoadgenConfig {
            qps: 2_000,
            requests: 100,
            ..LoadgenConfig::default()
        };
        let serve = ServeConfig::default();
        let report = run_loadgen(
            policy(config.obs_dim),
            serve.clone(),
            FaultPlan::none(serve.workers),
            &config,
        );
        report.reconcile(config.requests).expect("books balance");
        assert_eq!(
            report.logical.answered(),
            config.requests,
            "{}",
            report.render()
        );
        assert_eq!(report.logical.gave_up, 0);
        assert!(report.client_latency.count() > 0);
    }

    #[test]
    fn backpressure_grows_the_pool_and_retries_are_counted() {
        // A tiny queue and a single slow-ish worker under a hot rate: the
        // pool must grow past one client, and any sheds must be retried
        // and still reconcile across all three ledgers.
        let serve = ServeConfig {
            workers: 1,
            queue_capacity: 4,
            max_batch: 2,
            batch_window_us: 2_000,
            deadline_us: 30_000,
            ..ServeConfig::default()
        };
        let config = LoadgenConfig {
            qps: 20_000,
            requests: 300,
            max_clients: 16,
            ..LoadgenConfig::default()
        };
        let report = run_loadgen(
            policy(config.obs_dim),
            serve.clone(),
            FaultPlan::none(serve.workers),
            &config,
        );
        report.reconcile(config.requests).expect("books balance");
        assert!(
            report.clients_spawned > 1,
            "a saturating open-loop rate must grow the pool: {}",
            report.render()
        );
        // Retry accounting: total attempts = logical requests + retries.
        assert_eq!(
            report.client_attempts.submitted,
            config.requests + report.retried_attempts,
            "{}",
            report.render()
        );
    }

    #[test]
    fn faults_do_not_break_the_books() {
        let serve = ServeConfig {
            workers: 2,
            queue_capacity: 16,
            max_batch: 4,
            batch_window_us: 1_000,
            deadline_us: 30_000,
            ..ServeConfig::default()
        };
        let plan = FaultPlan::seeded(
            9,
            serve.workers,
            200_000,
            &FaultPlanConfig {
                kills: 1,
                stalls: 1,
                stall_us: 10_000,
                corrupt_rate: 0.1,
            },
        );
        let config = LoadgenConfig {
            qps: 4_000,
            requests: 200,
            ..LoadgenConfig::default()
        };
        let report = run_loadgen(policy(config.obs_dim), serve, plan, &config);
        report.reconcile(config.requests).expect("books balance");
        assert!(
            report.logical.answered() > 0,
            "the service keeps answering through faults: {}",
            report.render()
        );
    }

    #[test]
    fn synth_obs_is_deterministic_and_shaped() {
        let a = synth_obs(42, 7, 6);
        let b = synth_obs(42, 7, 6);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        assert!(
            a[STEER_FEATURE].abs() <= 0.01,
            "steer readback stays near zero"
        );
        assert_ne!(synth_obs(43, 7, 6), a, "seed matters");
    }

    #[test]
    fn qps_sweep_accepts_a_gentle_rate() {
        let base = LoadgenConfig {
            requests: 40,
            ..LoadgenConfig::default()
        };
        let serve = ServeConfig::default();
        let best = find_max_qps(&policy(base.obs_dim), &serve, &base, 2_000_000, &[200]);
        assert_eq!(best, Some(200));
    }
}
