//! The untraced benchmark: set-up, the victim-training stage, and serial
//! and fleet runs of the workload's experiments through the engine, with
//! every correctness check the result depends on.
//!
//! The benchmark drives the program only through the entry points a
//! user's run goes through: `attack_core::pipeline::prepare`,
//! `repro_bench::engine::{Registry, RunContext, execute}` (CSV output and
//! a fresh journal, as `repro_bench --csv` sets them up), and the victim
//! stage of `prepare`. It sets only the knobs a user sets: the seed and
//! episode counts (`Scale`), the fleet size, and the output and journal
//! directories.

use crate::host;
use crate::workload::{Size, Workload};
use attack_core::pipeline::{prepare, Artifacts, PipelineConfig};
use drive_seed::fnv1a_64;
use drive_sim::perf::FleetCounters;
use repro_bench::{execute, JournalHandle, Registry, RunContext, Scale};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Slots of the lockstep fleet in fleet runs (`repro_bench --fleet 64`).
pub const FLEET_SLOTS: usize = 64;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// The victim checkpoint the training stage writes.
const VICTIM_CKPT: &str = "victim_e2e.ckpt";

/// Everything one benchmark run needs to know.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Root seed of every stochastic stream.
    pub seed: u64,
    /// Wall seconds the untraced run keeps measuring for.
    pub seconds: f64,
    /// Benchmark or smoke size.
    pub size: Size,
    /// Trained artifacts the run copies before preparing them.
    pub artifacts_src: PathBuf,
    /// Scratch directory of this run; emptied at the start.
    pub work_dir: PathBuf,
}

impl Plan {
    /// The evaluation scale of the plan.
    pub fn scale(&self) -> Scale {
        self.workload.scale(self.seed, self.size)
    }
}

/// A named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every metric of the run, in report order.
    pub metrics: Vec<Metric>,
    /// Episodes requested plus gradient updates attempted.
    pub attempted: u64,
    /// Episodes missing from the results plus updates that left
    /// non-finite weights.
    pub failed: u64,
    /// Worker threads of the engine's executor.
    pub jobs: usize,
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Removes `dir` and re-creates it empty, failing if anything survives.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let leftover = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .count();
    if leftover != 0 {
        return Err(format!("{} is not empty after clearing", dir.display()));
    }
    Ok(())
}

/// Copies every checkpoint of `src` into a fresh `dst`, except `skip`.
fn copy_artifacts(src: &Path, dst: &Path, skip: Option<&str>) -> Result<(), String> {
    fresh_dir(dst)?;
    let entries = std::fs::read_dir(src)
        .map_err(|e| format!("cannot read artifacts {}: {e}", src.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_file() && name.ends_with(".ckpt") && Some(name) != skip {
            std::fs::copy(&path, dst.join(name))
                .map_err(|e| format!("cannot copy {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// The checked-in artifact set must be complete: `prepare` would silently
/// train any missing stage, which is not what an evaluation run times.
pub fn check_artifacts(dir: &Path) -> Result<(), String> {
    for name in [
        VICTIM_CKPT,
        "attacker_camera.ckpt",
        "attacker_imu.ckpt",
        "adv_rho_1_11.ckpt",
        "adv_rho_1_2.ckpt",
        "pnn_defense.ckpt",
    ] {
        if !dir.join(name).is_file() {
            return Err(format!(
                "{} is missing; run the benchmark from the repository root",
                dir.join(name).display()
            ));
        }
    }
    Ok(())
}

/// The pipeline configuration of the evaluation artifacts.
pub fn eval_config(dir: PathBuf) -> PipelineConfig {
    PipelineConfig {
        dir,
        ..PipelineConfig::default()
    }
}

/// Loaded artifacts plus their configuration.
pub struct Prepared {
    /// The evaluation cast.
    pub artifacts: Artifacts,
    /// Their pipeline configuration.
    pub config: PipelineConfig,
}

/// Copies the artifacts into `<work>/artifacts` (untimed), then times one
/// set-up: `prepare` loading them, plus a run context and its journal.
pub fn setup_once(plan: &Plan) -> Result<(Prepared, f64), String> {
    let dir = plan.work_dir.join("artifacts");
    copy_artifacts(&plan.artifacts_src, &dir, None)?;
    let journal_dir = plan.work_dir.join("setup-journal");
    if journal_dir.exists() {
        std::fs::remove_dir_all(&journal_dir).map_err(|e| e.to_string())?;
    }
    let t = Instant::now();
    let config = eval_config(dir);
    let artifacts = prepare(&config);
    {
        let ctx = RunContext::new(&artifacts, &config, plan.scale());
        JournalHandle::create(&journal_dir, ctx.run_header())
            .map_err(|e| format!("cannot create journal: {e}"))?;
    }
    let secs = t.elapsed().as_secs_f64();
    Ok((Prepared { artifacts, config }, secs))
}

/// [`SETUP_REPS`] set-ups; returns the last one's artifacts and the
/// median set-up time.
pub fn setup(plan: &Plan) -> Result<(Prepared, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (prepared, secs) = setup_once(plan)?;
        times.push(secs);
        last = Some(prepared);
    }
    Ok((last.expect("SETUP_REPS > 0"), median(&times)))
}

/// Episodes in a harness cell label (`...|<n>ep|...`).
fn label_episodes(label: &str) -> Option<usize> {
    label
        .split('|')
        .find_map(|f| f.strip_suffix("ep").and_then(|n| n.parse().ok()))
}

/// The cells the workload's experiments request.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Cell labels in request order.
    pub labels: Vec<String>,
    /// Episodes requested across all cells.
    pub episodes: usize,
}

/// Enumerates the workload's grid without simulating it, through the
/// engine's missing-cells probe (every cell records its label and yields
/// placeholder episodes). A label requested twice would replay from the
/// journal inside one run, so the grid must not contain one.
pub fn probe_grid(plan: &Plan, prepared: &Prepared) -> Result<Grid, String> {
    let mut ctx = RunContext::new(&prepared.artifacts, &prepared.config, plan.scale());
    let missing = Arc::new(Mutex::new(Vec::new()));
    ctx.missing_cells = Some(missing.clone());
    for name in plan.workload.experiments() {
        let exp = Registry::find(name).ok_or_else(|| format!("unknown experiment {name}"))?;
        ctx.executor.run(|| exp.run(&ctx));
    }
    let labels = std::mem::take(&mut *missing.lock().expect("probe lock"));
    let mut episodes = 0;
    for label in &labels {
        episodes +=
            label_episodes(label).ok_or_else(|| format!("unparseable cell label {label}"))?;
    }
    let distinct: std::collections::HashSet<&String> = labels.iter().collect();
    if distinct.len() != labels.len() || labels.is_empty() {
        return Err(format!(
            "grid of {} has {} cells but {} distinct labels",
            plan.workload.name(),
            labels.len(),
            distinct.len()
        ));
    }
    Ok(Grid { labels, episodes })
}

/// One run of the workload's experiments through `engine::execute`.
#[derive(Debug, Clone)]
pub struct EvalRun {
    /// Wall seconds of all `execute` calls (CSV, manifest and journal
    /// writes included).
    pub wall: f64,
    /// Wall seconds of `execute` outside the experiments' own run: output
    /// sinks and manifests.
    pub sink: f64,
    /// Episodes of journaled (complete, clean) cells.
    pub episodes_done: usize,
    /// Cells in the journal.
    pub journal_cells: usize,
    /// Control steps simulated.
    pub steps: u64,
    /// Fleet counter deltas.
    pub fleet: FleetCounters,
    /// Process CPU seconds spent.
    pub cpu: f64,
    /// `(file, bytes)` of every CSV the manifests list, sorted by file.
    pub csvs: Vec<(String, Vec<u8>)>,
}

/// Episodes per journaled cell, from the journal's `progress.csv`.
fn journaled_episodes(journal_dir: &Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(journal_dir.join("progress.csv"))
        .map_err(|e| format!("cannot read journal progress: {e}"))?;
    let mut total = 0;
    for line in text.lines().skip(1).filter(|l| l.starts_with("cell,")) {
        let mut fields = line.rsplitn(3, ',');
        let _digest = fields.next();
        total += fields
            .next()
            .and_then(|n| n.parse::<usize>().ok())
            .ok_or_else(|| format!("bad progress row {line}"))?;
    }
    Ok(total)
}

/// Runs the workload's experiments once from an empty output directory:
/// serially (`fleet == None`) or through the lockstep fleet, with or
/// without a fresh journal. Every manifest must verify.
pub fn eval_run(
    plan: &Plan,
    prepared: &Prepared,
    fleet: Option<usize>,
    journal: bool,
    out_dir: &Path,
) -> Result<EvalRun, String> {
    fresh_dir(out_dir)?;
    let mut ctx = RunContext::new(&prepared.artifacts, &prepared.config, plan.scale());
    ctx.csv_dir = Some(out_dir.to_path_buf());
    ctx.fleet = fleet;
    let journal_dir = out_dir.join("journal");
    if journal {
        let handle = JournalHandle::create(&journal_dir, ctx.run_header())
            .map_err(|e| format!("cannot create journal: {e}"))?;
        if handle.cell_count() != 0 {
            return Err("fresh journal already holds cells".into());
        }
        ctx.journal = Some(Arc::new(handle));
    }
    let steps0 = drive_sim::perf::steps();
    let fleet0 = drive_sim::perf::fleet();
    let cpu0 = host::cpu_secs();
    let t0 = Instant::now();
    let mut sink = 0.0;
    let mut manifests = Vec::new();
    for name in plan.workload.experiments() {
        let exp = Registry::find(name).ok_or_else(|| format!("unknown experiment {name}"))?;
        let t = Instant::now();
        let run = execute(exp, &ctx).map_err(|e| format!("{name}: output error: {e}"))?;
        sink += (t.elapsed().as_secs_f64() - run.sample.wall_secs).max(0.0);
        manifests.push(run.manifest.ok_or_else(|| format!("{name}: no manifest"))?);
    }
    let wall = t0.elapsed().as_secs_f64();
    let cpu = host::cpu_secs() - cpu0;
    let steps = drive_sim::perf::steps() - steps0;
    let fleet_delta = drive_sim::perf::fleet().since(&fleet0);
    let journal_cells = ctx.journal.as_ref().map_or(0, |j| j.cell_count());
    drop(ctx);

    let mut csvs = Vec::new();
    for m in &manifests {
        m.verify(out_dir).map_err(|problems| {
            format!(
                "manifest {} fails verification: {}",
                m.experiment,
                problems.join("; ")
            )
        })?;
        for entry in m.outputs.iter().filter(|o| o.file.ends_with(".csv")) {
            let bytes = std::fs::read(out_dir.join(&entry.file)).map_err(|e| e.to_string())?;
            csvs.push((entry.file.clone(), bytes));
        }
    }
    csvs.sort();
    let episodes_done = if journal {
        journaled_episodes(&journal_dir)?
    } else {
        0
    };
    Ok(EvalRun {
        wall,
        sink,
        episodes_done,
        journal_cells,
        steps,
        fleet: fleet_delta,
        cpu,
        csvs,
    })
}

/// The serial and fleet runs of one seed must write byte-identical CSVs.
pub fn check_same_csvs(serial: &EvalRun, fleet: &EvalRun) -> Result<(), String> {
    let names = |r: &EvalRun| r.csvs.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    if names(serial) != names(fleet) {
        return Err(format!(
            "serial and fleet runs wrote different CSV sets: {:?} vs {:?}",
            names(serial),
            names(fleet)
        ));
    }
    for ((name, a), (_, b)) in serial.csvs.iter().zip(&fleet.csvs) {
        if a != b {
            return Err(format!("{name}: fleet CSV differs from the serial CSV"));
        }
    }
    Ok(())
}

/// Checks a journaled run against the probed grid: every requested cell
/// computed once and journaled, no cell replayed. Returns the episodes
/// missing from the results.
pub fn check_grid(run: &EvalRun, grid: &Grid) -> Result<usize, String> {
    if run.journal_cells > grid.labels.len() {
        return Err(format!(
            "journal holds {} cells for a grid of {}",
            run.journal_cells,
            grid.labels.len()
        ));
    }
    Ok(grid.episodes.saturating_sub(run.episodes_done))
}

/// One victim-stage training run.
#[derive(Debug, Clone)]
pub struct TrainRun {
    /// Wall seconds of `prepare` training the victim stage.
    pub secs: f64,
    /// Gradient updates performed: behaviour cloning plus SAC.
    pub updates: u64,
    /// FNV-1a checksum of the saved victim checkpoint.
    pub checksum: u64,
    /// Whether every weight in the checkpoint is finite.
    pub finite: bool,
}

/// Whether every number in a checkpoint text is finite.
pub fn all_finite(text: &str) -> bool {
    text.split_whitespace()
        .filter_map(|t| t.parse::<f64>().ok())
        .all(f64::is_finite)
}

/// The victim stage of `prepare` in a fresh artifact directory: every
/// other stage's checkpoint is present, the victim's is not, so `prepare`
/// trains exactly the victim at the workload's fixed budget.
pub fn train_once(plan: &Plan, dir: &Path) -> Result<TrainRun, String> {
    copy_artifacts(&plan.artifacts_src, dir, Some(VICTIM_CKPT))?;
    let config = PipelineConfig {
        dir: dir.to_path_buf(),
        victim: plan.workload.victim_config(plan.seed, plan.size),
        ..PipelineConfig::default()
    };
    let updates0 = drive_rl::perf::updates();
    let t = Instant::now();
    let _ = prepare(&config);
    let secs = t.elapsed().as_secs_f64();
    let updates = drive_rl::perf::updates() - updates0;
    let bytes = std::fs::read(dir.join(VICTIM_CKPT))
        .map_err(|e| format!("training wrote no {VICTIM_CKPT}: {e}"))?;
    let finite = all_finite(&String::from_utf8_lossy(&bytes));
    Ok(TrainRun {
        secs,
        updates,
        checksum: fnv1a_64(&bytes),
        finite,
    })
}

/// The victim checksum must be the same on every run at one seed: within
/// a run, and against the checksum an earlier run in this checkout
/// recorded under `record`.
pub fn check_checksum(record: &Path, runs: &[TrainRun]) -> Result<(), String> {
    let first = runs.first().ok_or("no training run")?.checksum;
    if let Some(other) = runs.iter().find(|r| r.checksum != first) {
        return Err(format!(
            "victim checkpoint checksum changed within a run: {first:016x} vs {:016x}",
            other.checksum
        ));
    }
    match std::fs::read_to_string(record) {
        Ok(text) if text.trim() != format!("{first:016x}") => Err(format!(
            "victim checkpoint checksum {first:016x} differs from the {} recorded at {}",
            text.trim(),
            record.display()
        )),
        Ok(_) => Ok(()),
        Err(_) => std::fs::write(record, format!("{first:016x}\n"))
            .map_err(|e| format!("cannot record checksum: {e}")),
    }
}

/// Where the run keeps its records (checksums, traces, results).
pub fn records_dir(plan: &Plan) -> Result<PathBuf, String> {
    let dir = plan
        .work_dir
        .parent()
        .unwrap_or(&plan.work_dir)
        .join("records");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The checksum record of this plan's training stage, keyed by the full
/// training configuration (seed included).
pub fn checksum_record(plan: &Plan) -> Result<PathBuf, String> {
    let config = plan.workload.victim_config(plan.seed, plan.size);
    Ok(records_dir(plan)?.join(format!(
        "victim-{:016x}.fnv",
        fnv1a_64(format!("{config:?}").as_bytes())
    )))
}

/// Minimum wall seconds of one throughput sample: a grid whose fleet run
/// takes a fifth of a second is run back to back until a sample is this
/// long, so one sample is not one scheduler hiccup.
const MIN_SAMPLE_S: f64 = 1.0;

/// One throughput sample: the workload's experiments run back to back,
/// each time from an empty directory, until [`MIN_SAMPLE_S`] have passed.
struct Sample {
    /// Completed episodes over the runs' total wall seconds.
    rate: f64,
    /// The first run, for comparing CSVs across engines.
    first: EvalRun,
    /// Episodes requested.
    attempted: u64,
    /// Episodes missing from the results.
    failed: u64,
}

fn sample(
    plan: &Plan,
    prepared: &Prepared,
    grid: &Grid,
    fleet: Option<usize>,
) -> Result<Sample, String> {
    let dir = plan
        .work_dir
        .join(if fleet.is_some() { "fleet" } else { "serial" });
    let (mut episodes, mut wall, mut attempted, mut failed) = (0, 0.0, 0, 0);
    let mut first: Option<EvalRun> = None;
    while first.is_none() || wall < MIN_SAMPLE_S {
        let run = eval_run(plan, prepared, fleet, true, &dir)?;
        attempted += grid.episodes as u64;
        failed += check_grid(&run, grid)? as u64;
        episodes += run.episodes_done;
        wall += run.wall;
        match &first {
            Some(f) => check_same_csvs(f, &run)?,
            None => first = Some(run),
        }
    }
    Ok(Sample {
        rate: episodes as f64 / wall,
        first: first.expect("at least one run"),
        attempted,
        failed,
    })
}

/// The untraced run: median set-up time, then cycles of (victim training,
/// serial sample, fleet sample) until `plan.seconds` have passed,
/// reporting medians over the cycles.
pub fn run_untraced(plan: &Plan) -> Result<Outcome, String> {
    fresh_dir(&plan.work_dir)?;
    let (prepared, setup_s) = setup(plan)?;
    let grid = probe_grid(plan, &prepared)?;
    let jobs = drive_par::Executor::current().jobs();

    let mut trains = Vec::new();
    let mut serial_rates = Vec::new();
    let mut fleet_rates = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while trains.is_empty() || start.elapsed().as_secs_f64() < plan.seconds {
        let train = train_once(plan, &plan.work_dir.join("train"))?;
        attempted += train.updates;
        if !train.finite {
            failed += train.updates.max(1);
        }
        let train_secs = train.secs;
        trains.push(train);

        let serial = sample(plan, &prepared, &grid, None)?;
        let fleet = sample(plan, &prepared, &grid, Some(FLEET_SLOTS))?;
        check_same_csvs(&serial.first, &fleet.first)?;
        attempted += serial.attempted + fleet.attempted;
        failed += serial.failed + fleet.failed;
        serial_rates.push(serial.rate);
        fleet_rates.push(fleet.rate);
        eprintln!(
            "[perfbench] cycle {}: train {train_secs:.3}s, serial {:.1} episodes/s, fleet {:.1} episodes/s",
            trains.len(),
            serial.rate,
            fleet.rate
        );
    }
    check_checksum(&checksum_record(plan)?, &trains)?;
    let train_secs: Vec<f64> = trains.iter().map(|t| t.secs).collect();
    let metrics = vec![
        Metric::new("episodes_per_s", median(&serial_rates), "1/s"),
        Metric::new("fleet_episodes_per_s", median(&fleet_rates), "1/s"),
        Metric::new("train_s", median(&train_secs), "s"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", host::peak_rss_mb(), "MiB"),
    ];
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        jobs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn labels_carry_episode_counts() {
        assert_eq!(
            label_episodes("root/fig4/camera/eps0.25|pi_ori|camera|eps=0.25|30ep"),
            Some(30)
        );
        assert_eq!(
            label_episodes("root/x|pi_ori|none|eps=0|5ep|scn=00ff|flt=0a"),
            Some(5)
        );
        assert_eq!(label_episodes("no episodes here"), None);
    }

    #[test]
    fn finiteness_scan() {
        assert!(all_finite("policy 2\nlinear 2 1\n0.5 -1.25\n"));
        assert!(!all_finite("linear 2 1\n0.5 NaN\n"));
        assert!(!all_finite("linear 2 1\ninf 0.5\n"));
    }
}
