//! Command-line arguments and the printed result.

use crate::bench::{Metric, Outcome};
use crate::host::Host;
use crate::workload::Workload;

/// Seed when `--seed` is not given (the paper-scale CLI's seed).
pub const DEFAULT_SEED: u64 = 10_000;

/// `(name, unit)` of every end-to-end metric, in report order (the
/// `end_to_end` list of `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("episodes_per_s", "1/s"),
    ("fleet_episodes_per_s", "1/s"),
    ("train_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric of a traced run, in report
/// order (the `per_layer` list of `BENCHMARK.json`).
pub const PER_LAYER: [(&str, &str); 26] = [
    ("agents.modular.act_us", "us"),
    ("agents.e2e.act_us", "us"),
    ("core.simplex.act_us", "us"),
    ("core.attacker.camera_us", "us"),
    ("core.attacker.imu_us", "us"),
    ("sim.step_rest_us", "us"),
    ("sim.steps", "count"),
    ("sim.fleet.integrate_ns", "ns"),
    ("sim.fleet.control_ns", "ns"),
    ("sim.fleet.outcome_ns", "ns"),
    ("nn.fleet.infer_ns_per_row", "ns"),
    ("sim.fleet.occupancy", "frac"),
    ("sim.fleet.slot_steps", "count"),
    ("sim.fleet.serial_step_frac", "frac"),
    ("par.cpu_util", "frac"),
    ("journal.cells", "count"),
    ("journal.overhead_s", "s"),
    ("engine.sink_ms", "ms"),
    ("rl.demo_s", "s"),
    ("rl.bc_step_us", "us"),
    ("rl.env_step_us", "us"),
    ("rl.sac_update_ms", "ms"),
    ("rl.replay_sample_us", "us"),
    ("rl.updates", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
];

/// Checks that a run reports exactly the expected metrics, in order, with
/// their units and finite values (end-to-end values must also be
/// positive: the benchmark's gate compares them as ratios).
///
/// # Errors
///
/// A message naming the first mismatch.
pub fn check_metrics(metrics: &[Metric], trace: bool) -> Result<(), String> {
    let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let got: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    if got != expected {
        return Err(format!("metrics {got:?} differ from {expected:?}"));
    }
    match metrics
        .iter()
        .find(|m| !m.value.is_finite() || (!trace && m.value <= 0.0))
    {
        Some(m) => Err(format!("metric {} has value {}", m.name, m.value)),
        None => Ok(()),
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload <name>`.
    pub workload: Workload,
    /// `--seed <n>`.
    pub seed: u64,
    /// `--seconds <n>`.
    pub seconds: f64,
    /// `--trace <0|1>`.
    pub trace: bool,
}

/// The usage line.
pub fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <n>] [--trace <0|1>]",
        names.join("|")
    )
}

impl Args {
    /// Parses `--flag value` pairs.
    ///
    /// # Errors
    ///
    /// A message naming the bad or missing argument.
    pub fn parse(raw: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds: f64 = 10.0;
        let mut trace = false;
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad())?;
                    if seconds.is_nan() || seconds <= 0.0 {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    trace = match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with every digit Rust's shortest round-trip form gives.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m: &Metric| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The run line printed before the result: what ran, where, and the
/// failed share of attempted operations.
pub fn run_json(args: &Args, host: &Host, outcome: &Outcome) -> String {
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"jobs\": {}, \"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"failed_frac\": {}}}",
        quote(args.workload.name()),
        args.seed,
        number(args.seconds),
        u8::from(args.trace),
        outcome.jobs,
        host.nproc,
        quote(&host.cpu_model),
        quote(&host.rustc),
        number(failed_frac)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        Args::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "mixed-agents",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::MixedAgents);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let d = args(&["--workload", "victim-train"]).unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "freeway-e2e", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "freeway-e2e", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "freeway-e2e", "--bogus", "1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            metrics: vec![Metric::new("setup_s", 0.8127, "s")],
            attempted: 10,
            failed: 0,
            jobs: 2,
        };
        assert_eq!(
            result_json(true, &outcome),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
