//! `perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]`
//!
//! Run from the repository root. Prints a run line (host, seed, failed
//! share) and, as the last line, the result JSON. Exits 0 when every
//! correctness check passed, 1 when one failed or the run could not start,
//! 2 on bad arguments.

use perfbench::bench::{check_artifacts, run_untraced, Plan};
use perfbench::host::Host;
use perfbench::report::{check_metrics, result_json, run_json, usage, Args};
use perfbench::trace::run_traced;
use perfbench::workload::Size;
use std::path::PathBuf;

/// Scratch root, relative to the repository root the benchmark runs in.
const WORK_ROOT: &str = ".perfbench_work";

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let artifacts_src = PathBuf::from("artifacts");
    if let Err(e) = check_artifacts(&artifacts_src) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let work_root = PathBuf::from(WORK_ROOT);
    let plan = Plan {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        size: Size::Full,
        artifacts_src,
        work_dir: work_root.join(format!("run-{}", std::process::id())),
    };
    let host = Host::detect();
    let result = if args.trace {
        run_traced(&plan)
    } else {
        run_untraced(&plan)
    }
    .and_then(|outcome| check_metrics(&outcome.metrics, args.trace).map(|()| outcome));
    // The scratch copies are large; the records next to them stay.
    let _ = std::fs::remove_dir_all(&plan.work_dir);
    match result {
        Ok(outcome) => {
            let run = run_json(&args, &host, &outcome);
            let line = result_json(true, &outcome);
            let record = work_root.join("records").join(format!(
                "result-{}-seed{}-trace{}.json",
                args.workload.name(),
                args.seed,
                u8::from(args.trace)
            ));
            if let Err(e) = std::fs::write(&record, format!("{run}\n{line}\n")) {
                eprintln!("perfbench: cannot write {}: {e}", record.display());
            }
            println!("{run}");
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: correctness check failed: {e}");
            std::process::exit(1);
        }
    }
}
