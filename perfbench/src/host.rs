//! Host fingerprint and process-wide resource readings.
//!
//! Every result records the host it came from (CPU model, `rustc`
//! version, worker threads) so results from different machines are never
//! compared silently. CPU time and peak resident memory come from the
//! Linux `/proc` files of this process.

use std::process::Command;

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux target).
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// Where a result was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// Output of `rustc --version`.
    pub rustc: String,
}

impl Host {
    /// Reads the fingerprint of the machine this process runs on.
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        // `output()` waits for the child, so no process outlives the call.
        let rustc = Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            cpu_model,
            nproc,
            rustc,
        }
    }
}

/// User plus system CPU seconds of the whole process, exited threads
/// included.
pub fn cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are space-separated, utime/stime are 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_SEC
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive() {
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        assert!(x != 1);
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_secs() >= 0.0);
        let host = Host::detect();
        assert!(host.nproc >= 1);
        assert!(!host.cpu_model.is_empty());
    }
}
