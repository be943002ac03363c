//! The host fingerprint recorded with every report, and the process's peak
//! resident set.

use crate::stats::quote;
use chehab_fhe::SimdPolicy;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|line| line.starts_with(key))
        .and_then(|line| line.split_once(':'))
        .map(|(_, value)| value.trim().to_string())
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|value| value.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU model, core count, SIMD policy, compiler and commit as a JSON object.
/// The commit is `unknown` outside a git checkout (the driver's copy is one).
pub fn fingerprint_json() -> String {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "{{\"cpu_model\": {}, \"nproc\": {nproc}, \"simd_policy\": {}, \"rustc\": {}, \"commit\": {}}}",
        quote(&proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown)),
        quote(SimdPolicy::global().name()),
        quote(&command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        // Only a checkout that is itself a repository: git would otherwise
        // walk up and report some enclosing repository's commit.
        quote(
            &std::path::Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(unknown)
        ),
    )
}
