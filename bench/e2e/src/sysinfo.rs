//! What the harness reads from the operating system: process CPU time,
//! peak resident memory, and the facts a result is labelled with.

use std::process::Command;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux has
/// reported 100 on every architecture since 2.6.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has used.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_cpu_ticks(&stat).map_or(0.0, |ticks| ticks as f64 / TICKS_PER_SECOND)
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name sits
/// in parentheses and may hold spaces, so fields count from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace();
    // After the name come state (field 3) … utime (14) and stime (15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line a command prints, or `"unknown"` if it cannot run.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// The checkout's commit; `"unknown"` outside a git repository.
pub fn git_commit() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
}

/// Every `SKELCL_*` variable currently set, sorted by name.
pub fn skelcl_env() -> Vec<(String, String)> {
    let mut vars: Vec<_> = std::env::vars()
        .filter(|(k, _)| k.starts_with("SKELCL_"))
        .collect();
    vars.sort();
    vars
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_spaces_and_parens_in_the_name() {
        let stat = "42 (a b) c) R 1 2 3 4 5 6 7 8 9 10 700 300 0 0 20 0 4 0 99";
        assert_eq!(parse_cpu_ticks(stat), Some(1000));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }

    #[test]
    fn live_readings_are_plausible() {
        assert!(peak_rss_mb() > 0.5);
        assert!(nproc() >= 1);
        let before = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_seconds() >= before);
    }
}
