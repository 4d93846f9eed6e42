//! CPU accounting from `/proc/self`: every live thread by the name the
//! crates give it.

use std::collections::BTreeMap;
use std::path::Path;

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is
/// 100 on every mainstream architecture.
const TICKS_PER_SEC: f64 = 100.0;

/// `(utime + stime)` in seconds from a `stat` line, plus the `comm` name.
fn parse_stat(stat: &str) -> Option<(String, f64)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let name = stat[open + 1..close].to_string();
    // After the comm: state is field 3 of the full line, utime 14, stime 15.
    let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((name, (utime + stime) as f64 / TICKS_PER_SEC))
}

/// CPU seconds a thread has run, in nanoseconds' resolution, from the
/// first field of `schedstat`. At 10 ms per tick, `stat` would move a
/// window of a few hundred requests by several percent.
fn schedstat_s(task: &Path) -> Option<f64> {
    let schedstat = std::fs::read_to_string(task.join("schedstat")).ok()?;
    let ns: u64 = schedstat.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e9)
}

/// `(steal, total)` clock ticks of the whole machine, from `/proc/stat`.
/// Steal is time the hypervisor ran something else while a CPU of this
/// machine had work: host contention that the benchmark cannot control.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// `tid → (thread name, CPU seconds)` for every live thread.
pub fn thread_cpu() -> BTreeMap<u32, (String, f64)> {
    let mut threads = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return threads;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        // A thread may exit between the listing and the read.
        let task = entry.path();
        if let Some((name, ticks_s)) = std::fs::read_to_string(task.join("stat"))
            .ok()
            .and_then(|stat| parse_stat(&stat))
        {
            threads.insert(tid, (name, schedstat_s(&task).unwrap_or(ticks_s)));
        }
    }
    threads
}

/// The layer a thread works for, from the names the crates set
/// (`comm` is truncated to 15 bytes, so only prefixes are reliable).
pub fn group_of(name: &str) -> &'static str {
    const GROUPS: [(&str, &str); 8] = [
        ("sbft-reader", "transport"),
        ("sbft-writer-", "transport"),
        ("sbft-accept-", "transport"),
        ("sbft-verify-", "verify_pool"),
        ("sbft-exec", "exec_pool"),
        ("sbft-wave-", "exec_pool"),
        ("replica-", "node"),
        ("client-", "client"),
    ];
    GROUPS
        .iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map_or("other", |(_, group)| group)
}

/// CPU seconds per thread group spent between two [`thread_cpu`] reads.
/// Keyed by tid, so threads that exited before `end` (an earlier
/// cluster's) contribute nothing instead of a negative amount.
pub fn group_delta(
    start: &BTreeMap<u32, (String, f64)>,
    end: &BTreeMap<u32, (String, f64)>,
) -> BTreeMap<&'static str, f64> {
    let mut groups = BTreeMap::new();
    for (tid, (name, cpu)) in end {
        let before = start.get(tid).map_or(0.0, |(_, cpu)| *cpu);
        *groups.entry(group_of(name)).or_insert(0.0) += (cpu - before).max(0.0);
    }
    groups
}
