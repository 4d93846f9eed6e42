//! Keeps one CPU from halting while the benchmark runs.
//!
//! ```text
//! perfbench-spin SECONDS
//! ```
//!
//! Spins with the CPU's pause hint, so it touches no memory, until its
//! parent exits or `SECONDS` pass. `run.py` starts it pinned to the
//! benchmark's CPU at the lowest scheduling class (SCHED_IDLE), so it
//! runs only when no thread of the benchmark is runnable.

use std::os::unix::process::parent_id;
use std::time::{Duration, Instant};

fn main() {
    let seconds = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let parent = parent_id();
    while parent_id() == parent && Instant::now() < deadline {
        for _ in 0..100_000 {
            std::hint::spin_loop();
        }
    }
}
