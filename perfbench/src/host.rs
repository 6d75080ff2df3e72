//! Host-side probes read from `/proc`: peak memory, on-CPU time of
//! the calling thread, and a sampler for the process's thread count.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The value of a `Key:   <number> ...` line of `/proc/self/status`.
fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").expect("/proc/self/status reports VmHWM") as f64 / 1024.0
}

/// Threads this process has right now.
pub fn threads() -> usize {
    status_field("Threads").expect("/proc/self/status reports Threads") as usize
}

/// Nanoseconds the calling thread has spent on a CPU
/// (first field of `/proc/thread-self/schedstat`).
pub fn oncpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .expect("/proc/thread-self/schedstat reports on-CPU time")
}

/// Polls the process's thread count every millisecond from a thread
/// of its own, so threads a layer spawns and joins inside one call
/// are seen. Only traced runs start one.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    max: Arc<AtomicUsize>,
    handle: JoinHandle<()>,
}

impl ThreadSampler {
    /// Starts sampling.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let max = Arc::new(AtomicUsize::new(0));
        let handle = {
            let (stop, max) = (Arc::clone(&stop), Arc::clone(&max));
            std::thread::spawn(move || {
                // Sample before checking `stop`, so at least once.
                loop {
                    max.fetch_max(threads(), Ordering::Relaxed);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };
        ThreadSampler { stop, max, handle }
    }

    /// Stops sampling and returns the most threads the workload had
    /// at once, the sampler itself not counted.
    pub fn finish(self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("thread sampler panicked");
        self.max.load(Ordering::Relaxed) - 1
    }
}
