//! Timeout-tolerant thread joining.
//!
//! Simulated gray failures wedge real threads (that is the point), and a
//! wedged thread cannot be joined until its fault is cleared. Shutdown paths
//! therefore use [`join_timeout`]: threads that finish promptly are joined,
//! wedged ones are detached and reaped at process exit — mirroring how a
//! real process shutdown abandons stuck I/O threads.

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Joins `handle` if it finishes within `timeout`; otherwise detaches it.
///
/// Returns `true` if the thread was joined.
#[expect(
    clippy::disallowed_methods,
    reason = "teardown joins bound wedged OS threads in wall time, outside any virtual run"
)]
pub fn join_timeout(handle: JoinHandle<()>, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if handle.is_finished() {
            let _ = handle.join();
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // Detach: the handle is dropped; the thread runs on until it unwedges.
    drop(handle);
    false
}

/// Joins every handle with a shared per-thread timeout; returns how many
/// had to be detached.
pub fn join_all_timeout(handles: Vec<JoinHandle<()>>, each: Duration) -> usize {
    handles
        .into_iter()
        .filter(|_| true)
        .map(|h| join_timeout(h, each))
        .filter(|joined| !joined)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prompt_threads_are_joined() {
        let h = std::thread::spawn(|| {});
        assert!(join_timeout(h, Duration::from_secs(1)));
    }

    #[test]
    fn wedged_threads_are_detached() {
        let h = std::thread::spawn(|| {
            std::thread::sleep(Duration::from_secs(30));
        });
        let start = Instant::now();
        assert!(!join_timeout(h, Duration::from_millis(50)));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn join_all_counts_detached() {
        let handles = vec![
            std::thread::spawn(|| {}),
            std::thread::spawn(|| std::thread::sleep(Duration::from_secs(30))),
        ];
        assert_eq!(join_all_timeout(handles, Duration::from_millis(50)), 1);
    }
}
