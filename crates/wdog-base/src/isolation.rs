//! Checker isolation, enforced where mutations happen.
//!
//! A watchdog checker runs inside the process it watches, so it must never
//! perturb that process (the paper's §3.2): whatever it writes, sends or
//! stores goes to probe-tagged copies of the real resources — a path or key
//! carrying [`PROBE_MARKER`], a frame starting with [`PROBE_FRAME`]. The
//! driver runs every checker body, and the recovery coordinator every
//! verifier, inside [`scope`]; the few functions every mutation passes
//! through (the simulated disk's writers, the network's `send`, the
//! targets' state-changing entry points) call [`assert_tagged`] or
//! [`assert_tagged_frame`] first. An untagged mutation inside a scope
//! panics before it takes effect, and the driver reports the panic as a
//! `CheckerPanic` at the op the body had entered.
//!
//! The flag is per thread: a request a checker hands to another thread
//! (a server's queue, say) is that thread's to carry out, and the checker
//! is judged only on what it asks for — its keys and paths.

use std::cell::Cell;

/// The probe-isolation marker every tagged path and key carries.
pub const PROBE_MARKER: &str = "__wd";

/// The prefix of every probe frame on the network; receivers ignore it.
pub const PROBE_FRAME: &[u8] = b"__wd__";

thread_local! {
    static IN_CHECKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as running a checker body until dropped.
#[must_use = "the scope ends when the guard is dropped"]
pub struct Scope {
    outer: bool,
}

/// Enters a checker scope on this thread; dropping the guard (on return or
/// unwind) restores the state it found.
pub fn scope() -> Scope {
    Scope {
        outer: IN_CHECKER.replace(true),
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        IN_CHECKER.set(self.outer);
    }
}

/// Whether this thread is inside a checker scope.
#[inline]
fn in_scope() -> bool {
    IN_CHECKER.get()
}

/// Panics when a checker scope mutates `resource` (a path, key or znode)
/// that does not carry [`PROBE_MARKER`].
#[inline]
pub fn assert_tagged(resource: &str) {
    if in_scope() && !resource.contains(PROBE_MARKER) {
        refuse(resource);
    }
}

/// Panics when a checker scope sends a frame that does not start with
/// [`PROBE_FRAME`].
#[inline]
pub fn assert_tagged_frame(frame: &[u8]) {
    if in_scope() && !frame.starts_with(PROBE_FRAME) {
        refuse(&String::from_utf8_lossy(&frame[..frame.len().min(32)]));
    }
}

#[cold]
#[inline(never)]
fn refuse(what: &str) -> ! {
    panic!("checker isolation: untagged mutation of {what:?} inside a checker");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outside_a_scope_everything_passes() {
        assert!(!in_scope());
        assert_tagged("wal/current");
        assert_tagged_frame(b"{\"Ping\":1}");
    }

    #[test]
    fn inside_a_scope_only_tagged_resources_pass() {
        let _s = scope();
        assert_tagged("wal/__wd_probe");
        assert_tagged("__wd:key");
        assert_tagged_frame(b"__wd__:op");
        assert!(std::panic::catch_unwind(|| assert_tagged("wal/current")).is_err());
        assert!(std::panic::catch_unwind(|| assert_tagged_frame(b"x__wd__")).is_err());
    }

    #[test]
    fn the_scope_is_restored_on_drop_and_on_unwind() {
        {
            let _outer = scope();
            {
                let _inner = scope();
            }
            assert!(in_scope(), "an inner scope must not end the outer one");
        }
        assert!(!in_scope());
        let unwound = std::panic::catch_unwind(|| {
            let _s = scope();
            panic!("body panics");
        });
        assert!(unwound.is_err());
        assert!(!in_scope(), "unwinding must leave the scope");
    }
}
