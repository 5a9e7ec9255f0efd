//! The callee-pattern rule table: how source-level call sites map to
//! [`OpKind`]s (paper §4.1, "vulnerable operations ... such as I/O,
//! synchronization, resource, and communication related method invocations").
//!
//! This is the **single** rule source shared by the static extractor
//! (`wdog-analyze`) and the vulnerability policy
//! ([`crate::vulnerable::classify`]): the extractor classifies a
//! call site into an `OpKind` with [`classify_callee`], and the policy maps
//! that kind to a [`crate::vulnerable::VulnClass`] via
//! [`crate::vulnerable::VulnClass::of_kind`]. Neither side keeps a private
//! copy of the method-name table.
//!
//! A rule optionally carries a *receiver hint*: `".send"` is a network send
//! only when the receiver chain mentions `net` (so channel `Sender::send`
//! stays deterministic), and `".read"` is disk I/O only on a `disk`-like
//! receiver (so `RwLock::read` stays invisible). Lock acquisition needs no
//! hint — `.lock()` blocks regardless of who owns the mutex.
//!
//! Deliberately absent: an allocation rule. Resource ops (`OpKind::Alloc`)
//! enter the IR only through explicit annotation, because the targets'
//! `monitor.alloc(..)` calls are *accounting* for injected leaks, not
//! allocations the watchdog should mimic.

use crate::ir::OpKind;

/// One callee-pattern rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CalleeRule {
    /// Method or function name the rule matches (last path segment).
    pub method: &'static str,
    /// If set, some segment of the receiver chain must contain this
    /// substring for the rule to fire (e.g. `disk`, `net`).
    pub receiver_hint: Option<&'static str>,
    /// The operation kind a matching call site becomes.
    pub kind: OpKind,
}

/// The built-in rule table, checked in order; first match wins.
pub const CALLEE_RULES: &[CalleeRule] = &[
    // Disk I/O — gated on a disk-like receiver so e.g. `Vec::append` or
    // `BTreeMap::remove` never classify.
    CalleeRule {
        method: "write_all",
        receiver_hint: Some("disk"),
        kind: OpKind::DiskWrite,
    },
    CalleeRule {
        method: "write",
        receiver_hint: Some("disk"),
        kind: OpKind::DiskWrite,
    },
    CalleeRule {
        method: "append",
        receiver_hint: Some("disk"),
        kind: OpKind::DiskWrite,
    },
    CalleeRule {
        method: "rename",
        receiver_hint: Some("disk"),
        kind: OpKind::DiskWrite,
    },
    CalleeRule {
        method: "remove",
        receiver_hint: Some("disk"),
        kind: OpKind::DiskWrite,
    },
    CalleeRule {
        method: "truncate",
        receiver_hint: Some("disk"),
        kind: OpKind::DiskWrite,
    },
    CalleeRule {
        method: "fsync",
        receiver_hint: Some("disk"),
        kind: OpKind::DiskSync,
    },
    CalleeRule {
        method: "sync_all",
        receiver_hint: Some("disk"),
        kind: OpKind::DiskSync,
    },
    CalleeRule {
        method: "read",
        receiver_hint: Some("disk"),
        kind: OpKind::DiskRead,
    },
    // Communication — gated on a net-like receiver so channel sends and
    // channel `recv_timeout` drains stay deterministic.
    CalleeRule {
        method: "send",
        receiver_hint: Some("net"),
        kind: OpKind::NetSend,
    },
    CalleeRule {
        method: "send_to",
        receiver_hint: Some("net"),
        kind: OpKind::NetSend,
    },
    CalleeRule {
        method: "recv",
        receiver_hint: Some("net"),
        kind: OpKind::NetRecv,
    },
    CalleeRule {
        method: "recv_timeout",
        receiver_hint: Some("net"),
        kind: OpKind::NetRecv,
    },
    // Blocking synchronization — no receiver gate; `.lock()` blocks no
    // matter whose mutex it is.
    CalleeRule {
        method: "lock",
        receiver_hint: None,
        kind: OpKind::LockAcquire,
    },
    CalleeRule {
        method: "try_lock_for",
        receiver_hint: None,
        kind: OpKind::LockAcquire,
    },
    CalleeRule {
        method: "wait",
        receiver_hint: None,
        kind: OpKind::CondWait,
    },
    CalleeRule {
        method: "wait_timeout",
        receiver_hint: None,
        kind: OpKind::CondWait,
    },
];

/// Classifies a call site against [`CALLEE_RULES`].
///
/// `receiver_chain` is the dotted receiver path (e.g. `["shared", "disk"]`
/// for `shared.disk.fsync(..)`); empty for free-function calls.
pub fn classify_callee(method: &str, receiver_chain: &[String]) -> Option<&'static CalleeRule> {
    CALLEE_RULES.iter().find(|rule| {
        rule.method == method
            && match rule.receiver_hint {
                None => true,
                Some(hint) => receiver_chain.iter().any(|seg| seg.contains(hint)),
            }
    })
}

/// Parses an `OpKind` from its [`OpKind::label`] form (annotation syntax
/// `// wdog: vulnerable kind=net-send`). `Call` is not constructible here.
pub fn kind_for_label(label: &str) -> Option<OpKind> {
    match label {
        "disk-read" => Some(OpKind::DiskRead),
        "disk-write" => Some(OpKind::DiskWrite),
        "disk-sync" => Some(OpKind::DiskSync),
        "net-send" => Some(OpKind::NetSend),
        "net-recv" => Some(OpKind::NetRecv),
        "lock-acquire" => Some(OpKind::LockAcquire),
        "lock-release" => Some(OpKind::LockRelease),
        "cond-wait" => Some(OpKind::CondWait),
        "alloc" => Some(OpKind::Alloc),
        "compute" => Some(OpKind::Compute),
        _ => None,
    }
}

/// Returns the *family* of a resource name: everything up to and including
/// the first `/`, or the whole name. `wal/flushing` and `wal/log` both
/// belong to family `wal/`. Extraction normalises every resource it
/// records to its family; the dedup key
/// ([`Operation::similarity_key`](crate::ir::Operation::similarity_key))
/// compares the recorded resource as is.
pub fn resource_family(resource: &str) -> &str {
    match resource.find('/') {
        Some(i) => &resource[..=i],
        None => resource,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(segs: &[&str]) -> Vec<String> {
        segs.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn disk_rules_need_disk_receiver() {
        let hit = classify_callee("write_all", &chain(&["shared", "disk"])).unwrap();
        assert_eq!(hit.kind, OpKind::DiskWrite);
        assert!(classify_callee("write_all", &chain(&["buf"])).is_none());
        // BTreeMap::remove / Vec::append must not classify.
        assert!(classify_callee("remove", &chain(&["self", "index"])).is_none());
        assert!(classify_callee("append", &chain(&["entries"])).is_none());
    }

    #[test]
    fn channel_send_is_not_net_send() {
        assert!(classify_callee("send", &chain(&["shared", "wal_tx"])).is_none());
        let hit = classify_callee("send", &chain(&["shared", "net"])).unwrap();
        assert_eq!(hit.kind, OpKind::NetSend);
    }

    #[test]
    fn rwlock_read_is_not_disk_read() {
        assert!(classify_callee("read", &chain(&["self", "nodes"])).is_none());
        let hit = classify_callee("read", &chain(&["self", "disk"])).unwrap();
        assert_eq!(hit.kind, OpKind::DiskRead);
    }

    #[test]
    fn lock_needs_no_receiver_gate() {
        let hit = classify_callee("lock", &chain(&["write_lock"])).unwrap();
        assert_eq!(hit.kind, OpKind::LockAcquire);
        let hit = classify_callee("lock", &[]).unwrap();
        assert_eq!(hit.kind, OpKind::LockAcquire);
    }

    #[test]
    fn no_alloc_rule_exists() {
        assert!(classify_callee("alloc", &chain(&["shared", "monitor"])).is_none());
        assert!(CALLEE_RULES.iter().all(|r| r.kind != OpKind::Alloc));
    }

    #[test]
    fn kind_labels_round_trip() {
        for rule in CALLEE_RULES {
            let label = rule.kind.label();
            assert_eq!(kind_for_label(label).as_ref(), Some(&rule.kind));
        }
        assert!(kind_for_label("call").is_none());
        assert!(kind_for_label("bogus").is_none());
    }

    #[test]
    fn families_split_at_first_slash() {
        assert_eq!(resource_family("wal/flushing"), "wal/");
        assert_eq!(resource_family("sst/00000001"), "sst/");
        assert_eq!(resource_family("index"), "index");
    }
}
