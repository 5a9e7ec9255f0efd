//! Vulnerable-operation identification (paper §4.1, step 2).
//!
//! "For each such code region, we are interested in only retaining
//! operations that are worthy of monitoring. Our criteria for selecting such
//! operations are those that are vulnerable to fail in production due to
//! either environment issues or bugs, such as I/O, synchronization,
//! resource, and communication related method invocations. We also support
//! annotations for developers to tag customized vulnerable methods."
//!
//! [`classify`] encodes that policy: every op of a built-in class counts,
//! and an op annotated `// wdog: vulnerable` (without a kind) is the
//! developer-tagged custom class.

use serde::{Deserialize, Serialize};

use crate::ir::{OpKind, Operation};

/// The paper's vulnerability classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum VulnClass {
    /// Disk reads/writes/syncs.
    Io,
    /// Sends and receives.
    Communication,
    /// Lock acquisition and condition waits (release never blocks).
    Synchronization,
    /// Allocation of significant resources.
    Resource,
    /// Developer-annotated custom operations.
    Custom,
}

impl VulnClass {
    /// Classifies an operation kind; `None` for non-vulnerable kinds.
    pub fn of_kind(kind: &OpKind) -> Option<Self> {
        match kind {
            OpKind::DiskRead | OpKind::DiskWrite | OpKind::DiskSync => Some(VulnClass::Io),
            OpKind::NetSend | OpKind::NetRecv => Some(VulnClass::Communication),
            OpKind::LockAcquire | OpKind::CondWait => Some(VulnClass::Synchronization),
            OpKind::Alloc => Some(VulnClass::Resource),
            OpKind::LockRelease | OpKind::Compute | OpKind::Call { .. } => None,
        }
    }

    /// Short label for rendering.
    pub fn label(self) -> &'static str {
        match self {
            VulnClass::Io => "io",
            VulnClass::Communication => "comm",
            VulnClass::Synchronization => "sync",
            VulnClass::Resource => "resource",
            VulnClass::Custom => "custom",
        }
    }
}

/// Classifies `op`; `None` means not vulnerable. An annotated op is
/// [`VulnClass::Custom`] whatever its kind; otherwise the kind decides.
pub fn classify(op: &Operation) -> Option<VulnClass> {
    if op.annotated_vulnerable {
        return Some(VulnClass::Custom);
    }
    VulnClass::of_kind(&op.kind)
}

/// Returns `true` if `op` is vulnerable.
pub fn is_vulnerable(op: &Operation) -> bool {
    classify(op).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(name: &str, kind: OpKind) -> Operation {
        Operation {
            name: name.into(),
            kind,
            resource: None,
            annotated_vulnerable: false,
        }
    }

    #[test]
    fn builtin_classes_match_paper() {
        assert_eq!(classify(&op("w", OpKind::DiskWrite)), Some(VulnClass::Io));
        assert_eq!(classify(&op("r", OpKind::DiskRead)), Some(VulnClass::Io));
        assert_eq!(classify(&op("s", OpKind::DiskSync)), Some(VulnClass::Io));
        assert_eq!(
            classify(&op("tx", OpKind::NetSend)),
            Some(VulnClass::Communication)
        );
        assert_eq!(
            classify(&op("rx", OpKind::NetRecv)),
            Some(VulnClass::Communication)
        );
        assert_eq!(
            classify(&op("lk", OpKind::LockAcquire)),
            Some(VulnClass::Synchronization)
        );
        assert_eq!(
            classify(&op("cw", OpKind::CondWait)),
            Some(VulnClass::Synchronization)
        );
        assert_eq!(
            classify(&op("al", OpKind::Alloc)),
            Some(VulnClass::Resource)
        );
    }

    #[test]
    fn compute_release_and_calls_never_vulnerable() {
        assert!(!is_vulnerable(&op("c", OpKind::Compute)));
        assert!(!is_vulnerable(&op("u", OpKind::LockRelease)));
        assert!(!is_vulnerable(&op(
            "call",
            OpKind::Call { callee: "f".into() }
        )));
    }

    #[test]
    fn annotation_overrides_kind() {
        let mut o = op("business_step", OpKind::Compute);
        o.annotated_vulnerable = true;
        assert_eq!(classify(&o), Some(VulnClass::Custom));
    }

    #[test]
    fn labels_stable() {
        assert_eq!(VulnClass::Io.label(), "io");
        assert_eq!(VulnClass::Communication.label(), "comm");
        assert_eq!(VulnClass::Synchronization.label(), "sync");
        assert_eq!(VulnClass::Resource.label(), "resource");
        assert_eq!(VulnClass::Custom.label(), "custom");
    }
}
