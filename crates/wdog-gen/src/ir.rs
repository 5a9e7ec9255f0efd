//! The program intermediate representation AutoWatchdog analyzes.
//!
//! A [`ProgramIr`] names a program's functions, the operations they
//! perform, their call edges, which entry points run continuously, and the
//! context fields each hook key publishes. Target systems do not write it
//! by hand: `wdog-analyze` extracts it from their Rust source, and each
//! target's `describe_ir()` returns that committed [`Extraction`]. This plays
//! the role Soot's bytecode model plays for the paper's Java prototype —
//! the reduction pipeline downstream is representation-agnostic, exactly
//! as the paper claims ("the proposed technique is not Java-specific").
//!
//! The IR is linear per function: a [`Function`] is an ordered list of
//! [`Operation`]s, where calls are operations of kind [`OpKind::Call`].

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use wdog_base::ids::OpId;

/// The semantic class of one IR operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Read from persistent storage.
    DiskRead,
    /// Write to persistent storage.
    DiskWrite,
    /// Durability barrier.
    DiskSync,
    /// Send a message to a peer.
    NetSend,
    /// Wait for a message from a peer.
    NetRecv,
    /// Acquire a lock (blocking).
    LockAcquire,
    /// Release a lock.
    LockRelease,
    /// Wait on a condition.
    CondWait,
    /// Allocate a significant resource (memory region, handle, thread).
    Alloc,
    /// Pure computation — never vulnerable, always reduced away.
    Compute,
    /// Call another function in the same program.
    Call {
        /// Callee function name.
        callee: String,
    },
}

impl OpKind {
    /// Returns `true` if this is a call edge.
    pub fn is_call(&self) -> bool {
        matches!(self, OpKind::Call { .. })
    }

    /// Short lowercase label for rendering.
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::DiskRead => "disk-read",
            OpKind::DiskWrite => "disk-write",
            OpKind::DiskSync => "disk-sync",
            OpKind::NetSend => "net-send",
            OpKind::NetRecv => "net-recv",
            OpKind::LockAcquire => "lock-acquire",
            OpKind::LockRelease => "lock-release",
            OpKind::CondWait => "cond-wait",
            OpKind::Alloc => "alloc",
            OpKind::Compute => "compute",
            OpKind::Call { .. } => "call",
        }
    }
}

/// One operation in a function body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Operation {
    /// Operation name, unique within its function, e.g. `write_record`.
    pub name: String,
    /// Semantic class.
    pub kind: OpKind,
    /// The resource the operation touches (path prefix, lock name, peer);
    /// operations with the same kind **and** resource are "similar" and are
    /// deduplicated by reduction.
    pub resource: Option<String>,
    /// Developer annotation forcing this operation to be treated as
    /// vulnerable regardless of kind (paper: "we also support annotations
    /// for developers to tag customized vulnerable methods").
    pub annotated_vulnerable: bool,
}

impl Operation {
    /// Returns this operation's workspace-wide id within `function`.
    pub fn id_in(&self, function: &str) -> OpId {
        OpId::new(format!("{function}#{}", self.name))
    }

    /// The dedup key: operations sharing it are "similar".
    pub fn similarity_key(&self) -> (String, Option<String>) {
        (self.kind.label().to_owned(), self.resource.clone())
    }
}

/// One function in the program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Function {
    /// Function name, unique within the program.
    pub name: String,
    /// Ordered operation list.
    pub ops: Vec<Operation>,
    /// Marked as an entry point that executes continuously (a thread main
    /// loop, a request-processing stage). Reduction starts from these.
    pub long_running: bool,
}

impl Function {
    /// Returns the callees named by this function's call operations.
    pub fn callees(&self) -> Vec<&str> {
        self.ops
            .iter()
            .filter_map(|o| match &o.kind {
                OpKind::Call { callee } => Some(callee.as_str()),
                _ => None,
            })
            .collect()
    }
}

/// A whole program as AutoWatchdog sees it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgramIr {
    /// Program name, e.g. `kvs`.
    pub name: String,
    /// Functions by name (deterministic iteration order).
    pub functions: BTreeMap<String, Function>,
    /// Context keys the program's hooks fire, with the field names each
    /// publishes: the checker of the region named by a key requires
    /// exactly these fields.
    pub regions_fired: BTreeMap<String, BTreeSet<String>>,
}

impl ProgramIr {
    /// Looks up a function.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.get(name)
    }

    /// Validates referential integrity: every call edge targets a function
    /// that exists. Returns the list of dangling callee names.
    pub fn dangling_callees(&self) -> Vec<String> {
        let mut out = Vec::new();
        for f in self.functions.values() {
            for callee in f.callees() {
                if !self.functions.contains_key(callee) {
                    out.push(format!("{} -> {}", f.name, callee));
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

/// A committed extraction, `tests/snapshots/<target>.json`, as each
/// target's `describe_ir()` loads it: the `ir` `wdog-analyze` read from the
/// target's source. The extractor's `notes` beside it are not read.
#[derive(Debug, Deserialize)]
pub struct Extraction {
    /// The extracted program.
    pub ir: ProgramIr,
}

/// Fluent builder for [`ProgramIr`].
///
/// # Examples
///
/// ```
/// use wdog_gen::ir::{OpKind, ProgramBuilder};
///
/// let ir = ProgramBuilder::new("kvs")
///     .function("flusher_loop", |f| {
///         f.long_running()
///             .call("flush_memtable")
///     })
///     .function("flush_memtable", |f| {
///         f.op("wal_append", OpKind::DiskWrite, |o| o.resource("wal/"))
///     })
///     .fires("flusher_loop", &["payload"])
///     .build();
/// assert_eq!(ir.functions.len(), 2);
/// assert!(ir.dangling_callees().is_empty());
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    functions: BTreeMap<String, Function>,
    regions_fired: BTreeMap<String, BTreeSet<String>>,
}

impl ProgramBuilder {
    /// Starts a program description.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            functions: BTreeMap::new(),
            regions_fired: BTreeMap::new(),
        }
    }

    /// Describes one function; replaces any previous same-named description.
    pub fn function<F>(mut self, name: impl Into<String>, build: F) -> Self
    where
        F: FnOnce(FunctionBuilder) -> FunctionBuilder,
    {
        let name = name.into();
        let fb = build(FunctionBuilder::new(name.clone()));
        self.functions.insert(name, fb.finish());
        self
    }

    /// Declares that a hook fires context key `key` with `fields`.
    pub fn fires(mut self, key: impl Into<String>, fields: &[&str]) -> Self {
        let set = self.regions_fired.entry(key.into()).or_default();
        set.extend(fields.iter().map(|f| (*f).to_owned()));
        self
    }

    /// Finishes the program.
    pub fn build(self) -> ProgramIr {
        ProgramIr {
            name: self.name,
            functions: self.functions,
            regions_fired: self.regions_fired,
        }
    }
}

/// Builder for a single [`Function`].
#[derive(Debug)]
pub struct FunctionBuilder {
    f: Function,
}

impl FunctionBuilder {
    fn new(name: String) -> Self {
        Self {
            f: Function {
                name,
                ops: Vec::new(),
                long_running: false,
            },
        }
    }

    /// Marks the function as a continuously-executing entry point.
    pub fn long_running(mut self) -> Self {
        self.f.long_running = true;
        self
    }

    /// Appends an operation configured by `build`.
    pub fn op<F>(mut self, name: impl Into<String>, kind: OpKind, build: F) -> Self
    where
        F: FnOnce(OperationBuilder) -> OperationBuilder,
    {
        let ob = build(OperationBuilder::new(name.into(), kind));
        self.f.ops.push(ob.finish());
        self
    }

    /// Appends a bare operation with no arguments or resource.
    pub fn simple_op(self, name: impl Into<String>, kind: OpKind) -> Self {
        self.op(name, kind, |o| o)
    }

    /// Appends a pure-compute operation.
    pub fn compute(self, name: impl Into<String>) -> Self {
        self.simple_op(name, OpKind::Compute)
    }

    /// Appends a call edge.
    pub fn call(mut self, callee: impl Into<String>) -> Self {
        let callee = callee.into();
        self.f.ops.push(Operation {
            name: format!("call_{callee}"),
            kind: OpKind::Call { callee },
            resource: None,
            annotated_vulnerable: false,
        });
        self
    }

    fn finish(self) -> Function {
        self.f
    }
}

/// Builder for a single [`Operation`].
#[derive(Debug)]
pub struct OperationBuilder {
    op: Operation,
}

impl OperationBuilder {
    fn new(name: String, kind: OpKind) -> Self {
        Self {
            op: Operation {
                name,
                kind,
                resource: None,
                annotated_vulnerable: false,
            },
        }
    }

    /// Names the touched resource (for similar-op dedup).
    pub fn resource(mut self, r: impl Into<String>) -> Self {
        self.op.resource = Some(r.into());
        self
    }

    /// Developer annotation: treat as vulnerable regardless of kind.
    pub fn annotate_vulnerable(mut self) -> Self {
        self.op.annotated_vulnerable = true;
        self
    }

    fn finish(self) -> Operation {
        self.op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProgramIr {
        ProgramBuilder::new("kvs")
            .function("main_loop", |f| {
                f.long_running().call("handle_set").compute("route")
            })
            .function("handle_set", |f| {
                f.op("wal_append", OpKind::DiskWrite, |o| o.resource("wal/"))
                    .compute("update_index")
                    .call("replicate")
            })
            .function("replicate", |f| {
                f.op("send_replica", OpKind::NetSend, |o| o.resource("replica-1"))
            })
            .fires("main_loop", &["payload"])
            .build()
    }

    #[test]
    fn builder_produces_expected_shape() {
        let ir = sample();
        assert_eq!(ir.name, "kvs");
        assert_eq!(ir.functions.len(), 3);
        let h = ir.function("handle_set").unwrap();
        assert_eq!(h.ops.len(), 3);
        assert_eq!(h.callees(), vec!["replicate"]);
        assert!(ir.function("main_loop").unwrap().long_running);
        assert!(!h.long_running);
    }

    #[test]
    fn dangling_callees_detected() {
        let ir = ProgramBuilder::new("p")
            .function("a", |f| f.call("missing"))
            .build();
        assert_eq!(ir.dangling_callees(), vec!["a -> missing"]);
        assert!(sample().dangling_callees().is_empty());
    }

    #[test]
    fn op_ids_qualified_by_function() {
        let ir = sample();
        let op = &ir.function("handle_set").unwrap().ops[0];
        assert_eq!(op.id_in("handle_set").as_str(), "handle_set#wal_append");
    }

    #[test]
    fn similarity_key_uses_kind_and_resource() {
        let a = Operation {
            name: "w1".into(),
            kind: OpKind::DiskWrite,
            resource: Some("wal/".into()),
            annotated_vulnerable: false,
        };
        let mut b = a.clone();
        b.name = "w2".into();
        assert_eq!(a.similarity_key(), b.similarity_key());
        b.resource = Some("sst/".into());
        assert_ne!(a.similarity_key(), b.similarity_key());
    }

    #[test]
    fn ir_serializes_roundtrip() {
        let ir = sample();
        let json = serde_json::to_string(&ir).unwrap();
        let back: ProgramIr = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ir);
    }

    #[test]
    fn redefining_function_replaces() {
        let ir = ProgramBuilder::new("p")
            .function("a", |f| f.compute("x"))
            .function("a", |f| f.compute("y").compute("z"))
            .build();
        assert_eq!(ir.function("a").unwrap().ops.len(), 2);
    }
}
