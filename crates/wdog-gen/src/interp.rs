//! Instantiating generated checkers against real system operations.
//!
//! The paper's AutoWatchdog emits Java source that calls the target's real
//! methods (Figure 3). The Rust equivalent is an [`OpTable`]: the target
//! system binds, for every `(kind, resource)` its IR names, a body
//! performing the *real reduced operation* on an isolated copy of that
//! resource — a redirected `SimDisk` write, a probe send on the live
//! `SimNet`, a bounded lock acquisition on the live mutex — taking its
//! arguments from the checker's context snapshot. A body registered under
//! one op id (`function#op`) overrides its resource's body for that op.
//!
//! [`instantiate`] then turns a [`WatchdogPlan`] into executable
//! [`MimicChecker`]s ready to register with a [`WatchdogDriver`]. A planned
//! op with no body is a hard error: a generated checker that silently
//! skips operations would report a false sense of health.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use wdog_base::clock::SharedClock;
use wdog_base::error::{BaseError, BaseResult};

use wdog_checkers::mimic::{MimicChecker, MimicOp};
use wdog_core::prelude::*;

use crate::ir::OpKind;
use crate::plan::{GeneratedChecker, PlannedOp, WatchdogPlan};

/// The implementation of one mimicked operation.
pub type OpImpl = Arc<dyn Fn(&ContextSnapshot) -> BaseResult<()> + Send + Sync>;

/// The implementation of every planned op of one `(kind, resource)`: it
/// runs with the context snapshot and the fields its checker requires.
pub type ResourceImpl = Arc<dyn Fn(&ContextSnapshot, &[String]) -> BaseResult<()> + Send + Sync>;

/// Registry binding planned ops to implementations: by op id
/// (`function#op`) first, then by the op's `(kind, resource)`.
#[derive(Clone, Default)]
pub struct OpTable {
    map: HashMap<String, OpImpl>,
    by_resource: HashMap<(OpKind, String), ResourceImpl>,
}

impl OpTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an implementation for `op_id`, replacing any previous one.
    pub fn register<F>(&mut self, op_id: impl Into<String>, f: F)
    where
        F: Fn(&ContextSnapshot) -> BaseResult<()> + Send + Sync + 'static,
    {
        self.map.insert(op_id.into(), Arc::new(f));
    }

    /// Looks up an implementation.
    pub fn get(&self, op_id: &str) -> Option<OpImpl> {
        self.map.get(op_id).cloned()
    }

    /// Binds one body per op kind to `resource`, replacing earlier bodies
    /// of the same `(kind, resource)`.
    pub fn bind(&mut self, resource: &str, bodies: Vec<(OpKind, ResourceImpl)>) {
        for (kind, body) in bodies {
            self.by_resource.insert((kind, resource.to_owned()), body);
        }
    }

    /// The body `op` runs in checker `gc`: its op-id body if one is
    /// registered, else its `(kind, resource)` body.
    fn body_for(&self, gc: &GeneratedChecker, op: &PlannedOp) -> Option<OpImpl> {
        if let Some(body) = self.get(op.op_id.as_str()) {
            return Some(body);
        }
        let key = (op.kind.clone(), op.resource.clone()?);
        let body = Arc::clone(self.by_resource.get(&key)?);
        let fields = gc.required_fields.clone();
        Some(Arc::new(move |snap: &ContextSnapshot| body(snap, &fields)))
    }
}

impl std::fmt::Debug for OpTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut ops: Vec<&String> = self.map.keys().collect();
        ops.sort();
        f.debug_struct("OpTable")
            .field("ops", &ops)
            .field("resources", &self.by_resource.len())
            .finish()
    }
}

/// Tunables applied to every instantiated checker.
#[derive(Debug, Clone)]
pub struct InstantiateOptions {
    /// Per-checker execution timeout handed to the driver.
    pub timeout: Option<Duration>,
    /// Maximum tolerated context age before a checker reports `NotReady`.
    pub max_context_age: Option<Duration>,
    /// Latency above which a successful I/O or communication op is
    /// reported `Slow`. Lock acquisitions and compute ops are exempt:
    /// waiting on a held lock is contention, not environment slowness.
    pub slow_threshold: Option<Duration>,
    /// When set, every checker journals its op executions into this
    /// recorder (test-time mode, consumed by `wdog-infer`).
    pub trace: Option<Arc<TraceRecorder>>,
}

impl Default for InstantiateOptions {
    fn default() -> Self {
        Self {
            timeout: Some(Duration::from_secs(5)),
            max_context_age: None,
            slow_threshold: None,
            trace: None,
        }
    }
}

/// Builds executable [`MimicChecker`]s from a plan and an op table.
///
/// Returns [`BaseError::NotFound`] naming every planned op that has
/// neither an op-id nor a `(kind, resource)` body.
pub fn instantiate(
    plan: &WatchdogPlan,
    table: &OpTable,
    reader: &ContextReader,
    clock: &SharedClock,
    opts: &InstantiateOptions,
) -> BaseResult<Vec<MimicChecker>> {
    // Bind the whole plan first so errors name everything at once.
    let missing: Vec<String> = plan
        .checkers
        .iter()
        .flat_map(|c| c.ops.iter().map(move |o| (c, o)))
        .filter(|(c, o)| table.body_for(c, o).is_none())
        .map(|(_, o)| o.op_id.as_str().to_owned())
        .collect();
    if !missing.is_empty() {
        return Err(BaseError::NotFound(format!(
            "op implementations missing from table: {}",
            missing.join(", ")
        )));
    }

    let mut checkers = Vec::with_capacity(plan.checkers.len());
    for gc in &plan.checkers {
        let mut checker = MimicChecker::new(
            format!("{}.{}", plan.program, gc.name),
            gc.component.clone(),
            gc.context_key.clone(),
            reader.clone(),
            Arc::clone(clock),
        )
        .with_required_fields(gc.required_fields.clone());
        if let Some(age) = opts.max_context_age {
            checker = checker.with_max_context_age(age);
        }
        if let Some(t) = opts.timeout {
            checker = checker.with_timeout(t);
        }
        if let Some(trace) = &opts.trace {
            checker = checker.with_trace(Arc::clone(trace));
        }
        for planned in &gc.ops {
            let body = table.body_for(gc, planned).expect("bound above");
            let mut op = MimicOp::new(
                planned.op_id.clone(),
                planned.function.clone(),
                Box::new(move |snap: &ContextSnapshot| body(snap)),
            );
            let io_like = matches!(
                planned.kind,
                OpKind::DiskRead
                    | OpKind::DiskWrite
                    | OpKind::DiskSync
                    | OpKind::NetSend
                    | OpKind::NetRecv
            );
            if let (Some(t), true) = (opts.slow_threshold, io_like) {
                op = op.with_slow_threshold(t);
            }
            checker = checker.push_op(op);
        }
        checkers.push(checker);
    }
    Ok(checkers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{OpKind, ProgramBuilder};
    use crate::plan::generate_plan;
    use crate::reduce::ReductionConfig;
    use std::sync::atomic::{AtomicU64, Ordering};
    use wdog_base::clock::RealClock;

    fn plan() -> WatchdogPlan {
        let ir = ProgramBuilder::new("kvs")
            .function("flusher_loop", |f| f.long_running().call("flush"))
            .function("flush", |f| {
                f.op("wal_append", OpKind::DiskWrite, |o| o.resource("wal/"))
                    .op("wal_sync", OpKind::DiskSync, |o| o.resource("wal/"))
            })
            .fires("flusher_loop", &["payload"])
            .build();
        generate_plan(&ir, &ReductionConfig::default())
    }

    fn instantiate_with(table: &OpTable, ctx: &Arc<ContextTable>) -> BaseResult<Vec<MimicChecker>> {
        instantiate(
            &plan(),
            table,
            &ctx.reader(),
            &RealClock::shared(),
            &InstantiateOptions::default(),
        )
    }

    #[test]
    fn missing_ops_rejected_with_names() {
        let ctx = ContextTable::new(RealClock::shared());
        let msg = instantiate_with(&OpTable::new(), &ctx)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("flush#wal_append"), "{msg}");
        assert!(msg.contains("flush#wal_sync"), "{msg}");

        // A body for the op's kind on another resource, or for another kind
        // on its resource, does not bind it.
        let ok: ResourceImpl = Arc::new(|_, _| Ok(()));
        let mut table = OpTable::new();
        table.bind("wal/", vec![(OpKind::DiskWrite, Arc::clone(&ok))]);
        table.bind("sst/", vec![(OpKind::DiskSync, ok)]);
        let msg = instantiate_with(&table, &ctx).unwrap_err().to_string();
        assert!(!msg.contains("flush#wal_append"), "{msg}");
        assert!(msg.contains("flush#wal_sync"), "{msg}");
    }

    #[test]
    fn op_id_body_wins_over_resource_body() {
        let calls = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let log = |tag: &'static str| -> ResourceImpl {
            let calls = Arc::clone(&calls);
            Arc::new(move |_, fields: &[String]| {
                calls.lock().push(format!("{tag} {fields:?}"));
                Ok(())
            })
        };
        let mut table = OpTable::new();
        table.bind(
            "wal/",
            vec![
                (OpKind::DiskWrite, log("write")),
                (OpKind::DiskSync, log("sync")),
            ],
        );
        let c = Arc::clone(&calls);
        table.register("flush#wal_sync", move |_| {
            c.lock().push("override".into());
            Ok(())
        });
        let ctx = ContextTable::new(RealClock::shared());
        ctx.publish(
            "flusher_loop",
            vec![("payload".into(), CtxValue::Bytes(vec![1]))],
        );
        let mut checkers = instantiate_with(&table, &ctx).unwrap();
        assert!(checkers[0].check().is_pass());
        // The resource body runs with its checker's required fields.
        assert_eq!(*calls.lock(), ["write [\"payload\"]", "override"]);
    }

    #[test]
    fn instantiated_checkers_execute_registered_ops() {
        let plan = plan();
        let executed = Arc::new(AtomicU64::new(0));
        let mut table = OpTable::new();
        let e1 = Arc::clone(&executed);
        table.register("flush#wal_append", move |snap| {
            assert!(snap.get("payload").is_some());
            e1.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        let e2 = Arc::clone(&executed);
        table.register("flush#wal_sync", move |_| {
            e2.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });

        let ctx = ContextTable::new(RealClock::shared());
        ctx.publish(
            "flusher_loop",
            vec![("payload".into(), CtxValue::Bytes(vec![1, 2, 3]))],
        );
        let clock: SharedClock = RealClock::shared();
        let mut checkers = instantiate(
            &plan,
            &table,
            &ctx.reader(),
            &clock,
            &InstantiateOptions::default(),
        )
        .unwrap();
        assert_eq!(checkers.len(), 1);
        assert!(checkers[0].check().is_pass());
        assert_eq!(executed.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn context_gates_execution_until_ready() {
        let plan = plan();
        let mut table = OpTable::new();
        table.register("flush#wal_append", |_| Ok(()));
        table.register("flush#wal_sync", |_| Ok(()));
        let ctx = ContextTable::new(RealClock::shared());
        let clock: SharedClock = RealClock::shared();
        let mut checkers = instantiate(
            &plan,
            &table,
            &ctx.reader(),
            &clock,
            &InstantiateOptions::default(),
        )
        .unwrap();
        assert_eq!(checkers[0].check(), CheckStatus::NotReady);
        // Publishing the wrong field is still not ready (required field).
        ctx.publish("flusher_loop", vec![("other".into(), CtxValue::U64(1))]);
        assert_eq!(checkers[0].check(), CheckStatus::NotReady);
        ctx.publish(
            "flusher_loop",
            vec![("payload".into(), CtxValue::Bytes(vec![0]))],
        );
        assert!(checkers[0].check().is_pass());
    }

    #[test]
    fn failing_op_pinpoints_planned_id() {
        let plan = plan();
        let mut table = OpTable::new();
        table.register("flush#wal_append", |_| {
            Err(BaseError::Io("bad sector".into()))
        });
        table.register("flush#wal_sync", |_| Ok(()));
        let ctx = ContextTable::new(RealClock::shared());
        ctx.publish(
            "flusher_loop",
            vec![("payload".into(), CtxValue::Bytes(vec![0]))],
        );
        let clock: SharedClock = RealClock::shared();
        let mut checkers = instantiate(
            &plan,
            &table,
            &ctx.reader(),
            &clock,
            &InstantiateOptions::default(),
        )
        .unwrap();
        let CheckStatus::Fail(f) = checkers[0].check() else {
            panic!("expected failure");
        };
        assert_eq!(
            f.location.operation.as_ref().unwrap().as_str(),
            "flush#wal_append"
        );
        assert_eq!(f.location.function, "flush");
    }

    #[test]
    fn traced_instantiation_journals_op_executions() {
        let plan = plan();
        let mut table = OpTable::new();
        table.register("flush#wal_append", |_| Ok(()));
        table.register("flush#wal_sync", |_| {
            Err(BaseError::Io("bad sector".into()))
        });
        let ctx = ContextTable::new(RealClock::shared());
        ctx.publish(
            "flusher_loop",
            vec![("payload".into(), CtxValue::Bytes(vec![0]))],
        );
        let clock: SharedClock = RealClock::shared();
        let recorder = TraceRecorder::new(clock.clone());
        let opts = InstantiateOptions {
            trace: Some(Arc::clone(&recorder)),
            ..InstantiateOptions::default()
        };
        let mut checkers = instantiate(&plan, &table, &ctx.reader(), &clock, &opts).unwrap();
        assert!(matches!(checkers[0].check(), CheckStatus::Fail(_)));
        let events = recorder.drain();
        let ops: Vec<(String, bool)> = events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceEventKind::Op { op, ok } => Some((op.clone(), *ok)),
                _ => None,
            })
            .collect();
        assert_eq!(
            ops,
            vec![
                ("flush#wal_append".to_string(), true),
                ("flush#wal_sync".to_string(), false),
            ]
        );
        assert!(events.iter().all(|e| e.key == "flusher_loop"));
    }

    #[test]
    fn op_table_introspection() {
        let mut table = OpTable::new();
        table.register("b#y", |_| Ok(()));
        table.register("a#x", |_| Ok(()));
        table.bind("wal/", vec![(OpKind::DiskSync, Arc::new(|_, _| Ok(())))]);
        assert!(table.get("a#x").is_some());
        assert!(table.get("zzz").is_none());
        assert_eq!(
            format!("{table:?}"),
            r#"OpTable { ops: ["a#x", "b#y"], resources: 1 }"#
        );
    }
}
