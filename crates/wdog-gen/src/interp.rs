//! Instantiating generated checkers against real system operations.
//!
//! The paper's AutoWatchdog emits Java source that calls the target's real
//! methods (Figure 3). The Rust equivalent is an [`OpTable`]: the target
//! system binds, for every `(kind, resource)` its IR names, a body
//! performing the *real reduced operation* on an isolated copy of that
//! resource — a redirected `SimDisk` write, a probe send on the live
//! `SimNet`, a bounded lock acquisition on the live mutex — taking its
//! arguments from the checker's context snapshot. Every planned op of that
//! `(kind, resource)` runs that one body.
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

use wdog_checkers::mimic::{MimicChecker, MimicOp, OpBody};
use wdog_core::prelude::*;

use crate::ir::OpKind;
use crate::plan::{GeneratedChecker, PlannedOp, WatchdogPlan};

/// The implementation of every planned op of one `(kind, resource)`: it
/// runs with the context snapshot and the fields its checker requires.
pub type ResourceImpl = Arc<dyn Fn(&ContextSnapshot, &[String]) -> BaseResult<()> + Send + Sync>;

/// Registry binding planned ops to implementations by their
/// `(kind, resource)`.
#[derive(Clone, Default)]
pub struct OpTable {
    by_resource: HashMap<(OpKind, String), ResourceImpl>,
}

impl OpTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds one body per op kind to `resource`, replacing earlier bodies
    /// of the same `(kind, resource)`.
    pub fn bind(&mut self, resource: &str, bodies: Vec<(OpKind, ResourceImpl)>) {
        for (kind, body) in bodies {
            self.by_resource.insert((kind, resource.to_owned()), body);
        }
    }

    /// The body `op` runs in checker `gc`: its `(kind, resource)` body,
    /// called with the checker's required fields.
    fn body_for(&self, gc: &GeneratedChecker, op: &PlannedOp) -> Option<OpBody> {
        let key = (op.kind.clone(), op.resource.clone()?);
        let body = Arc::clone(self.by_resource.get(&key)?);
        let fields = gc.required_fields.clone();
        Some(Box::new(move |snap: &ContextSnapshot| body(snap, &fields)))
    }
}

impl std::fmt::Debug for OpTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut bound: Vec<String> = self
            .by_resource
            .keys()
            .map(|(kind, resource)| format!("{} {resource}", kind.label()))
            .collect();
        bound.sort();
        f.debug_struct("OpTable").field("bound", &bound).finish()
    }
}

/// Tunables applied to every instantiated checker.
#[derive(Debug, Clone, Default)]
pub struct InstantiateOptions {
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

/// Builds executable [`MimicChecker`]s from a plan and an op table.
///
/// Returns [`BaseError::NotFound`] naming every planned op that has no
/// `(kind, resource)` body.
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
        if let Some(trace) = &opts.trace {
            checker = checker.with_trace(Arc::clone(trace));
        }
        for planned in &gc.ops {
            let body = table.body_for(gc, planned).expect("bound above");
            let mut op = MimicOp::new(planned.op_id.clone(), planned.function.clone(), body);
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

    fn ok() -> ResourceImpl {
        Arc::new(|_, _| Ok(()))
    }

    fn bad_sector() -> ResourceImpl {
        Arc::new(|_, _| Err(BaseError::Io("bad sector".into())))
    }

    /// A table binding the plan's two `wal/` ops to `write` and `sync`.
    fn wal_table(write: ResourceImpl, sync: ResourceImpl) -> OpTable {
        let mut table = OpTable::new();
        table.bind(
            "wal/",
            vec![(OpKind::DiskWrite, write), (OpKind::DiskSync, sync)],
        );
        table
    }

    fn instantiate_with(table: &OpTable, ctx: &Arc<ContextTable>) -> BaseResult<Vec<MimicChecker>> {
        instantiate_opts(table, ctx, &InstantiateOptions::default())
    }

    fn instantiate_opts(
        table: &OpTable,
        ctx: &Arc<ContextTable>,
        opts: &InstantiateOptions,
    ) -> BaseResult<Vec<MimicChecker>> {
        instantiate(&plan(), table, &ctx.reader(), &RealClock::shared(), opts)
    }

    fn publish_payload(ctx: &ContextTable) {
        ctx.publish(
            "flusher_loop",
            vec![("payload".into(), CtxValue::Bytes(vec![0]))],
        );
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
        let mut table = OpTable::new();
        table.bind("wal/", vec![(OpKind::DiskWrite, ok())]);
        table.bind("sst/", vec![(OpKind::DiskSync, ok())]);
        let msg = instantiate_with(&table, &ctx).unwrap_err().to_string();
        assert!(!msg.contains("flush#wal_append"), "{msg}");
        assert!(msg.contains("flush#wal_sync"), "{msg}");
    }

    #[test]
    fn instantiated_checkers_execute_bound_ops_with_required_fields() {
        let calls = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let log = |tag: &'static str| -> ResourceImpl {
            let calls = Arc::clone(&calls);
            Arc::new(move |snap, fields: &[String]| {
                assert!(snap.get("payload").is_some());
                calls.lock().push(format!("{tag} {fields:?}"));
                Ok(())
            })
        };
        let table = wal_table(log("write"), log("sync"));
        let ctx = ContextTable::new(RealClock::shared());
        ctx.publish(
            "flusher_loop",
            vec![("payload".into(), CtxValue::Bytes(vec![1, 2, 3]))],
        );
        let mut checkers = instantiate_with(&table, &ctx).unwrap();
        assert_eq!(checkers.len(), 1);
        assert!(checkers[0].check().is_pass());
        assert_eq!(*calls.lock(), ["write [\"payload\"]", "sync [\"payload\"]"]);
    }

    #[test]
    fn rebinding_replaces_the_body() {
        let mut table = wal_table(bad_sector(), ok());
        table.bind("wal/", vec![(OpKind::DiskWrite, ok())]);
        let ctx = ContextTable::new(RealClock::shared());
        publish_payload(&ctx);
        let mut checkers = instantiate_with(&table, &ctx).unwrap();
        assert!(checkers[0].check().is_pass());
    }

    #[test]
    fn context_gates_execution_until_ready() {
        let table = wal_table(ok(), ok());
        let ctx = ContextTable::new(RealClock::shared());
        let mut checkers = instantiate_with(&table, &ctx).unwrap();
        assert_eq!(checkers[0].check(), CheckStatus::NotReady);
        // Publishing the wrong field is still not ready (required field).
        ctx.publish("flusher_loop", vec![("other".into(), CtxValue::U64(1))]);
        assert_eq!(checkers[0].check(), CheckStatus::NotReady);
        publish_payload(&ctx);
        assert!(checkers[0].check().is_pass());
    }

    #[test]
    fn failing_op_pinpoints_planned_id() {
        let table = wal_table(bad_sector(), ok());
        let ctx = ContextTable::new(RealClock::shared());
        publish_payload(&ctx);
        let mut checkers = instantiate_with(&table, &ctx).unwrap();
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
        let table = wal_table(ok(), bad_sector());
        let ctx = ContextTable::new(RealClock::shared());
        publish_payload(&ctx);
        let recorder = TraceRecorder::new(RealClock::shared());
        let opts = InstantiateOptions {
            trace: Some(Arc::clone(&recorder)),
            ..InstantiateOptions::default()
        };
        let mut checkers = instantiate_opts(&table, &ctx, &opts).unwrap();
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
        let mut table = wal_table(ok(), ok());
        table.bind("sst/", vec![(OpKind::DiskRead, ok())]);
        assert_eq!(
            format!("{table:?}"),
            r#"OpTable { bound: ["disk-read sst/", "disk-sync wal/", "disk-write wal/"] }"#
        );
    }
}
