//! Mimic-based checkers: imitating the main program's vulnerable operations
//! (Table 2, row 3 — the paper's preferred checker type).
//!
//! A mimic checker "selects important operations from the main program,
//! mimics them and detects errors. Since the mimic checker exercises similar
//! code logic in a production environment, it can catch both faults external
//! to the program (e.g., bad network, low free memory) and defects in the
//! software" — and it can pinpoint the failing instruction with its error
//! information.
//!
//! A [`MimicChecker`] executes a sequence of [`MimicOp`]s — each a reduced
//! copy of one vulnerable operation, bound to the *real* subsystem it came
//! from (the same `SimDisk`, the same `SimNet` link, the same index
//! structure). Arguments come from the checker's context, synchronized
//! one-way from the main program, and the checker refuses to run
//! ([`CheckStatus::NotReady`]) until the context is ready, fresh, and
//! complete — the paper's guard against spurious reports.
//!
//! Fate sharing and pinpointing of *hangs* work through the
//! [`ExecutionProbe`]: the checker records each operation before executing
//! it, so when an operation blocks forever the watchdog driver's timeout
//! path reports `Stuck` at exactly that operation.

use std::time::Duration;

use wdog_base::clock::SharedClock;
use wdog_base::error::BaseResult;
use wdog_base::ids::{CheckerId, ComponentId, OpId};

use wdog_core::prelude::*;

/// The executable body of a mimicked operation.
///
/// Bodies receive the context snapshot (deep-copied, so mutation is safe)
/// and perform the real reduced operation — a redirected disk write, a probe
/// send on the real network, a read-only index walk.
pub type OpBody = Box<dyn FnMut(&ContextSnapshot) -> BaseResult<()> + Send>;

/// One reduced, vulnerable operation retained by program logic reduction.
pub struct MimicOp {
    /// Operation identity, e.g. `serialize_node#write_record`.
    pub op: OpId,
    /// The (reduced) function this operation came from.
    pub function: String,
    /// Latency above which a *successful* execution is reported `Slow`.
    pub slow_threshold: Option<Duration>,
    body: OpBody,
}

impl MimicOp {
    /// Creates an operation with no slow threshold.
    pub fn new(op: impl Into<OpId>, function: impl Into<String>, body: OpBody) -> Self {
        Self {
            op: op.into(),
            function: function.into(),
            slow_threshold: None,
            body,
        }
    }

    /// Sets the slow threshold.
    pub fn with_slow_threshold(mut self, t: Duration) -> Self {
        self.slow_threshold = Some(t);
        self
    }
}

impl std::fmt::Debug for MimicOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MimicOp")
            .field("op", &self.op)
            .field("function", &self.function)
            .finish()
    }
}

/// A checker that executes reduced copies of main-program operations.
pub struct MimicChecker {
    id: CheckerId,
    component: ComponentId,
    context_key: String,
    reader: ContextReader,
    required_fields: Vec<String>,
    ops: Vec<MimicOp>,
    probe: Option<ExecutionProbe>,
    max_context_age: Option<Duration>,
    clock: SharedClock,
    trace: Option<std::sync::Arc<TraceRecorder>>,
}

impl MimicChecker {
    /// Creates a mimic checker reading context slot `context_key`.
    pub fn new(
        id: impl Into<CheckerId>,
        component: impl Into<ComponentId>,
        context_key: impl Into<String>,
        reader: ContextReader,
        clock: SharedClock,
    ) -> Self {
        Self {
            id: id.into(),
            component: component.into(),
            context_key: context_key.into(),
            reader,
            required_fields: Vec::new(),
            ops: Vec::new(),
            probe: None,
            max_context_age: None,
            clock,
            trace: None,
        }
    }

    /// Declares the context fields that must be present before any op runs.
    pub fn with_required_fields(mut self, fields: Vec<String>) -> Self {
        self.required_fields = fields;
        self
    }

    /// Appends an operation; ops execute in insertion order.
    pub fn push_op(mut self, op: MimicOp) -> Self {
        self.ops.push(op);
        self
    }

    /// Refuses to run with context older than `age`.
    pub fn with_max_context_age(mut self, age: Duration) -> Self {
        self.max_context_age = Some(age);
        self
    }

    /// Journals every op execution into `recorder` (for `wdog-infer`).
    pub fn with_trace(mut self, recorder: std::sync::Arc<TraceRecorder>) -> Self {
        self.trace = Some(recorder);
        self
    }

    /// Returns the number of mimicked operations.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }
}

impl Checker for MimicChecker {
    fn id(&self) -> CheckerId {
        self.id.clone()
    }

    fn component(&self) -> ComponentId {
        self.component.clone()
    }

    fn attach_probe(&mut self, probe: ExecutionProbe) {
        self.probe = Some(probe);
    }

    fn check(&mut self) -> CheckStatus {
        // Context readiness gate (§3.1): no context, stale context, or an
        // incomplete context means "do not check", never "report failure".
        let Some(snapshot) = self.reader.read(&self.context_key) else {
            return CheckStatus::NotReady;
        };
        if let Some(max_age) = self.max_context_age {
            if snapshot.age > max_age {
                return CheckStatus::NotReady;
            }
        }
        if self
            .required_fields
            .iter()
            .any(|f| snapshot.get(f).is_none())
        {
            return CheckStatus::NotReady;
        }

        for op in &mut self.ops {
            let location = FaultLocation::new(self.component.clone(), op.function.clone())
                .with_op(op.op.clone());
            if let Some(probe) = &self.probe {
                probe.enter(location.clone());
            }
            let start = self.clock.now();
            let result = (op.body)(&snapshot);
            let elapsed = self.clock.now().saturating_sub(start);
            if let Some(probe) = &self.probe {
                probe.exit();
            }
            if let Some(trace) = &self.trace {
                trace.record_op(&self.context_key, op.op.as_str(), result.is_ok());
            }
            match result {
                Err(e) => {
                    return CheckStatus::Fail(
                        CheckFailure::new(FailureKind::from_error(&e), location, e.to_string())
                            .with_payload(snapshot.render_payload())
                            .with_latency_ms(elapsed.as_millis() as u64),
                    );
                }
                Ok(()) => {
                    if let Some(threshold) = op.slow_threshold {
                        if elapsed > threshold {
                            return CheckStatus::Fail(
                                CheckFailure::new(
                                    FailureKind::Slow,
                                    location,
                                    format!(
                                        "mimicked operation took {} ms (threshold {} ms)",
                                        elapsed.as_millis(),
                                        threshold.as_millis()
                                    ),
                                )
                                .with_payload(snapshot.render_payload())
                                .with_latency_ms(elapsed.as_millis() as u64),
                            );
                        }
                    }
                }
            }
        }
        CheckStatus::Pass
    }
}

impl std::fmt::Debug for MimicChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MimicChecker")
            .field("id", &self.id)
            .field("context_key", &self.context_key)
            .field("required_fields", &self.required_fields)
            .field("ops", &self.ops)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use wdog_base::clock::RealClock;
    use wdog_base::error::BaseError;

    fn table() -> Arc<ContextTable> {
        ContextTable::new(RealClock::shared())
    }

    fn checker(table: &Arc<ContextTable>) -> MimicChecker {
        MimicChecker::new(
            "kvs.flusher.mimic",
            "kvs.flusher",
            "flush",
            table.reader(),
            RealClock::shared(),
        )
    }

    #[test]
    fn not_ready_without_context() {
        let t = table();
        let mut c = checker(&t).push_op(MimicOp::new("w", "flush", Box::new(|_| Ok(()))));
        assert_eq!(c.check(), CheckStatus::NotReady);
    }

    #[test]
    fn not_ready_with_missing_required_field() {
        let t = table();
        t.publish("flush", vec![("other".into(), CtxValue::U64(1))]);
        let mut c = checker(&t)
            .with_required_fields(vec!["path".into()])
            .push_op(MimicOp::new("w", "flush", Box::new(|_| Ok(()))));
        assert_eq!(c.check(), CheckStatus::NotReady);
    }

    #[test]
    fn runs_ops_in_order_with_context() {
        let t = table();
        t.publish("flush", vec![("path".into(), "wal/0".into())]);
        let order = Arc::new(AtomicU64::new(0));
        let o1 = Arc::clone(&order);
        let o2 = Arc::clone(&order);
        let mut c = checker(&t)
            .push_op(MimicOp::new(
                "a",
                "flush",
                Box::new(move |snap| {
                    assert_eq!(snap.get("path").unwrap().as_str(), Some("wal/0"));
                    o1.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                        .unwrap();
                    Ok(())
                }),
            ))
            .push_op(MimicOp::new(
                "b",
                "flush",
                Box::new(move |_| {
                    o2.compare_exchange(1, 2, Ordering::SeqCst, Ordering::SeqCst)
                        .unwrap();
                    Ok(())
                }),
            ));
        assert!(c.check().is_pass());
        assert_eq!(order.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn failing_op_pinpoints_and_carries_payload() {
        let t = table();
        t.publish("flush", vec![("path".into(), "wal/0".into())]);
        let mut c = checker(&t)
            .push_op(MimicOp::new("ok", "flush", Box::new(|_| Ok(()))))
            .push_op(MimicOp::new(
                "disk_write",
                "flush_memtable",
                Box::new(|_| Err(BaseError::Io("bad sector".into()))),
            ));
        let CheckStatus::Fail(f) = c.check() else {
            panic!("expected failure");
        };
        assert_eq!(f.kind, FailureKind::Error);
        assert_eq!(f.location.function, "flush_memtable");
        assert_eq!(
            f.location.operation.as_ref().unwrap().as_str(),
            "disk_write"
        );
        assert_eq!(f.payload, vec![("path".to_string(), "wal/0".to_string())]);
    }

    #[test]
    fn timeout_error_maps_to_stuck() {
        let t = table();
        t.publish("k", vec![]);
        let mut c = MimicChecker::new("c", "comp", "k", t.reader(), RealClock::shared()).push_op(
            MimicOp::new(
                "w",
                "f",
                Box::new(|_| {
                    Err(BaseError::Timeout {
                        what: "send".into(),
                        after_ms: 100,
                    })
                }),
            ),
        );
        let CheckStatus::Fail(f) = c.check() else {
            panic!("expected failure");
        };
        assert_eq!(f.kind, FailureKind::Stuck);
    }

    #[test]
    fn slow_op_reported_when_threshold_set() {
        let t = table();
        t.publish("k", vec![]);
        let mut c = MimicChecker::new("c", "comp", "k", t.reader(), RealClock::shared()).push_op(
            MimicOp::new(
                "w",
                "f",
                Box::new(|_| {
                    std::thread::sleep(Duration::from_millis(15));
                    Ok(())
                }),
            )
            .with_slow_threshold(Duration::from_millis(1)),
        );
        let CheckStatus::Fail(f) = c.check() else {
            panic!("expected slow failure");
        };
        assert_eq!(f.kind, FailureKind::Slow);
    }

    #[test]
    fn stale_context_is_not_ready() {
        let clock = simio::SimClock::shared();
        let t = ContextTable::new(clock.clone());
        t.publish("k", vec![]);
        clock.sleep(Duration::from_secs(60));
        let mut c = MimicChecker::new("c", "comp", "k", t.reader(), clock.clone())
            .with_max_context_age(Duration::from_secs(30))
            .push_op(MimicOp::new("w", "f", Box::new(|_| Ok(()))));
        assert_eq!(c.check(), CheckStatus::NotReady);
        // Refreshing the context makes it runnable again.
        t.publish("k", vec![]);
        assert!(c.check().is_pass());
    }

    #[test]
    fn probe_records_current_op_during_execution() {
        let t = table();
        t.publish("k", vec![]);
        let probe = ExecutionProbe::new();
        let seen = Arc::new(parking_lot::Mutex::new(None));
        let seen2 = Arc::clone(&seen);
        let probe_inner = probe.clone();
        let mut c = MimicChecker::new("c", "zk.sync", "k", t.reader(), RealClock::shared())
            .push_op(MimicOp::new(
                "net_send",
                "serialize_node",
                Box::new(move |_| {
                    // Capture what the probe says mid-execution.
                    *seen2.lock() = probe_inner.current();
                    Ok(())
                }),
            ));
        c.attach_probe(probe.clone());
        assert!(c.check().is_pass());
        let loc = seen.lock().clone().expect("probe empty during op");
        assert_eq!(loc.function, "serialize_node");
        assert!(probe.current().is_none(), "probe not cleared after check");
    }

    #[test]
    fn op_count_reported() {
        let t = table();
        let c = checker(&t)
            .push_op(MimicOp::new("a", "f", Box::new(|_| Ok(()))))
            .push_op(MimicOp::new("b", "f", Box::new(|_| Ok(()))));
        assert_eq!(c.op_count(), 2);
    }
}
