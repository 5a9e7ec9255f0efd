//! Watchdog hooks: how the main program feeds state to checker contexts.
//!
//! Hooks are the instrumentation points AutoWatchdog inserts into the main
//! program (paper Figure 2, line 28: a `ContextFactory...args_setter` call
//! placed right before the vulnerable operation). When execution reaches a
//! hook, the current program state is published into the watchdog's
//! [`ContextTable`].
//!
//! Two properties matter:
//!
//! 1. **One-way**: hooks only write; nothing flows back into the main
//!    program, so hooks cannot alter main execution (§3.1).
//! 2. **Cheap**: when the watchdog is disabled a hook is one relaxed atomic
//!    load — [`HookSite::fire`] returns `None` and the field expressions are
//!    never evaluated. An enabled fire writes through a [`FireGuard`]
//!    straight into the site's context slot: no closure, no `Vec`, no
//!    field-map allocation. Experiment E5 and `wdog-bench` measure this.
//!
//! A site's fire count is its slot's [`ContextSlot::version`]: one bump per
//! completed publish, exact and never lagging, so hooks keep no counter of
//! their own.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::context::{ContextSlot, ContextTable, CtxValue, PublishGuard};
use crate::trace::TraceRecorder;

/// Trace attachment shared by every site of one [`Hooks`] instance.
///
/// Hooks are created when the instrumented program boots — *before* any
/// recorder exists — so attachment is post-hoc: the `armed` flag is flipped
/// only after the recorder is stored, and the un-armed fire path pays one
/// extra relaxed atomic load and nothing else. Armed fires clone their
/// fields into the recorder's journal for `wdog-infer` to mine.
#[derive(Default)]
struct HookTrace {
    armed: AtomicBool,
    recorder: Mutex<Option<Arc<TraceRecorder>>>,
}

/// Shared hook infrastructure for one instrumented program.
///
/// Cloneable and cheap to pass around; all clones share the enable flag and
/// the context table.
#[derive(Clone)]
pub struct Hooks {
    table: Arc<ContextTable>,
    enabled: Arc<AtomicBool>,
    trace: Arc<HookTrace>,
}

impl Hooks {
    /// Creates hook infrastructure publishing into `table`, initially enabled.
    pub fn new(table: Arc<ContextTable>) -> Self {
        Self {
            table,
            enabled: Arc::new(AtomicBool::new(true)),
            trace: Arc::new(HookTrace::default()),
        }
    }

    /// Arms trace recording: every subsequent enabled fire from any site of
    /// this instance journals its key and fields into `recorder`.
    ///
    /// Recording is a test-time mode for `wdog-infer`; until this is called
    /// a fire costs one extra relaxed atomic load over the pre-trace path.
    pub fn attach_trace(&self, recorder: Arc<TraceRecorder>) {
        *self.trace.recorder.lock() = Some(recorder);
        self.trace.armed.store(true, Ordering::Release);
    }

    /// Disarms trace recording; the recorder keeps whatever it journaled.
    pub fn detach_trace(&self) {
        self.trace.armed.store(false, Ordering::Release);
        *self.trace.recorder.lock() = None;
    }

    /// Returns whether a trace recorder is attached.
    pub fn trace_attached(&self) -> bool {
        self.trace.armed.load(Ordering::Relaxed)
    }

    /// Enables or disables every hook site created from this instance.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Returns whether hooks are currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Returns how many publishes have completed in the table these hooks
    /// write to (the sum of its slot versions): one per enabled fire, plus
    /// any direct [`ContextTable::publish`].
    pub fn fired_count(&self) -> u64 {
        self.table.publish_count()
    }

    /// Creates a hook site that publishes into the context slot `key`.
    ///
    /// The slot is registered and resolved here, once; firing the site never
    /// consults the table's key index again.
    pub fn site(&self, key: impl Into<String>) -> HookSite {
        let key = key.into();
        HookSite {
            slot: self.table.register(&key),
            hooks: self.clone(),
        }
    }

    /// Returns the context table hooks publish into.
    pub fn table(&self) -> &Arc<ContextTable> {
        &self.table
    }
}

impl std::fmt::Debug for Hooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hooks")
            .field("enabled", &self.is_enabled())
            .field("fired", &self.fired_count())
            .finish()
    }
}

/// One instrumentation point in the main program.
///
/// # Examples
///
/// ```
/// use wdog_core::context::ContextTable;
/// use wdog_core::hooks::Hooks;
/// use wdog_base::clock::RealClock;
///
/// let table = ContextTable::new(RealClock::shared());
/// let hooks = Hooks::new(table.clone());
/// let site = hooks.site("serialize_snapshot");
///
/// // In the main program, just before the vulnerable operation:
/// if let Some(mut fire) = site.fire() {
///     fire.field("node_path", "/a/b");
/// }
///
/// assert!(table.is_ready("serialize_snapshot"));
/// ```
#[derive(Clone)]
pub struct HookSite {
    slot: Arc<ContextSlot>,
    hooks: Hooks,
}

impl HookSite {
    /// Opens a fire, or returns `None` while hooks are disabled.
    ///
    /// `None` short-circuits field capture entirely — in the
    /// `if let Some(mut fire) = site.fire()` idiom (what [`wd_hook!`]
    /// expands to) the field expressions are never evaluated, so a disabled
    /// hook still costs one relaxed load. An open [`FireGuard`] writes each
    /// field straight into the site's context slot and completes the
    /// publish when dropped.
    ///
    /// [`wd_hook!`]: crate::wd_hook
    #[inline]
    pub fn fire(&self) -> Option<FireGuard<'_>> {
        if !self.hooks.enabled.load(Ordering::Relaxed) {
            return None;
        }
        let mut capture = None;
        if self.hooks.trace.armed.load(Ordering::Relaxed) {
            // Arming may win the race against the recorder store; fire
            // unrecorded until the recorder is visible.
            if let Some(recorder) = self.hooks.trace.recorder.lock().clone() {
                capture = Some(TraceCapture {
                    recorder,
                    key: self.slot.key().to_owned(),
                    fields: Vec::new(),
                });
            }
        }
        Some(FireGuard {
            publish: Some(self.slot.begin_publish()),
            capture,
        })
    }

    /// Fires with exactly one field: sugar for the single-field sites that
    /// dominate the instrumented programs.
    #[inline]
    pub fn fire_kv(&self, name: &str, value: impl Into<CtxValue>) {
        if let Some(mut fire) = self.fire() {
            fire.field(name, value);
        }
    }

    /// Returns the context key this site publishes to.
    pub fn key(&self) -> &str {
        self.slot.key()
    }

    /// Returns the cached slot handle this site publishes through; its
    /// [`ContextSlot::version`] counts the site's completed fires.
    pub fn slot(&self) -> &Arc<ContextSlot> {
        &self.slot
    }
}

impl std::fmt::Debug for HookSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HookSite")
            .field("key", &self.key())
            .finish()
    }
}

/// Field capture for an armed trace: the clones a [`FireGuard`] accumulates
/// before handing them to the recorder on drop.
struct TraceCapture {
    recorder: Arc<TraceRecorder>,
    key: String,
    fields: Vec<(String, CtxValue)>,
}

/// An open hook fire: writes fields directly into the site's context slot
/// and completes the publish (version bump, freshness stamp) when dropped.
///
/// Created by [`HookSite::fire`]; the zero-alloc replacement for the old
/// closure-built `Vec<(String, CtxValue)>` fire shape.
pub struct FireGuard<'a> {
    /// `Some` until drop; taken there so the publish completes before the
    /// capture is journaled.
    publish: Option<PublishGuard<'a>>,
    /// `Some` while a trace recorder is armed: field clones to journal.
    capture: Option<TraceCapture>,
}

impl FireGuard<'_> {
    /// Sets one context field, replacing a same-named field in place.
    #[inline]
    pub fn field(&mut self, name: &str, value: impl Into<CtxValue>) -> &mut Self {
        let value = value.into();
        if let Some(cap) = self.capture.as_mut() {
            cap.fields.push((name.to_owned(), value.clone()));
        }
        self.publish
            .as_mut()
            .expect("publish guard live until drop")
            .set(name, value);
        self
    }
}

impl Drop for FireGuard<'_> {
    fn drop(&mut self) {
        drop(self.publish.take());
        // Journal after the publish completed so the event order matches
        // what a checker could actually have observed.
        if let Some(cap) = self.capture.take() {
            cap.recorder.record_publish(&cap.key, cap.fields);
        }
    }
}

impl std::fmt::Debug for FireGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FireGuard")
    }
}

/// Publishes fields through a [`HookSite`] with struct-literal syntax.
///
/// Expands to the [`HookSite::fire`] guard idiom: when hooks are disabled
/// the guard is `None` and none of the value expressions run.
///
/// # Examples
///
/// ```
/// use wdog_core::{context::ContextTable, hooks::Hooks, wd_hook};
/// use wdog_base::clock::RealClock;
///
/// let table = ContextTable::new(RealClock::shared());
/// let hooks = Hooks::new(table.clone());
/// let site = hooks.site("compact");
/// let level = 2u64;
/// wd_hook!(site, { "level" => level, "input" => "sst/5" });
/// assert_eq!(
///     table.read("compact").unwrap().get("level").unwrap().as_u64(),
///     Some(2),
/// );
/// ```
#[macro_export]
macro_rules! wd_hook {
    ($site:expr, { $($name:literal => $value:expr),* $(,)? }) => {
        if let Some(mut fire) = $site.fire() {
            $(fire.field($name, $crate::context::CtxValue::from($value));)*
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use simio::SimClock;

    fn setup() -> (Arc<ContextTable>, Hooks) {
        let table = ContextTable::new(SimClock::shared());
        let hooks = Hooks::new(Arc::clone(&table));
        (table, hooks)
    }

    #[test]
    fn fire_publishes_fields() {
        let (table, hooks) = setup();
        let site = hooks.site("k");
        if let Some(mut fire) = site.fire() {
            fire.field("a", 1u64);
        }
        assert_eq!(table.read("k").unwrap().get("a").unwrap().as_u64(), Some(1));
        assert_eq!(hooks.fired_count(), 1);
    }

    #[test]
    fn disabled_hooks_do_not_publish_or_evaluate() {
        let (table, hooks) = setup();
        let site = hooks.site("k");
        hooks.set_enabled(false);
        let mut evaluated = false;
        wd_hook!(site, { "a" => { evaluated = true; 1u64 } });
        assert!(!evaluated, "field expression ran while disabled");
        assert!(!table.is_ready("k"));
        assert_eq!(hooks.fired_count(), 0);
    }

    #[test]
    fn reenabling_restores_publishing() {
        let (table, hooks) = setup();
        let site = hooks.site("k");
        hooks.set_enabled(false);
        hooks.set_enabled(true);
        site.fire_kv("a", true);
        assert!(table.is_ready("k"));
    }

    #[test]
    fn sites_share_the_enable_flag() {
        let (_, hooks) = setup();
        let a = hooks.site("a");
        let b = hooks.site("b");
        hooks.set_enabled(false);
        a.fire();
        b.fire();
        assert_eq!(hooks.fired_count(), 0);
    }

    #[test]
    fn bare_fire_publishes_an_empty_context() {
        let (table, hooks) = setup();
        let site = hooks.site("k");
        site.fire();
        assert!(table.is_ready("k"), "a fire with no fields still publishes");
        assert_eq!(hooks.fired_count(), 1);
    }

    #[test]
    fn attached_trace_journals_publishes_with_fields() {
        let clock = SimClock::shared();
        let table = ContextTable::new(clock.clone());
        let hooks = Hooks::new(Arc::clone(&table));
        let site = hooks.site("flush");
        // Fires before attachment are not journaled.
        site.fire_kv("len", 1u64);
        let rec = crate::trace::TraceRecorder::new(clock.clone());
        hooks.attach_trace(Arc::clone(&rec));
        assert!(hooks.trace_attached());
        clock.sleep(std::time::Duration::from_millis(5));
        wd_hook!(site, { "len" => 7u64, "path" => "wal/0" });
        let events = rec.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].key, "flush");
        assert_eq!(events[0].at_us, 5_000);
        assert_eq!(
            events[0].kind,
            crate::trace::TraceEventKind::Publish {
                fields: vec![
                    ("len".into(), CtxValue::U64(7)),
                    ("path".into(), CtxValue::Str("wal/0".into())),
                ]
            }
        );
        // The publish itself still landed in the context table.
        assert_eq!(
            table.read("flush").unwrap().get("len").unwrap().as_u64(),
            Some(7)
        );
    }

    #[test]
    fn detached_trace_stops_journaling() {
        let clock = SimClock::shared();
        let hooks = Hooks::new(ContextTable::new(clock.clone()));
        let site = hooks.site("k");
        let rec = crate::trace::TraceRecorder::new(clock);
        hooks.attach_trace(Arc::clone(&rec));
        site.fire_kv("a", 1u64);
        hooks.detach_trace();
        assert!(!hooks.trace_attached());
        site.fire_kv("a", 2u64);
        assert_eq!(rec.drain().len(), 1);
    }

    #[test]
    fn disabled_hooks_journal_nothing() {
        let clock = SimClock::shared();
        let hooks = Hooks::new(ContextTable::new(clock.clone()));
        let site = hooks.site("k");
        let rec = crate::trace::TraceRecorder::new(clock);
        hooks.attach_trace(Arc::clone(&rec));
        hooks.set_enabled(false);
        site.fire_kv("a", 1u64);
        assert!(rec.is_empty());
    }

    #[test]
    fn macro_builds_fields() {
        let (table, hooks) = setup();
        let site = hooks.site("m");
        let n: u64 = 9;
        wd_hook!(site, { "n" => n, "name" => "x" });
        let snap = table.read("m").unwrap();
        assert_eq!(snap.get("n").unwrap().as_u64(), Some(9));
        assert_eq!(snap.get("name").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn steady_state_refire_replaces_fields_in_place() {
        let (table, hooks) = setup();
        let site = hooks.site("k");
        for i in 0..10u64 {
            wd_hook!(site, { "i" => i, "tag" => "t" });
        }
        let snap = table.read("k").unwrap();
        assert_eq!(snap.version, 10);
        assert_eq!(snap.get("i").unwrap().as_u64(), Some(9));
        assert_eq!(snap.fields.len(), 2);
    }

    #[test]
    fn concurrent_fires_on_one_site_count_exactly() {
        let (table, hooks) = setup();
        let site = hooks.site("hot");
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let site = site.clone();
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        wd_hook!(site, { "v" => t * 100_000 + i });
                    }
                });
            }
        });
        assert_eq!(site.slot().version(), 40_000);
        assert_eq!(hooks.fired_count(), 40_000);
        let snap = table.read("hot").unwrap();
        assert_eq!(snap.version, 40_000);
        assert!(snap.get("v").is_some());
    }
}
