//! API-surface golden test: snapshots every identifier `wdog_core::prelude`
//! exports so accidental drift (a rename, a dropped re-export) fails CI
//! instead of rippling through targets and harness.
//!
//! Rust has no runtime reflection over module exports, so the test parses
//! the `pub use` lines of `src/prelude.rs` — which is exactly the artifact
//! the contract is about.

/// Every identifier the prelude is expected to export, sorted.
///
/// To change the supported API surface, update BOTH `src/prelude.rs` and
/// this list in the same commit — that is the point.
const GOLDEN: &[&str] = &[
    "Action",
    "AtomicHistogram",
    "BaseError",
    "BaseResult",
    "CallbackAction",
    "CheckFailure",
    "CheckStatus",
    "Checker",
    "CheckerId",
    "Clock",
    "ComponentHealth",
    "ComponentId",
    "ContextReader",
    "ContextSlot",
    "ContextSnapshot",
    "ContextTable",
    "Counter",
    "CtxValue",
    "Degradable",
    "DriverBuilder",
    "DriverStats",
    "ExecutionProbe",
    "FailureKind",
    "FailureReport",
    "FaultLocation",
    "FireGuard",
    "FnChecker",
    "HealthBoard",
    "HistogramSummary",
    "HookSite",
    "Hooks",
    "LogAction",
    "PublishGuard",
    "RealClock",
    "Restartable",
    "SchedulePolicy",
    "SharedClock",
    "TelemetryRegistry",
    "TelemetrySnapshot",
    "TraceEvent",
    "TraceEventKind",
    "TraceRecorder",
    "WatchdogConfig",
    "WatchdogDriver",
];

/// Extracts the identifiers re-exported by `pub use` statements.
///
/// Handles both brace groups (`pub use x::{A, B};`) and single imports
/// (`pub use x::C;`), which is the entire grammar prelude.rs uses.
fn exported_identifiers(source: &str) -> Vec<String> {
    let mut out = Vec::new();
    // Strip comments, then scan statement-by-statement (they end with ';').
    let code: String = source
        .lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n");
    for stmt in code.split(';') {
        let stmt = stmt.trim();
        let Some(rest) = stmt.strip_prefix("pub use ") else {
            continue;
        };
        if let (Some(open), Some(close)) = (rest.find('{'), rest.rfind('}')) {
            for item in rest[open + 1..close].split(',') {
                let item = item.trim();
                if !item.is_empty() {
                    out.push(item.to_string());
                }
            }
        } else if let Some(last) = rest.rsplit("::").next() {
            let last = last.trim();
            if !last.is_empty() {
                out.push(last.to_string());
            }
        }
    }
    out.sort();
    out
}

#[test]
fn prelude_exports_match_golden_list() {
    let exported = exported_identifiers(include_str!("../src/prelude.rs"));
    let golden: Vec<String> = {
        let mut g: Vec<String> = GOLDEN.iter().map(|s| s.to_string()).collect();
        g.sort();
        g
    };
    let missing: Vec<_> = golden.iter().filter(|g| !exported.contains(g)).collect();
    let extra: Vec<_> = exported.iter().filter(|e| !golden.contains(e)).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "prelude drifted from the golden API surface.\n\
         missing from prelude: {missing:?}\n\
         unexpected in prelude: {extra:?}\n\
         If this change is intentional, update GOLDEN in {}.",
        file!()
    );
}

/// The golden list is not just text: every type name in it must actually
/// resolve through the prelude. A sample of load-bearing ones, used the way
/// callers use them, so a `pub use` pointing at a renamed item cannot pass.
#[test]
fn prelude_identifiers_resolve() {
    use wdog_core::prelude::*;

    let registry: std::sync::Arc<TelemetryRegistry> = TelemetryRegistry::shared();
    let driver: WatchdogDriver = WatchdogDriver::builder()
        .config(WatchdogConfig::default())
        .clock(RealClock::shared())
        .checker(Box::new(FnChecker::new("ok", "comp", || CheckStatus::Pass)))
        .build()
        .expect("builder");
    let _: DriverStats = driver.stats();
    let _: Vec<CheckerId> = driver.checker_ids();
    let _: TelemetrySnapshot = registry.snapshot();
    let table = ContextTable::new(RealClock::shared());
    let hooks = Hooks::new(table);
    let site: HookSite = hooks.site("k");
    if let Some(mut fire) = site.fire() {
        let _: &mut FireGuard = fire.field("n", 1u64);
    }
    assert_eq!(site.slot().version(), 1);
}
