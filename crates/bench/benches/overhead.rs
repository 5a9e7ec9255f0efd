//! Experiment E5: watchdog overhead on the main program (paper §3.1–3.2).
//!
//! The paper's claim: concurrent checking lets a watchdog run "as many
//! checkers as necessary ... without slowing down the main program during
//! fault-free execution", and hooks are cheap. Three configurations of the
//! same kvs workload measure that claim:
//!
//! - `no_hooks`       — hooks disabled (one relaxed atomic load per site);
//! - `hooks_only`     — hooks publishing contexts, watchdog not running;
//! - `full_watchdog`  — all checker families executing concurrently.
//!
//! The shape expectation: the three configurations are within a few percent
//! of each other.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use bench::bench_server;
use kvs::wd::{build_watchdog, WdOptions};
use wdog_core::prelude::*;

fn kvs_set_roundtrips(c: &mut Criterion) {
    let mut group = c.benchmark_group("kvs_set");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_secs(1));

    // Baseline: hooks disabled entirely.
    {
        let server = bench_server();
        server.hooks().set_enabled(false);
        let client = server.client();
        let mut i = 0u64;
        group.bench_function("no_hooks", |b| {
            b.iter_batched(
                || {
                    i += 1;
                    format!("key-{}", i % 512)
                },
                |key| client.set(&key, "value").unwrap(),
                BatchSize::SmallInput,
            )
        });
    }

    // Hooks firing, watchdog idle.
    {
        let server = bench_server();
        let client = server.client();
        let mut i = 0u64;
        group.bench_function("hooks_only", |b| {
            b.iter_batched(
                || {
                    i += 1;
                    format!("key-{}", i % 512)
                },
                |key| client.set(&key, "value").unwrap(),
                BatchSize::SmallInput,
            )
        });
    }

    // Full watchdog: generated mimics + probes + signals, every 100 ms.
    {
        let server = bench_server();
        let client = server.client();
        let (mut driver, _) = build_watchdog(
            &server,
            &WdOptions {
                interval: Duration::from_millis(100),
                ..WdOptions::default()
            },
        )
        .expect("watchdog");
        driver.start().expect("start watchdog");
        let mut i = 0u64;
        group.bench_function("full_watchdog", |b| {
            b.iter_batched(
                || {
                    i += 1;
                    format!("key-{}", i % 512)
                },
                |key| client.set(&key, "value").unwrap(),
                BatchSize::SmallInput,
            )
        });
        driver.stop();
    }

    group.finish();
}

/// Telemetry-plane overhead on the hook hot path: firing a site with no
/// registry attached (the guard is one relaxed atomic load) vs. an armed
/// registry (count every fire, time one in 64). The two must stay within a
/// few percent of each other — CI enforces a 15% budget through
/// `wdog-telemetry --bench-guard`.
fn hook_fire_telemetry(c: &mut Criterion) {
    let mut group = c.benchmark_group("hook_fire");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));

    {
        let hooks = Hooks::new(ContextTable::new(RealClock::shared()));
        let site = hooks.site("bench.telemetry");
        let mut i = 0u64;
        group.bench_function("telemetry_off", |b| {
            b.iter(|| {
                i += 1;
                if let Some(mut fire) = site.fire() {
                    fire.field("path", CtxValue::Str("wal/segment-7".to_owned()))
                        .field("len", CtxValue::U64(i));
                }
            })
        });
    }
    {
        let hooks = Hooks::new(ContextTable::new(RealClock::shared()));
        hooks.attach_telemetry(TelemetryRegistry::shared());
        let site = hooks.site("bench.telemetry");
        let mut i = 0u64;
        group.bench_function("telemetry_on", |b| {
            b.iter(|| {
                i += 1;
                if let Some(mut fire) = site.fire() {
                    fire.field("path", CtxValue::Str("wal/segment-7".to_owned()))
                        .field("len", CtxValue::U64(i));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, kvs_set_roundtrips, hook_fire_telemetry);
criterion_main!(benches);
