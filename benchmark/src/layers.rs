//! The traced run: the workload's phases with the span buffer on, then the
//! per-layer ledger.
//!
//! Every probe times calls into one crate's public functions from out here.
//! Timings are medians over at least thirty batches; which end-to-end metric
//! each one should move, and on which workload, is written down in README.md
//! before anything was measured.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use faults::schedule::{compose_schedule, ComposeOptions};
use faults::{FaultKind, Injector};
use harness::chaos::chaos_pool;
use simio::disk::SimDisk;
use simio::net::SimNet;
use simio::{LatencyModel, SimClock};
use wdog_base::clock::{spawn_on, Clock, RealClock, SharedClock};
use wdog_base::queue::ClockedQueue;
use wdog_base::sync::ClockedMutex;
use wdog_core::prelude::*;
use wdog_gen::reduce::ReductionConfig;
use wdog_infer::{mine, MinerConfig, TraceJournal};
use wdog_recover::{BackoffPolicy, RecoveryCoordinator, RecoveryPolicy, RecoverySurface};
use wdog_target::{Families, WdOptions};

use crate::affinity::Mask;
use crate::metrics::Report;
use crate::request::{self, Block, Mix};
use crate::sim::{self, SimTarget};
use crate::spans::Spans;
use crate::stats::median;
use crate::testbed::{Kind, Res, Testbed};
use crate::tickets::TicketGen;
use crate::Workload;

/// Batches behind every timing.
const BATCHES: usize = 31;

/// Median over [`BATCHES`] batches of the nanoseconds one call of `f` takes,
/// each batch timing `iters` calls.
fn per_call_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let batch = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed().as_nanos() as f64 / iters as f64
    };
    batch(&mut f); // warm caches and lazy set-up
    median(&(0..BATCHES).map(|_| batch(&mut f)).collect::<Vec<_>>())
}

/// Median over [`BATCHES`] runs of the seconds `f` takes.
fn per_run_s<T>(mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

fn fire(site: &HookSite) {
    if let Some(mut guard) = site.fire() {
        guard.field("path", "wal/current");
        guard.field("len", 128u64);
    }
}

/// `wdog-core`: hook fire, snapshot read, driver scheduling, report fan-out.
fn probe_core(r: &mut Report, clients: usize) -> Res<()> {
    let clock: SharedClock = RealClock::shared();
    let table = ContextTable::new(Arc::clone(&clock));
    let hooks = Hooks::new(Arc::clone(&table));
    let site = hooks.site("bench.site");
    let n = BATCHES as u64;

    hooks.set_enabled(false);
    r.put(
        "wdog-core.fire_disabled_ns",
        per_call_ns(20_000, || fire(&site)),
        n,
    );
    hooks.set_enabled(true);
    r.put(
        "wdog-core.fire_enabled_ns",
        per_call_ns(10_000, || fire(&site)),
        n,
    );

    // Contended: every client thread firing the same site, and a checker-like
    // reader taking a snapshot every millisecond.
    let stop = Arc::new(AtomicBool::new(false));
    let contended = std::thread::scope(|s| {
        for _ in 1..clients {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    fire(&site);
                }
            });
        }
        let reader = table.reader();
        let stop_reader = Arc::clone(&stop);
        s.spawn(move || {
            while !stop_reader.load(Ordering::Relaxed) {
                black_box(reader.read("bench.site"));
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let ns = per_call_ns(10_000, || fire(&site));
        stop.store(true, Ordering::Relaxed);
        ns
    });
    r.put("wdog-core.fire_contended_ns", contended, n);

    let recorder = TraceRecorder::new(Arc::clone(&clock));
    hooks.attach_trace(Arc::clone(&recorder));
    let traced = per_call_ns(2_000, || {
        fire(&site);
        if recorder.len() > 50_000 {
            recorder.drain();
        }
    });
    hooks.detach_trace();
    r.put("wdog-core.fire_traced_ns", traced, n);

    // Snapshot read while a publisher keeps the slot moving.
    let stop = Arc::new(AtomicBool::new(false));
    let read_ns = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                fire(&site);
            }
        });
        let reader = table.reader();
        let ns = per_call_ns(5_000, || {
            black_box(reader.read("bench.site"));
        });
        stop.store(true, Ordering::Relaxed);
        ns
    });
    r.put("wdog-core.snapshot_read_ns", read_ns, n);

    // Scheduling: sixteen checkers that do nothing, a round every millisecond.
    let trivial = |interval: Duration| {
        WatchdogDriver::builder()
            .config(WatchdogConfig {
                policy: SchedulePolicy::every(interval),
                default_timeout: Duration::from_secs(1),
                health_window: Duration::from_secs(10),
                spawn_order_seed: None,
            })
            .checkers((0..16).map(|i| {
                Box::new(FnChecker::new(format!("c{i}"), "bench", || {
                    CheckStatus::Pass
                })) as Box<dyn Checker>
            }))
            .build()
            .map_err(|e| e.to_string())
    };
    let threads = || std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count());
    let (mut starts, mut stops, mut added) = (Vec::new(), Vec::new(), 0usize);
    for _ in 0..BATCHES {
        let mut d = trivial(Duration::from_millis(1))?;
        let before = threads();
        let t0 = Instant::now();
        d.start().map_err(|e| e.to_string())?;
        starts.push(t0.elapsed().as_secs_f64() * 1e3);
        added = threads().saturating_sub(before);
        let t0 = Instant::now();
        d.stop();
        stops.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    r.put("wdog-core.driver_threads", added as f64, 1);
    r.put("wdog-core.driver_start_ms", median(&starts), n);
    r.put("wdog-core.driver_stop_ms", median(&stops), n);

    let mut d = trivial(Duration::from_millis(1))?;
    d.start().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    while d.stats().rounds < 200 && t0.elapsed() < Duration::from_secs(3) {
        std::thread::sleep(Duration::from_micros(500));
    }
    let rounds = d.stats().rounds.max(1);
    let round_us = t0.elapsed().as_secs_f64() * 1e6 / rounds as f64;
    d.stop();
    r.put("wdog-core.round_dispatch_us", round_us, rounds);

    // Report fan-out: from a checker returning `Fail` to an action seeing it.
    struct Stamp {
        origin: Instant,
        failed_at_ns: Arc<AtomicU64>,
        delays_us: Mutex<Vec<f64>>,
    }
    impl Action for Stamp {
        fn on_failure(&self, _report: &FailureReport) {
            let now = self.origin.elapsed().as_nanos() as u64;
            let at = self.failed_at_ns.load(Ordering::Acquire);
            self.delays_us
                .lock()
                .expect("stamp lock")
                .push(now.saturating_sub(at) as f64 / 1e3);
        }
    }
    let origin = Instant::now();
    let failed_at_ns = Arc::new(AtomicU64::new(0));
    let stamp = Arc::new(Stamp {
        origin,
        failed_at_ns: Arc::clone(&failed_at_ns),
        delays_us: Mutex::new(Vec::new()),
    });
    let mut d = WatchdogDriver::builder()
        .config(WatchdogConfig {
            policy: SchedulePolicy::every(Duration::from_millis(5)),
            default_timeout: Duration::from_secs(1),
            health_window: Duration::from_secs(10),
            spawn_order_seed: None,
        })
        .checker(Box::new(FnChecker::new("failing", "bench", move || {
            // Release pairs with the action's Acquire load above.
            failed_at_ns.store(origin.elapsed().as_nanos() as u64, Ordering::Release);
            CheckStatus::Fail(CheckFailure::new(
                FailureKind::Error,
                FaultLocation::new("bench", "probe"),
                "benchmark failure",
            ))
        })))
        .action(Arc::clone(&stamp) as Arc<dyn Action>)
        .build()
        .map_err(|e| e.to_string())?;
    d.start().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    while stamp.delays_us.lock().expect("stamp lock").len() < BATCHES
        && t0.elapsed() < Duration::from_secs(3)
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    d.stop();
    let delays = stamp.delays_us.lock().expect("stamp lock").clone();
    r.put(
        "wdog-core.report_to_action_us",
        median(&delays),
        delays.len() as u64,
    );
    Ok(())
}

/// Runs `f` on a thread that has the CPUs the process started with back, so
/// that it and the threads it spawns float as they would without the
/// benchmark's pinning.
fn unpinned<T: Send>(floating: Option<Mask>, f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        s.spawn(move || {
            if let Some(mask) = &floating {
                crate::affinity::restore(mask);
            }
            f()
        })
        .join()
        .expect("unpinned probe panicked")
    })
}

/// `wdog-base`: the clocked queue hand-off (this is the kvs request
/// hand-off) on both clocks, and the clocked mutex.
fn probe_base(r: &mut Report, floating: Option<Mask>) {
    const TRIPS: usize = 2_000;
    let roundtrip_us = |clock: SharedClock| {
        let ping = ClockedQueue::<u32>::unbounded(&clock);
        let pong = ClockedQueue::<u32>::unbounded(&clock);
        let (ping2, pong2) = (ping.clone(), pong.clone());
        let echo = spawn_on(&clock, "bench-echo", move || {
            while let Some(v) = ping2.pop_timeout(Duration::from_secs(5)) {
                if v == u32::MAX || pong2.push(v).is_err() {
                    break;
                }
            }
        });
        let caller = spawn_on(&clock, "bench-caller", move || {
            let t0 = Instant::now();
            for i in 0..TRIPS as u32 {
                let _ = ping.push(i);
                black_box(pong.pop_timeout(Duration::from_secs(5)));
            }
            let us = t0.elapsed().as_secs_f64() * 1e6 / TRIPS as f64;
            let _ = ping.push(u32::MAX);
            us
        });
        let us = caller.join().expect("queue caller panicked");
        echo.join().expect("queue echo panicked");
        us
    };
    let real: Vec<f64> = (0..7).map(|_| roundtrip_us(RealClock::shared())).collect();
    r.put(
        "wdog-base.queue_roundtrip_us",
        median(&real),
        7 * TRIPS as u64,
    );
    let unpinned = unpinned(floating, move || {
        let trips: Vec<f64> = (0..7).map(|_| roundtrip_us(RealClock::shared())).collect();
        median(&trips)
    });
    r.put(
        "wdog-base.queue_roundtrip_unpinned_us",
        unpinned,
        7 * TRIPS as u64,
    );
    let sim: Vec<f64> = (0..7)
        .map(|_| roundtrip_us(Arc::new(SimClock::new())))
        .collect();
    r.put(
        "wdog-base.queue_roundtrip_sim_us",
        median(&sim),
        7 * TRIPS as u64,
    );

    let clock: SharedClock = RealClock::shared();
    let m = ClockedMutex::new(&clock, 0u64);
    r.put(
        "wdog-base.clocked_mutex_lock_ns",
        per_call_ns(20_000, || *m.lock() += 1),
        BATCHES as u64,
    );
}

/// Wall microseconds per virtual wake-up: eight actors each sleeping 1 ms at
/// a time on a `SimClock`, i.e. one run-token hand-off per wake. Eight,
/// because with two the kernel keeps waker and wakee on one core and the
/// cross-core cost a real schedule pays never shows.
fn sim_switch_us() -> f64 {
    const ACTORS: u32 = 8;
    const WAKES_EACH: u32 = 250;
    let runs: Vec<f64> = (0..7)
        .map(|_| {
            let clock: SharedClock = Arc::new(SimClock::new());
            let t0 = Instant::now();
            let actors: Vec<_> = (0..ACTORS)
                .map(|i| {
                    let c = Arc::clone(&clock);
                    spawn_on(&clock, &format!("bench-sleeper-{i}"), move || {
                        for _ in 0..WAKES_EACH {
                            c.sleep(Duration::from_millis(1));
                        }
                    })
                })
                .collect();
            for a in actors {
                a.join().expect("sim sleeper panicked");
            }
            t0.elapsed().as_secs_f64() * 1e6 / f64::from(ACTORS * WAKES_EACH)
        })
        .collect();
    median(&runs)
}

/// `simio`: one disk or network operation with a zero-latency model, and the
/// simulator's actor switch, on the benchmark's one CPU and left to float.
fn probe_simio(r: &mut Report, floating: Option<Mask>) -> Res<()> {
    let n = BATCHES as u64;
    let clock: SharedClock = RealClock::shared();
    let disk = SimDisk::new(1 << 30, LatencyModel::zero(), Arc::clone(&clock));
    let payload = [7u8; 128];
    disk.create("bench/log").map_err(|e| e.to_string())?;
    let mut appended = 0usize;
    let append = per_call_ns(2_000, || {
        let _ = disk.append("bench/log", &payload);
        appended += 1;
        if appended.is_multiple_of(8_192) {
            // Keep the file, and with it the cost of growing it, bounded.
            let _ = disk.write_all("bench/log", &payload);
        }
    });
    r.put("simio.disk_append_ns", append, n);
    disk.write_all("bench/blob", &[1u8; 4096])
        .map_err(|e| e.to_string())?;
    let read = per_call_ns(2_000, || {
        black_box(disk.read_at("bench/blob", 1024, 128).ok());
    });
    r.put("simio.disk_read_ns", read, n);
    let fsync = per_call_ns(2_000, || {
        let _ = disk.fsync("bench/blob");
    });
    r.put("simio.disk_fsync_ns", fsync, n);

    let net = SimNet::new(LatencyModel::zero(), Arc::clone(&clock));
    let inbox = net.register("bench-b");
    let message = Bytes::from(payload.to_vec());
    let send = per_call_ns(2_000, || {
        let _ = net.send("bench-a", "bench-b", message.clone());
        black_box(inbox.try_recv());
    });
    r.put("simio.net_send_ns", send, n);

    r.put("simio.sim_switch_us", sim_switch_us(), 7);
    r.put(
        "simio.sim_switch_unpinned_us",
        unpinned(floating, sim_switch_us),
        7,
    );
    Ok(())
}

/// `wdog-telemetry`: one counter bump, one histogram sample, one snapshot of
/// a registry the size a chaos run fills.
fn probe_telemetry(r: &mut Report) {
    let n = BATCHES as u64;
    let registry = TelemetryRegistry::new();
    let counter = registry.counter("bench_total", "a");
    r.put(
        "wdog-telemetry.counter_inc_ns",
        per_call_ns(50_000, || counter.inc()),
        n,
    );
    let hist = registry.histogram("bench_ms", "a");
    let mut v = 0u64;
    let record = per_call_ns(50_000, || {
        v = v.wrapping_add(37) % 4096;
        hist.record(v);
    });
    r.put("wdog-telemetry.histogram_record_ns", record, n);
    for i in 0..40 {
        registry
            .counter("bench_family_total", &format!("l{i}"))
            .inc();
        registry
            .histogram("bench_family_ms", &format!("l{i}"))
            .record(i);
    }
    let snapshot = per_call_ns(20, || {
        black_box(registry.snapshot());
    });
    r.put("wdog-telemetry.snapshot_us", snapshot / 1e3, n);
}

/// `faults`: composing a schedule; arming and clearing one disk fault.
fn probe_faults(r: &mut Report) -> Res<()> {
    let n = BATCHES as u64;
    let target = Kind::Kvs.target();
    let pool = chaos_pool(target.as_ref());
    let mut index = 0u64;
    let compose = per_call_ns(200, || {
        index += 1;
        black_box(compose_schedule(
            &pool,
            42,
            index,
            &ComposeOptions::default(),
        ));
    });
    r.put("faults.compose_us", compose / 1e3, n);

    let clock: SharedClock = RealClock::shared();
    let disk = SimDisk::new(1 << 20, LatencyModel::zero(), Arc::clone(&clock));
    let injector = Injector::new().with_disk(disk).with_clock(clock);
    let kind = FaultKind::DiskSlow {
        path_prefix: "wal/".into(),
        factor: 100.0,
    };
    injector
        .inject(&kind)
        .map(|a| injector.clear(&a))
        .map_err(|e| e.to_string())?;
    let cycle = per_call_ns(500, || {
        if let Ok(armed) = injector.inject(&kind) {
            injector.clear(&armed);
        }
    });
    r.put("faults.inject_clear_us", cycle / 1e3, n);
    Ok(())
}

/// `wdog-recover`: wall time from a report reaching the coordinator to its
/// incident closing, against a surface whose first retry verifies — the
/// real-clock floor under every MTTR (virtual time hides it).
fn probe_recover(r: &mut Report) -> Res<()> {
    struct Nothing;
    impl Restartable for Nothing {
        fn restart(&self, _component: &ComponentId) {}
    }
    impl Degradable for Nothing {
        fn degrade(&self, _component: &ComponentId) {}
    }
    let surface = RecoverySurface {
        restart: Arc::new(Nothing),
        degrade: Arc::new(Nothing),
        verifier: Arc::new(|_| {
            Some(
                Box::new(FnChecker::new("verify", "bench", || CheckStatus::Pass))
                    as Box<dyn Checker>,
            )
        }),
    };
    let policy = RecoveryPolicy {
        backoff: BackoffPolicy {
            base: Duration::ZERO,
            factor: 1.0,
            max: Duration::ZERO,
            jitter_frac: 0.0,
        },
        settle: Duration::ZERO,
        flap_threshold: u32::MAX,
        ..RecoveryPolicy::fast()
    };
    let coordinator = RecoveryCoordinator::builder(RealClock::shared(), surface)
        .default_policy(policy)
        .start();
    let report = FailureReport {
        checker: "bench.probe".into(),
        kind: FailureKind::Error,
        location: FaultLocation::new("bench", "probe"),
        detail: "benchmark failure".into(),
        payload: Vec::new(),
        observed_latency_ms: None,
        at_ms: 0,
    };
    let mut walls = Vec::with_capacity(BATCHES);
    for i in 0..BATCHES {
        let t0 = Instant::now();
        coordinator.on_failure(&report);
        while coordinator.incidents().len() <= i {
            if t0.elapsed() > Duration::from_secs(2) {
                coordinator.stop();
                return Err("recovery coordinator never closed the incident".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        walls.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    coordinator.stop();
    r.put(
        "wdog-recover.incident_wall_us",
        median(&walls),
        BATCHES as u64,
    );
    Ok(())
}

/// `wdog-infer`: mining a journal recorded from a short traced kvs run.
fn probe_infer(r: &mut Report, seed: u64) -> Res<()> {
    let tb = Testbed::boot(Kind::Kvs, seed)?;
    let recorder = TraceRecorder::new(RealClock::shared());
    tb.attach_trace(&recorder);
    tb.set_hooks_enabled(true);
    let mut client = tb.client(0);
    client.prepare(256, 1, false)?;
    let mut gen = TicketGen::new(seed, 0, 1, 256, 0.5);
    for _ in 0..10_000 {
        client.request(&gen.next_ticket())?;
    }
    drop(client);
    let events = recorder.drain();
    tb.teardown();
    let kevents = events.len() as f64 / 1e3;
    if events.is_empty() {
        return Err("traced kvs run journaled nothing".into());
    }
    let journals = [TraceJournal::new("kvs", "bench", seed, events)];
    let mine_s = per_run_s(|| mine(&journals, &MinerConfig::default()));
    r.put(
        "wdog-infer.mine_ms_per_kevent",
        mine_s * 1e3 / kevents,
        (kevents * 1e3) as u64,
    );
    Ok(())
}

/// The target-scoped probes: assembling the watchdog, its pieces, one
/// inline round per checker family, and booting under the sim clock.
fn probe_target(r: &mut Report, mix: &Mix, seed: u64) -> Res<()> {
    let n = BATCHES as u64;
    let kind = mix.kind;
    let target = kind.target();
    let opts = target.default_options();

    let ir = target.describe_ir();
    let config = ReductionConfig::default();
    let plan_s = per_run_s(|| wdog_gen::generate_plan(&ir, &config));
    r.put("wdog-gen.generate_plan_ms", plan_s * 1e3, n);
    let plan = wdog_gen::generate_plan(&ir, &config);

    let cfg = wdog_analyze::extract::target_named(kind.name())
        .ok_or_else(|| format!("no extraction config for {}", kind.name()))?;
    wdog_analyze::extract::extract_target(cfg).map_err(|e| e.to_string())?;
    let extract_s = per_run_s(|| wdog_analyze::extract::extract_target(cfg).ok());
    r.put("wdog-analyze.extract_ms", extract_s * 1e3, n);

    // A live instance with some traffic behind it, so contexts are published
    // and the checkers have something to check.
    let tb = Testbed::boot(kind, seed)?;
    tb.set_hooks_enabled(true);
    let mut client = tb.client(0);
    client.prepare(mix.keys, 1, mix.fill)?;
    let mut gen = TicketGen::new(seed, 0, 1, mix.keys, mix.write_fraction);
    for _ in 0..500 {
        client.request(&gen.next_ticket())?;
    }
    tb.instantiate_mimics(&plan)?;
    let inst_s = per_run_s(|| tb.instantiate_mimics(&plan).ok());
    r.put("wdog-gen.instantiate_ms", inst_s * 1e3, n);
    let build_s = per_run_s(|| tb.build_watchdog(&opts).ok());
    r.put("wdog-target.build_watchdog_ms", build_s * 1e3, n);

    for (family, name) in [
        ("mimic", "wdog-checkers.round_us.mimic"),
        ("probe", "wdog-checkers.round_us.probe"),
        ("signal", "wdog-checkers.round_us.signal"),
    ] {
        let mut driver = tb.build_watchdog(&WdOptions {
            families: Families::only(family),
            ..opts.clone()
        })?;
        let mut rounds = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            client.request(&gen.next_ticket())?;
            let t0 = Instant::now();
            driver.run_inline_round().map_err(|e| e.to_string())?;
            rounds.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        r.put(name, median(&rounds), n);
    }
    drop(client);
    tb.teardown();

    // Boot under the sim clock, as every chaos schedule does.
    let mut boots = Vec::with_capacity(7);
    for i in 0..7 {
        let sim = Arc::new(SimClock::new());
        let guard = sim.actor("bench-main").adopt();
        let t0 = Instant::now();
        let mut inst = target.start_on(seed + i, sim).map_err(|e| e.to_string())?;
        boots.push(t0.elapsed().as_secs_f64() * 1e3);
        inst.request_stop();
        guard.retire();
        inst.teardown();
    }
    r.put("target.sim_boot_ms", median(&boots), 7);
    Ok(())
}

fn block_median<'a>(blocks: impl IntoIterator<Item = &'a Block>, f: impl Fn(&Block) -> f64) -> f64 {
    median(&blocks.into_iter().map(f).collect::<Vec<_>>())
}

/// The traced run of one workload: every per-layer metric.
pub fn run_traced(w: &Workload, seed: u64, seconds: u64, floating: Option<Mask>) -> Res<Report> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut r = Report::default();
    let mut spans = Spans::new(true);
    let mut untraced = Spans::new(false);

    // Sim sample: five schedules of every target and one recovery campaign
    // each, `compose → run_schedule` and `recovery.run` spans.
    let sample: Vec<SimTarget> = [Kind::Kvs, Kind::Minizk, Kind::Miniblock]
        .into_iter()
        .map(|kind| SimTarget {
            kind,
            first: 0,
            count: 5,
        })
        .collect();
    let sim = sim::run(&sample, 1, seed, &mut spans)?;
    for (name, metric) in [
        ("kvs", "harness.schedule_wall_ms.kvs"),
        ("minizk", "harness.schedule_wall_ms.minizk"),
        ("miniblock", "harness.schedule_wall_ms.miniblock"),
    ] {
        r.put(metric, sim.schedule_wall_ms[name], 5);
    }
    r.attempted += sim.calls;
    r.failed += sim.failed;
    r.errors.extend(sim.first_error);

    // Request blocks: armed and disarmed with request spans, and an armed
    // block without, for the cost of tracing itself. A third of the budget.
    let opts = w.mix.kind.target().default_options();
    let (mut armed, mut disarmed, mut plain) = (Vec::new(), Vec::new(), Vec::new());
    while armed.len() < 2 || start.elapsed() < budget / 3 {
        let block_seed = crate::tickets::sub_seed(seed, "traced", armed.len() as u64);
        armed.push(request::run_block(
            &w.mix, true, &opts, block_seed, &mut spans,
        )?);
        disarmed.push(request::run_block(
            &w.mix, false, &opts, block_seed, &mut spans,
        )?);
        plain.push(request::run_block(
            &w.mix,
            true,
            &opts,
            block_seed,
            &mut untraced,
        )?);
    }
    let (a, d, p) = (&armed, &disarmed, &plain);
    let all = || a.iter().chain(d).chain(p);
    for b in all() {
        r.attempted += b.attempted;
        r.failed += b.failed;
        r.errors.extend(b.first_error.clone());
    }
    let blocks = a.len() as u64;
    r.put(
        "target.boot_ms",
        block_median(all(), |b| b.boot_s * 1e3),
        3 * blocks,
    );
    r.put(
        "target.teardown_ms",
        block_median(all(), |b| b.teardown_s * 1e3),
        3 * blocks,
    );
    r.put("target.rps.armed", block_median(p, |b| b.rps), blocks);
    r.put("target.rps.disarmed", block_median(d, |b| b.rps), blocks);
    for (q, armed_name, disarmed_name) in [
        (0.5, "target.req_p50_us.armed", "target.req_p50_us.disarmed"),
        (0.9, "target.req_p90_us.armed", "target.req_p90_us.disarmed"),
        (
            0.99,
            "target.req_p99_us.armed",
            "target.req_p99_us.disarmed",
        ),
        (
            0.999,
            "target.req_p999_us.armed",
            "target.req_p999_us.disarmed",
        ),
    ] {
        r.put(armed_name, block_median(a, |b| b.latency_us(q)), blocks);
        r.put(disarmed_name, block_median(d, |b| b.latency_us(q)), blocks);
    }
    let per_req = |ops: u64, b: &Block| ops as f64 / b.attempted as f64;
    r.put(
        "target.disk_ops_per_req",
        block_median(d, |b| per_req(b.disk_ops, b)),
        blocks,
    );
    r.put(
        "target.net_ops_per_req",
        block_median(d, |b| per_req(b.net_ops, b)),
        blocks,
    );
    let rounds: u64 = a.iter().chain(p).map(|b| b.rounds).sum();
    let false_reports: u64 = a.iter().chain(p).map(|b| b.false_reports).sum();
    r.put(
        "wdog-core.false_reports_per_round",
        false_reports as f64 / rounds.max(1) as f64,
        rounds,
    );
    let traced_rps = block_median(a, |b| b.rps);
    let plain_rps = block_median(p, |b| b.rps);
    r.put(
        "bench.trace_overhead_pct",
        (1.0 - traced_rps / plain_rps) * 100.0,
        blocks,
    );

    // Open loop at a quarter of the closed-loop capacity.
    let rate = block_median(d, |b| b.rps) / 4.0;
    let open = request::open_loop(
        &w.mix,
        &opts,
        seed,
        rate,
        Duration::from_millis(1_500),
        &mut spans,
    )?;
    r.put("target.open_p50_us", open.p50_us, open.samples as u64);
    r.put("target.open_p99_us", open.p99_us, open.samples as u64);
    r.put(
        "target.gen_late_p99_us",
        open.gen_late_p99_us,
        open.samples as u64,
    );
    r.attempted += open.samples as u64;

    spans.next_group();
    spans.scope("layer_probes", |_| {
        probe_core(&mut r, w.mix.clients)?;
        probe_base(&mut r, floating);
        probe_simio(&mut r, floating)?;
        probe_telemetry(&mut r);
        probe_faults(&mut r)?;
        probe_recover(&mut r)?;
        probe_infer(&mut r, seed)?;
        probe_target(&mut r, &w.mix, seed)
    })?;

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace_{}.json", w.name));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans.to_json(w.name, seed)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    r.notes.push(format!(
        "{} spans written to {}",
        spans.spans().len(),
        path.display()
    ));
    r.notes.push(format!(
        "traced run took {:.1} s of a {seconds} s budget; rates: armed traced {traced_rps:.0}/s, \
         armed untraced {plain_rps:.0}/s, open loop {rate:.0}/s",
        start.elapsed().as_secs_f64()
    ));

    // Table order, so the report reads the same on every workload.
    let order = |name: &str| {
        crate::metrics::PER_LAYER
            .iter()
            .position(|m| m.name == name)
            .unwrap_or(usize::MAX)
    };
    r.readings.sort_by_key(|x| order(x.name));
    Ok(r)
}
