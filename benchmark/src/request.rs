//! The request-path protocol: closed loop, fixed request count, a fresh
//! instance per block, armed and disarmed blocks in alternating pairs.
//!
//! Closed, because every caller here (`KvsClient::request`,
//! `Cluster::set_data`, `DataNode::write_block`) waits for its reply before
//! it sends again. Fixed count on a fresh instance, because these systems
//! slow down as they fill (append values, SSTables and the block set grow):
//! a time-bounded stage on a long-lived instance measures how long it has
//! been running. Paired and alternating, because the box is shared and drifts.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use wdog_target::WdOptions;

use crate::spans::Spans;
use crate::stats::{median, median_of_pair_ratios, quantile_sorted};
use crate::testbed::{Client, Kind, Res, Testbed};
use crate::tickets::{sub_seed, TicketGen};

/// One request workload: which system, which mix, how much per block.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// The system under load.
    pub kind: Kind,
    /// Key-space size.
    pub keys: usize,
    /// Share of requests that are writes.
    pub write_fraction: f64,
    /// Give every key a known value before the block (read workloads).
    pub fill: bool,
    /// Measured requests per client per block.
    pub per_client: usize,
    /// Client threads.
    pub clients: usize,
}

/// How many request spans per client a traced block keeps; every request
/// still contributes its latency sample.
const TRACED_REQUESTS_PER_CLIENT: usize = 1000;

/// What one block measured.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Requests completed per second of the measured stretch.
    pub rps: f64,
    /// Per-request nanoseconds of both clients, ascending.
    pub latencies: Vec<u32>,
    /// Requests issued in the measured stretch.
    pub attempted: u64,
    /// Requests that returned an error or a wrong value.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
    /// Everything untimed before the measured stretch, seconds.
    pub setup_s: f64,
    /// `Testbed::boot`, seconds.
    pub boot_s: f64,
    /// `build_watchdog`, seconds (armed blocks).
    pub build_watchdog_s: f64,
    /// `WatchdogDriver::start`, seconds (armed blocks).
    pub driver_start_s: f64,
    /// `WatchdogDriver::stop`, seconds (armed blocks).
    pub driver_stop_s: f64,
    /// `Testbed::teardown`, seconds.
    pub teardown_s: f64,
    /// Checking rounds the driver completed (armed blocks).
    pub rounds: u64,
    /// Failing checker executions in this fault-free block.
    pub false_reports: u64,
    /// The checkers behind `false_reports`, sorted, distinct.
    pub false_report_checkers: Vec<String>,
    /// Simulated-disk operations during the measured stretch.
    pub disk_ops: u64,
    /// Simulated-network operations during the measured stretch.
    pub net_ops: u64,
}

impl Block {
    /// The `q`-quantile of request latency in microseconds.
    pub fn latency_us(&self, q: f64) -> f64 {
        f64::from(quantile_sorted(&self.latencies, q)) / 1_000.0
    }
}

fn timed<T>(spans: &mut Spans, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = spans.scope(name, f);
    (out, t0.elapsed().as_secs_f64())
}

struct ClientRun {
    client: Client,
    latencies: Vec<u32>,
    starts: Vec<u64>,
    failed: u64,
    first_error: Option<String>,
}

/// Drives `n` requests per client from all clients at once; returns the
/// wall time from the common start to the last completion.
fn drive(
    clients: Vec<Client>,
    mix: &Mix,
    seed: u64,
    n: usize,
    origin: Option<Instant>,
) -> (Vec<ClientRun>, Duration) {
    let count = clients.len();
    let barrier = Arc::new(Barrier::new(count + 1));
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(id, mut client)| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let mut gen = TicketGen::new(seed, id, count, mix.keys, mix.write_fraction);
                    let mut latencies = Vec::with_capacity(n);
                    let mut starts = Vec::with_capacity(if origin.is_some() { n } else { 0 });
                    let mut failed = 0u64;
                    let mut first_error = None;
                    barrier.wait();
                    for _ in 0..n {
                        let ticket = gen.next_ticket();
                        let t0 = Instant::now();
                        let result = client.request(&ticket);
                        let ns = t0.elapsed().as_nanos();
                        latencies.push(u32::try_from(ns).unwrap_or(u32::MAX));
                        if let Some(origin) = origin {
                            starts.push((t0 - origin).as_nanos() as u64);
                        }
                        if let Err(e) = result {
                            failed += 1;
                            first_error.get_or_insert(e);
                        }
                    }
                    ClientRun {
                        client,
                        latencies,
                        starts,
                        failed,
                        first_error,
                    }
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let runs: Vec<ClientRun> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (runs, t0.elapsed())
    })
}

/// Runs one block: boot → preload → (build_watchdog → driver.start) →
/// warm-up → measure → (driver.stop) → value check → teardown.
pub fn run_block(
    mix: &Mix,
    armed: bool,
    opts: &WdOptions,
    seed: u64,
    spans: &mut Spans,
) -> Res<Block> {
    spans.next_group();
    spans.scope("block", |spans| {
        let mut block = Block::default();
        let setup = Instant::now();
        let (tb, boot_s) = timed(spans, "boot", |_| Testbed::boot(mix.kind, seed));
        let tb = tb?;
        block.boot_s = boot_s;

        let n_clients = mix.clients;
        let mut clients: Vec<Client> = (0..n_clients).map(|id| tb.client(id)).collect();
        spans.scope("preload", |_| {
            clients
                .iter_mut()
                .try_for_each(|c| c.prepare(mix.keys, n_clients, mix.fill))
        })?;

        tb.set_hooks_enabled(armed);
        let mut driver = None;
        if armed {
            let (built, s) = timed(spans, "build_watchdog", |_| tb.build_watchdog(opts));
            let mut d = built?;
            block.build_watchdog_s = s;
            let (started, s) = timed(spans, "driver.start", |_| d.start());
            started.map_err(|e| e.to_string())?;
            block.driver_start_s = s;
            driver = Some(d);
        }

        let (warm, _) = spans.scope("warmup", |_| {
            drive(
                clients,
                mix,
                sub_seed(seed, "warmup", 0),
                mix.per_client / 10,
                None,
            )
        });
        let clients: Vec<Client> = warm.into_iter().map(|r| r.client).collect();
        block.setup_s = setup.elapsed().as_secs_f64();

        let io_before = tb.io_ops();
        let origin = spans.enabled().then(Instant::now);
        let origin_ns = spans.now_ns();
        let (runs, wall) = spans.scope("measure", |spans| {
            let (runs, wall) = drive(clients, mix, seed, mix.per_client, origin);
            for run in &runs {
                let kept = run.starts.iter().zip(&run.latencies);
                for (start, ns) in kept.take(TRACED_REQUESTS_PER_CLIENT) {
                    let start_ns = origin_ns + start;
                    spans.add_child("request", start_ns, start_ns + u64::from(*ns));
                }
            }
            (runs, wall)
        });
        let io_after = tb.io_ops();
        block.disk_ops = io_after.0 - io_before.0;
        block.net_ops = io_after.1 - io_before.1;

        if let Some(mut d) = driver {
            let stats = d.stats();
            block.rounds = stats.rounds;
            block.false_reports = stats.failures;
            let mut checkers: Vec<String> = d
                .log()
                .reports()
                .iter()
                .map(|r| r.checker.as_str().to_owned())
                .collect();
            checkers.sort();
            checkers.dedup();
            block.false_report_checkers = checkers;
            let ((), s) = timed(spans, "driver.stop", |_| d.stop());
            block.driver_stop_s = s;
        }

        for run in &runs {
            block.attempted += run.latencies.len() as u64;
            block.failed += run.failed;
            if let Err(e) = run.client.verify() {
                block.failed += 1;
                block.first_error.get_or_insert(e);
            }
            if block.first_error.is_none() {
                block.first_error.clone_from(&run.first_error);
            }
        }
        if block.attempted != (n_clients * mix.per_client) as u64 {
            return Err(format!(
                "block issued {} requests, expected {}",
                block.attempted,
                n_clients * mix.per_client
            ));
        }
        block.rps = block.attempted as f64 / wall.as_secs_f64();
        block.latencies = runs
            .iter()
            .flat_map(|r| r.latencies.iter().copied())
            .collect();
        block.latencies.sort_unstable();
        drop(runs);
        let ((), s) = timed(spans, "teardown", |_| tb.teardown());
        block.teardown_s = s;
        Ok(block)
    })
}

/// The blocks of one request phase, armed and disarmed paired by index.
#[derive(Debug, Default)]
pub struct Phase {
    /// `(armed, disarmed)` per pair, in the order run.
    pub pairs: Vec<(Block, Block)>,
}

impl Phase {
    /// Runs alternating pairs up to `deadline`, and at least `min_pairs`.
    /// Both blocks of a pair replay the same ticket stream; the order inside
    /// a pair flips every pair.
    pub fn run(
        mix: &Mix,
        opts: &WdOptions,
        seed: u64,
        deadline: Instant,
        min_pairs: usize,
        spans: &mut Spans,
    ) -> Res<Self> {
        let mut phase = Self::default();
        let mut pair_time = Duration::ZERO;
        // A pair starts only if one as long as the last would end in time.
        while phase.pairs.len() < min_pairs || Instant::now() + pair_time <= deadline {
            let started = Instant::now();
            let i = phase.pairs.len();
            let block_seed = sub_seed(seed, "pair", i as u64);
            let mut run = |armed| run_block(mix, armed, opts, block_seed, spans);
            let pair = if i % 2 == 0 {
                let a = run(true)?;
                (a, run(false)?)
            } else {
                let d = run(false)?;
                (run(true)?, d)
            };
            phase.pairs.push(pair);
            pair_time = started.elapsed();
        }
        Ok(phase)
    }

    /// Armed blocks, in pair order.
    pub fn armed(&self) -> impl Iterator<Item = &Block> {
        self.pairs.iter().map(|(a, _)| a)
    }

    /// Disarmed blocks, in pair order.
    pub fn disarmed(&self) -> impl Iterator<Item = &Block> {
        self.pairs.iter().map(|(_, d)| d)
    }

    /// Every block.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.pairs.iter().flat_map(|(a, d)| [a, d])
    }

    /// Median over armed blocks of `f`.
    pub fn armed_median(&self, f: impl Fn(&Block) -> f64) -> f64 {
        median(&self.armed().map(f).collect::<Vec<_>>())
    }

    /// Median over disarmed blocks of `f`.
    pub fn disarmed_median(&self, f: impl Fn(&Block) -> f64) -> f64 {
        median(&self.disarmed().map(f).collect::<Vec<_>>())
    }

    /// Median of the per-pair armed/disarmed throughput ratios.
    pub fn armed_ratio(&self) -> f64 {
        let pairs: Vec<(f64, f64)> = self.pairs.iter().map(|(a, d)| (a.rps, d.rps)).collect();
        median_of_pair_ratios(&pairs)
    }

    /// Median of the per-pair armed/disarmed ratios of the `q`-quantile of
    /// request latency.
    pub fn latency_ratio(&self, q: f64) -> f64 {
        let pairs: Vec<(f64, f64)> = self
            .pairs
            .iter()
            .map(|(a, d)| (a.latency_us(q), d.latency_us(q)))
            .collect();
        median_of_pair_ratios(&pairs)
    }

    /// `(attempted, failed)` over every block.
    pub fn totals(&self) -> (u64, u64) {
        self.blocks()
            .fold((0, 0), |(a, f), b| (a + b.attempted, f + b.failed))
    }
}

/// What the open-loop stage measured, microseconds.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Median latency from scheduled arrival to completion.
    pub p50_us: f64,
    /// 99th percentile of the same.
    pub p99_us: f64,
    /// 99th percentile of how late the generator sent a request.
    pub gen_late_p99_us: f64,
    /// Requests sent.
    pub samples: usize,
}

/// One armed instance, one sleep-paced client at `rate` requests per second
/// for `duration`. Latency runs from the *scheduled* arrival, so a stall
/// charges every request it delays; the generator's own lateness is reported
/// beside it, because on a shared two-core box the generator is itself a
/// noisy instrument.
pub fn open_loop(
    mix: &Mix,
    opts: &WdOptions,
    seed: u64,
    rate: f64,
    duration: Duration,
    spans: &mut Spans,
) -> Res<OpenLoop> {
    spans.next_group();
    spans.scope("open_loop", |_| {
        let tb = Testbed::boot(mix.kind, seed)?;
        let mut client = tb.client(0);
        client.prepare(mix.keys, 1, mix.fill)?;
        tb.set_hooks_enabled(true);
        let mut driver = tb.build_watchdog(opts)?;
        driver.start().map_err(|e| e.to_string())?;

        let interval = Duration::from_secs_f64(1.0 / rate.max(1.0));
        let total = (duration.as_secs_f64() * rate) as usize;
        let mut gen = TicketGen::new(seed, 0, 1, mix.keys, mix.write_fraction);
        let mut latency = Vec::with_capacity(total);
        let mut late = Vec::with_capacity(total);
        let start = Instant::now();
        for i in 0..total {
            let due = interval * i as u32;
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            let sent = start.elapsed();
            late.push(u32::try_from(sent.saturating_sub(due).as_nanos()).unwrap_or(u32::MAX));
            client.request(&gen.next_ticket())?;
            let done = start.elapsed();
            latency.push(u32::try_from(done.saturating_sub(due).as_nanos()).unwrap_or(u32::MAX));
        }
        driver.stop();
        drop(client);
        tb.teardown();
        latency.sort_unstable();
        late.sort_unstable();
        let us = |v: &[u32], q| f64::from(quantile_sorted(v, q)) / 1_000.0;
        Ok(OpenLoop {
            p50_us: us(&latency, 0.5),
            p99_us: us(&latency, 0.99),
            gen_late_p99_us: us(&late, 0.99),
            samples: total,
        })
    })
}
