//! A simulated message-passing network with per-link fault injection.
//!
//! [`SimNet`] connects named endpoints. Sending is synchronous: the sender
//! pays the (modelled) transit latency and the message appears in the
//! destination's [`Mailbox`] — the same observable behaviour as a blocking
//! socket write followed by kernel delivery. This choice is deliberate: the
//! gray failure reproduced in experiment E4 (ZOOKEEPER-2201) hinges on a
//! *blocked send inside a critical section*, and a synchronous send models
//! exactly that.
//!
//! Faults are armed per directed link via [`SimNet::inject`]:
//!
//! - [`NetFault::BlockSend`] — matching sends block until the fault clears
//!   (a wedged TCP connection with a full send buffer);
//! - [`NetFault::Drop`] — matching messages vanish silently;
//! - [`NetFault::Slow`] — matching sends take `factor`× the modelled latency.
//!
//! [`SimNet::op_stats`] counts every send and receive call, and every send a
//! fault shaped.
//!
//! [`SimNet::send`] is the checker-isolation choke point for messages:
//! inside a checker scope it refuses, before it counts or draws latency, a
//! payload that is not a probe frame
//! ([`wdog_base::isolation::assert_tagged_frame`]).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use wdog_base::clock::{SharedClock, Waiter};
use wdog_base::error::{BaseError, BaseResult};
use wdog_base::isolation;

use crate::disk::{OpCounters, OpStats};
use crate::latency::LatencyModel;

/// A message in flight or delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sender address.
    pub src: String,
    /// Destination address.
    pub dst: String,
    /// Opaque payload.
    pub payload: Bytes,
}

/// A fault armable on a [`SimNet`] link pattern.
#[derive(Debug, Clone)]
pub enum NetFault {
    /// Matching sends block until the fault is cleared.
    BlockSend,
    /// Matching messages are silently dropped.
    Drop,
    /// Matching sends take `factor` times the modelled latency.
    Slow {
        /// Latency multiplier; values below 1.0 are clamped to 1.0.
        factor: f64,
    },
}

/// The directed link a fault applies to.
#[derive(Debug, Clone)]
pub struct LinkRule {
    /// Match messages from this sender only.
    pub src: String,
    /// Match messages to this destination only.
    pub dst: String,
    /// The fault to apply.
    pub fault: NetFault,
}

impl LinkRule {
    /// A rule matching one directed link.
    pub fn link(src: impl Into<String>, dst: impl Into<String>, fault: NetFault) -> Self {
        Self {
            src: src.into(),
            dst: dst.into(),
            fault,
        }
    }

    fn matches(&self, src: &str, dst: &str) -> bool {
        self.src == src && self.dst == dst
    }
}

/// Handle to an armed network fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetFaultHandle(u64);

/// Per-direction call/fault counters (`sim_io_net_*` telemetry families).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetOpStats {
    /// Send-side calls/faults.
    pub send: OpStats,
    /// Receive-side calls/faults.
    pub recv: OpStats,
}

impl NetOpStats {
    /// `(label, stats)` rows in fixed order, for telemetry.
    pub fn rows(&self) -> [(&'static str, OpStats); 2] {
        [("send", self.send), ("recv", self.recv)]
    }
}

#[derive(Default)]
struct Queue {
    messages: VecDeque<Message>,
}

struct MailboxInner {
    queue: Mutex<Queue>,
    /// Clock-aware wakeup: senders notify, receivers wait on *clock* time —
    /// a raw condvar here would be invisible to a virtual clock and would
    /// turn every `recv_timeout` into a real-time stall in a simulated run.
    waiter: Arc<dyn Waiter>,
}

/// The receiving end of an endpoint registered on a [`SimNet`].
pub struct Mailbox {
    addr: String,
    inner: Arc<MailboxInner>,
    net: Arc<SimNetShared>,
}

/// How long a blocked send sleeps between fault re-checks.
const POLL: Duration = Duration::from_millis(1);

impl Mailbox {
    /// Returns this mailbox's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Receives the next message, waiting up to `timeout`.
    ///
    /// Returns `None` on timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Message> {
        self.net.recv_ops.call();
        let deadline = self.net.clock.now() + timeout;
        loop {
            if let Some(m) = self.inner.queue.lock().messages.pop_front() {
                return Some(m);
            }
            let now = self.net.clock.now();
            if now >= deadline {
                return None;
            }
            // Sleep on the clock waiter until a sender notifies or the
            // deadline passes; the waiter's stored permit closes the race
            // with a send landing between the pop and the wait.
            self.inner.waiter.wait_timeout(deadline - now);
        }
    }

    /// Receives without waiting.
    pub fn try_recv(&self) -> Option<Message> {
        self.net.recv_ops.call();
        self.inner.queue.lock().messages.pop_front()
    }

    /// Returns the number of buffered messages.
    pub fn depth(&self) -> usize {
        self.inner.queue.lock().messages.len()
    }
}

impl std::fmt::Debug for Mailbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mailbox")
            .field("addr", &self.addr)
            .field("depth", &self.depth())
            .finish()
    }
}

struct SimNetShared {
    endpoints: RwLock<HashMap<String, Arc<MailboxInner>>>,
    faults: RwLock<Vec<(NetFaultHandle, LinkRule)>>,
    next_fault: AtomicU64,
    latency: LatencyModel,
    clock: SharedClock,
    send_ops: OpCounters,
    recv_ops: OpCounters,
}

/// A simulated network. Cheap to clone ([`Arc`] inside); see module docs.
#[derive(Clone)]
pub struct SimNet {
    shared: Arc<SimNetShared>,
}

impl SimNet {
    /// Creates a network with the given latency model and clock.
    pub fn new(latency: LatencyModel, clock: SharedClock) -> Self {
        Self {
            shared: Arc::new(SimNetShared {
                endpoints: RwLock::new(HashMap::new()),
                faults: RwLock::new(Vec::new()),
                next_fault: AtomicU64::new(1),
                latency,
                clock,
                send_ops: OpCounters::default(),
                recv_ops: OpCounters::default(),
            }),
        }
    }

    /// Creates a zero-latency network on the real clock for unit tests.
    pub fn for_tests() -> Self {
        Self::new(LatencyModel::zero(), wdog_base::clock::RealClock::shared())
    }

    /// Registers an endpoint and returns its mailbox.
    ///
    /// Re-registering an address replaces the previous mailbox (the old one
    /// stops receiving).
    pub fn register(&self, addr: impl Into<String>) -> Mailbox {
        let addr = addr.into();
        let inner = Arc::new(MailboxInner {
            queue: Mutex::new(Queue::default()),
            waiter: self.shared.clock.waiter(),
        });
        self.shared
            .endpoints
            .write()
            .insert(addr.clone(), Arc::clone(&inner));
        Mailbox {
            addr,
            inner,
            net: Arc::clone(&self.shared),
        }
    }

    /// Sends `payload` from `src` to `dst`.
    ///
    /// Blocks for the transit latency, and indefinitely while a matching
    /// [`NetFault::BlockSend`] is armed. Returns an error if `dst` was never
    /// registered.
    pub fn send(&self, src: &str, dst: &str, payload: Bytes) -> BaseResult<()> {
        isolation::assert_tagged_frame(&payload);
        self.shared.send_ops.call();
        let mut faulted = false;

        // Block while a matching block-send fault is armed.
        loop {
            let blocked = self
                .shared
                .faults
                .read()
                .iter()
                .any(|(_, r)| matches!(r.fault, NetFault::BlockSend) && r.matches(src, dst));
            if !blocked {
                break;
            }
            faulted = true;
            self.shared.clock.sleep(POLL);
        }

        let mut slow = 1.0f64;
        let mut drop = false;
        for (_, r) in self.shared.faults.read().iter() {
            if !r.matches(src, dst) {
                continue;
            }
            match &r.fault {
                NetFault::Slow { factor } => {
                    slow = slow.max(factor.max(1.0));
                    faulted = true;
                }
                NetFault::Drop => {
                    drop = true;
                    faulted = true;
                }
                NetFault::BlockSend => {}
            }
        }
        if faulted {
            self.shared.send_ops.fault();
        }

        let delay = self.shared.latency.sample_scaled(slow);
        if !delay.is_zero() {
            self.shared.clock.sleep(delay);
        }
        if drop {
            return Ok(());
        }

        let target = self.shared.endpoints.read().get(dst).cloned();
        match target {
            Some(mb) => {
                mb.queue.lock().messages.push_back(Message {
                    src: src.to_owned(),
                    dst: dst.to_owned(),
                    payload,
                });
                mb.waiter.notify_one();
                Ok(())
            }
            None => Err(BaseError::NotFound(format!("endpoint {dst}"))),
        }
    }

    /// Arms a fault rule and returns a handle for clearing it.
    pub fn inject(&self, rule: LinkRule) -> NetFaultHandle {
        let h = NetFaultHandle(self.shared.next_fault.fetch_add(1, Ordering::Relaxed));
        self.shared.faults.write().push((h, rule));
        h
    }

    /// Clears one armed fault; unknown handles are ignored.
    pub fn clear(&self, handle: NetFaultHandle) {
        self.shared.faults.write().retain(|(h, _)| *h != handle);
    }

    /// Clears all armed faults.
    pub fn clear_all(&self) {
        self.shared.faults.write().clear();
    }

    /// Returns the per-direction call/fault counters.
    pub fn op_stats(&self) -> NetOpStats {
        NetOpStats {
            send: self.shared.send_ops.snapshot(),
            recv: self.shared.recv_ops.snapshot(),
        }
    }

    /// Returns the clock this network runs on.
    pub fn clock(&self) -> SharedClock {
        Arc::clone(&self.shared.clock)
    }
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNet")
            .field("op_stats", &self.op_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn send_recv_roundtrip() {
        let net = SimNet::for_tests();
        let mb = net.register("b");
        net.send("a", "b", msg("hi")).unwrap();
        let m = mb.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(m.src, "a");
        assert_eq!(m.payload, msg("hi"));
    }

    #[test]
    fn unknown_destination_errors() {
        let net = SimNet::for_tests();
        assert!(matches!(
            net.send("a", "ghost", msg("x")),
            Err(BaseError::NotFound(_))
        ));
    }

    #[test]
    fn recv_timeout_returns_none_when_quiet() {
        let net = SimNet::for_tests();
        let mb = net.register("b");
        assert!(mb.recv_timeout(Duration::from_millis(20)).is_none());
    }

    #[test]
    fn messages_deliver_in_order() {
        let net = SimNet::for_tests();
        let mb = net.register("b");
        for i in 0..10 {
            net.send("a", "b", msg(&i.to_string())).unwrap();
        }
        for i in 0..10 {
            let m = mb.try_recv().unwrap();
            assert_eq!(m.payload, msg(&i.to_string()));
        }
    }

    #[test]
    fn drop_fault_silently_discards() {
        let net = SimNet::for_tests();
        let mb = net.register("b");
        let h = net.inject(LinkRule::link("a", "b", NetFault::Drop));
        net.send("a", "b", msg("lost")).unwrap();
        assert!(mb.recv_timeout(Duration::from_millis(20)).is_none());
        net.clear(h);
        net.send("a", "b", msg("found")).unwrap();
        assert!(mb.recv_timeout(Duration::from_millis(200)).is_some());
    }

    #[test]
    fn block_send_hangs_sender_until_cleared() {
        let net = SimNet::for_tests();
        let _mb = net.register("b");
        let h = net.inject(LinkRule::link("a", "b", NetFault::BlockSend));
        let net2 = net.clone();
        let t = std::thread::spawn(move || net2.send("a", "b", msg("x")));
        std::thread::sleep(Duration::from_millis(30));
        assert!(!t.is_finished(), "send completed despite block fault");
        net.clear(h);
        t.join().unwrap().unwrap();
    }

    #[test]
    fn block_send_does_not_affect_other_links() {
        let net = SimNet::for_tests();
        let mb = net.register("c");
        let _h = net.inject(LinkRule::link("a", "b", NetFault::BlockSend));
        net.send("a", "c", msg("ok")).unwrap();
        assert!(mb.recv_timeout(Duration::from_millis(200)).is_some());
    }

    #[test]
    fn reregistering_replaces_mailbox() {
        let net = SimNet::for_tests();
        let _old = net.register("b");
        let new = net.register("b");
        net.send("a", "b", msg("x")).unwrap();
        assert!(new.recv_timeout(Duration::from_millis(200)).is_some());
    }

    #[test]
    fn per_op_stats_count_calls_and_faults() {
        let net = SimNet::for_tests();
        let mb = net.register("b");
        net.send("a", "b", msg("clean")).unwrap();
        assert!(mb.recv_timeout(Duration::from_millis(200)).is_some());
        let clean = net.op_stats();
        assert_eq!(
            clean.send,
            OpStats {
                calls: 1,
                faults: 0
            }
        );
        assert_eq!(clean.recv.calls, 1);
        assert_eq!(clean.recv.faults, 0);

        let h = net.inject(LinkRule::link("a", "b", NetFault::Drop));
        net.send("a", "b", msg("lost")).unwrap();
        net.clear(h);
        let after = net.op_stats();
        assert_eq!(
            after.send,
            OpStats {
                calls: 2,
                faults: 1
            }
        );
    }

    #[test]
    fn mailbox_recv_works_under_a_sim_clock() {
        use crate::vclock::SimClock;
        use wdog_base::spawn_on;

        let clock = SimClock::shared();
        let net = SimNet::new(LatencyModel::zero(), Arc::clone(&clock));
        let mb = net.register("b");
        let main = clock.actor("main").adopt();
        let net2 = net.clone();
        let c2 = Arc::clone(&clock);
        let rx = spawn_on(&clock, "rx", move || {
            // First receive waits (virtually) for the delayed send; the
            // second times out at an exact virtual instant.
            let m = mb.recv_timeout(Duration::from_secs(2))?;
            let t_recv = c2.now_millis();
            assert!(mb.recv_timeout(Duration::from_millis(100)).is_none());
            Some((m, t_recv, c2.now_millis()))
        });
        clock.sleep(Duration::from_millis(500));
        net2.send("a", "b", msg("late")).unwrap();
        main.retire();
        let (m, t_recv, t_timeout) = rx.join().unwrap().expect("message delivered");
        assert_eq!(m.payload, msg("late"));
        assert_eq!(t_recv, 500, "received the moment the send landed");
        assert_eq!(t_timeout, 600, "timeout measured in virtual time");
    }
}
