//! Typed testbeds for the request workloads.
//!
//! Each boots its system exactly as that system's `WatchdogTarget::start_on`
//! does (same substrates, latency models and config), but keeps the typed
//! handle: the trait's `load_surface` closure returns `BaseResult<()>` and
//! throws every response away, and a benchmark that cannot see a response
//! cannot check it. Clients here issue the same request mix as the load
//! surface and compare what comes back against what they wrote.

use std::sync::Arc;
use std::time::Duration;

use kvs::config::KvsConfig;
use kvs::replication::Replica;
use kvs::server::{KvsClient, KvsServer};
use miniblock::datanode::{DataNode, DataNodeConfig};
use miniblock::namenode::NameNode;
use minizk::quorum::{Cluster, ClusterConfig};
use simio::disk::SimDisk;
use simio::net::SimNet;
use simio::LatencyModel;
use wdog_base::clock::RealClock;
use wdog_base::rng::derive_seed;
use wdog_core::WatchdogDriver;
use wdog_target::{WatchdogTarget, WdOptions};

use crate::tickets::Ticket;

/// A failed boot, request or value check, as text for the report.
pub type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Which system a testbed boots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The replicated LSM store.
    Kvs,
    /// The coordination service (leader + two followers).
    Minizk,
    /// The block store (DataNode + NameNode).
    Miniblock,
}

impl Kind {
    /// The target's registered name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Kvs => "kvs",
            Kind::Minizk => "minizk",
            Kind::Miniblock => "miniblock",
        }
    }

    /// The trait-level target, for the campaigns that take one.
    pub fn target(self) -> Box<dyn WatchdogTarget> {
        match self {
            Kind::Kvs => Box::new(kvs::target::KvsTarget),
            Kind::Minizk => Box::new(minizk::target::ZkTarget),
            Kind::Miniblock => Box::new(miniblock::target::DnTarget),
        }
    }
}

enum System {
    Kvs {
        server: Arc<KvsServer>,
        replica: Replica,
    },
    Minizk(Arc<Cluster>),
    Miniblock {
        datanode: Arc<DataNode>,
        namenode: NameNode,
    },
}

/// One booted system on fresh simulated substrates.
pub struct Testbed {
    disk: Arc<SimDisk>,
    net: SimNet,
    system: System,
}

impl Testbed {
    /// Boots `kind` on the real clock.
    pub fn boot(kind: Kind, seed: u64) -> Res<Self> {
        let clock = RealClock::shared();
        let net = SimNet::new(
            LatencyModel::new(30.0, derive_seed(seed, "net")),
            Arc::clone(&clock),
        );
        let disk = SimDisk::new(
            1 << 30,
            LatencyModel::new(20.0, derive_seed(seed, "disk")),
            Arc::clone(&clock),
        );
        let system = match kind {
            Kind::Kvs => {
                let replica = Replica::spawn(net.clone(), "kvs-replica");
                let server = KvsServer::start(
                    KvsConfig {
                        client_timeout: Duration::from_millis(400),
                        flush_interval: Duration::from_millis(30),
                        compaction_interval: Duration::from_millis(30),
                        compaction_trigger: 3,
                        ..KvsConfig::replicated()
                    },
                    clock,
                    Arc::clone(&disk),
                    Some(net.clone()),
                )
                .map_err(err)?;
                System::Kvs {
                    server: Arc::new(server),
                    replica,
                }
            }
            Kind::Minizk => {
                let cluster = Cluster::start(
                    ClusterConfig {
                        client_timeout: Duration::from_millis(500),
                        ..ClusterConfig::default()
                    },
                    clock,
                    Arc::clone(&disk),
                    net.clone(),
                )
                .map_err(err)?;
                cluster.create("/wl", b"root").map_err(err)?;
                System::Minizk(Arc::new(cluster))
            }
            Kind::Miniblock => {
                let namenode =
                    NameNode::start(net.clone(), Arc::clone(&clock), Duration::from_secs(1));
                let datanode = DataNode::start(
                    DataNodeConfig::default(),
                    clock,
                    Arc::clone(&disk),
                    net.clone(),
                )
                .map_err(err)?;
                System::Miniblock {
                    datanode: Arc::new(datanode),
                    namenode,
                }
            }
        };
        Ok(Self { disk, net, system })
    }

    /// Arms or disarms every hook site of the system.
    pub fn set_hooks_enabled(&self, on: bool) {
        match &self.system {
            System::Kvs { server, .. } => server.hooks().set_enabled(on),
            System::Minizk(cluster) => cluster.hooks().set_enabled(on),
            System::Miniblock { datanode, .. } => datanode.hooks().set_enabled(on),
        }
    }

    /// Journals every context publish of the system into `recorder`.
    pub fn attach_trace(&self, recorder: &Arc<wdog_core::TraceRecorder>) {
        let r = Arc::clone(recorder);
        match &self.system {
            System::Kvs { server, .. } => server.hooks().attach_trace(r),
            System::Minizk(cluster) => cluster.hooks().attach_trace(r),
            System::Miniblock { datanode, .. } => datanode.hooks().attach_trace(r),
        }
    }

    /// Assembles the system's watchdog (not yet started).
    pub fn build_watchdog(&self, opts: &WdOptions) -> Res<WatchdogDriver> {
        match &self.system {
            System::Kvs { server, .. } => kvs::wd::build_watchdog(server, opts),
            System::Minizk(cluster) => minizk::wd::build_watchdog(cluster, opts),
            System::Miniblock { datanode, .. } => miniblock::wd::build_watchdog(datanode, opts),
        }
        .map(|(driver, _plan)| driver)
        .map_err(err)
    }

    /// Instantiates `plan`'s mimic checkers over the system's real-op table;
    /// returns how many there are.
    pub fn instantiate_mimics(&self, plan: &wdog_gen::WatchdogPlan) -> Res<usize> {
        let clock = RealClock::shared();
        let (table, reader) = match &self.system {
            System::Kvs { server, .. } => (kvs::wd::op_table(server), server.context().reader()),
            System::Minizk(cluster) => (minizk::wd::op_table(cluster), cluster.context().reader()),
            System::Miniblock { datanode, .. } => (
                miniblock::wd::op_table(datanode),
                datanode.context().reader(),
            ),
        };
        let opts = wdog_gen::interp::InstantiateOptions::default();
        wdog_gen::interp::instantiate(plan, &table, &reader, &clock, &opts)
            .map(|checkers| checkers.len())
            .map_err(err)
    }

    /// `(disk ops, net ops)` the substrates have served so far.
    pub fn io_ops(&self) -> (u64, u64) {
        let disk: u64 = self
            .disk
            .op_stats()
            .rows()
            .iter()
            .map(|(_, s)| s.calls)
            .sum();
        let net: u64 = self
            .net
            .op_stats()
            .rows()
            .iter()
            .map(|(_, s)| s.calls)
            .sum();
        (disk, net)
    }

    /// A client for thread `id`; each thread owns one.
    pub fn client(&self, id: usize) -> Client {
        let handle = match &self.system {
            System::Kvs { server, .. } => Handle::Kvs(server.client()),
            System::Minizk(cluster) => Handle::Minizk(Arc::clone(cluster)),
            System::Miniblock { datanode, .. } => Handle::Miniblock(Arc::clone(datanode)),
        };
        Client {
            handle,
            id,
            names: Vec::new(),
            filled: Vec::new(),
            tracked: None,
            blocks: Vec::new(),
        }
    }

    /// Stops the system's threads and waits for them.
    pub fn teardown(self) {
        match self.system {
            System::Kvs { server, replica } => {
                drop(replica);
                drop(server);
            }
            System::Minizk(cluster) => {
                cluster.crash();
                drop(cluster);
            }
            System::Miniblock {
                datanode,
                mut namenode,
            } => {
                datanode.crash();
                namenode.stop();
                drop(datanode);
            }
        }
    }
}

enum Handle {
    Kvs(KvsClient),
    Minizk(Arc<Cluster>),
    Miniblock(Arc<DataNode>),
}

/// How many recent block ids a miniblock client reads back from.
const RECENT_BLOCKS: usize = 512;

/// One client thread's connection, plus what it needs to check responses:
/// the value it expects under the key it wrote last (kvs, minizk) or the
/// payloads of the blocks it wrote recently (miniblock).
pub struct Client {
    handle: Handle,
    id: usize,
    names: Vec<String>,
    /// The value every key was filled with; empty unless `prepare` filled.
    filled: Vec<String>,
    /// `(key, expected value)`; `None` value means "must be absent".
    tracked: Option<(usize, Option<String>)>,
    /// `(block id, payload discriminator)`, oldest first.
    blocks: Vec<(u64, u32)>,
}

fn preload_value(key: usize) -> String {
    format!("p{key}")
}

fn block_payload(value: u32) -> String {
    format!("block-payload-{value}")
}

impl Client {
    /// Prepares the key space `[0, keys)`: key names are built once, minizk
    /// nodes are created, and with `fill` every key of this client's residue
    /// class (`clients` classes) gets a known value, so that reads can be
    /// checked one by one.
    pub fn prepare(&mut self, keys: usize, clients: usize, fill: bool) -> Res<()> {
        let mine = (0..keys).filter(|k| k % clients == self.id);
        match &self.handle {
            Handle::Kvs(c) => {
                self.names = (0..keys).map(|k| format!("wl-key-{k}")).collect();
                if fill {
                    self.filled = (0..keys).map(preload_value).collect();
                    for k in mine {
                        c.set(&self.names[k], &self.filled[k]).map_err(err)?;
                    }
                }
            }
            Handle::Minizk(c) => {
                self.names = (0..keys).map(|k| format!("/wl/n{k}")).collect();
                for k in mine {
                    c.create(&self.names[k], preload_value(k).as_bytes())
                        .map_err(err)?;
                }
            }
            Handle::Miniblock(_) => {}
        }
        Ok(())
    }

    /// Issues one request and checks the response where the expected value
    /// is known.
    pub fn request(&mut self, t: &Ticket) -> Res<()> {
        match &self.handle {
            Handle::Kvs(c) => {
                let key = &self.names[t.key];
                if t.write {
                    match t.roll {
                        0 => {
                            c.del(key).map_err(err)?;
                            self.tracked = Some((t.key, None));
                        }
                        1 | 2 => {
                            c.append(key, "x").map_err(err)?;
                            // Append creates an absent key; a key this
                            // client is not tracking stays untracked.
                            match &mut self.tracked {
                                Some((k, Some(v))) if *k == t.key => v.push('x'),
                                Some((k, absent)) if *k == t.key => *absent = Some("x".into()),
                                _ => {}
                            }
                        }
                        _ => {
                            let value = format!("v{}", t.value);
                            c.set(key, &value).map_err(err)?;
                            self.tracked = Some((t.key, Some(value)));
                        }
                    }
                } else {
                    let got = c.get(key).map_err(err)?;
                    // A read-only stream over filled keys must read the fill.
                    if let (Some(want), None) = (self.filled.get(t.key), &self.tracked) {
                        if got.as_deref() != Some(want.as_str()) {
                            return Err(format!("kvs get {key}: got {got:?}"));
                        }
                    }
                }
            }
            Handle::Minizk(c) => {
                let path = &self.names[t.key];
                if t.write {
                    let value = format!("v{}", t.value);
                    c.set_data(path, value.as_bytes()).map_err(err)?;
                    self.tracked = Some((t.key, Some(value)));
                } else {
                    c.get_data(path).map_err(err)?;
                }
            }
            Handle::Miniblock(dn) => {
                if t.write || self.blocks.is_empty() {
                    let id = dn
                        .write_block(block_payload(t.value).as_bytes())
                        .map_err(err)?;
                    if self.blocks.len() == RECENT_BLOCKS {
                        self.blocks.remove(0);
                    }
                    self.blocks.push((id, t.value));
                } else {
                    let (id, value) = self.blocks[t.key % self.blocks.len()];
                    let got = dn.read_block(id).map_err(err)?;
                    if got != block_payload(value).as_bytes() {
                        return Err(format!("miniblock block {id}: wrong payload"));
                    }
                }
            }
        }
        Ok(())
    }

    /// The end-of-block check: the last value this client wrote is what the
    /// system now returns for it.
    pub fn verify(&self) -> Res<()> {
        match (&self.handle, &self.tracked) {
            (Handle::Kvs(c), Some((k, want))) => {
                let got = c.get(&self.names[*k]).map_err(err)?;
                if got != *want {
                    return Err(format!(
                        "kvs {}: wrote {want:?}, read {got:?}",
                        self.names[*k]
                    ));
                }
            }
            (Handle::Minizk(c), Some((k, Some(want)))) => {
                let got = c.get_data(&self.names[*k]).map_err(err)?;
                if got != want.as_bytes() {
                    return Err(format!(
                        "minizk {}: wrote {want}, read {got:?}",
                        self.names[*k]
                    ));
                }
            }
            (Handle::Miniblock(dn), _) => {
                if let Some(&(id, value)) = self.blocks.last() {
                    let got = dn.read_block(id).map_err(err)?;
                    if got != block_payload(value).as_bytes() {
                        return Err(format!("miniblock block {id}: wrong payload at end"));
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tickets::TicketGen;

    fn drive(kind: Kind, write_fraction: f64, fill: bool) {
        let tb = Testbed::boot(kind, 5).unwrap();
        let mut c = tb.client(0);
        c.prepare(64, 1, fill).unwrap();
        let mut g = TicketGen::new(9, 0, 1, 64, write_fraction);
        for _ in 0..300 {
            c.request(&g.next_ticket()).unwrap();
        }
        c.verify().unwrap();
        let (disk, _net) = tb.io_ops();
        assert!(disk > 0 || write_fraction == 0.0);
        drop(c);
        tb.teardown();
    }

    #[test]
    fn every_system_serves_checked_requests() {
        drive(Kind::Kvs, 0.9, false);
        drive(Kind::Kvs, 0.0, true);
        drive(Kind::Minizk, 1.0, false);
        drive(Kind::Miniblock, 0.5, false);
    }

    #[test]
    fn a_wrong_value_fails_the_check() {
        let tb = Testbed::boot(Kind::Kvs, 6).unwrap();
        let mut c = tb.client(0);
        c.prepare(8, 1, true).unwrap();
        // Overwrite behind the client's back: its next checked read fails.
        if let Handle::Kvs(k) = &c.handle {
            k.set("wl-key-3", "tampered").unwrap();
        }
        let t = Ticket {
            key: 3,
            write: false,
            roll: 0,
            value: 0,
        };
        assert!(c.request(&t).is_err());
        drop(c);
        tb.teardown();
    }
}
