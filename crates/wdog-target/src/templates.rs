//! Probe templates: the bodies a target binds to its IR resources with
//! [`OpTable::bind`](wdog_gen::interp::OpTable::bind), one per op kind.
//! Each runs the *real* reduced operation on an isolated copy of its
//! resource: an append log, a CRC-framed file set, a labelled lock, a link.
//! A write or send carries the checker's first required bytes field, else
//! its first required string field.

use std::sync::Arc;
use std::time::Duration;

use simio::disk::SimDisk;
use simio::net::SimNet;
use wdog_base::checksum::crc32;
use wdog_base::error::{BaseError, BaseResult};
use wdog_core::prelude::*;
use wdog_gen::interp::ResourceImpl;
use wdog_gen::ir::OpKind;

/// The bodies one template binds to its resource, by op kind.
pub type Template = Vec<(OpKind, ResourceImpl)>;

/// Probe files are reset once they grow past this.
const PROBE_FILE_CAP: usize = 64 * 1024;

/// How long a lock probe waits for its lock.
const LOCK_WAIT: Duration = Duration::from_millis(500);

/// The probe payload: the first bytes field in `fields`, else the first
/// string field, else `b"probe"`.
fn payload<'a>(snap: &'a ContextSnapshot, fields: &[String]) -> &'a [u8] {
    let values = || fields.iter().filter_map(|f| snap.get(f));
    let bytes = values().find_map(CtxValue::as_bytes);
    bytes
        .or_else(|| values().find_map(|v| Some(v.as_str()?.as_bytes())))
        .unwrap_or(b"probe")
}

/// Fsyncs each of `paths`, first creating a missing one holding `seed`.
/// It creates by appending, so bytes another prober (a recovery verifier,
/// another checker) writes to the same path in the meantime survive.
fn sync(disk: &Arc<SimDisk>, paths: Vec<String>, seed: &'static [u8]) -> ResourceImpl {
    let disk = Arc::clone(disk);
    Arc::new(move |_, _| {
        for path in &paths {
            if !disk.exists(path) {
                disk.append(path, seed)?;
            }
            disk.fsync(path)?;
        }
        Ok(())
    })
}

/// Append log (`wal/`, `txnlog/`): writes append the payload to `probe`,
/// which shares the log's volume so its faults strike it.
pub fn append_log(disk: &Arc<SimDisk>, probe: &'static str) -> Template {
    let d = Arc::clone(disk);
    let write: ResourceImpl = Arc::new(move |snap, fields| {
        // Reset the probe file when it grows, keeping watchdog I/O bounded.
        if d.len(probe).is_ok_and(|l| l > PROBE_FILE_CAP) {
            d.write_all(probe, &[])?;
        }
        d.append(probe, payload(snap, fields))
    });
    vec![
        (OpKind::DiskWrite, write),
        (OpKind::DiskSync, sync(disk, vec![probe.to_owned()], b"")),
    ]
}

/// CRC-framed file set (`sst/`, `blocks/`): writes frame the payload as
/// `crc32 ‖ payload` into every probe path and read each back through
/// `validate`, catching silent write corruption; reads run `live`, the
/// validator of the resource's live files.
pub fn framed_files<V, L>(
    disk: &Arc<SimDisk>,
    probes: Vec<String>,
    validate: V,
    live: L,
) -> Template
where
    V: Fn(&SimDisk, &str) -> BaseResult<()> + Send + Sync + 'static,
    L: Fn(&ContextSnapshot) -> BaseResult<()> + Send + Sync + 'static,
{
    let d = Arc::clone(disk);
    let paths = probes.clone();
    let write: ResourceImpl = Arc::new(move |snap, fields| {
        let data = payload(snap, fields);
        let mut file = Vec::with_capacity(4 + data.len());
        file.extend_from_slice(&crc32(data).to_le_bytes());
        file.extend_from_slice(data);
        for path in &paths {
            d.write_all(path, &file)?;
            validate(&d, path)?;
        }
        Ok(())
    });
    vec![
        (OpKind::DiskWrite, write),
        (OpKind::DiskSync, sync(disk, probes, &[0; 4])),
        (OpKind::DiskRead, Arc::new(move |snap, _| live(snap))),
    ]
}

/// The string in context field `field`, if any.
fn field_str<'a>(snap: &'a ContextSnapshot, field: &str) -> Option<&'a str> {
    snap.get(field)?.as_str()
}

/// Labelled lock: `try_lock(key, wait)` tries the live lock for 500 ms,
/// and a failure is a `Timeout` naming `label`. Keyed by a context field,
/// it probes the lock that field names (`"{label} for {key}"`), and
/// nothing while the field is absent.
pub fn labelled_lock<F>(label: &str, key_field: Option<&'static str>, try_lock: F) -> Template
where
    F: Fn(&str, Duration) -> bool + Send + Sync + 'static,
{
    let label = label.to_owned();
    let body: ResourceImpl = Arc::new(move |snap, _| {
        let key = match key_field.map(|f| field_str(snap, f)) {
            Some(None) => return Ok(()), // Keyed by an absent field.
            key => key.flatten(),
        };
        if try_lock(key.unwrap_or(""), LOCK_WAIT) {
            return Ok(());
        }
        Err(BaseError::Timeout {
            what: key.map_or_else(|| label.clone(), |k| format!("{label} for {k}")),
            after_ms: LOCK_WAIT.as_millis() as u64,
        })
    });
    vec![(OpKind::LockAcquire, body)]
}

/// Where a link probe goes.
pub enum Peers {
    /// Each `(from, to)` pair, in order.
    Pairs(Vec<(String, String)>),
    /// From this address to the one in this context field; nowhere while
    /// the field is absent.
    Field(String, &'static str),
}

/// Link: sends `frame(payload)` on `net` to each of `peers`, stopping at
/// the first failed send. A target without a network sends nothing.
pub fn link<F>(net: Option<SimNet>, peers: Peers, frame: F) -> Template
where
    F: Fn(&[u8]) -> Vec<u8> + Send + Sync + 'static,
{
    let body: ResourceImpl = Arc::new(move |snap, fields| {
        let Some(net) = &net else {
            return Ok(());
        };
        let send = |from: &str, to: &str| net.send(from, to, frame(payload(snap, fields)).into());
        match &peers {
            Peers::Pairs(pairs) => pairs.iter().try_for_each(|(from, to)| send(from, to)),
            Peers::Field(from, field) => field_str(snap, field).map_or(Ok(()), |to| send(from, to)),
        }
    });
    vec![(OpKind::NetSend, body)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use simio::disk::{DiskFault, DiskOpKind, FaultRule};
    use wdog_base::clock::RealClock;
    use wdog_base::sync::ClockedMutex;

    fn snap(fields: Vec<(&str, CtxValue)>) -> ContextSnapshot {
        ContextSnapshot {
            fields: fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
            version: 1,
            age: Duration::ZERO,
        }
    }

    fn body(template: &Template, kind: OpKind) -> &ResourceImpl {
        &template
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("kind bound")
            .1
    }

    #[test]
    fn payload_takes_the_bytes_field_before_the_string_field() {
        let s = snap(vec![
            ("volume", CtxValue::Str("vol0".into())),
            ("block_data", CtxValue::Bytes(b"data".to_vec())),
            ("n", CtxValue::U64(3)),
        ]);
        let fields = ["block_data".to_owned(), "n".to_owned(), "volume".to_owned()];
        assert_eq!(payload(&s, &fields), b"data");
        assert_eq!(payload(&s, &fields[1..]), b"vol0");
        assert_eq!(payload(&s, &fields[1..2]), b"probe");
    }

    #[test]
    fn log_template_surfaces_probe_faults_and_resets_past_the_cap() {
        let disk = SimDisk::for_tests();
        let log = append_log(&disk, "wal/__wd_probe");
        let (write, sync) = (body(&log, OpKind::DiskWrite), body(&log, OpKind::DiskSync));
        let fields = ["payload".to_owned()];
        let big = snap(vec![("payload", CtxValue::Bytes(vec![7; 40 * 1024]))]);
        write(&big, &fields).unwrap();
        write(&big, &fields).unwrap();
        assert_eq!(disk.len("wal/__wd_probe").unwrap(), 80 * 1024);
        // Past 64 KiB the next append starts from an empty file.
        write(&big, &fields).unwrap();
        assert_eq!(disk.len("wal/__wd_probe").unwrap(), 40 * 1024);
        sync(&big, &fields).unwrap();

        disk.inject(FaultRule::scoped(
            "wal/",
            vec![DiskOpKind::Write, DiskOpKind::Sync],
            DiskFault::Error {
                message: "bad sector".into(),
            },
        ));
        let err = write(&big, &fields).unwrap_err();
        assert!(
            matches!(err, BaseError::Io(ref m) if m.contains("bad sector")),
            "{err}"
        );
        assert!(sync(&big, &fields).is_err());
    }

    #[test]
    fn framed_template_reads_back_corruption() {
        let disk = SimDisk::for_tests();
        let validate = |d: &SimDisk, path: &str| {
            let raw = d.read(path)?;
            match crc32(&raw[4..]).to_le_bytes() == raw[..4] {
                true => Ok(()),
                false => Err(BaseError::Corruption(format!("{path}: checksum mismatch"))),
            }
        };
        let probes = vec!["sst/a/__wd_probe".to_owned(), "sst/b/__wd_probe".to_owned()];
        let framed = framed_files(&disk, probes, validate, |_| Ok(()));
        let write = body(&framed, OpKind::DiskWrite);
        let fields = ["sst_path".to_owned()];
        let s = snap(vec![("sst_path", CtxValue::Str("sst/00000001".into()))]);
        write(&s, &fields).unwrap();
        assert_eq!(
            &disk.read("sst/b/__wd_probe").unwrap()[4..],
            b"sst/00000001"
        );

        disk.inject(FaultRule::scoped(
            "sst/b/",
            vec![DiskOpKind::Write],
            DiskFault::CorruptWrites,
        ));
        let err = write(&s, &fields).unwrap_err();
        assert!(
            matches!(err, BaseError::Corruption(ref m) if m.starts_with("sst/b/")),
            "{err}"
        );

        // A sync creates a missing probe file holding `0u32`.
        let fresh = SimDisk::for_tests();
        let framed = framed_files(&fresh, vec!["x/__wd_probe".into()], validate, |_| Ok(()));
        body(&framed, OpKind::DiskSync)(&s, &fields).unwrap();
        assert_eq!(fresh.read("x/__wd_probe").unwrap(), [0; 4]);
    }

    #[test]
    fn lock_template_times_out_with_its_label_while_held() {
        let lock = Arc::new(ClockedMutex::new(&RealClock::shared(), ()));
        let l = Arc::clone(&lock);
        let wal = labelled_lock("wal lock acquisition", None, move |_, wait| {
            l.try_lock_for(wait).is_some()
        });
        let keyed = labelled_lock("znode lock", Some("node_path"), |_, _| false);
        let (wal, keyed) = (
            body(&wal, OpKind::LockAcquire),
            body(&keyed, OpKind::LockAcquire),
        );
        let s = snap(vec![("node_path", CtxValue::Str("/app".into()))]);
        wal(&s, &[]).unwrap();
        let guard = lock.lock();
        let err = wal(&s, &[]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "timeout after 500 ms: wal lock acquisition"
        );
        drop(guard);
        let err = keyed(&s, &[]).unwrap_err();
        assert_eq!(err.to_string(), "timeout after 500 ms: znode lock for /app");
        // Keyed by an absent field, there is nothing to probe.
        keyed(&snap(vec![]), &[]).unwrap();
    }

    #[test]
    fn link_template_sends_the_frame_to_each_peer() {
        let net = SimNet::for_tests();
        let (a, b) = (net.register("a"), net.register("b"));
        let to_both = link(
            Some(net.clone()),
            Peers::Pairs(vec![("src".into(), "a".into()), ("src".into(), "b".into())]),
            |p| [b"__wd__:", p].concat(),
        );
        let keyed = link(Some(net), Peers::Field("src".into(), "sync_target"), |_| {
            b"__wd__".to_vec()
        });
        let fields = ["op_payload".to_owned(), "sync_target".to_owned()];
        let s = snap(vec![
            ("op_payload", CtxValue::Bytes(b"op".to_vec())),
            ("sync_target", CtxValue::Str("b".into())),
        ]);
        body(&to_both, OpKind::NetSend)(&s, &fields).unwrap();
        body(&keyed, OpKind::NetSend)(&s, &fields).unwrap();
        let wait = Duration::from_secs(1);
        assert_eq!(&a.recv_timeout(wait).unwrap().payload[..], b"__wd__:op");
        assert_eq!(&b.recv_timeout(wait).unwrap().payload[..], b"__wd__:op");
        assert_eq!(&b.recv_timeout(wait).unwrap().payload[..], b"__wd__");
    }
}
