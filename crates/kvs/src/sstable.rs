//! Checksummed, sorted on-disk tables.
//!
//! An SSTable file is `[crc32: u32 LE][json entries]`: the payload is the
//! `serde_json` shim's encoding of the sorted `[(key, value)]` list, written
//! and read by the crate's record codec without building a value tree. The
//! checksum covers the entire payload, so silent bit rot injected at the
//! disk layer ([`simio::disk::DiskFault::CorruptWrites`]) is detectable by
//! any reader — which is exactly what the generated `read_sstable#read`
//! mimic op does on every watchdog cycle.
//!
//! Every table holds a full index snapshot without tombstones, and compaction
//! merges two tables as a union in which the newer one wins on equal keys.

use std::cmp::Ordering;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use simio::disk::SimDisk;

use wdog_base::checksum::crc32;

use crate::codec::{decode_entries, encode_entries};
use wdog_base::error::{BaseError, BaseResult};

/// Metadata describing one written SSTable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SstMeta {
    /// File path on the disk.
    pub path: String,
    /// Number of entries.
    pub entries: usize,
    /// Smallest key (empty string for an empty table).
    pub min_key: String,
    /// Largest key.
    pub max_key: String,
    /// Payload checksum.
    pub checksum: u32,
    /// File size in bytes.
    pub bytes: usize,
}

/// Writes `entries` (which must be sorted by key) as an SSTable at `path`.
// wdog: resource sst/
pub fn write_sstable(
    disk: &Arc<SimDisk>,
    path: &str,
    entries: &[(String, String)],
) -> BaseResult<SstMeta> {
    debug_assert!(
        entries.windows(2).all(|w| w[0].0 <= w[1].0),
        "sstable entries must be sorted"
    );
    let payload = encode_entries(entries);
    let sum = crc32(&payload);
    let mut file = Vec::with_capacity(4 + payload.len());
    file.extend_from_slice(&sum.to_le_bytes());
    file.extend_from_slice(&payload);
    disk.write_all(path, &file)?;
    disk.fsync(path)?;
    Ok(SstMeta {
        path: path.to_owned(),
        entries: entries.len(),
        min_key: entries.first().map(|(k, _)| k.clone()).unwrap_or_default(),
        max_key: entries.last().map(|(k, _)| k.clone()).unwrap_or_default(),
        checksum: sum,
        bytes: file.len(),
    })
}

/// Reads and validates the SSTable at `path`.
// wdog: resource sst/
pub fn read_sstable(disk: &SimDisk, path: &str) -> BaseResult<Vec<(String, String)>> {
    let raw = disk.read(path)?;
    if raw.len() < 4 {
        return Err(BaseError::Corruption(format!("{path}: truncated sstable")));
    }
    let expected = u32::from_le_bytes(raw[..4].try_into().unwrap());
    let payload = &raw[4..];
    if crc32(payload) != expected {
        return Err(BaseError::Corruption(format!(
            "{path}: sstable checksum mismatch"
        )));
    }
    decode_entries(payload)
        .map_err(|e| BaseError::Corruption(format!("{path}: undecodable sstable: {e}")))
}

/// Validates the checksum at `path` without materializing entries.
// wdog: resource sst/
pub fn validate_sstable(disk: &SimDisk, path: &str) -> BaseResult<()> {
    let raw = disk.read(path)?;
    if raw.len() < 4 {
        return Err(BaseError::Corruption(format!("{path}: truncated sstable")));
    }
    let expected = u32::from_le_bytes(raw[..4].try_into().unwrap());
    if crc32(&raw[4..]) != expected {
        return Err(BaseError::Corruption(format!(
            "{path}: sstable checksum mismatch"
        )));
    }
    Ok(())
}

/// Merges two sorted tables by moving their entries; `newer` wins on equal
/// keys.
pub fn merge_entries(
    older: Vec<(String, String)>,
    newer: Vec<(String, String)>,
) -> Vec<(String, String)> {
    let mut merged = Vec::with_capacity(older.len().max(newer.len()));
    let mut older = older.into_iter().peekable();
    let mut newer = newer.into_iter().peekable();
    loop {
        let from_newer = match (older.peek(), newer.peek()) {
            (Some((o, _)), Some((n, _))) => match o.cmp(n) {
                Ordering::Less => false,
                Ordering::Greater => true,
                Ordering::Equal => {
                    older.next();
                    true
                }
            },
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (None, None) => return merged,
        };
        merged.extend(if from_newer {
            newer.next()
        } else {
            older.next()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn write_read_roundtrip() {
        let disk = SimDisk::for_tests();
        let data = entries(&[("a", "1"), ("b", "2")]);
        let meta = write_sstable(&disk, "sst/1", &data).unwrap();
        assert_eq!(meta.entries, 2);
        assert_eq!(meta.min_key, "a");
        assert_eq!(meta.max_key, "b");
        assert_eq!(read_sstable(&disk, "sst/1").unwrap(), data);
        validate_sstable(&disk, "sst/1").unwrap();
    }

    #[test]
    fn empty_table_roundtrips() {
        let disk = SimDisk::for_tests();
        let meta = write_sstable(&disk, "sst/e", &[]).unwrap();
        assert_eq!(meta.entries, 0);
        assert_eq!(meta.min_key, "");
        assert!(read_sstable(&disk, "sst/e").unwrap().is_empty());
    }

    #[test]
    fn injected_write_corruption_caught_on_read() {
        let disk = SimDisk::for_tests();
        disk.inject(simio::disk::FaultRule::scoped(
            "sst/",
            vec![simio::disk::DiskOpKind::Write],
            simio::disk::DiskFault::CorruptWrites,
        ));
        write_sstable(&disk, "sst/1", &entries(&[("a", "1")])).unwrap();
        assert!(matches!(
            read_sstable(&disk, "sst/1"),
            Err(BaseError::Corruption(_))
        ));
        assert!(validate_sstable(&disk, "sst/1").is_err());
    }

    #[test]
    fn truncated_file_is_corruption() {
        let disk = SimDisk::for_tests();
        disk.write_all("sst/t", &[1, 2]).unwrap();
        assert!(matches!(
            read_sstable(&disk, "sst/t"),
            Err(BaseError::Corruption(_))
        ));
    }

    #[test]
    fn merge_later_tables_win() {
        let older = entries(&[("a", "old"), ("b", "old")]);
        let newer = entries(&[("b", "new"), ("c", "new")]);
        let merged = merge_entries(older, newer);
        assert_eq!(merged, entries(&[("a", "old"), ("b", "new"), ("c", "new")]));
    }

    #[test]
    fn merge_output_is_sorted() {
        let t1 = entries(&[("z", "1")]);
        let t2 = entries(&[("a", "2")]);
        let merged = merge_entries(t1, t2);
        assert!(merged.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
