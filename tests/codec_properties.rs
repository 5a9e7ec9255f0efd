//! Property-based tests over kvs's record codec: requests and SSTable
//! payloads are written and read without the `serde_json` value tree, and
//! must stay byte- and result-equal to what the shim writes and reads.
//!
//! Keys and values are drawn from an alphabet of the characters the shim
//! escapes (quotes, backslashes, every short escape, `\u00xx` control
//! bytes), non-ASCII characters and JSON punctuation, with empty strings
//! included.

use proptest::prelude::*;

use kvs::api::Request;
use kvs::sstable::{read_sstable, write_sstable};
use simio::disk::SimDisk;
use wdog_base::checksum::crc32;
use wdog_base::error::BaseError;

const ALPHABET: &[char] = &[
    'a', 'k', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1}',
    '\u{1f}', '\u{7f}', 'é', '€', '\u{2028}', '😀', ':', ',', '[', ']', '{', '}',
];

fn tricky_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..ALPHABET.len(), 0..8)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

fn request() -> impl Strategy<Value = Request> {
    (0..4usize, tricky_string(), tricky_string()).prop_map(|(variant, key, value)| match variant {
        0 => Request::Get { key },
        1 => Request::Set { key, value },
        2 => Request::Append { key, value },
        _ => Request::Del { key },
    })
}

fn sorted_entries() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec((tricky_string(), tricky_string()), 0..12).prop_map(|mut entries| {
        entries.sort();
        entries.dedup_by(|a, b| a.0 == b.0);
        entries
    })
}

/// What `Request::decode` must return for `bytes`: the shim's result, its
/// error wrapped as corruption.
fn shim_request(bytes: &[u8]) -> Result<Request, String> {
    serde_json::from_slice(bytes).map_err(|e| format!("undecodable request: {e}"))
}

fn kvs_request(bytes: &[u8]) -> Result<Request, String> {
    Request::decode(bytes).map_err(|e| match e {
        BaseError::Corruption(msg) => msg,
        other => panic!("decode failed with a non-corruption error: {other:?}"),
    })
}

/// Writes `payload` as an SSTable file with a valid checksum.
fn put_table(disk: &SimDisk, path: &str, payload: &[u8]) {
    let mut file = crc32(payload).to_le_bytes().to_vec();
    file.extend_from_slice(payload);
    disk.write_all(path, &file).unwrap();
}

fn shim_table(path: &str, payload: &[u8]) -> Result<Vec<(String, String)>, String> {
    serde_json::from_slice(payload).map_err(|e| format!("{path}: undecodable sstable: {e}"))
}

fn kvs_table(disk: &SimDisk, path: &str) -> Result<Vec<(String, String)>, String> {
    read_sstable(disk, path).map_err(|e| match e {
        BaseError::Corruption(msg) => msg,
        other => panic!("read failed with a non-corruption error: {other:?}"),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `encode` writes the shim's bytes, and `decode` reads the shim's
    /// compact and pretty output to the shim's result.
    #[test]
    fn request_codec_matches_the_shim(req in request()) {
        let shim = serde_json::to_vec(&req).unwrap();
        prop_assert_eq!(req.encode(), shim.clone());
        prop_assert_eq!(kvs_request(&shim), Ok(req.clone()));
        let pretty = serde_json::to_string_pretty(&req).unwrap();
        prop_assert_eq!(kvs_request(pretty.as_bytes()), shim_request(pretty.as_bytes()));
    }

    /// Every strict prefix of an encoded request fails as corruption, with
    /// the shim's error, and so does any single-byte change the shim
    /// rejects; a change the shim accepts decodes to the shim's request.
    #[test]
    fn damaged_requests_decode_as_the_shim_decodes_them(
        req in request(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let bytes = req.encode();
        for len in 0..bytes.len() {
            let cut = &bytes[..len];
            prop_assert!(kvs_request(cut).is_err());
            prop_assert_eq!(kvs_request(cut), shim_request(cut));
        }
        let mut changed = bytes.clone();
        changed[at % bytes.len()] = byte;
        prop_assert_eq!(kvs_request(&changed), shim_request(&changed));
    }

    /// A written SSTable is the checksum of the shim's encoding followed by
    /// that encoding, and reads back to the shim's result.
    #[test]
    fn sstable_codec_matches_the_shim(entries in sorted_entries()) {
        let disk = SimDisk::for_tests();
        write_sstable(&disk, "sst/1", &entries).unwrap();
        let raw = disk.read("sst/1").unwrap();
        let shim = serde_json::to_vec(&entries).unwrap();
        prop_assert_eq!(&raw[4..], &shim[..]);
        prop_assert_eq!(raw[..4].to_vec(), crc32(&shim).to_le_bytes().to_vec());
        prop_assert_eq!(kvs_table(&disk, "sst/1"), Ok(entries.clone()));
        let pretty = serde_json::to_string_pretty(&entries).unwrap();
        put_table(&disk, "sst/2", pretty.as_bytes());
        prop_assert_eq!(kvs_table(&disk, "sst/2"), shim_table("sst/2", pretty.as_bytes()));
    }

    /// Truncated and damaged payloads under a valid checksum read as the
    /// shim reads them: corruption with the shim's error, or the shim's
    /// entries.
    #[test]
    fn damaged_sstables_decode_as_the_shim_decodes_them(
        entries in sorted_entries(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let disk = SimDisk::for_tests();
        let payload = serde_json::to_vec(&entries).unwrap();
        for len in 0..payload.len() {
            put_table(&disk, "sst/t", &payload[..len]);
            prop_assert!(kvs_table(&disk, "sst/t").is_err());
            prop_assert_eq!(kvs_table(&disk, "sst/t"), shim_table("sst/t", &payload[..len]));
        }
        let mut changed = payload.clone();
        changed[at % payload.len()] = byte;
        put_table(&disk, "sst/c", &changed);
        prop_assert_eq!(kvs_table(&disk, "sst/c"), shim_table("sst/c", &changed));
    }
}

#[test]
fn garbage_fails_as_corruption() {
    for garbage in [
        &b""[..],
        b"\xFF\xFEnot json",
        b"{\"Get\":{\"key\":\"k\"}}x",
        b"{\"Put\":{\"key\":\"k\"}}",
        b"{\"Set\":{\"key\":\"k\"}}",
        b"[[\"a\",\"b\"]]",
    ] {
        assert!(kvs_request(garbage).is_err(), "{garbage:?}");
        assert_eq!(kvs_request(garbage), shim_request(garbage));
    }
    let disk = SimDisk::for_tests();
    for garbage in [
        &b"\xFF\xFE"[..],
        b"[[\"a\"]]",
        b"[[\"a\",\"b\"],]",
        b"[[\"a\",\"b\"]] ",
        b"{}",
    ] {
        put_table(&disk, "sst/g", garbage);
        assert_eq!(kvs_table(&disk, "sst/g"), shim_table("sst/g", garbage));
    }
}
