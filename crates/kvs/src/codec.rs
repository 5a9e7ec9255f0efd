//! The record codec: request records and SSTable payloads as JSON, written
//! and read without the `serde_json` shim's `Value` tree.
//!
//! The bytes are the shim's, exactly: a [`Request`] is the externally tagged
//! object `{"Set":{"key":"k","value":"v"}}`, an entry list the array
//! `[["k","v"],...]`, and strings carry the shim's escapes. Decoding parses
//! that canonical form directly while no string holds an escape; any other
//! input goes to `serde_json::from_slice`, so results and errors are the
//! shim's in every case.

use serde_json::Error;

use crate::api::Request;

/// Appends `s` as a JSON string literal, escaped as the shim escapes it.
fn put_json_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut plain = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0c => b"\\f",
            0x00..=0x1f => b"\\u00",
            _ => continue,
        };
        out.extend_from_slice(&bytes[plain..i]);
        out.extend_from_slice(escape);
        if escape == b"\\u00" {
            out.extend_from_slice(&[HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]]);
        }
        plain = i + 1;
    }
    out.extend_from_slice(&bytes[plain..]);
    out.push(b'"');
}

/// Encodes `req` as the shim's `serde_json::to_vec(req)` would.
pub(crate) fn encode_request(req: &Request) -> Vec<u8> {
    let (tag, key, value): (&[u8], _, _) = match req {
        Request::Get { key } => (b"{\"Get\":{\"key\":", key, None),
        Request::Set { key, value } => (b"{\"Set\":{\"key\":", key, Some(value)),
        Request::Append { key, value } => (b"{\"Append\":{\"key\":", key, Some(value)),
        Request::Del { key } => (b"{\"Del\":{\"key\":", key, None),
    };
    let mut out = Vec::with_capacity(tag.len() + key.len() + value.map_or(0, String::len) + 16);
    out.extend_from_slice(tag);
    put_json_str(&mut out, key);
    if let Some(value) = value {
        out.extend_from_slice(b",\"value\":");
        put_json_str(&mut out, value);
    }
    out.extend_from_slice(b"}}");
    out
}

/// Encodes `entries` as the shim's `serde_json::to_vec(entries)` would.
pub(crate) fn encode_entries(entries: &[(String, String)]) -> Vec<u8> {
    let size: usize = entries.iter().map(|(k, v)| k.len() + v.len() + 8).sum();
    let mut out = Vec::with_capacity(size + 2);
    put_entries(&mut out, entries, usize::MAX);
    out
}

/// The first `limit` bytes of [`encode_entries`]`(entries)`, encoding only
/// the entries those bytes reach.
pub(crate) fn entries_prefix(entries: &[(String, String)], limit: usize) -> Vec<u8> {
    let mut out = Vec::new();
    put_entries(&mut out, entries, limit);
    out[..out.len().min(limit)].to_vec()
}

/// Writes the entry array into `out`, stopping once it holds `limit` bytes.
fn put_entries(out: &mut Vec<u8>, entries: &[(String, String)], limit: usize) {
    if entries.is_empty() {
        out.extend_from_slice(b"[]");
        return;
    }
    out.push(b'[');
    for (i, (k, v)) in entries.iter().enumerate() {
        if out.len() >= limit {
            return;
        }
        if i > 0 {
            out.push(b',');
        }
        out.push(b'[');
        put_json_str(out, k);
        out.push(b',');
        put_json_str(out, v);
        out.push(b']');
    }
    out.push(b']');
}

/// Decodes a request written by [`encode_request`] (or by the shim).
pub(crate) fn decode_request(bytes: &[u8]) -> Result<Request, Error> {
    match canonical_request(bytes) {
        Some(req) => Ok(req),
        None => serde_json::from_slice(bytes),
    }
}

/// Decodes an entry list written by [`encode_entries`] (or by the shim).
pub(crate) fn decode_entries(bytes: &[u8]) -> Result<Vec<(String, String)>, Error> {
    match canonical_entries(bytes) {
        Some(entries) => Ok(entries),
        None => serde_json::from_slice(bytes),
    }
}

/// Parses the exact bytes [`encode_request`] writes when no string needed
/// an escape; `None` for anything else.
fn canonical_request(bytes: &[u8]) -> Option<Request> {
    let mut scan = Scan { bytes, pos: 0 };
    scan.token(b"{\"")?;
    let tag = scan.plain_str()?;
    scan.token(b":{\"key\":\"")?;
    let key = scan.plain_str()?;
    let req = match tag.as_str() {
        "Get" => Request::Get { key },
        "Del" => Request::Del { key },
        "Set" | "Append" => {
            scan.token(b",\"value\":\"")?;
            let value = scan.plain_str()?;
            if tag == "Set" {
                Request::Set { key, value }
            } else {
                Request::Append { key, value }
            }
        }
        _ => return None,
    };
    scan.token(b"}}")?;
    scan.at_end().then_some(req)
}

/// Parses the exact bytes [`encode_entries`] writes when no string needed
/// an escape; `None` for anything else.
fn canonical_entries(bytes: &[u8]) -> Option<Vec<(String, String)>> {
    if bytes == b"[]" {
        return Some(Vec::new());
    }
    let mut scan = Scan { bytes, pos: 0 };
    let mut entries = Vec::new();
    scan.token(b"[")?;
    loop {
        scan.token(b"[\"")?;
        let k = scan.plain_str()?;
        scan.token(b",\"")?;
        let v = scan.plain_str()?;
        scan.token(b"]")?;
        entries.push((k, v));
        if scan.token(b",").is_none() {
            break;
        }
    }
    scan.token(b"]")?;
    scan.at_end().then_some(entries)
}

/// A cursor over canonical JSON.
struct Scan<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Scan<'_> {
    /// Consumes `literal` if the input continues with it.
    fn token(&mut self, literal: &[u8]) -> Option<()> {
        if !self.bytes[self.pos..].starts_with(literal) {
            return None;
        }
        self.pos += literal.len();
        Some(())
    }

    /// Reads string contents up to and including the closing quote; `None`
    /// at an escape, a control byte, invalid UTF-8 or the end of input.
    fn plain_str(&mut self) -> Option<String> {
        let rest = &self.bytes[self.pos..];
        let end = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
        if rest[end] != b'"' {
            return None;
        }
        let s = std::str::from_utf8(&rest[..end]).ok()?;
        self.pos += end + 1;
        Some(s.to_owned())
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(n: usize) -> Vec<(String, String)> {
        (0..n)
            .map(|i| (format!("key-{i:05}"), format!("value \"{i}\"\n")))
            .collect()
    }

    #[test]
    fn a_sample_is_the_full_encoding_truncated() {
        for n in [0, 1, 3, 40, 200, 2_000] {
            let entries = index(n);
            let full = serde_json::to_vec(&entries).unwrap();
            assert_eq!(encode_entries(&entries), full);
            for limit in [0, 1, 2, 100, 4096, full.len(), full.len() + 1] {
                let want = &full[..full.len().min(limit)];
                assert_eq!(
                    entries_prefix(&entries, limit),
                    want,
                    "n {n}, limit {limit}"
                );
            }
        }
        // Both sides of the flusher's 4 096-byte sample.
        assert!(serde_json::to_vec(&index(40)).unwrap().len() < 4096);
        assert!(serde_json::to_vec(&index(200)).unwrap().len() > 4096);
    }

    #[test]
    fn a_sample_encodes_only_the_entries_it_reaches() {
        let entries = index(2_000);
        let mut out = Vec::new();
        put_entries(&mut out, &entries, 4096);
        assert!(out.len() >= 4096);
        assert!(out.len() < 4096 + 64, "encoded {} bytes", out.len());
    }

    #[test]
    fn escapes_are_the_shims() {
        let s = "q\"b\\n\nr\rt\tb\u{8}f\u{c}z\u{0}o\u{1f}d\u{7f}é😀";
        let mut out = Vec::new();
        put_json_str(&mut out, s);
        assert_eq!(out, serde_json::to_vec(s).unwrap());
        assert_eq!(
            std::str::from_utf8(&out).unwrap(),
            "\"q\\\"b\\\\n\\nr\\rt\\tb\\bf\\fz\\u0000o\\u001fd\u{7f}é😀\""
        );
    }

    #[test]
    fn escaped_strings_take_the_shims_parser() {
        let req = Request::Set {
            key: "a\"b".into(),
            value: "v".into(),
        };
        let bytes = encode_request(&req);
        assert!(canonical_request(&bytes).is_none());
        assert_eq!(decode_request(&bytes).unwrap(), req);
        let plain = Request::Append {
            key: "k".into(),
            value: "é".into(),
        };
        assert_eq!(canonical_request(&encode_request(&plain)), Some(plain));
    }
}
