//! Offline shim for the `bytes` crate.
//!
//! `Bytes` here is a cheaply-cloneable immutable byte buffer backed by
//! `Arc<Vec<u8>>`, so wrapping a `Vec` takes its buffer without copying,
//! as the real crate does. The workspace only passes whole frames around
//! (no split/advance), so the slicing machinery of the real crate is
//! omitted.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte buffer.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a static byte slice.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::copy_from_slice(bytes)
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes { data: Arc::new(v) }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Self::from_static(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Self::from_static(v.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::from(v.into_bytes())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == other[..]
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.data.iter() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_and_compares() {
        let b = Bytes::from(vec![1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        assert_eq!(b, [1u8, 2, 3][..]);
        let c = b.clone();
        assert_eq!(b, c);
    }

    #[test]
    fn wrapping_a_vec_keeps_its_buffer() {
        let v = vec![7u8; 64];
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at, "From<Vec<u8>> copied the buffer");
        assert_eq!(b.clone().as_ptr(), at);
    }

    #[test]
    fn static_and_copy_constructors() {
        let s = Bytes::from_static(b"__wd__");
        assert_eq!(&*s, b"__wd__");
        let c = Bytes::copy_from_slice(&[9, 9]);
        assert_eq!(c.len(), 2);
        assert!(Bytes::new().is_empty());
    }
}
