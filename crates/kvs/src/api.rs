//! The kvs client API: request and response types and their wire encoding.

use serde::{Deserialize, Serialize};

use wdog_base::error::{BaseError, BaseResult};

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Request {
    /// Read the value of a key.
    Get {
        /// Key to read.
        key: String,
    },
    /// Set a key to a value.
    Set {
        /// Key to write.
        key: String,
        /// Value to store.
        value: String,
    },
    /// Append to a key's value (creates the key if absent).
    Append {
        /// Key to append to.
        key: String,
        /// Suffix to append.
        value: String,
    },
    /// Delete a key.
    Del {
        /// Key to delete.
        key: String,
    },
}

impl Request {
    /// Returns the key this request touches.
    pub fn key(&self) -> &str {
        match self {
            Request::Get { key }
            | Request::Set { key, .. }
            | Request::Append { key, .. }
            | Request::Del { key } => key,
        }
    }

    /// Returns `true` if the request mutates state.
    pub fn is_write(&self) -> bool {
        !matches!(self, Request::Get { .. })
    }

    /// Encodes the request for the WAL and the replication stream.
    pub fn encode(&self) -> Vec<u8> {
        crate::codec::encode_request(self)
    }

    /// Decodes a request from its wire form.
    pub fn decode(bytes: &[u8]) -> BaseResult<Self> {
        crate::codec::decode_request(bytes)
            .map_err(|e| BaseError::Corruption(format!("undecodable request: {e}")))
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Response {
    /// Value of a `Get` (`None` if the key is absent).
    Value(Option<String>),
    /// A write was applied.
    Ok,
    /// The request failed.
    Error(String),
}

impl Response {
    /// Returns `true` unless this is an error response.
    pub fn is_ok(&self) -> bool {
        !matches!(self, Response::Error(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_extracted_from_all_variants() {
        assert_eq!(Request::Get { key: "a".into() }.key(), "a");
        assert_eq!(
            Request::Set {
                key: "b".into(),
                value: "v".into()
            }
            .key(),
            "b"
        );
        assert_eq!(
            Request::Append {
                key: "c".into(),
                value: "v".into()
            }
            .key(),
            "c"
        );
        assert_eq!(Request::Del { key: "d".into() }.key(), "d");
    }

    #[test]
    fn write_classification() {
        assert!(!Request::Get { key: "a".into() }.is_write());
        assert!(Request::Del { key: "a".into() }.is_write());
        assert!(Request::Set {
            key: "a".into(),
            value: "v".into()
        }
        .is_write());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let r = Request::Append {
            key: "k".into(),
            value: "suffix".into(),
        };
        assert_eq!(Request::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn garbage_decodes_to_corruption_error() {
        assert!(matches!(
            Request::decode(b"\xFF\xFEnot json"),
            Err(BaseError::Corruption(_))
        ));
    }

    #[test]
    fn response_ok_classification() {
        assert!(Response::Ok.is_ok());
        assert!(Response::Value(None).is_ok());
        assert!(!Response::Error("x".into()).is_ok());
    }
}
