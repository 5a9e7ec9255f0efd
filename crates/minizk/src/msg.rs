//! Wire messages between cluster members.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use wdog_base::error::{BaseError, BaseResult};

/// A message on the cluster network.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ZkMsg {
    /// Leader → follower liveness probe.
    Ping {
        /// Monotonic sequence number.
        seq: u64,
    },
    /// Follower → leader liveness reply.
    Pong {
        /// Echoed sequence number.
        seq: u64,
    },
    /// Leader → follower committed transaction.
    Commit {
        /// Transaction id.
        zxid: u64,
        /// Znode path.
        path: String,
        /// New data.
        data: Vec<u8>,
    },
    /// Follower → leader commit acknowledgement.
    CommitAck {
        /// Acknowledged transaction id.
        zxid: u64,
    },
    /// One snapshot record during a follower sync.
    SnapRecord {
        /// Znode path.
        path: String,
        /// Node data.
        data: Vec<u8>,
    },
    /// End of a follower sync stream.
    SnapDone {
        /// Number of records sent.
        records: u64,
    },
}

impl ZkMsg {
    /// Encodes the message for the simulated network.
    pub fn encode(&self) -> Bytes {
        Bytes::from(serde_json::to_vec(self).expect("message encoding is infallible"))
    }

    /// Decodes a message.
    pub fn decode(bytes: &[u8]) -> BaseResult<Self> {
        serde_json::from_slice(bytes)
            .map_err(|e| BaseError::Corruption(format!("undecodable message: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_variants() {
        let msgs = vec![
            ZkMsg::Ping { seq: 1 },
            ZkMsg::Pong { seq: 1 },
            ZkMsg::Commit {
                zxid: 7,
                path: "/a".into(),
                data: b"x".to_vec(),
            },
            ZkMsg::CommitAck { zxid: 7 },
            ZkMsg::SnapRecord {
                path: "/a/b".into(),
                data: vec![1, 2],
            },
            ZkMsg::SnapDone { records: 10 },
        ];
        for m in msgs {
            assert_eq!(ZkMsg::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn garbage_is_corruption() {
        assert!(matches!(
            ZkMsg::decode(b"\x00garbage"),
            Err(BaseError::Corruption(_))
        ));
    }
}
