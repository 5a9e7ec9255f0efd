//! Cheap, copyable identifiers shared across the workspace.
//!
//! Each identifier wraps a small string and exists so that function
//! signatures say what they mean (`CheckerId` rather than `String`) and so that
//! serialized experiment artifacts stay self-describing.

use std::fmt;

use serde::{Deserialize, Serialize};

macro_rules! string_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
        pub struct $name(pub String);

        impl $name {
            /// Creates an identifier from anything string-like.
            pub fn new(s: impl Into<String>) -> Self {
                Self(s.into())
            }

            /// Returns the identifier as a string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                Self(s.to_owned())
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                Self(s)
            }
        }
    };
}

string_id! {
    /// Identifies one checker registered with a watchdog driver.
    CheckerId
}

string_id! {
    /// Identifies a component (module / subsystem) of a monitored program,
    /// e.g. `kvs.flusher` or `minizk.snapshot`.
    ComponentId
}

string_id! {
    /// Identifies an operation inside a program's intermediate representation,
    /// e.g. `datatree::serialize_node#write_record`.
    OpId
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_ids_roundtrip_display() {
        let c = CheckerId::new("kvs.flusher.mimic");
        assert_eq!(c.to_string(), "kvs.flusher.mimic");
        assert_eq!(c.as_str(), "kvs.flusher.mimic");
        let c2: CheckerId = "kvs.flusher.mimic".into();
        assert_eq!(c, c2);
    }

    #[test]
    fn ids_order_lexicographically() {
        let a = ComponentId::new("kvs.compaction");
        let b = ComponentId::new("kvs.flusher");
        assert!(a < b);
    }
}
