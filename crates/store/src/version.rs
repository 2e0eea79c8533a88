//! Versioned values and their ordering.
//!
//! Every stored value carries a `(version, writer)` pair.  Versions are
//! client-assigned (one above the newest the client has seen or proposed,
//! see [`crate::client`]); the writer id breaks ties so two concurrent
//! writers converge to one deterministic winner on every replica.  Deletes are tombstones, so they propagate through
//! synchronization like any other write.

/// A versioned value as held by a replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Versioned {
    pub data: Vec<u8>,
    pub version: u64,
    /// Writer id (tie-break; typically the client's principal hash).
    pub writer: String,
    /// Tombstone marker.
    pub deleted: bool,
}

impl Versioned {
    /// Total order: higher version wins, writer id breaks ties.
    pub fn beats(&self, other: &Versioned) -> bool {
        (self.version, self.writer.as_str()) > (other.version, other.writer.as_str())
    }
}

/// A key in the store's object-oriented namespace: `(namespace, key)`.
pub type StoreKey = (String, String);

#[cfg(test)]
mod tests {
    use super::*;

    fn v(version: u64, writer: &str) -> Versioned {
        Versioned {
            data: vec![],
            version,
            writer: writer.into(),
            deleted: false,
        }
    }

    #[test]
    fn higher_version_wins() {
        assert!(v(2, "a").beats(&v(1, "z")));
        assert!(!v(1, "z").beats(&v(2, "a")));
    }

    #[test]
    fn writer_breaks_ties_deterministically() {
        assert!(v(1, "b").beats(&v(1, "a")));
        assert!(!v(1, "a").beats(&v(1, "b")));
        assert!(!v(1, "a").beats(&v(1, "a")));
    }
}
