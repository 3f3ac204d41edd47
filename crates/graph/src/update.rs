//! Edge updates for the dynamic (streaming) setting.
//!
//! A batch of [`EdgeUpdate`]s is the unit of work the dynamic maintenance
//! engines consume: the CPU oracle (`kcore-cpu`'s `incremental` module)
//! applies them one at a time, the GPU engine (`kcore-gpu`'s `dynamic`
//! module) classifies a whole batch and processes it kernelized. The type
//! lives here so both sides — and the bench/tests that drive them — share
//! one vocabulary without `kcore-gpu` depending on `kcore-cpu`.

/// One edge mutation against an undirected simple graph.
///
/// Endpoints are unordered: `Insert(u, v)` and `Insert(v, u)` denote the
/// same update. Self-loops (`u == v`) and out-of-range endpoints are *valid
/// values* but are rejected (not normalized) by every consumer, mirroring
/// [`GraphBuilder`](crate::GraphBuilder)'s simple-graph contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeUpdate {
    /// Insert undirected edge `{u, v}`.
    Insert(u32, u32),
    /// Delete undirected edge `{u, v}`.
    Delete(u32, u32),
}

impl EdgeUpdate {
    /// The endpoints as written (not canonicalized).
    pub fn endpoints(self) -> (u32, u32) {
        match self {
            EdgeUpdate::Insert(u, v) | EdgeUpdate::Delete(u, v) => (u, v),
        }
    }

    /// The endpoints as a canonical `(min, max)` pair — the undirected
    /// edge's identity.
    pub fn key(self) -> (u32, u32) {
        let (u, v) = self.endpoints();
        (u.min(v), u.max(v))
    }

    /// Whether this update is an insertion.
    pub fn is_insert(self) -> bool {
        matches!(self, EdgeUpdate::Insert(..))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_orientation_invariant() {
        assert_eq!(EdgeUpdate::Insert(7, 3).key(), (3, 7));
        assert_eq!(EdgeUpdate::Delete(3, 7).key(), (3, 7));
        assert_eq!(EdgeUpdate::Insert(5, 5).key(), (5, 5));
        assert!(EdgeUpdate::Insert(0, 1).is_insert());
        assert!(!EdgeUpdate::Delete(0, 1).is_insert());
        assert_eq!(EdgeUpdate::Delete(9, 2).endpoints(), (9, 2));
    }
}
