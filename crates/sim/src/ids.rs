//! Strongly-typed identifiers used throughout the simulator.
//!
//! The simulator distinguishes three kinds of indices that are all "just
//! integers" but must never be confused (cf. the newtype guidance of the
//! Rust API guidelines, C-NEWTYPE):
//!
//! * [`NodeId`] — a *global* node index `0..n`, known to the simulator and
//!   to the adversary, but **not** to a KT0 protocol;
//! * [`Port`] — a *local* port index `0..n-1` through which a node reaches
//!   one of its `n-1` neighbours;
//! * [`Round`] — a synchronous round number, starting at `0`.

use std::fmt;

/// Global identity of a node inside the simulator.
///
/// In the anonymous (KT0) model of the paper, protocol code must not base
/// decisions on this value; it exists so that the engine, the adversary and
/// the analysis tooling can refer to nodes. KT1 baseline protocols (which the
/// paper compares against, e.g. Gilbert–Kowalski) are allowed to read it via
/// [`crate::protocol::Ctx::node_id`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's index as a `usize`, for indexing simulator arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(u32::try_from(v).expect("node index exceeds u32 range"))
    }
}

/// A local port index in `0..n-1`.
///
/// Ports are the only addressing mechanism available to a KT0 protocol: a
/// node may send to any of its ports and may reply on the port a message
/// arrived on, but it does not know which [`NodeId`] a port leads to.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Port(pub u32);

impl Port {
    /// The receiver-side port of an envelope nobody has resolved: what
    /// [`crate::round::route_sends_into`] leaves in
    /// [`crate::adversary::Envelope::dst_port`]. No node has this many
    /// ports, so it never names a real one.
    pub const UNRESOLVED: Port = Port(u32::MAX);

    /// The port's index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for Port {
    fn from(v: u32) -> Self {
        Port(v)
    }
}

/// A synchronous round number (`0`-based).
pub type Round = u32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrips_through_usize() {
        let id = NodeId::from(17usize);
        assert_eq!(id.index(), 17);
        assert_eq!(NodeId::from(17u32), id);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(Port(9).to_string(), "p9");
    }

    #[test]
    fn ordering_follows_numeric_order() {
        assert!(NodeId(1) < NodeId(2));
        assert!(Port(0) < Port(10));
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    fn oversized_index_panics() {
        let _ = NodeId::from(usize::MAX);
    }
}
