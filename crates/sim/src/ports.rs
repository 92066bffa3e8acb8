//! KT0 port wiring over the configured topology.
//!
//! Every node `u` has one local port per *neighbour* — `n-1` of them on
//! the complete graph, `deg(u)` in general. The KT0 model (Section II of
//! the paper) stipulates that the assignment of neighbours to ports is a
//! uniformly random permutation unknown to the node. [`PortMap`] realises
//! one such permutation per node, backed by the lazy [`crate::perm::Perm`]
//! so that closed-form topologies (complete, hub) cost `O(1)` memory per
//! node regardless of `n`; list topologies share one `Arc` per neighbour
//! list.
//!
//! On [`crate::topology::Topology::Complete`] the permutation seed, the
//! skip-self encoding, and every `peer`/`port_to` result are bit-identical
//! to the pre-topology engine — that invariant is what keeps all committed
//! Complete-graph record ids stable.

use std::sync::Arc;

use crate::ids::{NodeId, Port};
use crate::perm::{stream_seed, walk, Perm, LANES};

/// How one node's ports attach to the graph: the shape its permutation
/// ranges over.
#[derive(Clone, Debug)]
pub(crate) enum Wiring {
    /// Adjacent to all `n-1` other nodes (complete graph, or a hub of the
    /// diameter-two topology). Peers use the skip-self encoding.
    Complete,
    /// A non-hub of the diameter-two topology: adjacent to exactly the
    /// hub nodes `0..clusters` (the node itself is `>= clusters`).
    Hub { clusters: u32 },
    /// An explicit sorted neighbour list (random-regular or explicit
    /// adjacency).
    List(Arc<[u32]>),
}

/// The port permutation of a single node.
///
/// Maps local ports `0..degree` to the node's neighbours and back.
///
/// ```
/// use ftc_sim::ports::PortMap;
/// use ftc_sim::ids::{NodeId, Port};
///
/// let pm = PortMap::new(8, NodeId(3), 42);
/// let peer = pm.peer(Port(0));
/// assert_ne!(peer, NodeId(3));          // never wired to itself
/// assert_eq!(pm.port_to(peer), Port(0)); // inverse is consistent
/// ```
#[derive(Clone, Debug)]
pub struct PortMap {
    node: NodeId,
    n: u32,
    degree: u32,
    seed: u64,
    perm: Perm,
    wiring: Wiring,
}

impl PortMap {
    /// Builds node `node`'s port permutation in a *complete* `n`-node
    /// network. Topology-aware callers go through
    /// [`crate::round::network_ports`], which hands each node its wiring.
    ///
    /// `topology_seed` determines the wiring of the *whole* network; each
    /// node derives an independent permutation from it, which matches the
    /// paper's lower-bound setup where "for every node, the edges are
    /// randomly connected to the ports" independently.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `node.0 >= n`.
    pub fn new(n: u32, node: NodeId, topology_seed: u64) -> Self {
        Self::with_wiring(n, node, topology_seed, Wiring::Complete)
    }

    /// Builds the port permutation of `node` over an explicit wiring.
    ///
    /// # Panics
    ///
    /// Panics — deterministically, with the node and topology seed in the
    /// message so a hunt that trips it replays — if the wiring is
    /// degenerate (`n < 2`, node out of range, or zero degree).
    pub(crate) fn with_wiring(n: u32, node: NodeId, topology_seed: u64, wiring: Wiring) -> Self {
        assert!(n >= 2, "a complete network needs at least two nodes");
        assert!(node.0 < n, "node {node} outside network of size {n}");
        let degree = match &wiring {
            Wiring::Complete => n - 1,
            Wiring::Hub { clusters } => *clusters,
            Wiring::List(list) => list.len() as u32,
        };
        assert!(
            degree >= 1,
            "node {node} has no neighbours (n={n}, topology seed {topology_seed:#018x})"
        );
        let perm = Perm::new(
            u64::from(degree),
            stream_seed(topology_seed, 0x5057_0000 ^ u64::from(node.0)),
        );
        PortMap {
            node,
            n,
            degree,
            seed: topology_seed,
            perm,
            wiring,
        }
    }

    /// Number of ports — the node's degree (`n-1` on the complete graph).
    pub fn port_count(&self) -> u32 {
        self.degree
    }

    /// The neighbour reached through `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range; the message carries the node,
    /// degree, and topology seed so the failure replays deterministically.
    pub fn peer(&self, port: Port) -> NodeId {
        self.neighbour_at(self.perm.apply(self.port_index(port)))
    }

    /// [`PortMap::peer`] for a batch: `set(item, peer(port_of(item)))` for
    /// every item, in one forward walk of this map's cipher eight lanes
    /// abreast. Panics exactly as `peer` does.
    pub(crate) fn peers<T>(
        &self,
        items: &mut [T],
        port_of: impl Fn(&T) -> Port,
        mut set: impl FnMut(&mut T, NodeId),
    ) {
        walk::<_, LANES, false>(
            items,
            |item| (&self.perm, self.port_index(port_of(item))),
            |item, k| set(item, self.neighbour_at(k)),
        );
    }

    /// The local port through which neighbour `peer` is reached, or
    /// `None` if the graph has no `(self, peer)` edge.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is this node itself or out of range — those are
    /// caller bugs, not topology facts.
    pub fn try_port_to(&self, peer: NodeId) -> Option<Port> {
        self.try_index_of(peer)
            .map(|k| Port(self.perm.invert(k) as u32))
    }

    /// The local port through which neighbour `peer` is reached.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is this node itself, out of range, or not adjacent
    /// to this node; the non-edge message carries both endpoints and the
    /// topology seed so the failure is a replayable artifact.
    pub fn port_to(&self, peer: NodeId) -> Port {
        Port(self.perm.invert(self.index_of(peer)) as u32)
    }

    /// [`PortMap::port_to`] for a batch in which every item names its own
    /// map and peer: `set(item, map.port_to(peer))` for `(map, peer) =
    /// route(item)`, in one inverse walk eight lanes abreast. Panics
    /// exactly as `port_to` does.
    pub(crate) fn ports_to<'p, T>(
        items: &mut [T],
        route: impl Fn(&T) -> (&'p PortMap, NodeId),
        mut set: impl FnMut(&mut T, Port),
    ) {
        walk::<_, LANES, true>(
            items,
            |item| {
                let (map, peer) = route(item);
                (&map.perm, map.index_of(peer))
            },
            |item, port| set(item, Port(port as u32)),
        );
    }

    /// The cipher input of `port`, range-checked with this node's context.
    fn port_index(&self, port: Port) -> u64 {
        assert!(
            port.0 < self.degree,
            "port {port} out of range at node {node} (degree {degree}, topology seed {seed:#018x})",
            node = self.node,
            degree = self.degree,
            seed = self.seed,
        );
        u64::from(port.0)
    }

    /// The neighbour at index `k` of the wiring (the cipher's output).
    fn neighbour_at(&self, k: u64) -> NodeId {
        let k = k as u32;
        match &self.wiring {
            // Skip-self encoding: neighbour indices `0..n-1` exclude
            // `self.node`.
            Wiring::Complete => NodeId(if k < self.node.0 { k } else { k + 1 }),
            // Non-hub neighbours are exactly the hubs `0..clusters`, and
            // the node itself is outside that range — no skip needed.
            Wiring::Hub { .. } => NodeId(k),
            Wiring::List(list) => NodeId(list[k as usize]),
        }
    }

    /// The wiring index of neighbour `peer`, or `None` if the graph has no
    /// `(self, peer)` edge.
    fn try_index_of(&self, peer: NodeId) -> Option<u64> {
        assert!(peer.0 < self.n, "peer {peer} outside network");
        assert_ne!(peer, self.node, "a node has no port to itself");
        let k = match &self.wiring {
            Wiring::Complete => Some(if peer.0 < self.node.0 {
                peer.0
            } else {
                peer.0 - 1
            }),
            Wiring::Hub { clusters } => (peer.0 < *clusters).then_some(peer.0),
            Wiring::List(list) => list.binary_search(&peer.0).ok().map(|i| i as u32),
        }?;
        Some(u64::from(k))
    }

    /// [`PortMap::try_index_of`], panicking on a non-edge.
    fn index_of(&self, peer: NodeId) -> u64 {
        self.try_index_of(peer).unwrap_or_else(|| {
            panic!(
                "node {node} has no edge to {peer} (topology seed {seed:#018x})",
                node = self.node,
                seed = self.seed,
            )
        })
    }

    /// Iterates over this node's neighbours in port order.
    pub fn neighbors(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.degree).map(move |p| self.peer(Port(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_neighbours_exactly_once() {
        let n = 97;
        for node in [0u32, 1, 48, 96] {
            let pm = PortMap::new(n, NodeId(node), 7);
            let mut seen = vec![false; n as usize];
            for p in 0..n - 1 {
                let peer = pm.peer(Port(p));
                assert_ne!(peer.0, node);
                assert!(!seen[peer.index()], "duplicate peer {peer}");
                seen[peer.index()] = true;
                assert_eq!(pm.port_to(peer), Port(p));
            }
            assert!(!seen[node as usize]);
            assert_eq!(seen.iter().filter(|&&s| s).count(), (n - 1) as usize);
        }
    }

    #[test]
    fn wiring_differs_across_nodes_and_seeds() {
        let a = PortMap::new(64, NodeId(0), 1);
        let b = PortMap::new(64, NodeId(1), 1);
        let c = PortMap::new(64, NodeId(0), 2);
        let same_ab = (0..63)
            .filter(|&p| a.peer(Port(p)) == b.peer(Port(p)))
            .count();
        let same_ac = (0..63)
            .filter(|&p| a.peer(Port(p)) == c.peer(Port(p)))
            .count();
        assert!(same_ab < 15);
        assert!(same_ac < 15);
    }

    #[test]
    fn two_node_network() {
        let pm0 = PortMap::new(2, NodeId(0), 0);
        let pm1 = PortMap::new(2, NodeId(1), 0);
        assert_eq!(pm0.peer(Port(0)), NodeId(1));
        assert_eq!(pm1.peer(Port(0)), NodeId(0));
    }

    #[test]
    fn hub_wiring_permutes_exactly_the_hubs() {
        let (n, clusters) = (12u32, 4u32);
        let pm = PortMap::with_wiring(n, NodeId(7), 3, Wiring::Hub { clusters });
        assert_eq!(pm.port_count(), clusters);
        let mut peers: Vec<u32> = pm.neighbors().map(|p| p.0).collect();
        peers.sort_unstable();
        assert_eq!(peers, vec![0, 1, 2, 3]);
        for h in 0..clusters {
            let port = pm.port_to(NodeId(h));
            assert_eq!(pm.peer(port), NodeId(h));
        }
        assert_eq!(pm.try_port_to(NodeId(5)), None, "non-hubs are not adjacent");
    }

    #[test]
    fn list_wiring_permutes_exactly_the_list() {
        let list: Arc<[u32]> = Arc::from([1u32, 4, 9].as_slice());
        let pm = PortMap::with_wiring(10, NodeId(6), 11, Wiring::List(list.clone()));
        assert_eq!(pm.port_count(), 3);
        let mut peers: Vec<u32> = pm.neighbors().map(|p| p.0).collect();
        peers.sort_unstable();
        assert_eq!(peers, vec![1, 4, 9]);
        for &v in list.iter() {
            assert_eq!(pm.peer(pm.port_to(NodeId(v))), NodeId(v));
        }
        assert_eq!(pm.try_port_to(NodeId(2)), None);
        assert_eq!(pm.try_port_to(NodeId(8)), None);
    }

    #[test]
    fn non_edge_panic_is_replayable() {
        let pm = PortMap::with_wiring(8, NodeId(5), 0xABCD, Wiring::Hub { clusters: 2 });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pm.port_to(NodeId(6))))
            .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("node n5"), "{msg}");
        assert!(msg.contains("no edge to n6"), "{msg}");
        assert!(msg.contains("0x000000000000abcd"), "seed missing: {msg}");
    }

    #[test]
    #[should_panic(expected = "no port to itself")]
    fn port_to_self_panics() {
        PortMap::new(4, NodeId(2), 0).port_to(NodeId(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_port_panics() {
        PortMap::new(4, NodeId(0), 0).peer(Port(3));
    }

    #[test]
    #[should_panic(expected = "no neighbours")]
    fn zero_degree_wiring_panics_with_context() {
        PortMap::with_wiring(4, NodeId(1), 9, Wiring::List(Arc::from([].as_slice())));
    }
}
