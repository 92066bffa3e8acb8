//! KT0 port wiring over the configured topology.
//!
//! Every node `u` has one local port per *neighbour* — `n-1` of them on
//! the complete graph, `deg(u)` in general. The KT0 model (Section II of
//! the paper) stipulates that the assignment of neighbours to ports is a
//! uniformly random permutation unknown to the node. [`PortMap`] realises
//! one such permutation per node, backed by the lazy [`crate::perm::Perm`]
//! so that closed-form topologies (complete, hub) cost `O(1)` memory per
//! node regardless of `n` until the node has walked its degree; list
//! topologies share one `Arc` per neighbour list.
//!
//! A map counts the ports its batched lookups walk, in either direction:
//! the ones behind [`crate::node::NodeHarness::route`] and
//! [`crate::node::NodeHarness::ports_from`]. Once the count
//! reaches the degree, one forward walk over the domain fills a table of
//! both directions (8 B a port), and every lookup reads it from then on.
//! This is ski rental: the table costs at most as many walks as the map
//! had already paid for, so the map does at most twice the cipher work of
//! walking every lookup, and a node that moves fewer messages than it has
//! ports never builds one. The table is a cache of the same permutation,
//! so no result depends on whether it exists.
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
    /// Ports the batched lookups have walked, in either direction, until
    /// the table exists.
    walked: u32,
    seed: u64,
    perm: Perm,
    wiring: Wiring,
    /// Built once `walked` reaches `degree`: `table[p]` is port `p`'s
    /// wiring index, `table[degree + k]` the port of wiring index `k`.
    table: Option<Box<[u32]>>,
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
            walked: 0,
            seed: topology_seed,
            perm,
            wiring,
            table: None,
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
        self.neighbour_at(self.index_at(self.port_index(port)))
    }

    /// [`PortMap::peer`] for a batch: `set(item, peer(port_of(item)))` for
    /// every item, in one forward walk of this map's cipher eight lanes
    /// abreast, or from the table once the map has one. Counts toward the
    /// table (see the module docs). Panics exactly as `peer` does.
    pub(crate) fn peers<T>(
        &mut self,
        items: &mut [T],
        port_of: impl Fn(&T) -> Port,
        mut set: impl FnMut(&mut T, NodeId),
    ) {
        self.tally(items.len());
        if self.table.is_some() {
            for item in items {
                set(item, self.peer(port_of(item)));
            }
        } else {
            walk::<_, LANES, false>(
                &self.perm,
                items,
                |item| self.port_index(port_of(item)),
                |item, k| set(item, self.neighbour_at(k)),
            );
        }
    }

    /// Whether the graph has a `(self, peer)` edge. Walks nothing.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is this node itself or out of range — those are
    /// caller bugs, not topology facts.
    pub fn has_edge(&self, peer: NodeId) -> bool {
        self.try_index_of(peer).is_some()
    }

    /// The local port through which neighbour `peer` is reached.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is this node itself, out of range, or not adjacent
    /// to this node; the non-edge message carries both endpoints and the
    /// topology seed so the failure is a replayable artifact.
    pub fn port_to(&self, peer: NodeId) -> Port {
        self.port_at(self.index_of(peer))
    }

    /// [`PortMap::port_to`] for a batch: `set(item, port_to(peer_of(item)))`
    /// for every item, in one inverse walk of this map's cipher eight lanes
    /// abreast, or from the table once the map has one. Counts toward the
    /// table (see the module docs). Panics exactly as `port_to` does.
    pub(crate) fn ports_to<T>(
        &mut self,
        items: &mut [T],
        peer_of: impl Fn(&T) -> NodeId,
        mut set: impl FnMut(&mut T, Port),
    ) {
        self.tally(items.len());
        if self.table.is_some() {
            for item in items {
                set(item, self.port_to(peer_of(item)));
            }
        } else {
            walk::<_, LANES, true>(
                &self.perm,
                items,
                |item| self.index_of(peer_of(item)),
                |item, port| set(item, Port(port as u32)),
            );
        }
    }

    /// Counts `batch` more walked ports and, once the count reaches the
    /// degree, tabulates the permutation in one forward walk over the
    /// domain: `degree` walks, no more than the lookups counted so far.
    fn tally(&mut self, batch: usize) {
        if self.table.is_some() {
            return;
        }
        self.walked = self
            .walked
            .saturating_add(u32::try_from(batch).unwrap_or(u32::MAX));
        if self.walked < self.degree {
            return;
        }
        // The first half starts as the ports themselves, the walk's inputs;
        // the walk overwrites every slot of both halves.
        let mut table: Box<[u32]> = (0..2 * self.degree).collect();
        let (to_index, to_port) = table.split_at_mut(self.degree as usize);
        walk::<_, LANES, false>(
            &self.perm,
            to_index,
            |&p| u64::from(p),
            |slot, k| {
                to_port[k as usize] = *slot;
                *slot = k as u32;
            },
        );
        self.table = Some(table);
    }

    /// The wiring index of port index `p` (the cipher).
    fn index_at(&self, p: u64) -> u64 {
        match &self.table {
            Some(table) => u64::from(table[p as usize]),
            None => self.perm.apply(p),
        }
    }

    /// The port of wiring index `k` (the cipher's inverse).
    fn port_at(&self, k: u64) -> Port {
        Port(match &self.table {
            Some(table) => table[self.degree as usize + k as usize],
            None => self.perm.invert(k) as u32,
        })
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
        assert!(!pm.has_edge(NodeId(5)), "non-hubs are not adjacent");
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
        assert!(!pm.has_edge(NodeId(2)));
        assert!(!pm.has_edge(NodeId(8)));
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

    /// Every map of an `n`-node network on each wiring the tables must
    /// serve: complete, the hub/non-hub split of diameter two, and
    /// neighbour lists.
    fn wirings(n: u32) -> Vec<(crate::topology::Topology, Vec<PortMap>)> {
        use crate::topology::Topology;
        [
            Topology::Complete,
            Topology::DiameterTwo { clusters: 5 },
            Topology::RandomRegular { d: 6 },
        ]
        .into_iter()
        .map(|t| {
            let cfg = crate::engine::SimConfig::new(n).seed(3).topology(t.clone());
            (t, crate::round::network_ports(&cfg))
        })
        .collect()
    }

    #[test]
    fn a_map_crossing_its_threshold_mid_batch_matches_the_cipher() {
        // n = 66: a complete node's 65 ports sit in a carrier of 256, so
        // walks run long and lanes retire out of order; n = 1025 puts 1024
        // ports in a carrier of 4096. The first batch (forward, half the
        // ports) stays lazy, the second (inverse, every neighbour) crosses
        // the threshold, the third (forward, every port) reads the table.
        // Each answer must be what a fresh map's scalar cipher says.
        for n in [66u32, 1025] {
            for (topology, maps) in wirings(n) {
                // Every map at n = 66; at n = 1025 a spread of nodes, hubs
                // of the diameter-two wiring included.
                let step = if n > 100 { 97 } else { 1 };
                for fresh in maps.iter().step_by(step) {
                    let ctx = format!("{topology} n={n} node {}", fresh.node);
                    let deg = fresh.port_count();
                    let mut map = fresh.clone();
                    let mut half: Vec<(Port, NodeId)> = (0..deg / 2)
                        .rev()
                        .map(|p| (Port(p), NodeId(u32::MAX)))
                        .collect();
                    map.peers(&mut half, |&(p, _)| p, |it, v| it.1 = v);
                    assert_eq!(map.table.is_some(), deg / 2 >= deg, "{ctx}");
                    for &(p, v) in &half {
                        assert_eq!(v, fresh.peer(p), "{ctx}: lazy peer({p})");
                    }
                    let mut back: Vec<(NodeId, Port)> =
                        fresh.neighbors().map(|v| (v, Port(u32::MAX))).collect();
                    map.ports_to(&mut back, |&(v, _)| v, |it, p| it.1 = p);
                    assert!(map.table.is_some(), "{ctx}: threshold crossed");
                    for &(v, p) in &back {
                        assert_eq!(p, fresh.port_to(v), "{ctx}: port_to({v})");
                    }
                    let mut all: Vec<(Port, NodeId)> =
                        (0..deg).map(|p| (Port(p), NodeId(u32::MAX))).collect();
                    map.peers(&mut all, |&(p, _)| p, |it, v| it.1 = v);
                    for &(p, v) in &all {
                        assert_eq!(v, fresh.peer(p), "{ctx}: table peer({p})");
                        assert_eq!(map.peer(p), v, "{ctx}: scalar peer({p})");
                        assert_eq!(map.port_to(v), p, "{ctx}: scalar port_to({v})");
                    }
                    assert!(fresh.table.is_none(), "scalar lookups never tabulate");
                }
            }
        }
    }

    #[test]
    fn a_tabulated_map_panics_with_the_scalar_context() {
        let panic_of = |f: &mut dyn FnMut()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
            err.downcast_ref::<String>()
                .expect("string payload")
                .clone()
        };
        for n in [66u32, 1025] {
            for (topology, maps) in wirings(n) {
                let fresh = &maps[n as usize - 1];
                let deg = fresh.port_count();
                let mut map = fresh.clone();
                let mut all: Vec<Port> = (0..deg).map(Port).collect();
                map.peers(&mut all, |&p| p, |_, _| {});
                assert!(map.table.is_some(), "{topology}: tabulated");

                let scalar = panic_of(&mut || {
                    fresh.peer(Port(deg));
                });
                let batched = panic_of(&mut || {
                    let mut bad = [Port(0), Port(deg)];
                    map.clone().peers(&mut bad, |&p| p, |_, _| {});
                });
                assert_eq!(batched, scalar, "{topology}");
                let want = format!(
                    "at node n{} (degree {deg}, topology seed {:#018x})",
                    n - 1,
                    fresh.seed
                );
                assert!(scalar.contains(&want), "{scalar}");
                let table_scalar = panic_of(&mut || {
                    map.peer(Port(deg));
                });
                assert_eq!(table_scalar, scalar);

                // A non-edge: node 0 is a hub of the diameter-two wiring,
                // so pick any node the map has no edge to.
                let Some(stranger) = (0..n - 1).map(NodeId).find(|&v| !fresh.has_edge(v)) else {
                    continue;
                };
                let scalar = panic_of(&mut || {
                    fresh.port_to(stranger);
                });
                let batched = panic_of(&mut || {
                    let mut bad = [stranger];
                    map.clone().ports_to(&mut bad, |&v| v, |_, _| {});
                });
                assert_eq!(batched, scalar, "{topology}");
                assert!(
                    scalar.contains(&format!("node n{} has no edge to {stranger}", n - 1)),
                    "{scalar}"
                );
                assert!(
                    scalar.contains(&format!("{:#018x}", fresh.seed)),
                    "{scalar}"
                );
                let table_scalar = panic_of(&mut || {
                    map.port_to(stranger);
                });
                assert_eq!(table_scalar, scalar);
            }
        }
    }

    #[test]
    fn sparse_traffic_never_tabulates() {
        // Fewer lookups than ports, in both directions, stay lazy.
        let mut map = PortMap::new(1025, NodeId(9), 4);
        for _ in 0..3 {
            let mut some: Vec<Port> = (0..100).map(Port).collect();
            map.peers(&mut some, |&p| p, |_, _| {});
            let mut back = [NodeId(0), NodeId(1000)];
            map.ports_to(&mut back, |&v| v, |_, _| {});
        }
        assert!(map.table.is_none());
        let mut rest: Vec<Port> = (0..1024 - 306).map(Port).collect();
        map.peers(&mut rest, |&p| p, |_, _| {});
        assert!(map.table.is_some(), "the lookup that reaches the degree");
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
