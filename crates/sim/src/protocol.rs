//! The protocol interface: what a node may observe and do each round.
//!
//! A protocol is a per-node state machine driven by the engine. In every
//! synchronous round each *alive* node is activated once with the messages
//! delivered to it at the end of the previous round, and may send messages
//! through its ports; those messages are delivered (subject to crashes) at
//! the start of the next round. This matches the synchronous message-passing
//! model of Section II of the paper.

use rand::prelude::*;
use rand::rngs::SmallRng;

use crate::ids::{NodeId, Port, Round};
use crate::payload::Payload;
use crate::ports::PortMap;

/// A message delivered to a node, tagged with the local port it arrived on.
///
/// Replying on `port` reaches the sender — the only form of addressing a
/// KT0 protocol has for nodes it did not sample itself.
#[derive(Clone, Debug)]
pub struct Incoming<M> {
    /// The local port the message arrived through.
    pub port: Port,
    /// The message payload.
    pub msg: M,
}

/// Per-activation view of the world handed to a protocol.
///
/// `Ctx` exposes exactly the knowledge the model grants a node: the network
/// size `n`, the current round, its private randomness, and its ports. The
/// node's global [`NodeId`] and the port→peer mapping are additionally
/// exposed for **KT1** protocols and for debugging/analysis; KT0 protocols
/// (all protocols of the paper) must not use them for decisions, and the
/// engine will panic on [`Ctx::peer_of`]/[`Ctx::port_to`] unless the
/// simulation was configured with `kt1(true)`.
pub struct Ctx<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) n: u32,
    pub(crate) round: Round,
    pub(crate) kt1: bool,
    pub(crate) ports: &'a PortMap,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) outbox: &'a mut Vec<(Port, M)>,
}

impl<'a, M: Payload> Ctx<'a, M> {
    /// Total number of nodes in the network (known to all nodes).
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Number of local ports — this node's degree (`n - 1` on the
    /// complete graph).
    pub fn port_count(&self) -> u32 {
        self.ports.port_count()
    }

    /// The current round, starting from `0` (the `on_start` round).
    pub fn round(&self) -> Round {
        self.round
    }

    /// This node's global simulator identity.
    ///
    /// Anonymous-network (KT0) protocols must not use this for protocol
    /// decisions; it exists for KT1 baselines, logging and tests.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Whether the simulation grants KT1 knowledge (neighbour identities).
    pub fn is_kt1(&self) -> bool {
        self.kt1
    }

    /// The neighbour behind `port`.
    ///
    /// # Panics
    ///
    /// Panics unless the simulation was configured as KT1 — in KT0 a node
    /// does not know its neighbours (Section II).
    pub fn peer_of(&self, port: Port) -> NodeId {
        assert!(self.kt1, "peer_of requires the KT1 model");
        self.ports.peer(port)
    }

    /// The local port leading to `peer`.
    ///
    /// # Panics
    ///
    /// Panics unless the simulation was configured as KT1, or if
    /// `peer == self.node_id()`.
    pub fn port_to(&self, peer: NodeId) -> Port {
        assert!(self.kt1, "port_to requires the KT1 model");
        self.ports.port_to(peer)
    }

    /// This node's private random generator (deterministic per seed).
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Queues `msg` for delivery through `port` at the end of this round.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn send(&mut self, port: Port, msg: M) {
        assert!(port.0 < self.ports.port_count(), "port {port} out of range");
        self.outbox.push((port, msg));
    }

    /// Sends `msg` to every port (a full local broadcast — one message
    /// per neighbour, `n-1` on the complete graph).
    pub fn broadcast(&mut self, msg: M) {
        for p in 0..self.ports.port_count() {
            self.outbox.push((Port(p), msg.clone()));
        }
    }

    /// A uniformly random port — a uniformly random *neighbour*, which on
    /// the complete graph is a uniformly random other node (how the
    /// paper's protocols sample referees).
    pub fn random_port(&mut self) -> Port {
        Port(self.rng.random_range(0..self.ports.port_count()))
    }

    /// Samples `min(k, port_count)` distinct ports uniformly at random
    /// (without replacement).
    ///
    /// `k` is clamped to the node's degree so protocols written for the
    /// complete graph (e.g. referee counts in `Θ(√(n log n))`) degrade
    /// gracefully on sparse topologies instead of panicking.
    pub fn sample_ports(&mut self, k: usize) -> Vec<Port> {
        let count = self.ports.port_count() as usize;
        rand::seq::index::sample(self.rng, count, k.min(count))
            .into_iter()
            .map(|i| Port(i as u32))
            .collect()
    }
}

/// A per-node protocol state machine.
///
/// Implementations are constructed by a factory closure passed to
/// [`crate::engine::run`], one instance per node, and after the run the
/// final states are returned in
/// [`crate::engine::RunResult::states`] for outcome extraction.
pub trait Protocol: Sized + Send {
    /// The message type this protocol exchanges.
    type Msg: Payload;

    /// Round 0 activation: no messages have been delivered yet. Messages
    /// sent here are delivered at the start of round 1.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Round `r ≥ 1` activation with the messages delivered this round
    /// (i.e. sent in round `r-1` and not suppressed by a crash).
    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>, inbox: &[Incoming<Self::Msg>]);

    /// Quiescence hint: once *every alive node* reports `true` and no
    /// messages are in flight, the engine stops early. Purely an
    /// optimisation — protocols must also be correct if run to `max_rounds`.
    fn is_terminated(&self) -> bool {
        false
    }

    /// Sparse-activation hint: `true` promises that activating this node
    /// with an **empty inbox** is a no-op — no sends, no RNG draws, no
    /// state change, and `is_terminated`/`is_inert` unchanged — so the
    /// engine may skip the activation entirely.
    ///
    /// This is what lets a round cost `O(messages + acting nodes)` instead
    /// of `O(n)`: nodes that are merely waiting drop out of the engine's
    /// agenda until a message arrives. The default is `false` (never skip),
    /// which is always correct; a protocol that counts rounds, times out,
    /// or draws randomness while idle must keep the default. Returning
    /// `true` while violating the promise breaks bit-exact equivalence
    /// between sparse and dense drivers (the `naive` oracle tests and the
    /// `ftc-net` substrate both activate every alive node every round).
    fn is_inert(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perm::stream_seed;
    use crate::topology::Topology;

    /// Node 0's map in a complete 16-node network.
    fn node_zero() -> PortMap {
        PortMap::new(&Topology::Complete.edge_set(16, 1), NodeId(0))
    }

    fn mk_ctx<'a>(
        ports: &'a PortMap,
        rng: &'a mut SmallRng,
        outbox: &'a mut Vec<(Port, bool)>,
        kt1: bool,
    ) -> Ctx<'a, bool> {
        Ctx {
            node: NodeId(0),
            n: 16,
            round: 0,
            kt1,
            ports,
            rng,
            outbox,
        }
    }

    #[test]
    fn send_and_broadcast_fill_outbox() {
        let ports = node_zero();
        let mut rng = SmallRng::seed_from_u64(stream_seed(0, 0));
        let mut outbox = Vec::new();
        let mut ctx = mk_ctx(&ports, &mut rng, &mut outbox, false);
        ctx.send(Port(3), true);
        ctx.broadcast(false);
        assert_eq!(outbox.len(), 16);
        assert_eq!(outbox[0], (Port(3), true));
    }

    #[test]
    fn sample_ports_is_distinct_and_in_range() {
        let ports = node_zero();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut outbox = Vec::new();
        let mut ctx = mk_ctx(&ports, &mut rng, &mut outbox, false);
        let s = ctx.sample_ports(15);
        let mut sorted: Vec<u32> = s.iter().map(|p| p.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..15).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "KT1")]
    fn kt0_denies_peer_lookup() {
        let ports = node_zero();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut outbox = Vec::new();
        let ctx = mk_ctx(&ports, &mut rng, &mut outbox, false);
        let _ = ctx.peer_of(Port(0));
    }

    #[test]
    fn kt1_allows_peer_lookup() {
        let ports = node_zero();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut outbox = Vec::new();
        let ctx = mk_ctx(&ports, &mut rng, &mut outbox, true);
        let peer = ctx.peer_of(Port(0));
        assert_eq!(ctx.port_to(peer), Port(0));
    }
}
