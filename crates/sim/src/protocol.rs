//! The protocol interface: what a node may observe and do each round.
//!
//! A protocol is a per-node state machine driven by the engine. In every
//! synchronous round each *alive* node is activated once with the messages
//! delivered to it at the end of the previous round, and may send messages
//! through its ports; those messages are delivered (subject to crashes) at
//! the start of the next round. This matches the synchronous message-passing
//! model of Section II of the paper.
//!
//! A protocol reads randomness only through the named draws of [`Draw`]
//! on the node's private [`Stream`].

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
/// size `n`, the current round, its ports, and its private randomness as
/// named draws (`Ctx` implements [`Draw`]). The node's global [`NodeId`]
/// and the port→peer mapping are exposed only to **KT1** protocols:
/// [`Ctx::node_id`], [`Ctx::peer_of`] and [`Ctx::port_to`] panic unless the
/// simulation was configured with `kt1(true)`.
pub struct Ctx<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) n: u32,
    pub(crate) round: Round,
    pub(crate) kt1: bool,
    pub(crate) ports: &'a PortMap,
    pub(crate) stream: &'a mut Stream,
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

    /// This node's global simulator identity. Panics unless the simulation
    /// was configured as KT1: in KT0 a node is anonymous (Section II).
    pub fn node_id(&self) -> NodeId {
        assert!(self.kt1, "node_id requires the KT1 model");
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
        Port(self.uniform(0..u64::from(self.ports.port_count())) as u32)
    }

    /// Samples `min(k, port_count)` distinct ports uniformly at random
    /// (without replacement).
    ///
    /// `k` is clamped to the node's degree so protocols written for the
    /// complete graph (e.g. referee counts in `Θ(√(n log n))`) degrade
    /// gracefully on sparse topologies instead of panicking.
    pub fn sample_ports(&mut self, k: usize) -> Vec<Port> {
        let count = self.ports.port_count() as usize;
        self.sample(count, k.min(count))
            .into_iter()
            .map(|i| Port(i as u32))
            .collect()
    }
}

/// The named random draws: the only way protocol code reads randomness.
/// A [`Ctx`] draws from its node's stream, E10's `draw_committee` from a
/// bare [`Stream`]; each draw reads it exactly as the `rand` call it names.
pub trait Draw {
    /// The stream the draws read.
    fn stream(&mut self) -> &mut Stream;

    /// `true` with probability `p ∈ [0, 1]` (`random_bool`).
    fn coin(&mut self, p: f64) -> bool {
        self.stream().0.random_bool(p)
    }

    /// A uniform integer in the non-empty `range` (`random_range`).
    fn uniform(&mut self, range: std::ops::Range<u64>) -> u64 {
        self.stream().0.random_range(range)
    }

    /// `amount` distinct uniform indices of `0..length`, in draw order (`seq::index::sample`).
    fn sample(&mut self, length: usize, amount: usize) -> Vec<usize> {
        rand::seq::index::sample(&mut self.stream().0, length, amount).into_vec()
    }
}

/// A seeded random stream, read only through [`Draw`].
#[derive(Debug)]
pub struct Stream(SmallRng);

impl Stream {
    /// The stream all of whose draws are a function of `seed`.
    pub fn seeded(seed: u64) -> Self {
        Stream(SmallRng::seed_from_u64(seed))
    }
}

impl Draw for Stream {
    fn stream(&mut self) -> &mut Stream {
        self
    }
}

impl<M> Draw for Ctx<'_, M> {
    fn stream(&mut self) -> &mut Stream {
        self.stream
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
        stream: &'a mut Stream,
        outbox: &'a mut Vec<(Port, bool)>,
        kt1: bool,
    ) -> Ctx<'a, bool> {
        Ctx {
            node: NodeId(0),
            n: 16,
            round: 0,
            kt1,
            ports,
            stream,
            outbox,
        }
    }

    #[test]
    fn send_and_broadcast_fill_outbox() {
        let ports = node_zero();
        let mut stream = Stream::seeded(stream_seed(0, 0));
        let mut outbox = Vec::new();
        let mut ctx = mk_ctx(&ports, &mut stream, &mut outbox, false);
        ctx.send(Port(3), true);
        ctx.broadcast(false);
        assert_eq!(outbox.len(), 16);
        assert_eq!(outbox[0], (Port(3), true));
    }

    #[test]
    fn sample_ports_is_distinct_and_in_range() {
        let ports = node_zero();
        let mut stream = Stream::seeded(9);
        let mut outbox = Vec::new();
        let mut ctx = mk_ctx(&ports, &mut stream, &mut outbox, false);
        let s = ctx.sample_ports(15);
        let mut sorted: Vec<u32> = s.iter().map(|p| p.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..15).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "KT1")]
    fn kt0_denies_peer_lookup() {
        let ports = node_zero();
        let mut stream = Stream::seeded(9);
        let mut outbox = Vec::new();
        let ctx = mk_ctx(&ports, &mut stream, &mut outbox, false);
        let _ = ctx.peer_of(Port(0));
    }

    #[test]
    #[should_panic(expected = "KT1")]
    fn kt0_denies_node_id() {
        let ports = node_zero();
        let mut stream = Stream::seeded(9);
        let mut outbox = Vec::new();
        let ctx = mk_ctx(&ports, &mut stream, &mut outbox, false);
        let _ = ctx.node_id();
    }

    #[test]
    fn named_draws_read_the_stream_as_the_rand_calls_they_replaced() {
        // The call sites each draw replaced, on a twin generator: a record
        // moves if any of these diverges by one word.
        let mut stream = Stream::seeded(41);
        let mut twin = SmallRng::seed_from_u64(41);
        for round in 0..200u32 {
            let p = f64::from(round) / 199.0;
            assert_eq!(stream.coin(p), twin.random_bool(p));
            let domain = [16u64, 4_294_967_296, u64::MAX][round as usize % 3];
            // `Rank::draw`'s inclusive range, and a `u32` port range.
            assert_eq!(1 + stream.uniform(0..domain), twin.random_range(1..=domain));
            let ports = 1 + round % 40;
            assert_eq!(
                stream.uniform(0..u64::from(ports)) as u32,
                twin.random_range(0..ports)
            );
            // Floyd's method when `8·amount < length`, Fisher–Yates otherwise.
            let (length, amount) = (1 + round as usize, round as usize % 9);
            let want = rand::seq::index::sample(&mut twin, length, amount).into_vec();
            assert_eq!(stream.sample(length, amount), want);
        }
    }

    #[test]
    fn kt1_allows_peer_lookup() {
        let ports = node_zero();
        let mut stream = Stream::seeded(9);
        let mut outbox = Vec::new();
        let ctx = mk_ctx(&ports, &mut stream, &mut outbox, true);
        let peer = ctx.peer_of(Port(0));
        assert_eq!(ctx.port_to(peer), Port(0));
    }
}
