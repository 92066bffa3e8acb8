//! Per-node protocol driving, independent of the execution substrate.
//!
//! A [`NodeHarness`] owns everything that is *local* to one node of the
//! model: its protocol state machine, its private seeded randomness, its
//! KT0 port permutation and its send budget. The in-process engine keeps
//! `n` harnesses in one loop; the `ftc-net` runtime gives each harness to a
//! node thread that talks real sockets. Both derive identical per-node
//! state from `(SimConfig, NodeId)`, which is what makes a network run
//! replay a simulator run exactly.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::adversary::Envelope;
use crate::engine::SimConfig;
use crate::ids::{NodeId, Port, Round};
use crate::perm::stream_seed;
use crate::ports::PortMap;
use crate::protocol::{Ctx, Incoming, Protocol};
use crate::round::{route_sends_into, SALT_NODES, SALT_TOPOLOGY};

/// The bookkeeping of one activation (see [`NodeHarness::activate_into`]).
#[derive(Clone, Copy, Debug)]
pub struct ActivationMeta {
    /// Sends dropped against the budget this activation.
    pub suppressed: u64,
    /// The node's quiescence hint after the activation.
    pub terminated: bool,
    /// The node's sparse-activation hint after the activation (see
    /// [`Protocol::is_inert`]): `true` means the driver may skip this node
    /// until a message arrives for it.
    pub inert: bool,
}

/// One node of the model: protocol state + ports + private randomness.
#[derive(Debug)]
pub struct NodeHarness<P: Protocol> {
    node: NodeId,
    n: u32,
    kt1: bool,
    ports: PortMap,
    rng: SmallRng,
    state: P,
    send_cap: Option<u32>,
    sends_used: u32,
}

impl<P: Protocol> NodeHarness<P> {
    /// Builds node `node`'s harness for a run of `cfg`, wrapping `state`.
    ///
    /// The port permutation and the RNG stream are derived from
    /// `(cfg.seed, node)` exactly as the engine derives them, so harnesses
    /// built independently (e.g. one per thread) still agree with an
    /// engine run of the same configuration.
    pub fn new(cfg: &SimConfig, node: NodeId, state: P) -> Self {
        let topology_seed = stream_seed(cfg.seed, SALT_TOPOLOGY);
        // Independent construction regenerates the node's wiring from the
        // topology; fine for the socket runtimes' network sizes. Drivers
        // that already built [`crate::round::network_ports`] should hand
        // the map in via [`NodeHarness::with_ports`] instead.
        let adjacency = cfg.topology.adjacency(cfg.n, topology_seed);
        let ports = PortMap::with_wiring(
            cfg.n,
            node,
            topology_seed,
            cfg.topology.wiring_of(node, adjacency.as_ref()),
        );
        Self::with_ports(cfg, node, state, ports)
    }

    /// Like [`NodeHarness::new`] but adopts a prebuilt port map — the
    /// engine builds all `n` maps once via
    /// [`crate::round::network_ports`] and hands them out, so list
    /// topologies are generated once per run instead of once per node.
    ///
    /// `ports` must be the map [`NodeHarness::new`] would derive for
    /// `(cfg, node)`; handing in anything else forfeits replay equality
    /// with independently constructed harnesses.
    pub fn with_ports(cfg: &SimConfig, node: NodeId, state: P, ports: PortMap) -> Self {
        let node_seed_base = stream_seed(cfg.seed, SALT_NODES);
        NodeHarness {
            node,
            n: cfg.n,
            kt1: cfg.kt1,
            ports,
            rng: SmallRng::seed_from_u64(stream_seed(node_seed_base, u64::from(node.0))),
            state,
            send_cap: cfg.send_cap,
            sends_used: 0,
        }
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Runs one activation: `on_start` at round 0, `on_round` with `inbox`
    /// afterwards. The queued sends, capped by the per-node send budget,
    /// are written into `outbox` (cleared first), so a driver looping many
    /// nodes can reuse one scratch buffer across all activations. The
    /// engine pairs this with [`crate::round::resolve_sends_into`], a
    /// substrate node with [`NodeHarness::route`].
    pub fn activate_into(
        &mut self,
        round: Round,
        inbox: &[Incoming<P::Msg>],
        outbox: &mut Vec<(Port, P::Msg)>,
    ) -> ActivationMeta {
        outbox.clear();
        let mut ctx = Ctx {
            node: self.node,
            n: self.n,
            round,
            kt1: self.kt1,
            ports: &self.ports,
            rng: &mut self.rng,
            outbox,
        };
        if round == 0 {
            self.state.on_start(&mut ctx);
        } else {
            self.state.on_round(&mut ctx, inbox);
        }
        // Enforce the per-node send budget, if any: keep only the first
        // `remaining` queued messages of this activation.
        let mut suppressed = 0u64;
        if let Some(cap) = self.send_cap {
            let remaining = cap.saturating_sub(self.sends_used) as usize;
            if outbox.len() > remaining {
                suppressed = (outbox.len() - remaining) as u64;
                outbox.truncate(remaining);
            }
            self.sends_used += outbox.len() as u32;
        }
        ActivationMeta {
            suppressed,
            terminated: self.state.is_terminated(),
            inert: self.state.is_inert(),
        }
    }

    /// Routes this node's queued sends through its own port map:
    /// [`crate::round::route_sends_into`], so `dst` is set and `dst_port`
    /// is left [`Port::UNRESOLVED`].
    ///
    /// # Panics
    ///
    /// Panics if a send names a port this node does not have.
    pub fn route(&self, sends: &mut Vec<(Port, P::Msg)>, out: &mut Vec<Envelope<P::Msg>>) {
        route_sends_into(&self.ports, self.node, sends, out);
    }

    /// The local ports a batch of messages arrives on — what a network
    /// node computes when frames carry their senders' ids:
    /// `set(item, port_to(src_of(item)))` for every item, in one inverse
    /// walk of this node's map eight lanes abreast.
    ///
    /// # Panics
    ///
    /// Panics if a sender is this node itself, out of range, or not a
    /// neighbour.
    pub fn ports_from<T>(
        &self,
        items: &mut [T],
        src_of: impl Fn(&T) -> NodeId,
        set: impl FnMut(&mut T, Port),
    ) {
        PortMap::ports_to(items, |item| (&self.ports, src_of(item)), set);
    }

    /// Read access to the protocol state.
    pub fn state(&self) -> &P {
        &self.state
    }

    /// Consumes the harness, returning the final protocol state.
    pub fn into_state(self) -> P {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Broadcasts `round` every activation, terminated after 2 rounds.
    struct Echoer {
        rounds: u32,
        heard: usize,
    }

    impl Protocol for Echoer {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.broadcast(0);
        }
        fn on_round(&mut self, _ctx: &mut Ctx<'_, u64>, inbox: &[Incoming<u64>]) {
            self.rounds += 1;
            self.heard += inbox.len();
        }
        fn is_terminated(&self) -> bool {
            self.rounds >= 2
        }
    }

    #[test]
    fn activation_runs_start_then_rounds() {
        let cfg = SimConfig::new(8).seed(3);
        let mut h = NodeHarness::new(
            &cfg,
            NodeId(1),
            Echoer {
                rounds: 0,
                heard: 0,
            },
        );
        let mut sends = Vec::new();
        let a0 = h.activate_into(0, &[], &mut sends);
        assert_eq!(sends.len(), 7);
        assert!(!a0.terminated);
        let inbox = vec![Incoming {
            port: Port(0),
            msg: 9u64,
        }];
        h.activate_into(1, &inbox, &mut sends);
        assert!(sends.is_empty());
        let a2 = h.activate_into(2, &inbox, &mut sends);
        assert!(a2.terminated);
        assert_eq!(h.state().heard, 2);
    }

    #[test]
    fn send_cap_suppresses_excess() {
        let cfg = SimConfig::new(8).seed(3).send_cap(4);
        let mut h = NodeHarness::new(
            &cfg,
            NodeId(0),
            Echoer {
                rounds: 0,
                heard: 0,
            },
        );
        let mut sends = Vec::new();
        let a = h.activate_into(0, &[], &mut sends);
        assert_eq!(sends.len(), 4);
        assert_eq!(a.suppressed, 3);
    }

    #[test]
    fn routing_agrees_with_network_ports() {
        let cfg = SimConfig::new(16).seed(11);
        let ports = crate::round::network_ports(&cfg);
        // Receiver-side port resolution is the inverse of the sender's
        // wiring, on a harness built independently of the network's maps.
        let peer = ports[5].peer(Port(2));
        let recv = NodeHarness::new(
            &cfg,
            peer,
            Echoer {
                rounds: 0,
                heard: 0,
            },
        );
        let mut from: Vec<(NodeId, Port)> = (0..16)
            .map(NodeId)
            .filter(|&u| u != peer)
            .map(|u| (u, Port(u32::MAX)))
            .collect();
        recv.ports_from(&mut from, |&(u, _)| u, |item, port| item.1 = port);
        for (u, port) in from {
            assert_eq!(port, ports[peer.index()].port_to(u), "from {u}");
        }
    }
}
