//! Per-node protocol driving, independent of the execution substrate.
//!
//! A [`NodeHarness`] owns everything that is *local* to one node of the
//! model: its protocol state machine, its private seeded randomness, its
//! KT0 port permutation and its send budget. The in-process engine keeps
//! `n` harnesses in one loop; the `ftc-net` runtime gives each harness to a
//! node thread that talks real sockets. Every driver wires the harnesses
//! from the run's one graph ([`crate::round::network_edges`]) and derives
//! the rest from `(SimConfig, NodeId)`, which is what makes a network run
//! replay a simulator run exactly.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::adversary::Envelope;
use crate::engine::SimConfig;
use crate::ids::{NodeId, Port, Round};
use crate::perm::stream_seed;
use crate::ports::PortMap;
use crate::protocol::{Ctx, Incoming, Protocol};
use crate::round::SALT_NODES;

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
    /// Builds the harness of the node `ports` wires, for a run of `cfg`,
    /// wrapping `state`. `ports` is the node's map over the run's graph
    /// ([`PortMap::new`] on [`crate::round::network_edges`]); the RNG
    /// stream is derived from `(cfg.seed, node)`, so harnesses built apart
    /// (e.g. one per thread) still agree with an engine run of the same
    /// configuration.
    pub fn new(cfg: &SimConfig, ports: PortMap, state: P) -> Self {
        let node = ports.node();
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
    /// nodes can reuse one scratch buffer across all activations. Every
    /// driver resolves `inbox` with [`NodeHarness::ports_from`] before the
    /// call and routes `outbox` with [`NodeHarness::route`] after it.
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

    /// Routes this node's queued sends through its own port map: drains
    /// `sends` and writes one envelope per send into `out` (cleared
    /// first), in one batched forward walk in place in `out` — each
    /// envelope parks its port in `dst` until the walk turns it into the
    /// receiver.
    ///
    /// # Panics
    ///
    /// Panics if a send names a port this node does not have.
    pub fn route(&mut self, sends: &mut Vec<(Port, P::Msg)>, out: &mut Vec<Envelope<P::Msg>>) {
        out.clear();
        let src = self.node;
        out.extend(sends.drain(..).map(|(port, msg)| Envelope {
            src,
            dst: NodeId(port.0),
            msg,
        }));
        self.ports
            .peers(out, |e| Port(e.dst.0), |e, dst| e.dst = dst);
    }

    /// The local ports a batch of messages arrives on, from their senders'
    /// ids: `set(item, port_to(src_of(item)))` for every item, in one
    /// inverse walk of this node's map eight lanes abreast. Every driver
    /// resolves a node's inbox this way, on the receiver: the engine at
    /// activation, a substrate node when it closes a round.
    ///
    /// # Panics
    ///
    /// Panics if a sender is this node itself, out of range, or not a
    /// neighbour.
    pub fn ports_from<T>(
        &mut self,
        items: &mut [T],
        src_of: impl Fn(&T) -> NodeId,
        set: impl FnMut(&mut T, Port),
    ) {
        self.ports.ports_to(items, src_of, set);
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

    fn echoer() -> Echoer {
        Echoer {
            rounds: 0,
            heard: 0,
        }
    }

    /// Node `node`'s harness, wired standalone from a fresh graph.
    fn harness(cfg: &SimConfig, node: u32) -> NodeHarness<Echoer> {
        let ports = PortMap::new(&crate::round::network_edges(cfg), NodeId(node));
        NodeHarness::new(cfg, ports, echoer())
    }

    #[test]
    fn activation_runs_start_then_rounds() {
        let cfg = SimConfig::new(8).seed(3);
        let mut h = harness(&cfg, 1);
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
        let mut h = harness(&cfg, 0);
        let mut sends = Vec::new();
        let a = h.activate_into(0, &[], &mut sends);
        assert_eq!(sends.len(), 4);
        assert_eq!(a.suppressed, 3);
    }

    #[test]
    fn routing_agrees_with_network_ports() {
        use crate::topology::Topology;
        // A 16-cycle with a chord from each node to the opposite one.
        let chords: Vec<Vec<u32>> = (0..16u32)
            .map(|u| {
                let mut row = vec![(u + 1) % 16, (u + 15) % 16, (u + 8) % 16];
                row.sort_unstable();
                row
            })
            .collect();
        let topologies = [
            Topology::Complete,
            Topology::RandomRegular { d: 6 },
            Topology::Explicit {
                adjacency: std::sync::Arc::new(chords),
            },
        ];
        for topology in topologies {
            let cfg = SimConfig::new(16).seed(11).topology(topology.clone());
            assert!(cfg.validate().is_ok(), "{topology}");
            // The run's maps, against harnesses wired standalone from a
            // graph of their own, as `RoundCore::new` wires one.
            let ports = crate::round::network_ports(&cfg);
            // The sender's forward walk lands where the scalar lookup does.
            let mut sender = harness(&cfg, 5);
            let degree = ports[5].port_count();
            let mut sends: Vec<(Port, u64)> =
                (0..degree).rev().map(|p| (Port(p), u64::from(p))).collect();
            let mut out = Vec::new();
            sender.route(&mut sends, &mut out);
            assert!(sends.is_empty());
            assert_eq!(out.len(), degree as usize, "{topology}");
            for e in &out {
                assert_eq!(
                    (e.src, e.dst),
                    (NodeId(5), ports[5].peer(Port(e.msg as u32))),
                    "{topology}"
                );
            }
            // Receiver-side port resolution is the inverse of the sender's
            // wiring.
            let peer = ports[5].peer(Port(2));
            let mut recv = harness(&cfg, peer.0);
            let mut from: Vec<(NodeId, Port)> = ports[peer.index()]
                .neighbors()
                .map(|u| (u, Port(u32::MAX)))
                .collect();
            recv.ports_from(&mut from, |&(u, _)| u, |item, port| item.1 = port);
            for (u, port) in from {
                assert_eq!(port, ports[peer.index()].port_to(u), "{topology}: from {u}");
            }
        }
    }
}
