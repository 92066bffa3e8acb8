//! The transport-agnostic round control core.
//!
//! [`crate::engine::run`] (the in-process simulator) and the `ftc-net`
//! runtime (real sockets) execute the *same* model: per round, every alive
//! node is activated, the adversary inspects the round's traffic and issues
//! crash directives, delivery filters drop an adversarial subset of each
//! crashing node's messages, and the survivors are delivered. Everything in
//! that sentence except the activation and the physical delivery is
//! *control-plane* logic, and it is deterministic in `(SimConfig, seed)`.
//!
//! [`ControlCore`] packages exactly that control plane: the faulty set, the
//! liveness ledger, the adversary/filter RNG streams, metrics, CONGEST
//! accounting and the message trace, recorded from the round's sends and
//! settled from what it delivers (DESIGN D32). A driver (engine or network
//! synchronizer) feeds it the round's outgoing envelopes with the list of
//! their senders and gets back the envelopes to actually deliver plus the
//! crash events to enact (in a socket runtime: mid-round connection
//! teardown); at the end it turns the books into the run's [`RunResult`].
//! Because both drivers share this type and the seed derivation below, a
//! network execution reproduces the simulator's decisions bit for bit.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::adversary::{Adversary, AdversaryView, Envelope, FaultySet};
use crate::engine::{RunResult, SimConfig};
use crate::ids::{NodeId, Round};
use crate::metrics::{Metrics, RoundMetrics};
use crate::payload::Payload;
use crate::perm::stream_seed;
use crate::ports::PortMap;
use crate::topology::EdgeSet;
use crate::trace::TraceRecorder;

/// Salt constants keeping the run's RNG streams independent. Shared by the
/// engine and the per-node harness so every driver derives the same
/// topology, node randomness, adversary schedule and filter randomness
/// from one master seed.
const SALT_TOPOLOGY: u64 = 0x01;
pub(crate) const SALT_NODES: u64 = 0x02;
pub(crate) const SALT_ADVERSARY: u64 = 0x03;
pub(crate) const SALT_FILTERS: u64 = 0x04;
pub(crate) const SALT_EDGES: u64 = 0x05;

/// The graph of a run of `cfg`: [`crate::topology::Topology::edge_set`]
/// at the run's topology seed, from which every node's port permutation
/// derives too. A driver builds it once per run, wires every node's
/// [`PortMap`] from it and hands it to its [`ControlCore`], which checks
/// forged sends against it (DESIGN D31).
pub fn network_edges(cfg: &SimConfig) -> EdgeSet {
    cfg.topology
        .edge_set(cfg.n, stream_seed(cfg.seed, SALT_TOPOLOGY))
}

/// The port permutations of the whole network, in node-id order, wired
/// from one [`network_edges`].
///
/// Each [`PortMap`] starts at `O(1)` memory (lazy Feistel permutation), so
/// this is cheap even for large `n`.
pub fn network_ports(cfg: &SimConfig) -> Vec<PortMap> {
    let edges = network_edges(cfg);
    (0..cfg.n)
        .map(|u| PortMap::new(&edges, NodeId(u)))
        .collect()
}

/// What the control core decided for one round.
///
/// The deliverable traffic itself is *not* carried here: `finish_round`
/// filters the caller's `outgoing` buffers in place, so after the call
/// `outgoing` holds, per sender (node-id order), exactly the envelopes that
/// survived crash filters *and* are deliverable (receiver alive, edge
/// alive). A driver delivers exactly those — iterating senders in id order
/// and each sender's list in order reproduces the engine's inbox order —
/// and may then drain the buffers for reuse next round.
#[derive(Debug)]
pub struct RoundVerdict {
    /// Nodes that crashed this round, in directive order. A socket driver
    /// tears down their connections after transmitting their filtered
    /// sends; they must never be activated again.
    pub crashed: Vec<NodeId>,
    /// Messages delivered this round (the filtered `outgoing` flattened
    /// length).
    pub delivered: u64,
}

/// The per-run fate of every undirected edge, sampled lazily.
///
/// [`SimConfig::edge_failure_prob`] kills each undirected edge for the
/// whole run. A fate is a pure hash of `(edge seed, canonical pair)`: with
/// `lo < hi`, the edge is dead when
/// `stream_seed(stream_seed(seed, 5), lo << 32 | hi) / u64::MAX < p` — the
/// same roll in both directions, in every round, from any thread. So the
/// data plane samples it on demand for exactly the edges a message
/// actually crosses and never materialises anything per pair: a round
/// costs `O(traffic)`, not `Θ(n²)` memory.
#[derive(Clone, Copy, Debug)]
pub struct EdgeFates {
    edge_seed: u64,
    p: f64,
}

impl EdgeFates {
    /// The edge fates of a run of `cfg`, derived from the master seed the
    /// same way for every driver.
    pub fn new(cfg: &SimConfig) -> Self {
        EdgeFates {
            edge_seed: stream_seed(cfg.seed, SALT_EDGES),
            p: cfg.edge_failure_prob,
        }
    }

    /// The failure probability the fates are drawn against.
    pub fn failure_prob(&self) -> f64 {
        self.p
    }

    /// Whether the undirected edge `{a, b}` is dead. Order-insensitive and
    /// stateless: any query order over any subset of edges draws the same
    /// fates.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` — the complete graph has no self edge.
    #[inline]
    pub fn is_dead(&self, a: NodeId, b: NodeId) -> bool {
        assert_ne!(a, b, "no self edge");
        let (lo, hi) = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
        let key = (u64::from(lo) << 32) | u64::from(hi);
        (stream_seed(self.edge_seed, key) as f64 / u64::MAX as f64) < self.p
    }
}

/// The deterministic control plane of one execution: faulty set, liveness,
/// adversary consultation, delivery filtering, and all accounting.
///
/// One way in, one way out: drivers call [`ControlCore::finish_round`]
/// once per round with the round's outgoing traffic and its sorted sender
/// list, enact the returned [`RoundVerdict`], and close the run with
/// [`ControlCore::finish`], which yields the [`RunResult`].
///
/// The core owns the hot path's scratch memory (the flat edge
/// accumulator), so steady-state rounds run without allocating; see
/// `DESIGN.md` D9.
#[derive(Debug)]
pub struct ControlCore {
    n: u32,
    /// The run's graph: forged sends along non-edges are dropped.
    edges: EdgeSet,
    alive: Vec<bool>,
    faulty: FaultySet,
    metrics: Metrics,
    trace: Option<TraceRecorder>,
    congest_bits: Option<u32>,
    congest_violations: u64,
    /// Lazily sampled per-edge fates (replaces the old `Θ(n²)` bitmap).
    fates: EdgeFates,
    adv_rng: SmallRng,
    filter_rng: SmallRng,
    /// Per-destination bit accumulator for the sender currently being
    /// accounted: bit 0 marks "touched this sender", bits 1.. hold the
    /// accumulated size. Reset (via `edge_touched`) after every sender, so
    /// it is all-zero between senders and between rounds.
    edge_acc: Vec<u64>,
    /// Destinations with a set mark in `edge_acc`, for O(touched) reset.
    edge_touched: Vec<u32>,
}

impl ControlCore {
    /// Builds the control plane for one run over the run's graph `edges`
    /// ([`network_edges`]) and asks `adversary` for its static faulty set.
    ///
    /// # Panics
    ///
    /// Panics if the faulty set references nodes outside the network.
    pub fn new<M, A>(cfg: &SimConfig, edges: EdgeSet, adversary: &mut A) -> Self
    where
        M: Payload,
        A: Adversary<M> + ?Sized,
    {
        let n = cfg.n;
        let nn = n as usize;
        let mut adv_rng = SmallRng::seed_from_u64(stream_seed(cfg.seed, SALT_ADVERSARY));
        let filter_rng = SmallRng::seed_from_u64(stream_seed(cfg.seed, SALT_FILTERS));
        let faulty = adversary.faulty_set(n, &mut adv_rng);
        assert!(
            faulty.iter().all(|id| id.index() < nn),
            "faulty set references nodes outside the network"
        );
        ControlCore {
            n,
            edges,
            alive: vec![true; nn],
            faulty,
            metrics: Metrics::new(),
            trace: cfg.record_trace.then(|| TraceRecorder::new(n)),
            congest_bits: cfg.congest_bits,
            congest_violations: 0,
            fates: EdgeFates::new(cfg),
            adv_rng,
            filter_rng,
            edge_acc: vec![0; nn],
            edge_touched: Vec::new(),
        }
    }

    /// The run's graph, for drivers that wire their nodes from it.
    pub fn edges(&self) -> &EdgeSet {
        &self.edges
    }

    /// Whether `node` is still alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    /// The liveness ledger, indexed by node.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Number of still-alive nodes.
    pub fn alive_count(&self) -> usize {
        self.n as usize - self.metrics.crashes.len()
    }

    /// Runs the control plane for one round over the traffic the alive
    /// nodes queued (`outgoing`, indexed by sender). Consults the adversary
    /// (tamper, then crash directives), applies delivery filters, accounts
    /// metrics / CONGEST / trace, and returns whom to crash; `outgoing` is
    /// left holding exactly the deliverable envelopes.
    ///
    /// `senders` is the round's sender list: sorted ascending,
    /// deduplicated, and naming every node whose `outgoing` entry is
    /// non-empty (entries of other nodes are ignored and must be empty).
    /// Only those senders are visited, so a round costs
    /// `O(senders + traffic)`, not `O(n)`; senders with empty buffers add
    /// nothing to accounting, tracing or delivery, so any list that covers
    /// the traffic gives the same result. A node the adversary tampers with
    /// is merged into `senders` in place, so a driver that delivers over
    /// its list after the call also delivers the forged traffic.
    ///
    /// `suppressed` is the number of sends the nodes dropped against their
    /// send budget this round (see [`SimConfig::send_cap`]).
    ///
    /// # Panics
    ///
    /// Panics if the adversary violates the model (crashing or tampering
    /// with a non-faulty or already-crashed node).
    pub fn finish_round<M, A>(
        &mut self,
        round: Round,
        outgoing: &mut [Vec<Envelope<M>>],
        senders: &mut Vec<u32>,
        suppressed: u64,
        adversary: &mut A,
    ) -> RoundVerdict
    where
        M: Payload,
        A: Adversary<M> + ?Sized,
    {
        let n = self.n;
        debug_assert!(
            senders.windows(2).all(|w| w[0] < w[1]),
            "sender list must be sorted and deduplicated"
        );
        self.metrics.msgs_suppressed += suppressed;

        // --- Byzantine tampering (extension; no-op for crash-only
        // adversaries). Forged sends replace the node's honest output.
        let tampers = {
            let view = AdversaryView {
                round,
                n,
                faulty: &self.faulty,
                alive: &self.alive,
                outgoing,
            };
            adversary.tamper(&view, &mut self.adv_rng)
        };
        for t in tampers {
            let i = t.node.index();
            assert!(
                self.faulty.contains(t.node),
                "adversary tampered with non-faulty node {}",
                t.node
            );
            assert!(
                self.alive[i],
                "adversary tampered with crashed node {}",
                t.node
            );
            // A forgery may give a node outside the list traffic (rare:
            // only Byzantine extensions tamper).
            if let Err(at) = senders.binary_search(&t.node.0) {
                senders.insert(at, t.node.0);
            }
            outgoing[i] = t
                .sends
                .into_iter()
                .filter_map(|(dst, msg)| {
                    assert!(dst.0 < n, "forged message to node outside network");
                    assert_ne!(dst, t.node, "forged message to self");
                    // Even a Byzantine node can only use edges that exist:
                    // forged sends along non-edges are dropped silently.
                    self.edges.has_edge(t.node.0, dst.0).then_some(Envelope {
                        src: t.node,
                        dst,
                        msg,
                    })
                })
                .collect();
        }
        let senders: &[u32] = senders;

        // --- adversary: crash directives for this round. ---
        let directives = {
            let view = AdversaryView {
                round,
                n,
                faulty: &self.faulty,
                alive: &self.alive,
                outgoing,
            };
            adversary.on_round(&view, &mut self.adv_rng)
        };

        let mut crashed = Vec::new();
        let mut sent: u64 = 0;
        let mut bits_sent: u64 = 0;
        // Every *sent* message is paid for and traced before any filter, so
        // the communication graph also knows about suppressed sends; id
        // order puts events where a walk over all n nodes puts them.
        for &su in senders {
            let node_out = &outgoing[su as usize];
            sent += node_out.len() as u64;
            bits_sent += node_out
                .iter()
                .map(|e| u64::from(e.msg.size_bits()))
                .sum::<u64>();
            if let Some(tr) = &mut self.trace {
                tr.record(round, node_out);
            }
        }
        for d in directives {
            let i = d.node.index();
            assert!(
                self.faulty.contains(d.node),
                "adversary crashed non-faulty node {}",
                d.node
            );
            assert!(self.alive[i], "adversary crashed {} twice", d.node);
            self.alive[i] = false;
            self.metrics.record_crash(d.node, round);
            crashed.push(d.node);
            d.filter.apply(&mut outgoing[i], &mut self.filter_rng);
        }

        // --- delivery + accounting. ---
        //
        // Filters `outgoing` in place (stable compaction) and accounts
        // per-edge bits through the flat `edge_acc` accumulator — one array
        // slot per destination, valid because a sender's envelopes are
        // processed as one group and directed edges of different senders
        // never collide. No allocation, no hashing. Edge fates are sampled
        // lazily per crossed edge ([`EdgeFates`]), so a round's cost never
        // depends on how many edges the complete graph *has*.
        let mut delivered: u64 = 0;
        let mut round_max_edge: u64 = 0;
        let fates = self.fates;
        let p = fates.p;
        let budget = self.congest_bits.map(u64::from);
        let all_dsts_alive = self.metrics.crashes.is_empty();

        let alive = &self.alive;
        let metrics = &mut self.metrics;
        let violations = &mut self.congest_violations;
        let edge_acc = &mut self.edge_acc;
        let touched = &mut self.edge_touched;

        for &su in senders {
            let node_out = &mut outgoing[su as usize];
            if node_out.is_empty() {
                continue;
            }
            // Per-edge accounting for this sender. Bit 0 of an accumulator
            // slot marks "touched", bits 1.. hold the running size, so even
            // zero-bit messages register their edge exactly once.
            for e in node_out.iter() {
                let bits = u64::from(e.msg.size_bits());
                let di = e.dst.index();
                let cur = edge_acc[di];
                if cur & 1 == 0 {
                    touched.push(e.dst.0);
                }
                edge_acc[di] = (cur + (bits << 1)) | 1;
            }
            for &d in touched.iter() {
                let v = edge_acc[d as usize] >> 1;
                round_max_edge = round_max_edge.max(v);
                if budget.is_some_and(|b| v > b) {
                    *violations += 1;
                }
                edge_acc[d as usize] = 0;
            }
            touched.clear();

            if p <= 0.0 && all_dsts_alive {
                // Fast path: nothing can drop; everything queued delivers.
                delivered += node_out.len() as u64;
                continue;
            }
            let src = NodeId(su);
            let mut w = 0usize;
            for r_i in 0..node_out.len() {
                let dst = node_out[r_i].dst;
                if p > 0.0 && fates.is_dead(src, dst) {
                    metrics.msgs_lost_edges += 1;
                } else if alive[dst.index()] {
                    delivered += 1;
                    if w != r_i {
                        node_out.swap(w, r_i);
                    }
                    w += 1;
                }
            }
            node_out.truncate(w);
        }
        metrics.record_edge_bits(round_max_edge);
        if let Some(tr) = &mut self.trace {
            tr.settle(senders, outgoing);
        }

        self.metrics.record_round(RoundMetrics {
            sent,
            delivered,
            bits_sent,
            crashes: crashed.len() as u32,
        });

        RoundVerdict { crashed, delivered }
    }

    /// Closes the books into the run's result: the nodes' final `states`
    /// (in id order) beside the metrics, crash ledger (indexed by node,
    /// projected from the metrics' crash events), faulty set and trace.
    /// `wire_bytes` is what the run pushed onto the wire (frame headers +
    /// encoded payloads); the engine has no wire and passes 0.
    pub fn finish<P>(mut self, states: Vec<P>, wire_bytes: u64) -> RunResult<P> {
        self.metrics.wire_bytes = wire_bytes;
        let mut crashed_at = vec![None; self.n as usize];
        for &(node, round) in &self.metrics.crashes {
            crashed_at[node.index()] = Some(round);
        }
        RunResult {
            metrics: self.metrics,
            states,
            crashed_at,
            faulty: self.faulty,
            trace: self.trace.map(TraceRecorder::into_trace),
            congest_violations: self.congest_violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{
        CrashDirective, DeliveryFilter, FaultPlan, NoFaults, ScriptedCrash, Tamper,
    };
    use crate::ids::Port;

    /// One node's sends, routed one message at a time.
    fn envelopes(ports: &[PortMap], src: NodeId, msgs: &[(Port, u64)]) -> Vec<Envelope<u64>> {
        msgs.iter()
            .map(|&(port, msg)| Envelope {
                src,
                dst: ports[src.index()].peer(port),
                msg,
            })
            .collect()
    }

    #[test]
    fn network_ports_agree_with_portmap() {
        let cfg = SimConfig::new(16).seed(9);
        let ports = network_ports(&cfg);
        assert_eq!(ports.len(), 16);
        let seed = stream_seed(cfg.seed, SALT_TOPOLOGY);
        let graph = crate::topology::Topology::Complete.edge_set(16, seed);
        let direct = PortMap::new(&graph, NodeId(3));
        for p in 0..15 {
            assert_eq!(ports[3].peer(Port(p)), direct.peer(Port(p)));
        }
    }

    #[test]
    fn fault_free_round_delivers_everything() {
        let cfg = SimConfig::new(4).seed(1);
        let ports = network_ports(&cfg);
        let mut core = ControlCore::new::<u64, _>(&cfg, network_edges(&cfg), &mut NoFaults);
        let mut outgoing: Vec<Vec<Envelope<u64>>> = (0..4)
            .map(|u| envelopes(&ports, NodeId(u), &[(Port(0), u64::from(u))]))
            .collect();
        let v = core.finish_round(0, &mut outgoing, &mut (0..4).collect(), 0, &mut NoFaults);
        assert_eq!(v.delivered, 4);
        assert!(v.crashed.is_empty());
        assert_eq!(outgoing.iter().flatten().count(), 4);
        let out = core.finish(vec![(); 4], 0);
        assert_eq!(out.metrics.msgs_sent, 4);
        assert_eq!(out.metrics.msgs_delivered, 4);
        assert_eq!(out.metrics.rounds, 1);
    }

    #[test]
    fn scripted_crash_drops_messages_and_marks_ledger() {
        let cfg = SimConfig::new(4).seed(1);
        let ports = network_ports(&cfg);
        let plan = FaultPlan::new().crash(NodeId(0), 0, DeliveryFilter::DropAll);
        let mut adv = ScriptedCrash::new(plan);
        let mut core = ControlCore::new::<u64, _>(&cfg, network_edges(&cfg), &mut adv);
        let mut outgoing: Vec<Vec<Envelope<u64>>> = (0..4)
            .map(|u| envelopes(&ports, NodeId(u), &[(Port(0), 1u64), (Port(1), 2)]))
            .collect();
        let v = core.finish_round(0, &mut outgoing, &mut (0..4).collect(), 0, &mut adv);
        assert_eq!(v.crashed, vec![NodeId(0)]);
        assert!(!core.is_alive(NodeId(0)));
        // Node 0's two sends were dropped; sends *to* node 0 die too.
        assert!(v.delivered < 8);
        assert!(outgoing[0].is_empty());
        assert!(outgoing.iter().flatten().all(|e| e.dst != NodeId(0)));
        let out = core.finish(vec![(); 4], 0);
        assert_eq!(out.crashed_at[0], Some(0));
        assert_eq!(out.metrics.msgs_sent, 8); // paid for even if dropped
        assert_eq!(out.metrics.msgs_delivered, v.delivered);
    }

    /// Makes node 2 faulty and forges `sends` for it every round.
    struct Forge(Vec<NodeId>);

    impl Adversary<u64> for Forge {
        fn faulty_set(&mut self, n: u32, _: &mut SmallRng) -> FaultySet {
            FaultySet::from_nodes(n, [NodeId(2)])
        }
        fn on_round(
            &mut self,
            _: &AdversaryView<'_, u64>,
            _: &mut SmallRng,
        ) -> Vec<CrashDirective> {
            Vec::new()
        }
        fn tamper(&mut self, _: &AdversaryView<'_, u64>, _: &mut SmallRng) -> Vec<Tamper<u64>> {
            let sends = self.0.iter().map(|&dst| (dst, 9)).collect();
            vec![Tamper {
                node: NodeId(2),
                sends,
            }]
        }
    }

    #[test]
    fn a_forged_sender_joins_the_sender_list_in_place() {
        // Node 2 queued nothing and is not listed; the adversary forges a
        // send for it. It is merged into the list in id order, and its
        // forgery is accounted and left to deliver like any other send.
        let cfg = SimConfig::new(4).seed(1);
        let ports = network_ports(&cfg);
        let mut forge = Forge(vec![NodeId(0)]);
        let mut core = ControlCore::new::<u64, _>(&cfg, network_edges(&cfg), &mut forge);
        let mut outgoing: Vec<Vec<Envelope<u64>>> = vec![Vec::new(); 4];
        for u in [1, 3] {
            outgoing[u] = envelopes(&ports, NodeId(u as u32), &[(Port(0), 1)]);
        }
        let mut senders = vec![1, 3];
        let v = core.finish_round(0, &mut outgoing, &mut senders, 0, &mut forge);
        assert_eq!(senders, [1, 2, 3]);
        assert_eq!(v.delivered, 3);
        let forged = &outgoing[2][0];
        assert_eq!(
            (forged.src, forged.dst, forged.msg),
            (NodeId(2), NodeId(0), 9)
        );
    }

    #[test]
    fn forged_sends_along_non_edges_are_dropped_by_the_graph() {
        // One hub (node 0): spoke 2 reaches the hub, never spokes 1 or 3.
        let cfg = SimConfig::new(4)
            .seed(1)
            .topology(crate::topology::Topology::DiameterTwo { clusters: 1 });
        let mut forge = Forge(vec![NodeId(1), NodeId(0), NodeId(3)]);
        let mut core = ControlCore::new::<u64, _>(&cfg, network_edges(&cfg), &mut forge);
        let mut outgoing: Vec<Vec<Envelope<u64>>> = vec![Vec::new(); 4];
        let v = core.finish_round(0, &mut outgoing, &mut Vec::new(), 0, &mut forge);
        assert_eq!(v.delivered, 1);
        let dsts: Vec<NodeId> = outgoing[2].iter().map(|e| e.dst).collect();
        assert_eq!(dsts, [NodeId(0)]);
        assert_eq!(core.finish(vec![(); 4], 0).metrics.msgs_sent, 1);
    }

    #[test]
    fn suppressed_sends_are_accounted() {
        let cfg = SimConfig::new(4).seed(0);
        let mut core = ControlCore::new::<u64, _>(&cfg, network_edges(&cfg), &mut NoFaults);
        let mut outgoing: Vec<Vec<Envelope<u64>>> = vec![Vec::new(); 4];
        core.finish_round(0, &mut outgoing, &mut Vec::new(), 7, &mut NoFaults);
        assert_eq!(core.finish(vec![(); 4], 0).metrics.msgs_suppressed, 7);
    }
}
