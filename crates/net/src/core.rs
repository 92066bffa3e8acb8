//! The sans-I/O round core: the complete round state machine of a cluster
//! run, with every socket, channel, and thread factored out.
//!
//! This module is the answer to "what does the synchronizer *decide*,
//! independent of how bytes move?" — the design popularized by sans-I/O
//! protocol libraries (and by `manul`'s round abstraction for distributed
//! protocols): state machines are fed inbound messages and polled for
//! outbound ones, early next-round traffic is cached and replayed when that
//! round starts, and a round finalizes on quiescence. Everything here is
//! pure data in, pure data out — unit-testable without a single socket —
//! and every I/O runtime (the in-process channel mesh and the multiplexed
//! `ftc-mesh` socket runtime) is a thin adapter over the same two
//! machines:
//!
//! * [`RoundCore`] — one node's half of the round loop. Feed it the frames
//!   that arrive ([`RoundCore::feed`] buffers out-of-order next-round
//!   frames and rejects stale or foreign-height ones), ask it whether the
//!   round is quiescent ([`RoundCore::ready`] — all frames the coordinator
//!   promised have arrived), and step it ([`RoundCore::activate`] → the
//!   node's sends, routed through its own KT0 port map, out as a
//!   submission; [`RoundCore::apply`] → the survivors of adjudication
//!   encoded into frames to transmit; [`RoundCore::end_round`] → next
//!   round's inbox assembled in the engine's canonical `(src, seq)`
//!   order).
//! * [`CoordinatorCore`] — the global control plane. Collect one
//!   [`Submission`] per alive node, call
//!   [`CoordinatorCore::adjudicate`]: it consults the adversary and
//!   applies crash filters via the engine's own [`ControlCore`], filtering
//!   each submission's envelopes in place, and hands each participant its
//!   own envelopes back in a [`Command`], plus the stop verdict.
//!
//! Everything per frame — routing, encoding, decoding, port resolution —
//! is a node's own work, so a driver runs it on the node's thread; the
//! coordinator does only what needs the whole round (DESIGN D25). Because
//! the adjudication path *is* [`ControlCore::finish_round`] — the same
//! code the in-process engine runs — any driver built on these cores is
//! bit-identical to the engine for the same `(SimConfig, seed)`, whatever
//! its transport does.

use ftc_sim::adversary::{Adversary, Envelope};
use ftc_sim::engine::{RunResult, SimConfig};
use ftc_sim::ids::{NodeId, Port, Round};
use ftc_sim::node::NodeHarness;
use ftc_sim::payload::Wire;
use ftc_sim::ports::PortMap;
use ftc_sim::protocol::{Incoming, Protocol};
use ftc_sim::round::{network_edges, ControlCore};
use ftc_sim::topology::EdgeSet;

use crate::frame::{Frame, Payload};

/// One node's round submission to the coordinator: its queued sends,
/// already routed through its own port map.
#[derive(Debug)]
pub struct Submission<M> {
    /// The submitting node.
    pub node: NodeId,
    /// Queued sends in send order, `dst` resolved. The buffer comes back,
    /// filtered, in the node's next [`Command`].
    pub sends: Vec<Envelope<M>>,
    /// Sends the harness suppressed under the send cap.
    pub suppressed: u64,
    /// The node's protocol reports termination.
    pub terminated: bool,
    /// A transport failure (e.g. a recv timeout) that wedged this node.
    /// Reported through the submission path — the coordinator blocks
    /// there, so a silently dying node would deadlock the lock-step round
    /// loop instead of failing the run.
    pub failed: Option<String>,
}

impl<M> Submission<M> {
    /// A failure submission: no sends, just the error that wedged `node`.
    pub fn failure(node: NodeId, err: String) -> Self {
        Submission {
            node,
            sends: Vec::new(),
            suppressed: 0,
            terminated: false,
            failed: Some(err),
        }
    }
}

/// The coordinator's round verdict for one node.
#[derive(Debug)]
pub struct Command<M> {
    /// The node's sends that survived adjudication, in order: its
    /// submission's buffer filtered in place, or the adversary's forgeries
    /// in its stead. [`RoundCore::apply`] encodes them.
    pub sends: Vec<Envelope<M>>,
    /// How many frames to expect for this round's collect phase.
    pub expect: usize,
    /// This node crashed this round: transmit, then tear down.
    pub crashed: bool,
    /// The run is over after this round: transmit nothing, collect nothing.
    pub stop: bool,
}

impl<M> Command<M> {
    /// A bare stop command — used to unwedge surviving nodes after a run
    /// failure.
    pub fn stop() -> Self {
        Command {
            sends: Vec::new(),
            expect: 0,
            crashed: false,
            stop: true,
        }
    }
}

/// One round's adjudicated output: per-participant commands, in node-id
/// order over the nodes that were alive at the round's start.
#[derive(Debug)]
pub struct RoundPlan<M> {
    /// One command per node alive at the start of the round.
    pub commands: Vec<(NodeId, Command<M>)>,
    /// The run is over after this round.
    pub stop: bool,
}

/// Lifecycle of a [`RoundCore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeStatus {
    /// Participating in rounds.
    Active,
    /// Crashed by the adversary; transmits its filter-surviving frames and
    /// never acts again.
    Crashed,
    /// Run over; final state available.
    Stopped,
}

/// The sans-I/O state machine for one node's half of the round loop.
///
/// Drivers own one `RoundCore` per local node and move pure data:
///
/// ```text
/// loop {
///     let sub    = core.activate();          // routed sends -> coordinator
///     let frames = core.apply(command);      // survivors, encoded -> transmit
///     while !core.ready() { core.feed(recv_frame)?; }   // quiescence
///     core.end_round()?;                     // inbox for next activate
/// }
/// ```
///
/// `feed` accepts frames in any arrival order: frames for the *next* round
/// (a fast peer ran ahead) are buffered and replayed when that round
/// starts; frames for a *past* round or a foreign height are protocol
/// violations and error.
pub struct RoundCore<P: Protocol> {
    id: NodeId,
    harness: NodeHarness<P>,
    height: u32,
    round: Round,
    status: NodeStatus,
    expect: usize,
    /// Frames collected for the current round. Like `inbox`, cleared —
    /// not dropped — every round, so a steady run stops allocating.
    got: Vec<Frame>,
    /// Early frames for rounds we have not reached yet.
    pending: Vec<Frame>,
    inbox: Vec<Incoming<P::Msg>>,
    /// The protocol's queued `(port, msg)` sends, kept like `inbox`.
    outbox: Vec<(Port, P::Msg)>,
    /// The envelope buffer between an [`apply`](RoundCore::apply) and the
    /// next [`activate`](RoundCore::activate): it leaves in each
    /// [`Submission`] and returns in the [`Command`], so it is allocated
    /// and freed on this node's thread (unless a tamper replaces it).
    sends: Vec<Envelope<P::Msg>>,
    /// Every payload is encoded here and copied into its frame.
    scratch: Vec<u8>,
}

impl<P> RoundCore<P>
where
    P: Protocol,
    P::Msg: Wire,
{
    /// A fresh node core at round 0 of election instance `height`, for a
    /// caller that drives it alone: it builds a graph of its own to wire
    /// its one map. [`run_over_links`](crate::sync::run_over_links) wires
    /// all its cores from the run's one graph instead.
    pub fn new(cfg: &SimConfig, id: NodeId, state: P, height: u32) -> Self {
        Self::wired(cfg, PortMap::new(&network_edges(cfg), id), state, height)
    }

    /// A fresh core for the node `ports` wires.
    pub(crate) fn wired(cfg: &SimConfig, ports: PortMap, state: P, height: u32) -> Self {
        let harness = NodeHarness::new(cfg, ports, state);
        RoundCore {
            id: harness.node(),
            harness,
            height,
            round: 0,
            status: NodeStatus::Active,
            expect: 0,
            got: Vec::new(),
            pending: Vec::new(),
            inbox: Vec::new(),
            outbox: Vec::new(),
            sends: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The node this core drives.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current lifecycle state.
    pub fn status(&self) -> NodeStatus {
        self.status
    }

    /// Whether this node still participates in rounds.
    pub fn is_active(&self) -> bool {
        self.status == NodeStatus::Active
    }

    /// The round the core is currently in.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Frames collected so far this round (for timeout diagnostics).
    pub fn received(&self) -> usize {
        self.got.len()
    }

    /// Frames the coordinator told us to expect this round.
    pub fn expect(&self) -> usize {
        self.expect
    }

    /// Runs the protocol against the inbox assembled by the previous
    /// [`end_round`](RoundCore::end_round), routes its sends through this
    /// node's port map into the buffer the last [`Command`] returned, and
    /// returns the submission to ship to the coordinator. Only valid while
    /// active.
    pub fn activate(&mut self) -> Submission<P::Msg> {
        debug_assert_eq!(self.status, NodeStatus::Active);
        let meta = self
            .harness
            .activate_into(self.round, &self.inbox, &mut self.outbox);
        let mut sends = std::mem::take(&mut self.sends);
        self.harness.route(&mut self.outbox, &mut sends);
        Submission {
            node: self.id,
            sends,
            suppressed: meta.suppressed,
            terminated: meta.terminated,
            failed: None,
        }
    }

    /// Applies the coordinator's verdict and returns the frames this node
    /// must put on the wire: each surviving send encoded, `seq` numbering
    /// the survivors in order (empty on stop). The command's buffer is
    /// kept for the next [`activate`](RoundCore::activate). After this
    /// call the node is [`Crashed`](NodeStatus::Crashed),
    /// [`Stopped`](NodeStatus::Stopped), or collecting `expect` frames for
    /// the current round.
    pub fn apply(&mut self, command: Command<P::Msg>) -> Vec<(NodeId, Frame)> {
        debug_assert_eq!(self.status, NodeStatus::Active);
        let Command {
            mut sends,
            expect,
            crashed,
            stop,
        } = command;
        let frames = if stop {
            Vec::new()
        } else {
            let (height, round, src) = (self.height, self.round, self.id);
            let scratch = &mut self.scratch;
            sends
                .iter()
                .enumerate()
                .map(|(seq, e)| {
                    scratch.clear();
                    e.msg.encode(scratch);
                    let frame = Frame {
                        height,
                        round,
                        src,
                        seq: seq as u32,
                        payload: Payload::from(&scratch[..]),
                    };
                    (e.dst, frame)
                })
                .collect()
        };
        sends.clear();
        self.sends = sends;
        if crashed {
            self.status = NodeStatus::Crashed;
        } else if stop {
            self.status = NodeStatus::Stopped;
        } else {
            self.expect = expect;
        }
        frames
    }

    /// Feeds one inbound frame.
    ///
    /// Frames for the current round count toward
    /// [`ready`](RoundCore::ready); frames for a later round are buffered
    /// and replayed when [`end_round`](RoundCore::end_round) reaches that
    /// round (fast peers may legitimately run one round ahead). A frame
    /// for a past round or a foreign height is a protocol violation.
    pub fn feed(&mut self, frame: Frame) -> Result<(), String> {
        if frame.height != self.height {
            return Err(format!(
                "node {} got a frame for height {} during height {}",
                self.id.0, frame.height, self.height
            ));
        }
        match frame.round.cmp(&self.round) {
            std::cmp::Ordering::Equal => self.got.push(frame),
            std::cmp::Ordering::Greater => self.pending.push(frame),
            std::cmp::Ordering::Less => {
                return Err(format!(
                    "node {} got a frame for past round {} while collecting round {}",
                    self.id.0, frame.round, self.round
                ));
            }
        }
        Ok(())
    }

    /// Per-round quiescence: everything the coordinator promised for this
    /// round has arrived.
    pub fn ready(&self) -> bool {
        self.got.len() >= self.expect
    }

    /// Closes the current round: sorts the collected frames into the
    /// engine's canonical `(src, seq)` delivery order, decodes them into
    /// next round's inbox (mapping wire addresses to private KT0 ports),
    /// advances the round counter, and replays any buffered frames that
    /// were early for the round just entered.
    pub fn end_round(&mut self) -> Result<(), String> {
        debug_assert!(self.ready());
        self.got.sort_by_key(|f| (f.src.0, f.seq));
        self.inbox.clear();
        for f in &self.got {
            let msg = <P::Msg as Wire>::decode(&f.payload).ok_or_else(|| {
                format!(
                    "node {} got a malformed frame payload from node {} in round {}",
                    self.id.0, f.src.0, f.round
                )
            })?;
            // The sender's id waits in `port` for the one lookup below,
            // which maps every sender to its local port.
            self.inbox.push(Incoming {
                port: Port(f.src.0),
                msg,
            });
        }
        self.harness.ports_from(
            &mut self.inbox,
            |m| NodeId(m.port.0),
            |m, port| m.port = port,
        );
        self.got.clear();
        self.round += 1;
        let round = self.round;
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].round == round {
                let f = self.pending.swap_remove(i);
                self.got.push(f);
            } else {
                i += 1;
            }
        }
        Ok(())
    }

    /// Consumes the core and returns the final protocol state.
    pub fn into_state(self) -> P {
        self.harness.into_state()
    }
}

/// The sans-I/O control plane of a cluster run: the coordinator's half of
/// the round loop, built directly on the engine's [`ControlCore`].
///
/// Per round the driver collects one [`Submission`] from every alive node
/// ([`alive_count`](CoordinatorCore::alive_count) of them, in any order —
/// submissions are keyed by node id) and calls
/// [`adjudicate`](CoordinatorCore::adjudicate). When the returned plan says
/// stop, [`finish`](CoordinatorCore::finish) yields the run's
/// [`RunResult`] — metrics, crash schedule, trace — exactly as the engine
/// would have produced it.
pub struct CoordinatorCore<M> {
    max_rounds: u32,
    height: u32,
    round: Round,
    core: ControlCore,
    terminated: Vec<bool>,
    stopped: bool,
    /// The round's envelopes per sender: each submission's buffer is moved
    /// in, filtered in place and moved back out into its command, so every
    /// entry is empty between rounds.
    outgoing: Vec<Vec<Envelope<M>>>,
    /// Frames each node must collect this round: counted over the
    /// survivors, then taken (left 0) as each command is built.
    expect: Vec<usize>,
    /// The round's sender list: the ids that submitted, sorted, plus any
    /// node a forgery gave traffic.
    senders: Vec<u32>,
}

impl<M: Wire> CoordinatorCore<M> {
    /// A coordinator for one execution of `cfg` at election instance
    /// `height` (0 for single-shot runs).
    ///
    /// # Panics
    ///
    /// Panics on invalid configurations ([`SimConfig::validate`],
    /// `max_rounds == 0`) — same contract as the engine.
    pub fn new<A>(cfg: &SimConfig, height: u32, adversary: &mut A) -> Self
    where
        A: Adversary<M> + ?Sized,
    {
        cfg.validate().expect("invalid SimConfig");
        assert!(cfg.max_rounds > 0, "cluster runs need at least one round");
        CoordinatorCore {
            max_rounds: cfg.max_rounds,
            height,
            round: 0,
            core: ControlCore::new::<M, _>(cfg, network_edges(cfg), adversary),
            terminated: vec![false; cfg.n as usize],
            stopped: false,
            outgoing: (0..cfg.n).map(|_| Vec::new()).collect(),
            expect: vec![0; cfg.n as usize],
            senders: Vec::new(),
        }
    }

    /// The run's graph, which the round driver wires its cores from.
    pub(crate) fn edges(&self) -> &EdgeSet {
        self.core.edges()
    }

    /// The election instance this run adjudicates.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The round about to be adjudicated.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Whether the run is over (set by the last
    /// [`adjudicate`](CoordinatorCore::adjudicate)).
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// How many nodes must submit this round.
    pub fn alive_count(&self) -> usize {
        self.core.alive_count()
    }

    /// Adjudicates one round: lets the adversary tamper, crash and filter
    /// via the engine's [`ControlCore::finish_round`], which filters every
    /// submission's envelopes in place, and hands each participant its
    /// survivors back in a [`Command`]. Errors if any submission carries a
    /// transport failure.
    ///
    /// The run stops exactly when the engine's loop would: round limit
    /// hit, or a quiescent round (nothing delivered, all survivors
    /// terminated). The final round's messages are already fully
    /// accounted; physically shipping bytes no activation will ever read
    /// is skipped, so a stop command's sends are never encoded.
    pub fn adjudicate<A>(
        &mut self,
        submissions: Vec<Submission<M>>,
        adversary: &mut A,
    ) -> Result<RoundPlan<M>, String>
    where
        A: Adversary<M> + ?Sized,
    {
        let round = self.round;
        let mut suppressed = 0u64;
        self.senders.clear();
        for sub in submissions {
            if let Some(err) = sub.failed {
                return Err(err);
            }
            suppressed += sub.suppressed;
            self.terminated[sub.node.index()] = sub.terminated;
            self.outgoing[sub.node.index()] = sub.sends;
            self.senders.push(sub.node.0);
        }
        self.senders.sort_unstable();
        debug_assert_eq!(self.senders.len(), self.core.alive_count());

        // Adjudicate: `outgoing` is filtered in place down to the
        // deliverable envelopes. Every alive node submitted, so every
        // receiver and every survivor is in `senders`.
        let verdict = self.core.finish_round(
            round,
            &mut self.outgoing,
            &mut self.senders,
            suppressed,
            adversary,
        );

        for &u in &self.senders {
            for e in &self.outgoing[u as usize] {
                self.expect[e.dst.index()] += 1;
            }
        }
        let stop = round + 1 == self.max_rounds
            || (verdict.delivered == 0
                && self
                    .senders
                    .iter()
                    .all(|&u| self.terminated[u as usize] || !self.core.is_alive(NodeId(u))));
        self.stopped = stop;
        self.round += 1;

        let commands = self
            .senders
            .iter()
            .map(|&u| {
                let command = Command {
                    sends: std::mem::take(&mut self.outgoing[u as usize]),
                    expect: std::mem::take(&mut self.expect[u as usize]),
                    crashed: verdict.crashed.contains(&NodeId(u)),
                    stop,
                };
                (NodeId(u), command)
            })
            .collect();
        Ok(RoundPlan { commands, stop })
    }

    /// Closes the books into the run's [`RunResult`]: the nodes' final
    /// `states` (in id order) beside the metrics, crash schedule, faulty
    /// set and trace, with the transport's `wire_bytes`.
    pub fn finish<P>(self, states: Vec<P>, wire_bytes: u64) -> RunResult<P> {
        self.core.finish(states, wire_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_sim::adversary::{DeliveryFilter, FaultPlan, NoFaults, ScriptedCrash};
    use ftc_sim::engine::run;
    use ftc_sim::protocol::Ctx;

    /// Broadcasts its round number for 3 rounds and counts what it hears.
    struct Chatter {
        heard: u64,
        rounds: u32,
    }

    impl Protocol for Chatter {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.broadcast(0);
        }
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Incoming<u64>]) {
            self.heard += inbox.iter().map(|m| m.msg + 1).sum::<u64>();
            self.rounds += 1;
            if self.rounds < 3 {
                ctx.broadcast(u64::from(ctx.round()));
            }
        }
        fn is_terminated(&self) -> bool {
            self.rounds >= 3
        }
    }

    fn chatter() -> Chatter {
        Chatter {
            heard: 0,
            rounds: 0,
        }
    }

    /// Drives a full run with the two cores and nothing else — pure data
    /// movement, no threads, no sockets. `scramble` controls the order
    /// frames are fed to receivers.
    fn drive<A: Adversary<u64> + ?Sized>(
        cfg: &SimConfig,
        adversary: &mut A,
        scramble: bool,
    ) -> (RunResult<Chatter>, u64) {
        let mut coord = CoordinatorCore::<u64>::new(cfg, 0, adversary);
        let mut nodes: Vec<RoundCore<Chatter>> = (0..cfg.n)
            .map(|i| RoundCore::new(cfg, NodeId(i), chatter(), 0))
            .collect();
        let mut wire_bytes = 0u64;
        while !coord.stopped() {
            let subs: Vec<Submission<u64>> = nodes
                .iter_mut()
                .filter(|n| n.is_active())
                .map(RoundCore::activate)
                .collect();
            let plan = coord.adjudicate(subs, adversary).expect("no failures");
            // Transmit: deliver every frame as pure data, optionally in
            // reversed order to exercise out-of-order feeding.
            let mut in_flight: Vec<(NodeId, Frame)> = Vec::new();
            for (u, command) in plan.commands {
                in_flight.extend(nodes[u.index()].apply(command));
            }
            if scramble {
                in_flight.reverse();
            }
            for (dst, frame) in in_flight {
                wire_bytes += frame.encoded_len();
                nodes[dst.index()].feed(frame).expect("valid frame");
            }
            if plan.stop {
                break;
            }
            for node in nodes.iter_mut().filter(|n| n.is_active()) {
                assert!(node.ready(), "round incomplete after full delivery");
                node.end_round().expect("well-formed round");
            }
        }
        let states = nodes.into_iter().map(RoundCore::into_state).collect();
        (coord.finish(states, wire_bytes), wire_bytes)
    }

    #[test]
    fn pure_core_replays_the_engine_fault_free() {
        let cfg = SimConfig::new(16).seed(5).max_rounds(10);
        let sim = run(&cfg, |_| chatter(), &mut NoFaults);
        for scramble in [false, true] {
            let (out, wire) = drive(&cfg, &mut NoFaults, scramble);
            assert_eq!(out.metrics.msgs_sent, sim.metrics.msgs_sent);
            assert_eq!(out.metrics.msgs_delivered, sim.metrics.msgs_delivered);
            assert_eq!(out.metrics.rounds, sim.metrics.rounds);
            assert_eq!(out.metrics.wire_bytes, wire);
            let heard: Vec<u64> = out.states.iter().map(|s| s.heard).collect();
            let sim_heard: Vec<u64> = sim.states.iter().map(|s| s.heard).collect();
            assert_eq!(heard, sim_heard);
        }
    }

    #[test]
    fn pure_core_replays_the_engine_under_partial_delivery() {
        let plan = FaultPlan::new()
            .crash(NodeId(2), 1, DeliveryFilter::KeepFirst(3))
            .crash(
                NodeId(5),
                0,
                DeliveryFilter::DeliverEachWithProbability(0.5),
            );
        let cfg = SimConfig::new(12).seed(3).max_rounds(8);
        let sim = run(&cfg, |_| chatter(), &mut ScriptedCrash::new(plan.clone()));
        let (out, _) = drive(&cfg, &mut ScriptedCrash::new(plan), true);
        assert_eq!(out.metrics.msgs_delivered, sim.metrics.msgs_delivered);
        assert_eq!(out.crashed_at, sim.crashed_at);
        let heard: Vec<u64> = out.states.iter().map(|s| s.heard).collect();
        let sim_heard: Vec<u64> = sim.states.iter().map(|s| s.heard).collect();
        assert_eq!(heard, sim_heard);
    }

    #[test]
    fn apply_encodes_the_survivors_and_hands_the_buffer_to_the_next_activate() {
        // Node 2 crashes in round 0 keeping its first two sends: its
        // command carries exactly those, and `apply` numbers them 0 and 1
        // with the bytes `Wire::encode` writes.
        let cfg = SimConfig::new(6).seed(4).max_rounds(4);
        let crash = FaultPlan::new().crash(NodeId(2), 0, DeliveryFilter::KeepFirst(2));
        let mut adv = ScriptedCrash::new(crash);
        let mut coord = CoordinatorCore::<u64>::new(&cfg, 0, &mut adv);
        let mut nodes: Vec<RoundCore<Chatter>> = (0..cfg.n)
            .map(|i| RoundCore::new(&cfg, NodeId(i), chatter(), 0))
            .collect();
        let subs = nodes.iter_mut().map(RoundCore::activate).collect();
        let mut commands: Vec<Command<u64>> = coord
            .adjudicate(subs, &mut adv)
            .unwrap()
            .commands
            .into_iter()
            .map(|(_, command)| command)
            .collect();

        let crashed = commands.remove(2);
        assert!(crashed.crashed);
        let dsts: Vec<NodeId> = crashed.sends.iter().map(|e| e.dst).collect();
        let frames = nodes[2].apply(crashed);
        assert_eq!(nodes[2].status(), NodeStatus::Crashed);
        let mut zero = Vec::new();
        0u64.encode(&mut zero);
        assert_eq!(frames.len(), 2);
        for (seq, (dst, f)) in frames.iter().enumerate() {
            assert_eq!(*dst, dsts[seq]);
            assert_eq!(
                (f.height, f.round, f.src, f.seq),
                (0, 0, NodeId(2), seq as u32)
            );
            assert_eq!(&f.payload[..], &zero[..]);
        }

        // Node 0's buffer comes back in its command; `apply` keeps it and
        // the next `activate` routes into the same allocation.
        let buffer = commands[0].sends.as_ptr();
        let mut in_flight = frames;
        for (u, command) in [0, 1, 3, 4, 5].into_iter().zip(commands) {
            in_flight.extend(nodes[u].apply(command));
        }
        for (dst, frame) in in_flight {
            nodes[dst.index()].feed(frame).unwrap();
        }
        for node in nodes.iter_mut().filter(|n| n.is_active()) {
            node.end_round().unwrap();
        }
        let sub = nodes[0].activate();
        assert!(!sub.sends.is_empty());
        assert_eq!(sub.sends.as_ptr(), buffer);

        // A stop command encodes nothing, whatever it carries.
        let stop = Command {
            sends: sub.sends,
            expect: 3,
            crashed: false,
            stop: true,
        };
        assert!(nodes[0].apply(stop).is_empty());
        assert_eq!(nodes[0].status(), NodeStatus::Stopped);
    }

    #[test]
    fn feed_buffers_early_rounds_and_replays_them() {
        let cfg = SimConfig::new(4).seed(1).max_rounds(4);
        let mut node = RoundCore::new(&cfg, NodeId(0), chatter(), 0);
        let early = Frame {
            height: 0,
            round: 1,
            src: NodeId(2),
            seq: 0,
            payload: {
                let mut b = Vec::new();
                7u64.encode(&mut b);
                b.into()
            },
        };
        node.feed(early).unwrap();
        // The early frame does not complete round 0...
        node.expect = 0;
        assert!(node.ready());
        node.end_round().unwrap();
        // ...but is replayed the moment round 1 starts.
        assert_eq!(node.round(), 1);
        assert_eq!(node.received(), 1);
    }

    #[test]
    fn feed_rejects_stale_rounds_and_foreign_heights() {
        let cfg = SimConfig::new(4).seed(1).max_rounds(4);
        let mut node = RoundCore::new(&cfg, NodeId(1), chatter(), 3);
        let mk = |height, round| Frame {
            height,
            round,
            src: NodeId(0),
            seq: 0,
            payload: Payload::default(),
        };
        let err = node.feed(mk(2, 0)).unwrap_err();
        assert!(err.contains("height 2 during height 3"), "{err}");
        node.end_round().unwrap();
        let err = node.feed(mk(3, 0)).unwrap_err();
        assert!(err.contains("past round 0"), "{err}");
    }

    #[test]
    fn malformed_payload_is_an_error_not_a_panic() {
        let cfg = SimConfig::new(4).seed(1).max_rounds(4);
        let mut node = RoundCore::new(&cfg, NodeId(0), chatter(), 0);
        node.feed(Frame {
            height: 0,
            round: 0,
            src: NodeId(1),
            seq: 0,
            payload: vec![0xFF; 3].into(), // too short for a u64
        })
        .unwrap();
        let err = node.end_round().unwrap_err();
        assert!(err.contains("malformed frame payload"), "{err}");
    }
}
