//! The socket link: how `ftc-mesh` moves frames for the one round driver
//! in [`ftc_net::sync`].
//!
//! ## One driver, three links
//!
//! The round loop — activate, submit, apply, transmit, collect, end-round,
//! with its wire-fault hooks, accounting, dedup and failure reports — is
//! [`ftc_net::sync::run_over_links`], shared with the channel runtime.
//! This module supplies only the mechanism that differs: a [`Link`] over
//! the proc-pair socket fabric. The channel substrate's
//! `ftc_net::channel::ChannelLink` has the same shape, with an `mpsc`
//! queue per worker where this one has sockets; the third link,
//! `run_over`'s per-node endpoints, exists for callers that wrap
//! endpoints. `procs` workers ("procs") each own the
//! nodes `u ≡ proc (mod procs)`; the coordinator's commands reach them
//! over in-process channels (the control plane never touches the
//! sockets), and the *data plane* moves over the fabric as
//! [`crate::wire`] envelopes:
//!
//! * **send** — a proc-local destination is handed back to the loop, which
//!   feeds it straight into the destination core (no socket, no copy); a
//!   remote one is staged into its peer proc's [`WriteBuf`], so a round's
//!   traffic towards a peer coalesces into few large writes;
//! * **pump** — one flush of whatever the kernel will take, one sleep in
//!   `poll(2)` until a live peer's bytes land or a peer it has bytes
//!   staged for takes more, one drain of the readable sockets through the
//!   per-peer [`EnvelopeDecoder`]s. The loop pumps until the node it
//!   waits on is ready, then until nothing is staged.
//!
//! ## Backpressure without deadlock
//!
//! There are no unbounded intake queues and no reader threads. Writes
//! are nonblocking: when the kernel's socket buffer fills (`WouldBlock`),
//! the pump waits for room on that socket too while it keeps draining
//! its *own* readable sockets — freeing its peers' send paths — and the
//! pump the kernel wakes with room retries the flush. Every proc
//! stages before it collects and never blocks on a write, so the round
//! loop cannot deadlock; in-flight data per socket is bounded by the
//! kernel buffer plus at most one round of traffic per sender (procs are
//! never more than one round apart — the coordinator's lock-step sees to
//! it).
//!
//! ## The watchdog
//!
//! This link is the only code in `ftc-net` and `ftc-mesh` that reads a
//! clock. A healthy run moves bytes on almost every pump; a pump with
//! none to move sleeps until some can, or until `recv_timeout` after the
//! last one did — no periodic wake, and a peer that closed reads EOF once
//! and is deregistered — then fails with `TimedOut`, naming the proc, the
//! bytes still staged and the peer procs they are stuck on, and the loop
//! attributes it to the node it was waiting on.

use std::io;
use std::time::{Duration, Instant};

use ftc_net::fault::ChunkedWriter;
use ftc_net::frame::Frame;
use ftc_net::sync::{run_over_links, Link, NetRunResult, RunOpts};
use ftc_sim::adversary::Adversary;
use ftc_sim::engine::SimConfig;
use ftc_sim::ids::NodeId;
use ftc_sim::payload::Wire;
use ftc_sim::protocol::Protocol;
use ftc_sim::round::network_edges;

use crate::fabric::{self, ProcLinks};
use crate::wire::{EnvelopeDecoder, WriteBuf};

/// Opens the proc-pair fabric for `cfg` on `procs` procs (clamped to
/// `1..=min(n, MAX_MESH_PROCS)`). On the complete graph every pair of
/// procs shares traffic, so this is plain [`fabric::build`]; on a sparse
/// topology a pair gets a socket only when some model edge crosses between
/// its procs' node slices — at one node per proc, exactly one connection
/// per topology edge.
fn build_links(cfg: &SimConfig, procs: usize) -> io::Result<Vec<ProcLinks>> {
    cfg.validate().expect("invalid SimConfig");
    let procs = procs.clamp(1, (cfg.n as usize).min(fabric::MAX_MESH_PROCS));
    if cfg.topology.is_complete() || procs <= 1 {
        return fabric::build(procs);
    }
    let edges = network_edges(cfg);
    let mut crossed = vec![false; procs * procs];
    edges.for_each_edge(|u, v| {
        let (p, q) = (u as usize % procs, v as usize % procs);
        if p != q {
            crossed[p * procs + q] = true;
            crossed[q * procs + p] = true;
        }
    });
    fabric::build_where(procs, |p, q| crossed[p * procs + q])
}

/// Opens the fabric for `cfg` ([`build_links`]) and wraps each proc's half
/// in its [`SocketLink`], ready for [`run_over_links`].
pub(crate) fn socket_links(
    cfg: &SimConfig,
    procs: usize,
    recv_timeout: Duration,
) -> io::Result<Vec<SocketLink>> {
    build_links(cfg, procs)?
        .into_iter()
        .enumerate()
        .map(|(index, links)| SocketLink::new(index, links, recv_timeout))
        .collect()
}

/// Runs `cfg` over the multiplexed socket mesh with `procs` processes and
/// default [`RunOpts`].
///
/// The result is bit-identical to [`ftc_sim::engine::run`] (and to the
/// channel runtime) for the same `(SimConfig, seed)` at any `procs` —
/// asserted by `tests/net_equivalence.rs`.
///
/// Fails if the socket fabric cannot be built; panics on invalid
/// configurations or mid-run transport failures, like
/// [`ftc_net::sync::run_over`]. `Substrate::Mesh(procs).run(..)` is the
/// same run under explicit [`RunOpts`] with every failure an `Err`.
pub fn run_over_mesh<P, F, A>(
    cfg: &SimConfig,
    procs: usize,
    factory: F,
    adversary: &mut A,
) -> io::Result<NetRunResult<P>>
where
    P: Protocol,
    P::Msg: Wire,
    F: FnMut(NodeId) -> P,
    A: Adversary<P::Msg> + ?Sized,
{
    let opts = RunOpts::default();
    let links = socket_links(cfg, procs, opts.recv_timeout)?;
    Ok(run_over_links(cfg, links, factory, adversary, &opts)
        .unwrap_or_else(|err| panic!("cluster run wedged: {err}")))
}

/// One proc's half of the fabric as a [`Link`]: its socket to every peer
/// proc with the per-peer write buffer and decoder, the readiness poller
/// they are registered with, and the no-progress watchdog.
pub(crate) struct SocketLink {
    index: usize,
    links: ProcLinks,
    out: Vec<WriteBuf>,
    dec: Vec<EnvelopeDecoder>,
    poll: mio::Poll,
    events: mio::Events,
    /// What each peer's socket is registered for: readable, and writable
    /// while staged bytes are blocked on it. `None`: no socket, or EOF.
    interest: Vec<Option<mio::Interest>>,
    read_buf: Vec<u8>,
    /// This round's cap on every write syscall (a scheduled tear).
    tear: Option<usize>,
    recv_timeout: Duration,
    /// When the current run of pumps that moved no byte began.
    idle_since: Option<Instant>,
    /// Readiness waits made, for the tests that count them.
    #[cfg(test)]
    polls: usize,
}

/// `e` with the proc it happened on and what that proc was doing
/// prepended; the kind is kept.
fn annotate(index: usize, doing: std::fmt::Arguments, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("mesh proc {index} {doing}: {e}"))
}

impl SocketLink {
    /// Registers every peer socket once, token = peer proc index.
    fn new(index: usize, links: ProcLinks, recv_timeout: Duration) -> io::Result<Self> {
        let procs = links.len();
        let poll = mio::Poll::new().map_err(|e| annotate(index, format_args!("poller"), e))?;
        let mut interest = vec![None; procs];
        for (peer, link) in links.iter().enumerate() {
            if let Some(stream) = link {
                poll.registry()
                    .register(stream, mio::Token(peer), mio::Interest::READABLE)
                    .map_err(|e| annotate(index, format_args!("register proc {peer}"), e))?;
                interest[peer] = Some(mio::Interest::READABLE);
            }
        }
        Ok(SocketLink {
            index,
            links,
            out: (0..procs).map(|_| WriteBuf::new()).collect(),
            dec: (0..procs).map(|_| EnvelopeDecoder::new()).collect(),
            poll,
            events: mio::Events::with_capacity(procs.max(4)),
            interest,
            read_buf: vec![0u8; 64 * 1024],
            tear: None,
            recv_timeout,
            idle_since: None,
            #[cfg(test)]
            polls: 0,
        })
    }

    /// Writes whatever the kernel will take; `WouldBlock` is backpressure:
    /// the socket is armed for writability, so the wait that follows ends
    /// when there is room, and disarmed once its buffer is out. A scheduled
    /// tear caps every write syscall, so the peer reads the round's
    /// envelopes in worst-case fragments; the buffer is still drained in
    /// full (delivery is preserved, only the fragmentation changes).
    fn flush(&mut self) -> io::Result<bool> {
        let mut progressed = false;
        for (peer, wb) in self.out.iter_mut().enumerate() {
            if wb.is_empty() {
                continue;
            }
            let stream = self.links[peer].as_mut().expect("staged only on a link");
            let flushed = match self.tear {
                Some(chunk) => wb.flush_into(&mut ChunkedWriter::new(stream, chunk)),
                None => wb.flush_into(stream),
            };
            progressed |= flushed
                .map_err(|e| annotate(self.index, format_args!("write to proc {peer}"), e))?;
            let mut want = mio::Interest::READABLE;
            if !wb.is_empty() {
                want = want | mio::Interest::WRITABLE;
            }
            if self.interest[peer].is_some_and(|have| have != want) {
                (self.poll.registry())
                    .reregister(stream, mio::Token(peer), want)
                    .map_err(|e| annotate(self.index, format_args!("rearm proc {peer}"), e))?;
                self.interest[peer] = Some(want);
            }
        }
        Ok(progressed)
    }

    /// Drains the sockets the last poll found readable into their decoders,
    /// and every complete envelope into `inbound`, addressed by the slot of
    /// its destination node on this proc (`dst ≡ index (mod procs)`).
    fn drain(&mut self, inbound: &mut Vec<(usize, Frame)>) -> io::Result<bool> {
        let (index, procs) = (self.index, self.links.len());
        let mut progressed = false;
        for event in self.events.iter().filter(|e| e.is_readable()) {
            let peer = event.token().0;
            let stream = self.links[peer].as_mut().expect("registered link");
            // One burst per event is enough; the next poll re-reports the
            // socket if more is queued.
            loop {
                match io::Read::read(stream, &mut self.read_buf) {
                    Ok(0) => {
                        // Peer closed, its frames are all in: stop polling it.
                        self.poll.registry().deregister(mio::Token(peer));
                        self.interest[peer] = None;
                    }
                    Ok(k) => {
                        self.dec[peer].extend(&self.read_buf[..k]);
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        return Err(annotate(index, format_args!("read from proc {peer}"), e))
                    }
                }
                break;
            }
            while let Some((dst, frame)) = self.dec[peer]
                .next()
                .map_err(|e| annotate(index, format_args!("envelope from proc {peer}"), e))?
            {
                if dst.index() % procs != index {
                    let owner = dst.index() % procs;
                    let msg = format!(
                        "mesh proc {index} got an envelope from proc {peer} for node {dst}, \
                         which lives on proc {owner}"
                    );
                    return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
                }
                inbound.push((dst.index() / procs, frame));
            }
        }
        Ok(progressed)
    }

    /// The watchdog's verdict: nothing moved for `recv_timeout`.
    fn stalled(&self) -> io::Error {
        let staged: usize = self.out.iter().map(WriteBuf::pending_bytes).sum();
        let peers: Vec<usize> = (0..self.out.len())
            .filter(|&peer| !self.out[peer].is_empty())
            .collect();
        let (index, timeout) = (self.index, self.recv_timeout);
        let msg = if staged == 0 {
            format!("mesh proc {index} waited {timeout:?}")
        } else {
            format!(
                "mesh proc {index} timed out flushing {staged} staged bytes \
                 to procs {peers:?} after {timeout:?}"
            )
        };
        io::Error::new(io::ErrorKind::TimedOut, msg)
    }
}

impl Link for SocketLink {
    fn send(&mut self, _slot: usize, dst: NodeId, frame: Frame) -> io::Result<Option<Frame>> {
        let peer = dst.index() % self.links.len();
        if peer == self.index {
            return Ok(Some(frame));
        }
        if self.links[peer].is_none() {
            // The gated fabric opened no socket here: the coordinator
            // routed a frame along an edge the topology does not have.
            let msg = format!(
                "mesh proc {} has no socket to proc {peer} (frame for node {dst})",
                self.index
            );
            return Err(io::Error::new(io::ErrorKind::NotConnected, msg));
        }
        self.out[peer].stage(dst, &frame);
        Ok(None)
    }

    /// Sockets are shared per proc pair and outlive any one node: a crash
    /// is fully enacted by the filtered burst (D13).
    fn teardown(&mut self, _slot: usize) {}

    fn tear(&mut self, chunk: Option<usize>) {
        self.tear = chunk;
    }

    fn pump(
        &mut self,
        waiting: Option<usize>,
        inbound: &mut Vec<(usize, Frame)>,
    ) -> io::Result<bool> {
        if self.flush()? {
            self.idle_since = None;
        }
        let staged = !self.out.iter().all(WriteBuf::is_empty);
        if waiting.is_none() && !staged {
            // The collect phase is over; the next one starts a fresh count.
            self.idle_since = None;
            return Ok(false);
        }
        // Sleep in the kernel until bytes can move or the watchdog is due.
        let idle_since = *self.idle_since.get_or_insert_with(Instant::now);
        let left = self.recv_timeout.saturating_sub(idle_since.elapsed());
        #[cfg(test)]
        (self.polls += 1);
        self.poll
            .poll(&mut self.events, Some(left))
            .map_err(|e| annotate(self.index, format_args!("poll"), e))?;
        if self.drain(inbound)? {
            self.idle_since = None;
        } else if idle_since.elapsed() >= self.recv_timeout {
            return Err(self.stalled());
        }
        Ok(staged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::Substrate;
    use ftc_sim::adversary::{DeliveryFilter, EagerCrash, FaultPlan, NoFaults, ScriptedCrash};
    use ftc_sim::engine::{run, RunResult};
    use ftc_sim::protocol::{Ctx, Incoming};

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

    fn chatter(_: NodeId) -> Chatter {
        Chatter {
            heard: 0,
            rounds: 0,
        }
    }

    fn assert_matches_engine(net: &NetRunResult<Chatter>, sim: &RunResult<Chatter>) {
        assert_eq!(net.run.metrics.msgs_sent, sim.metrics.msgs_sent);
        assert_eq!(net.run.metrics.msgs_delivered, sim.metrics.msgs_delivered);
        assert_eq!(net.run.metrics.bits_sent, sim.metrics.bits_sent);
        assert_eq!(net.run.metrics.rounds, sim.metrics.rounds);
        assert_eq!(net.run.crashed_at, sim.crashed_at);
        let net_heard: Vec<u64> = net.run.states.iter().map(|s| s.heard).collect();
        let sim_heard: Vec<u64> = sim.states.iter().map(|s| s.heard).collect();
        assert_eq!(net_heard, sim_heard, "per-node observations diverged");
    }

    #[test]
    fn mesh_replays_the_engine_fault_free_at_any_proc_count() {
        let cfg = SimConfig::new(16).seed(5).max_rounds(10);
        let sim = run(&cfg, chatter, &mut NoFaults);
        for procs in [1, 2, 5, 16] {
            let net = run_over_mesh(&cfg, procs, chatter, &mut NoFaults).expect("fabric");
            assert_matches_engine(&net, &sim);
            assert!(net.net.frames_sent > 0);
            assert_eq!(net.run.metrics.wire_bytes, net.net.wire_bytes);
        }
    }

    #[test]
    fn mesh_replays_the_engine_on_sparse_topologies() {
        use ftc_sim::topology::Topology;
        // The gated fabric (sockets only where a model edge crosses
        // between proc slices) must not change a single bit of the run,
        // at any proc count.
        for topology in [
            Topology::DiameterTwo { clusters: 3 },
            Topology::RandomRegular { d: 4 },
        ] {
            let cfg = SimConfig::new(16)
                .seed(21)
                .max_rounds(10)
                .topology(topology.clone());
            let sim = run(&cfg, chatter, &mut NoFaults);
            for procs in [1, 3, 8] {
                let net = run_over_mesh(&cfg, procs, chatter, &mut NoFaults).expect("fabric");
                assert_matches_engine(&net, &sim);
            }
        }
    }

    #[test]
    fn gated_fabric_skips_proc_pairs_with_no_crossing_edge() {
        use ftc_sim::topology::Topology;
        use std::sync::Arc;
        // Two disjoint components {0,1} and {2,3} on 4 procs (one node
        // per proc): only pairs (0,1) and (2,3) ever share traffic, so
        // only they get sockets — and the run still replays the engine.
        let split = Topology::Explicit {
            adjacency: Arc::new(vec![vec![1], vec![0], vec![3], vec![2]]),
        };
        let cfg = SimConfig::new(4)
            .seed(2)
            .max_rounds(6)
            .topology(split.clone());
        let links = build_links(&cfg, 4).expect("fabric");
        for (p, mine) in links.iter().enumerate() {
            for (q, link) in mine.iter().enumerate() {
                let expect = matches!((p.min(q), p.max(q)), (0, 1) | (2, 3));
                assert_eq!(link.is_some(), expect, "pair ({p},{q})");
            }
        }
        let sim = run(&cfg, chatter, &mut NoFaults);
        let net = run_over_mesh(&cfg, 4, chatter, &mut NoFaults).expect("fabric");
        assert_matches_engine(&net, &sim);
    }

    #[test]
    fn mesh_replays_the_engine_under_crashes_and_filters() {
        let plan = FaultPlan::new()
            .crash(NodeId(2), 1, DeliveryFilter::KeepFirst(3))
            .crash(
                NodeId(5),
                0,
                DeliveryFilter::DeliverEachWithProbability(0.5),
            );
        let cfg = SimConfig::new(12).seed(3).max_rounds(8);
        let sim = run(&cfg, chatter, &mut ScriptedCrash::new(plan.clone()));
        for procs in [1, 3] {
            let net = run_over_mesh(&cfg, procs, chatter, &mut ScriptedCrash::new(plan.clone()))
                .expect("fabric");
            assert_matches_engine(&net, &sim);
        }
    }

    #[test]
    fn mesh_wire_accounting_is_procs_invariant_and_matches_channel() {
        let cfg = SimConfig::new(24).seed(9).max_rounds(12);
        let channel = ftc_net::sync::run_over_channel(&cfg, 3, chatter, &mut EagerCrash::new(4));
        for procs in [1, 2, 6] {
            let net = run_over_mesh(&cfg, procs, chatter, &mut EagerCrash::new(4)).expect("fabric");
            assert_eq!(net.net.wire_bytes, channel.net.wire_bytes);
            assert_eq!(net.net.frames_sent, channel.net.frames_sent);
        }
    }

    #[test]
    fn wire_faults_are_model_invisible_on_the_mesh() {
        use ftc_net::fault::{WireFaultKind, WireFaultPlan};
        // Crash schedule plus wire chaos — reorder, duplicate (including
        // the crashing node's crash-round burst), torn writes, delay.
        // Delivery-preserving faults must leave the model result and the
        // byte accounting bit-identical to the engine and the clean run,
        // at every proc count.
        let plan = FaultPlan::new().crash(NodeId(2), 1, DeliveryFilter::KeepFirst(3));
        let cfg = SimConfig::new(12).seed(3).max_rounds(8);
        let sim = run(&cfg, chatter, &mut ScriptedCrash::new(plan.clone()));
        let clean =
            run_over_mesh(&cfg, 2, chatter, &mut ScriptedCrash::new(plan.clone())).expect("fabric");
        let wire = WireFaultPlan::new(23)
            .fault(NodeId(0), 0, WireFaultKind::Reorder)
            .fault(NodeId(1), 0, WireFaultKind::Duplicate)
            .fault(NodeId(2), 1, WireFaultKind::Duplicate)
            .fault(NodeId(2), 1, WireFaultKind::Reorder)
            .fault(NodeId(3), 1, WireFaultKind::Tear { chunk: 1 })
            .fault(NodeId(4), 2, WireFaultKind::Delay { micros: 200 });
        for procs in [1, 3] {
            let opts = RunOpts {
                wire: Some(&wire),
                ..RunOpts::default()
            };
            let mut adv = ScriptedCrash::new(plan.clone());
            let net = Substrate::Mesh(procs)
                .run(&cfg, chatter, &mut adv, &opts)
                .unwrap();
            assert_matches_engine(&net, &sim);
            assert_eq!(net.net.wire_bytes, clean.net.wire_bytes);
            assert_eq!(net.net.frames_sent, clean.net.frames_sent);
        }
    }

    #[test]
    fn repeated_heights_replay_with_a_mid_broadcast_crash() {
        let cfg = SimConfig::new(10).seed(21).max_rounds(8);
        let plan = FaultPlan::new().crash(NodeId(3), 1, DeliveryFilter::KeepFirst(2));
        let sim = run(&cfg, chatter, &mut ScriptedCrash::new(plan.clone()));
        for height in [0, 1, 7] {
            let opts = RunOpts {
                height,
                ..RunOpts::default()
            };
            let mut adv = ScriptedCrash::new(plan.clone());
            let net = Substrate::Mesh(3)
                .run(&cfg, chatter, &mut adv, &opts)
                .unwrap();
            assert_matches_engine(&net, &sim);
        }
    }

    /// A link that loses the first frame sent towards `victim` — the one
    /// thing no real link may do, so the victim starves.
    struct Lossy<L> {
        inner: L,
        victim: Option<NodeId>,
    }

    impl<L: Link> Link for Lossy<L> {
        fn send(&mut self, slot: usize, dst: NodeId, frame: Frame) -> io::Result<Option<Frame>> {
            if self.victim == Some(dst) {
                self.victim = None;
                return Ok(None);
            }
            self.inner.send(slot, dst, frame)
        }

        fn teardown(&mut self, slot: usize) {
            self.inner.teardown(slot);
        }

        fn tear(&mut self, chunk: Option<usize>) {
            self.inner.tear(chunk);
        }

        fn pump(
            &mut self,
            waiting: Option<usize>,
            inbound: &mut Vec<(usize, Frame)>,
        ) -> io::Result<bool> {
            self.inner.pump(waiting, inbound)
        }
    }

    #[test]
    fn a_starved_node_wedges_the_run_with_the_same_report_on_both_links() {
        // No link's timeout trips on a healthy run (per wait on channels,
        // no-progress on sockets), so starve a node for real: two nodes,
        // one per worker, and node 0's round-0 frame to node 1 is lost.
        // Node 1 was promised one frame and gets none; whichever link
        // carries the run, the one loop must abort it — not deadlock the
        // coordinator — naming the node, the round and how far it got.
        fn starve<L: Link>(links: Vec<L>) -> String {
            let cfg = SimConfig::new(2).seed(1).max_rounds(4);
            let mut victim = Some(NodeId(1));
            let lossy = links.into_iter().map(|inner| Lossy {
                inner,
                victim: victim.take(),
            });
            run_over_links(
                &cfg,
                lossy.collect(),
                chatter,
                &mut NoFaults,
                &RunOpts::default(),
            )
            .err()
            .expect("a starved node must wedge the run")
        }
        let cfg = SimConfig::new(2);
        let timeout = Duration::from_millis(50);
        let table = [
            (
                "channel",
                starve(ftc_net::channel::links(cfg.n, 2, timeout)),
            ),
            (
                "socket",
                starve(socket_links(&cfg, 2, timeout).expect("fabric")),
            ),
        ];
        for (link, err) in table {
            assert!(
                err.starts_with("node n1 timed out collecting round 0: got 0 of 1 frames ("),
                "{link} link: {err}"
            );
            assert!(err.contains("waited 50ms"), "{link} link: {err}");
        }
    }

    #[test]
    fn a_flush_stall_reports_the_staged_bytes_and_the_procs_they_are_stuck_on() {
        // Stage 16 MiB — far more than a localhost socket buffers —
        // towards a peer proc that is held open but never reads. With
        // nothing to collect, the link can only flush; once the kernel
        // stops taking bytes the watchdog must say how many are left and
        // where they were going.
        let cfg = SimConfig::new(2);
        let mut links = socket_links(&cfg, 2, Duration::from_millis(50)).expect("fabric");
        let _silent_peer = links.pop().unwrap();
        let mut link = links.pop().unwrap();
        let mut total = 0;
        for seq in 0..256 {
            let frame = Frame {
                height: 0,
                round: 0,
                src: NodeId(0),
                seq,
                payload: vec![0xAB; 64 * 1024].into(),
            };
            total += crate::wire::ENVELOPE_PREFIX + frame.encoded_len() as usize;
            assert!(link.send(0, NodeId(1), frame).unwrap().is_none());
        }
        let mut inbound = Vec::new();
        let err = loop {
            match link.pump(None, &mut inbound) {
                Ok(true) => continue,
                Ok(false) => panic!("flushed {total} bytes into a socket nobody reads"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let left = link.out[1].pending_bytes();
        assert!(0 < left && left < total, "{left} of {total} bytes left");
        assert_eq!(
            err.to_string(),
            format!("mesh proc 0 timed out flushing {left} staged bytes to procs [1] after 50ms")
        );
    }

    #[test]
    fn a_finished_peer_does_not_turn_a_wait_into_a_spin() {
        // Proc 1 has finished and closed its sockets; proc 0 still waits
        // on proc 2, which is alive and silent. A closed socket is
        // readable for ever, so unless its EOF deregisters it every wait
        // returns at once and the proc spins until the watchdog fires.
        let mut fabric = fabric::build(3).expect("fabric");
        let _silent = fabric.pop().unwrap();
        drop(fabric.pop().unwrap());
        let timeout = Duration::from_millis(50);
        let mut link = SocketLink::new(0, fabric.pop().unwrap(), timeout).unwrap();
        let mut inbound = Vec::new();
        let mut pumps = 0;
        let err = loop {
            pumps += 1;
            if let Err(e) = link.pump(Some(0), &mut inbound) {
                break e;
            }
        };
        assert!(pumps <= 100, "{pumps} pumps in {timeout:?}");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(err.to_string(), "mesh proc 0 waited 50ms");
        assert_eq!(link.interest, [None, None, Some(mio::Interest::READABLE)]);
    }

    #[test]
    fn a_silent_live_peer_costs_one_sleep_and_times_out_on_time() {
        let timeout = Duration::from_millis(200);
        let mut links = socket_links(&SimConfig::new(2), 2, timeout).expect("fabric");
        let _silent_peer = links.pop().unwrap();
        let mut link = links.pop().unwrap();
        let mut inbound = Vec::new();
        let t0 = Instant::now();
        let err = loop {
            if let Err(e) = link.pump(Some(0), &mut inbound) {
                break e;
            }
        };
        let waited = t0.elapsed();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(err.to_string(), "mesh proc 0 waited 200ms");
        assert!(
            timeout <= waited && waited <= timeout + Duration::from_millis(100),
            "waited {waited:?}"
        );
        // One kernel wait up to the watchdog's deadline, not a slice a
        // millisecond (counted, not timed).
        assert!(link.polls <= 3, "{} polls in {waited:?}", link.polls);
    }

    #[test]
    fn backpressure_sleeps_until_the_peer_reads_then_delivers_in_order() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // 8 MiB towards a peer that does not read yet: far more than the
        // kernel takes. The pumps must neither fail nor spin while it is
        // stuck, and once the peer drains every frame arrives, in order.
        const FRAMES: u32 = 128;
        let window = Duration::from_millis(30);
        let mut links = socket_links(&SimConfig::new(2), 2, Duration::from_secs(10)).unwrap();
        let mut peer = links.pop().unwrap();
        let mut link = links.pop().unwrap();
        for seq in 0..FRAMES {
            let frame = Frame {
                height: 0,
                round: 0,
                src: NodeId(0),
                seq,
                payload: vec![seq as u8; 64 * 1024].into(),
            };
            assert!(link.send(0, NodeId(1), frame).unwrap().is_none());
        }
        let reading = AtomicBool::new(false);
        let (arrived, stuck_pumps) = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                std::thread::sleep(window);
                reading.store(true, Ordering::SeqCst);
                let mut arrived = Vec::new();
                while arrived.len() < FRAMES as usize {
                    peer.pump(Some(0), &mut arrived).expect("peer pump");
                }
                arrived
            });
            let mut stuck_pumps = 0;
            while link
                .pump(None, &mut Vec::new())
                .expect("backpressure is not an error")
            {
                stuck_pumps += usize::from(!reading.load(Ordering::SeqCst));
            }
            (reader.join().unwrap(), stuck_pumps)
        });
        // At most ten pumps per 10 ms of a peer not reading.
        assert!(stuck_pumps <= 30, "{stuck_pumps} pumps in {window:?}");
        assert_eq!(link.interest[1], Some(mio::Interest::READABLE), "disarmed");
        for (seq, (slot, frame)) in arrived.iter().enumerate() {
            assert_eq!((*slot, frame.seq as usize), (0, seq));
            assert!(frame.payload.iter().all(|&b| b == seq as u8));
        }
    }

    #[test]
    fn large_network_runs_on_few_sockets() {
        // n = 512 on 4 procs: 6 sockets total where one socket per edge
        // would need 130,816. The run must still replay the engine.
        let cfg = SimConfig::new(512).seed(2).max_rounds(6);
        let sim = run(&cfg, chatter, &mut NoFaults);
        let net = run_over_mesh(&cfg, 4, chatter, &mut NoFaults).expect("fabric");
        assert_matches_engine(&net, &sim);
    }
}
