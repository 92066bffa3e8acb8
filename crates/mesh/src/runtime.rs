//! The multiplexed mesh runtime: drives the sans-I/O cores of
//! [`ftc_net::core`] over the proc-pair socket fabric.
//!
//! ## Architecture
//!
//! `procs` threads each own a contiguous-by-residue slice of the nodes
//! (node `u` lives on proc `u mod procs`) as [`RoundCore`] state
//! machines. The coordinator — a [`CoordinatorCore`] on the calling
//! thread — runs the same control plane as the engine and the other
//! runtimes; commands travel to procs over in-process channels (the
//! control plane never touches the sockets), and the *data plane* moves
//! over the fabric as [`crate::wire`] envelopes:
//!
//! 1. **activate** — each proc activates its alive nodes and submits;
//! 2. **adjudicate** — the coordinator routes, filters, and answers with
//!    one command batch per proc;
//! 3. **transmit** — each proc stages its nodes' outbound frames:
//!    proc-local destinations are fed straight into the destination
//!    core's inbox (no socket, no copy), remote ones are coalesced per
//!    peer proc and flushed with few large nonblocking writes;
//! 4. **collect** — a mio-style readiness loop drains whichever sockets
//!    have data, feeding decoded envelopes to the local cores, until
//!    every write buffer is empty and every active core reports
//!    [`RoundCore::ready`].
//!
//! ## Backpressure without deadlock
//!
//! There are no unbounded intake queues and no reader threads. Writes
//! are nonblocking: when the kernel's socket buffer fills (`WouldBlock`),
//! the proc keeps draining its *own* readable sockets — freeing its
//! peers' send paths — and retries the flush. Every proc transmits
//! before it collects and never blocks on a write, so the round loop
//! cannot deadlock; in-flight data per socket is bounded by the kernel
//! buffer plus at most one round of traffic per sender (procs are never
//! more than one round apart — the coordinator's lock-step sees to it).
//!
//! ## Accounting
//!
//! Every transmitted frame — socket or proc-local — charges exactly
//! [`Frame::encoded_len`], the same rule the channel runtime uses, so
//! `wire_bytes` is bit-identical across substrates and process counts.
//! The envelope's 4-byte `dst` word is transport overhead, not
//! model traffic, and is excluded (see [`crate::wire`]).

use std::io;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread;
use std::time::{Duration, Instant};

use ftc_net::core::{Command, CoordinatorCore, RoundCore, Submission};
use ftc_net::fault::{ChunkedWriter, FrameDedup, WireFaultPlan};
use ftc_net::sync::{NetMetrics, NetRunResult, RunOpts};
use ftc_sim::adversary::Adversary;
use ftc_sim::engine::{RunResult, SimConfig};
use ftc_sim::ids::NodeId;
use ftc_sim::payload::Wire;
use ftc_sim::protocol::Protocol;

use ftc_sim::round::topology_seed;

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
    let edges = cfg.topology.edge_set(cfg.n, topology_seed(cfg));
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

/// How long one readiness wait lasts before the proc re-checks its write
/// buffers and the timeout clock. Short enough to keep flush retries
/// snappy under backpressure, long enough not to spin.
const POLL_SLICE: Duration = Duration::from_millis(1);

/// Runs `cfg` over the multiplexed socket mesh with `procs` processes and
/// default [`RunOpts`].
///
/// The result is bit-identical to [`ftc_sim::engine::run`] (and to the
/// channel runtime) for the same `(SimConfig, seed)` at any `procs` —
/// asserted by `tests/net_equivalence.rs`.
///
/// Fails if the socket fabric cannot be built; panics on invalid
/// configurations or mid-run transport failures, like
/// [`ftc_net::sync::run_over`].
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
    let links = build_links(cfg, procs)?;
    let opts = RunOpts::default();
    Ok(run_over_mesh_wired(cfg, links, factory, adversary, &opts)
        .unwrap_or_else(|err| panic!("cluster run wedged: {err}")))
}

/// Like [`run_over_mesh`], but under explicit [`RunOpts`], and every
/// failure is an `Err`: the fabric not coming up, or a wedged run (a proc
/// making no progress for `recv_timeout`, an adjudication error) named by
/// node, round and frame counts.
///
/// Under a [`RunOpts::wire`] plan the socket layer is perturbed on top of
/// what the channel runtime does: coalesced writes are torn into the
/// scheduled fragment sizes. Every v1 wire fault is delivery-preserving,
/// so the result — including `wire_bytes` and `frames_sent` — stays
/// bit-identical to the faultless run.
pub fn run_over_mesh_with<P, F, A>(
    cfg: &SimConfig,
    procs: usize,
    factory: F,
    adversary: &mut A,
    opts: &RunOpts,
) -> Result<NetRunResult<P>, String>
where
    P: Protocol,
    P::Msg: Wire,
    F: FnMut(NodeId) -> P,
    A: Adversary<P::Msg> + ?Sized,
{
    let links = build_links(cfg, procs).map_err(|e| format!("mesh fabric: {e}"))?;
    run_over_mesh_wired(cfg, links, factory, adversary, opts)
}

/// The shared driver over an already-built fabric (one [`ProcLinks`] per
/// proc). The wire plan is applied at the adapter boundary (never inside
/// the cores); `None` is the exact pre-fault code path.
fn run_over_mesh_wired<P, F, A>(
    cfg: &SimConfig,
    links: Vec<ProcLinks>,
    mut factory: F,
    adversary: &mut A,
    opts: &RunOpts,
) -> Result<NetRunResult<P>, String>
where
    P: Protocol,
    P::Msg: Wire,
    F: FnMut(NodeId) -> P,
    A: Adversary<P::Msg> + ?Sized,
{
    assert!(cfg.max_rounds > 0, "cluster runs need at least one round");
    let nn = cfg.n as usize;
    let procs = links.len();
    let RunOpts {
        recv_timeout,
        height,
        wire,
    } = *opts;

    let mut coord = CoordinatorCore::<P::Msg>::new(cfg, height, adversary);

    // Nodes in id order through the factory (same call order as every
    // other runtime), then partitioned by residue.
    let mut pools: Vec<Vec<RoundCore<P>>> = (0..procs).map(|_| Vec::new()).collect();
    for i in 0..nn {
        let id = NodeId(i as u32);
        pools[i % procs].push(RoundCore::new(cfg, id, factory(id), height));
    }
    let proc_nodes: Vec<Vec<NodeId>> = pools
        .iter()
        .map(|pool| pool.iter().map(|c| c.id()).collect())
        .collect();

    let (submit_tx, submit_rx) = channel::<Submission<P::Msg>>();
    let (report_tx, report_rx) = channel::<ProcReport<P>>();
    let mut batch_txs: Vec<Sender<Vec<(NodeId, Command)>>> = Vec::with_capacity(procs);

    let mut states: Vec<Option<P>> = (0..nn).map(|_| None).collect();
    let mut net = NetMetrics::default();
    let mut failure: Option<String> = None;

    thread::scope(|scope| {
        let mut link_iter = links.into_iter();
        for (index, pool) in pools.into_iter().enumerate() {
            let (tx, rx) = channel();
            batch_txs.push(tx);
            let proc = Proc {
                index,
                procs,
                nodes: pool,
                links: link_iter.next().expect("one link set per proc"),
                batches: rx,
                recv_timeout,
            };
            let submit_tx = submit_tx.clone();
            let report_tx = report_tx.clone();
            scope.spawn(move || proc_loop(proc, submit_tx, report_tx, wire));
        }
        drop(submit_tx);
        drop(report_tx);

        'rounds: loop {
            let expected = coord.alive().len();
            let mut submissions = Vec::with_capacity(expected);
            for _ in 0..expected {
                let sub = submit_rx.recv().expect("a proc died mid-round");
                if sub.failed.is_some() {
                    failure = sub.failed;
                    break 'rounds;
                }
                submissions.push(sub);
            }
            let plan = match coord.adjudicate(submissions, adversary) {
                Ok(plan) => plan,
                Err(err) => {
                    failure = Some(err);
                    break 'rounds;
                }
            };
            let mut batches: Vec<Vec<(NodeId, Command)>> = (0..procs).map(|_| Vec::new()).collect();
            for (u, command) in plan.commands {
                batches[u.index() % procs].push((u, command));
            }
            for (p, batch) in batches.into_iter().enumerate() {
                if !batch.is_empty() {
                    batch_txs[p].send(batch).expect("a proc died mid-round");
                }
            }
            if plan.stop {
                break;
            }
        }

        if failure.is_some() {
            // Unwedge the lock-step: stop every proc's surviving nodes so
            // the threads drain and join (the failed proc's batch receiver
            // may already be gone — ignore send errors).
            for (p, tx) in batch_txs.iter().enumerate() {
                let batch = proc_nodes[p]
                    .iter()
                    .map(|&u| (u, Command::stop()))
                    .collect();
                let _ = tx.send(batch);
            }
        }

        while let Ok(report) = report_rx.recv() {
            net.wire_bytes += report.wire_bytes;
            net.frames_sent += report.frames_sent;
            for (id, state) in report.states {
                states[id.index()] = Some(state);
            }
        }
    });

    if let Some(err) = failure {
        return Err(err);
    }

    let out = coord.finish(net.wire_bytes);
    Ok(NetRunResult {
        run: RunResult {
            metrics: out.metrics,
            states: states
                .into_iter()
                .map(|s| s.expect("proc returned no state for a node"))
                .collect(),
            crashed_at: out.crashed_at,
            faulty: out.faulty,
            trace: out.trace,
            congest_violations: out.congest_violations,
        },
        net,
    })
}

/// What one proc hands back when all its nodes are done.
struct ProcReport<P> {
    wire_bytes: u64,
    frames_sent: u64,
    states: Vec<(NodeId, P)>,
}

/// One proc: its nodes' state machines plus its half of the fabric.
struct Proc<P: Protocol> {
    index: usize,
    procs: usize,
    nodes: Vec<RoundCore<P>>,
    links: ProcLinks,
    batches: Receiver<Vec<(NodeId, Command)>>,
    recv_timeout: Duration,
}

impl<P> Proc<P>
where
    P: Protocol,
    P::Msg: Wire,
{
    /// Local pool slot of a node on this proc (`id ≡ index (mod procs)`).
    fn slot(&self, id: NodeId) -> usize {
        debug_assert_eq!(id.index() % self.procs, self.index);
        id.index() / self.procs
    }
}

/// Drives one proc until every owned node has crashed or stopped.
fn proc_loop<P>(
    mut proc: Proc<P>,
    submit_tx: Sender<Submission<P::Msg>>,
    report_tx: Sender<ProcReport<P>>,
    wire: Option<&WireFaultPlan>,
) where
    P: Protocol,
    P::Msg: Wire,
{
    let mut wire_bytes = 0u64;
    let mut frames_sent = 0u64;
    // Receive-edge dedup, one set per owned node slot, engaged only under
    // a wire plan (the faultless path stays byte-for-byte untouched).
    let mut dedups: Vec<FrameDedup> = if wire.is_some() {
        proc.nodes.iter().map(|_| FrameDedup::new()).collect()
    } else {
        Vec::new()
    };

    // The readiness loop: every peer socket registered once, token =
    // peer proc index.
    let mut poll = mio::Poll::new().expect("poll");
    for (peer, link) in proc.links.iter().enumerate() {
        if let Some(stream) = link {
            poll.registry()
                .register(stream, mio::Token(peer), mio::Interest::READABLE)
                .expect("register");
        }
    }
    let mut events = mio::Events::with_capacity(proc.procs.max(4));
    let mut out: Vec<WriteBuf> = (0..proc.procs).map(|_| WriteBuf::new()).collect();
    let mut dec: Vec<EnvelopeDecoder> = (0..proc.procs).map(|_| EnvelopeDecoder::new()).collect();
    let mut read_buf = vec![0u8; 64 * 1024];

    // Reports a failure through the submission channel (where the
    // coordinator blocks next round) and abandons the proc.
    macro_rules! fail {
        ($node:expr, $msg:expr) => {{
            let _ = submit_tx.send(Submission::failure($node, $msg));
            return;
        }};
    }

    loop {
        // Phase 1: activate and submit.
        let mut any_active = false;
        for node in proc.nodes.iter_mut().filter(|n| n.is_active()) {
            any_active = true;
            submit_tx.send(node.activate()).expect("coordinator gone");
        }
        if !any_active {
            break;
        }

        // Phase 2: apply the coordinator's batch; stage frames. Under a
        // wire plan, each node's burst is perturbed between core and
        // fabric: reorder/duplicate/delay per the schedule, with the
        // appended duplicate suffix transmitted but *not* charged, so
        // model accounting stays identical to a faultless wire.
        let batch = proc.batches.recv().expect("coordinator gone");
        let mut tear: Option<usize> = None;
        for (id, command) in batch {
            let slot = proc.slot(id);
            if !proc.nodes[slot].is_active() {
                continue; // unwedge stop for an already-finished node
            }
            let mut burst = proc.nodes[slot].apply(command);
            let mut charged = burst.len();
            if let Some(plan) = wire {
                if let Some(round) = burst.first().map(|(_, f)| f.round) {
                    if let Some(pause) = plan.delay(id, round) {
                        thread::sleep(pause);
                    }
                    if let Some(chunk) = plan.tear_chunk(id, round) {
                        tear = Some(tear.map_or(chunk, |t| t.min(chunk)));
                    }
                    let dups = plan.perturb_batch(id, round, &mut burst);
                    charged = burst.len() - dups;
                }
            }
            for (k, (dst, frame)) in burst.into_iter().enumerate() {
                if k < charged {
                    // Model accounting is per frame, local or remote —
                    // identical to the channel rule, hence
                    // procs-invariant.
                    wire_bytes += frame.encoded_len();
                    frames_sent += 1;
                }
                let peer = dst.index() % proc.procs;
                if peer == proc.index {
                    let dst_slot = proc.slot(dst);
                    if let Some(dedup) = dedups.get_mut(dst_slot) {
                        if !dedup.admit(&frame) {
                            continue;
                        }
                    }
                    if let Err(err) = proc.nodes[dst_slot].feed(frame) {
                        fail!(dst, err);
                    }
                } else {
                    out[peer].stage(dst, &frame);
                }
            }
        }

        // Phase 3: flush + collect under the readiness loop.
        let mut last_progress = Instant::now();
        loop {
            // Flush whatever the kernel will take; WouldBlock is
            // backpressure and handled by draining reads below.
            let mut progressed = false;
            for (peer, wb) in out.iter_mut().enumerate() {
                if wb.is_empty() {
                    continue;
                }
                let stream = proc.links[peer].as_mut().expect("link to peer");
                // A scheduled tear caps every write syscall, so the peer
                // reads the round's envelopes in worst-case fragments;
                // the loop still drains the full buffer (delivery is
                // preserved, only the fragmentation changes).
                let flushed = match tear {
                    Some(chunk) => {
                        let mut torn = ChunkedWriter::new(stream, chunk);
                        wb.flush_into(&mut torn)
                    }
                    None => wb.flush_into(stream),
                };
                match flushed {
                    Ok(p) => progressed |= p,
                    Err(e) => {
                        let node = proc
                            .nodes
                            .iter()
                            .map(RoundCore::id)
                            .next()
                            .unwrap_or(NodeId(0));
                        fail!(
                            node,
                            format!("mesh proc {} write to proc {peer}: {e}", proc.index)
                        );
                    }
                }
            }

            let all_sent = out.iter().all(WriteBuf::is_empty);
            let all_ready = proc
                .nodes
                .iter()
                .filter(|n| n.is_active())
                .all(RoundCore::ready);
            if all_sent && all_ready {
                break;
            }

            // Drain readable sockets into the decoders, envelopes into
            // the destination cores.
            poll.poll(&mut events, Some(POLL_SLICE)).expect("poll");
            for event in &events {
                let peer = event.token().0;
                let stream = proc.links[peer].as_mut().expect("link to peer");
                loop {
                    match io::Read::read(stream, &mut read_buf) {
                        Ok(0) => break, // peer closed; its frames are all in
                        Ok(k) => {
                            dec[peer].extend(&read_buf[..k]);
                            progressed = true;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) => {
                            let node = proc
                                .nodes
                                .iter()
                                .map(RoundCore::id)
                                .next()
                                .unwrap_or(NodeId(0));
                            fail!(
                                node,
                                format!("mesh proc {} read from proc {peer}: {e}", proc.index)
                            );
                        }
                    }
                    // One burst per event is enough; the next poll
                    // re-reports the socket if more is queued.
                    break;
                }
                loop {
                    match dec[peer].next() {
                        Ok(Some((dst, frame))) => {
                            if dst.index() % proc.procs != proc.index {
                                let node = proc
                                    .nodes
                                    .iter()
                                    .map(RoundCore::id)
                                    .next()
                                    .unwrap_or(NodeId(0));
                                fail!(
                                    node,
                                    format!(
                                        "mesh proc {} got an envelope for node {dst} owned by proc {}",
                                        proc.index,
                                        dst.index() % proc.procs
                                    )
                                );
                            }
                            let slot = proc.slot(dst);
                            if let Some(dedup) = dedups.get_mut(slot) {
                                if !dedup.admit(&frame) {
                                    continue;
                                }
                            }
                            if let Err(err) = proc.nodes[slot].feed(frame) {
                                fail!(dst, err);
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            let node = proc
                                .nodes
                                .iter()
                                .map(RoundCore::id)
                                .next()
                                .unwrap_or(NodeId(0));
                            fail!(
                                node,
                                format!("mesh proc {} envelope from proc {peer}: {e}", proc.index)
                            );
                        }
                    }
                }
            }

            if progressed {
                last_progress = Instant::now();
            } else if last_progress.elapsed() >= proc.recv_timeout {
                let stalled = proc.nodes.iter().find(|n| n.is_active() && !n.ready());
                match stalled {
                    Some(node) => fail!(
                        node.id(),
                        format!(
                            "node {} timed out collecting round {}: got {} of {} frames \
                             (mesh proc {} waited {:?})",
                            node.id(),
                            node.round(),
                            node.received(),
                            node.expect(),
                            proc.index,
                            proc.recv_timeout
                        )
                    ),
                    None => {
                        let node = proc
                            .nodes
                            .iter()
                            .map(RoundCore::id)
                            .next()
                            .unwrap_or(NodeId(0));
                        fail!(
                            node,
                            format!(
                                "mesh proc {} timed out flushing {} staged bytes after {:?}",
                                proc.index,
                                out.iter().map(|w| !w.is_empty() as usize).sum::<usize>(),
                                proc.recv_timeout
                            )
                        )
                    }
                }
            }
        }

        // Phase 4: close the round on every active core.
        for node in proc.nodes.iter_mut().filter(|n| n.is_active()) {
            if let Err(err) = node.end_round() {
                let id = node.id();
                fail!(id, err);
            }
        }
    }

    let _ = report_tx.send(ProcReport {
        wire_bytes,
        frames_sent,
        states: proc
            .nodes
            .into_iter()
            .map(|n| (n.id(), n.into_state()))
            .collect(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_sim::adversary::{DeliveryFilter, EagerCrash, FaultPlan, NoFaults, ScriptedCrash};
    use ftc_sim::engine::run;
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
            let net = run_over_mesh_with(&cfg, procs, chatter, &mut adv, &opts).unwrap();
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
            let net = run_over_mesh_with(&cfg, 3, chatter, &mut adv, &opts).unwrap();
            assert_matches_engine(&net, &sim);
        }
    }

    #[test]
    fn recv_timeout_reports_the_stalled_node_instead_of_deadlocking() {
        // The watchdog is no-progress-based, so a healthy run never trips
        // it; starve one proc loop directly: promise its node a frame
        // (expect = 1) that no peer ever sends.
        let cfg = SimConfig::new(2).seed(1).max_rounds(4);
        let links = fabric::build(2).expect("fabric");
        let mut link_iter = links.into_iter();
        let my_links = link_iter.next().unwrap();
        let _peer_links = link_iter.next().unwrap(); // held open: no EOF
        let proc = Proc {
            index: 0,
            procs: 2,
            nodes: vec![RoundCore::new(&cfg, NodeId(0), chatter(NodeId(0)), 0)],
            links: my_links,
            batches: {
                let (tx, rx) = channel();
                tx.send(vec![(
                    NodeId(0),
                    Command {
                        frames: Vec::new(),
                        expect: 1,
                        crashed: false,
                        stop: false,
                    },
                )])
                .unwrap();
                std::mem::forget(tx);
                rx
            },
            recv_timeout: Duration::from_millis(50),
        };
        let (submit_tx, submit_rx) = channel();
        let (report_tx, _report_rx) = channel();
        let handle = thread::spawn(move || proc_loop(proc, submit_tx, report_tx, None));
        let activation = submit_rx.recv().expect("activation submission");
        assert!(activation.failed.is_none());
        let failure = submit_rx.recv().expect("watchdog submission");
        let msg = failure.failed.expect("the starved proc must fail");
        assert!(
            msg.contains("node n0 timed out collecting round 0: got 0 of 1 frames"),
            "unexpected diagnostic: {msg}"
        );
        handle.join().unwrap();
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
