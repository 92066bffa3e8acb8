//! The round driver: one coordinator and one worker loop that run the
//! sans-I/O cores of [`crate::core`] over any [`Link`], reproducing the
//! in-process engine bit for bit.
//!
//! ## One driver, three links
//!
//! The model's *data plane* (protocol messages between nodes) moves as
//! [`Frame`]s. The *control plane* — the adversary, its delivery filters,
//! liveness, and all accounting — is inherently global (the model's
//! adversary sees the whole round's traffic before choosing crashes), so
//! it runs in one [`CoordinatorCore`] on the calling thread, built on the
//! same `ControlCore` the simulator uses. Node `u` lives on worker
//! `u mod workers` as a [`RoundCore`]; each worker is a thread running the
//! one loop in this module. Per round:
//!
//! 1. **activate** — every worker runs its alive nodes against the inboxes
//!    assembled from last round's frames, routes each node's queued sends
//!    through that node's own KT0 port map, and submits them, one channel
//!    message per worker per round;
//! 2. **adjudicate** — the coordinator consults the adversary, applies
//!    crash filters to the submitted envelopes in place, closes the
//!    round's books and answers with one command batch per worker, each
//!    node's filtered envelopes riding back in its command. It does no
//!    per-frame work of its own;
//! 3. **transmit** — each worker encodes its nodes' surviving envelopes
//!    into frames and hands them to its link; a node crashed this round
//!    sends its filter-surviving frames and is then torn down (the wire
//!    form of crash-with-partial-delivery);
//! 4. **collect** — each worker pumps its link until every owned node has
//!    the frames the coordinator told it to expect, then closes the round
//!    on every core (next round's inbox, in canonical `(src, seq)` order).
//!
//! Everything about a round that is not "how a frame moves" is written
//! here once: the phase order, the [`WireFaultPlan`] hooks, the
//! [`Frame::encoded_len`] accounting, receive-edge dedup and the failure
//! reports. How a frame moves is the [`Link`]: the channel substrate's
//! [`channel::ChannelLink`] (one `mpsc` queue per worker, one message per
//! worker pair per round), `ftc-mesh`'s socket link (one socket per worker
//! pair, readiness loop, no-progress watchdog), or the per-node
//! [`Endpoint`]s a caller of [`run_over`] supplies. The first two hand a
//! frame for a node on the same worker straight back to the loop; the
//! endpoint link sends every frame through an endpoint, so wrapped
//! endpoints see them all. Because every decision is centralized and
//! submissions are keyed by node id, results are independent of the
//! worker count and of the link (`tests/net_equivalence.rs`).
//!
//! ## Why this cannot deadlock
//!
//! Within a round, every worker transmits for *all* its nodes before it
//! collects for *any* of them, [`Link::send`] never blocks (endpoint
//! channel sends are unbounded; the other links only stage), and the
//! coordinator's phase barriers order activation before adjudication
//! before transmission. Every frame a node waits for has therefore already been
//! handed to a link, or will be by a worker that is still transmitting and
//! never blocks first; [`Link::pump`] keeps staged output moving while it
//! waits.

use std::io;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread;
use std::time::Duration;

use ftc_sim::adversary::Adversary;
use ftc_sim::engine::{RunResult, SimConfig};
use ftc_sim::ids::NodeId;
use ftc_sim::payload::Wire;
use ftc_sim::ports::PortMap;
use ftc_sim::protocol::Protocol;

use crate::channel;
use crate::core::{Command, CoordinatorCore, RoundCore, Submission};
use crate::fault::{FrameDedup, WireFaultPlan};
use crate::frame::Frame;
use crate::transport::{Endpoint, RECV_TIMEOUT};

/// Transport-level accounting of one cluster run, on top of the model
/// metrics in [`RunResult`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NetMetrics {
    /// Total bytes pushed onto the wire (length prefixes + frame headers +
    /// encoded payloads), summed over all nodes.
    pub wire_bytes: u64,
    /// Total frames transmitted.
    pub frames_sent: u64,
}

/// A completed cluster run: the model-level result (identical to what
/// [`ftc_sim::engine::run`] returns for the same `(SimConfig, seed)`) plus
/// transport-level byte accounting.
#[derive(Debug)]
pub struct NetRunResult<P> {
    /// The model-level result; `run.metrics.wire_bytes` is filled in from
    /// the transport accounting.
    pub run: RunResult<P>,
    /// Transport-level accounting.
    pub net: NetMetrics,
}

/// The per-run knobs every cluster runtime takes, none of which changes
/// the model result.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts<'a> {
    /// How long a node waits on a frame before the run is declared wedged
    /// (default [`RECV_TIMEOUT`]). Timeouts belong to the link — a
    /// per-`recv` timeout on endpoints, a no-progress watchdog on sockets —
    /// so whoever builds the links bakes this in; the driver never reads a
    /// clock.
    pub recv_timeout: Duration,
    /// The election-instance counter of a long-lived service
    /// (`ftc-serve`), tagged onto every frame. Each height gets a fresh
    /// mesh, so the tag is provenance: a frame whose height disagrees with
    /// the run's aborts the run instead of silently feeding one election's
    /// traffic to another.
    pub height: u32,
    /// A scripted [`WireFaultPlan`] perturbing the wire between the cores
    /// and the link: transmit bursts are reordered, duplicated and delayed
    /// per the plan, coalesced socket writes are torn into the scheduled
    /// fragment sizes, and receive edges dedup frames. The model result and
    /// accounting are bit-identical to the faultless run — every v1 wire
    /// fault is delivery-preserving (see [`crate::fault`]) — which is
    /// exactly the property `ftc hunt --wire-faults` searches for
    /// violations of. `None` is the exact pre-fault code path.
    pub wire: Option<&'a WireFaultPlan>,
    /// Threads the engine may shard one run's rounds over
    /// (`ftc_sim::engine::run_sharded`; default 1). The network substrates
    /// ignore it, as the engine ignores `wire`. Callers set it from
    /// `TrialPlan::threads_per_trial`, never from a flag.
    pub intra_jobs: usize,
}

impl Default for RunOpts<'_> {
    fn default() -> Self {
        RunOpts {
            recv_timeout: RECV_TIMEOUT,
            height: 0,
            wire: None,
            intra_jobs: 1,
        }
    }
}

/// How one worker's frames move — the only thing the network substrates
/// do not share. A link serves the nodes its worker owns, addressed by
/// *slot* (position in the worker's pool: node `u` on worker
/// `u mod workers` sits in slot `u div workers`).
pub trait Link: Send {
    /// Puts one frame of slot `slot`'s burst on the wire towards `dst`, or
    /// hands it back for direct feed because `dst` is local to this worker
    /// and the link has no wire for it. Must not block (see the module
    /// docs on deadlock freedom).
    fn send(&mut self, slot: usize, dst: NodeId, frame: Frame) -> io::Result<Option<Frame>>;

    /// The node in `slot` crashed and has transmitted its last burst.
    fn teardown(&mut self, slot: usize);

    /// This round's tear chunk: the largest write the wire accepts until
    /// the next call (`None` = untorn).
    fn tear(&mut self, chunk: Option<usize>);

    /// Delivers more inbound frames into `inbound` (each with the slot of
    /// the owned node it is addressed to) while flushing what is staged,
    /// and reports whether staged output remains. `waiting` is the slot the
    /// worker is blocked on, `None` when it only needs the staged output
    /// gone. Fails with [`io::ErrorKind::TimedOut`] when the link's own
    /// timeout says the run is wedged.
    fn pump(
        &mut self,
        waiting: Option<usize>,
        inbound: &mut Vec<(usize, Frame)>,
    ) -> io::Result<bool>;
}

/// The endpoint link: the per-node [`Endpoint`]s a worker owns, in slot
/// order, for [`run_over`]'s caller-supplied endpoints. Every frame goes
/// through `send`/`recv` on the owning node's endpoint — local
/// destinations included — so a caller's wrapped endpoints see every
/// frame; nothing is ever staged.
impl<E: Endpoint> Link for Vec<E> {
    fn send(&mut self, slot: usize, dst: NodeId, frame: Frame) -> io::Result<Option<Frame>> {
        self[slot].send(dst, &frame)?;
        Ok(None)
    }

    fn teardown(&mut self, slot: usize) {
        self[slot].teardown();
    }

    /// Endpoints send whole frames: a tear is absorbed trivially.
    fn tear(&mut self, _chunk: Option<usize>) {}

    fn pump(
        &mut self,
        waiting: Option<usize>,
        inbound: &mut Vec<(usize, Frame)>,
    ) -> io::Result<bool> {
        if let Some(slot) = waiting {
            inbound.push((slot, self[slot].recv()?));
        }
        Ok(false)
    }
}

/// Runs `cfg` over the in-process [`channel::links`] with `workers` worker
/// threads and default [`RunOpts`]. Infallible transport, any `n ≥ 2`,
/// any topology: a worker's frames for its own nodes never leave it, and
/// the rest cross in one channel message per worker pair per round, so
/// there is no per-node or per-edge resource to gate.
///
/// See [`run_over`] for semantics and panics; `Substrate::Channel` is the
/// same run under explicit [`RunOpts`] with a wedged run an `Err`.
pub fn run_over_channel<P, F, A>(
    cfg: &SimConfig,
    workers: usize,
    factory: F,
    adversary: &mut A,
) -> NetRunResult<P>
where
    P: Protocol,
    P::Msg: Wire,
    F: FnMut(NodeId) -> P,
    A: Adversary<P::Msg> + ?Sized,
{
    let links = channel::links(cfg.n, workers, RECV_TIMEOUT);
    run_over_links(cfg, links, factory, adversary, &RunOpts::default())
        .unwrap_or_else(|err| panic!("cluster run wedged: {err}"))
}

/// Runs one execution of `cfg` over `endpoints` (one per node, in id
/// order), multiplexing nodes onto `workers` threads.
///
/// The result is bit-identical to [`ftc_sim::engine::run`] with the same
/// configuration — same elected leaders, same decisions, same message and
/// round counts, same crash schedule — because both drivers share the
/// model's control plane and seed derivation. On top, `wire_bytes` /
/// `frames_sent` report what the run actually cost on the wire.
///
/// # Panics
///
/// Panics on invalid configurations ([`SimConfig::validate`], endpoint
/// count mismatch), if the adversary violates the model, or if the
/// transport fails mid-run (a torn socket outside the crash schedule is
/// a bug, not a model event — the model's faults are *injected*, never
/// spontaneous). [`run_over_links`] reports the last as an `Err` instead.
pub fn run_over<P, F, A, E>(
    cfg: &SimConfig,
    workers: usize,
    factory: F,
    adversary: &mut A,
    endpoints: Vec<E>,
) -> NetRunResult<P>
where
    P: Protocol,
    P::Msg: Wire,
    F: FnMut(NodeId) -> P,
    A: Adversary<P::Msg> + ?Sized,
    E: Endpoint,
{
    let nn = cfg.n as usize;
    assert_eq!(endpoints.len(), nn, "need exactly one endpoint per node");
    let links = deal(endpoints, workers.clamp(1, nn));
    run_over_links(cfg, links, factory, adversary, &RunOpts::default())
        .unwrap_or_else(|err| panic!("cluster run wedged: {err}"))
}

/// Deals `items` (one per node, in id order) onto `workers` pools by
/// residue: node `u` goes to pool `u mod workers`, slot `u div workers` —
/// the placement [`run_over_links`] expects of its links.
fn deal<T>(items: impl IntoIterator<Item = T>, workers: usize) -> Vec<Vec<T>> {
    let mut pools: Vec<Vec<T>> = (0..workers).map(|_| Vec::new()).collect();
    for (u, item) in items.into_iter().enumerate() {
        pools[u % workers].push(item);
    }
    pools
}

/// One worker's verdicts for a round: a [`Command`] per owned node that
/// was alive at the round's start.
type Batch<M> = Vec<(NodeId, Command<M>)>;

/// One worker's submissions for a round: one per owned node that is still
/// active — or a single [`Submission::failure`] when the worker gives up.
type Submissions<M> = Vec<Submission<M>>;

/// Why a worker abandoned the run, and the node to attribute it to.
type Failure = (NodeId, String);

/// The one round driver: runs one execution of `cfg` over `links`, one
/// [`Link`] per worker (between 1 and `n` of them).
///
/// Nodes are created in id order through `factory` and node `u` is placed
/// on worker `u mod links.len()`, so link `w` must serve exactly the nodes
/// `≡ w`, in increasing id order. [`CoordinatorCore`] runs on the calling
/// thread, each worker on its own scoped thread. `opts.height` and
/// `opts.wire` apply here; `opts.recv_timeout` is already baked into
/// `links` (see [`RunOpts::recv_timeout`]).
///
/// A wedged run — a link timing out or failing, a misrouted or stale
/// frame, an adjudication error — is an `Err` naming the node, round and
/// frame counts; the surviving workers are stopped and joined first.
/// Invalid configurations and adversaries that violate the model panic,
/// as in [`ftc_sim::engine::run`].
pub fn run_over_links<P, F, A, L>(
    cfg: &SimConfig,
    links: Vec<L>,
    mut factory: F,
    adversary: &mut A,
    opts: &RunOpts,
) -> Result<NetRunResult<P>, String>
where
    P: Protocol,
    P::Msg: Wire,
    F: FnMut(NodeId) -> P,
    A: Adversary<P::Msg> + ?Sized,
    L: Link,
{
    let (height, wire) = (opts.height, opts.wire);
    let mut coord = CoordinatorCore::<P::Msg>::new(cfg, height, adversary);
    let nn = cfg.n as usize;
    let workers = links.len();
    assert!(
        (1..=nn).contains(&workers),
        "need between 1 and n = {nn} links, got {workers}"
    );
    let edges = coord.edges();
    let cores = (0..cfg.n).map(|u| {
        let ports = PortMap::new(edges, NodeId(u));
        RoundCore::wired(cfg, ports, factory(NodeId(u)), height)
    });
    let pools = deal(cores, workers);

    let mut states: Vec<Option<P>> = (0..nn).map(|_| None).collect();
    let mut net = NetMetrics::default();

    // Every channel end the workers block on lives inside the scope, so a
    // coordinator that unwinds (the adversary violating the model) drops
    // them and the workers exit instead of deadlocking the join.
    let failure = thread::scope(|scope| {
        let (submit_tx, submit_rx) = channel::<Submissions<P::Msg>>();
        let mut batch_txs: Vec<Sender<Batch<P::Msg>>> = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for (index, (nodes, link)) in pools.into_iter().zip(links).enumerate() {
            let (batch_tx, batches) = channel();
            batch_txs.push(batch_tx);
            let worker = Worker::new(index, workers, nodes, link, wire);
            let submit_tx = submit_tx.clone();
            handles.push(scope.spawn(move || worker.run(&batches, &submit_tx)));
        }
        drop(submit_tx);

        let failure = 'rounds: loop {
            // --- activate: collect one submission per alive node. ---
            let expected = coord.alive_count();
            let mut submissions = Vec::with_capacity(expected);
            while submissions.len() < expected {
                let Ok(batch) = submit_rx.recv() else {
                    break 'rounds Some("every worker died mid-round".into());
                };
                for sub in batch {
                    if sub.failed.is_some() {
                        break 'rounds sub.failed;
                    }
                    submissions.push(sub);
                }
            }

            // --- adjudicate and fan the verdicts out, a batch per worker. ---
            let plan = match coord.adjudicate(submissions, adversary) {
                Ok(plan) => plan,
                Err(err) => break Some(err),
            };
            let mut batches: Vec<Batch<P::Msg>> = (0..workers).map(|_| Vec::new()).collect();
            for (u, command) in plan.commands {
                batches[u.index() % workers].push((u, command));
            }
            for (w, batch) in batches.into_iter().enumerate() {
                if !batch.is_empty() && batch_txs[w].send(batch).is_err() {
                    break 'rounds Some(format!("worker {w} died mid-round"));
                }
            }
            if plan.stop {
                break None;
            }
        };

        if failure.is_some() {
            // Unwedge the lock-step: stop every surviving node so the
            // workers drain and join (the failed worker's batch receiver
            // is already gone — ignore send errors).
            for (w, tx) in batch_txs.iter().enumerate() {
                let stops = (w..nn).step_by(workers);
                let _ = tx.send(stops.map(|u| (NodeId(u as u32), Command::stop())).collect());
            }
        }

        for handle in handles {
            match handle.join() {
                Ok(Some((metrics, nodes))) => {
                    net.wire_bytes += metrics.wire_bytes;
                    net.frames_sent += metrics.frames_sent;
                    for node in nodes {
                        let slot = node.id().index();
                        states[slot] = Some(node.into_state());
                    }
                }
                // Abandoned: its failure submission already said why.
                Ok(None) => {}
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        failure
    });

    if let Some(err) = failure {
        return Err(err);
    }

    let states = states
        .into_iter()
        .map(|s| s.expect("worker returned no state for a node"))
        .collect();
    Ok(NetRunResult {
        run: coord.finish(states, net.wire_bytes),
        net,
    })
}

/// One worker: its nodes' state machines, its link, and the per-run state
/// of the wire-fault hooks. All round logic lives in each node's
/// [`RoundCore`]; the worker only moves data between the cores, the
/// coordinator and the link.
struct Worker<'a, P: Protocol, L> {
    index: usize,
    workers: usize,
    nodes: Vec<RoundCore<P>>,
    link: L,
    wire: Option<&'a WireFaultPlan>,
    /// Receive-edge dedup, one set per slot, engaged only under a wire
    /// plan (the faultless path must stay byte-for-byte untouched).
    dedups: Vec<FrameDedup>,
    /// Scratch for [`Link::pump`], reused across pumps.
    inbound: Vec<(usize, Frame)>,
    net: NetMetrics,
}

impl<'a, P, L> Worker<'a, P, L>
where
    P: Protocol,
    P::Msg: Wire,
    L: Link,
{
    fn new(
        index: usize,
        workers: usize,
        nodes: Vec<RoundCore<P>>,
        link: L,
        wire: Option<&'a WireFaultPlan>,
    ) -> Self {
        let dedups = match wire {
            Some(_) => nodes.iter().map(|_| FrameDedup::new()).collect(),
            None => Vec::new(),
        };
        Worker {
            index,
            workers,
            nodes,
            link,
            wire,
            dedups,
            inbound: Vec::new(),
            net: NetMetrics::default(),
        }
    }

    /// Drives the owned nodes, phase-locked to the coordinator, until every
    /// one has crashed or stopped, and hands them back with the worker's
    /// wire accounting. On a failure the worker reports it through the
    /// submission channel (where the coordinator blocks next round — dying
    /// silently would deadlock the lock-step loop) and returns `None`. A
    /// coordinator that is already gone has recorded why it left; the
    /// report then goes nowhere and the exit is quiet.
    fn run(
        mut self,
        batches: &Receiver<Batch<P::Msg>>,
        submit_tx: &Sender<Submissions<P::Msg>>,
    ) -> Option<(NetMetrics, Vec<RoundCore<P>>)> {
        match self.rounds(batches, submit_tx) {
            Ok(()) => Some((self.net, self.nodes)),
            Err((node, err)) => {
                let _ = submit_tx.send(vec![Submission::failure(node, err)]);
                None
            }
        }
    }

    fn rounds(
        &mut self,
        batches: &Receiver<Batch<P::Msg>>,
        submit_tx: &Sender<Submissions<P::Msg>>,
    ) -> Result<(), Failure> {
        let gone = |node: NodeId| (node, "coordinator gone".to_string());
        loop {
            // Phase 1: activate, and submit the round's lot in one message.
            let active = self.nodes.iter_mut().filter(|n| n.is_active());
            let submissions: Submissions<P::Msg> = active.map(|n| n.activate()).collect();
            let Some(first) = submissions.first().map(|sub| sub.node) else {
                return Ok(());
            };
            submit_tx.send(submissions).map_err(|_| gone(first))?;

            // Phase 2: transmit for *all* owned nodes before collecting for
            // *any* (the deadlock-freedom invariant — see module docs).
            let batch = batches.recv().map_err(|_| gone(self.nodes[0].id()))?;
            self.transmit(batch)?;

            // Phase 3: collect, in slot order. Frames for any owned node
            // may arrive while the cursor waits on one.
            for slot in 0..self.nodes.len() {
                while self.nodes[slot].is_active() && !self.nodes[slot].ready() {
                    self.pump(Some(slot))?;
                }
            }
            while self.pump(None)? {}

            // Phase 4: close the round on every active core.
            for node in self.nodes.iter_mut().filter(|n| n.is_active()) {
                node.end_round().map_err(|err| (node.id(), err))?;
            }
        }
    }

    /// Applies the coordinator's batch — each node encodes its own
    /// survivors — and hands every burst to the link.
    /// Under a wire plan each burst is perturbed between core and link:
    /// delayed, reordered and duplicated per the schedule, with the
    /// appended duplicate suffix transmitted but *not* charged, so model
    /// accounting stays identical to a faultless wire.
    fn transmit(&mut self, batch: Batch<P::Msg>) -> Result<(), Failure> {
        let mut tear: Option<usize> = None;
        for (id, command) in batch {
            debug_assert_eq!(id.index() % self.workers, self.index);
            let slot = id.index() / self.workers;
            if !self.nodes[slot].is_active() {
                continue; // unwedge stop for an already-finished node
            }
            let crashed = command.crashed;
            let mut burst = self.nodes[slot].apply(command);
            let mut charged = burst.len();
            if let Some(plan) = self.wire {
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
                    // Model accounting is per frame, wired or handed back,
                    // hence identical on every link at any worker count.
                    self.net.wire_bytes += frame.encoded_len();
                    self.net.frames_sent += 1;
                }
                let sent = self.link.send(slot, dst, frame);
                if let Some(local) = sent.map_err(|e| (id, e.to_string()))? {
                    self.feed(dst.index() / self.workers, local)?;
                }
            }
            if crashed {
                // Mid-round teardown — the wire form of
                // crash-with-partial-delivery.
                self.link.teardown(slot);
            }
        }
        self.link.tear(tear);
        Ok(())
    }

    /// One [`Link::pump`], with whatever arrived fed to the cores. A link
    /// error is attributed to the node the worker is stalled on, if any.
    fn pump(&mut self, waiting: Option<usize>) -> Result<bool, Failure> {
        let staged = match self.link.pump(waiting, &mut self.inbound) {
            Ok(staged) => staged,
            Err(e) => {
                let node = &self.nodes[waiting.unwrap_or(0)];
                let msg = if waiting.is_some() && e.kind() == io::ErrorKind::TimedOut {
                    format!(
                        "node {} timed out collecting round {}: got {} of {} frames ({e})",
                        node.id(),
                        node.round(),
                        node.received(),
                        node.expect(),
                    )
                } else {
                    e.to_string()
                };
                return Err((node.id(), msg));
            }
        };
        let mut inbound = std::mem::take(&mut self.inbound);
        for (slot, frame) in inbound.drain(..) {
            self.feed(slot, frame)?;
        }
        self.inbound = inbound;
        Ok(staged)
    }

    /// Feeds one inbound frame to the owned node in `slot`. Under a wire
    /// plan, a duplicate (possibly straggling from an earlier round) is
    /// dropped before the core sees it — it would otherwise falsely
    /// complete the round or trip the past-round check.
    fn feed(&mut self, slot: usize, frame: Frame) -> Result<(), Failure> {
        let Some(node) = self.nodes.get_mut(slot) else {
            let msg = format!(
                "worker {} got a frame from node {} for slot {slot}, but owns {} nodes",
                self.index,
                frame.src,
                self.nodes.len()
            );
            return Err((self.nodes[0].id(), msg));
        };
        if let Some(dedup) = self.dedups.get_mut(slot) {
            if !dedup.admit(&frame) {
                return Ok(());
            }
        }
        node.feed(frame).map_err(|err| (node.id(), err))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_sim::adversary::{
        DeliveryFilter, EagerCrash, Envelope, FaultPlan, NoFaults, ScriptedCrash,
    };
    use ftc_sim::engine::run;
    use ftc_sim::protocol::{Ctx, Incoming};

    /// Broadcasts its round number for 3 rounds and counts what it hears —
    /// the same canary protocol the engine tests use.
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

    /// A channel run through the driver under explicit `opts` — what
    /// `Substrate::run` does for `Channel(workers)`.
    fn channel_run(
        cfg: &SimConfig,
        workers: usize,
        adversary: &mut dyn Adversary<u64>,
        opts: &RunOpts,
    ) -> Result<NetRunResult<Chatter>, String> {
        let links = channel::links(cfg.n, workers, opts.recv_timeout);
        run_over_links(cfg, links, chatter, adversary, opts)
    }

    /// A channel run tagged as election instance `height`.
    fn at_height(
        cfg: &SimConfig,
        workers: usize,
        adversary: &mut dyn Adversary<u64>,
        height: u32,
    ) -> NetRunResult<Chatter> {
        let opts = RunOpts {
            height,
            ..RunOpts::default()
        };
        channel_run(cfg, workers, adversary, &opts).unwrap()
    }

    fn assert_matches_engine(
        cfg: &SimConfig,
        net: &NetRunResult<Chatter>,
        sim: &RunResult<Chatter>,
    ) {
        assert_eq!(net.run.metrics.msgs_sent, sim.metrics.msgs_sent, "{cfg:?}");
        assert_eq!(net.run.metrics.msgs_delivered, sim.metrics.msgs_delivered);
        assert_eq!(net.run.metrics.bits_sent, sim.metrics.bits_sent);
        assert_eq!(net.run.metrics.rounds, sim.metrics.rounds);
        assert_eq!(net.run.crashed_at, sim.crashed_at);
        let net_heard: Vec<u64> = net.run.states.iter().map(|s| s.heard).collect();
        let sim_heard: Vec<u64> = sim.states.iter().map(|s| s.heard).collect();
        assert_eq!(net_heard, sim_heard, "per-node observations diverged");
    }

    #[test]
    fn recv_timeout_aborts_the_run_instead_of_deadlocking() {
        // A 1 ns receive timeout trips essentially always on a real
        // scheduler, but not deterministically — retry a few runs so the
        // test doesn't hinge on one interleaving. The load-bearing claim:
        // a worker timing out must abort the whole run with the link's
        // error (via the submission channel), never deadlock the
        // coordinator's lock-step loop. The same report from a starved
        // node is pinned on every link by `ftc-mesh`'s starved-node test.
        let opts = RunOpts {
            recv_timeout: Duration::from_nanos(1),
            ..RunOpts::default()
        };
        let err = (0..5).find_map(|attempt| {
            let cfg = SimConfig::new(16).seed(9 + attempt).max_rounds(30);
            channel_run(&cfg, 4, &mut NoFaults, &opts).err()
        });
        let err = err.expect("a 1ns receive timeout never tripped in 5 runs");
        assert!(
            err.contains("timed out collecting round") && err.contains("waited 1ns"),
            "unexpected report: {err}"
        );

        // The frozen wrappers panic with the same report, here over
        // endpoints whose every wait times out at once.
        struct Stalled(channel::ChannelEndpoint);
        impl Endpoint for Stalled {
            fn node(&self) -> NodeId {
                self.0.node()
            }
            fn send(&mut self, dst: NodeId, frame: &Frame) -> io::Result<u64> {
                self.0.send(dst, frame)
            }
            fn recv(&mut self) -> io::Result<Frame> {
                Err(io::Error::new(io::ErrorKind::TimedOut, "stalled"))
            }
            fn teardown(&mut self) {
                self.0.teardown();
            }
        }
        let panic = std::panic::catch_unwind(|| {
            let cfg = SimConfig::new(16).seed(9).max_rounds(30);
            let stalled = channel::mesh(cfg.n).into_iter().map(Stalled).collect();
            run_over(&cfg, 4, chatter, &mut NoFaults, stalled)
        });
        let payload = panic.err().expect("a stalled endpoint must wedge the run");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.starts_with("cluster run wedged: node ")
                && msg.contains("timed out collecting round 0")
                && msg.ends_with("(stalled)"),
            "unexpected panic: {msg}"
        );
    }

    #[test]
    fn channel_run_replays_the_engine_fault_free() {
        let cfg = SimConfig::new(16).seed(5).max_rounds(10);
        let sim = run(&cfg, chatter, &mut NoFaults);
        for workers in [1, 3, 16] {
            let net = run_over_channel(&cfg, workers, chatter, &mut NoFaults);
            assert_matches_engine(&cfg, &net, &sim);
            assert!(net.net.frames_sent > 0);
            assert_eq!(net.run.metrics.wire_bytes, net.net.wire_bytes);
            assert!(net.net.wire_bytes >= 20 * net.net.frames_sent);
        }
    }

    #[test]
    fn channel_run_replays_the_engine_under_crashes() {
        let cfg = SimConfig::new(16).seed(7).max_rounds(10);
        for workers in [1, 4] {
            let mut sim_adv = EagerCrash::new(5);
            let sim = run(&cfg, chatter, &mut sim_adv);
            let mut net_adv = EagerCrash::new(5);
            let net = run_over_channel(&cfg, workers, chatter, &mut net_adv);
            assert_matches_engine(&cfg, &net, &sim);
            assert_eq!(net.run.survivor_count(), sim.survivor_count());
        }
    }

    #[test]
    fn channel_run_respects_partial_delivery_filters() {
        let plan = FaultPlan::new()
            .crash(NodeId(2), 1, DeliveryFilter::KeepFirst(3))
            .crash(
                NodeId(5),
                0,
                DeliveryFilter::DeliverEachWithProbability(0.5),
            );
        let cfg = SimConfig::new(12).seed(3).max_rounds(8);
        let mut sim_adv = ScriptedCrash::new(plan.clone());
        let sim = run(&cfg, chatter, &mut sim_adv);
        let mut net_adv = ScriptedCrash::new(plan);
        let net = run_over_channel(&cfg, 2, chatter, &mut net_adv);
        assert_matches_engine(&cfg, &net, &sim);
    }

    #[test]
    fn runs_replay_the_engine_on_sparse_topologies() {
        use ftc_sim::topology::Topology;
        // The channel runtime must stay bit-identical to the engine off
        // the complete graph too (the socket mesh pins the same in
        // `ftc-mesh`, opening only the topology's links).
        for topology in [
            Topology::DiameterTwo { clusters: 3 },
            Topology::RandomRegular { d: 4 },
        ] {
            let cfg = SimConfig::new(12)
                .seed(17)
                .max_rounds(10)
                .topology(topology);
            let sim = run(&cfg, chatter, &mut NoFaults);
            let chan = run_over_channel(&cfg, 4, chatter, &mut NoFaults);
            assert_matches_engine(&cfg, &chan, &sim);
        }
    }

    #[test]
    fn wire_faults_are_model_invisible_on_the_channel_path() {
        use crate::fault::{WireFaultKind, WireFaultPlan};
        // A crash schedule *plus* a wire schedule that reorders, delays,
        // and duplicates bursts — including the crashing node's own
        // crash-round burst. Delivery-preserving wire chaos must change
        // nothing: not the model result, not even the byte accounting.
        let cfg = SimConfig::new(12).seed(3).max_rounds(8);
        let plan = FaultPlan::new().crash(NodeId(2), 1, DeliveryFilter::KeepFirst(3));
        let sim = run(&cfg, chatter, &mut ScriptedCrash::new(plan.clone()));
        let clean = run_over_channel(&cfg, 2, chatter, &mut ScriptedCrash::new(plan.clone()));
        let wire = WireFaultPlan::new(11)
            .fault(NodeId(0), 0, WireFaultKind::Reorder)
            .fault(NodeId(1), 0, WireFaultKind::Duplicate)
            .fault(NodeId(2), 1, WireFaultKind::Duplicate)
            .fault(NodeId(2), 1, WireFaultKind::Reorder)
            .fault(NodeId(3), 1, WireFaultKind::Delay { micros: 200 })
            .fault(NodeId(4), 2, WireFaultKind::Tear { chunk: 3 });
        for workers in [1, 4] {
            let opts = RunOpts {
                wire: Some(&wire),
                ..RunOpts::default()
            };
            let mut adv = ScriptedCrash::new(plan.clone());
            let net = channel_run(&cfg, workers, &mut adv, &opts).unwrap();
            assert_matches_engine(&cfg, &net, &sim);
            assert_eq!(net.net.wire_bytes, clean.net.wire_bytes);
            assert_eq!(net.net.frames_sent, clean.net.frames_sent);
        }
    }

    #[test]
    fn send_cap_and_suppression_survive_the_network_path() {
        let cfg = SimConfig::new(8).seed(2).max_rounds(10).send_cap(5);
        let sim = run(&cfg, chatter, &mut NoFaults);
        let net = run_over_channel(&cfg, 3, chatter, &mut NoFaults);
        assert_eq!(net.run.metrics.msgs_suppressed, sim.metrics.msgs_suppressed);
        assert_matches_engine(&cfg, &net, &sim);
    }

    #[test]
    fn repeated_heights_replay_the_engine_with_a_leader_crash_mid_broadcast() {
        // Node 3 dies in round 1 with only its first two frames delivered —
        // a leader crashing partway through a broadcast. A service re-runs
        // the same election shape at successive heights over fresh meshes;
        // every height must replay the engine bit for bit.
        let cfg = SimConfig::new(10).seed(21).max_rounds(8);
        let plan = FaultPlan::new().crash(NodeId(3), 1, DeliveryFilter::KeepFirst(2));
        let sim = run(&cfg, chatter, &mut ScriptedCrash::new(plan.clone()));
        for height in [0, 1, 7, 40] {
            let net = at_height(&cfg, 3, &mut ScriptedCrash::new(plan.clone()), height);
            assert_matches_engine(&cfg, &net, &sim);
        }
    }

    #[test]
    fn coordinator_adjacent_crash_does_not_wedge_any_height() {
        // Node 0 sits in the first worker pool and submits first each
        // round; crashing it mid-round exercises the coordinator's
        // accounting right where a miscount would deadlock the lock-step
        // loop. Repeat across heights to cover the service's re-election
        // path.
        let cfg = SimConfig::new(8).seed(13).max_rounds(8);
        let plan = FaultPlan::new().crash(NodeId(0), 1, DeliveryFilter::KeepFirst(1));
        let sim = run(&cfg, chatter, &mut ScriptedCrash::new(plan.clone()));
        for height in [2, 3, 9] {
            let net = at_height(&cfg, 4, &mut ScriptedCrash::new(plan.clone()), height);
            assert_matches_engine(&cfg, &net, &sim);
        }
    }

    #[test]
    fn rejoin_at_a_height_boundary_restores_full_participation() {
        // A long-lived service keeps a crashed node in its down-set by
        // silencing it from round 0 of each height; rejoining is simply
        // dropping it from the plan at the next height's fresh mesh. Both
        // heights must match the engine under their respective plans.
        let cfg = SimConfig::new(6).seed(4).max_rounds(6);
        let down = FaultPlan::new().crash(NodeId(2), 0, DeliveryFilter::DropAll);
        let sim_down = run(&cfg, chatter, &mut ScriptedCrash::new(down.clone()));
        let net_down = at_height(&cfg, 2, &mut ScriptedCrash::new(down), 5);
        assert_matches_engine(&cfg, &net_down, &sim_down);
        assert_eq!(net_down.run.survivor_count(), 5);

        let sim_up = run(&cfg, chatter, &mut NoFaults);
        let net_up = at_height(&cfg, 2, &mut NoFaults, 6);
        assert_matches_engine(&cfg, &net_up, &sim_up);
        assert_eq!(net_up.run.survivor_count(), 6);
    }

    /// What a [`Scripted`] link saw, in call order.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Sent(usize, NodeId, u32),
        Teardown(usize),
    }

    /// An in-memory [`Link`] that plays back a script: no sockets, no
    /// threads, no clock. Frames towards `local` nodes are handed back,
    /// the rest are logged as sent; each `pump` the worker blocks on pops
    /// the next scripted arrival batch (or error).
    #[derive(Default)]
    struct Scripted {
        local: Vec<NodeId>,
        pumps: std::collections::VecDeque<io::Result<Vec<(usize, Frame)>>>,
        seen: Vec<Seen>,
    }

    impl Link for &mut Scripted {
        fn send(&mut self, slot: usize, dst: NodeId, frame: Frame) -> io::Result<Option<Frame>> {
            if self.local.contains(&dst) {
                return Ok(Some(frame));
            }
            self.seen.push(Seen::Sent(slot, dst, frame.seq));
            Ok(None)
        }

        fn teardown(&mut self, slot: usize) {
            self.seen.push(Seen::Teardown(slot));
        }

        fn tear(&mut self, _chunk: Option<usize>) {}

        fn pump(
            &mut self,
            waiting: Option<usize>,
            inbound: &mut Vec<(usize, Frame)>,
        ) -> io::Result<bool> {
            if waiting.is_some() {
                let next = self.pumps.pop_front().expect("pumped past the script");
                inbound.extend(next?);
            }
            Ok(false)
        }
    }

    fn frame(round: u32, src: u32, seq: u32, msg: u64) -> Frame {
        let mut payload = Vec::new();
        msg.encode(&mut payload);
        Frame {
            height: 0,
            round,
            src: NodeId(src),
            seq,
            payload: payload.into(),
        }
    }

    /// An envelope of `msg` from `src` to `dst`, as the sender routes it.
    fn send(src: u32, dst: u32, msg: u64) -> Envelope<u64> {
        Envelope {
            src: NodeId(src),
            dst: NodeId(dst),
            msg,
        }
    }

    fn verdict(sends: Vec<Envelope<u64>>, expect: usize) -> Command<u64> {
        Command {
            sends,
            expect,
            crashed: false,
            stop: false,
        }
    }

    /// What a driven worker handed back: `(frames_sent, wire_bytes,
    /// heard-by-node-0, heard-by-node-2)`.
    type Handed = (u64, u64, u64, u64);

    /// Runs worker 0 of 2 on an `n = 4` network (it owns nodes 0 and 2)
    /// over `link`, the coordinator stubbed by the pre-filled `batches`.
    /// Returns what the worker handed back and every message it put on the
    /// submission channel, in order.
    fn drive_raw(
        link: &mut Scripted,
        wire: Option<&WireFaultPlan>,
        batches: Vec<Batch<u64>>,
    ) -> (Option<Handed>, Vec<Submissions<u64>>) {
        let cfg = SimConfig::new(4).seed(1).max_rounds(8);
        let nodes = [0, 2]
            .map(|u| RoundCore::new(&cfg, NodeId(u), chatter(NodeId(u)), 0))
            .into();
        let (batch_tx, batch_rx) = channel();
        for batch in batches {
            batch_tx.send(batch).unwrap();
        }
        drop(batch_tx);
        let (submit_tx, submit_rx) = channel();
        let done = Worker::new(0, 2, nodes, link, wire).run(&batch_rx, &submit_tx);
        drop(submit_tx);
        let done = done.map(|(net, nodes)| {
            let heard: Vec<u64> = nodes.into_iter().map(|n| n.into_state().heard).collect();
            (net.frames_sent, net.wire_bytes, heard[0], heard[1])
        });
        (done, submit_rx.into_iter().collect())
    }

    /// [`drive_raw`], with the submission channel reduced to the failure
    /// it carried, if any.
    fn drive(
        link: &mut Scripted,
        wire: Option<&WireFaultPlan>,
        batches: Vec<Batch<u64>>,
    ) -> (Option<Handed>, Option<String>) {
        let (done, submitted) = drive_raw(link, wire, batches);
        let failed = submitted.into_iter().flatten().find_map(|sub| sub.failed);
        (done, failed)
    }

    fn stop_both() -> Batch<u64> {
        vec![(NodeId(0), Command::stop()), (NodeId(2), Command::stop())]
    }

    #[test]
    fn worker_buffers_next_round_frames_that_arrive_early() {
        // Node 0 is promised one frame in each of rounds 0 and 1. A fast
        // peer's round-1 frame arrives first, in the same pump as the
        // round-0 one: it must wait in the core until round 1 opens and
        // then complete that round without another pump (the script has
        // none left — a second blocking pump would panic).
        let mut link = Scripted::default();
        link.pumps
            .push_back(Ok(vec![(0, frame(1, 1, 0, 40)), (0, frame(0, 1, 0, 1))]));
        let idle = |expect| {
            vec![
                (NodeId(0), verdict(vec![], expect)),
                (NodeId(2), verdict(vec![], 0)),
            ]
        };
        let (done, failed) = drive(&mut link, None, vec![idle(1), idle(1), stop_both()]);
        assert_eq!(failed, None);
        assert_eq!(done, Some((0, 0, (1 + 1) + (40 + 1), 0)));
    }

    #[test]
    fn worker_feeds_a_local_hand_back_without_touching_the_wire() {
        // Node 0 sends to node 2 (same worker) and to node 1 (remote). The
        // link hands the local frame back; the worker feeds it straight to
        // node 2, which is then ready with no pump at all. Both frames are
        // charged — accounting is per frame, wired or not.
        let mut link = Scripted {
            local: vec![NodeId(0), NodeId(2)],
            ..Scripted::default()
        };
        let (to_2, to_1) = (frame(0, 0, 0, 9), frame(0, 0, 1, 9));
        let bytes = to_2.encoded_len() + to_1.encoded_len();
        let burst = vec![send(0, 2, 9), send(0, 1, 9)];
        let round0 = vec![
            (NodeId(0), verdict(burst, 0)),
            (NodeId(2), verdict(vec![], 1)),
        ];
        let (done, failed) = drive(&mut link, None, vec![round0, stop_both()]);
        assert_eq!(failed, None);
        assert_eq!(done, Some((2, bytes, 0, 9 + 1)));
        assert_eq!(link.seen, [Seen::Sent(0, NodeId(1), 1)]);
    }

    #[test]
    fn worker_drops_a_duplicate_only_under_a_wire_plan() {
        // The same frame arrives twice. Without a wire plan there is no
        // dedup state and the core admits both (the faultless path is
        // untouched); under a plan — even an empty one — the receive edge
        // drops the second before the core can count it.
        let empty_plan = WireFaultPlan::new(0);
        for (wire, heard) in [(None, 2 * (5 + 1)), (Some(&empty_plan), 5 + 1)] {
            let mut link = Scripted::default();
            let twice = [(); 2].map(|_| (1, frame(0, 3, 0, 5)));
            link.pumps.push_back(Ok(twice.into()));
            let round0 = vec![
                (NodeId(0), verdict(vec![], 0)),
                (NodeId(2), verdict(vec![], 1)),
            ];
            let (done, failed) = drive(&mut link, wire, vec![round0, stop_both()]);
            assert_eq!(failed, None);
            assert_eq!(done, Some((0, 0, 0, heard)));
        }
    }

    #[test]
    fn worker_transmits_a_crashed_nodes_filtered_burst_then_tears_it_down() {
        // Node 2 (slot 1) crashes in round 0 with two filter-surviving
        // frames: both go out, charged, and only then is the slot torn
        // down. Node 0 carries on to the stop.
        let mut link = Scripted::default();
        let burst = vec![send(2, 1, 0), send(2, 3, 0)];
        let crash = Command {
            crashed: true,
            ..verdict(burst, 0)
        };
        let round0 = vec![(NodeId(0), verdict(vec![], 0)), (NodeId(2), crash)];
        let (done, failed) = drive(&mut link, None, vec![round0, stop_both()]);
        assert_eq!(failed, None);
        assert_eq!(done.map(|d| d.0), Some(2));
        let sent = |seq| Seen::Sent(1, NodeId(1 + 2 * seq), seq);
        assert_eq!(link.seen, [sent(0), sent(1), Seen::Teardown(1)]);
    }

    #[test]
    fn worker_reports_a_pump_error_with_node_round_and_frame_counts() {
        // Node 2 is promised two frames, gets one, and then the link times
        // out: the worker abandons the run with a failure submission that
        // says who was stalled, in which round, and how far it got.
        let mut link = Scripted::default();
        link.pumps.push_back(Ok(vec![(1, frame(0, 1, 0, 0))]));
        link.pumps.push_back(Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "scripted stall",
        )));
        let round0 = vec![
            (NodeId(0), verdict(vec![], 0)),
            (NodeId(2), verdict(vec![], 2)),
        ];
        let (done, failed) = drive(&mut link, None, vec![round0]);
        assert_eq!(done, None);
        assert_eq!(
            failed.as_deref(),
            Some("node n2 timed out collecting round 0: got 1 of 2 frames (scripted stall)")
        );
    }

    #[test]
    fn worker_submits_one_message_a_round_whatever_it_owns() {
        // Three rounds, three messages: both nodes' submissions ride in
        // the first; node 2 crashes in round 0, so the later two carry
        // node 0 alone.
        let crash = Command {
            crashed: true,
            ..verdict(vec![], 0)
        };
        let batches = vec![
            vec![(NodeId(0), verdict(vec![], 0)), (NodeId(2), crash)],
            vec![(NodeId(0), verdict(vec![], 0))],
            vec![(NodeId(0), Command::stop())],
        ];
        let (done, submitted) = drive_raw(&mut Scripted::default(), None, batches);
        assert!(done.is_some());
        let nodes = |batch: &Submissions<u64>| batch.iter().map(|s| s.node.0).collect::<Vec<_>>();
        let per_round: Vec<Vec<u32>> = submitted.iter().map(nodes).collect();
        assert_eq!(per_round, [vec![0, 2], vec![0], vec![0]]);
        assert!(submitted.iter().flatten().all(|sub| sub.failed.is_none()));
    }

    #[test]
    fn a_worker_failure_is_a_one_element_batch_that_aborts_the_round() {
        // Worker side: after round 0's submissions, the stalled link's
        // report is the only thing in the next message.
        let stall = || io::Error::new(io::ErrorKind::TimedOut, "scripted stall");
        let mut link = Scripted::default();
        link.pumps.push_back(Err(stall()));
        let round0 = vec![
            (NodeId(0), verdict(vec![], 0)),
            (NodeId(2), verdict(vec![], 1)),
        ];
        let (done, submitted) = drive_raw(&mut link, None, vec![round0]);
        assert_eq!(done, None);
        let report = "node n2 timed out collecting round 0: got 0 of 1 frames (scripted stall)";
        assert_eq!(submitted.len(), 2);
        assert_eq!(submitted[0].len(), 2);
        assert_eq!(submitted[1].len(), 1);
        assert_eq!(submitted[1][0].node, NodeId(2));
        assert_eq!(submitted[1][0].failed.as_deref(), Some(report));

        // Coordinator side: two nodes on one worker broadcast to each
        // other in round 0, nothing ever arrives, and the one-element
        // batch ends the run with the worker's report, verbatim.
        let mut link = Scripted::default();
        link.pumps.push_back(Err(stall()));
        let cfg = SimConfig::new(2).seed(1).max_rounds(4);
        let opts = RunOpts::default();
        let err = run_over_links(&cfg, vec![&mut link], chatter, &mut NoFaults, &opts)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(
            err,
            "node n0 timed out collecting round 0: got 0 of 1 frames (scripted stall)"
        );
        let sent = |slot, dst| Seen::Sent(slot, NodeId(dst), 0);
        assert_eq!(link.seen, [sent(0, 1), sent(1, 0)]);
    }

    #[test]
    fn worker_exits_quietly_when_the_coordinator_is_gone_or_a_frame_is_misrouted() {
        // No batch and a dropped sender: the coordinator left. No panic —
        // the worker hands nothing back.
        let (done, failed) = drive(&mut Scripted::default(), None, vec![]);
        assert_eq!(done, None);
        assert_eq!(failed.as_deref(), Some("coordinator gone"));

        // A frame for a slot this worker does not have fails the run,
        // naming the worker and the sender, instead of indexing out of
        // the pool.
        let mut link = Scripted::default();
        link.pumps.push_back(Ok(vec![(5, frame(0, 1, 0, 0))]));
        let round0 = vec![
            (NodeId(0), verdict(vec![], 1)),
            (NodeId(2), verdict(vec![], 0)),
        ];
        let (done, failed) = drive(&mut link, None, vec![round0]);
        assert_eq!(done, None);
        assert_eq!(
            failed.as_deref(),
            Some("worker 0 got a frame from node n1 for slot 5, but owns 2 nodes")
        );
    }

    #[test]
    #[should_panic(expected = "adversary crashed n0 twice")]
    fn a_coordinator_panic_propagates_instead_of_deadlocking_the_workers() {
        // The adversary breaks the model in round 0, so adjudication
        // panics while every worker waits for its batch. The workers must
        // notice the coordinator is gone and exit, or the scope's join —
        // and this test — would hang instead of panicking.
        let twice = FaultPlan::new()
            .crash(NodeId(0), 0, DeliveryFilter::DropAll)
            .crash(NodeId(0), 0, DeliveryFilter::DropAll);
        let cfg = SimConfig::new(6).seed(1).max_rounds(4);
        let _ = run_over_channel(&cfg, 3, chatter, &mut ScriptedCrash::new(twice));
    }

    #[test]
    #[should_panic(expected = "one endpoint per node")]
    fn endpoint_count_must_match_network_size() {
        let cfg = SimConfig::new(4).seed(0);
        let endpoints = crate::channel::mesh(3);
        let _ = run_over(&cfg, 1, chatter, &mut NoFaults, endpoints);
    }
}
