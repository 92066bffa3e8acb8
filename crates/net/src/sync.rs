//! The round synchronizer: drives [`Protocol`] state machines over a real
//! transport, reproducing the in-process engine bit for bit.
//!
//! ## Architecture
//!
//! The model's *data plane* (protocol messages between nodes) moves over
//! the transport as [`Frame`]s. The *control plane* — the adversary, its
//! delivery filters, liveness, and all accounting — is inherently global
//! (the model's adversary sees the whole round's traffic before choosing
//! crashes), so it runs in one coordinator built on the same
//! [`ControlCore`] the simulator uses. Per round:
//!
//! 1. **activate** — every alive node runs its protocol against the inbox
//!    assembled from last round's frames and submits its queued sends to
//!    the coordinator;
//! 2. **adjudicate** — the coordinator routes the sends through the KT0
//!    port permutations, consults the adversary, applies crash filters and
//!    closes the round's books ([`ControlCore::finish_round`]);
//! 3. **transmit** — each node physically sends its surviving messages as
//!    frames; a node crashed this round sends its filter-surviving frames
//!    and then tears its endpoint down (mid-round socket teardown — the
//!    wire form of crash-with-partial-delivery);
//! 4. **collect** — each surviving node blocks until the frames the
//!    coordinator told it to expect have arrived, reassembling them into
//!    next round's inbox in canonical `(src, seq)` order.
//!
//! Nodes are multiplexed onto a worker pool. Because every decision is
//! centralized and submissions are keyed by node id, results are
//! independent of the worker count — `workers = 1` and `workers = 4`
//! produce identical executions (asserted by `tests/net_equivalence.rs`).
//!
//! All round *logic* lives in the sans-I/O [`crate::core`] module
//! ([`RoundCore`] per node, [`CoordinatorCore`] for the control plane);
//! this module is the threads-and-channels adapter that moves the cores'
//! data over an [`Endpoint`] mesh. The multiplexed socket runtime
//! (`ftc-mesh`) is the second adapter over the same cores, and its
//! `Substrate::run` is the one call that picks between the engine, this
//! adapter and the sockets.
//!
//! ## Why this cannot deadlock
//!
//! Within a round, every worker transmits *all* its nodes' frames before
//! collecting for *any* of them, transmits never block (channel sends are
//! unbounded), and the coordinator's phase barriers order activation
//! before adjudication before transmission. Every frame a node
//! waits for has therefore already been sent, or will be sent by a worker
//! that is still transmitting and never blocks first.

use std::io;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread;
use std::time::Duration;

use ftc_sim::adversary::Adversary;
use ftc_sim::engine::{RunResult, SimConfig};
use ftc_sim::ids::NodeId;
use ftc_sim::payload::Wire;
use ftc_sim::protocol::Protocol;

use crate::channel::{self};
use crate::core::{Command, CoordinatorCore, RoundCore, Submission};
use crate::fault::{FrameDedup, WireFaultPlan};
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
    /// (default [`RECV_TIMEOUT`]).
    pub recv_timeout: Duration,
    /// The election-instance counter of a long-lived service
    /// (`ftc-serve`), tagged onto every frame. Each height gets a fresh
    /// mesh, so the tag is provenance: a frame whose height disagrees with
    /// the run's aborts the run instead of silently feeding one election's
    /// traffic to another.
    pub height: u32,
    /// A scripted [`WireFaultPlan`] perturbing the wire between the cores
    /// and the transport: transmit bursts are reordered, duplicated and
    /// delayed per the plan, and receive edges dedup frames. The model
    /// result and accounting are bit-identical to the faultless run — every
    /// v1 wire fault is delivery-preserving (see [`crate::fault`]) — which
    /// is exactly the property `ftc hunt --wire-faults` searches for
    /// violations of. `None` is the exact pre-fault code path.
    pub wire: Option<&'a WireFaultPlan>,
}

impl Default for RunOpts<'_> {
    fn default() -> Self {
        RunOpts {
            recv_timeout: RECV_TIMEOUT,
            height: 0,
            wire: None,
        }
    }
}

/// What a worker hands back when all its nodes are done.
struct WorkerReport<P> {
    wire_bytes: u64,
    frames_sent: u64,
    states: Vec<(NodeId, P)>,
}

/// One node as owned by a worker thread: the sans-I/O state machine plus
/// this runtime's I/O attachments (an endpoint and a command channel).
struct WorkerNode<P: Protocol, E> {
    core: RoundCore<P>,
    endpoint: E,
    commands: Receiver<Command>,
}

/// Runs `cfg` over an in-process channel mesh with `workers` worker
/// threads and default [`RunOpts`]. Infallible transport, any `n ≥ 2`,
/// any topology: the sender registry is O(n) whatever the graph (there is
/// no per-edge resource to gate), and the coordinator only ever routes
/// frames along topology edges.
///
/// See [`run_over`] for semantics and panics.
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
    run_over(cfg, workers, factory, adversary, channel::mesh(cfg.n))
}

/// Like [`run_over_channel`], but under explicit [`RunOpts`], and a
/// wedged run (a node's receive timing out, an adjudication error) is an
/// `Err` naming the node, round and frame counts instead of a panic.
pub fn run_over_channel_with<P, F, A>(
    cfg: &SimConfig,
    workers: usize,
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
    let endpoints = channel::mesh_with_timeout(cfg.n, opts.recv_timeout);
    run_over_wired(cfg, workers, factory, adversary, endpoints, opts)
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
/// Panics on invalid configurations ([`SimConfig::validate`],
/// `max_rounds == 0`, endpoint count mismatch), if the adversary violates
/// the model, or if the transport fails mid-run (a torn socket outside the
/// crash schedule is a bug, not a model event — the model's faults are
/// *injected*, never spontaneous).
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
    let opts = RunOpts::default();
    run_over_wired(cfg, workers, factory, adversary, endpoints, &opts)
        .unwrap_or_else(|err| panic!("cluster run wedged: {err}"))
}

/// The shared driver. `opts.recv_timeout` is already baked into
/// `endpoints`; the wire plan is applied at the adapter boundary (never
/// inside the cores).
fn run_over_wired<P, F, A, E>(
    cfg: &SimConfig,
    workers: usize,
    mut factory: F,
    adversary: &mut A,
    endpoints: Vec<E>,
    opts: &RunOpts,
) -> Result<NetRunResult<P>, String>
where
    P: Protocol,
    P::Msg: Wire,
    F: FnMut(NodeId) -> P,
    A: Adversary<P::Msg> + ?Sized,
    E: Endpoint,
{
    cfg.validate().expect("invalid SimConfig");
    assert!(cfg.max_rounds > 0, "cluster runs need at least one round");
    let nn = cfg.n as usize;
    assert_eq!(endpoints.len(), nn, "need exactly one endpoint per node");
    let workers = workers.clamp(1, nn);
    let (height, wire) = (opts.height, opts.wire);

    let mut coord = CoordinatorCore::<P::Msg>::new(cfg, height, adversary);

    let (submit_tx, submit_rx) = channel::<Submission<P::Msg>>();
    let (report_tx, report_rx) = channel::<WorkerReport<P>>();
    let mut command_txs: Vec<Sender<Command>> = Vec::with_capacity(nn);
    let mut pools: Vec<Vec<WorkerNode<P, E>>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, endpoint) in endpoints.into_iter().enumerate() {
        let id = NodeId(i as u32);
        let (tx, rx) = channel();
        command_txs.push(tx);
        pools[i % workers].push(WorkerNode {
            core: RoundCore::new(cfg, id, factory(id), height),
            endpoint,
            commands: rx,
        });
    }

    let mut states: Vec<Option<P>> = (0..nn).map(|_| None).collect();
    let mut net = NetMetrics::default();
    let mut failure: Option<String> = None;

    thread::scope(|scope| {
        for pool in pools {
            let submit_tx = submit_tx.clone();
            let report_tx = report_tx.clone();
            scope.spawn(move || worker_loop(pool, submit_tx, report_tx, wire));
        }
        drop(submit_tx);
        drop(report_tx);

        'rounds: loop {
            // --- activate: collect one submission per alive node. ---
            let expected = coord.alive().len();
            let mut submissions = Vec::with_capacity(expected);
            for _ in 0..expected {
                let sub = submit_rx.recv().expect("a worker died mid-round");
                if sub.failed.is_some() {
                    failure = sub.failed;
                    break 'rounds;
                }
                submissions.push(sub);
            }

            // --- adjudicate and fan the verdicts out. ---
            let plan = match coord.adjudicate(submissions, adversary) {
                Ok(plan) => plan,
                Err(err) => {
                    failure = Some(err);
                    break 'rounds;
                }
            };
            for (u, command) in plan.commands {
                command_txs[u.index()]
                    .send(command)
                    .expect("a worker died mid-round");
            }
            if plan.stop {
                break;
            }
        }

        if failure.is_some() {
            // Unwedge the lock-step: stop every surviving node so the
            // workers drain and join (the failed worker's command
            // receiver is already gone — ignore send errors).
            for tx in &command_txs {
                let _ = tx.send(Command::stop());
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
                .map(|s| s.expect("worker returned no state for a node"))
                .collect(),
            crashed_at: out.crashed_at,
            faulty: out.faulty,
            trace: out.trace,
            congest_violations: out.congest_violations,
        },
        net,
    })
}

/// Drives one worker's share of the nodes, phase-locked to the
/// coordinator, until every owned node has crashed or stopped. All round
/// logic lives in each node's [`RoundCore`]; this loop only moves data
/// between the cores and their I/O attachments.
fn worker_loop<P, E>(
    mut nodes: Vec<WorkerNode<P, E>>,
    submit_tx: Sender<Submission<P::Msg>>,
    report_tx: Sender<WorkerReport<P>>,
    wire: Option<&WireFaultPlan>,
) where
    P: Protocol,
    P::Msg: Wire,
    E: Endpoint,
{
    let mut wire_bytes = 0u64;
    let mut frames_sent = 0u64;
    // Receive-edge dedup, one set per owned node, engaged only under a
    // wire plan (the faultless path must stay byte-for-byte untouched).
    let mut dedups: Vec<FrameDedup> = if wire.is_some() {
        nodes.iter().map(|_| FrameDedup::new()).collect()
    } else {
        Vec::new()
    };
    loop {
        // Phase 1: activate and submit.
        let mut any_active = false;
        for node in nodes.iter_mut().filter(|n| n.core.is_active()) {
            any_active = true;
            submit_tx
                .send(node.core.activate())
                .expect("coordinator gone");
        }
        if !any_active {
            break;
        }

        // Phase 2: transmit for *all* owned nodes before collecting for
        // *any* (the deadlock-freedom invariant — see module docs).
        for node in nodes.iter_mut().filter(|n| n.core.is_active()) {
            let command = node.commands.recv().expect("coordinator gone");
            let crashed = command.crashed;
            let mut burst = node.core.apply(command);
            // Wire faults perturb the burst between core and endpoint:
            // duplicates (the appended suffix) go on the wire uncharged,
            // so model accounting stays identical to a faultless run.
            // Tear is absorbed trivially here — this transport sends
            // whole frames.
            let mut charged = burst.len();
            if let Some(plan) = wire {
                if let Some(round) = burst.first().map(|(_, f)| f.round) {
                    let id = node.core.id();
                    if let Some(pause) = plan.delay(id, round) {
                        thread::sleep(pause);
                    }
                    let dups = plan.perturb_batch(id, round, &mut burst);
                    charged = burst.len() - dups;
                }
            }
            for (k, (dst, frame)) in burst.into_iter().enumerate() {
                let sent = node
                    .endpoint
                    .send(dst, &frame)
                    .expect("transport send failed");
                if k < charged {
                    wire_bytes += sent;
                    frames_sent += 1;
                }
            }
            if crashed {
                // Mid-round socket teardown — the wire form of
                // crash-with-partial-delivery.
                node.endpoint.teardown();
            }
        }

        // Phase 3: collect next round's inboxes. Failures surface through
        // the submission channel (where the coordinator blocks next
        // round) — dying silently here would deadlock the lock-step loop.
        for (slot, node) in nodes.iter_mut().enumerate() {
            if !node.core.is_active() {
                continue;
            }
            while !node.core.ready() {
                let frame = match node.endpoint.recv() {
                    Ok(frame) => frame,
                    Err(e) => {
                        let msg = if e.kind() == io::ErrorKind::TimedOut {
                            format!(
                                "node {} timed out collecting round {}: got {} of {} frames ({e})",
                                node.core.id(),
                                node.core.round(),
                                node.core.received(),
                                node.core.expect(),
                            )
                        } else {
                            e.to_string()
                        };
                        let _ = submit_tx.send(Submission::failure(node.core.id(), msg));
                        return;
                    }
                };
                // Under a wire plan, a duplicate (possibly straggling
                // from an earlier round) is dropped before the core sees
                // it — it would otherwise falsely complete the round or
                // trip the past-round check.
                if let Some(dedup) = dedups.get_mut(slot) {
                    if !dedup.admit(&frame) {
                        continue;
                    }
                }
                if let Err(err) = node.core.feed(frame) {
                    let _ = submit_tx.send(Submission::failure(node.core.id(), err));
                    return;
                }
            }
            if let Err(err) = node.core.end_round() {
                let _ = submit_tx.send(Submission::failure(node.core.id(), err));
                return;
            }
        }
    }

    let _ = report_tx.send(WorkerReport {
        wire_bytes,
        frames_sent,
        states: nodes
            .into_iter()
            .map(|n| (n.core.id(), n.core.into_state()))
            .collect(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_sim::adversary::{DeliveryFilter, EagerCrash, FaultPlan, NoFaults, ScriptedCrash};
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
        run_over_channel_with(cfg, workers, chatter, adversary, &opts).unwrap()
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
        // A 1 ns recv timeout trips essentially always on a real
        // scheduler, but not deterministically — retry a few runs so the
        // test doesn't hinge on one interleaving. The load-bearing claim:
        // a node timing out must abort the whole run with the transport
        // error (via the submission channel), never deadlock the
        // coordinator's lock-step loop. The `RunOpts` entry point (what
        // `Substrate::run` dispatches to) reports it as an `Err` carrying
        // the stalled node's context; the frozen wrappers panic with it.
        let tiny = Duration::from_nanos(1);
        let err = (0..5).find_map(|attempt| {
            let cfg = SimConfig::new(16).seed(9 + attempt).max_rounds(30);
            let opts = RunOpts {
                recv_timeout: tiny,
                ..RunOpts::default()
            };
            run_over_channel_with(&cfg, 4, chatter, &mut NoFaults, &opts).err()
        });
        let err = err.expect("a 1ns recv timeout never tripped in 5 runs");
        for context in ["node n", "timed out collecting round", "frames"] {
            assert!(err.contains(context), "no `{context}` in: {err}");
        }

        let panic = (0..5).find_map(|attempt| {
            std::panic::catch_unwind(|| {
                let cfg = SimConfig::new(16).seed(9 + attempt).max_rounds(30);
                let endpoints = channel::mesh_with_timeout(cfg.n, tiny);
                run_over(&cfg, 4, chatter, &mut NoFaults, endpoints)
            })
            .err()
        });
        let payload = panic.expect("a 1ns recv timeout never tripped in 5 runs");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("cluster run wedged") && msg.contains("timed out"),
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
            let net = run_over_channel_with(&cfg, workers, chatter, &mut adv, &opts).unwrap();
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

    #[test]
    #[should_panic(expected = "one endpoint per node")]
    fn endpoint_count_must_match_network_size() {
        let cfg = SimConfig::new(4).seed(0);
        let endpoints = crate::channel::mesh(3);
        let _ = run_over(&cfg, 1, chatter, &mut NoFaults, endpoints);
    }
}
