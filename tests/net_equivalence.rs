//! Transport equivalence: the network runtime replays the simulator.
//!
//! The defining property of `ftc-net` is that a cluster run is
//! bit-identical to an engine run of the same `(SimConfig, seed)` — same
//! elected leader, same agreement decision, same message/bit/round counts,
//! same crash schedule — independent of the transport and of how many
//! worker threads multiplex the nodes. These tests pin that property for
//! both of the paper's protocols under several seeds and adversaries, at
//! 1 and 4 workers (the acceptance configuration), on the channel
//! transport, and on the socket mesh at several process counts up to one
//! node per process (one TCP socket per edge), plus n = 8 socket smokes.
//! The forging and mesh cells also record the message trace, which must
//! match the engine's event for event.

use ftc::prelude::*;

const N: u32 = 64;
// n = 64 sits above the paper's resilience floor log₂²n/n = 0.5625, so
// the canonical alpha = 0.5 is inadmissible here; 0.75 keeps a hefty
// 16-crash budget while staying inside the guaranteed regime.
const ALPHA: f64 = 0.75;
const WORKER_COUNTS: [usize; 2] = [1, 4];

/// Everything observable that must match between substrates.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    success: bool,
    outcome: Option<u64>,
    msgs_sent: u64,
    msgs_delivered: u64,
    bits_sent: u64,
    rounds: u32,
    crashed_at: Vec<Option<u32>>,
    /// The message trace, `None` when the run recorded none.
    trace: Option<Vec<TraceEvent>>,
}

fn le_fingerprint(r: &RunResult<LeNode>) -> Fingerprint {
    let out = LeOutcome::evaluate(r);
    Fingerprint {
        success: out.success,
        outcome: out.agreed_leader.map(|rank| rank.0),
        msgs_sent: r.metrics.msgs_sent,
        msgs_delivered: r.metrics.msgs_delivered,
        bits_sent: r.metrics.bits_sent,
        rounds: r.metrics.rounds,
        crashed_at: r.crashed_at.clone(),
        trace: r.trace.as_ref().map(|t| t.events().to_vec()),
    }
}

fn agree_fingerprint(r: &RunResult<AgreeNode>) -> Fingerprint {
    let v = r.verdict();
    Fingerprint {
        success: v.implicit() && v.valid,
        outcome: v.value().map(u64::from),
        msgs_sent: r.metrics.msgs_sent,
        msgs_delivered: r.metrics.msgs_delivered,
        bits_sent: r.metrics.bits_sent,
        rounds: r.metrics.rounds,
        crashed_at: r.crashed_at.clone(),
        trace: r.trace.as_ref().map(|t| t.events().to_vec()),
    }
}

fn le_adversary(kind: &str, f: usize) -> Box<dyn Adversary<LeMsg>> {
    match kind {
        "none" => Box::new(NoFaults),
        "eager" => Box::new(EagerCrash::new(f)),
        "random" => Box::new(RandomCrash::new(f, 60)),
        "targeted" => Box::new(MinRankCrasher::new(f)),
        other => panic!("unknown adversary {other}"),
    }
}

fn agree_adversary(kind: &str, f: usize) -> Box<dyn Adversary<AgreeMsg>> {
    match kind {
        "none" => Box::new(NoFaults),
        "eager" => Box::new(EagerCrash::new(f)),
        "random" => Box::new(RandomCrash::new(f, 20)),
        "targeted" => Box::new(ZeroHolderCrasher::new(f)),
        other => panic!("unknown adversary {other}"),
    }
}

#[test]
fn leader_election_matches_engine_on_channel_transport() {
    let params = Params::new(N, ALPHA).unwrap();
    let f = params.max_faults();
    for adversary in ["none", "eager", "random", "targeted"] {
        for seed in [1u64, 7, 99] {
            let cfg = SimConfig::new(N)
                .seed(seed)
                .max_rounds(params.le_round_budget());
            let sim = run(
                &cfg,
                |_| LeNode::new(params.clone()),
                le_adversary(adversary, f).as_mut(),
            );
            let expected = le_fingerprint(&sim);
            for workers in WORKER_COUNTS {
                let net = run_over_channel(
                    &cfg,
                    workers,
                    |_| LeNode::new(params.clone()),
                    le_adversary(adversary, f).as_mut(),
                );
                assert_eq!(
                    le_fingerprint(&net.run),
                    expected,
                    "LE diverged: adversary={adversary} seed={seed} workers={workers}"
                );
                assert_eq!(net.run.metrics.wire_bytes, net.net.wire_bytes);
            }
        }
    }
}

#[test]
fn agreement_matches_engine_on_channel_transport() {
    let params = Params::new(N, ALPHA).unwrap();
    let f = params.max_faults();
    // Every 8th node holds input 0, the rest hold 1.
    let input = |id: NodeId| !id.0.is_multiple_of(8);
    for adversary in ["none", "eager", "random", "targeted"] {
        for seed in [2u64, 13] {
            let cfg = SimConfig::new(N)
                .seed(seed)
                .max_rounds(params.agreement_round_budget());
            let sim = run(
                &cfg,
                |id| AgreeNode::new(params.clone(), input(id)),
                agree_adversary(adversary, f).as_mut(),
            );
            let expected = agree_fingerprint(&sim);
            for workers in WORKER_COUNTS {
                let net = run_over_channel(
                    &cfg,
                    workers,
                    |id| AgreeNode::new(params.clone(), input(id)),
                    agree_adversary(adversary, f).as_mut(),
                );
                assert_eq!(
                    agree_fingerprint(&net.run),
                    expected,
                    "agreement diverged: adversary={adversary} seed={seed} workers={workers}"
                );
            }
        }
    }
}

/// Byzantine adversaries replace a corrupted node's sends with forgeries,
/// which reach the wire through that node's own worker like any survivor.
/// A forgery along a non-edge is dropped by the coordinator's edge check,
/// so the forging cells also run on two sparse graphs.
const TAMPERING_SEEDS: [u64; 3] = [1, 7, 99];
const CORRUPTED: usize = 2;
const TAMPERING_TOPOLOGIES: [Topology; 3] = [
    Topology::Complete,
    Topology::DiameterTwo { clusters: 4 },
    Topology::RandomRegular { d: 6 },
];

#[test]
fn forged_leadership_claims_match_engine_on_channel_and_mesh() {
    let params = Params::new(N, ALPHA).unwrap();
    let node = |_: NodeId| LeNode::new(params.clone());
    for topology in TAMPERING_TOPOLOGIES {
        for seed in TAMPERING_SEEDS {
            let cfg = SimConfig::new(N)
                .seed(seed)
                .max_rounds(params.le_round_budget())
                .topology(topology.clone())
                .record_trace(true);
            let adversary = || EquivocatingClaimant::new(CORRUPTED);
            let expected = le_fingerprint(&run(&cfg, node, &mut adversary()));
            for workers in WORKER_COUNTS {
                let net = run_over_channel(&cfg, workers, node, &mut adversary());
                let got = le_fingerprint(&net.run);
                assert_eq!(got, expected, "{topology} seed={seed} channel:{workers}");
            }
            let mesh = run_over_mesh(&cfg, 2, node, &mut adversary()).expect("mesh fabric");
            let got = le_fingerprint(&mesh.run);
            assert_eq!(got, expected, "{topology} seed={seed} mesh:2");
        }
    }
}

#[test]
fn forged_zeros_match_engine_on_channel_and_mesh() {
    let params = Params::new(N, ALPHA).unwrap();
    // Every honest input is 1, so each forged zero that lands shows.
    let node = |_: NodeId| AgreeNode::new(params.clone(), true);
    for topology in TAMPERING_TOPOLOGIES {
        for seed in TAMPERING_SEEDS {
            let cfg = SimConfig::new(N)
                .seed(seed)
                .max_rounds(params.agreement_round_budget())
                .topology(topology.clone())
                .record_trace(true);
            let adversary = || ZeroForger::new(CORRUPTED);
            let expected = agree_fingerprint(&run(&cfg, node, &mut adversary()));
            for workers in WORKER_COUNTS {
                let net = run_over_channel(&cfg, workers, node, &mut adversary());
                let got = agree_fingerprint(&net.run);
                assert_eq!(got, expected, "{topology} seed={seed} channel:{workers}");
            }
            let mesh = run_over_mesh(&cfg, 2, node, &mut adversary()).expect("mesh fabric");
            let got = agree_fingerprint(&mesh.run);
            assert_eq!(got, expected, "{topology} seed={seed} mesh:2");
        }
    }
}

#[test]
fn worker_count_does_not_change_wire_accounting() {
    // Outcomes are covered above; wire bytes must also be schedule-free.
    // Both in-process adapters run at every width: the channel links
    // `run_over_channel` drives, and the endpoint link `run_over` drives
    // over caller-supplied endpoints — the path the benchmark's probes
    // wrap — so what the probes see is what the substrate runs.
    let params = Params::new(N, ALPHA).unwrap();
    let cfg = SimConfig::new(N)
        .seed(5)
        .max_rounds(params.le_round_budget());
    let f = params.max_faults();
    let node = |_: NodeId| LeNode::new(params.clone());
    let adversary = || le_adversary("eager", f);
    let baseline = run_over_channel(&cfg, 1, node, adversary().as_mut());
    let expected = le_fingerprint(&baseline.run);
    for workers in [1, 2, 4, 8] {
        let links = run_over_channel(&cfg, workers, node, adversary().as_mut());
        let endpoints = ftc::net::channel::mesh(N);
        let endpoints = run_over(&cfg, workers, node, adversary().as_mut(), endpoints);
        for (adapter, net) in [("links", links), ("endpoints", endpoints)] {
            let at = format!("{adapter} at {workers} workers");
            assert_eq!(le_fingerprint(&net.run), expected, "{at}");
            assert_eq!(net.net.wire_bytes, baseline.net.wire_bytes, "{at}");
            assert_eq!(net.net.frames_sent, baseline.net.frames_sent, "{at}");
        }
    }
}

#[test]
fn committed_counterexample_replays_identically_across_worker_counts() {
    // `results/le-failure.counterexample.json` is a hunted, ddmin-shrunk
    // schedule under which leader election *fails* at the recorded seed
    // (a single node going silent in the late referee window). Replaying
    // it must reproduce the recorded fingerprint and verdict on the
    // engine and on the channel mesh at every worker count — the hunt
    // subsystem's acceptance property, pinned to a committed artifact.
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/le-failure.counterexample.json"
    ))
    .expect("committed counterexample artifact");
    let artifact = Artifact::parse(&text).expect("artifact parses");
    assert!(
        artifact.hit,
        "the committed artifact is a real counterexample"
    );

    let engine = artifact.replay(Substrate::Engine).expect("engine replay");
    assert!(engine.ok(), "engine replay diverged: {engine:?}");
    assert!(
        !engine.observation.fingerprint.success,
        "the counterexample must still make the protocol fail"
    );
    for workers in WORKER_COUNTS {
        let net = artifact
            .replay(Substrate::Channel(workers))
            .expect("channel replay");
        assert!(
            net.ok(),
            "channel replay diverged at workers={workers}: {net:?}"
        );
        assert_eq!(
            net.observation, engine.observation,
            "channel observation differs from engine at workers={workers}"
        );
    }
}

#[test]
fn tcp_smoke_leader_election_n8() {
    // The acceptance configuration: n = 8, alpha = 0.5 (tiny-n
    // best-effort regime), over real sockets — the mesh at one node per
    // proc, i.e. one TCP connection per edge.
    let n = 8;
    let params = Params::new(n, 0.5).unwrap();
    let cfg = SimConfig::new(n)
        .seed(1)
        .max_rounds(params.le_round_budget());
    let sim = run(&cfg, |_| LeNode::new(params.clone()), &mut NoFaults);
    let net = run_over_mesh(&cfg, 8, |_| LeNode::new(params.clone()), &mut NoFaults)
        .expect("one socket per edge at n=8");
    assert_eq!(le_fingerprint(&net.run), le_fingerprint(&sim));
    let out = LeOutcome::evaluate(&net.run);
    assert!(out.success, "exactly one leader over real sockets");
    assert!(net.net.wire_bytes > 0);
}

#[test]
fn tcp_smoke_agreement_n8_with_crashes() {
    let n = 8;
    let params = Params::new(n, 0.5).unwrap();
    let f = params.max_faults();
    let cfg = SimConfig::new(n)
        .seed(3)
        .max_rounds(params.agreement_round_budget());
    let input = |id: NodeId| id.0 != 0;
    let sim = run(
        &cfg,
        |id| AgreeNode::new(params.clone(), input(id)),
        agree_adversary("eager", f).as_mut(),
    );
    let net = run_over_mesh(
        &cfg,
        8,
        |id| AgreeNode::new(params.clone(), input(id)),
        agree_adversary("eager", f).as_mut(),
    )
    .expect("one socket per edge at n=8");
    assert_eq!(agree_fingerprint(&net.run), agree_fingerprint(&sim));
    let v = net.run.verdict();
    assert!(v.implicit() && v.valid);
}

// ---------------------------------------------------------------------
// Mesh runtime: the multiplexed socket substrate must replay the engine
// (and therefore the channel mesh) bit-for-bit at every process count.
// ---------------------------------------------------------------------

/// Few procs, a count that does not divide n, and one node per proc —
/// where the fabric is the per-edge socket mesh.
const MESH_PROC_COUNTS: [usize; 3] = [2, 5, N as usize];

#[test]
fn leader_election_matches_engine_on_mesh_transport() {
    let params = Params::new(N, ALPHA).unwrap();
    let f = params.max_faults();
    for adversary in ["eager", "random", "targeted"] {
        for seed in [1u64, 99] {
            let cfg = SimConfig::new(N)
                .seed(seed)
                .max_rounds(params.le_round_budget())
                .record_trace(true);
            let sim = run(
                &cfg,
                |_| LeNode::new(params.clone()),
                le_adversary(adversary, f).as_mut(),
            );
            let expected = le_fingerprint(&sim);
            for procs in MESH_PROC_COUNTS {
                let net = run_over_mesh(
                    &cfg,
                    procs,
                    |_| LeNode::new(params.clone()),
                    le_adversary(adversary, f).as_mut(),
                )
                .expect("mesh fabric");
                assert_eq!(
                    le_fingerprint(&net.run),
                    expected,
                    "mesh LE diverged: adversary={adversary} seed={seed} procs={procs}"
                );
                assert_eq!(net.run.metrics.wire_bytes, net.net.wire_bytes);
            }
        }
    }
}

#[test]
fn agreement_matches_engine_on_mesh_transport() {
    let params = Params::new(N, ALPHA).unwrap();
    let f = params.max_faults();
    let input = |id: NodeId| !id.0.is_multiple_of(8);
    for adversary in ["eager", "random", "targeted"] {
        for seed in [2u64, 13] {
            let cfg = SimConfig::new(N)
                .seed(seed)
                .max_rounds(params.agreement_round_budget())
                .record_trace(true);
            let sim = run(
                &cfg,
                |id| AgreeNode::new(params.clone(), input(id)),
                agree_adversary(adversary, f).as_mut(),
            );
            let expected = agree_fingerprint(&sim);
            for procs in MESH_PROC_COUNTS {
                let net = run_over_mesh(
                    &cfg,
                    procs,
                    |id| AgreeNode::new(params.clone(), input(id)),
                    agree_adversary(adversary, f).as_mut(),
                )
                .expect("mesh fabric");
                assert_eq!(
                    agree_fingerprint(&net.run),
                    expected,
                    "mesh agreement diverged: adversary={adversary} seed={seed} procs={procs}"
                );
            }
        }
    }
}

#[test]
fn mesh_wire_accounting_is_procs_invariant_and_matches_the_channel_mesh() {
    // The envelope's dst word is transport overhead, not model traffic:
    // wire bytes and frame counts must agree with the channel runtime
    // exactly, at every process count (including the socketless procs=1).
    let params = Params::new(N, ALPHA).unwrap();
    let cfg = SimConfig::new(N)
        .seed(5)
        .max_rounds(params.le_round_budget());
    let f = params.max_faults();
    let baseline = run_over_channel(
        &cfg,
        1,
        |_| LeNode::new(params.clone()),
        le_adversary("eager", f).as_mut(),
    );
    for procs in [1, 2, 5, 8] {
        let net = run_over_mesh(
            &cfg,
            procs,
            |_| LeNode::new(params.clone()),
            le_adversary("eager", f).as_mut(),
        )
        .expect("mesh fabric");
        assert_eq!(net.net.wire_bytes, baseline.net.wire_bytes, "procs={procs}");
        assert_eq!(net.net.frames_sent, baseline.net.frames_sent);
    }
}

#[test]
fn committed_counterexample_replays_identically_on_the_mesh() {
    // The hunted artifact is a real-wire counterexample on every
    // substrate — including the multiplexed one.
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/le-failure.counterexample.json"
    ))
    .expect("committed counterexample artifact");
    let artifact = Artifact::parse(&text).expect("artifact parses");
    let engine = artifact.replay(Substrate::Engine).expect("engine replay");
    assert!(engine.ok());
    for procs in MESH_PROC_COUNTS {
        let net = artifact
            .replay(Substrate::Mesh(procs))
            .expect("mesh replay");
        assert!(net.ok(), "mesh replay diverged at procs={procs}: {net:?}");
        assert_eq!(
            net.observation, engine.observation,
            "mesh observation differs from engine at procs={procs}"
        );
    }
}

// ---------------------------------------------------------------------
// n = 66: a node's 65 ports sit in a port-cipher carrier of 256, so the
// cycle walks average 3.9 steps and the engine's batched port lanes
// finish out of order — unlike N = 64, where every walk is one step.
// ---------------------------------------------------------------------

const N_LONG_WALKS: u32 = 66;

#[test]
fn leader_election_matches_engine_where_port_walks_are_long() {
    let params = Params::new(N_LONG_WALKS, ALPHA).unwrap();
    let f = params.max_faults();
    let cfg = SimConfig::new(N_LONG_WALKS)
        .seed(7)
        .max_rounds(params.le_round_budget());
    let sim = run(
        &cfg,
        |_| LeNode::new(params.clone()),
        le_adversary("random", f).as_mut(),
    );
    let expected = le_fingerprint(&sim);
    let channel = run_over_channel(
        &cfg,
        4,
        |_| LeNode::new(params.clone()),
        le_adversary("random", f).as_mut(),
    );
    assert_eq!(le_fingerprint(&channel.run), expected, "channel:4");
    let mesh = run_over_mesh(
        &cfg,
        2,
        |_| LeNode::new(params.clone()),
        le_adversary("random", f).as_mut(),
    )
    .expect("mesh fabric");
    assert_eq!(le_fingerprint(&mesh.run), expected, "mesh:2");
}

#[test]
fn agreement_matches_engine_where_port_walks_are_long() {
    let params = Params::new(N_LONG_WALKS, ALPHA).unwrap();
    let f = params.max_faults();
    let input = |id: NodeId| !id.0.is_multiple_of(8);
    let cfg = SimConfig::new(N_LONG_WALKS)
        .seed(13)
        .max_rounds(params.agreement_round_budget());
    let sim = run(
        &cfg,
        |id| AgreeNode::new(params.clone(), input(id)),
        agree_adversary("targeted", f).as_mut(),
    );
    let expected = agree_fingerprint(&sim);
    let channel = run_over_channel(
        &cfg,
        4,
        |id| AgreeNode::new(params.clone(), input(id)),
        agree_adversary("targeted", f).as_mut(),
    );
    assert_eq!(agree_fingerprint(&channel.run), expected, "channel:4");
    let mesh = run_over_mesh(
        &cfg,
        2,
        |id| AgreeNode::new(params.clone(), input(id)),
        agree_adversary("targeted", f).as_mut(),
    )
    .expect("mesh fabric");
    assert_eq!(agree_fingerprint(&mesh.run), expected, "mesh:2");
}

/// Broadcasts for four rounds and folds every receipt — round, local
/// port, payload — into `heard`, so a port a receiver resolved wrongly
/// shows in its final state. Every node walks its degree in round 0 and
/// routes and resolves through its port table from then on.
#[derive(Clone, Debug, PartialEq)]
struct Flood {
    heard: u64,
    rounds: u32,
}

impl Protocol for Flood {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.broadcast(0);
    }
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Incoming<u64>]) {
        for m in inbox {
            let receipt = (u64::from(ctx.round()) << 48) ^ (u64::from(m.port.0) << 24) ^ m.msg;
            self.heard = self.heard.rotate_left(7) ^ receipt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        self.rounds += 1;
        if self.rounds < 4 {
            ctx.broadcast(u64::from(ctx.round()));
        }
    }
    fn is_terminated(&self) -> bool {
        self.rounds >= 4
    }
}

#[test]
fn dense_broadcast_matches_engine_where_every_node_tabulates() {
    let cfg = SimConfig::new(N_LONG_WALKS).seed(7).max_rounds(8);
    let node = |_: NodeId| Flood {
        heard: 0,
        rounds: 0,
    };
    let adversary = || RandomCrash::new(8, 4);
    let sim = run(&cfg, node, &mut adversary());
    assert!(sim.metrics.msgs_delivered > 3 * u64::from(N_LONG_WALKS * (N_LONG_WALKS - 1)));
    assert!(
        sim.crashed_at.iter().any(Option::is_some),
        "the adversary crashes"
    );
    let channel = run_over_channel(&cfg, 4, node, &mut adversary());
    let mesh = run_over_mesh(&cfg, 2, node, &mut adversary()).expect("mesh fabric");
    for (label, net) in [("channel:4", &channel.run), ("mesh:2", &mesh.run)] {
        assert_eq!(net.metrics.msgs_sent, sim.metrics.msgs_sent, "{label}");
        assert_eq!(
            net.metrics.msgs_delivered, sim.metrics.msgs_delivered,
            "{label}"
        );
        assert_eq!(net.metrics.rounds, sim.metrics.rounds, "{label}");
        assert_eq!(net.crashed_at, sim.crashed_at, "{label}");
        assert_eq!(net.states, sim.states, "{label}: a receipt diverged");
    }
}

#[test]
fn mesh_socket_count_is_quadratic_in_procs_not_nodes() {
    // The scaling claim that makes n=1024 feasible: sockets depend on the
    // process count alone. fabric::build itself asserts the opened count;
    // this pins the arithmetic and that big n runs on few sockets.
    use ftc::mesh::fabric::socket_count;
    for procs in [1usize, 2, 4, 8, 16] {
        assert_eq!(socket_count(procs), procs * (procs - 1) / 2);
    }
    // n = 512 over 3 procs: 3 sockets carry the whole cluster.
    let params = Params::new(512, 0.5).unwrap();
    let cfg = SimConfig::new(512)
        .seed(2)
        .max_rounds(params.le_round_budget());
    let net = run_over_mesh(&cfg, 3, |_| LeNode::new(params.clone()), &mut NoFaults)
        .expect("mesh fabric");
    assert!(LeOutcome::evaluate(&net.run).success);
    assert!(net.net.wire_bytes > 0);
}

/// The panic message of `run`, which must panic.
fn panic_of(run: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
        .expect_err("an invalid config ran");
    (payload.downcast_ref::<String>().cloned())
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn every_driver_rejects_an_invalid_config_alike() {
    // Every driver builds a `ControlCore`, which checks the config, and
    // the mesh checks it once more before it opens a socket. The engine
    // used to run both of these: zero rounds, and every edge dead.
    let params = Params::new(N, ALPHA).unwrap();
    let roundless = SimConfig::new(N).seed(1).max_rounds(0);
    let mut edgeless = SimConfig::new(N).seed(1);
    edgeless.edge_failure_prob = 1.5;
    let cases = [
        (roundless, "invalid SimConfig: NoRounds"),
        (
            edgeless,
            "invalid SimConfig: EdgeFailureOutOfRange { p: 1.5 }",
        ),
    ];
    for (cfg, want) in cases {
        for substrate in [Substrate::Engine, Substrate::Channel(2), Substrate::Mesh(2)] {
            let got = panic_of(|| {
                let node = |_: NodeId| LeNode::new(params.clone());
                let _ = substrate.run(&cfg, node, &mut NoFaults, &RunOpts::default());
            });
            assert_eq!(got, want, "{substrate:?}");
        }
    }
}
