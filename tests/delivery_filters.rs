//! `DeliveryFilter` edge cases: the sim engine, the `ftc-net` channel
//! runtime, and the `ftc-mesh` socket runtime must agree on *exactly
//! which frames land* when a node crashes mid-round — including the
//! degenerate filters (deliver nothing, filter covering every port,
//! probabilistic partial delivery). The mesh runs both multiplexed
//! (3 procs) and at one node per proc, where every edge is its own socket.
//!
//! The per-message ground truth is the execution trace: one event per
//! send, flagged with whether the crash filter let it through. Equality of
//! full traces across substrates is a strictly stronger check than the
//! metric equality `tests/net_equivalence.rs` asserts.

use ftc::prelude::*;

const N: u32 = 16;
const SEED: u64 = 2026;

fn traced_cfg(params: &Params, seed: u64) -> SimConfig {
    SimConfig::new(N)
        .seed(seed)
        .max_rounds(params.le_round_budget())
        .record_trace(true)
}

/// Runs the LE protocol under `plan` on every substrate, engine first:
/// the channel runtime, the multiplexed mesh, and the mesh at one node per
/// proc (one socket per edge).
fn run_all(plan: &FaultPlan, seed: u64) -> Vec<RunResult<LeNode>> {
    let params = Params::new(N, 0.5).unwrap();
    let cfg = traced_cfg(&params, seed);
    [
        Substrate::Engine,
        Substrate::Channel(3),
        Substrate::Mesh(3),
        Substrate::Mesh(N as usize),
    ]
    .into_iter()
    .map(|substrate| {
        let mut adv = ScriptedCrash::new(plan.clone());
        let factory = |_| LeNode::new(params.clone());
        substrate
            .run(&cfg, factory, &mut adv, &RunOpts::default())
            .unwrap_or_else(|e| panic!("{substrate:?}: {e}"))
            .run
    })
    .collect()
}

/// Asserts every substrate in `runs` (engine first) agrees with the
/// engine frame-for-frame.
fn assert_all_agree(runs: &[RunResult<LeNode>]) {
    for r in &runs[1..] {
        assert_frames_agree(&runs[0], r);
    }
}

/// Asserts the two substrates agree frame-for-frame: same sends, same
/// delivery verdicts, in the same order — plus identical accounting.
fn assert_frames_agree(engine: &RunResult<LeNode>, channel: &RunResult<LeNode>) {
    let et = engine.trace.as_ref().expect("engine trace");
    let ct = channel.trace.as_ref().expect("channel trace");
    assert_eq!(et.events(), ct.events(), "frame-level divergence");
    assert_eq!(engine.metrics.msgs_sent, channel.metrics.msgs_sent);
    assert_eq!(
        engine.metrics.msgs_delivered,
        channel.metrics.msgs_delivered
    );
    assert_eq!(engine.metrics.crashes, channel.metrics.crashes);
}

/// Frames the crashed node sent in its crash round, split into
/// (delivered, dropped) destination lists.
fn crash_round_frames(r: &RunResult<LeNode>, node: NodeId, round: Round) -> (Vec<u32>, Vec<u32>) {
    let trace = r.trace.as_ref().unwrap();
    let mut delivered = Vec::new();
    let mut dropped = Vec::new();
    for ev in trace.round_events(round).filter(|e| e.src == node) {
        if ev.delivered {
            delivered.push(ev.dst.0);
        } else {
            dropped.push(ev.dst.0);
        }
    }
    (delivered, dropped)
}

#[test]
fn empty_filters_deliver_no_crash_round_frames() {
    // KeepFirst(0) and an empty KeepToDestinations are both "crash before
    // anything escapes": every crash-round frame must be dropped, on both
    // substrates, identically.
    for filter in [
        DeliveryFilter::KeepFirst(0),
        DeliveryFilter::KeepToDestinations(Vec::new()),
    ] {
        let plan = FaultPlan::new().crash(NodeId(1), 0, filter.clone());
        let runs = run_all(&plan, SEED);
        assert_all_agree(&runs);
        for r in &runs {
            let (delivered, _) = crash_round_frames(r, NodeId(1), 0);
            assert!(
                delivered.is_empty(),
                "{filter:?} leaked frames to {delivered:?}"
            );
            // A crashed node never produces frames after its crash round.
            let trace = r.trace.as_ref().unwrap();
            assert!(
                trace
                    .events()
                    .iter()
                    .all(|e| e.src != NodeId(1) || e.round == 0),
                "crashed node sent after its crash round"
            );
            assert_eq!(r.crashed_at[1], Some(0));
        }
    }
}

#[test]
fn filter_covering_all_ports_delivers_everything_then_silence() {
    // A KeepToDestinations filter listing every node cannot drop anything:
    // the crash round behaves like DeliverAll, and the node is silent
    // afterwards.
    let everyone: Vec<NodeId> = (0..N).map(NodeId).collect();
    let plan = FaultPlan::new().crash(NodeId(2), 1, DeliveryFilter::KeepToDestinations(everyone));
    let all = FaultPlan::new().crash(NodeId(2), 1, DeliveryFilter::DeliverAll);
    let runs = run_all(&plan, SEED);
    assert_all_agree(&runs);
    let reference = run_all(&all, SEED);
    for r in &runs {
        let (delivered, dropped) = crash_round_frames(r, NodeId(2), 1);
        assert!(dropped.is_empty(), "all-ports filter dropped {dropped:?}");
        let (want, _) = crash_round_frames(&reference[0], NodeId(2), 1);
        assert_eq!(delivered, want, "all-ports filter != DeliverAll");
    }
}

#[test]
fn partial_delivery_mid_round_is_bit_identical_across_substrates() {
    // DeliverEachWithProbability tears the node down mid-round: some
    // frames land, some don't, decided by the engine's filter stream. The
    // channel runtime must reproduce the exact same delivered/dropped
    // split — this is the PR-3 bit-equivalence guarantee at its sharpest.
    for seed in [SEED, SEED + 1, SEED + 2] {
        let plan = FaultPlan::new()
            .crash(
                NodeId(3),
                0,
                DeliveryFilter::DeliverEachWithProbability(0.5),
            )
            .crash(NodeId(7), 1, DeliveryFilter::KeepFirst(1));
        let runs = run_all(&plan, seed);
        assert_all_agree(&runs);
        // KeepFirst(1) keeps at most one frame.
        for r in &runs {
            let (delivered, _) = crash_round_frames(r, NodeId(7), 1);
            assert!(delivered.len() <= 1, "KeepFirst(1) kept {delivered:?}");
        }
        // Every delivered frame corresponds to a send: delivered ⊆ sent.
        let trace = runs[0].trace.as_ref().unwrap();
        let sends = trace.round_events(0).filter(|e| e.src == NodeId(3)).count();
        let landed = trace
            .round_events(0)
            .filter(|e| e.src == NodeId(3) && e.delivered)
            .count();
        assert!(landed <= sends);
    }
}

#[test]
fn delivery_filter_json_round_trips_every_variant() {
    // The artifact pipeline serialises filters; spot-check every variant
    // (including the edge-case shapes above) through the JSON codec.
    let filters = [
        DeliveryFilter::DeliverAll,
        DeliveryFilter::DropAll,
        DeliveryFilter::KeepFirst(0),
        DeliveryFilter::KeepFirst(3),
        DeliveryFilter::DeliverEachWithProbability(0.5),
        DeliveryFilter::KeepToDestinations(Vec::new()),
        DeliveryFilter::KeepToDestinations((0..N).map(NodeId).collect()),
    ];
    for f in filters {
        let json = f.to_json().render();
        let back = DeliveryFilter::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, f, "round-trip changed {json}");
    }
}
