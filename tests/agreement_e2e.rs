//! End-to-end agreement tests: Definition 2 across the input × adversary
//! grid, plus the explicit extension.

use ftc::prelude::*;

fn params(n: u32, alpha: f64) -> Params {
    Params::new(n, alpha).expect("valid params")
}

fn run_agree_with(
    p: &Params,
    seed: u64,
    inputs: impl Fn(NodeId) -> bool,
    adv: &mut dyn Adversary<AgreeMsg>,
) -> ftc::sim::engine::RunResult<AgreeNode> {
    let cfg = SimConfig::new(p.n())
        .seed(seed)
        .max_rounds(p.agreement_round_budget());
    run(&cfg, |id| AgreeNode::new(p.clone(), inputs(id)), adv)
}

#[test]
fn input_density_grid_under_targeted_crashes() {
    let p = params(256, 0.5);
    for &(label, stride) in &[("all-zero", 1u32), ("half", 2), ("sparse", 32)] {
        for seed in 0..8 {
            let mut adv = ZeroHolderCrasher::new(p.max_faults());
            let r = run_agree_with(&p, seed, |id| id.0 % stride != 0, &mut adv);
            let v = r.verdict();
            assert!(v.implicit() && v.valid, "{label} seed {seed}: {v:?}");
        }
    }
}

#[test]
fn unanimous_inputs_are_never_overturned() {
    let p = params(256, 0.5);
    for seed in 0..8 {
        let mut adv = RandomCrash::new(p.max_faults(), 20);
        let r = run_agree_with(&p, seed, |_| true, &mut adv);
        let v = r.verdict();
        assert!(v.implicit() && v.valid, "seed {seed}: {v:?}");
        assert_eq!(v.value(), Some(true), "invented a 0 from nowhere");

        let mut adv = RandomCrash::new(p.max_faults(), 20);
        let r = run_agree_with(&p, seed, |_| false, &mut adv);
        let v = r.verdict();
        assert!(v.implicit() && v.valid, "seed {seed}: {v:?}");
        assert_eq!(v.value(), Some(false));
    }
}

#[test]
fn all_ones_network_is_silent_after_registration() {
    let p = params(512, 1.0);
    let r = run_agree_with(&p, 3, |_| true, &mut NoFaults);
    let registration = r.metrics.per_round.first().map_or(0, |m| m.sent);
    assert_eq!(
        r.metrics.msgs_sent, registration,
        "iteration traffic in an all-ones network"
    );
}

#[test]
fn consistency_invariant_across_many_seeds() {
    // Even in (rare) failed runs, we record *which* definition clause
    // broke; consistency violations must be what the lower bound predicts
    // (splits), never validity violations (invented values).
    let p = params(128, 0.5);
    for seed in 0..30 {
        let mut adv = ZeroHolderCrasher::new(p.max_faults());
        let r = run_agree_with(&p, seed, |id| id.0 % 2 == 0, &mut adv);
        let verdict = r.verdict();
        if let Some(v) = verdict.value() {
            assert!(verdict.valid, "seed {seed}: agreed {v} is nobody's input");
        }
    }
}

#[test]
fn explicit_agreement_informs_every_survivor() {
    let p = params(128, 0.5);
    for seed in 0..6 {
        let cfg = SimConfig::new(128)
            .seed(seed)
            .max_rounds(ExplicitAgreeNode::round_budget(&p));
        let mut adv = RandomCrash::new(p.max_faults(), 20);
        let r = run(
            &cfg,
            |id| ExplicitAgreeNode::new(p.clone(), id.0 % 4 != 0),
            &mut adv,
        );
        let v = r.verdict();
        assert!(v.explicit(), "seed {seed}: {v:?}");
        assert_eq!(v.value(), Some(false), "the 0 minority must win");
    }
}

#[test]
fn explicit_agreement_rows_are_judged_with_validity() {
    // FloodSet and explicit agreement report their inputs, so Table I
    // judges them as it judges every other agreement row: one value that
    // every survivor decided, and some node's input.
    for input in [|_: NodeId| true, |id: NodeId| !id.0.is_multiple_of(4)] {
        let cfg = SimConfig::new(64).seed(3).max_rounds(flood_round_budget(8));
        let r = run(&cfg, |id| FloodAgreeNode::new(8, input(id)), &mut NoFaults);
        let v = r.verdict();
        assert!(v.explicit() && v.valid, "FloodSet: {v:?}");

        let p = params(128, 0.5);
        let cfg = SimConfig::new(128)
            .seed(3)
            .max_rounds(ExplicitAgreeNode::round_budget(&p));
        let r = run(
            &cfg,
            |id| ExplicitAgreeNode::new(p.clone(), input(id)),
            &mut NoFaults,
        );
        let v = r.verdict();
        assert!(v.explicit() && v.valid, "explicit agreement: {v:?}");
    }
}

#[test]
fn explicit_leader_election_informs_every_survivor() {
    let p = params(128, 0.5);
    for seed in 0..6 {
        let cfg = SimConfig::new(128)
            .seed(seed)
            .max_rounds(ExplicitLeNode::round_budget(&p));
        let mut adv = RandomCrash::new(p.max_faults(), 20);
        let r = run(&cfg, |_| ExplicitLeNode::new(p.clone()), &mut adv);
        let v = r.verdict();
        assert!(v.explicit(), "seed {seed}: {v:?}");
    }
}

#[test]
fn agreement_beats_leader_election_on_messages() {
    // Section V: agreement is strictly cheaper than electing a leader and
    // adopting its value — the reason the paper gives it its own protocol.
    let p = params(1024, 0.5);
    let mut a1 = EagerCrash::new(p.max_faults());
    let agree = run_agree_with(&p, 9, |id| id.0 % 2 == 0, &mut a1);

    let cfg = SimConfig::new(1024).seed(9).max_rounds(p.le_round_budget());
    let mut a2 = EagerCrash::new(p.max_faults());
    let le = run(&cfg, |_| LeNode::new(p.clone()), &mut a2);

    assert!(
        agree.metrics.msgs_sent * 2 < le.metrics.msgs_sent,
        "agreement {} not well below LE {}",
        agree.metrics.msgs_sent,
        le.metrics.msgs_sent
    );
}

/// The crash schedules of `k2_multi_value_agreement_is_the_binary_protocol`,
/// built afresh for either message type.
fn k2_adversary<M: Payload>(case: usize, seed: u64, f: usize) -> Box<dyn Adversary<M>> {
    let node = |i: u64| NodeId(((seed * 7 + i * 13) % 64) as u32);
    match case {
        0 => Box::new(NoFaults),
        1 => Box::new(EagerCrash::new(f)),
        2 => Box::new(RandomCrash::new(f, 6)),
        _ => Box::new(ScriptedCrash::new(
            FaultPlan::new()
                .crash(node(0), 0, DeliveryFilter::KeepFirst(5))
                .crash(node(1), 1, DeliveryFilter::DropAll)
                .crash(node(2), 1, DeliveryFilter::DeliverEachWithProbability(0.5))
                .crash(node(3), 2, DeliveryFilter::KeepFirst(1))
                .crash(node(4), 3, DeliveryFilter::DeliverEachWithProbability(0.3)),
        )),
    }
}

/// A run's metrics with every bit count zeroed: what
/// `k2_multi_value_agreement_is_the_binary_protocol` compares.
fn without_bits(m: &Metrics) -> Metrics {
    let mut m = m.clone();
    (m.bits_sent, m.max_edge_bits_per_round) = (0, 0);
    m.per_round.iter_mut().for_each(|r| r.bits_sent = 0);
    m
}

#[test]
fn k2_multi_value_agreement_is_the_binary_protocol() {
    // `MultiAgreeNode` at k = 2 with inputs mapped 0/1 must run exactly
    // the binary protocol: the same decisions, messages, rounds and
    // crashes on every seed, per round. Only bits differ: a `Value(0)` is
    // charged 3 bits and a `Zero` 2.
    for alpha in [0.5625, 1.0] {
        let p = params(64, alpha);
        let f = p.max_faults();
        let base = SimConfig::new(64).max_rounds(p.agreement_round_budget());
        let configs = [
            base.clone(),
            base.clone().edge_failure_prob(0.2),
            base.send_cap(45),
        ];
        let inputs: [fn(NodeId) -> bool; 3] = [|_| true, |id| id.0 % 2 == 0, |id| id.0 % 9 != 0];
        for seed in 0..4 {
            for (c, cfg) in configs.iter().enumerate() {
                let cfg = cfg.clone().seed(seed);
                for (i, input) in inputs.iter().enumerate() {
                    for case in 0..4 {
                        let at = format!(
                            "alpha {alpha} seed {seed} config {c} input {i} adversary {case}"
                        );
                        let bin_node = |id| AgreeNode::new(p.clone(), input(id));
                        let bin = run(&cfg, bin_node, &mut *k2_adversary(case, seed, f));
                        let multi_node =
                            |id| MultiAgreeNode::new(p.clone(), 2, u32::from(input(id)));
                        let multi = run(&cfg, multi_node, &mut *k2_adversary(case, seed, f));
                        let bin_decisions: Vec<_> = bin
                            .states
                            .iter()
                            .map(|s| s.decision().map(u32::from))
                            .collect();
                        let multi_decisions: Vec<_> =
                            multi.states.iter().map(|s| s.decision()).collect();
                        assert_eq!(bin_decisions, multi_decisions, "{at}");
                        let (b, m) = (&bin.metrics, &multi.metrics);
                        assert_eq!(without_bits(b), without_bits(m), "{at}");
                        assert_eq!(bin.crashed_at, multi.crashed_at, "{at}");
                    }
                }
            }
        }
    }
}
