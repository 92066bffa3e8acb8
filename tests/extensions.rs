//! Integration tests for the model extensions (beyond the paper's
//! crash-fault model): Byzantine tampering, adaptive adversaries, edge
//! failures, and send caps. Each extension must (a) behave as designed
//! and (b) leave the base model untouched when disabled.

use ftc::prelude::*;

#[test]
fn byzantine_zero_forger_violates_validity_only_with_b_positive() {
    let p = Params::new(256, 0.9).expect("valid");
    // b = 0: clean run, validity holds.
    let cfg = SimConfig::new(256)
        .seed(7)
        .max_rounds(p.agreement_round_budget());
    let mut adv = ZeroForger::new(0);
    let r = run(&cfg, |_| AgreeNode::new(p.clone(), true), &mut adv);
    let v = r.verdict();
    assert!(v.implicit() && v.valid && v.value() == Some(true));

    // b = 1: honest nodes decide a value nobody input.
    let mut violated = 0;
    for seed in 0..6 {
        let cfg = SimConfig::new(256)
            .seed(seed)
            .max_rounds(p.agreement_round_budget());
        let mut adv = ZeroForger::new(1);
        let r = run(&cfg, |_| AgreeNode::new(p.clone(), true), &mut adv);
        let honest_zero = r
            .surviving_states()
            .filter(|(id, _)| !r.faulty.contains(*id))
            .any(|(_, s)| s.decision() == Some(false));
        if honest_zero {
            violated += 1;
        }
    }
    assert!(violated >= 5, "{violated}/6");
}

#[test]
fn byzantine_equivocation_elects_phantom_ranks() {
    let p = Params::new(256, 0.9).expect("valid");
    for seed in 0..5 {
        let cfg = SimConfig::new(256)
            .seed(seed)
            .max_rounds(p.le_round_budget());
        let mut adv = EquivocatingClaimant::new(1);
        let r = run(&cfg, |_| LeNode::new(p.clone()), &mut adv);
        let o = LeOutcome::evaluate(&r);
        if let Some(rank) = o.agreed_leader {
            // If candidates agreed at all, they agreed on a rank that
            // belongs to no real node (the forged near-domain-top rank).
            let owner_exists = r.all_states().any(|(_, s)| s.rank() == Some(rank));
            assert!(!owner_exists, "seed {seed}: honest rank won despite attack");
        }
        assert!(!o.success, "seed {seed}: election survived equivocation");
    }
}

#[test]
fn adaptive_killer_contrast_with_static_budget() {
    let p = Params::new(512, 0.5).expect("valid");
    let budget = p.max_faults();
    let mut static_ok = 0;
    let mut adaptive_ok = 0;
    for seed in 0..6 {
        let cfg = SimConfig::new(512)
            .seed(seed)
            .max_rounds(p.le_round_budget());
        let mut adv = EagerCrash::new(budget);
        if LeOutcome::evaluate(&run(&cfg, |_| LeNode::new(p.clone()), &mut adv)).success {
            static_ok += 1;
        }
        let mut adv = AdaptiveCandidateKiller::new(budget);
        if LeOutcome::evaluate(&run(&cfg, |_| LeNode::new(p.clone()), &mut adv)).success {
            adaptive_ok += 1;
        }
    }
    assert!(static_ok >= 5, "static: {static_ok}/6");
    assert_eq!(adaptive_ok, 0, "adaptive adversary should always win");
}

#[test]
fn mild_edge_failures_are_absorbed_by_referee_redundancy() {
    let p = Params::new(512, 0.5).expect("valid");
    let mut ok = 0;
    for seed in 0..6 {
        let cfg = SimConfig::new(512)
            .seed(seed)
            .max_rounds(p.agreement_round_budget())
            .edge_failure_prob(0.02);
        let mut adv = RandomCrash::new(p.max_faults(), 20);
        let r = run(
            &cfg,
            |id| AgreeNode::new(p.clone(), id.0 % 8 == 0),
            &mut adv,
        );
        let v = r.verdict();
        if v.implicit() && v.valid {
            ok += 1;
        }
    }
    assert!(ok >= 5, "2% dead edges broke agreement: {ok}/6");
}

#[test]
fn extensions_off_reproduce_the_base_model_exactly() {
    // A config with all extension knobs at their defaults must produce
    // bit-identical metrics to an explicitly zeroed one.
    let p = Params::new(256, 0.5).expect("valid");
    let base = SimConfig::new(256)
        .seed(11)
        .max_rounds(p.agreement_round_budget());
    let mut zeroed = base.clone();
    zeroed.edge_failure_prob = 0.0;
    zeroed.send_cap = None;

    let mut a1 = EagerCrash::new(p.max_faults());
    let mut a2 = EagerCrash::new(p.max_faults());
    let r1 = run(
        &base,
        |id| AgreeNode::new(p.clone(), id.0 % 2 == 0),
        &mut a1,
    );
    let r2 = run(
        &zeroed,
        |id| AgreeNode::new(p.clone(), id.0 % 2 == 0),
        &mut a2,
    );
    assert_eq!(r1.metrics.msgs_sent, r2.metrics.msgs_sent);
    assert_eq!(r1.metrics.msgs_delivered, r2.metrics.msgs_delivered);
    assert_eq!(r1.metrics.msgs_lost_edges, 0);
    assert_eq!(r1.metrics.msgs_suppressed, 0);
}

fn fnv1a64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The crash schedules the explicit layer is pinned under, beside the
/// fault-free run: eager and random crashes (the random ones reaching
/// into the announce round), a scripted mix of delivery filters with two
/// crashes in the announce round itself, and D7's crash of `victim` just
/// before it.
fn explicit_adversary<M: Payload>(
    case: usize,
    n: u32,
    seed: u64,
    f: usize,
    announce: u32,
    victim: NodeId,
) -> Box<dyn Adversary<M>> {
    let node = |i: u64| NodeId(((seed * 7 + i * 13) % u64::from(n)) as u32);
    match case {
        0 => Box::new(EagerCrash::new(f)),
        1 => Box::new(RandomCrash::new(f, announce + 1)),
        2 => Box::new(ScriptedCrash::new(
            FaultPlan::new()
                .crash(node(0), 0, DeliveryFilter::KeepFirst(5))
                .crash(node(1), 1, DeliveryFilter::DropAll)
                .crash(node(2), 2, DeliveryFilter::DeliverEachWithProbability(0.5))
                .crash(node(3), announce, DeliveryFilter::KeepFirst(n as usize / 3))
                .crash(
                    node(4),
                    announce,
                    DeliveryFilter::DeliverEachWithProbability(0.3),
                ),
        )),
        _ => Box::new(ScriptedCrash::new(FaultPlan::new().crash(
            victim,
            announce - 1,
            DeliveryFilter::DropAll,
        ))),
    }
}

/// Per-node decisions, `crashed_at` and every `Metrics` field of a run.
fn explicit_run_text<P: Protocol + Decides<Value: std::fmt::Debug>>(r: &RunResult<P>) -> String {
    let decisions: Vec<_> = r.states.iter().map(|s| s.decision()).collect();
    format!("{decisions:?} {:?} {:?}\n", r.crashed_at, r.metrics)
}

#[test]
fn explicit_layer_is_pinned_message_for_message() {
    // The explicit extension of both protocols, over n, alpha, seeds and
    // five crash schedules, against digests recorded before the two
    // wrappers became one generic node. A change to who announces, what
    // an announcement carries or which announcement wins moves them. At
    // n = 8, below the resilience floor, eager crashes leave leader
    // announcers disagreeing, so the rule that picks a winner shows too.
    let (mut le, mut agree) = (String::new(), String::new());
    for (n, alpha) in [(8, 0.25), (64, 1.0), (128, 0.5), (128, 1.0)] {
        let p = Params::new(n, alpha).expect("valid");
        let f = p.max_faults();
        for seed in 0..2 {
            let cfg = SimConfig::new(n).seed(seed);
            // The fault-free run also names each schedule's D7 victim: the
            // elected leader, and the first agreement candidate.
            let le_cfg = cfg.clone().max_rounds(ExplicitLeNode::round_budget(&p));
            let le_node = |_| ExplicitLeNode::new(p.clone());
            let clean = run(&le_cfg, le_node, &mut NoFaults);
            le.push_str(&explicit_run_text(&clean));
            let leader = clean
                .all_states()
                .find(|(_, s)| s.inner().status() == LeStatus::Elected)
                .map_or(NodeId(0), |(id, _)| id);
            let agree_cfg = cfg.max_rounds(ExplicitAgreeNode::round_budget(&p));
            let agree_node =
                |id: NodeId| ExplicitAgreeNode::new(p.clone(), !id.0.is_multiple_of(5));
            let clean = run(&agree_cfg, agree_node, &mut NoFaults);
            agree.push_str(&explicit_run_text(&clean));
            let candidate = clean
                .all_states()
                .find(|(_, s)| s.inner().is_candidate())
                .map_or(NodeId(0), |(id, _)| id);
            for case in 0..4 {
                let announce = p.le_round_budget();
                let mut adv = explicit_adversary(case, n, seed, f, announce, leader);
                le.push_str(&explicit_run_text(&run(&le_cfg, le_node, &mut *adv)));
                let announce = p.agreement_round_budget();
                let mut adv = explicit_adversary(case, n, seed, f, announce, candidate);
                agree.push_str(&explicit_run_text(&run(&agree_cfg, agree_node, &mut *adv)));
            }
        }
    }
    let digests = (fnv1a64(&le), fnv1a64(&agree));
    let expected = (0x9808_9372_00e0_cc80, 0x3da1_29b5_8fc8_a3c7);
    assert_eq!(digests, expected, "explicit LE and agreement digests moved");
}
