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
