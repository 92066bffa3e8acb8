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
