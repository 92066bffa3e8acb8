//! End-to-end leader-election tests across the (n, α) × adversary grid.
//!
//! These are the Definition-1 acceptance tests of the reproduction: the
//! implicit leader election must elect exactly one leader, never a
//! crashed node, under every crash schedule, with high probability.

use ftc::prelude::*;

fn params(n: u32, alpha: f64) -> Params {
    Params::new(n, alpha).expect("valid params")
}

fn run_le_with(
    p: &Params,
    seed: u64,
    adv: &mut dyn Adversary<LeMsg>,
) -> ftc::sim::engine::RunResult<LeNode> {
    let cfg = SimConfig::new(p.n())
        .seed(seed)
        .max_rounds(p.le_round_budget());
    run(&cfg, |_| LeNode::new(p.clone()), adv)
}

#[test]
fn grid_of_sizes_and_alphas_under_random_crashes() {
    // n = 64 is below the α = 0.5 resilience limit (log²n/n = 0.56), so
    // the grid starts at 128.
    for &n in &[128u32, 256, 512] {
        for &alpha in &[1.0, 0.5] {
            let p = params(n, alpha);
            let mut ok = 0;
            let trials = 8;
            for seed in 0..trials {
                let mut adv = RandomCrash::new(p.max_faults(), 40);
                let r = run_le_with(&p, seed, &mut adv);
                if LeOutcome::evaluate(&r).success {
                    ok += 1;
                }
            }
            assert!(
                ok >= trials - 1,
                "n={n} alpha={alpha}: only {ok}/{trials} successes"
            );
        }
    }
}

#[test]
fn near_maximum_resilience() {
    // alpha close to the paper's limit log^2 n / n: n = 256 allows
    // alpha >= 0.25; run at exactly the limit.
    let n = 256u32;
    let alpha = Params::min_alpha(n);
    let p = params(n, alpha);
    let mut ok = 0;
    let trials = 6;
    for seed in 0..trials {
        let mut adv = EagerCrash::new(p.max_faults());
        let r = run_le_with(&p, seed, &mut adv);
        if LeOutcome::evaluate(&r).success {
            ok += 1;
        }
    }
    // At the resilience limit only ~log^2 n nodes survive; allow one miss.
    assert!(ok >= trials - 2, "only {ok}/{trials} at alpha={alpha}");
}

#[test]
fn unique_leader_invariant_across_many_seeds() {
    let p = params(128, 0.5);
    for seed in 0..30 {
        let mut adv = MinRankCrasher::new(p.max_faults());
        let r = run_le_with(&p, seed, &mut adv);
        // Regardless of success, never MORE than one alive elected node.
        let elected_alive = r
            .surviving_states()
            .filter(|(_, s)| s.status() == LeStatus::Elected)
            .count();
        assert!(elected_alive <= 1, "seed {seed}: {elected_alive} leaders");
    }
}

#[test]
fn elected_rank_matches_a_real_candidate() {
    let p = params(128, 0.5);
    for seed in 0..10 {
        let mut adv = RandomCrash::new(64, 40);
        let r = run_le_with(&p, seed, &mut adv);
        let o = LeOutcome::evaluate(&r);
        if let Some(leader_rank) = o.agreed_leader {
            // The agreed rank must be the rank of some candidate node.
            assert!(
                r.all_states().any(|(_, s)| s.rank() == Some(leader_rank)),
                "seed {seed}: agreed rank {leader_rank} belongs to nobody"
            );
        }
    }
}

#[test]
fn deterministic_replay_of_full_protocol() {
    let p = params(128, 0.5);
    let mut a1 = RandomCrash::new(64, 30);
    let mut a2 = RandomCrash::new(64, 30);
    let r1 = run_le_with(&p, 777, &mut a1);
    let r2 = run_le_with(&p, 777, &mut a2);
    assert_eq!(r1.metrics.msgs_sent, r2.metrics.msgs_sent);
    assert_eq!(r1.metrics.rounds, r2.metrics.rounds);
    assert_eq!(r1.crashed_at, r2.crashed_at);
    let o1 = LeOutcome::evaluate(&r1);
    let o2 = LeOutcome::evaluate(&r2);
    assert_eq!(o1.agreed_leader, o2.agreed_leader);
    assert_eq!(o1.leader_node, o2.leader_node);
}

#[test]
fn message_cost_tracks_alpha_budget() {
    // Halving alpha must not reduce the message cost (the 1/alpha^2.5
    // factor) — a sanity check on the resilience dial.
    let n = 512u32;
    let cheap = {
        let p = params(n, 1.0);
        let r = run_le_with(&p, 5, &mut NoFaults);
        r.metrics.msgs_sent
    };
    let dear = {
        let p = params(n, 0.25);
        let mut adv = EagerCrash::new(p.max_faults());
        let r = run_le_with(&p, 5, &mut adv);
        r.metrics.msgs_sent
    };
    assert!(
        dear > cheap,
        "alpha=0.25 cost {dear} not above alpha=1.0 cost {cheap}"
    );
}

#[test]
fn fault_free_leader_is_minimum_surviving_candidate_rank() {
    // With no crashes the protocol's converged rank is deterministic-ish:
    // it must be *some* candidate's rank and all candidates agree on it.
    let p = params(128, 1.0);
    for seed in 0..10 {
        let r = run_le_with(&p, seed, &mut NoFaults);
        let o = LeOutcome::evaluate(&r);
        assert!(o.success, "seed {seed}: {o:?}");
        let beliefs: Vec<_> = r
            .surviving_states()
            .filter(|(_, s)| s.is_candidate())
            .map(|(_, s)| s.leader_belief())
            .collect();
        assert!(beliefs.iter().all(|b| *b == Some(o.agreed_leader.unwrap())));
    }
}

#[test]
fn two_nodes_are_refused_not_elected_twice() {
    // Both nodes are candidates and each one's only referee is the other:
    // the pair shares no referee (Lemma 3) and every run used to elect
    // two leaders. Agreement needs no shared referee to stay safe.
    let p = params(2, 1.0);
    let run = |proto: ProtoKind| {
        let cfg = SimConfig::new(2).max_rounds(proto.round_budget(&p));
        let schedule = Schedule::Named(Adv::None);
        proto.run(
            &p,
            &cfg,
            0.5,
            schedule,
            Substrate::Engine,
            &RunOpts::default(),
        )
    };
    let err = run(ProtoKind::Le).unwrap_err();
    assert!(err.contains("n >= 3") && err.contains("Lemma 3"), "{err}");
    assert!(
        run(ProtoKind::Agree)
            .unwrap()
            .observation
            .fingerprint
            .success
    );
}
