//! Property-based tests on the protocols and the substrate.
//!
//! Generated fault plans, input vectors, seeds and network sizes; the
//! safety clauses of Definitions 1–2 and the simulator's structural
//! invariants must hold for every generated case.
//!
//! The generator is a self-contained seeded harness (the build environment
//! is fully offline, so `proptest` is unavailable): every case derives from
//! `CASE_SEED_BASE` through the same salted-stream scheme the simulator
//! itself uses, which makes a failing case reproducible by its printed
//! case index alone.

use ftc::prelude::*;
use ftc::sim::adversary::DeliveryFilter;
use ftc::sim::perm::{stream_seed, Perm};
use ftc::sim::ports::PortMap;
use ftc::sim::protocol::Stream;
use rand::prelude::*;

/// Base seed for all generated cases; bump to explore a fresh corpus.
const CASE_SEED_BASE: u64 = 0x5EED_CA5E;

/// Runs `check` on `cases` generated inputs, each with its own derived RNG.
/// Panics with the case index on the first failure so it can be replayed.
fn for_cases(cases: u64, check: impl Fn(u64, &mut SmallRng)) {
    for case in 0..cases {
        let mut rng = SmallRng::seed_from_u64(stream_seed(CASE_SEED_BASE, case));
        check(case, &mut rng);
    }
}

/// A generated crash schedule: up to `max_crashes` distinct nodes, random
/// rounds in `[0, max_round)`, random delivery filters.
fn gen_plan(rng: &mut SmallRng, n: u32, max_crashes: usize, max_round: u32) -> FaultPlan {
    let mut plan = FaultPlan::new();
    let mut used = std::collections::HashSet::new();
    for _ in 0..rng.random_range(0..=max_crashes) {
        let node = NodeId(rng.random_range(0..n));
        if !used.insert(node) {
            continue; // a node crashes at most once
        }
        let filter = match rng.random_range(0..4u8) {
            0 => DeliveryFilter::DeliverAll,
            1 => DeliveryFilter::DropAll,
            2 => DeliveryFilter::KeepFirst(rng.random_range(0..64usize)),
            _ => DeliveryFilter::DeliverEachWithProbability(0.5),
        };
        plan = plan.crash(node, rng.random_range(0..max_round), filter);
    }
    plan
}

/// Agreement safety: for ANY generated fault plan and input vector,
/// decided survivors never disagree and never invent values.
#[test]
fn agreement_safety_under_arbitrary_fault_plans() {
    for_cases(24, |case, rng| {
        let n = 64u32;
        let p = Params::new(n, 0.6).expect("valid");
        let seed = rng.random_range(0..10_000u64);
        let input_stride = rng.random_range(1..8u32);
        let plan = gen_plan(rng, n, 20, 30);
        let mut adv = ScriptedCrash::new(plan);
        let cfg = SimConfig::new(n)
            .seed(seed)
            .max_rounds(p.agreement_round_budget());
        let r = run(
            &cfg,
            |id| AgreeNode::new(p.clone(), id.0 % input_stride != 0),
            &mut adv,
        );
        let verdict = r.verdict();
        // Liveness may legitimately fail under extreme plans; safety never:
        assert!(
            verdict.decisions.len() <= 1,
            "case {case}: split decision: {:?}",
            verdict.decisions
        );
        if let Some(v) = verdict.value() {
            assert!(verdict.valid, "case {case}: agreed {v} is nobody's input");
        }
    });
}

/// Leader-election safety: never two alive ELECTED nodes.
#[test]
fn le_uniqueness_under_arbitrary_fault_plans() {
    for_cases(24, |case, rng| {
        let n = 64u32;
        let p = Params::new(n, 0.6).expect("valid");
        let seed = rng.random_range(0..10_000u64);
        let plan = gen_plan(rng, n, 16, 60);
        let mut adv = ScriptedCrash::new(plan);
        let cfg = SimConfig::new(n).seed(seed).max_rounds(p.le_round_budget());
        let r = run(&cfg, |_| LeNode::new(p.clone()), &mut adv);
        let elected: Vec<_> = r
            .surviving_states()
            .filter(|(_, s)| s.status() == LeStatus::Elected)
            .map(|(id, _)| id)
            .collect();
        assert!(
            elected.len() <= 1,
            "case {case}: two alive leaders: {elected:?}"
        );
    });
}

/// The Feistel permutation is a bijection for arbitrary domain/seed.
#[test]
fn perm_is_bijective() {
    for_cases(32, |case, rng| {
        let domain = rng.random_range(1..5000u64);
        let seed: u64 = rng.random();
        let p = Perm::new(domain, seed);
        let mut seen = vec![false; domain as usize];
        for x in 0..domain {
            let y = p.apply(x);
            assert!(y < domain, "case {case}: image out of domain");
            assert!(!seen[y as usize], "case {case}: collision at {y}");
            seen[y as usize] = true;
            assert_eq!(p.invert(y), x, "case {case}: inverse mismatch");
        }
    });
}

/// Port maps never wire a node to itself and invert consistently.
#[test]
fn portmap_wiring_is_sane() {
    for_cases(32, |case, rng| {
        let n = rng.random_range(2..300u32);
        let node = NodeId(rng.random_range(0..n));
        let seed: u64 = rng.random();
        let pm = PortMap::new(&Topology::Complete.edge_set(n, seed), node);
        for port in 0..n - 1 {
            let peer = pm.peer(Port(port));
            assert!(peer != node, "case {case}: self-wired port {port}");
            assert!(peer.0 < n, "case {case}: peer out of range");
            assert_eq!(pm.port_to(peer), Port(port), "case {case}: not inverse");
        }
    });
}

/// Engine conservation law: delivered + lost == sent; crashes only among
/// the faulty set; determinism of the metrics.
#[test]
fn engine_conservation_and_determinism() {
    for_cases(16, |case, rng| {
        let n = 64u32;
        let p = Params::new(n, 0.6).expect("valid");
        let seed = rng.random_range(0..10_000u64);
        let f = rng.random_range(0..32usize);
        let horizon = rng.random_range(1..20u32);
        let cfg = SimConfig::new(n)
            .seed(seed)
            .max_rounds(p.agreement_round_budget());
        let run_once = || {
            let mut adv = RandomCrash::new(f, horizon);
            run(
                &cfg,
                |id| AgreeNode::new(p.clone(), id.0 % 2 == 0),
                &mut adv,
            )
        };
        let r1 = run_once();
        let r2 = run_once();
        assert_eq!(r1.metrics.msgs_sent, r2.metrics.msgs_sent, "case {case}");
        assert_eq!(r1.metrics.rounds, r2.metrics.rounds, "case {case}");
        assert_eq!(
            r1.metrics.msgs_sent,
            r1.metrics.msgs_delivered + r1.metrics.msgs_lost(),
            "case {case}"
        );
        assert!(r1.metrics.crash_count() <= f, "case {case}");
        for (id, _) in &r1.metrics.crashes {
            assert!(r1.faulty.contains(*id), "case {case}");
        }
    });
}

/// Ranks always land in the documented domain.
#[test]
fn rank_domain_property() {
    for_cases(64, |case, rng| {
        let n = rng.random_range(2..=65_535u32);
        let r = Rank::draw(&mut Stream::seeded(rng.random()), n);
        assert!(r.0 >= 1, "case {case}: rank {} below domain", r.0);
        assert!(
            r.0 <= u64::from(n).pow(4),
            "case {case}: rank {} above n^4",
            r.0
        );
    });
}

/// Summary statistics are internally consistent for arbitrary samples.
#[test]
fn summary_invariants() {
    for_cases(48, |case, rng| {
        let len = rng.random_range(1..200usize);
        let values: Vec<f64> = (0..len).map(|_| rng.random_range(-1e6..1e6f64)).collect();
        let s = Summary::of(&values);
        assert!(s.min <= s.median && s.median <= s.max, "case {case}");
        assert!(s.min <= s.mean && s.mean <= s.max, "case {case}");
        assert!(s.median <= s.p95 && s.p95 <= s.max, "case {case}");
        assert!(s.std_dev >= 0.0, "case {case}");
        assert_eq!(s.count, values.len(), "case {case}");
    });
}
