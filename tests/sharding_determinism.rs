//! Intra-trial sharding's central contract: `run_sharded` is
//! **bit-identical at any worker count** — splitting one trial's nodes
//! across threads must never leak into the science. The mirror of
//! `par_runner_determinism.rs` one level down: that suite pins
//! trial-level fan-out, this one pins node-level fan-out inside a
//! single trial.
//!
//! Sharding only engages above the engine's serial-fallback threshold
//! (1024 agenda entries), so every network here has n ≥ 1024 — smaller
//! cases would pass vacuously by taking the serial path at every
//! worker count.

use ftc::prelude::*;
use ftc::sim::engine::run_sharded;
use ftc::sim::perm::stream_seed;

/// Full comparable payload of one run: metrics (message/bit/round
/// breakdowns), the crash schedule, per-node terminal states, and the
/// event trace when recorded.
fn le_payload(cfg: &SimConfig, intra_jobs: usize) -> (Metrics, Vec<Option<Round>>, Vec<String>) {
    let p = Params::new(cfg.n, 0.5).expect("valid");
    let mut adv = RandomCrash::new(p.max_faults(), 30);
    let r = run_sharded(cfg, |_| LeNode::new(p.clone()), &mut adv, intra_jobs);
    let states = r
        .states
        .iter()
        .map(|s| format!("{:?}", s.status()))
        .collect();
    (r.metrics, r.crashed_at, states)
}

#[test]
fn le_run_is_intra_jobs_invariant() {
    let p = Params::new(2048, 0.5).expect("valid");
    let cfg = SimConfig::new(2048)
        .seed(0x5A4D)
        .max_rounds(p.le_round_budget());
    let reference = le_payload(&cfg, 1);
    for jobs in [2usize, 8] {
        assert_eq!(
            le_payload(&cfg, jobs),
            reference,
            "intra_jobs={jobs}: sharded run diverges from serial"
        );
    }
}

#[test]
fn traces_are_intra_jobs_invariant() {
    // The trace pins per-event order, not just totals: one send recorded
    // from a different shard interleaving would flip the comparison.
    let p = Params::new(1200, 0.5).expect("valid");
    let cfg = SimConfig::new(1200)
        .seed(77)
        .max_rounds(p.le_round_budget())
        .record_trace(true);
    let run_of = |jobs: usize| {
        let mut adv = EagerCrash::new(p.max_faults());
        let r = run_sharded(&cfg, |_| LeNode::new(p.clone()), &mut adv, jobs);
        (r.metrics, r.trace.expect("trace recorded"))
    };
    let (ref_metrics, ref_trace) = run_of(1);
    for jobs in [2usize, 8] {
        let (m, t) = run_of(jobs);
        assert_eq!(m, ref_metrics, "intra_jobs={jobs}");
        assert_eq!(
            t.events().len(),
            ref_trace.events().len(),
            "intra_jobs={jobs}: trace length diverges"
        );
        assert_eq!(
            format!("{:?}", t.events()),
            format!("{:?}", ref_trace.events()),
            "intra_jobs={jobs}: trace events diverge"
        );
    }
}

#[test]
fn agreement_with_edge_failures_is_intra_jobs_invariant() {
    // Edge fates are sampled lazily per touched edge; a shard probing
    // edges in a different order must still see identical fates, and
    // the delivery accounting must merge identically.
    let p = Params::new(1536, 0.5).expect("valid");
    let cfg = SimConfig::new(1536)
        .seed(0xA6EE)
        .max_rounds(p.agreement_round_budget())
        .edge_failure_prob(0.2);
    let run_of = |jobs: usize| {
        let mut adv = RandomCrash::new(p.max_faults(), 20);
        let r = run_sharded(
            &cfg,
            |id| AgreeNode::new(p.clone(), id.0 % 3 != 0),
            &mut adv,
            jobs,
        );
        let decisions: Vec<_> = r.states.iter().map(|s| s.decision()).collect();
        (r.metrics, r.crashed_at, decisions)
    };
    let reference = run_of(1);
    for jobs in [2usize, 8] {
        assert_eq!(run_of(jobs), reference, "intra_jobs={jobs}");
    }
}

#[test]
fn oversubscribed_and_degenerate_worker_counts_are_safe() {
    // More workers than a round's agenda, and absurd counts, still land
    // on the identical result (excess shards are simply empty).
    let p = Params::new(1024, 0.5).expect("valid");
    let cfg = SimConfig::new(1024).seed(3).max_rounds(p.le_round_budget());
    let reference = le_payload(&cfg, 1);
    for jobs in [3usize, 64, 1025] {
        assert_eq!(le_payload(&cfg, jobs), reference, "intra_jobs={jobs}");
    }
}

/// Randomised configs: send caps, CONGEST budgets, and varying sizes all
/// preserve the invariant. Cases derive from a fixed base seed so a
/// failure reproduces from its printed case index.
#[test]
fn determinism_holds_across_random_configs() {
    use rand::prelude::*;
    use rand::rngs::SmallRng;
    const CASES: u64 = 4;
    for case in 0..CASES {
        let mut gen = SmallRng::seed_from_u64(stream_seed(0x017A_00B5, case));
        let n = gen.random_range(1024..1800u32);
        let mut cfg = SimConfig::new(n)
            .seed(gen.random())
            .max_rounds(gen.random_range(5..60u32));
        if gen.random_bool(0.5) {
            cfg = cfg.send_cap(gen.random_range(1..32u32));
        }
        if gen.random_bool(0.4) {
            cfg = cfg.edge_failure_prob(gen.random_range(0.0..0.4f64));
        }
        let p = Params::new(n, 0.5).expect("valid");
        let horizon = gen.random_range(1..30u32);
        let run_of = |jobs: usize| {
            let mut adv = RandomCrash::new(p.max_faults(), horizon);
            let r = run_sharded(&cfg, |_| LeNode::new(p.clone()), &mut adv, jobs);
            (r.metrics, r.crashed_at)
        };
        let reference = run_of(1);
        for jobs in [2usize, 8] {
            assert_eq!(run_of(jobs), reference, "case {case}, intra_jobs={jobs}");
        }
    }
}
