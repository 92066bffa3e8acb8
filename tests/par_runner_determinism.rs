//! The parallel runner's central contract: per-seed results are
//! **bit-identical at any thread count** — worker scheduling must never
//! leak into the science.
//!
//! Every test compares full [`Metrics`] structures (message counts, bit
//! counts, per-round breakdowns, crash schedules), not just summaries: a
//! single message delivered in a different round would fail the comparison.

use ftc::lab::run_cell;
use ftc::prelude::*;
use ftc::sim::perm::stream_seed;
use rand::prelude::*;

/// Runs one leader-election trial and returns its complete metrics plus
/// the outcome — a pure function of `(cfg, seed)`.
fn le_trial(cfg: &SimConfig) -> (bool, Metrics) {
    let p = Params::new(cfg.n, 0.5).expect("valid");
    let mut adv = RandomCrash::new(p.max_faults(), 30);
    let r = run(cfg, |_| LeNode::new(p.clone()), &mut adv);
    (LeOutcome::evaluate(&r).success, r.metrics)
}

/// `trials` runs of `job` over `jobs` threads, trial `i` on a copy of
/// `cfg` seeded as the runner seeds it.
fn trials_at<T: Send>(
    cfg: &SimConfig,
    trials: u64,
    jobs: usize,
    job: impl Fn(&SimConfig) -> T + Sync,
) -> Vec<TrialOutcome<T>> {
    ParRunner::new(TrialPlan::new(cfg.seed, trials).jobs(jobs))
        .run(|_, seed| job(&cfg.clone().seed(seed)))
        .outcomes
}

/// Sequential reference: the same trials run one after another on the
/// calling thread, seeds derived exactly as the runner derives them.
fn sequential_reference(cfg: &SimConfig, trials: u64) -> Vec<(bool, Metrics)> {
    (0..trials)
        .map(|t| {
            let mut c = cfg.clone();
            c.seed = stream_seed(cfg.seed, t.wrapping_add(1));
            le_trial(&c)
        })
        .collect()
}

#[test]
fn par_runner_matches_sequential_at_every_thread_count() {
    let cfg = SimConfig::new(128).seed(0xDE7).max_rounds(200);
    let trials = 12u64;
    let reference = sequential_reference(&cfg, trials);

    for jobs in [1usize, 2, 8] {
        let batch = ParRunner::new(TrialPlan::new(cfg.seed, trials).jobs(jobs)).run(|_, seed| {
            let mut c = cfg.clone();
            c.seed = seed;
            le_trial(&c)
        });
        assert_eq!(batch.len() as u64, trials);
        for (t, outcome) in batch.outcomes.iter().enumerate() {
            assert_eq!(
                outcome.value, reference[t],
                "jobs={jobs}, trial {t}: parallel metrics diverge from sequential"
            );
        }
    }
}

#[test]
fn par_runner_is_thread_count_invariant_for_agreement() {
    let p = Params::new(96, 0.5).expect("valid");
    let cfg = SimConfig::new(96)
        .seed(77)
        .max_rounds(p.agreement_round_budget());
    let job = |c: &SimConfig| {
        let mut adv = EagerCrash::new(p.max_faults());
        let r = run(c, |id| AgreeNode::new(p.clone(), id.0 % 3 != 0), &mut adv);
        let v = r.verdict();
        (v.implicit() && v.valid, r.metrics)
    };
    let seq: Vec<_> = trials_at(&cfg, 10, 1, job)
        .into_iter()
        .map(|t| (t.trial, t.seed, t.value))
        .collect();
    for jobs in [2usize, 8] {
        let par: Vec<_> = trials_at(&cfg, 10, jobs, job)
            .into_iter()
            .map(|t| (t.trial, t.seed, t.value))
            .collect();
        assert_eq!(seq, par, "jobs={jobs}");
    }
}

/// Property test: random `SimConfig`s (size, seed, round budget, CONGEST
/// bits, send caps, edge failures) all preserve the invariant. Cases
/// derive from a fixed base seed so a failure is reproducible from its
/// printed case index.
#[test]
fn determinism_holds_across_random_configs() {
    const CASES: u64 = 6;
    for case in 0..CASES {
        let mut gen = SmallRng::seed_from_u64(stream_seed(0x00C0_FFEE, case));
        // Params needs alpha >= log2^2(n)/n, so n floors at 128 for 0.5.
        let n = gen.random_range(128..256u32);
        let mut cfg = SimConfig::new(n)
            .seed(gen.random())
            .max_rounds(gen.random_range(5..120u32));
        if gen.random_bool(0.5) {
            cfg = cfg.send_cap(gen.random_range(1..32u32));
        }
        if gen.random_bool(0.3) {
            cfg = cfg.edge_failure_prob(gen.random_range(0.0..0.4f64));
        }
        let p = Params::new(n, 0.5).expect("valid");
        let horizon = gen.random_range(1..40u32);
        let job = move |c: &SimConfig| {
            let mut adv = RandomCrash::new(p.max_faults(), horizon);
            run(c, |_| LeNode::new(p.clone()), &mut adv).metrics
        };
        let trials = gen.random_range(1..8u64);
        let seq = trials_at(&cfg, trials, 1, &job);
        let par = trials_at(&cfg, trials, 4, &job);
        assert_eq!(seq.len(), par.len(), "case {case}");
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.trial, b.trial, "case {case}");
            assert_eq!(a.seed, b.seed, "case {case}");
            assert_eq!(a.value, b.value, "case {case}: metrics diverge");
        }
    }
}

/// The per-cell histograms `run_cell` stores (messages and rounds per
/// trial) are the same at every thread budget.
#[test]
fn aggregates_are_thread_count_invariant() {
    let cell = CellSpec::new(Workload::Le { adv: Adv::Eager }, 128, 0.5, 5, 16);
    let hists = |jobs: usize| {
        let c = run_cell(&cell, jobs, Substrate::Engine).expect("the cell runs");
        (c.msgs_hist, c.rounds_hist)
    };
    let (msgs, rounds) = hists(1);
    for jobs in [2usize, 8] {
        assert_eq!((msgs.clone(), rounds.clone()), hists(jobs), "jobs={jobs}");
    }
    assert_eq!(msgs.count(), 16);
    assert!(msgs.mean().unwrap() > 0.0);
}
