//! Exhaustive small-network model checking.
//!
//! Property tests sample the schedule space; here we *enumerate* it for a
//! small network: every (node × crash-round × delivery-filter) single-crash
//! schedule, plus a dense sample of two-crash schedules, against both
//! protocols. Safety (Definitions 1–2) must hold in every single run.

use ftc::prelude::*;
use ftc::sim::adversary::DeliveryFilter;

const N: u32 = 32;
const ALPHA: f64 = 0.8;

fn filters() -> Vec<DeliveryFilter> {
    vec![
        DeliveryFilter::DropAll,
        DeliveryFilter::KeepFirst(1),
        DeliveryFilter::DeliverAll,
    ]
}

#[test]
fn exhaustive_single_crash_agreement_safety() {
    let p = Params::new(N, ALPHA).expect("valid");
    let mut runs = 0u32;
    for node in 0..N {
        for round in 0..8u32 {
            for filter in filters() {
                let plan = FaultPlan::new().crash(NodeId(node), round, filter);
                let mut adv = ScriptedCrash::new(plan);
                let cfg = SimConfig::new(N)
                    .seed(u64::from(node) * 100 + u64::from(round))
                    .max_rounds(p.agreement_round_budget());
                let r = run(
                    &cfg,
                    |id| AgreeNode::new(p.clone(), id.0 % 2 == 0),
                    &mut adv,
                );
                let v = r.verdict();
                assert!(
                    v.decisions.len() <= 1,
                    "split under crash(node {node}, round {round}): {:?}",
                    v.decisions
                );
                if v.value().is_some() {
                    assert!(v.valid, "invalid value under crash({node},{round})");
                }
                runs += 1;
            }
        }
    }
    assert_eq!(runs, N * 8 * 3);
}

#[test]
fn exhaustive_single_crash_le_uniqueness() {
    let p = Params::new(N, ALPHA).expect("valid");
    for node in 0..N {
        for round in (0..24u32).step_by(3) {
            let plan = FaultPlan::new().crash(NodeId(node), round, DeliveryFilter::KeepFirst(1));
            let mut adv = ScriptedCrash::new(plan);
            let cfg = SimConfig::new(N)
                .seed(u64::from(node) ^ (u64::from(round) << 8))
                .max_rounds(p.le_round_budget());
            let r = run(&cfg, |_| LeNode::new(p.clone()), &mut adv);
            let elected = r
                .surviving_states()
                .filter(|(_, s)| s.status() == LeStatus::Elected)
                .count();
            assert!(
                elected <= 1,
                "{elected} alive leaders under crash(node {node}, round {round})"
            );
        }
    }
}

#[test]
fn dense_two_crash_agreement_safety() {
    let p = Params::new(N, ALPHA).expect("valid");
    // All node pairs, staggered rounds, the nastiest filter.
    for a in 0..N {
        for b in (a + 1..N).step_by(5) {
            let plan = FaultPlan::new()
                .crash(NodeId(a), 1, DeliveryFilter::KeepFirst(1))
                .crash(NodeId(b), 3, DeliveryFilter::KeepFirst(1));
            let mut adv = ScriptedCrash::new(plan);
            let cfg = SimConfig::new(N)
                .seed(u64::from(a) << 16 | u64::from(b))
                .max_rounds(p.agreement_round_budget());
            let r = run(
                &cfg,
                |id| AgreeNode::new(p.clone(), id.0 % 4 == 0),
                &mut adv,
            );
            let v = r.verdict();
            assert!(
                v.decisions.len() <= 1,
                "split under crashes({a},{b}): {:?}",
                v.decisions
            );
        }
    }
}
