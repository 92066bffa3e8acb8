//! The paper's worst-case crash schedules, as concrete adversaries.
//!
//! Section IV-A's analysis is driven by the schedule "the minimum-ID
//! candidate crashes in each iteration, just as it broadcasts": the
//! protocol then needs a full `Θ(log n/α)` iterations. [`MinRankCrasher`]
//! implements exactly that against the leader-election messages.
//! Section V-A's analog — "the single node with value 0 crashes in each
//! iteration", making the 0 propagate maximally slowly — is
//! [`ZeroHolderCrasher`].
//!
//! Both are *static* adversaries in the paper's sense: the faulty set is
//! fixed before execution; only the crash *timing* adapts (which the model
//! explicitly allows).

use rand::rngs::SmallRng;

use ftc_sim::adversary::{Adversary, AdversaryView, CrashDirective, DeliveryFilter, FaultySet};
use ftc_sim::ids::NodeId;

use crate::messages::{AgreeMsg, LeMsg};
use crate::rank::Rank;

/// Crashes, each round, the faulty candidate that is currently
/// *self-proposing* the smallest rank — i.e. repeatedly assassinates the
/// would-be leader mid-claim, delivering only half of its claim messages
/// to maximise disagreement.
#[derive(Clone, Debug)]
pub struct MinRankCrasher {
    /// Size of the (random) faulty set.
    pub f: usize,
    /// Maximum assassinations per round (paper intuition: one per
    /// iteration).
    pub per_round: usize,
}

impl MinRankCrasher {
    /// `f` random faulty nodes; one assassination per round.
    pub fn new(f: usize) -> Self {
        MinRankCrasher { f, per_round: 1 }
    }
}

impl Adversary<LeMsg> for MinRankCrasher {
    fn faulty_set(&mut self, n: u32, rng: &mut SmallRng) -> FaultySet {
        FaultySet::random(n, self.f, rng)
    }

    fn on_round(
        &mut self,
        view: &AdversaryView<'_, LeMsg>,
        _rng: &mut SmallRng,
    ) -> Vec<CrashDirective> {
        // Find crashable nodes currently sending a self-proposal (a claim
        // or an initial self-min proposal) and snipe the smallest.
        let mut claimants: Vec<(Rank, NodeId, usize)> = view
            .crashable()
            .filter_map(|node| {
                let out = view.outgoing_of(node);
                out.iter()
                    .filter_map(|e| match e.msg {
                        LeMsg::Propose { id, value } if id == value => Some(value),
                        LeMsg::Register { rank } => Some(rank),
                        _ => None,
                    })
                    .min()
                    .map(|r| (r, node, out.len()))
            })
            .collect();
        claimants.sort();
        claimants
            .into_iter()
            .take(self.per_round)
            .map(|(_, node, out_len)| CrashDirective {
                node,
                // Deliver only the first half of the claim: some referees
                // hear it, some do not — the paper's split-view scenario.
                filter: DeliveryFilter::KeepFirst(out_len / 2),
            })
            .collect()
    }
}

/// Crashes, each round, one faulty node that is currently forwarding a
/// `0`, letting only a single copy through — the slowest admissible
/// propagation of the decisive value.
#[derive(Clone, Debug)]
pub struct ZeroHolderCrasher {
    /// Size of the (random) faulty set.
    pub f: usize,
}

impl ZeroHolderCrasher {
    /// `f` random faulty nodes; one crash per round.
    pub fn new(f: usize) -> Self {
        ZeroHolderCrasher { f }
    }
}

impl Adversary<AgreeMsg> for ZeroHolderCrasher {
    fn faulty_set(&mut self, n: u32, rng: &mut SmallRng) -> FaultySet {
        FaultySet::random(n, self.f, rng)
    }

    fn on_round(
        &mut self,
        view: &AdversaryView<'_, AgreeMsg>,
        _rng: &mut SmallRng,
    ) -> Vec<CrashDirective> {
        view.crashable()
            .find(|&node| {
                view.outgoing_of(node)
                    .iter()
                    .any(|e| matches!(e.msg, AgreeMsg::Zero))
            })
            .map(|node| CrashDirective {
                node,
                filter: DeliveryFilter::KeepFirst(1),
            })
            .into_iter()
            .collect()
    }
}

/// An **adaptive** adversary — deliberately *outside* the paper's model.
///
/// The paper assumes a static adversary: the faulty set is fixed before
/// the run, so it cannot know which nodes will flip the candidate coin.
/// This adversary cheats exactly there: it watches round-0 traffic,
/// identifies the nodes that just became candidates (they register with
/// referees), and crashes them before their registrations leave — up to
/// a budget of `f` crashes. Because the committee has only `Θ(log n/α)`
/// members while the budget is `Θ(n)`, it wipes the committee out and
/// the election fails — the experiment (E11) that motivates the paper's
/// static-adversary assumption and connects to the adaptive-adversary
/// line of work (Bar-Joseph & Ben-Or; Hajiaghayi et al.).
///
/// It satisfies the [`Adversary`] interface by declaring *every* node
/// potentially faulty, which is precisely what "adaptive" means; do not
/// use it to evaluate the paper's guarantees.
#[derive(Clone, Debug)]
pub struct AdaptiveCandidateKiller {
    /// Total crash budget.
    pub budget: usize,
    crashed: usize,
}

impl AdaptiveCandidateKiller {
    /// An adaptive adversary allowed `budget` crashes.
    pub fn new(budget: usize) -> Self {
        AdaptiveCandidateKiller { budget, crashed: 0 }
    }
}

impl Adversary<LeMsg> for AdaptiveCandidateKiller {
    fn faulty_set(&mut self, n: u32, _rng: &mut SmallRng) -> FaultySet {
        // Adaptivity = the faulty set is unconstrained a priori.
        FaultySet::from_nodes(n, (0..n).map(NodeId))
    }

    fn on_round(
        &mut self,
        view: &AdversaryView<'_, LeMsg>,
        _rng: &mut SmallRng,
    ) -> Vec<CrashDirective> {
        let mut out = Vec::new();
        for node in view.crashable() {
            if self.crashed >= self.budget {
                break;
            }
            let registering = view
                .outgoing_of(node)
                .iter()
                .any(|e| matches!(e.msg, LeMsg::Register { .. } | LeMsg::Propose { .. }));
            if registering {
                self.crashed += 1;
                out.push(CrashDirective {
                    node,
                    filter: DeliveryFilter::DropAll,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agreement::AgreeNode;
    use crate::leader_election::{LeNode, LeOutcome};
    use crate::params::Params;
    use ftc_sim::prelude::*;

    #[test]
    fn le_survives_min_rank_assassin() {
        let params = Params::new(256, 0.5).unwrap();
        for seed in 0..10 {
            let cfg = SimConfig::new(256)
                .seed(seed)
                .max_rounds(params.le_round_budget());
            let mut adv = MinRankCrasher::new(128);
            let result = run(&cfg, |_| LeNode::new(params.clone()), &mut adv);
            let o = LeOutcome::evaluate(&result);
            assert!(o.success, "seed {seed}: {o:?}");
        }
    }

    #[test]
    fn assassin_costs_extra_rounds_but_not_correctness() {
        let params = Params::new(256, 0.5).unwrap();
        let cfg = SimConfig::new(256)
            .seed(3)
            .max_rounds(params.le_round_budget());
        let mut benign_rounds = 0u64;
        let mut attacked_rounds = 0u64;
        for seed in 0..5 {
            let c = cfg.clone().seed(seed);
            let r1 = run(&c, |_| LeNode::new(params.clone()), &mut NoFaults);
            benign_rounds += u64::from(r1.metrics.rounds);
            let mut adv = MinRankCrasher::new(128);
            let r2 = run(&c, |_| LeNode::new(params.clone()), &mut adv);
            attacked_rounds += u64::from(r2.metrics.rounds);
            assert!(LeOutcome::evaluate(&r2).success, "seed {seed}");
        }
        assert!(
            attacked_rounds >= benign_rounds,
            "assassin should not speed things up: {attacked_rounds} vs {benign_rounds}"
        );
    }

    #[test]
    fn agreement_survives_zero_holder_crasher() {
        let params = Params::new(256, 0.5).unwrap();
        for seed in 0..10 {
            let cfg = SimConfig::new(256)
                .seed(seed)
                .max_rounds(params.agreement_round_budget());
            let mut adv = ZeroHolderCrasher::new(128);
            let result = run(
                &cfg,
                |id| AgreeNode::new(params.clone(), id.0 >= 4),
                &mut adv,
            );
            let v = result.verdict();
            assert!(v.implicit() && v.valid, "seed {seed}: {v:?}");
        }
    }

    #[test]
    fn adaptive_killer_defeats_the_protocol() {
        // E11: with an adaptive adversary and a linear crash budget, the
        // committee is annihilated and the election must fail — the
        // protocol's guarantees are for *static* adversaries only.
        let params = Params::new(256, 0.5).unwrap();
        let mut failures = 0;
        for seed in 0..10 {
            let cfg = SimConfig::new(256)
                .seed(seed)
                .max_rounds(params.le_round_budget());
            let mut adv = AdaptiveCandidateKiller::new(128);
            let result = run(&cfg, |_| LeNode::new(params.clone()), &mut adv);
            if !LeOutcome::evaluate(&result).success {
                failures += 1;
            }
        }
        assert!(
            failures >= 9,
            "adaptive adversary failed to win: {failures}/10"
        );
    }

    #[test]
    fn adversaries_respect_fault_budget() {
        let params = Params::new(128, 0.75).unwrap();
        let cfg = SimConfig::new(128)
            .seed(1)
            .max_rounds(params.le_round_budget());
        let mut adv = MinRankCrasher::new(32);
        let result = run(&cfg, |_| LeNode::new(params.clone()), &mut adv);
        assert!(result.metrics.crash_count() <= 32);
        assert!(result
            .metrics
            .crashes
            .iter()
            .all(|(id, _)| result.faulty.contains(*id)));
    }
}
