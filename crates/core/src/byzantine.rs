//! Byzantine attack strategies — the paper's open question 3, probed.
//!
//! The paper closes with: *"whether a sub-linear message bound agreement
//! protocol is possible in the presence of Byzantine node failure"* is
//! open. These adversaries make the gap concrete: they upgrade crash
//! faults to Byzantine behaviour (via [`ftc_sim::adversary::Adversary::tamper`])
//! and demonstrate that the paper's crash-fault protocols offer **no**
//! Byzantine tolerance — a single corrupted node suffices:
//!
//! * [`ZeroForger`] injects a forged `0` into an all-ones network; honest
//!   candidates dutifully decide 0, violating validity.
//! * [`EquivocatingClaimant`] forges two different gigantic leadership
//!   claims towards two halves of the referee fabric; honest candidates
//!   settle on ranks that belong to no real node (and possibly on two
//!   different ones), destroying the election.
//!
//! Experiment E12 (`fig_byzantine`) quantifies both.

use rand::prelude::*;
use rand::rngs::SmallRng;

use ftc_sim::adversary::{Adversary, AdversaryView, CrashDirective, FaultySet, Tamper};
use ftc_sim::engine::ConfigError;
use ftc_sim::ids::NodeId;

use crate::messages::{AgreeMsg, LeMsg};

/// Checks a Byzantine corruption budget against the network size.
///
/// `FaultySet::random(n, b)` asserts `b <= n` deep inside a trial; callers
/// that take `b` from a CLI or a campaign grid must reject oversized
/// budgets *before* any trial runs, so the failure is a configuration
/// error with context instead of a mid-trial panic.
pub fn validate_budget(b: usize, n: u32) -> Result<(), ConfigError> {
    if b as u64 > u64::from(n) {
        Err(ConfigError::ByzantineBudgetExceedsN {
            b: u32::try_from(b).unwrap_or(u32::MAX),
            n,
        })
    } else {
        Ok(())
    }
}

/// Byzantine agreement attack: corrupted nodes flood forged `Zero`s.
///
/// Validity dies immediately when every honest input is 1: the paper's
/// agreement protocol trusts any received 0.
#[derive(Clone, Debug)]
pub struct ZeroForger {
    /// Number of corrupted nodes.
    pub b: usize,
}

impl ZeroForger {
    /// Forged zeros each corrupted node sends per round.
    const FANOUT: usize = 8;
    /// Rounds during which forging happens.
    const ROUNDS: u32 = 4;

    /// `b` corrupted nodes, 8 forged zeros per node per round for the
    /// first 4 rounds.
    pub fn new(b: usize) -> Self {
        ZeroForger { b }
    }

    /// Rejects budgets that cannot fit an `n`-node network (`b > n`).
    pub fn validate(&self, n: u32) -> Result<(), ConfigError> {
        validate_budget(self.b, n)
    }
}

impl Adversary<AgreeMsg> for ZeroForger {
    fn faulty_set(&mut self, n: u32, rng: &mut SmallRng) -> FaultySet {
        FaultySet::random(n, self.b, rng)
    }

    fn on_round(
        &mut self,
        _view: &AdversaryView<'_, AgreeMsg>,
        _rng: &mut SmallRng,
    ) -> Vec<CrashDirective> {
        Vec::new() // Byzantine nodes do not crash; they lie.
    }

    fn tamper(
        &mut self,
        view: &AdversaryView<'_, AgreeMsg>,
        rng: &mut SmallRng,
    ) -> Vec<Tamper<AgreeMsg>> {
        if view.round() >= Self::ROUNDS {
            return Vec::new();
        }
        let n = view.n();
        view.crashable()
            .map(|node| {
                let sends = (0..Self::FANOUT)
                    .map(|_| {
                        let dst = loop {
                            let d = NodeId(rng.random_range(0..n));
                            if d != node {
                                break d;
                            }
                        };
                        (dst, AgreeMsg::Zero)
                    })
                    .collect();
                Tamper { node, sends }
            })
            .collect()
    }
}

/// Byzantine leader-election attack: equivocating leadership claims.
///
/// The corrupted nodes watch round-0 registrations to learn which nodes
/// serve as referees, then send claim `⟨R₁,R₁⟩` to one half of them and
/// claim `⟨R₂,R₂⟩` (a different gigantic rank) to the other half. Honest
/// candidates adopt whichever claim their referees echo — ranks that
/// belong to **no node** — and may split between the two.
#[derive(Clone, Debug)]
pub struct EquivocatingClaimant {
    /// Number of corrupted nodes.
    pub b: usize,
    referees: Vec<NodeId>,
    /// The two forged ranks (near the top of the rank domain).
    forged: (u64, u64),
}

impl EquivocatingClaimant {
    /// `b` corrupted nodes.
    pub fn new(b: usize) -> Self {
        EquivocatingClaimant {
            b,
            referees: Vec::new(),
            forged: (0, 0),
        }
    }

    /// Rejects budgets that cannot fit an `n`-node network (`b > n`).
    pub fn validate(&self, n: u32) -> Result<(), ConfigError> {
        validate_budget(self.b, n)
    }
}

impl Adversary<LeMsg> for EquivocatingClaimant {
    fn faulty_set(&mut self, n: u32, rng: &mut SmallRng) -> FaultySet {
        let domain = u64::from(n).pow(4);
        self.forged = (domain - 1, domain); // two distinct, unbeatable ranks
        FaultySet::random(n, self.b, rng)
    }

    fn on_round(
        &mut self,
        _view: &AdversaryView<'_, LeMsg>,
        _rng: &mut SmallRng,
    ) -> Vec<CrashDirective> {
        Vec::new()
    }

    fn tamper(
        &mut self,
        view: &AdversaryView<'_, LeMsg>,
        _rng: &mut SmallRng,
    ) -> Vec<Tamper<LeMsg>> {
        // Learn the referee fabric from registration traffic.
        if view.round() == 0 {
            for e in view.all_outgoing() {
                if matches!(e.msg, LeMsg::Register { .. }) && !self.referees.contains(&e.dst) {
                    self.referees.push(e.dst);
                }
            }
            return Vec::new();
        }
        // Strike once, two rounds after registrations landed (the referee
        // fabric is live and candidates are listening for echoes).
        if view.round() != 3 {
            return Vec::new();
        }
        let (r1, r2) = self.forged;
        let half = self.referees.len() / 2;
        view.crashable()
            .map(|node| {
                let sends = self
                    .referees
                    .iter()
                    .enumerate()
                    .filter(|&(_, &d)| d != node)
                    .map(|(i, &d)| {
                        let rank = if i < half { r1 } else { r2 };
                        (
                            d,
                            LeMsg::Propose {
                                id: crate::rank::Rank(rank),
                                value: crate::rank::Rank(rank),
                            },
                        )
                    })
                    .collect();
                Tamper { node, sends }
            })
            .collect()
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
    fn single_zero_forger_breaks_validity() {
        // All honest inputs are 1; one Byzantine node forges 0s. Any
        // honest decision of 0 is a validity violation.
        let params = Params::new(256, 0.9).unwrap();
        let mut violated = 0;
        for seed in 0..10 {
            let cfg = SimConfig::new(256)
                .seed(seed)
                .max_rounds(params.agreement_round_budget());
            let mut adv = ZeroForger::new(1);
            let r = run(&cfg, |_| AgreeNode::new(params.clone(), true), &mut adv);
            let honest_decided_zero = r
                .surviving_states()
                .filter(|(id, _)| !r.faulty.contains(*id))
                .any(|(_, s)| s.decision() == Some(false));
            if honest_decided_zero {
                violated += 1;
            }
        }
        assert!(
            violated >= 8,
            "forged zeros rarely landed: {violated}/10 — attack ineffective?"
        );
    }

    #[test]
    fn equivocating_claimant_destroys_the_election() {
        let params = Params::new(256, 0.9).unwrap();
        let mut broken = 0;
        for seed in 0..10 {
            let cfg = SimConfig::new(256)
                .seed(seed)
                .max_rounds(params.le_round_budget());
            let mut adv = EquivocatingClaimant::new(1);
            let r = run(&cfg, |_| LeNode::new(params.clone()), &mut adv);
            let o = LeOutcome::evaluate(&r);
            // Either outright failure, or the "agreed" rank belongs to no
            // real node (leader_node is None in that case).
            if !o.success {
                broken += 1;
            }
        }
        assert!(broken >= 8, "equivocation rarely worked: {broken}/10");
    }

    #[test]
    fn oversized_budgets_are_rejected_before_any_trial() {
        // Regression: `b > n` used to surface as a mid-trial panic inside
        // `FaultySet::random`; validation now catches it up front with a
        // ConfigError carrying both numbers.
        assert_eq!(
            ZeroForger::new(17).validate(16),
            Err(ConfigError::ByzantineBudgetExceedsN { b: 17, n: 16 })
        );
        assert_eq!(
            EquivocatingClaimant::new(300).validate(256),
            Err(ConfigError::ByzantineBudgetExceedsN { b: 300, n: 256 })
        );
        assert!(ZeroForger::new(16).validate(16).is_ok());
        assert!(EquivocatingClaimant::new(0).validate(2).is_ok());
        let msg = ConfigError::ByzantineBudgetExceedsN { b: 17, n: 16 }.to_string();
        assert!(msg.contains("b=17"), "{msg}");
        assert!(msg.contains("n=16"), "{msg}");
    }

    #[test]
    fn byzantine_nodes_do_not_crash() {
        let params = Params::new(128, 0.9).unwrap();
        let cfg = SimConfig::new(128)
            .seed(1)
            .max_rounds(params.agreement_round_budget());
        let mut adv = ZeroForger::new(2);
        let r = run(&cfg, |_| AgreeNode::new(params.clone(), true), &mut adv);
        assert_eq!(r.metrics.crash_count(), 0);
        assert_eq!(r.survivor_count(), 128);
    }
}
