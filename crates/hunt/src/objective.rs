//! Falsification objectives: what makes a schedule "worse".
//!
//! Each objective maps an [`Observation`] to a score (higher = worse for
//! the protocol = better for the hunter) and a *hit* predicate — the
//! schedule is an actual counterexample, not merely the worst sample seen.
//! Safety objectives hit on model violations (two alive elected nodes,
//! disagreeing alive decisions); the failure objective hits whenever the
//! protocol's success predicate fails; cost objectives hit when the run
//! exceeds the paper's whp bound (messages) or exhausts the round budget
//! without quiescing (rounds) — exactly the regimes Theorems 4.1/5.1 say a
//! static adversary should not be able to force, except with probability
//! `o(1)`.

use ftc_core::prelude::Params;

use crate::proto::{Observation, ProtoKind};

/// A property the hunt tries to falsify (or a cost it tries to maximise).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// LE safety: two or more alive nodes consider themselves elected.
    TwoLeaders,
    /// LE safety inside one height of a long-lived service (`ftc-serve`):
    /// two or more alive nodes consider themselves elected at the same
    /// election height. Scored identically to [`Objective::TwoLeaders`] —
    /// a height is one complete election — but kept distinct so artifacts
    /// record *where* the split brain was observed (the artifact's
    /// `height` field) and the serve invariant monitor can file its
    /// counterexamples under the objective it actually checks.
    TwoLeadersAtHeight,
    /// Agreement safety: alive nodes decided different values.
    Disagreement,
    /// Success-probability minimisation: the run's success predicate fails.
    Failure,
    /// Message-cost maximisation; hits above the paper's whp bound.
    MaxMessages,
    /// Round-cost maximisation; hits when the round budget is exhausted.
    MaxRounds,
}

/// The protocol-derived thresholds cost objectives are judged against.
#[derive(Clone, Copy, Debug)]
pub struct Bounds {
    /// The paper's whp message bound for the hunted protocol.
    pub message_bound: f64,
    /// The round budget (`max_rounds` of every hunt execution).
    pub round_budget: u32,
}

impl Bounds {
    /// Derives the thresholds for `proto` under `params`.
    pub fn for_proto(proto: ProtoKind, params: &Params) -> Self {
        Bounds {
            message_bound: proto.message_bound(params),
            round_budget: proto.round_budget(params),
        }
    }
}

ftc_sim::codec! {
    names pub Objective("objective") {
        "two-leaders" => TwoLeaders,
        "two-leaders-at-height" => TwoLeadersAtHeight,
        "disagreement" => Disagreement,
        "failure" => Failure,
        "max-messages" => MaxMessages,
        "max-rounds" => MaxRounds,
    }
}

impl Objective {
    /// Whether this objective is meaningful for `proto` (safety objectives
    /// are protocol-specific; the rest apply to both).
    pub fn supports(self, proto: ProtoKind) -> bool {
        match self {
            Objective::TwoLeaders | Objective::TwoLeadersAtHeight => proto == ProtoKind::Le,
            Objective::Disagreement => proto == ProtoKind::Agree,
            Objective::Failure | Objective::MaxMessages | Objective::MaxRounds => true,
        }
    }

    /// The score of one observation; higher is worse for the protocol.
    /// Monotone with [`Objective::hit`]: among a candidate's probe runs,
    /// the maximal-score probe is a hit iff any probe is.
    pub fn score(self, obs: &Observation) -> f64 {
        match self {
            Objective::TwoLeaders | Objective::TwoLeadersAtHeight | Objective::Disagreement => {
                f64::from(obs.distinct)
            }
            Objective::Failure => {
                if obs.fingerprint.success {
                    0.0
                } else {
                    1.0
                }
            }
            Objective::MaxMessages => obs.fingerprint.msgs_sent as f64,
            Objective::MaxRounds => f64::from(obs.fingerprint.rounds),
        }
    }

    /// Whether the observation is an actual counterexample.
    pub fn hit(self, obs: &Observation, bounds: &Bounds) -> bool {
        match self {
            Objective::TwoLeaders | Objective::TwoLeadersAtHeight | Objective::Disagreement => {
                obs.distinct >= 2
            }
            Objective::Failure => !obs.fingerprint.success,
            Objective::MaxMessages => obs.fingerprint.msgs_sent as f64 > bounds.message_bound,
            Objective::MaxRounds => obs.fingerprint.rounds >= bounds.round_budget,
        }
    }

    /// The shrink-preservation predicate: a reduced schedule is acceptable
    /// iff it keeps what made the original interesting — the hit, for
    /// falsification objectives; at least the original score, for cost
    /// objectives (whose every evaluation is deterministic, so the
    /// comparison is exact).
    pub fn preserved(self, original_score: f64, obs: &Observation, bounds: &Bounds) -> bool {
        match self {
            Objective::TwoLeaders
            | Objective::TwoLeadersAtHeight
            | Objective::Disagreement
            | Objective::Failure => self.hit(obs, bounds),
            Objective::MaxMessages | Objective::MaxRounds => self.score(obs) >= original_score,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Fingerprint;

    fn obs(success: bool, distinct: u32, msgs: u64, rounds: u32) -> Observation {
        Observation {
            fingerprint: Fingerprint {
                success,
                outcome: None,
                msgs_sent: msgs,
                msgs_delivered: msgs,
                bits_sent: msgs * 2,
                rounds,
                crashed: Vec::new(),
            },
            distinct,
        }
    }

    #[test]
    fn parse_and_support_matrix() {
        assert_eq!(
            Objective::parse("two-leaders").unwrap(),
            Objective::TwoLeaders
        );
        assert!(Objective::parse("world-peace").is_err());
        assert!(Objective::TwoLeaders.supports(ProtoKind::Le));
        assert!(!Objective::TwoLeaders.supports(ProtoKind::Agree));
        assert_eq!(
            Objective::parse("two-leaders-at-height").unwrap(),
            Objective::TwoLeadersAtHeight
        );
        assert!(Objective::TwoLeadersAtHeight.supports(ProtoKind::Le));
        assert!(!Objective::TwoLeadersAtHeight.supports(ProtoKind::Agree));
        assert_eq!(
            Objective::TwoLeadersAtHeight.name(),
            "two-leaders-at-height"
        );
        assert!(!Objective::Disagreement.supports(ProtoKind::Le));
        assert!(Objective::Failure.supports(ProtoKind::Agree));
        assert_eq!(Objective::MaxRounds.name(), "max-rounds");
    }

    #[test]
    fn scores_and_hits_are_consistent() {
        let bounds = Bounds {
            message_bound: 100.0,
            round_budget: 20,
        };
        let clean = obs(true, 1, 50, 10);
        let split = obs(false, 2, 50, 10);
        assert!(!Objective::TwoLeaders.hit(&clean, &bounds));
        assert!(Objective::TwoLeaders.hit(&split, &bounds));
        assert!(Objective::TwoLeaders.score(&split) > Objective::TwoLeaders.score(&clean));
        assert!(Objective::Failure.hit(&split, &bounds));
        assert!(!Objective::Failure.hit(&clean, &bounds));
        assert!(Objective::MaxMessages.hit(&obs(true, 1, 101, 10), &bounds));
        assert!(!Objective::MaxMessages.hit(&obs(true, 1, 100, 10), &bounds));
        assert!(Objective::MaxRounds.hit(&obs(true, 1, 10, 20), &bounds));
    }

    #[test]
    fn shrink_preservation_matches_objective_family() {
        let bounds = Bounds {
            message_bound: 100.0,
            round_budget: 20,
        };
        // Falsification: the hit must survive, the score may drop.
        assert!(Objective::Failure.preserved(1.0, &obs(false, 1, 5, 3), &bounds));
        assert!(!Objective::Failure.preserved(1.0, &obs(true, 1, 5, 3), &bounds));
        // Cost: the score must not drop.
        assert!(Objective::MaxMessages.preserved(60.0, &obs(true, 1, 60, 3), &bounds));
        assert!(!Objective::MaxMessages.preserved(60.0, &obs(true, 1, 59, 3), &bounds));
    }
}
