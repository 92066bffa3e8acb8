//! Explicit extensions of the two implicit protocols.
//!
//! Both papers' protocols solve the *implicit* problems; Sections IV-A and
//! V-A note that one extra broadcast round turns them explicit:
//!
//! * **Explicit leader election**: every settled candidate broadcasts the
//!   agreed leader rank to all `n−1` ports — `O(n·log n/α)` messages,
//!   `O(1)` extra rounds. All nodes then know the leader's identity.
//! * **Explicit agreement**: every decided candidate broadcasts the agreed
//!   bit — same cost. All nodes then hold the agreed value.
//!
//! The broadcast is performed by *all* candidates (not just the leader)
//! because any single candidate might crash mid-broadcast; with at least
//! one non-faulty candidate (Lemma 2) every alive node hears the result.

use ftc_sim::ids::Round;
use ftc_sim::prelude::*;

use crate::agreement::AgreeNode;
use crate::leader_election::LeNode;
use crate::messages::{AgreeMsg, LeMsg};
use crate::params::Params;
use crate::rank::Rank;

/// Who performs the explicit announcement broadcast.
///
/// The paper has all candidates broadcast (any single node might crash
/// mid-broadcast); `LeaderOnly` is the tempting cheaper alternative that
/// the D7 ablation shows to be fragile: if the elected node crashes
/// after electing but before (or during) its broadcast, nobody learns
/// the result.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AnnouncePolicy {
    /// Every settled candidate broadcasts (paper; crash-safe).
    #[default]
    AllCandidates,
    /// Only the elected node broadcasts (cheaper; crash-fragile).
    LeaderOnly,
}

/// Leader election with the explicit final broadcast.
///
/// Wraps [`LeNode`]; after `announce_round` every settled candidate
/// broadcasts `Announce{leader}` and all nodes record the highest
/// announced rank as the leader.
#[derive(Clone, Debug)]
pub struct ExplicitLeNode {
    inner: LeNode,
    announce_round: Round,
    announced: bool,
    policy: AnnouncePolicy,
    /// The leader this node learned from announcements.
    known_leader: Option<Rank>,
}

impl ExplicitLeNode {
    /// Wraps a fresh implicit node; announcements fire at the end of the
    /// implicit round budget.
    pub fn new(params: Params) -> Self {
        Self::with_policy(params, AnnouncePolicy::AllCandidates)
    }

    /// Like [`ExplicitLeNode::new`] with an explicit announce policy
    /// (ablation D7).
    pub fn with_policy(params: Params, policy: AnnouncePolicy) -> Self {
        let announce_round = params.le_round_budget();
        ExplicitLeNode {
            inner: LeNode::new(params),
            announce_round,
            announced: false,
            policy,
            known_leader: None,
        }
    }

    /// Access to the wrapped implicit state.
    pub fn inner(&self) -> &LeNode {
        &self.inner
    }

    /// Total round budget including the announcement exchange.
    pub fn round_budget(params: &Params) -> u32 {
        params.le_round_budget() + 3
    }
}

/// The explicit output: the leader rank this node ended up knowing.
impl Decides for ExplicitLeNode {
    type Value = Rank;

    fn decision(&self) -> Option<Rank> {
        self.known_leader.or(self.inner.leader_belief())
    }
}

impl Protocol for ExplicitLeNode {
    type Msg = LeMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, LeMsg>) {
        self.inner.on_start(ctx);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, LeMsg>, inbox: &[Incoming<LeMsg>]) {
        // Record announcements; the implicit layer ignores them.
        for inc in inbox {
            if let LeMsg::Announce { leader } = inc.msg {
                self.known_leader = Some(match self.known_leader {
                    Some(l) => l.max(leader),
                    None => leader,
                });
            }
        }
        self.inner.on_round(ctx, inbox);

        if ctx.round() == self.announce_round && !self.announced {
            self.announced = true;
            let may_announce = match self.policy {
                AnnouncePolicy::AllCandidates => {
                    self.inner.is_candidate() && self.inner.is_settled()
                }
                AnnouncePolicy::LeaderOnly => {
                    self.inner.status() == crate::leader_election::LeStatus::Elected
                }
            };
            if may_announce {
                if let Some(leader) = self.inner.leader_belief() {
                    self.known_leader = Some(self.known_leader.map_or(leader, |l| l.max(leader)));
                    ctx.broadcast(LeMsg::Announce { leader });
                }
            }
        }
    }

    fn is_terminated(&self) -> bool {
        // Cannot quiesce before the scheduled announcement.
        self.announced && self.inner.is_terminated()
    }

    fn is_inert(&self) -> bool {
        // The announcement fires at a fixed round regardless of traffic,
        // so the node must keep being activated until it has announced.
        self.announced && self.inner.is_inert()
    }
}

/// Agreement with the explicit final broadcast.
#[derive(Clone, Debug)]
pub struct ExplicitAgreeNode {
    inner: AgreeNode,
    announce_round: Round,
    announced: bool,
    /// The value this node learned from announcements.
    known_value: Option<bool>,
}

impl ExplicitAgreeNode {
    /// Wraps a fresh implicit node with the given input bit.
    pub fn new(params: Params, input_one: bool) -> Self {
        let announce_round = params.agreement_round_budget();
        ExplicitAgreeNode {
            inner: AgreeNode::new(params, input_one),
            announce_round,
            announced: false,
            known_value: None,
        }
    }

    /// Access to the wrapped implicit state.
    pub fn inner(&self) -> &AgreeNode {
        &self.inner
    }

    /// Total round budget including the announcement exchange.
    pub fn round_budget(params: &Params) -> u32 {
        params.agreement_round_budget() + 3
    }
}

/// The explicit output: the agreed value this node ended up knowing.
/// Zero-announcements dominate one-announcements, mirroring the implicit
/// protocol's bias.
impl Decides for ExplicitAgreeNode {
    type Value = bool;

    fn decision(&self) -> Option<bool> {
        self.known_value.or(self.inner.decision())
    }
}

impl Protocol for ExplicitAgreeNode {
    type Msg = AgreeMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, AgreeMsg>) {
        self.inner.on_start(ctx);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, AgreeMsg>, inbox: &[Incoming<AgreeMsg>]) {
        for inc in inbox {
            if let AgreeMsg::Announce(v) = inc.msg {
                // 0 beats 1, matching the implicit bias.
                self.known_value = Some(self.known_value.map_or(v, |k| k && v));
            }
        }
        self.inner.on_round(ctx, inbox);

        if ctx.round() == self.announce_round && !self.announced {
            self.announced = true;
            if let Some(v) = self.inner.decision() {
                self.known_value = Some(self.known_value.map_or(v, |k| k && v));
                ctx.broadcast(AgreeMsg::Announce(v));
            }
        }
    }

    fn is_terminated(&self) -> bool {
        self.announced && self.inner.is_terminated()
    }

    fn is_inert(&self) -> bool {
        self.announced && self.inner.is_inert()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_leader_reaches_every_alive_node() {
        let params = Params::new(128, 1.0).unwrap();
        let cfg = SimConfig::new(128)
            .seed(4)
            .max_rounds(ExplicitLeNode::round_budget(&params));
        let result = run(&cfg, |_| ExplicitLeNode::new(params.clone()), &mut NoFaults);
        let v = result.verdict();
        assert!(v.explicit(), "{v:?}");
    }

    #[test]
    fn explicit_leader_survives_crashes() {
        let params = Params::new(128, 0.5).unwrap();
        for seed in 0..5 {
            let cfg = SimConfig::new(128)
                .seed(seed)
                .max_rounds(ExplicitLeNode::round_budget(&params));
            let mut adv = RandomCrash::new(64, 30);
            let result = run(&cfg, |_| ExplicitLeNode::new(params.clone()), &mut adv);
            let v = result.verdict();
            assert!(v.explicit(), "seed {seed}: {v:?}");
        }
    }

    #[test]
    fn explicit_agreement_reaches_every_alive_node() {
        let params = Params::new(128, 1.0).unwrap();
        let cfg = SimConfig::new(128)
            .seed(4)
            .max_rounds(ExplicitAgreeNode::round_budget(&params));
        let result = run(
            &cfg,
            |id| ExplicitAgreeNode::new(params.clone(), id.0 % 2 == 0),
            &mut NoFaults,
        );
        let v = result.verdict();
        assert!(v.explicit(), "{v:?}");
        assert_eq!(v.value(), Some(false), "zero must win");
    }

    #[test]
    fn explicit_agreement_survives_crashes() {
        let params = Params::new(128, 0.5).unwrap();
        for seed in 0..5 {
            let cfg = SimConfig::new(128)
                .seed(seed)
                .max_rounds(ExplicitAgreeNode::round_budget(&params));
            let mut adv = RandomCrash::new(64, 20);
            let result = run(
                &cfg,
                |id| ExplicitAgreeNode::new(params.clone(), id.0 < 4),
                &mut adv,
            );
            let v = result.verdict();
            assert!(v.explicit(), "seed {seed}: {v:?}");
        }
    }

    #[test]
    fn d7_leader_only_announce_is_fragile() {
        // Elect, find the leader, then crash it just before the announce
        // round: LeaderOnly leaves the network uninformed, AllCandidates
        // does not.
        let params = Params::new(128, 0.5).unwrap();
        let probe_cfg = SimConfig::new(128)
            .seed(21)
            .max_rounds(ExplicitLeNode::round_budget(&params));
        let probe = run(
            &probe_cfg,
            |_| ExplicitLeNode::new(params.clone()),
            &mut NoFaults,
        );
        let leader = probe
            .all_states()
            .find(|(_, s)| s.inner().status() == crate::leader_election::LeStatus::Elected)
            .map(|(id, _)| id)
            .expect("probe elected a leader");

        let kill_round = params.le_round_budget() - 1;
        let run_policy = |policy: AnnouncePolicy| {
            let plan = FaultPlan::new().crash(
                leader,
                kill_round,
                ftc_sim::adversary::DeliveryFilter::DropAll,
            );
            let mut adv = ScriptedCrash::new(plan);
            let r = run(
                &probe_cfg,
                |_| ExplicitLeNode::with_policy(params.clone(), policy),
                &mut adv,
            );
            r.verdict()
        };

        let all = run_policy(AnnouncePolicy::AllCandidates);
        let only = run_policy(AnnouncePolicy::LeaderOnly);
        assert!(all.explicit(), "all-candidates policy broke: {all:?}");
        assert!(
            !only.explicit() && only.undecided > 0,
            "leader-only policy unexpectedly survived: {only:?}"
        );
    }

    #[test]
    fn explicit_cost_is_linear_not_quadratic() {
        let n = 1024u32;
        let params = Params::new(n, 1.0).unwrap();
        let cfg = SimConfig::new(n)
            .seed(2)
            .max_rounds(ExplicitLeNode::round_budget(&params));
        let result = run(&cfg, |_| ExplicitLeNode::new(params.clone()), &mut NoFaults);
        let v = result.verdict();
        assert!(v.explicit(), "{v:?}");
        // O(n·log n/α) with a generous constant (the implicit phase and
        // the |C| parallel announcements both contribute), far below n².
        let bound = f64::from(n) * params.ln_n() / params.alpha();
        assert!((result.metrics.msgs_sent as f64) < f64::from(n) * f64::from(n) / 8.0);
        assert!(
            (result.metrics.msgs_sent as f64) < 20.0 * bound,
            "messages {} vs bound {bound}",
            result.metrics.msgs_sent
        );
    }
}
