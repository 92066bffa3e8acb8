//! Explicit extensions of the two implicit protocols.
//!
//! The paper's two protocols solve the *implicit* problems; Sections IV-A
//! and V-A note that one extra broadcast round turns them explicit:
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
//! [`Explicit`] is that round, written once over any [`Implicit`] protocol.

use ftc_sim::ids::Round;
use ftc_sim::prelude::*;

use crate::agreement::AgreeNode;
use crate::leader_election::LeNode;
use crate::messages::{AgreeMsg, LeMsg};
use crate::params::Params;
use crate::rank::Rank;

/// What the explicit extension reads of an implicit protocol.
pub trait Implicit: Protocol {
    /// The result a node announces: a leader rank or an agreed bit.
    type Value: Copy + Ord + Send;
    /// The implicit round budget; announcements fire in its last round.
    fn budget(params: &Params) -> Round;
    /// What this node believes the result is, if anything.
    fn belief(&self) -> Option<Self::Value>;
    /// Whether this node announces its belief (by default, when it has one).
    fn announces(&self) -> bool {
        true
    }
    /// The announcement of `v`.
    fn announce(v: Self::Value) -> Self::Msg;
    /// The value `msg` announces; `None` for the implicit layer's messages.
    fn announced(msg: &Self::Msg) -> Option<Self::Value>;
    /// Which of two announced values wins (by default, the larger).
    fn winner(a: Self::Value, b: Self::Value) -> Self::Value {
        a.max(b)
    }
    /// This node's input, where validity applies.
    fn input(&self) -> Option<Self::Value> {
        None
    }
}

/// Every settled candidate announces its leader; the highest rank wins.
impl Implicit for LeNode {
    type Value = Rank;

    fn budget(params: &Params) -> Round {
        params.le_round_budget()
    }

    fn belief(&self) -> Option<Rank> {
        self.leader_belief()
    }

    fn announces(&self) -> bool {
        self.is_candidate() && self.is_settled()
    }

    fn announce(leader: Rank) -> LeMsg {
        LeMsg::Announce { leader }
    }

    fn announced(msg: &LeMsg) -> Option<Rank> {
        match *msg {
            LeMsg::Announce { leader } => Some(leader),
            _ => None,
        }
    }
}

/// Every decided candidate announces its bit; 0 beats 1, as in the protocol.
impl Implicit for AgreeNode {
    type Value = bool;

    fn budget(params: &Params) -> Round {
        params.agreement_round_budget()
    }

    fn belief(&self) -> Option<bool> {
        self.decision()
    }

    fn announce(v: bool) -> AgreeMsg {
        AgreeMsg::Announce(v)
    }

    fn announced(msg: &AgreeMsg) -> Option<bool> {
        match *msg {
            AgreeMsg::Announce(v) => Some(v),
            _ => None,
        }
    }

    fn winner(a: bool, b: bool) -> bool {
        a.min(b)
    }

    fn input(&self) -> Option<bool> {
        Decides::input(self)
    }
}

/// An implicit protocol with the explicit final broadcast: in the last
/// round of `P`'s budget every node that announces broadcasts its belief,
/// and every node keeps the winner of what it heard announced.
#[derive(Clone, Debug)]
pub struct Explicit<P: Implicit> {
    inner: P,
    /// The round of this node's announcement, until it is made.
    announce_round: Option<Round>,
    /// The winning value this node heard announced, its own included.
    known: Option<P::Value>,
}

/// Leader election with the explicit final broadcast.
pub type ExplicitLeNode = Explicit<LeNode>;

/// Agreement with the explicit final broadcast.
pub type ExplicitAgreeNode = Explicit<AgreeNode>;

impl<P: Implicit> Explicit<P> {
    fn wrap(params: &Params, inner: P) -> Self {
        Explicit {
            inner,
            announce_round: Some(P::budget(params)),
            known: None,
        }
    }

    /// Access to the wrapped implicit state.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Total round budget including the announcement exchange.
    pub fn round_budget(params: &Params) -> u32 {
        P::budget(params) + 3
    }

    fn hear(&mut self, v: P::Value) {
        self.known = Some(self.known.map_or(v, |k| P::winner(k, v)));
    }
}

impl ExplicitLeNode {
    /// Wraps a fresh implicit node, announcing at the end of its budget.
    pub fn new(params: Params) -> Self {
        Self::wrap(&params, LeNode::new(params.clone()))
    }
}

impl ExplicitAgreeNode {
    /// Wraps a fresh implicit node with the given input bit.
    pub fn new(params: Params, input_one: bool) -> Self {
        Self::wrap(&params, AgreeNode::new(params.clone(), input_one))
    }
}

/// The explicit output: the winning value heard announced, else the belief.
impl<P: Implicit> Decides for Explicit<P> {
    type Value = P::Value;

    fn decision(&self) -> Option<P::Value> {
        self.known.or(self.inner.belief())
    }

    fn input(&self) -> Option<P::Value> {
        self.inner.input()
    }
}

impl<P: Implicit> Protocol for Explicit<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, P::Msg>) {
        self.inner.on_start(ctx);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, P::Msg>, inbox: &[Incoming<P::Msg>]) {
        // Record announcements; the implicit layer ignores them.
        for inc in inbox {
            if let Some(v) = P::announced(&inc.msg) {
                self.hear(v);
            }
        }
        self.inner.on_round(ctx, inbox);
        if self.announce_round == Some(ctx.round()) {
            self.announce_round = None;
            if let Some(v) = self.inner.belief().filter(|_| self.inner.announces()) {
                self.hear(v);
                ctx.broadcast(P::announce(v));
            }
        }
    }

    fn is_terminated(&self) -> bool {
        // Cannot quiesce before the scheduled announcement.
        self.announce_round.is_none() && self.inner.is_terminated()
    }

    fn is_inert(&self) -> bool {
        // The announcement fires at a fixed round, whatever the traffic.
        self.announce_round.is_none() && self.inner.is_inert()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leader_election::LeStatus;

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
        assert!(v.explicit() && v.valid, "{v:?}");
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
            assert!(v.explicit() && v.valid, "seed {seed}: {v:?}");
        }
    }

    /// D7's tempting cheaper rule, kept as a reference: only the elected
    /// node announces. If it crashes after electing but before (or
    /// during) its broadcast, nobody learns the result.
    #[derive(Clone, Debug)]
    struct LeaderOnly(LeNode);

    impl Protocol for LeaderOnly {
        type Msg = LeMsg;

        fn on_start(&mut self, ctx: &mut Ctx<'_, LeMsg>) {
            self.0.on_start(ctx);
        }

        fn on_round(&mut self, ctx: &mut Ctx<'_, LeMsg>, inbox: &[Incoming<LeMsg>]) {
            self.0.on_round(ctx, inbox);
        }

        fn is_terminated(&self) -> bool {
            self.0.is_terminated()
        }

        fn is_inert(&self) -> bool {
            self.0.is_inert()
        }
    }

    impl Implicit for LeaderOnly {
        type Value = Rank;

        fn budget(params: &Params) -> Round {
            LeNode::budget(params)
        }

        fn belief(&self) -> Option<Rank> {
            self.0.belief()
        }

        fn announces(&self) -> bool {
            self.0.status() == LeStatus::Elected
        }

        fn announce(leader: Rank) -> LeMsg {
            LeNode::announce(leader)
        }

        fn announced(msg: &LeMsg) -> Option<Rank> {
            LeNode::announced(msg)
        }
    }

    #[test]
    fn d7_leader_only_announce_is_fragile() {
        // Elect, find the leader, then crash it just before the announce
        // round: leader-only leaves the network uninformed, all candidates
        // do not.
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
            .find(|(_, s)| s.inner().status() == LeStatus::Elected)
            .map(|(id, _)| id)
            .expect("probe elected a leader");

        let kill_round = params.le_round_budget() - 1;
        let adversary = || {
            let plan = FaultPlan::new().crash(
                leader,
                kill_round,
                ftc_sim::adversary::DeliveryFilter::DropAll,
            );
            ScriptedCrash::new(plan)
        };

        let all = run(
            &probe_cfg,
            |_| ExplicitLeNode::new(params.clone()),
            &mut adversary(),
        )
        .verdict();
        let leader_only = |_| {
            let inner = LeaderOnly(LeNode::new(params.clone()));
            Explicit::wrap(&params, inner)
        };
        let only = run(&probe_cfg, leader_only, &mut adversary()).verdict();
        assert!(all.explicit(), "all-candidates policy broke: {all:?}");
        assert!(
            !only.explicit() && only.undecided > 0,
            "leader-only policy unexpectedly survived: {only:?}"
        );
    }

    #[test]
    fn announcements_keep_their_winner_in_any_order() {
        // Announcers rarely disagree, so the runs above seldom reach the
        // rule: the highest rank wins, and a 0 beats a 1.
        let params = Params::new(64, 1.0).unwrap();
        for order in [[5, 9, 7], [9, 5, 7], [7, 5, 9]] {
            let mut le = ExplicitLeNode::new(params.clone());
            order.into_iter().for_each(|r| le.hear(Rank(r)));
            assert_eq!(le.decision(), Some(Rank(9)), "{order:?}");
        }
        for order in [
            [true, false, true],
            [false, true, true],
            [true, true, false],
        ] {
            let mut agree = ExplicitAgreeNode::new(params.clone(), true);
            order.into_iter().for_each(|v| agree.hear(v));
            assert_eq!(agree.decision(), Some(false), "{order:?}");
        }
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
