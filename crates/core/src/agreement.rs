//! Fault-tolerant implicit agreement (Section V-A, Theorem 5.1).
//!
//! The protocol biases the candidate committee towards 0: a candidate
//! whose input is 0 immediately decides 0 and pushes a `0` to its
//! referees; a referee holding a `0` forwards it (once) to all its
//! candidates; a candidate receiving a `0` decides 0 and forwards it
//! (once) to its own referees. Because every pair of candidates shares a
//! non-faulty referee (Lemma 3) and at least one candidate is non-faulty
//! (Lemma 2), a single `0` held by any non-faulty candidate floods the
//! whole committee even if a crash severs one link per iteration. After
//! `O(log n/α)` two-round iterations, candidates still holding only `1`s
//! decide 1. If no candidate ever held a 0, the protocol is completely
//! silent after registration — agreement on 1 for free.
//!
//! Message complexity: `O(√n·log^{3/2}n/α^{3/2})` bits whp — every message
//! is a single bit plus a tag, so messages ≈ bits (Theorem 5.1). Rounds:
//! `O(log n/α)`.

use ftc_sim::ids::Port;
use ftc_sim::prelude::*;

use crate::messages::AgreeMsg;
use crate::params::Params;
use crate::sampling;

/// A node's final verdict for the implicit agreement problem
/// (Definition 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AgreeStatus {
    /// The node decided the given bit.
    Decided(bool),
    /// The node never decided (`⊥`) — the normal state of non-candidates.
    Undecided,
}

/// State of this node's candidate role.
#[derive(Clone, Debug)]
struct CandidateState {
    /// Sampled referee ports.
    referees: Vec<Port>,
    /// Whether this candidate currently holds (and has decided) 0.
    has_zero: bool,
    /// Whether the `0` has already been pushed to the referees.
    zero_sent: bool,
}

/// One node of the fault-tolerant implicit agreement protocol.
///
/// ```
/// use ftc_sim::prelude::*;
/// use ftc_core::agreement::AgreeNode;
/// use ftc_core::params::Params;
///
/// let params = Params::new(64, 1.0)?;
/// let cfg = SimConfig::new(64).seed(1).max_rounds(params.agreement_round_budget());
/// // Node 0 starts with input 0, everyone else with 1.
/// let result = run(
///     &cfg,
///     |id| AgreeNode::new(params.clone(), id.0 == 0),
///     &mut NoFaults,
/// );
/// // Definition 2: one decision among the survivors, some node's input.
/// let verdict = result.verdict();
/// assert!(verdict.implicit() && verdict.valid);
/// # Ok::<(), ftc_core::params::ParamsError>(())
/// ```
#[derive(Clone, Debug)]
pub struct AgreeNode {
    params: Params,
    /// This node's input bit (`false` = 0, `true` = 1).
    input: bool,
    candidate: Option<CandidateState>,
    /// Referee role: candidate ports that registered with us.
    referee_candidates: Vec<Port>,
    /// Referee role: whether we hold a 0...
    referee_has_zero: bool,
    /// ...and whether we have already forwarded it.
    referee_zero_sent: bool,
}

impl AgreeNode {
    /// Creates the protocol state for one node with the given input bit
    /// (`false` encodes 0, `true` encodes 1).
    pub fn new(params: Params, input_one: bool) -> Self {
        AgreeNode {
            params,
            input: input_one,
            candidate: None,
            referee_candidates: Vec::new(),
            referee_has_zero: false,
            referee_zero_sent: false,
        }
    }

    /// Whether this node made itself a candidate.
    pub fn is_candidate(&self) -> bool {
        self.candidate.is_some()
    }

    /// The node's verdict (Definition 2): candidates decide — 0 as soon as
    /// they hold one, 1 implicitly at termination; non-candidates stay ⊥.
    pub fn status(&self) -> AgreeStatus {
        match &self.candidate {
            Some(c) if c.has_zero => AgreeStatus::Decided(false),
            Some(_) => AgreeStatus::Decided(true),
            None => AgreeStatus::Undecided,
        }
    }

    /// Candidate acquires a 0: decide and (lazily) propagate.
    fn acquire_zero(&mut self, ctx: &mut Ctx<'_, AgreeMsg>) {
        if let Some(c) = self.candidate.as_mut() {
            c.has_zero = true;
            if !c.zero_sent {
                c.zero_sent = true;
                for &p in &c.referees.clone() {
                    ctx.send(p, AgreeMsg::Zero);
                }
            }
        }
    }

    /// Referee acquires a 0: forward once to all registered candidates.
    fn referee_acquire_zero(&mut self, ctx: &mut Ctx<'_, AgreeMsg>) {
        self.referee_has_zero = true;
        if !self.referee_zero_sent {
            self.referee_zero_sent = true;
            for &p in &self.referee_candidates.clone() {
                ctx.send(p, AgreeMsg::Zero);
            }
        }
    }
}

impl Decides for AgreeNode {
    type Value = bool;

    fn decision(&self) -> Option<bool> {
        match self.status() {
            AgreeStatus::Decided(v) => Some(v),
            AgreeStatus::Undecided => None,
        }
    }

    fn input(&self) -> Option<bool> {
        Some(self.input)
    }
}

impl Protocol for AgreeNode {
    type Msg = AgreeMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, AgreeMsg>) {
        if !sampling::decide_candidate(ctx.rng(), &self.params) {
            return;
        }
        // Via the Ctx: identical RNG draws on the complete graph,
        // degree-clamped on sparse topologies (see LeNode::on_start).
        let referees = ctx.sample_ports(self.params.referee_count());
        let zero = !self.input;
        // Step 0: register with the referees — a 0-holder registers by
        // sending the 0 itself, a 1-holder sends a plain registration.
        for &p in &referees {
            ctx.send(
                p,
                if zero {
                    AgreeMsg::Zero
                } else {
                    AgreeMsg::RegisterOne
                },
            );
        }
        self.candidate = Some(CandidateState {
            referees,
            has_zero: zero,
            zero_sent: zero,
        });
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, AgreeMsg>, inbox: &[Incoming<AgreeMsg>]) {
        let mut candidate_zero = false;
        let mut referee_zero = false;
        for inc in inbox {
            match inc.msg {
                AgreeMsg::RegisterOne => {
                    if !self.referee_candidates.contains(&inc.port) {
                        self.referee_candidates.push(inc.port);
                    }
                }
                AgreeMsg::Zero => {
                    // A zero from a *candidate* registers it and infects
                    // our referee role; a zero from a *referee* infects our
                    // candidate role. We cannot tell which of our roles was
                    // addressed, so we conservatively serve both — this at
                    // most doubles constants and only strengthens
                    // propagation.
                    if !self.referee_candidates.contains(&inc.port) {
                        self.referee_candidates.push(inc.port);
                    }
                    referee_zero = true;
                    candidate_zero = true;
                }
                AgreeMsg::Announce(_) => {
                    // Explicit-extension message; ignored by the implicit
                    // protocol.
                }
            }
        }
        if referee_zero {
            self.referee_acquire_zero(ctx);
        }
        if candidate_zero && self.candidate.is_some() {
            self.acquire_zero(ctx);
        }
    }

    fn is_terminated(&self) -> bool {
        // Purely reactive after round 0: safe to stop whenever the network
        // is silent.
        true
    }

    fn is_inert(&self) -> bool {
        // An empty inbox leaves both role flags unset, so `on_round`
        // touches no state and draws no randomness — always skippable.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_agree(
        n: u32,
        alpha: f64,
        seed: u64,
        inputs: impl Fn(NodeId) -> bool + Copy,
        adv: &mut dyn Adversary<AgreeMsg>,
    ) -> RunResult<AgreeNode> {
        let params = Params::new(n, alpha).unwrap();
        let cfg = SimConfig::new(n)
            .seed(seed)
            .max_rounds(params.agreement_round_budget());
        run(&cfg, |id| AgreeNode::new(params.clone(), inputs(id)), adv)
    }

    #[test]
    fn all_ones_is_silent_and_agrees_one() {
        for seed in 0..10 {
            let result = run_agree(256, 1.0, seed, |_| true, &mut NoFaults);
            let v = result.verdict();
            assert!(v.implicit() && v.valid, "seed {seed}: {v:?}");
            assert_eq!(v.value(), Some(true));
            // Only registration traffic, nothing after.
            let reg: u64 = result.metrics.per_round[0].sent;
            assert_eq!(result.metrics.msgs_sent, reg, "iteration msgs sent");
        }
    }

    #[test]
    fn all_zeros_agrees_zero() {
        for seed in 0..10 {
            let result = run_agree(256, 1.0, seed, |_| false, &mut NoFaults);
            let v = result.verdict();
            assert!(v.implicit() && v.valid, "seed {seed}: {v:?}");
            assert_eq!(v.value(), Some(false));
        }
    }

    #[test]
    fn zero_biased_decision_with_mixed_inputs() {
        // A candidate holding 0 exists whp when half the inputs are 0, so
        // the committee must agree on 0.
        for seed in 0..10 {
            let result = run_agree(256, 1.0, seed, |id| id.0 % 2 == 0, &mut NoFaults);
            let v = result.verdict();
            assert!(v.implicit() && v.valid, "seed {seed}: {v:?}");
            assert_eq!(v.value(), Some(false), "0 must win: {v:?}");
        }
    }

    #[test]
    fn agreement_survives_mass_eager_crash() {
        for seed in 0..10 {
            let mut adv = EagerCrash::new(192);
            let result = run_agree(256, 0.25, seed, |id| id.0 % 2 == 0, &mut adv);
            let v = result.verdict();
            assert!(v.implicit() && v.valid, "seed {seed}: {v:?}");
        }
    }

    #[test]
    fn agreement_survives_random_crashes_mid_protocol() {
        for seed in 0..10 {
            let mut adv = RandomCrash::new(128, 20);
            let result = run_agree(256, 0.5, seed, |id| id.0 < 8, &mut adv);
            let v = result.verdict();
            assert!(v.implicit() && v.valid, "seed {seed}: {v:?}");
        }
    }

    #[test]
    fn validity_one_requires_a_one_input() {
        // All inputs 0 ⇒ decision 0 is forced; deciding 1 would violate
        // validity, which the verdict would flag.
        let result = run_agree(128, 1.0, 3, |_| false, &mut NoFaults);
        let v = result.verdict();
        assert_eq!(v.value(), Some(false));
        assert!(v.valid);
    }

    #[test]
    fn non_candidates_stay_undecided() {
        let result = run_agree(256, 1.0, 5, |id| id.0 % 2 == 0, &mut NoFaults);
        for (_, s) in result.all_states() {
            if !s.is_candidate() {
                assert_eq!(s.status(), AgreeStatus::Undecided);
            }
        }
    }

    #[test]
    fn message_bits_are_sublinear_at_scale() {
        let n = 4096u32;
        let result = run_agree(n, 1.0, 7, |id| id.0 == 0, &mut NoFaults);
        let v = result.verdict();
        assert!(v.implicit() && v.valid, "{v:?}");
        // The theoretical bound is constant-free; the protocol's own
        // constant is 12 (candidate factor 6 x referee factor 2) with up to
        // three traversals of the candidate-referee edges.
        let bound = Params::new(n, 1.0).unwrap().agreement_message_bound();
        assert!(
            (result.metrics.msgs_sent as f64) < 60.0 * bound,
            "messages {} vs bound {bound}",
            result.metrics.msgs_sent
        );
    }

    #[test]
    fn dissenters_empty_on_success() {
        // No survivor decided other than the agreed value.
        let result = run_agree(128, 1.0, 9, |id| id.0 % 3 == 0, &mut NoFaults);
        assert_eq!(result.verdict().decisions.len(), 1);
    }

    #[test]
    fn terminates_quickly_via_quiescence() {
        let params = Params::new(512, 1.0).unwrap();
        let result = run_agree(512, 1.0, 2, |id| id.0 == 0, &mut NoFaults);
        assert!(
            result.metrics.rounds < params.agreement_round_budget() / 2,
            "took {} rounds",
            result.metrics.rounds
        );
    }
}
