//! Fault-tolerant implicit agreement (Section V-A, Theorem 5.1), written
//! once as min-propagation over any ordered value domain.
//!
//! The paper's protocol biases the candidate committee towards 0: a
//! candidate whose input is 0 immediately decides 0 and pushes a `0` to
//! its referees; a referee holding a `0` forwards it (once) to all its
//! candidates; a candidate receiving a `0` decides 0 and forwards it
//! (once) to its own referees. Because every pair of candidates shares a
//! non-faulty referee (Lemma 3) and at least one candidate is non-faulty
//! (Lemma 2), a single `0` held by any non-faulty candidate floods the
//! whole committee even if a crash severs one link per iteration. After
//! `O(log n/α)` two-round iterations, candidates still holding only `1`s
//! decide 1. If no candidate ever held a 0, the protocol is completely
//! silent after registration — agreement on 1 for free.
//!
//! [`MinAgreeNode`] is that state machine with "0" read as "a value below
//! the one held": each node forwards each *improvement* of its minimum
//! (on `{0, 1}`, the one `0`), and top-value holders only register. A
//! [`Carrier`] hides how the domain travels: [`AgreeMsg`] carries `{0, 1}`
//! ([`AgreeNode`]), `MultiMsg` carries `{0..k}`
//! ([`crate::multi_agreement::MultiAgreeNode`]).
//!
//! Message complexity: `O(√n·log^{3/2}n/α^{3/2})` bits whp — every message
//! is a single bit plus a tag, so messages ≈ bits (Theorem 5.1). Rounds:
//! `O(log n/α)`.

use std::fmt::Debug;

use ftc_sim::ids::Port;
use ftc_sim::payload::Payload;
use ftc_sim::prelude::*;

use crate::messages::AgreeMsg;
use crate::params::Params;

/// What a received message says to the min-propagation machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Heard<V> {
    /// A candidate registers and carries nothing below the top value.
    Register,
    /// A value flowing through the committee; from a candidate it also
    /// registers the sender.
    Value(V),
    /// Another layer's message (such as [`AgreeMsg::Announce`]): ignored.
    Other,
}

/// How a value domain travels: the message format of a min-propagation
/// agreement, hidden from [`MinAgreeNode`].
pub trait Carrier: Payload + Copy {
    /// The value domain, ordered so that the smaller value wins.
    type Value: Copy + Ord + Debug + Send;
    /// The registration a candidate holding the domain's top value sends.
    const REGISTER: Self;
    /// The message that carries `v`, a value below the top.
    fn carry(v: Self::Value) -> Self;
    /// What this message says.
    fn heard(&self) -> Heard<Self::Value>;
}

/// `{0, 1}` as the paper sends it: `false` is 0 and wins, and only a `0`
/// ever travels; a 1-holder registers with [`AgreeMsg::RegisterOne`].
impl Carrier for AgreeMsg {
    type Value = bool;
    const REGISTER: Self = AgreeMsg::RegisterOne;

    fn carry(v: bool) -> Self {
        // The top value never travels as a value: it is a registration.
        if v {
            AgreeMsg::RegisterOne
        } else {
            AgreeMsg::Zero
        }
    }

    fn heard(&self) -> Heard<bool> {
        match self {
            AgreeMsg::RegisterOne => Heard::Register,
            AgreeMsg::Zero => Heard::Value(false),
            AgreeMsg::Announce(_) => Heard::Other,
        }
    }
}

/// One node of min-propagation agreement over the domain `C` carries.
#[derive(Clone, Debug)]
pub struct MinAgreeNode<C: Carrier> {
    params: Params,
    /// The domain's top value: its holders only register.
    top: C::Value,
    input: C::Value,
    /// Candidate role: sampled referee ports and the current minimum.
    candidate: Option<(Vec<Port>, C::Value)>,
    /// Referee role: registered candidate ports and the minimum forwarded.
    referee_candidates: Vec<Port>,
    referee_min: Option<C::Value>,
}

/// One node of the paper's binary agreement: [`MinAgreeNode`] over `{0, 1}`.
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
///     |id| AgreeNode::new(params.clone(), id.0 != 0),
///     &mut NoFaults,
/// );
/// // Definition 2: one decision among the survivors, some node's input.
/// let verdict = result.verdict();
/// assert!(verdict.implicit() && verdict.valid);
/// # Ok::<(), ftc_core::params::ParamsError>(())
/// ```
pub type AgreeNode = MinAgreeNode<AgreeMsg>;

impl<C: Carrier> MinAgreeNode<C> {
    /// A node holding `input` in a domain whose top value is `top`.
    pub(crate) fn with_domain(params: Params, top: C::Value, input: C::Value) -> Self {
        MinAgreeNode {
            params,
            top,
            input,
            candidate: None,
            referee_candidates: Vec::new(),
            referee_min: None,
        }
    }

    /// Whether this node made itself a candidate.
    pub fn is_candidate(&self) -> bool {
        self.candidate.is_some()
    }
}

impl AgreeNode {
    /// Creates the protocol state for one node with the given input bit
    /// (`false` encodes 0, `true` encodes 1).
    pub fn new(params: Params, input_one: bool) -> Self {
        Self::with_domain(params, true, input_one)
    }
}

/// Candidates decide: a value below the top as soon as they hold it, the
/// held minimum at termination; non-candidates stay ⊥ (Definition 2).
impl<C: Carrier> Decides for MinAgreeNode<C> {
    type Value = C::Value;

    fn decision(&self) -> Option<C::Value> {
        self.candidate.as_ref().map(|(_, v)| *v)
    }

    fn input(&self) -> Option<C::Value> {
        Some(self.input)
    }
}

impl<C: Carrier> Protocol for MinAgreeNode<C> {
    type Msg = C;

    fn on_start(&mut self, ctx: &mut Ctx<'_, C>) {
        if !ctx.coin(self.params.candidate_probability()) {
            return;
        }
        let referees = ctx.sample_ports(self.params.referee_count());
        // Step 0: register with the referees — a top-holder sends a plain
        // registration, anyone else registers by sending its value.
        let msg = if self.input == self.top {
            C::REGISTER
        } else {
            C::carry(self.input)
        };
        for &p in &referees {
            ctx.send(p, msg);
        }
        self.candidate = Some((referees, self.input));
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, C>, inbox: &[Incoming<C>]) {
        let mut best: Option<C::Value> = None;
        for inc in inbox {
            let value = match inc.msg.heard() {
                Heard::Register => None,
                Heard::Value(v) => Some(v),
                Heard::Other => continue,
            };
            if !self.referee_candidates.contains(&inc.port) {
                self.referee_candidates.push(inc.port);
            }
            if let Some(v) = value {
                best = Some(best.map_or(v, |b| b.min(v)));
            }
        }
        // A value from a *candidate* informs our referee role, one from a
        // *referee* our candidate role. We cannot tell which role was
        // addressed, so we serve both — this at most doubles constants and
        // only strengthens propagation.
        let Some(v) = best else { return };
        let msg = C::carry(v);
        if self.referee_min.is_none_or(|m| v < m) {
            self.referee_min = Some(v);
            for &p in &self.referee_candidates {
                ctx.send(p, msg);
            }
        }
        if let Some((referees, cur)) = self.candidate.as_mut() {
            if v < *cur {
                *cur = v;
                for &p in referees.iter() {
                    ctx.send(p, msg);
                }
            }
        }
    }

    fn is_terminated(&self) -> bool {
        true // purely reactive after round 0
    }

    fn is_inert(&self) -> bool {
        true // an empty inbox leaves `best` unset: a strict no-op
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
                assert_eq!(s.decision(), None);
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
