//! Multi-valued implicit agreement — a natural generalisation of the
//! paper's binary protocol (extension, not in the paper).
//!
//! The binary protocol of Section V-A is "0-propagation": the committee
//! is biased towards the smaller value, and a single bit per message
//! suffices. Generalising to inputs from `{0, …, k−1}` is mechanical —
//! propagate the *minimum* value seen instead of just "a 0" — but the
//! accounting changes in an instructive way: messages now carry
//! `⌈log₂ k⌉` bits, and a candidate/referee may forward up to `log₂ k`
//! *improvements* instead of one, so the message complexity picks up a
//! `log k` factor: `O(√n·log^{3/2}n·log k/α^{3/2})` messages of
//! `O(log k)` bits. Validity and consistency carry over verbatim: the
//! agreed value is the minimum input held by any (surviving chain of)
//! candidate(s).
//!
//! The binary protocol is exactly the `k = 2` special case (with the
//! all-ones silence optimisation, which generalises to "nodes holding the
//! maximum possible value send only registrations").

use ftc_sim::ids::Port;
use ftc_sim::payload::{bits_for, Payload};
use ftc_sim::prelude::*;

use crate::params::Params;

/// Messages of the multi-valued agreement protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MultiMsg {
    /// Candidate → referee: registration, no value improvement implied
    /// (sent by candidates holding the maximum value, like `RegisterOne`).
    Register,
    /// A value flowing through the referee fabric (candidate → referee or
    /// referee → candidate). Doubles as registration.
    Value(u32),
}

impl Payload for MultiMsg {
    fn size_bits(&self) -> u32 {
        match self {
            MultiMsg::Register => 2,
            // Tag + value; the engine has no global k, so charge the
            // width of the carried value itself (≤ 32, O(log k) in use).
            MultiMsg::Value(v) => 2 + bits_for(u64::from(*v) + 2),
        }
    }
}

/// One node of the multi-valued implicit agreement protocol.
///
/// ```
/// use ftc_sim::prelude::*;
/// use ftc_core::multi_agreement::MultiAgreeNode;
/// use ftc_core::params::Params;
///
/// let params = Params::new(128, 1.0)?;
/// let k = 16u32;
/// let cfg = SimConfig::new(128).seed(2).max_rounds(params.agreement_round_budget());
/// let result = run(
///     &cfg,
///     |id| MultiAgreeNode::new(params.clone(), k, 3 + (id.0 % 13)),
///     &mut NoFaults,
/// );
/// let v = result.verdict();
/// assert!(v.implicit() && v.valid);
/// assert_eq!(v.value(), Some(3)); // the minimum input wins
/// # Ok::<(), ftc_core::params::ParamsError>(())
/// ```
#[derive(Clone, Debug)]
pub struct MultiAgreeNode {
    params: Params,
    /// Domain size `k` (inputs are `0..k`).
    k: u32,
    input: u32,
    /// Candidate role: referees + current minimum, if a candidate.
    candidate: Option<(Vec<Port>, u32)>,
    /// Referee role: registered candidate ports and current minimum.
    referee_candidates: Vec<Port>,
    referee_min: Option<u32>,
}

impl MultiAgreeNode {
    /// Creates a node with input `input ∈ {0, …, k−1}`.
    ///
    /// # Panics
    ///
    /// Panics if `input >= k` or `k < 2`.
    pub fn new(params: Params, k: u32, input: u32) -> Self {
        assert!(k >= 2, "domain must have at least two values");
        assert!(input < k, "input {input} outside domain 0..{k}");
        MultiAgreeNode {
            params,
            k,
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

    /// Candidate adopts `v` if it improves the current minimum, pushing
    /// the improvement to its referees.
    fn candidate_improve(&mut self, ctx: &mut Ctx<'_, MultiMsg>, v: u32) {
        if let Some((referees, cur)) = self.candidate.as_mut() {
            if v < *cur {
                *cur = v;
                let rs = referees.clone();
                for p in rs {
                    ctx.send(p, MultiMsg::Value(v));
                }
            }
        }
    }

    /// Referee adopts `v` if it improves, forwarding to its candidates.
    fn referee_improve(&mut self, ctx: &mut Ctx<'_, MultiMsg>, v: u32) {
        let improves = self.referee_min.is_none_or(|m| v < m);
        if improves {
            self.referee_min = Some(v);
            for p in self.referee_candidates.clone() {
                ctx.send(p, MultiMsg::Value(v));
            }
        }
    }
}

impl Decides for MultiAgreeNode {
    type Value = u32;

    /// The candidate's current (and at termination, decided) value;
    /// `None` for non-candidates (`⊥`).
    fn decision(&self) -> Option<u32> {
        self.candidate.as_ref().map(|(_, v)| *v)
    }

    fn input(&self) -> Option<u32> {
        Some(self.input)
    }
}

impl Protocol for MultiAgreeNode {
    type Msg = MultiMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, MultiMsg>) {
        if !ctx.coin(self.params.candidate_probability()) {
            return;
        }
        let referees = ctx.sample_ports(self.params.referee_count());
        // The maximum value plays the role of the binary protocol's "1":
        // holders only register. Everyone else pushes their value.
        let msg = if self.input == self.k - 1 {
            MultiMsg::Register
        } else {
            MultiMsg::Value(self.input)
        };
        for &p in &referees {
            ctx.send(p, msg);
        }
        self.candidate = Some((referees, self.input));
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, MultiMsg>, inbox: &[Incoming<MultiMsg>]) {
        let mut best: Option<u32> = None;
        for inc in inbox {
            match inc.msg {
                MultiMsg::Register => {
                    if !self.referee_candidates.contains(&inc.port) {
                        self.referee_candidates.push(inc.port);
                    }
                }
                MultiMsg::Value(v) => {
                    if !self.referee_candidates.contains(&inc.port) {
                        self.referee_candidates.push(inc.port);
                    }
                    best = Some(best.map_or(v, |b| b.min(v)));
                }
            }
        }
        if let Some(v) = best {
            self.referee_improve(ctx, v);
            if self.candidate.is_some() {
                self.candidate_improve(ctx, v);
            }
        }
    }

    fn is_terminated(&self) -> bool {
        true // purely reactive after round 0
    }

    fn is_inert(&self) -> bool {
        true // empty inbox ⇒ `best` stays `None` ⇒ strict no-op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_sim::ids::NodeId;

    /// The minimum input among nodes that became candidates — the value
    /// a fault-free run must agree on.
    fn min_candidate_input(result: &RunResult<MultiAgreeNode>) -> Option<u32> {
        result
            .all_states()
            .filter(|(_, s)| s.is_candidate())
            .filter_map(|(_, s)| s.input())
            .min()
    }

    /// Definition 2: one decision, and it is some node's input.
    fn success(v: &Verdict<u32>) -> bool {
        v.implicit() && v.valid
    }

    fn run_multi(
        n: u32,
        alpha: f64,
        k: u32,
        seed: u64,
        inputs: impl Fn(NodeId) -> u32,
        adv: &mut dyn Adversary<MultiMsg>,
    ) -> RunResult<MultiAgreeNode> {
        let params = Params::new(n, alpha).unwrap();
        let cfg = SimConfig::new(n)
            .seed(seed)
            .max_rounds(params.agreement_round_budget());
        run(
            &cfg,
            |id| MultiAgreeNode::new(params.clone(), k, inputs(id)),
            adv,
        )
    }

    #[test]
    fn fault_free_agrees_on_min_candidate_input() {
        for seed in 0..10 {
            let r = run_multi(256, 1.0, 64, seed, |id| 5 + (id.0 * 7) % 59, &mut NoFaults);
            let o = r.verdict();
            assert!(success(&o), "seed {seed}: {o:?}");
            assert_eq!(o.value(), min_candidate_input(&r));
        }
    }

    #[test]
    fn unanimous_input_survives() {
        let r = run_multi(128, 1.0, 16, 3, |_| 9, &mut NoFaults);
        let o = r.verdict();
        assert!(success(&o));
        assert_eq!(o.value(), Some(9));
    }

    #[test]
    fn all_maximum_inputs_stay_silent() {
        let r = run_multi(256, 1.0, 8, 4, |_| 7, &mut NoFaults);
        let o = r.verdict();
        assert!(success(&o));
        assert_eq!(o.value(), Some(7));
        let registration = r.metrics.per_round.first().map_or(0, |m| m.sent);
        assert_eq!(
            r.metrics.msgs_sent, registration,
            "max-holders must be quiet"
        );
    }

    #[test]
    fn survives_mass_crashes() {
        for seed in 0..10 {
            let mut adv = RandomCrash::new(128, 20);
            let r = run_multi(256, 0.5, 32, seed, |id| (id.0 * 13) % 32, &mut adv);
            let o = r.verdict();
            assert!(success(&o), "seed {seed}: {o:?}");
        }
    }

    #[test]
    fn binary_case_matches_binary_protocol_semantics() {
        // k = 2 must behave like the binary protocol: decide 0 iff some
        // candidate holds 0.
        for seed in 0..10 {
            let r = run_multi(
                256,
                1.0,
                2,
                seed,
                |id| u32::from(id.0 % 9 != 0),
                &mut NoFaults,
            );
            let o = r.verdict();
            assert!(success(&o), "seed {seed}");
            let min_cand = min_candidate_input(&r);
            assert_eq!(o.value(), min_cand);
        }
    }

    #[test]
    fn message_bits_scale_with_log_k() {
        // Same inputs modulo domain size: wider domains cost more bits
        // per message but the same order of messages.
        let small = run_multi(512, 1.0, 4, 7, |id| id.0 % 4, &mut NoFaults);
        let large = run_multi(
            512,
            1.0,
            1 << 16,
            7,
            |id| (id.0 * 7919) % (1 << 16),
            &mut NoFaults,
        );
        assert!(success(&small.verdict()));
        assert!(success(&large.verdict()));
        let small_bits_per_msg = small.metrics.bits_sent as f64 / small.metrics.msgs_sent as f64;
        let large_bits_per_msg = large.metrics.bits_sent as f64 / large.metrics.msgs_sent as f64;
        assert!(large_bits_per_msg > small_bits_per_msg);
        assert!(large_bits_per_msg <= 2.0 + 17.0, "still O(log k)");
    }

    #[test]
    fn chain_of_improvements_converges() {
        // Adversarial input layout: values descend so the minimum is held
        // by exactly one node; improvements must cascade.
        for seed in 0..5 {
            let r = run_multi(
                256,
                1.0,
                300,
                seed,
                |id| 299 - (id.0 % 300).min(299),
                &mut NoFaults,
            );
            let o = r.verdict();
            assert!(success(&o), "seed {seed}: {o:?}");
            assert_eq!(o.value(), min_candidate_input(&r));
        }
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_input_rejected() {
        let params = Params::new(64, 1.0).unwrap();
        let _ = MultiAgreeNode::new(params, 4, 4);
    }
}
