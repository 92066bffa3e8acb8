//! The fault-free sublinear implicit agreement of Augustine, Molla &
//! Pandurangan (PODC 2018, `[23]` in the paper).
//!
//! Reference `[23]` introduced the *implicit agreement* problem and gave
//! sublinear message bounds in the **fault-free** complete network —
//! the result Corollary 3 of the paper matches in the *crash-fault*
//! setting (up to polylog factors). Like the Kutten et al. leader
//! election, the structure is one-shot: `Θ(log n)` self-selected
//! candidates each consult `Θ(√(n·log n))` random referees; a referee
//! replies to each consulting candidate with the minimum input bit it
//! has been shown; candidates decide the minimum they hear back. Since
//! every pair of candidates shares a referee whp, all candidates see the
//! committee-global minimum and agree. `O(√n·log^{3/2}n)` messages,
//! `O(1)` rounds, zero fault tolerance — one crashed referee reply can
//! already split the committee, which is exactly the gap the paper
//! closes.

use ftc_sim::payload::Payload;
use ftc_sim::prelude::*;
use rand::prelude::*;

/// Messages of the fault-free implicit agreement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AugustineMsg {
    /// Candidate → referee: my input bit.
    Show(bool),
    /// Referee → candidate: the minimum bit shown to me.
    MinSeen(bool),
}

impl Payload for AugustineMsg {
    fn size_bits(&self) -> u32 {
        2
    }
}

/// One node of the fault-free implicit agreement.
#[derive(Clone, Debug)]
pub struct AugustineNode {
    input: bool,
    candidate: bool,
    value: bool,
    decision: Option<bool>,
    /// Referee role: minimum bit shown so far.
    min_seen: Option<bool>,
}

impl AugustineNode {
    /// Creates a node with the given input bit.
    pub fn new(input_one: bool) -> Self {
        AugustineNode {
            input: input_one,
            candidate: false,
            value: input_one,
            decision: None,
            min_seen: None,
        }
    }

    /// Whether this node became a candidate.
    pub fn is_candidate(&self) -> bool {
        self.candidate
    }
}

impl Decides for AugustineNode {
    type Value = bool;

    /// The node's decision (`None` = ⊥, the implicit-agreement default).
    fn decision(&self) -> Option<bool> {
        self.decision
    }

    fn input(&self) -> Option<bool> {
        Some(self.input)
    }
}

impl Protocol for AugustineNode {
    type Msg = AugustineMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, AugustineMsg>) {
        let n = ctx.n();
        let nf = f64::from(n);
        let cand_prob = (8.0 * nf.ln() / nf).min(1.0);
        if !ctx.rng().random_bool(cand_prob) {
            return;
        }
        self.candidate = true;
        let referees = ((2.0 * (nf * nf.ln()).sqrt()).ceil() as usize).min(n as usize - 1);
        let input = self.input;
        for p in ctx.sample_ports(referees) {
            ctx.send(p, AugustineMsg::Show(input));
        }
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, AugustineMsg>, inbox: &[Incoming<AugustineMsg>]) {
        let mut shows: Vec<(ftc_sim::ids::Port, bool)> = Vec::new();
        for inc in inbox {
            match inc.msg {
                AugustineMsg::Show(b) => shows.push((inc.port, b)),
                AugustineMsg::MinSeen(b) => {
                    if !b {
                        self.value = false;
                    }
                }
            }
        }
        if !shows.is_empty() {
            let round_min = shows.iter().all(|&(_, b)| b);
            let prev = self.min_seen.unwrap_or(true);
            self.min_seen = Some(prev && round_min);
            let reply = self.min_seen.expect("just set");
            for (p, _) in shows {
                ctx.send(p, AugustineMsg::MinSeen(reply));
            }
        }
        if self.candidate && self.decision.is_none() && ctx.round() >= 2 {
            self.decision = Some(self.value);
        }
    }

    fn is_terminated(&self) -> bool {
        !self.candidate || self.decision.is_some()
    }
}

/// Round budget (the protocol is `O(1)`).
pub fn augustine_round_budget() -> u32 {
    5
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Implicit-agreement success: one decision, and some node's input.
    fn success(v: &Verdict<bool>) -> bool {
        v.implicit() && v.valid
    }

    fn run_aug(
        n: u32,
        seed: u64,
        inputs: impl Fn(NodeId) -> bool,
        adv: &mut dyn Adversary<AugustineMsg>,
    ) -> RunResult<AugustineNode> {
        let cfg = SimConfig::new(n)
            .seed(seed)
            .max_rounds(augustine_round_budget());
        run(&cfg, |id| AugustineNode::new(inputs(id)), adv)
    }

    #[test]
    fn fault_free_agrees_whp() {
        let mut ok = 0;
        for seed in 0..20 {
            let r = run_aug(1024, seed, |id| id.0 % 2 == 0, &mut NoFaults);
            if success(&r.verdict()) {
                ok += 1;
            }
        }
        assert!(ok >= 19, "{ok}/20");
    }

    #[test]
    fn committee_minimum_wins() {
        for seed in 0..10 {
            let r = run_aug(1024, seed, |id| id.0 % 2 == 0, &mut NoFaults);
            let o = r.verdict();
            if !success(&o) {
                continue;
            }
            let min_cand_input = r
                .all_states()
                .filter(|(_, s)| s.is_candidate())
                .filter_map(|(_, s)| s.input())
                .min();
            assert_eq!(o.value(), min_cand_input, "seed {seed}");
        }
    }

    #[test]
    fn messages_are_sublinear() {
        let n = 4096u32;
        let cfg = SimConfig::new(n)
            .seed(1)
            .max_rounds(augustine_round_budget());
        let r = run(&cfg, |id| AugustineNode::new(id.0 % 3 == 0), &mut NoFaults);
        let bound = f64::from(n).sqrt() * f64::from(n).ln().powf(1.5);
        assert!(
            (r.metrics.msgs_sent as f64) < 60.0 * bound,
            "messages {} vs bound {bound}",
            r.metrics.msgs_sent
        );
    }

    #[test]
    fn crashes_can_split_the_committee() {
        // Zero fault tolerance: crash the single 0-showing candidate
        // mid-registration and the committee may split or decide 1 while
        // a decided 0 exists elsewhere — count any definition violation
        // across seeds. (This motivates the paper's protocol.)
        let mut violations = 0;
        for seed in 0..40 {
            // Find a candidate with input 0 in a probe run.
            let probe = run_aug(512, seed, |id| id.0 >= 40, &mut NoFaults);
            let zero_cand = probe
                .all_states()
                .find(|(_, s)| s.is_candidate() && s.input() == Some(false))
                .map(|(id, _)| id);
            let Some(target) = zero_cand else { continue };
            let plan =
                FaultPlan::new().crash(target, 0, ftc_sim::adversary::DeliveryFilter::KeepFirst(3));
            let mut adv = ScriptedCrash::new(plan);
            let r = run_aug(512, seed, |id| id.0 >= 40, &mut adv);
            let o = r.verdict();
            if !success(&o) || o.value() == Some(true) {
                // Split, or the surviving committee missed the 0 that a
                // (now dead) decider may have decided — fragile either way.
                violations += 1;
            }
        }
        assert!(violations > 0, "expected fragility under crashes");
    }
}
