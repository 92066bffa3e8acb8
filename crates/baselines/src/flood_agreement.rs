//! FloodSet: the folklore `(f+1)`-round crash-fault consensus.
//!
//! The classical baseline every message-complexity paper implicitly
//! compares against (cf. the deterministic rows of Table I): every node
//! broadcasts its value; whenever a node's value decreases it re-broadcasts;
//! after `f+1` rounds everyone decides its current value. Correctness is
//! the standard argument — in at least one of the `f+1` rounds no node
//! crashes, and after such a clean round all alive nodes hold the same
//! minimum.
//!
//! Success is [`Verdict::explicit`]: every survivor decided the same bit.
//!
//! Costs: `O(n²)` messages for binary inputs (each node broadcasts at most
//! twice), `f+1` rounds, works for **any** `f ≤ n−1`, explicit output,
//! KT0. Message complexity is what the paper's protocols beat.

use ftc_sim::prelude::*;

/// One node of the FloodSet binary consensus.
#[derive(Clone, Debug)]
pub struct FloodAgreeNode {
    /// Crash budget `f`; the protocol decides after `f+1` rounds.
    f: u32,
    /// Current value (`false` = 0 wins over `true` = 1).
    value: bool,
    /// Decided output, set at round `f+1`.
    decision: Option<bool>,
}

impl FloodAgreeNode {
    /// Creates a node with the given input bit, tolerating `f` crashes.
    pub fn new(f: u32, input_one: bool) -> Self {
        FloodAgreeNode {
            f,
            value: input_one,
            decision: None,
        }
    }

    /// The node's current (pre-decision) value.
    pub fn value(&self) -> bool {
        self.value
    }
}

impl Decides for FloodAgreeNode {
    type Value = bool;

    /// The node's decision, once made (`None` before round `f+1`).
    fn decision(&self) -> Option<bool> {
        self.decision
    }
}

impl Protocol for FloodAgreeNode {
    type Msg = bool;

    fn on_start(&mut self, ctx: &mut Ctx<'_, bool>) {
        ctx.broadcast(self.value);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, bool>, inbox: &[Incoming<bool>]) {
        if self.decision.is_some() {
            return;
        }
        let heard_zero = inbox.iter().any(|m| !m.msg);
        if heard_zero && self.value {
            self.value = false;
            ctx.broadcast(false);
        }
        if ctx.round() > self.f {
            self.decision = Some(self.value);
        }
    }

    fn is_terminated(&self) -> bool {
        self.decision.is_some()
    }
}

/// Round budget for a FloodSet run tolerating `f` crashes.
pub fn flood_round_budget(f: u32) -> u32 {
    f + 4
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_flood(
        n: u32,
        f: u32,
        seed: u64,
        inputs: impl Fn(NodeId) -> bool,
        adv: &mut dyn Adversary<bool>,
    ) -> RunResult<FloodAgreeNode> {
        let cfg = SimConfig::new(n)
            .seed(seed)
            .max_rounds(flood_round_budget(f));
        run(&cfg, |id| FloodAgreeNode::new(f, inputs(id)), adv)
    }

    #[test]
    fn fault_free_agrees_on_minimum() {
        let r = run_flood(64, 0, 1, |id| id.0 != 7, &mut NoFaults);
        let o = r.verdict();
        assert!(o.explicit());
        assert_eq!(o.value(), Some(false));
    }

    #[test]
    fn all_ones_stays_one() {
        let r = run_flood(64, 8, 2, |_| true, &mut NoFaults);
        let o = r.verdict();
        assert!(o.explicit());
        assert_eq!(o.value(), Some(true));
    }

    #[test]
    fn agrees_under_adversarial_partial_crashes() {
        for seed in 0..20 {
            let f = 24;
            let mut adv = RandomCrash::new(f as usize, f);
            let r = run_flood(64, f, seed, |id| id.0 != 0, &mut adv);
            let o = r.verdict();
            assert!(o.explicit(), "seed {seed}: {o:?}");
        }
    }

    #[test]
    fn message_complexity_is_quadratic_class() {
        let n = 256u32;
        let r = run_flood(n, 8, 3, |id| id.0 % 2 == 0, &mut NoFaults);
        let msgs = r.metrics.msgs_sent;
        // At least one full broadcast, at most three (initial + one change
        // + slack).
        let full = u64::from(n) * u64::from(n - 1);
        assert!(msgs >= full, "msgs {msgs}");
        assert!(msgs <= 3 * full, "msgs {msgs}");
    }

    #[test]
    fn takes_f_plus_one_rounds() {
        let f = 16;
        let r = run_flood(64, f, 4, |_| true, &mut NoFaults);
        assert!(r.metrics.rounds > f);
    }
}
