//! A Chlebus–Kowalski-style gossip consensus (`O(n log n)` messages).
//!
//! Chlebus & Kowalski (SPAA 2009) gave a "locally scalable" randomized
//! consensus with `O(n log n)` messages and `O(log n)` rounds *in
//! expectation*, tolerating a linear fraction of crash faults — the
//! `[36]` row of Table I. As with the GK10 baseline (DESIGN.md §5), we
//! implement a simplified variant with the same headline behaviour: a
//! push-epidemic on the minimum value. Every node, every round, pushes its
//! current minimum to `FANOUT` uniformly random ports for `Θ(log n)`
//! rounds, then decides its minimum. A standard epidemic argument gives
//! all-alive-nodes convergence whp when the fault pattern is random; the
//! cost is exactly `FANOUT · n · Θ(log n)` messages — `O(n log n)`.
//!
//! Explicit output, KT0, linear resilience (in the measured, whp sense).

use ftc_sim::prelude::*;

/// Number of random push targets per node per round.
const FANOUT: u32 = 2;

/// Multiplier on `log₂ n` for the gossip length.
const ROUND_FACTOR: u32 = 3;

/// One node of the gossip (epidemic) consensus.
#[derive(Clone, Debug)]
pub struct GossipNode {
    input: bool,
    value: bool,
    rounds_total: u32,
    decision: Option<bool>,
}

impl GossipNode {
    /// Creates a node with the given input for an `n`-node network.
    pub fn new(n: u32, input_one: bool) -> Self {
        GossipNode {
            input: input_one,
            value: input_one,
            rounds_total: gossip_rounds(n),
            decision: None,
        }
    }

    fn push(&self, ctx: &mut Ctx<'_, bool>) {
        for _ in 0..FANOUT {
            let p = ctx.random_port();
            ctx.send(p, self.value);
        }
    }
}

/// Number of gossip rounds for an `n`-node network: `3·⌈log₂ n⌉ + 2`.
pub fn gossip_rounds(n: u32) -> u32 {
    ROUND_FACTOR * (32 - n.leading_zeros()) + 2
}

/// Round budget for a gossip run.
pub fn gossip_round_budget(n: u32) -> u32 {
    gossip_rounds(n) + 4
}

impl Decides for GossipNode {
    type Value = bool;

    /// The node's decision (explicit output).
    fn decision(&self) -> Option<bool> {
        self.decision
    }

    fn input(&self) -> Option<bool> {
        Some(self.input)
    }
}

impl Protocol for GossipNode {
    type Msg = bool;

    fn on_start(&mut self, ctx: &mut Ctx<'_, bool>) {
        self.push(ctx);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, bool>, inbox: &[Incoming<bool>]) {
        if self.decision.is_some() {
            return;
        }
        if inbox.iter().any(|m| !m.msg) {
            self.value = false;
        }
        if ctx.round() >= self.rounds_total {
            self.decision = Some(self.value);
        } else {
            self.push(ctx);
        }
    }

    fn is_terminated(&self) -> bool {
        self.decision.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_gossip(
        n: u32,
        seed: u64,
        inputs: impl Fn(NodeId) -> bool,
        adv: &mut dyn Adversary<bool>,
    ) -> RunResult<GossipNode> {
        let cfg = SimConfig::new(n)
            .seed(seed)
            .max_rounds(gossip_round_budget(n));
        run(&cfg, |id| GossipNode::new(n, inputs(id)), adv)
    }

    #[test]
    fn fault_free_converges_to_minimum() {
        for seed in 0..5 {
            let r = run_gossip(256, seed, |id| id.0 != 31, &mut NoFaults);
            let o = r.verdict();
            assert!(o.explicit() && o.valid, "seed {seed}: {o:?}");
            assert_eq!(o.value(), Some(false));
        }
    }

    #[test]
    fn survives_linear_random_crashes() {
        for seed in 0..10 {
            let mut adv = RandomCrash::new(100, 10);
            let r = run_gossip(256, seed, |id| id.0 % 4 == 0, &mut adv);
            let o = r.verdict();
            assert!(o.explicit() && o.valid, "seed {seed}: {o:?}");
        }
    }

    #[test]
    fn message_complexity_is_n_log_n_class() {
        let n = 1024u32;
        let r = run_gossip(n, 3, |_| true, &mut NoFaults);
        let expected = u64::from(FANOUT) * u64::from(n) * u64::from(gossip_rounds(n) + 1);
        assert!(r.metrics.msgs_sent <= expected);
        assert!(r.metrics.msgs_sent >= expected / 2);
    }

    #[test]
    fn all_zero_inputs_decide_zero() {
        let r = run_gossip(128, 5, |_| false, &mut NoFaults);
        let o = r.verdict();
        assert!(o.explicit() && o.valid);
        assert_eq!(o.value(), Some(false));
    }
}
