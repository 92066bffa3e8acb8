//! Deterministic broadcast leader election: the `O(n²)` baseline.
//!
//! Every node draws a rank and floods it; whenever a node learns a smaller
//! rank it re-floods; after `f+1` rounds each node knows the minimum rank
//! among nodes that survived long enough, and the owner of that rank
//! outputs `ELECTED`. This is the FloodSet structure applied to leader
//! election — explicit, deterministic given the ranks, `O(n²)` messages,
//! `f+1` rounds, any `f`.
//!
//! Against this, Theorem 4.1's `Õ(√n/α^{5/2})` is the headline improvement
//! (at the price of randomization and an implicit output).

use ftc_core::rank::Rank;
use ftc_sim::prelude::*;

/// One node of the broadcast (flooding) leader election.
#[derive(Clone, Debug)]
pub struct BroadcastLeNode {
    f: u32,
    rank: Option<Rank>,
    min_seen: Option<Rank>,
    elected: Option<bool>,
}

impl BroadcastLeNode {
    /// Creates a node tolerating `f` crashes.
    pub fn new(f: u32) -> Self {
        BroadcastLeNode {
            f,
            rank: None,
            min_seen: None,
            elected: None,
        }
    }

    /// Whether the node has decided, and what.
    pub fn elected(&self) -> Option<bool> {
        self.elected
    }

    /// The node's own rank.
    pub fn rank(&self) -> Option<Rank> {
        self.rank
    }

    /// The minimum rank this node has seen.
    pub fn min_seen(&self) -> Option<Rank> {
        self.min_seen
    }
}

/// A survivor's decision is the minimum rank it saw (`None` counts as a
/// value). Success is one distinct minimum and at most one elected
/// survivor.
impl Decides for BroadcastLeNode {
    type Value = Option<Rank>;

    fn decision(&self) -> Option<Option<Rank>> {
        Some(self.min_seen)
    }
}

impl Protocol for BroadcastLeNode {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        let n = ctx.n();
        let rank = Rank::draw(ctx.rng(), n);
        self.rank = Some(rank);
        self.min_seen = Some(rank);
        ctx.broadcast(rank.0);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Incoming<u64>]) {
        if self.elected.is_some() {
            return;
        }
        let incoming_min = inbox.iter().map(|m| Rank(m.msg)).min();
        if let (Some(new), Some(cur)) = (incoming_min, self.min_seen) {
            if new < cur {
                self.min_seen = Some(new);
                ctx.broadcast(new.0);
            }
        }
        if ctx.round() > self.f {
            self.elected = Some(self.min_seen == self.rank);
        }
    }

    fn is_terminated(&self) -> bool {
        self.elected.is_some()
    }
}

/// Round budget for a broadcast LE run tolerating `f` crashes.
pub fn broadcast_le_round_budget(f: u32) -> u32 {
    f + 4
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One distinct minimum among the survivors, and the number of them
    /// elected.
    fn judge(r: &RunResult<BroadcastLeNode>) -> (bool, usize) {
        let elected = r
            .surviving_states()
            .filter(|(_, s)| s.elected() == Some(true))
            .count();
        (r.verdict().implicit(), elected)
    }

    #[test]
    fn fault_free_unique_leader() {
        let cfg = SimConfig::new(64)
            .seed(1)
            .max_rounds(broadcast_le_round_budget(0));
        let r = run(&cfg, |_| BroadcastLeNode::new(0), &mut NoFaults);
        assert_eq!(judge(&r), (true, 1));
    }

    #[test]
    fn survives_random_crashes() {
        for seed in 0..10 {
            let f = 24u32;
            let cfg = SimConfig::new(64)
                .seed(seed)
                .max_rounds(broadcast_le_round_budget(f));
            let mut adv = RandomCrash::new(f as usize, f);
            let r = run(&cfg, |_| BroadcastLeNode::new(f), &mut adv);
            let (agreed_min, elected) = judge(&r);
            assert!(agreed_min && elected <= 1, "seed {seed}: {elected} elected");
        }
    }

    #[test]
    fn cost_is_quadratic_class() {
        let n = 256u32;
        let cfg = SimConfig::new(n)
            .seed(3)
            .max_rounds(broadcast_le_round_budget(4));
        let r = run(&cfg, |_| BroadcastLeNode::new(4), &mut NoFaults);
        let full = u64::from(n) * u64::from(n - 1);
        assert!(r.metrics.msgs_sent >= full);
        // Each node re-broadcasts only on strict decrease; with random
        // ranks that is O(log n) times in expectation — still Θ(n²) total.
        assert!(r.metrics.msgs_sent <= 20 * full);
    }
}
