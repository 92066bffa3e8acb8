//! Hub-relay leader election for diameter-two networks.
//!
//! Chatterjee, Pandurangan & Robinson (ICDCN 2020) showed that
//! sublinear-message leader election extends beyond complete graphs to
//! any diameter-two network. This module implements the message-bounded
//! stand-in the topology matrix measures: on the hub topology
//! ([`ftc_sim::topology::Topology::DiameterTwo`]) every node forwards its
//! rank to all of its neighbours, hubs aggregate and re-broadcast the
//! running maximum, and after two relay rounds every node has seen the
//! global maximum — `O(n·h + h·n)` messages for `h` hubs, against the
//! `Θ(n²)` a flooding election pays on the complete graph.
//!
//! The protocol never asks for the graph: it broadcasts over whatever
//! ports the topology wired, so it also runs unmodified on the complete
//! graph (where every node acts as a hub and the cost degrades to the
//! flooding baseline — that contrast is the point of the matrix row).
//!
//! **Crash-fragile by design**: a crashed hub silently partitions its
//! spokes' view, which is exactly the kind of gap the paper's
//! crash-tolerant machinery exists to close.

use ftc_core::rank::Rank;
use ftc_sim::payload::Payload;
use ftc_sim::prelude::*;

/// Messages of the hub-relay election.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiamTwoMsg {
    /// Round 0: my drawn rank.
    Rank(u64),
    /// Round 1: the largest rank I have seen (hub relay).
    Max(u64),
}

impl Payload for DiamTwoMsg {
    fn size_bits(&self) -> u32 {
        50
    }
}

/// One node of the hub-relay election.
#[derive(Clone, Debug)]
pub struct DiamTwoLeNode {
    rank: u64,
    max_seen: u64,
    phase: u32,
    elected: Option<bool>,
}

impl DiamTwoLeNode {
    /// Creates a node.
    pub fn new() -> Self {
        DiamTwoLeNode {
            rank: 0,
            max_seen: 0,
            phase: 0,
            elected: None,
        }
    }

    /// Final verdict: `Some(true)` = ELECTED.
    pub fn elected(&self) -> Option<bool> {
        self.elected
    }
}

impl Default for DiamTwoLeNode {
    fn default() -> Self {
        Self::new()
    }
}

/// Definition 1: an elected node decides; success is one decider.
impl Decides for DiamTwoLeNode {
    type Value = ();

    fn decision(&self) -> Option<()> {
        (self.elected == Some(true)).then_some(())
    }
}

impl Protocol for DiamTwoLeNode {
    type Msg = DiamTwoMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, DiamTwoMsg>) {
        let n = ctx.n();
        self.rank = Rank::draw(ctx, n).0;
        self.max_seen = self.rank;
        ctx.broadcast(DiamTwoMsg::Rank(self.rank));
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, DiamTwoMsg>, inbox: &[Incoming<DiamTwoMsg>]) {
        for inc in inbox {
            let v = match inc.msg {
                DiamTwoMsg::Rank(r) | DiamTwoMsg::Max(r) => r,
            };
            self.max_seen = self.max_seen.max(v);
        }
        self.phase += 1;
        match self.phase {
            // Relay the running maximum; on the hub topology this is the
            // hop that carries spoke ranks across the hubs.
            1 => ctx.broadcast(DiamTwoMsg::Max(self.max_seen)),
            // Diameter two: every surviving node has now seen the global
            // maximum through some common hub.
            2 => self.elected = Some(self.max_seen == self.rank),
            _ => {}
        }
    }

    fn is_terminated(&self) -> bool {
        self.elected.is_some()
    }
}

/// Round budget: two relay rounds plus slack.
pub fn diam_two_round_budget() -> u32 {
    4
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_sim::topology::Topology;

    fn hub_cfg(n: u32, clusters: u32, seed: u64) -> SimConfig {
        SimConfig::new(n)
            .seed(seed)
            .max_rounds(diam_two_round_budget())
            .topology(Topology::DiameterTwo { clusters })
    }

    #[test]
    fn fault_free_unique_leader_on_the_hub_topology() {
        for seed in 0..20 {
            let cfg = hub_cfg(512, 9, seed);
            let r = run(&cfg, |_| DiamTwoLeNode::new(), &mut NoFaults);
            let elected = r.verdict().deciders;
            assert_eq!(elected, 1, "seed {seed}: {elected} elected");
        }
    }

    #[test]
    fn messages_scale_with_hub_count_not_n_squared() {
        let (n, h) = (1024u32, 10u32);
        let cfg = hub_cfg(n, h, 3);
        let r = run(&cfg, |_| DiamTwoLeNode::new(), &mut NoFaults);
        // Two broadcast rounds: spokes pay 2h each, hubs pay 2(n-1) each.
        let exact = u64::from(n - h) * 2 * u64::from(h) + u64::from(h) * 2 * u64::from(n - 1);
        assert_eq!(r.metrics.msgs_sent, exact);
        assert!(r.metrics.msgs_sent < u64::from(n) * u64::from(n) / 10);
    }

    #[test]
    fn also_runs_on_the_complete_graph() {
        let cfg = SimConfig::new(128)
            .seed(5)
            .max_rounds(diam_two_round_budget());
        let r = run(&cfg, |_| DiamTwoLeNode::new(), &mut NoFaults);
        assert_eq!(r.verdict().deciders, 1);
        // Every node is its own hub: flooding cost.
        assert_eq!(r.metrics.msgs_sent, 128 * 127 * 2);
    }

    #[test]
    fn mid_protocol_crashes_can_break_the_election() {
        // Crash-fragility motivates the paper's machinery: when the
        // maximum-rank node dies after broadcasting, every survivor sees
        // a maximum belonging to nobody and the election elects no one.
        let mut failures = 0;
        for seed in 0..30 {
            let cfg = hub_cfg(64, 4, seed);
            let mut adv = RandomCrash::new(16, 2);
            let r = run(&cfg, |_| DiamTwoLeNode::new(), &mut adv);
            if r.verdict().deciders != 1 {
                failures += 1;
            }
        }
        assert!(failures > 0, "expected at least one crash-induced failure");
    }
}
