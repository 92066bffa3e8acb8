//! The fault-free sublinear leader election of Kutten et al. (TCS 2015).
//!
//! In a complete network with **no** faults, Kutten, Pandurangan, Peleg,
//! Robinson & Trehan elect a leader in `O(1)` rounds with
//! `O(√n·log^{3/2} n)` messages — the result the paper extends to the
//! crash-fault setting, and the comparison point for the paper's
//! "asymptotically the same as fault-free" observation (experiment E9).
//!
//! One-shot structure: `Θ(log n)` self-selected candidates each contact
//! `Θ(√(n·log n))` random referees with their rank; each referee replies
//! with the maximum rank it has seen; a candidate that hears only its own
//! rank back from every referee is the leader. Pairwise referee
//! intersection whp makes the winner unique.
//!
//! **Fault-free only**: a single crash can break it, which is precisely
//! the gap the paper fills.

use ftc_core::rank::Rank;
use ftc_sim::ids::Port;
use ftc_sim::payload::Payload;
use ftc_sim::prelude::*;
use rand::prelude::*;

/// Messages of the Kutten et al. protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KuttenMsg {
    /// Candidate → referee: my rank.
    Bid(u64),
    /// Referee → candidate: largest rank I have seen.
    MaxSeen(u64),
}

impl Payload for KuttenMsg {
    fn size_bits(&self) -> u32 {
        50
    }
}

/// One node of the fault-free sublinear leader election.
#[derive(Clone, Debug)]
pub struct KuttenLeNode {
    rank: Option<Rank>,
    referees: Vec<Port>,
    /// Replies received so far (referee port, max rank it saw).
    replies: usize,
    beaten: bool,
    elected: Option<bool>,
    /// Referee role: the largest bid seen.
    max_bid: Option<u64>,
}

impl KuttenLeNode {
    /// Creates a node.
    pub fn new() -> Self {
        KuttenLeNode {
            rank: None,
            referees: Vec::new(),
            replies: 0,
            beaten: false,
            elected: None,
            max_bid: None,
        }
    }

    /// Whether this node is a candidate.
    pub fn is_candidate(&self) -> bool {
        self.rank.is_some()
    }

    /// Final verdict: `Some(true)` = ELECTED.
    pub fn elected(&self) -> Option<bool> {
        self.elected
    }
}

impl Default for KuttenLeNode {
    fn default() -> Self {
        Self::new()
    }
}

/// Definition 1: an elected node decides; success is one decider.
impl Decides for KuttenLeNode {
    type Value = ();

    fn decision(&self) -> Option<()> {
        (self.elected == Some(true)).then_some(())
    }
}

impl Protocol for KuttenLeNode {
    type Msg = KuttenMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, KuttenMsg>) {
        let n = ctx.n();
        let nf = f64::from(n);
        let cand_prob = (8.0 * nf.ln() / nf).min(1.0);
        if !ctx.rng().random_bool(cand_prob) {
            self.elected = Some(false);
            return;
        }
        let rank = Rank::draw(ctx.rng(), n);
        self.rank = Some(rank);
        let referees = ((2.0 * (nf * nf.ln()).sqrt()).ceil() as usize).min(n as usize - 1);
        self.referees = ctx.sample_ports(referees);
        for &p in &self.referees.clone() {
            ctx.send(p, KuttenMsg::Bid(rank.0));
        }
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, KuttenMsg>, inbox: &[Incoming<KuttenMsg>]) {
        let mut bids: Vec<(Port, u64)> = Vec::new();
        for inc in inbox {
            match inc.msg {
                KuttenMsg::Bid(b) => bids.push((inc.port, b)),
                KuttenMsg::MaxSeen(m) => {
                    self.replies += 1;
                    if let Some(r) = self.rank {
                        if m > r.0 {
                            self.beaten = true;
                        }
                    }
                }
            }
        }
        // Referee role: answer each bid with the running maximum.
        if !bids.is_empty() {
            let round_max = bids.iter().map(|&(_, b)| b).max().expect("non-empty");
            self.max_bid = Some(self.max_bid.map_or(round_max, |m| m.max(round_max)));
            let reply = self.max_bid.expect("just set");
            for (p, _) in bids {
                ctx.send(p, KuttenMsg::MaxSeen(reply));
            }
        }
        // Candidate role: after the single reply round, decide.
        if self.rank.is_some() && self.elected.is_none() && ctx.round() >= 2 {
            self.elected = Some(!self.beaten && self.replies > 0);
        }
    }

    fn is_terminated(&self) -> bool {
        self.elected.is_some()
    }
}

/// Round budget for the fault-free protocol (it is `O(1)`).
pub fn kutten_round_budget() -> u32 {
    5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_unique_leader_whp() {
        let mut wins = 0;
        for seed in 0..20 {
            let cfg = SimConfig::new(1024)
                .seed(seed)
                .max_rounds(kutten_round_budget());
            let r = run(&cfg, |_| KuttenLeNode::new(), &mut NoFaults);
            if r.verdict().deciders == 1 {
                wins += 1;
            }
        }
        assert!(wins >= 19, "{wins}/20 unique-leader runs");
    }

    #[test]
    fn messages_are_sublinear() {
        let n = 4096u32;
        let cfg = SimConfig::new(n).seed(1).max_rounds(kutten_round_budget());
        let r = run(&cfg, |_| KuttenLeNode::new(), &mut NoFaults);
        // O(√n·log^{3/2} n): far below n·log n at this size.
        let bound = f64::from(n).sqrt() * f64::from(n).ln().powf(1.5);
        assert!(
            (r.metrics.msgs_sent as f64) < 60.0 * bound,
            "messages {} vs bound {bound}",
            r.metrics.msgs_sent
        );
    }

    #[test]
    fn terminates_in_constant_rounds() {
        let cfg = SimConfig::new(2048)
            .seed(2)
            .max_rounds(kutten_round_budget());
        let r = run(&cfg, |_| KuttenLeNode::new(), &mut NoFaults);
        assert!(r.metrics.rounds <= 5);
    }

    #[test]
    fn breaks_under_a_single_adversarial_crash() {
        // Motivates the paper: crash the would-be winner mid-reply and the
        // fault-free protocol can produce zero or duplicate leaders.
        let mut failures = 0;
        for seed in 0..30 {
            let cfg = SimConfig::new(256)
                .seed(seed)
                .max_rounds(kutten_round_budget());
            // Probe to find the winner.
            let probe = run(&cfg, |_| KuttenLeNode::new(), &mut NoFaults);
            let winner = probe
                .all_states()
                .enumerate()
                .find(|(_, (_, s))| s.elected() == Some(true))
                .map(|(i, _)| NodeId(i as u32));
            let Some(w) = winner else { continue };
            let plan = FaultPlan::new().crash(w, 0, DeliveryFilter::KeepFirst(2));
            let mut adv = ScriptedCrash::new(plan);
            let r = run(&cfg, |_| KuttenLeNode::new(), &mut adv);
            if r.verdict().deciders != 1 {
                failures += 1;
            }
        }
        assert!(failures > 0, "expected at least one fault-induced failure");
    }
}
