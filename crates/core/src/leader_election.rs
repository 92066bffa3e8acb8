//! Fault-tolerant implicit leader election (Section IV-A, Theorem 4.1).
//!
//! The protocol in one breath: every node makes itself a *candidate* with
//! probability `Θ(log n/(α·n))`; each candidate samples `Θ(√(n·log n/α))`
//! *referee* nodes and registers its random rank with them; referees
//! forward the ranks they collect, giving every candidate a `rankList`;
//! then, in `O(log n/α)` four-round iterations, candidates repeatedly
//! propose the minimum viable rank they know through their referees,
//! referees echo back the *maximum* proposal they heard (flagging whether
//! it was a self-proposal, i.e. a leadership claim), and candidates prune
//! every rank below the echoed maximum. A candidate whose own rank comes
//! back as the maximum claims leadership; a claim that is delivered without
//! the claimer crashing settles every candidate on that leader, because any
//! two candidates share a non-faulty referee (Lemma 3). If the current
//! minimum crashes mid-broadcast, its rank is eventually timed out and
//! removed, and the next minimum takes its place — at most one rank dies
//! per iteration, and the committee has `O(log n/α)` members (Lemma 1).
//!
//! A referee with `k` registered candidates owes `k(k−1)` forwards and may
//! send each port one per round (CONGEST). It keeps them in a *send
//! calendar* — one bucket per future round, filled as ranks are booked —
//! so a round costs the forwards it sends, not the backlog behind them.
//!
//! The result: `O(log n/α)` rounds and `O(√n·log^{5/2}n/α^{5/2})` messages
//! whp, tolerating up to `n − log²n` crash faults, in an anonymous KT0
//! network. A crashed node is never elected (it may crash *after* the
//! election; the leader is non-faulty with probability ≥ α).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ftc_sim::ids::{NodeId, Port, Round};
use ftc_sim::prelude::*;

use crate::messages::LeMsg;
use crate::params::Params;
use crate::rank::Rank;

/// How many proposer-silent phase-A activations a candidate waits on one
/// support target before declaring the target dead (the paper's "didn't
/// receive any updates in the next 4 rounds", Step 4, with slack for the
/// two-hop candidate↔referee round trip).
const SUPPORT_PATIENCE: u32 = 3;

/// A node's final verdict for the implicit leader-election problem
/// (Definition 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeStatus {
    /// The node output `ELECTED` (claimed leadership and never retracted).
    Elected,
    /// The node output `NON_ELECTED`.
    NonElected,
}

/// State of a node that chose to be a candidate.
#[derive(Clone, Debug)]
struct CandidateState {
    /// Own rank (= own ID).
    id: Rank,
    /// Ports of the sampled referees.
    referees: Vec<Port>,
    /// Ranks of (known) candidates, own rank included; pruned from below
    /// as higher maxima are echoed.
    rank_list: BTreeSet<Rank>,
    /// Ranks this candidate has already proposed at a phase-A activation
    /// ("a node proposes a rank from its rankList only once").
    proposed: BTreeSet<Rank>,
    /// Ranks discovered to be dead (timed out); never re-admitted.
    dead: BTreeSet<Rank>,
    /// Largest echoed maximum processed so far; everything below is pruned.
    floor: Rank,
    /// The rank this candidate is currently waiting on (its own last
    /// proposal or an adopted support target).
    support: Option<Rank>,
    /// Phase-A activations spent waiting on `support` without progress.
    support_age: u32,
    /// Support values already relayed (the paper's "sends ⟨ID_u, p̃max⟩"
    /// happens once per adopted value).
    relayed: BTreeSet<Rank>,
    /// Current leader belief.
    leader: Option<Rank>,
    /// Whether this node claimed leadership (and hasn't been superseded).
    marked_leader: bool,
    /// Settled: believes a leader and awaits nothing.
    settled: bool,
}

/// State of a node in its referee role (any node may be sampled).
#[derive(Clone, Debug, Default)]
struct RefereeState {
    /// Ports of the candidates that registered with this referee.
    candidates: Vec<Port>,
    /// First-seen arrival port of each known rank (to avoid echoing a
    /// candidate its own rank during pre-processing). Ordered map: the
    /// forwards to a newcomer are booked by iterating the keys, so the
    /// container's iteration order must be deterministic for runs to
    /// replay exactly.
    rank_origin: BTreeMap<Rank, Port>,
    /// The send calendar: bucket `i` holds, in the order they were booked,
    /// the `(destination port, rank)` forwards to send `i` drains from
    /// now. A port appears at most once per bucket (CONGEST: one message
    /// per port per round) and no bucket is empty.
    calendar: VecDeque<Vec<(Port, Rank)>>,
    /// Forwards still owed to `candidates[i]`. One leaves per drain, so
    /// they fill buckets `0..owed[i]` and the next one joins bucket
    /// `owed[i]`; the longest debt is the calendar's length.
    owed: Vec<usize>,
}

impl RefereeState {
    /// Books `forward` for the first drain that sends its port, whose
    /// debt is `owed`, nothing yet. A bucket opened for it holds `room`.
    fn book(
        calendar: &mut VecDeque<Vec<(Port, Rank)>>,
        owed: &mut usize,
        forward: (Port, Rank),
        room: usize,
    ) {
        if *owed == calendar.len() {
            calendar.push_back(Vec::with_capacity(room));
        }
        calendar[*owed].push(forward);
        *owed += 1;
    }

    /// Handles `Register { rank }` arriving on port `from`. `room` is how
    /// many candidates the caller expects in all: a bucket ends up with
    /// one entry per candidate, and sized once it carries no doubling
    /// slack into the first-round peak, where the calendars are most of a
    /// run's heap. Only a hint — a bucket that outgrows it grows.
    fn register(&mut self, from: Port, rank: Rank, room: usize) {
        if !self.candidates.contains(&from) {
            // Forward all previously known ranks to the newcomer (it is
            // the origin of none of them)...
            let mut owed = 0;
            for &known in self.rank_origin.keys() {
                Self::book(&mut self.calendar, &mut owed, (from, known), room);
            }
            self.candidates.push(from);
            self.owed.push(owed);
        }
        // A duplicate rank (collision or rebroadcast) keeps its first
        // origin and is not forwarded again; a new port still got the
        // known ranks above.
        if !self.rank_origin.contains_key(&rank) {
            // ...and the new rank to all previously registered candidates.
            for (&p, owed) in self.candidates.iter().zip(&mut self.owed) {
                if p != from {
                    Self::book(&mut self.calendar, owed, (p, rank), room);
                }
            }
            self.rank_origin.insert(rank, from);
        }
    }

    /// Takes this round's forwards, in send order: one per port in debt.
    fn drain(&mut self) -> Vec<(Port, Rank)> {
        debug_assert_eq!(
            self.owed.iter().copied().max().unwrap_or(0),
            self.calendar.len()
        );
        debug_assert!(self.calendar.iter().all(|bucket| !bucket.is_empty()));
        let Some(due) = self.calendar.pop_front() else {
            return Vec::new();
        };
        for owed in &mut self.owed {
            *owed = owed.saturating_sub(1);
        }
        due
    }
}

/// One node of the fault-tolerant implicit leader-election protocol.
///
/// Construct per node with [`LeNode::new`] and run with
/// [`ftc_sim::engine::run`]; evaluate the outcome with
/// [`LeOutcome::evaluate`].
///
/// ```
/// use ftc_sim::prelude::*;
/// use ftc_core::leader_election::{LeNode, LeOutcome};
/// use ftc_core::params::Params;
///
/// let params = Params::new(64, 1.0)?;
/// let cfg = SimConfig::new(64).seed(3).max_rounds(params.le_round_budget());
/// let result = run(&cfg, |_| LeNode::new(params.clone()), &mut NoFaults);
/// let outcome = LeOutcome::evaluate(&result);
/// assert!(outcome.success);
/// # Ok::<(), ftc_core::params::ParamsError>(())
/// ```
#[derive(Clone, Debug)]
pub struct LeNode {
    params: Params,
    /// First round of the iteration phase.
    t0: Round,
    candidate: Option<CandidateState>,
    referee: RefereeState,
}

impl LeNode {
    /// Creates the protocol state for one node.
    pub fn new(params: Params) -> Self {
        LeNode {
            t0: params.preprocess_rounds(),
            params,
            candidate: None,
            referee: RefereeState::default(),
        }
    }

    /// This node's verdict (Definition 1). Every node outputs; unsettled
    /// candidates output `NON_ELECTED` like everyone else.
    pub fn status(&self) -> LeStatus {
        match &self.candidate {
            Some(c) if c.marked_leader => LeStatus::Elected,
            _ => LeStatus::NonElected,
        }
    }

    /// Whether this node made itself a candidate.
    pub fn is_candidate(&self) -> bool {
        self.candidate.is_some()
    }

    /// The candidate's rank, if this node is a candidate.
    pub fn rank(&self) -> Option<Rank> {
        self.candidate.as_ref().map(|c| c.id)
    }

    /// The candidate's current leader belief, if any.
    pub fn leader_belief(&self) -> Option<Rank> {
        self.candidate.as_ref().and_then(|c| c.leader)
    }

    /// Whether this candidate has settled on a leader.
    pub fn is_settled(&self) -> bool {
        self.candidate.as_ref().is_none_or(|c| c.settled)
    }

    /// The KT0 ports of the referees this candidate sampled, if this node
    /// is a candidate. Ports are the node's private view of its neighbours;
    /// callers map them to node ids with [`ftc_sim::round::PortMap`].
    ///
    /// Fault seeders use this: constructing a split-brain counterexample
    /// requires crashing exactly the referees two candidates share, which
    /// means reading the sampled sets out of a probe run.
    pub fn referee_ports(&self) -> Option<&[Port]> {
        self.candidate.as_ref().map(|c| c.referees.as_slice())
    }

    /// Whether `round` is a phase-A (proposal) activation.
    fn is_phase_a(&self, round: Round) -> bool {
        round >= self.t0 && (round - self.t0).is_multiple_of(4)
    }

    // ------------------------------------------------------------------
    // Referee role
    // ------------------------------------------------------------------

    fn referee_echo(
        &mut self,
        ctx: &mut Ctx<'_, LeMsg>,
        proposals: &[(Rank, Rank)], // (id, value) received this round
    ) {
        if proposals.is_empty() {
            return;
        }
        let value = proposals.iter().map(|&(_, v)| v).max().expect("non-empty");
        let claimed = proposals.iter().any(|&(id, v)| v == value && id == value);
        for &p in &self.referee.candidates {
            ctx.send(p, LeMsg::Echo { value, claimed });
        }
    }

    // ------------------------------------------------------------------
    // Candidate role
    // ------------------------------------------------------------------

    /// Sends `Propose{id, value}` to all referees.
    fn send_proposal(cand: &CandidateState, ctx: &mut Ctx<'_, LeMsg>, value: Rank) {
        for &p in &cand.referees {
            ctx.send(p, LeMsg::Propose { id: cand.id, value });
        }
    }

    /// Processes the maximum echo of this activation (Step 3 logic).
    fn candidate_process_echo(&mut self, ctx: &mut Ctx<'_, LeMsg>, value: Rank, claimed: bool) {
        let Some(cand) = self.candidate.as_mut() else {
            return;
        };
        if value < cand.floor {
            return; // stale echo, already superseded
        }
        cand.floor = cand.floor.max(value);
        // "removes all the ranks smaller than the received rank"
        cand.rank_list = cand.rank_list.split_off(&value);

        if value == cand.id {
            // Our own rank is the maximum: claim leadership (once) and
            // re-broadcast the claim so it reaches every candidate's
            // referees (Step 3, "sends ⟨ID_u, p̃max⟩ ... and marks itself").
            if !cand.marked_leader {
                cand.marked_leader = true;
                cand.leader = Some(cand.id);
                cand.settled = true;
                cand.support = None;
                let id = cand.id;
                Self::send_proposal(cand, ctx, id);
            }
            return;
        }

        // The maximum is someone else's rank; a claim we may have made for
        // a smaller rank is superseded.
        if cand.marked_leader && cand.id < value {
            cand.marked_leader = false;
            cand.settled = false;
            cand.leader = None;
        }

        if claimed {
            // The owner of `value` proposed itself and the claim got
            // through: adopt it and relay once ("u sends ⟨ID_u, p̃max⟩ and
            // considers v as the leader until any further updates").
            cand.leader = Some(value);
            cand.settled = true;
            cand.support = None;
            cand.support_age = 0;
            if cand.relayed.insert(value) {
                Self::send_proposal(cand, ctx, value);
            }
        } else {
            // An unclaimed maximum: support it if we know the rank,
            // otherwise out-propose it with the next higher rank we know
            // (or adopt it into the list if we know nothing higher).
            cand.settled = false;
            if cand.dead.contains(&value) {
                // We already know this rank is dead; ignore — our next
                // phase-A proposal will out-propose it.
                return;
            }
            if !cand.rank_list.contains(&value) {
                match cand.rank_list.range(value..).next().copied() {
                    Some(_higher) => {
                        // Next phase-A proposal (min of pruned list) is
                        // already ≥ `value`; nothing extra to send now.
                    }
                    None => {
                        cand.rank_list.insert(value);
                    }
                }
            }
            if cand.rank_list.contains(&value) && cand.support != Some(value) {
                cand.support = Some(value);
                cand.support_age = 0;
                if cand.relayed.insert(value) {
                    Self::send_proposal(cand, ctx, value);
                }
            }
        }
    }

    /// Phase-A activation: propose the minimum viable rank (Step 1),
    /// ageing out dead support targets (Step 4).
    fn candidate_phase_a(&mut self, ctx: &mut Ctx<'_, LeMsg>) {
        let Some(cand) = self.candidate.as_mut() else {
            return;
        };
        if cand.settled {
            return;
        }

        // Step 4: if we have been waiting on the same target too long, the
        // target's owner crashed before its claim reached us — drop it.
        if let Some(target) = cand.support {
            cand.support_age += 1;
            if cand.support_age >= SUPPORT_PATIENCE {
                cand.rank_list.remove(&target);
                cand.dead.insert(target);
                cand.support = None;
                cand.support_age = 0;
            }
        }

        // Step 1: propose the smallest not-yet-proposed rank; fall back to
        // re-proposing the current minimum so an unsettled candidate never
        // goes silent (its referees then echo *something* back).
        let value = cand
            .rank_list
            .iter()
            .find(|r| !cand.proposed.contains(r))
            .copied()
            .or_else(|| cand.rank_list.first().copied());
        let Some(value) = value else {
            // Rank list empty (everything timed out): fall back to self.
            cand.rank_list.insert(cand.id);
            return;
        };
        cand.proposed.insert(value);
        if cand.support.is_none() {
            cand.support = Some(value);
            cand.support_age = 0;
        }
        Self::send_proposal(cand, ctx, value);
    }
}

impl Protocol for LeNode {
    type Msg = LeMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, LeMsg>) {
        if !ctx.coin(self.params.candidate_probability()) {
            return;
        }
        let n = ctx.n();
        let id = Rank::draw(ctx, n);
        let referees = ctx.sample_ports(self.params.referee_count());
        let mut rank_list = BTreeSet::new();
        rank_list.insert(id);
        for &p in &referees {
            ctx.send(p, LeMsg::Register { rank: id });
        }
        self.candidate = Some(CandidateState {
            id,
            referees,
            rank_list,
            proposed: BTreeSet::new(),
            dead: BTreeSet::new(),
            floor: Rank(0),
            support: None,
            support_age: 0,
            relayed: BTreeSet::new(),
            leader: None,
            marked_leader: false,
            settled: false,
        });
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, LeMsg>, inbox: &[Incoming<LeMsg>]) {
        // Split the inbox by role.
        let mut proposals: Vec<(Rank, Rank)> = Vec::new();
        let mut echo_max: Option<(Rank, bool)> = None;
        for inc in inbox {
            match &inc.msg {
                // Candidates register in round 0, so registrations arrive
                // together and alone: the inbox is the referee's in-degree.
                LeMsg::Register { rank } => self.referee.register(inc.port, *rank, inbox.len()),
                LeMsg::ForwardRank { rank } => {
                    if let Some(cand) = self.candidate.as_mut() {
                        if *rank >= cand.floor && !cand.dead.contains(rank) {
                            cand.rank_list.insert(*rank);
                        }
                    }
                }
                LeMsg::Propose { id, value } => proposals.push((*id, *value)),
                LeMsg::Echo { value, claimed } => {
                    echo_max = match echo_max {
                        Some((v, c)) if v > *value => Some((v, c)),
                        Some((v, c)) if v == *value => Some((v, c || *claimed)),
                        _ => Some((*value, *claimed)),
                    };
                }
                LeMsg::Announce { .. } => {
                    // Only used by the explicit extension; ignored here.
                }
            }
        }

        // Referee role: forward pre-processing ranks, echo proposals.
        for (port, rank) in self.referee.drain() {
            ctx.send(port, LeMsg::ForwardRank { rank });
        }
        self.referee_echo(ctx, &proposals);

        // Candidate role: process the round's maximum echo, then (on
        // phase-A activations) propose.
        if let Some((value, claimed)) = echo_max {
            self.candidate_process_echo(ctx, value, claimed);
        }
        if self.is_phase_a(ctx.round()) {
            self.candidate_phase_a(ctx);
        }
    }

    fn is_terminated(&self) -> bool {
        let cand_done = self.candidate.as_ref().is_none_or(|c| c.settled);
        cand_done && self.referee.calendar.is_empty()
    }

    fn is_inert(&self) -> bool {
        // With an empty inbox, `on_round` only acts through the referee's
        // send calendar and the candidate's phase-A timer, and phase A is a
        // no-op for a settled (or absent) candidate — exactly the
        // `is_terminated` condition. No RNG is drawn on that path, so a
        // skipped activation is indistinguishable from a run one.
        self.is_terminated()
    }
}

/// Evaluation of one leader-election execution against Definition 1 and
/// Theorem 4.1's guarantees.
#[derive(Clone, Debug)]
pub struct LeOutcome {
    /// Nodes that made themselves candidates.
    pub candidate_count: usize,
    /// Candidates alive at the end.
    pub alive_candidates: usize,
    /// Alive nodes whose status is `Elected`.
    pub elected_alive: Vec<NodeId>,
    /// The leader rank all alive candidates agree on, when they do.
    pub agreed_leader: Option<Rank>,
    /// Whether all alive candidates hold *some* leader belief.
    pub all_settled: bool,
    /// The elected node, when the election succeeded.
    pub leader_node: Option<NodeId>,
    /// Whether the elected node is in the adversary's faulty set (it may
    /// still be alive — faulty nodes may never crash).
    pub leader_is_faulty: bool,
    /// Definition-1 success: a unique elected node, consistent beliefs.
    pub success: bool,
}

impl LeOutcome {
    /// Scores a finished run.
    pub fn evaluate(result: &RunResult<LeNode>) -> LeOutcome {
        let candidate_count = result.states.iter().filter(|s| s.is_candidate()).count();
        let alive_candidates = result
            .surviving_states()
            .filter(|(_, s)| s.is_candidate())
            .count();

        let elected_alive: Vec<NodeId> = result
            .surviving_states()
            .filter(|(_, s)| s.status() == LeStatus::Elected)
            .map(|(id, _)| id)
            .collect();
        let elected_total = result
            .all_states()
            .filter(|(_, s)| s.status() == LeStatus::Elected)
            .count();

        // Beliefs of alive candidates.
        let beliefs: Vec<Option<Rank>> = result
            .surviving_states()
            .filter(|(_, s)| s.is_candidate())
            .map(|(_, s)| s.leader_belief())
            .collect();
        let all_settled = !beliefs.is_empty() && beliefs.iter().all(|b| b.is_some());
        let distinct: BTreeSet<Rank> = beliefs.iter().flatten().copied().collect();
        let agreed_leader = if all_settled && distinct.len() == 1 {
            distinct.first().copied()
        } else {
            None
        };

        // The elected node: the unique node (alive or crashed) whose
        // marked claim matches the agreed leader rank.
        let leader_node = agreed_leader.and_then(|l| {
            let holders: Vec<NodeId> = result
                .all_states()
                .filter(|(_, s)| s.status() == LeStatus::Elected && s.rank() == Some(l))
                .map(|(id, _)| id)
                .collect();
            (holders.len() == 1).then(|| holders[0])
        });

        // Definition 1: exactly one node ELECTED, everyone else
        // NON_ELECTED. We additionally require belief consistency among
        // alive candidates (the paper's correctness argument, Thm 4.1).
        let unique_elected = match (leader_node, elected_alive.len()) {
            (Some(ln), 0) => {
                // Leader crashed after election — allowed, as long as no
                // *alive* node also claims.
                result.crashed_at[ln.index()].is_some()
            }
            (Some(ln), 1) => elected_alive[0] == ln && elected_total == 1,
            _ => false,
        };
        let success = unique_elected && agreed_leader.is_some();

        let leader_is_faulty = leader_node.is_some_and(|id| result.faulty.contains(id));

        LeOutcome {
            candidate_count,
            alive_candidates,
            elected_alive,
            agreed_leader,
            all_settled,
            leader_node,
            leader_is_faulty,
            success,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_sim::adversary::{DeliveryFilter, FaultPlan, ScriptedCrash};

    fn run_le(n: u32, alpha: f64, seed: u64, adv: &mut dyn Adversary<LeMsg>) -> RunResult<LeNode> {
        let params = Params::new(n, alpha).unwrap();
        let cfg = SimConfig::new(n)
            .seed(seed)
            .max_rounds(params.le_round_budget());
        run(&cfg, |_| LeNode::new(params.clone()), adv)
    }

    #[test]
    fn fault_free_elects_unique_leader() {
        for seed in 0..10 {
            let result = run_le(128, 1.0, seed, &mut NoFaults);
            let o = LeOutcome::evaluate(&result);
            assert!(o.success, "seed {seed}: {o:?}");
            assert_eq!(o.elected_alive.len(), 1);
            assert!(o.all_settled);
        }
    }

    #[test]
    fn survives_eager_mass_crash() {
        // Half the network crashes before sending anything.
        for seed in 0..10 {
            let mut adv = EagerCrash::new(64);
            let result = run_le(128, 0.5, seed, &mut adv);
            let o = LeOutcome::evaluate(&result);
            assert!(o.success, "seed {seed}: {o:?}");
        }
    }

    #[test]
    fn survives_random_mid_protocol_crashes() {
        for seed in 0..10 {
            let mut adv = RandomCrash::new(96, 40);
            let result = run_le(256, 0.5, seed, &mut adv);
            let o = LeOutcome::evaluate(&result);
            assert!(o.success, "seed {seed}: {o:?}");
        }
    }

    #[test]
    fn crashed_node_is_never_the_agreed_leader() {
        // Even when the leader crashes post-election, the agreed rank must
        // belong to a node that was alive when it claimed.
        for seed in 0..20 {
            let mut adv = RandomCrash::new(100, 60);
            let result = run_le(200, 0.5, seed, &mut adv);
            let o = LeOutcome::evaluate(&result);
            if !o.success {
                continue; // rare failures counted elsewhere
            }
            let leader = o.leader_node.unwrap();
            // The claim itself happened pre-crash by construction: the
            // node's own state says Elected, which only a live activation
            // can set.
            assert!(result.states[leader.index()].status() == LeStatus::Elected);
        }
    }

    #[test]
    fn message_complexity_is_sublinear_at_scale() {
        let n = 4096u32;
        let result = run_le(n, 1.0, 7, &mut NoFaults);
        let o = LeOutcome::evaluate(&result);
        assert!(o.success, "{o:?}");
        let msgs = result.metrics.msgs_sent as f64;
        // Theorem 4.1 bound with generous constant; must at least be o(n²)
        // and in practice well below n·log n at this size.
        let bound = Params::new(n, 1.0).unwrap().le_message_bound();
        assert!(
            msgs < 20.0 * bound,
            "messages {msgs} vs theoretical bound {bound}"
        );
    }

    #[test]
    fn scripted_crash_of_min_rank_candidate_recovers() {
        // Find the minimum-rank candidate of a seeded run, then re-run with
        // that node crashing right as iterations begin.
        let params = Params::new(128, 0.5).unwrap();
        let probe = run_le(128, 0.5, 11, &mut NoFaults);
        let min_cand = probe
            .all_states()
            .filter_map(|(id, s)| s.rank().map(|r| (r, id)))
            .min()
            .expect("some candidate")
            .1;
        let plan = FaultPlan::new().crash(
            min_cand,
            params.preprocess_rounds(),
            DeliveryFilter::KeepFirst(1),
        );
        let mut adv = ScriptedCrash::new(plan);
        let result = run_le(128, 0.5, 11, &mut adv);
        let o = LeOutcome::evaluate(&result);
        assert!(o.success, "{o:?}");
        assert_ne!(o.leader_node, Some(min_cand), "dead node won");
    }

    #[test]
    fn non_candidates_output_non_elected() {
        let result = run_le(64, 1.0, 3, &mut NoFaults);
        for (_, s) in result.all_states() {
            if !s.is_candidate() {
                assert_eq!(s.status(), LeStatus::NonElected);
            }
        }
    }

    #[test]
    fn terminates_well_before_round_budget() {
        let params = Params::new(256, 1.0).unwrap();
        let result = run_le(256, 1.0, 5, &mut NoFaults);
        assert!(
            result.metrics.rounds < params.le_round_budget() / 2,
            "took {} of {} rounds",
            result.metrics.rounds,
            params.le_round_budget()
        );
    }

    #[test]
    fn congest_per_edge_load_is_logarithmic() {
        let result = run_le(512, 1.0, 9, &mut NoFaults);
        // Largest per-edge-per-round load should be one message (≤ 100
        // bits), not a growing function of n.
        assert!(
            result.metrics.max_edge_bits_per_round <= 200,
            "edge load {}",
            result.metrics.max_edge_bits_per_round
        );
    }

    #[test]
    fn capped_run_metrics_replay_exactly() {
        // Regression: referee forwarding once iterated a HashMap to build
        // its forward queue, so the number of *attempted* sends varied
        // between identical runs. Delivered messages were unaffected, but
        // under a send cap the suppressed counter (and with edge failures
        // the lost counter) drifted. Every metric must replay bit-exact.
        let params = Params::new(256, 0.5).unwrap();
        let run_once = || {
            let cfg = SimConfig::new(256)
                .seed(0x8E)
                .max_rounds(params.le_round_budget())
                .send_cap(48)
                .edge_failure_prob(0.3);
            let mut adv = EagerCrash::new(params.max_faults());
            run(&cfg, |_| LeNode::new(params.clone()), &mut adv)
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.metrics.msgs_sent, b.metrics.msgs_sent);
        assert_eq!(a.metrics.msgs_suppressed, b.metrics.msgs_suppressed);
        assert_eq!(a.metrics.msgs_lost_edges, b.metrics.msgs_lost_edges);
        assert_eq!(a.metrics.rounds, b.metrics.rounds);
        assert_eq!(a.metrics.bits_sent, b.metrics.bits_sent);
    }

    /// The forward plane as it was before the send calendar, verbatim: one
    /// FIFO that every drain rescans whole, sending the first pending
    /// entry of each port and requeueing the rest. O(backlog) a round, and
    /// the definition of the order `RefereeState` must reproduce.
    #[derive(Default)]
    struct ScanModel {
        candidates: Vec<Port>,
        rank_origin: BTreeMap<Rank, Port>,
        forward_queue: VecDeque<(Port, Rank)>,
    }

    impl ScanModel {
        fn register(&mut self, from: Port, rank: Rank) {
            let r = self;
            let is_new_port = !r.candidates.contains(&from);
            if is_new_port {
                let known: Vec<Rank> = r.rank_origin.keys().copied().collect();
                for k in known {
                    if r.rank_origin[&k] != from {
                        r.forward_queue.push_back((from, k));
                    }
                }
                r.candidates.push(from);
            }
            if !r.rank_origin.contains_key(&rank) {
                for &p in &r.candidates {
                    if p != from {
                        r.forward_queue.push_back((p, rank));
                    }
                }
                r.rank_origin.insert(rank, from);
            }
        }

        fn drain(&mut self) -> Vec<(Port, Rank)> {
            let mut sent = Vec::new();
            let mut used: BTreeSet<Port> = BTreeSet::new();
            let mut requeue: VecDeque<(Port, Rank)> = VecDeque::new();
            while let Some((port, rank)) = self.forward_queue.pop_front() {
                if used.contains(&port) {
                    requeue.push_back((port, rank));
                } else {
                    used.insert(port);
                    sent.push((port, rank));
                }
            }
            self.forward_queue = requeue;
            sent
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Step {
        Register(Port, Rank),
        Drain,
    }

    /// One seeded referee history. Ports and ranks come from small pools,
    /// so ranks collide across ports and ports register several ranks.
    fn script(seed: u64) -> Vec<Step> {
        use rand::prelude::*;
        let mut rng = SmallRng::seed_from_u64(seed);
        let ports = rng.random_range(2..=12u32);
        let ranks = rng.random_range(2..=16u64);
        let register = |rng: &mut SmallRng, extra: u32| {
            Step::Register(
                Port(rng.random_range(0..ports + extra)),
                Rank(rng.random_range(0..ranks + u64::from(extra))),
            )
        };
        // Round 1: a burst of registrations in one inbox.
        let mut steps: Vec<Step> = (0..rng.random_range(1..=12usize))
            .map(|_| register(&mut rng, 0))
            .collect();
        // Drains with registrations arriving mid-backlog, some from
        // ports and with ranks the burst never saw.
        for _ in 0..rng.random_range(0..40usize) {
            steps.push(if rng.random_bool(0.3) {
                register(&mut rng, 4)
            } else {
                Step::Drain
            });
        }
        // Run the backlog out (no port is ever owed more than every
        // rank), keep draining the empty plane, then a late register.
        let tail = ranks as usize + 8 + rng.random_range(1..=4usize);
        steps.extend(std::iter::repeat_n(Step::Drain, tail));
        steps.push(register(&mut rng, 8));
        steps.extend(std::iter::repeat_n(Step::Drain, tail));
        steps
    }

    #[test]
    fn send_calendar_matches_the_rescanned_queue_send_for_send() {
        // What the scripts exercised, so no case can silently drop out.
        let (mut newcomers_mid_backlog, mut late_registers, mut empty_drains) = (0, 0, 0);
        let (mut shared_ranks, mut busy_ports) = (0, 0);
        for seed in 0..256 {
            let (mut model, mut plane) = (ScanModel::default(), RefereeState::default());
            let mut drained_once = false;
            for (i, step) in script(seed).into_iter().enumerate() {
                match step {
                    Step::Register(port, rank) => {
                        let backlog = !model.forward_queue.is_empty();
                        let newcomer = !model.candidates.contains(&port);
                        newcomers_mid_backlog += usize::from(newcomer && backlog);
                        late_registers += usize::from(drained_once && !backlog);
                        shared_ranks +=
                            usize::from(model.rank_origin.get(&rank).is_some_and(|&p| p != port));
                        busy_ports +=
                            usize::from(!newcomer && !model.rank_origin.contains_key(&rank));
                        model.register(port, rank);
                        plane.register(port, rank, i % 5);
                    }
                    Step::Drain => {
                        empty_drains += usize::from(model.forward_queue.is_empty());
                        drained_once = true;
                        assert_eq!(plane.drain(), model.drain(), "seed {seed} step {i}");
                    }
                }
                assert_eq!(
                    plane.calendar.is_empty(),
                    model.forward_queue.is_empty(),
                    "seed {seed} step {i}: {step:?}"
                );
                assert_eq!(plane.candidates, model.candidates);
                assert_eq!(plane.rank_origin, model.rank_origin);
            }
            assert!(plane.calendar.is_empty(), "seed {seed}: script drains out");
        }
        for (what, count) in [
            ("newcomer mid-backlog", newcomers_mid_backlog),
            ("late register on a drained plane", late_registers),
            ("drain of an empty plane", empty_drains),
            ("one rank from two ports", shared_ranks),
            ("one port, several ranks", busy_ports),
        ] {
            assert!(count >= 50, "only {count} × {what}");
        }
    }

    #[test]
    fn k_candidates_drain_in_k_minus_one_rounds() {
        let k = 30u32;
        let mut plane = RefereeState::default();
        for i in 0..k {
            plane.register(Port(i), Rank(u64::from(1000 - i)), k as usize);
        }
        let mut total = 0;
        for round in 1..k {
            let due = plane.drain();
            assert!(!due.is_empty() && due.len() <= k as usize, "round {round}");
            let ports: BTreeSet<Port> = due.iter().map(|&(p, _)| p).collect();
            assert_eq!(ports.len(), due.len(), "round {round}: one send per port");
            total += due.len();
        }
        assert_eq!(total, (k * (k - 1)) as usize);
        // The backlog is gone and so is its storage: no bucket is left.
        assert!(plane.calendar.is_empty());
        assert!(plane.owed.iter().all(|&o| o == 0));
        assert!(plane.drain().is_empty());
    }
}
