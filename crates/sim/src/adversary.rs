//! Crash-fault adversaries.
//!
//! The paper's fault model (Section II): a **static** adversary selects the
//! faulty set before the execution starts, but may *adaptively* choose when
//! each faulty node crashes and which subset of the messages the node sends
//! in its crash round is actually delivered. A crashed node halts forever;
//! non-faulty nodes never lose messages.
//!
//! [`Adversary`] mirrors exactly that interface: it is asked once for the
//! faulty set, then once per round — with full visibility of the round's
//! outgoing traffic, which only *strengthens* the adversary — for crash
//! directives. The engine enforces the static constraint: only members of
//! the originally chosen faulty set may ever crash.

use rand::prelude::*;
use rand::rngs::SmallRng;

use crate::ids::{NodeId, Port, Round};

/// The set of nodes the adversary is allowed to crash.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultySet {
    members: Vec<bool>,
    count: usize,
}

impl FaultySet {
    /// An empty (fault-free) set for an `n`-node network.
    pub fn none(n: u32) -> Self {
        FaultySet {
            members: vec![false; n as usize],
            count: 0,
        }
    }

    /// Builds a faulty set from explicit node ids.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn from_nodes<I: IntoIterator<Item = NodeId>>(n: u32, nodes: I) -> Self {
        let mut s = FaultySet::none(n);
        for node in nodes {
            assert!(node.0 < n, "faulty node {node} outside network");
            if !s.members[node.index()] {
                s.members[node.index()] = true;
                s.count += 1;
            }
        }
        s
    }

    /// Selects `f` faulty nodes uniformly at random.
    ///
    /// # Panics
    ///
    /// Panics if `f > n`.
    pub fn random(n: u32, f: usize, rng: &mut SmallRng) -> Self {
        assert!(f <= n as usize, "cannot make {f} of {n} nodes faulty");
        let picks = rand::seq::index::sample(rng, n as usize, f);
        FaultySet::from_nodes(n, picks.into_iter().map(|i| NodeId(i as u32)))
    }

    /// Whether `node` is in the faulty set.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members[node.index()]
    }

    /// Number of faulty nodes.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the set is empty (fault-free execution).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates over the faulty node ids in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| NodeId(i as u32))
    }
}

/// What happens to the messages a node sends in the round it crashes.
///
/// The paper: "an arbitrary subset (possibly all) of its messages for that
/// round may be lost (as determined by an adversary)".
#[derive(Clone, Debug, PartialEq)]
pub enum DeliveryFilter {
    /// All of the crash-round messages are delivered (crash *after* send).
    DeliverAll,
    /// None of the crash-round messages are delivered (crash *before* send).
    DropAll,
    /// Only the first `k` queued messages are delivered.
    KeepFirst(usize),
    /// Each crash-round message is independently delivered with probability `p`.
    DeliverEachWithProbability(f64),
    /// Only messages addressed to the listed destinations are delivered.
    KeepToDestinations(Vec<NodeId>),
}

impl DeliveryFilter {
    /// Applies the filter to a node's outgoing envelopes for its crash round.
    pub(crate) fn apply<M>(&self, envelopes: &mut Vec<Envelope<M>>, rng: &mut SmallRng) {
        match self {
            DeliveryFilter::DeliverAll => {}
            DeliveryFilter::DropAll => envelopes.clear(),
            DeliveryFilter::KeepFirst(k) => envelopes.truncate(*k),
            DeliveryFilter::DeliverEachWithProbability(p) => {
                envelopes.retain(|_| rng.random_bool(p.clamp(0.0, 1.0)));
            }
            DeliveryFilter::KeepToDestinations(dsts) => {
                envelopes.retain(|e| dsts.contains(&e.dst));
            }
        }
    }
}

/// An instruction to crash `node` in the current round, filtering its
/// current-round messages with `filter`.
#[derive(Clone, Debug, PartialEq)]
pub struct CrashDirective {
    /// The node to crash. Must be faulty and still alive.
    pub node: NodeId,
    /// What happens to the node's messages of this round.
    pub filter: DeliveryFilter,
}

/// A message in flight, as seen by the engine and the adversary.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// Sender.
    pub src: NodeId,
    /// Receiver (already resolved from the sender's port).
    pub dst: NodeId,
    /// The port `dst` will observe the message arriving on — or
    /// [`Port::UNRESOLVED`]. Only in-process delivery (the engine, the
    /// naive reference) resolves it; a substrate receiver derives its port
    /// from the frame's `src`, so substrate senders leave it unresolved.
    pub dst_port: Port,
    /// Payload.
    pub msg: M,
}

/// Read-only view of the execution handed to the adversary each round.
///
/// The adversary sees everything — the full outgoing traffic of the round
/// and the global liveness state. A stronger adversary only makes the
/// measured guarantees more credible.
pub struct AdversaryView<'a, M> {
    pub(crate) round: Round,
    pub(crate) n: u32,
    pub(crate) faulty: &'a FaultySet,
    pub(crate) alive: &'a [bool],
    /// Outgoing envelopes of this round, grouped per sender.
    pub(crate) outgoing: &'a [Vec<Envelope<M>>],
}

impl<'a, M> AdversaryView<'a, M> {
    /// The current round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Network size.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The static faulty set.
    pub fn faulty(&self) -> &FaultySet {
        self.faulty
    }

    /// Whether `node` is still alive at the start of this round.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    /// The envelopes `node` queued this round.
    pub fn outgoing_of(&self, node: NodeId) -> &[Envelope<M>] {
        &self.outgoing[node.index()]
    }

    /// All envelopes queued this round, in sender order.
    pub fn all_outgoing(&self) -> impl Iterator<Item = &Envelope<M>> + '_ {
        self.outgoing.iter().flatten()
    }

    /// Faulty nodes that are still alive (the crashable ones).
    pub fn crashable(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.faulty.iter().filter(move |&id| self.is_alive(id))
    }
}

/// A Byzantine rewrite of one node's outgoing traffic for one round.
///
/// Produced by [`Adversary::tamper`]; the engine replaces the node's
/// honestly queued envelopes with `sends` (resolving destination ports
/// itself). Only faulty, still-alive nodes may be tampered with.
#[derive(Clone, Debug)]
pub struct Tamper<M> {
    /// The corrupted node.
    pub node: NodeId,
    /// The forged messages `(destination, payload)` replacing the node's
    /// honest output this round.
    pub sends: Vec<(NodeId, M)>,
}

/// A crash-fault adversary: picks the faulty set once, then issues crash
/// directives round by round.
///
/// The optional [`Adversary::tamper`] hook upgrades it to a **Byzantine**
/// adversary (faulty nodes may send arbitrary messages instead of merely
/// crashing) — used by the extension experiments for the paper's open
/// question 3. Crash-only adversaries keep the default no-op.
pub trait Adversary<M>: Send {
    /// Chooses the faulty set before the execution starts (static model).
    fn faulty_set(&mut self, n: u32, rng: &mut SmallRng) -> FaultySet;

    /// Issues crash directives for the current round. Directives naming
    /// non-faulty or already-crashed nodes cause the engine to panic — they
    /// would violate the model.
    fn on_round(&mut self, view: &AdversaryView<'_, M>, rng: &mut SmallRng) -> Vec<CrashDirective>;

    /// Byzantine hook: rewrite the outgoing traffic of corrupted nodes
    /// this round. Applied before crash directives. Tampering with a
    /// non-faulty or crashed node panics the engine. Default: no
    /// tampering (the paper's crash-fault model).
    fn tamper(&mut self, view: &AdversaryView<'_, M>, rng: &mut SmallRng) -> Vec<Tamper<M>> {
        let _ = (view, rng);
        Vec::new()
    }
}

/// The fault-free adversary.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl<M> Adversary<M> for NoFaults {
    fn faulty_set(&mut self, n: u32, _rng: &mut SmallRng) -> FaultySet {
        FaultySet::none(n)
    }

    fn on_round(
        &mut self,
        _view: &AdversaryView<'_, M>,
        _rng: &mut SmallRng,
    ) -> Vec<CrashDirective> {
        Vec::new()
    }
}

/// Crashes all `f` (randomly chosen) faulty nodes at round 0, before they
/// send anything. The strongest *non-adaptive* schedule against protocols
/// whose safety depends on enough nodes participating at all.
#[derive(Clone, Copy, Debug)]
pub struct EagerCrash {
    /// Number of faulty nodes.
    pub f: usize,
}

impl EagerCrash {
    /// Crash `f` random nodes immediately.
    pub fn new(f: usize) -> Self {
        EagerCrash { f }
    }
}

impl<M> Adversary<M> for EagerCrash {
    fn faulty_set(&mut self, n: u32, rng: &mut SmallRng) -> FaultySet {
        FaultySet::random(n, self.f, rng)
    }

    fn on_round(
        &mut self,
        view: &AdversaryView<'_, M>,
        _rng: &mut SmallRng,
    ) -> Vec<CrashDirective> {
        if view.round() > 0 {
            return Vec::new();
        }
        view.crashable()
            .map(|node| CrashDirective {
                node,
                filter: DeliveryFilter::DropAll,
            })
            .collect()
    }
}

/// Crashes each faulty node at an independently random round in
/// `[0, horizon]`, with an independently random delivery filter.
#[derive(Clone, Debug)]
pub struct RandomCrash {
    /// Number of faulty nodes.
    pub f: usize,
    /// Latest possible crash round.
    pub horizon: Round,
    schedule: Vec<(NodeId, Round)>,
}

impl RandomCrash {
    /// Random faulty set of size `f`; each member crashes by round `horizon`.
    pub fn new(f: usize, horizon: Round) -> Self {
        RandomCrash {
            f,
            horizon,
            schedule: Vec::new(),
        }
    }
}

impl<M> Adversary<M> for RandomCrash {
    fn faulty_set(&mut self, n: u32, rng: &mut SmallRng) -> FaultySet {
        let set = FaultySet::random(n, self.f, rng);
        self.schedule = set
            .iter()
            .map(|id| (id, rng.random_range(0..=self.horizon)))
            .collect();
        set
    }

    fn on_round(&mut self, view: &AdversaryView<'_, M>, rng: &mut SmallRng) -> Vec<CrashDirective> {
        self.schedule
            .iter()
            .filter(|&&(node, when)| when == view.round() && view.is_alive(node))
            .map(|&(node, _)| {
                let filter = match rng.random_range(0..4u8) {
                    0 => DeliveryFilter::DeliverAll,
                    1 => DeliveryFilter::DropAll,
                    2 => {
                        let out = view.outgoing_of(node).len();
                        DeliveryFilter::KeepFirst(out / 2)
                    }
                    _ => DeliveryFilter::DeliverEachWithProbability(0.5),
                };
                CrashDirective { node, filter }
            })
            .collect()
    }
}

/// A fully scripted fault plan: explicit `(node, round, filter)` triples.
///
/// The deterministic workhorse for tests and for reproducing specific
/// counterexample schedules.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    entries: Vec<(NodeId, Round, DeliveryFilter)>,
}

impl FaultPlan {
    /// An empty plan (no crashes).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a crash of `node` at `round` with `filter`; returns `self` for
    /// chaining.
    pub fn crash(mut self, node: NodeId, round: Round, filter: DeliveryFilter) -> Self {
        self.entries.push((node, round, filter));
        self
    }

    /// Builds a plan from explicit entries (the mutation/serde entry point:
    /// search strategies edit entry vectors and rebuild plans from them).
    pub fn from_entries(entries: Vec<(NodeId, Round, DeliveryFilter)>) -> Self {
        FaultPlan { entries }
    }

    /// The scheduled `(node, round, filter)` triples, in insertion order.
    pub fn entries(&self) -> &[(NodeId, Round, DeliveryFilter)] {
        &self.entries
    }

    /// A copy of the plan with entry `idx` removed (shrinker hook).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn without_entry(&self, idx: usize) -> Self {
        let mut entries = self.entries.clone();
        entries.remove(idx);
        FaultPlan { entries }
    }

    /// A copy of the plan with entry `idx` replaced (mutation hook).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn with_entry(&self, idx: usize, entry: (NodeId, Round, DeliveryFilter)) -> Self {
        let mut entries = self.entries.clone();
        entries[idx] = entry;
        FaultPlan { entries }
    }

    /// Number of scheduled crashes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the plan schedules no crashes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Adversary executing a fixed [`FaultPlan`].
#[derive(Clone, Debug)]
pub struct ScriptedCrash {
    plan: FaultPlan,
}

impl ScriptedCrash {
    /// Executes exactly the crashes in `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        ScriptedCrash { plan }
    }

    /// The plan this adversary executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl<M> Adversary<M> for ScriptedCrash {
    fn faulty_set(&mut self, n: u32, _rng: &mut SmallRng) -> FaultySet {
        FaultySet::from_nodes(n, self.plan.entries.iter().map(|&(id, _, _)| id))
    }

    fn on_round(
        &mut self,
        view: &AdversaryView<'_, M>,
        _rng: &mut SmallRng,
    ) -> Vec<CrashDirective> {
        self.plan
            .entries
            .iter()
            .filter(|&&(node, when, _)| when == view.round() && view.is_alive(node))
            .map(|(node, _, filter)| CrashDirective {
                node: *node,
                filter: filter.clone(),
            })
            .collect()
    }
}

/// An adaptive adversary defined by a closure over the round view.
///
/// The faulty set is `f` uniformly random nodes; the closure decides, every
/// round, which of the still-alive faulty nodes crash and how. Protocol
/// crates use this to build message-inspecting worst cases (e.g. "crash the
/// current minimum-rank proposer", Section IV-A).
pub struct FnAdversary<M, F>
where
    F: FnMut(&AdversaryView<'_, M>, &mut SmallRng) -> Vec<CrashDirective> + Send,
{
    f: usize,
    decide: F,
    _marker: std::marker::PhantomData<fn(&M)>,
}

impl<M, F> FnAdversary<M, F>
where
    F: FnMut(&AdversaryView<'_, M>, &mut SmallRng) -> Vec<CrashDirective> + Send,
{
    /// `f` random faulty nodes, crash decisions delegated to `decide`.
    pub fn new(f: usize, decide: F) -> Self {
        FnAdversary {
            f,
            decide,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<M, F> Adversary<M> for FnAdversary<M, F>
where
    F: FnMut(&AdversaryView<'_, M>, &mut SmallRng) -> Vec<CrashDirective> + Send,
{
    fn faulty_set(&mut self, n: u32, rng: &mut SmallRng) -> FaultySet {
        FaultySet::random(n, self.f, rng)
    }

    fn on_round(&mut self, view: &AdversaryView<'_, M>, rng: &mut SmallRng) -> Vec<CrashDirective> {
        (self.decide)(view, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(123)
    }

    #[test]
    fn random_faulty_set_has_exact_size() {
        let s = FaultySet::random(100, 37, &mut rng());
        assert_eq!(s.len(), 37);
        assert_eq!(s.iter().count(), 37);
        assert!(s.iter().all(|id| id.0 < 100));
    }

    #[test]
    fn from_nodes_dedups() {
        let s = FaultySet::from_nodes(10, [NodeId(1), NodeId(1), NodeId(2)]);
        assert_eq!(s.len(), 2);
        assert!(s.contains(NodeId(1)));
        assert!(!s.contains(NodeId(0)));
    }

    fn env(i: u32) -> Envelope<()> {
        Envelope {
            src: NodeId(0),
            dst: NodeId(i),
            dst_port: Port(0),
            msg: (),
        }
    }

    #[test]
    fn filters_shape_deliveries() {
        let mut r = rng();
        let mk = || (1..=6).map(env).collect::<Vec<_>>();

        let mut all = mk();
        DeliveryFilter::DeliverAll.apply(&mut all, &mut r);
        assert_eq!(all.len(), 6);

        let mut none = mk();
        DeliveryFilter::DropAll.apply(&mut none, &mut r);
        assert!(none.is_empty());

        let mut first = mk();
        DeliveryFilter::KeepFirst(2).apply(&mut first, &mut r);
        assert_eq!(first.len(), 2);
        assert_eq!(first[1].dst, NodeId(2));

        let mut dests = mk();
        DeliveryFilter::KeepToDestinations(vec![NodeId(3), NodeId(5)]).apply(&mut dests, &mut r);
        assert_eq!(dests.len(), 2);

        let mut sure = mk();
        DeliveryFilter::DeliverEachWithProbability(1.0).apply(&mut sure, &mut r);
        assert_eq!(sure.len(), 6);
    }

    #[test]
    fn scripted_plan_fires_at_right_round() {
        let plan = FaultPlan::new().crash(NodeId(2), 3, DeliveryFilter::DropAll);
        let mut adv = ScriptedCrash::new(plan);
        let mut r = rng();
        let faulty = <ScriptedCrash as Adversary<()>>::faulty_set(&mut adv, 5, &mut r);
        assert!(faulty.contains(NodeId(2)));
        let alive = vec![true; 5];
        let outgoing: Vec<Vec<Envelope<()>>> = vec![Vec::new(); 5];
        for round in 0..5 {
            let view = AdversaryView {
                round,
                n: 5,
                faulty: &faulty,
                alive: &alive,
                outgoing: &outgoing,
            };
            let d = adv.on_round(&view, &mut r);
            if round == 3 {
                assert_eq!(d.len(), 1);
                assert_eq!(d[0].node, NodeId(2));
            } else {
                assert!(d.is_empty());
            }
        }
    }

    #[test]
    fn eager_crash_only_round_zero() {
        let mut adv = EagerCrash::new(3);
        let mut r = rng();
        let faulty = <EagerCrash as Adversary<()>>::faulty_set(&mut adv, 10, &mut r);
        let alive = vec![true; 10];
        let outgoing: Vec<Vec<Envelope<()>>> = vec![Vec::new(); 10];
        let view0 = AdversaryView {
            round: 0,
            n: 10,
            faulty: &faulty,
            alive: &alive,
            outgoing: &outgoing,
        };
        assert_eq!(adv.on_round(&view0, &mut r).len(), 3);
        let view1 = AdversaryView { round: 1, ..view0 };
        assert!(adv.on_round(&view1, &mut r).is_empty());
    }

    #[test]
    fn fn_adversary_delegates_decisions() {
        let mut calls = 0usize;
        {
            let mut adv = FnAdversary::<(), _>::new(2, |view, _rng| {
                view.crashable()
                    .take(1)
                    .map(|node| CrashDirective {
                        node,
                        filter: DeliveryFilter::DropAll,
                    })
                    .collect()
            });
            let mut r = rng();
            let faulty = adv.faulty_set(10, &mut r);
            assert_eq!(faulty.len(), 2);
            let alive = vec![true; 10];
            let outgoing: Vec<Vec<Envelope<()>>> = vec![Vec::new(); 10];
            let view = AdversaryView {
                round: 0,
                n: 10,
                faulty: &faulty,
                alive: &alive,
                outgoing: &outgoing,
            };
            let d = adv.on_round(&view, &mut r);
            assert_eq!(d.len(), 1);
            assert!(faulty.contains(d[0].node));
            calls += d.len();
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn adversary_view_exposes_globals() {
        let faulty = FaultySet::from_nodes(6, [NodeId(1), NodeId(4)]);
        let alive = vec![true, true, false, true, true, true];
        let outgoing: Vec<Vec<Envelope<()>>> = vec![
            vec![env(1)],
            Vec::new(),
            Vec::new(),
            vec![env(0), env(2)],
            Vec::new(),
            Vec::new(),
        ];
        let view = AdversaryView {
            round: 3,
            n: 6,
            faulty: &faulty,
            alive: &alive,
            outgoing: &outgoing,
        };
        assert_eq!(view.round(), 3);
        assert_eq!(view.n(), 6);
        assert_eq!(view.faulty().len(), 2);
        assert!(!view.is_alive(NodeId(2)));
        assert_eq!(view.all_outgoing().count(), 3);
        assert_eq!(view.outgoing_of(NodeId(3)).len(), 2);
        // Crashable = faulty ∧ alive.
        let crashable: Vec<NodeId> = view.crashable().collect();
        assert_eq!(crashable, vec![NodeId(1), NodeId(4)]);
    }

    #[test]
    fn random_crash_eventually_crashes_everyone() {
        let mut adv = RandomCrash::new(5, 4);
        let mut r = rng();
        let faulty = <RandomCrash as Adversary<()>>::faulty_set(&mut adv, 20, &mut r);
        let mut alive = vec![true; 20];
        let outgoing: Vec<Vec<Envelope<()>>> = vec![Vec::new(); 20];
        let mut crashed = 0;
        for round in 0..=4 {
            let view = AdversaryView {
                round,
                n: 20,
                faulty: &faulty,
                alive: &alive,
                outgoing: &outgoing,
            };
            for d in adv.on_round(&view, &mut r) {
                assert!(faulty.contains(d.node));
                alive[d.node.index()] = false;
                crashed += 1;
            }
        }
        assert_eq!(crashed, 5);
    }
}
