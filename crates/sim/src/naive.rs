//! A naive reference implementation of the round data plane, used only by
//! tests.
//!
//! The production hot path ([`crate::round::ControlCore::finish_round`] +
//! [`crate::engine::run`]) is heavily optimised: a sparse agenda and sender
//! list, pooled buffers, in-place filtering, a flat per-sender edge
//! accumulator, batched port walks on each node's own map (tabulated once
//! the node has walked its degree) and span-indexed trace patching. This
//! module keeps the *obviously correct* original formulation alive — every
//! alive node activated every round, per-round allocation, a `HashMap`
//! keyed by directed edge, scalar port lookups on maps that never
//! tabulate, both resolved at delivery, its own hash roll per
//! envelope, whole-tail trace scans — and the property tests at the bottom
//! drive both engines over randomized configurations, seeds, adversaries
//! (crash-only and forging) and filters, asserting bit-identical `Metrics`,
//! crash ledgers, traces and inbox orderings. It is the one dense
//! reference model of the workspace.
//!
//! If the two ever disagree, the optimised path broke; the naive path is
//! the spec.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::adversary::{Adversary, AdversaryView, Envelope};
use crate::engine::{RunResult, SimConfig};
use crate::ids::{NodeId, Round};
use crate::metrics::{Metrics, RoundMetrics};
use crate::node::NodeHarness;
use crate::payload::Payload;
use crate::perm::stream_seed;
use crate::ports::PortMap;
use crate::protocol::{Incoming, Protocol};
use crate::round::{network_edges, SALT_ADVERSARY, SALT_EDGES, SALT_FILTERS};
use crate::topology::EdgeSet;
use crate::trace::{Trace, TraceEvent};

/// The pre-optimisation control plane, verbatim.
struct NaiveCore {
    n: u32,
    alive: Vec<bool>,
    crashed_at: Vec<Option<Round>>,
    faulty: crate::adversary::FaultySet,
    metrics: Metrics,
    trace: Option<Trace>,
    congest_bits: Option<u32>,
    congest_violations: u64,
    edge_failure_prob: f64,
    edge_seed: u64,
    adv_rng: SmallRng,
    filter_rng: SmallRng,
}

struct NaiveVerdict<M> {
    deliver: Vec<Vec<Envelope<M>>>,
    delivered: u64,
}

impl NaiveCore {
    fn new<M, A>(cfg: &SimConfig, adversary: &mut A) -> Self
    where
        M: Payload,
        A: Adversary<M> + ?Sized,
    {
        let n = cfg.n;
        let nn = n as usize;
        let mut adv_rng = SmallRng::seed_from_u64(stream_seed(cfg.seed, SALT_ADVERSARY));
        let filter_rng = SmallRng::seed_from_u64(stream_seed(cfg.seed, SALT_FILTERS));
        let faulty = adversary.faulty_set(n, &mut adv_rng);
        NaiveCore {
            n,
            alive: vec![true; nn],
            crashed_at: vec![None; nn],
            faulty,
            metrics: Metrics::new(),
            trace: cfg.record_trace.then(|| Trace::new(n)),
            congest_bits: cfg.congest_bits,
            congest_violations: 0,
            edge_failure_prob: cfg.edge_failure_prob,
            edge_seed: stream_seed(cfg.seed, SALT_EDGES),
            adv_rng,
            filter_rng,
        }
    }

    fn finish_round<M, A>(
        &mut self,
        round: Round,
        outgoing: &mut [Vec<Envelope<M>>],
        suppressed: u64,
        adversary: &mut A,
        edges: &EdgeSet,
    ) -> NaiveVerdict<M>
    where
        M: Payload,
        A: Adversary<M> + ?Sized,
    {
        let n = self.n;
        self.metrics.msgs_suppressed += suppressed;

        let tampers = {
            let view = AdversaryView {
                round,
                n,
                faulty: &self.faulty,
                alive: &self.alive,
                outgoing,
            };
            adversary.tamper(&view, &mut self.adv_rng)
        };
        for t in tampers {
            let i = t.node.index();
            outgoing[i] = t
                .sends
                .into_iter()
                // Forged sends along non-edges are dropped, exactly as in
                // the optimised control core.
                .filter(|(dst, _)| edges.has_edge(dst.0, t.node.0))
                .map(|(dst, msg)| Envelope {
                    src: t.node,
                    dst,
                    msg,
                })
                .collect();
        }

        let directives = {
            let view = AdversaryView {
                round,
                n,
                faulty: &self.faulty,
                alive: &self.alive,
                outgoing,
            };
            adversary.on_round(&view, &mut self.adv_rng)
        };

        let mut crashes_this_round = 0u32;
        let mut sent: u64 = 0;
        let mut bits_sent: u64 = 0;
        for node_out in outgoing.iter() {
            sent += node_out.len() as u64;
            bits_sent += node_out
                .iter()
                .map(|e| u64::from(e.msg.size_bits()))
                .sum::<u64>();
        }

        if let Some(tr) = self.trace.as_mut() {
            for e in outgoing.iter().flatten() {
                tr.push(TraceEvent {
                    round,
                    src: e.src,
                    dst: e.dst,
                    delivered: true,
                    bits: e.msg.size_bits(),
                });
            }
        }
        for d in directives {
            let i = d.node.index();
            assert!(self.faulty.contains(d.node) && self.alive[i]);
            self.alive[i] = false;
            self.crashed_at[i] = Some(round);
            self.metrics.record_crash(d.node, round);
            crashes_this_round += 1;

            if let Some(tr) = self.trace.as_mut() {
                let before: Vec<Envelope<M>> = outgoing[i].clone();
                let mut kept = before.clone();
                d.filter.apply(&mut kept, &mut self.filter_rng);
                let mut kept_dsts: Vec<NodeId> = kept.iter().map(|e| e.dst).collect();
                naive_patch_trace_round(tr, round, d.node, &before, &mut kept_dsts);
                outgoing[i] = kept;
            } else {
                d.filter.apply(&mut outgoing[i], &mut self.filter_rng);
            }
        }

        let mut delivered: u64 = 0;
        let mut edge_bits: HashMap<(u32, u32), u64> = HashMap::new();
        let edge_seed = self.edge_seed;
        let edge_failure_prob = self.edge_failure_prob;
        let edge_dead = |a: NodeId, b: NodeId| -> bool {
            if edge_failure_prob <= 0.0 {
                return false;
            }
            let key = (u64::from(a.0.min(b.0)) << 32) | u64::from(a.0.max(b.0));
            let h = stream_seed(edge_seed, key);
            (h as f64 / u64::MAX as f64) < edge_failure_prob
        };
        let mut deliver: Vec<Vec<Envelope<M>>> = Vec::with_capacity(outgoing.len());
        for node_out in outgoing.iter_mut() {
            let mut kept = Vec::new();
            for e in node_out.drain(..) {
                let bits = u64::from(e.msg.size_bits());
                *edge_bits.entry((e.src.0, e.dst.0)).or_insert(0) += bits;
                if edge_dead(e.src, e.dst) {
                    self.metrics.msgs_lost_edges += 1;
                    if let Some(tr) = self.trace.as_mut() {
                        naive_mark_undelivered(tr, round, e.src, e.dst);
                    }
                } else if self.alive[e.dst.index()] {
                    delivered += 1;
                    kept.push(e);
                } else if let Some(tr) = self.trace.as_mut() {
                    naive_mark_undelivered(tr, round, e.src, e.dst);
                }
            }
            deliver.push(kept);
        }
        let round_max_edge = edge_bits.values().copied().max().unwrap_or(0);
        self.metrics.record_edge_bits(round_max_edge);
        if let Some(budget) = self.congest_bits {
            self.congest_violations += edge_bits
                .values()
                .filter(|&&b| b > u64::from(budget))
                .count() as u64;
        }

        self.metrics.record_round(RoundMetrics {
            sent,
            delivered,
            bits_sent,
            crashes: crashes_this_round,
        });

        NaiveVerdict { deliver, delivered }
    }
}

fn naive_patch_trace_round<M>(
    tr: &mut Trace,
    round: Round,
    src: NodeId,
    before: &[Envelope<M>],
    kept_dsts: &mut Vec<NodeId>,
) {
    let mut dropped: Vec<NodeId> = Vec::new();
    for e in before {
        if let Some(pos) = kept_dsts.iter().position(|&d| d == e.dst) {
            kept_dsts.swap_remove(pos);
        } else {
            dropped.push(e.dst);
        }
    }
    if dropped.is_empty() {
        return;
    }
    for ev in tr.events_mut().iter_mut().rev() {
        if ev.round != round {
            break;
        }
        if ev.src == src && ev.delivered {
            if let Some(pos) = dropped.iter().position(|&d| d == ev.dst) {
                ev.delivered = false;
                dropped.swap_remove(pos);
                if dropped.is_empty() {
                    return;
                }
            }
        }
    }
}

fn naive_mark_undelivered(tr: &mut Trace, round: Round, src: NodeId, dst: NodeId) {
    for ev in tr.events_mut().iter_mut().rev() {
        if ev.round != round {
            break;
        }
        if ev.src == src && ev.dst == dst && ev.delivered {
            ev.delivered = false;
            return;
        }
    }
}

/// The pre-optimisation engine loop, verbatim: fresh `Vec`s every round,
/// allocating activation and resolution.
pub(crate) fn naive_run<P, F, A>(cfg: &SimConfig, mut factory: F, adversary: &mut A) -> RunResult<P>
where
    P: Protocol,
    F: FnMut(NodeId) -> P,
    A: Adversary<P::Msg> + ?Sized,
{
    let n = cfg.n;
    let nn = n as usize;

    let edges = network_edges(cfg);
    let ports: Vec<PortMap> = (0..n).map(|i| PortMap::new(&edges, NodeId(i))).collect();
    let mut nodes: Vec<NodeHarness<P>> = (0..n)
        .map(|i| NodeHarness::new(cfg, ports[i as usize].clone(), factory(NodeId(i))))
        .collect();
    let mut core = NaiveCore::new(cfg, adversary);

    let mut inboxes: Vec<Vec<Incoming<P::Msg>>> = vec![Vec::new(); nn];
    let mut terminated = vec![false; nn];

    for round in 0..cfg.max_rounds {
        let mut outgoing: Vec<Vec<Envelope<P::Msg>>> = vec![Vec::new(); nn];
        let mut suppressed = 0u64;
        for u in 0..nn {
            if !core.alive[u] {
                continue;
            }
            let mut sends = Vec::new();
            let act = nodes[u].activate_into(round, &inboxes[u], &mut sends);
            suppressed += act.suppressed;
            terminated[u] = act.terminated;
            // Routed one message at a time through maps that never
            // tabulate, so the nodes' batched walks and tables are checked
            // against the bare cipher.
            let src = NodeId(u as u32);
            outgoing[u] = sends
                .into_iter()
                .map(|(port, msg)| Envelope {
                    src,
                    dst: ports[u].peer(port),
                    msg,
                })
                .collect();
            inboxes[u].clear();
        }

        let verdict = core.finish_round(round, &mut outgoing, suppressed, adversary, &edges);

        for e in verdict.deliver.into_iter().flatten() {
            inboxes[e.dst.index()].push(Incoming {
                port: ports[e.dst.index()].port_to(e.src),
                msg: e.msg,
            });
        }

        if verdict.delivered == 0 {
            let all_done = (0..nn).filter(|&u| core.alive[u]).all(|u| terminated[u]);
            if all_done {
                break;
            }
        }
    }

    let states = nodes.into_iter().map(NodeHarness::into_state).collect();
    RunResult {
        metrics: core.metrics,
        states,
        crashed_at: core.crashed_at,
        faulty: core.faulty,
        trace: core.trace,
        congest_violations: core.congest_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{
        CrashDirective, DeliveryFilter, EagerCrash, FaultPlan, FaultySet, NoFaults, RandomCrash,
        ScriptedCrash, Tamper,
    };
    use crate::engine::run;
    use crate::ids::Port;
    use crate::protocol::Ctx;

    /// Logs every received message and generates varied traffic: random
    /// ports, duplicate-destination sends (stressing per-edge accounting)
    /// and per-node asymmetry.
    struct Probe {
        rounds: u32,
        talk: u32,
        log: Vec<(Round, u32, u64)>,
    }

    impl Protocol for Probe {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            let k = ctx.node_id().0 % 3 + 1;
            for j in 0..k {
                let p = ctx.random_port();
                ctx.send(p, (u64::from(ctx.node_id().0) << 8) | u64::from(j));
            }
            if ctx.node_id().0.is_multiple_of(2) {
                // Two messages down one port: duplicate directed-edge load.
                ctx.send(Port(0), 7);
                ctx.send(Port(0), 8);
            }
        }
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Incoming<u64>]) {
            for m in inbox {
                self.log.push((ctx.round(), m.port.0, m.msg));
            }
            self.rounds += 1;
            if self.rounds < self.talk {
                for _ in 0..2 {
                    let p = ctx.random_port();
                    ctx.send(p, u64::from(ctx.round()));
                }
            }
        }
        fn is_terminated(&self) -> bool {
            self.rounds >= self.talk
        }
    }

    fn random_filter(rng: &mut SmallRng, n: u32) -> DeliveryFilter {
        match rng.random_range(0..5u32) {
            0 => DeliveryFilter::DeliverAll,
            1 => DeliveryFilter::DropAll,
            2 => DeliveryFilter::KeepFirst(rng.random_range(0..4usize)),
            3 => DeliveryFilter::DeliverEachWithProbability(rng.random_range(0.2..0.9)),
            _ => {
                let k = rng.random_range(0..3usize);
                let dsts = (0..k).map(|_| NodeId(rng.random_range(0..n))).collect();
                DeliveryFilter::KeepToDestinations(dsts)
            }
        }
    }

    /// One randomized case: build the config and a fresh adversary twice
    /// (the adversary is stateful), run both engines, compare everything.
    fn check_case(case: u64, meta: &mut SmallRng) {
        let n = meta.random_range(4..48u32);
        let seed = meta.random();
        let talk = meta.random_range(2..5u32);
        let mut cfg = SimConfig::new(n)
            .seed(seed)
            .max_rounds(meta.random_range(6..12u32));
        if meta.random_bool(0.5) {
            cfg = cfg.record_trace(true);
        }
        if meta.random_bool(0.4) {
            cfg = cfg.edge_failure_prob([0.25, 0.6][meta.random_range(0..2usize)]);
        }
        if meta.random_bool(0.4) {
            cfg = cfg.send_cap(meta.random_range(1..20u32));
        }
        if meta.random_bool(0.4) {
            cfg = cfg.congest_bits([64u32, 128][meta.random_range(0..2usize)]);
        }
        // A third of the cases leave the complete graph: the sparse agenda
        // engine and the dense oracle must also agree on hub and
        // random-regular wirings.
        match meta.random_range(0..3u32) {
            0 => {}
            1 => {
                let clusters = meta.random_range(1..=n);
                cfg = cfg.topology(crate::topology::Topology::DiameterTwo { clusters });
            }
            _ => {
                let d = 2 * meta.random_range(1..4u32);
                if d <= n - 1 {
                    cfg = cfg.topology(crate::topology::Topology::RandomRegular { d });
                }
            }
        }

        let kind = meta.random_range(0..4u32);
        let f = meta.random_range(1..(n / 2).max(2)) as usize;
        let plan = {
            let mut plan = FaultPlan::new();
            let mut nodes: Vec<u32> = (0..n).collect();
            for _ in 0..f.min(4) {
                let pick = meta.random_range(0..nodes.len());
                let node = nodes.swap_remove(pick);
                let round = meta.random_range(0..4u32);
                let filter = random_filter(meta, n);
                plan = plan.crash(NodeId(node), round, filter);
            }
            plan
        };
        let mk = move |k: u32| -> Box<dyn Adversary<u64>> {
            match k {
                0 => Box::new(NoFaults),
                1 => Box::new(EagerCrash::new(f)),
                2 => Box::new(RandomCrash::new(f, 5)),
                _ => Box::new(ScriptedCrash::new(plan.clone())),
            }
        };

        let factory = |_: NodeId| Probe {
            rounds: 0,
            talk,
            log: Vec::new(),
        };

        let mut adv_fast = mk(kind);
        let fast = run(&cfg, factory, adv_fast.as_mut());
        let mut adv_naive = mk(kind);
        let naive = naive_run(&cfg, factory, adv_naive.as_mut());

        let ctx = format!("case {case}: n={n} seed={seed} kind={kind} cfg={cfg:?}");
        assert_eq!(fast.metrics, naive.metrics, "{ctx}: metrics diverged");
        assert_eq!(
            fast.crashed_at, naive.crashed_at,
            "{ctx}: crash ledger diverged"
        );
        assert_eq!(
            fast.congest_violations, naive.congest_violations,
            "{ctx}: congest accounting diverged"
        );
        let ff: Vec<NodeId> = fast.faulty.iter().collect();
        let nf: Vec<NodeId> = naive.faulty.iter().collect();
        assert_eq!(ff, nf, "{ctx}: faulty set diverged");
        for u in 0..n as usize {
            assert_eq!(
                fast.states[u].log, naive.states[u].log,
                "{ctx}: node {u} inbox ordering diverged"
            );
        }
        match (&fast.trace, &naive.trace) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.events(), b.events(), "{ctx}: trace diverged");
            }
            _ => panic!("{ctx}: trace presence diverged"),
        }
    }

    #[test]
    fn pooled_engine_matches_naive_reference() {
        let mut meta = SmallRng::seed_from_u64(0x5EED_CAFE);
        for case in 0..40 {
            check_case(case, &mut meta);
        }
    }

    /// A protocol that honestly opts into [`Protocol::is_inert`]: after
    /// `on_start` it only ever reacts to incoming messages (bouncing them
    /// back with a decremented hop count), so an empty-inbox activation is
    /// a true no-op. The sparse engine drops such nodes from its agenda;
    /// the naive oracle activates every alive node every round regardless.
    struct Bouncer {
        fuel: u32,
        started: bool,
        heard: Vec<(Round, u32, u64)>,
    }

    impl Protocol for Bouncer {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            for _ in 0..ctx.node_id().0 % 3 {
                let p = ctx.random_port();
                ctx.send(p, 5); // 5 hops of life
            }
            self.started = true;
        }
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Incoming<u64>]) {
            for m in inbox {
                self.heard.push((ctx.round(), m.port.0, m.msg));
                if m.msg > 0 && self.fuel > 0 {
                    self.fuel -= 1;
                    ctx.send(m.port, m.msg - 1);
                }
            }
        }
        fn is_terminated(&self) -> bool {
            self.started
        }
        fn is_inert(&self) -> bool {
            self.started
        }
    }

    /// Crashes like [`RandomCrash`] and, from round 1 on, forges one or two
    /// sends for every alive faulty node with nothing queued. Under
    /// [`Bouncer`] those are mostly nodes the sparse engine skipped as
    /// inert, so the forged sender sits outside its agenda.
    struct Forger(RandomCrash);

    impl Adversary<u64> for Forger {
        fn faulty_set(&mut self, n: u32, rng: &mut SmallRng) -> FaultySet {
            Adversary::<u64>::faulty_set(&mut self.0, n, rng)
        }

        fn on_round(
            &mut self,
            view: &AdversaryView<'_, u64>,
            rng: &mut SmallRng,
        ) -> Vec<CrashDirective> {
            self.0.on_round(view, rng)
        }

        fn tamper(
            &mut self,
            view: &AdversaryView<'_, u64>,
            rng: &mut SmallRng,
        ) -> Vec<Tamper<u64>> {
            if view.round() == 0 {
                return Vec::new();
            }
            let n = view.n();
            view.crashable()
                .filter(|&u| view.outgoing_of(u).is_empty())
                .map(|node| {
                    let sends = (0..rng.random_range(1..3u32))
                        .map(|_| (NodeId((node.0 + rng.random_range(1..n)) % n), 2))
                        .collect();
                    Tamper { node, sends }
                })
                .collect()
        }
    }

    /// Broadcasts every round for `talk` rounds and logs every receipt, so
    /// every node walks its degree in its first round and routes and
    /// resolves through its table from then on.
    struct Flood {
        talk: u32,
        log: Vec<(Round, u32, u64)>,
    }

    impl Protocol for Flood {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.broadcast(u64::from(ctx.node_id().0));
        }
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Incoming<u64>]) {
            for m in inbox {
                self.log.push((ctx.round(), m.port.0, m.msg));
            }
            if ctx.round() < self.talk {
                ctx.broadcast(u64::from(ctx.round()) << 32 | u64::from(ctx.node_id().0));
            }
        }
        fn is_terminated(&self) -> bool {
            false
        }
    }

    /// Crashes `victim` in round 1 keeping its first three sends, and from
    /// round 1 on replaces `forger`'s broadcast with forgeries — some of
    /// them along non-edges on the sparse wirings.
    struct CrashAndForge {
        victim: NodeId,
        forger: NodeId,
    }

    impl Adversary<u64> for CrashAndForge {
        fn faulty_set(&mut self, n: u32, _: &mut SmallRng) -> FaultySet {
            FaultySet::from_nodes(n, [self.victim, self.forger])
        }
        fn on_round(
            &mut self,
            view: &AdversaryView<'_, u64>,
            _: &mut SmallRng,
        ) -> Vec<CrashDirective> {
            if view.round() != 1 {
                return Vec::new();
            }
            vec![CrashDirective {
                node: self.victim,
                filter: DeliveryFilter::KeepFirst(3),
            }]
        }
        fn tamper(&mut self, view: &AdversaryView<'_, u64>, _: &mut SmallRng) -> Vec<Tamper<u64>> {
            if view.round() == 0 {
                return Vec::new();
            }
            let (n, f) = (view.n(), self.forger.0);
            let sends = (0..12u32)
                .map(|j| NodeId((f + 1 + j * 7 + view.round()) % n))
                .filter(|&dst| dst != self.forger)
                .map(|dst| (dst, 0xF0F0_0000 | u64::from(dst.0)))
                .collect();
            vec![Tamper {
                node: self.forger,
                sends,
            }]
        }
    }

    /// Dense traffic is where every map tabulates: each node broadcasts
    /// every round, under a crash that keeps part of a round and a forger,
    /// on all three wirings. Per-node inbox logs (round, port, payload)
    /// must match the oracle's scalar lookups on maps that never tabulate.
    #[test]
    fn dense_traffic_matches_naive_reference_on_every_wiring() {
        use crate::topology::Topology;
        for topology in [
            Topology::Complete,
            Topology::DiameterTwo { clusters: 5 },
            Topology::RandomRegular { d: 6 },
        ] {
            for (n, seed) in [(40u32, 3u64), (66, 11)] {
                let cfg = SimConfig::new(n)
                    .seed(seed)
                    .max_rounds(5)
                    .topology(topology.clone());
                let adversary = || CrashAndForge {
                    victim: NodeId(n - 1),
                    forger: NodeId(n / 2),
                };
                let factory = |_: NodeId| Flood {
                    talk: 4,
                    log: Vec::new(),
                };
                let fast = run(&cfg, factory, &mut adversary());
                let naive = naive_run(&cfg, factory, &mut adversary());
                let ctx = format!("{topology} n={n} seed={seed}");
                assert_eq!(fast.metrics, naive.metrics, "{ctx}: metrics diverged");
                assert_eq!(fast.crashed_at, naive.crashed_at, "{ctx}");
                assert!(fast.metrics.msgs_delivered > u64::from(n) * 4, "{ctx}");
                for u in 0..n as usize {
                    assert_eq!(
                        fast.states[u].log, naive.states[u].log,
                        "{ctx}: node {u} inbox diverged"
                    );
                }
            }
        }
    }

    /// The sparse agenda engine must match the dense oracle even when the
    /// protocol's `is_inert` hint lets whole swaths of nodes be skipped —
    /// the skips must be observationally invisible, message for message,
    /// and so must a forged sender the engine never activated.
    #[test]
    fn inert_skips_match_naive_reference() {
        let mut meta = SmallRng::seed_from_u64(0xB0C1_4E57);
        for case in 0..25u64 {
            let n = meta.random_range(4..64u32);
            let seed = meta.random();
            let mut cfg = SimConfig::new(n).seed(seed).max_rounds(12);
            if meta.random_bool(0.5) {
                cfg = cfg.record_trace(true);
            }
            if meta.random_bool(0.4) {
                cfg = cfg.edge_failure_prob(0.3);
            }
            let f = meta.random_range(1..(n / 2).max(2)) as usize;
            let kind = meta.random_range(0..4u32);
            let mk = move |k: u32| -> Box<dyn Adversary<u64>> {
                match k {
                    0 => Box::new(NoFaults),
                    1 => Box::new(EagerCrash::new(f)),
                    2 => Box::new(RandomCrash::new(f, 5)),
                    _ => Box::new(Forger(RandomCrash::new(f, 5))),
                }
            };
            let factory = |_: NodeId| Bouncer {
                fuel: 3,
                started: false,
                heard: Vec::new(),
            };

            let mut adv_fast = mk(kind);
            let fast = run(&cfg, factory, adv_fast.as_mut());
            let mut adv_naive = mk(kind);
            let naive = naive_run(&cfg, factory, adv_naive.as_mut());

            let ctx = format!("case {case}: n={n} seed={seed} kind={kind}");
            assert_eq!(fast.metrics, naive.metrics, "{ctx}: metrics diverged");
            assert_eq!(
                fast.crashed_at, naive.crashed_at,
                "{ctx}: crash ledger diverged"
            );
            for u in 0..n as usize {
                assert_eq!(
                    fast.states[u].heard, naive.states[u].heard,
                    "{ctx}: node {u} inbox diverged"
                );
            }
            match (&fast.trace, &naive.trace) {
                (None, None) => {}
                (Some(a), Some(b)) => assert_eq!(a.events(), b.events(), "{ctx}: trace diverged"),
                _ => panic!("{ctx}: trace presence diverged"),
            }
        }
    }
}
