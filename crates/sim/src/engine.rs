//! The synchronous round engine.
//!
//! [`run`] executes one protocol instance per node for up to
//! [`SimConfig::max_rounds`] rounds under a crash adversary, implementing
//! the model of Section II:
//!
//! 1. every alive node is activated and queues messages on its ports;
//! 2. the adversary, seeing the round's traffic, crashes any subset of the
//!    still-alive *faulty* nodes and filters the crash-round messages of
//!    each (an arbitrary subset may be lost);
//! 3. surviving messages are delivered, to be observed by their receivers
//!    at the next activation. Messages from non-crashing nodes are never
//!    lost; messages to already-crashed nodes vanish (the receiver halted).
//!
//! Executions are deterministic functions of `(SimConfig, seed)`: node
//! randomness, topology wiring, adversary randomness and filter randomness
//! all derive from independent seeded streams.
//!
//! The engine is one of two drivers of the model: the per-node state lives
//! in [`crate::node::NodeHarness`] and the per-round control plane
//! (adversary, filters, accounting) in [`crate::round::ControlCore`], both
//! shared with the `ftc-net` socket runtime. The engine merely loops the
//! two in process, which is why a network run with the same `(SimConfig,
//! seed)` reproduces an engine run decision for decision.

use std::fmt;

use crate::adversary::{Adversary, Envelope, FaultySet};
use crate::ids::{NodeId, Port, Round};
use crate::metrics::Metrics;
use crate::node::NodeHarness;
use crate::ports::PortMap;
use crate::protocol::{Incoming, Protocol};
use crate::round::{network_edges, ControlCore};
use crate::topology::Topology;
use crate::trace::Trace;

/// Rejected [`SimConfig`] parameters, reported before anything runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// `n < 2` — a complete network needs at least two nodes.
    NetworkTooSmall {
        /// The offending network size.
        n: u32,
    },
    /// Edge failure probability outside `[0, 1)`.
    EdgeFailureOutOfRange {
        /// The offending probability.
        p: f64,
    },
    /// Diameter-two hub count outside `1..=n`.
    ClustersOutOfRange {
        /// The offending hub count.
        clusters: u32,
        /// Network size it was checked against.
        n: u32,
    },
    /// Random-regular degree outside `1..=n-1`, or `n·d` odd (no such
    /// graph exists).
    DegreeOutOfRange {
        /// The offending degree.
        d: u32,
        /// Network size it was checked against.
        n: u32,
    },
    /// Explicit adjacency with the wrong number of neighbour lists.
    AdjacencyWrongLength {
        /// Number of lists supplied.
        lists: u32,
        /// Network size it was checked against.
        n: u32,
    },
    /// Explicit adjacency list that is empty, unsorted, self-looping,
    /// out of range, or asymmetric at `node`.
    BadAdjacency {
        /// First node whose list violates the invariants.
        node: u32,
    },
    /// A Byzantine adversary was configured with more faulty nodes than
    /// the network holds.
    ByzantineBudgetExceedsN {
        /// Requested faulty-node budget.
        b: u32,
        /// Network size it was checked against.
        n: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NetworkTooSmall { n } => {
                write!(f, "network size must be at least 2, got {n}")
            }
            ConfigError::EdgeFailureOutOfRange { p } => {
                write!(f, "edge failure probability must be in [0, 1), got {p}")
            }
            ConfigError::ClustersOutOfRange { clusters, n } => {
                write!(
                    f,
                    "diameter-two hub count must be in 1..={n}, got {clusters}"
                )
            }
            ConfigError::DegreeOutOfRange { d, n } => {
                write!(
                    f,
                    "random-regular degree must be in 1..={max} with n·d even, \
                     got d={d} at n={n}",
                    max = n.saturating_sub(1)
                )
            }
            ConfigError::AdjacencyWrongLength { lists, n } => {
                write!(f, "explicit adjacency has {lists} lists for {n} nodes")
            }
            ConfigError::BadAdjacency { node } => {
                write!(
                    f,
                    "explicit adjacency invalid at node {node}: lists must be \
                     sorted, self-free, symmetric, in range, and non-empty"
                )
            }
            ConfigError::ByzantineBudgetExceedsN { b, n } => {
                write!(
                    f,
                    "byzantine budget b={b} exceeds network size n={n}; \
                     at most n nodes can be faulty"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of a single execution.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Network size.
    pub n: u32,
    /// Master seed; every random stream of the run derives from it.
    pub seed: u64,
    /// Hard round limit (protocols may quiesce earlier).
    pub max_rounds: u32,
    /// Grant KT1 knowledge (neighbour identities) to protocols.
    pub kt1: bool,
    /// Record a full message [`Trace`] (needed for lower-bound analysis).
    pub record_trace: bool,
    /// If set, count CONGEST violations: `(round, edge)` pairs in which
    /// more than this many bits crossed a single **directed** edge.
    ///
    /// Accounting is per direction, matching the standard CONGEST
    /// convention of a `B`-bit budget per link per direction per round:
    /// `a → b` and `b → a` traffic in the same round are budgeted as two
    /// edges, and [`Metrics::max_edge_bits_per_round`] reports the
    /// directed maximum. This is deliberately *not* the same
    /// canonicalization as [`SimConfig::edge_failure_prob`], which kills
    /// **undirected** edges (a physical link dies in both directions).
    pub congest_bits: Option<u32>,
    /// If set, each node may send at most this many messages over the
    /// whole execution; excess sends are silently suppressed (and counted
    /// in [`Metrics::msgs_suppressed`]). Models the "budgeted algorithm"
    /// of the lower-bound experiments (Theorems 4.2/5.2): an algorithm
    /// that chooses to send at most `n·cap` messages.
    pub send_cap: Option<u32>,
    /// **Extension knob (default 0).** Each undirected edge of the
    /// complete graph is independently *dead* with this probability
    /// (deterministically derived from the seed); messages across dead
    /// edges vanish. This leaves the model of the paper — delivery from
    /// non-crashed nodes is no longer reliable — and is used by
    /// experiment E13 to probe the protocols' robustness towards
    /// incomplete topologies (open question 2).
    pub edge_failure_prob: f64,
    /// The network graph (default [`Topology::Complete`], the paper's
    /// model). Non-complete topologies wire each node's ports over its
    /// actual neighbours; see [`crate::topology`].
    pub topology: Topology,
}

impl SimConfig {
    /// A default configuration for an `n`-node network: seed 0, a generous
    /// `8·(⌊log₂ n⌋ + 3)` round limit, KT0, no tracing.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`. Front ends that want a recoverable error should
    /// use [`SimConfig::try_new`].
    pub fn new(n: u32) -> Self {
        SimConfig::try_new(n).expect("a complete network needs at least two nodes")
    }

    /// Like [`SimConfig::new`] but rejects invalid sizes with an error
    /// instead of panicking — the entry point for CLI / service front ends
    /// that validate user input early.
    pub fn try_new(n: u32) -> Result<Self, ConfigError> {
        if n < 2 {
            return Err(ConfigError::NetworkTooSmall { n });
        }
        // `32 - leading_zeros` is ⌊log₂ n⌋ + 1, so the limit below is
        // 8·(⌊log₂ n⌋ + 3): 32 rounds at n=2, 56 at n=16, 104 at n=1024.
        // Committed lab baselines depend on these exact values — do not
        // change the formula without regenerating them.
        let log2n = 32 - n.leading_zeros();
        Ok(SimConfig {
            n,
            seed: 0,
            max_rounds: 8 * (log2n + 2),
            kt1: false,
            record_trace: false,
            congest_bits: None,
            send_cap: None,
            edge_failure_prob: 0.0,
            topology: Topology::Complete,
        })
    }

    /// Validates the assembled configuration (size, probabilities) in one
    /// place, for front ends that mutate fields directly.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n < 2 {
            return Err(ConfigError::NetworkTooSmall { n: self.n });
        }
        if !(0.0..1.0).contains(&self.edge_failure_prob) {
            return Err(ConfigError::EdgeFailureOutOfRange {
                p: self.edge_failure_prob,
            });
        }
        self.topology.validate(self.n)
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the round limit.
    pub fn max_rounds(mut self, rounds: u32) -> Self {
        self.max_rounds = rounds;
        self
    }

    /// Enables or disables KT1 knowledge.
    pub fn kt1(mut self, kt1: bool) -> Self {
        self.kt1 = kt1;
        self
    }

    /// Enables or disables trace recording.
    pub fn record_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// Sets the CONGEST per-edge-per-round bit budget to check against.
    pub fn congest_bits(mut self, bits: u32) -> Self {
        self.congest_bits = Some(bits);
        self
    }

    /// Caps the number of messages each node may send over the whole
    /// execution (see [`SimConfig::send_cap`]).
    pub fn send_cap(mut self, cap: u32) -> Self {
        self.send_cap = Some(cap);
        self
    }

    /// Kills each undirected edge independently with probability `p`
    /// (see [`SimConfig::edge_failure_prob`]).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p < 1`.
    pub fn edge_failure_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "edge failure prob must be in [0,1)"
        );
        self.edge_failure_prob = p;
        self
    }

    /// Sets the network graph (see [`crate::topology::Topology`]).
    ///
    /// # Panics
    ///
    /// Panics if the topology is invalid for this network size; front
    /// ends that want a recoverable error should set the field and call
    /// [`SimConfig::validate`].
    pub fn topology(mut self, topology: Topology) -> Self {
        topology
            .validate(self.n)
            .unwrap_or_else(|e| panic!("invalid topology for n={}: {e}", self.n));
        self.topology = topology;
        self
    }
}

/// Everything produced by one execution.
#[derive(Debug)]
pub struct RunResult<P> {
    /// Accounting (messages, bits, rounds, congestion, crashes).
    pub metrics: Metrics,
    /// Final protocol state of every node — including nodes that crashed,
    /// whose state is frozen at the crash.
    pub states: Vec<P>,
    /// For each node, the round it crashed in (`None` = survived).
    pub crashed_at: Vec<Option<Round>>,
    /// The faulty set the adversary committed to.
    pub faulty: FaultySet,
    /// The message trace, when recording was enabled.
    pub trace: Option<Trace>,
    /// Rounds in which more than [`SimConfig::congest_bits`] bits crossed
    /// one edge (always 0 when the check is disabled).
    pub congest_violations: u64,
}

impl<P> RunResult<P> {
    /// Network size.
    pub fn n(&self) -> u32 {
        self.states.len() as u32
    }

    /// Whether `node` was still alive at the end of the run.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.crashed_at[node.index()].is_none()
    }

    /// Iterates over `(id, state)` of the nodes that never crashed.
    pub fn surviving_states(&self) -> impl Iterator<Item = (NodeId, &P)> + '_ {
        self.states
            .iter()
            .enumerate()
            .filter(move |(i, _)| self.crashed_at[*i].is_none())
            .map(|(i, s)| (NodeId(i as u32), s))
    }

    /// Iterates over `(id, state)` of **all** nodes, crashed or not.
    pub fn all_states(&self) -> impl Iterator<Item = (NodeId, &P)> + '_ {
        self.states
            .iter()
            .enumerate()
            .map(|(i, s)| (NodeId(i as u32), s))
    }

    /// Number of surviving (never crashed) nodes.
    pub fn survivor_count(&self) -> usize {
        self.crashed_at.iter().filter(|c| c.is_none()).count()
    }
}

/// Runs one execution of `protocol` under `adversary`.
///
/// `factory` is called once per node, in id order, to build the initial
/// protocol state (closures typically capture the input assignment, e.g.
/// the agreement input bits).
///
/// Equivalent to [`run_sharded`] with one intra-trial worker.
///
/// # Panics
///
/// Panics if the adversary violates the model: crashing a node outside its
/// committed faulty set, or crashing a node twice.
pub fn run<P, F, A>(cfg: &SimConfig, factory: F, adversary: &mut A) -> RunResult<P>
where
    P: Protocol,
    F: FnMut(NodeId) -> P,
    A: Adversary<P::Msg> + ?Sized,
{
    run_sharded(cfg, factory, adversary, 1)
}

/// Below this many agenda entries a round is activated serially even when
/// `intra_jobs > 1`: spawning scoped workers costs more than the work.
const INTRA_SHARD_MIN: usize = 1024;

/// Runs one execution like [`run`], sharding each round's node activations
/// across up to `intra_jobs` threads.
///
/// This is *intra-trial* parallelism, complementing the *trials-across-
/// cores* parallelism of [`crate::runner::ParRunner`]: one huge trial (say
/// `n = 1,000,000`) can use the whole machine. Callers take `intra_jobs`
/// from [`crate::runner::TrialPlan::threads_per_trial`], the thread budget
/// a batch's trials leave over. The round's agenda (the
/// nodes that act, in id order) is cut into contiguous chunks; each worker
/// activates its chunk against disjoint slices of the node/buffer arrays
/// and the results are merged back in chunk order. Activations are
/// independent by the model (a node sees only its own state, RNG and
/// inbox), every write is slot-indexed by node id, and the only reductions
/// are order-insensitive integer sums — so the merged round, and therefore
/// the whole run, is bit-identical for every `intra_jobs` value. The
/// control plane and delivery stay serial; they are `O(traffic)`.
///
/// `intra_jobs == 0` is treated as 1. The result is a pure function of
/// `(cfg, seed)` — `intra_jobs` deliberately lives outside [`SimConfig`].
///
/// # Panics
///
/// Panics if the adversary violates the model: crashing a node outside its
/// committed faulty set, or crashing a node twice.
pub fn run_sharded<P, F, A>(
    cfg: &SimConfig,
    mut factory: F,
    adversary: &mut A,
    intra_jobs: usize,
) -> RunResult<P>
where
    P: Protocol,
    F: FnMut(NodeId) -> P,
    A: Adversary<P::Msg> + ?Sized,
{
    let n = cfg.n;
    let nn = n as usize;
    let intra_jobs = intra_jobs.max(1);

    let edges = network_edges(cfg);
    let mut nodes: Vec<NodeHarness<P>> = (0..n)
        .map(|i| NodeHarness::new(cfg, PortMap::new(&edges, NodeId(i)), factory(NodeId(i))))
        .collect();
    let mut core = ControlCore::new(cfg, edges, adversary);

    // Pooled round buffers: allocated once, reused every round. `outgoing`
    // is filled at activation, filtered in place by the control core, and
    // drained into `inboxes` at delivery — so steady-state rounds touch the
    // allocator only when a protocol outgrows its previous high-water mark.
    let mut inboxes: Vec<Vec<Incoming<P::Msg>>> = vec![Vec::new(); nn];
    let mut outgoing: Vec<Vec<Envelope<P::Msg>>> = vec![Vec::new(); nn];
    let mut sends: Vec<(Port, P::Msg)> = Vec::new();
    let mut terminated = vec![false; nn];

    // The agenda makes the round sparse: only nodes that received a message
    // last round or declined the `is_inert` skip hint are activated, so a
    // round costs O(agenda + traffic) instead of O(n). Round 0 activates
    // everyone. `queued` dedups next-round insertions in O(1) each and is
    // all-false between rounds; `undone` counts alive nodes not yet
    // terminated, replacing the old O(n) quiescence scan.
    let mut agenda: Vec<u32> = (0..n).collect();
    let mut next_agenda: Vec<u32> = Vec::new();
    let mut queued = vec![false; nn];
    let mut undone = nn;

    for round in 0..cfg.max_rounds {
        // --- 1. activation: every agenda node still alive runs and queues
        // messages, sharded across workers when the agenda is large. The
        // ids that stay non-inert start the next agenda. ---
        let (suppressed, undone_delta) = if intra_jobs > 1 && agenda.len() >= INTRA_SHARD_MIN {
            activate_sharded(
                &mut nodes,
                &mut inboxes,
                &mut outgoing,
                &mut terminated,
                core.alive(),
                &agenda,
                &mut next_agenda,
                round,
                intra_jobs,
            )
        } else {
            activate_window(
                round,
                &agenda,
                0,
                &mut nodes,
                &mut inboxes,
                &mut outgoing,
                &mut terminated,
                core.alive(),
                &mut sends,
                &mut next_agenda,
            )
        };
        undone = (undone as i64 + undone_delta) as usize;
        for &su in &next_agenda {
            queued[su as usize] = true;
        }

        // --- 2. control plane: tampering, crashes, filters, accounting.
        // Filters `outgoing` down to the deliverable envelopes in place and
        // merges any sender a forgery created into the agenda. ---
        let verdict = core.finish_round(round, &mut outgoing, &mut agenda, suppressed, adversary);
        for &c in &verdict.crashed {
            if !terminated[c.index()] {
                undone -= 1;
            }
        }

        // --- 3. delivery: surviving messages reach next-round inboxes, and
        // their receivers join the next agenda. Each message parks its
        // sender's id in `port` until its receiver resolves the inbox
        // through its own map at activation. ---
        for &su in &agenda {
            for e in outgoing[su as usize].drain(..) {
                let d = e.dst.index();
                if !queued[d] {
                    queued[d] = true;
                    next_agenda.push(e.dst.0);
                }
                inboxes[d].push(Incoming {
                    port: Port(su),
                    msg: e.msg,
                });
            }
        }

        // --- 4. early quiescence (same condition as the historical O(n)
        // scan: nothing delivered and every alive node terminated). ---
        if verdict.delivered == 0 && undone == 0 {
            break;
        }

        // --- 5. agenda swap: receivers were appended after the (sorted)
        // activation survivors, so restore id order for the next round. ---
        std::mem::swap(&mut agenda, &mut next_agenda);
        next_agenda.clear();
        agenda.sort_unstable();
        for &su in &agenda {
            queued[su as usize] = false;
        }
    }

    let states = nodes.into_iter().map(NodeHarness::into_state).collect();
    core.finish(states, 0)
}

/// Activates the still-alive nodes of `ids` (ascending) against windows of
/// the per-node arrays that start at node `base`: resolves each node's
/// inbox to its local ports, runs the node into the scratch `sends`,
/// routes its sends into its `outgoing` buffer, clears its inbox, and
/// appends its id to `keep` unless it turned inert. Every port walk runs
/// on the node's own map. Returns the summed suppressed count and the net
/// change to the not-yet-terminated counter.
#[allow(clippy::too_many_arguments)]
fn activate_window<P: Protocol>(
    round: Round,
    ids: &[u32],
    base: usize,
    nodes: &mut [NodeHarness<P>],
    inboxes: &mut [Vec<Incoming<P::Msg>>],
    outgoing: &mut [Vec<Envelope<P::Msg>>],
    terminated: &mut [bool],
    alive: &[bool],
    sends: &mut Vec<(Port, P::Msg)>,
    keep: &mut Vec<u32>,
) -> (u64, i64) {
    let mut suppressed = 0u64;
    let mut undone_delta = 0i64;
    for &su in ids {
        if !alive[su as usize] {
            continue;
        }
        let u = su as usize - base;
        let (node, inbox) = (&mut nodes[u], &mut inboxes[u]);
        node.ports_from(inbox, |m| NodeId(m.port.0), |m, port| m.port = port);
        let act = node.activate_into(round, inbox, sends);
        suppressed += act.suppressed;
        if terminated[u] != act.terminated {
            undone_delta += if act.terminated { -1 } else { 1 };
            terminated[u] = act.terminated;
        }
        node.route(sends, &mut outgoing[u]);
        inbox.clear();
        if !act.inert {
            keep.push(su);
        }
    }
    (suppressed, undone_delta)
}

/// One sharded activation phase: cuts `agenda` into contiguous chunks and
/// runs [`activate_window`] on each on its own worker, against disjoint
/// `&mut` windows of the per-node arrays. Returns the summed suppressed
/// count and undone change; the ids each worker kept for the next agenda
/// are appended to `next_agenda` in chunk order, which preserves ascending
/// id order.
#[allow(clippy::too_many_arguments)]
fn activate_sharded<P: Protocol>(
    nodes: &mut [NodeHarness<P>],
    inboxes: &mut [Vec<Incoming<P::Msg>>],
    outgoing: &mut [Vec<Envelope<P::Msg>>],
    terminated: &mut [bool],
    alive: &[bool],
    agenda: &[u32],
    next_agenda: &mut Vec<u32>,
    round: Round,
    intra_jobs: usize,
) -> (u64, i64) {
    let chunk_len = agenda.len().div_ceil(intra_jobs);
    let results = crossbeam::scope(|scope| {
        let mut handles = Vec::new();
        // Each agenda chunk spans a disjoint ascending id range, so the
        // per-node arrays can be carved into per-worker windows with
        // `split_at_mut`; a worker indexes its window by `id - base`.
        let mut rest_nodes = nodes;
        let mut rest_inboxes = inboxes;
        let mut rest_outgoing = outgoing;
        let mut rest_terminated = terminated;
        let mut base = 0usize;
        for chunk in agenda.chunks(chunk_len) {
            let end = *chunk.last().expect("chunks are non-empty") as usize + 1;
            let take = end - base;
            let (nodes_w, nr) = rest_nodes.split_at_mut(take);
            let (inboxes_w, ir) = rest_inboxes.split_at_mut(take);
            let (outgoing_w, or) = rest_outgoing.split_at_mut(take);
            let (terminated_w, tr) = rest_terminated.split_at_mut(take);
            rest_nodes = nr;
            rest_inboxes = ir;
            rest_outgoing = or;
            rest_terminated = tr;
            let window_base = base;
            base = end;
            handles.push(scope.spawn(move |_| {
                let mut keep = Vec::new();
                let (suppressed, undone_delta) = activate_window(
                    round,
                    chunk,
                    window_base,
                    nodes_w,
                    inboxes_w,
                    outgoing_w,
                    terminated_w,
                    alive,
                    &mut Vec::new(),
                    &mut keep,
                );
                (suppressed, undone_delta, keep)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("activation worker panicked"))
            .collect::<Vec<_>>()
    })
    .expect("activation scope panicked");

    let mut suppressed = 0u64;
    let mut undone_delta = 0i64;
    for (supp, delta, keep) in results {
        suppressed += supp;
        undone_delta += delta;
        next_agenda.extend_from_slice(&keep);
    }
    (suppressed, undone_delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{
        AdversaryView, CrashDirective, DeliveryFilter, EagerCrash, FaultPlan, NoFaults,
        ScriptedCrash,
    };
    use crate::ids::Port;
    use crate::protocol::Ctx;
    use rand::rngs::SmallRng;

    /// Each node broadcasts its round number as `u64` for 3 rounds and
    /// counts what it hears.
    struct Chatter {
        heard: u64,
        rounds: u32,
    }

    impl Protocol for Chatter {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.broadcast(0);
        }
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Incoming<u64>]) {
            self.heard += inbox.len() as u64;
            self.rounds += 1;
            if self.rounds < 3 {
                ctx.broadcast(u64::from(ctx.round()));
            }
        }
        fn is_terminated(&self) -> bool {
            self.rounds >= 3
        }
    }

    #[test]
    fn fault_free_broadcast_counts_add_up() {
        let n = 16u32;
        let cfg = SimConfig::new(n).seed(5).max_rounds(10);
        let r = run(
            &cfg,
            |_| Chatter {
                heard: 0,
                rounds: 0,
            },
            &mut NoFaults,
        );
        // 3 broadcast rounds of n*(n-1) messages each.
        let per_round = u64::from(n) * u64::from(n - 1);
        assert_eq!(r.metrics.msgs_sent, 3 * per_round);
        assert_eq!(r.metrics.msgs_delivered, 3 * per_round);
        let total_heard: u64 = r.states.iter().map(|s| s.heard).sum();
        assert_eq!(total_heard, 3 * per_round);
        // Early quiescence: 3 send rounds + 1 drain round.
        assert!(r.metrics.rounds <= 5);
        assert_eq!(r.congest_violations, 0);
    }

    #[test]
    fn eager_crash_silences_faulty_nodes() {
        let n = 16u32;
        let cfg = SimConfig::new(n).seed(5).max_rounds(10);
        let mut adv = EagerCrash::new(4);
        let r = run(
            &cfg,
            |_| Chatter {
                heard: 0,
                rounds: 0,
            },
            &mut adv,
        );
        assert_eq!(r.survivor_count(), 12);
        assert_eq!(r.metrics.crash_count(), 4);
        // Crashed-at-0 nodes broadcast then had everything dropped:
        // delivered = sent - dropped_by_crash - sent_to_dead.
        assert!(r.metrics.msgs_delivered < r.metrics.msgs_sent);
        for (id, _) in r.surviving_states() {
            assert!(!r.faulty.contains(id) || r.is_alive(id));
        }
    }

    #[test]
    fn scripted_crash_freezes_state_at_crash_round() {
        let n = 8u32;
        let plan = FaultPlan::new().crash(NodeId(3), 1, DeliveryFilter::DropAll);
        let cfg = SimConfig::new(n).seed(1).max_rounds(10);
        let mut adv = ScriptedCrash::new(plan);
        let r = run(
            &cfg,
            |_| Chatter {
                heard: 0,
                rounds: 0,
            },
            &mut adv,
        );
        assert_eq!(r.crashed_at[3], Some(1));
        // Node 3 executed rounds 0 and 1 (its crash round) only.
        assert_eq!(r.states[3].rounds, 1);
        assert_eq!(r.survivor_count(), 7);
    }

    #[test]
    fn deterministic_replay() {
        let cfg = SimConfig::new(32).seed(99).max_rounds(10);
        let mut adv1 = EagerCrash::new(8);
        let mut adv2 = EagerCrash::new(8);
        let r1 = run(
            &cfg,
            |_| Chatter {
                heard: 0,
                rounds: 0,
            },
            &mut adv1,
        );
        let r2 = run(
            &cfg,
            |_| Chatter {
                heard: 0,
                rounds: 0,
            },
            &mut adv2,
        );
        assert_eq!(r1.metrics.msgs_sent, r2.metrics.msgs_sent);
        assert_eq!(r1.metrics.msgs_delivered, r2.metrics.msgs_delivered);
        assert_eq!(r1.crashed_at, r2.crashed_at);
        let h1: Vec<u64> = r1.states.iter().map(|s| s.heard).collect();
        let h2: Vec<u64> = r2.states.iter().map(|s| s.heard).collect();
        assert_eq!(h1, h2);
    }

    #[test]
    fn congest_accounting_flags_oversized_edges() {
        struct Fat;
        impl Protocol for Fat {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
                // 3 messages of 64 bits on the same edge in one round.
                ctx.send(Port(0), 1);
                ctx.send(Port(0), 2);
                ctx.send(Port(0), 3);
            }
            fn on_round(&mut self, _: &mut Ctx<'_, u64>, _: &[Incoming<u64>]) {}
            fn is_terminated(&self) -> bool {
                true
            }
        }
        let cfg = SimConfig::new(4).seed(0).max_rounds(3).congest_bits(64);
        let r = run(&cfg, |_| Fat, &mut NoFaults);
        assert_eq!(r.metrics.max_edge_bits_per_round, 192);
        assert_eq!(r.congest_violations, 4); // each of the 4 nodes overloads one edge
    }

    #[test]
    fn trace_records_sends_and_suppressions() {
        let n = 8u32;
        let plan = FaultPlan::new().crash(NodeId(0), 0, DeliveryFilter::KeepFirst(2));
        let cfg = SimConfig::new(n).seed(3).max_rounds(6).record_trace(true);
        let mut adv = ScriptedCrash::new(plan);
        let r = run(
            &cfg,
            |_| Chatter {
                heard: 0,
                rounds: 0,
            },
            &mut adv,
        );
        let tr = r.trace.expect("trace enabled");
        let from0: Vec<_> = tr
            .events()
            .iter()
            .filter(|e| e.src == NodeId(0) && e.round == 0)
            .collect();
        assert_eq!(from0.len(), (n - 1) as usize);
        assert_eq!(from0.iter().filter(|e| e.delivered).count(), 2);
        // Messages *to* node 0 after its crash are marked undelivered.
        assert!(tr
            .events()
            .iter()
            .filter(|e| e.dst == NodeId(0) && e.round >= 1)
            .all(|e| !e.delivered));
    }

    #[test]
    fn trace_marks_the_first_surviving_sends_to_a_destination_delivered() {
        /// Two sends down port 0 around one down port 1, then one down
        /// port 2: a crash filter keeping two splits the port-0 pair.
        struct Pair;
        impl Protocol for Pair {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
                for (port, msg) in [(0, 1), (1, 2), (0, 3), (2, 4)] {
                    ctx.send(Port(port), msg);
                }
            }
            fn on_round(&mut self, _: &mut Ctx<'_, u64>, _: &[Incoming<u64>]) {}
            fn is_terminated(&self) -> bool {
                true
            }
        }
        let cfg = SimConfig::new(8).seed(3).max_rounds(3).record_trace(true);
        let adv = || {
            ScriptedCrash::new(FaultPlan::new().crash(NodeId(0), 0, DeliveryFilter::KeepFirst(2)))
        };
        let fast = run(&cfg, |_| Pair, &mut adv())
            .trace
            .expect("trace enabled");
        let from0: Vec<_> = fast
            .events()
            .iter()
            .filter(|e| e.src == NodeId(0))
            .map(|e| (e.dst, e.delivered))
            .collect();
        let (a, b, c) = (from0[0].0, from0[1].0, from0[3].0);
        assert_eq!(from0, [(a, true), (b, true), (a, false), (c, false)]);
        let naive = crate::naive::naive_run(&cfg, |_| Pair, &mut adv());
        assert_eq!(fast.events(), naive.trace.expect("trace enabled").events());
    }

    #[test]
    fn edge_failures_drop_a_matching_fraction() {
        let n = 64u32;
        let cfg = SimConfig::new(n)
            .seed(9)
            .max_rounds(10)
            .edge_failure_prob(0.25);
        let r = run(
            &cfg,
            |_| Chatter {
                heard: 0,
                rounds: 0,
            },
            &mut NoFaults,
        );
        let total = r.metrics.msgs_sent;
        let lost = r.metrics.msgs_lost_edges;
        let frac = lost as f64 / total as f64;
        assert!((frac - 0.25).abs() < 0.06, "lost fraction {frac}");
        // Determinism: the same edge is dead in both directions and in
        // every round, so re-running gives identical losses.
        let r2 = run(
            &cfg,
            |_| Chatter {
                heard: 0,
                rounds: 0,
            },
            &mut NoFaults,
        );
        assert_eq!(r2.metrics.msgs_lost_edges, lost);
    }

    #[test]
    fn send_cap_limits_per_node_traffic() {
        let n = 16u32;
        let cfg = SimConfig::new(n).seed(5).max_rounds(10).send_cap(7);
        let r = run(
            &cfg,
            |_| Chatter {
                heard: 0,
                rounds: 0,
            },
            &mut NoFaults,
        );
        // Each node wanted 3 broadcasts of 15 = 45 sends; only 7 allowed.
        assert_eq!(r.metrics.msgs_sent, u64::from(n) * 7);
        assert_eq!(r.metrics.msgs_suppressed, u64::from(n) * (45 - 7));
        // Without a cap, nothing is suppressed.
        let free = run(
            &SimConfig::new(n).seed(5).max_rounds(10),
            |_| Chatter {
                heard: 0,
                rounds: 0,
            },
            &mut NoFaults,
        );
        assert_eq!(free.metrics.msgs_suppressed, 0);
    }

    #[test]
    fn max_rounds_formula_is_pinned_at_powers_of_two() {
        // 8·(⌊log₂ n⌋ + 3). Committed lab baselines depend on these exact
        // values; the doc comment promises this formula.
        for (n, want) in [(2u32, 32u32), (16, 56), (256, 88), (1024, 104), (4096, 120)] {
            assert_eq!(SimConfig::new(n).max_rounds, want, "n={n}");
        }
        // Just past a power of two, ⌊log₂ n⌋ steps up.
        assert_eq!(SimConfig::new(17).max_rounds, 8 * (4 + 3));
    }

    #[test]
    fn congest_accounting_is_directed_per_edge() {
        // n=2: the two nodes share one undirected edge and send each other
        // one 64-bit message per round. Directed accounting budgets each
        // direction separately: the per-edge max is 64 bits, not 128, and
        // a 100-bit budget is never violated even though 128 bits crossed
        // the physical link.
        struct Ping;
        impl Protocol for Ping {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
                ctx.send(Port(0), 1);
            }
            fn on_round(&mut self, _: &mut Ctx<'_, u64>, _: &[Incoming<u64>]) {}
            fn is_terminated(&self) -> bool {
                true
            }
        }
        let cfg = SimConfig::new(2).seed(0).max_rounds(3).congest_bits(100);
        let r = run(&cfg, |_| Ping, &mut NoFaults);
        assert_eq!(r.metrics.msgs_sent, 2);
        assert_eq!(r.metrics.max_edge_bits_per_round, 64);
        assert_eq!(r.congest_violations, 0);
        // With a budget below one direction's traffic, *both* directions
        // violate — two directed edges, not one undirected edge.
        let tight = SimConfig::new(2).seed(0).max_rounds(3).congest_bits(32);
        let r = run(&tight, |_| Ping, &mut NoFaults);
        assert_eq!(r.congest_violations, 2);
    }

    #[test]
    fn try_new_rejects_tiny_networks() {
        assert_eq!(
            SimConfig::try_new(1).unwrap_err(),
            ConfigError::NetworkTooSmall { n: 1 }
        );
        assert_eq!(
            SimConfig::try_new(0).unwrap_err(),
            ConfigError::NetworkTooSmall { n: 0 }
        );
        let cfg = SimConfig::try_new(2).unwrap();
        assert_eq!(cfg.n, 2);
        assert!(cfg.validate().is_ok());
        let mut bad = cfg;
        bad.edge_failure_prob = 1.5;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::EdgeFailureOutOfRange { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "non-faulty")]
    fn crashing_non_faulty_node_panics() {
        struct Evil;
        impl Adversary<u64> for Evil {
            fn faulty_set(&mut self, n: u32, _r: &mut SmallRng) -> FaultySet {
                FaultySet::none(n)
            }
            fn on_round(
                &mut self,
                _v: &AdversaryView<'_, u64>,
                _r: &mut SmallRng,
            ) -> Vec<CrashDirective> {
                vec![CrashDirective {
                    node: NodeId(0),
                    filter: DeliveryFilter::DropAll,
                }]
            }
        }
        let cfg = SimConfig::new(4).seed(0).max_rounds(2);
        let _ = run(
            &cfg,
            |_| Chatter {
                heard: 0,
                rounds: 0,
            },
            &mut Evil,
        );
    }
}
