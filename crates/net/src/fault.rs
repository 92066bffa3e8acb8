//! Socket-level fault injection: the `FaultyWire` layer.
//!
//! The model's adversary ([`ftc_sim::adversary`]) crashes nodes and drops
//! crash-round messages — faults the engine can express. Real wires
//! misbehave in ways the engine cannot: frames arrive out of order, get
//! duplicated by retransmission layers, are torn into arbitrary
//! read-sized fragments, or are simply late. This module scripts exactly
//! those behaviours as a seeded, deterministic [`WireFaultPlan`] that the
//! one round driver ([`crate::sync`]) applies between the sans-I/O cores
//! and whichever link carries the run (tears are enacted by the socket
//! link's writes). The cores themselves are never touched — injection is
//! a driver concern, the same boundary that keeps all runtimes
//! bit-identical.
//!
//! Every fault kind in this v1 plan is **delivery-preserving**: each
//! original frame still reaches its destination exactly once, in time for
//! its round. Reordering is absorbed by the core's canonical `(src, seq)`
//! sort at `end_round`; duplicates are dropped by receive-edge dedup
//! ([`FrameDedup`]) before they can falsely complete a round; torn writes
//! are reassembled by the incremental decoders; delays hide behind the
//! round barrier. That is a theorem about the stack, and the hunt
//! (`ftc hunt --wire-faults`) turns it into a checked property: any wire
//! schedule that changes an observation is a runtime bug, and the
//! counterexample replays on every substrate.
//!
//! The same property pins down the engine degradation
//! ([`WireFaultPlan::degrade`]): the nearest engine-expressible
//! [`FaultPlan`] for a delivery-preserving wire schedule is the *empty*
//! plan, and the per-entry residue strings document exactly which
//! mechanism absorbs each fault. Lossy wire faults (true frame drops)
//! would degrade to crash entries instead; they are deliberately out of
//! scope here because a dropped frame without a crash deadlocks the
//! lock-step round protocol by design (a torn socket outside the crash
//! schedule is a bug, not a model event).

use std::collections::HashSet;
use std::io::{self, Write};
use std::time::Duration;

use ftc_sim::adversary::FaultPlan;
use ftc_sim::ids::{NodeId, Round};

use crate::frame::Frame;

/// One kind of wire misbehaviour, applied to a node's transmit burst for
/// one round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireFaultKind {
    /// Shuffle the burst's frame order deterministically (seeded).
    Reorder,
    /// Transmit every frame of the burst twice.
    Duplicate,
    /// Tear the node's coalesced writes into fragments of at most `chunk`
    /// bytes (multiplexed runtimes only; per-frame transports send whole
    /// frames and absorb this trivially).
    Tear {
        /// Largest write the wire will accept, in bytes (clamped to ≥ 1).
        chunk: usize,
    },
    /// Hold the burst back for this long before transmitting (wall-clock
    /// only — the round barrier makes it model-invisible).
    Delay {
        /// Delay in microseconds.
        micros: u64,
    },
}

ftc_sim::codec! {
    enum WireFaultKind: name {
        "reorder" => Reorder,
        "duplicate" => Duplicate,
        "tear" => Tear { "chunk": chunk },
        "delay" => Delay { "micros": micros },
    }
}

impl WireFaultKind {
    /// Which stack mechanism absorbs this fault (the degradation residue).
    fn absorbed_by(&self) -> &'static str {
        match self {
            WireFaultKind::Reorder => "the core's canonical (src, seq) sort at end_round",
            WireFaultKind::Duplicate => "receive-edge frame dedup in the adapter",
            WireFaultKind::Tear { .. } => "incremental frame/envelope reassembly",
            WireFaultKind::Delay { .. } => "the lock-step round barrier (wall-clock only)",
        }
    }
}

/// A scripted wire fault: `kind` hits `node`'s transmit burst at `round`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireFaultEntry {
    /// The sending node whose burst is perturbed.
    pub node: NodeId,
    /// The round whose burst is perturbed.
    pub round: Round,
    /// What happens to the burst.
    pub kind: WireFaultKind,
}

ftc_sim::codec! {
    struct WireFaultEntry {
        "node": node,
        "round": round,
        ..kind,
    }
}

/// A deterministic, seeded schedule of socket-level faults.
///
/// The plan is pure data — the searchable/replayable unit the hunt
/// manipulates, exactly as [`FaultPlan`] is for model-level crashes. The
/// `seed` feeds the reorder shuffle so the same plan perturbs the same
/// burst the same way on every run and substrate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireFaultPlan {
    /// Seed for the deterministic shuffle.
    pub seed: u64,
    entries: Vec<WireFaultEntry>,
}

/// SplitMix64: one deterministic draw per call, robust to any seed.
fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl WireFaultPlan {
    /// An empty plan (a faultless wire) shuffling under `seed`.
    pub fn new(seed: u64) -> Self {
        WireFaultPlan {
            seed,
            entries: Vec::new(),
        }
    }

    /// Adds one fault; returns `self` for chaining.
    pub fn fault(mut self, node: NodeId, round: Round, kind: WireFaultKind) -> Self {
        self.entries.push(WireFaultEntry { node, round, kind });
        self
    }

    /// Builds a plan from explicit entries (the mutation entry point).
    pub fn from_entries(seed: u64, entries: Vec<WireFaultEntry>) -> Self {
        WireFaultPlan { seed, entries }
    }

    /// The scheduled faults, in insertion order.
    pub fn entries(&self) -> &[WireFaultEntry] {
        &self.entries
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the wire is faultless.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn kinds_for<'a>(
        &'a self,
        node: NodeId,
        round: Round,
    ) -> impl Iterator<Item = &'a WireFaultKind> + 'a {
        self.entries
            .iter()
            .filter(move |e| e.node == node && e.round == round)
            .map(|e| &e.kind)
    }

    /// Perturbs `node`'s transmit burst for `round` in place: applies any
    /// scheduled reorder (a seeded deterministic shuffle), then any
    /// scheduled duplication (every frame appended a second time, *after*
    /// the shuffle). Returns the number of appended duplicate frames —
    /// the suffix the adapter must transmit but **not** charge to
    /// `wire_bytes`/`frames_sent`, so model accounting stays identical to
    /// a faultless wire.
    pub fn perturb_batch(
        &self,
        node: NodeId,
        round: Round,
        batch: &mut Vec<(NodeId, Frame)>,
    ) -> usize {
        if batch.is_empty() {
            return 0;
        }
        let mut reorder = false;
        let mut duplicate = false;
        for kind in self.kinds_for(node, round) {
            match kind {
                WireFaultKind::Reorder => reorder = true,
                WireFaultKind::Duplicate => duplicate = true,
                _ => {}
            }
        }
        if reorder {
            let mut s = self
                .seed
                .wrapping_add(u64::from(node.0) << 32)
                .wrapping_add(u64::from(round));
            // Fisher–Yates with splitmix draws: deterministic in
            // (seed, node, round), independent of substrate.
            for i in (1..batch.len()).rev() {
                let j = (splitmix(&mut s) % (i as u64 + 1)) as usize;
                batch.swap(i, j);
            }
        }
        if duplicate {
            let originals = batch.len();
            for k in 0..originals {
                let dup = batch[k].clone();
                batch.push(dup);
            }
            originals
        } else {
            0
        }
    }

    /// The tear fragment size scheduled for `node`'s burst at `round`, if
    /// any (clamped to ≥ 1; the smallest wins when several are scheduled).
    pub fn tear_chunk(&self, node: NodeId, round: Round) -> Option<usize> {
        self.kinds_for(node, round)
            .filter_map(|k| match k {
                WireFaultKind::Tear { chunk } => Some((*chunk).max(1)),
                _ => None,
            })
            .min()
    }

    /// The transmit delay scheduled for `node`'s burst at `round`, if any
    /// (summed when several are scheduled).
    pub fn delay(&self, node: NodeId, round: Round) -> Option<Duration> {
        let micros: u64 = self
            .kinds_for(node, round)
            .filter_map(|k| match k {
                WireFaultKind::Delay { micros } => Some(*micros),
                _ => None,
            })
            .sum();
        (micros > 0).then(|| Duration::from_micros(micros))
    }

    /// Degrades the wire plan to the nearest engine-expressible
    /// [`FaultPlan`], reporting the gap.
    ///
    /// Every v1 wire fault is delivery-preserving, so the nearest engine
    /// equivalent is the **empty** crash plan — the engine run that
    /// matches a wire-faulted cluster run is the unfaulted one. The
    /// returned residue strings document, per entry, which stack
    /// mechanism absorbs the fault; they are the "exact
    /// engine-inexpressible residue" a committed wire counterexample
    /// carries.
    pub fn degrade(&self) -> (FaultPlan, Vec<String>) {
        let residue = self
            .entries
            .iter()
            .map(|e| {
                format!(
                    "node {} round {}: {} absorbed by {}",
                    e.node.0,
                    e.round,
                    e.kind.name(),
                    e.kind.absorbed_by()
                )
            })
            .collect();
        (FaultPlan::new(), residue)
    }
}

ftc_sim::codec! {
    struct WireFaultPlan: to_json {
        "seed": seed,
        "entries": entries,
    }
}

/// Receive-edge frame dedup, keyed by the frame identity `(height, round,
/// src, seq)` — exactly the tuple the cores sort deliveries by, so two
/// frames with equal keys are the same model message.
///
/// Adapters consult `admit` before feeding a frame into a [`RoundCore`]
/// whenever a wire plan is active: a duplicated frame would otherwise
/// falsely satisfy the core's `ready()` frame count for the round (and a
/// late duplicate drained in a later round would be rejected as a
/// past-round protocol violation). The set is kept for the whole run —
/// duplicates may legitimately straggle across the round boundary.
///
/// [`RoundCore`]: crate::core::RoundCore
#[derive(Debug, Default)]
pub struct FrameDedup {
    seen: HashSet<(u32, Round, u32, u32)>,
}

impl FrameDedup {
    /// An empty dedup set.
    pub fn new() -> Self {
        FrameDedup::default()
    }

    /// Whether `frame` is the first of its identity — feed it iff `true`.
    pub fn admit(&mut self, frame: &Frame) -> bool {
        self.seen
            .insert((frame.height, frame.round, frame.src.0, frame.seq))
    }
}

/// A [`Write`] adapter that tears every write into fragments of at most
/// `chunk` bytes — the torn-frame injector for coalescing runtimes.
///
/// Callers that loop until their buffer drains (e.g. `WriteBuf` in
/// `ftc-mesh`) still deliver every byte; the receiving decoder just sees
/// the worst fragmentation the schedule asks for.
#[derive(Debug)]
pub struct ChunkedWriter<'a, W: Write> {
    inner: &'a mut W,
    chunk: usize,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Wraps `inner`, capping each write at `chunk` bytes (≥ 1).
    pub fn new(inner: &'a mut W, chunk: usize) -> Self {
        ChunkedWriter {
            inner,
            chunk: chunk.max(1),
        }
    }
}

impl<W: Write> Write for ChunkedWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let cap = buf.len().min(self.chunk);
        self.inner.write(&buf[..cap])
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_sim::json::Json;

    fn frame(round: u32, src: u32, seq: u32) -> (NodeId, Frame) {
        (
            NodeId(90 + seq),
            Frame {
                height: 0,
                round,
                src: NodeId(src),
                seq,
                payload: vec![seq as u8; 3].into(),
            },
        )
    }

    #[test]
    fn reorder_is_a_seeded_permutation() {
        let plan = WireFaultPlan::new(7).fault(NodeId(1), 2, WireFaultKind::Reorder);
        let original: Vec<_> = (0..6).map(|s| frame(2, 1, s)).collect();
        let mut a = original.clone();
        let mut b = original.clone();
        assert_eq!(plan.perturb_batch(NodeId(1), 2, &mut a), 0);
        assert_eq!(plan.perturb_batch(NodeId(1), 2, &mut b), 0);
        assert_eq!(a, b, "same (seed, node, round) must shuffle identically");
        assert_ne!(a, original, "6 frames under seed 7 must actually move");
        let mut sorted = a.clone();
        sorted.sort_by_key(|(_, f)| f.seq);
        assert_eq!(sorted, original, "a permutation, nothing lost");
        // A different round is untouched.
        let mut other = original.clone();
        assert_eq!(plan.perturb_batch(NodeId(1), 3, &mut other), 0);
        assert_eq!(other, original);
    }

    #[test]
    fn duplicate_appends_uncharged_copies_after_the_shuffle() {
        let plan = WireFaultPlan::new(1)
            .fault(NodeId(0), 0, WireFaultKind::Reorder)
            .fault(NodeId(0), 0, WireFaultKind::Duplicate);
        let mut batch: Vec<_> = (0..4).map(|s| frame(0, 0, s)).collect();
        let dups = plan.perturb_batch(NodeId(0), 0, &mut batch);
        assert_eq!(dups, 4);
        assert_eq!(batch.len(), 8);
        assert_eq!(
            &batch[..4],
            &batch[4..],
            "the suffix mirrors the shuffled prefix"
        );
    }

    #[test]
    fn tear_and_delay_lookups_pick_the_scheduled_entry() {
        let plan = WireFaultPlan::new(0)
            .fault(NodeId(3), 1, WireFaultKind::Tear { chunk: 0 })
            .fault(NodeId(3), 1, WireFaultKind::Tear { chunk: 5 })
            .fault(NodeId(3), 1, WireFaultKind::Delay { micros: 40 })
            .fault(NodeId(3), 1, WireFaultKind::Delay { micros: 2 });
        assert_eq!(plan.tear_chunk(NodeId(3), 1), Some(1), "chunk clamps to 1");
        assert_eq!(plan.delay(NodeId(3), 1), Some(Duration::from_micros(42)));
        assert_eq!(plan.tear_chunk(NodeId(3), 0), None);
        assert_eq!(plan.delay(NodeId(2), 1), None);
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = WireFaultPlan::new(0xDEAD)
            .fault(NodeId(1), 0, WireFaultKind::Reorder)
            .fault(NodeId(2), 3, WireFaultKind::Duplicate)
            .fault(NodeId(3), 1, WireFaultKind::Tear { chunk: 7 })
            .fault(NodeId(4), 2, WireFaultKind::Delay { micros: 100 });
        let text = plan.to_json().render();
        let back = WireFaultPlan::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.to_json().render(), text, "deterministic rendering");
    }

    #[test]
    fn degrade_reports_the_empty_plan_plus_residue() {
        let plan = WireFaultPlan::new(9)
            .fault(NodeId(5), 2, WireFaultKind::Duplicate)
            .fault(NodeId(6), 0, WireFaultKind::Tear { chunk: 3 });
        let (engine, residue) = plan.degrade();
        assert!(engine.is_empty(), "delivery-preserving ⇒ no engine fault");
        assert_eq!(residue.len(), 2);
        assert!(residue[0].contains("node 5 round 2: duplicate absorbed by"));
        assert!(residue[1].contains("tear absorbed by"));
    }

    #[test]
    fn dedup_admits_each_identity_once() {
        let mut d = FrameDedup::new();
        let (_, f) = frame(1, 2, 3);
        assert!(d.admit(&f));
        assert!(!d.admit(&f.clone()), "the duplicate is rejected");
        let (_, g) = frame(1, 2, 4);
        assert!(d.admit(&g), "a distinct seq is a distinct message");
    }

    #[test]
    fn chunked_writer_fragments_every_write() {
        let mut sink = Vec::new();
        let mut w = ChunkedWriter::new(&mut sink, 3);
        let mut written = 0;
        while written < 10 {
            written += w.write(&[7u8; 10][written..]).unwrap();
        }
        assert_eq!(sink, vec![7u8; 10]);
    }
}
