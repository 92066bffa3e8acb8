//! Execution traces: the raw material of the paper's lower-bound arguments.
//!
//! Section IV-B defines the *communication graph* `C^r`: a directed graph
//! with an edge `u → v` iff `u` sent a message to `v` in some round `≤ r`.
//! The influence-cloud machinery of Theorems 4.2 and 5.2 is built entirely
//! on top of this graph. When tracing is enabled
//! ([`crate::engine::SimConfig::record_trace`]) every driver records one
//! [`TraceEvent`] per message through its [`crate::round::ControlCore`], so
//! that `ftc-lowerbound` can rebuild `C^r` for any `r` and analyse
//! initiators, influence clouds and deciding trees.

use crate::adversary::Envelope;
use crate::ids::{NodeId, Round};
use crate::payload::Payload;

/// One message send, as observed by the control plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Round in which the message was sent.
    pub round: Round,
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Whether the message survived the sender's crash filter and was
    /// delivered. The paper's influence relation is about *received*
    /// messages, so analyses usually restrict to `delivered` events. Of a
    /// sender's sends to one receiver in a round, the *first* `k` are the
    /// delivered ones, where `k` is how many of them arrived.
    pub delivered: bool,
    /// Payload size in bits.
    pub bits: u32,
}

/// The ordered list of all message events of one execution.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    n: u32,
}

impl Trace {
    /// An empty trace for an `n`-node network.
    pub fn new(n: u32) -> Self {
        Trace {
            events: Vec::new(),
            n,
        }
    }

    /// Network size this trace belongs to.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// All events in send order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events of round `r` only.
    pub fn round_events(&self, r: Round) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events.iter().filter(move |e| e.round == r)
    }

    /// Delivered events up to and including round `r` — the edge set of the
    /// communication graph `C^r` (restricted to received messages).
    pub fn delivered_up_to(&self, r: Round) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events
            .iter()
            .filter(move |e| e.round <= r && e.delivered)
    }

    /// Total number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no messages were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The last round with any event, or `None` for a silent execution.
    pub fn last_round(&self) -> Option<Round> {
        self.events.iter().map(|e| e.round).max()
    }
}

/// The recorder behind [`crate::round::ControlCore`]'s trace: it records
/// each round's sends once, before any filter, and settles their
/// `delivered` flags once, after delivery, from the envelopes that are left.
#[derive(Debug)]
pub(crate) struct TraceRecorder {
    trace: Trace,
    /// Index of the current round's first event.
    round_start: usize,
    /// Per-destination arrivals of the sender being settled; all-zero
    /// between senders, as its arrivals are a sub-multiset of its sends.
    left: Vec<u32>,
}

impl TraceRecorder {
    pub(crate) fn new(n: u32) -> Self {
        TraceRecorder {
            trace: Trace::new(n),
            round_start: 0,
            left: vec![0; n as usize],
        }
    }

    /// Records one sender's sends of `round`, in send order.
    pub(crate) fn record<M: Payload>(&mut self, round: Round, sends: &[Envelope<M>]) {
        self.trace.events.extend(sends.iter().map(|e| TraceEvent {
            round,
            src: e.src,
            dst: e.dst,
            delivered: false,
            bits: e.msg.size_bits(),
        }));
    }

    /// Closes the round from what arrived: `delivered` holds, per sender
    /// of the sorted `senders`, its envelopes that reached their receiver
    /// (the rule is on [`TraceEvent::delivered`]).
    pub(crate) fn settle<M>(&mut self, senders: &[u32], delivered: &[Vec<Envelope<M>>]) {
        let events = &mut self.trace.events[self.round_start..];
        let left = &mut self.left;
        let mut at = 0;
        for &su in senders {
            for e in &delivered[su as usize] {
                left[e.dst.index()] += 1;
            }
            while let Some(ev) = events.get_mut(at).filter(|ev| ev.src.0 == su) {
                let k = &mut left[ev.dst.index()];
                ev.delivered = *k > 0;
                *k -= u32::from(ev.delivered);
                at += 1;
            }
            debug_assert!(delivered[su as usize]
                .iter()
                .all(|e| left[e.dst.index()] == 0));
        }
        self.round_start = self.trace.events.len();
    }

    pub(crate) fn into_trace(self) -> Trace {
        self.trace
    }
}

/// The naive reference model (`crate::naive`) writes its trace by hand.
#[cfg(test)]
impl Trace {
    pub(crate) fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    pub(crate) fn events_mut(&mut self) -> &mut [TraceEvent] {
        &mut self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(round: Round, src: u32, dst: u32, delivered: bool) -> TraceEvent {
        TraceEvent {
            round,
            src: NodeId(src),
            dst: NodeId(dst),
            delivered,
            bits: 1,
        }
    }

    #[test]
    fn filters_by_round_and_delivery() {
        let mut t = Trace::new(4);
        t.push(ev(0, 0, 1, true));
        t.push(ev(0, 1, 2, false));
        t.push(ev(1, 2, 3, true));
        t.push(ev(2, 3, 0, true));

        assert_eq!(t.len(), 4);
        assert_eq!(t.round_events(0).count(), 2);
        let c1: Vec<_> = t.delivered_up_to(1).collect();
        assert_eq!(c1.len(), 2);
        assert!(c1.iter().all(|e| e.delivered));
        assert_eq!(t.last_round(), Some(2));
    }

    #[test]
    fn empty_trace_reports_no_rounds() {
        let t = Trace::new(3);
        assert!(t.is_empty());
        assert_eq!(t.last_round(), None);
    }
}
