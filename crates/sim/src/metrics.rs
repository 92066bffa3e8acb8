//! Message, bit, round and congestion accounting.
//!
//! The paper's headline quantities are *message complexity* (total messages
//! sent during the execution) and *round complexity*; Remark 1 additionally
//! discusses the cost in *bits*. [`Metrics`] records all three, per round
//! and in total, plus the maximum number of bits pushed through a single
//! edge in a single round — the quantity the CONGEST model bounds by
//! `O(log n)`.

use crate::ids::{NodeId, Round};

/// Counters for a single round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundMetrics {
    /// Messages queued by alive nodes this round (counted even if the
    /// sender's crash then suppressed them — the algorithm paid for them).
    pub sent: u64,
    /// Messages actually delivered at the end of the round.
    pub delivered: u64,
    /// Bits corresponding to `sent`.
    pub bits_sent: u64,
    /// Nodes that crashed this round.
    pub crashes: u32,
}

/// Full accounting of one execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Rounds actually executed (may be fewer than `max_rounds` when the
    /// protocol quiesced early).
    pub rounds: u32,
    /// Total messages sent (the paper's message complexity).
    pub msgs_sent: u64,
    /// Total messages delivered.
    pub msgs_delivered: u64,
    /// Total bits sent (Remark 1's bit complexity).
    pub bits_sent: u64,
    /// Largest number of bits carried by any single **directed** edge in
    /// any single round (`a → b` and `b → a` are accounted separately,
    /// matching [`crate::engine::SimConfig::congest_bits`]). CONGEST
    /// compliance means this stays `O(log n)`.
    pub max_edge_bits_per_round: u64,
    /// Per-round breakdown.
    pub per_round: Vec<RoundMetrics>,
    /// `(node, round)` crash events in order of occurrence.
    pub crashes: Vec<(NodeId, Round)>,
    /// Messages a node wanted to send but suppressed by the per-node
    /// send budget ([`crate::engine::SimConfig::send_cap`]).
    pub msgs_suppressed: u64,
    /// Messages lost to dead edges
    /// ([`crate::engine::SimConfig::edge_failure_prob`]).
    pub msgs_lost_edges: u64,
    /// Bytes actually pushed onto the wire (frame headers, encoded
    /// payloads, round markers). Only real transports (`ftc-net`) set
    /// this; the in-process engine leaves it at 0 — the model's cost
    /// measures are `msgs_sent` / `bits_sent`.
    pub wire_bytes: u64,
}

impl Metrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    pub(crate) fn record_round(&mut self, rm: RoundMetrics) {
        self.rounds += 1;
        self.msgs_sent += rm.sent;
        self.msgs_delivered += rm.delivered;
        self.bits_sent += rm.bits_sent;
        self.per_round.push(rm);
    }

    pub(crate) fn record_crash(&mut self, node: NodeId, round: Round) {
        self.crashes.push((node, round));
    }

    pub(crate) fn record_edge_bits(&mut self, bits: u64) {
        self.max_edge_bits_per_round = self.max_edge_bits_per_round.max(bits);
    }

    /// Messages lost to crashes (sent but never delivered).
    pub fn msgs_lost(&self) -> u64 {
        self.msgs_sent - self.msgs_delivered
    }

    /// Number of crash events.
    pub fn crash_count(&self) -> usize {
        self.crashes.len()
    }
}

/// A base-2 logarithmic histogram of `u64` samples.
///
/// Bucket `0` holds the value `0`; bucket `i ≥ 1` holds values whose
/// bit-length is `i`, i.e. the range `[2^(i-1), 2^i)`. Message counts span
/// many orders of magnitude across protocols (`O(n^1.5 log^1.5 n)` vs the
/// `Ω(n^2)` baselines), so constant relative resolution is the right shape;
/// exact min/max/sum ride along for headline numbers.
///
/// Histograms over disjoint trial sets [`merge`](LogHistogram::merge)
/// bucket-wise, which is what makes per-worker aggregation order-free.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    pub(crate) counts: [u64; 65],
    pub(crate) total: u64,
    pub(crate) sum: u128,
    pub(crate) min: u64,
    pub(crate) max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: [0; 65],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket(value: u64) -> usize {
        match value.checked_ilog2() {
            Some(b) => b as usize + 1,
            None => 0,
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one. Since buckets add and
    /// min/max/sum are associative-commutative, merge order never affects
    /// the result.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Exact mean of the samples, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) to bucket resolution: the upper
    /// edge of the bucket containing the quantile sample (clamped to the
    /// exact max). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the quantile sample, 1-based nearest-rank.
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return Some(upper.min(self.max).max(self.min));
            }
        }
        Some(self.max)
    }

    /// The 99th percentile to bucket resolution. `None` when empty.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// The 99.9th percentile to bucket resolution. `None` when empty.
    /// Tail latencies (time-to-new-leader, request wait) live here.
    pub fn p999(&self) -> Option<u64> {
        self.quantile(0.999)
    }
}

/// Height-aware accounting for a long-lived leader service (`ftc-serve`).
///
/// A service runs repeated election instances at monotonically increasing
/// *heights*; between elections it serves requests under the current
/// leader. Two service-level qualities fall out of that structure and are
/// tracked here: **time-to-new-leader** (how many rounds each election
/// took — the outage window after a leader crash) and **availability**
/// (the fraction of service rounds during which a settled leader was in
/// place). Per-height message/round costs stay in the per-run [`Metrics`];
/// this struct is the cross-height layer on top.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Election instances completed (successful or not).
    pub heights: u32,
    /// Heights whose election ended with no agreed alive leader.
    pub failed_elections: u32,
    /// Heights whose winner differs from the previous height's winner
    /// (the first elected height counts as a change from "no leader").
    pub leader_changes: u32,
    /// Rounds each *successful* election took, start to agreed leader —
    /// the time-to-new-leader distribution.
    pub ttnl_rounds: LogHistogram,
    /// Service rounds spent with a settled leader in place.
    pub available_rounds: u64,
    /// All service rounds: election windows plus serving windows.
    pub total_rounds: u64,
    /// The winning rank of the last successful election, if any.
    pub current_leader: Option<u64>,
}

impl ServiceMetrics {
    /// Empty accounting: no heights run yet.
    pub fn new() -> Self {
        ServiceMetrics::default()
    }

    /// Folds in one completed election: its winner (`None` for a failed
    /// election) and the rounds it consumed. Election rounds count as
    /// unavailable — the service cannot route requests while it has no
    /// settled leader.
    pub fn record_election(&mut self, leader: Option<u64>, rounds: u32) {
        self.heights += 1;
        self.total_rounds += u64::from(rounds);
        match leader {
            Some(rank) => {
                self.ttnl_rounds.record(u64::from(rounds));
                if self.current_leader != Some(rank) {
                    self.leader_changes += 1;
                }
                self.current_leader = Some(rank);
            }
            None => self.failed_elections += 1,
        }
    }

    /// Folds in a serving window: `rounds` rounds during which the current
    /// leader handled requests.
    pub fn record_serving_window(&mut self, rounds: u64) {
        self.available_rounds += rounds;
        self.total_rounds += rounds;
    }

    /// Fraction of service rounds with a settled leader, or `None` before
    /// any rounds ran.
    pub fn availability(&self) -> Option<f64> {
        (self.total_rounds > 0).then(|| self.available_rounds as f64 / self.total_rounds as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate_across_rounds() {
        let mut m = Metrics::new();
        m.record_round(RoundMetrics {
            sent: 10,
            delivered: 8,
            bits_sent: 100,
            crashes: 1,
        });
        m.record_round(RoundMetrics {
            sent: 5,
            delivered: 5,
            bits_sent: 50,
            crashes: 0,
        });
        assert_eq!(m.rounds, 2);
        assert_eq!(m.msgs_sent, 15);
        assert_eq!(m.msgs_delivered, 13);
        assert_eq!(m.msgs_lost(), 2);
        assert_eq!(m.bits_sent, 150);
        assert_eq!(m.per_round.len(), 2);
    }

    #[test]
    fn edge_bits_tracks_maximum() {
        let mut m = Metrics::new();
        m.record_edge_bits(12);
        m.record_edge_bits(40);
        m.record_edge_bits(7);
        assert_eq!(m.max_edge_bits_per_round, 40);
    }

    #[test]
    fn crashes_are_recorded_in_order() {
        let mut m = Metrics::new();
        m.record_crash(NodeId(3), 1);
        m.record_crash(NodeId(1), 2);
        assert_eq!(m.crashes, vec![(NodeId(3), 1), (NodeId(1), 2)]);
        assert_eq!(m.crash_count(), 2);
    }

    #[test]
    fn log_histogram_buckets_by_bit_length() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.counts[0], 1); // value 0
        assert_eq!(h.counts[1], 1); // value 1
        assert_eq!(h.counts[2], 2); // values 2,3
        assert_eq!(h.counts[3], 2); // values 4,7
        assert_eq!(h.counts[4], 1); // value 8
        assert_eq!(h.counts[64], 1); // u64::MAX
    }

    #[test]
    fn log_histogram_quantiles_bracket_the_data() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(1.0), Some(1000));
        let median = h.quantile(0.5).unwrap();
        // Bucket resolution: the true median 500 lies in [256, 512).
        assert!((256..=511).contains(&median), "median bucket edge {median}");
        assert!(LogHistogram::new().quantile(0.5).is_none());
        // Tail accessors: the true p99 (990) and p999 (1000) both fall in
        // the [512, 1024) bucket, whose upper edge is clamped to max=1000.
        assert_eq!(h.p99(), Some(1000));
        assert_eq!(h.p999(), Some(1000));
        assert!(LogHistogram::new().p99().is_none());
        assert!(LogHistogram::new().p999().is_none());
    }

    #[test]
    fn histogram_merge_equals_sequential_record() {
        let values = [3u64, 0, 17, 17, 92, 4096, 5];
        let mut whole = LogHistogram::new();
        for &v in &values {
            whole.record(v);
        }
        let (lo, hi) = values.split_at(3);
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        lo.iter().for_each(|&v| a.record(v));
        hi.iter().for_each(|&v| b.record(v));
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn service_metrics_track_heights_and_availability() {
        let mut s = ServiceMetrics::new();
        assert_eq!(s.availability(), None);
        s.record_election(Some(42), 12); // first leader: a change
        s.record_serving_window(88);
        s.record_election(Some(42), 10); // re-elected: not a change
        s.record_election(None, 20); // failed election
        s.record_election(Some(7), 15); // new leader: a change
        assert_eq!(s.heights, 4);
        assert_eq!(s.failed_elections, 1);
        assert_eq!(s.leader_changes, 2);
        assert_eq!(s.current_leader, Some(7));
        assert_eq!(s.ttnl_rounds.count(), 3);
        assert_eq!(s.ttnl_rounds.max(), Some(15));
        // 88 serving rounds out of 88 + 12 + 10 + 20 + 15 total.
        assert_eq!(s.total_rounds, 145);
        let avail = s.availability().unwrap();
        assert!((avail - 88.0 / 145.0).abs() < 1e-12, "{avail}");
    }
}
