//! Schedule-space coverage accounting.
//!
//! A hunt that finds nothing proves nothing by itself — the interesting
//! question is *where it looked*. Coverage projects every explored
//! [`FaultPlan`] onto a fixed, normalized bucket grid:
//!
//! * **crash round**, as a quartile of the cell's round budget (early /
//!   mid-early / mid-late / late crashes stress different phases);
//! * **victim rank**, as a quartile of `n` (the protocols are
//!   rank-driven, so *who* crashes matters as much as when);
//! * **delivery-filter shape**, one bucket per [`DeliveryFilter`]
//!   variant (clean stop vs. partial-send vs. targeted-send are
//!   different failure semantics).
//!
//! That is 4 × 4 × 5 = 80 buckets. The projection is normalized — bucket
//! indices depend only on *fractions* of the cell's `n` and round budget
//! — so coverage figures are comparable across cells and merge into one
//! campaign-level figure. Counts are additive and the hunt's evaluation
//! order is deterministic, so coverage is `--jobs`-invariant like
//! everything else in the record.

use ftc_sim::adversary::DeliveryFilter;
use ftc_sim::prelude::FaultPlan;

/// Crash-round quartiles.
pub const ROUND_BINS: usize = 4;
/// Victim-rank quartiles.
pub const RANK_BINS: usize = 4;
/// Delivery-filter shapes (one per [`DeliveryFilter`] variant).
pub const FILTER_SHAPES: usize = 5;
/// Total buckets in the grid.
pub const BUCKETS: usize = ROUND_BINS * RANK_BINS * FILTER_SHAPES;

/// How many explored crash entries landed in each bucket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coverage {
    counts: Vec<u64>,
}

impl Default for Coverage {
    fn default() -> Self {
        Coverage::new()
    }
}

/// The filter-shape axis index of one delivery filter.
fn shape_index(filter: &DeliveryFilter) -> usize {
    match filter {
        DeliveryFilter::DeliverAll => 0,
        DeliveryFilter::DropAll => 1,
        DeliveryFilter::KeepFirst(_) => 2,
        DeliveryFilter::DeliverEachWithProbability(_) => 3,
        DeliveryFilter::KeepToDestinations(_) => 4,
    }
}

/// Quartile of `value` within `[0, limit)`, clamped into range.
fn quartile(value: u32, limit: u32, bins: usize) -> usize {
    let limit = u64::from(limit.max(1));
    ((u64::from(value) * bins as u64 / limit) as usize).min(bins - 1)
}

impl Coverage {
    /// An all-zero grid.
    pub fn new() -> Self {
        Coverage {
            counts: vec![0; BUCKETS],
        }
    }

    /// Records every crash entry of one explored schedule, normalizing
    /// rounds by `round_budget` and ranks by `n`.
    pub fn record_plan(&mut self, plan: &FaultPlan, n: u32, round_budget: u32) {
        for (node, round, filter) in plan.entries() {
            let idx = shape_index(filter) * ROUND_BINS * RANK_BINS
                + quartile(*round, round_budget, ROUND_BINS) * RANK_BINS
                + quartile(node.0, n, RANK_BINS);
            self.counts[idx] += 1;
        }
    }

    /// Adds another grid's counts into this one (bucket-wise).
    pub fn merge(&mut self, other: &Coverage) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Buckets with at least one explored entry.
    pub fn covered(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Total explored crash entries.
    pub fn entries(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of the grid touched, in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        self.covered() as f64 / BUCKETS as f64
    }

    /// Raw per-bucket counts (shape-major, then round, then rank).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

// The derived figures ride along for readability; the counts array is the
// payload.
ftc_sim::codec! {
    struct Coverage: to_json {
        "buckets" = |_| BUCKETS,
        "covered" = |c| c.covered(),
        "fraction" = |c| c.fraction(),
        "entries" = |c| c.entries(),
        "counts": counts,
    }
    check |c| match c.counts.len() {
        BUCKETS => Ok(()),
        other => Err(format!("coverage grid has {other} buckets, expected {BUCKETS}")),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_sim::ids::NodeId;
    use ftc_sim::json::Json;

    #[test]
    fn empty_plans_cover_nothing() {
        let mut c = Coverage::new();
        c.record_plan(&FaultPlan::new(), 16, 36);
        assert_eq!(c.covered(), 0);
        assert_eq!(c.entries(), 0);
        assert_eq!(c.fraction(), 0.0);
    }

    #[test]
    fn buckets_follow_round_rank_and_shape() {
        let mut c = Coverage::new();
        // Rank 0, round 0, DeliverAll -> bucket 0.
        c.record_plan(
            &FaultPlan::new().crash(NodeId(0), 0, DeliveryFilter::DeliverAll),
            16,
            36,
        );
        assert_eq!(c.counts()[0], 1);
        // Last rank quartile, last round quartile, KeepToDestinations ->
        // the very last bucket.
        c.record_plan(
            &FaultPlan::new().crash(NodeId(15), 35, DeliveryFilter::KeepToDestinations(vec![])),
            16,
            36,
        );
        assert_eq!(c.counts()[BUCKETS - 1], 1);
        assert_eq!(c.covered(), 2);
        // Out-of-range rounds clamp into the last quartile instead of
        // panicking (shrunk plans can carry round 0 with budget 1).
        c.record_plan(
            &FaultPlan::new().crash(NodeId(3), 99, DeliveryFilter::DropAll),
            16,
            36,
        );
        assert_eq!(c.entries(), 3);
    }

    #[test]
    fn merge_is_bucketwise_addition_and_json_round_trips() {
        let mut a = Coverage::new();
        a.record_plan(
            &FaultPlan::new().crash(NodeId(0), 0, DeliveryFilter::DropAll),
            16,
            36,
        );
        let mut b = Coverage::new();
        b.record_plan(
            &FaultPlan::new()
                .crash(NodeId(0), 0, DeliveryFilter::DropAll)
                .crash(NodeId(8), 20, DeliveryFilter::KeepFirst(2)),
            16,
            36,
        );
        a.merge(&b);
        assert_eq!(a.entries(), 3);
        assert_eq!(a.covered(), 2);
        let back = Coverage::from_json(&Json::parse(&a.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, a);
    }
}
