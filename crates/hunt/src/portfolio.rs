//! Portfolio hunts: the whole search grid as one stored record.
//!
//! A single hunt answers one question: does *this* strategy break *this*
//! objective on *this* protocol within *this* budget? The paper's claims
//! hold w.h.p. against **every** static crash adversary, so one hunt is an
//! anecdote. A portfolio turns hunts into a campaign, the way the lab does
//! for measurements:
//!
//! * a [`HuntCampaignSpec`] declares the grid (strategies × objectives ×
//!   protocols, plus wire-fault cells) as data, hashed like lab specs;
//! * [`Coverage`] projects every explored [`FaultPlan`] onto a fixed
//!   bucket grid, so an *empty* hunt commits a quantified "we looked
//!   here" figure rather than silence;
//! * [`run_hunt_campaign`] runs each cell through the hunt pipeline,
//!   shrinks each champion, and condenses the grid into a
//!   [`HuntCampaignRecord`] (`ftc-chaos-record/v1`), which the lab store
//!   holds and `ftc lab gate` byte-compares like any other record;
//! * [`named`] resolves the registry (`adversary-portfolio`).
//!
//! Everything is deterministic in the spec: the hunt is `--jobs`-invariant,
//! coverage counts are additive, and wall clocks stay in the diag block,
//! so record ids are `--jobs`-invariant by construction.

use std::time::Instant;

use ftc_core::prelude::Params;
use ftc_sim::adversary::DeliveryFilter;
use ftc_sim::engine::SimConfig;
use ftc_sim::json::{fnv1a64, git_rev};
use ftc_sim::prelude::FaultPlan;

use crate::artifact::Artifact;
use crate::objective::Objective;
use crate::proto::{ProtoKind, Substrate};
use crate::search::{run_hunt_observed, HuntSpec, Strategy};

// --- Specs ----------------------------------------------------------------

/// One adversary search in a portfolio: the arguments a single `ftc hunt`
/// takes.
#[derive(Clone, Debug, PartialEq)]
pub struct HuntCellSpec {
    /// Row label (also the default series name in reports).
    pub label: String,
    /// Protocol under attack.
    pub proto: ProtoKind,
    /// What counts as a find.
    pub objective: Objective,
    /// Search strategy.
    pub strategy: Strategy,
    /// Network size.
    pub n: u32,
    /// Resilience parameter.
    pub alpha: f64,
    /// Agreement zero-input density (ignored for LE, recorded anyway).
    pub zeros: f64,
    /// Candidate schedules to evaluate.
    pub budget: u64,
    /// Probe seeds per candidate.
    pub probes: u64,
    /// Hunt seed (drives proposals and the probe panel).
    pub seed: u64,
    /// Also search socket-level wire faults; the cell then runs on the
    /// channel substrate, where the faults are actually injected.
    pub wire: bool,
}

ftc_sim::codec! {
    struct HuntCellSpec: to_json {
        "label": label,
        "proto": proto,
        "objective": objective,
        "strategy": strategy,
        "n": n,
        "alpha": alpha,
        "zeros": zeros,
        "budget": budget,
        "probes": probes,
        "seed": seed,
        "wire": wire,
    }
}

/// A named portfolio of adversary searches.
#[derive(Clone, Debug, PartialEq)]
pub struct HuntCampaignSpec {
    /// Campaign name (prefix of the stored record id).
    pub name: String,
    /// The searches, run in order.
    pub cells: Vec<HuntCellSpec>,
}

impl HuntCampaignSpec {
    /// A new empty campaign.
    pub fn new(name: impl Into<String>) -> Self {
        HuntCampaignSpec {
            name: name.into(),
            cells: Vec::new(),
        }
    }

    /// Adds a cell (builder style).
    #[must_use]
    pub fn cell(mut self, cell: HuntCellSpec) -> Self {
        self.cells.push(cell);
        self
    }

    /// Content hash of the spec (same FNV-1a the lab store uses).
    pub fn hash(&self) -> String {
        format!("{:016x}", fnv1a64(self.to_json().render().as_bytes()))
    }
}

ftc_sim::codec! {
    struct HuntCampaignSpec: to_json {
        "name": name,
        "cells": cells,
    }
}

// --- Coverage -------------------------------------------------------------

/// Crash-round quartiles.
const ROUND_BINS: usize = 4;
/// Victim-rank quartiles.
const RANK_BINS: usize = 4;
/// Delivery-filter shapes (one per [`DeliveryFilter`] variant).
const FILTER_SHAPES: usize = 5;
/// Total buckets in the coverage grid.
pub const BUCKETS: usize = ROUND_BINS * RANK_BINS * FILTER_SHAPES;

/// How many explored crash entries landed in each bucket of the grid:
///
/// * **crash round**, as a quartile of the cell's round budget (early /
///   mid-early / mid-late / late crashes stress different phases);
/// * **victim rank**, as a quartile of `n` (the protocols are rank-driven,
///   so *who* crashes matters as much as when);
/// * **delivery-filter shape**, one bucket per [`DeliveryFilter`] variant
///   (clean stop vs. partial-send vs. targeted-send are different failure
///   semantics).
///
/// Bucket indices depend only on *fractions* of the cell's `n` and round
/// budget, so figures are comparable across cells and merge into one
/// campaign-level figure.
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

// --- Records --------------------------------------------------------------

/// Schema tag of persisted portfolio-hunt records.
pub const CHAOS_SCHEMA: &str = "ftc-chaos-record/v1";

/// What one portfolio cell's search produced.
#[derive(Clone, Debug)]
pub struct HuntCellResult {
    /// The cell this search executed (copied for self-description).
    pub cell: HuntCellSpec,
    /// Candidate schedules evaluated.
    pub evaluated: u64,
    /// Candidates whose argmax probe hit the objective.
    pub hits: u64,
    /// Crash entries in the champion before shrinking.
    pub entries_before: u64,
    /// Crash entries after shrinking.
    pub entries_after: u64,
    /// Engine probes the shrink spent.
    pub shrink_probes: u64,
    /// Schedule-space coverage of everything this cell explored.
    pub coverage: Coverage,
    /// The shrunk champion as a replayable artifact (`hit` records
    /// whether it is a counterexample or merely the budget's worst).
    pub artifact: Artifact,
    /// Wall-clock seconds (diagnostic; outside the deterministic payload).
    pub wall_s: f64,
}

// Wall clock rides along only in the diag render.
ftc_sim::codec! {
    struct HuntCellResult: to_json(diag) {
        "cell": cell,
        "evaluated": evaluated,
        "hits": hits,
        "shrunk": {
            "before": entries_before,
            "after": entries_after,
            "probes": shrink_probes,
        },
        "coverage": coverage,
        "artifact": artifact,
        "wall_s": wall_s [diag],
    }
}

/// One persisted portfolio run: the spec, per-cell results, the merged
/// coverage figure, and run provenance. Its deterministic payload is
/// byte-identical across reruns of the same spec at any `--jobs`.
#[derive(Clone, Debug)]
pub struct HuntCampaignRecord {
    /// The portfolio this run executed.
    pub spec: HuntCampaignSpec,
    /// [`HuntCampaignSpec::hash`] of `spec`.
    pub spec_hash: String,
    /// Per-cell results, aligned with `spec.cells`.
    pub cells: Vec<HuntCellResult>,
    /// Campaign-level coverage (bucket-wise sum over cells).
    pub coverage: Coverage,
    /// Git revision of the producing tree (diagnostic).
    pub git_rev: String,
    /// Total wall-clock seconds (diagnostic).
    pub wall_s: f64,
}

// Without diag, the render is the deterministic payload the store
// content-addresses and `gate` compares.
ftc_sim::codec! {
    record HuntCampaignRecord(CHAOS_SCHEMA, |r| r.spec.name.clone()) {
        "spec_hash": spec_hash,
        "spec": spec,
        "cells": cells,
        "coverage": coverage,
    }
}

impl HuntCampaignRecord {
    /// Total hits across the portfolio.
    pub fn hits(&self) -> u64 {
        self.cells.iter().map(|c| c.hits).sum()
    }
}

// --- Execution ------------------------------------------------------------

/// Worker threads for wire-fault cells (the channel substrate is where
/// the injector lives; two workers keep CI cheap while still exercising
/// real cross-worker framing).
const WIRE_WORKERS: usize = 2;

/// Runs one portfolio cell: hunt, shrink, mint the artifact, and account
/// coverage over everything the search explored.
fn run_hunt_cell(cell: &HuntCellSpec, jobs: usize) -> Result<HuntCellResult, String> {
    let start = Instant::now();
    let params = Params::new(cell.n, cell.alpha).map_err(|e| e.to_string())?;
    let round_budget = cell.proto.round_budget(&params);
    let cfg = SimConfig::try_new(cell.n)
        .map_err(|e| e.to_string())?
        .max_rounds(round_budget);
    let substrate = if cell.wire {
        Substrate::Channel(WIRE_WORKERS)
    } else {
        Substrate::Engine
    };
    let spec = HuntSpec {
        proto: cell.proto,
        objective: cell.objective,
        params,
        cfg,
        zeros: cell.zeros,
        budget: cell.budget,
        probes: cell.probes,
        seed: cell.seed,
        jobs,
        strategy: cell.strategy,
        substrate,
        wire: cell.wire,
    };
    let mut coverage = Coverage::new();
    let report = run_hunt_observed(&spec, |c| {
        coverage.record_plan(&c.plan, cell.n, round_budget);
    })?;
    let (artifact, reduced) = Artifact::mint(&spec, &report);
    Ok(HuntCellResult {
        cell: cell.clone(),
        evaluated: report.evaluated,
        hits: report.hits,
        entries_before: reduced.entries_before as u64,
        entries_after: reduced.entries_after as u64,
        shrink_probes: reduced.probes,
        coverage,
        artifact,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// Executes a portfolio: every cell in order, coverage merged across the
/// campaign. Deterministic in `spec`; `jobs` only changes wall-clock.
pub fn run_hunt_campaign(
    spec: &HuntCampaignSpec,
    jobs: usize,
) -> Result<HuntCampaignRecord, String> {
    if spec.cells.is_empty() {
        return Err(format!("portfolio `{}` has no cells", spec.name));
    }
    for cell in &spec.cells {
        if cell.budget == 0 || cell.probes == 0 {
            return Err(format!("cell `{}` has a zero budget", cell.label));
        }
        if !cell.objective.supports(cell.proto) {
            return Err(format!(
                "cell `{}`: objective {} does not apply to {}",
                cell.label,
                cell.objective.name(),
                cell.proto.name()
            ));
        }
    }
    let start = Instant::now();
    let mut cells = Vec::with_capacity(spec.cells.len());
    let mut coverage = Coverage::new();
    for cell in &spec.cells {
        let result = run_hunt_cell(cell, jobs)?;
        coverage.merge(&result.coverage);
        cells.push(result);
    }
    Ok(HuntCampaignRecord {
        spec: spec.clone(),
        spec_hash: spec.hash(),
        cells,
        coverage,
        git_rev: git_rev(),
        wall_s: start.elapsed().as_secs_f64(),
    })
}

// --- Registry -------------------------------------------------------------

/// Seed base for the committed portfolio (never change it without
/// regenerating `results/store/`).
const CHAOS_SEED: u64 = 0xC4A0;

/// All registry names.
pub fn names() -> &'static [&'static str] {
    &["adversary-portfolio"]
}

/// Resolves a named portfolio at the given scale. Builders are pure
/// functions of their arguments, so a named portfolio's spec hash is
/// stable across machines and its committed record gates byte for byte.
pub fn named(name: &str, smoke: bool) -> Option<HuntCampaignSpec> {
    match name {
        "adversary-portfolio" => Some(adversary_portfolio(smoke)),
        _ => None,
    }
}

/// Every objective each protocol can be hunted under in a single-shot
/// portfolio (`two-leaders-at-height` is the serve-context variant of
/// `two-leaders`, so it is deliberately absent).
fn objectives(proto: ProtoKind) -> &'static [Objective] {
    match proto {
        ProtoKind::Le => &[
            Objective::TwoLeaders,
            Objective::Failure,
            Objective::MaxMessages,
            Objective::MaxRounds,
        ],
        ProtoKind::Agree => &[
            Objective::Disagreement,
            Objective::Failure,
            Objective::MaxMessages,
            Objective::MaxRounds,
        ],
    }
}

/// The full search portfolio: every strategy × every supported objective
/// × both protocols, plus one wire-fault cell per protocol that runs the
/// same search through the socket-level fault injector on the channel
/// substrate. Smoke scale is CI-sized (n=16, budget 32); full scale is
/// the nightly workload (n=64, budget 256).
fn adversary_portfolio(smoke: bool) -> HuntCampaignSpec {
    let (n, budget, probes) = if smoke { (16, 32, 2) } else { (64, 256, 3) };
    let wire_budget = if smoke { 16 } else { 64 };
    let cell = |label: String, proto, objective, strategy, budget, wire| HuntCellSpec {
        seed: CHAOS_SEED ^ fnv1a64(label.as_bytes()),
        label,
        proto,
        objective,
        strategy,
        n,
        alpha: 0.5,
        zeros: 0.05,
        budget,
        probes,
        wire,
    };
    let mut spec = HuntCampaignSpec::new("adversary-portfolio");
    for proto in [ProtoKind::Le, ProtoKind::Agree] {
        for &objective in objectives(proto) {
            for strategy in [Strategy::Random, Strategy::Guided, Strategy::Anneal] {
                let label = format!("{}-{}-{}", proto.name(), objective.name(), strategy.name());
                spec = spec.cell(cell(label, proto, objective, strategy, budget, false));
            }
        }
    }
    // Wire-fault cells: the cost objectives always yield a champion, so
    // these always commit a wire plan worth replaying on sockets.
    for proto in [ProtoKind::Le, ProtoKind::Agree] {
        let label = format!("{}-wire-anneal", proto.name());
        let (objective, strategy) = (Objective::MaxMessages, Strategy::Anneal);
        spec = spec.cell(cell(label, proto, objective, strategy, wire_budget, true));
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_sim::ids::NodeId;
    use ftc_sim::json::{self, Json};
    use std::collections::HashSet;

    fn cell(label: &str, proto: ProtoKind, objective: Objective, wire: bool) -> HuntCellSpec {
        HuntCellSpec {
            label: label.into(),
            proto,
            objective,
            strategy: Strategy::Random,
            n: 16,
            alpha: 0.5,
            zeros: 0.05,
            budget: 4,
            probes: 1,
            seed: 23,
            wire,
        }
    }

    fn parse(text: &str) -> HuntCampaignRecord {
        HuntCampaignRecord::from_json(&Json::parse(text).unwrap()).unwrap()
    }

    #[test]
    fn specs_round_trip_and_hash_stably() {
        let spec = HuntCampaignSpec::new("unit").cell(cell(
            "le-failure-random",
            ProtoKind::Le,
            Objective::Failure,
            false,
        ));
        let back =
            HuntCampaignSpec::from_json(&Json::parse(&spec.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.hash(), spec.hash());
        // Any content change moves the hash.
        let mut other = spec.clone();
        other.cells[0].budget = 9;
        assert_ne!(other.hash(), spec.hash());
        let mut wired = spec.clone();
        wired.cells[0].wire = true;
        assert_ne!(wired.hash(), spec.hash());
    }

    #[test]
    fn malformed_cells_are_rejected() {
        let bad = r#"{"name":"x","cells":[{"label":"a","proto":"nope","objective":"failure","strategy":"random","n":16,"alpha":0.5,"zeros":0.0,"budget":1,"probes":1,"seed":1,"wire":false}]}"#;
        assert!(HuntCampaignSpec::from_json(&Json::parse(bad).unwrap()).is_err());
    }

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

    #[test]
    fn campaigns_are_jobs_invariant_and_round_trip() {
        let spec = HuntCampaignSpec::new("run-unit")
            .cell(cell(
                "le-msgs",
                ProtoKind::Le,
                Objective::MaxMessages,
                false,
            ))
            .cell(cell(
                "agree-fail",
                ProtoKind::Agree,
                Objective::Failure,
                false,
            ));
        let a = run_hunt_campaign(&spec, 1).unwrap();
        let b = run_hunt_campaign(&spec, 2).unwrap();
        assert_eq!(a.deterministic_render(), b.deterministic_render());
        assert_eq!(a.id(), b.id());
        assert!(json::diff(&a.to_json(false), &b.to_json(false)).is_empty());
        assert_eq!(a.cells.len(), 2);
        assert_eq!(a.cells[0].evaluated, 4);
        // The searches explored something, and the campaign grid saw it.
        assert!(a.coverage.entries() > 0);
        assert!(a.coverage.fraction() > 0.0);
        // The record survives its own JSON, diag and deterministic alike.
        let with = parse(&a.to_json(true).render());
        assert_eq!(with.deterministic_render(), a.deterministic_render());
        assert_eq!(with.git_rev, a.git_rev);
        let without = parse(&a.deterministic_render());
        assert_eq!(without.git_rev, "unknown");
        assert_eq!(without.id(), a.id());
        // A doctored count is named, cell and key.
        let mut doctored = a.clone();
        doctored.cells[1].hits += 1;
        assert_eq!(
            json::diff(&doctored.to_json(false), &a.to_json(false)),
            vec![format!(
                "cell agree-fail: `hits` {} -> {}",
                a.cells[1].hits + 1,
                a.cells[1].hits
            )]
        );
        // Cost objectives always crown a champion; its artifact replays.
        let replay = a.cells[0].artifact.replay(Substrate::Engine).unwrap();
        assert!(replay.ok(), "portfolio artifact diverged: {replay:?}");
    }

    #[test]
    fn wire_cells_search_and_record_wire_plans() {
        let spec = HuntCampaignSpec::new("wire-unit").cell(cell(
            "le-wire",
            ProtoKind::Le,
            Objective::MaxMessages,
            true,
        ));
        let record = run_hunt_campaign(&spec, 1).unwrap();
        let art = &record.cells[0].artifact;
        assert!(art.wire.is_some(), "wire hunts must record a wire plan");
        // The artifact's rendered form keeps the wire section.
        assert!(record.deterministic_render().contains("\"wire\""));
        // And it replays with the faults re-applied on the channel
        // substrate as well as ignored on the engine.
        assert!(art.replay(Substrate::Engine).unwrap().ok());
        assert!(art.replay(Substrate::Channel(2)).unwrap().ok());
    }

    #[test]
    fn invalid_portfolios_are_rejected_up_front() {
        let empty = HuntCampaignSpec::new("empty");
        assert!(run_hunt_campaign(&empty, 1).is_err());
        let unsupported = HuntCampaignSpec::new("bad").cell(cell(
            "agree-two-leaders",
            ProtoKind::Agree,
            Objective::TwoLeaders,
            false,
        ));
        assert!(run_hunt_campaign(&unsupported, 1).is_err());
        let mut zero = cell("z", ProtoKind::Le, Objective::Failure, false);
        zero.budget = 0;
        assert!(run_hunt_campaign(&HuntCampaignSpec::new("zero").cell(zero), 1).is_err());
    }

    #[test]
    fn coverage_json_lands_in_the_record_shape() {
        let spec = HuntCampaignSpec::new("shape-unit").cell(cell(
            "le-msgs",
            ProtoKind::Le,
            Objective::MaxMessages,
            false,
        ));
        let record = run_hunt_campaign(&spec, 1).unwrap();
        let v = Json::parse(&record.deterministic_render()).unwrap();
        assert_eq!(
            v.field("schema").unwrap().as_str().unwrap(),
            "ftc-chaos-record/v1"
        );
        let cov = v.field("coverage").unwrap();
        assert_eq!(cov.field("buckets").unwrap().as_u64().unwrap(), 80);
        assert!(cov.field("covered").unwrap().as_u64().unwrap() > 0);
    }

    #[test]
    fn every_name_resolves_at_both_scales() {
        for &name in names() {
            for smoke in [false, true] {
                let spec = named(name, smoke).unwrap();
                assert_eq!(spec.name, name);
                assert!(!spec.cells.is_empty());
            }
        }
        assert!(named("nope", true).is_none());
    }

    #[test]
    fn the_portfolio_spans_the_full_grid() {
        let spec = adversary_portfolio(true);
        // 2 protocols × 4 objectives × 3 strategies + 2 wire cells.
        assert_eq!(spec.cells.len(), 26);
        let labels: HashSet<&str> = spec.cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels.len(), spec.cells.len(), "labels are distinct");
        let seeds: HashSet<u64> = spec.cells.iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), spec.cells.len(), "seeds are distinct");
        for strategy in ["random", "guided", "anneal"] {
            assert!(labels.contains(format!("le-failure-{strategy}").as_str()));
            assert!(labels.contains(format!("agree-disagreement-{strategy}").as_str()));
        }
        assert!(labels.contains("le-wire-anneal"));
        assert!(labels.contains("agree-wire-anneal"));
        // Every cell's objective actually supports its protocol.
        for cell in &spec.cells {
            assert!(cell.objective.supports(cell.proto), "{}", cell.label);
        }
    }

    #[test]
    fn scales_differ_and_hashes_are_reproducible() {
        assert_ne!(
            adversary_portfolio(true).hash(),
            adversary_portfolio(false).hash()
        );
        assert_eq!(
            adversary_portfolio(true).hash(),
            adversary_portfolio(true).hash()
        );
        for smoke in [false, true] {
            let spec = adversary_portfolio(smoke);
            let back = HuntCampaignSpec::from_json(&Json::parse(&spec.to_json().render()).unwrap())
                .unwrap();
            assert_eq!(back.hash(), spec.hash());
        }
    }
}
