//! Portfolio execution: fan each cell onto the hunt pipeline and
//! condense the portfolio into a stored record.
//!
//! Each cell is exactly one `run_hunt` + [`Artifact::mint`] — the same
//! pipeline a single `ftc hunt` runs — with a coverage observer
//! riding on [`run_hunt_observed`] so every explored schedule is
//! projected onto the bucket grid whether or not it hit anything. The
//! hunt is deterministic in `(spec, seed, budget)` and invariant under
//! `jobs`, coverage counts are additive, and wall clocks live outside
//! the deterministic payload — so two runs of the same spec produce
//! byte-identical deterministic renders, which is what `gate` compares.

use std::time::Instant;

use ftc_core::prelude::Params;
use ftc_hunt::prelude::{run_hunt_observed, Artifact, HuntSpec, Substrate};
use ftc_sim::engine::SimConfig;

use crate::coverage::Coverage;
use crate::record::{provenance, HuntCampaignRecord, HuntCellResult};
use crate::spec::{HuntCampaignSpec, HuntCellSpec};

/// Worker threads for wire-fault cells (the channel substrate is where
/// the injector lives; two workers keep CI cheap while still exercising
/// real cross-worker framing).
const WIRE_WORKERS: usize = 2;

/// Runs one portfolio cell: hunt, shrink, mint the artifact, and account
/// coverage over everything the search explored.
pub fn run_hunt_cell(cell: &HuntCellSpec, jobs: usize) -> Result<HuntCellResult, String> {
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
        git_rev: provenance(),
        wall_s: start.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_hunt::prelude::{Objective, ProtoKind, Strategy};
    use ftc_sim::json::Json;

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
        assert_eq!(a.cells.len(), 2);
        assert_eq!(a.cells[0].evaluated, 4);
        // The searches explored something, and the campaign grid saw it.
        assert!(a.coverage.entries() > 0);
        assert!(a.coverage.fraction() > 0.0);
        // The record survives its own JSON, diag and deterministic alike.
        let with = HuntCampaignRecord::parse(&a.to_json(true).render()).unwrap();
        assert_eq!(with.deterministic_render(), a.deterministic_render());
        assert_eq!(with.git_rev, a.git_rev);
        let without = HuntCampaignRecord::parse(&a.deterministic_render()).unwrap();
        assert_eq!(without.git_rev, "unknown");
        assert_eq!(without.id(), a.id());
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
}
