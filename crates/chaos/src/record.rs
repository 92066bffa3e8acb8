//! Persisted portfolio-hunt records.
//!
//! A [`HuntCampaignRecord`] mirrors the lab's `CampaignRecord` contract:
//! a self-describing JSON document (schema [`CHAOS_SCHEMA`]) whose
//! deterministic payload — everything except the `diag` block — is
//! byte-identical across reruns of the same spec at any `--jobs`, and
//! whose store id content-addresses that payload. It lives in the same
//! content-addressed store as lab records; the store's listing
//! distinguishes the two by schema tag.

use ftc_hunt::prelude::Artifact;
use ftc_lab::run::git_rev;
use ftc_sim::json::Json;

use crate::coverage::Coverage;
use crate::spec::{HuntCampaignSpec, HuntCellSpec};

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
/// coverage figure, and run provenance.
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

    /// Parses a record from a JSON string.
    pub fn parse(s: &str) -> Result<Self, String> {
        let v = Json::parse(s).map_err(|e| format!("record JSON: {}", e.message))?;
        HuntCampaignRecord::from_json(&v).map_err(|e| format!("record: {}", e.message))
    }
}

/// Best-effort provenance for fresh records (re-exported convenience).
pub fn provenance() -> String {
    git_rev()
}
