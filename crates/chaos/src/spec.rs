//! Declarative hunt-portfolio specs.
//!
//! A [`HuntCellSpec`] is one adversary search — the exact arguments a
//! single `ftc hunt` invocation would take — and a [`HuntCampaignSpec`]
//! is the grid of them. Specs are data: JSON round-trippable, hashed with
//! the same FNV the lab store uses, so a named campaign's hash is stable
//! across machines and a committed record can be gated byte-for-byte.

use ftc_hunt::prelude::{Objective, ProtoKind, Strategy};
use ftc_lab::spec::fnv1a64;

/// One adversary search in a portfolio.
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

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_sim::json::Json;

    fn sample() -> HuntCampaignSpec {
        HuntCampaignSpec::new("unit").cell(HuntCellSpec {
            label: "le-failure-random".into(),
            proto: ProtoKind::Le,
            objective: Objective::Failure,
            strategy: Strategy::Random,
            n: 16,
            alpha: 0.5,
            zeros: 0.05,
            budget: 8,
            probes: 2,
            seed: 11,
            wire: false,
        })
    }

    #[test]
    fn specs_round_trip_and_hash_stably() {
        let spec = sample();
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
}
