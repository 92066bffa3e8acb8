//! `ftc-lab`: declarative experiment campaigns over the fault-tolerant
//! computation protocols.
//!
//! An experiment is data, not a binary: a [`CampaignSpec`] names a grid
//! of cells (workload × n × α × adversary, each with a seed and trial
//! budget) plus optional fitted-exponent assertions, and
//! [`run_campaign`] expands the grid onto the deterministic parallel
//! trial runner. The result is a [`CampaignRecord`] — a self-describing
//! JSON document carrying the spec, its hash, per-cell [`Summary`]s and
//! log-histograms, and wall-clock provenance — persisted in a
//! content-addressed [`store`] (which also holds `ftc-hunt`'s portfolio
//! records) and gated in CI against committed baselines: a fresh run must
//! reproduce the deterministic payload byte for byte, and
//! [`ftc_sim::json::diff`] names each key that moved. The named campaigns are
//! the rows of [`campaigns::CAMPAIGNS`]; Table I and the paper's figures
//! are among them, each with the renderer ([`figures`]) that turns its
//! record into the figure's text.
//!
//! [`Summary`]: ftc_sim::stats::Summary

#![forbid(unsafe_code)]

pub mod baseline;
pub mod campaigns;
pub mod figures;
pub mod run;
pub mod spec;
pub mod store;

pub use ftc_mesh::Substrate;
pub use run::{run_campaign, run_cell, CampaignRecord, CellResult, CheckResult};
pub use spec::{Adv, CampaignSpec, CellSpec, CheckAxis, CheckMetric, ExponentCheck, Workload};
pub use store::{Record, Store};
