//! # `ftc-serve` — a long-lived leader service on the ftc substrates
//!
//! The protocols of Kumar & Molla are one-shot: a single election, a
//! single agreement. Real systems elect *repeatedly* — a leader serves
//! until it dies, the survivors elect again, clients retry through the
//! outage. This crate closes that gap without touching the protocols: a
//! service run is a sequence of monotonically numbered **heights**, each
//! a complete, unmodified [`LeNode`](ftc_core::prelude::LeNode) election
//! on a fresh mesh, glued together by
//!
//! * a **churn plan** ([`churn::ChurnPlan`]) that crashes the sitting
//!   leader (plus bystanders) and lets downed nodes rejoin later,
//! * a deterministic **load generator** ([`loadgen::LoadGen`]) whose
//!   request latencies make election outages *measurable* (a request
//!   issued before a leader crash waits out the whole re-election),
//! * a runtime **invariant monitor** ([`monitor::Monitor`]) checking
//!   leader uniqueness per height and request linearity, and minting
//!   replayable `ftc-hunt` artifacts for protocol-level violations,
//! * a **split-brain seeder** ([`seeder::split_brain_plan`]) that
//!   manufactures real two-leader schedules so the monitor's evidence
//!   pipeline can be demonstrated end-to-end.
//!
//! Everything — election outcomes, churn victims, arrivals, latencies —
//! is a deterministic function of the [`service::ServeConfig`], on every
//! substrate: the same service history replays on the in-process engine,
//! the channel mesh, and the socket mesh — one `Substrate::run` call per
//! height (heights ride the height-tagged frames of `ftc-net`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod loadgen;
pub mod monitor;
pub mod seeder;
pub mod service;

/// Convenient glob import for service users.
pub mod prelude {
    pub use crate::churn::{ChurnPlan, ChurnState};
    pub use crate::loadgen::{LoadGen, LoadProfile, LoadReport};
    pub use crate::monitor::{Monitor, Violation};
    pub use crate::seeder::split_brain_plan;
    pub use crate::service::{height_seed, run_service, HeightOutcome, ServeConfig, ServiceReport};
}
