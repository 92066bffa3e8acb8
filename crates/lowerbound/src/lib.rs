//! # `ftc-lowerbound` — empirical machinery for the message lower bounds
//!
//! Theorems 4.2 and 5.2 of the paper prove that any leader-election or
//! agreement algorithm succeeding with constant probability must send
//! `Ω(√n/α^{3/2})` messages. This crate makes the proof's structure
//! observable on real executions:
//!
//! * [`influence`] — computes the communication graph `C^r`, initiators
//!   and influence clouds of a recorded [`ftc_sim::trace::Trace`], and
//!   checks the disjointness event `N` the proof hinges on.
//!
//! The other half of the evidence — the paper's own protocols starved of
//! messages by a per-node send cap, failing as the spend crosses the
//! `√n/α^{3/2}` threshold — is a lab campaign (`fig-lowerbound`) and
//! `ftc sweep`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod influence;

/// Convenient glob import.
pub mod prelude {
    pub use crate::influence::{crash_targets, CrashTarget, InfluenceAnalysis};
}
