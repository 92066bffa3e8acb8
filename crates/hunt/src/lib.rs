//! # ftc-hunt — adversary search over crash-schedule space
//!
//! The paper's theorems are `O(·)` upper bounds that hold *with high
//! probability against every static crash adversary*. The simulator can
//! only sample adversaries; this crate searches for the bad ones. It
//! hunts crash schedules ([`FaultPlan`]s) that falsify a property or blow
//! a cost bound, shrinks what it finds to a minimal reproducer, and emits
//! a replayable [`Artifact`] that re-executes bit-for-bit on the sim
//! engine **and** on the `ftc-net` cluster runtimes — so every
//! counterexample the hunt keeps is a real-wire counterexample, and every
//! committed artifact is a standing CI check.
//!
//! The pipeline, one module per stage:
//!
//! * [`proto`] — the one protocol bridge: runs either protocol under a
//!   named or scripted schedule on any substrate and condenses the result
//!   into a replay-comparable [`Fingerprint`];
//! * [`objective`] — scores observations (two leaders, disagreement,
//!   failure, message/round cost) and decides what counts as a hit;
//! * [`mutate`] — proposes schedules: uniform, influence-cloud-guided
//!   (via `ftc-lowerbound`), or local mutations;
//! * [`search`] — the budgeted generation loop on [`ParRunner`]:
//!   deterministic in `(spec, seed, budget)` and invariant under
//!   `--jobs`;
//! * [`shrink`] — ddmin over crash entries, then filter and round
//!   simplification, all against the exact counterexample seed;
//! * [`artifact`] — the JSON bundle `ftc replay` re-checks, minted from a
//!   finished hunt by [`Artifact::mint`](crate::artifact::Artifact::mint);
//! * [`portfolio`] — the whole strategies × objectives × protocols grid as
//!   one content-addressed record with a schedule-space coverage figure,
//!   run and gated through `ftc lab` like any other campaign.
//!
//! [`FaultPlan`]: ftc_sim::prelude::FaultPlan
//! [`ParRunner`]: ftc_sim::runner::ParRunner
//! [`Fingerprint`]: crate::proto::Fingerprint
//! [`Artifact`]: crate::artifact::Artifact

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod mutate;
pub mod objective;
pub mod portfolio;
pub mod proto;
pub mod search;
pub mod shrink;

/// Convenience re-exports of the subsystem's surface.
pub mod prelude {
    pub use crate::artifact::{Artifact, ReplayReport, ARTIFACT_VERSION};
    pub use crate::mutate::{
        guided_plan, mutate_plan, mutate_wire_plan, random_plan, random_wire_plan, PlanSpace,
    };
    pub use crate::objective::{Bounds, Objective};
    pub use crate::portfolio::{
        run_hunt_campaign, Coverage, HuntCampaignRecord, HuntCampaignSpec, HuntCellResult,
        HuntCellSpec, CHAOS_SCHEMA,
    };
    pub use crate::proto::{
        agree_input, observe, observe_wire, Adv, Fingerprint, Observation, ProtoKind, ProtoRun,
        Schedule, Substrate,
    };
    pub use crate::search::{run_hunt, Candidate, HuntReport, HuntSpec, Strategy};
    pub use crate::shrink::ShrinkReport;
}
