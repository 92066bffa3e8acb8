//! # `ftc` — fault-tolerant computation with sublinear message complexity
//!
//! Umbrella crate for the reproduction of Kumar & Molla, *"On the Message
//! Complexity of Fault-Tolerant Computation: Leader Election and
//! Agreement"* (PODC 2021 brief announcement; full version IEEE TPDS
//! 34(4), 2023). It re-exports the nine member crates:
//!
//! * [`sim`] — the synchronous crash-fault simulator (KT0 ports, CONGEST
//!   accounting, adversaries, traces) on the complete network or a sparse
//!   topology;
//! * [`core`] — the paper's protocols: implicit/explicit leader election
//!   and agreement, plus worst-case adversaries;
//! * [`baselines`] — the Table-I comparison protocols (FloodSet,
//!   broadcast LE, GK10-style, CK09-style gossip, Kutten et al.);
//! * [`lowerbound`] — influence-cloud analysis for the `Ω(√n/α^{3/2})`
//!   lower bounds (the message-budget sweeps are lab cells: `ftc sweep`,
//!   the `fig-lowerbound` campaign);
//! * [`net`] — the sans-I/O round core and the round driver over
//!   in-process channels, bit-identical to the simulator for any
//!   `(SimConfig, seed)`;
//! * [`mesh`] — the socket runtime: one localhost socket per *process*
//!   pair and many simulated nodes per process on the same round core,
//!   and the one `Substrate` every run names;
//! * [`hunt`] — adversary search: hunts, shrinks, and replays worst-case
//!   crash schedules as committed counterexample artifacts, and runs the
//!   whole strategies × objectives × protocols grid as one portfolio
//!   record with a schedule-space coverage figure (also reachable as
//!   `chaos`, its former crate name);
//! * [`lab`] — declarative experiment campaigns: parameter grids over the
//!   protocols (Table I and every figure among them, with their
//!   renderers), a content-addressed results store under `results/store/`
//!   that holds lab and portfolio records alike, bit-for-bit gates that
//!   name each drifted key, and the CI perf gate;
//! * [`serve`] — a long-lived leader *service*: repeated election heights
//!   over the unmodified protocols, leader-kill churn with rejoin, a
//!   deterministic load generator, and a runtime invariant monitor that
//!   turns violations into replayable `hunt` artifacts.
//!
//! See `examples/quickstart.rs` for a end-to-end tour and `DESIGN.md` /
//! `EXPERIMENTS.md` for the experiment index.
//!
//! ```
//! use ftc::prelude::*;
//!
//! let params = Params::new(128, 0.5)?;
//! let cfg = SimConfig::new(128).seed(1).max_rounds(params.le_round_budget());
//! let mut adversary = EagerCrash::new(64);
//! let result = run(&cfg, |_| LeNode::new(params.clone()), &mut adversary);
//! assert!(LeOutcome::evaluate(&result).success);
//! # Ok::<(), ftc::core::params::ParamsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ftc_baselines as baselines;
pub use ftc_core as core;
pub use ftc_hunt as hunt;
pub use ftc_hunt as chaos;
pub use ftc_lab as lab;
pub use ftc_lowerbound as lowerbound;
pub use ftc_mesh as mesh;
pub use ftc_net as net;
pub use ftc_serve as serve;
pub use ftc_sim as sim;

pub mod output;

/// Everything, in one import.
pub mod prelude {
    pub use crate::output::{emit_summaries, render_summaries, Format, RowWriter, Value};
    pub use ftc_baselines::prelude::*;
    pub use ftc_core::prelude::*;
    pub use ftc_hunt::prelude::*;
    pub use ftc_lab::{
        run_campaign, Adv, CampaignRecord, CampaignSpec, CellSpec, CheckAxis, CheckMetric,
        ExponentCheck, Record, Store, Workload,
    };
    pub use ftc_lowerbound::prelude::*;
    pub use ftc_mesh::prelude::*;
    pub use ftc_net::prelude::*;
    pub use ftc_serve::prelude::*;
    pub use ftc_sim::prelude::*;
}
