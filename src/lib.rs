//! # `ftc` — fault-tolerant computation with sublinear message complexity
//!
//! Umbrella crate for the reproduction of Kumar & Molla, *"On the Message
//! Complexity of Fault-Tolerant Computation: Leader Election and
//! Agreement"* (PODC 2021 brief announcement; full version IEEE TPDS
//! 34(4), 2023). It re-exports the four member crates:
//!
//! * [`sim`] — the synchronous crash-fault complete-network simulator
//!   (KT0 ports, CONGEST accounting, adversaries, traces);
//! * [`core`] — the paper's protocols: implicit/explicit leader election
//!   and agreement, plus worst-case adversaries;
//! * [`baselines`] — the Table-I comparison protocols (FloodSet,
//!   broadcast LE, GK10-style, CK09-style gossip, Kutten et al.);
//! * [`lowerbound`] — influence-cloud analysis for the `Ω(√n/α^{3/2})`
//!   lower bounds (the message-budget sweeps are lab cells: `ftc sweep`,
//!   the `fig-lowerbound` campaign);
//! * [`net`] — the real message-passing runtime: the same protocols over
//!   in-process channels or localhost TCP sockets, bit-identical to the
//!   simulator for any `(SimConfig, seed)`;
//! * [`mesh`] — the multiplexed socket runtime: one socket per *process*
//!   pair and many simulated nodes per process, taking real cluster runs
//!   from n=8 to n=1024 on the same sans-I/O round core;
//! * [`hunt`] — adversary search: hunts, shrinks, and replays worst-case
//!   crash schedules as committed counterexample artifacts;
//! * [`chaos`] — portfolio hunts at campaign scale: the full strategies ×
//!   objectives × protocol grid as one self-describing record with a
//!   schedule-space coverage figure, plus socket-level wire-fault search;
//! * [`lab`] — declarative experiment campaigns: parameter grids over the
//!   protocols (Table I and every figure among them, with their
//!   renderers), a content-addressed results store under `results/store/`,
//!   cell-by-cell diffs with statistical tolerance bands, and the CI perf
//!   gate built on them;
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
pub use ftc_chaos as chaos;
pub use ftc_core as core;
pub use ftc_hunt as hunt;
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
    pub use ftc_chaos::prelude::*;
    pub use ftc_core::prelude::*;
    pub use ftc_hunt::prelude::*;
    pub use ftc_lab::{
        diff_records, run_campaign, Adv, CampaignRecord, CampaignSpec, CellSpec, CheckAxis,
        CheckMetric, DiffReport, ExponentCheck, Store, Tolerance, Workload,
    };
    pub use ftc_lowerbound::prelude::*;
    pub use ftc_mesh::prelude::*;
    pub use ftc_net::prelude::*;
    pub use ftc_serve::prelude::*;
    pub use ftc_sim::prelude::*;
}
