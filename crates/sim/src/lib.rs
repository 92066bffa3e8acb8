//! # `ftc-sim` — a synchronous crash-fault complete-network simulator
//!
//! This crate is the substrate on which the protocols of Kumar & Molla,
//! *"On the Message Complexity of Fault-Tolerant Computation: Leader
//! Election and Agreement"* (PODC 2021 / IEEE TPDS 2023) execute. It
//! implements, as faithfully and measurably as possible, the model of
//! Section II of the paper:
//!
//! * a **complete network** of `n` nodes,
//! * **anonymous (KT0)** port wiring: every node talks to its neighbours
//!   through ports `0..n-1` that are connected by a uniformly random
//!   permutation it does not know (a [`ports::PortMap`] backed by a
//!   format-preserving Feistel permutation, so memory stays `O(1)` per node
//!   until the node has walked its degree),
//! * **synchronous rounds** in the **CONGEST** model, with per-message and
//!   per-edge bit accounting ([`metrics`]),
//! * a **static crash adversary** that fixes the faulty set before the run
//!   but adaptively chooses *when* each faulty node crashes and *which
//!   subset* of its final-round messages is delivered ([`adversary`]),
//! * optional recording of the **communication graph** `C^r` used by the
//!   paper's lower-bound arguments ([`trace`]).
//!
//! Protocols implement the [`protocol::Protocol`] trait and are executed by
//! [`engine::run`]; repeated seeded executions are driven in parallel by
//! [`runner`], and [`verdict`] judges a run against the paper's success
//! definitions. All executions are deterministic functions of
//! `(SimConfig, seed)`.
//!
//! ## Example
//!
//! ```
//! use ftc_sim::prelude::*;
//!
//! /// Every node sends one `()` to a random port in round 0 and stops.
//! struct Ping { done: bool }
//!
//! impl Protocol for Ping {
//!     type Msg = ();
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
//!         let p = ctx.random_port();
//!         ctx.send(p, ());
//!     }
//!     fn on_round(&mut self, _ctx: &mut Ctx<'_, ()>, _inbox: &[Incoming<()>]) {
//!         self.done = true;
//!     }
//!     fn is_terminated(&self) -> bool { self.done }
//! }
//!
//! let cfg = SimConfig::new(64).seed(7);
//! let result = run(&cfg, |_| Ping { done: false }, &mut NoFaults);
//! assert_eq!(result.metrics.msgs_sent, 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod engine;
pub mod ids;
pub mod json;
pub mod metrics;
#[cfg(test)]
mod naive;
pub mod node;
pub mod payload;
pub mod perm;
pub mod ports;
pub mod protocol;
pub mod round;
pub mod runner;
pub mod stats;
pub mod topology;
pub mod trace;
pub mod verdict;

/// Convenient glob import for simulator users.
pub mod prelude {
    pub use crate::adversary::{
        Adversary, AdversaryView, CrashDirective, DeliveryFilter, EagerCrash, FaultPlan, FaultySet,
        NoFaults, RandomCrash, ScriptedCrash,
    };
    pub use crate::engine::{run, run_sharded, ConfigError, RunResult, SimConfig};
    pub use crate::ids::{NodeId, Port, Round};
    pub use crate::json::{Json, JsonError};
    pub use crate::metrics::{LogHistogram, Metrics, ServiceMetrics};
    pub use crate::node::NodeHarness;
    pub use crate::payload::{Payload, Wire};
    pub use crate::ports::PortMap;
    pub use crate::protocol::{Ctx, Draw, Incoming, Protocol};
    pub use crate::round::{ControlCore, EdgeFates, RoundVerdict};
    pub use crate::runner::{AbortHandle, ParRunner, TrialBatch, TrialOutcome, TrialPlan};
    pub use crate::stats::Summary;
    pub use crate::topology::{EdgeSet, Topology};
    pub use crate::trace::{Trace, TraceEvent};
    pub use crate::verdict::{Decides, Verdict};
}
