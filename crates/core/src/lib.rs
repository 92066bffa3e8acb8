//! # `ftc-core` — sublinear-message fault-tolerant leader election & agreement
//!
//! Rust implementation of the protocols of Kumar & Molla, *"On the Message
//! Complexity of Fault-Tolerant Computation: Leader Election and
//! Agreement"* (PODC 2021 brief announcement; full version IEEE TPDS 34(4),
//! 2023):
//!
//! * [`leader_election`] — implicit leader election in `O(log n/α)` rounds
//!   and `O(√n·log^{5/2}n/α^{5/2})` messages whp (Theorem 4.1);
//! * [`agreement`] — implicit binary agreement in `O(log n/α)` rounds and
//!   `O(√n·log^{3/2}n/α^{3/2})` message bits whp (Theorem 5.1), written
//!   once as min-propagation over any value domain a `Carrier` sends;
//! * [`explicit`] — the `O(n·log n/α)`-message explicit extensions, written
//!   once as one announce round over either implicit protocol;
//! * [`multi_agreement`] — multi-valued generalisation (extension): the
//!   same state machine over `{0..k}`;
//! * [`byzantine`] — Byzantine attacks probing open question 3 (extension);
//! * [`adversaries`] — the paper's worst-case crash schedules;
//! * [`params`], [`rank`], [`sampling`], [`messages`] — the shared
//!   building blocks (Lemmas 1–3).
//!
//! Each protocol state says what it decided through
//! [`ftc_sim::verdict::Decides`], and a run is judged by its
//! [`ftc_sim::verdict::Verdict`]: an agreement run succeeds when
//! `verdict.implicit() && verdict.valid` (Definition 2). Leader election
//! keeps one view of its own, [`leader_election::LeOutcome`]: Definition 1
//! also counts the claim of a leader that crashed after it was elected,
//! which a survivors-only verdict cannot see, and it judges at rank level
//! (which leader, and whether it is faulty).
//!
//! All protocols run on the [`ftc_sim`] substrate: a synchronous,
//! fully-connected, **anonymous (KT0)** network in the CONGEST model with
//! up to `n − log²n` crash faults under a static adversary with adaptive
//! crash timing.
//!
//! ## Quick start
//!
//! ```
//! use ftc_sim::prelude::*;
//! use ftc_core::prelude::*;
//!
//! // 256 nodes, at least half of them non-faulty.
//! let params = Params::new(256, 0.5)?;
//! let cfg = SimConfig::new(256).seed(42).max_rounds(params.le_round_budget());
//!
//! // Crash 128 nodes at adversarially chosen times.
//! let mut adversary = RandomCrash::new(128, 30);
//! let result = run(&cfg, |_| LeNode::new(params.clone()), &mut adversary);
//!
//! let outcome = LeOutcome::evaluate(&result);
//! assert!(outcome.success);
//! println!(
//!     "leader {:?} elected with {} messages in {} rounds",
//!     outcome.agreed_leader, result.metrics.msgs_sent, result.metrics.rounds
//! );
//! # Ok::<(), ftc_core::params::ParamsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversaries;
pub mod agreement;
pub mod byzantine;
pub mod explicit;
pub mod leader_election;
pub mod messages;
pub mod multi_agreement;
pub mod params;
pub mod rank;
pub mod sampling;

/// Convenient glob import for protocol users.
pub mod prelude {
    pub use crate::adversaries::{AdaptiveCandidateKiller, MinRankCrasher, ZeroHolderCrasher};
    pub use crate::agreement::AgreeNode;
    pub use crate::byzantine::{EquivocatingClaimant, ZeroForger};
    pub use crate::explicit::{ExplicitAgreeNode, ExplicitLeNode};
    pub use crate::leader_election::{LeNode, LeOutcome, LeStatus};
    pub use crate::messages::{AgreeMsg, LeMsg};
    pub use crate::multi_agreement::{MultiAgreeNode, MultiMsg};
    pub use crate::params::{Params, ParamsError};
    pub use crate::rank::Rank;
}
