//! # `ftc-baselines` — comparison protocols for Table I and the figures
//!
//! The paper's evaluation artifact is Table I: a comparison of the
//! agreement protocol against the best known algorithms in the same model.
//! This crate implements each comparison row (or the closest faithful
//! stand-in, see DESIGN.md §5) plus the classic baselines the sublinear
//! bounds are measured against:
//!
//! | Module | Stands for | Messages | Rounds | Resilience | Model |
//! |--------|-----------|----------|--------|-----------|-------|
//! | [`flood_agreement`] | folklore FloodSet | `O(n²)` | `f+1` | any `f` | KT0 |
//! | [`broadcast_le`] | deterministic LE | `O(n²)` | `f+1` | any `f` | KT0 |
//! | [`gilbert_kowalski`] | Gilbert–Kowalski SODA'10 `[24]` | `O(n)` | `O(log n)` | `n/2−1` | KT1 |
//! | [`chlebus_kowalski`] | Chlebus–Kowalski SPAA'09 `[36]` | `O(n log n)` exp. | `O(log n)` exp. | linear | KT0 |
//! | [`kutten_le`] | Kutten et al. TCS'15 `[21]` (fault-free) | `O(√n·log^{3/2}n)` | `O(1)` | none | KT0 |
//! | [`diam_two_le`] | Chatterjee–Pandurangan–Robinson ICDCN'20 (hub relay, diameter-two) | `O(n·h)` | `O(1)` | none | KT0 |
//! | [`augustine_agreement`] | Augustine–Molla–Pandurangan PODC'18 `[23]` (fault-free) | `O(√n·log^{3/2}n)` | `O(1)` | none | KT0 |
//!
//! No baseline carries its own judge. Each node implements
//! [`ftc_sim::verdict::Decides`], and a run's success is a rule over its
//! [`ftc_sim::verdict::Verdict`] (DESIGN D29):
//!
//! | Module | Decides | Success |
//! |--------|---------|---------|
//! | [`augustine_agreement`] | its bit, input validity | `implicit() && valid` |
//! | [`chlebus_kowalski`], [`gilbert_kowalski`], [`flood_agreement`] | its bit, input validity | `explicit() && valid` |
//! | [`kutten_le`], [`diam_two_le`] | `()` when elected | `deciders == 1` |
//! | [`broadcast_le`] | the minimum rank it saw | `implicit()`, and at most one elected survivor |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod augustine_agreement;
pub mod broadcast_le;
pub mod chlebus_kowalski;
pub mod diam_two_le;
pub mod flood_agreement;
pub mod gilbert_kowalski;
pub mod kutten_le;

/// Convenient glob import for baseline users.
pub mod prelude {
    pub use crate::augustine_agreement::{augustine_round_budget, AugustineMsg, AugustineNode};
    pub use crate::broadcast_le::{broadcast_le_round_budget, BroadcastLeNode};
    pub use crate::chlebus_kowalski::{gossip_round_budget, gossip_rounds, GossipNode};
    pub use crate::diam_two_le::{diam_two_round_budget, DiamTwoLeNode, DiamTwoMsg};
    pub use crate::flood_agreement::{flood_round_budget, FloodAgreeNode};
    pub use crate::gilbert_kowalski::{gk_round_budget, GkMsg, GkNode};
    pub use crate::kutten_le::{kutten_round_budget, KuttenLeNode, KuttenMsg};
}
