//! # `ftc-net` — a real message-passing runtime for the ftc protocols
//!
//! The simulator (`ftc-sim`) executes the model of Kumar & Molla — a
//! synchronous crash-fault complete network — entirely in process. This
//! crate is the second execution substrate: the *same* unmodified
//! [`Protocol`](ftc_sim::protocol::Protocol) state machines run over a real
//! transport, with protocol messages serialised into length-prefixed
//! [`frame::Frame`]s, KT0 port wiring preserved on the wire, crashes
//! enacted as partial delivery plus endpoint teardown, and per-run byte
//! accounting (`wire_bytes`) reported next to the model metrics.
//!
//! **One driver, three links.** The [`sync`] module holds the only round
//! driver in the workspace — one coordinator function
//! ([`sync::run_over_links`]) and one worker loop, generic over a small
//! [`sync::Link`] trait that hides only how a frame moves. Everything a
//! round *decides* lives in the sans-I/O [`core`]; everything about
//! *driving* a round (phase order, wire-fault hooks, byte accounting,
//! dedup, failure reports) lives in that one loop. Three links exist:
//!
//! * [`channel::ChannelLink`], the channel substrate: one in-process
//!   `mpsc` queue per worker, frames for the worker's own nodes handed
//!   straight back, the rest crossing in one message per worker pair per
//!   round — dependency-free, fast, scales to thousands of nodes; the
//!   workhorse for equivalence tests;
//! * `ftc-mesh`'s socket link, the same shape over sockets (one socket
//!   per *process* pair, so one per edge at one node per process);
//! * the per-node [`transport::Endpoint`]s a caller hands
//!   [`sync::run_over`], every frame through an endpoint so a wrapper
//!   sees them all (the [`channel::mesh`] endpoints are what ships).
//!
//! `ftc_mesh::Substrate::run` is the single call that runs a
//! `(SimConfig, seed)` on the engine, the channels or the sockets.
//!
//! The driver's defining property: a network run is **bit-identical** to
//! an engine run of the same `(SimConfig, seed)` — same leaders, same
//! decisions, same message/round counts, same crash schedule — because both
//! drivers are built on the simulator's shared control plane
//! ([`ftc_sim::round::ControlCore`]) and per-node harness
//! ([`ftc_sim::node::NodeHarness`]). The network does not *approximate* the
//! simulator; it *replays* it over sockets, so every claim validated in
//! simulation transfers to the wire.
//!
//! ## Example
//!
//! ```
//! use ftc_net::prelude::*;
//! use ftc_sim::prelude::*;
//!
//! /// Every node greets all neighbours once.
//! struct Hello { greeted: u64, done: bool }
//!
//! impl Protocol for Hello {
//!     type Msg = u64;
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
//!         ctx.broadcast(42);
//!     }
//!     fn on_round(&mut self, _ctx: &mut Ctx<'_, u64>, inbox: &[Incoming<u64>]) {
//!         self.greeted += inbox.len() as u64;
//!         self.done = true;
//!     }
//!     fn is_terminated(&self) -> bool { self.done }
//! }
//!
//! let cfg = SimConfig::new(8).seed(1);
//! let result = run_over_channel(&cfg, 2, |_| Hello { greeted: 0, done: false }, &mut NoFaults);
//! assert_eq!(result.run.metrics.msgs_delivered, 8 * 7);
//! assert!(result.net.wire_bytes > 0); // real frames were paid for
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod core;
pub mod fault;
pub mod frame;
pub mod sync;
pub mod transport;

/// Convenient glob import for runtime users.
pub mod prelude {
    pub use crate::channel::ChannelEndpoint;
    pub use crate::core::{Command, CoordinatorCore, NodeStatus, RoundCore, RoundPlan, Submission};
    pub use crate::fault::{
        ChunkedWriter, FrameDedup, WireFaultEntry, WireFaultKind, WireFaultPlan,
    };
    pub use crate::frame::Frame;
    pub use crate::sync::{
        run_over, run_over_channel, run_over_links, Link, NetMetrics, NetRunResult, RunOpts,
    };
    pub use crate::transport::{Endpoint, RECV_TIMEOUT};
}
