//! # ftc-mesh — the multiplexed socket runtime, and the substrate switch
//!
//! The third execution substrate for the ftc protocol stack (after the
//! engine and the in-process channel mesh), and the only one with real
//! sockets: built for cluster runs at n in the hundreds and thousands,
//! where one socket per node pair stops being physically possible, and
//! degenerating to exactly that per-edge socket mesh at one node per
//! process.
//!
//! The design is one driver over two cleanly separated layers:
//!
//! - **Layer 1 — the sans-I/O round core.** [`RoundCore`] (per node) and
//!   [`CoordinatorCore`] (control plane) are pure state machines: feed
//!   inbound frames in, poll outbound frames and round transitions out.
//!   No sockets, no threads, no clocks — unit-testable in isolation and
//!   shared by *every* runtime. They physically live in
//!   [`ftc_net::core`]; this crate re-exports them as its Layer 1.
//! - **The one round driver.** [`ftc_net::sync::run_over_links`] — one
//!   coordinator function and one worker loop — drives those cores for the
//!   channel runtime and for this one alike, generic over a
//!   [`ftc_net::sync::Link`] that hides only how a frame moves. This crate
//!   has no round loop of its own.
//! - **Layer 2 — the socket link.** [`fabric`] opens exactly one
//!   localhost socket per unordered *process* pair — O(procs²) sockets,
//!   independent of n — and [`runtime`] is the `Link` over it: [`wire`]
//!   envelopes (`[dst][frame]`) are coalesced per peer into large
//!   nonblocking writes, and reads are drained into incremental decoders
//!   whenever the poller reports data. Backpressure comes from the kernel
//!   socket buffers (`WouldBlock` ⇒ drain reads, retry), never from
//!   unbounded queues.
//!
//! [`runtime::run_over_mesh`] is bit-identical to the engine and the
//! channel runtime for the same `(SimConfig, seed)` — at any process
//! count. `tests/net_equivalence.rs` pins that three ways.
//!
//! Sitting at the top of the runtime stack, this crate also owns
//! [`Substrate`]: the one value that names an execution substrate and the
//! one call ([`Substrate::run`]) that dispatches to the engine, the
//! channels or the sockets.

#![forbid(unsafe_code)]

pub mod fabric;
pub mod runtime;
pub mod substrate;
pub mod wire;

pub use ftc_net::sync::RunOpts;
pub use substrate::Substrate;

// Layer 1 of this crate: the sans-I/O round state machines, hosted in
// ftc-net so both runtimes (channel, mesh) share one control plane.
pub use ftc_net::core::{Command, CoordinatorCore, NodeStatus, RoundCore, RoundPlan, Submission};

/// Everything a cluster caller needs.
pub mod prelude {
    pub use crate::fabric::{socket_count, MAX_MESH_PROCS};
    pub use crate::runtime::run_over_mesh;
    pub use crate::substrate::Substrate;
    pub use ftc_net::core::{
        Command, CoordinatorCore, NodeStatus, RoundCore, RoundPlan, Submission,
    };
}
