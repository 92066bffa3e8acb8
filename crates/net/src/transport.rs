//! The per-node transport abstraction behind the endpoint link.
//!
//! An [`Endpoint`] is one node's attachment to a transport: it can push a
//! [`Frame`] to any peer, pull the next frame addressed to itself, and tear
//! itself down (the physical half of a crash). The one round driver
//! ([`crate::sync::run_over_links`]) never sees an endpoint directly: the
//! endpoints a worker owns *are* one of its three links
//! (`impl Link for Vec<E: Endpoint>` — every frame through `send`, a pump
//! is one `recv`). That link carries only [`crate::sync::run_over`]'s
//! caller-supplied endpoints; the substrates run on the per-worker
//! [`crate::channel::ChannelLink`] and `ftc-mesh`'s socket link. The trait
//! stays per node, and frozen, because callers wrap it: the benchmark's
//! timing and capture probes are `Endpoint`s around the one
//! implementation that ships, [`crate::channel::mesh`] (in-process
//! `mpsc`).
//!
//! Transports deliver frames reliably and FIFO per link but with no
//! cross-link ordering, and fast nodes may run rounds ahead of slow ones —
//! so a receiver cannot just take the next `k` frames. Reassembly into
//! rounds is [`crate::core::RoundCore`]'s job: it buffers next-round
//! frames and orders each inbox by `(src, seq)`.

use std::io;
use std::time::Duration;

use ftc_sim::ids::NodeId;

use crate::frame::Frame;

/// Default for how long a link waits for a frame before concluding the
/// cluster is wedged. The driver's accounting guarantees every awaited
/// frame was (or will be) sent, so in a healthy run this never fires; it
/// exists to turn bugs and killed peers into loud errors instead of hangs.
/// [`crate::sync::RunOpts::recv_timeout`] overrides it per run (the
/// channel substrate takes it through [`crate::channel::links`]) and
/// `ftc cluster --recv-timeout` exposes it on the command line. The
/// [`crate::channel::mesh`] endpoints always wait this long.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// One node's attachment to a transport.
pub trait Endpoint: Send {
    /// The node this endpoint belongs to.
    fn node(&self) -> NodeId;

    /// Sends `frame` to `dst`, returning the bytes put on the wire.
    ///
    /// Must not block indefinitely: the driver's phase discipline
    /// (every node transmits before any node collects) relies on sends
    /// completing while receivers are not yet draining.
    fn send(&mut self, dst: NodeId, frame: &Frame) -> io::Result<u64>;

    /// Blocks for the next frame addressed to this node, from any peer.
    ///
    /// Fails with [`io::ErrorKind::TimedOut`] after the endpoint's receive
    /// timeout ([`RECV_TIMEOUT`] for [`crate::channel::mesh`]) and with an
    /// error when the endpoint is torn down or all links are gone.
    fn recv(&mut self) -> io::Result<Frame>;

    /// Tears the endpoint down — the physical enactment of a crash.
    ///
    /// Frames already handed to `send` must still reach their receivers
    /// (crash semantics drop *unsent* messages via delivery filters, not
    /// in-flight bytes); everything after this call fails. Idempotent.
    fn teardown(&mut self);
}
