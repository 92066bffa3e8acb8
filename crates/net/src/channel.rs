//! The in-process channel transport, in two shapes.
//!
//! * [`links`] is what the channel substrate runs on: one [`ChannelLink`]
//!   per worker, shaped like `ftc-mesh`'s socket link with an `mpsc`
//!   queue where the mesh has sockets. A frame for a node on the same
//!   worker is handed straight back to the round loop; a frame for
//!   another worker is staged, and each pump sends every non-empty
//!   staging vector to its worker as one message. At one worker no data
//!   frame crosses a channel at all; at `W` workers a round costs at most
//!   `W·(W−1)` channel messages, however many frames it carries.
//! * [`mesh`] is the per-node [`Endpoint`] form: every node owns an `mpsc`
//!   receiver and one shared registry of senders (one `Arc`, `O(n)`
//!   memory — not a per-pair matrix) lets any node push a frame to any
//!   other. It exists for [`crate::sync::run_over`]'s caller-supplied
//!   endpoints, which must see every frame: the benchmark's timing and
//!   capture probes wrap it.
//!
//! Frames are moved, not serialised, but byte accounting still charges
//! the exact [`Frame::encoded_len`] a socket transport would pay, so
//! channel runs and socket-mesh runs report the same `wire_bytes`.
//!
//! This transport is the fast, dependency-free way to exercise the full
//! network stack (frames, round reassembly, crash teardown) in tests, and
//! scales to thousands of nodes with no sockets at all.

use std::io;
use std::mem;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use ftc_sim::ids::NodeId;

use crate::frame::Frame;
use crate::sync::Link;
use crate::transport::{Endpoint, RECV_TIMEOUT};

/// What one worker sends another in one message: frames, each with the
/// slot of the receiving worker's node it is addressed to.
type Batch = Vec<(usize, Frame)>;

/// One worker's in-process [`Link`]: a sender to every worker's queue, its
/// own queue, and one staging vector per peer worker.
#[derive(Debug)]
pub struct ChannelLink {
    index: usize,
    peers: Vec<Sender<Batch>>,
    rx: Receiver<Batch>,
    out: Vec<Batch>,
    recv_timeout: Duration,
}

/// Builds the channel links of an `n`-node run on `workers` workers
/// (clamped to `1..=n`), one per worker in worker order: node `u` lives on
/// worker `u mod workers`, as [`crate::sync::run_over_links`] places it.
/// A pump that waits gives up after `recv_timeout` with nothing arriving.
pub fn links(n: u32, workers: usize, recv_timeout: Duration) -> Vec<ChannelLink> {
    let workers = workers.clamp(1, n as usize);
    let (peers, rxs): (Vec<_>, Vec<_>) = (0..workers).map(|_| channel()).unzip();
    rxs.into_iter()
        .enumerate()
        .map(|(index, rx)| ChannelLink {
            index,
            peers: peers.clone(),
            rx,
            out: vec![Vec::new(); workers],
            recv_timeout,
        })
        .collect()
}

impl Link for ChannelLink {
    fn send(&mut self, _slot: usize, dst: NodeId, frame: Frame) -> io::Result<Option<Frame>> {
        let workers = self.peers.len();
        let peer = dst.index() % workers;
        if peer == self.index {
            return Ok(Some(frame));
        }
        self.out[peer].push((dst.index() / workers, frame));
        Ok(None)
    }

    /// Queues are shared per worker and outlive any one node: a crash is
    /// fully enacted by the filtered burst (D13).
    fn teardown(&mut self, _slot: usize) {}

    /// Frames are moved whole: a tear is absorbed trivially.
    fn tear(&mut self, _chunk: Option<usize>) {}

    fn pump(&mut self, waiting: Option<usize>, inbound: &mut Batch) -> io::Result<bool> {
        for (peer, staged) in self.out.iter_mut().enumerate() {
            if !staged.is_empty() {
                // Every link holds a sender to its own queue, so a queue
                // only closes with its worker, which has finished or
                // failed; the frames vanish, as towards a crashed peer.
                let _ = self.peers[peer].send(mem::take(staged));
            }
        }
        if waiting.is_none() {
            return Ok(false);
        }
        // In a busy round the batch is already queued: take it without
        // reading the clock a timed wait starts with. The link holds a
        // sender to its own queue, so a wait can only fail by timing out.
        let batch = match self.rx.try_recv() {
            Ok(batch) => batch,
            Err(_) => self.rx.recv_timeout(self.recv_timeout).map_err(|_| {
                let (index, timeout) = (self.index, self.recv_timeout);
                let msg = format!("channel worker {index} waited {timeout:?}");
                io::Error::new(io::ErrorKind::TimedOut, msg)
            })?,
        };
        inbound.extend(batch);
        Ok(false)
    }
}

/// One node's attachment to the in-process channel mesh.
#[derive(Debug)]
pub struct ChannelEndpoint {
    node: NodeId,
    peers: Arc<Vec<Sender<Frame>>>,
    rx: Receiver<Frame>,
    torn: bool,
}

/// Builds a fully-connected `n`-node channel mesh, returning the endpoints
/// in node-id order. Every `recv` gives up after [`RECV_TIMEOUT`].
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn mesh(n: u32) -> Vec<ChannelEndpoint> {
    assert!(n >= 2, "a complete network needs at least two nodes");
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
    let peers = Arc::new(txs);
    rxs.into_iter()
        .enumerate()
        .map(|(i, rx)| ChannelEndpoint {
            node: NodeId(i as u32),
            peers: Arc::clone(&peers),
            rx,
            torn: false,
        })
        .collect()
}

impl Endpoint for ChannelEndpoint {
    fn node(&self) -> NodeId {
        self.node
    }

    fn send(&mut self, dst: NodeId, frame: &Frame) -> io::Result<u64> {
        if self.torn {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "endpoint torn down",
            ));
        }
        let tx = self.peers.get(dst.index()).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("no such node {dst}"))
        })?;
        // A receiver that already dropped its endpoint is indistinguishable
        // from a crashed peer; the bytes still count as sent.
        let _ = tx.send(frame.clone());
        Ok(frame.encoded_len())
    }

    fn recv(&mut self) -> io::Result<Frame> {
        if self.torn {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "endpoint torn down",
            ));
        }
        // In a busy round the frame is already queued: take it without
        // reading the clock a timed wait starts with.
        if let Ok(frame) = self.rx.try_recv() {
            return Ok(frame);
        }
        self.rx.recv_timeout(RECV_TIMEOUT).map_err(|e| match e {
            RecvTimeoutError::Timeout => io::Error::new(
                io::ErrorKind::TimedOut,
                format!("node {} waited {RECV_TIMEOUT:?} for a frame", self.node),
            ),
            RecvTimeoutError::Disconnected => {
                io::Error::new(io::ErrorKind::ConnectionAborted, "all peers gone")
            }
        })
    }

    fn teardown(&mut self) {
        self.torn = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(src: u32, seq: u32, payload: &[u8]) -> Frame {
        Frame {
            height: 0,
            round: 0,
            src: NodeId(src),
            seq,
            payload: payload.into(),
        }
    }

    #[test]
    fn frames_reach_their_destination() {
        let mut eps = mesh(3);
        let f = frame(0, 0, b"hi");
        let bytes = eps[0].send(NodeId(2), &f).unwrap();
        assert_eq!(bytes, f.encoded_len());
        assert_eq!(eps[2].recv().unwrap(), f);
    }

    #[test]
    fn teardown_cuts_both_directions() {
        let mut eps = mesh(2);
        eps[0].teardown();
        assert!(eps[0].send(NodeId(1), &frame(0, 0, b"")).is_err());
        assert!(eps[0].recv().is_err());
        // The surviving side can still (pointlessly but harmlessly) send
        // towards the dead node — the bytes vanish, like a real socket
        // whose peer halted.
        assert!(eps[1].send(NodeId(0), &frame(1, 0, b"")).is_ok());
        eps[0].teardown(); // idempotent
    }

    #[test]
    fn a_link_hands_local_frames_back_and_batches_remote_ones() {
        // Four nodes on two workers: worker 0 owns nodes 0 and 2 (slots 0
        // and 1), worker 1 owns nodes 1 and 3.
        let timeout = Duration::from_millis(50);
        let mut links = links(4, 2, timeout);
        let mut far = links.pop().unwrap();
        let mut near = links.pop().unwrap();

        // Node 2 shares node 0's worker: the frame comes straight back.
        let local = frame(0, 0, b"self");
        assert_eq!(near.send(0, NodeId(2), local.clone()).unwrap(), Some(local));

        // Three frames towards both of worker 1's slots are staged, and
        // the flush that reports nothing left sends them as one message.
        let remote = [
            (0, 1, frame(0, 1, b"a")),
            (1, 3, frame(2, 0, b"b")),
            (0, 3, frame(0, 2, b"c")),
        ];
        for (slot, dst, f) in remote {
            assert_eq!(near.send(slot, NodeId(dst), f).unwrap(), None);
        }
        let mut inbound = Vec::new();
        assert!(!near.pump(None, &mut inbound).unwrap());
        assert!(inbound.is_empty());
        assert!(!far.pump(Some(0), &mut inbound).unwrap());
        let slots: Vec<(usize, u32, u32)> =
            inbound.iter().map(|(s, f)| (*s, f.src.0, f.seq)).collect();
        assert_eq!(slots, [(0, 0, 1), (1, 2, 0), (1, 0, 2)]);

        // Nothing else is on its way: the next wait starves and says how
        // long it waited.
        let start = std::time::Instant::now();
        let err = far.pump(Some(0), &mut inbound).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(err.to_string().contains("50ms"), "{err}");
        // Well under the 60 s default: the configured timeout is in force.
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn out_of_range_destination_is_rejected() {
        let mut eps = mesh(2);
        assert_eq!(
            eps[0]
                .send(NodeId(9), &frame(0, 0, b""))
                .unwrap_err()
                .kind(),
            io::ErrorKind::InvalidInput
        );
    }
}
