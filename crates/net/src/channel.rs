//! The in-process channel transport.
//!
//! Every node owns an `mpsc` receiver; a single shared registry of senders
//! (one `Arc`, `O(n)` memory — not a per-pair matrix) lets any node push a
//! frame to any other. Frames are moved, not serialised, but byte
//! accounting still charges the exact [`Frame::encoded_len`] a socket
//! transport would pay, so channel runs and socket-mesh runs report the
//! same `wire_bytes`.
//!
//! This transport is the fast, dependency-free way to exercise the full
//! network stack (frames, round reassembly, crash teardown) in tests, and
//! scales to thousands of nodes with no sockets at all.

use std::io;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use ftc_sim::ids::NodeId;

use crate::frame::Frame;
use crate::transport::{Endpoint, RECV_TIMEOUT};

/// One node's attachment to the in-process channel mesh.
#[derive(Debug)]
pub struct ChannelEndpoint {
    node: NodeId,
    peers: Arc<Vec<Sender<Frame>>>,
    rx: Receiver<Frame>,
    timeout: Duration,
    torn: bool,
}

/// Builds a fully-connected `n`-node channel mesh with the default
/// [`RECV_TIMEOUT`], returning the endpoints in node-id order.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn mesh(n: u32) -> Vec<ChannelEndpoint> {
    mesh_with_timeout(n, RECV_TIMEOUT)
}

/// Like [`mesh`], but every endpoint's `recv` gives up after
/// `recv_timeout` instead of the default [`RECV_TIMEOUT`].
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn mesh_with_timeout(n: u32, recv_timeout: Duration) -> Vec<ChannelEndpoint> {
    assert!(n >= 2, "a complete network needs at least two nodes");
    let mut txs = Vec::with_capacity(n as usize);
    let mut rxs = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let (tx, rx) = channel();
        txs.push(tx);
        rxs.push(rx);
    }
    let peers = Arc::new(txs);
    rxs.into_iter()
        .enumerate()
        .map(|(i, rx)| ChannelEndpoint {
            node: NodeId(i as u32),
            peers: Arc::clone(&peers),
            rx,
            timeout: recv_timeout,
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
        self.rx.recv_timeout(self.timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => io::Error::new(
                io::ErrorKind::TimedOut,
                format!("node {} waited {:?} for a frame", self.node, self.timeout),
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
    fn custom_recv_timeout_fires_quickly() {
        let mut eps = mesh_with_timeout(2, Duration::from_millis(10));
        let start = std::time::Instant::now();
        let err = eps[1].recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(err.to_string().contains("10ms"), "{err}");
        // Well under the 60 s default — the configured timeout is in force.
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
