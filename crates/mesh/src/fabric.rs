//! The proc-pair socket fabric: O(procs²) sockets, independent of n.
//!
//! One socket per edge needs `n·(n-1)/2` of them — fatal long before
//! n = 1024. The mesh runtime instead opens exactly **one localhost TCP
//! connection per unordered pair of procs** (`procs·(procs-1)/2` in
//! total, [`socket_count`]) and multiplexes every node pair whose
//! endpoints live on those procs over it, so a 1024-node cluster on 4
//! procs uses 6 sockets where one per edge would need 523,776. At one
//! node per proc (`procs = n ≤` [`MAX_MESH_PROCS`]) the two coincide: the
//! fabric *is* the per-edge socket mesh.
//!
//! Setup: one listener per proc, the upper triangle dialed sequentially with a 4-byte hello naming the dialing
//! proc, `TCP_NODELAY` everywhere. Streams are then handed to the
//! nonblocking [`mio`] layer — the readiness loop owns them from there.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

/// Upper bound on the proc count. Sockets scale as O(procs²), and a proc
/// maps onto an OS thread with its own readiness loop — past this, more
/// procs only add scheduler pressure.
pub const MAX_MESH_PROCS: usize = 64;

/// The number of sockets a `procs`-proc fabric opens: one per unordered
/// proc pair. This is the whole point — O(procs²), not O(n²).
pub fn socket_count(procs: usize) -> usize {
    procs * (procs - 1) / 2
}

/// One proc's view of the fabric: its socket to every peer proc (`None`
/// at its own index).
pub type ProcLinks = Vec<Option<mio::net::TcpStream>>;

/// Builds the localhost socket fabric for `procs` procs.
///
/// Returns one [`ProcLinks`] per proc. Fails with
/// [`io::ErrorKind::InvalidInput`] for `procs == 0` or
/// `procs > `[`MAX_MESH_PROCS`], and propagates socket errors otherwise.
/// A single-proc fabric is valid and opens no sockets (all traffic is
/// proc-local).
pub fn build(procs: usize) -> io::Result<Vec<ProcLinks>> {
    let links = build_where(procs, |_, _| true)?;
    // The load-bearing scaling claim, enforced rather than assumed.
    let opened = links
        .iter()
        .map(|mine| mine.iter().filter(|l| l.is_some()).count())
        .sum::<usize>()
        / 2;
    assert_eq!(
        opened,
        socket_count(procs),
        "fabric must open exactly one socket per proc pair"
    );
    Ok(links)
}

/// Like [`build`], but only opens a socket for the proc pairs `(u, v)`,
/// `u < v`, where `need(u, v)` is true — the topology-aware fabric. A
/// pair of procs with no model edge crossing between them shares no
/// traffic, so it gets no socket; a send towards a missing link is a
/// runtime bug and fails the run (the socket link's `send` errors) rather
/// than vanishing.
pub fn build_where(
    procs: usize,
    need: impl Fn(usize, usize) -> bool,
) -> io::Result<Vec<ProcLinks>> {
    if procs == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a mesh needs at least one proc",
        ));
    }
    if procs > MAX_MESH_PROCS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("mesh capped at {MAX_MESH_PROCS} procs (sockets scale as procs²)"),
        ));
    }
    let listeners: Vec<TcpListener> = (0..procs)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr())
        .collect::<io::Result<_>>()?;

    let mut links: Vec<ProcLinks> = (0..procs)
        .map(|_| (0..procs).map(|_| None).collect())
        .collect();
    for v in 1..procs {
        // Indexing is the clearest shape here: each iteration writes both
        // halves of the pair, links[u][v] and links[v][u].
        #[allow(clippy::needless_range_loop)]
        for u in 0..v {
            if !need(u, v) {
                continue;
            }
            let dialed = TcpStream::connect(addrs[v])?;
            dialed.set_nodelay(true)?;
            (&dialed).write_all(&(u as u32).to_le_bytes())?;
            let (accepted, _) = listeners[v].accept()?;
            accepted.set_nodelay(true)?;
            let mut hello = [0u8; 4];
            (&accepted).read_exact(&mut hello)?;
            let who = u32::from_le_bytes(hello) as usize;
            if who != u {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("fabric handshake mismatch: expected proc {u}, peer says {who}"),
                ));
            }
            links[u][v] = Some(mio::net::TcpStream::from_std(dialed));
            links[v][u] = Some(mio::net::TcpStream::from_std(accepted));
        }
    }
    Ok(links)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_count_is_quadratic_in_procs_only() {
        assert_eq!(socket_count(1), 0);
        assert_eq!(socket_count(2), 1);
        assert_eq!(socket_count(4), 6);
        assert_eq!(socket_count(8), 28);
    }

    #[test]
    fn fabric_links_form_one_connection_per_pair() {
        let links = build(4).unwrap();
        for (p, mine) in links.iter().enumerate() {
            assert!(mine[p].is_none(), "no self-link");
            let peers = mine.iter().filter(|l| l.is_some()).count();
            assert_eq!(peers, 3, "proc {p} links to every other proc");
        }
        // Both halves of each pair are ends of the same connection.
        let mut a = links[0][1].as_ref().unwrap();
        let mut b = links[1][0].as_ref().unwrap();
        a.write_all(b"pair").unwrap();
        let mut buf = [0u8; 4];
        // Nonblocking read: spin briefly until the kernel moves the bytes.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            match b.read(&mut buf) {
                Ok(4) => break,
                Ok(_) | Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                }
                other => panic!("pair link never delivered: {other:?}"),
            }
        }
        assert_eq!(&buf, b"pair");
    }

    #[test]
    fn gated_fabric_opens_only_the_requested_pairs() {
        // Ring of 4 procs: pairs (0,1), (1,2), (2,3), (0,3) — the
        // diagonal pairs (0,2) and (1,3) carry no traffic and get no
        // socket.
        let ring = |u: usize, v: usize| v - u == 1 || (u == 0 && v == 3);
        let links = build_where(4, ring).unwrap();
        for (p, mine) in links.iter().enumerate() {
            for (q, link) in mine.iter().enumerate() {
                let (lo, hi) = (p.min(q), p.max(q));
                let expect = p != q && ring(lo, hi);
                assert_eq!(link.is_some(), expect, "pair ({p},{q})");
            }
        }
    }

    #[test]
    fn single_proc_fabric_is_socketless() {
        let links = build(1).unwrap();
        assert_eq!(links.len(), 1);
        assert!(links[0].iter().all(Option::is_none));
    }

    #[test]
    fn size_limits_are_enforced() {
        assert_eq!(build(0).unwrap_err().kind(), io::ErrorKind::InvalidInput);
        assert_eq!(
            build(MAX_MESH_PROCS + 1).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
    }
}
