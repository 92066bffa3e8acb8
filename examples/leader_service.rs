//! A long-lived leader service on the real runtime: re-election across
//! heights as leaders die, over actual message-passing.
//!
//! The paper's introduction motivates leader election as a fault-tolerance
//! subroutine of real systems (Akamai's CDN, Paxos). This example runs
//! such a service on `ftc-serve`: each election *height* elects a
//! coordinator with the paper's sublinear protocol over the `ftc-net`
//! channel transport — protocol messages travel as length-prefixed frames
//! between node threads, crashes are enacted as mid-round partial
//! delivery — then churn kills the coordinator (plus some bystanders) and
//! the next height re-elects among the survivors. Between elections the
//! deterministic load generator routes requests to the current leader,
//! and the invariant monitor checks leader uniqueness and request
//! linearity the whole time. The point: total coordination traffic stays
//! tiny — each height costs `Õ(√n)` messages instead of the `Θ(n²)` a
//! broadcast election would burn — and the cost is visible in real wire
//! bytes, not just simulator counters.
//!
//! Every height is one `Substrate::run` call, so the substrate is a
//! one-word choice: swap `Substrate::Channel(WORKERS)` for
//! `Substrate::Mesh(4)` to watch the same service run over localhost TCP
//! sockets (one per proc pair — shrink `N` to ≤ 64 and pass
//! `Substrate::Mesh(64)` for one socket per edge), or for
//! `Substrate::Engine` to replay it in the simulator.
//!
//! ```sh
//! cargo run --release --example leader_service
//! ```

use ftc::prelude::*;

const N: u32 = 1024;
const ALPHA: f64 = 0.5;
const HEIGHTS: u32 = 8;
const WORKERS: usize = 4;

fn main() -> Result<(), String> {
    let cfg = ServeConfig::new(N, ALPHA)
        .seed(1)
        .heights(HEIGHTS)
        .window_rounds(16)
        .substrate(Substrate::Channel(WORKERS))
        .churn(ChurnPlan {
            kill_leader_every: 1, // every height's coordinator dies...
            bystanders: 15,       // ...along with a handful of bystanders
            rejoin_after: 0,      // and nobody comes back
        })
        .load(LoadProfile {
            arrivals_per_round: 4,
            leader_capacity: 8,
        });

    println!("leader service: {N} nodes on the channel transport, {HEIGHTS} heights");
    println!("(each height the elected coordinator and 15 bystanders crash)");
    println!();
    println!(
        "{:>6} {:>8} {:>12} {:>8} {:>10} {:>12}",
        "height", "down", "leader", "success", "msgs", "wire bytes"
    );

    let report = run_service(&cfg)?;
    let mut total_msgs: u64 = 0;
    let mut total_wire: u64 = 0;
    for h in &report.heights {
        total_msgs += h.msgs_sent;
        total_wire += h.wire_bytes;
        println!(
            "{:>6} {:>8} {:>12} {:>8} {:>10} {:>12}",
            h.height,
            h.down,
            h.leader.map_or("-".into(), |l| l.to_string()),
            h.success,
            h.msgs_sent,
            h.wire_bytes
        );
    }

    let m = &report.metrics;
    let load = report.load.as_ref().expect("load generator is armed");
    println!();
    println!(
        "service: {} elections ok, {} failed; availability {:.3}; \
         time-to-new-leader p50 {} rounds",
        m.heights - m.failed_elections,
        m.failed_elections,
        m.availability().unwrap_or(0.0),
        m.ttnl_rounds.quantile(0.5).unwrap_or(0),
    );
    println!(
        "load: {} requests issued, {} completed, {} retried across an election; \
         latency p50 {} / p99 {} rounds",
        load.issued,
        load.completed,
        load.retried,
        load.latency.quantile(0.5).unwrap_or(0),
        load.latency.quantile(0.99).unwrap_or(0),
    );
    assert!(
        report.ok(),
        "invariant monitor flagged violations: {:?}",
        report.violations
    );
    println!("invariant monitor: leader uniqueness and request linearity held");

    println!();
    let naive = u64::from(N) * u64::from(N - 1) * u64::from(HEIGHTS);
    println!(
        "total coordination traffic: {total_msgs} messages / {total_wire} wire bytes \
         across {HEIGHTS} heights;"
    );
    println!(
        "a broadcast election would have cost ~{naive} messages ({}x more).",
        naive / total_msgs.max(1)
    );
    Ok(())
}
