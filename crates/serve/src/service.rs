//! The long-lived leader service.
//!
//! A service run is a sequence of *heights*: monotonically numbered
//! election instances, each executed as one complete, unmodified
//! [`LeNode`] protocol run on a fresh mesh. Height `h` runs under the
//! derived seed [`height_seed`]`(seed, h)`, so the whole multi-height
//! history — topologies, ranks, referee samples, churn victims, load
//! arrivals — is a deterministic function of one `(ServeConfig)` value,
//! on every substrate: the in-process engine, the channel mesh, or the
//! socket mesh (which replay each height bit-identically under
//! `RunOpts::height`).
//!
//! Between elections the service serves client load for a fixed window,
//! then (per the [`ChurnPlan`]) crashes the sitting leader and a few
//! bystanders, forcing a re-election at the next height. Downed nodes
//! rejoin after a configurable outage. The [`Monitor`] checks leader
//! uniqueness and request linearity throughout and mints replayable
//! artifacts for any protocol-level violation.

use std::time::{Duration, Instant};

use ftc_core::prelude::{LeNode, LeOutcome, Params};
use ftc_hunt::prelude::{Artifact, Substrate};
use ftc_net::prelude::RunOpts;
use ftc_sim::engine::SimConfig;
use ftc_sim::perm::stream_seed;
use ftc_sim::prelude::{FaultPlan, NodeId, ScriptedCrash, ServiceMetrics};

use crate::churn::{ChurnPlan, ChurnState};
use crate::loadgen::{LoadGen, LoadProfile, LoadReport};
use crate::monitor::{Monitor, Violation};

/// Salt space for per-height election seeds (low bits carry the height).
const SALT_HEIGHT_BASE: u64 = 0x5E2E_E000_0000_0000;
/// Salt for the load generator's arrival stream.
const SALT_LOAD: u64 = 0x10AD;
/// Salt space for churn victim selection.
const SALT_CHURN_BASE: u64 = 0xC42A_0000_0000_0000;

/// The election seed of height `h` under service seed `seed`.
pub fn height_seed(seed: u64, h: u32) -> u64 {
    stream_seed(seed, SALT_HEIGHT_BASE | u64::from(h))
}

/// A full service-run specification.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Network size.
    pub n: u32,
    /// Resilience parameter of the election protocol.
    pub alpha: f64,
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Heights (election instances) to run.
    pub heights: u32,
    /// Serving rounds between a successful election and the next height.
    pub window_rounds: u32,
    /// Which substrate executes the elections.
    pub substrate: Substrate,
    /// The churn policy.
    pub churn: ChurnPlan,
    /// Client load, if any. Without it the service still tracks
    /// availability and time-to-new-leader, just not request latency.
    pub load: Option<LoadProfile>,
    /// Extra fault-plan entries merged into specific heights — the
    /// fault-injection hook the split-brain seeder and tests use.
    pub inject: Vec<(u32, FaultPlan)>,
}

impl ServeConfig {
    /// A default service: 8 heights on the engine, no churn, no load.
    pub fn new(n: u32, alpha: f64) -> Self {
        ServeConfig {
            n,
            alpha,
            seed: 1,
            heights: 8,
            window_rounds: 12,
            substrate: Substrate::Engine,
            churn: ChurnPlan::none(),
            load: None,
            inject: Vec::new(),
        }
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of heights.
    pub fn heights(mut self, heights: u32) -> Self {
        self.heights = heights;
        self
    }

    /// Sets the serving window length.
    pub fn window_rounds(mut self, rounds: u32) -> Self {
        self.window_rounds = rounds;
        self
    }

    /// Sets the substrate.
    pub fn substrate(mut self, substrate: Substrate) -> Self {
        self.substrate = substrate;
        self
    }

    /// Sets the churn policy.
    pub fn churn(mut self, churn: ChurnPlan) -> Self {
        self.churn = churn;
        self
    }

    /// Enables the load generator.
    pub fn load(mut self, profile: LoadProfile) -> Self {
        self.load = Some(profile);
        self
    }

    /// Merges `plan` into the fault plan of height `h`.
    pub fn inject_at(mut self, h: u32, plan: FaultPlan) -> Self {
        self.inject.push((h, plan));
        self
    }
}

/// What one height produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeightOutcome {
    /// The height number.
    pub height: u32,
    /// The election seed this height ran under.
    pub seed: u64,
    /// The elected leader, if the election succeeded.
    pub leader: Option<NodeId>,
    /// The leader's rank.
    pub rank: Option<u64>,
    /// Whether the election met the protocol's success predicate.
    pub success: bool,
    /// Election rounds executed.
    pub rounds: u32,
    /// Protocol messages sent during the election.
    pub msgs_sent: u64,
    /// Protocol bits sent during the election.
    pub bits_sent: u64,
    /// Transport bytes (0 on the engine substrate).
    pub wire_bytes: u64,
    /// Size of the down-set this height ran with.
    pub down: u32,
}

/// The result of a whole service run.
#[derive(Debug)]
pub struct ServiceReport {
    /// Per-height outcomes, in height order.
    pub heights: Vec<HeightOutcome>,
    /// Wall-clock time of each height's election (its one `Substrate::run`
    /// call), in height order. Beside `heights`, never inside them: an
    /// outcome is the same on every substrate, the time it took is not.
    pub election_wall: Vec<Duration>,
    /// Cross-height service metrics (TTNL histogram, availability, ...).
    pub metrics: ServiceMetrics,
    /// The load generator's report, when load was configured.
    pub load: Option<LoadReport>,
    /// Every invariant violation the monitor observed.
    pub violations: Vec<Violation>,
    /// Replayable artifacts for the protocol-level violations.
    pub artifacts: Vec<Artifact>,
    /// Churn crash events that actually fired.
    pub crashes: u32,
}

impl ServiceReport {
    /// The safety verdict: no invariant violation observed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total protocol messages across all heights.
    pub fn total_msgs(&self) -> u64 {
        self.heights.iter().map(|h| h.msgs_sent).sum()
    }

    /// Total protocol bits across all heights.
    pub fn total_bits(&self) -> u64 {
        self.heights.iter().map(|h| h.bits_sent).sum()
    }

    /// Total service rounds (election + serving).
    pub fn total_rounds(&self) -> u64 {
        self.metrics.total_rounds
    }
}

/// Runs the service to completion.
pub fn run_service(cfg: &ServeConfig) -> Result<ServiceReport, String> {
    let params = Params::new(cfg.n, cfg.alpha)
        .and_then(|p| p.check_le().map(|()| p))
        .map_err(|e| format!("serve: bad params: {e}"))?;
    let mut churn = ChurnState::new();
    let mut monitor = Monitor::new();
    let mut metrics = ServiceMetrics::new();
    let mut load = cfg
        .load
        .clone()
        .map(|p| LoadGen::new(p, stream_seed(cfg.seed, SALT_LOAD)));
    let mut heights = Vec::with_capacity(cfg.heights as usize);
    let mut election_wall = Vec::with_capacity(cfg.heights as usize);
    let mut seqno: u64 = 0;
    let mut since_kill = 0u32;
    let mut crashes = 0u32;

    for h in 0..cfg.heights {
        churn.release(&cfg.churn, h);
        let mut plan = churn.fault_plan();
        for (ih, extra) in &cfg.inject {
            if *ih == h {
                for (node, round, filter) in extra.entries() {
                    // A node already down this height stays down; the
                    // engine rejects double crashes.
                    if plan.entries().iter().any(|(d, _, _)| d == node) {
                        continue;
                    }
                    plan = plan.crash(*node, *round, filter.clone());
                }
            }
        }
        let hseed = height_seed(cfg.seed, h);
        let hcfg = SimConfig::new(cfg.n)
            .seed(hseed)
            .max_rounds(params.le_round_budget());
        let factory = |_| LeNode::new(params.clone());
        let mut adv = ScriptedCrash::new(plan.clone());
        let opts = RunOpts {
            height: h,
            ..RunOpts::default()
        };
        let started = Instant::now();
        let nr = cfg
            .substrate
            .run(&hcfg, factory, &mut adv, &opts)
            .map_err(|e| format!("serve: height {h}: {e}"))?;
        election_wall.push(started.elapsed());
        let (r, wire_bytes) = (nr.run, nr.net.wire_bytes);
        let outcome = LeOutcome::evaluate(&r);
        monitor.election(h, &params, &hcfg, &plan, &outcome);
        let success = outcome.success;
        let rank = outcome.agreed_leader.map(|rk| rk.0);
        metrics.record_election(if success { rank } else { None }, r.metrics.rounds);
        if let Some(lg) = &mut load {
            lg.election_window(r.metrics.rounds);
        }
        heights.push(HeightOutcome {
            height: h,
            seed: hseed,
            leader: if success { outcome.leader_node } else { None },
            rank: if success { rank } else { None },
            success,
            rounds: r.metrics.rounds,
            msgs_sent: r.metrics.msgs_sent,
            bits_sent: r.metrics.bits_sent,
            wire_bytes,
            down: churn.down_count() as u32,
        });
        if !success {
            // No leader: the next height re-elects immediately; the
            // election rounds already counted as unavailable time.
            continue;
        }
        let leader = outcome.leader_node.expect("success implies a leader");
        if let Some(lg) = &mut load {
            lg.serving_window(cfg.window_rounds, |id, _lat| {
                monitor.request_completed(h, id, seqno, Some(leader));
                seqno += 1;
            });
        }
        metrics.record_serving_window(u64::from(cfg.window_rounds));

        // Churn: after enough successful heights, take the leader (and a
        // few bystanders) down — capped so the down-set never exceeds the
        // adversary's fault budget.
        since_kill += 1;
        if !cfg.churn.is_none() && since_kill >= cfg.churn.kill_leader_every {
            since_kill = 0;
            if churn.down_count() < params.max_faults() {
                churn.crash(leader, h + 1);
                crashes += 1;
            }
            for i in 0..cfg.churn.bystanders {
                if churn.down_count() >= params.max_faults() {
                    break;
                }
                let salt = SALT_CHURN_BASE | (u64::from(h) << 16) | u64::from(i);
                let pick = NodeId((stream_seed(cfg.seed, salt) % u64::from(cfg.n)) as u32);
                if pick != leader && !churn.is_down(pick) {
                    churn.crash(pick, h + 1);
                    crashes += 1;
                }
            }
        }
    }

    let (violations, artifacts) = monitor.into_findings();
    Ok(ServiceReport {
        heights,
        election_wall,
        metrics,
        load: load.map(|lg| lg.report()),
        violations,
        artifacts,
        crashes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeder::split_brain_plan;
    use ftc_hunt::prelude::Substrate;

    fn churny(n: u32, seed: u64, heights: u32) -> ServeConfig {
        ServeConfig::new(n, 0.5)
            .seed(seed)
            .heights(heights)
            .churn(ChurnPlan {
                kill_leader_every: 2,
                bystanders: 1,
                rejoin_after: 3,
            })
            .load(LoadProfile::default())
    }

    #[test]
    fn a_churny_service_stays_safe_and_keeps_electing() {
        let report = run_service(&churny(16, 11, 20)).unwrap();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.metrics.heights, 20);
        assert_eq!(report.heights.len(), 20);
        assert!(report.crashes > 0, "churn never fired");
        assert!(
            report.metrics.leader_changes >= 2,
            "leader never changed despite churn: {:?}",
            report.metrics
        );
        // TTNL histogram has one sample per successful election.
        assert_eq!(
            report.metrics.ttnl_rounds.count(),
            u64::from(report.metrics.heights - report.metrics.failed_elections)
        );
        let avail = report.metrics.availability().unwrap();
        assert!(avail > 0.0 && avail < 1.0, "availability {avail}");
        let load = report.load.unwrap();
        assert!(load.completed > 0);
        assert!(load.latency.quantile(0.99) >= load.latency.quantile(0.5));
    }

    #[test]
    fn service_runs_are_deterministic() {
        let a = run_service(&churny(16, 7, 12)).unwrap();
        let b = run_service(&churny(16, 7, 12)).unwrap();
        assert_eq!(a.heights, b.heights);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.load, b.load);
        assert_eq!(a.crashes, b.crashes);
    }

    #[test]
    fn engine_and_channel_substrates_agree_per_height() {
        let base = churny(16, 5, 6);
        let engine = run_service(&base).unwrap();
        let channel = run_service(&base.clone().substrate(Substrate::Channel(3))).unwrap();
        // Bit-equivalence, lifted to the whole service history: every
        // height elects the same leader with the same traffic.
        for (e, c) in engine.heights.iter().zip(&channel.heights) {
            assert_eq!(e.leader, c.leader, "height {}", e.height);
            assert_eq!(e.rank, c.rank, "height {}", e.height);
            assert_eq!(e.msgs_sent, c.msgs_sent, "height {}", e.height);
            assert_eq!(e.rounds, c.rounds, "height {}", e.height);
            assert!(c.wire_bytes > 0, "height {} paid no wire bytes", e.height);
        }
        assert_eq!(engine.metrics, channel.metrics);
    }

    #[test]
    fn per_edge_socket_substrate_smoke() {
        // `Mesh(64)` clamps to one node per proc: one socket per edge.
        let cfg = ServeConfig::new(8, 0.5)
            .seed(3)
            .heights(3)
            .substrate(Substrate::Mesh(64));
        let engine = run_service(&ServeConfig {
            substrate: Substrate::Engine,
            ..cfg.clone()
        })
        .unwrap();
        let mesh = run_service(&cfg).unwrap();
        assert_eq!(
            engine.heights.iter().map(|h| h.leader).collect::<Vec<_>>(),
            mesh.heights.iter().map(|h| h.leader).collect::<Vec<_>>()
        );
        assert!(mesh.heights.iter().all(|h| h.wire_bytes > 0));
    }

    #[test]
    fn monitor_catches_a_seeded_split_brain_and_mints_a_replayable_artifact() {
        let params = Params::new(256, 0.5).unwrap();
        // Find a service seed whose height-0 election admits the
        // construction, exactly as the CLI's --inject-split-brain does.
        let (seed, plan) = (1..32)
            .find_map(|seed| {
                let hcfg = SimConfig::new(256)
                    .seed(height_seed(seed, 0))
                    .max_rounds(params.le_round_budget());
                split_brain_plan(&params, &hcfg).ok().map(|p| (seed, p))
            })
            .expect("no service seed in 1..32 admits a split brain at n=256");
        let cfg = ServeConfig::new(256, 0.5)
            .seed(seed)
            .heights(3)
            .load(LoadProfile::default())
            .inject_at(0, plan);
        let report = run_service(&cfg).unwrap();
        assert!(!report.ok(), "monitor missed the seeded split brain");
        assert!(matches!(
            report.violations[0],
            Violation::TwoLeaders { height: 0, .. }
        ));
        // The artifact replays: same fingerprint, same verdict, on both
        // the engine and a real channel mesh.
        assert_eq!(report.artifacts.len(), 1);
        let art = &report.artifacts[0];
        assert_eq!(art.height, Some(0));
        assert!(art.hit);
        let replay = art.replay(Substrate::Engine).unwrap();
        assert!(replay.ok(), "engine replay diverged: {replay:?}");
        let wire = art.replay(Substrate::Channel(2)).unwrap();
        assert!(wire.ok(), "channel replay diverged: {wire:?}");
        // And it survives the JSON round trip `ftc replay` reads.
        let parsed = Artifact::parse(&art.render()).unwrap();
        assert_eq!(parsed.height, Some(0));
        assert_eq!(parsed.render(), art.render());
        // Later heights recovered: fresh elections, unique leaders.
        assert!(report.heights[1].success || report.heights[2].success);
    }

    #[test]
    fn failed_elections_are_counted_not_fatal() {
        // Crash enough nodes up front that some election fails: inject a
        // big round-0 crash set at every height with a tiny n.
        let params = Params::new(16, 0.5).unwrap();
        let f = params.max_faults();
        let mut cfg = ServeConfig::new(16, 0.5).seed(2).heights(6);
        for h in 0..6 {
            let mut plan = FaultPlan::new();
            // Crash f distinct nodes, offset per height.
            for i in 0..f as u32 {
                plan = plan.crash(
                    NodeId((h * 3 + i) % 16),
                    0,
                    ftc_sim::adversary::DeliveryFilter::DropAll,
                );
            }
            cfg = cfg.inject_at(h, plan);
        }
        let report = run_service(&cfg).unwrap();
        assert_eq!(report.metrics.heights, 6);
        // Whatever happened, accounting is consistent and safety held.
        assert!(report.ok());
        assert_eq!(
            report.metrics.ttnl_rounds.count() + u64::from(report.metrics.failed_elections),
            6
        );
    }
}
