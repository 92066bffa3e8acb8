//! Campaign execution: expand the grid onto the deterministic trial
//! runner and condense each cell into a stored result.
//!
//! Every cell fans its trials over [`ParRunner`] with the exact seed
//! derivation the figures have always used (`stream_seed(seed, i+1)`),
//! so a figure reproduces its historical numbers bit-for-bit and
//! results are `--jobs`-invariant by construction. Wall-clock times are
//! recorded but live outside the record's deterministic payload — two
//! runs of the same spec at the same seed produce byte-identical
//! deterministic renders (that is what `gate` compares and what the store
//! content-addresses).

use std::collections::HashSet;
use std::time::Instant;

use ftc_baselines::prelude::*;
use ftc_core::adversaries::MinRankCrasher;
use ftc_core::byzantine::{EquivocatingClaimant, ZeroForger};
use ftc_core::prelude::*;
use ftc_core::sampling::draw_committee;
use ftc_hunt::proto::{agree_input, check_zeros, ProtoKind, Schedule};
use ftc_mesh::{RunOpts, Substrate};
use ftc_serve::prelude::{run_service, ChurnPlan, LoadProfile, ServeConfig};
use ftc_sim::adversary::{EagerCrash, NoFaults, RandomCrash};
use ftc_sim::engine::{run_sharded, RunResult, SimConfig};
use ftc_sim::ids::NodeId;
use ftc_sim::json::git_rev;
use ftc_sim::metrics::{LogHistogram, Metrics};
use ftc_sim::perm::stream_seed;
use ftc_sim::protocol::{Draw, Stream};
use ftc_sim::runner::{ParRunner, TrialPlan};
use ftc_sim::stats::{fit_power_law, Summary};
use ftc_sim::topology::Topology;
use ftc_sim::verdict::Decides;

use crate::spec::{Adv, CampaignSpec, CellSpec, CheckAxis, CheckMetric, ExponentCheck, Workload};

/// What one trial yields, uniformly across workloads.
#[derive(Clone, Debug)]
pub struct TrialValue {
    /// The workload's success predicate.
    pub success: bool,
    /// Messages sent.
    pub msgs: u64,
    /// Bits sent.
    pub bits: u64,
    /// Rounds executed.
    pub rounds: u32,
    /// Crash events.
    pub crashes: u64,
    /// Workload-specific extra measurements (fixed small set per
    /// workload, e.g. `faulty_leader`, `suppressed`, `lost_edges`).
    pub extras: Vec<(&'static str, f64)>,
}

/// An engine run's trial value.
fn value_of<T>(
    r: &RunResult<T>,
    success: bool,
    extras: Vec<(&'static str, f64)>,
) -> Result<TrialValue, String> {
    Ok(metrics_value(&r.metrics, success, extras))
}

fn metrics_value(m: &Metrics, success: bool, extras: Vec<(&'static str, f64)>) -> TrialValue {
    TrialValue {
        success,
        msgs: m.msgs_sent,
        bits: m.bits_sent,
        rounds: m.rounds,
        crashes: m.crash_count() as u64,
        extras,
    }
}

/// The engine-bench canary: every node broadcasts a word per round for a
/// fixed number of rounds. Maximum delivery-path pressure (`n·(n-1)`
/// envelopes per round, fault-free), deterministic message counts.
struct BenchChatter {
    rounds_done: u32,
    budget: u32,
    heard: u64,
}

impl ftc_sim::protocol::Protocol for BenchChatter {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut ftc_sim::protocol::Ctx<'_, u64>) {
        ctx.broadcast(0);
    }
    fn on_round(
        &mut self,
        ctx: &mut ftc_sim::protocol::Ctx<'_, u64>,
        inbox: &[ftc_sim::protocol::Incoming<u64>],
    ) {
        self.heard += inbox.len() as u64;
        self.rounds_done += 1;
        if self.rounds_done < self.budget {
            ctx.broadcast(u64::from(ctx.round()));
        }
    }
    fn is_terminated(&self) -> bool {
        self.rounds_done >= self.budget
    }
}

/// One trial of a built cell: a pure function of its derived seed and
/// `opts`, `opts.intra_jobs` included (the engine shards a round without
/// changing a bit of it).
pub(crate) type Trial = Box<dyn Fn(u64, &RunOpts<'_>) -> Result<TrialValue, String> + Sync>;

/// Builds the trial every seed of `cell` runs on `substrate`, checking its
/// config, parameters and adversary as it makes them. A cell no trial of
/// which can run is an error naming the cell before any trial starts,
/// never a worker panic or a record of another run than the one it names.
pub(crate) fn trial(cell: &CellSpec, substrate: Substrate) -> Result<Trial, String> {
    build(cell, substrate).map_err(|e| format!("cell `{}`: {e}", cell.label))
}

/// [`trial`], before the cell's label is put on its error.
fn build(cell: &CellSpec, substrate: Substrate) -> Result<Trial, String> {
    let (n, alpha) = (cell.n, cell.alpha);
    let mut cfg = SimConfig::try_new(n).map_err(|e| e.to_string())?;
    cell.topology.validate(n).map_err(|e| e.to_string())?;
    if !cell.topology.is_complete() {
        cfg = cfg.topology(cell.topology.clone());
    }
    if cell.trials == 0 {
        return Err("zero trials".into());
    }
    // `((1 − α)·n) as usize` leaves `0..=n` for α < 0 and saturates to no
    // faults for α > 1.
    if !(alpha > 0.0 && alpha <= 1.0) {
        return Err(format!("alpha={alpha} is outside (0, 1]"));
    }
    let params = || Params::new(n, alpha).map_err(|e| format!("n={n} alpha={alpha}: {e}"));
    // The leader-election arms' parameters: LE needs n ≥ 3 (Lemma 3).
    let le_params = || params().and_then(|p| p.check_le().map(|()| p).map_err(|e| e.to_string()));
    // The fault budget the schedule-only workloads spend.
    let f = ((1.0 - alpha) * f64::from(n)) as usize;
    let probability = |key: &str, p: f64| in_range(key, p, (0.0..1.0).contains(&p), "in [0, 1)");
    let positive = |key: &str, x: f64| in_range(key, x, x > 0.0, "> 0");
    // One above n panics `FaultySet::random` on a worker.
    let within_n = |faults: u64| match faults <= u64::from(n) {
        true => Ok(()),
        false => Err(format!("faults={faults} exceeds n={n}")),
    };
    let complete = || match cell.topology.is_complete() {
        true => Ok(()),
        false => Err(format!(
            "workload `{}` runs on the complete graph only",
            cell.workload.tag()
        )),
    };
    match cell.workload {
        Workload::Le { adv } => bridged(ProtoKind::Le, 0.0, adv, le_params()?, cfg, substrate),
        Workload::Agree { zeros, adv } => {
            bridged(ProtoKind::Agree, zeros, adv, params()?, cfg, substrate)
        }
        _ if substrate != Substrate::Engine => Err(format!(
            "substrate `{}` only runs the plain le/agree workloads, not `{}`",
            substrate.label(),
            cell.workload.tag()
        )),
        Workload::LeIter { factor, per_round } => {
            positive("factor", factor)?;
            let params = le_params()?.with_iteration_factor(factor);
            // `le_round_budget`, whose `4·iterations` wraps for a large
            // enough factor.
            let budget = (params.iterations().checked_mul(4))
                .and_then(|r| r.checked_add(params.preprocess_rounds() + 8))
                .ok_or_else(|| format!("factor={factor:e} needs more than {} rounds", u32::MAX))?;
            let f = params.max_faults();
            engine(cfg.max_rounds(budget), move |cfg, ij| {
                let per_round = per_round as usize;
                let mut adv = MinRankCrasher { f, per_round };
                let r = run_sharded(cfg, |_| LeNode::new(params.clone()), &mut adv, ij);
                value_of(&r, LeOutcome::evaluate(&r).success, vec![])
            })
        }
        Workload::LeByzantine { b } => {
            let b = b as usize;
            EquivocatingClaimant::new(b)
                .validate(n)
                .map_err(|e| e.to_string())?;
            let params = le_params()?;
            engine(cfg.max_rounds(params.le_round_budget()), move |cfg, ij| {
                let mut adv = EquivocatingClaimant::new(b);
                let r = run_sharded(cfg, |_| LeNode::new(params.clone()), &mut adv, ij);
                value_of(&r, LeOutcome::evaluate(&r).success, vec![])
            })
        }
        Workload::AgreeByzantine { b } => {
            let b = b as usize;
            ZeroForger::new(b).validate(n).map_err(|e| e.to_string())?;
            let params = params()?;
            let cfg = cfg.max_rounds(params.agreement_round_budget());
            engine(cfg, move |cfg, ij| {
                let mut adv = ZeroForger::new(b);
                let r = run_sharded(cfg, |_| AgreeNode::new(params.clone(), true), &mut adv, ij);
                // Success = validity holds: no honest survivor decided the
                // forged 0 nobody input.
                let honest_zero = r
                    .surviving_states()
                    .filter(|(id, _)| !r.faulty.contains(*id))
                    .any(|(_, s)| s.decision() == Some(false));
                value_of(&r, !honest_zero, vec![])
            })
        }
        Workload::LeEdge { p } => {
            probability("p", p)?;
            let params = le_params()?;
            let f = params.max_faults();
            let cfg = cfg.max_rounds(params.le_round_budget());
            engine(cfg.edge_failure_prob(p), move |cfg, ij| {
                let mut adv = RandomCrash::new(f, 40);
                let r = run_sharded(cfg, |_| LeNode::new(params.clone()), &mut adv, ij);
                let lost = r.metrics.msgs_lost_edges as f64;
                let success = LeOutcome::evaluate(&r).success;
                value_of(&r, success, vec![("lost_edges", lost)])
            })
        }
        Workload::AgreeEdge { p } => {
            probability("p", p)?;
            let params = params()?;
            let f = params.max_faults();
            let cfg = cfg.max_rounds(params.agreement_round_budget());
            engine(cfg.edge_failure_prob(p), move |cfg, ij| {
                let mut adv = RandomCrash::new(f, 20);
                let factory = |id: NodeId| AgreeNode::new(params.clone(), id.0.is_multiple_of(8));
                let r = run_sharded(cfg, factory, &mut adv, ij);
                let v = r.verdict();
                value_of(&r, v.implicit() && v.valid, vec![])
            })
        }
        Workload::LeCapped { cap } => {
            let params = le_params()?;
            let f = params.max_faults();
            let mut cfg = cfg.max_rounds(params.le_round_budget());
            cfg.send_cap = cap;
            engine(cfg, move |cfg, ij| {
                let mut adv = EagerCrash::new(f);
                let r = run_sharded(cfg, |_| LeNode::new(params.clone()), &mut adv, ij);
                let suppressed = r.metrics.msgs_suppressed as f64;
                let success = LeOutcome::evaluate(&r).success;
                value_of(&r, success, vec![("suppressed", suppressed)])
            })
        }
        Workload::AgreeCapped { cap } => {
            let params = params()?;
            let f = params.max_faults();
            let mut cfg = cfg.max_rounds(params.agreement_round_budget());
            cfg.send_cap = cap;
            engine(cfg, move |cfg, ij| {
                let mut adv = EagerCrash::new(f);
                let factory = |id: NodeId| AgreeNode::new(params.clone(), id.0.is_multiple_of(2));
                let r = run_sharded(cfg, factory, &mut adv, ij);
                let suppressed = r.metrics.msgs_suppressed as f64;
                let v = r.verdict();
                value_of(
                    &r,
                    v.implicit() && v.valid,
                    vec![("suppressed", suppressed)],
                )
            })
        }
        Workload::LeExplicit => {
            let params = le_params()?;
            let f = params.max_faults();
            let cfg = cfg.max_rounds(ExplicitLeNode::round_budget(&params));
            engine(cfg, move |cfg, ij| {
                let mut adv = RandomCrash::new(f, 40);
                let r = run_sharded(cfg, |_| ExplicitLeNode::new(params.clone()), &mut adv, ij);
                value_of(&r, r.verdict().explicit(), vec![])
            })
        }
        Workload::LeImplicitExplicitBudget => {
            let params = le_params()?;
            let f = params.max_faults();
            let cfg = cfg.max_rounds(ExplicitLeNode::round_budget(&params));
            engine(cfg, move |cfg, ij| {
                let mut adv = RandomCrash::new(f, 40);
                let r = run_sharded(cfg, |_| LeNode::new(params.clone()), &mut adv, ij);
                value_of(&r, LeOutcome::evaluate(&r).success, vec![])
            })
        }
        Workload::AgreeExplicit { zeros } => {
            check_zeros(zeros)?;
            let params = params()?;
            let f = params.max_faults();
            let cfg = cfg.max_rounds(ExplicitAgreeNode::round_budget(&params));
            engine(cfg, move |cfg, ij| {
                let mut adv = RandomCrash::new(f, 20);
                let factory = |id| ExplicitAgreeNode::new(params.clone(), agree_input(zeros, id));
                let r = run_sharded(cfg, factory, &mut adv, ij);
                let v = r.verdict();
                value_of(&r, v.explicit() && v.valid, vec![])
            })
        }
        Workload::LeKutten => engine(cfg.max_rounds(kutten_round_budget()), |cfg, ij| {
            let r = run_sharded(cfg, |_| KuttenLeNode::new(), &mut NoFaults, ij);
            value_of(&r, r.verdict().deciders == 1, vec![])
        }),
        Workload::LeDiamTwo { adv } => {
            if !matches!(
                cell.topology,
                Topology::DiameterTwo { .. } | Topology::Complete
            ) {
                return Err("le_diam_two needs a diameter_two (or complete) topology".into());
            }
            adv.schedule_only::<u64>(f)?;
            engine(cfg.max_rounds(diam_two_round_budget()), move |cfg, ij| {
                let mut a = adv.schedule_only(f)?;
                let r = run_sharded(cfg, |_| DiamTwoLeNode::new(), &mut *a, ij);
                value_of(&r, r.verdict().deciders == 1, vec![])
            })
        }
        Workload::AgreeAugustine { zeros } => {
            check_zeros(zeros)?;
            engine(cfg.max_rounds(augustine_round_budget()), move |cfg, ij| {
                let factory = |id| AugustineNode::new(agree_input(zeros, id));
                let r = run_sharded(cfg, factory, &mut NoFaults, ij);
                let v = r.verdict();
                value_of(&r, v.implicit() && v.valid, vec![])
            })
        }
        Workload::MultiValue { k } => {
            in_range("k", k, k >= 2, ">= 2")?;
            let params = params()?;
            let f = params.max_faults();
            let cfg = cfg.max_rounds(params.agreement_round_budget());
            engine(cfg, move |cfg, ij| {
                let mut adv = RandomCrash::new(f, 20);
                let input = |id: NodeId| id.0.wrapping_mul(2654435761) % k;
                let factory = |id| MultiAgreeNode::new(params.clone(), k, input(id));
                let r = run_sharded(cfg, factory, &mut adv, ij);
                let v = r.verdict();
                value_of(&r, v.implicit() && v.valid, vec![])
            })
        }
        Workload::Flood { faults } => {
            within_n(faults)?;
            let f = faults as u32;
            engine(cfg.max_rounds(flood_round_budget(f)), move |cfg, ij| {
                let mut adv = RandomCrash::new(f as usize, f);
                let factory = |id: NodeId| FloodAgreeNode::new(f, !id.0.is_multiple_of(7));
                let r = run_sharded(cfg, factory, &mut adv, ij);
                let v = r.verdict();
                value_of(&r, v.explicit() && v.valid, vec![])
            })
        }
        Workload::Gk { faults } => {
            within_n(faults)?;
            // KT1: a node sends to arbitrary ids, which needs every edge.
            complete()?;
            let cfg = cfg.kt1(true).max_rounds(gk_round_budget(n));
            engine(cfg, move |cfg, ij| {
                let mut adv = RandomCrash::new(faults as usize, 20);
                let r = run_sharded(cfg, |id| GkNode::new(id.0 % 7 != 0), &mut adv, ij);
                let v = r.verdict();
                value_of(&r, v.explicit() && v.valid, vec![])
            })
        }
        Workload::Gossip { faults } => {
            within_n(faults)?;
            engine(cfg.max_rounds(gossip_round_budget(n)), move |cfg, ij| {
                let mut adv = RandomCrash::new(faults as usize, 10);
                let r = run_sharded(cfg, |id| GossipNode::new(n, id.0 % 7 != 0), &mut adv, ij);
                let v = r.verdict();
                value_of(&r, v.explicit() && v.valid, vec![])
            })
        }
        Workload::SamplingLemmas {
            candidate_factor,
            referee_factor,
        } => {
            positive("candidate_factor", candidate_factor)?;
            positive("referee_factor", referee_factor)?;
            complete()?;
            let params = params()?
                .with_candidate_factor(candidate_factor)
                .with_referee_factor(referee_factor);
            Ok(Box::new(move |seed, _| Ok(sampling_lemmas(&params, seed))))
        }
        Workload::EngineBench { adv, p, rounds } => {
            probability("p", p)?;
            adv.schedule_only::<u64>(f)?;
            // Two rounds past the broadcasts drain the last one.
            let budget = (rounds.checked_add(2))
                .ok_or_else(|| format!("rounds={rounds} leaves no room for the drain"))?;
            let cfg = cfg.max_rounds(budget).edge_failure_prob(p);
            engine(cfg, move |cfg, ij| {
                let mut a = adv.schedule_only(f)?;
                let chatter = |_| BenchChatter {
                    rounds_done: 0,
                    budget: rounds,
                    heard: 0,
                };
                let r = run_sharded(cfg, chatter, &mut *a, ij);
                // Success = the run actually exercised the delivery path; the
                // interesting output is msgs/bits (deterministic payload) and
                // the cell's wall-clock throughput (diagnostic).
                value_of(&r, r.metrics.msgs_delivered > 0, vec![])
            })
        }
        Workload::Soak {
            heights,
            kill_every,
            rejoin_after,
        } => {
            complete()?;
            // The service builds these parameters for every height.
            le_params()?;
            let scfg = ServeConfig::new(n, alpha)
                .heights(heights)
                .churn(ChurnPlan {
                    kill_leader_every: kill_every,
                    bystanders: 2,
                    rejoin_after,
                })
                .load(LoadProfile::default());
            Ok(Box::new(move |seed, _| soak(&scfg.clone().seed(seed))))
        }
    }
}

fn in_range(key: &str, value: impl std::fmt::Display, ok: bool, range: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("{key}={value} must be {range}"))
    }
}

/// An engine trial: `run` gets each trial's seeded config and its share
/// of the thread budget.
fn engine<R>(cfg: SimConfig, run: R) -> Result<Trial, String>
where
    R: Fn(&SimConfig, usize) -> Result<TrialValue, String> + Sync + 'static,
{
    Ok(Box::new(move |seed, opts| {
        run(&cfg.clone().seed(seed), opts.intra_jobs)
    }))
}

/// A paper protocol under a named adversary, through the protocol bridge:
/// the only workloads the cluster substrates run.
fn bridged(
    proto: ProtoKind,
    zeros: f64,
    adv: Adv,
    params: Params,
    cfg: SimConfig,
    substrate: Substrate,
) -> Result<Trial, String> {
    if proto == ProtoKind::Agree && adv == Adv::AdaptiveKiller {
        return Err("the adaptive killer targets leader election only".into());
    }
    check_zeros(zeros)?;
    let cfg = cfg.max_rounds(proto.round_budget(&params));
    Ok(Box::new(move |seed, opts| {
        let cfg = cfg.clone().seed(seed);
        let r = proto.run(&params, &cfg, zeros, Schedule::Named(adv), substrate, opts)?;
        let success = r.observation.fingerprint.success;
        let mut extras = vec![];
        if proto == ProtoKind::Le {
            let faulty_leader = success && r.leader_is_faulty;
            extras.push(("faulty_leader", f64::from(u8::from(faulty_leader))));
        }
        // Socket-substrate records additionally carry the wire traffic;
        // engine/channel records keep their historical shape (and therefore
        // their ids).
        if matches!(substrate, Substrate::Mesh(_)) {
            extras.push(("wire_bytes", r.metrics.wire_bytes as f64));
        }
        Ok(metrics_value(&r.metrics, success, extras))
    }))
}

/// E10: one draw of the sampling layer alone, against Lemmas 1–3.
fn sampling_lemmas(params: &Params, seed: u64) -> TrialValue {
    let lo = 2.0 * params.ln_n() / params.alpha();
    let hi = 12.0 * params.ln_n() / params.alpha();
    let mut stream = Stream::seeded(seed);
    let faulty: HashSet<usize> = stream
        .sample(params.n() as usize, params.max_faults())
        .into_iter()
        .collect();
    let (cands, refs) = draw_committee(&mut stream, params);
    let committee = cands.len() as f64;
    let in_band = committee >= lo && committee <= hi;
    let nonfaulty = cands.iter().any(|c| !faulty.contains(c));
    let ref_sets: Vec<HashSet<usize>> = refs
        .iter()
        .map(|r| r.iter().copied().filter(|x| !faulty.contains(x)).collect())
        .collect();
    let mut all_pairs = true;
    'outer: for i in 0..cands.len() {
        for j in i + 1..cands.len() {
            if ref_sets[i].is_disjoint(&ref_sets[j]) {
                all_pairs = false;
                break 'outer;
            }
        }
    }
    TrialValue {
        success: in_band && nonfaulty && all_pairs,
        msgs: 0,
        bits: 0,
        rounds: 0,
        crashes: 0,
        extras: vec![
            ("committee", committee),
            ("in_band", f64::from(u8::from(in_band))),
            ("nonfaulty", f64::from(u8::from(nonfaulty))),
            ("pairs", f64::from(u8::from(all_pairs))),
        ],
    }
}

/// E18: one soak of the leader service under `scfg`.
fn soak(scfg: &ServeConfig) -> Result<TrialValue, String> {
    let report = run_service(scfg)?;
    let q = |h: &LogHistogram, p: f64| h.quantile(p).map_or(0.0, |v| v as f64);
    let lat = report
        .load
        .as_ref()
        .map(|l| l.latency.clone())
        .unwrap_or_default();
    Ok(TrialValue {
        success: report.ok() && report.metrics.failed_elections == 0,
        msgs: report.total_msgs(),
        bits: report.total_bits(),
        rounds: report.total_rounds().min(u64::from(u32::MAX)) as u32,
        crashes: u64::from(report.crashes),
        extras: vec![
            ("violations", report.violations.len() as f64),
            (
                "failed_elections",
                f64::from(report.metrics.failed_elections),
            ),
            ("leader_changes", f64::from(report.metrics.leader_changes)),
            ("availability", report.metrics.availability().unwrap_or(0.0)),
            ("ttnl_p50", q(&report.metrics.ttnl_rounds, 0.5)),
            ("ttnl_p95", q(&report.metrics.ttnl_rounds, 0.95)),
            ("ttnl_p99", q(&report.metrics.ttnl_rounds, 0.99)),
            ("lat_p50", q(&lat, 0.5)),
            ("lat_p95", q(&lat, 0.95)),
            ("lat_p99", q(&lat, 0.99)),
        ],
    })
}

/// Aggregated results of one cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// The cell this aggregates (copied from the spec for
    /// self-description).
    pub cell: CellSpec,
    /// Trials satisfying the workload's success predicate.
    pub successes: u64,
    /// Messages sent per trial.
    pub msgs: Summary,
    /// Bits sent per trial.
    pub bits: Summary,
    /// Rounds executed per trial.
    pub rounds: Summary,
    /// Crash events per trial.
    pub crashes: Summary,
    /// Base-2 log histogram of per-trial messages.
    pub msgs_hist: LogHistogram,
    /// Base-2 log histogram of per-trial rounds.
    pub rounds_hist: LogHistogram,
    /// Workload-specific extra summaries, in workload order.
    pub extras: Vec<(String, Summary)>,
    /// Wall-clock seconds for this cell (diagnostic; excluded from the
    /// deterministic payload).
    pub wall_s: f64,
}

impl CellResult {
    /// Success fraction.
    pub fn success_rate(&self) -> f64 {
        self.successes as f64 / self.cell.trials.max(1) as f64
    }

    /// Trials per second of wall clock (diagnostic throughput figure).
    pub fn throughput(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.cell.trials as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Looks up an extra summary by name.
    pub fn extra(&self, name: &str) -> Option<&Summary> {
        self.extras.iter().find(|(k, _)| k == name).map(|(_, s)| s)
    }

    /// Among successful LE trials, the fraction whose leader is faulty
    /// (the `faulty_leader` extra re-based onto successes).
    pub fn faulty_leader_rate(&self) -> f64 {
        self.extra("faulty_leader").map_or(0.0, |s| {
            s.mean * self.cell.trials as f64 / self.successes.max(1) as f64
        })
    }
}

// The cell's spec fields come first, in record order (not `CellSpec`'s);
// wall clocks ride along only in the diag render.
ftc_sim::codec! {
    struct CellResult: to_json(diag) {
        cell: CellSpec {
            "label": label,
            "n": n,
            "alpha": alpha,
            "seed": seed,
            "trials": trials,
            "workload": workload,
            "topology": topology [elide],
        },
        "successes": successes,
        "success_rate" = |c| c.success_rate(),
        "msgs": msgs,
        "bits": bits,
        "rounds": rounds,
        "crashes": crashes,
        "msgs_hist": msgs_hist,
        "rounds_hist": rounds_hist,
        "extras": extras [map],
        "wall_s": wall_s [diag],
        "trials_per_s" [diag] = |c| c.throughput(),
    }
}

/// Runs all trials of one cell and aggregates. Deterministic in
/// `(cell, substrate)`; `jobs`, the thread budget, only changes
/// wall-clock. It runs up to `jobs` trials at once, and a cell of fewer
/// trials than threads shards each of them over the rest
/// ([`TrialPlan::threads_per_trial`]). A cell no trial of which can run
/// is an error naming it ([`trial`]).
pub fn run_cell(cell: &CellSpec, jobs: usize, substrate: Substrate) -> Result<CellResult, String> {
    run_built(cell, &trial(cell, substrate)?, jobs)
}

/// [`run_cell`] over the cell's built trial.
fn run_built(cell: &CellSpec, trial: &Trial, jobs: usize) -> Result<CellResult, String> {
    let start = Instant::now();
    let plan = TrialPlan::new(cell.seed, cell.trials).jobs(jobs);
    let opts = RunOpts {
        intra_jobs: plan.threads_per_trial(),
        ..RunOpts::default()
    };
    let batch = ParRunner::new(plan).run(|_, seed| trial(seed, &opts));
    let mut values = Vec::with_capacity(batch.len());
    for v in batch.values() {
        values.push(v.clone()?);
    }
    let wall_s = start.elapsed().as_secs_f64();
    // NaN is rejected at ingestion (`Summary::try_of`); name the cell,
    // trial, and derived seed so a bad measurement replays directly
    // instead of surfacing as a percentile-sort panic mid-campaign.
    let summarise = |name: &str, sel: &dyn Fn(&TrialValue) -> f64| -> Result<Summary, String> {
        let series: Vec<f64> = values.iter().map(sel).collect();
        if let Some(i) = Summary::nan_index(&series) {
            return Err(format!(
                "cell `{}`: metric `{name}` is NaN at trial {i} (n={}, seed {:#018x})",
                cell.label,
                cell.n,
                stream_seed(cell.seed, i as u64 + 1)
            ));
        }
        Summary::try_of(&series).ok_or_else(|| format!("cell `{}` has no trials", cell.label))
    };
    let mut msgs_hist = LogHistogram::new();
    let mut rounds_hist = LogHistogram::new();
    for v in &values {
        msgs_hist.record(v.msgs);
        rounds_hist.record(u64::from(v.rounds));
    }
    // Extras keep the workload's fixed order; every trial of a cell
    // reports the same set.
    let extra_names: Vec<&'static str> = values
        .first()
        .map(|v| v.extras.iter().map(|(k, _)| *k).collect())
        .unwrap_or_default();
    let extras = extra_names
        .iter()
        .map(|name| {
            let s = summarise(name, &|v: &TrialValue| {
                v.extras
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, x)| *x)
                    .unwrap_or(0.0)
            })?;
            Ok((name.to_string(), s))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(CellResult {
        cell: cell.clone(),
        successes: values.iter().filter(|v| v.success).count() as u64,
        msgs: summarise("msgs", &|v| v.msgs as f64)?,
        bits: summarise("bits", &|v| v.bits as f64)?,
        rounds: summarise("rounds", &|v| f64::from(v.rounds))?,
        crashes: summarise("crashes", &|v| v.crashes as f64)?,
        msgs_hist,
        rounds_hist,
        extras,
        wall_s,
    })
}

/// The verdict of one [`ExponentCheck`] against measured means.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckResult {
    /// The check evaluated.
    pub check: ExponentCheck,
    /// Fitted exponent, `None` when the series was unfittable (fewer
    /// than two cells or degenerate axis).
    pub exponent: Option<f64>,
    /// Points the fit used.
    pub points: u64,
    /// Whether the exponent landed inside `[min, max]`.
    pub pass: bool,
}

ftc_sim::codec! {
    struct CheckResult: to_json {
        "check": check,
        "exponent": exponent,
        "points": points,
        "pass": pass,
    }
}

fn evaluate_check(check: &ExponentCheck, cells: &[CellResult]) -> CheckResult {
    let series: Vec<&CellResult> = cells
        .iter()
        .filter(|c| c.cell.label == check.series)
        .collect();
    let xs: Vec<f64> = series
        .iter()
        .map(|c| match check.axis {
            CheckAxis::N => f64::from(c.cell.n),
            CheckAxis::InvAlpha => 1.0 / c.cell.alpha,
        })
        .collect();
    let ys: Vec<f64> = series
        .iter()
        .map(|c| match check.metric {
            CheckMetric::Msgs => c.msgs.mean,
            CheckMetric::Rounds => c.rounds.mean,
        })
        .collect();
    let exponent = fit_power_law(&xs, &ys).map(|(exponent, _)| exponent);
    CheckResult {
        check: check.clone(),
        exponent,
        points: xs.len() as u64,
        pass: exponent.is_some_and(|e| e >= check.min && e <= check.max),
    }
}

/// One persisted campaign run: the spec, its per-cell results, the check
/// verdicts, and run provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignRecord {
    /// The spec this run executed.
    pub spec: CampaignSpec,
    /// [`CampaignSpec::hash`] of `spec`.
    pub spec_hash: String,
    /// Execution substrate label.
    pub substrate: String,
    /// Per-cell results, aligned with `spec.cells`.
    pub cells: Vec<CellResult>,
    /// Exponent-check verdicts, aligned with `spec.checks`.
    pub checks: Vec<CheckResult>,
    /// Git revision of the producing tree (diagnostic).
    pub git_rev: String,
    /// Total wall-clock seconds (diagnostic).
    pub wall_s: f64,
}

/// Schema tag of persisted campaign records.
pub(crate) const LAB_SCHEMA: &str = "ftc-lab-record/v1";

// Without diag, the render is the deterministic payload the store
// content-addresses and `gate` compares byte for byte.
ftc_sim::codec! {
    record CampaignRecord(LAB_SCHEMA, |r| r.spec.name.clone()) {
        "spec_hash": spec_hash,
        "substrate": substrate,
        "spec": spec,
        "cells": cells,
        "checks": checks,
    }
}

/// Executes a campaign: every cell on the chosen substrate, then the
/// exponent checks over the measured means.
pub fn run_campaign(
    spec: &CampaignSpec,
    jobs: usize,
    substrate: Substrate,
) -> Result<CampaignRecord, String> {
    if spec.cells.is_empty() {
        return Err(format!("campaign `{}` has no cells", spec.name));
    }
    // Every cell is built before any runs, so a bad later cell fails at
    // once.
    let trials = (spec.cells.iter())
        .map(|cell| trial(cell, substrate))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let mut cells = Vec::with_capacity(spec.cells.len());
    for (cell, trial) in spec.cells.iter().zip(&trials) {
        cells.push(run_built(cell, trial, jobs)?);
    }
    let checks = spec
        .checks
        .iter()
        .map(|c| evaluate_check(c, &cells))
        .collect();
    Ok(CampaignRecord {
        spec: spec.clone(),
        spec_hash: spec.hash(),
        substrate: substrate.label(),
        cells,
        checks,
        git_rev: git_rev(),
        wall_s: start.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_sim::json::Json;

    fn smoke_spec() -> CampaignSpec {
        CampaignSpec::new("run-unit")
            .cell(
                CellSpec::new(
                    Workload::Le {
                        adv: Adv::Random(10),
                    },
                    128,
                    0.5,
                    11,
                    3,
                )
                .label("le"),
            )
            .cell(
                CellSpec::new(
                    Workload::Le {
                        adv: Adv::Random(10),
                    },
                    256,
                    0.5,
                    11,
                    3,
                )
                .label("le"),
            )
            .check(ExponentCheck {
                name: "le-msgs".into(),
                series: "le".into(),
                metric: CheckMetric::Msgs,
                axis: CheckAxis::N,
                min: -1.0,
                max: 3.0,
            })
    }

    #[test]
    fn campaign_runs_and_is_jobs_invariant() {
        let spec = smoke_spec();
        let a = run_campaign(&spec, 1, Substrate::Engine).unwrap();
        let b = run_campaign(&spec, 4, Substrate::Engine).unwrap();
        assert_eq!(a.deterministic_render(), b.deterministic_render());
        assert_eq!(a.id(), b.id());
        assert_eq!(a.cells[0].msgs.count, 3);
        assert!(a.checks[0].pass, "{:?}", a.checks[0]);
    }

    #[test]
    fn record_round_trips_with_and_without_diag() {
        let record = run_campaign(&smoke_spec(), 0, Substrate::Engine).unwrap();
        let with = CampaignRecord::from_json(&Json::parse(&record.to_json(true).render()).unwrap())
            .unwrap();
        assert_eq!(with.deterministic_render(), record.deterministic_render());
        assert_eq!(with.git_rev, record.git_rev);
        let without =
            CampaignRecord::from_json(&Json::parse(&record.deterministic_render()).unwrap())
                .unwrap();
        assert_eq!(without.git_rev, "unknown");
        assert_eq!(without.id(), record.id());
    }

    #[test]
    fn le_cell_matches_bench_measurement_semantics() {
        // The lab cell must reproduce the exact numbers the figure
        // binaries produced through `ParRunner`: same seed derivation,
        // same adversary construction.
        let cell = CellSpec::new(
            Workload::Le {
                adv: Adv::Random(10),
            },
            128,
            0.5,
            7,
            6,
        );
        let lab = run_cell(&cell, 1, Substrate::Engine).unwrap();
        // Reference: inline re-implementation of measure_le's closure.
        let params = Params::new(128, 0.5).unwrap();
        let f = params.max_faults();
        let cfg = SimConfig::new(128).max_rounds(params.le_round_budget());
        let reference = ParRunner::new(TrialPlan::new(7, 6).jobs(1)).run(|_, seed| {
            let mut adv = RandomCrash::new(f, 10);
            let c = cfg.clone().seed(seed);
            let r = ftc_sim::engine::run(&c, |_| LeNode::new(params.clone()), &mut adv);
            (LeOutcome::evaluate(&r).success, r.metrics.msgs_sent)
        });
        let ref_msgs: Vec<f64> = reference.values().map(|v| v.1 as f64).collect();
        assert_eq!(lab.msgs, Summary::of(&ref_msgs));
        assert_eq!(
            lab.successes,
            reference.values().filter(|v| v.0).count() as u64
        );
    }

    #[test]
    fn substrate_is_invisible_in_results() {
        let spec = CampaignSpec::new("substrate-unit").cell(CellSpec::new(
            Workload::Le {
                adv: Adv::Random(5),
            },
            16,
            0.5,
            3,
            2,
        ));
        let engine = run_campaign(&spec, 1, Substrate::Engine).unwrap();
        let channel = run_campaign(&spec, 1, Substrate::Channel(2)).unwrap();
        // Substrate label differs, so compare cells, not whole renders.
        assert_eq!(
            engine.cells[0].to_json(false).render(),
            channel.cells[0].to_json(false).render()
        );
    }

    #[test]
    fn a_lone_trial_shards_without_moving_a_bit() {
        // One trial of 1024 broadcasters: every round's agenda is 1024
        // nodes, enough for the engine to shard it, and a budget of 3
        // threads gives the lone trial all three.
        let spec = CampaignSpec::new("shard-unit").cell(
            CellSpec::new(
                Workload::EngineBench {
                    adv: Adv::None,
                    p: 0.0,
                    rounds: 3,
                },
                1024,
                0.5,
                5,
                1,
            )
            .label("bcast"),
        );
        assert_eq!(TrialPlan::new(5, 1).jobs(3).threads_per_trial(), 3);
        let serial = run_campaign(&spec, 1, Substrate::Engine).unwrap();
        let sharded = run_campaign(&spec, 3, Substrate::Engine).unwrap();
        assert_eq!(
            serial.deterministic_render(),
            sharded.deterministic_render()
        );
        assert_eq!(serial.id(), sharded.id());
        assert_eq!(serial.cells[0].msgs.mean, 3.0 * 1024.0 * 1023.0);
    }

    #[test]
    fn soak_cell_runs_clean_and_is_jobs_invariant() {
        let spec = CampaignSpec::new("soak-unit").cell(CellSpec::new(
            Workload::Soak {
                heights: 12,
                kill_every: 2,
                rejoin_after: 3,
            },
            16,
            0.5,
            9,
            2,
        ));
        let a = run_campaign(&spec, 1, Substrate::Engine).unwrap();
        let b = run_campaign(&spec, 4, Substrate::Engine).unwrap();
        assert_eq!(a.deterministic_render(), b.deterministic_render());
        assert_eq!(a.id(), b.id());
        let cell = &a.cells[0];
        // Churn happened, the monitor stayed quiet, and the percentile
        // extras made it into the record.
        assert!(cell.crashes.mean > 0.0);
        assert_eq!(cell.extra("violations").unwrap().mean, 0.0);
        assert!(cell.extra("ttnl_p99").unwrap().mean >= cell.extra("ttnl_p50").unwrap().mean);
        assert!(cell.extra("lat_p99").unwrap().mean >= cell.extra("lat_p50").unwrap().mean);
        let avail = cell.extra("availability").unwrap().mean;
        assert!(avail > 0.0 && avail < 1.0, "availability {avail}");
        // Engine-only, like the other harness workloads.
        assert!(run_campaign(&spec, 1, Substrate::Channel(2)).is_err());
    }

    #[test]
    fn substrate_rejects_non_protocol_workloads() {
        let spec = CampaignSpec::new("bad").cell(CellSpec::new(Workload::LeKutten, 16, 0.5, 3, 2));
        assert!(run_campaign(&spec, 1, Substrate::Channel(2)).is_err());
        assert!(run_campaign(&spec, 1, Substrate::Engine).is_ok());
    }

    #[test]
    fn oversized_byzantine_budgets_fail_fast_with_context() {
        // Regression: `b > n` used to panic mid-trial inside
        // `FaultySet::random` ("cannot make 20 of 16 nodes faulty");
        // run_campaign now rejects the cell before any trial runs.
        for workload in [
            Workload::AgreeByzantine { b: 20 },
            Workload::LeByzantine { b: 20 },
        ] {
            let spec = CampaignSpec::new("byz-bad")
                .cell(CellSpec::new(workload, 16, 0.5, 3, 2).label("byz"));
            let err = run_campaign(&spec, 1, Substrate::Engine).unwrap_err();
            assert!(err.contains("byz"), "{err}");
            assert!(err.contains("b=20"), "{err}");
            assert!(err.contains("n=16"), "{err}");
        }
        // Budgets within the network still run.
        let ok = CampaignSpec::new("byz-ok").cell(CellSpec::new(
            Workload::AgreeByzantine { b: 2 },
            16,
            0.5,
            3,
            2,
        ));
        assert!(run_campaign(&ok, 1, Substrate::Engine).is_ok());
    }

    #[test]
    fn impossible_adversary_pairings_fail_fast_naming_the_cell() {
        // Regression: these used to panic on a `ParRunner` worker
        // mid-campaign (`ftc lab run <spec.json>` exited 101).
        let agree = Workload::Agree {
            zeros: 0.05,
            adv: Adv::AdaptiveKiller,
        };
        let bench = Workload::EngineBench {
            adv: Adv::Targeted,
            p: 0.0,
            rounds: 2,
        };
        let diam = Workload::LeDiamTwo { adv: Adv::Targeted };
        for workload in [agree, bench, diam] {
            let spec = CampaignSpec::new("pairing-bad")
                .cell(CellSpec::new(workload, 16, 0.5, 3, 2).label("mismatched"));
            let err = run_campaign(&spec, 1, Substrate::Engine).unwrap_err();
            assert!(err.contains("mismatched"), "{err}");
        }
        // The adaptive killer is a leader-election adversary: that pairing runs.
        let le = Workload::Le {
            adv: Adv::AdaptiveKiller,
        };
        let ok = CampaignSpec::new("pairing-ok").cell(CellSpec::new(le, 16, 0.5, 3, 2));
        assert!(run_campaign(&ok, 1, Substrate::Engine).is_ok());
    }

    #[test]
    fn out_of_range_fault_budgets_fail_fast_naming_the_cell() {
        // Regression: the first two panicked a worker (`cannot make 100 of
        // 64 nodes faulty`, `96 of 64`); the third ran with no faults.
        let bench = Workload::EngineBench {
            adv: Adv::Eager,
            p: 0.0,
            rounds: 2,
        };
        let cells = [
            (
                Workload::Flood { faults: 100 },
                0.5,
                "faults=100 exceeds n=64",
            ),
            (
                Workload::LeDiamTwo { adv: Adv::Eager },
                -0.5,
                "alpha=-0.5 is outside",
            ),
            (bench, 7.0, "alpha=7 is outside"),
        ];
        for (workload, alpha, why) in cells {
            let spec = CampaignSpec::new("budget-bad")
                .cell(CellSpec::new(workload, 64, alpha, 3, 2).label("over"));
            let err = run_campaign(&spec, 1, Substrate::Engine).unwrap_err();
            assert!(err.contains("cell `over`") && err.contains(why), "{err}");
        }
        // A budget of the whole network still runs.
        let ok = CampaignSpec::new("budget-ok").cell(CellSpec::new(
            Workload::Gossip { faults: 16 },
            16,
            0.5,
            3,
            1,
        ));
        assert!(run_campaign(&ok, 1, Substrate::Engine).is_ok());
    }

    #[test]
    fn topology_cells_run_and_round_trip() {
        let spec = CampaignSpec::new("topo-unit")
            .cell(
                CellSpec::new(
                    Workload::Le {
                        adv: Adv::Random(10),
                    },
                    128,
                    0.5,
                    5,
                    2,
                )
                .label("le/rr8")
                .topology(Topology::RandomRegular { d: 8 }),
            )
            .cell(
                CellSpec::new(Workload::LeDiamTwo { adv: Adv::None }, 128, 0.5, 7, 2)
                    .label("cpr/diam2")
                    .topology(Topology::DiameterTwo { clusters: 6 }),
            )
            .cell(
                // Referees are drawn among a node's 6 ports, not all n - 1.
                CellSpec::new(Workload::MultiValue { k: 4 }, 256, 0.5, 3, 2)
                    .label("multi/rr6")
                    .topology(Topology::RandomRegular { d: 6 }),
            );
        let a = run_campaign(&spec, 1, Substrate::Engine).unwrap();
        let b = run_campaign(&spec, 4, Substrate::Engine).unwrap();
        assert_eq!(a.deterministic_render(), b.deterministic_render());
        // The diam-two baseline is fault-free here: it must elect.
        assert_eq!(a.cells[1].successes, 2);
        assert_eq!(a.cells[2].successes, 2);
        // Sparse cells move fewer messages than the same protocol on the
        // complete graph would allow; the render must carry the topology.
        assert!(a.deterministic_render().contains("random_regular"));
        assert!(a.deterministic_render().contains("diameter_two"));
        let back =
            CampaignRecord::from_json(&Json::parse(&a.deterministic_render()).unwrap()).unwrap();
        assert_eq!(back.id(), a.id());
        assert_eq!(
            back.cells[0].cell.topology,
            Topology::RandomRegular { d: 8 }
        );
    }

    #[test]
    fn invalid_topologies_fail_fast_with_context() {
        // d > n-1 cannot wire; the error names the cell, not a panic site.
        let spec = CampaignSpec::new("topo-bad").cell(
            CellSpec::new(Workload::LeKutten, 8, 0.5, 3, 2)
                .label("bad")
                .topology(Topology::RandomRegular { d: 9 }),
        );
        let err = run_campaign(&spec, 1, Substrate::Engine).unwrap_err();
        assert!(err.contains("bad"), "{err}");
        // Fewer than two nodes cannot form a network, on any topology: the
        // error names the cell instead of a trial worker panicking.
        for (n, topology) in [
            (0, Topology::RandomRegular { d: 2 }),
            (1, Topology::Complete),
        ] {
            let tiny = CampaignSpec::new("topo-tiny").cell(
                CellSpec::new(Workload::LeKutten, n, 0.5, 3, 2)
                    .label("tiny")
                    .topology(topology),
            );
            let err = run_campaign(&tiny, 1, Substrate::Engine).unwrap_err();
            let want = format!("cell `tiny`: network size must be in [2, 16777216], got {n}");
            assert_eq!(err, want);
        }
        // Workloads that never touch the sim engine reject non-complete
        // topologies instead of silently ignoring them.
        let soak = CampaignSpec::new("topo-soak").cell(
            CellSpec::new(
                Workload::Soak {
                    heights: 5,
                    kill_every: 2,
                    rejoin_after: 2,
                },
                16,
                0.5,
                3,
                1,
            )
            .topology(Topology::DiameterTwo { clusters: 4 }),
        );
        assert!(run_campaign(&soak, 1, Substrate::Engine).is_err());
    }

    #[test]
    fn a_lone_cell_is_checked_like_a_campaign() {
        // `ftc sweep` runs its cells through `run_cell`, which used to skip
        // every check `run_campaign` made. GK is KT1: on `rr:8` it panicked
        // a worker (`node n31 has no edge to n15`).
        let gk = CellSpec::new(Workload::Gk { faults: 1 }, 64, 0.5, 3, 2)
            .label("gk/rr8")
            .topology(Topology::RandomRegular { d: 8 });
        let err = run_cell(&gk, 1, Substrate::Engine).unwrap_err();
        assert_eq!(
            err,
            "cell `gk/rr8`: workload `gk` runs on the complete graph only"
        );
    }

    #[test]
    fn empty_and_zero_trial_campaigns_are_rejected() {
        assert!(run_campaign(&CampaignSpec::new("empty"), 1, Substrate::Engine).is_err());
        let zero = CampaignSpec::new("zero").cell(CellSpec::new(Workload::LeKutten, 16, 0.5, 3, 0));
        assert!(run_campaign(&zero, 1, Substrate::Engine).is_err());
    }
}
