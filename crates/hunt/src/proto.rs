//! Protocol bridging: one observation type for both of the paper's
//! protocols, on any execution substrate.
//!
//! Everything above `ftc-core` is protocol-agnostic — the search layer
//! manipulates schedules and scores, the CLI and the lab name a protocol
//! and an adversary — so this module holds the only code that knows about
//! [`LeNode`]/[`AgreeNode`]: [`ProtoKind::run`] builds the node factory,
//! turns a [`Schedule`] into an adversary, runs it on any [`Substrate`]
//! and condenses the result into a [`ProtoRun`] whose [`Observation`]
//! carries a replay-comparable [`Fingerprint`].

use ftc_core::prelude::*;
use ftc_net::prelude::*;
use ftc_sim::adversary::{Adversary, EagerCrash, NoFaults, RandomCrash};
use ftc_sim::engine::SimConfig;
use ftc_sim::ids::{NodeId, Round};
use ftc_sim::metrics::Metrics;
use ftc_sim::prelude::{FaultPlan, ScriptedCrash};
use ftc_sim::trace::Trace;

/// Which substrate executes the schedule — defined next to the runtimes it
/// dispatches to.
pub use ftc_mesh::Substrate;

/// Which of the paper's protocols the hunt attacks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoKind {
    /// Implicit leader election (Theorem 4.1).
    Le,
    /// Implicit binary agreement (Theorem 5.1).
    Agree,
}

ftc_sim::codec! {
    names pub ProtoKind("protocol") {
        "le" => Le,
        "agree" => Agree,
    }
}

impl ProtoKind {
    /// The protocol's round budget under `params`.
    pub fn round_budget(self, params: &Params) -> u32 {
        match self {
            ProtoKind::Le => params.le_round_budget(),
            ProtoKind::Agree => params.agreement_round_budget(),
        }
    }

    /// The paper's whp message bound for this protocol under `params`.
    pub fn message_bound(self, params: &Params) -> f64 {
        match self {
            ProtoKind::Le => params.le_message_bound(),
            ProtoKind::Agree => params.agreement_message_bound(),
        }
    }

    /// Runs this protocol once under `schedule` on `substrate` and judges
    /// the outcome. Deterministic in `(params, cfg, zeros, schedule)`: the
    /// substrate and `opts` never change the observation (the
    /// bit-equivalence contract `ftc replay` re-asserts for every
    /// artifact). `zeros` is the agreement input density, in `[0, 1]`
    /// ([`check_zeros`]) and ignored for LE; `cfg.max_rounds` should be
    /// [`ProtoKind::round_budget`].
    pub fn run(
        self,
        params: &Params,
        cfg: &SimConfig,
        zeros: f64,
        schedule: Schedule<'_>,
        substrate: Substrate,
        opts: &RunOpts<'_>,
    ) -> Result<ProtoRun, String> {
        check_zeros(zeros)?;
        let f = params.max_faults();
        match self {
            ProtoKind::Le => {
                params.check_le().map_err(|e| e.to_string())?;
                let mut adversary = schedule.adversary(
                    f,
                    Box::new(MinRankCrasher::new(f)),
                    Ok(Box::new(AdaptiveCandidateKiller::new(f))),
                )?;
                let factory = |_| LeNode::new(params.clone());
                let r = substrate.run(cfg, factory, &mut *adversary, opts)?;
                let out = LeOutcome::evaluate(&r.run);
                let outcome = out.agreed_leader.map(|rank| rank.0);
                let distinct = out.elected_alive.len();
                Ok(ProtoRun::new(
                    out.success,
                    outcome,
                    distinct,
                    out.leader_is_faulty,
                    r,
                ))
            }
            ProtoKind::Agree => {
                let mut adversary = schedule.adversary(
                    f,
                    Box::new(ZeroHolderCrasher::new(f)),
                    Err("the adaptive killer targets leader election only".into()),
                )?;
                let factory = |id| AgreeNode::new(params.clone(), agree_input(zeros, id));
                let r = substrate.run(cfg, factory, &mut *adversary, opts)?;
                let v = r.run.verdict();
                let outcome = v.value().map(u64::from);
                Ok(ProtoRun::new(
                    v.implicit() && v.valid,
                    outcome,
                    v.decisions.len(),
                    false,
                    r,
                ))
            }
        }
    }
}

/// Which crash schedule a run faces, by name. `AdaptiveKiller` is the
/// model-boundary adversary of E11 (leader election only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Adv {
    /// No crashes.
    None,
    /// All faulty nodes crash at round 0 before sending.
    Eager,
    /// Random crash rounds within the given horizon.
    Random(u32),
    /// The paper's worst case: assassinate the current minimum proposer
    /// (LE) / the current zero-forwarder (agreement).
    Targeted,
    /// Adaptive candidate killer (breaks the static-adversary model;
    /// leader election only).
    AdaptiveKiller,
}

ftc_sim::codec! {
    enum Adv {
        "none" => None,
        "eager" => Eager,
        "random" => Random("horizon": horizon),
        "targeted" => Targeted,
        "adaptive_killer" => AdaptiveKiller,
    }
}

impl Adv {
    /// Resolves an `--adversary` name for `proto`. `random` spreads the
    /// crashes over the horizon the CLI has always used: 60 rounds for
    /// leader election, 20 for agreement.
    pub fn named(name: &str, proto: ProtoKind) -> Result<Adv, String> {
        match name {
            "none" => Ok(Adv::None),
            "eager" => Ok(Adv::Eager),
            "random" => Ok(Adv::Random(match proto {
                ProtoKind::Le => 60,
                ProtoKind::Agree => 20,
            })),
            "targeted" => Ok(Adv::Targeted),
            other => Err(format!(
                "unknown adversary {other} (none|eager|random|targeted)"
            )),
        }
    }

    /// The schedule-only adversary this name denotes, for any message
    /// type: a crash plan that never reads traffic, spending fault budget
    /// `f`. `Targeted` and `AdaptiveKiller` read traffic and are an error.
    pub fn schedule_only<M>(self, f: usize) -> Result<Box<dyn Adversary<M>>, String> {
        match self {
            Adv::None => Ok(Box::new(NoFaults)),
            Adv::Eager => Ok(Box::new(EagerCrash::new(f))),
            Adv::Random(horizon) => Ok(Box::new(RandomCrash::new(f, horizon))),
            Adv::Targeted | Adv::AdaptiveKiller => {
                Err("this workload runs schedule-only adversaries (none|eager|random)".into())
            }
        }
    }
}

/// The crash schedule of one [`ProtoKind::run`].
#[derive(Clone, Copy, Debug)]
pub enum Schedule<'a> {
    /// A named adversary spending the protocol's full fault budget.
    Named(Adv),
    /// A scripted plan: hunt candidates, shrink probes, artifact replays.
    Scripted(&'a FaultPlan),
}

impl Schedule<'_> {
    /// The adversary this schedule names, for message type `M` and fault
    /// budget `f`. The schedules that never read traffic are the same for
    /// every protocol; the two that do are the caller's.
    fn adversary<M>(
        self,
        f: usize,
        targeted: Box<dyn Adversary<M>>,
        adaptive: Result<Box<dyn Adversary<M>>, String>,
    ) -> Result<Box<dyn Adversary<M>>, String> {
        match self {
            Schedule::Scripted(plan) => Ok(Box::new(ScriptedCrash::new(plan.clone()))),
            Schedule::Named(Adv::Targeted) => Ok(targeted),
            Schedule::Named(Adv::AdaptiveKiller) => adaptive,
            Schedule::Named(adv) => adv.schedule_only(f),
        }
    }
}

/// Everything observable about one execution that replay must reproduce.
///
/// Equality of two fingerprints across substrates is exactly the PR-3
/// bit-equivalence guarantee projected onto the fields the objectives
/// read, which is what makes a hunted counterexample a real-wire
/// counterexample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Whether the protocol's success predicate held.
    pub success: bool,
    /// The agreed outcome: leader rank (LE) or decided bit (agreement).
    pub outcome: Option<u64>,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Messages delivered.
    pub msgs_delivered: u64,
    /// Bits sent.
    pub bits_sent: u64,
    /// Rounds executed.
    pub rounds: u32,
    /// `(node, round)` crash schedule as it actually fired.
    pub crashed: Vec<(u32, Round)>,
}

ftc_sim::codec! {
    struct Fingerprint: to_json {
        "success": success,
        "outcome": outcome,
        "msgs_sent": msgs_sent,
        "msgs_delivered": msgs_delivered,
        "bits_sent": bits_sent,
        "rounds": rounds,
        "crashed": crashed,
    }
}

/// The condensed result of running one schedule once.
#[derive(Clone, Debug, PartialEq)]
pub struct Observation {
    /// Replay-comparable execution summary.
    pub fingerprint: Fingerprint,
    /// Safety-violation width: number of alive elected nodes (LE) or
    /// distinct alive decisions (agreement). `>= 2` is a violation.
    pub distinct: u32,
}

/// Everything one [`ProtoKind::run`] yields, free of node types.
#[derive(Debug)]
pub struct ProtoRun {
    /// The judged outcome and its replay-comparable summary.
    pub observation: Observation,
    /// LE: the elected node is in the adversary's faulty set (it may
    /// still be alive). Always `false` for agreement.
    pub leader_is_faulty: bool,
    /// The run's full model-level accounting.
    pub metrics: Metrics,
    /// Transport-level accounting (zero on the engine).
    pub net: NetMetrics,
    /// The message trace, when `cfg.record_trace` asked for one.
    pub trace: Option<Trace>,
}

impl ProtoRun {
    fn new<P>(
        success: bool,
        outcome: Option<u64>,
        distinct: usize,
        leader_is_faulty: bool,
        r: NetRunResult<P>,
    ) -> Self {
        let m = r.run.metrics;
        ProtoRun {
            observation: Observation {
                fingerprint: Fingerprint {
                    success,
                    outcome,
                    msgs_sent: m.msgs_sent,
                    msgs_delivered: m.msgs_delivered,
                    bits_sent: m.bits_sent,
                    rounds: m.rounds,
                    crashed: m
                        .crashes
                        .iter()
                        .map(|&(node, round)| (node.0, round))
                        .collect(),
                },
                distinct: distinct as u32,
            },
            leader_is_faulty,
            metrics: m,
            net: r.net,
            trace: r.run.trace,
        }
    }
}

/// The 0-input stride for a `zeros` fraction: every `stride`-th node
/// holds 0, the rest hold 1. Kept as a function of `zeros` so specs and
/// artifacts record one number instead of `n` bits.
fn input_stride(zeros: f64) -> u32 {
    if zeros <= 0.0 {
        u32::MAX
    } else {
        (1.0 / zeros).round().max(1.0) as u32
    }
}

/// Node `id`'s agreement input under the `zeros` convention the CLI, the
/// hunt and the lab share: every `round(1/zeros)`-th node holds 0.
pub fn agree_input(zeros: f64, id: NodeId) -> bool {
    let stride = input_stride(zeros);
    !(stride != u32::MAX && id.0.is_multiple_of(stride))
}

/// Rejects a `zeros` fraction outside `[0, 1]`: [`agree_input`] would
/// read it as another input pattern (above 1, every node holds 0; below
/// 0, every node holds 1) than the one the run reports.
pub fn check_zeros(zeros: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&zeros) {
        Ok(())
    } else {
        Err(format!("zeros={zeros} must be in [0, 1]"))
    }
}

/// Runs `plan` against `proto` on the chosen substrate and condenses the
/// result. Deterministic in `(cfg, plan)`; the substrate never changes the
/// observation (that is the bit-equivalence guarantee this crate leans on,
/// and what `ftc replay` re-asserts for every artifact).
pub fn observe(
    proto: ProtoKind,
    params: &Params,
    cfg: &SimConfig,
    zeros: f64,
    plan: &FaultPlan,
    substrate: Substrate,
) -> Result<Observation, String> {
    observe_wire(proto, params, cfg, zeros, plan, None, substrate)
}

/// [`observe`], with socket-level chaos layered under the crash schedule.
///
/// A [`WireFaultPlan`] perturbs only how frames travel (order, copies,
/// write fragmentation, pacing) — never *which* model messages arrive —
/// so the observation must be identical with and without it; hunting with
/// wire faults is differential testing of the runtimes, not a wider model
/// adversary. The engine has no wire, so `wire` is ignored there: that is
/// exactly [`WireFaultPlan::degrade`]'s empty-plan equivalence, which
/// makes engine replays of wire-fault counterexamples meaningful.
pub fn observe_wire(
    proto: ProtoKind,
    params: &Params,
    cfg: &SimConfig,
    zeros: f64,
    plan: &FaultPlan,
    wire: Option<&WireFaultPlan>,
    substrate: Substrate,
) -> Result<Observation, String> {
    let opts = RunOpts {
        wire,
        ..RunOpts::default()
    };
    let run = proto.run(
        params,
        cfg,
        zeros,
        Schedule::Scripted(plan),
        substrate,
        &opts,
    )?;
    Ok(run.observation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_sim::adversary::DeliveryFilter;
    use ftc_sim::json::Json;

    #[test]
    fn proto_kind_parses_and_names() {
        assert_eq!(ProtoKind::parse("le").unwrap(), ProtoKind::Le);
        assert_eq!(ProtoKind::parse("agree").unwrap().name(), "agree");
        assert!(ProtoKind::parse("paxos").is_err());
    }

    #[test]
    fn input_stride_matches_cli_convention() {
        assert_eq!(input_stride(0.0), u32::MAX);
        assert_eq!(input_stride(0.05), 20);
        assert_eq!(input_stride(1.0 / 7.0), 7);
        assert_eq!(input_stride(1.0), 1);
        assert!(!agree_input(0.05, NodeId(40)) && agree_input(0.05, NodeId(41)));
        assert!(
            agree_input(0.0, NodeId(0)),
            "zeros = 0 is the all-ones input"
        );
    }

    /// The bridge against the code it replaced: the CLI's hand-built
    /// adversary tables (`random` = 60 rounds for LE, 20 for agreement),
    /// the stride input rule, a direct engine run and the protocol's own
    /// outcome evaluation.
    #[test]
    fn bridge_matches_hand_built_engine_runs() {
        let params = Params::new(64, 0.75).unwrap();
        let f = params.max_faults();
        let bridged = |proto: ProtoKind, cfg: &SimConfig, adv: Adv| {
            let schedule = Schedule::Named(adv);
            proto.run(
                &params,
                cfg,
                0.05,
                schedule,
                Substrate::Engine,
                &RunOpts::default(),
            )
        };
        let same =
            |run: &ProtoRun, success: bool, outcome: Option<u64>, m: &Metrics, what: &str| {
                let fp = &run.observation.fingerprint;
                assert_eq!((fp.success, fp.outcome), (success, outcome), "{what}");
                assert_eq!(run.metrics.msgs_sent, m.msgs_sent, "{what}");
                assert_eq!(run.metrics.bits_sent, m.bits_sent, "{what}");
                assert_eq!(run.metrics.rounds, m.rounds, "{what}");
                assert_eq!(run.metrics.crashes, m.crashes, "{what}");
            };
        for name in ["none", "eager", "random", "targeted"] {
            for seed in [1u64, 2, 3] {
                let what = format!("{name}, seed {seed}");
                let cfg = SimConfig::new(64)
                    .seed(seed)
                    .max_rounds(params.le_round_budget());
                let mut adv: Box<dyn Adversary<LeMsg>> = match name {
                    "none" => Box::new(NoFaults),
                    "eager" => Box::new(EagerCrash::new(f)),
                    "random" => Box::new(RandomCrash::new(f, 60)),
                    _ => Box::new(MinRankCrasher::new(f)),
                };
                let r = ftc_sim::engine::run(&cfg, |_| LeNode::new(params.clone()), &mut *adv);
                let out = LeOutcome::evaluate(&r);
                let named = Adv::named(name, ProtoKind::Le).unwrap();
                let run = bridged(ProtoKind::Le, &cfg, named).unwrap();
                let leader = out.agreed_leader.map(|rank| rank.0);
                same(&run, out.success, leader, &r.metrics, &what);
                assert_eq!(run.leader_is_faulty, out.leader_is_faulty, "{what}");

                let cfg = cfg.max_rounds(params.agreement_round_budget());
                let mut adv: Box<dyn Adversary<AgreeMsg>> = match name {
                    "none" => Box::new(NoFaults),
                    "eager" => Box::new(EagerCrash::new(f)),
                    "random" => Box::new(RandomCrash::new(f, 20)),
                    _ => Box::new(ZeroHolderCrasher::new(f)),
                };
                let factory = |id: NodeId| AgreeNode::new(params.clone(), !id.0.is_multiple_of(20));
                let r = ftc_sim::engine::run(&cfg, factory, &mut *adv);
                let v = r.verdict();
                let named = Adv::named(name, ProtoKind::Agree).unwrap();
                let run = bridged(ProtoKind::Agree, &cfg, named).unwrap();
                let value = v.value().map(u64::from);
                same(&run, v.implicit() && v.valid, value, &r.metrics, &what);
            }
        }
        assert!(Adv::named("martian", ProtoKind::Le).is_err());
        // The adaptive killer reads LE traffic; aimed at agreement it is
        // an error, not a panic.
        let cfg = SimConfig::new(64).max_rounds(params.agreement_round_budget());
        let err = bridged(ProtoKind::Agree, &cfg, Adv::AdaptiveKiller).unwrap_err();
        assert!(err.contains("leader election only"), "{err}");
        assert!(bridged(ProtoKind::Le, &cfg, Adv::AdaptiveKiller).is_ok());
    }

    #[test]
    fn zeros_outside_the_unit_interval_is_an_error_not_another_input() {
        // `agree_input` reads 2 as every node at 0 and -1 as every node at
        // 1: a run of those would report a `zeros` it did not have.
        let params = Params::new(16, 0.5).unwrap();
        let cfg = SimConfig::new(16).max_rounds(params.agreement_round_budget());
        let run = |proto: ProtoKind, zeros| {
            let schedule = Schedule::Named(Adv::None);
            proto.run(
                &params,
                &cfg,
                zeros,
                schedule,
                Substrate::Engine,
                &RunOpts::default(),
            )
        };
        for zeros in [2.0, -1.0, f64::NAN] {
            for proto in [ProtoKind::Agree, ProtoKind::Le] {
                let err = run(proto, zeros).unwrap_err();
                assert!(err.contains("must be in [0, 1]"), "{err}");
            }
        }
        for zeros in [0.0, 0.05, 1.0] {
            assert!(run(ProtoKind::Agree, zeros).is_ok());
        }
    }

    #[test]
    fn fingerprint_round_trips() {
        let fp = Fingerprint {
            success: false,
            outcome: Some(u64::MAX - 3),
            msgs_sent: 120,
            msgs_delivered: 100,
            bits_sent: 4096,
            rounds: 17,
            crashed: vec![(3, 0), (9, 2)],
        };
        let back = Fingerprint::from_json(&Json::parse(&fp.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, fp);
        let none = Fingerprint {
            outcome: None,
            ..fp
        };
        let back = Fingerprint::from_json(&Json::parse(&none.to_json().render()).unwrap()).unwrap();
        assert_eq!(back.outcome, None);
    }

    #[test]
    fn wire_faults_never_change_the_observation() {
        let params = Params::new(12, 0.5).unwrap();
        let cfg = SimConfig::new(12)
            .seed(5)
            .max_rounds(params.le_round_budget());
        let plan = FaultPlan::new().crash(NodeId(3), 1, DeliveryFilter::KeepFirst(2));
        let wire = WireFaultPlan::new(17)
            .fault(NodeId(0), 0, WireFaultKind::Reorder)
            .fault(NodeId(1), 0, WireFaultKind::Duplicate)
            .fault(NodeId(3), 1, WireFaultKind::Duplicate);
        let clean = observe(ProtoKind::Le, &params, &cfg, 0.05, &plan, Substrate::Engine).unwrap();
        for substrate in [Substrate::Engine, Substrate::Channel(2)] {
            let chaotic = observe_wire(
                ProtoKind::Le,
                &params,
                &cfg,
                0.05,
                &plan,
                Some(&wire),
                substrate,
            )
            .unwrap();
            assert_eq!(chaotic, clean, "wire faults leaked into {substrate:?}");
        }
    }

    #[test]
    fn engine_and_channel_observations_agree() {
        let params = Params::new(16, 0.5).unwrap();
        let cfg = SimConfig::new(16)
            .seed(7)
            .max_rounds(params.le_round_budget());
        let plan = FaultPlan::new()
            .crash(NodeId(2), 0, DeliveryFilter::DropAll)
            .crash(NodeId(5), 1, DeliveryFilter::KeepFirst(1));
        let engine = observe(ProtoKind::Le, &params, &cfg, 0.05, &plan, Substrate::Engine).unwrap();
        let cluster = observe(
            ProtoKind::Le,
            &params,
            &cfg,
            0.05,
            &plan,
            Substrate::Channel(2),
        )
        .unwrap();
        assert_eq!(engine, cluster);
        assert_eq!(engine.fingerprint.crashed, vec![(2, 0), (5, 1)]);
    }
}
