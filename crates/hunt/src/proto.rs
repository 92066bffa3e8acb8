//! Protocol bridging: one observation type for both of the paper's
//! protocols, on any execution substrate.
//!
//! The search layer is protocol-agnostic — it manipulates schedules and
//! scores — so this module concentrates everything that knows about
//! [`LeNode`]/[`AgreeNode`]: constructing node factories, running a
//! scripted schedule on any [`Substrate`], and condensing the result into
//! an [`Observation`] with a replay-comparable [`Fingerprint`].

use ftc_core::prelude::*;
use ftc_net::prelude::*;
use ftc_sim::engine::{RunResult, SimConfig};
use ftc_sim::ids::{NodeId, Round};
use ftc_sim::json::{Json, JsonError};
use ftc_sim::prelude::{FaultPlan, ScriptedCrash};

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

impl ProtoKind {
    /// Parses a `--proto` argument.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "le" => Ok(ProtoKind::Le),
            "agree" => Ok(ProtoKind::Agree),
            other => Err(format!("unknown protocol {other} (le|agree)")),
        }
    }

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ProtoKind::Le => "le",
            ProtoKind::Agree => "agree",
        }
    }

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

impl Fingerprint {
    /// JSON encoding.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("success".into(), Json::Bool(self.success)),
            (
                "outcome".into(),
                self.outcome.map_or(Json::Null, Json::UInt),
            ),
            ("msgs_sent".into(), Json::UInt(self.msgs_sent)),
            ("msgs_delivered".into(), Json::UInt(self.msgs_delivered)),
            ("bits_sent".into(), Json::UInt(self.bits_sent)),
            ("rounds".into(), Json::UInt(u64::from(self.rounds))),
            (
                "crashed".into(),
                Json::Arr(
                    self.crashed
                        .iter()
                        .map(|&(node, round)| {
                            Json::Arr(vec![
                                Json::UInt(u64::from(node)),
                                Json::UInt(u64::from(round)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Decodes a fingerprint from its [`Fingerprint::to_json`] form.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let crashed = v
            .field("crashed")?
            .as_arr()?
            .iter()
            .map(|pair| {
                let pair = pair.as_arr()?;
                match pair {
                    [node, round] => Ok((node.as_u64()? as u32, round.as_u64()? as u32)),
                    _ => Err(JsonError {
                        message: "crash entry must be a [node, round] pair".into(),
                    }),
                }
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(Fingerprint {
            success: v.field("success")?.as_bool()?,
            outcome: match v.field("outcome")? {
                Json::Null => None,
                other => Some(other.as_u64()?),
            },
            msgs_sent: v.field("msgs_sent")?.as_u64()?,
            msgs_delivered: v.field("msgs_delivered")?.as_u64()?,
            bits_sent: v.field("bits_sent")?.as_u64()?,
            rounds: v.field("rounds")?.as_u64()? as u32,
            crashed,
        })
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

/// The agreement input assignment used by the CLI: every `stride`-th node
/// holds 0, the rest hold 1, with `stride` derived from the `zeros`
/// fraction. Kept as a function of `zeros` so artifacts can record one
/// number instead of `n` bits.
pub fn input_stride(zeros: f64) -> u32 {
    if zeros <= 0.0 {
        u32::MAX
    } else {
        (1.0 / zeros).round().max(1.0) as u32
    }
}

fn agree_input(stride: u32, id: NodeId) -> bool {
    !(stride != u32::MAX && id.0.is_multiple_of(stride))
}

fn le_observation(r: &RunResult<LeNode>) -> Observation {
    let out = LeOutcome::evaluate(r);
    Observation {
        fingerprint: Fingerprint {
            success: out.success,
            outcome: out.agreed_leader.map(|rank| rank.0),
            msgs_sent: r.metrics.msgs_sent,
            msgs_delivered: r.metrics.msgs_delivered,
            bits_sent: r.metrics.bits_sent,
            rounds: r.metrics.rounds,
            crashed: r
                .metrics
                .crashes
                .iter()
                .map(|&(node, round)| (node.0, round))
                .collect(),
        },
        distinct: out.elected_alive.len() as u32,
    }
}

fn agree_observation(r: &RunResult<AgreeNode>) -> Observation {
    let out = AgreeOutcome::evaluate(r);
    Observation {
        fingerprint: Fingerprint {
            success: out.success,
            outcome: out.agreed_value.map(u64::from),
            msgs_sent: r.metrics.msgs_sent,
            msgs_delivered: r.metrics.msgs_delivered,
            bits_sent: r.metrics.bits_sent,
            rounds: r.metrics.rounds,
            crashed: r
                .metrics
                .crashes
                .iter()
                .map(|&(node, round)| (node.0, round))
                .collect(),
        },
        distinct: out.decisions.len() as u32,
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
    let mut adversary = ScriptedCrash::new(plan.clone());
    let opts = RunOpts {
        wire,
        ..RunOpts::default()
    };
    match proto {
        ProtoKind::Le => {
            let factory = |_| LeNode::new(params.clone());
            let r = substrate.run(cfg, factory, &mut adversary, &opts)?;
            Ok(le_observation(&r.run))
        }
        ProtoKind::Agree => {
            let stride = input_stride(zeros);
            let factory = |id: NodeId| AgreeNode::new(params.clone(), agree_input(stride, id));
            let r = substrate.run(cfg, factory, &mut adversary, &opts)?;
            Ok(agree_observation(&r.run))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_sim::adversary::DeliveryFilter;

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
        assert_eq!(input_stride(1.0), 1);
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
