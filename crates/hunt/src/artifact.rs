//! Replayable counterexample bundles.
//!
//! An [`Artifact`] is the hunt's unit of evidence: everything needed to
//! re-execute a found schedule byte-for-byte — protocol, parameters,
//! the exact [`SimConfig`] (including the probe seed), the schedule — plus
//! what the hunt observed, so replay is a *check*, not just a rerun.
//! `ftc replay` re-executes the bundle on the sim engine or an `ftc-net`
//! runtime and diffs the fresh fingerprint against the recorded one;
//! a committed artifact thereby pins the PR-3 bit-equivalence guarantee to
//! a concrete adversarial schedule in CI.

use ftc_core::prelude::Params;
use ftc_net::prelude::WireFaultPlan;
use ftc_sim::engine::SimConfig;
use ftc_sim::json::Json;
use ftc_sim::prelude::FaultPlan;

use crate::objective::{Bounds, Objective};
use crate::proto::{observe_wire, Fingerprint, Observation, ProtoKind, Substrate};
use crate::search::{HuntReport, HuntSpec};
use crate::shrink::{shrink, ShrinkReport};

/// Current artifact schema version.
pub const ARTIFACT_VERSION: u64 = 1;

/// A self-contained, replayable counterexample.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// Schema version (see [`ARTIFACT_VERSION`]).
    pub version: u64,
    /// The protocol the schedule attacks.
    pub proto: ProtoKind,
    /// The objective the schedule was hunted under.
    pub objective: Objective,
    /// Resilience parameter the protocol ran with.
    pub alpha: f64,
    /// Agreement input density (ignored for LE, recorded regardless).
    pub zeros: f64,
    /// The service election height the schedule was observed at, when the
    /// artifact came out of a long-lived `ftc-serve` run (`None` for
    /// single-shot hunts). Heights replay as standalone elections — the
    /// schedule and config are complete without it — so this is
    /// provenance, not an execution input.
    pub height: Option<u32>,
    /// Exact execution config; `seed` is the counterexample probe seed.
    pub config: SimConfig,
    /// The (shrunk) crash schedule.
    pub schedule: FaultPlan,
    /// The socket-level chaos the counterexample was found under (`None`
    /// for plain hunts). Wire faults are delivery-preserving, so replay
    /// applies them on the socket substrates and ignores them on the
    /// engine — [`WireFaultPlan::degrade`]'s empty-plan equivalence —
    /// which is exactly what makes an engine replay of a wire-fault
    /// artifact a meaningful cross-check rather than a skipped one.
    pub wire: Option<WireFaultPlan>,
    /// Objective score the hunt observed.
    pub score: f64,
    /// Whether the observation was an actual counterexample (vs. merely
    /// the worst schedule the budget found).
    pub hit: bool,
    /// The recorded execution fingerprint replay must reproduce.
    pub fingerprint: Fingerprint,
}

// `height` and `wire` are elided when `None`, so single-shot and
// pre-chaos artifacts keep their committed bytes.
ftc_sim::codec! {
    struct Artifact: to_json {
        "version": version,
        "proto": proto,
        "objective": objective,
        "alpha": alpha,
        "zeros": zeros,
        "height": height [elide],
        "config": config,
        "schedule": schedule,
        "wire": wire [elide],
        "observed": {
            "score": score,
            "hit": hit,
            "fingerprint": fingerprint,
        },
    }
    check |a| match a.version {
        ARTIFACT_VERSION => Ok(()),
        other => Err(format!("unsupported artifact version {other}")),
    };
}

/// The result of replaying an artifact on one substrate.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// What the replay ran on.
    pub substrate: Substrate,
    /// The fresh observation.
    pub observation: Observation,
    /// Whether the fresh fingerprint equals the recorded one.
    pub fingerprint_matches: bool,
    /// Whether the objective's hit verdict was reproduced.
    pub verdict_matches: bool,
}

impl ReplayReport {
    /// Replay succeeded: same bytes, same verdict.
    pub fn ok(&self) -> bool {
        self.fingerprint_matches && self.verdict_matches
    }
}

impl Artifact {
    /// Mints the artifact a finished hunt stands behind: ddmin-shrinks the
    /// champion at its probe seed and records what the reduced schedule
    /// observes there — the pipeline `ftc hunt` and every portfolio cell
    /// share. The [`ShrinkReport`] rides along for reporting.
    pub fn mint(spec: &HuntSpec, report: &HuntReport) -> (Artifact, ShrinkReport) {
        let champ = &report.champion;
        let reduced = shrink(
            spec,
            &report.bounds,
            champ.probe_seed,
            champ.score,
            &champ.plan,
        );
        let mut config = spec.cfg.clone();
        config.seed = champ.probe_seed;
        let artifact = Artifact {
            version: ARTIFACT_VERSION,
            proto: spec.proto,
            objective: spec.objective,
            alpha: spec.params.alpha(),
            zeros: spec.zeros,
            height: None,
            config,
            schedule: reduced.plan.clone(),
            wire: champ.wire.clone(),
            score: spec.objective.score(&reduced.observation),
            hit: spec.objective.hit(&reduced.observation, &report.bounds),
            fingerprint: reduced.observation.fingerprint.clone(),
        };
        (artifact, reduced)
    }

    /// The protocol parameters the artifact's runs use.
    pub fn params(&self) -> Result<Params, String> {
        Params::new(self.config.n, self.alpha).map_err(|e| format!("bad artifact params: {e}"))
    }

    /// Renders the artifact as a JSON string (plus trailing newline, so
    /// committed artifacts diff cleanly).
    pub fn render(&self) -> String {
        let mut s = self.to_json().render();
        s.push('\n');
        s
    }

    /// Parses an artifact from a JSON string.
    pub fn parse(s: &str) -> Result<Self, String> {
        let v = Json::parse(s).map_err(|e| format!("artifact JSON: {}", e.message))?;
        Artifact::from_json(&v).map_err(|e| format!("artifact: {}", e.message))
    }

    /// Re-executes the bundle on `substrate` and diffs against the record.
    pub fn replay(&self, substrate: Substrate) -> Result<ReplayReport, String> {
        let params = self.params()?;
        let observation = observe_wire(
            self.proto,
            &params,
            &self.config,
            self.zeros,
            &self.schedule,
            self.wire.as_ref(),
            substrate,
        )?;
        let bounds = Bounds::for_proto(self.proto, &params);
        let fingerprint_matches = observation.fingerprint == self.fingerprint;
        let verdict_matches = self.objective.hit(&observation, &bounds) == self.hit;
        Ok(ReplayReport {
            substrate,
            observation,
            fingerprint_matches,
            verdict_matches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::observe;
    use ftc_net::prelude::WireFaultKind;
    use ftc_sim::adversary::DeliveryFilter;
    use ftc_sim::ids::NodeId;

    fn sample_artifact() -> Artifact {
        let params = Params::new(16, 0.5).unwrap();
        let config = SimConfig::new(16)
            .seed(0xDEAD_BEEF_CAFE_F00D)
            .max_rounds(params.le_round_budget());
        let schedule = FaultPlan::new()
            .crash(NodeId(3), 0, DeliveryFilter::DropAll)
            .crash(NodeId(11), 2, DeliveryFilter::KeepFirst(1));
        let obs = observe(
            ProtoKind::Le,
            &params,
            &config,
            0.05,
            &schedule,
            Substrate::Engine,
        )
        .unwrap();
        let bounds = Bounds::for_proto(ProtoKind::Le, &params);
        Artifact {
            version: ARTIFACT_VERSION,
            proto: ProtoKind::Le,
            objective: Objective::Failure,
            alpha: 0.5,
            zeros: 0.05,
            height: None,
            config,
            schedule,
            wire: None,
            score: Objective::Failure.score(&obs),
            hit: Objective::Failure.hit(&obs, &bounds),
            fingerprint: obs.fingerprint,
        }
    }

    #[test]
    fn artifact_round_trips_through_json() {
        let art = sample_artifact();
        let back = Artifact::parse(&art.render()).unwrap();
        assert_eq!(back.version, art.version);
        assert_eq!(back.proto, art.proto);
        assert_eq!(back.objective, art.objective);
        assert_eq!(back.alpha, art.alpha);
        assert_eq!(back.config.seed, art.config.seed);
        assert_eq!(back.schedule.entries(), art.schedule.entries());
        assert_eq!(back.fingerprint, art.fingerprint);
        assert_eq!(back.hit, art.hit);
        // And the rendering is deterministic.
        assert_eq!(back.render(), art.render());
    }

    #[test]
    fn height_is_optional_and_round_trips() {
        // Absent: the key is not rendered, and parsing tolerates it.
        let art = sample_artifact();
        assert!(!art.render().contains("\"height\""));
        assert_eq!(Artifact::parse(&art.render()).unwrap().height, None);
        // Present: it renders and round-trips.
        let mut tall = sample_artifact();
        tall.height = Some(37);
        tall.objective = Objective::TwoLeadersAtHeight;
        let back = Artifact::parse(&tall.render()).unwrap();
        assert_eq!(back.height, Some(37));
        assert_eq!(back.objective, Objective::TwoLeadersAtHeight);
        assert_eq!(back.render(), tall.render());
    }

    #[test]
    fn wire_section_is_optional_and_round_trips() {
        // Absent: the key is not rendered, so pre-chaos artifacts keep
        // their committed bytes.
        let art = sample_artifact();
        assert!(!art.render().contains("\"wire\""));
        assert_eq!(Artifact::parse(&art.render()).unwrap().wire, None);
        // Present: it renders, round-trips, and replays on both the
        // engine (where it is ignored) and the channel substrate (where
        // it perturbs the transport without changing the observation).
        let mut chaotic = sample_artifact();
        chaotic.wire = Some(
            WireFaultPlan::new(29)
                .fault(NodeId(3), 0, WireFaultKind::Reorder)
                .fault(NodeId(5), 1, WireFaultKind::Duplicate),
        );
        let back = Artifact::parse(&chaotic.render()).unwrap();
        assert_eq!(back.wire, chaotic.wire);
        assert_eq!(back.render(), chaotic.render());
        let engine = chaotic.replay(Substrate::Engine).unwrap();
        assert!(engine.ok(), "engine replay diverged: {engine:?}");
        let channel = chaotic.replay(Substrate::Channel(2)).unwrap();
        assert!(channel.ok(), "channel replay diverged: {channel:?}");
    }

    #[test]
    fn replay_matches_on_engine_and_channel() {
        let art = sample_artifact();
        let engine = art.replay(Substrate::Engine).unwrap();
        assert!(engine.ok(), "engine replay diverged: {engine:?}");
        let channel = art.replay(Substrate::Channel(2)).unwrap();
        assert!(channel.ok(), "channel replay diverged: {channel:?}");
    }

    #[test]
    fn replay_detects_tampered_fingerprints() {
        let mut art = sample_artifact();
        art.fingerprint.msgs_sent += 1;
        let report = art.replay(Substrate::Engine).unwrap();
        assert!(!report.fingerprint_matches);
    }

    #[test]
    fn version_gate_rejects_future_schemas() {
        let mut art = sample_artifact();
        art.version = 99;
        let s = art.render();
        assert!(Artifact::parse(&s).is_err());
    }
}
