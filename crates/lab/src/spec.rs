//! Campaign specifications: experiments as data.
//!
//! A [`CampaignSpec`] is the complete, serialisable description of one
//! experiment: a list of [`CellSpec`]s (workload × `n` × `α` × seed ×
//! trial budget) plus optional fitted-exponent assertions
//! ([`ExponentCheck`]) that re-verify the paper's asymptotic claims
//! against the measured means. Because the spec is plain data with a
//! canonical JSON form, it has a stable content hash ([`CampaignSpec::hash`])
//! — the key that makes stored results diffable across commits: two
//! records with the same spec hash measured the same experiment.

use ftc_sim::json::fnv1a64;
use ftc_sim::topology::Topology;

/// Which crash schedule a cell runs under — the protocol bridge's
/// vocabulary (its JSON form is written by its own codec table).
pub use ftc_hunt::proto::Adv;

/// What one cell measures. Every variant is one arm of the lab's trial
/// builder (`run::trial`), which checks the variant's knobs as it builds
/// the closure every trial of the cell calls, and carries exactly the
/// knobs that closure has.
///
/// Input conventions: agreement-style workloads take a `zeros` fraction
/// and spread the 0-inputs round-robin with stride `round(1/zeros)`
/// (`0.0` = all ones) — the CLI/hunt convention, [`ftc_hunt::proto::agree_input`]. `AgreeEdge`
/// inverts the pattern (E13 historically ran mostly-zero inputs).
#[derive(Clone, Debug, PartialEq)]
pub enum Workload {
    /// Implicit leader election (Theorem 4.1).
    Le {
        /// Crash schedule.
        adv: Adv,
    },
    /// Implicit binary agreement (Theorem 5.1).
    Agree {
        /// Fraction of 0-inputs.
        zeros: f64,
        /// Crash schedule.
        adv: Adv,
    },
    /// D4 ablation: LE with a scaled iteration budget under a multi-kill
    /// assassin.
    LeIter {
        /// Multiplier on the paper's iteration constant.
        factor: f64,
        /// Assassin kills per round.
        per_round: u32,
    },
    /// E12: LE with `b` equivocating Byzantine claimants.
    LeByzantine {
        /// Byzantine node count.
        b: u32,
    },
    /// E12: agreement (all-ones inputs) with `b` forged-zero senders;
    /// success means no honest validity violation.
    AgreeByzantine {
        /// Byzantine node count.
        b: u32,
    },
    /// E13: LE with each edge dead independently with probability `p`.
    LeEdge {
        /// Edge failure probability.
        p: f64,
    },
    /// E13: agreement under edge failures, inputs mostly zeros
    /// (`id % 8 == 0` holds 1).
    AgreeEdge {
        /// Edge failure probability.
        p: f64,
    },
    /// E8: LE under a per-node send cap (`None` = unlimited).
    LeCapped {
        /// Per-node send budget.
        cap: Option<u32>,
    },
    /// E8: agreement under a per-node send cap, inputs split 50/50.
    AgreeCapped {
        /// Per-node send budget.
        cap: Option<u32>,
    },
    /// E7: the explicit leader-election extension.
    LeExplicit,
    /// E7 comparator: the implicit protocol under the explicit budget and
    /// adversary (the announce cost is the difference to `LeExplicit`).
    LeImplicitExplicitBudget,
    /// E7/E1: the explicit agreement extension.
    AgreeExplicit {
        /// Fraction of 0-inputs.
        zeros: f64,
    },
    /// E9: Kutten et al. fault-free leader election.
    LeKutten,
    /// Topology-aware baseline: hub-relay leader election on the
    /// diameter-two topology (Chatterjee–Pandurangan–Robinson style).
    /// Requires the cell's topology to be `DiameterTwo` (or `Complete`,
    /// where every node acts as a hub).
    LeDiamTwo {
        /// Crash schedule (schedule-only: none/eager/random).
        adv: Adv,
    },
    /// E9: Augustine et al. fault-free agreement.
    AgreeAugustine {
        /// Fraction of 0-inputs.
        zeros: f64,
    },
    /// E14: multi-valued agreement over `{0..k}`.
    MultiValue {
        /// Input domain size.
        k: u32,
    },
    /// E1: folklore FloodSet at `faults` random crashes.
    Flood {
        /// Crash budget.
        faults: u64,
    },
    /// E1: Gilbert–Kowalski-style KT1 agreement at `faults` random crashes.
    Gk {
        /// Crash budget.
        faults: u64,
    },
    /// E1: Chlebus–Kowalski-style gossip at `faults` random crashes.
    Gossip {
        /// Crash budget.
        faults: u64,
    },
    /// E10: the sampling layer alone — Lemmas 1–3 concentration.
    SamplingLemmas {
        /// Candidate-probability constant (paper: 6).
        candidate_factor: f64,
        /// Referee-count constant (paper: 2).
        referee_factor: f64,
    },
    /// Engine hot-path benchmark: a broadcast-heavy canary protocol whose
    /// message counts pin the data plane bit-for-bit while the diagnostic
    /// `trials_per_s` field measures raw engine throughput (the quantity
    /// the `ftc lab perf` gate watches). Engine substrate only.
    EngineBench {
        /// Crash schedule.
        adv: Adv,
        /// Edge failure probability (`0.0` = reliable edges).
        p: f64,
        /// Broadcast rounds per trial.
        rounds: u32,
    },
    /// E18: an `ftc-serve` soak — a long-lived leader service running this
    /// many election heights with leader-kill churn, a deterministic load
    /// generator, and the invariant monitor armed. Success means zero
    /// invariant violations and zero failed elections; extras carry the
    /// TTNL and latency percentiles plus availability. Engine substrate
    /// only.
    Soak {
        /// Election heights per trial.
        heights: u32,
        /// Crash the leader after every this-many successful heights.
        kill_every: u32,
        /// Heights a downed node sits out before rejoining.
        rejoin_after: u32,
    },
}

// The tag doubles as the cell's default label (`Workload::tag`).
ftc_sim::codec! {
    enum Workload: to_json, tag {
        "le" => Le { "adv": adv },
        "agree" => Agree { "zeros": zeros, "adv": adv },
        "le_iter" => LeIter { "factor": factor, "per_round": per_round },
        "le_byzantine" => LeByzantine { "b": b },
        "agree_byzantine" => AgreeByzantine { "b": b },
        "le_edge" => LeEdge { "p": p },
        "agree_edge" => AgreeEdge { "p": p },
        "le_capped" => LeCapped { "cap": cap },
        "agree_capped" => AgreeCapped { "cap": cap },
        "le_explicit" => LeExplicit,
        "le_implicit_xbudget" => LeImplicitExplicitBudget,
        "agree_explicit" => AgreeExplicit { "zeros": zeros },
        "le_kutten" => LeKutten,
        "le_diam_two" => LeDiamTwo { "adv": adv },
        "agree_augustine" => AgreeAugustine { "zeros": zeros },
        "multi_value" => MultiValue { "k": k },
        "flood" => Flood { "faults": faults },
        "gk" => Gk { "faults": faults },
        "gossip" => Gossip { "faults": faults },
        "sampling_lemmas" => SamplingLemmas {
            "candidate_factor": candidate_factor,
            "referee_factor": referee_factor,
        },
        "engine_bench" => EngineBench { "adv": adv, "p": p, "rounds": rounds },
        "soak" => Soak {
            "heights": heights,
            "kill_every": kill_every,
            "rejoin_after": rejoin_after,
        },
    }
}

/// One point of a campaign's parameter grid.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSpec {
    /// Free-form cell label; exponent checks and diffs select by it, so
    /// keep it stable across runs (the series name, e.g. `"le/random"`).
    pub label: String,
    /// What to measure.
    pub workload: Workload,
    /// Network size.
    pub n: u32,
    /// Guaranteed non-faulty fraction.
    pub alpha: f64,
    /// Base seed; trial `i` runs at `stream_seed(seed, i + 1)`, the
    /// `ParRunner` derivation.
    pub seed: u64,
    /// Trials in this cell.
    pub trials: u64,
    /// Network graph the trials run on. `Complete` is the default and is
    /// omitted from the JSON form, so pre-topology specs — and therefore
    /// every committed complete-graph spec hash and record id — are
    /// unchanged.
    pub topology: Topology,
}

impl CellSpec {
    /// Creates a cell with the label defaulting to the workload tag.
    pub fn new(workload: Workload, n: u32, alpha: f64, seed: u64, trials: u64) -> Self {
        CellSpec {
            label: workload.tag().to_string(),
            workload,
            n,
            alpha,
            seed,
            trials,
            topology: Topology::Complete,
        }
    }

    /// Overrides the label (builder style).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Overrides the topology (builder style).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }
}

ftc_sim::codec! {
    struct CellSpec: to_json {
        "label": label,
        "workload": workload,
        "n": n,
        "alpha": alpha,
        "seed": seed,
        "trials": trials,
        "topology": topology [elide],
    }
}

/// Which measured quantity a check fits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckMetric {
    /// Mean messages sent per trial.
    Msgs,
    /// Mean rounds per trial.
    Rounds,
}

ftc_sim::codec! {
    names CheckMetric("check metric") {
        "msgs" => Msgs,
        "rounds" => Rounds,
    }
}

/// The x-axis a check fits against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckAxis {
    /// Network size `n`.
    N,
    /// `1/α` (resilience dial).
    InvAlpha,
}

ftc_sim::codec! {
    names CheckAxis("check axis") {
        "n" => N,
        "inv_alpha" => InvAlpha,
    }
}

/// A fitted-exponent assertion: fit `metric ~ axis^e` over the cells
/// labelled `series` and require `e ∈ [min, max]`.
///
/// This is how the store continuously re-verifies Theorem 1's shape: the
/// LE message exponent on `n` must stay decisively sublinear (the paper's
/// `Õ(n^{1-α/2})` with polylog slack), and rounds must stay polylog
/// (near-zero power-law exponent).
#[derive(Clone, Debug, PartialEq)]
pub struct ExponentCheck {
    /// Check name, unique within the campaign.
    pub name: String,
    /// Cell label selecting the series.
    pub series: String,
    /// Quantity to fit.
    pub metric: CheckMetric,
    /// X-axis.
    pub axis: CheckAxis,
    /// Inclusive lower bound on the fitted exponent.
    pub min: f64,
    /// Inclusive upper bound on the fitted exponent.
    pub max: f64,
}

ftc_sim::codec! {
    struct ExponentCheck: to_json {
        "name": name,
        "series": series,
        "metric": metric,
        "axis": axis,
        "min": min,
        "max": max,
    }
}

/// A complete experiment campaign: the grid plus its assertions.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (also the store-id prefix).
    pub name: String,
    /// The parameter grid.
    pub cells: Vec<CellSpec>,
    /// Fitted-exponent assertions over the grid.
    pub checks: Vec<ExponentCheck>,
}

impl CampaignSpec {
    /// Creates an empty campaign.
    pub fn new(name: impl Into<String>) -> Self {
        CampaignSpec {
            name: name.into(),
            cells: Vec::new(),
            checks: Vec::new(),
        }
    }

    /// Adds a cell (builder style).
    pub fn cell(mut self, cell: CellSpec) -> Self {
        self.cells.push(cell);
        self
    }

    /// Adds a check (builder style).
    pub fn check(mut self, check: ExponentCheck) -> Self {
        self.checks.push(check);
        self
    }

    /// Content hash of the canonical JSON render (FNV-1a 64, hex).
    ///
    /// Two records are comparable iff their spec hashes agree; `gate`
    /// refuses to compare across differing specs.
    pub fn hash(&self) -> String {
        format!("{:016x}", fnv1a64(self.to_json().render().as_bytes()))
    }
}

// The canonical form the spec hash covers.
ftc_sim::codec! {
    struct CampaignSpec: to_json {
        "name": name,
        "cells": cells,
        "checks": checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_sim::json::Json;

    fn sample_spec() -> CampaignSpec {
        CampaignSpec::new("unit")
            .cell(CellSpec::new(
                Workload::Le {
                    adv: Adv::Random(60),
                },
                256,
                0.5,
                7,
                4,
            ))
            .cell(
                CellSpec::new(Workload::AgreeCapped { cap: Some(8) }, 128, 0.25, 9, 6)
                    .label("agree/cap8"),
            )
            .check(ExponentCheck {
                name: "le-msgs-vs-n".into(),
                series: "le".into(),
                metric: CheckMetric::Msgs,
                axis: CheckAxis::N,
                min: 0.3,
                max: 0.9,
            })
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = sample_spec();
        let back =
            CampaignSpec::from_json(&Json::parse(&spec.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn every_workload_round_trips() {
        let workloads = vec![
            Workload::Le { adv: Adv::None },
            Workload::Le { adv: Adv::Eager },
            Workload::Le {
                adv: Adv::AdaptiveKiller,
            },
            Workload::Agree {
                zeros: 0.05,
                adv: Adv::Targeted,
            },
            Workload::LeIter {
                factor: 0.1,
                per_round: 4,
            },
            Workload::LeByzantine { b: 2 },
            Workload::AgreeByzantine { b: 1 },
            Workload::LeEdge { p: 0.4 },
            Workload::AgreeEdge { p: 0.9 },
            Workload::LeCapped { cap: None },
            Workload::LeCapped { cap: Some(16) },
            Workload::AgreeCapped { cap: Some(0) },
            Workload::LeExplicit,
            Workload::LeImplicitExplicitBudget,
            Workload::AgreeExplicit { zeros: 0.05 },
            Workload::LeKutten,
            Workload::LeDiamTwo { adv: Adv::Eager },
            Workload::AgreeAugustine { zeros: 0.0625 },
            Workload::MultiValue { k: 4096 },
            Workload::Flood { faults: 127 },
            Workload::Gk { faults: 127 },
            Workload::Gossip { faults: 128 },
            Workload::SamplingLemmas {
                candidate_factor: 6.0,
                referee_factor: 0.5,
            },
            Workload::EngineBench {
                adv: Adv::None,
                p: 0.0,
                rounds: 3,
            },
            Workload::EngineBench {
                adv: Adv::Eager,
                p: 0.3,
                rounds: 5,
            },
            Workload::Soak {
                heights: 120,
                kill_every: 3,
                rejoin_after: 4,
            },
        ];
        for w in workloads {
            let back = Workload::from_json(&Json::parse(&w.to_json().render()).unwrap()).unwrap();
            assert_eq!(back, w, "workload {w:?}");
        }
    }

    #[test]
    fn spec_hash_is_stable_and_content_sensitive() {
        let spec = sample_spec();
        assert_eq!(spec.hash(), spec.hash());
        let mut other = spec.clone();
        other.cells[0].seed ^= 1;
        assert_ne!(spec.hash(), other.hash());
        let mut renamed = spec.clone();
        renamed.cells[1].label = "renamed".into();
        assert_ne!(spec.hash(), renamed.hash());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn complete_cells_render_without_a_topology_field() {
        // Committed complete-graph spec hashes must not move: the
        // `topology` key only appears for non-complete cells.
        let spec = sample_spec();
        assert!(!spec.to_json().render().contains("topology"));
        let back =
            CampaignSpec::from_json(&Json::parse(&spec.to_json().render()).unwrap()).unwrap();
        assert!(back.cells.iter().all(|c| c.topology.is_complete()));
        assert_eq!(back.hash(), spec.hash());
    }

    #[test]
    fn topology_cells_round_trip_and_shift_the_hash() {
        let base = sample_spec();
        let mut spec = sample_spec();
        spec.cells[0] = spec.cells[0]
            .clone()
            .topology(Topology::DiameterTwo { clusters: 8 });
        spec.cells[1] = spec.cells[1]
            .clone()
            .topology(Topology::RandomRegular { d: 6 });
        assert_ne!(spec.hash(), base.hash());
        let back =
            CampaignSpec::from_json(&Json::parse(&spec.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.hash(), spec.hash());
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let bad = Json::parse(r#"{"kind":"paxos"}"#).unwrap();
        assert!(Workload::from_json(&bad).is_err());
        assert!(<Adv as ftc_sim::json::Codec>::decode(&bad).is_err());
    }
}
