//! The hunt itself: budgeted, deterministic, `--jobs`-invariant search
//! over crash-schedule space.
//!
//! The budget is spent in fixed-size *generations*. Every candidate in a
//! generation is an independent pure function of its own trial seed (plus,
//! for the annealing strategy, the incumbent chosen at the previous
//! generation boundary), so generations parallelise on [`ParRunner`]
//! without perturbing the result: the same `(spec, seed, budget)` hunt
//! finds the same candidates, in the same order, at any `--jobs`.
//!
//! Each candidate schedule is scored over a fixed panel of probe seeds
//! shared by all candidates; its score is the max over the panel (every
//! objective's score is monotone with its hit predicate, so the argmax
//! probe is a hit iff any probe is). The champion is the argmax-score
//! candidate, ties broken toward the lowest trial index.

use ftc_lowerbound::prelude::crash_targets;
use ftc_sim::engine::SimConfig;
use ftc_sim::perm::stream_seed;
use ftc_sim::prelude::FaultPlan;
use ftc_sim::runner::{ParRunner, TrialPlan};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ftc_net::prelude::{RunOpts, WireFaultPlan};

use crate::mutate::{
    guided_plan, mutate_plan, mutate_wire_plan, random_plan, random_wire_plan, PlanSpace,
};
use crate::objective::{Bounds, Objective};
use crate::proto::{check_zeros, observe_wire, Observation, ProtoKind, Schedule, Substrate};

/// Candidates evaluated per generation (the parallelism grain; fixed so
/// the generation boundaries — and with them the annealing decisions —
/// do not depend on `--jobs`).
pub const GENERATION: u64 = 16;

/// Seed-stream salts, disjoint from the trial indices `ParRunner` salts
/// with (those are `1..=budget`, far below these).
const SALT_PROBES: u64 = u64::MAX - 0x01;
const SALT_ANNEAL: u64 = u64::MAX - 0x02;
const SALT_GUIDE: u64 = u64::MAX - 0x03;

/// How candidate schedules are proposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Independent uniform samples of the schedule space.
    Random,
    /// Uniform samples biased toward influence-cloud crash targets mined
    /// from a crash-free reference trace.
    Guided,
    /// Simulated annealing: generations of local mutations of an
    /// incumbent, with a cooling acceptance rule.
    Anneal,
}

ftc_sim::codec! {
    names pub Strategy("strategy") {
        "random" => Random,
        "guided" => Guided,
        "anneal" => Anneal,
    }
}

/// Everything that defines one hunt. Two equal specs produce bit-equal
/// [`HuntReport`]s regardless of `jobs`.
#[derive(Clone, Debug)]
pub struct HuntSpec {
    /// The protocol under attack.
    pub proto: ProtoKind,
    /// What to falsify / maximise.
    pub objective: Objective,
    /// Protocol parameters (`n`, `alpha`, budgets).
    pub params: ftc_core::prelude::Params,
    /// Base execution config; its `seed` is overridden per probe and its
    /// `max_rounds` should be the protocol's round budget.
    pub cfg: SimConfig,
    /// Agreement input density (ignored for LE).
    pub zeros: f64,
    /// Candidate schedules to evaluate.
    pub budget: u64,
    /// Probe seeds per candidate.
    pub probes: u64,
    /// Search seed (drives plans AND the probe panel).
    pub seed: u64,
    /// Worker threads (`0` = all cores). Never changes the result.
    pub jobs: usize,
    /// Proposal strategy.
    pub strategy: Strategy,
    /// Which substrate evaluates candidates. [`Substrate::Engine`] is the
    /// fast default; a net substrate turns every evaluation into a
    /// differential check of that runtime against the model.
    pub substrate: Substrate,
    /// Whether to co-search socket-level [`WireFaultPlan`]s alongside
    /// crash schedules. Wire faults are delivery-preserving, so any hit
    /// they cause is a runtime bug; on [`Substrate::Engine`] they are
    /// drawn but invisible.
    pub wire: bool,
}

impl HuntSpec {
    /// Rejects a hunt no candidate of which can be judged: an objective
    /// the protocol does not have, an empty budget or probe panel, or a
    /// `zeros` fraction [`check_zeros`] rejects.
    pub fn check(&self) -> Result<(), String> {
        if !self.objective.supports(self.proto) {
            return Err(format!(
                "objective {} does not apply to protocol {}",
                self.objective.name(),
                self.proto.name()
            ));
        }
        if self.budget == 0 || self.probes == 0 {
            return Err("hunt budget and probes must be at least 1".into());
        }
        check_zeros(self.zeros)
    }
}

/// One evaluated schedule: its worst probe, per the objective.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Global trial index the candidate was derived from.
    pub trial: u64,
    /// The schedule.
    pub plan: FaultPlan,
    /// The socket-level chaos the schedule ran under (wire hunts only).
    pub wire: Option<WireFaultPlan>,
    /// Objective score at the argmax probe.
    pub score: f64,
    /// Whether the argmax probe is an actual counterexample.
    pub hit: bool,
    /// The execution seed of the argmax probe.
    pub probe_seed: u64,
    /// The argmax probe's observation.
    pub observation: Observation,
}

/// Per-generation progress, for `--format csv`-style reporting.
#[derive(Clone, Copy, Debug)]
pub struct GenSummary {
    /// Generation index.
    pub generation: u64,
    /// Best score inside this generation.
    pub best_score: f64,
    /// Hits inside this generation.
    pub hits: u64,
    /// Best score over all generations so far.
    pub champion_score: f64,
}

/// The hunt's deterministic result.
#[derive(Clone, Debug)]
pub struct HuntReport {
    /// The argmax-score candidate (lowest trial index on ties).
    pub champion: Candidate,
    /// Candidates evaluated (= min(budget, rounded-up generations)).
    pub evaluated: u64,
    /// Candidates whose argmax probe was a hit.
    pub hits: u64,
    /// Progress per generation, in order.
    pub generations: Vec<GenSummary>,
    /// The thresholds hits were judged against.
    pub bounds: Bounds,
}

/// The fixed probe-seed panel shared by every candidate of a hunt.
pub fn probe_seeds(spec_seed: u64, probes: u64) -> Vec<u64> {
    let base = stream_seed(spec_seed, SALT_PROBES);
    (0..probes.max(1))
        .map(|p| stream_seed(base, p.wrapping_add(1)))
        .collect()
}

/// Scores `plan` over the probe panel: the argmax-probe observation,
/// judged by `objective`. Pure in its arguments; runs on the spec's
/// substrate (under `wire` chaos, when set).
pub fn evaluate(
    spec: &HuntSpec,
    bounds: &Bounds,
    panel: &[u64],
    trial: u64,
    plan: FaultPlan,
    wire: Option<WireFaultPlan>,
) -> Result<Candidate, String> {
    let mut best: Option<(f64, u64, Observation)> = None;
    for &probe in panel {
        let mut cfg = spec.cfg.clone();
        cfg.seed = probe;
        let obs = observe_wire(
            spec.proto,
            &spec.params,
            &cfg,
            spec.zeros,
            &plan,
            wire.as_ref(),
            spec.substrate,
        )?;
        let score = spec.objective.score(&obs);
        if best.as_ref().is_none_or(|(s, _, _)| score > *s) {
            best = Some((score, probe, obs));
        }
    }
    let (score, probe_seed, observation) = best.expect("probe panel is non-empty");
    let hit = spec.objective.hit(&observation, bounds);
    Ok(Candidate {
        trial,
        plan,
        wire,
        score,
        hit,
        probe_seed,
        observation,
    })
}

/// Mines influence-cloud crash targets from a crash-free reference run of
/// the hunted protocol, for the guided strategy. Deterministic in `spec`.
fn mine_targets(
    spec: &HuntSpec,
    space: &PlanSpace,
) -> Result<Vec<ftc_lowerbound::prelude::CrashTarget>, String> {
    let mut cfg = spec.cfg.clone();
    cfg.seed = stream_seed(spec.seed, SALT_GUIDE);
    cfg.record_trace = true;
    let benign = FaultPlan::new();
    let run = spec.proto.run(
        &spec.params,
        &cfg,
        spec.zeros,
        Schedule::Scripted(&benign),
        Substrate::Engine,
        &RunOpts::default(),
    )?;
    Ok(run
        .trace
        .map(|t| crash_targets(&t, (space.max_faults * 4).max(8)))
        .unwrap_or_default())
}

fn better(challenger: &Candidate, incumbent: &Candidate) -> bool {
    challenger.score > incumbent.score
        || (challenger.score == incumbent.score && challenger.trial < incumbent.trial)
}

/// Runs the hunt. Deterministic in `spec` minus `jobs`.
pub fn run_hunt(spec: &HuntSpec) -> Result<HuntReport, String> {
    run_hunt_observed(spec, |_| {})
}

/// [`run_hunt`], streaming every evaluated candidate — in trial order,
/// invariant under `jobs` — through `observer` as its generation closes.
/// This is the hook schedule-space coverage accounting hangs off: the
/// observer sees exactly the plans the budget explored, so a coverage
/// figure computed from it is as deterministic as the hunt itself.
pub(crate) fn run_hunt_observed(
    spec: &HuntSpec,
    mut observer: impl FnMut(&Candidate),
) -> Result<HuntReport, String> {
    spec.check()?;
    let bounds = Bounds::for_proto(spec.proto, &spec.params);
    let panel = probe_seeds(spec.seed, spec.probes);
    let mut space = PlanSpace::new(
        spec.cfg.n,
        spec.params.max_faults().max(1),
        spec.proto.round_budget(&spec.params),
    );
    if spec.strategy == Strategy::Guided {
        let targets = mine_targets(spec, &space)?;
        space = space.with_targets(targets);
    }

    let mut champion: Option<Candidate> = None;
    let mut incumbent: Option<Candidate> = None; // annealing walker state
    let mut generations = Vec::new();
    let mut evaluated = 0u64;
    let mut hits = 0u64;
    let mut first_error: Option<String> = None;

    let seeds = TrialPlan::new(spec.seed, spec.budget);
    let mut gen = 0u64;
    while evaluated < spec.budget {
        let batch_size = (spec.budget - evaluated).min(GENERATION);
        let plan = TrialPlan::new(spec.seed, batch_size).jobs(spec.jobs);
        let incumbent_plan = incumbent.as_ref().map(|c| (c.plan.clone(), c.wire.clone()));
        // Trial indices run on across generations: the whole budget is
        // one seed range, cut into batches.
        let batch = ParRunner::new(plan).run(|i, _| {
            let trial = evaluated + i;
            let seed = seeds.seed_of(trial);
            let mut rng = SmallRng::seed_from_u64(seed);
            let proposal = match (spec.strategy, &incumbent_plan) {
                (Strategy::Random, _) | (Strategy::Anneal, None) => random_plan(&mut rng, &space),
                (Strategy::Guided, _) => guided_plan(&mut rng, &space),
                (Strategy::Anneal, Some((base, _))) => mutate_plan(&mut rng, base, &space),
            };
            let wire = spec.wire.then(|| match (spec.strategy, &incumbent_plan) {
                (Strategy::Anneal, Some((_, Some(base)))) => {
                    mutate_wire_plan(&mut rng, base, &space)
                }
                _ => random_wire_plan(&mut rng, &space),
            });
            evaluate(spec, &bounds, &panel, trial, proposal, wire)
        });
        evaluated += batch.len() as u64;

        let mut gen_best: Option<Candidate> = None;
        for outcome in batch.outcomes {
            match outcome.value {
                Ok(cand) => {
                    observer(&cand);
                    hits += u64::from(cand.hit);
                    if gen_best.as_ref().is_none_or(|b| better(&cand, b)) {
                        gen_best = Some(cand);
                    }
                }
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        let Some(gen_best) = gen_best else {
            return Err(first_error.unwrap_or_else(|| "hunt evaluated no candidates".into()));
        };

        if champion.as_ref().is_none_or(|c| better(&gen_best, c)) {
            champion = Some(gen_best.clone());
        }
        // Annealing acceptance: always climb; sometimes accept a downhill
        // move early on. The coin is drawn from a per-generation stream, so
        // the walk is identical at any thread count.
        let accept = match incumbent.as_ref() {
            None => true,
            Some(inc) => {
                if gen_best.score >= inc.score {
                    true
                } else {
                    let temp = 0.5 * 0.85f64.powi(gen.min(64) as i32);
                    let scale = inc.score.abs().max(1.0);
                    let p = ((gen_best.score - inc.score) / (scale * temp)).exp();
                    let mut coin =
                        SmallRng::seed_from_u64(stream_seed(spec.seed, SALT_ANNEAL ^ gen));
                    coin.random_bool(p.clamp(0.0, 1.0))
                }
            }
        };
        if accept {
            incumbent = Some(gen_best.clone());
        }

        generations.push(GenSummary {
            generation: gen,
            best_score: gen_best.score,
            hits,
            champion_score: champion.as_ref().map_or(f64::NAN, |c| c.score),
        });
        gen += 1;
    }

    Ok(HuntReport {
        champion: champion.expect("budget >= 1 yields a champion"),
        evaluated,
        hits,
        generations,
        bounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_core::prelude::Params;

    fn spec(strategy: Strategy, objective: Objective, jobs: usize) -> HuntSpec {
        let params = Params::new(16, 0.5).unwrap();
        let cfg = SimConfig::new(16).max_rounds(params.le_round_budget());
        HuntSpec {
            proto: ProtoKind::Le,
            objective,
            params,
            cfg,
            zeros: 0.05,
            budget: 24,
            probes: 2,
            seed: 42,
            jobs,
            strategy,
            substrate: Substrate::Engine,
            wire: false,
        }
    }

    fn plan_key(c: &Candidate) -> (u64, String, u64) {
        (c.trial, format!("{:?}", c.plan.entries()), c.probe_seed)
    }

    #[test]
    fn strategy_parses() {
        assert_eq!(Strategy::parse("anneal").unwrap(), Strategy::Anneal);
        assert_eq!(Strategy::parse("guided").unwrap().name(), "guided");
        assert!(Strategy::parse("bfs").is_err());
    }

    #[test]
    fn rejects_mismatched_objective_and_zero_budget() {
        let mut s = spec(Strategy::Random, Objective::Disagreement, 1);
        assert!(run_hunt(&s).is_err());
        s.objective = Objective::Failure;
        s.budget = 0;
        assert!(run_hunt(&s).is_err());
        // An empty probe panel used to be read as one probe, and a
        // `zeros` above 1 as all-zero inputs.
        s.budget = 1;
        s.probes = 0;
        assert!(s.check().unwrap_err().contains("probes"));
        s.probes = 1;
        s.zeros = 2.0;
        assert!(run_hunt(&s).unwrap_err().contains("zeros=2"));
        s.zeros = 0.05;
        assert!(s.check().is_ok());
    }

    #[test]
    fn hunt_is_jobs_invariant_for_every_strategy() {
        for strategy in [Strategy::Random, Strategy::Guided, Strategy::Anneal] {
            let one = run_hunt(&spec(strategy, Objective::Failure, 1)).unwrap();
            let four = run_hunt(&spec(strategy, Objective::Failure, 4)).unwrap();
            assert_eq!(
                plan_key(&one.champion),
                plan_key(&four.champion),
                "champion diverged under --jobs for {strategy:?}"
            );
            assert_eq!(one.champion.score, four.champion.score);
            assert_eq!(one.hits, four.hits, "hit count diverged for {strategy:?}");
            assert_eq!(one.evaluated, 24);
            assert_eq!(one.generations.len(), four.generations.len());
            for (a, b) in one.generations.iter().zip(four.generations.iter()) {
                assert_eq!(a.best_score, b.best_score);
                assert_eq!(a.hits, b.hits);
            }
        }
    }

    #[test]
    fn observer_streams_every_candidate_in_trial_order_at_any_jobs() {
        for jobs in [1usize, 4] {
            let mut trials = Vec::new();
            let report =
                run_hunt_observed(&spec(Strategy::Random, Objective::Failure, jobs), |c| {
                    trials.push(c.trial);
                })
                .unwrap();
            assert_eq!(trials.len() as u64, report.evaluated);
            assert!(
                trials.windows(2).all(|w| w[0] < w[1]),
                "observer saw candidates out of trial order at jobs={jobs}: {trials:?}"
            );
        }
    }

    #[test]
    fn wire_hunts_on_the_channel_substrate_match_clean_engine_hunts() {
        // Wire faults are delivery-preserving and the channel runtime is
        // bit-identical to the engine, so the chaotic hunt must find the
        // same champion with the same score — the whole point of hunting
        // with --wire-faults is that any divergence here is a runtime bug.
        let mut clean = spec(Strategy::Anneal, Objective::MaxMessages, 1);
        clean.budget = 16;
        let mut chaotic = clean.clone();
        chaotic.substrate = Substrate::Channel(2);
        chaotic.wire = true;
        let a = run_hunt(&clean).unwrap();
        let b = run_hunt(&chaotic).unwrap();
        assert_eq!(plan_key(&a.champion), plan_key(&b.champion));
        assert_eq!(a.champion.score, b.champion.score);
        assert_eq!(a.hits, b.hits);
        assert!(a.champion.wire.is_none());
        assert!(b.champion.wire.is_some(), "wire hunt lost its wire plan");
    }

    #[test]
    fn max_messages_hunt_reports_costs() {
        let report = run_hunt(&spec(Strategy::Random, Objective::MaxMessages, 0)).unwrap();
        assert!(report.champion.score >= 1.0, "LE always sends messages");
        assert_eq!(
            report.champion.score,
            report.champion.observation.fingerprint.msgs_sent as f64
        );
        assert!(report.bounds.message_bound > 0.0);
    }

    #[test]
    fn probe_panel_is_stable_and_distinct() {
        let a = probe_seeds(9, 4);
        let b = probe_seeds(9, 4);
        assert_eq!(a, b);
        let mut u = a.clone();
        u.sort_unstable();
        u.dedup();
        assert_eq!(u.len(), 4);
        assert_eq!(probe_seeds(9, 0).len(), 1, "panel is never empty");
    }
}
