//! ddmin-style reduction of a found counterexample schedule.
//!
//! Every probe of a reduced schedule replays the exact counterexample seed
//! on the deterministic engine, so the preservation predicate is exact —
//! no flakiness, no statistical re-testing. Reduction proceeds in three
//! passes, each of which can only make the schedule simpler:
//!
//! 1. **Entry ddmin** — delete crash entries in shrinking chunks (the
//!    classic Zeller/Hildebrandt delta-debugging loop over the entry list)
//!    until the schedule is 1-minimal: no single entry can be dropped.
//! 2. **Filter simplification** — replace each surviving entry's delivery
//!    filter with a strictly simpler one ([`DeliveryFilter::DropAll`],
//!    then [`DeliveryFilter::DeliverAll`]).
//! 3. **Round minimisation** — binary-search each surviving crash round
//!    down toward 0 (earlier crashes are simpler stories).

use ftc_sim::adversary::DeliveryFilter;
use ftc_sim::prelude::FaultPlan;

use crate::objective::Bounds;
use crate::proto::{observe, Observation, Substrate};
use crate::search::HuntSpec;

/// What the shrinker did, for reporting.
#[derive(Clone, Debug)]
pub struct ShrinkReport {
    /// The reduced schedule.
    pub plan: FaultPlan,
    /// The reduced schedule's observation at the counterexample seed.
    pub observation: Observation,
    /// Crash entries before reduction.
    pub entries_before: usize,
    /// Crash entries after reduction.
    pub entries_after: usize,
    /// Probes (engine runs) the reduction spent.
    pub probes: u64,
}

struct Ctx<'a> {
    spec: &'a HuntSpec,
    bounds: &'a Bounds,
    seed: u64,
    score: f64,
    probes: u64,
}

impl Ctx<'_> {
    /// Re-runs the counterexample probe under `plan`; `Some(obs)` iff the
    /// reduced plan still exhibits the property being preserved.
    fn keeps(&mut self, plan: &FaultPlan) -> Option<Observation> {
        self.probes += 1;
        let mut cfg = self.spec.cfg.clone();
        cfg.seed = self.seed;
        let obs = observe(
            self.spec.proto,
            &self.spec.params,
            &cfg,
            self.spec.zeros,
            plan,
            Substrate::Engine,
        )
        .ok()?;
        self.spec
            .objective
            .preserved(self.score, &obs, self.bounds)
            .then_some(obs)
    }
}

/// One ddmin pass over the entry list: returns a 1-minimal sub-plan that
/// still satisfies [`Ctx::keeps`].
fn ddmin_entries(ctx: &mut Ctx<'_>, plan: &FaultPlan) -> FaultPlan {
    let mut current: Vec<usize> = (0..plan.entries().len()).collect();
    let rebuild = |keep: &[usize]| {
        FaultPlan::from_entries(keep.iter().map(|&i| plan.entries()[i].clone()).collect())
    };
    let mut chunks = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(chunks);
        let mut reduced = false;
        let mut start = 0usize;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            // Try the complement: everything except current[start..end].
            let complement: Vec<usize> = current[..start]
                .iter()
                .chain(&current[end..])
                .copied()
                .collect();
            if !complement.is_empty() && ctx.keeps(&rebuild(&complement)).is_some() {
                current = complement;
                chunks = chunks.saturating_sub(1).max(2);
                reduced = true;
                // Restart the sweep over the reduced list.
                start = 0;
            } else {
                start = end;
            }
        }
        if !reduced {
            if chunk <= 1 {
                break;
            }
            chunks = (chunks * 2).min(current.len());
        }
    }
    rebuild(&current)
}

/// Replaces each entry's filter with a simpler one where the property
/// survives it. Simplicity order: `DropAll` (clean stop) beats everything
/// except `DeliverAll` (the crash round does not matter at all).
fn simplify_filters(ctx: &mut Ctx<'_>, mut plan: FaultPlan) -> FaultPlan {
    for idx in 0..plan.entries().len() {
        let (node, round, filter) = plan.entries()[idx].clone();
        for simpler in [DeliveryFilter::DeliverAll, DeliveryFilter::DropAll] {
            if filter == simpler {
                break;
            }
            let candidate = plan.with_entry(idx, (node, round, simpler.clone()));
            if ctx.keeps(&candidate).is_some() {
                plan = candidate;
                break;
            }
        }
    }
    plan
}

/// Binary-searches each crash round down toward 0.
fn minimise_rounds(ctx: &mut Ctx<'_>, mut plan: FaultPlan) -> FaultPlan {
    for idx in 0..plan.entries().len() {
        let (node, round, filter) = plan.entries()[idx].clone();
        let mut lo = 0u32; // lowest untested-or-keeping round
        let mut hi = round; // known-keeping round
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let candidate = plan.with_entry(idx, (node, mid, filter.clone()));
            if ctx.keeps(&candidate).is_some() {
                plan = candidate;
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
    }
    plan
}

/// Shrinks `plan`, preserving the objective's verdict at `probe_seed`
/// with original score `score`. Deterministic in its arguments.
pub(crate) fn shrink(
    spec: &HuntSpec,
    bounds: &Bounds,
    probe_seed: u64,
    score: f64,
    plan: &FaultPlan,
) -> ShrinkReport {
    let mut ctx = Ctx {
        spec,
        bounds,
        seed: probe_seed,
        score,
        probes: 0,
    };
    let entries_before = plan.entries().len();
    if ctx.keeps(plan).is_none() {
        // The plan does not exhibit the property at this seed — e.g. the
        // hunt's budget ran out without a hit and the champion is merely
        // the worst sample. Nothing to preserve, so nothing to shrink.
        let mut cfg = spec.cfg.clone();
        cfg.seed = probe_seed;
        let observation = observe(
            spec.proto,
            &spec.params,
            &cfg,
            spec.zeros,
            plan,
            Substrate::Engine,
        )
        .expect("engine observation");
        return ShrinkReport {
            entries_before,
            entries_after: entries_before,
            plan: plan.clone(),
            observation,
            probes: ctx.probes,
        };
    }
    let reduced = ddmin_entries(&mut ctx, plan);
    let reduced = simplify_filters(&mut ctx, reduced);
    let reduced = minimise_rounds(&mut ctx, reduced);
    let observation = ctx
        .keeps(&reduced)
        .expect("shrinker invariant: the reduced plan keeps the property");
    ShrinkReport {
        entries_before,
        entries_after: reduced.entries().len(),
        plan: reduced,
        observation,
        probes: ctx.probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objective;
    use crate::proto::ProtoKind;
    use crate::search::{probe_seeds, Strategy};
    use ftc_core::prelude::Params;
    use ftc_sim::engine::SimConfig;
    use ftc_sim::ids::NodeId;

    fn spec(objective: Objective, proto: ProtoKind) -> HuntSpec {
        let params = Params::new(16, 0.5).unwrap();
        let budget = proto.round_budget(&params);
        HuntSpec {
            proto,
            objective,
            params: params.clone(),
            cfg: SimConfig::new(16).max_rounds(budget),
            zeros: 0.05,
            budget: 1,
            probes: 1,
            seed: 7,
            jobs: 1,
            strategy: Strategy::Random,
            substrate: Substrate::Engine,
            wire: false,
        }
    }

    /// A deliberately bloated plan whose only load-bearing content is
    /// "everything crashes immediately": ddmin should strip it hard.
    fn bloated_plan() -> FaultPlan {
        let mut plan = FaultPlan::new();
        for node in 0..8u32 {
            plan = plan.crash(
                NodeId(node),
                node % 3,
                if node % 2 == 0 {
                    DeliveryFilter::DropAll
                } else {
                    DeliveryFilter::KeepFirst(1)
                },
            );
        }
        plan
    }

    #[test]
    fn shrink_preserves_cost_verdict_and_reduces() {
        let spec = spec(Objective::MaxMessages, ProtoKind::Le);
        let bounds = Bounds::for_proto(spec.proto, &spec.params);
        let seed = probe_seeds(spec.seed, 1)[0];
        let plan = bloated_plan();
        // Baseline score of the bloated plan at the probe seed.
        let mut cfg = spec.cfg.clone();
        cfg.seed = seed;
        let obs = observe(
            spec.proto,
            &spec.params,
            &cfg,
            0.05,
            &plan,
            Substrate::Engine,
        )
        .unwrap();
        let score = spec.objective.score(&obs);

        let report = shrink(&spec, &bounds, seed, score, &plan);
        assert!(report.entries_after <= report.entries_before);
        assert!(
            spec.objective.score(&report.observation) >= score,
            "shrinking lost the cost"
        );
        assert!(report.probes > 0);
        // Determinism: shrinking again yields the identical plan.
        let again = shrink(&spec, &bounds, seed, score, &plan);
        assert_eq!(report.plan.entries(), again.plan.entries());
        assert_eq!(report.probes, again.probes);
    }

    #[test]
    fn shrinking_a_non_hit_is_a_harmless_no_op() {
        // A single benign crash at n=16 almost certainly does not break
        // LE; shrinking under the Failure objective must not panic and
        // must leave the plan untouched.
        let spec = spec(Objective::Failure, ProtoKind::Le);
        let bounds = Bounds::for_proto(spec.proto, &spec.params);
        let seed = probe_seeds(spec.seed, 1)[0];
        let plan = FaultPlan::new().crash(NodeId(0), 3, DeliveryFilter::DeliverAll);
        let mut cfg = spec.cfg.clone();
        cfg.seed = seed;
        let obs = observe(
            spec.proto,
            &spec.params,
            &cfg,
            0.05,
            &plan,
            Substrate::Engine,
        )
        .unwrap();
        if spec.objective.hit(&obs, &bounds) {
            return; // freak failure run: the other tests cover the hit path
        }
        let report = shrink(&spec, &bounds, seed, 0.0, &plan);
        assert_eq!(report.plan.entries(), plan.entries());
        assert_eq!(report.entries_before, report.entries_after);
    }

    #[test]
    fn shrink_keeps_failure_hits() {
        // Hunt cheaply for a failing LE run, then shrink it.
        let spec = spec(Objective::Failure, ProtoKind::Le);
        let bounds = Bounds::for_proto(spec.proto, &spec.params);
        let panel = probe_seeds(spec.seed, 3);
        let mut found = None;
        'outer: for salt in 0..200u64 {
            use rand::SeedableRng;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(salt);
            let space = crate::mutate::PlanSpace::new(16, spec.params.max_faults().max(1), 6);
            let plan = crate::mutate::random_plan(&mut rng, &space);
            for &seed in &panel {
                let mut cfg = spec.cfg.clone();
                cfg.seed = seed;
                let obs = observe(
                    spec.proto,
                    &spec.params,
                    &cfg,
                    0.05,
                    &plan,
                    Substrate::Engine,
                )
                .unwrap();
                if spec.objective.hit(&obs, &bounds) {
                    found = Some((plan, seed));
                    break 'outer;
                }
            }
        }
        let Some((plan, seed)) = found else {
            // The protocol resisting 200 random schedules is itself fine;
            // the cost-objective test above still exercises the shrinker.
            return;
        };
        let report = shrink(&spec, &bounds, seed, 1.0, &plan);
        assert!(!report.observation.fingerprint.success);
        assert!(report.entries_after >= 1);
    }
}
