//! Deterministic parallel multi-trial execution.
//!
//! The paper's guarantees are probabilistic ("with high probability", "with
//! probability ≥ α"), so every experiment is a Monte-Carlo estimate over
//! many independent `(SimConfig, seed)` executions. [`ParRunner`] fans those
//! trials out over a crossbeam scoped worker pool while keeping the results
//! **bit-identical to sequential execution at any thread count**:
//!
//! * each trial's randomness derives solely from its own
//!   `stream_seed(base_seed, trial_index + 1)` — trials share no mutable
//!   state, so scheduling cannot perturb them;
//! * outcomes are reordered by trial index before they are returned.
//!
//! ## One thread budget
//!
//! [`TrialPlan::jobs`] is the batch's whole thread budget. [`ParRunner`]
//! runs `min(budget, trials)` trials at once, and
//! [`TrialPlan::threads_per_trial`] is what each of them may spend
//! sharding itself ([`crate::engine::run_sharded`]), so a batch of fewer
//! trials than threads still uses every thread. Neither number changes a
//! result bit.
//!
//! ## Timeouts and aborts
//!
//! [`TrialPlan::timeout`] stamps trials whose wall-clock time exceeded the
//! budget ([`TrialOutcome::timed_out`]) — diagnostic only, never part of
//! the deterministic payload. [`AbortHandle`] cancels the not-yet-started
//! remainder of a batch from another thread (e.g. a signal handler).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::perm::stream_seed;

/// Result of one trial, tagged with its index and derived seed.
#[derive(Clone, Debug)]
pub struct TrialOutcome<T> {
    /// Trial index in `0..trials`.
    pub trial: u64,
    /// The seed the trial ran with.
    pub seed: u64,
    /// Whatever the job extracted from the run.
    pub value: T,
    /// Wall-clock duration of the trial (diagnostic; varies run to run).
    pub duration: Duration,
    /// Whether the trial exceeded [`TrialPlan::timeout`] (diagnostic).
    pub timed_out: bool,
}

/// A declarative description of a Monte-Carlo batch.
#[derive(Clone, Debug)]
pub struct TrialPlan {
    /// Base seed; trial `i` runs with `stream_seed(base_seed, i + 1)`.
    pub base_seed: u64,
    /// Number of trials.
    pub trials: u64,
    /// Worker threads; `0` means one per available core.
    pub jobs: usize,
    /// Optional per-trial wall-clock budget; exceeding it flags the
    /// outcome, it does not kill the trial (trials are pure functions and
    /// cannot be safely interrupted mid-round).
    pub timeout: Option<Duration>,
}

impl TrialPlan {
    /// A plan of `trials` trials from `base_seed`, all cores, no timeout.
    pub fn new(base_seed: u64, trials: u64) -> Self {
        TrialPlan {
            base_seed,
            trials,
            jobs: 0,
            timeout: None,
        }
    }

    /// Sets the worker count (`0` = one per core).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the per-trial wall-clock budget.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// The seed trial `i` runs with.
    ///
    /// `+ 1` keeps trial seeds disjoint from the salted engine streams of
    /// `base_seed` itself, so a trial never replays the base config's own
    /// execution.
    pub fn seed_of(&self, i: u64) -> u64 {
        stream_seed(self.base_seed, i.wrapping_add(1))
    }

    /// The run's thread budget: [`TrialPlan::jobs`], or every core at 0.
    fn budget(&self) -> usize {
        match self.jobs {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            j => j,
        }
    }

    /// Trials [`ParRunner`] runs at once: one thread each, never more
    /// than there are trials.
    fn effective_jobs(&self) -> usize {
        self.budget().min(self.trials.max(1) as usize)
    }

    /// Threads each running trial may shard itself over: the budget split
    /// evenly across the trials, `max(1, budget / trials)`. A batch of
    /// fewer trials than threads spends the rest inside each trial; a
    /// larger one runs every trial serially.
    pub fn threads_per_trial(&self) -> usize {
        (self.budget() / self.trials.max(1) as usize).max(1)
    }
}

/// Cooperative cancellation for a running batch. Cloneable and sharable;
/// aborting skips every trial that has not yet started.
#[derive(Clone, Debug, Default)]
pub struct AbortHandle {
    flag: Arc<AtomicBool>,
}

impl AbortHandle {
    /// A fresh, un-aborted handle.
    pub fn new() -> Self {
        AbortHandle::default()
    }

    /// Requests cancellation of the remaining trials.
    pub fn abort(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_aborted(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Everything a batch produced, plus execution diagnostics.
#[derive(Clone, Debug)]
pub struct TrialBatch<T> {
    /// Outcomes sorted by trial index (fewer than planned after an abort).
    pub outcomes: Vec<TrialOutcome<T>>,
    /// Trials flagged as over the per-trial timeout.
    pub timed_out: u64,
    /// Whether the batch was cut short by an [`AbortHandle`].
    pub aborted: bool,
    /// Wall-clock time for the whole batch.
    pub elapsed: Duration,
}

impl<T> TrialBatch<T> {
    /// Number of kept trials.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the batch kept no trials.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Iterates over the kept per-trial values in trial order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.outcomes.iter().map(|o| &o.value)
    }
}

/// The parallel Monte-Carlo trial runner.
///
/// ```
/// use ftc_sim::runner::{ParRunner, TrialPlan};
///
/// // 64 trials over all cores; value = trial seed parity.
/// let batch = ParRunner::new(TrialPlan::new(7, 64)).run(|_trial, seed| seed % 2);
/// assert_eq!(batch.len(), 64);
/// // Identical to a single-threaded run, bit for bit:
/// let seq = ParRunner::new(TrialPlan::new(7, 64).jobs(1)).run(|_trial, seed| seed % 2);
/// assert_eq!(
///     batch.outcomes.iter().map(|o| o.value).collect::<Vec<_>>(),
///     seq.outcomes.iter().map(|o| o.value).collect::<Vec<_>>(),
/// );
/// ```
#[derive(Clone, Debug)]
pub struct ParRunner {
    plan: TrialPlan,
    abort: AbortHandle,
}

impl ParRunner {
    /// A runner executing `plan`.
    pub fn new(plan: TrialPlan) -> Self {
        ParRunner {
            plan,
            abort: AbortHandle::new(),
        }
    }

    /// The plan this runner executes.
    pub fn plan(&self) -> &TrialPlan {
        &self.plan
    }

    /// A handle that cancels the batch's remaining trials when aborted.
    pub fn abort_handle(&self) -> AbortHandle {
        self.abort.clone()
    }

    /// Runs the whole plan, returning outcomes sorted by trial index.
    /// `job(trial, seed)` must be a pure function of its arguments for the
    /// determinism guarantee to hold.
    pub fn run<T, F>(&self, job: F) -> TrialBatch<T>
    where
        T: Send,
        F: Fn(u64, u64) -> T + Sync,
    {
        let plan = &self.plan;
        let started = Instant::now();
        let next = AtomicU64::new(0);
        // Each worker keeps what it ran; the merge below restores trial
        // order, so scheduling never shows in the result.
        let worker = || {
            let mut done = Vec::new();
            while !self.abort.is_aborted() {
                let trial = next.fetch_add(1, Ordering::Relaxed);
                if trial >= plan.trials {
                    break;
                }
                let seed = plan.seed_of(trial);
                let t0 = Instant::now();
                let value = job(trial, seed);
                let duration = t0.elapsed();
                done.push(TrialOutcome {
                    trial,
                    seed,
                    value,
                    duration,
                    timed_out: plan.timeout.is_some_and(|lim| duration > lim),
                });
            }
            done
        };
        let mut outcomes: Vec<TrialOutcome<T>> = crossbeam::scope(|scope| {
            let workers: Vec<_> = (0..plan.effective_jobs())
                .map(|_| scope.spawn(|_| worker()))
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("trial worker panicked"))
                .collect()
        })
        .expect("trial worker panicked");
        outcomes.sort_by_key(|o| o.trial);
        TrialBatch {
            timed_out: outcomes.iter().filter(|o| o.timed_out).count() as u64,
            outcomes,
            aborted: self.abort.is_aborted(),
            elapsed: started.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_all<T: Send>(
        trials: u64,
        base_seed: u64,
        job: impl Fn(u64, u64) -> T + Sync,
    ) -> Vec<TrialOutcome<T>> {
        ParRunner::new(TrialPlan::new(base_seed, trials))
            .run(job)
            .outcomes
    }

    #[test]
    fn trials_are_ordered_and_seeded_distinctly() {
        let out = run_all(32, 7, |trial, seed| (trial, seed));
        assert_eq!(out.len(), 32);
        for (i, t) in out.iter().enumerate() {
            assert_eq!(t.trial, i as u64);
            assert_eq!(t.value.0, i as u64);
        }
        let mut seeds: Vec<u64> = out.iter().map(|t| t.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 32, "per-trial seeds must be distinct");
    }

    #[test]
    fn reproducible_across_invocations() {
        let a = run_all(8, 42, |_, seed| seed);
        let b = run_all(8, 42, |_, seed| seed);
        assert_eq!(
            a.iter().map(|t| t.value).collect::<Vec<_>>(),
            b.iter().map(|t| t.value).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_trials_is_empty() {
        assert!(run_all(0, 1, |_, _| ()).is_empty());
    }

    #[test]
    fn threads_per_trial_splits_the_budget() {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        // (jobs, trials, threads per trial); jobs 0 is every core.
        let table = [
            (0, 1, cores),
            (0, 2, (cores / 2).max(1)),
            (0, 3, (cores / 3).max(1)),
            (0, 128, (cores / 128).max(1)),
            (1, 1, 1),
            (1, 2, 1),
            (1, 3, 1),
            (1, 128, 1),
            (2, 1, 2),
            (2, 2, 1),
            (2, 3, 1),
            (2, 128, 1),
            (8, 1, 8),
            (8, 2, 4),
            (8, 3, 2),
            (8, 128, 1),
        ];
        for (jobs, trials, want) in table {
            let plan = TrialPlan::new(0, trials).jobs(jobs);
            assert_eq!(
                plan.threads_per_trial(),
                want,
                "jobs {jobs}, trials {trials}"
            );
        }
    }

    #[test]
    fn identical_results_at_any_thread_count() {
        let value = |trial: u64, seed: u64| (trial, seed, seed.wrapping_mul(trial | 1));
        let mut reference: Option<Vec<(u64, u64, u64)>> = None;
        for jobs in [1usize, 2, 3, 8] {
            let batch = ParRunner::new(TrialPlan::new(99, 40).jobs(jobs)).run(value);
            let got: Vec<_> = batch.outcomes.iter().map(|o| o.value).collect();
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(want, &got, "divergence at jobs={jobs}"),
            }
        }
    }

    #[test]
    fn timeout_flags_slow_trials_without_dropping_them() {
        let plan = TrialPlan::new(3, 4).timeout(Duration::from_nanos(1));
        let batch = ParRunner::new(plan).run(|_, seed| {
            std::thread::sleep(Duration::from_millis(2));
            seed
        });
        assert_eq!(batch.len(), 4, "timed-out trials are kept, only flagged");
        assert_eq!(batch.timed_out, 4);
        assert!(batch.outcomes.iter().all(|o| o.timed_out));
    }

    #[test]
    fn abort_skips_remaining_trials() {
        let runner = ParRunner::new(TrialPlan::new(3, 1000).jobs(2));
        let handle = runner.abort_handle();
        let batch = runner.run(move |trial, seed| {
            if trial == 0 {
                handle.abort();
            }
            seed
        });
        assert!(batch.aborted);
        assert!(
            batch.len() < 1000,
            "abort must cut the batch short, executed {}",
            batch.len()
        );
    }
}
