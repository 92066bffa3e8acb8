//! Protocol parameters and the quantities derived from them.
//!
//! Every constant of the paper's algorithms is surfaced here so the bench
//! harness can ablate them (DESIGN.md §6):
//!
//! * candidate self-selection probability `6·ln n / (α·n)` (Lemma 1),
//! * referee sample size `2·√(n·ln n / α)` (Lemma 3),
//! * iteration budget `Θ(log n / α)` (Theorem 4.1 / 5.1).
//!
//! `α` is the guaranteed fraction of non-faulty nodes; the paper allows
//! `α ∈ [log² n / n, 1]`, i.e. up to `n - log² n` crash faults.

use std::fmt;

/// Errors from invalid parameter combinations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ParamsError {
    /// `n < 2` — not a network.
    NetworkTooSmall,
    /// `α` outside `(0, 1]`.
    AlphaOutOfRange {
        /// The offending value.
        alpha: f64,
    },
    /// `α < log² n / n`: more faults than the algorithms tolerate.
    AlphaBelowResilience {
        /// The offending value.
        alpha: f64,
        /// The smallest admissible `α` for this `n`.
        min_alpha: f64,
    },
    /// Leader election on `n < 3` nodes ([`Params::check_le`]).
    LeNetworkTooSmall,
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::NetworkTooSmall => write!(f, "network must have at least two nodes"),
            ParamsError::AlphaOutOfRange { alpha } => {
                write!(f, "alpha {alpha} outside (0, 1]")
            }
            ParamsError::AlphaBelowResilience { alpha, min_alpha } => write!(
                f,
                "alpha {alpha} below the tolerated minimum log^2(n)/n = {min_alpha}"
            ),
            ParamsError::LeNetworkTooSmall => write!(
                f,
                "leader election needs n >= 3: on two nodes the candidates share no \
                 referee (Lemma 3) and both are elected"
            ),
        }
    }
}

impl std::error::Error for ParamsError {}

/// Parameters of the fault-tolerant leader-election and agreement
/// protocols.
///
/// Construct with [`Params::new`] (paper defaults) and adjust individual
/// constants with the `with_*` methods for ablation studies.
///
/// ```
/// use ftc_core::params::Params;
///
/// let p = Params::new(1024, 0.5)?;
/// assert!(p.candidate_probability() < 0.1);
/// assert!(p.referee_count() > 100);
/// # Ok::<(), ftc_core::params::ParamsError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Params {
    n: u32,
    alpha: f64,
    candidate_factor: f64,
    referee_factor: f64,
    iteration_factor: f64,
}

impl Params {
    /// Paper-default parameters for an `n`-node network with at least
    /// `α·n` non-faulty nodes.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `n < 2`, `α ∉ (0, 1]`, or
    /// `α < log²n/n` (the paper's resilience limit — enforced whenever
    /// the floor is below 1; see [`Params::min_alpha`] for the tiny-`n`
    /// exception).
    pub fn new(n: u32, alpha: f64) -> Result<Self, ParamsError> {
        if n < 2 {
            return Err(ParamsError::NetworkTooSmall);
        }
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(ParamsError::AlphaOutOfRange { alpha });
        }
        let min_alpha = Self::min_alpha(n);
        if alpha < min_alpha {
            return Err(ParamsError::AlphaBelowResilience { alpha, min_alpha });
        }
        Ok(Params {
            n,
            alpha,
            candidate_factor: 6.0,
            referee_factor: 2.0,
            iteration_factor: 14.0,
        })
    }

    /// The enforced minimum `α` for a given `n`: the paper's resilience
    /// floor `log₂²n / n`, or `0` when that floor exceeds 1.
    ///
    /// For `4 ≤ n ≤ 16` the floor is at least 1, i.e. the paper's
    /// admissible range `[log²n/n, 1]` is empty or the single point 1 —
    /// the asymptotic regime simply has not kicked in yet. Rather than
    /// reject every `α`, such networks accept the full `(0, 1]` range and
    /// run best-effort: the whp guarantees are vacuous and a run may fail.
    /// At `n = 2` and `3` the floor is below 1 again (`1/2` and `≈ 0.84`)
    /// and enforced; leader election needs `n ≥ 3` besides
    /// ([`Params::check_le`]).
    pub fn min_alpha(n: u32) -> f64 {
        let log2n = (f64::from(n)).log2();
        let floor = log2n * log2n / f64::from(n);
        if floor >= 1.0 {
            0.0
        } else {
            floor
        }
    }

    /// Overrides the candidate-probability constant (paper: 6, Lemma 1).
    pub fn with_candidate_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "candidate factor must be positive");
        self.candidate_factor = factor;
        self
    }

    /// Overrides the referee-sample constant (paper: 2, Lemma 3).
    pub fn with_referee_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "referee factor must be positive");
        self.referee_factor = factor;
        self
    }

    /// Overrides the iteration-budget constant.
    pub fn with_iteration_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "iteration factor must be positive");
        self.iteration_factor = factor;
        self
    }

    /// Network size `n`.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Guaranteed non-faulty fraction `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Maximum number of crash faults these parameters tolerate:
    /// `⌊(1 − α)·n⌋`.
    pub fn max_faults(&self) -> usize {
        ((1.0 - self.alpha) * f64::from(self.n)).floor() as usize
    }

    /// `ln n` (natural log), the `log n` of all derived formulas.
    pub fn ln_n(&self) -> f64 {
        f64::from(self.n).ln()
    }

    /// Probability with which a node makes itself a candidate:
    /// `min(1, c·ln n / (α·n))` (Lemma 1, `c = 6` by default).
    pub fn candidate_probability(&self) -> f64 {
        (self.candidate_factor * self.ln_n() / (self.alpha * f64::from(self.n))).min(1.0)
    }

    /// Expected number of candidates, `n · candidate_probability`.
    pub fn expected_candidates(&self) -> f64 {
        self.candidate_probability() * f64::from(self.n)
    }

    /// Number of referees each candidate samples:
    /// `min(n−1, ⌈c·√(n·ln n / α)⌉)` (Lemma 3, `c = 2` by default).
    pub fn referee_count(&self) -> usize {
        let raw = self.referee_factor * (f64::from(self.n) * self.ln_n() / self.alpha).sqrt();
        (raw.ceil() as usize).min(self.n as usize - 1)
    }

    /// Iteration budget `⌈c·ln n / α⌉` (Theorems 4.1/5.1). The default
    /// constant 14 covers the whp upper bound `12·ln n/α` on the candidate
    /// count (Lemma 1): one crash can stall at most one iteration.
    pub fn iterations(&self) -> u32 {
        (self.iteration_factor * self.ln_n() / self.alpha).ceil() as u32
    }

    /// Rounds reserved for the pre-processing phase in which referees
    /// forward the ranks they collected to their candidates (one rank per
    /// edge per round, CONGEST). Sized at three times the expected
    /// referee in-degree plus a `log n` tail margin.
    pub fn preprocess_rounds(&self) -> u32 {
        let indegree =
            self.expected_candidates() * self.referee_count() as f64 / f64::from(self.n - 1);
        (3.0 * indegree + 2.0 * self.ln_n() + 4.0).ceil() as u32
    }

    /// Total round budget for implicit leader election:
    /// pre-processing + 4 rounds per iteration + drain slack.
    pub fn le_round_budget(&self) -> u32 {
        self.preprocess_rounds() + 4 * self.iterations() + 8
    }

    /// Rejects leader election on fewer than 3 nodes. On two nodes both
    /// are candidates and each one's only referee is the other, so the
    /// pair shares no referee (Lemma 3) and each sees its own rank echoed
    /// as the maximum: every run elects two leaders.
    ///
    /// # Errors
    ///
    /// [`ParamsError::LeNetworkTooSmall`] when `n < 3`.
    pub fn check_le(&self) -> Result<(), ParamsError> {
        match self.n {
            0..=2 => Err(ParamsError::LeNetworkTooSmall),
            _ => Ok(()),
        }
    }

    /// Total round budget for implicit agreement:
    /// registration + 2 rounds per iteration + drain slack.
    pub fn agreement_round_budget(&self) -> u32 {
        1 + 2 * self.iterations() + 8
    }

    /// The paper's predicted message bound for implicit leader election,
    /// `√n · ln^{5/2} n / α^{5/2}` (Theorem 4.1, constant-free).
    pub fn le_message_bound(&self) -> f64 {
        f64::from(self.n).sqrt() * self.ln_n().powf(2.5) / self.alpha.powf(2.5)
    }

    /// The paper's predicted message bound for implicit agreement,
    /// `√n · ln^{3/2} n / α^{3/2}` (Theorem 5.1, constant-free).
    pub fn agreement_message_bound(&self) -> f64 {
        f64::from(self.n).sqrt() * self.ln_n().powf(1.5) / self.alpha.powf(1.5)
    }

    /// The lower-bound threshold `√n / α^{3/2}` (Theorems 4.2 / 5.2).
    pub fn lower_bound_threshold(&self) -> f64 {
        f64::from(self.n).sqrt() / self.alpha.powf(1.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_formulas() {
        let p = Params::new(4096, 0.5).unwrap();
        let ln_n = 4096f64.ln();
        assert!((p.candidate_probability() - 6.0 * ln_n / (0.5 * 4096.0)).abs() < 1e-12);
        assert_eq!(
            p.referee_count(),
            (2.0 * (4096.0 * ln_n / 0.5).sqrt()).ceil() as usize
        );
        assert_eq!(p.iterations(), (14.0 * ln_n / 0.5).ceil() as u32);
    }

    #[test]
    fn caps_apply_for_tiny_networks() {
        let p = Params::new(8, 1.0).unwrap();
        assert!(p.candidate_probability() <= 1.0);
        assert!(p.referee_count() <= 7);
    }

    #[test]
    fn leader_election_needs_three_nodes() {
        let le = |n| Params::new(n, 1.0).and_then(|p| p.check_le());
        assert_eq!(le(2), Err(ParamsError::LeNetworkTooSmall));
        assert_eq!(le(3), Ok(()));
        let err = ParamsError::LeNetworkTooSmall.to_string();
        assert!(err.contains("n >= 3") && err.contains("Lemma 3"), "{err}");
    }

    #[test]
    fn tiny_networks_escape_the_resilience_floor() {
        // log₂²n/n ≥ 1 for 4 ≤ n ≤ 16: the paper's admissible α-range is
        // empty, so any α ∈ (0, 1] is accepted (best-effort regime).
        assert_eq!(Params::min_alpha(8), 0.0);
        assert_eq!(Params::min_alpha(16), 0.0);
        assert!(Params::new(8, 0.5).is_ok());
        assert!(Params::new(16, 0.25).is_ok());
        // From n = 32 on the floor is real again.
        assert!(Params::min_alpha(32) > 0.75);
        assert!(matches!(
            Params::new(32, 0.5),
            Err(ParamsError::AlphaBelowResilience { .. })
        ));
    }

    #[test]
    fn alpha_resilience_limit_enforced() {
        // n = 1024: log2^2(n)/n = 100/1024 ≈ 0.0977.
        let err = Params::new(1024, 0.05).unwrap_err();
        match err {
            ParamsError::AlphaBelowResilience { min_alpha, .. } => {
                assert!((min_alpha - 100.0 / 1024.0).abs() < 1e-12);
            }
            other => panic!("wrong error {other:?}"),
        }
        assert!(Params::new(1024, 0.1).is_ok());
    }

    #[test]
    fn invalid_alpha_and_n_rejected() {
        assert_eq!(
            Params::new(1, 0.5).unwrap_err(),
            ParamsError::NetworkTooSmall
        );
        assert!(matches!(
            Params::new(16, 0.0),
            Err(ParamsError::AlphaOutOfRange { .. })
        ));
        assert!(matches!(
            Params::new(16, 1.5),
            Err(ParamsError::AlphaOutOfRange { .. })
        ));
        assert!(matches!(
            Params::new(16, f64::NAN),
            Err(ParamsError::AlphaOutOfRange { .. })
        ));
    }

    #[test]
    fn max_faults_counts_complement() {
        let p = Params::new(4096, 0.25).unwrap();
        assert_eq!(p.max_faults(), 3072);
        let p1 = Params::new(100, 1.0).unwrap();
        assert_eq!(p1.max_faults(), 0);
    }

    #[test]
    fn ablation_setters_change_derived_quantities() {
        let p = Params::new(1024, 0.5).unwrap();
        let thin = p.clone().with_referee_factor(0.5);
        assert!(thin.referee_count() < p.referee_count());
        let dense = p.clone().with_candidate_factor(12.0);
        assert!(dense.expected_candidates() > p.expected_candidates());
        let quick = p.clone().with_iteration_factor(1.0);
        assert!(quick.iterations() < p.iterations());
    }

    #[test]
    fn message_bounds_are_asymptotically_sublinear() {
        // The bounds carry polylog factors, so check the *ratio* to n
        // shrinks as n grows (true sublinearity is asymptotic).
        let ratios: Vec<f64> = [1u32 << 12, 1 << 16, 1 << 20, 1 << 26]
            .iter()
            .map(|&n| {
                let p = Params::new(n, 0.5).unwrap();
                assert!(p.lower_bound_threshold() < p.agreement_message_bound());
                assert!(p.agreement_message_bound() < p.le_message_bound());
                p.agreement_message_bound() / f64::from(n)
            })
            .collect();
        assert!(ratios.windows(2).all(|w| w[1] < w[0]), "{ratios:?}");
        // At n = 2^26 the agreement bound is decisively sublinear.
        let p = Params::new(1 << 26, 0.5).unwrap();
        assert!(p.agreement_message_bound() < f64::from(1u32 << 26) / 10.0);
    }

    #[test]
    fn round_budgets_are_positive_and_ordered() {
        let p = Params::new(256, 0.5).unwrap();
        assert!(p.preprocess_rounds() > 0);
        assert!(p.le_round_budget() > p.preprocess_rounds());
        assert!(p.agreement_round_budget() > p.iterations());
    }
}
