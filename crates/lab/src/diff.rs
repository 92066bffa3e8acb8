//! Cell-by-cell comparison of campaign records, and the perf gate built
//! on it.
//!
//! Two runs of the same spec at the same seed must be byte-identical —
//! that is the strict mode `gate` uses by default. When comparing runs
//! at *different* seeds (e.g. a re-measured baseline), exactness is the
//! wrong bar; [`Tolerance`] instead accepts a cell when
//!
//! - the success counts' 95% Wilson intervals overlap, and
//! - mean and p95 of messages and rounds agree within a fractional
//!   band (absolute slack floor for near-zero values).
//!
//! A spec-hash mismatch is never waved through: comparing different
//! experiments is a category error, so [`diff_records`] refuses.

use ftc_sim::stats::wilson_interval;

use crate::run::{CampaignRecord, CellResult};

/// How much two cells may differ before the diff flags them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tolerance {
    /// Require byte-identical deterministic payloads (same-seed gate
    /// mode). When set the band fields are ignored.
    pub exact: bool,
    /// Fractional band on mean/p95 of messages and rounds (0.15 = 15%).
    pub frac: f64,
    /// Absolute slack added to every band, so near-zero metrics (e.g.
    /// rounds of a trivially failing cell) don't divide by nothing.
    pub abs: f64,
}

impl Tolerance {
    /// Same-seed strict mode: any drift is a regression.
    pub fn exact() -> Self {
        Tolerance {
            exact: true,
            frac: 0.0,
            abs: 0.0,
        }
    }

    /// Cross-seed statistical mode with a fractional band.
    pub fn banded(frac: f64) -> Self {
        Tolerance {
            exact: false,
            frac,
            abs: 1.0,
        }
    }

    fn within(&self, base: f64, fresh: f64) -> bool {
        let band = self.frac * base.abs().max(fresh.abs()) + self.abs;
        (fresh - base).abs() <= band
    }
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance::banded(0.15)
    }
}

/// The comparison of one cell across two records.
#[derive(Clone, Debug, PartialEq)]
pub struct CellDiff {
    /// Cell label (baseline side).
    pub label: String,
    /// Human-readable mismatch descriptions; empty means the cell passed.
    pub mismatches: Vec<String>,
}

impl CellDiff {
    /// Whether this cell agreed within tolerance.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// The outcome of diffing two records.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffReport {
    /// Per-cell verdicts, in spec order.
    pub cells: Vec<CellDiff>,
    /// Record-level mismatches (cell count, check verdicts, exact-mode
    /// payload drift).
    pub record_mismatches: Vec<String>,
}

impl DiffReport {
    /// Whether the records agree within tolerance.
    pub fn ok(&self) -> bool {
        self.record_mismatches.is_empty() && self.cells.iter().all(CellDiff::ok)
    }

    /// All mismatch lines, cell-prefixed, for printing.
    pub fn lines(&self) -> Vec<String> {
        let mut out = self.record_mismatches.clone();
        for cell in &self.cells {
            for m in &cell.mismatches {
                out.push(format!("cell `{}`: {m}", cell.label));
            }
        }
        out
    }
}

fn wilson_overlap(base: &CellResult, fresh: &CellResult) -> bool {
    let (blo, bhi) = wilson_interval(base.successes, base.cell.trials.max(1));
    let (flo, fhi) = wilson_interval(fresh.successes, fresh.cell.trials.max(1));
    blo <= fhi && flo <= bhi
}

fn diff_cell(base: &CellResult, fresh: &CellResult, tol: &Tolerance) -> CellDiff {
    let mut mismatches = Vec::new();
    if base.cell.workload != fresh.cell.workload
        || base.cell.n != fresh.cell.n
        || base.cell.alpha != fresh.cell.alpha
    {
        mismatches.push("cells describe different experiments".to_string());
        return CellDiff {
            label: base.cell.label.clone(),
            mismatches,
        };
    }
    if tol.exact {
        // Compare deterministic payloads — wall-clock diag must never
        // trip the gate.
        if base.to_json(false).render() != fresh.to_json(false).render() {
            let detail = [
                ("successes", base.successes as f64, fresh.successes as f64),
                ("msgs.mean", base.msgs.mean, fresh.msgs.mean),
                ("rounds.mean", base.rounds.mean, fresh.rounds.mean),
            ]
            .iter()
            .find(|(_, b, f)| b != f)
            .map_or("aggregate drift".to_string(), |(k, b, f)| {
                format!("{k} {b} -> {f}")
            });
            mismatches.push(format!("exact mismatch ({detail})"));
        }
        return CellDiff {
            label: base.cell.label.clone(),
            mismatches,
        };
    }
    if !wilson_overlap(base, fresh) {
        mismatches.push(format!(
            "success rate {:.3} -> {:.3} (Wilson 95% intervals disjoint)",
            base.success_rate(),
            fresh.success_rate()
        ));
    }
    let metrics = [
        ("msgs.mean", base.msgs.mean, fresh.msgs.mean),
        ("msgs.p95", base.msgs.p95, fresh.msgs.p95),
        ("rounds.mean", base.rounds.mean, fresh.rounds.mean),
        ("rounds.p95", base.rounds.p95, fresh.rounds.p95),
    ];
    for (name, b, f) in metrics {
        if !tol.within(b, f) {
            mismatches.push(format!(
                "{name} {b:.1} -> {f:.1} (outside {:.0}% band)",
                tol.frac * 100.0
            ));
        }
    }
    CellDiff {
        label: base.cell.label.clone(),
        mismatches,
    }
}

/// Compares two records cell-by-cell. Refuses (Err) when the spec hashes
/// differ — that is two different experiments, not a regression.
pub fn diff_records(
    base: &CampaignRecord,
    fresh: &CampaignRecord,
    tol: &Tolerance,
) -> Result<DiffReport, String> {
    if base.spec_hash != fresh.spec_hash {
        return Err(format!(
            "spec hash mismatch: baseline {} vs fresh {} — these are different experiments",
            base.spec_hash, fresh.spec_hash
        ));
    }
    let mut record_mismatches = Vec::new();
    if base.cells.len() != fresh.cells.len() {
        record_mismatches.push(format!(
            "cell count {} -> {}",
            base.cells.len(),
            fresh.cells.len()
        ));
    }
    if tol.exact && base.deterministic_render() != fresh.deterministic_render() {
        record_mismatches.push("deterministic payloads differ".to_string());
    }
    for (b, f) in base.checks.iter().zip(&fresh.checks) {
        if b.pass && !f.pass {
            record_mismatches.push(format!(
                "exponent check `{}` regressed: {:?} -> {:?} (want [{}, {}])",
                b.check.name, b.exponent, f.exponent, f.check.min, f.check.max
            ));
        }
    }
    let cells = base
        .cells
        .iter()
        .zip(&fresh.cells)
        .map(|(b, f)| diff_cell(b, f, tol))
        .collect();
    Ok(DiffReport {
        cells,
        record_mismatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_campaign;
    use crate::spec::{Adv, CampaignSpec, CellSpec, Workload};
    use crate::Substrate;

    fn record(seed: u64, trials: u64) -> CampaignRecord {
        let spec = CampaignSpec::new("diff-unit").cell(CellSpec::new(
            Workload::Le {
                adv: Adv::Random(8),
            },
            16,
            0.5,
            seed,
            trials,
        ));
        run_campaign(&spec, 1, Substrate::Engine).unwrap()
    }

    #[test]
    fn same_seed_runs_diff_clean_in_exact_mode() {
        let a = record(5, 4);
        let b = record(5, 4);
        let report = diff_records(&a, &b, &Tolerance::exact()).unwrap();
        assert!(report.ok(), "{:?}", report.lines());
    }

    #[test]
    fn different_seed_runs_fail_exact_but_pass_banded() {
        let a = record(5, 12);
        let mut spec = a.spec.clone();
        spec.cells[0].seed = 6;
        // Same hash requirement: seeds are part of the spec, so fake the
        // cross-seed case by comparing against a re-measured copy with a
        // hand-aligned hash (what `diff --tolerance` does for trend
        // comparisons of the same experiment re-seeded).
        let mut b = run_campaign(&spec, 1, Substrate::Engine).unwrap();
        b.spec_hash = a.spec_hash.clone();
        let exact = diff_records(&a, &b, &Tolerance::exact()).unwrap();
        assert!(!exact.ok());
        let banded = diff_records(&a, &b, &Tolerance::banded(0.5)).unwrap();
        assert!(banded.ok(), "{:?}", banded.lines());
    }

    #[test]
    fn perturbed_baseline_is_flagged_in_both_modes() {
        let a = record(5, 8);
        let mut b = record(5, 8);
        b.cells[0].msgs.mean *= 2.0;
        b.cells[0].msgs.p95 *= 2.0;
        let exact = diff_records(&a, &b, &Tolerance::exact()).unwrap();
        assert!(!exact.ok());
        let banded = diff_records(&a, &b, &Tolerance::banded(0.15)).unwrap();
        assert!(!banded.ok());
        assert!(banded.lines().iter().any(|l| l.contains("msgs.mean")));
    }

    #[test]
    fn success_rate_collapse_is_flagged() {
        let a = record(5, 40);
        let mut b = record(5, 40);
        b.cells[0].successes = 0;
        let report = diff_records(&a, &b, &Tolerance::banded(10.0)).unwrap();
        assert!(
            !report.ok(),
            "wide metric band must not mask a success collapse"
        );
    }

    #[test]
    fn spec_hash_mismatch_is_refused() {
        let a = record(5, 2);
        let mut b = record(5, 2);
        b.spec_hash = "0000000000000000".into();
        assert!(diff_records(&a, &b, &Tolerance::exact()).is_err());
    }
}
