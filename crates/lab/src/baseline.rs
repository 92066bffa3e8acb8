//! Benchmark trajectory export: `BENCH_leader_election.json` and
//! `BENCH_agreement.json` at the repo root.
//!
//! Each file is an append-only trajectory of campaign runs: one entry
//! per (record id, git rev) pair, carrying the per-cell success rate,
//! message/round summaries, wall clock and throughput, plus provenance
//! (git rev, seed). Re-exporting from the same checkout is a no-op; a new
//! spec, a new payload or new code appends — the record id covers only
//! the deterministic payload, so a faster run of an unchanged campaign
//! keeps its id and is told apart by the rev it was timed at — and the
//! file accumulates the perf history of the protocols across the repo's
//! life.

use std::fs;
use std::io;
use std::path::Path;

use ftc_sim::json::{self, Json, JsonError};

use crate::run::CampaignRecord;

/// Repo-root file for the leader-election trajectory.
pub const BENCH_LE: &str = "BENCH_leader_election.json";
/// Repo-root file for the agreement trajectory.
pub const BENCH_AGREE: &str = "BENCH_agreement.json";
/// Repo-root file for the engine hot-path throughput trajectory (the
/// `engine-bench` campaign; gated by `ftc lab perf`).
pub const BENCH_ENGINE: &str = "BENCH_engine.json";

/// The deterministic keys of a trajectory cell: what the perf gate
/// compares.
const PAYLOAD_KEYS: [&str; 8] = [
    "label",
    "n",
    "alpha",
    "seed",
    "trials",
    "success_rate",
    "msgs",
    "rounds",
];

/// The timing keys of a trajectory cell.
const TIMING_KEYS: [&str; 2] = ["wall_s", "trials_per_s"];

/// A trajectory cell: the payload and timing keys of the cell's diag
/// render, so a trajectory and a record cannot spell a cell differently.
fn cell_entry(cell: &crate::run::CellResult) -> Json {
    let mut entry = cell.to_json(true);
    if let Json::Obj(fields) = &mut entry {
        fields.retain(|(k, _)| {
            PAYLOAD_KEYS.contains(&k.as_str()) || TIMING_KEYS.contains(&k.as_str())
        });
    }
    entry
}

fn record_entry(record: &CampaignRecord) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::Str(record.id())),
        ("name".into(), Json::Str(record.spec.name.clone())),
        ("spec_hash".into(), Json::Str(record.spec_hash.clone())),
        ("git_rev".into(), Json::Str(record.git_rev.clone())),
        ("substrate".into(), Json::Str(record.substrate.clone())),
        ("wall_s".into(), Json::Num(record.wall_s)),
        (
            "cells".into(),
            Json::Arr(record.cells.iter().map(cell_entry).collect()),
        ),
        (
            "checks".into(),
            Json::Arr(
                record
                    .checks
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(c.check.name.clone())),
                            ("exponent".into(), c.exponent.map_or(Json::Null, Json::Num)),
                            ("pass".into(), Json::Bool(c.pass)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn load_entries(path: &Path) -> io::Result<Vec<Json>> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text = fs::read_to_string(path)?;
    let json = Json::parse(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let schema_err = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
    match json.field("schema").map(Json::as_str) {
        Ok(Ok("ftc-lab-bench/v1")) => {}
        _ => {
            return Err(schema_err(format!(
                "{} is not a bench trajectory",
                path.display()
            )))
        }
    }
    json.field("entries")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .map_err(|e: JsonError| schema_err(e.to_string()))
}

/// Returns the most recent entry of the trajectory at `path`.
pub fn latest_entry(path: &Path) -> io::Result<Json> {
    load_entries(path)?.pop().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} has no entries", path.display()),
        )
    })
}

/// Returns the most recent entry for the campaign called `name`. A
/// trajectory file can interleave entries from several campaigns (e.g.
/// `engine-bench` and `scale-bench` both append to `BENCH_engine.json`),
/// and the perf gate must compare against the right one.
pub fn latest_entry_named(path: &Path, name: &str) -> io::Result<Json> {
    load_entries(path)?
        .into_iter()
        .rev()
        .find(|e| {
            e.field("name")
                .and_then(Json::as_str)
                .is_ok_and(|n| n == name)
        })
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} has no `{name}` entries", path.display()),
            )
        })
}

/// One cell's verdict from [`perf_gate`].
#[derive(Clone, Debug)]
pub struct PerfCellReport {
    /// Cell label (e.g. `bcast`).
    pub label: String,
    /// Network size.
    pub n: u64,
    /// Baseline throughput, trials/s.
    pub base_tps: f64,
    /// Fresh throughput, trials/s.
    pub fresh_tps: f64,
    /// `fresh_tps / base_tps`, before normalisation.
    pub ratio: f64,
    /// Whether this cell clears the normalised floor.
    pub pass: bool,
}

/// What [`perf_gate`] found: per-cell throughput verdicts plus any
/// deterministic-payload drift between the baseline and the fresh run.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Per-cell verdicts, in campaign order.
    pub cells: Vec<PerfCellReport>,
    /// Median of the per-cell throughput ratios — the machine-speed
    /// estimate the floor is relative to.
    pub median_ratio: f64,
    /// Allowed per-cell shortfall below the median ratio.
    pub tolerance: f64,
    /// Deterministic fields (success rate, message/round summaries) that
    /// differ from the baseline. Non-empty means the comparison is about
    /// different work, so the gate fails regardless of throughput.
    pub mismatches: Vec<String>,
}

impl PerfReport {
    /// True iff every cell passes and the deterministic payloads agree.
    pub fn pass(&self) -> bool {
        self.mismatches.is_empty() && self.cells.iter().all(|c| c.pass)
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// Trajectory cells cut to their payload keys, under `cells` so the
/// differ names each cell by its label.
fn payload(cells: impl Iterator<Item = Json>) -> Json {
    let cells = cells.map(|mut cell| {
        if let Json::Obj(fields) = &mut cell {
            fields.retain(|(k, _)| PAYLOAD_KEYS.contains(&k.as_str()));
        }
        cell
    });
    Json::Obj(vec![("cells".into(), Json::Arr(cells.collect()))])
}

/// Gates a fresh run of a bench campaign against a committed trajectory
/// entry. Wall clocks differ across machines, so absolute throughput is
/// not comparable; instead the per-cell ratios fresh/baseline are
/// normalised by their median — a uniformly slower machine shifts every
/// ratio equally and passes, while a hot-path regression drags specific
/// cells below `median × (1 − tolerance)` and fails. Deterministic
/// payload fields (success rate, message and round summaries) must match
/// exactly: a drifted payload means the bench is no longer measuring the
/// same work.
pub fn perf_gate(
    entry: &Json,
    fresh: &CampaignRecord,
    tolerance: f64,
) -> Result<PerfReport, String> {
    let base_hash = entry
        .field("spec_hash")
        .and_then(Json::as_str)
        .map_err(|e| format!("baseline entry: {e}"))?;
    if base_hash != fresh.spec_hash {
        return Err(format!(
            "spec hash mismatch: baseline {base_hash}, fresh {} — the campaign changed; regenerate the baseline",
            fresh.spec_hash
        ));
    }
    let base_cells = entry
        .field("cells")
        .and_then(Json::as_arr)
        .map_err(|e| format!("baseline entry: {e}"))?;
    if base_cells.len() != fresh.cells.len() {
        return Err(format!(
            "cell count mismatch: baseline {}, fresh {}",
            base_cells.len(),
            fresh.cells.len()
        ));
    }
    // By value: an entry from when whole floats were spelled `1` holds
    // the fresh record's `1.0`.
    let mismatches = json::diff(
        &payload(base_cells.iter().cloned()),
        &payload(fresh.cells.iter().map(cell_entry)),
    );
    let mut cells = Vec::with_capacity(fresh.cells.len());
    for (base, fresh_cell) in base_cells.iter().zip(&fresh.cells) {
        let label = base
            .field("label")
            .and_then(Json::as_str)
            .map_err(|e| format!("baseline entry: {e}"))?
            .to_string();
        let base_tps = base
            .field("trials_per_s")
            .and_then(Json::as_f64)
            .map_err(|e| format!("baseline entry: {e}"))?;
        if base_tps <= 0.0 {
            return Err(format!(
                "cell {label}: baseline throughput {base_tps} is not positive"
            ));
        }
        let fresh_tps = fresh_cell.throughput();
        cells.push(PerfCellReport {
            label,
            n: u64::from(fresh_cell.cell.n),
            base_tps,
            fresh_tps,
            ratio: fresh_tps / base_tps,
            pass: true,
        });
    }
    let median_ratio = median(cells.iter().map(|c| c.ratio).collect());
    let floor = median_ratio * (1.0 - tolerance);
    for c in &mut cells {
        c.pass = c.ratio >= floor;
    }
    Ok(PerfReport {
        cells,
        median_ratio,
        tolerance,
        mismatches,
    })
}

/// Appends `record` to the trajectory at `path` (creating it if absent).
/// Idempotent per (record id, git rev): the same payload timed again at
/// the same rev keeps one entry, while the same payload timed at another
/// rev is a new point of the trajectory — the before/after pair of a
/// change that moves speed and nothing else. Returns the number of
/// entries now in the file.
pub fn export(record: &CampaignRecord, path: &Path) -> io::Result<usize> {
    let mut entries = load_entries(path)?;
    let (id, rev) = (Json::Str(record.id()), Json::Str(record.git_rev.clone()));
    let repeat = |e: &Json| e.get("id") == Some(&id) && e.get("git_rev") == Some(&rev);
    if !entries.iter().any(repeat) {
        entries.push(record_entry(record));
    }
    let count = entries.len();
    // The header names every campaign the file holds, not the last to
    // export: one name for a single-campaign file, as it always was.
    let mut names: Vec<&str> = entries
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str().ok()))
        .collect();
    names.sort_unstable();
    names.dedup();
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str("ftc-lab-bench/v1".into())),
        ("protocol".into(), Json::Str(names.join(", "))),
        ("entries".into(), Json::Arr(entries)),
    ]);
    let mut text = doc.render();
    text.push('\n');
    fs::write(path, text)?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_campaign;
    use crate::spec::{Adv, CampaignSpec, CellSpec, Workload};
    use crate::Substrate;

    fn record(seed: u64) -> CampaignRecord {
        let spec = CampaignSpec::new("bench-unit").cell(CellSpec::new(
            Workload::Le {
                adv: Adv::Random(5),
            },
            16,
            0.5,
            seed,
            2,
        ));
        run_campaign(&spec, 1, Substrate::Engine).unwrap()
    }

    #[test]
    fn export_appends_and_dedupes() {
        let path = std::env::temp_dir().join(format!("ftc-lab-bench-{}.json", std::process::id()));
        let _ = fs::remove_file(&path);
        assert_eq!(export(&record(1), &path).unwrap(), 1);
        assert_eq!(export(&record(1), &path).unwrap(), 1, "same id dedupes");
        assert_eq!(export(&record(2), &path).unwrap(), 2, "new id appends");
        // The same payload timed at another rev is a new measurement.
        let mut faster = record(1);
        faster.git_rev = "a-later-rev".into();
        faster.wall_s = 0.25;
        assert_eq!(
            export(&faster, &path).unwrap(),
            3,
            "same id, new rev appends"
        );
        assert_eq!(
            export(&faster, &path).unwrap(),
            3,
            "same id and rev dedupes"
        );
        let latest = latest_entry_named(&path, "bench-unit").unwrap();
        assert_eq!(
            latest.field("id").unwrap().as_str().unwrap(),
            record(1).id()
        );
        assert_eq!(
            latest.field("git_rev").unwrap().as_str().unwrap(),
            "a-later-rev"
        );
        assert_eq!(latest.field("wall_s").unwrap().as_f64().unwrap(), 0.25);
        let text = fs::read_to_string(&path).unwrap();
        // A single-campaign file's header is the campaign's name.
        assert!(
            text.starts_with(
                r#"{"schema":"ftc-lab-bench/v1","protocol":"bench-unit","entries":[{"#
            ),
            "{}",
            &text[..80]
        );
        let json = Json::parse(&text).unwrap();
        let entries = json.field("entries").unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), 3);
        let cell = &entries[0].field("cells").unwrap().as_arr().unwrap()[0];
        assert!(cell.get("success_rate").is_some());
        assert!(cell.field("msgs").unwrap().get("median").is_some());

        // A second campaign joins the header in sorted order, whichever
        // campaign exported last.
        let mut other = record(1);
        other.spec.name = "another-unit".into();
        assert_eq!(export(&other, &path).unwrap(), 4);
        assert_eq!(export(&record(2), &path).unwrap(), 4);
        let json = Json::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            json.field("protocol").unwrap().as_str().unwrap(),
            "another-unit, bench-unit"
        );
        let _ = fs::remove_file(&path);
    }

    fn bench_record() -> CampaignRecord {
        let mut spec = CampaignSpec::new("perf-unit");
        for (i, n) in [8u32, 16, 32].into_iter().enumerate() {
            spec = spec.cell(
                CellSpec::new(
                    Workload::EngineBench {
                        adv: Adv::None,
                        p: 0.0,
                        rounds: 3,
                    },
                    n,
                    0.5,
                    0xBE ^ i as u64,
                    2,
                )
                .label("bcast"),
            );
        }
        let mut record = run_campaign(&spec, 1, Substrate::Engine).unwrap();
        // Pin wall clocks so the test reasons about ratios, not noise.
        for (i, cell) in record.cells.iter_mut().enumerate() {
            cell.wall_s = (i + 1) as f64;
        }
        record
    }

    #[test]
    fn perf_gate_normalises_by_median_ratio() {
        let path = std::env::temp_dir().join(format!("ftc-lab-perf-{}.json", std::process::id()));
        let _ = fs::remove_file(&path);
        let base = bench_record();
        export(&base, &path).unwrap();
        let entry = latest_entry(&path).unwrap();

        // An entry from when whole floats were spelled `1` is the same
        // payload as a fresh `1.0`, not drift.
        let respelled =
            Json::parse(&entry.render().replace(".0,", ",").replace(".0}", "}")).unwrap();
        assert_ne!(respelled, entry);
        let report = perf_gate(&respelled, &base, 0.2).unwrap();
        assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);

        // A uniformly 3x slower machine shifts every ratio equally: pass.
        let mut slow = base.clone();
        for cell in &mut slow.cells {
            cell.wall_s *= 3.0;
        }
        let report = perf_gate(&entry, &slow, 0.2).unwrap();
        assert!(report.pass(), "uniform slowdown must pass: {report:?}");
        assert!((report.median_ratio - 1.0 / 3.0).abs() < 1e-9);

        // One cell regressing 2x while the rest hold drags only that
        // cell below the normalised floor: fail, and name the cell.
        let mut regressed = base.clone();
        regressed.cells[1].wall_s *= 2.0;
        let report = perf_gate(&entry, &regressed, 0.2).unwrap();
        assert!(!report.pass());
        assert!(report.cells[0].pass && report.cells[2].pass);
        assert!(!report.cells[1].pass);
        assert!(report.mismatches.is_empty());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn perf_gate_rejects_drift() {
        let path = std::env::temp_dir().join(format!("ftc-lab-drift-{}.json", std::process::id()));
        let _ = fs::remove_file(&path);
        let base = bench_record();
        export(&base, &path).unwrap();
        let entry = latest_entry(&path).unwrap();

        // A different campaign is an error, not a throughput verdict.
        let other = record(1);
        assert!(perf_gate(&entry, &other, 0.2)
            .unwrap_err()
            .contains("spec hash mismatch"));

        // Same spec but drifted deterministic payload fails the gate
        // even at full throughput.
        let mut drifted = base.clone();
        drifted.cells[0].successes = 0;
        let report = perf_gate(&entry, &drifted, 0.2).unwrap();
        assert!(!report.pass());
        assert!(report.mismatches.iter().any(|m| m.contains("success_rate")));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn non_trajectory_files_are_refused() {
        let path = std::env::temp_dir().join(format!("ftc-lab-junk-{}.json", std::process::id()));
        fs::write(&path, "{\"schema\":\"other\"}").unwrap();
        assert!(export(&record(1), &path).is_err());
        let _ = fs::remove_file(&path);
    }
}
