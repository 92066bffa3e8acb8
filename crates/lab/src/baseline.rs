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

use ftc_sim::json::{Json, JsonError};

use crate::run::CampaignRecord;

/// Repo-root file for the leader-election trajectory.
pub const BENCH_LE: &str = "BENCH_leader_election.json";
/// Repo-root file for the agreement trajectory.
pub const BENCH_AGREE: &str = "BENCH_agreement.json";
/// Repo-root file for the engine hot-path throughput trajectory (the
/// `engine-bench` campaign; gated by `ftc lab perf`).
pub const BENCH_ENGINE: &str = "BENCH_engine.json";

/// The deterministic keys of a trajectory cell, kept so a reader of the
/// trajectory sees what work each entry timed. The perf gate compares the
/// stored record itself, bit for bit.
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

/// Allowed per-cell throughput shortfall below the median ratio.
pub const PERF_BAND: f64 = 0.2;

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

/// Returns the most recent entry of the trajectory at `path`, or of its
/// campaign `name` when given: a trajectory file can interleave campaigns
/// (`engine-bench`, `scale-bench` and `wire-throughput` all append to
/// `BENCH_engine.json`), and the perf gate must time the right one.
pub fn latest_entry(path: &Path, name: Option<&str>) -> io::Result<Json> {
    let named = |e: &Json| {
        name.is_none_or(|name| {
            e.field("name")
                .and_then(Json::as_str)
                .is_ok_and(|n| n == name)
        })
    };
    load_entries(path)?
        .into_iter()
        .rev()
        .find(named)
        .ok_or_else(|| {
            let what = name.map_or(String::new(), |name| format!("`{name}` "));
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} has no {what}entries", path.display()),
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

/// What [`perf_gate`] found: per-cell throughput verdicts.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Per-cell verdicts, in campaign order.
    pub cells: Vec<PerfCellReport>,
    /// Median of the per-cell throughput ratios — the machine-speed
    /// estimate the floor is relative to.
    pub median_ratio: f64,
}

impl PerfReport {
    /// True iff every cell clears the normalised floor.
    pub fn pass(&self) -> bool {
        self.cells.iter().all(|c| c.pass)
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// Times a fresh run of a bench campaign against a committed trajectory
/// entry. The caller has already gated `fresh` bit for bit against the
/// stored record the entry names, so both are the same work; only the
/// clock is left to judge. Wall clocks differ across machines, so
/// absolute throughput is not comparable; instead the per-cell ratios
/// fresh/baseline are normalised by their median — a uniformly slower
/// machine shifts every ratio equally and passes, while a hot-path
/// regression drags specific cells below `median × (1 − PERF_BAND)` and
/// fails.
pub fn perf_gate(entry: &Json, fresh: &CampaignRecord) -> Result<PerfReport, String> {
    let base_cells = entry
        .field("cells")
        .and_then(Json::as_arr)
        .map_err(|e| format!("baseline entry: {e}"))?;
    let mut cells = Vec::with_capacity(fresh.cells.len());
    for (i, fresh_cell) in fresh.cells.iter().enumerate() {
        let label = fresh_cell.cell.label.clone();
        let base_tps = base_cells
            .get(i)
            .ok_or_else(|| format!("baseline entry: no timing for cell {label}"))?
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
    let floor = median_ratio * (1.0 - PERF_BAND);
    for c in &mut cells {
        c.pass = c.ratio >= floor;
    }
    Ok(PerfReport {
        cells,
        median_ratio,
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
        let latest = latest_entry(&path, Some("bench-unit")).unwrap();
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
        let entry = latest_entry(&path, None).unwrap();

        // A uniformly 3x slower machine shifts every ratio equally: pass.
        let mut slow = base.clone();
        for cell in &mut slow.cells {
            cell.wall_s *= 3.0;
        }
        let report = perf_gate(&entry, &slow).unwrap();
        assert!(report.pass(), "uniform slowdown must pass: {report:?}");
        assert!((report.median_ratio - 1.0 / 3.0).abs() < 1e-9);

        // One cell regressing 2x while the rest hold drags only that
        // cell below the normalised floor: fail, and name the cell.
        let mut regressed = base.clone();
        regressed.cells[1].wall_s *= 2.0;
        let report = perf_gate(&entry, &regressed).unwrap();
        assert!(!report.pass());
        assert!(report.cells[0].pass && report.cells[2].pass);
        assert!(!report.cells[1].pass);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn latest_entry_picks_the_named_campaign() -> Result<(), Box<dyn std::error::Error>> {
        let path = std::env::temp_dir().join(format!("ftc-lab-named-{}.json", std::process::id()));
        let _ = fs::remove_file(&path);
        export(&bench_record(), &path)?;
        export(&record(1), &path)?;
        let name = |e: &Json| e.get("name").cloned();
        let named = |n: &str| Some(Json::Str(n.into()));
        assert_eq!(name(&latest_entry(&path, None)?), named("bench-unit"));
        let mut entry = latest_entry(&path, Some("perf-unit"))?;
        assert_eq!(name(&entry), named("perf-unit"));
        let missing = latest_entry(&path, Some("absent")).unwrap_err();
        assert!(
            missing.to_string().contains("no `absent` entries"),
            "{missing}"
        );

        // An entry that times fewer cells than the record is an error.
        if let Json::Obj(fields) = &mut entry {
            if let Some((_, Json::Arr(cells))) = fields.iter_mut().find(|(k, _)| k == "cells") {
                cells.pop();
            }
        }
        let err = perf_gate(&entry, &bench_record()).unwrap_err();
        assert!(err.contains("no timing for cell bcast"), "{err}");
        fs::remove_file(&path)?;
        Ok(())
    }

    #[test]
    fn non_trajectory_files_are_refused() {
        let path = std::env::temp_dir().join(format!("ftc-lab-junk-{}.json", std::process::id()));
        fs::write(&path, "{\"schema\":\"other\"}").unwrap();
        assert!(export(&record(1), &path).is_err());
        let _ = fs::remove_file(&path);
    }
}
