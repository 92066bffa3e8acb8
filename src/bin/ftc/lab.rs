//! `lab`: declarative experiment campaigns and the results store
//! (`ftc-lab`).

use ftc::lab::campaigns;
use ftc::prelude::*;
use ftc::sim::json::{Json, JsonError};

use crate::flags::Opts;

/// The substrate the `lab` verbs run on: `--substrate`, upgraded to the
/// sharded engine when `--intra-jobs J` asks for intra-trial parallelism.
fn lab_substrate(o: &Opts) -> Result<Substrate, String> {
    let substrate = o.substrate.unwrap_or(Substrate::Engine);
    if o.intra_jobs <= 1 {
        return Ok(substrate);
    }
    match substrate {
        Substrate::Engine => Ok(Substrate::EngineSharded(o.intra_jobs)),
        other => Err(format!(
            "--intra-jobs shards the engine substrate only (got {})",
            other.label()
        )),
    }
}

/// Resolves a registry-name-or-spec-file argument: `named` knows the
/// registry (`names` lists it for the error), `from_json` decodes a file.
pub fn resolve_spec<S>(
    arg: &str,
    what: &str,
    named: Option<S>,
    names: &[&str],
    from_json: impl FnOnce(&Json) -> Result<S, JsonError>,
) -> Result<S, String> {
    if let Some(spec) = named {
        return Ok(spec);
    }
    if std::path::Path::new(arg).exists() {
        let text = std::fs::read_to_string(arg).map_err(|e| format!("{arg}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("{arg}: {e}"))?;
        return from_json(&json).map_err(|e| format!("{arg}: {e}"));
    }
    Err(format!(
        "`{arg}` is neither a known {what} ({}) nor a spec file",
        names.join("|")
    ))
}

/// A record argument: a file path if one exists there, else the id (or
/// unique id prefix) of a `kind` record in the store.
pub fn load_record<R, E: std::fmt::Display>(
    store: &Store,
    kind: &str,
    arg: &str,
    parse: impl FnOnce(&str) -> Result<R, E>,
) -> Result<R, String> {
    let noun = match kind {
        "hunt" => "portfolio record",
        _ => "record",
    };
    let mut path = std::path::PathBuf::from(arg);
    if !path.exists() {
        let matches: Vec<String> = store
            .list()
            .map_err(|e| e.to_string())?
            .into_iter()
            .filter(|e| e.kind == kind && e.id.starts_with(arg))
            .map(|e| e.id)
            .collect();
        path = match matches.as_slice() {
            [id] => store.dir().join(format!("{id}.json")),
            [] => {
                return Err(format!(
                    "no {noun} matching `{arg}` in {}",
                    store.dir().display()
                ))
            }
            many => {
                return Err(format!(
                    "`{arg}` is ambiguous ({} {noun}s match)",
                    many.len()
                ))
            }
        };
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_lab_record(store: &Store, arg: &str) -> Result<CampaignRecord, String> {
    load_record(store, "lab", arg, |text| {
        CampaignRecord::from_json(&Json::parse(text)?)
    })
}

/// Prints `record`: as JSON, as its campaign's figure when the campaign
/// table has a renderer for the record's name, else as the cell table.
fn print_record(record: &CampaignRecord, format: Format) -> Result<(), String> {
    if format == Format::Json {
        println!("{}", record.to_json(true).render());
        return Ok(());
    }
    if let Some(figure) = campaigns::render(record) {
        print!("{}", figure?);
        return Ok(());
    }
    println!(
        "campaign {} (spec {}, substrate {}, git {})",
        record.spec.name, record.spec_hash, record.substrate, record.git_rev
    );
    println!(
        "  {:<16} {:>6} {:>6} {:>8} {:>12} {:>12} {:>12} {:>7} {:>8}",
        "cell", "n", "alpha", "success", "msgs.mean", "msgs.median", "msgs.p95", "rounds", "wall_s"
    );
    for c in &record.cells {
        println!(
            "  {:<16} {:>6} {:>6} {:>7.0}% {:>12.0} {:>12.0} {:>12.0} {:>7.1} {:>8.2}",
            c.cell.label,
            c.cell.n,
            c.cell.alpha,
            c.success_rate() * 100.0,
            c.msgs.mean,
            c.msgs.median,
            c.msgs.p95,
            c.rounds.mean,
            c.wall_s
        );
    }
    for c in &record.checks {
        println!(
            "  check {}: exponent {} in [{}, {}] -> {}",
            c.check.name,
            c.exponent
                .map_or("unfittable".into(), |e| format!("{e:.3}")),
            c.check.min,
            c.check.max,
            if c.pass { "pass" } else { "FAIL" }
        );
    }
    Ok(())
}

/// `ftc lab <run|list|show|diff|gate|baseline|perf>`.
pub fn cmd_lab(o: &Opts) -> Result<(), String> {
    let verb = o
        .positional
        .first()
        .ok_or("lab needs a verb: ftc lab <run|list|show|diff|gate|baseline|perf>")?;
    let store = Store::at(&o.store);
    let arg = |k: usize, what: &str| {
        o.positional
            .get(k)
            .cloned()
            .ok_or_else(|| format!("lab {verb} needs {what}"))
    };
    match verb.as_str() {
        "run" => {
            let arg = arg(1, "a campaign name or spec file")?;
            let named = campaigns::named(&arg, o.smoke);
            let names = campaigns::names();
            let spec = resolve_spec(&arg, "campaign", named, &names, CampaignSpec::from_json)?;
            let substrate = lab_substrate(o)?;
            let record = run_campaign(&spec, o.jobs, substrate)?;
            let id = store.put(&record).map_err(|e| e.to_string())?;
            print_record(&record, o.format)?;
            if o.format != Format::Json {
                println!("  stored as {id} in {}", store.dir().display());
            }
            if record.checks.iter().any(|c| !c.pass) {
                return Err("one or more exponent checks failed".into());
            }
            Ok(())
        }
        "list" => {
            let entries: Vec<_> = store
                .list()
                .map_err(|e| e.to_string())?
                .into_iter()
                .filter(|e| o.kind.as_deref().is_none_or(|k| e.kind == k))
                .collect();
            let mut w = o.format.is_machine().then(|| {
                RowWriter::new(
                    o.format,
                    &["id", "kind", "spec_hash", "cells", "git_rev", "wall_s"],
                )
            });
            for e in &entries {
                if let Some(w) = w.as_mut() {
                    w.emit(&[
                        Value::Str(e.id.clone()),
                        Value::Str(e.kind.clone()),
                        Value::Str(e.spec_hash.clone()),
                        Value::UInt(e.cells as u64),
                        Value::Str(e.git_rev.clone()),
                        Value::Float(e.wall_s),
                    ]);
                } else {
                    println!(
                        "{}  [{}]  spec {}  {} cells  git {}  {:.2}s",
                        e.id, e.kind, e.spec_hash, e.cells, e.git_rev, e.wall_s
                    );
                }
            }
            if entries.is_empty() && !o.format.is_machine() {
                println!("no records in {}", store.dir().display());
            }
            Ok(())
        }
        "show" => {
            let record = store
                .resolve(&arg(1, "a record id (or unique prefix)")?)
                .map_err(|e| e.to_string())?;
            print_record(&record, o.format)
        }
        "diff" => {
            let base = load_lab_record(&store, &arg(1, "a baseline record")?)?;
            let fresh = load_lab_record(&store, &arg(2, "a fresh record")?)?;
            let tol = o.tolerance.map_or_else(Tolerance::exact, Tolerance::banded);
            report_diff(&base, &fresh, &tol)
        }
        "gate" => {
            let base = load_lab_record(&store, &arg(1, "a baseline record or file")?)?;
            let substrate = lab_substrate(o)?;
            let fresh = run_campaign(&base.spec, o.jobs, substrate)?;
            let tol = o.tolerance.map_or_else(Tolerance::exact, Tolerance::banded);
            report_diff(&base, &fresh, &tol)
        }
        "baseline" => {
            let dir = std::path::Path::new(o.out.as_deref().unwrap_or("."));
            std::fs::create_dir_all(dir).map_err(|e| format!("--out {}: {e}", dir.display()))?;
            let only = o.positional.get(1);
            let tracked: Vec<_> = campaigns::CAMPAIGNS
                .iter()
                .filter_map(|c| Some((c, c.trajectory?)))
                .collect();
            if let Some(name) = only {
                if !tracked.iter().any(|(c, _)| c.name == name) {
                    let names: Vec<&str> = tracked.iter().map(|(c, _)| c.name).collect();
                    return Err(format!(
                        "lab baseline: unknown campaign {name} ({})",
                        names.join("|")
                    ));
                }
            }
            // Trajectories are throughput history per substrate:
            // wire-throughput records the mesh, everything else the
            // engine — the cluster substrates would otherwise record
            // wall clocks of a different machine shape entirely.
            let substrate = match lab_substrate(o)? {
                s @ (Substrate::Engine | Substrate::EngineSharded(_)) => s,
                s @ Substrate::Mesh(_) if only.is_some_and(|n| n == "wire-throughput") => s,
                other => {
                    return Err(format!(
                        "lab baseline records engine trajectories (or mesh, for \
                         wire-throughput only); got {}",
                        other.label()
                    ))
                }
            };
            for (campaign, file) in tracked {
                let name = campaign.name;
                if only.is_some_and(|n| n != name) {
                    continue;
                }
                // The wire-throughput baseline always measures the mesh;
                // two procs by default — the multiplexing is what is
                // measured, not parallelism.
                let substrate = match (name, substrate) {
                    ("wire-throughput", s @ Substrate::Mesh(_)) => s,
                    ("wire-throughput", _) => Substrate::Mesh(2),
                    (_, s) => s,
                };
                let spec = (campaign.spec)(o.smoke);
                let record = run_campaign(&spec, o.jobs, substrate)?;
                let id = store.put(&record).map_err(|e| e.to_string())?;
                let path = dir.join(file);
                let entries =
                    ftc::lab::baseline::export(&record, &path).map_err(|e| e.to_string())?;
                print_record(&record, o.format)?;
                if o.format != Format::Json {
                    println!(
                        "  stored as {id}; {} now holds {entries} entr{}",
                        path.display(),
                        if entries == 1 { "y" } else { "ies" }
                    );
                }
                if record.checks.iter().any(|c| !c.pass) {
                    return Err(format!("exponent check failed in {name}"));
                }
            }
            Ok(())
        }
        "perf" => {
            let path =
                std::path::PathBuf::from(arg(1, "a trajectory file (e.g. BENCH_engine.json)")?);
            let entry = match &o.campaign {
                Some(name) => ftc::lab::baseline::latest_entry_named(&path, name),
                None => ftc::lab::baseline::latest_entry(&path),
            }
            .map_err(|e| format!("{}: {e}", path.display()))?;
            let name = entry
                .field("name")
                .and_then(Json::as_str)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .to_string();
            let base_hash = entry
                .field("spec_hash")
                .and_then(Json::as_str)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .to_string();
            // The committed trajectory may be at either scale; pick the
            // registry variant whose spec hash matches the entry.
            let spec = [false, true]
                .into_iter()
                .filter_map(|smoke| campaigns::named(&name, smoke))
                .find(|s| s.hash() == base_hash)
                .ok_or_else(|| {
                    format!(
                        "baseline campaign {name} (spec {base_hash}) is not in the registry at \
                         either scale — regenerate the trajectory with ftc lab baseline"
                    )
                })?;
            let substrate = match lab_substrate(o)? {
                s @ (Substrate::Engine | Substrate::EngineSharded(_) | Substrate::Mesh(_)) => s,
                other => {
                    return Err(format!(
                        "lab perf gates the engine and mesh substrates only (got {})",
                        other.label()
                    ))
                }
            };
            let fresh = run_campaign(&spec, o.jobs, substrate)?;
            store.put(&fresh).map_err(|e| e.to_string())?;
            let tolerance = o.tolerance.unwrap_or(0.2);
            let mut report = ftc::lab::baseline::perf_gate(&entry, &fresh, tolerance)?;
            if !report.pass() && report.mismatches.is_empty() {
                // Throughput shortfall with matching payloads can be a
                // scheduling hiccup rather than a regression: re-run once
                // and gate on each cell's best of the two runs. A real
                // hot-path regression fails both.
                eprintln!("throughput below floor; re-running once to rule out transient noise");
                let retry = run_campaign(&spec, o.jobs, substrate)?;
                let mut best = fresh.clone();
                for (b, r) in best.cells.iter_mut().zip(&retry.cells) {
                    if r.throughput() > b.throughput() {
                        b.wall_s = r.wall_s;
                    }
                }
                report = ftc::lab::baseline::perf_gate(&entry, &best, tolerance)?;
            }
            for c in &report.cells {
                println!(
                    "{} {:>6}  base {:>8.2}/s  fresh {:>8.2}/s  ratio {:.3}{}",
                    c.label,
                    c.n,
                    c.base_tps,
                    c.fresh_tps,
                    c.ratio,
                    if c.pass { "" } else { "  REGRESSED" }
                );
            }
            println!(
                "median ratio {:.3} (machine-speed estimate); floor {:.3}",
                report.median_ratio,
                report.median_ratio * (1.0 - tolerance)
            );
            for m in &report.mismatches {
                eprintln!("drift: {m}");
            }
            if report.pass() {
                println!(
                    "ok: {} cells within {:.0}% of the median ratio",
                    report.cells.len(),
                    tolerance * 100.0
                );
                Ok(())
            } else {
                Err(format!(
                    "perf gate failed: {} regressed cell(s), {} deterministic mismatch(es)",
                    report.cells.iter().filter(|c| !c.pass).count(),
                    report.mismatches.len()
                ))
            }
        }
        other => Err(format!(
            "unknown lab verb {other} (run|list|show|diff|gate|baseline|perf)"
        )),
    }
}

fn report_diff(
    base: &CampaignRecord,
    fresh: &CampaignRecord,
    tol: &Tolerance,
) -> Result<(), String> {
    let report = diff_records(base, fresh, tol)?;
    if report.ok() {
        println!(
            "ok: {} cells agree{}",
            report.cells.len(),
            if tol.exact {
                " bit-for-bit"
            } else {
                " within tolerance"
            }
        );
        Ok(())
    } else {
        for line in report.lines() {
            eprintln!("drift: {line}");
        }
        Err(format!(
            "{} mismatch(es) against baseline {}",
            report.lines().len(),
            base.id()
        ))
    }
}
