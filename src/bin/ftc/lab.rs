//! `lab`: declarative experiment campaigns, portfolio hunts, and the
//! results store that holds both (`ftc-lab`, `ftc-hunt`).

use ftc::hunt::portfolio;
use ftc::lab::{baseline, campaigns};
use ftc::prelude::*;
use ftc::sim::json::Json;

use crate::flags::{substrate_spelled, Opts};

/// A fresh run of a stored lab record's own spec on the record's own
/// substrate `label`, or on `--substrate` when it names the same one (a
/// mesh width, which labels leave out). A `--substrate` with another label
/// is an error before anything runs.
fn rerun(o: &Opts, base: &CampaignRecord) -> Result<CampaignRecord, String> {
    let label = base.substrate.as_str();
    let substrate = match o.substrate {
        None => Substrate::parse(label)?,
        Some(s) if s.label() == label => s,
        Some(s) => {
            return Err(format!(
                "--substrate {} cannot re-run a record of substrate {label}",
                substrate_spelled(s)
            ))
        }
    };
    run_campaign(&base.spec, o.jobs, substrate)
}

/// What `lab run` executes: a measurement campaign or a portfolio hunt.
enum Spec {
    Lab(CampaignSpec),
    Hunt(HuntCampaignSpec),
}

/// Resolves a `lab run` argument: a lab campaign name, then a portfolio
/// name, then a spec file of either kind.
fn resolve_spec(arg: &str, smoke: bool) -> Result<Spec, String> {
    if let Some(spec) = campaigns::named(arg, smoke) {
        return Ok(Spec::Lab(spec));
    }
    if let Some(spec) = portfolio::named(arg, smoke) {
        return Ok(Spec::Hunt(spec));
    }
    if std::path::Path::new(arg).exists() {
        let text = std::fs::read_to_string(arg).map_err(|e| format!("{arg}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("{arg}: {e}"))?;
        return CampaignSpec::from_json(&json)
            .map(Spec::Lab)
            .or_else(|lab| match HuntCampaignSpec::from_json(&json) {
                Ok(spec) => Ok(Spec::Hunt(spec)),
                Err(hunt) => Err(format!("{arg}: {lab} (as a portfolio: {hunt})")),
            });
    }
    let mut names = campaigns::names();
    names.extend(portfolio::names());
    Err(format!(
        "`{arg}` is neither a known campaign ({}) nor a spec file",
        names.join("|")
    ))
}

/// `lab run` of a measurement campaign.
fn run_lab(o: &Opts, store: &Store, spec: &CampaignSpec) -> Result<(), String> {
    if o.min_coverage.is_some() || o.expect_hit || o.expect_empty {
        return Err("--min-coverage, --expect-hit and --expect-empty judge portfolio hunts".into());
    }
    let record = run_campaign(spec, o.jobs, o.substrate.unwrap_or(Substrate::Engine))?;
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

/// `lab run` of a portfolio hunt: its cells name their own substrates.
fn run_portfolio(o: &Opts, store: &Store, spec: &HuntCampaignSpec) -> Result<(), String> {
    if o.substrate.is_some() {
        return Err("a portfolio cell names its own substrate (drop --substrate)".into());
    }
    let record = run_hunt_campaign(spec, o.jobs)?;
    let id = store.put(&record).map_err(|e| e.to_string())?;
    print_hunt_record(&record, o.format);
    if o.format != Format::Json {
        println!("  stored as {id} in {}", store.dir().display());
    }
    if let Some(floor) = o.min_coverage {
        if record.coverage.fraction() < floor {
            return Err(format!(
                "--min-coverage: explored {:.3} of schedule space, floor is {floor}",
                record.coverage.fraction()
            ));
        }
    }
    if o.expect_hit && record.hits() == 0 {
        return Err("--expect-hit: no cell found a counterexample".into());
    }
    if o.expect_empty && record.hits() > 0 {
        let hits: Vec<&str> = record
            .cells
            .iter()
            .filter(|c| c.hits > 0)
            .map(|c| c.cell.label.as_str())
            .collect();
        return Err(format!(
            "--expect-empty: {} cell(s) found counterexamples: {}",
            hits.len(),
            hits.join(", ")
        ));
    }
    Ok(())
}

fn print_hunt_record(record: &HuntCampaignRecord, format: Format) {
    if format == Format::Json {
        println!("{}", record.to_json(true).render());
        return;
    }
    println!(
        "portfolio {} (spec {}, git {})",
        record.spec.name, record.spec_hash, record.git_rev
    );
    println!(
        "  {:<28} {:>9} {:>6} {:>12} {:>5} {:>7} {:>8}",
        "cell", "evaluated", "hits", "score", "hit", "shrunk", "wall_s"
    );
    for c in &record.cells {
        println!(
            "  {:<28} {:>9} {:>6} {:>12.1} {:>5} {:>3}->{:<3} {:>8.2}",
            c.cell.label,
            c.evaluated,
            c.hits,
            c.artifact.score,
            if c.artifact.hit { "HIT" } else { "-" },
            c.entries_before,
            c.entries_after,
            c.wall_s
        );
    }
    println!(
        "  coverage: {}/{} schedule-space buckets ({:.1}%), {} crash entries explored",
        record.coverage.covered(),
        portfolio::BUCKETS,
        record.coverage.fraction() * 100.0,
        record.coverage.entries()
    );
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
    let resolve = |needle: &str| store.resolve(needle).map_err(|e| e.to_string());
    let arg = |k: usize, what: &str| {
        o.positional
            .get(k)
            .cloned()
            .ok_or_else(|| format!("lab {verb} needs {what}"))
    };
    match verb.as_str() {
        "run" => match resolve_spec(&arg(1, "a campaign name or spec file")?, o.smoke)? {
            Spec::Lab(spec) => run_lab(o, &store, &spec),
            Spec::Hunt(spec) => run_portfolio(o, &store, &spec),
        },
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
        "show" => match resolve(&arg(1, "a record id (or unique prefix)")?)? {
            Record::Lab(record) => print_record(&record, o.format),
            Record::Hunt(record) => {
                print_hunt_record(&record, o.format);
                Ok(())
            }
        },
        "diff" => compare(
            &resolve(&arg(1, "a baseline record")?)?,
            &resolve(&arg(2, "a fresh record")?)?,
        ),
        "gate" => {
            let base = resolve(&arg(1, "a baseline record or file")?)?;
            let fresh = match &base {
                Record::Lab(b) => Record::Lab(rerun(o, b)?),
                Record::Hunt(b) => Record::Hunt(run_hunt_campaign(&b.spec, o.jobs)?),
            };
            compare(&base, &fresh)
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
            let substrate = match o.substrate.unwrap_or(Substrate::Engine) {
                s @ Substrate::Engine => s,
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
                let entries = baseline::export(&record, &path).map_err(|e| e.to_string())?;
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
            // `lab gate` on the record the trajectory's entry names, then
            // a clock: only a bit-identical run is timed.
            let path = arg(1, "a trajectory file (e.g. BENCH_engine.json)")?;
            let entry = baseline::latest_entry(path.as_ref(), o.campaign.as_deref())
                .map_err(|e| format!("{path}: {e}"))?;
            let id = entry
                .field("id")
                .and_then(Json::as_str)
                .map_err(|e| format!("{path}: {e}"))?;
            let base = store.load(id).map_err(|e| {
                format!(
                    "{path}: no record {id} in {} ({e}); `ftc lab baseline` stores one \
                     with its entry",
                    store.dir().display()
                )
            })?;
            let fresh = rerun(o, &base)?;
            compare(&Record::Lab(base), &Record::Lab(fresh.clone()))?;
            let mut report = baseline::perf_gate(&entry, &fresh)?;
            if !report.pass() {
                // A throughput shortfall can be a scheduling hiccup rather
                // than a regression: re-run once and gate on each cell's
                // best of the two runs. A real hot-path regression fails
                // both.
                eprintln!("throughput below floor; re-running once to rule out transient noise");
                let retry = rerun(o, &fresh)?;
                let mut best = fresh;
                for (b, r) in best.cells.iter_mut().zip(&retry.cells) {
                    if r.throughput() > b.throughput() {
                        b.wall_s = r.wall_s;
                    }
                }
                report = baseline::perf_gate(&entry, &best)?;
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
                report.median_ratio * (1.0 - baseline::PERF_BAND)
            );
            let regressed = report.cells.iter().filter(|c| !c.pass).count();
            if regressed > 0 {
                return Err(format!("perf gate failed: {regressed} regressed cell(s)"));
            }
            println!(
                "ok: {} cells within {:.0}% of the median ratio",
                report.cells.len(),
                baseline::PERF_BAND * 100.0
            );
            Ok(())
        }
        other => Err(format!(
            "unknown lab verb {other} (run|list|show|diff|gate|baseline|perf)"
        )),
    }
}

/// A record's id and deterministic payload.
fn payload(record: &Record) -> (String, Json) {
    match record {
        Record::Lab(r) => (r.id(), r.to_json(false)),
        Record::Hunt(r) => (r.id(), r.to_json(false)),
    }
}

/// Compares two records of either kind. The verdict is byte equality of
/// their deterministic payloads; a failure prints one `drift:` line per
/// value that moved.
fn compare(base: &Record, fresh: &Record) -> Result<(), String> {
    let ((id, base), (_, fresh)) = (payload(base), payload(fresh));
    if base.render() == fresh.render() {
        let cells = base
            .get("cells")
            .and_then(|c| c.as_arr().ok())
            .map_or(0, <[Json]>::len);
        println!("ok: {cells} cells agree bit-for-bit");
        return Ok(());
    }
    let mut drift = ftc::sim::json::diff(&base, &fresh);
    if drift.is_empty() {
        drift.push("record: the renders differ only in key order or number spelling".into());
    }
    for line in &drift {
        eprintln!("drift: {line}");
    }
    Err(format!(
        "{} mismatch(es) against baseline {id}",
        drift.len()
    ))
}
