//! `serve` and `loadgen`: the long-lived leader service (`ftc-serve`).

use ftc::prelude::*;

use crate::flags::{substrate_spelled, Opts};

/// Builds the service spec shared by `serve` and `loadgen`.
pub fn serve_config(o: &Opts) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig::new(o.n, o.alpha)
        .seed(o.seed)
        .heights(o.heights)
        .window_rounds(o.window)
        .substrate(o.substrate.unwrap_or(Substrate::Engine))
        .churn(ChurnPlan {
            kill_leader_every: o.kill_every,
            bystanders: o.bystanders,
            rejoin_after: o.rejoin_after,
        })
        .load(LoadProfile {
            arrivals_per_round: o.arrivals,
            leader_capacity: o.capacity,
        });
    if let Some(h) = o.inject_split_brain {
        if h >= o.heights {
            return Err(format!(
                "--inject-split-brain {h} is past the last height {}",
                o.heights - 1
            ));
        }
        let params = Params::new(o.n, o.alpha).map_err(|e| e.to_string())?;
        let hcfg = SimConfig::new(o.n)
            .seed(height_seed(o.seed, h))
            .max_rounds(params.le_round_budget());
        let plan = split_brain_plan(&params, &hcfg)?;
        cfg = cfg.inject_at(h, plan);
    }
    Ok(cfg)
}

fn quantile(h: &LogHistogram, q: f64) -> u64 {
    h.quantile(q).unwrap_or(0)
}

pub fn cmd_serve(o: &Opts) -> Result<(), String> {
    let cfg = serve_config(o)?;
    let report = run_service(&cfg)?;
    let mut writer = o.format.is_machine().then(|| {
        RowWriter::new(
            o.format,
            &[
                "height",
                "seed",
                "success",
                "leader",
                "rank",
                "rounds",
                "msgs",
                "wire_bytes",
                "down",
            ],
        )
    });
    for h in &report.heights {
        if let Some(w) = writer.as_mut() {
            w.emit(&[
                Value::UInt(u64::from(h.height)),
                Value::UInt(h.seed),
                Value::Bool(h.success),
                Value::Int(h.leader.map_or(-1, |l| i64::from(l.0))),
                Value::UInt(h.rank.unwrap_or(0)),
                Value::UInt(u64::from(h.rounds)),
                Value::UInt(h.msgs_sent),
                Value::UInt(h.wire_bytes),
                Value::UInt(u64::from(h.down)),
            ]);
        }
    }
    let m = &report.metrics;
    if writer.is_none() {
        println!(
            "serve: n={} alpha={} heights={} substrate={} seed={}",
            o.n,
            o.alpha,
            o.heights,
            substrate_spelled(cfg.substrate),
            o.seed
        );
        println!(
            "  elections: {} ok, {} failed; leader changes {}",
            m.heights - m.failed_elections,
            m.failed_elections,
            m.leader_changes
        );
        println!(
            "  time-to-new-leader (rounds): p50 {} p95 {} p99 {}",
            quantile(&m.ttnl_rounds, 0.5),
            quantile(&m.ttnl_rounds, 0.95),
            quantile(&m.ttnl_rounds, 0.99)
        );
        // The same elections in wall-clock: what a client of the service
        // waits after a leader kill, on this substrate, on this machine.
        let wall = (report.heights.iter().zip(&report.election_wall))
            .filter(|(h, _)| h.success)
            .map(|(_, took)| took.as_secs_f64() * 1e3);
        if let Some(ms) = Summary::try_of_iter(wall) {
            println!(
                "  time-to-new-leader (ms): p50 {:.2} p95 {:.2} max {:.2}",
                ms.median, ms.p95, ms.max
            );
        }
        println!(
            "  availability: {:.4} ({} of {} rounds with a leader)",
            m.availability().unwrap_or(0.0),
            m.available_rounds,
            m.total_rounds
        );
        println!("  churn crashes: {}", report.crashes);
    }
    for v in &report.violations {
        eprintln!("invariant violation: {}", v.describe());
    }
    if let Some(dir) = &o.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        for art in &report.artifacts {
            let path = format!("{dir}/two-leaders-h{:04}.json", art.height.unwrap_or(0));
            std::fs::write(&path, art.render()).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("counterexample artifact written to {path} (check with `ftc replay`)");
        }
    }
    // A violation fails the run — unless it was deliberately injected,
    // in which case catching it is the expected outcome.
    if !report.ok() && o.inject_split_brain.is_none() {
        return Err(format!(
            "{} invariant violation(s) observed",
            report.violations.len()
        ));
    }
    if report.ok() && o.inject_split_brain.is_some() {
        return Err("injected split brain was not caught by the monitor".into());
    }
    Ok(())
}

pub fn cmd_loadgen(o: &Opts) -> Result<(), String> {
    let cfg = serve_config(o)?;
    let report = run_service(&cfg)?;
    let load = report
        .load
        .as_ref()
        .expect("serve_config always arms the load generator");
    let m = &report.metrics;
    if o.format.is_machine() {
        let mut w = RowWriter::new(
            o.format,
            &[
                "issued",
                "completed",
                "retried",
                "backlog",
                "lat_p50",
                "lat_p95",
                "lat_p99",
                "availability",
            ],
        );
        w.emit(&[
            Value::UInt(load.issued),
            Value::UInt(load.completed),
            Value::UInt(load.retried),
            Value::UInt(load.backlog),
            Value::UInt(quantile(&load.latency, 0.5)),
            Value::UInt(quantile(&load.latency, 0.95)),
            Value::UInt(quantile(&load.latency, 0.99)),
            Value::Float(m.availability().unwrap_or(0.0)),
        ]);
    } else {
        println!(
            "loadgen: n={} heights={} arrivals/round={} capacity/round={} seed={}",
            o.n, o.heights, o.arrivals, o.capacity, o.seed
        );
        println!(
            "  requests: issued {} completed {} retried {} backlog {}",
            load.issued, load.completed, load.retried, load.backlog
        );
        println!(
            "  latency (rounds): p50 {} p95 {} p99 {} max {}",
            quantile(&load.latency, 0.5),
            quantile(&load.latency, 0.95),
            quantile(&load.latency, 0.99),
            load.latency.max().unwrap_or(0)
        );
        println!("  availability: {:.4}", m.availability().unwrap_or(0.0));
    }
    if !report.ok() {
        return Err(format!(
            "{} invariant violation(s) observed",
            report.violations.len()
        ));
    }
    Ok(())
}
