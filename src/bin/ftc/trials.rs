//! `le`, `agree`, `cluster`, `sweep`, `trace`: one-shot trials of the
//! paper's protocols, every run through the one protocol bridge
//! (`ProtoKind::run`).

use ftc::lab::figures::capped_cell;
use ftc::lab::{run_cell, CellResult};
use ftc::prelude::*;

use crate::flags::{substrate_kind, substrate_spelled, Opts};

/// The validated base config of `o`: size, then `--topology` checked
/// against `--n` (the builders panic on invalid shapes; the CLI wants an
/// error).
pub fn base_config(o: &Opts) -> Result<SimConfig, String> {
    let cfg = SimConfig::try_new(o.n).map_err(|e| e.to_string())?;
    if o.topology.is_complete() {
        return Ok(cfg);
    }
    o.topology.validate(o.n).map_err(|e| e.to_string())?;
    Ok(cfg.topology(o.topology.clone()))
}

/// `ftc le` / `ftc agree`: Monte-Carlo trials of `proto` on the engine.
/// The two differ in their outcome column, `le`'s `crashes` column and
/// `bits` summary, and the prose.
pub fn cmd_trials(proto: ProtoKind, o: &Opts) -> Result<(), String> {
    let le = proto == ProtoKind::Le;
    let params = Params::new(o.n, o.alpha).map_err(|e| e.to_string())?;
    let schedule = Schedule::Named(Adv::named(&o.adversary, proto)?);
    let cfg = base_config(o)?
        .seed(o.seed)
        .max_rounds(proto.round_budget(&params));
    let mut columns = vec!["trial", "seed", "success"];
    columns.push(if le { "leader_rank" } else { "value" });
    columns.extend(["msgs", "bits", "rounds"]);
    if le {
        columns.push("crashes");
    }
    let mut writer = o
        .format
        .is_machine()
        .then(|| RowWriter::new(o.format, &columns));
    let opts = RunOpts::default();
    let results = run_trials_jobs(&cfg, o.trials, o.jobs, |c| {
        proto.run(&params, c, o.zeros, schedule, Substrate::Engine, &opts)
    });
    let mut successes = 0;
    let mut metrics = Vec::with_capacity(results.len());
    for t in results {
        let run = t.value?;
        let fp = run.observation.fingerprint;
        successes += u64::from(fp.success);
        if let Some(w) = writer.as_mut() {
            let mut row = vec![
                Value::UInt(t.trial),
                Value::UInt(t.seed),
                Value::Bool(fp.success),
                if le {
                    Value::UInt(fp.outcome.unwrap_or(0))
                } else {
                    Value::Int(fp.outcome.map_or(-1, |v| v as i64))
                },
                Value::UInt(fp.msgs_sent),
                Value::UInt(fp.bits_sent),
                Value::UInt(u64::from(fp.rounds)),
            ];
            if le {
                row.push(Value::UInt(run.metrics.crash_count() as u64));
            }
            w.emit(&row);
        }
        metrics.push(run.metrics);
    }
    let msgs = Summary::of_iter(metrics.iter().map(|m| m.msgs_sent as f64));
    let rounds = Summary::of_iter(metrics.iter().map(|m| f64::from(m.rounds)));
    if writer.is_some() {
        let bits = Summary::of_iter(metrics.iter().map(|m| m.bits_sent as f64));
        let mut summaries = vec![("msgs", &msgs), ("rounds", &rounds)];
        if le {
            summaries.insert(1, ("bits", &bits));
        }
        emit_summaries(o.format, &summaries);
    } else if le {
        println!(
            "leader election: n={} alpha={} adversary={} topology={} trials={}",
            o.n, o.alpha, o.adversary, o.topology, o.trials
        );
        println!("  success: {successes}/{}", o.trials);
        println!("  messages: mean {:.0} (p95 {:.0})", msgs.mean, msgs.p95);
        println!("  rounds: mean {:.0} (max {:.0})", rounds.mean, rounds.max);
    } else {
        println!(
            "agreement: n={} alpha={} zeros={} adversary={} topology={} trials={}",
            o.n, o.alpha, o.zeros, o.adversary, o.topology, o.trials
        );
        println!("  success: {successes}/{}", o.trials);
        println!("  messages: mean {:.0} (bits ≈ 2x)", msgs.mean);
    }
    Ok(())
}

/// `ftc sweep`: agreement under each `--caps` budget, one lab cell a cap
/// (the cells of E8, `fig-lowerbound`).
pub fn cmd_sweep(o: &Opts) -> Result<(), String> {
    let threshold = Params::new(o.n, o.alpha)
        .map_err(|e| e.to_string())?
        .lower_bound_threshold();
    let mut points = Vec::with_capacity(o.caps.len());
    for &cap in &o.caps {
        let cell = capped_cell(ProtoKind::Agree, cap, o.n, o.alpha, o.seed, o.trials);
        points.push((cap, run_cell(&cell, o.jobs, Substrate::Engine)?));
    }
    let failure_rate = |p: &CellResult| (p.cell.trials - p.successes) as f64 / p.cell.trials as f64;
    if o.format.is_machine() {
        let mut w = RowWriter::new(
            o.format,
            &[
                "cap",
                "mean_msgs",
                "median_msgs",
                "p95_msgs",
                "suppressed",
                "threshold_ratio",
                "failure_rate",
                "trials",
            ],
        );
        for (cap, p) in &points {
            w.emit(&[
                Value::Int(cap.map_or(-1, i64::from)),
                Value::Float(p.msgs.mean),
                Value::Float(p.msgs.median),
                Value::Float(p.msgs.p95),
                Value::Float(p.extra("suppressed").map_or(0.0, |s| s.mean)),
                Value::Float(p.msgs.mean / threshold),
                Value::Float(failure_rate(p)),
                Value::UInt(p.cell.trials),
            ]);
        }
    } else {
        println!("send-cap sweep (agreement): n={} alpha={}", o.n, o.alpha);
        for (cap, p) in &points {
            println!(
                "  cap {:>9}: {:>10.0} msgs ({:>7.2}x threshold), failure {:.2}",
                cap.map_or("unlimited".into(), |c| c.to_string()),
                p.msgs.mean,
                p.msgs.mean / threshold,
                failure_rate(p)
            );
        }
    }
    Ok(())
}

pub fn cmd_trace(o: &Opts) -> Result<(), String> {
    let params = Params::new(o.n, o.alpha).map_err(|e| e.to_string())?;
    let cfg = SimConfig::new(o.n)
        .seed(o.seed)
        .max_rounds(params.le_round_budget())
        .record_trace(true);
    let eager = Schedule::Named(Adv::Eager);
    let opts = RunOpts::default();
    let run = ProtoKind::Le.run(&params, &cfg, 0.0, eager, Substrate::Engine, &opts)?;
    let trace = run.trace.as_ref().expect("trace enabled");
    let a = InfluenceAnalysis::full(trace);
    println!(
        "trace: n={} alpha={} seed={} — {} events, {} rounds",
        o.n,
        o.alpha,
        o.seed,
        trace.len(),
        run.metrics.rounds
    );
    println!(
        "influence: {} initiators, event N (disjoint clouds) = {}, {} untouched nodes",
        a.initiator_count(),
        a.event_n(),
        a.untouched()
    );
    let mut sizes: Vec<usize> = a.cloud_sizes().iter().map(|&(_, s)| s).collect();
    sizes.sort_unstable_by(|x, y| y.cmp(x));
    println!("largest clouds: {:?}", &sizes[..sizes.len().min(8)]);
    Ok(())
}

/// `ftc cluster`: the same protocols, one trial per `seed + trial`, on
/// the substrate `--substrate` names (default: the socket mesh).
pub fn cmd_cluster(o: &Opts) -> Result<(), String> {
    let params = Params::new(o.n, o.alpha).map_err(|e| e.to_string())?;
    let schedule = Schedule::Named(Adv::named(&o.adversary, o.proto)?);
    // Size and graph are validated before any socket is opened (n < 2
    // etc.); the mesh then only dials where a topology edge crosses.
    let base = base_config(o)?.max_rounds(o.proto.round_budget(&params));
    let substrate = o.wire_substrate();
    let opts = RunOpts {
        recv_timeout: o.recv_timeout,
        ..RunOpts::default()
    };
    let mut writer = o.format.is_machine().then(|| {
        RowWriter::new(
            o.format,
            &[
                "trial",
                "seed",
                "transport",
                "proto",
                "success",
                "outcome",
                "msgs",
                "bits",
                "rounds",
                "crashes",
                "wire_bytes",
                "frames",
            ],
        )
    });
    let mut successes = 0u64;
    let mut trials = Vec::new();
    for trial in 0..o.trials {
        let seed = o.seed.wrapping_add(trial);
        let cfg = base.clone().seed(seed);
        let t = o
            .proto
            .run(&params, &cfg, o.zeros, schedule, substrate, &opts)?;
        let fp = &t.observation.fingerprint;
        successes += u64::from(fp.success);
        if let Some(w) = writer.as_mut() {
            w.emit(&[
                Value::UInt(trial),
                Value::UInt(seed),
                Value::Str(substrate_kind(substrate).into()),
                Value::Str(o.proto.name().into()),
                Value::Bool(fp.success),
                Value::Int(fp.outcome.map_or(-1, |v| v as i64)),
                Value::UInt(fp.msgs_sent),
                Value::UInt(fp.bits_sent),
                Value::UInt(u64::from(fp.rounds)),
                Value::UInt(t.metrics.crash_count() as u64),
                Value::UInt(t.net.wire_bytes),
                Value::UInt(t.net.frames_sent),
            ]);
        }
        trials.push(t);
    }
    let msgs = Summary::of_iter(trials.iter().map(|t| t.metrics.msgs_sent as f64));
    let wire = Summary::of_iter(trials.iter().map(|t| t.net.wire_bytes as f64));
    if writer.is_some() {
        let rounds = Summary::of_iter(trials.iter().map(|t| f64::from(t.metrics.rounds)));
        emit_summaries(
            o.format,
            &[("msgs", &msgs), ("wire_bytes", &wire), ("rounds", &rounds)],
        );
    } else {
        println!(
            "cluster ({}, {} protocol): n={} alpha={} adversary={} trials={}",
            substrate_spelled(substrate),
            o.proto.name(),
            o.n,
            o.alpha,
            o.adversary,
            o.trials
        );
        println!("  success: {successes}/{}", o.trials);
        println!("  messages: mean {:.0} (p95 {:.0})", msgs.mean, msgs.p95);
        println!("  wire bytes: mean {:.0} (p95 {:.0})", wire.mean, wire.p95);
        if let Some(t) = trials.last() {
            let outcome = t.observation.fingerprint.outcome.map_or(-1, |v| v as i64);
            let what = match o.proto {
                ProtoKind::Le => format!("leader rank {outcome}"),
                ProtoKind::Agree => format!("decision {outcome}"),
            };
            println!(
                "  last trial: {} in {} rounds, {} crashes survived",
                what,
                t.metrics.rounds,
                t.metrics.crash_count()
            );
        }
    }
    if successes < o.trials {
        return Err(format!(
            "{} of {} cluster trials failed",
            o.trials - successes,
            o.trials
        ));
    }
    Ok(())
}
