//! `ftc` — command-line front end for the protocols and experiments.
//!
//! ```text
//! ftc le      --n 4096 --alpha 0.5 --adversary random --trials 10 [--format csv]
//! ftc agree   --n 4096 --alpha 0.5 --zeros 0.05 --adversary targeted [--format json]
//! ftc sweep   --n 2048 --alpha 0.5 --caps 64,16,4,1 --trials 24 [--format csv]
//! ftc trace   --n 512  --alpha 0.5 --seed 7          # influence-cloud report
//! ftc cluster --n 8 --alpha 0.5 --proto le --seed 1 --transport mesh --procs 8
//! ftc serve   --n 64 --alpha 0.75 --heights 100 --kill-every 3 [--out results/]
//! ftc loadgen --n 16 --alpha 0.5 --heights 40 --arrivals 4 --capacity 8
//! ftc hunt    --n 64 --alpha 0.5 --proto le --objective failure --budget 256
//! ftc replay  results/le-failure.counterexample.json --transport channel
//! ftc lab     run gate-smoke --jobs 4
//! ftc lab     gate results/store/gate-smoke-<hash>.json
//! ```
//!
//! `cluster` runs the same protocols over a real transport: the socket
//! mesh (`ftc-mesh`; `--procs <n>` gives one localhost socket per edge) or
//! in-process channels (`ftc-net`), with crash injection as mid-round
//! partial delivery. Simulator and cluster emit the same row
//! shapes, so `--format csv|json` output is interchangeable downstream.
//!
//! `serve` runs a long-lived leader service (`ftc-serve`): repeated
//! election heights with leader-kill churn, automatic re-election, and a
//! runtime invariant monitor; `--inject-split-brain H` seeds a two-leaders
//! fault at height `H` to demonstrate the monitor end to end, and `--out`
//! writes any violation as a replayable counterexample artifact. `loadgen`
//! drives the same service with the deterministic load generator and
//! reports request latency and availability.
//!
//! `hunt` searches the crash-schedule space for a schedule that breaks the
//! chosen objective (`ftc-hunt`), ddmin-shrinks the worst one it finds,
//! cross-checks it on the sim engine and the channel runtime, and (with
//! `--out`) writes a replayable counterexample artifact. `replay`
//! re-executes such an artifact and fails if the recorded fingerprint or
//! verdict is not reproduced bit-for-bit.
//!
//! All subcommands are deterministic given `--seed`.

use std::process::ExitCode;
use std::time::Duration;

use ftc::prelude::*;

/// Parsed command-line options (flat key-value flags).
#[derive(Clone, Debug)]
struct Opts {
    n: u32,
    alpha: f64,
    seed: u64,
    trials: u64,
    zeros: f64,
    adversary: String,
    caps: Vec<Option<u32>>,
    format: Format,
    jobs: usize,
    proto: String,
    transport: String,
    workers: usize,
    /// `cluster --transport mesh`: OS processes the nodes are packed
    /// onto (one socket per proc pair).
    procs: usize,
    /// `cluster`: how long a node waits on a frame before the run is
    /// declared wedged.
    recv_timeout: Duration,
    objective: String,
    strategy: String,
    budget: u64,
    probes: u64,
    out: Option<String>,
    /// `lab`: run campaigns at smoke scale.
    smoke: bool,
    /// `lab`: results-store directory.
    store: String,
    /// `lab`/`serve`: execution substrate (`engine`, `channel:W`, `mesh:P`).
    substrate: String,
    /// `lab`: worker threads sharding one trial's nodes (engine
    /// substrate only; results are bit-identical at any value).
    intra_jobs: usize,
    /// `lab perf`: which campaign's latest trajectory entry to gate
    /// against (absent = the file's most recent entry).
    campaign: Option<String>,
    /// `lab diff`/`lab gate`: fractional tolerance band (absent = exact).
    tolerance: Option<f64>,
    /// `serve`/`loadgen`: election heights to run.
    heights: u32,
    /// `serve`: crash the leader after every this-many successful heights.
    kill_every: u32,
    /// `serve`: extra nodes crashed alongside the leader.
    bystanders: u32,
    /// `serve`: heights a downed node sits out before rejoining.
    rejoin_after: u32,
    /// `serve`/`loadgen`: serving rounds between elections.
    window: u32,
    /// `loadgen`: request arrivals per service round.
    arrivals: u32,
    /// `loadgen`: requests the leader completes per serving round.
    capacity: u32,
    /// `serve`: inject a verified split-brain schedule at this height (a
    /// monitor/artifact demonstration; see `ftc_serve::seeder`).
    inject_split_brain: Option<u32>,
    /// `hunt`: also search socket-level wire faults (reorder, duplicate,
    /// tear, delay) on the `--transport` substrate.
    wire_faults: bool,
    /// `hunt`: exit nonzero unless the hunt found a counterexample.
    expect_hit: bool,
    /// `hunt`: exit nonzero if the hunt found a counterexample.
    expect_empty: bool,
    /// `hunt portfolio`: minimum schedule-space coverage fraction.
    min_coverage: Option<f64>,
    /// `lab list`: only records of this kind (`lab`|`hunt`).
    kind: Option<String>,
    /// `le`/`agree`/`cluster`: the network graph
    /// (`complete` | `diam2:<clusters>` | `rr:<d>`).
    topology: Topology,
    /// Non-flag arguments (e.g. the artifact path for `replay`).
    positional: Vec<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            n: 1024,
            alpha: 0.5,
            seed: 42,
            trials: 10,
            zeros: 0.05,
            adversary: "random".into(),
            caps: vec![None, Some(64), Some(16), Some(4), Some(1)],
            format: Format::Human,
            jobs: 0,
            proto: "le".into(),
            transport: "mesh".into(),
            workers: 4,
            procs: 4,
            recv_timeout: RECV_TIMEOUT,
            objective: "failure".into(),
            strategy: "random".into(),
            budget: 256,
            probes: 3,
            out: None,
            smoke: false,
            store: "results/store".into(),
            substrate: "engine".into(),
            intra_jobs: 1,
            campaign: None,
            tolerance: None,
            heights: 20,
            kill_every: 3,
            bystanders: 2,
            rejoin_after: 4,
            window: 12,
            arrivals: 2,
            capacity: 4,
            inject_split_brain: None,
            wire_faults: false,
            expect_hit: false,
            expect_empty: false,
            min_coverage: None,
            kind: None,
            topology: Topology::Complete,
            positional: Vec::new(),
        }
    }
}

/// Parses `--topology`: `complete`, `diam2:<clusters>` (the hub graph),
/// or `rr:<d>` (a seeded random `d`-regular graph). Shape parameters are
/// validated against `--n` when the command builds its `SimConfig`, not
/// here — parse time does not know the final `n`.
fn parse_topology(s: &str) -> Result<Topology, String> {
    if s == "complete" {
        return Ok(Topology::Complete);
    }
    if let Some(c) = s.strip_prefix("diam2:") {
        let clusters = c.parse().map_err(|e| format!("--topology diam2: {e}"))?;
        return Ok(Topology::DiameterTwo { clusters });
    }
    if let Some(d) = s.strip_prefix("rr:") {
        let d = d.parse().map_err(|e| format!("--topology rr: {e}"))?;
        return Ok(Topology::RandomRegular { d });
    }
    Err(format!(
        "unknown topology {s} (complete | diam2:<clusters> | rr:<d>)"
    ))
}

/// Applies `--topology` to a config, validating the shape against `--n`
/// first (the builder panics on invalid shapes; the CLI wants an error).
fn with_topology(o: &Opts, cfg: SimConfig) -> Result<SimConfig, String> {
    if o.topology.is_complete() {
        return Ok(cfg);
    }
    o.topology.validate(o.n).map_err(|e| e.to_string())?;
    Ok(cfg.topology(o.topology.clone()))
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--n" => {
                o.n = value(i)?.parse().map_err(|e| format!("--n: {e}"))?;
                i += 2;
            }
            "--alpha" => {
                o.alpha = value(i)?.parse().map_err(|e| format!("--alpha: {e}"))?;
                i += 2;
            }
            "--seed" => {
                o.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 2;
            }
            "--trials" => {
                o.trials = value(i)?.parse().map_err(|e| format!("--trials: {e}"))?;
                if o.trials == 0 {
                    return Err("--trials must be at least 1".into());
                }
                i += 2;
            }
            "--zeros" => {
                o.zeros = value(i)?.parse().map_err(|e| format!("--zeros: {e}"))?;
                i += 2;
            }
            "--adversary" => {
                o.adversary = value(i)?.clone();
                i += 2;
            }
            "--topology" => {
                o.topology = parse_topology(value(i)?)?;
                i += 2;
            }
            "--caps" => {
                o.caps = value(i)?
                    .split(',')
                    .map(|c| {
                        if c == "none" {
                            Ok(None)
                        } else {
                            c.parse::<u32>()
                                .map(Some)
                                .map_err(|e| format!("--caps: {e}"))
                        }
                    })
                    .collect::<Result<_, _>>()?;
                i += 2;
            }
            "--format" => {
                o.format = Format::parse(value(i)?)?;
                i += 2;
            }
            // Backwards-compatible alias for `--format csv`.
            "--csv" => {
                o.format = Format::Csv;
                i += 1;
            }
            "--jobs" => {
                o.jobs = value(i)?.parse().map_err(|e| format!("--jobs: {e}"))?;
                if o.jobs == 0 {
                    return Err(
                        "--jobs must be at least 1 (omit the flag to use every core)".into(),
                    );
                }
                i += 2;
            }
            "--proto" => {
                o.proto = value(i)?.clone();
                if !matches!(o.proto.as_str(), "le" | "agree") {
                    return Err(format!("unknown protocol {} (le|agree)", o.proto));
                }
                i += 2;
            }
            "--transport" => {
                o.transport = value(i)?.clone();
                // `Substrate::parse` owns the names (and says what
                // replaced `tcp`); the width comes from --workers/--procs.
                Substrate::parse(&o.transport)?;
                if !matches!(o.transport.as_str(), "channel" | "mesh") {
                    return Err(format!("unknown transport {} (channel|mesh)", o.transport));
                }
                i += 2;
            }
            "--workers" => {
                o.workers = value(i)?.parse().map_err(|e| format!("--workers: {e}"))?;
                if o.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
                i += 2;
            }
            "--procs" => {
                o.procs = value(i)?.parse().map_err(|e| format!("--procs: {e}"))?;
                if o.procs == 0 {
                    return Err("--procs must be at least 1".into());
                }
                i += 2;
            }
            "--recv-timeout" => {
                let secs: f64 = value(i)?
                    .parse()
                    .map_err(|e| format!("--recv-timeout: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--recv-timeout must be a positive number of seconds".into());
                }
                o.recv_timeout = Duration::from_secs_f64(secs);
                i += 2;
            }
            "--objective" => {
                o.objective = value(i)?.clone();
                Objective::parse(&o.objective)?;
                i += 2;
            }
            "--strategy" => {
                o.strategy = value(i)?.clone();
                Strategy::parse(&o.strategy)?;
                i += 2;
            }
            "--budget" => {
                o.budget = value(i)?.parse().map_err(|e| format!("--budget: {e}"))?;
                if o.budget == 0 {
                    return Err("--budget must be at least 1".into());
                }
                i += 2;
            }
            "--probes" => {
                o.probes = value(i)?.parse().map_err(|e| format!("--probes: {e}"))?;
                if o.probes == 0 {
                    return Err("--probes must be at least 1".into());
                }
                i += 2;
            }
            "--out" => {
                o.out = Some(value(i)?.clone());
                i += 2;
            }
            "--smoke" => {
                o.smoke = true;
                i += 1;
            }
            "--store" => {
                o.store = value(i)?.clone();
                i += 2;
            }
            "--substrate" => {
                o.substrate = value(i)?.clone();
                Substrate::parse(&o.substrate)?;
                i += 2;
            }
            "--intra-jobs" => {
                o.intra_jobs = value(i)?
                    .parse()
                    .map_err(|e| format!("--intra-jobs: {e}"))?;
                if o.intra_jobs == 0 {
                    return Err("--intra-jobs must be at least 1".into());
                }
                i += 2;
            }
            "--campaign" => {
                o.campaign = Some(value(i)?.clone());
                i += 2;
            }
            "--tolerance" => {
                let t: f64 = value(i)?.parse().map_err(|e| format!("--tolerance: {e}"))?;
                if t <= 0.0 || t.is_nan() {
                    return Err("--tolerance must be positive".into());
                }
                o.tolerance = Some(t);
                i += 2;
            }
            "--heights" => {
                o.heights = value(i)?.parse().map_err(|e| format!("--heights: {e}"))?;
                if o.heights == 0 {
                    return Err("--heights must be at least 1".into());
                }
                i += 2;
            }
            "--kill-every" => {
                o.kill_every = value(i)?
                    .parse()
                    .map_err(|e| format!("--kill-every: {e}"))?;
                i += 2;
            }
            "--bystanders" => {
                o.bystanders = value(i)?
                    .parse()
                    .map_err(|e| format!("--bystanders: {e}"))?;
                i += 2;
            }
            "--rejoin-after" => {
                o.rejoin_after = value(i)?
                    .parse()
                    .map_err(|e| format!("--rejoin-after: {e}"))?;
                i += 2;
            }
            "--window" => {
                o.window = value(i)?.parse().map_err(|e| format!("--window: {e}"))?;
                if o.window == 0 {
                    return Err("--window must be at least 1".into());
                }
                i += 2;
            }
            "--arrivals" => {
                o.arrivals = value(i)?.parse().map_err(|e| format!("--arrivals: {e}"))?;
                i += 2;
            }
            "--capacity" => {
                o.capacity = value(i)?.parse().map_err(|e| format!("--capacity: {e}"))?;
                if o.capacity == 0 {
                    return Err("--capacity must be at least 1".into());
                }
                i += 2;
            }
            "--inject-split-brain" => {
                o.inject_split_brain = Some(
                    value(i)?
                        .parse()
                        .map_err(|e| format!("--inject-split-brain: {e}"))?,
                );
                i += 2;
            }
            "--wire-faults" => {
                o.wire_faults = true;
                i += 1;
            }
            "--expect-hit" => {
                if o.expect_empty {
                    return Err("--expect-hit and --expect-empty are mutually exclusive".into());
                }
                o.expect_hit = true;
                i += 1;
            }
            "--expect-empty" => {
                if o.expect_hit {
                    return Err("--expect-hit and --expect-empty are mutually exclusive".into());
                }
                o.expect_empty = true;
                i += 1;
            }
            "--min-coverage" => {
                let c: f64 = value(i)?
                    .parse()
                    .map_err(|e| format!("--min-coverage: {e}"))?;
                if !(0.0..=1.0).contains(&c) {
                    return Err("--min-coverage must be in [0, 1]".into());
                }
                o.min_coverage = Some(c);
                i += 2;
            }
            "--kind" => {
                let k = value(i)?.clone();
                if !matches!(k.as_str(), "lab" | "hunt") {
                    return Err(format!("unknown record kind {k} (lab|hunt)"));
                }
                o.kind = Some(k);
                i += 2;
            }
            other if !other.starts_with('-') => {
                o.positional.push(other.into());
                i += 1;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(o)
}

fn le_adversary(kind: &str, f: usize) -> Result<Box<dyn Adversary<LeMsg>>, String> {
    Ok(match kind {
        "none" => Box::new(NoFaults),
        "eager" => Box::new(EagerCrash::new(f)),
        "random" => Box::new(RandomCrash::new(f, 60)),
        "targeted" => Box::new(MinRankCrasher::new(f)),
        other => {
            return Err(format!(
                "unknown adversary {other} (none|eager|random|targeted)"
            ))
        }
    })
}

fn agree_adversary(kind: &str, f: usize) -> Result<Box<dyn Adversary<AgreeMsg>>, String> {
    Ok(match kind {
        "none" => Box::new(NoFaults),
        "eager" => Box::new(EagerCrash::new(f)),
        "random" => Box::new(RandomCrash::new(f, 20)),
        "targeted" => Box::new(ZeroHolderCrasher::new(f)),
        other => {
            return Err(format!(
                "unknown adversary {other} (none|eager|random|targeted)"
            ))
        }
    })
}

fn cmd_le(o: &Opts) -> Result<(), String> {
    let params = Params::new(o.n, o.alpha).map_err(|e| e.to_string())?;
    let f = params.max_faults();
    let cfg = with_topology(
        o,
        SimConfig::new(o.n)
            .seed(o.seed)
            .max_rounds(params.le_round_budget()),
    )?;
    let mut writer = o.format.is_machine().then(|| {
        RowWriter::new(
            o.format,
            &[
                "trial",
                "seed",
                "success",
                "leader_rank",
                "msgs",
                "bits",
                "rounds",
                "crashes",
            ],
        )
    });
    let mut successes = 0;
    let results = run_trials_jobs(&cfg, o.trials, o.jobs, |c| {
        let mut adv = le_adversary(&o.adversary, f).expect("validated");
        let r = run(c, |_| LeNode::new(params.clone()), adv.as_mut());
        let out = LeOutcome::evaluate(&r);
        (out.success, out.agreed_leader, r.metrics.clone())
    });
    for t in &results {
        let (ok, leader, m) = &t.value;
        if *ok {
            successes += 1;
        }
        if let Some(w) = writer.as_mut() {
            w.emit(&[
                Value::UInt(t.trial),
                Value::UInt(t.seed),
                Value::Bool(*ok),
                Value::UInt(leader.map_or(0, |r| r.0)),
                Value::UInt(m.msgs_sent),
                Value::UInt(m.bits_sent),
                Value::UInt(u64::from(m.rounds)),
                Value::UInt(m.crash_count() as u64),
            ]);
        }
    }
    let msgs = Summary::of_iter(results.iter().map(|t| t.value.2.msgs_sent as f64));
    let rounds = Summary::of_iter(results.iter().map(|t| f64::from(t.value.2.rounds)));
    if writer.is_none() {
        println!(
            "leader election: n={} alpha={} adversary={} topology={} trials={}",
            o.n, o.alpha, o.adversary, o.topology, o.trials
        );
        println!("  success: {successes}/{}", o.trials);
        println!("  messages: mean {:.0} (p95 {:.0})", msgs.mean, msgs.p95);
        println!("  rounds: mean {:.0} (max {:.0})", rounds.mean, rounds.max);
    } else {
        let bits = Summary::of_iter(results.iter().map(|t| t.value.2.bits_sent as f64));
        emit_summaries(
            o.format,
            &[("msgs", &msgs), ("bits", &bits), ("rounds", &rounds)],
        );
    }
    Ok(())
}

fn cmd_agree(o: &Opts) -> Result<(), String> {
    let params = Params::new(o.n, o.alpha).map_err(|e| e.to_string())?;
    let f = params.max_faults();
    let stride = if o.zeros <= 0.0 {
        u32::MAX
    } else {
        (1.0 / o.zeros).round().max(1.0) as u32
    };
    let cfg = with_topology(
        o,
        SimConfig::new(o.n)
            .seed(o.seed)
            .max_rounds(params.agreement_round_budget()),
    )?;
    let mut writer = o.format.is_machine().then(|| {
        RowWriter::new(
            o.format,
            &[
                "trial", "seed", "success", "value", "msgs", "bits", "rounds",
            ],
        )
    });
    let mut successes = 0;
    let results = run_trials_jobs(&cfg, o.trials, o.jobs, |c| {
        let mut adv = agree_adversary(&o.adversary, f).expect("validated");
        let r = run(
            c,
            |id| {
                AgreeNode::new(
                    params.clone(),
                    !(stride != u32::MAX && id.0.is_multiple_of(stride)),
                )
            },
            adv.as_mut(),
        );
        let out = AgreeOutcome::evaluate(&r);
        (out.success, out.agreed_value, r.metrics.clone())
    });
    for t in &results {
        let (ok, value, m) = &t.value;
        if *ok {
            successes += 1;
        }
        if let Some(w) = writer.as_mut() {
            w.emit(&[
                Value::UInt(t.trial),
                Value::UInt(t.seed),
                Value::Bool(*ok),
                Value::Int(value.map_or(-1, i64::from)),
                Value::UInt(m.msgs_sent),
                Value::UInt(m.bits_sent),
                Value::UInt(u64::from(m.rounds)),
            ]);
        }
    }
    let msgs = Summary::of_iter(results.iter().map(|t| t.value.2.msgs_sent as f64));
    if writer.is_none() {
        println!(
            "agreement: n={} alpha={} zeros={} adversary={} topology={} trials={}",
            o.n, o.alpha, o.zeros, o.adversary, o.topology, o.trials
        );
        println!("  success: {successes}/{}", o.trials);
        println!("  messages: mean {:.0} (bits ≈ 2x)", msgs.mean);
    } else {
        let rounds = Summary::of_iter(results.iter().map(|t| f64::from(t.value.2.rounds)));
        emit_summaries(o.format, &[("msgs", &msgs), ("rounds", &rounds)]);
    }
    Ok(())
}

fn cmd_sweep(o: &Opts) -> Result<(), String> {
    let points = sweep_agreement(o.n, o.alpha, &o.caps, o.trials, o.seed, o.jobs);
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
        for p in &points {
            w.emit(&[
                Value::Int(p.cap.map_or(-1, i64::from)),
                Value::Float(p.mean_messages),
                Value::Float(p.messages.median),
                Value::Float(p.messages.p95),
                Value::Float(p.mean_suppressed),
                Value::Float(p.threshold_ratio),
                Value::Float(p.failure_rate),
                Value::UInt(p.trials),
            ]);
        }
    } else {
        println!("send-cap sweep (agreement): n={} alpha={}", o.n, o.alpha);
        for p in &points {
            println!(
                "  cap {:>9}: {:>10.0} msgs ({:>7.2}x threshold), failure {:.2}",
                p.cap.map_or("unlimited".into(), |c| c.to_string()),
                p.mean_messages,
                p.threshold_ratio,
                p.failure_rate
            );
        }
    }
    Ok(())
}

fn cmd_trace(o: &Opts) -> Result<(), String> {
    let params = Params::new(o.n, o.alpha).map_err(|e| e.to_string())?;
    let cfg = SimConfig::new(o.n)
        .seed(o.seed)
        .max_rounds(params.le_round_budget())
        .record_trace(true);
    let mut adv = EagerCrash::new(params.max_faults());
    let r = run(&cfg, |_| LeNode::new(params.clone()), &mut adv);
    let trace = r.trace.as_ref().expect("trace enabled");
    let a = InfluenceAnalysis::full(trace);
    println!(
        "trace: n={} alpha={} seed={} — {} events, {} rounds",
        o.n,
        o.alpha,
        o.seed,
        trace.len(),
        r.metrics.rounds
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

/// One cluster trial's observable outcome, protocol-agnostic.
struct ClusterTrial {
    success: bool,
    /// Elected leader rank (LE) or agreed bit as 0/1 (agreement); -1 if none.
    outcome: i64,
    metrics: Metrics,
    net: NetMetrics,
}

fn cluster_trial(o: &Opts, seed: u64) -> Result<ClusterTrial, String> {
    let params = Params::new(o.n, o.alpha).map_err(|e| e.to_string())?;
    let f = params.max_faults();
    // Validate size and graph before any sockets are opened (n < 2 etc.);
    // the mesh then only dials where a topology edge crosses.
    let base = with_topology(o, SimConfig::try_new(o.n).map_err(|e| e.to_string())?)?;
    let substrate = transport_substrate(o)?;
    let opts = RunOpts {
        recv_timeout: o.recv_timeout,
        ..RunOpts::default()
    };
    match o.proto.as_str() {
        "le" => {
            let cfg = base.seed(seed).max_rounds(params.le_round_budget());
            let mut adv = le_adversary(&o.adversary, f)?;
            let factory = |_| LeNode::new(params.clone());
            let res = substrate.run(&cfg, factory, adv.as_mut(), &opts)?;
            let out = LeOutcome::evaluate(&res.run);
            Ok(ClusterTrial {
                success: out.success,
                outcome: out.agreed_leader.map_or(-1, |r| r.0 as i64),
                metrics: res.run.metrics,
                net: res.net,
            })
        }
        "agree" => {
            let stride = if o.zeros <= 0.0 {
                u32::MAX
            } else {
                (1.0 / o.zeros).round().max(1.0) as u32
            };
            let cfg = base.seed(seed).max_rounds(params.agreement_round_budget());
            let mut adv = agree_adversary(&o.adversary, f)?;
            let factory = |id: NodeId| {
                AgreeNode::new(
                    params.clone(),
                    !(stride != u32::MAX && id.0.is_multiple_of(stride)),
                )
            };
            let res = substrate.run(&cfg, factory, adv.as_mut(), &opts)?;
            let out = AgreeOutcome::evaluate(&res.run);
            Ok(ClusterTrial {
                success: out.success,
                outcome: out.agreed_value.map_or(-1, i64::from),
                metrics: res.run.metrics,
                net: res.net,
            })
        }
        other => Err(format!("unknown protocol {other} (le|agree)")),
    }
}

fn cmd_cluster(o: &Opts) -> Result<(), String> {
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
    for trial in 0..o.trials.max(1) {
        let seed = o.seed.wrapping_add(trial);
        let t = cluster_trial(o, seed)?;
        if t.success {
            successes += 1;
        }
        if let Some(w) = writer.as_mut() {
            w.emit(&[
                Value::UInt(trial),
                Value::UInt(seed),
                Value::Str(o.transport.clone()),
                Value::Str(o.proto.clone()),
                Value::Bool(t.success),
                Value::Int(t.outcome),
                Value::UInt(t.metrics.msgs_sent),
                Value::UInt(t.metrics.bits_sent),
                Value::UInt(u64::from(t.metrics.rounds)),
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
    }
    if writer.is_none() {
        let total = o.trials.max(1);
        if o.transport == "mesh" {
            println!(
                "cluster (mesh, {} protocol): n={} alpha={} adversary={} procs={} trials={total}",
                o.proto, o.n, o.alpha, o.adversary, o.procs
            );
        } else {
            println!(
                "cluster ({}, {} protocol): n={} alpha={} adversary={} workers={} trials={total}",
                o.transport, o.proto, o.n, o.alpha, o.adversary, o.workers
            );
        }
        println!("  success: {successes}/{total}");
        println!("  messages: mean {:.0} (p95 {:.0})", msgs.mean, msgs.p95);
        println!("  wire bytes: mean {:.0} (p95 {:.0})", wire.mean, wire.p95);
        if let Some(t) = trials.last() {
            let what = if o.proto == "le" {
                format!("leader rank {}", t.outcome)
            } else {
                format!("decision {}", t.outcome)
            };
            println!(
                "  last trial: {} in {} rounds, {} crashes survived",
                what,
                t.metrics.rounds,
                t.metrics.crash_count()
            );
        }
    }
    if successes < o.trials.max(1) {
        return Err(format!(
            "{} of {} cluster trials failed",
            o.trials.max(1) - successes,
            o.trials.max(1)
        ));
    }
    Ok(())
}

/// The substrate `--transport` names, at the width `--workers` (channel)
/// or `--procs` (mesh) gives it.
fn transport_substrate(o: &Opts) -> Result<Substrate, String> {
    let width = if o.transport == "mesh" {
        o.procs
    } else {
        o.workers
    };
    Substrate::parse(&format!("{}:{width}", o.transport))
}

/// Builds the service spec shared by `serve` and `loadgen`.
fn serve_config(o: &Opts) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig::new(o.n, o.alpha)
        .seed(o.seed)
        .heights(o.heights)
        .window_rounds(o.window)
        .substrate(Substrate::parse(&o.substrate)?)
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

fn cmd_serve(o: &Opts) -> Result<(), String> {
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
            o.n, o.alpha, o.heights, o.substrate, o.seed
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

fn cmd_loadgen(o: &Opts) -> Result<(), String> {
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

fn cmd_hunt(o: &Opts) -> Result<(), String> {
    if o.positional.first().map(String::as_str) == Some("portfolio") {
        return cmd_hunt_portfolio(o);
    }
    let proto = ProtoKind::parse(&o.proto)?;
    let objective = Objective::parse(&o.objective)?;
    let strategy = Strategy::parse(&o.strategy)?;
    let params = Params::new(o.n, o.alpha).map_err(|e| e.to_string())?;
    let cfg = SimConfig::try_new(o.n)
        .map_err(|e| e.to_string())?
        .max_rounds(proto.round_budget(&params));
    // Wire faults only exist below a real transport, so `--wire-faults`
    // moves the whole hunt onto the `--transport` substrate; plain hunts
    // stay on the (much faster, observation-identical) engine.
    let substrate = if o.wire_faults {
        transport_substrate(o)?
    } else {
        Substrate::Engine
    };
    let spec = HuntSpec {
        proto,
        objective,
        params,
        cfg,
        zeros: o.zeros,
        budget: o.budget,
        probes: o.probes,
        seed: o.seed,
        jobs: o.jobs,
        strategy,
        substrate,
        wire: o.wire_faults,
    };
    let report = run_hunt(&spec)?;
    if let Some(w) = o.format.is_machine().then(|| {
        RowWriter::new(
            o.format,
            &["generation", "best_score", "hits", "champion_score"],
        )
    }) {
        let mut w = w;
        for g in &report.generations {
            w.emit(&[
                Value::UInt(g.generation),
                Value::Float(g.best_score),
                Value::UInt(g.hits),
                Value::Float(g.champion_score),
            ]);
        }
    }

    let champ = &report.champion;
    let reduced = shrink(
        &spec,
        &report.bounds,
        champ.probe_seed,
        champ.score,
        &champ.plan,
    );
    let mut art_cfg = spec.cfg.clone();
    art_cfg.seed = champ.probe_seed;
    let artifact = Artifact {
        version: ARTIFACT_VERSION,
        proto,
        objective,
        alpha: o.alpha,
        zeros: o.zeros,
        height: None,
        config: art_cfg,
        schedule: reduced.plan.clone(),
        wire: champ.wire.clone(),
        score: objective.score(&reduced.observation),
        hit: objective.hit(&reduced.observation, &report.bounds),
        fingerprint: reduced.observation.fingerprint.clone(),
    };
    // Cross-check before emitting: the artifact must replay bit-for-bit on
    // the engine and on the real channel runtime (PR-3 bit-equivalence) —
    // plus the hunted substrate itself when wire faults are on, so the
    // wire plan is re-applied where it was found.
    let mut check_on = vec![Substrate::Engine, Substrate::Channel(o.workers)];
    if o.wire_faults {
        check_on.push(substrate);
    }
    for substrate in check_on {
        let check = artifact.replay(substrate)?;
        if !check.ok() {
            return Err(format!(
                "hunted schedule does not replay on {}: {check:?}",
                substrate.label()
            ));
        }
    }
    if !o.format.is_machine() {
        println!(
            "hunt: proto={} objective={} strategy={} n={} alpha={} seed={}",
            proto.name(),
            objective.name(),
            strategy.name(),
            o.n,
            o.alpha,
            o.seed
        );
        println!(
            "  evaluated {} schedules in {} generations, {} hit the objective",
            report.evaluated,
            report.generations.len(),
            report.hits
        );
        println!(
            "  bounds: whp message bound {:.0}, round budget {}",
            report.bounds.message_bound, report.bounds.round_budget
        );
        println!(
            "  champion: score {} ({}) at trial {}, probe seed {}",
            champ.score,
            if artifact.hit {
                "counterexample"
            } else {
                "no counterexample"
            },
            champ.trial,
            champ.probe_seed
        );
        println!(
            "  shrunk: {} -> {} crash entries ({} reduction probes)",
            reduced.entries_before, reduced.entries_after, reduced.probes
        );
        if let Some(wire) = &artifact.wire {
            let (_, residue) = wire.degrade();
            println!(
                "  wire faults: {} entr{} on {} (engine residue: {})",
                wire.len(),
                if wire.len() == 1 { "y" } else { "ies" },
                o.transport,
                if residue.is_empty() {
                    "none".to_string()
                } else {
                    residue.join("; ")
                }
            );
        }
        if o.wire_faults {
            println!("  replay: engine ok, channel ok, {} ok", o.transport);
        } else {
            println!("  replay: engine ok, channel ok");
        }
    }
    if let Some(path) = &o.out {
        std::fs::write(path, artifact.render()).map_err(|e| format!("{path}: {e}"))?;
        if !o.format.is_machine() {
            println!("  artifact written to {path}");
        }
    }
    if o.expect_hit && !artifact.hit {
        return Err(format!(
            "--expect-hit: no counterexample found (champion score {})",
            artifact.score
        ));
    }
    if o.expect_empty && artifact.hit {
        return Err(format!(
            "--expect-empty: found a counterexample (objective {}, score {}, {} crash entries)",
            artifact.objective.name(),
            artifact.score,
            artifact.schedule.entries().len()
        ));
    }
    Ok(())
}

fn cmd_replay(o: &Opts) -> Result<(), String> {
    let path = o
        .positional
        .first()
        .ok_or("replay needs an artifact file: ftc replay <file>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let artifact = Artifact::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let substrates = [
        ("engine", Substrate::Engine),
        (o.transport.as_str(), transport_substrate(o)?),
    ];
    let mut writer = o.format.is_machine().then(|| {
        RowWriter::new(
            o.format,
            &[
                "substrate",
                "fingerprint_ok",
                "verdict_ok",
                "success",
                "msgs",
                "rounds",
            ],
        )
    });
    let mut failures = 0u32;
    for (name, substrate) in substrates {
        let report = artifact.replay(substrate)?;
        if !report.ok() {
            failures += 1;
        }
        if let Some(w) = writer.as_mut() {
            w.emit(&[
                Value::Str(name.into()),
                Value::Bool(report.fingerprint_matches),
                Value::Bool(report.verdict_matches),
                Value::Bool(report.observation.fingerprint.success),
                Value::UInt(report.observation.fingerprint.msgs_sent),
                Value::UInt(u64::from(report.observation.fingerprint.rounds)),
            ]);
        } else {
            println!(
                "replay {} on {}: fingerprint {}, verdict {} (score {}, hit {})",
                path,
                name,
                if report.fingerprint_matches {
                    "reproduced"
                } else {
                    "DIVERGED"
                },
                if report.verdict_matches {
                    "reproduced"
                } else {
                    "DIVERGED"
                },
                artifact.score,
                artifact.hit
            );
        }
    }
    if failures > 0 {
        return Err(format!("{failures} replay substrate(s) diverged"));
    }
    Ok(())
}

/// Resolves `hunt portfolio run`'s argument: a registry name, or a path
/// to a JSON portfolio spec.
fn resolve_hunt_spec(arg: &str, smoke: bool) -> Result<HuntCampaignSpec, String> {
    if let Some(spec) = ftc::chaos::campaigns::named(arg, smoke) {
        return Ok(spec);
    }
    if std::path::Path::new(arg).exists() {
        let text = std::fs::read_to_string(arg).map_err(|e| format!("{arg}: {e}"))?;
        let json = ftc::sim::json::Json::parse(&text).map_err(|e| format!("{arg}: {e}"))?;
        return HuntCampaignSpec::from_json(&json).map_err(|e| format!("{arg}: {e}"));
    }
    Err(format!(
        "`{arg}` is neither a known portfolio ({}) nor a spec file",
        ftc::chaos::campaigns::names().join("|")
    ))
}

/// A portfolio-record argument: a file path if one exists there, else a
/// store id or unique prefix (matched against `hunt`-kind records only).
fn load_hunt_record_arg(store: &Store, arg: &str) -> Result<HuntCampaignRecord, String> {
    let read = |path: &std::path::Path| -> Result<HuntCampaignRecord, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        HuntCampaignRecord::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let path = std::path::Path::new(arg);
    if path.exists() {
        return read(path);
    }
    let matches: Vec<String> = store
        .list()
        .map_err(|e| e.to_string())?
        .into_iter()
        .filter(|e| e.kind == "hunt" && e.id.starts_with(arg))
        .map(|e| e.id)
        .collect();
    match matches.len() {
        1 => read(&store.dir().join(format!("{}.json", matches[0]))),
        0 => Err(format!(
            "no portfolio record matching `{arg}` in {}",
            store.dir().display()
        )),
        k => Err(format!(
            "`{arg}` is ambiguous ({k} portfolio records match)"
        )),
    }
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
        ftc::chaos::coverage::BUCKETS,
        record.coverage.fraction() * 100.0,
        record.coverage.entries()
    );
}

/// `ftc hunt portfolio <run|gate>`: campaign-scale adversary search.
fn cmd_hunt_portfolio(o: &Opts) -> Result<(), String> {
    let verb = o
        .positional
        .get(1)
        .ok_or("hunt portfolio needs a verb: ftc hunt portfolio <run|gate> ...")?;
    let store = Store::at(&o.store);
    match verb.as_str() {
        "run" => {
            let arg = o
                .positional
                .get(2)
                .ok_or("hunt portfolio run needs a portfolio name or spec file")?;
            let spec = resolve_hunt_spec(arg, o.smoke)?;
            let record = run_hunt_campaign(&spec, o.jobs)?;
            let id = record.id();
            store
                .put_rendered(&id, &record.to_json(true).render())
                .map_err(|e| e.to_string())?;
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
        "gate" => {
            let base = load_hunt_record_arg(
                &store,
                &o.positional
                    .get(2)
                    .cloned()
                    .ok_or("hunt portfolio gate needs a record id or file")?,
            )?;
            let fresh = run_hunt_campaign(&base.spec, o.jobs)?;
            if fresh.deterministic_render() == base.deterministic_render() {
                println!(
                    "ok: portfolio {} reproduced bit-for-bit ({} cells, coverage {:.1}%)",
                    base.id(),
                    base.cells.len(),
                    base.coverage.fraction() * 100.0
                );
                Ok(())
            } else {
                Err(format!(
                    "portfolio drifted from baseline {}: fresh deterministic id is {}",
                    base.id(),
                    fresh.id()
                ))
            }
        }
        other => Err(format!("unknown hunt portfolio verb {other} (run|gate)")),
    }
}

/// The substrate the `lab` verbs run on: `--substrate`, upgraded to the
/// sharded engine when `--intra-jobs J` asks for intra-trial parallelism.
fn lab_substrate(o: &Opts) -> Result<Substrate, String> {
    let substrate = Substrate::parse(&o.substrate)?;
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

/// Resolves `lab run`'s campaign argument: a registry name, or a path to
/// a JSON spec file.
fn resolve_spec(arg: &str, smoke: bool) -> Result<CampaignSpec, String> {
    if let Some(spec) = ftc::lab::campaigns::named(arg, smoke) {
        return Ok(spec);
    }
    if std::path::Path::new(arg).exists() {
        let text = std::fs::read_to_string(arg).map_err(|e| format!("{arg}: {e}"))?;
        let json = ftc::sim::json::Json::parse(&text).map_err(|e| format!("{arg}: {e}"))?;
        return CampaignSpec::from_json(&json).map_err(|e| format!("{arg}: {e}"));
    }
    Err(format!(
        "`{arg}` is neither a known campaign ({}) nor a spec file",
        ftc::lab::campaigns::names().join("|")
    ))
}

fn print_record(record: &CampaignRecord, format: Format) {
    if format == Format::Json {
        println!("{}", record.to_json(true).render());
        return;
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
}

/// `ftc lab <run|list|show|diff|gate|baseline|perf>`.
fn cmd_lab(o: &Opts) -> Result<(), String> {
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
            let spec = resolve_spec(&arg(1, "a campaign name or spec file")?, o.smoke)?;
            let substrate = lab_substrate(o)?;
            let record = run_campaign(&spec, o.jobs, substrate)?;
            let id = store.put(&record).map_err(|e| e.to_string())?;
            print_record(&record, o.format);
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
            print_record(&record, o.format);
            Ok(())
        }
        "diff" => {
            let base = load_record_arg(&store, &arg(1, "a baseline record")?)?;
            let fresh = load_record_arg(&store, &arg(2, "a fresh record")?)?;
            let tol = o.tolerance.map_or_else(Tolerance::exact, Tolerance::banded);
            report_diff(&base, &fresh, &tol)
        }
        "gate" => {
            let base = load_record_arg(&store, &arg(1, "a baseline record or file")?)?;
            let substrate = lab_substrate(o)?;
            let fresh = run_campaign(&base.spec, o.jobs, substrate)?;
            let tol = o.tolerance.map_or_else(Tolerance::exact, Tolerance::banded);
            report_diff(&base, &fresh, &tol)
        }
        "baseline" => {
            let dir = std::path::Path::new(o.out.as_deref().unwrap_or("."));
            std::fs::create_dir_all(dir).map_err(|e| format!("--out {}: {e}", dir.display()))?;
            let only = o.positional.get(1);
            let all = [
                ("le-scaling", ftc::lab::baseline::BENCH_LE),
                ("agree-scaling", ftc::lab::baseline::BENCH_AGREE),
                ("engine-bench", ftc::lab::baseline::BENCH_ENGINE),
                ("scale-bench", ftc::lab::baseline::BENCH_ENGINE),
                ("wire-throughput", ftc::lab::baseline::BENCH_ENGINE),
            ];
            if let Some(name) = only {
                if !all.iter().any(|(n, _)| n == name) {
                    return Err(format!(
                        "lab baseline: unknown campaign {name} \
                         (le-scaling|agree-scaling|engine-bench|scale-bench|wire-throughput)"
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
            for (name, file) in all {
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
                let spec = ftc::lab::campaigns::named(name, o.smoke).expect("registry name");
                let record = run_campaign(&spec, o.jobs, substrate)?;
                let id = store.put(&record).map_err(|e| e.to_string())?;
                let path = dir.join(file);
                let entries =
                    ftc::lab::baseline::export(&record, &path).map_err(|e| e.to_string())?;
                print_record(&record, o.format);
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
                .and_then(ftc::sim::json::Json::as_str)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .to_string();
            let base_hash = entry
                .field("spec_hash")
                .and_then(ftc::sim::json::Json::as_str)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .to_string();
            // The committed trajectory may be at either scale; pick the
            // registry variant whose spec hash matches the entry.
            let spec = [false, true]
                .into_iter()
                .filter_map(|smoke| ftc::lab::campaigns::named(&name, smoke))
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

/// A record argument: a file path if one exists there, else a store id.
fn load_record_arg(store: &Store, arg: &str) -> Result<CampaignRecord, String> {
    let path = std::path::Path::new(arg);
    if path.exists() {
        Store::load_path(path).map_err(|e| format!("{arg}: {e}"))
    } else {
        store.resolve(arg).map_err(|e| e.to_string())
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

fn usage() -> &'static str {
    "usage: ftc <le|agree|sweep|trace|cluster|serve|loadgen|hunt|replay> [--n N] [--alpha A] \
     [--seed S] [--trials T] [--zeros Z] \
     [--adversary none|eager|random|targeted] [--topology complete|diam2:<c>|rr:<d>] \
     [--caps c1,c2,none] \
     [--format human|csv|json] [--csv] [--jobs J] [--proto le|agree] \
     [--transport channel|mesh] [--workers W] [--procs P] [--recv-timeout SECS] \
     [--objective two-leaders|disagreement|failure|max-messages|max-rounds] \
     [--strategy random|guided|anneal] [--budget B] [--probes P] [--out FILE] \
     [--wire-faults] [--expect-hit|--expect-empty]\n\
     ftc hunt portfolio run <name|spec.json> [--smoke] [--jobs J] [--store DIR] \
     [--min-coverage F] [--expect-hit|--expect-empty] [--format human|json]\n\
     ftc hunt portfolio gate <record|file> [--jobs J] [--store DIR]\n\
     ftc serve   [--n N] [--alpha A] [--seed S] [--heights H] [--kill-every K] \
     [--bystanders B] [--rejoin-after R] [--window W] [--substrate engine|channel:W|mesh:P] \
     [--inject-split-brain H] [--out DIR] [--format human|csv|json]\n\
     ftc loadgen [--n N] [--heights H] [--arrivals A] [--capacity C] [--window W] \
     [--kill-every K] [--format human|csv|json]\n\
     ftc replay <artifact.json> [--transport channel|mesh] [--workers W] [--procs P]\n\
     ftc lab run <campaign|spec.json> [--smoke] [--jobs J] [--intra-jobs J] [--store DIR] \
     [--substrate engine|channel:W|mesh:P] [--format human|json]\n\
     ftc lab list [--kind lab|hunt] [--store DIR]\n\
     ftc lab show <id> [--store DIR]\n\
     ftc lab diff <baseline> <fresh> [--tolerance F]\n\
     ftc lab gate <baseline> [--jobs J] [--tolerance F]\n\
     ftc lab baseline [NAME] [--smoke] [--jobs J] [--intra-jobs J] [--out DIR]\n\
     ftc lab perf <trajectory.json> [--campaign NAME] [--jobs J] [--intra-jobs J] [--tolerance F]"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let opts = match parse_opts(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "le" => cmd_le(&opts),
        "agree" => cmd_agree(&opts),
        "sweep" => cmd_sweep(&opts),
        "trace" => cmd_trace(&opts),
        "cluster" => cmd_cluster(&opts),
        "serve" => cmd_serve(&opts),
        "loadgen" => cmd_loadgen(&opts),
        "hunt" => cmd_hunt(&opts),
        "replay" => cmd_replay(&opts),
        "lab" => cmd_lab(&opts),
        other => Err(format!("unknown command {other}\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_apply_without_flags() {
        let o = parse_opts(&[]).unwrap();
        assert_eq!(o.n, 1024);
        assert_eq!(o.adversary, "random");
        assert_eq!(o.format, Format::Human);
        assert_eq!(o.transport, "mesh");
        assert_eq!(o.workers, 4);
    }

    #[test]
    fn flags_override_defaults() {
        let o = parse_opts(&args(
            "--n 256 --alpha 0.25 --trials 3 --format json --adversary eager",
        ))
        .unwrap();
        assert_eq!(o.n, 256);
        assert_eq!(o.alpha, 0.25);
        assert_eq!(o.trials, 3);
        assert_eq!(o.format, Format::Json);
        assert_eq!(o.adversary, "eager");
    }

    #[test]
    fn serve_flags_parse_and_validate() {
        let o = parse_opts(&args(
            "--heights 50 --kill-every 5 --bystanders 1 --rejoin-after 2 \
             --window 8 --arrivals 3 --capacity 6 --inject-split-brain 7",
        ))
        .unwrap();
        assert_eq!(o.heights, 50);
        assert_eq!(o.kill_every, 5);
        assert_eq!(o.bystanders, 1);
        assert_eq!(o.rejoin_after, 2);
        assert_eq!(o.window, 8);
        assert_eq!(o.arrivals, 3);
        assert_eq!(o.capacity, 6);
        assert_eq!(o.inject_split_brain, Some(7));
        // Defaults: monitor armed, no injection.
        let d = parse_opts(&[]).unwrap();
        assert_eq!(d.heights, 20);
        assert_eq!(d.inject_split_brain, None);
        // A service with zero heights or a zero-size window is meaningless.
        assert!(parse_opts(&args("--heights 0")).is_err());
        assert!(parse_opts(&args("--window 0")).is_err());
        assert!(parse_opts(&args("--capacity 0")).is_err());
    }

    #[test]
    fn split_brain_injection_past_the_last_height_is_rejected() {
        let o = parse_opts(&args("--n 16 --heights 4 --inject-split-brain 9")).unwrap();
        assert!(serve_config(&o)
            .unwrap_err()
            .contains("past the last height"));
    }

    #[test]
    fn topology_flag_parses_and_is_validated_against_n() {
        let o = parse_opts(&args("--n 128 --topology diam2:6")).unwrap();
        assert_eq!(o.topology, Topology::DiameterTwo { clusters: 6 });
        assert!(with_topology(&o, SimConfig::new(o.n)).is_ok());
        let o = parse_opts(&args("--n 128 --topology rr:8")).unwrap();
        assert_eq!(o.topology, Topology::RandomRegular { d: 8 });
        assert_eq!(
            parse_opts(&[]).unwrap().topology,
            Topology::Complete,
            "the paper's model stays the default"
        );
        // Junk shapes die at parse time, impossible parameters at
        // config time — with the ConfigError's context, not a panic.
        assert!(parse_opts(&args("--topology torus")).is_err());
        assert!(parse_opts(&args("--topology rr:x")).is_err());
        let o = parse_opts(&args("--n 8 --topology rr:9")).unwrap();
        let err = with_topology(&o, SimConfig::new(o.n)).unwrap_err();
        assert!(err.contains("degree"), "{err}");
    }

    #[test]
    fn csv_flag_is_an_alias_for_format_csv() {
        let o = parse_opts(&args("--csv")).unwrap();
        assert_eq!(o.format, Format::Csv);
        assert!(parse_opts(&args("--format xml")).is_err());
    }

    #[test]
    fn cluster_flags_are_validated_at_parse_time() {
        let o = parse_opts(&args("--proto agree --transport channel --workers 2")).unwrap();
        assert_eq!(o.proto, "agree");
        assert_eq!(o.transport, "channel");
        assert_eq!(o.workers, 2);
        assert!(parse_opts(&args("--proto paxos")).is_err());
        assert!(parse_opts(&args("--transport carrier-pigeon")).is_err());
        assert!(parse_opts(&args("--transport engine")).is_err());
        assert!(parse_opts(&args("--workers 0")).is_err());
        // The retired per-edge runtime is refused with its replacement,
        // on both flags that used to take it.
        for retired in ["--transport tcp", "--substrate tcp:2"] {
            let err = parse_opts(&args(retired)).unwrap_err();
            assert!(err.contains("--transport mesh --procs <n>"), "{err}");
        }
        let o = parse_opts(&args("--transport mesh --procs 8")).unwrap();
        assert_eq!(transport_substrate(&o), Ok(Substrate::Mesh(8)));
        let o = parse_opts(&args("--transport channel --workers 3")).unwrap();
        assert_eq!(transport_substrate(&o), Ok(Substrate::Channel(3)));
    }

    #[test]
    fn recv_timeout_parses_seconds_and_rejects_nonsense() {
        assert_eq!(parse_opts(&args("")).unwrap().recv_timeout, RECV_TIMEOUT);
        let o = parse_opts(&args("--recv-timeout 5")).unwrap();
        assert_eq!(o.recv_timeout, Duration::from_secs(5));
        let o = parse_opts(&args("--recv-timeout 0.25")).unwrap();
        assert_eq!(o.recv_timeout, Duration::from_millis(250));
        assert!(parse_opts(&args("--recv-timeout 0")).is_err());
        assert!(parse_opts(&args("--recv-timeout -3")).is_err());
        assert!(parse_opts(&args("--recv-timeout soon")).is_err());
    }

    #[test]
    fn caps_parse_with_none() {
        let o = parse_opts(&args("--caps none,64,1")).unwrap();
        assert_eq!(o.caps, vec![None, Some(64), Some(1)]);
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(parse_opts(&args("--bogus 1")).is_err());
        assert!(parse_opts(&args("--n")).is_err());
    }

    #[test]
    fn zero_trials_and_zero_jobs_are_rejected_at_parse_time() {
        let err = parse_opts(&args("--trials 0")).unwrap_err();
        assert!(err.contains("--trials"), "{err}");
        let err = parse_opts(&args("--jobs 0")).unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        assert!(parse_opts(&args("--trials 1 --jobs 1")).is_ok());
    }

    #[test]
    fn hunt_flags_parse_and_validate() {
        let o = parse_opts(&args(
            "--objective max-messages --strategy anneal --budget 32 --probes 2 --out /tmp/a.json",
        ))
        .unwrap();
        assert_eq!(o.objective, "max-messages");
        assert_eq!(o.strategy, "anneal");
        assert_eq!(o.budget, 32);
        assert_eq!(o.probes, 2);
        assert_eq!(o.out.as_deref(), Some("/tmp/a.json"));
        assert!(parse_opts(&args("--objective world-peace")).is_err());
        assert!(parse_opts(&args("--strategy bfs")).is_err());
        assert!(parse_opts(&args("--budget 0")).is_err());
        assert!(parse_opts(&args("--probes 0")).is_err());
    }

    #[test]
    fn positional_arguments_are_collected() {
        let o = parse_opts(&args("results/ce.json --workers 2")).unwrap();
        assert_eq!(o.positional, vec!["results/ce.json".to_string()]);
        assert_eq!(o.workers, 2);
    }

    #[test]
    fn end_to_end_hunt_then_replay() {
        let out = std::env::temp_dir().join(format!("ftc-hunt-cli-{}.json", std::process::id()));
        let o = Opts {
            n: 16,
            alpha: 0.5,
            seed: 9,
            budget: 8,
            probes: 1,
            proto: "le".into(),
            objective: "max-messages".into(),
            transport: "channel".into(),
            workers: 2,
            jobs: 1,
            out: Some(out.to_string_lossy().into_owned()),
            ..Opts::default()
        };
        cmd_hunt(&o).unwrap();
        let replay = Opts {
            positional: vec![out.to_string_lossy().into_owned()],
            ..o
        };
        cmd_replay(&replay).unwrap();
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn replay_of_a_missing_file_is_a_clean_error() {
        let o = Opts {
            positional: vec!["/nonexistent/ce.json".into()],
            ..Opts::default()
        };
        assert!(cmd_replay(&o).is_err());
        // No positional argument at all.
        assert!(cmd_replay(&Opts::default()).is_err());
    }

    #[test]
    fn adversary_factories_validate_names() {
        assert!(le_adversary("random", 3).is_ok());
        assert!(le_adversary("martian", 3).is_err());
        assert!(agree_adversary("targeted", 3).is_ok());
        assert!(agree_adversary("martian", 3).is_err());
    }

    #[test]
    fn end_to_end_small_le_run() {
        let o = Opts {
            n: 128,
            alpha: 0.5,
            trials: 2,
            ..Opts::default()
        };
        cmd_le(&o).unwrap();
        cmd_agree(&o).unwrap();
    }

    #[test]
    fn end_to_end_small_cluster_run_over_channels() {
        let o = Opts {
            n: 16,
            alpha: 0.5,
            trials: 2,
            transport: "channel".into(),
            workers: 2,
            adversary: "eager".into(),
            ..Opts::default()
        };
        cmd_cluster(&o).unwrap();
        let agree = Opts {
            proto: "agree".into(),
            ..o
        };
        cmd_cluster(&agree).unwrap();
    }

    #[test]
    fn expectation_flags_parse_and_exclude_each_other() {
        let o = parse_opts(&args("--expect-hit")).unwrap();
        assert!(o.expect_hit && !o.expect_empty);
        let o = parse_opts(&args("--expect-empty")).unwrap();
        assert!(o.expect_empty && !o.expect_hit);
        assert!(parse_opts(&args("--expect-hit --expect-empty")).is_err());
        assert!(parse_opts(&args("--expect-empty --expect-hit")).is_err());
        assert!(parse_opts(&args("--wire-faults")).unwrap().wire_faults);
    }

    #[test]
    fn coverage_and_kind_flags_validate_their_values() {
        let o = parse_opts(&args("--min-coverage 0.25")).unwrap();
        assert_eq!(o.min_coverage, Some(0.25));
        assert!(parse_opts(&args("--min-coverage 1.5")).is_err());
        assert!(parse_opts(&args("--min-coverage -0.1")).is_err());
        assert_eq!(
            parse_opts(&args("--kind hunt")).unwrap().kind.as_deref(),
            Some("hunt")
        );
        assert_eq!(
            parse_opts(&args("--kind lab")).unwrap().kind.as_deref(),
            Some("lab")
        );
        assert!(parse_opts(&args("--kind martian")).is_err());
    }

    #[test]
    fn end_to_end_portfolio_run_and_gate() {
        let dir = std::env::temp_dir().join(format!("ftc-portfolio-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A one-cell portfolio file keeps this test fast while still
        // driving spec resolution, the store round-trip, and the gate.
        let spec = ftc::chaos::prelude::HuntCampaignSpec::new("cli-unit").cell(
            ftc::chaos::prelude::HuntCellSpec {
                label: "le-msgs".into(),
                proto: ProtoKind::Le,
                objective: Objective::MaxMessages,
                strategy: Strategy::Random,
                n: 16,
                alpha: 0.5,
                zeros: 0.05,
                budget: 4,
                probes: 1,
                seed: 9,
                wire: false,
            },
        );
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("spec.json");
        std::fs::write(&spec_path, spec.to_json().render()).unwrap();
        let store = dir.join("store");
        let o = Opts {
            positional: vec![
                "portfolio".into(),
                "run".into(),
                spec_path.to_string_lossy().into_owned(),
            ],
            store: store.to_string_lossy().into_owned(),
            jobs: 2,
            min_coverage: Some(0.01),
            expect_hit: true,
            ..Opts::default()
        };
        cmd_hunt(&o).unwrap();
        // The stored record gates clean against a fresh re-run, by id prefix.
        let gate = Opts {
            positional: vec!["portfolio".into(), "gate".into(), "cli-unit".into()],
            store: store.to_string_lossy().into_owned(),
            ..Opts::default()
        };
        cmd_hunt(&gate).unwrap();
        // An unknown portfolio name is a clean error naming the registry.
        let bad = Opts {
            positional: vec!["portfolio".into(), "run".into(), "martian".into()],
            store: store.to_string_lossy().into_owned(),
            ..Opts::default()
        };
        let err = cmd_hunt(&bad).unwrap_err();
        assert!(err.contains("adversary-portfolio"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_cluster_params_fail_fast_with_a_clear_error() {
        // n below the model minimum.
        let o = Opts {
            n: 1,
            transport: "channel".into(),
            ..Opts::default()
        };
        let err = cmd_cluster(&o).unwrap_err();
        assert!(err.contains("at least two"), "{err}");
        // alpha below the paper's log²n/n floor.
        let o = Opts {
            n: 1024,
            alpha: 0.001,
            transport: "channel".into(),
            ..Opts::default()
        };
        let err = cmd_cluster(&o).unwrap_err();
        assert!(err.to_lowercase().contains("alpha"), "{err}");
    }
}
