//! The repo's benchmark: six named workloads over the engine, channel,
//! mesh and serve layers, each in its own process, with end-to-end
//! metrics (tracing off) and per-layer metrics (`--trace 1`). See
//! `README.md` for the workloads, the metrics and what each predicts.
//!
//! Names, units and bounds come from `BENCHMARK.json` at the repo root,
//! compiled in, so what is printed cannot drift from what is gated.

mod kernels;
mod load;
mod stats;
mod timed;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::env;
use std::fs;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::thread::available_parallelism;
use std::time::{Duration, Instant};

use ftc_sim::json::Json;

use load::{ChatterLoad, LeLoad};
use trace::Tracer;
use workloads::{end_to_end, Net, NetWorkload, ServeWorkload, SimWorkload, Workload, TRACED_RUNS};

const SPEC: &str = include_str!("../../BENCHMARK.json");

/// Set-ups per untraced run: `setup_s` is their median, and a set-up
/// shorter than a second is too noisy for a median of three, so short
/// ones repeat until [`SETUP_BUDGET`] is spent.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_secs(3);
/// Runs whose digests make up the `counts` line: few enough that every
/// window completes them, so the line repeats exactly for a seed.
const COUNTED_RUNS: usize = 16;

const USAGE: &str = "\
usage: ftc-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1 | --traced]
                     [--check-repeat] [--corrupt-reference]

  no --workload     run every workload, each in its own process
  --seed N          workload seed (default 1; 7 is the hold-out)
  --seconds N       length of the timed window (default: run_seconds of BENCHMARK.json)
  --trace 1         per-layer metrics from the traced pass instead of end-to-end metrics
  --check-repeat    run the untraced suite twice, fail if a metric moves by more than its bound
  --corrupt-reference   test-only: falsify one reference so the correctness gate must fire";

struct MetricSpec {
    name: String,
    unit: String,
    /// Share of the parent's value an end-to-end metric may worsen by.
    bound: Option<f64>,
}

struct Spec {
    workloads: Vec<String>,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
    run_seconds: u64,
}

impl Spec {
    fn parse() -> Result<Spec, String> {
        let doc = Json::parse(SPEC).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            let list = doc.field(key).and_then(Json::as_arr);
            list.map_err(|e| e.to_string())?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: m.field("name")?.as_str()?.to_string(),
                        unit: m.field("unit")?.as_str()?.to_string(),
                        bound: m.get("bound").map(Json::as_f64).transpose()?,
                    })
                })
                .collect::<Result<_, ftc_sim::json::JsonError>>()
                .map_err(|e| e.to_string())
        };
        let workloads = doc
            .field("workloads")
            .and_then(Json::as_arr)
            .map_err(|e| e.to_string())?
            .iter()
            .map(|w| Ok(w.field("name")?.as_str()?.to_string()))
            .collect::<Result<_, ftc_sim::json::JsonError>>()
            .map_err(|e| e.to_string())?;
        Ok(Spec {
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: doc
                .field("run_seconds")
                .and_then(Json::as_u64)
                .map_err(|e| e.to_string())?,
        })
    }
}

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    check_repeat: bool,
    corrupt_reference: bool,
}

fn parse_args(spec: &Spec) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 1,
        seconds: spec.run_seconds,
        trace: false,
        check_repeat: false,
        corrupt_reference: false,
    };
    let mut args = env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !spec.workloads.contains(&name) {
                    return Err(format!(
                        "unknown workload {name}; one of: {}",
                        spec.workloads.join(", ")
                    ));
                }
                opts.workload = Some(name);
            }
            "--seed" => opts.seed = number(value()?)?,
            "--seconds" => opts.seconds = number(value()?)?.max(1),
            "--trace" => opts.trace = number(value()?)? != 0,
            "--traced" => opts.trace = true,
            "--check-repeat" => opts.check_repeat = true,
            "--corrupt-reference" => opts.corrupt_reference = true,
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.check_repeat && (opts.trace || opts.workload.is_some()) {
        return Err("--check-repeat compares two runs of the whole untraced suite".into());
    }
    Ok(opts)
}

/// What one workload process measured.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64)>,
    /// Seconds each set-up took.
    setups: Vec<f64>,
    /// Deterministic summary of the first [`COUNTED_RUNS`] inputs.
    counts: String,
}

/// High-water mark of this process's resident set, from the kernel.
fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".to_string())
}

fn drive<W: Workload>(
    opts: &Opts,
    name: &str,
    setup: impl Fn() -> Result<W, String>,
) -> Result<Report, String> {
    let started = Instant::now();
    let mut setup_s = Vec::new();
    let mut workload = loop {
        let t0 = Instant::now();
        let workload = setup()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if opts.trace || (setup_s.len() >= MIN_SETUPS && started.elapsed() >= SETUP_BUDGET) {
            break workload;
        }
    };
    if opts.corrupt_reference {
        workload.corrupt_reference();
    }

    if opts.trace {
        let mut tracer = Tracer::new();
        let metrics = workload.traced(&mut tracer).map_err(|e| e.to_string())?;
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{name}-seed{}.jsonl", opts.seed));
        tracer
            .write_jsonl(&out)
            .map_err(|e| format!("{}: {e}", out.display()))?;
        return Ok(Report {
            attempted: TRACED_RUNS,
            failed: 0,
            metrics,
            setups: setup_s,
            counts: String::new(),
        });
    }

    let window = workload.timed(Instant::now() + Duration::from_secs(opts.seconds));
    if window.runs.is_empty() {
        return Err("the window ended before one run did".into());
    }
    let mut first_pass = BTreeMap::new();
    for r in window.runs.iter().filter(|r| r.input < COUNTED_RUNS) {
        first_pass.entry(r.input).or_insert(r);
    }
    let fold = |h: u64, r: &&workloads::Run| h.rotate_left(7) ^ r.digest;
    let counts = format!(
        "inputs={} digest={:016x} rounds={} bytes={}",
        first_pass.len(),
        first_pass.values().fold(0, fold),
        first_pass.values().map(|r| r.rounds).sum::<u64>(),
        first_pass.values().map(|r| r.bytes).sum::<u64>(),
    );
    let mut metrics = vec![("setup_s", stats::median_of(&setup_s))];
    metrics.extend(end_to_end(&window));
    metrics.push(("peak_rss_mb", peak_rss_mb()?));
    Ok(Report {
        attempted: window.runs.len(),
        failed: window.runs.iter().filter(|r| !r.ok).count(),
        metrics,
        setups: setup_s,
        counts,
    })
}

/// Runs one workload in this process and prints its result; the last line
/// is the JSON object the driver reads.
fn run_workload(opts: &Opts, spec: &Spec, name: &str) -> Result<bool, String> {
    let seed = opts.seed;
    let io_err = |e: std::io::Error| e.to_string();
    let report = match name {
        "sim-le-sparse" => drive(opts, name, || {
            Ok(SimWorkload::setup(LeLoad::new(4096, 0.5), seed))
        }),
        "sim-bcast-dense" => drive(opts, name, || {
            Ok(SimWorkload::setup(ChatterLoad { n: 1024 }, seed))
        }),
        "mesh-le-rounds" => drive(opts, name, || {
            NetWorkload::setup(LeLoad::new(256, 0.5), Net::Mesh, seed).map_err(io_err)
        }),
        "mesh-bcast-bytes" => drive(opts, name, || {
            NetWorkload::setup(ChatterLoad { n: 256 }, Net::Mesh, seed).map_err(io_err)
        }),
        "channel-le-rounds" => drive(opts, name, || {
            NetWorkload::setup(LeLoad::new(256, 0.5), Net::Channel, seed).map_err(io_err)
        }),
        "serve-churn" => drive(opts, name, || ServeWorkload::setup(seed)),
        other => Err(format!(
            "workload {other} is in BENCHMARK.json but not implemented"
        )),
    }?;

    let wanted = if opts.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    if let Some((stray, _)) = report
        .metrics
        .iter()
        .find(|(n, _)| !wanted.iter().any(|m| m.name == *n))
    {
        return Err(format!("metric {stray} is not in BENCHMARK.json"));
    }
    println!(
        "# ftc-benchmark workload={name} seed={seed} seconds={} trace={} nproc={}",
        opts.seconds,
        u8::from(opts.trace),
        available_parallelism().map_or(0, |p| p.get()),
    );
    let mut rendered = Vec::new();
    for m in wanted {
        let measured = report.metrics.iter().find(|(n, _)| *n == m.name);
        // A layer that is not on this workload's path reads 0.
        let value = match measured {
            Some(&(_, v)) if v.is_finite() => v,
            Some(_) => return Err(format!("metric {} is not a finite number", m.name)),
            None if opts.trace => 0.0,
            None => return Err(format!("end-to-end metric {} was not measured", m.name)),
        };
        println!("{name:<18} {:<32} {value:>16.4} {}", m.name, m.unit);
        let fields = vec![
            ("value".to_string(), Json::Num(value)),
            ("unit".to_string(), Json::Str(m.unit.clone())),
        ];
        rendered.push((m.name.clone(), Json::Obj(fields)));
    }
    println!(
        "{name:<18} {:<32} {:>16.4} ({} failed of {} runs)",
        "failed_share",
        report.failed as f64 / report.attempted as f64,
        report.failed,
        report.attempted,
    );
    println!("# setups {name} {:.3?}", report.setups);
    if !opts.trace {
        // Fewer than ten runs beyond it and p90 is more noise than tail.
        println!(
            "# samples {name} runs={} beyond_p90={}",
            report.attempted,
            stats::samples_beyond(report.attempted, 0.9)
        );
        println!("# counts {name} {}", report.counts);
    }
    let correct = report.failed == 0;
    let line = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::UInt(report.attempted as u64)),
        ("failed".to_string(), Json::UInt(report.failed as u64)),
        ("metrics".to_string(), Json::Obj(rendered)),
    ]);
    println!("{}", line.render());
    Ok(correct)
}

/// One child's result as the suite sees it.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
    counts: String,
}

/// Re-executes this program for one workload, so its peak RSS is its own,
/// forwards what it printed and parses its last line.
fn run_child(opts: &Opts, name: &str) -> Result<ChildResult, String> {
    let exe = env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if opts.corrupt_reference {
        cmd.arg("--corrupt-reference");
    }
    let out = cmd.output().map_err(|e| format!("{name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (body, last) = text
        .trim_end()
        .rsplit_once('\n')
        .ok_or(format!("{name}: printed no result"))?;
    println!("{body}");
    let doc = Json::parse(last).map_err(|e| format!("{name}: {e}"))?;
    let parsed = || -> Result<ChildResult, ftc_sim::json::JsonError> {
        let mut metrics = BTreeMap::new();
        if let Json::Obj(fields) = doc.field("metrics")? {
            for (metric, v) in fields {
                metrics.insert(metric.clone(), v.field("value")?.as_f64()?);
            }
        }
        let counts = body.lines().find_map(|l| l.strip_prefix("# counts "));
        Ok(ChildResult {
            correct: doc.field("correct")?.as_bool()? && out.status.success(),
            metrics,
            counts: counts.unwrap_or_default().to_string(),
        })
    };
    parsed().map_err(|e| format!("{name}: {e}"))
}

type SuiteResult = BTreeMap<String, ChildResult>;

/// Keeps every core busy for three seconds. A box that sat idle runs its
/// next seconds slow: twice the suite's first workload measured 0.62 s a
/// set-up where its repeat, minutes of load later, measured 0.43 s.
fn wake_cores() {
    let cores = available_parallelism().map_or(1, |p| p.get());
    std::thread::scope(|scope| {
        for _ in 0..cores {
            scope.spawn(|| {
                let t0 = Instant::now();
                while t0.elapsed() < Duration::from_secs(3) {
                    std::hint::spin_loop();
                }
            });
        }
    });
}

fn run_suite(opts: &Opts, spec: &Spec) -> Result<SuiteResult, String> {
    wake_cores();
    let mut results = SuiteResult::new();
    for name in &spec.workloads {
        results.insert(name.clone(), run_child(opts, name)?);
    }
    Ok(results)
}

/// Everything the suite can check across workloads: every child correct;
/// the mesh and channel elections, which run identical inputs, identical
/// in every count; every per-layer metric measured on some workload.
fn suite_ok(opts: &Opts, spec: &Spec, results: &SuiteResult) -> bool {
    let mut ok = true;
    for (name, r) in results.iter().filter(|(_, r)| !r.correct) {
        println!("FAILED {name}: failed runs or non-zero exit ({})", r.counts);
        ok = false;
    }
    if !opts.trace {
        let counts = |w: &str| {
            let line = &results[w].counts;
            line.split_once(' ').map(|(_, rest)| rest.to_string())
        };
        if counts("mesh-le-rounds") != counts("channel-le-rounds") {
            println!("FAILED mesh-le-rounds and channel-le-rounds disagree on identical inputs");
            ok = false;
        }
    } else {
        for m in &spec.per_layer {
            if results.values().all(|r| r.metrics[&m.name] == 0.0) {
                println!(
                    "FAILED per-layer metric {} was measured on no workload",
                    m.name
                );
                ok = false;
            }
        }
    }
    ok
}

/// Runs the untraced suite twice on this build and compares.
fn check_repeat(opts: &Opts, spec: &Spec) -> Result<bool, String> {
    let first = run_suite(opts, spec)?;
    let second = run_suite(opts, spec)?;
    let mut ok = suite_ok(opts, spec, &first) && suite_ok(opts, spec, &second);
    println!("# repeat check: workload metric first second gap bound");
    for (name, a) in &first {
        let b = &second[name];
        for m in &spec.end_to_end {
            let (x, y) = (a.metrics[&m.name], b.metrics[&m.name]);
            let gap = (y - x).abs() / x;
            let bound = m.bound.unwrap_or(f64::INFINITY);
            let verdict = if gap <= bound { "ok" } else { "EXCEEDED" };
            println!(
                "{name:<18} {:<16} {x:>14.4} {y:>14.4} {:>7.2}% {:>5.0}% {verdict}",
                m.name,
                gap * 100.0,
                bound * 100.0
            );
            ok &= gap <= bound;
        }
        if a.counts != b.counts {
            println!("{name:<18} counts differ: [{}] vs [{}]", a.counts, b.counts);
            ok = false;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let parsed = Spec::parse().and_then(|spec| Ok((parse_args(&spec)?, spec)));
    let (opts, spec) = match parsed {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("ftc-benchmark: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &opts.workload {
        Some(name) => run_workload(&opts, &spec, name),
        None if opts.check_repeat => check_repeat(&opts, &spec),
        None => run_suite(&opts, &spec).map(|r| suite_ok(&opts, &spec, &r)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("ftc-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
