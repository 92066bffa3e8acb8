//! The six workloads: what set-up generates from the seed, what one timed
//! run is, how its output is checked, and which layers the traced pass
//! measures. Why each exists is in the README.

use std::fmt::Debug;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ftc_core::prelude::{LeNode, LeOutcome, Params};
use ftc_hunt::proto::{Fingerprint, Substrate};
use ftc_mesh::runtime::run_over_mesh;
use ftc_net::channel;
use ftc_net::sync::{run_over, run_over_channel, NetRunResult};
use ftc_serve::prelude::{
    height_seed, run_service, ChurnPlan, HeightOutcome, LoadGen, LoadProfile, Monitor, ServeConfig,
    ServiceReport,
};
use ftc_sim::adversary::{Adversary, FaultPlan, ScriptedCrash};
use ftc_sim::engine::{run, RunResult, SimConfig};
use ftc_sim::ids::NodeId;
use ftc_sim::payload::Wire;
use ftc_sim::protocol::Protocol;
use ftc_sim::runner::{ParRunner, TrialPlan};

use crate::kernels;
use crate::load::Load;
use crate::stats::median_of;
use crate::timed::{unwrap_run, EndpointTotals, Timed, TimedAdversary, TimedEndpoint};
use crate::trace::Tracer;

/// Distinct inputs a workload generates from its seed; a window that
/// outlasts them starts over at the first.
const INPUTS: usize = 64;
/// Untimed runs that end set-up.
const WARM_UPS: usize = 4;
/// Runs the traced pass repeats, bare and wrapped.
pub const TRACED_RUNS: usize = 20;
/// Worker threads / procs of every workload: the machine's two cores.
const JOBS: usize = 2;
/// A run slower than this counts as failed.
const RUN_TIMEOUT: Duration = Duration::from_secs(30);

/// One timed run, already checked.
pub struct Run {
    /// Which of the [`INPUTS`] it ran.
    pub input: usize,
    pub wall_ns: u64,
    pub rounds: u64,
    /// Bytes moved between nodes (see `wire_mb_per_s` in the README).
    pub bytes: u64,
    /// Success predicate held, reference matched, no error, no timeout.
    pub ok: bool,
    /// Hash of everything deterministic the run produced.
    pub digest: u64,
}

#[derive(Default)]
pub struct Window {
    pub runs: Vec<Run>,
    /// Time the load was on: the runner's batches, or the sum of the runs.
    pub window_ns: u64,
}

/// Per-layer metrics by name.
pub type Layers = Vec<(&'static str, f64)>;

pub trait Workload {
    /// Closed loop over the inputs until `deadline`.
    fn timed(&self, deadline: Instant) -> Window;
    /// The traced pass: [`TRACED_RUNS`] runs bare and wrapped, plus the
    /// kernels of the layers on this workload's path.
    fn traced(&self, tracer: &mut Tracer) -> io::Result<Layers>;
    /// Test-only: makes the first reference wrong.
    fn corrupt_reference(&mut self);
}

/// Hash of a run's deterministic output; `DefaultHasher::new()` is keyed
/// with constants, so equal outputs hash equal across processes.
fn digest(seen: &impl Debug) -> u64 {
    let mut hasher = DefaultHasher::new();
    format!("{seen:?}").hash(&mut hasher);
    hasher.finish()
}

fn checked<T: PartialEq + Debug>(
    input: usize,
    wall: Duration,
    seen: &T,
    success: bool,
    reference: Option<&T>,
    (rounds, bytes): (u64, u64),
) -> Run {
    Run {
        input,
        wall_ns: wall.as_nanos() as u64,
        rounds,
        bytes,
        ok: success && wall <= RUN_TIMEOUT && reference.is_none_or(|r| r == seen),
        digest: digest(seen),
    }
}

fn errored(input: usize, wall: Duration) -> Run {
    Run {
        input,
        wall_ns: wall.as_nanos() as u64,
        rounds: 0,
        bytes: 0,
        ok: false,
        digest: 0,
    }
}

/// `f(0..n)` on [`JOBS`] threads, in index order.
fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    ParRunner::new(TrialPlan::new(0, n as u64).jobs(JOBS))
        .run(|i, _| f(i as usize))
        .outcomes
        .into_iter()
        .map(|o| o.value)
        .collect()
}

fn engine_run<L: Load>(load: &L, cfg: &SimConfig) -> RunResult<L::P> {
    run(cfg, |_| load.node(), &mut load.adversary())
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// A traced run must reproduce its reference like any other.
fn diverged(i: usize) -> io::Error {
    io::Error::other(format!("traced run {i} diverged from its reference"))
}

/// `(traced − untraced) / untraced` over the medians of the two passes.
fn overhead_share(bare_ns: &[f64], traced_ns: &[f64]) -> f64 {
    let bare = median_of(bare_ns);
    (median_of(traced_ns) - bare) / bare
}

/// Engine workloads: Monte-Carlo trials on `ParRunner`, one run = one trial.
pub struct SimWorkload<L: Load> {
    load: L,
    plan: TrialPlan,
    /// Fingerprints of the warm-up trials, which the window runs again.
    refs: Vec<Fingerprint>,
}

impl<L: Load> SimWorkload<L> {
    pub fn setup(load: L, seed: u64) -> Self {
        let plan = TrialPlan::new(seed, INPUTS as u64)
            .jobs(JOBS)
            .timeout(RUN_TIMEOUT);
        let refs = par_map(WARM_UPS, |i| {
            load.fingerprint(&engine_run(&load, &load.config(plan.seed_of(i as u64))))
        });
        SimWorkload { load, plan, refs }
    }
}

impl<L: Load> Workload for SimWorkload<L> {
    fn timed(&self, deadline: Instant) -> Window {
        let mut window = Window::default();
        while Instant::now() < deadline {
            let runner = ParRunner::new(self.plan.clone());
            let abort = runner.abort_handle();
            let batch = runner.run(|_, seed| {
                if Instant::now() >= deadline {
                    abort.abort();
                    return None;
                }
                let r = engine_run(&self.load, &self.load.config(seed));
                Some((self.load.fingerprint(&r), r.metrics.bits_sent / 8))
            });
            window.window_ns += batch.elapsed.as_nanos() as u64;
            for o in batch.outcomes {
                if let Some((seen, bytes)) = o.value {
                    let i = o.trial as usize;
                    window.runs.push(checked(
                        i,
                        o.duration,
                        &seen,
                        seen.success && !o.timed_out,
                        self.refs.get(i),
                        (u64::from(seen.rounds), bytes),
                    ));
                }
            }
        }
        window
    }

    fn traced(&self, tracer: &mut Tracer) -> io::Result<Layers> {
        let load = &self.load;
        let mut trials = self.plan.clone();
        trials.trials = TRACED_RUNS as u64;
        let batch = ParRunner::new(trials).run(|_, seed| {
            engine_run(load, &load.config(seed));
        });
        let trial_ns: u128 = batch.outcomes.iter().map(|o| o.duration.as_nanos()).sum();
        let efficiency = trial_ns as f64 / (JOBS as f64 * batch.elapsed.as_nanos() as f64);

        // jobs = 1 from here on, so wall = step + adversary + engine.
        let (mut bare_ns, mut traced_ns) = (Vec::new(), Vec::new());
        let (mut step_ns, mut calls, mut adversary_ns, mut engine_ns) = (0, 0, 0, 0);
        let mut delivered = 0;
        for i in 0..TRACED_RUNS {
            let cfg = load.config(self.plan.seed_of(i as u64));
            let t0 = Instant::now();
            let r = engine_run(load, &cfg);
            bare_ns.push(t0.elapsed().as_nanos() as f64);
            drop(r);

            let (_, matched) = tracer.span("run", None, i as u64, |t, root| {
                let (layer, (r, adv_ns)) =
                    t.span("sim.engine.run", Some(root), i as u64, |_, _| {
                        let mut adversary = TimedAdversary::new(load.adversary());
                        let r = run(&cfg, |_| Timed::new(load.node()), &mut adversary);
                        (r, adversary.busy_ns)
                    });
                let (r, steps) = unwrap_run(r, 1);
                t.aggregate("core.step", layer, steps.busy_ns, steps.calls);
                t.aggregate("sim.adversary", layer, adv_ns, u64::from(r.metrics.rounds));
                traced_ns.push(t.duration_ns(layer) as f64);
                engine_ns += t.self_ns(layer);
                step_ns += steps.busy_ns;
                calls += steps.calls;
                adversary_ns += adv_ns;
                delivered += r.metrics.msgs_delivered;
                self.refs.get(i).is_none_or(|f| *f == load.fingerprint(&r))
            });
            if !matched {
                return Err(diverged(i));
            }
        }
        let (_, (build_ms, peer_ns)) = tracer.span("sim.ports.kernel", None, 0, |_, _| {
            kernels::ports(&load.config(self.plan.seed_of(0)))
        });
        Ok(vec![
            ("core.step.busy_s", secs(step_ns)),
            ("core.step.calls", calls as f64),
            ("core.step.ns_per_call", step_ns as f64 / calls as f64),
            ("sim.adversary.busy_s", secs(adversary_ns)),
            ("sim.ports.build_ms", build_ms),
            ("sim.ports.peer_ns", peer_ns),
            ("sim.engine.self_s", secs(engine_ns)),
            ("sim.engine.msgs_delivered", delivered as f64),
            ("sim.engine.activations", calls as f64),
            ("sim.engine.ns_per_msg", engine_ns as f64 / delivered as f64),
            ("sim.runner.efficiency", efficiency),
            ("trace.overhead_share", overhead_share(&bare_ns, &traced_ns)),
        ])
    }

    fn corrupt_reference(&mut self) {
        self.refs[0].msgs_sent += 1;
    }
}

/// The two substrates a [`NetWorkload`] runs on.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Net {
    Channel,
    Mesh,
}

impl Net {
    fn run<P, A>(
        self,
        cfg: &SimConfig,
        factory: impl FnMut(NodeId) -> P,
        adversary: &mut A,
    ) -> io::Result<NetRunResult<P>>
    where
        P: Protocol<Msg: Wire>,
        A: Adversary<P::Msg>,
    {
        match self {
            Net::Channel => Ok(run_over_channel(cfg, self.threads(), factory, adversary)),
            Net::Mesh => run_over_mesh(cfg, self.threads(), factory, adversary),
        }
    }

    /// Threads that run nodes. The mesh gets two procs and so one socket.
    /// The channel gets one worker: with its coordinator that is one
    /// thread per core, where two workers oversubscribe the box and made
    /// the same run both slower and 20 % noisier (187–232 ms against
    /// 184–205 ms across six processes).
    fn threads(self) -> usize {
        match self {
            Net::Channel => 1,
            Net::Mesh => JOBS,
        }
    }

    fn layer(self) -> &'static str {
        match self {
            Net::Channel => "net.sync.run_over_channel",
            Net::Mesh => "mesh.runtime.run_over_mesh",
        }
    }
}

/// Substrate workloads: the same configurations one after another over
/// the channel or the socket mesh, each checked against the engine.
pub struct NetWorkload<L: Load> {
    load: L,
    net: Net,
    cfgs: Vec<SimConfig>,
    /// The engine's fingerprint of every input.
    refs: Vec<Fingerprint>,
}

impl<L: Load> NetWorkload<L> {
    pub fn setup(load: L, net: Net, seed: u64) -> io::Result<Self> {
        let cfgs: Vec<SimConfig> = (0..INPUTS as u64).map(|i| load.config(seed + i)).collect();
        let refs = par_map(INPUTS, |i| load.fingerprint(&engine_run(&load, &cfgs[i])));
        for cfg in &cfgs[..WARM_UPS] {
            net.run(cfg, |_| load.node(), &mut load.adversary())?;
        }
        Ok(NetWorkload {
            load,
            net,
            cfgs,
            refs,
        })
    }
}

impl<L: Load> Workload for NetWorkload<L> {
    fn timed(&self, deadline: Instant) -> Window {
        let mut window = Window::default();
        for i in (0..INPUTS).cycle() {
            if Instant::now() >= deadline {
                break;
            }
            let t0 = Instant::now();
            let result = self.net.run(
                &self.cfgs[i],
                |_| self.load.node(),
                &mut self.load.adversary(),
            );
            let wall = t0.elapsed();
            window.window_ns += wall.as_nanos() as u64;
            window.runs.push(match result {
                Ok(r) => {
                    let seen = self.load.fingerprint(&r.run);
                    let moved = (u64::from(seen.rounds), r.net.wire_bytes);
                    checked(i, wall, &seen, seen.success, Some(&self.refs[i]), moved)
                }
                Err(_) => errored(i, wall),
            });
        }
        window
    }

    fn traced(&self, tracer: &mut Tracer) -> io::Result<Layers> {
        let (load, net) = (&self.load, self.net);
        let endpoints = Arc::new(EndpointTotals::default());
        let (mut bare_ns, mut traced_ns, mut floor_ns) = (Vec::new(), Vec::new(), Vec::new());
        let (mut step_ns, mut calls, mut adversary_ns, mut other_ns) = (0, 0, 0, 0);
        let (mut frames, mut wire_bytes) = (0, 0);
        let mut floor = kernels::CoreFloor::default();
        for (i, cfg) in self.cfgs[..TRACED_RUNS].iter().enumerate() {
            let t0 = Instant::now();
            let r = net.run(cfg, |_| load.node(), &mut load.adversary())?;
            bare_ns.push(t0.elapsed().as_nanos() as f64);
            drop(r);

            tracer
                .span("run", None, i as u64, |t, root| -> io::Result<()> {
                    let (layer, out) = t.span(net.layer(), Some(root), i as u64, |_, _| {
                        let mut adversary = TimedAdversary::new(load.adversary());
                        let factory = |_| Timed::new(load.node());
                        let r = match net {
                            Net::Mesh => net.run(cfg, factory, &mut adversary),
                            Net::Channel => {
                                let mesh = TimedEndpoint::wrap(channel::mesh(cfg.n), &endpoints);
                                Ok(run_over(cfg, net.threads(), factory, &mut adversary, mesh))
                            }
                        };
                        r.map(|r| (r, adversary.busy_ns))
                    });
                    let (r, adv_ns) = out?;
                    let (run, steps) = unwrap_run(r.run, net.threads());
                    t.aggregate("core.step", layer, steps.busy_ns, steps.calls);
                    t.aggregate(
                        "sim.adversary",
                        layer,
                        adv_ns,
                        u64::from(run.metrics.rounds),
                    );
                    traced_ns.push(t.duration_ns(layer) as f64);
                    other_ns += t
                        .duration_ns(layer)
                        .saturating_sub(steps.slowest_thread_ns + adv_ns);
                    step_ns += steps.busy_ns;
                    calls += steps.calls;
                    adversary_ns += adv_ns;
                    frames += r.net.frames_sent;
                    wire_bytes += r.net.wire_bytes;
                    if load.fingerprint(&run) != self.refs[i] {
                        return Err(diverged(i));
                    }
                    Ok(())
                })
                .1?;

            let (_, one) = tracer.span("net.core.kernel", None, i as u64, |_, _| {
                kernels::core_floor(load, cfg)
            });
            floor.node_ns += one.node_ns;
            floor.adjudicate_ns += one.adjudicate_ns;
            floor.frames += one.frames;
            floor_ns.push(one.run_ns as f64);
        }
        let overhead_vs_core = median_of(&bare_ns) / median_of(&floor_ns);
        let captured = kernels::capture_frames(load, &self.cfgs[0]);
        let (_, frame) = tracer.span("net.frame.kernel", None, 0, |_, _| {
            kernels::frame_codec(&captured)
        });
        let mut layers = vec![
            ("core.step.busy_s", secs(step_ns)),
            ("core.step.calls", calls as f64),
            ("core.step.ns_per_call", step_ns as f64 / calls as f64),
            ("sim.adversary.busy_s", secs(adversary_ns)),
            ("net.frame.encode_ns", frame.encode_ns),
            ("net.frame.decode_ns", frame.decode_ns),
            ("net.frame.bytes_per_frame", frame.bytes_per_frame),
            ("net.core.node_s", secs(floor.node_ns)),
            ("net.core.adjudicate_s", secs(floor.adjudicate_ns)),
            (
                "net.core.ns_per_frame",
                (floor.node_ns + floor.adjudicate_ns) as f64 / floor.frames as f64,
            ),
            ("net.core.run_ms", median_of(&floor_ns) / 1e6),
            ("trace.overhead_share", overhead_share(&bare_ns, &traced_ns)),
        ];
        match net {
            Net::Channel => layers.extend([
                (
                    "net.channel.send_s",
                    secs(endpoints.send_ns.load(Ordering::Relaxed)),
                ),
                (
                    "net.channel.recv_wait_s",
                    secs(endpoints.recv_ns.load(Ordering::Relaxed)),
                ),
                (
                    "net.channel.frames",
                    endpoints.frames.load(Ordering::Relaxed) as f64,
                ),
                ("net.sync.overhead_vs_core", overhead_vs_core),
            ]),
            Net::Mesh => {
                let (_, envelope) = tracer.span("mesh.wire.kernel", None, 0, |_, _| {
                    kernels::envelope_codec(&captured)
                });
                layers.extend([
                    ("mesh.wire.encode_ns", envelope.encode_ns),
                    ("mesh.wire.decode_ns", envelope.decode_ns),
                    ("mesh.wire.codec_mb_per_s", envelope.mb_per_s()),
                    ("mesh.runtime.other_s", secs(other_ns)),
                    ("mesh.runtime.frames", frames as f64),
                    ("mesh.runtime.wire_bytes", wire_bytes as f64),
                    ("mesh.runtime.overhead_vs_core", overhead_vs_core),
                ]);
                layers.extend(socket_kernels(tracer)?);
            }
        }
        Ok(layers)
    }

    fn corrupt_reference(&mut self) {
        self.refs[0].msgs_sent += 1;
    }
}

/// `mesh.fabric` and `mio.poll`: the kernels of every socket workload.
fn socket_kernels(tracer: &mut Tracer) -> io::Result<Layers> {
    let (build_ms, sockets) = tracer
        .span("mesh.fabric.kernel", None, 0, |_, _| {
            kernels::fabric_build()
        })
        .1?;
    let wake = tracer
        .span("mio.poll.kernel", None, 0, |_, _| kernels::poll_wake())
        .1?;
    Ok(vec![
        ("mesh.fabric.build_ms", build_ms),
        ("mesh.fabric.sockets", sockets as f64),
        ("mio.poll.wake_us_p50", wake.wake_us_p50),
        ("mio.poll.wake_us_p90", wake.wake_us_p90),
        ("mio.poll.idle_sweep_us", wake.idle_sweep_us),
    ])
}

const SERVE_N: u32 = 64;
const SERVE_ALPHA: f64 = 0.75;
const SERVE_HEIGHTS: u32 = 4;

/// The service workload: one run = one churny four-height segment.
pub struct ServeWorkload {
    cfgs: Vec<ServeConfig>,
    /// The engine substrate's heights for every input.
    refs: Vec<Vec<HeightOutcome>>,
}

/// What must not depend on the substrate: the heights, wire bytes aside
/// (only sockets have them).
fn heights_of(report: &ServiceReport) -> Vec<HeightOutcome> {
    let mut heights = report.heights.clone();
    for h in &mut heights {
        h.wire_bytes = 0;
    }
    heights
}

impl ServeWorkload {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let cfgs: Vec<ServeConfig> = (0..INPUTS as u64)
            .map(|i| {
                ServeConfig::new(SERVE_N, SERVE_ALPHA)
                    .seed(seed + i)
                    .heights(SERVE_HEIGHTS)
                    .substrate(Substrate::Mesh(JOBS))
                    .churn(ChurnPlan {
                        kill_leader_every: 1,
                        bystanders: 1,
                        rejoin_after: 2,
                    })
                    .load(LoadProfile::default())
            })
            .collect();
        let refs = par_map(INPUTS, |i| {
            run_service(&cfgs[i].clone().substrate(Substrate::Engine)).map(|r| heights_of(&r))
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
        for cfg in &cfgs[..WARM_UPS] {
            run_service(cfg)?;
        }
        Ok(ServeWorkload { cfgs, refs })
    }
}

impl Workload for ServeWorkload {
    fn timed(&self, deadline: Instant) -> Window {
        let mut window = Window::default();
        for i in (0..INPUTS).cycle() {
            if Instant::now() >= deadline {
                break;
            }
            let t0 = Instant::now();
            let result = run_service(&self.cfgs[i]);
            let wall = t0.elapsed();
            window.window_ns += wall.as_nanos() as u64;
            window.runs.push(match result {
                Ok(report) => {
                    let success = report.ok() && report.metrics.failed_elections == 0;
                    let rounds = report.heights.iter().map(|h| u64::from(h.rounds)).sum();
                    let bytes = report.heights.iter().map(|h| h.wire_bytes).sum();
                    let seen = heights_of(&report);
                    let moved = (rounds, bytes);
                    checked(i, wall, &seen, success, Some(&self.refs[i]), moved)
                }
                Err(_) => errored(i, wall),
            });
        }
        window
    }

    fn traced(&self, tracer: &mut Tracer) -> io::Result<Layers> {
        let failed = |e: String| io::Error::other(e);
        let (mut bare_ns, mut traced_ns, mut engine_ns) = (Vec::new(), Vec::new(), Vec::new());
        for (i, cfg) in self.cfgs[..TRACED_RUNS].iter().enumerate() {
            let t0 = Instant::now();
            run_service(cfg).map_err(failed)?;
            bare_ns.push(t0.elapsed().as_nanos() as f64);

            let (_, layer) = tracer.span("run", None, i as u64, |t, root| {
                let (layer, report) =
                    t.span("serve.service.run_service", Some(root), i as u64, |_, _| {
                        run_service(cfg)
                    });
                report.map(|r| (layer, heights_of(&r)))
            });
            let (layer, heights) = layer.map_err(failed)?;
            if heights != self.refs[i] {
                return Err(diverged(i));
            }
            traced_ns.push(tracer.duration_ns(layer) as f64);

            let engine = cfg.clone().substrate(Substrate::Engine);
            let t0 = Instant::now();
            run_service(&engine).map_err(failed)?;
            engine_ns.push(t0.elapsed().as_nanos() as f64);
        }
        let (_, (election_ns, window_ns)) = tracer.span("serve.kernels", None, 0, |_, _| {
            (self.monitor_kernel(), self.loadgen_kernel())
        });
        let per_height = |ns: &[f64]| median_of(ns) / f64::from(SERVE_HEIGHTS);
        let mut layers = vec![
            ("serve.monitor.election_ns", election_ns),
            ("serve.loadgen.window_ns", window_ns),
            (
                "serve.service.engine_height_ms",
                per_height(&engine_ns) / 1e6,
            ),
            (
                "serve.service.substrate_share",
                1.0 - per_height(&engine_ns) / per_height(&bare_ns),
            ),
            ("trace.overhead_share", overhead_share(&bare_ns, &traced_ns)),
        ];
        layers.extend(socket_kernels(tracer)?);
        Ok(layers)
    }

    fn corrupt_reference(&mut self) {
        self.refs[0][0].rounds += 1;
    }
}

impl ServeWorkload {
    /// `Monitor::election` alone, on the outcome of the first input's
    /// first election.
    fn monitor_kernel(&self) -> f64 {
        let params = Params::new(SERVE_N, SERVE_ALPHA).expect("the service's own parameters");
        let cfg = SimConfig::new(SERVE_N)
            .seed(height_seed(self.cfgs[0].seed, 0))
            .max_rounds(params.le_round_budget());
        let plan = FaultPlan::new();
        let r = run(
            &cfg,
            |_| LeNode::new(params.clone()),
            &mut ScriptedCrash::new(plan.clone()),
        );
        let outcome = LeOutcome::evaluate(&r);
        let mut monitor = Monitor::new();
        const CALLS: u32 = 10_000;
        let t0 = Instant::now();
        for h in 0..CALLS {
            monitor.election(h, &params, &cfg, &plan, std::hint::black_box(&outcome));
        }
        std::hint::black_box(monitor.ok());
        t0.elapsed().as_nanos() as f64 / f64::from(CALLS)
    }

    /// `LoadGen::{election_window, serving_window}` alone, replaying the
    /// election lengths of the traced inputs; ns per height.
    fn loadgen_kernel(&self) -> f64 {
        let mut heights = 0u32;
        let t0 = Instant::now();
        for (cfg, outcome) in self.cfgs.iter().zip(&self.refs).take(TRACED_RUNS) {
            let mut load = LoadGen::new(LoadProfile::default(), cfg.seed);
            for h in outcome {
                load.election_window(h.rounds);
                load.serving_window(cfg.window_rounds, |_, _| {});
                heights += 1;
            }
            std::hint::black_box(load.report());
        }
        t0.elapsed().as_nanos() as f64 / f64::from(heights)
    }
}

/// End-to-end metrics of a checked window, by name.
pub fn end_to_end(window: &Window) -> Vec<(&'static str, f64)> {
    let runs = &window.runs;
    let walls = crate::stats::sorted(runs.iter().map(|r| ms(r.wall_ns)).collect());
    let per_round: Vec<f64> = runs
        .iter()
        .map(|r| r.wall_ns as f64 / 1e3 / r.rounds.max(1) as f64)
        .collect();
    let wall_ns: u64 = runs.iter().map(|r| r.wall_ns).sum();
    let bytes: u64 = runs.iter().map(|r| r.bytes).sum();
    vec![
        ("runs_per_s", runs.len() as f64 / secs(window.window_ns)),
        ("run_ms_p50", crate::stats::median(&walls).unwrap_or(0.0)),
        (
            "run_ms_p90",
            crate::stats::tail_percentile(&walls, 0.9)
                .or(walls.last().copied())
                .unwrap_or(0.0),
        ),
        ("round_us_p50", median_of(&per_round)),
        ("wire_mb_per_s", bytes as f64 / 1e6 / secs(wall_ns)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::ChatterLoad;

    fn window_of(workload: &impl Workload) -> Window {
        workload.timed(Instant::now() + Duration::from_millis(300))
    }

    #[test]
    fn a_wrong_reference_fails_exactly_the_runs_of_that_input() {
        let mut workload = NetWorkload::setup(ChatterLoad { n: 16 }, Net::Channel, 3).unwrap();
        let clean = window_of(&workload);
        assert!(
            clean.runs.len() > INPUTS,
            "the window wraps around the inputs"
        );
        assert!(clean.runs.iter().all(|r| r.ok));

        workload.corrupt_reference();
        let gated = window_of(&workload);
        assert!(gated.runs.iter().any(|r| r.input == 0));
        assert!(gated.runs.iter().all(|r| r.ok == (r.input != 0)));
    }

    #[test]
    fn engine_trials_repeat_their_warm_up_fingerprints() {
        let mut workload = SimWorkload::setup(ChatterLoad { n: 16 }, 3);
        assert!(window_of(&workload).runs.iter().all(|r| r.ok));
        workload.corrupt_reference();
        assert!(window_of(&workload).runs.iter().any(|r| !r.ok));
    }

    #[test]
    fn end_to_end_metrics_of_a_hand_made_window() {
        let run = |wall_ms: u64, rounds: u64, bytes: u64| Run {
            input: 0,
            wall_ns: wall_ms * 1_000_000,
            rounds,
            bytes,
            ok: true,
            digest: 0,
        };
        let window = Window {
            runs: vec![
                run(10, 5, 1_000_000),
                run(30, 10, 2_000_000),
                run(20, 4, 3_000_000),
            ],
            window_ns: 60_000_000,
        };
        let metrics: std::collections::BTreeMap<_, _> = end_to_end(&window).into_iter().collect();
        assert_eq!(metrics["runs_per_s"], 50.0);
        assert_eq!(metrics["run_ms_p50"], 20.0);
        // Three samples have no tail percentile: the slowest run stands in.
        assert_eq!(metrics["run_ms_p90"], 30.0);
        // 2000, 3000 and 5000 us a round.
        assert_eq!(metrics["round_us_p50"], 3000.0);
        assert_eq!(metrics["wire_mb_per_s"], 100.0);
    }
}
