//! Benchmark-local wrappers that time a layer from outside, through its
//! public trait only. Each adds two clock reads per call and nothing
//! else, so a wrapped run produces the same `Metrics` and final states as
//! the bare run (pinned by the transparency tests below).

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ftc_net::frame::Frame;
use ftc_net::transport::Endpoint;
use ftc_sim::adversary::{Adversary, AdversaryView, CrashDirective, FaultySet, Tamper};
use ftc_sim::engine::RunResult;
use ftc_sim::ids::NodeId;
use ftc_sim::protocol::{Ctx, Incoming, Protocol};
use rand::rngs::SmallRng;

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// `core.step`: a protocol state machine with its `on_start`/`on_round`
/// time and call count accumulated in the state itself, so the totals
/// come back with the run's final states and need no shared memory.
pub struct Timed<P> {
    pub inner: P,
    pub busy_ns: u64,
    pub calls: u64,
}

impl<P> Timed<P> {
    pub fn new(inner: P) -> Self {
        Timed {
            inner,
            busy_ns: 0,
            calls: 0,
        }
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let t0 = Instant::now();
        self.inner.on_start(ctx);
        self.busy_ns += ns_since(t0);
        self.calls += 1;
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>, inbox: &[Incoming<Self::Msg>]) {
        let t0 = Instant::now();
        self.inner.on_round(ctx, inbox);
        self.busy_ns += ns_since(t0);
        self.calls += 1;
    }

    fn is_terminated(&self) -> bool {
        self.inner.is_terminated()
    }

    fn is_inert(&self) -> bool {
        self.inner.is_inert()
    }
}

/// What the [`Timed`] states of one run add up to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepTotals {
    /// Protocol time summed over all nodes.
    pub busy_ns: u64,
    /// `on_start` + `on_round` calls.
    pub calls: u64,
    /// The largest per-thread share of `busy_ns` when node `u` runs on
    /// thread `u mod threads` (how the channel and mesh runtimes place
    /// nodes): a round ends when the slowest thread is ready.
    pub slowest_thread_ns: u64,
}

/// Strips the wrappers off a finished run, returning the bare result the
/// outcome evaluators expect plus the step totals.
pub fn unwrap_run<P>(r: RunResult<Timed<P>>, threads: usize) -> (RunResult<P>, StepTotals) {
    let mut totals = StepTotals::default();
    let mut per_thread = vec![0u64; threads];
    let mut states = Vec::with_capacity(r.states.len());
    for (i, s) in r.states.into_iter().enumerate() {
        totals.busy_ns += s.busy_ns;
        totals.calls += s.calls;
        per_thread[i % threads] += s.busy_ns;
        states.push(s.inner);
    }
    totals.slowest_thread_ns = per_thread.into_iter().max().unwrap_or(0);
    let bare = RunResult {
        metrics: r.metrics,
        states,
        crashed_at: r.crashed_at,
        faulty: r.faulty,
        trace: r.trace,
        congest_violations: r.congest_violations,
    };
    (bare, totals)
}

/// `sim.adversary`: an adversary with the time of its three hooks summed.
pub struct TimedAdversary<A> {
    pub inner: A,
    pub busy_ns: u64,
}

impl<A> TimedAdversary<A> {
    pub fn new(inner: A) -> Self {
        TimedAdversary { inner, busy_ns: 0 }
    }
}

impl<M, A: Adversary<M>> Adversary<M> for TimedAdversary<A> {
    fn faulty_set(&mut self, n: u32, rng: &mut SmallRng) -> FaultySet {
        let t0 = Instant::now();
        let out = self.inner.faulty_set(n, rng);
        self.busy_ns += ns_since(t0);
        out
    }

    fn on_round(&mut self, view: &AdversaryView<'_, M>, rng: &mut SmallRng) -> Vec<CrashDirective> {
        let t0 = Instant::now();
        let out = self.inner.on_round(view, rng);
        self.busy_ns += ns_since(t0);
        out
    }

    fn tamper(&mut self, view: &AdversaryView<'_, M>, rng: &mut SmallRng) -> Vec<Tamper<M>> {
        let t0 = Instant::now();
        let out = self.inner.tamper(view, rng);
        self.busy_ns += ns_since(t0);
        out
    }
}

/// Totals shared by every [`TimedEndpoint`] of one mesh. Relaxed atomics:
/// these are statistics read after the run's threads have joined.
#[derive(Debug, Default)]
pub struct EndpointTotals {
    pub send_ns: AtomicU64,
    pub recv_ns: AtomicU64,
    pub frames: AtomicU64,
}

/// `net.channel`: an endpoint with its `send` time and `recv` wait summed.
pub struct TimedEndpoint<E> {
    inner: E,
    totals: Arc<EndpointTotals>,
}

impl<E> TimedEndpoint<E> {
    pub fn wrap(endpoints: Vec<E>, totals: &Arc<EndpointTotals>) -> Vec<Self> {
        endpoints
            .into_iter()
            .map(|inner| TimedEndpoint {
                inner,
                totals: Arc::clone(totals),
            })
            .collect()
    }
}

impl<E: Endpoint> Endpoint for TimedEndpoint<E> {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn send(&mut self, dst: NodeId, frame: &Frame) -> io::Result<u64> {
        let t0 = Instant::now();
        let out = self.inner.send(dst, frame);
        self.totals
            .send_ns
            .fetch_add(ns_since(t0), Ordering::Relaxed);
        self.totals.frames.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn recv(&mut self) -> io::Result<Frame> {
        let t0 = Instant::now();
        let out = self.inner.recv();
        self.totals
            .recv_ns
            .fetch_add(ns_since(t0), Ordering::Relaxed);
        out
    }

    fn teardown(&mut self) {
        self.inner.teardown();
    }
}

/// The frames one run put on the wire, in send order per sender.
pub type Captured = Arc<Mutex<Vec<(NodeId, Frame)>>>;

/// An endpoint that copies every frame it sends into a shared sink, so
/// the codec kernels replay exactly the traffic of a real run.
pub struct CaptureEndpoint<E> {
    inner: E,
    sink: Captured,
}

impl<E> CaptureEndpoint<E> {
    pub fn wrap(endpoints: Vec<E>, sink: &Captured) -> Vec<Self> {
        endpoints
            .into_iter()
            .map(|inner| CaptureEndpoint {
                inner,
                sink: Arc::clone(sink),
            })
            .collect()
    }
}

impl<E: Endpoint> Endpoint for CaptureEndpoint<E> {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn send(&mut self, dst: NodeId, frame: &Frame) -> io::Result<u64> {
        self.sink
            .lock()
            .expect("a capturing worker panicked")
            .push((dst, frame.clone()));
        self.inner.send(dst, frame)
    }

    fn recv(&mut self) -> io::Result<Frame> {
        self.inner.recv()
    }

    fn teardown(&mut self) {
        self.inner.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{ChatterLoad, LeLoad, Load};
    use ftc_net::channel;
    use ftc_net::sync::{run_over, run_over_channel};
    use ftc_sim::engine::run;

    /// The observable result of a run: accounting, crash schedule, and the
    /// load's verdict on the final states.
    fn observed<L: Load>(load: &L, r: &RunResult<L::P>) -> String {
        format!(
            "{:?} {:?} {:?} {:?}",
            r.metrics,
            r.crashed_at,
            r.faulty,
            load.judge(r)
        )
    }

    #[test]
    fn timed_protocol_and_adversary_are_transparent_on_the_engine() {
        let load = LeLoad::new(128, 0.5);
        for seed in [1, 2, 3] {
            let cfg = load.config(seed);
            let bare = run(&cfg, |_| load.node(), &mut load.adversary());
            let mut adv = TimedAdversary::new(load.adversary());
            let wrapped = run(&cfg, |_| Timed::new(load.node()), &mut adv);
            let (stripped, totals) = unwrap_run(wrapped, 1);
            assert_eq!(observed(&load, &bare), observed(&load, &stripped));
            assert!(totals.calls > 0 && totals.busy_ns > 0 && adv.busy_ns > 0);
            assert_eq!(totals.busy_ns, totals.slowest_thread_ns);
        }
    }

    #[test]
    fn timed_wrappers_are_transparent_on_the_channel_runtime() {
        let load = LeLoad::new(128, 0.5);
        for seed in [1, 2, 3] {
            let cfg = load.config(seed);
            let bare = run_over_channel(&cfg, 2, |_| load.node(), &mut load.adversary());
            let totals = Arc::new(EndpointTotals::default());
            let endpoints = TimedEndpoint::wrap(channel::mesh(cfg.n), &totals);
            let mut adv = TimedAdversary::new(load.adversary());
            let wrapped = run_over(&cfg, 2, |_| Timed::new(load.node()), &mut adv, endpoints);
            assert_eq!(bare.net.wire_bytes, wrapped.net.wire_bytes);
            assert_eq!(bare.net.frames_sent, wrapped.net.frames_sent);
            assert_eq!(
                totals.frames.load(Ordering::Relaxed),
                wrapped.net.frames_sent
            );
            let (stripped, steps) = unwrap_run(wrapped.run, 2);
            assert_eq!(observed(&load, &bare.run), observed(&load, &stripped));
            assert!(steps.slowest_thread_ns < steps.busy_ns);
        }
    }

    #[test]
    fn capture_endpoint_sees_every_frame_and_changes_nothing() {
        let load = ChatterLoad { n: 16 };
        let cfg = load.config(5);
        let bare = run_over_channel(&cfg, 2, |_| load.node(), &mut load.adversary());
        let sink = Captured::default();
        let endpoints = CaptureEndpoint::wrap(channel::mesh(cfg.n), &sink);
        let captured = run_over(&cfg, 2, |_| load.node(), &mut load.adversary(), endpoints);
        assert_eq!(observed(&load, &bare.run), observed(&load, &captured.run));
        let frames = sink.lock().unwrap();
        assert_eq!(frames.len() as u64, captured.net.frames_sent);
        let bytes: u64 = frames.iter().map(|(_, f)| f.encoded_len()).sum();
        assert_eq!(bytes, captured.net.wire_bytes);
    }
}
