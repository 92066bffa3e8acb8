//! Layer microkernels: one layer at a time, timed from outside through
//! public functions, fed with the frames a real run of the workload sent
//! (never a synthetic mix) or with the workload's own configuration.

use std::hint::black_box;
use std::io::{Read, Write};
use std::thread;
use std::time::{Duration, Instant};

use ftc_mesh::fabric;
use ftc_mesh::wire::{EnvelopeDecoder, WriteBuf};
use ftc_net::channel;
use ftc_net::core::{CoordinatorCore, RoundCore};
use ftc_net::frame::Frame;
use ftc_net::sync::run_over;
use ftc_sim::engine::SimConfig;
use ftc_sim::ids::{NodeId, Port};
use ftc_sim::protocol::Protocol;
use ftc_sim::round::network_ports;
use mio::{Events, Interest, Poll, Token};

use crate::load::Load;
use crate::stats::{median_of, sorted, tail_percentile};
use crate::timed::{CaptureEndpoint, Captured, Timed, TimedAdversary};

/// Repetitions of a codec or port kernel; the median is reported.
const REPS: usize = 5;

fn ns(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// Runs `cfg` once over the channel mesh and returns every frame sent.
pub fn capture_frames<L: Load>(load: &L, cfg: &SimConfig) -> Vec<(NodeId, Frame)> {
    let sink = Captured::default();
    let endpoints = CaptureEndpoint::wrap(channel::mesh(cfg.n), &sink);
    run_over(cfg, 2, |_| load.node(), &mut load.adversary(), endpoints);
    let frames = std::mem::take(&mut *sink.lock().expect("capture workers joined"));
    frames
}

/// Per-frame cost of a codec over one run's frames.
pub struct Codec {
    pub encode_ns: f64,
    pub decode_ns: f64,
    /// Encoded bytes per frame, the codec's own framing included.
    pub bytes_per_frame: f64,
}

impl Codec {
    pub fn mb_per_s(&self) -> f64 {
        self.bytes_per_frame / (self.encode_ns + self.decode_ns) * 1e3
    }
}

fn codec_of(frames: usize, reps: Vec<(f64, f64, usize)>) -> Codec {
    let per_frame = |v: Vec<f64>| median_of(&v) / frames.max(1) as f64;
    Codec {
        encode_ns: per_frame(reps.iter().map(|r| r.0).collect()),
        decode_ns: per_frame(reps.iter().map(|r| r.1).collect()),
        bytes_per_frame: reps[0].2 as f64 / frames.max(1) as f64,
    }
}

/// `net.frame`: `Frame::encode` into one buffer, `Frame::read_from` back.
pub fn frame_codec(frames: &[(NodeId, Frame)]) -> Codec {
    let mut buf = Vec::new();
    let reps = (0..REPS)
        .map(|_| {
            buf.clear();
            let t0 = Instant::now();
            for (_, f) in frames {
                f.encode(&mut buf);
            }
            let encode = ns(t0);
            let mut rest = buf.as_slice();
            let mut decoded = 0;
            let t0 = Instant::now();
            while let Some(f) = Frame::read_from(&mut rest).expect("own encoding decodes") {
                black_box(f);
                decoded += 1;
            }
            let decode = ns(t0);
            assert_eq!(decoded, frames.len(), "frame codec lost frames");
            (encode, decode, buf.len())
        })
        .collect();
    codec_of(frames.len(), reps)
}

/// `mesh.wire`: `WriteBuf::stage` + `flush_into` a `Vec`, then
/// `EnvelopeDecoder::extend` + `next` in the runtime's 64 KiB read bursts.
pub fn envelope_codec(frames: &[(NodeId, Frame)]) -> Codec {
    let reps = (0..REPS)
        .map(|_| {
            let mut staged = WriteBuf::new();
            let mut wire = Vec::new();
            let t0 = Instant::now();
            for (dst, f) in frames {
                staged.stage(*dst, f);
            }
            staged
                .flush_into(&mut wire)
                .expect("a Vec accepts every write");
            let encode = ns(t0);
            let mut decoder = EnvelopeDecoder::new();
            let mut decoded = 0;
            let t0 = Instant::now();
            for burst in wire.chunks(64 * 1024) {
                decoder.extend(burst);
                while let Some(pair) = decoder.next().expect("own encoding decodes") {
                    black_box(pair);
                    decoded += 1;
                }
            }
            let decode = ns(t0);
            assert_eq!(decoded, frames.len(), "envelope codec lost frames");
            (encode, decode, wire.len())
        })
        .collect();
    codec_of(frames.len(), reps)
}

/// `net.core`: what one run costs with no transport at all.
#[derive(Default)]
pub struct CoreFloor {
    /// `RoundCore::{activate, apply, feed, end_round}`, protocol step excluded.
    pub node_ns: u64,
    /// `CoordinatorCore::adjudicate`, adversary excluded.
    pub adjudicate_ns: u64,
    pub frames: u64,
    /// Wall of the whole single-threaded run, step and adversary included.
    pub run_ns: u64,
}

/// Drives the sans-I/O cores of one run in one thread, handing frames
/// over directly: the floor any substrate can reach for this run.
pub fn core_floor<L: Load>(load: &L, cfg: &SimConfig) -> CoreFloor {
    let run_t0 = Instant::now();
    let mut adversary = TimedAdversary::new(load.adversary());
    let mut coordinator = CoordinatorCore::<<L::P as Protocol>::Msg>::new(cfg, 0, &mut adversary);
    let mut nodes: Vec<RoundCore<Timed<L::P>>> = (0..cfg.n)
        .map(|u| RoundCore::new(cfg, NodeId(u), Timed::new(load.node()), 0))
        .collect();
    let mut floor = CoreFloor::default();
    let mut node_ns = 0u64;
    loop {
        let t0 = Instant::now();
        let submissions = nodes
            .iter_mut()
            .filter(|c| c.is_active())
            .map(|c| c.activate())
            .collect();
        node_ns += t0.elapsed().as_nanos() as u64;

        let t0 = Instant::now();
        let plan = coordinator
            .adjudicate(submissions, &mut adversary)
            .expect("no transport, no transport failure");
        floor.adjudicate_ns += t0.elapsed().as_nanos() as u64;

        let t0 = Instant::now();
        let mut in_flight = Vec::new();
        for (u, command) in plan.commands {
            in_flight.extend(nodes[u.index()].apply(command));
        }
        floor.frames += in_flight.len() as u64;
        for (dst, frame) in in_flight {
            if nodes[dst.index()].is_active() {
                nodes[dst.index()]
                    .feed(frame)
                    .expect("frames of this round");
            }
        }
        for core in nodes.iter_mut().filter(|c| c.is_active()) {
            assert!(core.ready(), "every promised frame was handed over");
            core.end_round().expect("own payloads decode");
        }
        node_ns += t0.elapsed().as_nanos() as u64;
        if plan.stop {
            break;
        }
    }
    let step_ns: u64 = nodes.into_iter().map(|c| c.into_state().busy_ns).sum();
    floor.node_ns = node_ns.saturating_sub(step_ns);
    floor.adjudicate_ns = floor.adjudicate_ns.saturating_sub(adversary.busy_ns);
    floor.run_ns = run_t0.elapsed().as_nanos() as u64;
    floor
}

/// `mio.poll`: how long a waiting `Poll::poll` takes to report a byte.
pub struct PollWake {
    pub wake_us_p50: f64,
    pub wake_us_p90: f64,
    /// One empty `poll(0)` over the registered set.
    pub idle_sweep_us: f64,
}

const PING_PONGS: usize = 1_000;

/// Ping-pongs one byte across a fabric socket between two threads that
/// each wait in `Poll::poll`, so every byte finds its reader already
/// waiting, as a mesh proc is at a round barrier. One-way wake latency is
/// half the round trip.
pub fn poll_wake() -> std::io::Result<PollWake> {
    let mut links = fabric::build(2)?;
    let mut near = links[0][1].take().expect("two procs share a socket");
    let mut far = links[1][0].take().expect("two procs share a socket");
    let mut poll = Poll::new()?;
    poll.registry()
        .register(&near, Token(0), Interest::READABLE)?;
    let mut events = Events::with_capacity(4);
    let mut byte = [0u8; 1];

    let t0 = Instant::now();
    for _ in 0..PING_PONGS {
        poll.poll(&mut events, Some(Duration::ZERO))?;
    }
    let idle_sweep_us = ns(t0) / 1e3 / PING_PONGS as f64;

    let mut round_trips = Vec::with_capacity(PING_PONGS);
    thread::scope(|scope| -> std::io::Result<()> {
        let echo = scope.spawn(move || -> std::io::Result<()> {
            let mut poll = Poll::new()?;
            poll.registry()
                .register(&far, Token(1), Interest::READABLE)?;
            let mut events = Events::with_capacity(4);
            let mut byte = [0u8; 1];
            for _ in 0..PING_PONGS {
                loop {
                    poll.poll(&mut events, Some(Duration::from_secs(5)))?;
                    if !events.is_empty() {
                        break;
                    }
                }
                far.read_exact(&mut byte)?;
                far.write_all(&byte)?;
            }
            Ok(())
        });
        for _ in 0..PING_PONGS {
            let t0 = Instant::now();
            near.write_all(&byte)?;
            loop {
                poll.poll(&mut events, Some(Duration::from_secs(5)))?;
                if !events.is_empty() {
                    break;
                }
            }
            round_trips.push(ns(t0) / 2e3);
            near.read_exact(&mut byte)?;
        }
        echo.join().expect("echo thread panicked")
    })?;
    let round_trips = sorted(round_trips);
    Ok(PollWake {
        wake_us_p50: tail_percentile(&round_trips, 0.5).expect("1000 samples"),
        wake_us_p90: tail_percentile(&round_trips, 0.9).expect("1000 samples"),
        idle_sweep_us,
    })
}

/// `mesh.fabric`: p50 of 50 `fabric::build(2)` in ms, and the sockets one
/// build opens.
pub fn fabric_build() -> std::io::Result<(f64, usize)> {
    let mut sockets = 0;
    let mut builds = Vec::with_capacity(50);
    for _ in 0..50 {
        let t0 = Instant::now();
        let links = fabric::build(2)?;
        builds.push(ns(t0) / 1e6);
        sockets = links.iter().flatten().flatten().count() / 2;
    }
    Ok((median_of(&builds), sockets))
}

/// `sim.ports`: `network_ports(cfg)` in ms, and one `PortMap::peer`
/// lookup in ns, over every port of (at most) the first 256 nodes.
pub fn ports(cfg: &SimConfig) -> (f64, f64) {
    let mut build_ms = Vec::with_capacity(REPS);
    let mut peer_ns = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        let maps = network_ports(cfg);
        build_ms.push(ns(t0) / 1e6);
        let mut lookups = 0u64;
        let t0 = Instant::now();
        for map in maps.iter().take(256) {
            for p in 0..map.port_count() {
                black_box(map.peer(Port(p)));
            }
            lookups += u64::from(map.port_count());
        }
        peer_ns.push(ns(t0) / lookups.max(1) as f64);
    }
    (median_of(&build_ms), median_of(&peer_ns))
}
