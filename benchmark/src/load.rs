//! What a workload runs: a protocol, the adversary it runs under, and the
//! verdict on a finished run. Two loads use the same layers in opposite
//! ways: the paper's sparse leader election, and a dense chatter whose
//! protocol step is nearly free so the delivery plane does all the work.

use ftc_core::prelude::{LeNode, LeOutcome, Params};
use ftc_hunt::proto::Fingerprint;
use ftc_sim::adversary::{Adversary, NoFaults, RandomCrash};
use ftc_sim::engine::{RunResult, SimConfig};
use ftc_sim::payload::Wire;
use ftc_sim::protocol::{Ctx, Incoming, Protocol};

pub trait Load: Sync {
    type P: Protocol<Msg: Wire>;
    type A: Adversary<<Self::P as Protocol>::Msg>;

    /// The configuration of the run with this seed: all the program
    /// under test ever sees of the benchmark's seed.
    fn config(&self, seed: u64) -> SimConfig;

    /// One node's initial state.
    fn node(&self) -> Self::P;

    /// A fresh adversary for one run.
    fn adversary(&self) -> Self::A;

    /// `(success predicate, agreed outcome)` of a finished run.
    fn judge(&self, r: &RunResult<Self::P>) -> (bool, Option<u64>);

    /// The hunt-style fingerprint of a finished run: every substrate must
    /// reproduce the engine's, field for field.
    fn fingerprint(&self, r: &RunResult<Self::P>) -> Fingerprint {
        let (success, outcome) = self.judge(r);
        Fingerprint {
            success,
            outcome,
            msgs_sent: r.metrics.msgs_sent,
            msgs_delivered: r.metrics.msgs_delivered,
            bits_sent: r.metrics.bits_sent,
            rounds: r.metrics.rounds,
            crashed: r.metrics.crashes.iter().map(|&(u, at)| (u.0, at)).collect(),
        }
    }
}

/// Latest crash round of the random adversary (the lab campaigns' value).
const CRASH_HORIZON: u32 = 60;

/// The paper's leader election under `RandomCrash(⌊(1−α)n⌋, 60)`.
pub struct LeLoad {
    params: Params,
}

impl LeLoad {
    pub fn new(n: u32, alpha: f64) -> Self {
        let params = Params::new(n, alpha).expect("workload sizes satisfy the alpha floor");
        LeLoad { params }
    }
}

impl Load for LeLoad {
    type P = LeNode;
    type A = RandomCrash;

    fn config(&self, seed: u64) -> SimConfig {
        SimConfig::new(self.params.n())
            .seed(seed)
            .max_rounds(self.params.le_round_budget())
    }

    fn node(&self) -> LeNode {
        LeNode::new(self.params.clone())
    }

    fn adversary(&self) -> RandomCrash {
        RandomCrash::new(self.params.max_faults(), CRASH_HORIZON)
    }

    fn judge(&self, r: &RunResult<LeNode>) -> (bool, Option<u64>) {
        let out = LeOutcome::evaluate(r);
        (out.success, out.agreed_leader.map(|rank| rank.0))
    }
}

/// Rounds every chatter node broadcasts for.
const CHATTER_ROUNDS: u32 = 4;

/// Every node broadcasts one word per round for [`CHATTER_ROUNDS`] rounds:
/// `n·(n−1)` messages a round, fault-free (the shape of the lab's private
/// `BenchChatter`).
pub struct Chatter {
    rounds_done: u32,
    heard: u64,
}

impl Protocol for Chatter {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.broadcast(0);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Incoming<u64>]) {
        self.heard += inbox.len() as u64;
        self.rounds_done += 1;
        if self.rounds_done < CHATTER_ROUNDS {
            ctx.broadcast(u64::from(ctx.round()));
        }
    }

    fn is_terminated(&self) -> bool {
        self.rounds_done >= CHATTER_ROUNDS
    }
}

pub struct ChatterLoad {
    pub n: u32,
}

impl Load for ChatterLoad {
    type P = Chatter;
    type A = NoFaults;

    fn config(&self, seed: u64) -> SimConfig {
        SimConfig::new(self.n).seed(seed)
    }

    fn node(&self) -> Chatter {
        Chatter {
            rounds_done: 0,
            heard: 0,
        }
    }

    fn adversary(&self) -> NoFaults {
        NoFaults
    }

    /// Success is that the delivery path was exercised; the outcome is
    /// what every node heard, so a lost or duplicated message shows.
    fn judge(&self, r: &RunResult<Chatter>) -> (bool, Option<u64>) {
        let heard = r.states.iter().map(|s| s.heard).sum();
        (r.metrics.msgs_delivered > 0, Some(heard))
    }
}
