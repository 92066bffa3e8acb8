//! Sensor-swarm coordinator election: the paper's sublinear leader
//! election against the naive broadcast baseline, across crash severities.
//!
//! Scenario: a dense swarm of battery-powered sensors must elect a
//! coordinator after deployment. Radio messages are the dominant energy
//! cost, and a (1−α) fraction of sensors may be dead on arrival or die
//! mid-election. We sweep the faulty fraction from 0% to 87.5% and compare
//! the paper's protocol (Theorem 4.1) with deterministic flooding.
//!
//! ```sh
//! cargo run --release --example sensor_swarm
//! ```

use ftc::baselines::broadcast_le::{broadcast_le_round_budget, BroadcastLeNode};
use ftc::prelude::*;

const N: u32 = 2048;
const TRIALS: u64 = 10;

fn main() -> Result<(), ParamsError> {
    println!("sensor swarm: {N} sensors, electing one coordinator");
    println!();
    println!(
        "{:>8} {:>10} {:>14} {:>8} {:>14} {:>8} {:>9}",
        "faulty", "success", "FTC msgs", "rounds", "flood msgs", "rounds", "saving"
    );

    for &alpha in &[1.0, 0.75, 0.5, 0.25, 0.125] {
        let params = Params::new(N, alpha)?;
        let f = params.max_faults();

        // Paper protocol, adversarial random crash schedule.
        let cfg = SimConfig::new(N)
            .seed(1234)
            .max_rounds(params.le_round_budget());
        let sub = ParRunner::new(TrialPlan::new(cfg.seed, TRIALS))
            .run(|_, seed| {
                let c = &cfg.clone().seed(seed);
                let mut adv = RandomCrash::new(f, 40);
                let params = params.clone();
                let r = run(c, |_| LeNode::new(params.clone()), &mut adv);
                let o = LeOutcome::evaluate(&r);
                (o.success, r.metrics.msgs_sent, r.metrics.rounds)
            })
            .outcomes;
        let ok = sub.iter().filter(|t| t.value.0).count();
        let msgs = Summary::of_iter(sub.iter().map(|t| t.value.1 as f64));
        let rounds = Summary::of_iter(sub.iter().map(|t| f64::from(t.value.2)));

        // Baseline: deterministic flooding, same fault severity.
        let fb = f as u32;
        let bcfg = SimConfig::new(N)
            .seed(1234)
            .max_rounds(broadcast_le_round_budget(fb));
        let base = ParRunner::new(TrialPlan::new(bcfg.seed, TRIALS))
            .run(|_, seed| {
                let c = &bcfg.clone().seed(seed);
                let mut adv = RandomCrash::new(f, 40);
                let r = run(c, |_| BroadcastLeNode::new(fb), &mut adv);
                (r.metrics.msgs_sent, r.metrics.rounds)
            })
            .outcomes;
        let bmsgs = Summary::of_iter(base.iter().map(|t| t.value.0 as f64));
        let brounds = Summary::of_iter(base.iter().map(|t| f64::from(t.value.1)));

        println!(
            "{:>7.1}% {:>7}/{:<2} {:>14.0} {:>8.0} {:>14.0} {:>8.0} {:>8.1}x",
            (1.0 - alpha) * 100.0,
            ok,
            TRIALS,
            msgs.mean,
            rounds.mean,
            bmsgs.mean,
            brounds.mean,
            bmsgs.mean / msgs.mean
        );
    }

    println!();
    println!("reading: the paper's protocol stays far below the O(n^2) flood for");
    println!("moderate fault rates, at the price of polylog-factor more rounds. At");
    println!("extreme resilience (87.5% faulty) the 1/alpha^2.5 constants eat the");
    println!("gain at this small n — consistent with the paper, which proves LE is");
    println!("sublinear only for alpha > log n / n^(1/5) (an asymptotic regime).");
    Ok(())
}
