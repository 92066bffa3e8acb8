//! Watching the lower bound happen: influence clouds of a message-starved
//! protocol.
//!
//! Theorems 4.2/5.2: below `Ω(√n/α^{3/2})` messages, executions decompose
//! into disjoint "influence clouds" that cannot tell each other apart —
//! so two of them elect two leaders, or decide opposite values. This
//! example starves the paper's agreement protocol of referees, records
//! the communication graph, and prints the cloud structure alongside the
//! observed failures.
//!
//! ```sh
//! cargo run --release --example lower_bound_probe
//! ```

use ftc::core::agreement::{AgreeNode, AgreeOutcome};
use ftc::prelude::*;

fn main() -> Result<(), ParamsError> {
    let n = 2048;
    let alpha = 0.5;
    let threshold = Params::new(n, alpha)?.lower_bound_threshold();

    println!("n = {n}, alpha = {alpha}: lower-bound threshold √n/α^1.5 = {threshold:.0} msgs");
    println!();
    println!(
        "{:>7} {:>12} {:>10} {:>11} {:>12} {:>9}",
        "scale", "mean msgs", "x-thresh", "failures", "initiators", "event N"
    );

    for &scale in &[1.0, 0.25, 0.05, 0.02, 0.01, 0.005] {
        let params = Params::new(n, alpha)?
            .with_referee_factor(2.0 * scale)
            .with_candidate_factor((6.0 * scale.sqrt()).max(0.5));
        let trials = 12u64;
        let cfg = SimConfig::new(n)
            .seed(5150)
            .max_rounds(params.agreement_round_budget())
            .record_trace(true);
        let results = ParRunner::new(TrialPlan::new(cfg.seed, trials))
            .run(|_, seed| {
                let c = &cfg.clone().seed(seed);
                let mut adv = EagerCrash::new(params.max_faults());
                let r = run(
                    c,
                    |id| AgreeNode::new(params.clone(), id.0 % 2 == 0),
                    &mut adv,
                );
                let o = AgreeOutcome::evaluate(&r);
                let analysis = InfluenceAnalysis::full(r.trace.as_ref().expect("trace on"));
                (
                    r.metrics.msgs_sent,
                    o.success,
                    analysis.initiator_count(),
                    analysis.event_n(),
                )
            })
            .outcomes;

        let msgs = Summary::of_iter(results.iter().map(|t| t.value.0 as f64));
        let failures = results.iter().filter(|t| !t.value.1).count();
        let initiators = Summary::of_iter(results.iter().map(|t| t.value.2 as f64));
        let disjoint = results.iter().filter(|t| t.value.3).count();

        println!(
            "{:>7.3} {:>12.0} {:>10.2} {:>8}/{:<2} {:>12.0} {:>6}/{:<2}",
            scale,
            msgs.mean,
            msgs.mean / threshold,
            failures,
            trials,
            initiators.mean,
            disjoint,
            trials,
        );
    }

    println!();
    println!("reading: at full budget the spend sits far above the threshold and");
    println!("failures are rare; as the budget drops toward (and below) 1x the");
    println!("threshold, executions fragment (event N: clouds stay disjoint) and");
    println!("the failure rate rises to a constant — the transition the proof");
    println!("of Theorems 4.2/5.2 predicts.");
    Ok(())
}
