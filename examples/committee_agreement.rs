//! Permissionless-style emergency agreement under a targeted adversary.
//!
//! Scenario: anonymous participants (no identities — the paper's KT0
//! model, motivated by permissionless systems) must agree whether to halt
//! ("0" = halt, "1" = continue). A handful of participants observed the
//! incident and hold 0; an adversary crashes exactly the nodes that are
//! about to spread the 0, letting one copy through per round — the paper's
//! slowest-propagation schedule. Implicit agreement must still land on 0,
//! and the explicit extension must inform every surviving participant.
//!
//! ```sh
//! cargo run --release --example committee_agreement
//! ```

use ftc::prelude::*;

fn main() -> Result<(), ParamsError> {
    let n = 2048;
    let alpha = 0.5;
    let witnesses = 200; // ~10% of nodes observed the incident (input 0)
    let params = Params::new(n, alpha)?;

    println!("{n} anonymous participants, {witnesses} witnesses holding 0");
    println!(
        "{} faulty nodes crashed exactly when forwarding the 0 (one copy escapes per round)",
        params.max_faults()
    );
    println!();

    // ---- implicit phase ----
    let mut successes = 0;
    let mut zero_wins = 0;
    let trials = 20;
    let cfg = SimConfig::new(n)
        .seed(2024)
        .max_rounds(params.agreement_round_budget());
    let outcomes = ParRunner::new(TrialPlan::new(cfg.seed, trials))
        .run(|_, seed| {
            let c = &cfg.clone().seed(seed);
            let mut adv = ZeroHolderCrasher::new(params.max_faults());
            let r = run(
                c,
                |id| AgreeNode::new(params.clone(), id.0 >= witnesses),
                &mut adv,
            );
            let v = r.verdict();
            (
                v.implicit() && v.valid,
                v.value(),
                r.metrics.msgs_sent,
                r.metrics.rounds,
            )
        })
        .outcomes;
    for t in &outcomes {
        if t.value.0 {
            successes += 1;
        }
        if t.value.1 == Some(false) {
            zero_wins += 1;
        }
    }
    let msgs = Summary::of_iter(outcomes.iter().map(|t| t.value.2 as f64));
    let rounds = Summary::of_iter(outcomes.iter().map(|t| f64::from(t.value.3)));

    println!("— implicit agreement ({trials} trials) —");
    println!("  definition-2 success: {successes}/{trials}");
    println!(
        "  halt (0) agreed in {zero_wins}/{trials} trials (witnesses may all be crashed in the rest)"
    );
    println!(
        "  mean cost: {:.0} single-bit messages (bound {:.0}), {:.1} rounds (median {:.0}, p95 {:.0})",
        msgs.mean,
        params.agreement_message_bound(),
        rounds.mean,
        rounds.median,
        rounds.p95
    );
    println!();

    // ---- explicit phase: everyone must know ----
    let cfg = SimConfig::new(n).seed(77).max_rounds(
        ftc::core::explicit::ExplicitAgreeNode::round_budget(&params),
    );
    let mut adv = ZeroHolderCrasher::new(params.max_faults());
    let r = run(
        &cfg,
        |id| ExplicitAgreeNode::new(params.clone(), id.0 >= witnesses),
        &mut adv,
    );
    let v = r.verdict();
    println!("— explicit extension (single run) —");
    println!(
        "  every alive participant informed: {} (value {:?}, {} unaware)",
        v.explicit(),
        v.value().map(u8::from),
        v.undecided
    );
    println!(
        "  total cost incl. broadcast: {} messages in {} rounds (rounds are dominated \n  by the fixed implicit-phase budget before the announcement; explicit bound O(n·log n/α) = {:.0})",
        r.metrics.msgs_sent,
        r.metrics.rounds,
        f64::from(n) * params.ln_n() / alpha
    );
    Ok(())
}
