//! Quickstart: elect a leader and reach agreement in a crash-prone
//! anonymous network, and compare the measured message complexity with the
//! paper's bounds.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ftc::prelude::*;

fn main() -> Result<(), ParamsError> {
    let n = 4096;
    let alpha = 0.5; // at least half the nodes are non-faulty
    let params = Params::new(n, alpha)?;
    let faults = params.max_faults();

    println!("network: n = {n}, alpha = {alpha}, up to {faults} crash faults");
    println!(
        "paper bounds: LE ≈ O(√n·ln^2.5 n/α^2.5) = {:.0} msgs, agreement ≈ {:.0} msg-bits",
        params.le_message_bound(),
        params.agreement_message_bound()
    );
    println!();

    // ---- implicit leader election under mid-protocol random crashes ----
    let cfg = SimConfig::new(n)
        .seed(7)
        .max_rounds(params.le_round_budget());
    let mut adversary = RandomCrash::new(faults, 40);
    let result = run(&cfg, |_| LeNode::new(params.clone()), &mut adversary);
    let outcome = LeOutcome::evaluate(&result);

    println!("— leader election —");
    println!(
        "  success: {} (leader rank {:?}, node {:?})",
        outcome.success, outcome.agreed_leader, outcome.leader_node
    );
    println!(
        "  {} candidates ({} survived), {} crashes",
        outcome.candidate_count,
        outcome.alive_candidates,
        result.metrics.crash_count()
    );
    println!(
        "  cost: {} messages ({} bits) in {} rounds — vs n·log n = {:.0}, n² = {:.0}",
        result.metrics.msgs_sent,
        result.metrics.bits_sent,
        result.metrics.rounds,
        f64::from(n) * params.ln_n(),
        f64::from(n) * f64::from(n)
    );
    println!(
        "  leader is {} (non-faulty with probability ≥ α = {alpha})",
        if outcome.leader_is_faulty {
            "faulty (may crash later)"
        } else {
            "non-faulty"
        }
    );
    println!();

    // ---- implicit agreement: a 5% zero-minority must win over the 1s ----
    // (0 wins whenever any committee member holds it — with 5% zeros the
    // Θ(log n/α)-sized committee contains one with high probability.)
    let cfg = SimConfig::new(n)
        .seed(11)
        .max_rounds(params.agreement_round_budget());
    let mut adversary = RandomCrash::new(faults, 20);
    let result = run(
        &cfg,
        |id| AgreeNode::new(params.clone(), id.0 % 20 != 0),
        &mut adversary,
    );
    let verdict = result.verdict();

    println!("— agreement —");
    println!(
        "  success: {} (agreed value {:?}, {} deciders among candidates)",
        verdict.implicit() && verdict.valid,
        verdict.value().map(u8::from),
        result
            .surviving_states()
            .filter(|(_, s)| s.is_candidate())
            .count()
    );
    println!(
        "  cost: {} messages ({} bits) in {} rounds",
        result.metrics.msgs_sent, result.metrics.bits_sent, result.metrics.rounds
    );
    println!(
        "  CONGEST: max {} bits over any edge in any round (budget O(log n) ≈ {} bits)",
        result.metrics.max_edge_bits_per_round,
        4 * (32 - n.leading_zeros())
    );

    Ok(())
}
