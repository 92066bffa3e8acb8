//! E5/E6 — success probability and leader quality under every adversary.
//!
//! Theorem 4.1: leader election succeeds whp and the elected leader is
//! non-faulty with probability ≥ α. Theorem 5.1: agreement (consistency +
//! validity + non-emptiness) holds whp. Definition checks run under all
//! four crash schedules, plus the iteration-budget ablation (DESIGN.md
//! D4): starving the protocol of iterations must surface failures under
//! the targeted adversary.
//!
//! Declares its grid as an [`ftc_lab`] campaign — `ftc lab run` can
//! execute, persist, and diff the same experiment.
//!
//! ```sh
//! cargo run --release -p ftc-bench --bin fig_success -- [--jobs N] [--trials N] [--seed N] [--smoke]
//! ```

use ftc_bench::{print_table, ExpOpts};
use ftc_core::params::Params;
use ftc_lab::{run_campaign, Adv, CampaignSpec, CellSpec, Substrate, Workload};
use ftc_sim::stats::wilson_interval;

const ALPHA: f64 = 0.5;

fn main() {
    let opts = ExpOpts::parse();
    let n = opts.pick(2048u32, 256);
    let trials = opts.trials(60);
    println!(
        "E5: leader election success and leader quality (n = {n}, alpha = {ALPHA}, {trials} trials, {})",
        opts.banner()
    );
    println!();
    let kinds = [
        ("fault-free", Adv::None),
        ("eager", Adv::Eager),
        ("random", Adv::Random(60)),
        ("targeted", Adv::Targeted),
    ];
    let input_densities: [(&str, f64); 5] = [
        ("all ones", 0.0),
        ("one zero in n", 1.0 / f64::from(n)),
        ("5% zeros", 0.05),
        ("half zeros", 0.5),
        ("all zeros", 1.0),
    ];
    let d4_trials = opts.trials(20);
    const D4_FACTORS: [f64; 4] = [14.0, 1.0, 0.1, 0.02];

    let mut spec = CampaignSpec::new("fig-success");
    for &(label, adv) in &kinds {
        spec = spec.cell(
            CellSpec::new(Workload::Le { adv }, n, ALPHA, opts.seed(0xE5), trials).label(label),
        );
    }
    for &(label, zero_frac) in &input_densities {
        spec = spec.cell(
            CellSpec::new(
                Workload::Agree {
                    zeros: zero_frac,
                    adv: Adv::Targeted,
                },
                n,
                ALPHA,
                opts.seed(0xE6),
                trials,
            )
            .label(label),
        );
    }
    for &factor in &D4_FACTORS {
        spec = spec.cell(
            CellSpec::new(
                Workload::LeIter {
                    factor,
                    per_round: 4,
                },
                n,
                0.25,
                opts.seed(0xD4),
                d4_trials,
            )
            .label("d4"),
        );
    }
    let record = run_campaign(&spec, opts.jobs, Substrate::Engine).expect("campaign");
    let mut cells = record.cells.iter();

    let mut rows = Vec::new();
    for &(label, _) in &kinds {
        let m = cells.next().expect("cell");
        let (lo, hi) = wilson_interval(m.successes, trials);
        rows.push(vec![
            label.to_string(),
            format!("{}/{}", m.successes, trials),
            format!("[{lo:.2},{hi:.2}]"),
            format!("{:.2}", m.faulty_leader_rate()),
        ]);
    }
    print_table(
        &["adversary", "success", "95% CI", "faulty-leader rate"],
        &rows,
    );
    println!();
    println!("shape checks: success ~1.0 under every schedule; faulty-leader rate");
    println!(
        "at most (1-alpha) = {:.2} (paper: leader non-faulty w.p. >= alpha).",
        1.0 - ALPHA
    );
    println!();

    println!("E6: agreement success across input densities ({trials} trials each)");
    println!();
    let mut rows = Vec::new();
    for &(label, _) in &input_densities {
        let m = cells.next().expect("cell");
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", m.success_rate()),
            format!("{:.0}", m.msgs.mean),
            format!("{:.0}", m.rounds.mean),
        ]);
    }
    print_table(&["inputs", "success", "msgs", "rounds"], &rows);
    println!();
    println!("shape checks: success ~1.0 everywhere; the all-ones row sends only");
    println!("registration traffic (the protocol is silent when no candidate holds 0).");
    println!();

    // D4 ablation: too few iterations break the worst case. The assassin
    // is set to multiple kills per round and alpha is lowered so kill
    // chains are long; the iteration budget must cover them.
    println!("D4 ablation: iteration budget vs success (alpha = 0.25, assassin x4)");
    println!();
    let mut rows = Vec::new();
    for &factor in &D4_FACTORS {
        let m = cells.next().expect("cell");
        let params = Params::new(n, 0.25)
            .expect("valid")
            .with_iteration_factor(factor);
        rows.push(vec![
            format!("{factor}"),
            params.iterations().to_string(),
            format!("{}/{}", m.successes, d4_trials),
        ]);
    }
    print_table(&["iteration factor", "iterations", "success"], &rows);
    println!();
    println!("shape check: the paper-budget rows succeed; a budget of only a");
    println!("couple of iterations cannot absorb the assassin's kill chain and");
    println!("elections start failing.");
}
