//! E12 (extension) — the Byzantine gap (the paper's open question 3).
//!
//! "Whether a sub-linear message bound agreement protocol is possible in
//! the presence of Byzantine node failure" is left open by the paper. This
//! experiment shows how far the crash-fault protocols are from closing it:
//! a *single* Byzantine node defeats both —
//!
//! * a forged `0` makes the all-ones network decide a value nobody input
//!   (validity violation);
//! * an equivocating pair of forged leadership claims makes candidates
//!   elect a phantom (and possibly two different phantoms).
//!
//! Declares its grid as an [`ftc_lab`] campaign — `ftc lab run` can
//! execute, persist, and diff the same experiment.
//!
//! ```sh
//! cargo run --release -p ftc-bench --bin fig_byzantine -- [--jobs N] [--trials N] [--seed N] [--smoke]
//! ```

use ftc_bench::{print_table, ExpOpts};
use ftc_lab::{run_campaign, CampaignSpec, CellSpec, Substrate, Workload};

const BS: [u32; 4] = [0, 1, 2, 4];

fn main() {
    let opts = ExpOpts::parse();
    let n = opts.pick(1024u32, 256);
    let trials = opts.trials(20);
    println!(
        "E12: Byzantine corruption vs the crash-fault protocols, n = {n}, {trials} trials ({})",
        opts.banner()
    );
    println!();

    let mut spec = CampaignSpec::new("fig-byzantine");
    for &b in &BS {
        spec = spec.cell(
            CellSpec::new(
                Workload::AgreeByzantine { b },
                n,
                0.9,
                opts.seed(0xB12),
                trials,
            )
            .label("agree"),
        );
    }
    for &b in &BS {
        spec = spec.cell(
            CellSpec::new(
                Workload::LeByzantine { b },
                n,
                0.9,
                opts.seed(0x12B),
                trials,
            )
            .label("le"),
        );
    }
    let record = run_campaign(&spec, opts.jobs, Substrate::Engine).expect("campaign");
    let series = |label: &str| {
        record
            .cells
            .iter()
            .filter(|c| c.cell.label == label)
            .collect::<Vec<_>>()
    };

    println!("— agreement, all honest inputs = 1, b forged-zero senders —");
    let mut rows = Vec::new();
    for (cell, &b) in series("agree").iter().zip(&BS) {
        // The cell's success predicate is "validity held", so the
        // violation count is the complement.
        let validity_violations = trials - cell.successes;
        rows.push(vec![
            b.to_string(),
            format!("{validity_violations}/{trials}"),
        ]);
    }
    print_table(&["byzantine nodes", "validity violations"], &rows);
    println!();

    println!("— leader election, b equivocating claimants —");
    let mut rows = Vec::new();
    for (cell, &b) in series("le").iter().zip(&BS) {
        let broken = trials - cell.successes;
        rows.push(vec![b.to_string(), format!("{broken}/{trials}")]);
    }
    print_table(&["byzantine nodes", "elections destroyed"], &rows);

    println!();
    println!("shape check: b = 0 rows are clean; a single Byzantine node breaks");
    println!("both protocols almost surely. Sublinear *Byzantine* agreement in this");
    println!("model remains open (paper, Section VI, question 3) — known Byzantine");
    println!("protocols (King-Saia etc.) pay Omega-tilde(n^1.5) messages.");
}
