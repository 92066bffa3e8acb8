//! E13 (extension) — robustness to incomplete topologies
//! (towards the paper's open question 2: general graphs).
//!
//! The protocols are stated for complete networks, but their referee
//! redundancy (Lemma 3: every candidate pair shares *many* referees in
//! expectation) buys real slack: here we kill each edge of the complete
//! graph independently with probability `p` — messages across dead edges
//! silently vanish — and measure how far `p` can rise before the
//! guarantees crumble, with crash faults still active on top.
//!
//! Declares its grid as an [`ftc_lab`] campaign — `ftc lab run` can
//! execute, persist, and diff the same experiment.
//!
//! ```sh
//! cargo run --release -p ftc-bench --bin fig_edge_failures -- [--jobs N] [--trials N] [--seed N] [--smoke]
//! ```

use ftc_bench::{fmt_count, print_table, ExpOpts};
use ftc_core::params::Params;
use ftc_lab::{run_campaign, CampaignSpec, CellSpec, Substrate, Workload};

const ALPHA: f64 = 0.5;
const PS: [f64; 7] = [0.0, 0.05, 0.2, 0.4, 0.6, 0.8, 0.9];

fn main() {
    let opts = ExpOpts::parse();
    let n = opts.pick(2048u32, 256);
    let trials = opts.trials(16);
    let params = Params::new(n, ALPHA).expect("valid");
    let f = params.max_faults();
    println!(
        "E13: edge failures on top of {f} crash faults, n = {n}, alpha = {ALPHA}, {trials} trials ({})",
        opts.banner()
    );
    println!();

    let mut spec = CampaignSpec::new("fig-edge-failures");
    for &p in &PS {
        spec = spec
            .cell(
                CellSpec::new(Workload::LeEdge { p }, n, ALPHA, opts.seed(0xE13), trials)
                    .label("le"),
            )
            .cell(
                CellSpec::new(
                    Workload::AgreeEdge { p },
                    n,
                    ALPHA,
                    opts.seed(0x13E),
                    trials,
                )
                .label("agree"),
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

    let mut rows = Vec::new();
    for ((le, ag), &p) in series("le").iter().zip(series("agree")).zip(&PS) {
        let lost = le.extra("lost_edges").map_or(0.0, |s| s.mean);
        rows.push(vec![
            format!("{p:.2}"),
            format!("{}/{trials}", le.successes),
            format!("{}/{trials}", ag.successes),
            fmt_count(lost),
        ]);
    }
    print_table(
        &[
            "edge failure p",
            "LE success",
            "agree success",
            "LE msgs lost/trial",
        ],
        &rows,
    );

    println!();
    println!("shape check: candidate pairs share ~|R|^2/n non-faulty referees and");
    println!("each relay path survives with prob (1-p)^2, so the protocols absorb");
    println!("remarkably heavy edge loss and only crumble when (1-p)^2 |R|^2/n");
    println!("drops toward zero (p >~ 0.8 here). A full general-graph treatment");
    println!("is the paper's open question 2.");
}
