//! E7 — cost of the explicit extensions (`O(n·log n/α)` messages).
//!
//! The implicit protocols are sublinear; going explicit necessarily costs
//! `Ω(n)` messages (every node must learn the output). The paper's
//! extension pays `O(n·log n/α)` in one extra broadcast exchange. The
//! sweep verifies: explicit cost grows linearly in `n` (fit exponent ≈ 1)
//! while the implicit part stays ≈ `√n`.
//!
//! Declares its grid as an [`ftc_lab`] campaign — `ftc lab run` can
//! execute, persist, and diff the same experiment.
//!
//! ```sh
//! cargo run --release -p ftc-bench --bin fig_explicit -- [--jobs N] [--trials N] [--seed N] [--smoke]
//! ```

use ftc_bench::{fmt_count, print_table, ExpOpts};
use ftc_core::params::Params;
use ftc_lab::{run_campaign, CampaignSpec, CellSpec, Substrate, Workload};
use ftc_sim::stats::fit_power_law;

const ALPHA: f64 = 0.5;

fn main() {
    let opts = ExpOpts::parse();
    let sizes = opts.pick(vec![1024u32, 2048, 4096, 8192], vec![256, 512, 1024]);
    let trials = opts.trials(6);
    println!(
        "E7: explicit extension cost (alpha = {ALPHA}, {trials} trials, random crashes, {})",
        opts.banner()
    );
    println!();

    let mut spec = CampaignSpec::new("fig-explicit");
    for &n in &sizes {
        spec = spec
            .cell(
                CellSpec::new(Workload::LeExplicit, n, ALPHA, opts.seed(0xE7), trials)
                    .label("le-explicit"),
            )
            .cell(
                CellSpec::new(
                    Workload::LeImplicitExplicitBudget,
                    n,
                    ALPHA,
                    opts.seed(0xE7),
                    trials,
                )
                .label("le-implicit"),
            )
            .cell(
                CellSpec::new(
                    Workload::AgreeExplicit { zeros: 0.05 },
                    n,
                    ALPHA,
                    opts.seed(0x7E),
                    trials,
                )
                .label("agree-explicit"),
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
    let mut xs = Vec::new();
    let mut le_ys = Vec::new();
    let mut announce_ys = Vec::new();
    for (((le, implicit), ag), &n) in series("le-explicit")
        .iter()
        .zip(series("le-implicit"))
        .zip(series("agree-explicit"))
        .zip(&sizes)
    {
        let params = Params::new(n, ALPHA).expect("valid");
        let le_msgs = le.msgs.mean;
        // The implicit phase alone, same seeds/adversary: the difference
        // is the cost of the announcement broadcast.
        let announce_msgs = (le_msgs - implicit.msgs.mean).max(1.0);
        announce_ys.push(announce_msgs);
        xs.push(f64::from(n));
        le_ys.push(le_msgs);
        let bound = f64::from(n) * params.ln_n() / ALPHA;
        rows.push(vec![
            n.to_string(),
            fmt_count(le_msgs),
            fmt_count(announce_msgs),
            format!("{}/{trials}", le.successes),
            fmt_count(ag.msgs.mean),
            format!("{}/{trials}", ag.successes),
            fmt_count(bound),
        ]);
    }
    print_table(
        &[
            "n",
            "explicit LE total",
            "announce only",
            "ok",
            "explicit agree msgs",
            "ok",
            "n ln n/a",
        ],
        &rows,
    );

    let (total_exp, _) = fit_power_law(&xs, &le_ys);
    let (ann_exp, _) = fit_power_law(&xs, &announce_ys);
    println!();
    println!("fitted: total ~ n^{total_exp:.2}; announce phase alone ~ n^{ann_exp:.2} (paper: ~1,");
    println!("the Omega(n) broadcast floor). The total sits between the implicit");
    println!("~sqrt(n) term (which still dominates at these n) and the linear floor.");
}
