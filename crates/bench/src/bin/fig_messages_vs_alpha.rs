//! E3 — message complexity vs `α` (the resilience dial).
//!
//! Fixes `n` and sweeps the guaranteed non-faulty fraction `α` down
//! towards the paper's limit `log²n/n`. Theorems 4.1/5.1 predict message
//! growth `α^{-5/2}` for leader election and `α^{-3/2}` for agreement; the
//! fitted exponents on `1/α` should land near 2.5 and 1.5 respectively.
//!
//! Declares its grid as an [`ftc_lab`] campaign — `ftc lab run` can
//! execute, persist, and diff the same experiment.
//!
//! ```sh
//! cargo run --release -p ftc-bench --bin fig_messages_vs_alpha -- [--jobs N] [--trials N] [--seed N] [--smoke]
//! ```

use ftc_bench::{fmt_count, print_table, ExpOpts};
use ftc_lab::{
    run_campaign, Adv, CampaignSpec, CellSpec, CheckAxis, CheckMetric, ExponentCheck, Substrate,
    Workload,
};
use ftc_sim::stats::fit_power_law;

const ALPHAS: [f64; 4] = [1.0, 0.5, 0.25, 0.125];

fn main() {
    let opts = ExpOpts::parse();
    // alpha = 0.125 needs n with log2^2(n)/n <= 0.125, so the smoke size
    // floors at 1024.
    let n = opts.pick(4096u32, 1024);
    let trials = opts.trials(6);
    let seed = opts.seed(0xE3);
    println!(
        "E3: messages vs alpha (n = {n}, {trials} trials per point, {})",
        opts.banner()
    );
    println!("(alpha below 0.125 at this n leaves the asymptotic regime: the");
    println!("referee rank-forwarding term degenerates — see DESIGN.md)");
    println!("faults f = (1-alpha)*n, random crash schedule");
    println!();

    let mut spec = CampaignSpec::new("fig-messages-vs-alpha");
    for &alpha in &ALPHAS {
        spec = spec
            .cell(
                CellSpec::new(
                    Workload::Le {
                        adv: Adv::Random(60),
                    },
                    n,
                    alpha,
                    seed,
                    trials,
                )
                .label("le"),
            )
            .cell(
                CellSpec::new(
                    Workload::Agree {
                        zeros: 0.05,
                        adv: Adv::Random(20),
                    },
                    n,
                    alpha,
                    seed,
                    trials,
                )
                .label("agree"),
            );
    }
    spec = spec.check(ExponentCheck {
        name: "le-msgs-vs-inv-alpha".into(),
        series: "le".into(),
        metric: CheckMetric::Msgs,
        axis: CheckAxis::InvAlpha,
        min: 1.0,
        max: 3.5,
    });
    let record = run_campaign(&spec, opts.jobs, Substrate::Engine).expect("campaign");
    let les: Vec<_> = record
        .cells
        .iter()
        .filter(|c| c.cell.label == "le")
        .collect();
    let ags: Vec<_> = record
        .cells
        .iter()
        .filter(|c| c.cell.label == "agree")
        .collect();

    let mut rows = Vec::new();
    let mut inv_alpha = Vec::new();
    let mut le_msgs = Vec::new();
    let mut ag_msgs = Vec::new();
    for ((le, ag), &alpha) in les.iter().zip(&ags).zip(&ALPHAS) {
        inv_alpha.push(1.0 / alpha);
        le_msgs.push(le.msgs.mean);
        ag_msgs.push(ag.msgs.mean);
        rows.push(vec![
            format!("{alpha}"),
            fmt_count((1.0 - alpha) * f64::from(n)),
            fmt_count(le.msgs.mean),
            format!("{:.2}", le.success_rate()),
            fmt_count(ag.msgs.mean),
            format!("{:.2}", ag.success_rate()),
        ]);
    }
    print_table(
        &[
            "alpha",
            "faults",
            "LE msgs",
            "LE ok",
            "agree msgs",
            "agree ok",
        ],
        &rows,
    );

    let (le_exp, _) = fit_power_law(&inv_alpha, &le_msgs);
    let (ag_exp, _) = fit_power_law(&inv_alpha, &ag_msgs);
    println!();
    println!("fitted: LE messages ~ (1/alpha)^{le_exp:.2}   (paper: 2.5)");
    println!("fitted: agreement messages ~ (1/alpha)^{ag_exp:.2}   (paper: 1.5)");
    println!("shape check: LE exponent > agreement exponent, both > 1.");
}
