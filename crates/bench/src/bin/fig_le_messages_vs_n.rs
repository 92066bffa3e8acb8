//! E2 — message complexity of leader election vs `n` (Theorem 4.1).
//!
//! Sweeps the network size at fixed `α` and fits the measured message
//! counts to a power law. Theorem 4.1 predicts `Õ(√n)` growth: the fitted
//! exponent on `n` should sit near 0.5 (polylog factors push it slightly
//! up at these sizes), decisively below the linear baseline's 1.0 and the
//! broadcast baseline's 2.0.
//!
//! Declares its grid as an [`ftc_lab`] campaign — `ftc lab run` can
//! execute, persist, and diff the same experiment.
//!
//! ```sh
//! cargo run --release -p ftc-bench --bin fig_le_messages_vs_n -- [--jobs N] [--trials N] [--seed N] [--smoke]
//! ```

use ftc_bench::{fmt_count, print_table, ExpOpts};
use ftc_core::params::Params;
use ftc_lab::{
    run_campaign, Adv, CampaignSpec, CellSpec, CheckAxis, CheckMetric, ExponentCheck, Substrate,
    Workload,
};
use ftc_sim::stats::fit_power_law;

const ALPHA: f64 = 0.5;

fn main() {
    let opts = ExpOpts::parse();
    let sizes = opts.pick(vec![1024u32, 2048, 4096, 8192, 16384], vec![256, 512, 1024]);
    let trials = opts.trials(8);
    let seed = opts.seed(0xE2);
    println!(
        "E2: implicit leader election, messages vs n (alpha = {ALPHA}, {trials} trials, {})",
        opts.banner()
    );
    println!();

    let mut spec = CampaignSpec::new("fig-le-messages-vs-n");
    for &n in &sizes {
        spec = spec.cell(
            CellSpec::new(
                Workload::Le {
                    adv: Adv::Random(60),
                },
                n,
                ALPHA,
                seed,
                trials,
            )
            .label("le"),
        );
    }
    spec = spec.check(ExponentCheck {
        name: "le-msgs-sublinear".into(),
        series: "le".into(),
        metric: CheckMetric::Msgs,
        axis: CheckAxis::N,
        min: 0.3,
        max: 1.05,
    });
    let record = run_campaign(&spec, opts.jobs, Substrate::Engine).expect("campaign");

    let mut rows = Vec::new();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (cell, &n) in record.cells.iter().zip(&sizes) {
        let params = Params::new(n, ALPHA).expect("valid");
        xs.push(f64::from(n));
        ys.push(cell.msgs.mean);
        rows.push(vec![
            n.to_string(),
            fmt_count(cell.msgs.mean),
            fmt_count(cell.msgs.p95),
            fmt_count(params.le_message_bound()),
            format!("{:.1}", cell.msgs.mean / params.le_message_bound()),
            fmt_count(f64::from(n) * f64::from(n)),
            format!("{:.2}", cell.success_rate()),
        ]);
    }
    print_table(
        &[
            "n",
            "msgs mean",
            "msgs p95",
            "bound sqrt(n)ln^2.5/a^2.5",
            "x bound",
            "n^2 (flood)",
            "success",
        ],
        &rows,
    );

    let (exp, coeff) = fit_power_law(&xs, &ys);
    println!();
    println!("fitted: messages = {coeff:.1} * n^{exp:.3}");
    println!("shape check: exponent should be ~0.5 (sublinear), far from 1.0 and 2.0.");
}
