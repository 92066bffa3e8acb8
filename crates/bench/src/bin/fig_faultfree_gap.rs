//! E9 — "asymptotically the same as fault-free" (Corollaries 1 and 3).
//!
//! The paper's headline surprise: for any constant fraction of faulty
//! nodes, the `Õ(√n)` message complexity matches the fault-free bounds of
//! Kutten et al. \[21\] (leader election) and Augustine et al. \[23\]
//! (agreement) up to polylog factors. We run the fault-free protocol and
//! the paper's fault-tolerant one side by side and report the ratio —
//! which must stay polylogarithmic (i.e. grow far slower than any power
//! of `n`) as `n` scales.
//!
//! Declares its grid as an [`ftc_lab`] campaign — `ftc lab run` can
//! execute, persist, and diff the same experiment.
//!
//! ```sh
//! cargo run --release -p ftc-bench --bin fig_faultfree_gap -- [--jobs N] [--trials N] [--seed N] [--smoke]
//! ```

use ftc_bench::{fmt_count, print_table, ExpOpts};
use ftc_lab::{run_campaign, Adv, CampaignSpec, CellSpec, Substrate, Workload};
use ftc_sim::stats::fit_power_law;

fn main() {
    let opts = ExpOpts::parse();
    let sizes = opts.pick(vec![1024u32, 2048, 4096, 8192, 16384], vec![256, 512, 1024]);
    let trials = opts.trials(8);
    println!(
        "E9: fault-tolerant (alpha = 0.5, random crashes) vs fault-free [21] ({trials} trials, {})",
        opts.banner()
    );
    println!();

    let mut spec = CampaignSpec::new("fig-faultfree-gap");
    for &n in &sizes {
        spec = spec
            .cell(
                CellSpec::new(Workload::LeKutten, n, 0.5, opts.seed(0xE9), trials).label("kutten"),
            )
            .cell(
                CellSpec::new(
                    Workload::Le {
                        adv: Adv::Random(60),
                    },
                    n,
                    0.5,
                    opts.seed(0x9E),
                    trials,
                )
                .label("le-ft"),
            )
            .cell(
                CellSpec::new(
                    Workload::AgreeAugustine { zeros: 1.0 / 16.0 },
                    n,
                    0.5,
                    opts.seed(0x9B),
                    trials,
                )
                .label("augustine"),
            )
            .cell(
                CellSpec::new(
                    Workload::Agree {
                        zeros: 1.0 / 16.0,
                        adv: Adv::Random(20),
                    },
                    n,
                    0.5,
                    opts.seed(0xB9),
                    trials,
                )
                .label("agree-ft"),
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
    let mut ratios = Vec::new();
    for ((ff, ft), &n) in series("kutten").iter().zip(series("le-ft")).zip(&sizes) {
        let ratio = ft.msgs.mean / ff.msgs.mean;
        xs.push(f64::from(n));
        ratios.push(ratio);
        rows.push(vec![
            n.to_string(),
            fmt_count(ff.msgs.mean),
            format!("{}/{trials}", ff.successes),
            fmt_count(ft.msgs.mean),
            format!("{:.2}", ft.success_rate()),
            format!("{ratio:.1}"),
        ]);
    }
    print_table(
        &[
            "n",
            "fault-free msgs [21]",
            "ok",
            "fault-tolerant msgs",
            "ok",
            "ratio",
        ],
        &rows,
    );

    let (exp, _) = fit_power_law(&xs, &ratios);
    println!();
    println!("fitted: LE ratio ~ n^{exp:.3}");
    println!("shape check: the exponent is ~0 — the gap is polylog(n), not a power");
    println!("of n, which is Corollary 1's claim (same Õ(√n) class despite n/2 faults).");
    println!();

    // --- Corollary 3: the agreement side, vs Augustine et al. [23]. ---
    println!("E9b: fault-tolerant agreement (alpha = 0.5) vs fault-free [23]");
    println!();
    let mut rows = Vec::new();
    let mut xs = Vec::new();
    let mut ratios = Vec::new();
    for ((ff, ft), &n) in series("augustine")
        .iter()
        .zip(series("agree-ft"))
        .zip(&sizes)
    {
        let ratio = ft.msgs.mean / ff.msgs.mean;
        xs.push(f64::from(n));
        ratios.push(ratio);
        rows.push(vec![
            n.to_string(),
            fmt_count(ff.msgs.mean),
            format!("{}/{trials}", ff.successes),
            fmt_count(ft.msgs.mean),
            format!("{:.2}", ft.success_rate()),
            format!("{ratio:.1}"),
        ]);
    }
    print_table(
        &[
            "n",
            "fault-free msgs [23]",
            "ok",
            "fault-tolerant msgs",
            "ok",
            "ratio",
        ],
        &rows,
    );
    let (exp, _) = fit_power_law(&xs, &ratios);
    println!();
    println!("fitted: agreement ratio ~ n^{exp:.3}");
    println!("shape check: again ~0 — Corollary 3's claim for agreement.");
}
