//! E4 — round complexity `O(log n/α)` (Theorems 4.1/5.1).
//!
//! Two sweeps: rounds vs `n` at fixed `α` (should grow like `log n` —
//! doubling `n` adds a constant) and rounds vs `α` at fixed `n` (should
//! grow like `1/α`). The paper's almost-matching lower bound is
//! `Ω(log n/log log n)` of reference \[25\].
//!
//! Declares its grid as an [`ftc_lab`] campaign — `ftc lab run` can
//! execute, persist, and diff the same experiment.
//!
//! ```sh
//! cargo run --release -p ftc-bench --bin fig_rounds -- [--jobs N] [--trials N] [--seed N] [--smoke]
//! ```

use ftc_bench::{print_table, ExpOpts};
use ftc_lab::{run_campaign, Adv, CampaignSpec, CellSpec, Substrate, Workload};

fn main() {
    let opts = ExpOpts::parse();
    let sizes = opts.pick(vec![1024u32, 2048, 4096, 8192, 16384], vec![256, 512, 1024]);
    // E4b sweeps alpha down to 0.125, which needs n >= 1024.
    let nb = opts.pick(4096u32, 1024);
    let trials = opts.trials(8);
    let seed_a = opts.seed(0xE4);
    let seed_b = opts.seed(0x4B);
    println!(
        "E4a: rounds vs n (alpha = 0.5, worst-case targeted adversary, {trials} trials, {})",
        opts.banner()
    );
    println!();

    const ALPHAS: [f64; 4] = [1.0, 0.5, 0.25, 0.125];
    let mut spec = CampaignSpec::new("fig-rounds");
    for &n in &sizes {
        spec = spec
            .cell(
                CellSpec::new(Workload::Le { adv: Adv::Targeted }, n, 0.5, seed_a, trials)
                    .label("le-a"),
            )
            .cell(
                CellSpec::new(
                    Workload::Agree {
                        zeros: 0.05,
                        adv: Adv::Targeted,
                    },
                    n,
                    0.5,
                    seed_a,
                    trials,
                )
                .label("agree-a"),
            );
    }
    for &alpha in &ALPHAS {
        spec = spec
            .cell(
                CellSpec::new(
                    Workload::Le {
                        adv: Adv::Random(60),
                    },
                    nb,
                    alpha,
                    seed_b,
                    trials,
                )
                .label("le-b"),
            )
            .cell(
                CellSpec::new(
                    Workload::Agree {
                        zeros: 0.05,
                        adv: Adv::Random(20),
                    },
                    nb,
                    alpha,
                    seed_b,
                    trials,
                )
                .label("agree-b"),
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
    for ((le, ag), &n) in series("le-a").iter().zip(series("agree-a")).zip(&sizes) {
        rows.push(vec![
            n.to_string(),
            format!("{:.1}", f64::from(n).log2()),
            format!("{:.0}", le.rounds.mean),
            format!("{:.0}", le.rounds.max),
            format!("{:.0}", ag.rounds.mean),
            format!("{:.2}", le.success_rate().min(ag.success_rate())),
        ]);
    }
    print_table(
        &[
            "n",
            "log2 n",
            "LE rounds",
            "LE max",
            "agree rounds",
            "min success",
        ],
        &rows,
    );
    println!();
    println!("shape check: rounds stay in the tens while n grows 16x — nothing");
    println!("linear in n. (At these sizes the measured rounds are dominated by");
    println!("the rank-forwarding pre-processing, whose per-referee load shrinks");
    println!("like log^1.5(n)/sqrt(n); the asymptotic +O(1)-per-doubling log-term");
    println!("emerges only at much larger n. Agreement, which has no such");
    println!("pre-processing, sits at a handful of rounds throughout.)");
    println!();

    println!("E4b: rounds vs alpha (n = {nb})");
    println!();
    let mut rows = Vec::new();
    for ((le, ag), &alpha) in series("le-b").iter().zip(series("agree-b")).zip(&ALPHAS) {
        rows.push(vec![
            format!("{alpha}"),
            format!("{:.0}", le.rounds.mean),
            format!("{:.0}", ag.rounds.mean),
            format!("{:.2}", le.success_rate().min(ag.success_rate())),
        ]);
    }
    print_table(
        &["alpha", "LE rounds", "agree rounds", "min success"],
        &rows,
    );
    println!();
    println!("shape check: LE rounds roughly double per halving of alpha (the");
    println!("1/alpha factor, steepened by the alpha^-1.5 pre-processing term);");
    println!("agreement stays constant-ish because its zero-propagation quiesces");
    println!("long before its O(log n/alpha) budget.");
}
