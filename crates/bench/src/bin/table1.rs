//! E1 — Table I: comparison with the best known agreement protocols.
//!
//! Reproduces the paper's Table I empirically: each row is one protocol
//! run in the same simulator at the same network size, at the maximum
//! resilience that row supports, under random crash schedules. The paper's
//! asymptotic columns are printed alongside the measured ones; the *shape*
//! to verify is the ordering — this paper's protocol uses the fewest
//! messages while tolerating the most faults, at the price of implicit
//! output and polylog rounds.
//!
//! Declares its grid as an [`ftc_lab`] campaign — `ftc lab run` can
//! execute, persist, and diff the same experiment.
//!
//! ```sh
//! cargo run --release -p ftc-bench --bin table1 -- [--jobs N] [--trials N] [--seed N] [--smoke]
//! ```

use ftc_bench::{fmt_count, print_table, ExpOpts};
use ftc_lab::{
    run_campaign, Adv, CampaignSpec, CellSpec, CheckAxis, CheckMetric, ExponentCheck, Substrate,
    Workload,
};

/// Input density of the agreement rows: zeros at every id divisible by 7.
const SEVENTH: f64 = 1.0 / 7.0;

fn main() {
    let opts = ExpOpts::parse();
    let n = opts.pick(4096u32, 1024);
    let trials = opts.trials(10);
    let seed = opts.seed(0xE1);
    println!(
        "Table I reproduction — agreement protocols, n = {n}, {trials} trials each ({})",
        opts.banner()
    );
    println!("(crash schedule: uniformly random crash rounds over the protocol's run)");
    println!();

    let sizes = opts.pick(vec![2048u32, 8192, 32768], vec![1024, 2048]);
    let mut spec = CampaignSpec::new("table1")
        .cell(
            CellSpec::new(
                Workload::Flood {
                    faults: u64::from(n - 1) / 2,
                },
                n,
                0.5,
                seed ^ 0x1000,
                trials,
            )
            .label("flood"),
        )
        .cell(
            CellSpec::new(
                Workload::Gk {
                    faults: u64::from(n) / 2 - 1,
                },
                n,
                0.5,
                seed ^ 0x2000,
                trials,
            )
            .label("gk"),
        )
        .cell(
            CellSpec::new(
                Workload::Gossip {
                    faults: u64::from(n) / 2,
                },
                n,
                0.5,
                seed ^ 0x3000,
                trials,
            )
            .label("gossip"),
        );
    for &alpha in &[0.5, 0.125] {
        spec = spec.cell(
            CellSpec::new(
                Workload::Agree {
                    zeros: SEVENTH,
                    adv: Adv::Random(20),
                },
                n,
                alpha,
                seed ^ 0x4000,
                trials,
            )
            .label("ours"),
        );
    }
    spec = spec.cell(
        CellSpec::new(
            Workload::AgreeExplicit { zeros: SEVENTH },
            n,
            0.5,
            seed ^ 0x5000,
            trials,
        )
        .label("ours-explicit"),
    );
    // Scaling-fit series, one cell per size with the historical per-size
    // seed salts.
    for &sn in &sizes {
        spec = spec
            .cell(
                CellSpec::new(
                    Workload::Agree {
                        zeros: SEVENTH,
                        adv: Adv::Random(20),
                    },
                    sn,
                    0.5,
                    seed ^ 0x6000 ^ u64::from(sn),
                    trials,
                )
                .label("fit-ours"),
            )
            .cell(
                CellSpec::new(
                    Workload::Gk {
                        faults: u64::from(sn) / 4,
                    },
                    sn,
                    0.5,
                    seed ^ 0x7000 ^ u64::from(sn),
                    trials,
                )
                .label("fit-gk"),
            )
            .cell(
                CellSpec::new(
                    Workload::Gossip {
                        faults: u64::from(sn) / 4,
                    },
                    sn,
                    0.5,
                    seed ^ 0x8000 ^ u64::from(sn),
                    trials,
                )
                .label("fit-gossip"),
            );
    }
    spec = spec.check(ExponentCheck {
        name: "ours-msgs-sublinear".into(),
        series: "fit-ours".into(),
        metric: CheckMetric::Msgs,
        axis: CheckAxis::N,
        min: 0.1,
        max: 0.95,
    });
    let record = run_campaign(&spec, opts.jobs, Substrate::Engine).expect("campaign");
    let series = |label: &str| {
        record
            .cells
            .iter()
            .filter(|c| c.cell.label == label)
            .collect::<Vec<_>>()
    };
    let measured = |cell: &ftc_lab::CellResult| {
        vec![
            format!("{:.0}", cell.rounds.mean),
            fmt_count(cell.msgs.mean),
            format!("{}/{}", cell.successes, trials),
        ]
    };

    let mut rows: Vec<Vec<String>> = Vec::new();
    rows.push(
        [
            vec![
                "FloodSet (folklore)".into(),
                "any f".into(),
                "KT0".into(),
                "O(f)".into(),
                "O(n^2)".into(),
            ],
            measured(series("flood")[0]),
        ]
        .concat(),
    );
    rows.push(
        [
            vec![
                "Gilbert-Kowalski'10 style [24]".into(),
                "n/2 - 1".into(),
                "KT1".into(),
                "O(log n)".into(),
                "O(n)".into(),
            ],
            measured(series("gk")[0]),
        ]
        .concat(),
    );
    rows.push(
        [
            vec![
                "Chlebus-Kowalski'09 style [36]".into(),
                "c*n (c<1)".into(),
                "KT0".into(),
                "O(log n)*".into(),
                "O(n log n)*".into(),
            ],
            measured(series("gossip")[0]),
        ]
        .concat(),
    );
    for (cell, &alpha) in series("ours").iter().zip(&[0.5, 0.125]) {
        rows.push(
            [
                vec![
                    format!("this paper (implicit, a={alpha})"),
                    "n - log^2 n".into(),
                    "KT0 anon".into(),
                    "O(log n/a)".into(),
                    "O(sqrt(n) log^1.5 n/a^1.5)".into(),
                ],
                measured(cell),
            ]
            .concat(),
        );
    }
    rows.push(
        [
            vec![
                "this paper (explicit, a=0.5)".into(),
                "n - log^2 n".into(),
                "KT0 anon".into(),
                "O(log n/a)".into(),
                "O(n log n/a)".into(),
            ],
            measured(series("ours-explicit")[0]),
        ]
        .concat(),
    );

    print_table(
        &[
            "protocol",
            "resilience",
            "model",
            "rounds (paper)",
            "messages (paper)",
            "rounds (meas.)",
            "msgs (meas.)",
            "success",
        ],
        &rows,
    );

    println!();
    println!("* bounds in expectation.  Shape checks at this n: (1) FloodSet pays");
    println!("Theta(n^2) msgs and Theta(f) rounds; (2) the GK10-style row is cheapest");
    println!("in raw messages here but needs KT1, non-anonymity and f < n/2 — the");
    println!("paper's rows tolerate n - log^2 n faults in an anonymous KT0 network;");
    println!("(3) higher resilience (a = 0.125) costs more messages (the 1/a^1.5");
    println!("factor). The asymptotic message ordering is the scaling fit below:");
    println!("this paper's agreement grows sublinearly, the linear-message rows at");
    println!("~n; extrapolating the fits puts the crossover in the millions of");
    println!("nodes at these constants.");
    println!();

    // --- scaling fit: measured growth exponents in n ---
    println!("scaling fit (messages vs n, alpha = 0.5, {trials} trials/point):");
    println!();
    let mut fit_rows: Vec<Vec<String>> = Vec::new();
    let xs: Vec<f64> = sizes.iter().map(|&sn| f64::from(sn)).collect();
    for (name, label) in &[
        ("this paper (implicit)", "fit-ours"),
        ("GK10-style", "fit-gk"),
        ("CK09-style gossip", "fit-gossip"),
    ] {
        let ys: Vec<f64> = series(label).iter().map(|c| c.msgs.mean).collect();
        let (exp, _) = ftc_sim::stats::fit_power_law(&xs, &ys);
        fit_rows.push(vec![
            name.to_string(),
            fmt_count(ys[0]),
            fmt_count(ys[ys.len() - 1]),
            format!("{exp:.2}"),
        ]);
    }
    let h_first = format!("msgs @ n={}", sizes[0]);
    let h_last = format!("msgs @ n={}", sizes[sizes.len() - 1]);
    print_table(
        &["protocol", &h_first, &h_last, "fitted n-exponent"],
        &fit_rows,
    );
    println!();
    println!("shape check: this paper's fitted exponent is decisively below 1");
    println!("(sublinear; polylog factors inflate the finite-size fit above the");
    println!("asymptotic 0.5), while the linear-message baselines sit at ~1.0.");
}
