//! E8 — the `Ω(√n/α^{3/2})` lower bound, observed (Theorems 4.2/5.2).
//!
//! Models "an algorithm that sends at most `B` messages" by running the
//! paper's protocols under a per-node send cap and watches the failure
//! probability rise to a constant as the realised spend falls towards and
//! below the threshold `√n/α^{3/2}` — the transition the proof predicts.
//! (See the `lower_bound_probe` example for the influence-cloud structure
//! behind the failures.)
//!
//! Declares its grid as an [`ftc_lab`] campaign — `ftc lab run` can
//! execute, persist, and diff the same experiment. Each cap keeps the
//! historical per-cap seed salt, so the numbers match the pre-campaign
//! sweep helpers bit-for-bit.
//!
//! ```sh
//! cargo run --release -p ftc-bench --bin fig_lowerbound -- [--jobs N] [--trials N] [--seed N] [--smoke]
//! ```

use ftc_bench::{fmt_count, print_table, ExpOpts};
use ftc_core::params::Params;
use ftc_lab::{run_campaign, CampaignSpec, CellSpec, Substrate, Workload};
use ftc_sim::stats::Summary;

const ALPHA: f64 = 0.5;
const CAPS: [Option<u32>; 10] = [
    None,
    Some(64),
    Some(48),
    Some(32),
    Some(24),
    Some(16),
    Some(8),
    Some(4),
    Some(1),
    Some(0),
];

fn cap_salt(cap: Option<u32>) -> u64 {
    cap.map_or(u64::MAX, u64::from)
}

fn rows_of(points: &[(Option<u32>, &Summary, f64, f64, f64)]) -> Vec<Vec<String>> {
    points
        .iter()
        .map(|(cap, msgs, suppressed, threshold_ratio, failure_rate)| {
            vec![
                cap.map_or("unlimited".into(), |c| c.to_string()),
                fmt_count(msgs.mean),
                fmt_count(*suppressed),
                format!("{threshold_ratio:.2}"),
                format!("{failure_rate:.2}"),
            ]
        })
        .collect()
}

fn main() {
    let opts = ExpOpts::parse();
    let n = opts.pick(2048u32, 512);
    let trials = opts.trials(24);
    let threshold = Params::new(n, ALPHA)
        .expect("valid")
        .lower_bound_threshold();
    println!(
        "E8: per-node send-cap sweep, n = {n}, alpha = {ALPHA}, threshold sqrt(n)/a^1.5 = {threshold:.0} msgs, {trials} trials ({})",
        opts.banner()
    );
    println!("(inputs split 50/50 for agreement; (1-alpha)n eager crashes)");
    println!();

    let mut spec = CampaignSpec::new("fig-lowerbound");
    for &cap in &CAPS {
        spec = spec.cell(
            CellSpec::new(
                Workload::AgreeCapped { cap },
                n,
                ALPHA,
                opts.seed(0xE8) ^ cap_salt(cap),
                trials,
            )
            .label("agree"),
        );
    }
    for &cap in &CAPS {
        spec = spec.cell(
            CellSpec::new(
                Workload::LeCapped { cap },
                n,
                ALPHA,
                opts.seed(0x8E) ^ cap_salt(cap),
                trials,
            )
            .label("le"),
        );
    }
    let record = run_campaign(&spec, opts.jobs, Substrate::Engine).expect("campaign");
    let points = |label: &str| {
        record
            .cells
            .iter()
            .filter(|c| c.cell.label == label)
            .zip(&CAPS)
            .map(|(c, &cap)| {
                (
                    cap,
                    &c.msgs,
                    c.extra("suppressed").map_or(0.0, |s| s.mean),
                    c.msgs.mean / threshold,
                    1.0 - c.success_rate(),
                )
            })
            .collect::<Vec<_>>()
    };

    println!("— agreement (Theorem 5.2) —");
    print_table(
        &[
            "cap/node",
            "mean msgs",
            "suppressed",
            "x threshold",
            "failure rate",
        ],
        &rows_of(&points("agree")),
    );
    println!();

    println!("— leader election (Theorem 4.2) —");
    print_table(
        &[
            "cap/node",
            "mean msgs",
            "suppressed",
            "x threshold",
            "failure rate",
        ],
        &rows_of(&points("le")),
    );

    println!();
    println!("shape checks: spend is monotone in the cap; failure rate ~0 while the");
    println!("spend sits far above the threshold, and climbs to a constant as the");
    println!("spend approaches/falls below it. (The paper's upper bound exceeds the");
    println!("lower bound by polylog factors, so the knee sits somewhat above 1x.)");
}
