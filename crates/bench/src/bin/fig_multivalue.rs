//! E14 (extension) — multi-valued agreement: the `log k` factor.
//!
//! The binary protocol generalises to inputs from `{0..k}` by propagating
//! the minimum (see `ftc_core::multi_agreement`). The predicted costs:
//! `O(log k)` bits per message and up to `log k` improvement waves —
//! so message *bits* grow with `log k` while success stays whp.
//!
//! Declares its grid as an [`ftc_lab`] campaign — `ftc lab run` can
//! execute, persist, and diff the same experiment.
//!
//! ```sh
//! cargo run --release -p ftc-bench --bin fig_multivalue -- [--jobs N] [--trials N] [--seed N] [--smoke]
//! ```

use ftc_bench::{fmt_count, print_table, ExpOpts};
use ftc_lab::{run_campaign, CampaignSpec, CellSpec, Substrate, Workload};

const ALPHA: f64 = 0.5;
const KS: [u32; 5] = [2, 16, 256, 4096, 65536];

fn main() {
    let opts = ExpOpts::parse();
    let n = opts.pick(2048u32, 512);
    let trials = opts.trials(10);
    println!(
        "E14: multi-valued agreement, n = {n}, alpha = {ALPHA}, {trials} trials ({})",
        opts.banner()
    );
    println!("(inputs uniform in 0..k; (1-alpha)n random crashes)");
    println!();

    let mut spec = CampaignSpec::new("fig-multivalue");
    for &k in &KS {
        spec = spec.cell(
            CellSpec::new(
                Workload::MultiValue { k },
                n,
                ALPHA,
                opts.seed(0xE14),
                trials,
            )
            .label("multi"),
        );
    }
    let record = run_campaign(&spec, opts.jobs, Substrate::Engine).expect("campaign");

    let mut rows = Vec::new();
    for (cell, &k) in record.cells.iter().zip(&KS) {
        rows.push(vec![
            k.to_string(),
            format!("{}/{trials}", cell.successes),
            fmt_count(cell.msgs.mean),
            fmt_count(cell.bits.mean),
            format!("{:.1}", cell.bits.mean / cell.msgs.mean),
            format!("{:.0}", cell.rounds.mean),
        ]);
    }
    print_table(
        &["k", "success", "msgs", "bits", "bits/msg", "rounds"],
        &rows,
    );
    println!();
    println!("shape checks: success stays ~1.0 for every k; bits/msg grows like");
    println!("log2(k); messages grow mildly (improvement waves), far below any");
    println!("linear-in-k blowup. k = 2 reproduces the binary protocol's costs.");
}
