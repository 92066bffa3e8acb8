//! E11 (extension) — why the *static* adversary assumption matters.
//!
//! The paper's guarantees hold against a static adversary (faulty set
//! fixed before the run, crash timing adaptive). This experiment runs the
//! same leader election against (a) the strongest static schedules and
//! (b) a genuinely *adaptive* adversary that picks its victims after
//! seeing who became a candidate — with the same crash budget. The
//! adaptive adversary wins almost surely because the committee is only
//! `Θ(log n/α)` nodes: an instance of the qualitative gap between the
//! static-adversary bounds of this paper and the adaptive-adversary line
//! of work (Bar-Joseph & Ben-Or '98; Hajiaghayi et al. STOC'22).
//!
//! Declares its grid as an [`ftc_lab`] campaign — `ftc lab run` can
//! execute, persist, and diff the same experiment.
//!
//! ```sh
//! cargo run --release -p ftc-bench --bin fig_adaptive -- [--jobs N] [--trials N] [--seed N] [--smoke]
//! ```

use ftc_bench::{print_table, ExpOpts};
use ftc_core::params::Params;
use ftc_lab::{run_campaign, Adv, CampaignSpec, CellSpec, Substrate, Workload};

const ALPHA: f64 = 0.5;

fn main() {
    let opts = ExpOpts::parse();
    let n = opts.pick(1024u32, 256);
    let trials = opts.trials(20);
    let params = Params::new(n, ALPHA).expect("valid");
    let budget = params.max_faults();
    println!(
        "E11: static vs adaptive adversary, n = {n}, crash budget {budget}, {trials} trials ({})",
        opts.banner()
    );
    println!();

    let schedules = [
        ("static: eager mass crash", Adv::Eager),
        ("static: random timing", Adv::Random(60)),
        ("static: min-rank assassin", Adv::Targeted),
        ("ADAPTIVE: candidate killer", Adv::AdaptiveKiller),
    ];
    let mut spec = CampaignSpec::new("fig-adaptive");
    for &(label, adv) in &schedules {
        spec = spec.cell(
            CellSpec::new(Workload::Le { adv }, n, ALPHA, opts.seed(0xE11), trials).label(label),
        );
    }
    let record = run_campaign(&spec, opts.jobs, Substrate::Engine).expect("campaign");

    let mut rows = Vec::new();
    for (cell, &(label, _)) in record.cells.iter().zip(&schedules) {
        rows.push(vec![
            label.to_string(),
            format!("{}/{trials}", cell.successes),
            format!("{:.0}", cell.crashes.mean),
        ]);
    }
    print_table(
        &["adversary", "election success", "mean crashes used"],
        &rows,
    );
    println!();
    println!("shape check: every static schedule succeeds whp; the adaptive killer");
    println!("destroys the Θ(log n/α)-node committee with a tiny fraction of its");
    println!("budget and the election fails — the paper's model boundary, observed.");
}
