//! End-to-end coverage of the `ftc lab gate` CLI contract: a gate against
//! an honest baseline exits 0, and *any* perturbation of a measured
//! number in the baseline makes the gate exit non-zero. This drives the
//! real binary (not the library) so argument parsing, record loading and
//! process exit codes are all on the hook.

use std::path::PathBuf;
use std::process::Command;

use ftc::lab::{run_campaign, Adv, CampaignSpec, CellSpec, Store, Substrate, Workload};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftc-gate-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn gate(baseline: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ftc"))
        .args(["lab", "gate"])
        .arg(baseline)
        .args(["--jobs", "1"])
        .output()
        .expect("spawn ftc")
}

#[test]
fn gate_passes_honest_baseline_and_fails_perturbed_one() {
    let dir = tmp_dir("perturb");
    let spec = CampaignSpec::new("gate-cli-e2e").cell(CellSpec::new(
        Workload::Le {
            adv: Adv::Random(5),
        },
        16,
        0.5,
        7,
        2,
    ));
    let record = run_campaign(&spec, 1, Substrate::Engine).unwrap();
    let store = Store::at(&dir);
    let id = store.put(&record).unwrap();
    let honest = dir.join(format!("{id}.json"));

    let out = gate(&honest);
    assert!(
        out.status.success(),
        "honest gate failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    // Perturb one measured number by the smallest visible amount and
    // write the doctored record next to the honest one.
    let mut doctored = record.clone();
    doctored.cells[0].msgs.mean += 1.0;
    let path = dir.join("doctored.json");
    std::fs::write(&path, doctored.to_json(true).render()).unwrap();

    let out = gate(&path);
    assert!(
        !out.status.success(),
        "gate accepted a perturbed baseline:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    // Drift details and the final verdict go to stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("mismatch"),
        "gate failure output should name the mismatch, got:\n{stderr}"
    );
    assert!(
        stderr.contains("drift"),
        "gate failure output should list drifting cells, got:\n{stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
