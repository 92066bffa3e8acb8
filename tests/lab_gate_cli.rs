//! End-to-end coverage of the `ftc lab gate` CLI contract: a gate against
//! an honest baseline exits 0, and *any* perturbation of a measured
//! number in the baseline makes the gate exit non-zero — for lab records
//! and portfolio-hunt records alike. This drives the real binary (not the
//! library) so argument parsing, record loading and process exit codes
//! are all on the hook.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ftc::hunt::portfolio::HuntCampaignRecord;
use ftc::lab::{run_campaign, Adv, CampaignSpec, CellSpec, Store, Substrate, Workload};
use ftc::sim::json::Json;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftc-gate-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ftc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ftc"))
        .args(args)
        .output()
        .expect("spawn ftc")
}

fn gate(baseline: &Path) -> Output {
    ftc(&["lab", "gate", baseline.to_str().unwrap(), "--jobs", "1"])
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

#[test]
fn portfolio_records_gate_and_show_through_lab() {
    let store = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/store");
    let committed = store.join("adversary-portfolio-598993f4cd7641a0.json");
    let out = gate(&committed);
    assert!(
        out.status.success(),
        "committed portfolio failed its gate:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    // One cell's hit count, off by one.
    let dir = tmp_dir("portfolio");
    let text = std::fs::read_to_string(&committed).unwrap();
    let mut doctored = HuntCampaignRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
    doctored.cells[0].hits += 1;
    let label = doctored.cells[0].cell.label.clone();
    let path = dir.join("doctored.json");
    std::fs::write(&path, doctored.to_json(true).render()).unwrap();
    let out = gate(&path);
    assert!(!out.status.success(), "gate accepted a doctored portfolio");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("drift: cell {label}: `hits`")) && stderr.contains("mismatch"),
        "gate failure output should name the drifting cell and key, got:\n{stderr}"
    );

    let out = ftc(&[
        "lab",
        "show",
        "adversary-portfolio",
        "--store",
        store.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("coverage: 80/80"), "{stdout}");

    // The verb tree `lab` replaced is gone, not a default hunt.
    let out = ftc(&["hunt", "portfolio", "run", "adversary-portfolio"]);
    assert_eq!(out.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lab_diff_takes_portfolios_and_tolerance_is_perf_only() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results/store/adversary-portfolio-598993f4cd7641a0.json");
    let dir = tmp_dir("diff");
    let text = std::fs::read_to_string(&committed).unwrap();
    let copy = dir.join("copy.json");
    std::fs::write(&copy, &text).unwrap();
    let diff = |a: &Path, b: &Path, extra: &[&str]| {
        let mut args = vec!["lab", "diff", a.to_str().unwrap(), b.to_str().unwrap()];
        args.extend_from_slice(extra);
        ftc(&args)
    };
    let out = diff(&committed, &copy, &[]);
    assert!(
        out.status.success(),
        "a portfolio differs from its own copy:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // One cell's hit count raised by one is named, cell and key.
    let mut doctored = HuntCampaignRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
    doctored.cells[0].hits += 1;
    let label = doctored.cells[0].cell.label.clone();
    let path = dir.join("doctored.json");
    std::fs::write(&path, doctored.to_json(true).render()).unwrap();
    let out = diff(&committed, &path, &[]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("drift: cell {label}: `hits`")),
        "{stderr}"
    );

    // The band is `lab perf`'s; diff and gate compare exactly.
    for out in [
        diff(&committed, &copy, &["--tolerance", "0.1"]),
        ftc(&["lab", "gate", copy.to_str().unwrap(), "--tolerance", "0.1"]),
    ] {
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("lab perf"), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gate_reruns_a_record_on_the_substrate_it_names() {
    let dir = tmp_dir("substrate");
    let spec = CampaignSpec::new("gate-cli-substrate").cell(CellSpec::new(
        Workload::Le {
            adv: Adv::Random(5),
        },
        16,
        0.5,
        3,
        2,
    ));
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, spec.to_json().render()).unwrap();
    let store = dir.join("store");
    let out = ftc(&[
        "lab",
        "run",
        spec_path.to_str().unwrap(),
        "--substrate",
        "channel:2",
        "--jobs",
        "1",
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let record = std::fs::read_dir(&store)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("the run stored its record");

    // No flag: the gate re-runs on the record's own channel:2.
    let out = gate(&record);
    assert!(
        out.status.success(),
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    // Another substrate fails before anything runs, naming the record's.
    let out = ftc(&[
        "lab",
        "gate",
        record.to_str().unwrap(),
        "--substrate",
        "engine",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("channel:2"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_out_of_range_fault_budget_exits_1_naming_the_cell() {
    // Each of these used to panic a worker (exit 101) or, for α > 1,
    // store a record that ran fault-free.
    let dir = tmp_dir("budget");
    let (spec, store) = (dir.join("spec.json"), dir.join("store"));
    let cells = [
        ("flood-over", r#"{"kind":"flood","faults":100},"alpha":0.5"#),
        (
            "diam-negative",
            r#"{"kind":"le_diam_two","adv":{"kind":"eager"}},"alpha":-0.5"#,
        ),
        (
            "bench-seven",
            r#"{"kind":"engine_bench","adv":{"kind":"eager"},"p":0.0,"rounds":2},"alpha":7.0"#,
        ),
    ];
    for (label, workload) in cells {
        let cell =
            format!(r#"{{"label":"{label}","workload":{workload},"n":64,"seed":3,"trials":2}}"#);
        let text = format!(r#"{{"name":"budget-bad","cells":[{cell}],"checks":[]}}"#);
        std::fs::write(&spec, text).unwrap();
        let args = [
            "lab",
            "run",
            spec.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
        ];
        let out = ftc(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains(&format!("cell `{label}`")), "{stderr}");
        assert!(!store.exists(), "a rejected campaign reached the store");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
