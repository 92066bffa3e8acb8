//! End-to-end coverage of the `ftc lab gate` CLI contract: a gate against
//! an honest baseline exits 0, and *any* perturbation of a measured
//! number in the baseline makes the gate exit non-zero — for lab records
//! and portfolio-hunt records alike. This drives the real binary (not the
//! library) so argument parsing, record loading and process exit codes
//! are all on the hook.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ftc::hunt::portfolio::HuntCampaignRecord;
use ftc::lab::baseline::latest_entry;
use ftc::lab::{
    run_campaign, Adv, CampaignRecord, CampaignSpec, CellSpec, Store, Substrate, Workload,
};
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
fn perf_gates_the_record_its_entry_names_bit_for_bit() {
    // `lab perf` used to diff 8 of a cell's keys against the trajectory's
    // copy of them, so a record doctored anywhere else passed. Each row
    // doctors one stored value outside those keys. Throughput is not
    // asserted: smoke cells are too short to time honestly.
    let dir = tmp_dir("perf");
    let store = dir.join("store");
    let path = |p: &Path| p.to_str().unwrap().to_string();
    type Doctor = fn(&mut CampaignRecord);
    let rows: [(&str, &str, Doctor, &str); 2] = [
        (
            "engine-bench",
            "BENCH_engine.json",
            |r| r.cells[0].bits.mean += 1.0,
            "drift: cell bcast: `bits.mean`",
        ),
        (
            "le-scaling",
            "BENCH_leader_election.json",
            |r| r.checks[0].exponent = r.checks[0].exponent.map(|e| e + 0.5),
            "drift: record: `checks[0].exponent`",
        ),
    ];
    for (name, bench, doctor, drift) in rows {
        let out = ftc(&[
            "lab",
            "baseline",
            name,
            "--smoke",
            "--jobs",
            "1",
            "--out",
            &path(&dir),
            "--store",
            &path(&store),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let bench = dir.join(bench);
        let perf = || {
            ftc(&[
                "lab",
                "perf",
                &path(&bench),
                "--campaign",
                name,
                "--jobs",
                "1",
                "--store",
                &path(&store),
            ])
        };
        let out = perf();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("cells agree bit-for-bit"),
            "{name}: {stdout}"
        );

        let entry = latest_entry(&bench, Some(name)).unwrap();
        let id = entry.field("id").unwrap().as_str().unwrap();
        let record = store.join(format!("{id}.json"));
        let text = std::fs::read_to_string(&record).unwrap();
        let mut doctored = CampaignRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        doctor(&mut doctored);
        std::fs::write(&record, doctored.to_json(true).render()).unwrap();
        let out = perf();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains(drift), "{name}: {stderr}");

        // An entry whose record is not in the store is an error naming
        // both and the verb that writes them, not a panic.
        std::fs::remove_file(&record).unwrap();
        let out = perf();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.contains(id)
                && stderr.contains(&path(&store))
                && stderr.contains("lab baseline"),
            "{name}: {stderr}"
        );
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
    // Each of these used to panic a worker (exit 101) or store a record
    // of a run other than the one it names: α > 1 ran fault-free, a
    // negative edge probability ran reliable edges, `zeros = 2` ran
    // all-zero inputs, a wrapped round budget ran 0 or 77 rounds. The knob
    // rows keep an α their parameters accept.
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
        ("edge-over", r#"{"kind":"le_edge","p":1.5},"alpha":0.75"#),
        (
            "agree-edge-one",
            r#"{"kind":"agree_edge","p":1.0},"alpha":0.75"#,
        ),
        (
            "bench-edge-one",
            r#"{"kind":"engine_bench","adv":{"kind":"eager"},"p":1.0,"rounds":2},"alpha":0.75"#,
        ),
        (
            "iter-negative",
            r#"{"kind":"le_iter","factor":-1.0,"per_round":1},"alpha":0.75"#,
        ),
        (
            "referee-zero",
            r#"{"kind":"sampling_lemmas","candidate_factor":6.0,"referee_factor":0.0},"alpha":0.75"#,
        ),
        ("k-zero", r#"{"kind":"multi_value","k":0},"alpha":0.75"#),
        (
            "edge-negative",
            r#"{"kind":"le_edge","p":-0.5},"alpha":0.75"#,
        ),
        (
            "zeros-two",
            r#"{"kind":"agree","zeros":2.0,"adv":{"kind":"none"}},"alpha":0.75"#,
        ),
        // KT1: GK sends to arbitrary ids, which a sparse graph lacks.
        (
            "gk-sparse",
            r#"{"kind":"gk","faults":1},"topology":{"kind":"random_regular","d":8},"alpha":0.5"#,
        ),
        // Round budgets past `u32::MAX` wrapped to another run's budget.
        (
            "bench-rounds-wrap",
            r#"{"kind":"engine_bench","adv":{"kind":"none"},"p":0.0,"rounds":4294967294},"alpha":0.75"#,
        ),
        (
            "iter-factor-wrap",
            r#"{"kind":"le_iter","factor":1e300,"per_round":1},"alpha":0.75"#,
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

#[test]
fn a_portfolio_cell_with_zeros_outside_the_unit_interval_exits_1_naming_the_cell() {
    // Used to run, and store, a hunt over all-zero inputs.
    let dir = tmp_dir("zeros");
    let (spec, store) = (dir.join("spec.json"), dir.join("store"));
    let cell = r#"{"label":"agree-zeros-two","proto":"agree","objective":"failure","strategy":"random","n":16,"alpha":0.5,"zeros":2.0,"budget":1,"probes":1,"seed":1,"wire":false}"#;
    std::fs::write(&spec, format!(r#"{{"name":"zeros-bad","cells":[{cell}]}}"#)).unwrap();
    let out = ftc(&[
        "lab",
        "run",
        spec.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("cell `agree-zeros-two`") && stderr.contains("zeros=2"),
        "{stderr}"
    );
    assert!(!store.exists(), "a rejected portfolio reached the store");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_zeros_fraction_outside_the_unit_interval_exits_1_on_every_command() {
    // `ftc agree --zeros 2` used to run every node at input 0 and print
    // `zeros=2`; `ftc hunt` hunted the same run.
    for args in [
        "agree --n 64 --alpha 0.75 --zeros 2 --adversary none --trials 2",
        "agree --n 64 --alpha 0.75 --zeros -1 --adversary none --trials 2",
        "hunt --proto agree --n 16 --alpha 0.5 --zeros 2 --budget 1",
    ] {
        let out = ftc(&args.split(' ').collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args}: {stderr}");
        assert!(stderr.contains("must be in [0, 1]"), "{args}: {stderr}");
    }
}

#[test]
fn leader_election_on_two_nodes_exits_1_on_every_command() {
    // On two nodes the candidates share no referee (Lemma 3): `le` used
    // to report 0/40, and `serve` two leaders every height.
    for args in [
        "le --n 2 --adversary none --trials 4",
        "cluster --n 2 --proto le --substrate channel --trials 1",
        "serve --n 2 --heights 1",
        "hunt --n 2 --budget 1",
    ] {
        let out = ftc(&args.split(' ').collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args}: {stderr}");
        assert!(stderr.contains("n >= 3"), "{args}: {stderr}");
    }
    let dir = tmp_dir("le-two");
    let (spec, store) = (dir.join("spec.json"), dir.join("store"));
    let cell = r#"{"label":"le-two","workload":{"kind":"le","adv":{"kind":"none"}},"n":2,"alpha":1.0,"seed":1,"trials":2}"#;
    let text = format!(r#"{{"name":"le-two","cells":[{cell}],"checks":[]}}"#);
    std::fs::write(&spec, text).unwrap();
    let out = ftc(&[
        "lab",
        "run",
        spec.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("cell `le-two`") && stderr.contains("n >= 3"),
        "{stderr}"
    );
    assert!(!store.exists(), "a rejected campaign reached the store");
    // Agreement on two nodes is fine.
    let out = ftc(&["agree", "--n", "2", "--adversary", "none", "--trials", "40"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("success: 40/40"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_network_above_the_node_cap_exits_1_on_every_command() {
    // `ftc le --n 4294967295` used to abort (exit 134) allocating its
    // per-node arrays; `serve` and `trace` panicked (exit 101) on the cap.
    let huge = "4294967295";
    for args in [
        format!("le --n {huge} --trials 1"),
        format!("agree --n {huge} --trials 1"),
        format!("trace --n {huge}"),
        format!("serve --n {huge} --heights 1"),
        format!("cluster --n {huge} --proto le --substrate channel --trials 1"),
        format!("hunt --n {huge} --budget 1"),
    ] {
        let out = ftc(&args.split(' ').collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args}: {stderr}");
        assert!(stderr.contains("in [2, 16777216]"), "{args}: {stderr}");
    }
    // A lab cell and a doctored artifact go through the same check.
    let dir = tmp_dir("huge-n");
    let (spec, store) = (dir.join("spec.json"), dir.join("store"));
    let cell = format!(
        r#"{{"label":"le-huge","workload":{{"kind":"le","adv":{{"kind":"none"}}}},"n":{huge},"alpha":1.0,"seed":1,"trials":1}}"#
    );
    std::fs::write(
        &spec,
        format!(r#"{{"name":"le-huge","cells":[{cell}],"checks":[]}}"#),
    )
    .unwrap();
    let out = ftc(&[
        "lab",
        "run",
        spec.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("cell `le-huge`") && stderr.contains("in [2, 16777216]"),
        "{stderr}"
    );
    assert!(!store.exists(), "a rejected campaign reached the store");
    let artifact = std::fs::read_to_string("results/le-failure.counterexample.json").unwrap();
    let doctored = dir.join("huge.json");
    std::fs::write(
        &doctored,
        artifact.replace(r#""n":16"#, &format!(r#""n":{huge}"#)),
    )
    .unwrap();
    let out = ftc(&["replay", doctored.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("SimConfig") && stderr.contains("in [2, 16777216]"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
