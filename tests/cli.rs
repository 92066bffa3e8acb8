//! The `ftc` binary's command-line contract, driven end to end.
//!
//! The goldens below were captured from a build of the commit before the
//! front end was rebuilt over one flag table (`ab7696e`), with
//! `--transport T --workers W|--procs P` translated to `--substrate T:W|P`
//! — the only spelling that changed. Machine-format stdout is a published
//! format: same columns, same per-trial seeds, same summaries, byte for
//! byte. Everything here runs at n ≤ 128 so a debug build stays cheap.

use std::process::{Command, Output};

fn ftc(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ftc"))
        .args(args.split_whitespace())
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawning ftc")
}

/// Stdout of a run that must succeed.
fn stdout(args: &str) -> String {
    let out = ftc(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "`ftc {args}` failed: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Stderr of a run that must exit 1 — a reported error, never a panic.
fn error(args: &str) -> String {
    let out = ftc(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "`ftc {args}`: {stderr}");
    assert!(!stderr.contains("panicked"), "`ftc {args}`: {stderr}");
    assert!(stderr.starts_with("error: "), "`ftc {args}`: {stderr}");
    stderr
}

const COMMANDS: [&str; 10] = [
    "le", "agree", "sweep", "trace", "cluster", "serve", "loadgen", "hunt", "replay", "lab",
];

#[test]
fn le_json_rows_match_the_parent_build() {
    assert_eq!(
        stdout("le --n 128 --alpha 0.5 --trials 3 --seed 7 --format json"),
        r#"{"trial":0,"seed":7105264451926212505,"success":true,"leader_rank":2120913,"msgs":169458,"bits":8946249,"rounds":121,"crashes":64}
{"trial":1,"seed":2093340674938428336,"success":true,"leader_rank":6472537,"msgs":149319,"bits":7938963,"rounds":121,"crashes":64}
{"trial":2,"seed":15443456534468241130,"success":true,"leader_rank":1464706,"msgs":80466,"bits":4270570,"rounds":117,"crashes":64}
{"metric":"msgs","mean":133081,"median":149319,"p95":167444.1,"p99":169055.22,"p999":169417.722,"min":80466,"max":169458}
{"metric":"bits","mean":7051927.333333333,"median":7938963,"p95":8845520.4,"p99":8926103.28,"p999":8944234.428000001,"min":4270570,"max":8946249}
{"metric":"rounds","mean":119.66666666666667,"median":121,"p95":121,"p99":121,"p999":121,"min":117,"max":121}
"#
    );
}

#[test]
fn agree_csv_rows_match_the_parent_build() {
    assert_eq!(
        stdout("agree --n 128 --alpha 0.5 --trials 3 --seed 7 --adversary targeted --format csv"),
        "trial,seed,success,value,msgs,bits,rounds
0,7105264451926212505,true,0,14993,29986,4
1,2093340674938428336,true,0,13479,26958,4
2,15443456534468241130,true,0,9717,19434,4
metric,mean,median,p95,p99,p999,min,max
msgs,12729.666666666666,13479,14841.6,14962.72,14989.972,9717,14993
rounds,4,4,4,4,4,4,4
"
    );
}

#[test]
fn cluster_agree_rows_match_the_parent_build_on_channel_and_mesh() {
    let golden = r#"{"trial":0,"seed":3,"transport":"T","proto":"agree","success":true,"outcome":0,"msgs":3780,"bits":7560,"rounds":4,"crashes":3,"wire_bytes":77700,"frames":3700}
{"trial":1,"seed":4,"transport":"T","proto":"agree","success":true,"outcome":0,"msgs":4237,"bits":8474,"rounds":4,"crashes":2,"wire_bytes":86142,"frames":4102}
{"metric":"msgs","mean":4008.5,"median":4008.5,"p95":4214.15,"p99":4232.43,"p999":4236.543000000001,"min":3780,"max":4237}
{"metric":"wire_bytes","mean":81921,"median":81921,"p95":85719.9,"p99":86057.58,"p999":86133.558,"min":77700,"max":86142}
{"metric":"rounds","mean":4,"median":4,"p95":4,"p99":4,"p999":4,"min":4,"max":4}
"#;
    // Captured as `--transport channel --workers 2` / `--transport mesh
    // --procs 2`; the two goldens differed in the transport's name only.
    let run = "cluster --n 64 --alpha 0.75 --proto agree --trials 2 --seed 3 --format json";
    for (substrate, transport) in [("channel:2", "channel"), ("mesh:2", "mesh")] {
        assert_eq!(
            stdout(&format!("{run} --substrate {substrate}")),
            golden.replace(
                "\"transport\":\"T\"",
                &format!("\"transport\":\"{transport}\"")
            ),
            "{substrate}"
        );
    }
}

#[test]
fn sweep_csv_rows_match_the_parent_build() {
    assert_eq!(
        stdout("sweep --n 128 --alpha 0.5 --trials 2 --seed 5 --caps none,4 --format csv"),
        "cap,mean_msgs,median_msgs,p95_msgs,suppressed,threshold_ratio,failure_rate,trials
-1,5420,5420,6008.6,0,169.375,0,2
4,275.5,275.5,293.05,5067.5,8.609375,1,2
"
    );
}

#[test]
fn serve_json_rows_match_the_parent_build() {
    assert_eq!(
        stdout("serve --n 16 --alpha 0.5 --heights 4 --seed 5 --format json"),
        r#"{"height":0,"seed":16741517306104308569,"success":true,"leader":5,"rank":1848,"rounds":63,"msgs":4560,"wire_bytes":0,"down":0}
{"height":1,"seed":17503747141655773782,"success":true,"leader":14,"rank":455,"rounds":63,"msgs":4560,"wire_bytes":0,"down":0}
{"height":2,"seed":8613288671658990092,"success":true,"leader":2,"rank":1471,"rounds":63,"msgs":4560,"wire_bytes":0,"down":0}
{"height":3,"seed":3105727076759123858,"success":true,"leader":6,"rank":10681,"rounds":63,"msgs":2658,"wire_bytes":0,"down":3}
"#
    );
}

/// Time-to-new-leader is reported in wall-clock under the rounds line —
/// in the human summary only: the rows above carry nothing a clock wrote.
#[test]
fn serve_summary_reports_time_to_new_leader_in_milliseconds() {
    let out = stdout("serve --n 16 --alpha 0.5 --heights 4 --seed 5 --substrate mesh:2");
    let lines: Vec<&str> = out.lines().collect();
    let rounds = (lines.iter())
        .position(|l| l.starts_with("  time-to-new-leader (rounds): p50 63 "))
        .expect(&out);
    let ms = lines[rounds + 1]
        .strip_prefix("  time-to-new-leader (ms): p50 ")
        .expect(&out);
    let figures: Vec<f64> = (ms.split(' ').step_by(2))
        .map(|x| x.parse().expect(&out))
        .collect();
    let [p50, p95, max] = figures[..] else {
        panic!("{out}")
    };
    assert!(0.0 < p50 && p50 <= p95 && p95 <= max, "{out}");
}

#[test]
fn replay_json_rows_match_the_parent_build() {
    assert_eq!(
        stdout("replay results/le-failure.counterexample.json --format json"),
        r#"{"substrate":"engine","fingerprint_ok":true,"verdict_ok":true,"success":false,"msgs":5445,"rounds":67}
{"substrate":"mesh","fingerprint_ok":true,"verdict_ok":true,"success":false,"msgs":5445,"rounds":67}
"#
    );
}

/// Drops `"key":<value>` (and its trailing comma) from a JSON row.
fn without(row: &str, key: &str) -> String {
    let Some((head, rest)) = row.split_once(&format!("\"{key}\":")) else {
        return row.to_string();
    };
    let value_end = rest.find([',', '}']).expect("a JSON row");
    format!("{head}{}", rest[value_end..].trim_start_matches(','))
}

/// The equivalence contract at the CLI (the CI sed-diff, inside `cargo
/// test`, now including the engine): the two links agree on every column
/// but the transport's name, and the engine agrees with both on every
/// column a substrate without a wire has.
#[test]
fn cluster_rows_are_substrate_invariant() {
    let rows = |substrate: &str| -> Vec<String> {
        let run = "cluster --n 64 --alpha 0.75 --adversary random --trials 2 --format json";
        let out = stdout(&format!("{run} --substrate {substrate}"));
        let kind = substrate.split(':').next().unwrap();
        assert!(out.contains(&format!("\"transport\":\"{kind}\"")), "{out}");
        out.lines().map(|row| without(row, "transport")).collect()
    };
    let (engine, channel, mesh) = (rows("engine"), rows("channel:4"), rows("mesh:4"));
    assert_eq!(channel.len(), 5, "two trials, three summaries: {channel:?}");
    assert_eq!(channel, mesh);
    let model = |rows: &[String]| -> Vec<String> {
        rows.iter()
            .filter(|row| !row.contains("\"metric\":\"wire_bytes\""))
            .map(|row| without(&without(row, "wire_bytes"), "frames"))
            .collect()
    };
    assert!(
        engine[0].contains("\"wire_bytes\":0,\"frames\":0"),
        "{engine:?}"
    );
    assert_eq!(model(&engine), model(&channel));
}

#[test]
fn retired_flags_name_their_replacement() {
    for retired in ["--transport mesh", "--workers 2", "--procs 8"] {
        for cmd in ["cluster", "replay x.json", "hunt"] {
            let err = error(&format!("{cmd} {retired}"));
            assert!(err.contains("--substrate"), "{err}");
        }
    }
    let err = error("cluster --substrate tcp:4");
    assert!(err.contains("--substrate mesh:<n>"), "{err}");
}

#[test]
fn every_subcommand_runs_on_the_substrate_it_names() {
    let banner = stdout("serve --n 16 --alpha 0.5 --heights 2 --substrate channel:2");
    assert!(banner.contains("substrate=channel:2"), "{banner}");
    let banner = stdout("cluster --n 16 --alpha 0.5 --trials 1 --substrate channel:2");
    assert!(
        banner.starts_with("cluster (channel:2, le protocol)"),
        "{banner}"
    );
    let rows = stdout("replay results/le-failure.counterexample.json --substrate channel:2 --csv");
    assert!(rows.contains("\nchannel,true,true,"), "{rows}");
}

#[test]
fn a_flag_the_subcommand_does_not_read_is_an_error() {
    let err = error("le --heights 3");
    assert!(
        err.contains("--heights does not apply to 'ftc le' (serve, loadgen)"),
        "{err}"
    );
    // The usage that follows is the subcommand's own, not everyone's.
    assert!(
        err.contains("usage: ftc le") && !err.contains("--kill-every"),
        "{err}"
    );
    let err = error("le --bogus 1");
    assert!(
        err.contains("unknown flag --bogus") && err.contains("usage: ftc le"),
        "{err}"
    );
    let err = error("frobnicate");
    assert!(
        err.contains("unknown command frobnicate") && err.contains("|lab>"),
        "{err}"
    );
}

#[test]
fn a_bad_adversary_name_is_an_error_before_any_trial() {
    for cmd in ["le --n 128", "agree --n 128", "cluster --n 16"] {
        let err = error(&format!("{cmd} --adversary bogus"));
        let expected = "error: unknown adversary bogus (none|eager|random|targeted)";
        assert!(err.starts_with(expected), "{err}");
    }
}

#[test]
fn a_spec_file_pairing_no_trial_can_run_is_an_error_naming_the_cell() {
    let spec = std::env::temp_dir().join(format!("ftc-cli-bad-spec-{}.json", std::process::id()));
    let store = std::env::temp_dir().join(format!("ftc-cli-bad-store-{}", std::process::id()));
    let cell = r#"{"label":"mismatched","workload":{"kind":"agree","zeros":0.05,"adv":{"kind":"adaptive_killer"}},"n":16,"alpha":0.5,"seed":3,"trials":2}"#;
    let text = format!(r#"{{"name":"cli-bad","cells":[{cell}],"checks":[]}}"#);
    std::fs::write(&spec, text).unwrap();
    let err = error(&format!(
        "lab run {} --store {}",
        spec.display(),
        store.display()
    ));
    assert!(
        err.contains("cell `mismatched`") && err.contains("leader election only"),
        "{err}"
    );
    let _ = std::fs::remove_file(&spec);
    assert!(
        !store.exists(),
        "a rejected campaign must not reach the store"
    );
}

#[test]
fn help_is_generated_and_exits_zero() {
    for top in ["--help", "-h", "help"] {
        let help = stdout(top);
        assert!(
            help.contains(&format!("<{}>", COMMANDS.join("|"))),
            "{help}"
        );
    }
    for cmd in COMMANDS {
        let help = stdout(&format!("{cmd} --help"));
        assert!(help.starts_with(&format!("usage: ftc {cmd} ")), "{help}");
        assert!(help.contains("--help"), "{help}");
    }
    // Generated from the table: a subcommand lists the flags it reads,
    // with their help lines, and no others.
    let serve = stdout("serve --help");
    assert!(
        serve.contains("--heights H") && serve.contains("--substrate S"),
        "{serve}"
    );
    assert!(
        !serve.contains("--caps") && !serve.contains("--objective"),
        "{serve}"
    );
    assert!(!stdout("trace -h").contains("--format"));
}

/// Doctored inputs — artifacts, specs, records and store files a person or
/// a bad disk could produce — exit 1 with a message naming the key or cell
/// at fault, never 101 and never a silent run of something else.
#[test]
fn doctored_inputs_fail_typed_naming_the_key_or_cell() {
    let dir = std::env::temp_dir().join(format!("ftc-cli-doctored-{}", std::process::id()));
    let store = dir.join("store");
    std::fs::create_dir_all(&dir).unwrap();
    let read = |path: &str| std::fs::read_to_string(path).unwrap();
    let spec = |cell: &str| format!(r#"{{"name":"cli-doctored","cells":[{cell}],"checks":[]}}"#);
    let le = r#""workload":{"kind":"le","adv":{"kind":"none"}},"n":64"#;
    let record = read("results/store/gate-smoke-eae41a889964a9c6.json");
    let rows: [(&str, String, &str, &[&str]); 6] = [
        (
            "art.json",
            read("results/le-failure.counterexample.json").replace(
                r#""node":13,"round":60"#,
                r#""node":4294967309,"round":4294967356"#,
            ),
            "replay {file}",
            &["CrashEntry.node", "4294967309"],
        ),
        (
            "typo.json",
            spec(&format!(
                r#"{{"label":"typo",{le},"alpha":0.75,"seed":3,"trials":2,"topolgy":{{"kind":"random_regular","d":4}}}}"#
            )),
            "lab run {file} --store {store}",
            &["unknown key `topolgy`"],
        ),
        (
            "alpha.json",
            spec(&format!(
                r#"{{"label":"thin",{le},"alpha":0.5,"seed":3,"trials":2}}"#
            )),
            "lab run {file} --store {store}",
            &["cell `thin`", "n=64", "alpha=0.5"],
        ),
        (
            "short.json",
            spec(&format!(
                r#"{{"label":"short",{le},"alpha":0.75,"seed":3}}"#
            )),
            "lab run {file} --store {store}",
            &["missing key `trials`"],
        ),
        (
            "v2.json",
            record.replace("ftc-lab-record/v1", "ftc-lab-record/v2"),
            "lab gate {file}",
            &["`schema`", "ftc-lab-record/v2"],
        ),
        (
            "store/gate-smoke-eae41a889964a9c6.json",
            record[..500].to_string(),
            "lab show gate-smoke --store {store}",
            &["gate-smoke-eae41a889964a9c6.json"],
        ),
    ];
    for (name, text, command, needles) in rows {
        let file = dir.join(name);
        std::fs::create_dir_all(file.parent().unwrap()).unwrap();
        std::fs::write(&file, text).unwrap();
        let args = command
            .replace("{file}", file.to_str().unwrap())
            .replace("{store}", store.to_str().unwrap());
        let err = error(&args);
        for needle in needles {
            assert!(err.contains(needle), "`ftc {args}`: {err}");
        }
    }
    let runs = std::fs::read_dir(&store).unwrap().count();
    assert_eq!(runs, 1, "only the planted file: no doctored run was stored");
    let _ = std::fs::remove_dir_all(&dir);
}
