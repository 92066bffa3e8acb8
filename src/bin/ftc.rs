//! `ftc` — command-line front end for the protocols and experiments.
//!
//! ```text
//! ftc le      --n 4096 --alpha 0.5 --adversary random --trials 10 [--format csv]
//! ftc agree   --n 4096 --alpha 0.5 --zeros 0.05 --adversary targeted [--format json]
//! ftc sweep   --n 2048 --alpha 0.5 --caps 64,16,4,1 --trials 24 [--format csv]
//! ftc trace   --n 512  --alpha 0.5 --seed 7          # influence-cloud report
//! ftc cluster --n 8 --alpha 0.5 --proto le --seed 1 --substrate mesh:8
//! ftc serve   --n 64 --alpha 0.75 --heights 100 --kill-every 3 [--out results/]
//! ftc loadgen --n 16 --alpha 0.5 --heights 40 --arrivals 4 --capacity 8
//! ftc hunt    --n 64 --alpha 0.5 --proto le --objective failure --budget 256
//! ftc replay  results/le-failure.counterexample.json --substrate channel
//! ftc lab     run gate-smoke --jobs 4
//! ftc lab     gate results/store/gate-smoke-<hash>.json
//! ```
//!
//! `ftc --help` lists the subcommands and `ftc <command> --help` the flags
//! a subcommand reads; both are generated from the one flag table in
//! [`flags`], which also rejects a flag the subcommand does not read.
//! Every subcommand that executes anything names where with one flag,
//! `--substrate engine|channel[:W]|mesh[:P]`, and every run of one of the
//! paper's two protocols goes through the one protocol bridge,
//! `ftc_hunt::proto::ProtoKind::run`.
//!
//! `cluster` runs the protocols over a real transport: the socket mesh
//! (`ftc-mesh`; `mesh:<n>` gives one localhost socket per edge) or
//! in-process channels (`ftc-net`), with crash injection as mid-round
//! partial delivery — or on the engine, the same rows with no wire.
//! Simulator and cluster emit the same row shapes, so `--format csv|json`
//! output is interchangeable downstream.
//!
//! `serve` runs a long-lived leader service (`ftc-serve`): repeated
//! election heights with leader-kill churn, automatic re-election, and a
//! runtime invariant monitor; `--inject-split-brain H` seeds a two-leaders
//! fault at height `H` to demonstrate the monitor end to end, and `--out`
//! writes any violation as a replayable counterexample artifact. `loadgen`
//! drives the same service with the deterministic load generator and
//! reports request latency and availability.
//!
//! `hunt` searches the crash-schedule space for a schedule that breaks the
//! chosen objective (`ftc-hunt`), ddmin-shrinks the worst one it finds,
//! cross-checks it on the sim engine and the channel runtime, and (with
//! `--out`) writes a replayable counterexample artifact. `replay`
//! re-executes such an artifact and fails if the recorded fingerprint or
//! verdict is not reproduced bit-for-bit.
//!
//! All subcommands are deterministic given `--seed`.

use std::process::ExitCode;

use ftc::prelude::ProtoKind;

// The crate root stays `src/bin/ftc.rs` (rather than `ftc/main.rs`) so
// the unit tests below keep the ids `src/bin/ftc.rs::tests::*` the test
// floor pins; everything but the dispatch lives under `ftc/`.
#[path = "ftc/flags.rs"]
mod flags;
#[path = "ftc/hunt.rs"]
mod hunt;
#[path = "ftc/lab.rs"]
mod lab;
#[path = "ftc/service.rs"]
mod service;
#[path = "ftc/trials.rs"]
mod trials;

use flags::{parse_opts, usage_for, Opts};

/// A subcommand: its name, its positional arguments (for the usage
/// line) and its entry point.
type Command = (&'static str, &'static str, fn(&Opts) -> Result<(), String>);

const COMMANDS: &[Command] = &[
    ("le", "", |o| trials::cmd_trials(ProtoKind::Le, o)),
    ("agree", "", |o| trials::cmd_trials(ProtoKind::Agree, o)),
    ("sweep", "", trials::cmd_sweep),
    ("trace", "", trials::cmd_trace),
    ("cluster", "", trials::cmd_cluster),
    ("serve", "", service::cmd_serve),
    ("loadgen", "", service::cmd_loadgen),
    ("hunt", "", hunt::cmd_hunt),
    ("replay", "<artifact.json> ", hunt::cmd_replay),
    (
        "lab",
        "<run <campaign|portfolio|spec.json> | list | show <id> | diff <baseline> <fresh> | \
         gate <baseline> | baseline [NAME] | perf <trajectory.json>> ",
        lab::cmd_lab,
    ),
];

/// `ftc --help`: the command list.
fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
    format!(
        "usage: ftc <{}> [flags]\n`ftc <command> --help` lists the flags that command reads",
        names.join("|")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    if matches!(name.as_str(), "--help" | "-h" | "help") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(&(cmd, positional, run)) = COMMANDS.iter().find(|c| c.0 == name) else {
        eprintln!("error: unknown command {name}\n{}", usage());
        return ExitCode::FAILURE;
    };
    if args[1..].iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage_for(cmd, positional));
        return ExitCode::SUCCESS;
    }
    let result = match parse_opts(cmd, &args[1..]) {
        Ok(o) => run(&o),
        Err(e) => Err(format!("{e}\n{}", usage_for(cmd, positional))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use ftc::prelude::*;

    use crate::flags::FLAGS;
    use crate::hunt::{cmd_hunt, cmd_replay};
    use crate::lab::cmd_lab;
    use crate::service::serve_config;
    use crate::trials::{base_config, cmd_cluster, cmd_trials};
    use crate::{parse_opts, usage_for, Opts, COMMANDS};

    /// Parses `s` as the arguments of `ftc <cmd>`.
    fn parse(cmd: &str, s: &str) -> Result<Opts, String> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_opts(cmd, &args)
    }

    #[test]
    fn defaults_apply_without_flags() {
        let o = parse("le", "").unwrap();
        assert_eq!(o.n, 1024);
        assert_eq!(o.adversary, "random");
        assert_eq!(o.format, Format::Human);
        // No substrate named: each subcommand falls back to its own default,
        // the wire commands to the socket mesh at width 4.
        assert_eq!(o.substrate, None);
        assert_eq!(o.wire_substrate(), Substrate::Mesh(4));
    }

    #[test]
    fn flags_override_defaults() {
        let o = parse(
            "le",
            "--n 256 --alpha 0.25 --trials 3 --format json --adversary eager",
        )
        .unwrap();
        assert_eq!(o.n, 256);
        assert_eq!(o.alpha, 0.25);
        assert_eq!(o.trials, 3);
        assert_eq!(o.format, Format::Json);
        assert_eq!(o.adversary, "eager");
    }

    #[test]
    fn serve_flags_parse_and_validate() {
        let o = parse(
            "serve",
            "--heights 50 --kill-every 5 --bystanders 1 --rejoin-after 2 \
             --window 8 --arrivals 3 --capacity 6 --inject-split-brain 7",
        )
        .unwrap();
        assert_eq!(o.heights, 50);
        assert_eq!(o.kill_every, 5);
        assert_eq!(o.bystanders, 1);
        assert_eq!(o.rejoin_after, 2);
        assert_eq!(o.window, 8);
        assert_eq!(o.arrivals, 3);
        assert_eq!(o.capacity, 6);
        assert_eq!(o.inject_split_brain, Some(7));
        // Defaults: monitor armed, no injection.
        let d = parse("serve", "").unwrap();
        assert_eq!(d.heights, 20);
        assert_eq!(d.inject_split_brain, None);
        // A service with zero heights or a zero-size window is meaningless.
        assert!(parse("serve", "--heights 0").is_err());
        assert!(parse("serve", "--window 0").is_err());
        assert!(parse("loadgen", "--capacity 0").is_err());
    }

    #[test]
    fn split_brain_injection_past_the_last_height_is_rejected() {
        let o = parse("serve", "--n 16 --heights 4 --inject-split-brain 9").unwrap();
        assert!(serve_config(&o)
            .unwrap_err()
            .contains("past the last height"));
    }

    #[test]
    fn topology_flag_parses_and_is_validated_against_n() {
        let o = parse("le", "--n 128 --topology diam2:6").unwrap();
        assert_eq!(o.topology, Topology::DiameterTwo { clusters: 6 });
        assert!(base_config(&o).is_ok());
        let o = parse("cluster", "--n 128 --topology rr:8").unwrap();
        assert_eq!(o.topology, Topology::RandomRegular { d: 8 });
        assert_eq!(
            parse("le", "").unwrap().topology,
            Topology::Complete,
            "the paper's model stays the default"
        );
        // Junk shapes die at parse time, impossible parameters at
        // config time — with the ConfigError's context, not a panic.
        assert!(parse("le", "--topology torus").is_err());
        assert!(parse("le", "--topology rr:x").is_err());
        let o = parse("le", "--n 8 --topology rr:9").unwrap();
        let err = base_config(&o).unwrap_err();
        assert!(err.contains("degree"), "{err}");
    }

    #[test]
    fn csv_flag_is_an_alias_for_format_csv() {
        let o = parse("le", "--csv").unwrap();
        assert_eq!(o.format, Format::Csv);
        assert!(parse("le", "--format xml").is_err());
    }

    #[test]
    fn cluster_flags_are_validated_at_parse_time() {
        let o = parse("cluster", "--proto agree --substrate channel:2").unwrap();
        assert_eq!(o.proto, ProtoKind::Agree);
        assert_eq!(o.substrate, Some(Substrate::Channel(2)));
        assert_eq!(o.wire_substrate(), Substrate::Channel(2));
        assert!(parse("cluster", "--proto paxos").is_err());
        assert!(parse("cluster", "--substrate carrier-pigeon").is_err());
        assert!(parse("cluster", "--substrate channel:0").is_err());
        // The engine is a substrate like the others: `cluster` shows the
        // equivalence contract across all three.
        let o = parse("cluster", "--substrate engine").unwrap();
        assert_eq!(o.wire_substrate(), Substrate::Engine);
        let o = parse("cluster", "--substrate mesh:8").unwrap();
        assert_eq!(o.wire_substrate(), Substrate::Mesh(8));
        // The retired per-edge runtime is refused with its replacement...
        let err = parse("cluster", "--substrate tcp:2").unwrap_err();
        assert!(err.contains("--substrate mesh:<n>"), "{err}");
        // ...and so are the three flags `--substrate` replaced, on every
        // subcommand, before their value is even looked at.
        for cmd in ["cluster", "replay", "hunt", "serve", "le"] {
            for retired in ["--transport mesh", "--workers 2", "--procs 8", "--procs"] {
                let err = parse(cmd, retired).unwrap_err();
                assert!(err.contains("retired"), "{err}");
                assert!(err.contains("--substrate mesh:<P>"), "{err}");
                assert!(err.contains("--substrate channel:<W>"), "{err}");
            }
        }
    }

    #[test]
    fn recv_timeout_parses_seconds_and_rejects_nonsense() {
        assert_eq!(parse("cluster", "").unwrap().recv_timeout, RECV_TIMEOUT);
        let o = parse("cluster", "--recv-timeout 5").unwrap();
        assert_eq!(o.recv_timeout, Duration::from_secs(5));
        let o = parse("cluster", "--recv-timeout 0.25").unwrap();
        assert_eq!(o.recv_timeout, Duration::from_millis(250));
        assert!(parse("cluster", "--recv-timeout 0").is_err());
        assert!(parse("cluster", "--recv-timeout -3").is_err());
        assert!(parse("cluster", "--recv-timeout soon").is_err());
    }

    #[test]
    fn caps_parse_with_none() {
        let o = parse("sweep", "--caps none,64,1").unwrap();
        assert_eq!(o.caps, vec![None, Some(64), Some(1)]);
        assert!(parse("sweep", "--caps 4,many").is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(parse("le", "--bogus 1").is_err());
        assert!(parse("le", "--n").is_err());
    }

    #[test]
    fn zero_trials_and_zero_jobs_are_rejected_at_parse_time() {
        let err = parse("le", "--trials 0").unwrap_err();
        assert!(err.contains("--trials"), "{err}");
        let err = parse("le", "--jobs 0").unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        assert!(parse("le", "--trials 1 --jobs 1").is_ok());
    }

    #[test]
    fn hunt_flags_parse_and_validate() {
        let o = parse(
            "hunt",
            "--objective max-messages --strategy anneal --budget 32 --probes 2 --out /tmp/a.json",
        )
        .unwrap();
        assert_eq!(o.objective, Objective::MaxMessages);
        assert_eq!(o.strategy, Strategy::Anneal);
        assert_eq!(o.budget, 32);
        assert_eq!(o.probes, 2);
        assert_eq!(o.out.as_deref(), Some("/tmp/a.json"));
        assert!(parse("hunt", "--objective world-peace").is_err());
        assert!(parse("hunt", "--strategy bfs").is_err());
        assert!(parse("hunt", "--budget 0").is_err());
        assert!(parse("hunt", "--probes 0").is_err());
    }

    #[test]
    fn positional_arguments_are_collected() {
        let o = parse("replay", "results/ce.json --substrate channel:2").unwrap();
        assert_eq!(o.positional, vec!["results/ce.json".to_string()]);
        assert_eq!(o.substrate, Some(Substrate::Channel(2)));
    }

    #[test]
    fn end_to_end_hunt_then_replay() {
        let out = std::env::temp_dir().join(format!("ftc-hunt-cli-{}.json", std::process::id()));
        let o = Opts {
            n: 16,
            alpha: 0.5,
            seed: 9,
            budget: 8,
            probes: 1,
            objective: Objective::MaxMessages,
            jobs: 1,
            out: Some(out.to_string_lossy().into_owned()),
            ..Opts::default()
        };
        cmd_hunt(&o).unwrap();
        let replay = Opts {
            positional: vec![out.to_string_lossy().into_owned()],
            substrate: Some(Substrate::Channel(2)),
            ..Opts::default()
        };
        cmd_replay(&replay).unwrap();
        let _ = std::fs::remove_file(&out);
        // A plain hunt runs on the engine; naming a substrate it would
        // ignore is an error, not a silent no-op.
        let misaimed = Opts {
            substrate: Some(Substrate::Mesh(2)),
            ..o
        };
        assert!(cmd_hunt(&misaimed).unwrap_err().contains("--wire-faults"));
    }

    #[test]
    fn replay_of_a_missing_file_is_a_clean_error() {
        let o = Opts {
            positional: vec!["/nonexistent/ce.json".into()],
            ..Opts::default()
        };
        assert!(cmd_replay(&o).is_err());
        // No positional argument at all.
        assert!(cmd_replay(&Opts::default()).is_err());
    }

    #[test]
    fn adversary_factories_validate_names() {
        // One name table (`Adv::named`), consulted when the flag is parsed:
        // a bad name never reaches a trial closure.
        for cmd in ["le", "agree", "cluster"] {
            for name in ["none", "eager", "random", "targeted"] {
                let o = parse(cmd, &format!("--adversary {name}")).unwrap();
                assert_eq!(o.adversary, name);
            }
            let err = parse(cmd, "--adversary martian").unwrap_err();
            assert!(err.contains("unknown adversary martian"), "{err}");
            assert!(err.contains("none|eager|random|targeted"), "{err}");
        }
        // The model-boundary adversary stays a lab workload, not a CLI name.
        assert!(parse("le", "--adversary adaptive_killer").is_err());
    }

    #[test]
    fn end_to_end_small_le_run() {
        let o = Opts {
            n: 128,
            alpha: 0.5,
            trials: 2,
            ..Opts::default()
        };
        cmd_trials(ProtoKind::Le, &o).unwrap();
        cmd_trials(ProtoKind::Agree, &o).unwrap();
    }

    #[test]
    fn end_to_end_small_cluster_run_over_channels() {
        let o = Opts {
            n: 16,
            alpha: 0.5,
            trials: 2,
            substrate: Some(Substrate::Channel(2)),
            adversary: "eager".into(),
            ..Opts::default()
        };
        cmd_cluster(&o).unwrap();
        let agree = Opts {
            proto: ProtoKind::Agree,
            ..o
        };
        cmd_cluster(&agree).unwrap();
    }

    #[test]
    fn expectation_flags_parse_and_exclude_each_other() {
        let o = parse("hunt", "--expect-hit").unwrap();
        assert!(o.expect_hit && !o.expect_empty);
        let o = parse("hunt", "--expect-empty").unwrap();
        assert!(o.expect_empty && !o.expect_hit);
        assert!(parse("hunt", "--expect-hit --expect-empty").is_err());
        assert!(parse("hunt", "--expect-empty --expect-hit").is_err());
        assert!(parse("hunt", "--wire-faults").unwrap().wire_faults);
    }

    #[test]
    fn coverage_and_kind_flags_validate_their_values() {
        let o = parse("lab", "--min-coverage 0.25").unwrap();
        assert_eq!(o.min_coverage, Some(0.25));
        assert!(parse("lab", "--min-coverage 1.01").is_err());
        assert!(parse("lab", "--min-coverage -0.1").is_err());
        // A portfolio is a lab campaign now: hunt no longer reads it.
        assert!(parse("hunt", "--min-coverage 0.25").is_err());
        assert_eq!(
            parse("lab", "--kind hunt").unwrap().kind.as_deref(),
            Some("hunt")
        );
        assert_eq!(
            parse("lab", "--kind lab").unwrap().kind.as_deref(),
            Some("lab")
        );
        assert!(parse("lab", "--kind martian").is_err());
    }

    #[test]
    fn end_to_end_portfolio_run_and_gate() {
        let dir = std::env::temp_dir().join(format!("ftc-portfolio-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A one-cell portfolio file keeps this test fast while still
        // driving spec resolution, the store round-trip, and the gate.
        let spec = HuntCampaignSpec::new("cli-unit").cell(HuntCellSpec {
            label: "le-msgs".into(),
            proto: ProtoKind::Le,
            objective: Objective::MaxMessages,
            strategy: Strategy::Random,
            n: 16,
            alpha: 0.5,
            zeros: 0.05,
            budget: 4,
            probes: 1,
            seed: 9,
            wire: false,
        });
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("spec.json");
        std::fs::write(&spec_path, spec.to_json().render()).unwrap();
        let store = dir.join("store").to_string_lossy().into_owned();
        let lab = |args: &[&str]| Opts {
            positional: args.iter().map(|a| a.to_string()).collect(),
            store: store.clone(),
            ..Opts::default()
        };
        let o = Opts {
            jobs: 2,
            min_coverage: Some(0.01),
            expect_hit: true,
            ..lab(&["run", spec_path.to_str().unwrap()])
        };
        cmd_lab(&o).unwrap();
        // The stored record gates clean against a fresh re-run, by id prefix,
        // and shows as a portfolio.
        cmd_lab(&lab(&["gate", "cli-unit"])).unwrap();
        cmd_lab(&lab(&["show", "cli-unit"])).unwrap();
        // A coverage floor above what was explored fails the run.
        let greedy = Opts {
            min_coverage: Some(1.0),
            ..lab(&["run", spec_path.to_str().unwrap()])
        };
        assert!(cmd_lab(&greedy).unwrap_err().contains("--min-coverage"));
        // An unknown name is a clean error naming both registries.
        let err = cmd_lab(&lab(&["run", "martian"])).unwrap_err();
        assert!(
            err.contains("adversary-portfolio") && err.contains("gate-smoke"),
            "{err}"
        );
        // The retired verb tree is an error, not a default hunt.
        let retired = Opts {
            positional: vec![
                "portfolio".into(),
                "run".into(),
                "adversary-portfolio".into(),
            ],
            ..Opts::default()
        };
        assert!(cmd_hunt(&retired).unwrap_err().contains("lab run"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_cluster_params_fail_fast_with_a_clear_error() {
        // n below the model minimum.
        let o = Opts {
            n: 1,
            substrate: Some(Substrate::Channel(4)),
            ..Opts::default()
        };
        let err = cmd_cluster(&o).unwrap_err();
        assert!(err.contains("at least two"), "{err}");
        // alpha below the paper's log²n/n floor.
        let o = Opts {
            n: 1024,
            alpha: 0.001,
            substrate: Some(Substrate::Channel(4)),
            ..Opts::default()
        };
        let err = cmd_cluster(&o).unwrap_err();
        assert!(err.to_lowercase().contains("alpha"), "{err}");
    }

    #[test]
    fn a_flag_the_subcommand_does_not_read_is_an_error_naming_who_does() {
        let err = parse("le", "--heights 3").unwrap_err();
        assert_eq!(err, "--heights does not apply to 'ftc le' (serve, loadgen)");
        assert!(parse("le", "--arrivals 9").is_err());
        assert!(parse("le", "--objective failure").is_err());
        assert!(parse("serve", "--heights 3").is_ok());
        // Every row is read by real subcommands only (the reader lists are
        // strings: a typo must not silently orphan a flag), and a
        // subcommand's generated usage lists exactly the rows that name it.
        for f in FLAGS {
            for reader in f.readers.split(' ') {
                assert!(
                    COMMANDS.iter().any(|c| c.0 == reader),
                    "{} names unknown subcommand `{reader}`",
                    f.name
                );
            }
            for &(cmd, positional, _) in COMMANDS {
                let reads = f.readers.split(' ').any(|r| r == cmd);
                let listed = usage_for(cmd, positional)
                    .lines()
                    .any(|l| l.trim_start().split(' ').next() == Some(f.name));
                assert_eq!(listed, reads, "{} in `ftc {cmd} --help`", f.name);
                let foreign = parse_opts(cmd, &[f.name.to_string()])
                    .is_err_and(|e| e.contains("does not apply"));
                assert_eq!(foreign, !reads, "{} on `ftc {cmd}`", f.name);
            }
        }
    }
}
