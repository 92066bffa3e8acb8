//! `hunt` and `replay`: adversary search (`ftc-hunt`) and the replay
//! check of its artifacts. Portfolio hunts are campaigns: `ftc lab`.

use ftc::prelude::*;

use crate::flags::{substrate_kind, Opts};

pub fn cmd_hunt(o: &Opts) -> Result<(), String> {
    if let Some(arg) = o.positional.first() {
        return Err(format!(
            "hunt takes no argument `{arg}` (portfolio hunts run as `ftc lab run <name>`)"
        ));
    }
    let (proto, objective) = (o.proto, o.objective);
    let params = Params::new(o.n, o.alpha).map_err(|e| e.to_string())?;
    let cfg = SimConfig::try_new(o.n)
        .map_err(|e| e.to_string())?
        .max_rounds(proto.round_budget(&params));
    // Wire faults only exist below a real transport, so `--wire-faults`
    // moves the whole hunt onto the `--substrate` runtime; plain hunts
    // stay on the (much faster, observation-identical) engine.
    let substrate = match (o.wire_faults, o.substrate) {
        (true, _) => o.wire_substrate(),
        (false, None) => Substrate::Engine,
        (false, Some(_)) => {
            return Err("--substrate moves a hunt only with --wire-faults \
                        (plain hunts run on the engine)"
                .into())
        }
    };
    let spec = HuntSpec {
        proto,
        objective,
        params,
        cfg,
        zeros: o.zeros,
        budget: o.budget,
        probes: o.probes,
        seed: o.seed,
        jobs: o.jobs,
        strategy: o.strategy,
        substrate,
        wire: o.wire_faults,
    };
    let report = run_hunt(&spec)?;
    if let Some(w) = o.format.is_machine().then(|| {
        RowWriter::new(
            o.format,
            &["generation", "best_score", "hits", "champion_score"],
        )
    }) {
        let mut w = w;
        for g in &report.generations {
            w.emit(&[
                Value::UInt(g.generation),
                Value::Float(g.best_score),
                Value::UInt(g.hits),
                Value::Float(g.champion_score),
            ]);
        }
    }

    let champ = &report.champion;
    let (artifact, reduced) = Artifact::mint(&spec, &report);
    // Cross-check before emitting: the artifact must replay bit-for-bit on
    // the engine and on the real channel runtime (PR-3 bit-equivalence) —
    // plus the hunted substrate itself when wire faults are on, so the
    // wire plan is re-applied where it was found.
    let mut check_on = vec![Substrate::Engine, Substrate::parse("channel")?];
    if o.wire_faults {
        check_on.push(substrate);
    }
    for substrate in check_on {
        let check = artifact.replay(substrate)?;
        if !check.ok() {
            return Err(format!(
                "hunted schedule does not replay on {}: {check:?}",
                substrate.label()
            ));
        }
    }
    if !o.format.is_machine() {
        println!(
            "hunt: proto={} objective={} strategy={} n={} alpha={} seed={}",
            proto.name(),
            objective.name(),
            o.strategy.name(),
            o.n,
            o.alpha,
            o.seed
        );
        println!(
            "  evaluated {} schedules in {} generations, {} hit the objective",
            report.evaluated,
            report.generations.len(),
            report.hits
        );
        println!(
            "  bounds: whp message bound {:.0}, round budget {}",
            report.bounds.message_bound, report.bounds.round_budget
        );
        println!(
            "  champion: score {} ({}) at trial {}, probe seed {}",
            champ.score,
            if artifact.hit {
                "counterexample"
            } else {
                "no counterexample"
            },
            champ.trial,
            champ.probe_seed
        );
        println!(
            "  shrunk: {} -> {} crash entries ({} reduction probes)",
            reduced.entries_before, reduced.entries_after, reduced.probes
        );
        if let Some(wire) = &artifact.wire {
            let (_, residue) = wire.degrade();
            println!(
                "  wire faults: {} entr{} on {} (engine residue: {})",
                wire.len(),
                if wire.len() == 1 { "y" } else { "ies" },
                substrate_kind(substrate),
                if residue.is_empty() {
                    "none".to_string()
                } else {
                    residue.join("; ")
                }
            );
        }
        if o.wire_faults {
            println!(
                "  replay: engine ok, channel ok, {} ok",
                substrate_kind(substrate)
            );
        } else {
            println!("  replay: engine ok, channel ok");
        }
    }
    if let Some(path) = &o.out {
        std::fs::write(path, artifact.render()).map_err(|e| format!("{path}: {e}"))?;
        if !o.format.is_machine() {
            println!("  artifact written to {path}");
        }
    }
    if o.expect_hit && !artifact.hit {
        return Err(format!(
            "--expect-hit: no counterexample found (champion score {})",
            artifact.score
        ));
    }
    if o.expect_empty && artifact.hit {
        return Err(format!(
            "--expect-empty: found a counterexample (objective {}, score {}, {} crash entries)",
            artifact.objective.name(),
            artifact.score,
            artifact.schedule.entries().len()
        ));
    }
    Ok(())
}

pub fn cmd_replay(o: &Opts) -> Result<(), String> {
    let path = o
        .positional
        .first()
        .ok_or("replay needs an artifact file: ftc replay <file>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let artifact = Artifact::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    // The engine, plus the named substrate unless that is the engine.
    let mut substrates = vec![Substrate::Engine, o.wire_substrate()];
    substrates.dedup();
    let mut writer = o.format.is_machine().then(|| {
        RowWriter::new(
            o.format,
            &[
                "substrate",
                "fingerprint_ok",
                "verdict_ok",
                "success",
                "msgs",
                "rounds",
            ],
        )
    });
    let mut failures = 0u32;
    for substrate in substrates {
        let name = substrate_kind(substrate);
        let report = artifact.replay(substrate)?;
        if !report.ok() {
            failures += 1;
        }
        if let Some(w) = writer.as_mut() {
            w.emit(&[
                Value::Str(name.into()),
                Value::Bool(report.fingerprint_matches),
                Value::Bool(report.verdict_matches),
                Value::Bool(report.observation.fingerprint.success),
                Value::UInt(report.observation.fingerprint.msgs_sent),
                Value::UInt(u64::from(report.observation.fingerprint.rounds)),
            ]);
        } else {
            println!(
                "replay {} on {}: fingerprint {}, verdict {} (score {}, hit {})",
                path,
                name,
                if report.fingerprint_matches {
                    "reproduced"
                } else {
                    "DIVERGED"
                },
                if report.verdict_matches {
                    "reproduced"
                } else {
                    "DIVERGED"
                },
                artifact.score,
                artifact.hit
            );
        }
    }
    if failures > 0 {
        return Err(format!("{failures} replay substrate(s) diverged"));
    }
    Ok(())
}
