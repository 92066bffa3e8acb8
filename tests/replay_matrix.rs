//! Replay matrix: every counterexample artifact committed under
//! `results/` must replay cleanly on every substrate — the deterministic
//! engine, the in-process channel runtime, and the socket mesh both
//! multiplexed and at one node per proc (one socket per edge). This is the standing guarantee that the
//! artifacts in the repo are live evidence, not stale JSON: a protocol
//! or runtime change that breaks reproduction fails this test, not a
//! human re-running hunts by hand.
//!
//! Wire-fault artifacts ride the same matrix. On the engine the wire
//! plan is ignored (the engine has no wire), which is exactly the claim
//! the artifact makes: delivery-preserving wire faults do not change
//! observable outcomes, so the fingerprint must match anyway.

use std::fs;
use std::path::PathBuf;

use ftc::hunt::prelude::{Artifact, Substrate};

/// All committed counterexample artifacts, sorted for stable output.
fn committed_artifacts() -> Vec<(PathBuf, Artifact)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut found = Vec::new();
    for entry in fs::read_dir(&dir).expect("results/ exists") {
        let path = entry.unwrap().path();
        let name = path.file_name().and_then(|s| s.to_str()).unwrap_or("");
        if !name.ends_with(".counterexample.json") {
            continue;
        }
        let text = fs::read_to_string(&path).unwrap();
        let artifact = Artifact::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        found.push((path, artifact));
    }
    found.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(
        !found.is_empty(),
        "no *.counterexample.json committed under results/"
    );
    found
}

fn replay_all_on(substrate: Substrate) {
    for (path, artifact) in committed_artifacts() {
        let report = artifact
            .replay(substrate)
            .unwrap_or_else(|e| panic!("{} on {substrate:?}: {e}", path.display()));
        assert!(
            report.ok(),
            "{} diverged on {substrate:?}: fingerprint_matches={} verdict_matches={}",
            path.display(),
            report.fingerprint_matches,
            report.verdict_matches
        );
    }
}

#[test]
fn committed_artifacts_replay_on_engine() {
    replay_all_on(Substrate::Engine);
}

#[test]
fn committed_artifacts_replay_on_channel() {
    replay_all_on(Substrate::Channel(2));
}

#[test]
fn committed_artifacts_replay_on_mesh() {
    replay_all_on(Substrate::Mesh(2));
}

#[test]
fn committed_artifacts_replay_on_mesh_one_node_per_proc() {
    // Clamps to min(n, MAX_MESH_PROCS): every edge is its own socket.
    replay_all_on(Substrate::Mesh(64));
}
