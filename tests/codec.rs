//! The one JSON codec against the committed files, with no simulation.
//!
//! Every `results/store` record (lab and hunt kinds) and every committed
//! counterexample decodes and re-renders byte for byte — the diag render
//! is the file, the deterministic render hashes to the record's id. And
//! every field table those documents exercise, probed key by key: dropping
//! a key is an error naming it unless the writer could have left it out,
//! and an added unknown key is an error naming it.

use std::fs;
use std::path::{Path, PathBuf};

use ftc::chaos::prelude::HuntCampaignRecord;
use ftc::hunt::prelude::Artifact;
use ftc::lab::{campaigns, CampaignRecord, Workload};
use ftc::net::prelude::{WireFaultKind, WireFaultPlan};
use ftc::sim::json::{Codec, Json};
use ftc::sim::prelude::{Metrics, NodeId, ServiceMetrics, SimConfig, Topology};

fn results() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// `(path, text)` of every JSON file in `dir` whose name ends in `suffix`.
fn files(dir: &Path, suffix: &str) -> Vec<(PathBuf, String)> {
    let mut found: Vec<_> = (fs::read_dir(dir).unwrap())
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_str().is_some_and(|s| s.ends_with(suffix)))
        .map(|p| {
            let text = fs::read_to_string(&p).unwrap();
            (p, text)
        })
        .collect();
    found.sort();
    found
}

fn decode<T: Codec>(path: &Path, text: &str) -> T {
    T::decode(&Json::parse(text).unwrap()).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_committed_file_re_renders_byte_for_byte() {
    let (mut lab, mut hunt) = (0, 0);
    for (path, text) in files(&results().join("store"), ".json") {
        let stem = path.file_stem().unwrap().to_str().unwrap();
        let (full, id) = if text.contains("\"schema\":\"ftc-chaos-record/v1\"") {
            hunt += 1;
            let r: HuntCampaignRecord = decode(&path, &text);
            (r.to_json(true).render(), r.id())
        } else {
            lab += 1;
            let r: CampaignRecord = decode(&path, &text);
            (r.to_json(true).render(), r.id())
        };
        assert_eq!(full + "\n", text, "{}: diag render", path.display());
        assert_eq!(id, stem, "{}: deterministic render", path.display());
    }
    assert!(lab >= 21 && hunt >= 1, "{lab} lab, {hunt} hunt records");
    let artifacts = files(&results(), ".counterexample.json");
    assert!(artifacts.len() >= 2);
    for (path, text) in artifacts {
        let artifact = Artifact::parse(&text).unwrap();
        assert_eq!(artifact.render(), text, "{}", path.display());
    }
}

/// A step from a JSON node to a child.
#[derive(Clone, Debug)]
enum Step {
    Key(String),
    Item(usize),
}

/// The paths of every object under `v` that a field table reads — all but
/// `extras`, a map whose keys are data.
fn tables(v: &Json, at: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    match v {
        Json::Obj(fields) => {
            out.push(at.clone());
            for (k, child) in fields.iter().filter(|(k, _)| k != "extras") {
                at.push(Step::Key(k.clone()));
                tables(child, at, out);
                at.pop();
            }
        }
        Json::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                at.push(Step::Item(i));
                tables(child, at, out);
                at.pop();
            }
        }
        _ => {}
    }
}

/// The node of `doc` at `path`.
fn node_at<'a>(doc: &'a Json, path: &[Step]) -> &'a Json {
    path.iter().fold(doc, |node, step| match (step, node) {
        (Step::Key(k), _) => node.get(k).unwrap(),
        (Step::Item(i), Json::Arr(items)) => &items[*i],
        (step, _) => panic!("no {step:?}"),
    })
}

/// A copy of `doc` with `edit` applied to the object at `path`.
fn edited(doc: &Json, path: &[Step], edit: impl FnOnce(&mut Vec<(String, Json)>)) -> Json {
    let mut copy = doc.clone();
    let mut node = &mut copy;
    for step in path {
        node = match (step, node) {
            (Step::Key(k), Json::Obj(fields)) => {
                &mut fields.iter_mut().find(|(f, _)| f == k).unwrap().1
            }
            (Step::Item(i), Json::Arr(items)) => &mut items[*i],
            (step, _) => panic!("no {step:?}"),
        };
    }
    let Json::Obj(fields) = node else {
        panic!("not an object")
    };
    edit(fields);
    copy
}

/// Keeps only the first item of every array of objects, so probing a
/// record costs a few hundred decodes instead of tens of thousands.
fn first_items(v: &Json) -> Json {
    match v {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .map(|(k, x)| (k.clone(), first_items(x)))
                .collect(),
        ),
        Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
            Json::Arr(vec![first_items(&items[0])])
        }
        other => other.clone(),
    }
}

/// The field-table property on one document of type `T`: every key of
/// every table in it is probed by dropping it, and every table by adding
/// an unknown key. A dropped key must be an error naming it, unless the
/// writer could have left it out — a derived key (the render comes back
/// whole), an elided default (the render comes back without it) or a
/// diag field (the deterministic render is untouched).
fn probe<T: Codec>(what: &str, doc: &Json) {
    let doc = first_items(doc);
    let full = |v: &T| v.encode(true).render();
    let det = |v: &T| v.encode(false).render();
    let base = T::decode(&doc).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(full(&base), doc.render(), "{what}");
    let mut paths = Vec::new();
    tables(&doc, &mut Vec::new(), &mut paths);
    for path in paths {
        let Json::Obj(fields) = node_at(&doc, &path) else {
            unreachable!("tables() lists objects")
        };
        for (key, _) in fields {
            let dropped = edited(&doc, &path, |f| f.retain(|(k, _)| k != key));
            match T::decode(&dropped) {
                Err(e) => assert!(
                    e.message.contains(&format!("`{key}`")),
                    "{what} {path:?}: dropping `{key}` gave {e}"
                ),
                Ok(v) => assert!(
                    full(&v) == doc.render()
                        || full(&v) == dropped.render()
                        || det(&v) == det(&base),
                    "{what} {path:?}: `{key}` was dropped and silently defaulted"
                ),
            }
        }
        let added = edited(&doc, &path, |f| f.push(("codec_probe".into(), Json::Null)));
        let Err(e) = T::decode(&added) else {
            panic!("{what} {path:?} took an unknown key")
        };
        assert!(e.message.contains("`codec_probe`"), "{what} {path:?}: {e}");
    }
}

#[test]
fn every_field_table_names_a_dropped_or_unknown_key() {
    for (path, text) in files(&results().join("store"), ".json") {
        let doc = Json::parse(&text).unwrap();
        let what = path.display().to_string();
        if text.contains("\"schema\":\"ftc-chaos-record/v1\"") {
            probe::<HuntCampaignRecord>(&what, &doc);
        } else {
            probe::<CampaignRecord>(&what, &doc);
        }
    }
    for (path, text) in files(&results(), ".counterexample.json") {
        probe::<Artifact>(&path.display().to_string(), &Json::parse(&text).unwrap());
    }
    // What no committed file holds: every workload the campaign table
    // names, the run accounting, and the rarer config and wire shapes.
    for name in campaigns::names() {
        for cell in campaigns::named(name, true).unwrap().cells {
            probe::<Workload>(name, &cell.workload.to_json());
        }
    }
    let mut m = Metrics::new();
    m.rounds = 3;
    m.per_round = vec![Default::default(); 2];
    m.crashes = vec![(NodeId(4), 1)];
    probe::<Metrics>("metrics", &m.to_json());
    let mut s = ServiceMetrics::new();
    s.record_election(Some(7), 12);
    probe::<ServiceMetrics>("service metrics", &s.to_json());
    let mut cfg = SimConfig::new(3).topology(Topology::Explicit {
        adjacency: vec![vec![1], vec![0, 2], vec![1]].into(),
    });
    cfg.congest_bits = Some(96);
    probe::<SimConfig>("sim config", &cfg.to_json());
    let wire = WireFaultPlan::new(5)
        .fault(NodeId(1), 2, WireFaultKind::Tear { chunk: 3 })
        .fault(NodeId(2), 0, WireFaultKind::Reorder);
    probe::<WireFaultPlan>("wire plan", &wire.to_json());
}
