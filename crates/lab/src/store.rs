//! Content-addressed results store under `results/store/`.
//!
//! Each record is one JSON file named `<name>-<hash16>.json`, where the
//! hash is FNV-1a 64 over the record's deterministic payload (diag
//! fields stripped). Re-running the same spec at the same seed therefore
//! lands on the same id — `put` is idempotent — while any change in the
//! spec or measured numbers mints a new id. Files on disk keep the diag
//! fields (git rev, wall clock) because provenance matters to humans;
//! identity never depends on them.
//!
//! The store holds both record kinds — lab campaigns and portfolio
//! hunts — and tells them apart once, by the `schema` tag every record
//! leads with ([`Record`]).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use ftc_hunt::portfolio::{HuntCampaignRecord, CHAOS_SCHEMA};
use ftc_sim::json::{Codec, Diag, Json, JsonError, Stored};

use crate::run::{CampaignRecord, LAB_SCHEMA};

/// A directory of campaign records addressed by content.
#[derive(Clone, Debug)]
pub struct Store {
    dir: PathBuf,
}

/// A stored record of either kind.
#[derive(Clone, Debug)]
pub enum Record {
    /// A measurement campaign (`kind` `lab`).
    Lab(CampaignRecord),
    /// A portfolio adversary hunt (`kind` `hunt`).
    Hunt(HuntCampaignRecord),
}

/// One line of `list` output.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreEntry {
    /// Record id (`<name>-<hash16>`), also the file stem.
    pub id: String,
    /// Record kind: `lab` (measurement campaigns), `hunt` (portfolio
    /// adversary hunts), or `unknown` for schemas this build predates.
    pub kind: String,
    /// Campaign name.
    pub name: String,
    /// Spec hash.
    pub spec_hash: String,
    /// Number of cells.
    pub cells: usize,
    /// Git revision recorded at run time.
    pub git_rev: String,
    /// Wall-clock seconds recorded at run time.
    pub wall_s: f64,
}

/// A store file that does not parse as what it should hold, named.
fn invalid(path: &Path, e: JsonError) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {e}", path.display()),
    )
}

/// Maps a record's schema tag onto its listing kind.
fn kind_of(schema: &str) -> &'static str {
    match schema {
        LAB_SCHEMA => "lab",
        CHAOS_SCHEMA => "hunt",
        _ => "unknown",
    }
}

impl Store {
    /// Opens (without creating) a store at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Store { dir: dir.into() }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.json"))
    }

    /// Persists a record of either kind; returns its content id.
    /// Idempotent: an existing file with the same id is left untouched
    /// (its recorded provenance is from the first run that produced these
    /// numbers).
    pub fn put(&self, record: &impl Stored) -> io::Result<String> {
        fs::create_dir_all(&self.dir)?;
        let id = record.id();
        let path = self.path_of(&id);
        if !path.exists() {
            let mut text = record.encode(true).render();
            text.push('\n');
            fs::write(&path, text)?;
        }
        Ok(id)
    }

    /// Loads a lab record by id.
    pub fn load(&self, id: &str) -> io::Result<CampaignRecord> {
        match Self::read(&self.path_of(id))? {
            Record::Lab(record) => Ok(record),
            Record::Hunt(_) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{id} is a portfolio hunt, not a lab record"),
            )),
        }
    }

    /// Reads the record at `path`, its kind chosen by its `schema` tag; a
    /// schema this build does not know is read as a lab record, whose
    /// reader then names it.
    fn read(path: &Path) -> io::Result<Record> {
        let text = fs::read_to_string(path)?;
        let json = Json::parse(&text).map_err(|e| invalid(path, e))?;
        let schema = json.get("schema").and_then(|s| s.as_str().ok());
        match schema.map(kind_of) {
            Some("hunt") => HuntCampaignRecord::decode(&json).map(Record::Hunt),
            _ => CampaignRecord::decode(&json).map(Record::Lab),
        }
        .map_err(|e| invalid(path, e))
    }

    /// Lists all records, sorted by id (so names cluster and output is
    /// stable). The listing skims the shared envelope fields (`schema`,
    /// `name`, `spec_hash`, `cells`, `diag`) rather than fully parsing
    /// each record, so records of every schema — lab campaigns and chaos
    /// portfolio hunts alike — appear side by side.
    pub fn list(&self) -> io::Result<Vec<StoreEntry>> {
        let mut entries = Vec::new();
        let dir = match fs::read_dir(&self.dir) {
            Ok(d) => d,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(entries),
            Err(e) => return Err(e),
        };
        for entry in dir {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let text = fs::read_to_string(&path)?;
            let json = Json::parse(&text).map_err(|e| invalid(&path, e))?;
            let str_field = |name: &str| {
                json.field(name)
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string()
            };
            let Diag { git_rev, wall_s } = (json.get("diag"))
                .and_then(|d| Diag::decode(d).ok())
                .unwrap_or_default();
            entries.push(StoreEntry {
                id: path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or_default()
                    .to_string(),
                kind: kind_of(&str_field("schema")).to_string(),
                name: str_field("name"),
                spec_hash: str_field("spec_hash"),
                cells: json
                    .field("cells")
                    .and_then(Json::as_arr)
                    .map_or(0, <[Json]>::len),
                git_rev,
                wall_s,
            });
        }
        entries.sort_by(|a, b| a.id.cmp(&b.id));
        Ok(entries)
    }

    /// Finds a record: the file at `needle` if one exists there, else the
    /// record whose id matches exactly, else the unique record whose id
    /// starts with `needle` (so verbs can take a name, an abbreviated id
    /// or a committed file).
    pub fn resolve(&self, needle: &str) -> io::Result<Record> {
        for path in [PathBuf::from(needle), self.path_of(needle)] {
            if path.is_file() {
                return Self::read(&path);
            }
        }
        let matches: Vec<StoreEntry> = self
            .list()?
            .into_iter()
            .filter(|e| e.id.starts_with(needle))
            .collect();
        match matches.as_slice() {
            [entry] => Self::read(&self.path_of(&entry.id)),
            [] => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no record matching `{needle}` in {}", self.dir.display()),
            )),
            many => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("`{needle}` is ambiguous ({} records match)", many.len()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_campaign;
    use crate::spec::{Adv, CampaignSpec, CellSpec, Workload};
    use crate::Substrate;

    fn tmp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("ftc-lab-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Store::at(dir)
    }

    fn small_record(name: &str, seed: u64) -> CampaignRecord {
        let spec = CampaignSpec::new(name).cell(CellSpec::new(
            Workload::Le {
                adv: Adv::Random(5),
            },
            16,
            0.5,
            seed,
            2,
        ));
        run_campaign(&spec, 1, Substrate::Engine).unwrap()
    }

    #[test]
    fn put_is_idempotent_and_load_round_trips() {
        let store = tmp_store("put");
        let record = small_record("store-unit", 1);
        let id = store.put(&record).unwrap();
        assert_eq!(id, record.id());
        assert_eq!(store.put(&record).unwrap(), id);
        let loaded = store.load(&id).unwrap();
        assert_eq!(loaded.deterministic_render(), record.deterministic_render());
        assert_eq!(store.list().unwrap().len(), 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn distinct_seeds_mint_distinct_ids() {
        let store = tmp_store("ids");
        let a = store.put(&small_record("store-unit", 1)).unwrap();
        let b = store.put(&small_record("store-unit", 2)).unwrap();
        assert_ne!(a, b);
        assert_eq!(store.list().unwrap().len(), 2);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn resolve_accepts_unique_prefixes_and_rejects_ambiguity() {
        let store = tmp_store("resolve");
        let a = store.put(&small_record("alpha", 1)).unwrap();
        store.put(&small_record("alpha", 2)).unwrap();
        assert!(store.resolve("alpha").is_err(), "two records share prefix");
        let Record::Lab(found) = store.resolve(&a).unwrap() else {
            panic!("a lab record resolves as one");
        };
        assert_eq!(found.id(), a);
        // A file path resolves too, wherever the file lives.
        let path = store.dir().join(format!("{a}.json"));
        assert!(matches!(
            store.resolve(path.to_str().unwrap()),
            Ok(Record::Lab(_))
        ));
        assert!(store.resolve("nope").is_err());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn listing_a_missing_store_is_empty() {
        let store = Store::at("/nonexistent/ftc-lab-store");
        assert!(store.list().unwrap().is_empty());
    }

    #[test]
    fn both_kinds_share_one_put_and_resolve_by_schema() {
        use ftc_hunt::portfolio::{run_hunt_campaign, HuntCampaignSpec, HuntCellSpec};
        use ftc_hunt::prelude::{Objective, ProtoKind, Strategy};

        let store = tmp_store("kinds");
        store.put(&small_record("store-unit", 1)).unwrap();
        let spec = HuntCampaignSpec::new("portfolio").cell(HuntCellSpec {
            label: "le-msgs".into(),
            proto: ProtoKind::Le,
            objective: Objective::MaxMessages,
            strategy: Strategy::Random,
            n: 16,
            alpha: 0.5,
            zeros: 0.05,
            budget: 2,
            probes: 1,
            seed: 3,
            wire: false,
        });
        let hunt = run_hunt_campaign(&spec, 1).unwrap();
        let id = store.put(&hunt).unwrap();
        assert_eq!(store.put(&hunt).unwrap(), id, "put is idempotent");
        let entries = store.list().unwrap();
        assert_eq!(entries.len(), 2);
        let listed = entries.iter().find(|e| e.kind == "hunt").unwrap();
        assert_eq!(listed.id, id);
        assert_eq!(listed.name, "portfolio");
        assert_eq!(listed.spec_hash, spec.hash());
        assert_eq!(listed.cells, 1);
        assert_eq!(listed.git_rev, hunt.git_rev);
        let lab = entries.iter().find(|e| e.kind == "lab").unwrap();
        assert_eq!(lab.name, "store-unit");
        let Record::Hunt(back) = store.resolve("portfolio").unwrap() else {
            panic!("the schema tag picks the hunt reader");
        };
        assert_eq!(back.deterministic_render(), hunt.deterministic_render());
        assert!(store
            .load(&id)
            .unwrap_err()
            .to_string()
            .contains("portfolio hunt"));
        let _ = fs::remove_dir_all(store.dir());
    }
}
