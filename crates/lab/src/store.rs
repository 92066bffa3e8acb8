//! Content-addressed results store under `results/store/`.
//!
//! Each record is one JSON file named `<name>-<hash16>.json`, where the
//! hash is FNV-1a 64 over the record's deterministic payload (diag
//! fields stripped). Re-running the same spec at the same seed therefore
//! lands on the same id — `put` is idempotent — while any change in the
//! spec or measured numbers mints a new id. Files on disk keep the diag
//! fields (git rev, wall clock) because provenance matters to humans;
//! identity never depends on them.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use ftc_sim::json::{Codec, Diag, Json, JsonError};

use crate::run::{CampaignRecord, LAB_SCHEMA};

/// Default store location relative to the repo root.
pub const DEFAULT_DIR: &str = "results/store";

/// A directory of campaign records addressed by content.
#[derive(Clone, Debug)]
pub struct Store {
    dir: PathBuf,
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
        "ftc-chaos-record/v1" => "hunt",
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

    /// Persists a record; returns its content id. Idempotent: an
    /// existing file with the same id is left untouched (its recorded
    /// provenance is from the first run that produced these numbers).
    pub fn put(&self, record: &CampaignRecord) -> io::Result<String> {
        fs::create_dir_all(&self.dir)?;
        let id = record.id();
        let path = self.path_of(&id);
        if !path.exists() {
            let mut text = record.to_json(true).render();
            text.push('\n');
            fs::write(&path, text)?;
        }
        Ok(id)
    }

    /// Loads a record by id.
    pub fn load(&self, id: &str) -> io::Result<CampaignRecord> {
        Self::load_path(&self.path_of(id))
    }

    /// Loads a record from an arbitrary file path (baselines committed
    /// outside the store use this too).
    pub fn load_path(path: &Path) -> io::Result<CampaignRecord> {
        let text = fs::read_to_string(path)?;
        Json::parse(&text)
            .and_then(|json| CampaignRecord::from_json(&json))
            .map_err(|e| invalid(path, e))
    }

    /// Persists an already-rendered record under `id` (the caller owns
    /// the schema — this is how non-lab records, e.g. `ftc-chaos`
    /// portfolio records, share the store). Idempotent like [`Store::put`].
    pub fn put_rendered(&self, id: &str, text: &str) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let path = self.path_of(id);
        if !path.exists() {
            let mut text = text.to_string();
            if !text.ends_with('\n') {
                text.push('\n');
            }
            fs::write(&path, text)?;
        }
        Ok(())
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

    /// Finds the record whose id matches exactly, or — failing that —
    /// the unique record whose id starts with `needle` (so `show` can
    /// take a name or an abbreviated id).
    pub fn resolve(&self, needle: &str) -> io::Result<CampaignRecord> {
        if self.path_of(needle).exists() {
            return self.load(needle);
        }
        let matches: Vec<StoreEntry> = self
            .list()?
            .into_iter()
            .filter(|e| e.id.starts_with(needle))
            .collect();
        match matches.len() {
            1 => self.load(&matches[0].id),
            0 => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no record matching `{needle}` in {}", self.dir.display()),
            )),
            k => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("`{needle}` is ambiguous ({k} records match)"),
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
        assert_eq!(store.resolve(&a).unwrap().id(), a);
        assert!(store.resolve("nope").is_err());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn listing_a_missing_store_is_empty() {
        let store = Store::at("/nonexistent/ftc-lab-store");
        assert!(store.list().unwrap().is_empty());
    }

    #[test]
    fn foreign_schemas_list_side_by_side_with_lab_records() {
        let store = tmp_store("kinds");
        store.put(&small_record("store-unit", 1)).unwrap();
        // A chaos-style record: same envelope, different schema and body.
        let chaos = r#"{"schema":"ftc-chaos-record/v1","name":"portfolio","spec_hash":"abcd","spec":{},"cells":[{},{}],"coverage":{},"diag":{"git_rev":"f00","wall_s":1.5}}"#;
        store
            .put_rendered("portfolio-0123456789abcdef", chaos)
            .unwrap();
        // put_rendered is idempotent.
        store
            .put_rendered("portfolio-0123456789abcdef", chaos)
            .unwrap();
        let entries = store.list().unwrap();
        assert_eq!(entries.len(), 2);
        let hunt = entries.iter().find(|e| e.kind == "hunt").unwrap();
        assert_eq!(hunt.name, "portfolio");
        assert_eq!(hunt.spec_hash, "abcd");
        assert_eq!(hunt.cells, 2);
        assert_eq!(hunt.git_rev, "f00");
        assert_eq!(hunt.wall_s, 1.5);
        let lab = entries.iter().find(|e| e.kind == "lab").unwrap();
        assert_eq!(lab.name, "store-unit");
        let _ = fs::remove_dir_all(store.dir());
    }
}
