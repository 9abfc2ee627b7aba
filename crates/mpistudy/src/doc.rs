//! The metrics document one simulated grid cell persists.
//!
//! Documents are hand-rolled JSON (like every exporter in the workspace)
//! and round-trip **byte-identically**: `from_json(to_json(d))` re-emits
//! the exact input bytes. Two properties carry that guarantee:
//!
//! * floats are written with Rust's `{}` `Display`, the shortest string
//!   that parses back to the same `f64` — so parse → re-emit is a fixed
//!   point;
//! * parsing uses `mpisim::jsoncheck::parse_json`, whose DOM keeps
//!   numbers as raw text until a field asks for a value, so nothing is
//!   rounded on the way in.
//!
//! Byte identity is not cosmetic: the store's `gc` recomputes content
//! hashes from re-emitted documents, and figure regeneration must feed
//! the exact stored floats back into the same row builders the harness
//! uses.

use crate::config::CellConfig;
use bench::{CellOutcome, CellSection};
use mpisim::diag::json_str;
use mpisim::jsoncheck::{parse_json, Json};

/// Schema tag of the run document.
pub const RUN_SCHEMA: &str = "mpistudy-run-v1";

/// One stored run: a grid cell's configuration plus its measured metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDoc {
    /// The canonical configuration string (the hashed recipe).
    pub config: String,
    /// FNV-1a hash of `config` — the store key and filename stem.
    pub hash: String,
    /// Workload name (`conv`, `conv-weak`, `lulesh`).
    pub workload: String,
    /// Machine preset name.
    pub machine: String,
    /// Fingerprint of the machine's full parameter dump; also the key of
    /// the calibration document stored under `machines/`.
    pub machine_fp: String,
    /// MPI process count.
    pub p: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Simulated wall time (makespan) in seconds.
    pub wall_secs: f64,
    /// World-communicator sections.
    pub sections: Vec<CellSection>,
}

impl RunDoc {
    /// Package a cell's outcome for the store.
    pub fn new(cfg: &CellConfig, machine_fp: &str, outcome: &CellOutcome) -> RunDoc {
        RunDoc {
            config: cfg.canonical(machine_fp),
            hash: cfg.hash(machine_fp),
            workload: cfg.workload.name().to_string(),
            machine: cfg.machine.clone(),
            machine_fp: machine_fp.to_string(),
            p: cfg.p,
            seed: cfg.seed,
            wall_secs: outcome.wall_secs,
            sections: outcome.sections.clone(),
        }
    }

    /// The measurement as the `bench` row builders consume it.
    pub fn outcome(&self) -> CellOutcome {
        CellOutcome {
            wall_secs: self.wall_secs,
            sections: self.sections.clone(),
        }
    }

    /// Steps parameter recovered from the canonical config string, if the
    /// workload has one.
    pub fn steps(&self) -> Option<usize> {
        config_field(&self.config, "steps")
    }

    /// `rows_per_rank` recovered from the canonical config string.
    pub fn rows_per_rank(&self) -> Option<usize> {
        config_field(&self.config, "rows_per_rank")
    }

    /// Serialize (one line, trailing newline).
    pub fn to_json(&self) -> String {
        let sections: Vec<String> = self
            .sections
            .iter()
            .map(|s| {
                format!(
                    "{{\"label\": {}, \"participants\": {}, \"total_own_secs\": {}, \
                     \"total_excl_secs\": {}, \"avg_per_rank_secs\": {}}}",
                    json_str(&s.label),
                    s.participants,
                    s.total_own_secs,
                    s.total_excl_secs,
                    s.avg_per_rank_secs,
                )
            })
            .collect();
        format!(
            "{{\"schema\": \"{RUN_SCHEMA}\", \"config\": {}, \"hash\": \"{}\", \
             \"workload\": \"{}\", \"machine\": {}, \"machine_fp\": \"{}\", \
             \"p\": {}, \"seed\": {}, \"wall_secs\": {}, \"sections\": [{}]}}\n",
            json_str(&self.config),
            self.hash,
            self.workload,
            json_str(&self.machine),
            self.machine_fp,
            self.p,
            self.seed,
            self.wall_secs,
            sections.join(", "),
        )
    }

    /// Parse a stored document (jsoncheck-validated; schema-checked).
    pub fn from_json(text: &str) -> Result<RunDoc, String> {
        let dom = parse_json(text).map_err(|off| format!("invalid JSON at byte {off}"))?;
        let schema = field_str(&dom, "schema")?;
        if schema != RUN_SCHEMA {
            return Err(format!("schema '{schema}', expected '{RUN_SCHEMA}'"));
        }
        let sections = dom
            .get("sections")
            .and_then(Json::as_arr)
            .ok_or("missing sections array")?
            .iter()
            .map(|s| {
                Ok(CellSection {
                    label: field_str(s, "label")?.to_string(),
                    participants: field_usize(s, "participants")?,
                    total_own_secs: field_f64(s, "total_own_secs")?,
                    total_excl_secs: field_f64(s, "total_excl_secs")?,
                    avg_per_rank_secs: field_f64(s, "avg_per_rank_secs")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunDoc {
            config: field_str(&dom, "config")?.to_string(),
            hash: field_str(&dom, "hash")?.to_string(),
            workload: field_str(&dom, "workload")?.to_string(),
            machine: field_str(&dom, "machine")?.to_string(),
            machine_fp: field_str(&dom, "machine_fp")?.to_string(),
            p: field_usize(&dom, "p")?,
            seed: dom
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("missing seed")?,
            wall_secs: field_f64(&dom, "wall_secs")?,
            sections,
        })
    }

    /// Recompute the content hash from the *document's own* config string
    /// — `gc` compares this against the filename to detect corruption.
    pub fn recomputed_hash(&self) -> String {
        mpi_sections::fasthash::fnv1a_hex(&self.config)
    }
}

/// Pull a `key=value` numeric field out of a canonical config string.
fn config_field(config: &str, key: &str) -> Option<usize> {
    config.split_whitespace().find_map(|pair| {
        pair.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix('='))
            .and_then(|v| v.parse().ok())
    })
}

fn field_str<'a>(dom: &'a Json, key: &str) -> Result<&'a str, String> {
    dom.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn field_usize(dom: &Json, key: &str) -> Result<usize, String> {
    dom.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("missing integer field '{key}'"))
}

fn field_f64(dom: &Json, key: &str) -> Result<f64, String> {
    dom.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number field '{key}'"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Workload;
    use mpisim::jsoncheck::assert_json;

    fn sample() -> RunDoc {
        let cfg = CellConfig {
            workload: Workload::Conv { steps: 5 },
            machine: "nehalem_cluster".into(),
            p: 4,
            seed: 1,
        };
        let machine = machine::presets::nehalem_cluster();
        let fp = crate::config::machine_fingerprint(&machine);
        RunDoc::new(&cfg, &fp, &crate::pool::execute_cell(&cfg, &machine))
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        // The satellite acceptance test: parse a stored metrics document,
        // re-emit it, and the bytes must match exactly — floats included.
        let doc = sample();
        let json = doc.to_json();
        assert_json(&json, "run document");
        let parsed = RunDoc::from_json(&json).expect("parse back");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.to_json(), json, "re-emitted bytes differ");
    }

    #[test]
    fn hash_matches_filename_contract() {
        let doc = sample();
        assert_eq!(doc.recomputed_hash(), doc.hash);
    }

    #[test]
    fn config_fields_recover_parameters() {
        let doc = sample();
        assert_eq!(doc.steps(), Some(5));
        assert_eq!(doc.rows_per_rank(), None);
    }

    #[test]
    fn rejects_wrong_schema_and_garbage() {
        assert!(RunDoc::from_json("{\"schema\": \"other-v1\"}").is_err());
        assert!(RunDoc::from_json("not json").is_err());
        assert!(RunDoc::from_json("{\"schema\": \"mpistudy-run-v1\"}").is_err());
    }
}
