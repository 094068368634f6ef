//! Golden digests: FNV-1a digests of each workload's deterministic output,
//! pinned for the default and the held-out seed.
//!
//! The file maps `seed → workload → output name → digest`. A run whose
//! seed and workload have an entry must reproduce exactly that set of
//! digests; runs at other seeds rely on the in-run checks alone (repeat
//! identity, in-memory vs chunked identity, cached vs fresh identity).

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use fetchvp_metrics::Json;

use crate::report::Outcome;

type Table = BTreeMap<String, BTreeMap<String, BTreeMap<String, String>>>;

/// The parsed golden file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Golden {
    table: Table,
}

impl Golden {
    /// Loads the golden file; a missing file is an empty table.
    ///
    /// # Errors
    ///
    /// Unreadable or malformed files.
    pub fn load(path: &Path) -> io::Result<Golden> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Golden::default()),
            Err(e) => return Err(e),
        };
        let malformed = || io::Error::new(io::ErrorKind::InvalidData, "malformed golden file");
        let doc = Json::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let mut table = Table::new();
        for (seed, workloads) in doc.as_object().ok_or_else(malformed)? {
            for (workload, outputs) in workloads.as_object().ok_or_else(malformed)? {
                for (name, hex) in outputs.as_object().ok_or_else(malformed)? {
                    let hex = hex.as_str().ok_or_else(malformed)?.to_string();
                    table
                        .entry(seed.clone())
                        .or_default()
                        .entry(workload.clone())
                        .or_default()
                        .insert(name.clone(), hex);
                }
            }
        }
        Ok(Golden { table })
    }

    /// The pinned digests of one seed and workload, if any.
    pub fn pinned(&self, seed: u64, workload: &str) -> Option<&BTreeMap<String, String>> {
        self.table.get(&seed.to_string())?.get(workload)
    }

    /// Compares a run's digests with the pinned ones (if this seed and
    /// workload are pinned), counting one check per pinned output plus one
    /// for the set of names. Returns whether anything was pinned.
    pub fn check(&self, seed: u64, workload: &str, out: &mut Outcome) -> bool {
        let Some(pinned) = self.pinned(seed, workload) else { return false };
        let got: Vec<String> = out.digests.keys().cloned().collect();
        out.check(pinned.keys().eq(got.iter()), || {
            format!("golden: {workload} outputs {got:?} differ from pinned {:?}", pinned.keys())
        });
        for (name, want) in pinned {
            let got = out.digests.get(name).cloned();
            out.check(got.as_ref() == Some(want), || {
                format!("golden: {workload} {name} digest {got:?}, pinned {want}")
            });
        }
        true
    }

    /// Pins `digests` for one seed and workload (replacing any entry).
    pub fn pin(&mut self, seed: u64, workload: &str, digests: &BTreeMap<String, String>) {
        self.table
            .entry(seed.to_string())
            .or_default()
            .insert(workload.to_string(), digests.clone());
    }

    /// Writes the table, keys sorted.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let str_map = |m: &BTreeMap<String, String>| {
            Json::object(m.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))))
        };
        let doc = Json::object(self.table.iter().map(|(seed, workloads)| {
            let inner = workloads.iter().map(|(w, outputs)| (w.clone(), str_map(outputs)));
            (seed.clone(), Json::object(inner))
        }));
        std::fs::write(path, doc.to_json() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_save_load_check() {
        let dir = std::env::temp_dir().join(format!("perfbench-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("golden.json");
        assert_eq!(Golden::load(&path).unwrap(), Golden::default());

        let digests: BTreeMap<String, String> =
            [("a.csv".to_string(), "0123456789abcdef".to_string())].into();
        let mut g = Golden::default();
        g.pin(5, "w", &digests);
        g.save(&path).unwrap();
        let g = Golden::load(&path).unwrap();

        let mut good = Outcome { digests: digests.clone(), ..Outcome::default() };
        assert!(g.check(5, "w", &mut good));
        assert_eq!((good.attempted, good.failed), (2, 0));

        let mut bad = Outcome::default();
        bad.digests.insert("a.csv".into(), "ffffffffffffffff".into());
        g.check(5, "w", &mut bad);
        assert_eq!(bad.failed, 1);

        let mut unpinned = Outcome::default();
        assert!(!g.check(6, "w", &mut unpinned));
        assert_eq!(unpinned.attempted, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
