//! Shared by the integration tests: the check of a run's result files
//! against the committed record under `results/`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use lucent_support::Json;

/// Moved values listed per file; the rest are only counted.
const LISTED: usize = 20;

/// The committed record at `scale`: `results/{scale}` at the workspace
/// root, as `repro all --scale {scale} --threads 1 --json DIR` writes it.
pub fn record_dir(scale: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../results").join(scale)
}

/// Compare a run's results, `(file stem, JSON text)` each, with the
/// record in `dir`. The report names every file whose bytes differ,
/// with its first moved values as `file.json .path: old → new` and a
/// count, every result the record lacks and every recorded file the run
/// did not write. It is empty when the run reproduces the record byte
/// for byte.
pub fn record_mismatches(dir: &Path, results: &[(&str, String)]) -> String {
    let mut report = String::new();
    for (stem, text) in results {
        let file = format!("{stem}.json");
        let Ok(recorded) = std::fs::read_to_string(dir.join(&file)) else {
            let _ = writeln!(report, "{file}: not in the record");
            continue;
        };
        if recorded == *text {
            continue;
        }
        let moves = match (Json::parse(&recorded), Json::parse(text)) {
            (Ok(old), Ok(new)) => old.moves(&new),
            _ => Vec::new(),
        };
        let _ = writeln!(report, "{file}: {} value(s) moved", moves.len());
        for line in moves.iter().take(LISTED) {
            let _ = writeln!(report, "  {file} {line}");
        }
        if moves.len() > LISTED {
            let _ = writeln!(report, "  … and {} more", moves.len() - LISTED);
        }
    }
    let written = |name: &str| results.iter().any(|(stem, _)| format!("{stem}.json") == name);
    let mut extra: Vec<String> = std::fs::read_dir(dir)
        .map(|entries| {
            entries.flatten().filter_map(|e| e.file_name().into_string().ok()).collect()
        })
        .unwrap_or_default();
    extra.retain(|name| !written(name));
    extra.sort();
    for name in extra {
        let _ = writeln!(report, "{name}: recorded, but the run did not write it");
    }
    report
}
