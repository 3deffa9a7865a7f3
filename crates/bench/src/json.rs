//! Optional machine-readable output for the harness binaries.
//!
//! Every figure/table binary prints a human-readable table; setting
//! `BFLY_JSON=1` additionally writes the underlying series as JSON under
//! `target/bench-results/`, so plots can be regenerated without scraping
//! stdout.

use serde::Serialize;
use std::path::{Path, PathBuf};

/// Where JSON results are written.
pub fn results_dir() -> PathBuf {
    PathBuf::from("target").join("bench-results")
}

/// True when the user asked for JSON output (`BFLY_JSON=1`).
pub fn json_enabled() -> bool {
    enabled(std::env::var("BFLY_JSON").ok().as_deref())
}

/// The `BFLY_JSON` switch as a function of the variable's value: only an
/// exact `"1"` turns JSON output on.
fn enabled(value: Option<&str>) -> bool {
    value == Some("1")
}

/// Writes `value` as `target/bench-results/<name>.json` when enabled.
/// Returns the path written, or `None` when disabled or on I/O failure
/// (failures are reported to stderr, never fatal for a bench run).
pub fn maybe_write_json<T: Serialize>(name: &str, value: &T) -> Option<PathBuf> {
    if !json_enabled() {
        return None;
    }
    write_json_in(&results_dir(), name, value)
}

/// Writes `value` as `<dir>/<name>.json`, creating `dir` if needed.
fn write_json_in<T: Serialize>(dir: &Path, name: &str, value: &T) -> Option<PathBuf> {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("BFLY_JSON: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(body) => match std::fs::write(&path, body) {
            Ok(()) => {
                eprintln!("BFLY_JSON: wrote {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("BFLY_JSON: cannot write {}: {e}", path.display());
                None
            }
        },
        Err(e) => {
            eprintln!("BFLY_JSON: serialisation failed: {e}");
            None
        }
    }
}

/// Writes a committed benchmark result — `BENCH_<name>.json` in the
/// current directory (the repo root under `cargo run`) — unless this is a
/// smoke run, in which case the checked-in file is left untouched and a
/// note says so. Full-run serialization or I/O failure is fatal: a bench
/// run whose numbers cannot be recorded did not happen.
pub fn write_bench_json<T: Serialize>(name: &str, value: &T, smoke: bool) {
    let file = format!("BENCH_{name}.json");
    if smoke {
        println!("smoke run: {file} left untouched");
        return;
    }
    let body = serde_json::to_string_pretty(value).expect("bench output must serialize");
    std::fs::write(&file, body).unwrap_or_else(|e| panic!("cannot write {file}: {e}"));
    println!("wrote {file}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[derive(Serialize)]
    struct Row {
        n: usize,
        value: f64,
    }

    #[test]
    fn disabled_by_default() {
        assert!(!enabled(None), "unset means off");
        assert!(!enabled(Some("0")));
        assert!(!enabled(Some("true")), "only an exact 1 turns output on");
        assert!(enabled(Some("1")));
    }

    #[test]
    fn smoke_runs_never_touch_committed_results() {
        write_bench_json("unit-test-smoke", &Row { n: 1, value: 2.0 }, true);
        assert!(!std::path::Path::new("BENCH_unit-test-smoke.json").exists());
    }

    #[test]
    fn writes_when_enabled() {
        let dir = std::env::temp_dir().join(format!("bfly-json-test-{}", std::process::id()));
        let path = write_json_in(&dir, "unit-test-write", &vec![Row { n: 1, value: 2.0 }])
            .expect("should write");
        assert_eq!(path, dir.join("unit-test-write.json"));
        let body = std::fs::read_to_string(&path).expect("readable");
        assert!(body.contains("\"n\": 1"));
        std::fs::remove_dir_all(dir).ok();
    }
}
