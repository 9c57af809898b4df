//! Where the bench harnesses put their `BENCH_*.json` records.

use std::path::Path;

/// Publishes a bench harness's JSON record: prints it to stdout and, on
/// a full run only, writes it to `BENCH_<name>.json` at the workspace
/// root. Smoke and quick runs (`full == false`) only print, so a
/// shrunken workload never overwrites the committed full-run record.
///
/// # Errors
///
/// Fails when the record file cannot be written.
pub fn publish_bench_json(name: &str, json: &str, full: bool) -> Result<(), String> {
    println!("{}", json.trim_end());
    if !full {
        eprintln!("bench {name}: smoke run, BENCH_{name}.json left untouched");
        return Ok(());
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("esh-core sits two levels below the workspace root");
    let path = root.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("bench {name}: wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_only_print() {
        let name = "never-written-by-smoke";
        assert_eq!(publish_bench_json(name, "{}\n", false), Ok(()));
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
        assert!(!root.unwrap().join(format!("BENCH_{name}.json")).exists());
    }
}
