//! Shared helpers for the benchmark harness.
//!
//! Each bench target times one layer of the workspace (qsim kernels,
//! protocol rounds, the fault-injecting transport, the TCP fleet, the
//! service), prints a table and writes a `BENCH_*.json` report at the
//! repository root that `bench_compare` diffs against the committed one. The
//! paper's tables are regenerated by `tests/paper_claims.rs`.

use std::path::{Path, PathBuf};

/// Prints a table header followed by a separator line.
pub fn print_header(title: &str, columns: &[&str]) {
    println!("\n=== {title} ===");
    let header: Vec<String> = columns.iter().map(|c| format!("{c:>18}")).collect();
    println!("{}", header.join(" "));
    println!("{}", "-".repeat(19 * columns.len()));
}

/// Prints one row of formatted cells.
pub fn print_row(cells: &[String]) {
    let row: Vec<String> = cells.iter().map(|c| format!("{c:>18}")).collect();
    println!("{}", row.join(" "));
}

/// Formats a float compactly.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

/// One timed micro-benchmark result.
#[derive(Clone, Debug)]
pub struct Timing {
    /// Number of iterations actually executed.
    pub iters: u64,
    /// Nanoseconds per operation (total time / iterations).
    pub ns_per_op: f64,
    /// Operations per second.
    pub ops_per_sec: f64,
}

/// Times a closure with a short warm-up followed by an adaptive measurement
/// window (criterion-free replacement: plain `Instant` timing, enough for the
/// order-of-magnitude comparisons the tables need).
pub fn time_it(mut f: impl FnMut(), min_duration: std::time::Duration) -> Timing {
    use std::time::{Duration, Instant};
    // Calibration doubles the batch size until one batch takes ≥ 200 µs, so
    // the clock reads stay far below the measured work; it doubles as warm-up.
    let mut batch: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        if start.elapsed() >= Duration::from_micros(200) || batch >= 1 << 30 {
            break;
        }
        batch *= 2;
    }
    let mut iters: u64 = 0;
    let start = Instant::now();
    loop {
        for _ in 0..batch {
            f();
        }
        iters += batch;
        if start.elapsed() >= min_duration {
            break;
        }
    }
    let total = start.elapsed();
    let ns_per_op = total.as_nanos() as f64 / iters as f64;
    Timing {
        iters,
        ns_per_op,
        ops_per_sec: 1e9 / ns_per_op,
    }
}

/// Refuses a workspace binary (`dqma-node`, `dqma-server`) that is older
/// than any `.rs` file it is built from under the repository root `root`:
/// the `src/` trees of the library crates and `vendor/rand`, `src/lib.rs`,
/// and the binary's own `src/bin/<name>.rs` (an edit to another binary's
/// file does not relink this one). A stale binary would otherwise fail a
/// bench's bit-identity assert with a misleading message. A missing binary
/// passes; launching it reports that.
pub fn check_binary_fresh(bin: &Path, root: &Path) -> Result<(), String> {
    let mtime = |p: &Path| std::fs::metadata(p).and_then(|m| m.modified()).ok();
    let Some(built) = mtime(bin) else {
        return Ok(());
    };
    let name = bin.file_stem().and_then(|s| s.to_str()).unwrap_or_default();
    let own = format!("src/bin/{name}.rs");
    let sources = [
        "crates/qsim/src",
        "crates/netsim/src",
        "crates/commproto/src",
        "crates/core/src",
        "vendor/rand/src",
        "src/lib.rs",
        &own,
    ];
    let mut stack: Vec<PathBuf> = sources.iter().map(|p| root.join(p)).collect();
    while let Some(path) = stack.pop() {
        if path.is_dir() {
            stack.extend(
                std::fs::read_dir(&path)
                    .into_iter()
                    .flatten()
                    .flatten()
                    .map(|e| e.path()),
            );
        } else if path.extension().is_some_and(|e| e == "rs")
            && mtime(&path).is_some_and(|t| t > built)
        {
            return Err(format!(
                "{} is older than {}; run `cargo build --release` first",
                bin.display(),
                path.display()
            ));
        }
    }
    Ok(())
}

/// Formats a nanoseconds-per-op figure with a readable unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Minimal JSON emission for benchmark reports (no serde in the offline
/// dependency set): a list of objects with string/number fields.
pub struct JsonReport {
    entries: Vec<String>,
}

impl JsonReport {
    /// Creates an empty report.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        JsonReport {
            entries: Vec::new(),
        }
    }

    /// Adds one benchmark record.
    pub fn push(&mut self, fields: &[(&str, JsonValue)]) {
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", v.render()))
            .collect();
        self.entries.push(format!("    {{{}}}", body.join(", ")));
    }

    /// Renders the full report as a JSON document.
    pub fn render(&self, meta: &[(&str, JsonValue)]) -> String {
        let head: Vec<String> = meta
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {}", v.render()))
            .collect();
        let mut out = String::from("{\n");
        for h in &head {
            out.push_str(h);
            out.push_str(",\n");
        }
        out.push_str("  \"benchmarks\": [\n");
        out.push_str(&self.entries.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// A JSON scalar.
pub enum JsonValue {
    /// A string value (escaped minimally; benchmark names are ASCII).
    Str(String),
    /// A float value.
    Num(f64),
    /// An integer value.
    Int(u64),
}

impl JsonValue {
    fn render(&self) -> String {
        match self {
            JsonValue::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
            JsonValue::Num(x) => {
                if x.is_finite() {
                    format!("{x}")
                } else {
                    "null".to_string()
                }
            }
            JsonValue::Int(n) => format!("{n}"),
        }
    }
}

/// Minimal JSON parsing for the cross-PR bench-trajectory tooling
/// (`bench_compare`): just enough of the grammar to read back the reports
/// [`JsonReport`] writes. The implementation lives in [`dqma::service::json`]
/// (the serving layer made it load-bearing for request parsing); this
/// re-export keeps the historical `dqma_bench::json` path working.
pub use dqma::service::json;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binaries_older_than_their_sources_are_refused() {
        use std::fs::File;
        use std::time::{Duration, SystemTime};
        let root = std::env::temp_dir().join(format!("dqma_bench_fresh_{}", std::process::id()));
        let nested = root.join("crates/core/src/service");
        std::fs::create_dir_all(&nested).unwrap();
        std::fs::create_dir_all(root.join("src/bin")).unwrap();
        let t0 = SystemTime::now() - Duration::from_secs(3600);
        let at = |secs: u64| t0 + Duration::from_secs(secs);
        let touch = |p: &Path, t: SystemTime| File::create(p).unwrap().set_modified(t).unwrap();
        let bin = root.join("dqma-node");
        touch(&nested.join("http.rs"), at(0));
        touch(&root.join("src/lib.rs"), at(0));
        // Another binary's source does not relink this one.
        touch(&root.join("src/bin/dqma-cli.rs"), at(120));
        touch(&bin, at(60));
        assert_eq!(check_binary_fresh(&bin, &root), Ok(()));
        // A nested library file edited after the link refuses the binary.
        touch(&nested.join("http.rs"), at(90));
        let err = check_binary_fresh(&bin, &root).unwrap_err();
        assert!(err.contains("dqma-node") && err.contains("cargo build --release"));
        // Relinking accepts it again; then its own source file is checked.
        touch(&bin, at(100));
        assert_eq!(check_binary_fresh(&bin, &root), Ok(()));
        touch(&root.join("src/bin/dqma-node.rs"), at(110));
        assert!(check_binary_fresh(&bin, &root).is_err());
        // A missing binary is left to the launch to report.
        assert_eq!(check_binary_fresh(&root.join("absent"), &root), Ok(()));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn fmt_handles_extremes() {
        assert_eq!(fmt(0.0), "0");
        assert!(fmt(1.5e9).contains('e'));
        assert!(!fmt(12.0).contains('e'));
    }

    #[test]
    fn json_roundtrip_through_report_writer() {
        let mut report = JsonReport::new();
        report.push(&[
            ("name", JsonValue::Str("row_a".to_string())),
            ("speedup_vs_dense", JsonValue::Num(12.5)),
            ("iters", JsonValue::Int(3)),
            ("nan_field", JsonValue::Num(f64::NAN)),
        ]);
        let doc = report.render(&[("suite", JsonValue::Str("t".to_string()))]);
        let parsed = json::parse(&doc).expect("parse back own output");
        assert_eq!(parsed.get("suite").and_then(|v| v.as_str()), Some("t"));
        let rows = parsed
            .get("benchmarks")
            .and_then(|v| v.as_arr())
            .expect("benchmarks array");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("name").and_then(|v| v.as_str()), Some("row_a"));
        assert_eq!(
            rows[0].get("speedup_vs_dense").and_then(|v| v.as_num()),
            Some(12.5)
        );
        assert_eq!(rows[0].get("nan_field"), Some(&json::Parsed::Null));
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let parsed = json::parse(r#"{"a": [1, -2.5e3, true, null], "b": "x\"y"}"#).unwrap();
        let arr = parsed.get("a").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(arr[1].as_num(), Some(-2500.0));
        assert_eq!(arr[2], json::Parsed::Bool(true));
        assert_eq!(parsed.get("b").and_then(|v| v.as_str()), Some("x\"y"));
        assert!(json::parse("{").is_err());
        assert!(json::parse("[1,]").is_err());
    }

    #[test]
    fn json_parser_preserves_utf8_and_surrogate_pairs() {
        // Raw multi-byte UTF-8 must survive byte-for-byte (not be widened
        // into Latin-1 mojibake), and \u surrogate pairs must combine.
        let parsed = json::parse("{\"name\": \"µs_per_op\"}").unwrap();
        assert_eq!(
            parsed.get("name").and_then(|v| v.as_str()),
            Some("µs_per_op")
        );
        let parsed = json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(parsed.as_str(), Some("😀"));
    }
}
