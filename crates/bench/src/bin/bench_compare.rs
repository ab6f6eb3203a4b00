//! `bench_compare` — diffs two `BENCH_*.json` reports on their `speedup_*`
//! columns and gates the cross-PR perf trajectory.
//!
//! Usage:
//!
//! ```text
//! bench_compare OLD.json NEW.json [--threshold 0.30] [--gate ROW_NAME]...
//! ```
//!
//! Every benchmark row present in both files has each of its finite
//! `speedup_*` fields compared as `new / old`; the full table is printed.
//! Rows named with `--gate` are **enforced**: the run exits non-zero if any
//! gated speedup column regresses by more than `threshold` (default 30%),
//! or if a gated row or its speedup columns are missing from either file.
//! Speedup columns are same-run ratios: they cancel the host's speed but
//! not its load, and on a shared host their run-to-run spread can exceed
//! the threshold (see ROADMAP.md item 1). Absolute ns/op move with both,
//! so this tool ignores them.

use dqma_bench::json::{self, Parsed};
use std::process::ExitCode;

struct Args {
    old_path: String,
    new_path: String,
    threshold: f64,
    gates: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut threshold = 0.30f64;
    let mut gates = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--threshold" => {
                threshold = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threshold needs a number")?;
            }
            "--gate" => {
                gates.push(argv.next().ok_or("--gate needs a row name")?);
            }
            _ => positional.push(arg),
        }
    }
    if positional.len() != 2 {
        return Err(
            "usage: bench_compare OLD.json NEW.json [--threshold X] [--gate ROW]...".into(),
        );
    }
    Ok(Args {
        old_path: positional.remove(0),
        new_path: positional.remove(0),
        threshold,
        gates,
    })
}

fn load_rows(path: &str) -> Result<Vec<(String, Parsed)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let rows = doc
        .get("benchmarks")
        .and_then(|v| v.as_arr())
        .ok_or_else(|| format!("{path}: no benchmarks array"))?;
    Ok(rows
        .iter()
        .filter_map(|row| {
            row.get("name")
                .and_then(|n| n.as_str())
                .map(|n| (n.to_string(), row.clone()))
        })
        .collect())
}

fn speedup_columns(row: &Parsed) -> Vec<(String, f64)> {
    row.fields()
        .map(|fields| {
            fields
                .iter()
                .filter(|(k, _)| k.starts_with("speedup_"))
                .filter_map(|(k, v)| v.as_num().map(|x| (k.clone(), x)))
                .collect()
        })
        .unwrap_or_default()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (old_rows, new_rows) = match (load_rows(&args.old_path), load_rows(&args.new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "bench_compare: {} -> {} (gate threshold: {:.0}% regression on {} gated row(s))",
        args.old_path,
        args.new_path,
        args.threshold * 100.0,
        args.gates.len()
    );
    println!(
        "{:>28} {:>26} {:>10} {:>10} {:>7} {:>6}",
        "row", "column", "old", "new", "ratio", "gated"
    );

    let mut failures: Vec<String> = Vec::new();
    // Worst regressed gated (row, column, ratio) — the headline of the
    // failure summary, so a red CI run names the offender without anyone
    // diffing the JSONs by hand.
    let mut worst: Option<(String, String, f64)> = None;
    let mut gated_seen: Vec<&String> = Vec::new();
    for (name, new_row) in &new_rows {
        let Some((_, old_row)) = old_rows.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let old_cols = speedup_columns(old_row);
        let new_cols = speedup_columns(new_row);
        let gated = args.gates.iter().any(|g| g == name);
        if gated {
            gated_seen.push(args.gates.iter().find(|g| *g == name).unwrap());
            if old_cols.is_empty() {
                failures.push(format!(
                    "gated row {name}: no speedup columns in old report"
                ));
            }
            // A gated row whose NEW report carries no finite speedup column
            // (baseline timing failed → NaN → null, or a rename) must fail
            // too: zero comparisons is exactly the silent-regression case
            // the gate exists for.
            if new_cols.is_empty() {
                failures.push(format!(
                    "gated row {name}: no finite speedup columns in new report"
                ));
            }
            for (col, _) in &old_cols {
                if !new_cols.iter().any(|(k, _)| k == col) {
                    failures.push(format!(
                        "gated row {name}: column {col} missing or non-finite in new report"
                    ));
                }
            }
        }
        for (col, new_val) in new_cols {
            let Some((_, old_val)) = old_cols.iter().find(|(k, _)| *k == col) else {
                if gated {
                    failures.push(format!(
                        "gated row {name}: column {col} missing in old report"
                    ));
                }
                continue;
            };
            if *old_val <= 0.0 {
                continue;
            }
            let ratio = new_val / old_val;
            println!(
                "{:>28} {:>26} {:>9.2}x {:>9.2}x {:>7.2} {:>6}",
                name,
                col,
                old_val,
                new_val,
                ratio,
                if gated { "yes" } else { "" }
            );
            if gated && ratio < 1.0 - args.threshold {
                failures.push(format!(
                    "gated row {name}: {col} regressed {old_val:.2}x -> {new_val:.2}x \
                     ({:.0}% of baseline, floor {:.0}%)",
                    ratio * 100.0,
                    (1.0 - args.threshold) * 100.0
                ));
                if worst.as_ref().is_none_or(|(_, _, r)| ratio < *r) {
                    worst = Some((name.clone(), col, ratio));
                }
            }
        }
    }
    for gate in &args.gates {
        if !gated_seen.contains(&gate) {
            failures.push(format!("gated row {gate}: missing from one of the reports"));
        }
    }

    if failures.is_empty() {
        println!(
            "bench_compare: OK — no gated speedup column regressed > {:.0}%",
            args.threshold * 100.0
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("bench_compare: FAIL — {f}");
        }
        // Aggregate summary last, so it is the first thing visible at the
        // bottom of a CI log: how many checks failed and which gated row
        // regressed hardest.
        match &worst {
            Some((name, col, ratio)) => eprintln!(
                "bench_compare: {} gate failure(s); worst regression: {name} {col} at {:.0}% \
                 of baseline",
                failures.len(),
                ratio * 100.0
            ),
            None => eprintln!(
                "bench_compare: {} gate failure(s) (missing rows/columns, no measured \
                 regression)",
                failures.len()
            ),
        }
        ExitCode::FAILURE
    }
}
