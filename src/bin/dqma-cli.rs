//! Command-line client for `dqma-server`.
//!
//! ```text
//! dqma-cli submit <addr> --protocol eq_path --r 8 --x 101101 \
//!          --y 101101 --trials 100000 [--seed S] [--deadline-ms D] \
//!          [--reps N] [--cheat interpolate|all_left|all_right] [--wait] \
//!          [--scheme-seed S] [--arms A --arm-len L (eq_tree)]
//! dqma-cli status <addr> <job-id>
//! dqma-cli health <addr>
//! ```
//!
//! Exit codes: `0` success (with `--wait`: job done), `1` transport or
//! server error, `2` usage error or an invalid instance, `3` (with
//! `--wait`) job aborted.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use dqma::service::{client, json, InstanceSpec, JobSpec};

const TIMEOUT: Duration = Duration::from_secs(10);

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dqma-cli: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let usage = "usage: dqma-cli <submit|status|health> <addr> [...]";
    let cmd = argv.first().ok_or(usage)?;
    let addr = argv.get(1).ok_or(usage)?;
    match cmd.as_str() {
        "submit" => submit(addr, &argv[2..]),
        "status" => {
            let id = argv.get(2).ok_or("status needs a job id")?;
            let (code, body) = call(addr, "GET", &format!("/v1/jobs/{id}"), None)?;
            println!("{body}");
            Ok(if code == 200 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "health" => {
            let (code, body) = call(addr, "GET", "/v1/healthz", None)?;
            println!("{body}");
            Ok(if code == 200 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        other => Err(format!("unknown command {other:?}\n{usage}")),
    }
}

fn submit(addr: &str, flags: &[String]) -> Result<ExitCode, String> {
    let mut protocol = "eq_path".to_string();
    let (mut r, mut arms, mut arm_len) = (8u64, 3u64, 1u64);
    let (mut x, mut y) = (String::new(), String::new());
    let (mut scheme_seed, mut reps) = (7u64, 2u64);
    let mut cheat = "interpolate".to_string();
    let (mut trials, mut seed) = (100_000u64, 0u64);
    let mut deadline_ms = None;
    let mut wait = false;

    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut val = |what: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{what} needs a value"))
        };
        match flag.as_str() {
            "--protocol" => protocol = val("--protocol")?.clone(),
            "--r" => r = num(val("--r")?)?,
            "--arms" => arms = num(val("--arms")?)?,
            "--arm-len" => arm_len = num(val("--arm-len")?)?,
            "--x" => x = val("--x")?.clone(),
            "--y" => y = val("--y")?.clone(),
            "--scheme-seed" => scheme_seed = num(val("--scheme-seed")?)?,
            "--reps" => reps = num(val("--reps")?)?,
            "--cheat" => cheat = val("--cheat")?.clone(),
            "--trials" => trials = num(val("--trials")?)?,
            "--seed" => seed = num(val("--seed")?)?,
            "--deadline-ms" => deadline_ms = Some(num(val("--deadline-ms")?)?),
            "--wait" => wait = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if x.is_empty() {
        return Err("submit needs --x <01-string> (and usually --y)".to_string());
    }
    if y.is_empty() {
        y.clone_from(&x);
    }
    // The instance goes through the API's own parser, which checks the
    // protocol and cheat names, the input widths and the caps.
    let n = |v: u64| json::Parsed::Num(v as f64);
    let instance = json::Parsed::Obj(vec![
        ("protocol".into(), json::Parsed::Str(protocol)),
        ("r".into(), n(r)),
        ("arms".into(), n(arms)),
        ("arm_len".into(), n(arm_len)),
        ("bits".into(), n(x.len() as u64)),
        ("x".into(), json::Parsed::Str(x)),
        ("y".into(), json::Parsed::Str(y)),
        ("scheme_seed".into(), n(scheme_seed)),
        ("reps".into(), n(reps)),
        ("cheat".into(), json::Parsed::Str(cheat)),
    ]);
    let spec = JobSpec {
        instance: InstanceSpec::from_json(&instance)?,
        trials,
        seed,
        deadline_ms,
        chaos: None,
    };
    let (code, body) = call(addr, "POST", "/v1/jobs", Some(&spec.to_json()))?;
    println!("{body}");
    if code != 202 {
        return Ok(ExitCode::FAILURE);
    }
    if !wait {
        return Ok(ExitCode::SUCCESS);
    }
    let id = json::parse(&body)
        .ok()
        .and_then(|p| p.get("job").and_then(json::Parsed::as_num))
        .ok_or("server response had no job id")? as u64;
    poll(addr, id)
}

/// Polls a submitted job until it reaches a terminal state.
fn poll(addr: &str, id: u64) -> Result<ExitCode, String> {
    let start = Instant::now();
    loop {
        let (code, body) = call(addr, "GET", &format!("/v1/jobs/{id}"), None)?;
        if code != 200 {
            eprintln!("{body}");
            return Ok(ExitCode::FAILURE);
        }
        let state = json::parse(&body)
            .ok()
            .and_then(|p| p.get("state").and_then(|s| s.as_str().map(String::from)))
            .unwrap_or_default();
        match state.as_str() {
            "done" => {
                println!("{body}");
                return Ok(ExitCode::SUCCESS);
            }
            "aborted" => {
                println!("{body}");
                return Ok(ExitCode::from(3));
            }
            _ => {
                if start.elapsed() > Duration::from_secs(600) {
                    return Err("timed out waiting for job".to_string());
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

fn call(addr: &str, method: &str, path: &str, body: Option<&str>) -> Result<(u16, String), String> {
    client::call(addr, method, path, body, TIMEOUT).map_err(|e| format!("{addr}: {e}"))
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}
