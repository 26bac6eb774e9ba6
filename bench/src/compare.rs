//! Running all four workloads (each in a process of its own) into one
//! `BENCH.json`, and comparing such files: the tool the two-run
//! acceptance check and every later claim use.

use crate::json::{self, Json};
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::{median_f64, quartiles};
use crate::Args;
use std::collections::BTreeMap;
use std::process::Command;

/// Runs every workload `args.runs` times (seeds `seed`, `seed + 1`, …),
/// echoes what each prints, and writes `bench/out/BENCH.json` — or
/// `BENCH-trace.json` for a traced run.
pub fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seconds = if args.smoke && args.seconds == crate::metrics::RUN_SECONDS as f64 {
        1.0
    } else {
        args.seconds
    };
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (workload, _) in WORKLOADS {
        let mut results = Vec::new();
        for run in 0..args.runs.max(1) as u64 {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &(args.seed + run).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let line = stdout.lines().last().unwrap_or("");
            let parsed = json::parse(line)
                .map_err(|e| format!("{workload}: no result line ({e}); exit {}", output.status))?;
            all_correct &= parsed.get("correct") == Some(&Json::Bool(true));
            // `@ name value unit n=N`: the issue's names (see main.rs).
            let named: Vec<String> = stdout
                .lines()
                .filter_map(|l| {
                    let [name, value, unit, n] =
                        l.strip_prefix("@ ")?.split(' ').collect::<Vec<_>>()[..]
                    else {
                        return None;
                    };
                    Some(format!(
                        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\", \"n\": {}}}",
                        n.strip_prefix("n=")?
                    ))
                })
                .collect();
            results.push((
                args.seed + run,
                line.to_string(),
                format!("{{{}}}", named.join(", ")),
            ));
        }
        workloads.push((workload, results));
    }

    let mut out = format!(
        "{{\n  \"schema\": 1,\n  \"trace\": {},\n  \"seconds\": {seconds},\n  \"workloads\": {{\n",
        args.trace as u8
    );
    for (i, (workload, results)) in workloads.iter().enumerate() {
        out.push_str(&format!("    \"{workload}\": [\n"));
        for (k, (seed, line, named)) in results.iter().enumerate() {
            let comma = if k + 1 < results.len() { "," } else { "" };
            out.push_str(&format!(
                "      {{\"seed\": {seed}, \"result\": {line}, \"named\": {named}}}{comma}\n"
            ));
        }
        let comma = if i + 1 < workloads.len() { "," } else { "" };
        out.push_str(&format!("    ]{comma}\n"));
    }
    out.push_str("  }\n}\n");
    let name = if args.trace {
        "BENCH-trace.json"
    } else {
        "BENCH.json"
    };
    let path = crate::bench_dir().join("out").join(name);
    std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

/// `workload → metric → (unit, values over the file's runs)`, plus the
/// attempted and failed counts.
type Runs = BTreeMap<String, BTreeMap<String, (String, Vec<f64>)>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or(format!("{path}: no workloads"))?;
    for (workload, results) in workloads {
        let metrics = runs.entry(workload.clone()).or_default();
        for run in results.as_arr().unwrap_or(&[]) {
            let result = run
                .get("result")
                .ok_or(format!("{path}: run without result"))?;
            for key in ["attempted", "failed"] {
                let n = result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                metrics
                    .entry(format!("ops_{key}"))
                    .or_insert_with(|| ("count".into(), Vec::new()))
                    .1
                    .push(n);
            }
            let values = result.get("metrics").and_then(Json::as_obj);
            for (name, m) in values.into_iter().flatten() {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or(format!("{path}: {workload}.{name} has no value"))?;
                metrics
                    .entry(name.clone())
                    .or_insert_with(|| (unit.to_string(), Vec::new()))
                    .1
                    .push(value);
            }
        }
    }
    Ok(runs)
}

/// `[q1, median, q3]` and the run-to-run spread `(q3 - q1) / median`
/// (unknown from a single run).
fn summary(values: &[f64]) -> ([f64; 3], Option<f64>) {
    match quartiles(values) {
        Some(q) => (q, Some((q[2] - q[0]) / q[1].abs().max(f64::MIN_POSITIVE))),
        None => ([values[0]; 3], None),
    }
}

/// How an end-to-end metric of `candidate` stands against `base`.
pub fn verdict(better: &str, bound: f64, base: &[f64], candidate: &[f64]) -> &'static str {
    let (qa, base_spread) = summary(base);
    let (qb, candidate_spread) = summary(candidate);
    let worse = if better == "lower" {
        (qb[1] - qa[1]) / qa[1]
    } else {
        (qa[1] - qb[1]) / qa[1]
    };
    if base_spread.is_some_and(|s| s > bound) || candidate_spread.is_some_and(|s| s > bound) {
        "unresolved"
    } else if worse > bound {
        "regressed"
    } else {
        "within"
    }
}

/// `compare A.json B.json [more…]`: the first file is the base; every
/// other is compared with it. Per workload × end-to-end metric prints
/// median and quartiles of both sides, their ratio with its base, and
/// a verdict; exact counts (units `count` and `B`) are diffed exactly;
/// other per-layer numbers get a ratio. Succeeds when nothing regressed, nothing is unresolved,
/// no count differs and no op failed.
pub fn run(files: &[String]) -> Result<bool, String> {
    let [base_path, candidates @ ..] = files else {
        return Err("compare needs a base file and at least one more".into());
    };
    if candidates.is_empty() {
        return Err("compare needs a base file and at least one more".into());
    }
    let base = load(base_path)?;
    let mut clean = true;
    for path in candidates {
        let candidate = load(path)?;
        println!("# {path} against base {base_path}");
        for (workload, base_metrics) in &base {
            let Some(metrics) = candidate.get(workload) else {
                println!("{workload}: missing from {path}");
                clean = false;
                continue;
            };
            println!("## {workload}");
            for (name, (unit, a)) in base_metrics {
                let Some((_, b)) = metrics.get(name) else {
                    continue;
                };
                // A layer the workload bypasses: nothing to say unless
                // it stopped being bypassed.
                if a.iter().chain(b).all(|&x| x == 0.0) && name != "ops_failed" {
                    continue;
                }
                let (qa, _) = summary(a);
                let (qb, _) = summary(b);
                let line = format!(
                    "{name:<38} {unit:<6} base {:>14.4} [{:.4}, {:.4}] n={}  new {:>14.4} [{:.4}, {:.4}] n={}",
                    qa[1], qa[0], qa[2], a.len(), qb[1], qb[0], qb[2], b.len()
                );
                if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
                    let v = verdict(m.better, m.bound, a, b);
                    clean &= v == "within";
                    println!(
                        "{line}  ratio {:.4} of base {:.4}  bound {:.0} %  {v}",
                        qb[1] / qa[1],
                        qa[1],
                        m.bound * 100.0
                    );
                } else if name == "ops_failed" {
                    let failed: f64 = a.iter().chain(b).sum();
                    clean &= failed == 0.0;
                    println!(
                        "{line}  {}",
                        if failed == 0.0 {
                            "none failed"
                        } else {
                            "FAILED OPS"
                        }
                    );
                } else if unit == "count" || unit == "B" {
                    let same = a == b;
                    clean &= same;
                    println!("{line}  {}", if same { "same" } else { "DIFFERS" });
                } else if median_f64(a) != 0.0 {
                    println!("{line}  ratio {:.4} of base {:.4}", qb[1] / qa[1], qa[1]);
                } else {
                    println!("{line}");
                }
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 100.0];
        let slower = [120.0, 121.0, 119.0, 120.5, 120.0];
        let noisy = [80.0, 125.0, 100.0, 90.0, 115.0];
        assert_eq!(verdict("lower", 0.10, &steady, &steady), "within");
        assert_eq!(verdict("lower", 0.10, &steady, &slower), "regressed");
        assert_eq!(verdict("lower", 0.25, &steady, &slower), "within");
        // Getting better never regresses.
        assert_eq!(verdict("lower", 0.10, &slower, &steady), "within");
        assert_eq!(verdict("higher", 0.10, &slower, &steady), "regressed");
        // A spread wider than the bound resolves nothing.
        assert_eq!(verdict("lower", 0.10, &steady, &noisy), "unresolved");
        // A single run has no spread: the ratio decides.
        assert_eq!(verdict("lower", 0.10, &[100.0], &[105.0]), "within");
        assert_eq!(verdict("lower", 0.10, &[100.0], &[115.0]), "regressed");
    }
}
