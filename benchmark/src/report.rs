//! Whole-benchmark runs: every workload in a process of its own, the
//! `--smoke` check of the output against `/BENCHMARK.json`, and `--agree`,
//! which compares two such documents.

use crate::json::{self, obj, Value};
use crate::workloads::WORKLOADS;
use crate::{Size, EXACT};
use std::path::Path;
use std::process::Command;

const MANIFEST: &str = "BENCHMARK.json";

/// Runs one workload as a child of this executable and returns its detail
/// line with the result line's fields folded in.
fn child(name: &str, seed: u64, seconds: f64, trace: bool, size: Size) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if size == Size::Smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so none outlives this call.
    let out = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let (Some(result), Some(detail)) = (lines.next(), lines.next()) else {
        return Err(format!(
            "{name} (trace {trace}) printed no result, exit {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    };
    let result = json::parse(result).map_err(|e| format!("{name} result line: {e}"))?;
    let detail = json::parse(detail).map_err(|e| format!("{name} detail line: {e}"))?;
    let mut fields = detail.as_obj().to_vec();
    fields.extend(result.as_obj().iter().cloned());
    Ok(Value::Obj(fields))
}

/// Runs every workload, untraced and — with `trace` or `--smoke` — traced,
/// and prints one document. `Ok(true)` when every run was correct and, at
/// smoke size, the output matches the manifest.
pub fn run_all(seed: u64, seconds: f64, trace: bool, size: Size) -> Result<bool, String> {
    let traced_too = trace || size == Size::Smoke;
    let mut workloads = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        eprintln!("benchmark: {} ...", w.name);
        let run = child(w.name, seed, seconds, false, size)?;
        ok &= run.get("correct").and_then(Value::as_bool) == Some(true);
        let mut entry = vec![("run", run)];
        if traced_too {
            let traced = child(w.name, seed, seconds, true, size)?;
            ok &= traced.get("correct").and_then(Value::as_bool) == Some(true);
            entry.push(("traced", traced));
        }
        workloads.push((w.name, obj(entry)));
    }
    let workloads = obj(workloads);
    let mut doc = vec![
        ("benchmark", Value::str("fsoi simulator stack")),
        ("seed", Value::count(seed)),
        ("smoke", Value::Bool(size == Size::Smoke)),
    ];
    if size == Size::Smoke {
        let problems = validate(&workloads, Path::new(MANIFEST))?;
        ok &= problems.is_empty();
        doc.push((
            "manifest_problems",
            Value::Arr(problems.into_iter().map(Value::Str).collect()),
        ));
    }
    doc.push(("correct", Value::Bool(ok)));
    doc.push(("workloads", workloads));
    println!("{}", json::pretty(&obj(doc)));
    Ok(ok)
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Every way the printed metrics differ from the manifest: a declared
/// metric missing or with another unit, an undeclared one printed, a name
/// outside `[A-Za-z0-9_.-]+`, too many names, a workload missing.
fn validate(workloads: &Value, manifest: &Path) -> Result<Vec<String>, String> {
    let manifest = read_json(manifest)?;
    let mut problems = Vec::new();
    let declared = |section: &str| -> Vec<(String, String)> {
        manifest
            .get(section)
            .map(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let sections = [("end_to_end", "run", 16), ("per_layer", "traced", 128)];
    for (section, _, cap) in sections {
        let names = declared(section);
        if names.is_empty() || names.len() > cap {
            problems.push(format!(
                "{section}: {} names, allowed 1..={cap}",
                names.len()
            ));
        }
        for (name, _) in &names {
            if !valid_name(name) {
                problems.push(format!("{section}: bad metric name {name:?}"));
            }
        }
    }
    let listed: Vec<&str> = manifest
        .get("workloads")
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    let ran: Vec<&str> = workloads.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    if listed != ran {
        problems.push(format!("workloads: manifest lists {listed:?}, ran {ran:?}"));
    }
    for (workload, entry) in workloads.as_obj() {
        for (section, run, _) in sections {
            let printed = entry
                .get(run)
                .and_then(|r| r.get("metrics"))
                .map(Value::as_obj)
                .unwrap_or_default();
            let names = declared(section);
            for (name, unit) in &names {
                match printed.iter().find(|(k, _)| k == name) {
                    None => problems.push(format!("{workload}: {name} not printed")),
                    Some((_, v)) => {
                        if v.get("unit").and_then(Value::as_str) != Some(unit) {
                            problems.push(format!("{workload}: {name} unit is not {unit}"));
                        }
                        if v.get("value").and_then(Value::as_f64).is_none() {
                            problems.push(format!("{workload}: {name} has no numeric value"));
                        }
                    }
                }
            }
            for (name, _) in printed {
                if !names.iter().any(|(n, _)| n == name) {
                    problems.push(format!("{workload}: {name} printed but not declared"));
                }
            }
        }
    }
    Ok(problems)
}

/// Compares two documents of the same code: end-to-end medians within the
/// manifest's bounds; `sim_digest`, `paper_err_pct` and the exact counts
/// equal. Prints a table; `Ok(true)` on agreement.
pub fn agree(first: &Path, second: &Path) -> Result<bool, String> {
    let (a, b) = (read_json(first)?, read_json(second)?);
    let manifest = read_json(Path::new(MANIFEST))?;
    let mut ok = true;
    println!(
        "{:<12} {:<28} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "rel diff", "bound"
    );
    let at = |doc: &Value, workload: &str, run: &str| -> Option<Value> {
        doc.get("workloads")?.get(workload)?.get(run).cloned()
    };
    let metric = |run: &Option<Value>, name: &str| -> Option<f64> {
        run.as_ref()?
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    };
    for w in WORKLOADS {
        let (ra, rb) = (at(&a, w.name, "run"), at(&b, w.name, "run"));
        for m in manifest
            .get("end_to_end")
            .map(Value::as_arr)
            .unwrap_or_default()
        {
            let name = m.get("name").and_then(Value::as_str).unwrap_or("");
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let (Some(x), Some(y)) = (metric(&ra, name), metric(&rb, name)) else {
                println!("{:<12} {name:<28} missing", w.name);
                ok = false;
                continue;
            };
            let rel = (y - x).abs() / x.abs().max(f64::MIN_POSITIVE);
            let fine = rel <= bound;
            ok &= fine;
            println!(
                "{:<12} {name:<28} {x:>14.6} {y:>14.6} {:>8.2}% {:>6.0}%  {}",
                w.name,
                100.0 * rel,
                100.0 * bound,
                if fine { "agree" } else { "DISAGREE" }
            );
        }
        let mut exact = |label: &str, x: Option<String>, y: Option<String>| {
            let fine = x.is_some() && x == y;
            ok &= fine;
            println!(
                "{:<12} {label:<28} {:>14} {:>14} {:>9} {:>7}  {}",
                w.name,
                x.unwrap_or_else(|| "missing".into()),
                y.unwrap_or_else(|| "missing".into()),
                "",
                "exact",
                if fine { "agree" } else { "DISAGREE" }
            );
        };
        let text = |run: &Option<Value>, key: &str| -> Option<String> {
            match run.as_ref()?.get(key)? {
                Value::Str(s) => Some(s.clone()),
                Value::Num(n) => Some(n.to_string()),
                _ => None,
            }
        };
        exact(
            "sim_digest",
            text(&ra, "sim_digest"),
            text(&rb, "sim_digest"),
        );
        if ra.as_ref().and_then(|r| r.get("paper_err_pct")).is_some() {
            exact(
                "paper_err_pct",
                text(&ra, "paper_err_pct"),
                text(&rb, "paper_err_pct"),
            );
        }
        let (ta, tb) = (at(&a, w.name, "traced"), at(&b, w.name, "traced"));
        if ta.is_some() || tb.is_some() {
            for name in EXACT {
                exact(
                    name,
                    metric(&ta, name).map(|v| v.to_string()),
                    metric(&tb, name).map(|v| v.to_string()),
                );
            }
        }
    }
    println!(
        "{}",
        if ok {
            "the two runs agree"
        } else {
            "the two runs DISAGREE"
        }
    );
    Ok(ok)
}
