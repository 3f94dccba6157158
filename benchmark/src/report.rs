//! Printing, the machine fingerprint, and the `all`, `repeat`, `compare`
//! and `spec` subcommands.

use crate::spec::{Better, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::Summary;
use crate::workloads::{Budget, Kind};
use crate::{layers, workloads, Opts};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Child, Command, Stdio};

/// Seconds one run measures; `BENCHMARK.json` states the same number.
pub const RUN_SECONDS: u64 = 8;
/// Seconds per run under `--quick`: a smoke pass over every workload.
const QUICK_SECONDS: f64 = 0.5;
/// Untraced runs per workload in `all`: their spread is the noise floor.
const RUNS_PER_WORKLOAD: usize = 3;
/// Where traces and run outputs land (ignored by git).
const OUT_DIR: &str = "benchmark/out";

fn obj<K: Into<String>>(entries: Vec<(K, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn string(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Machine, toolchain and commit a result was measured on.
fn fingerprint(seed: u64, seconds: f64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        ("nproc", Value::UInt(nproc as u64)),
        ("cpu", string(cpu_model())),
        (
            "rustc",
            string(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "git",
            string(
                command_line("git", &["rev-parse", "--short", "HEAD"])
                    .unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("seed", Value::UInt(seed)),
        ("seconds", Value::Float(seconds)),
    ])
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------------
// One run of one workload
// ---------------------------------------------------------------------------

/// Hold a run's metric map against the table it must fill, name for name.
fn check_complete(
    specs: &[MetricSpec],
    values: &BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    for s in specs {
        match values.get(s.name) {
            None => return Err(format!("metric {} was not measured", s.name)),
            Some(v) if !v.is_finite() => return Err(format!("metric {} is {v}", s.name)),
            Some(_) => {}
        }
    }
    match values.keys().find(|k| !specs.iter().any(|s| s.name == **k)) {
        Some(extra) => Err(format!("metric {extra} is not in the benchmark's tables")),
        None => Ok(()),
    }
}

fn metrics_json(specs: &[MetricSpec], values: &BTreeMap<&'static str, f64>) -> Value {
    Value::Map(
        specs
            .iter()
            .map(|s| {
                (
                    s.name.to_string(),
                    obj(vec![
                        ("value", Value::Float(values[s.name])),
                        ("unit", string(s.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

pub fn run_one(opts: &Opts) -> Result<(), String> {
    let name = opts
        .workload
        .as_deref()
        .expect("run_one is called with a workload");
    let kind = Kind::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    println!(
        "# dlacep benchmark: workload {name}, seed {}, {} s, trace {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!(
        "# why: {}",
        crate::spec::workload(name).expect("kind has a spec").why
    );
    println!(
        "# {}",
        serde_json::to_string(&fingerprint(opts.seed, opts.seconds)).expect("serialises")
    );

    let (specs, values, mut detail, attempted, failed, problems) = if opts.trace {
        let pass = layers::run(kind, name, opts.seed, opts.seconds, opts.quick);
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/trace_{name}.json");
        let text = serde_json::to_string(&pass.tracer.to_json()).expect("serialises");
        std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
        println!("# trace written to {path}");
        let detail = vec![("input_hash", string(format!("{:#018x}", pass.input_hash)))];
        (
            PER_LAYER,
            pass.values,
            detail,
            pass.attempted,
            0,
            pass.problems,
        )
    } else {
        let budget = if opts.quick {
            Budget::quick(opts.seconds)
        } else {
            Budget::full(opts.seconds)
        };
        let run = workloads::run(kind, opts.seed, budget);
        if run.op_ms.is_empty() {
            return Err(format!(
                "{name}: no operation completed: {}",
                run.problems.join("; ")
            ));
        }
        let setup = Summary::of(&run.setup_s);
        let op = Summary::of(&run.op_ms);
        let values = BTreeMap::from([
            ("setup_s", setup.median),
            ("events_per_s", run.events_per_s),
            ("op_p50_ms", op.median),
            ("recall", run.recall),
            ("precision", run.precision),
            (
                "ok_share",
                1.0 - run.failed as f64 / run.attempted.max(1) as f64,
            ),
            ("peak_rss_mb", peak_rss_mb()),
        ]);
        let detail = vec![
            ("input_hash", string(format!("{:#018x}", run.input_hash))),
            ("setup_s", setup.to_json()),
            ("op_ms", op.to_json()),
            (
                "notes",
                Value::Map(
                    run.notes
                        .iter()
                        .map(|(k, v)| (k.to_string(), string(v.clone())))
                        .collect(),
                ),
            ),
        ];
        for (k, v) in &run.notes {
            println!("# {k} = {v}");
        }
        println!("# setup_s: {}", describe(&setup));
        println!("# op_ms:   {}", describe(&op));
        (
            END_TO_END,
            values,
            detail,
            run.attempted,
            run.failed,
            run.problems,
        )
    };
    check_complete(specs, &values)?;
    for s in specs {
        println!("{:<34} {:>18.6} {}", s.name, values[s.name], s.unit);
    }
    for p in &problems {
        println!("# PROBLEM: {p}");
    }
    detail.push((
        "problems",
        Value::Seq(problems.iter().map(string).collect()),
    ));
    println!(
        "{}",
        serde_json::to_string(&obj(vec![("detail", obj(detail))])).expect("serialises")
    );
    let result = obj(vec![
        ("correct", Value::Bool(problems.is_empty())),
        ("attempted", Value::UInt(attempted.max(1))),
        ("failed", Value::UInt(failed)),
        ("metrics", metrics_json(specs, &values)),
    ]);
    println!("{}", serde_json::to_string(&result).expect("serialises"));
    if problems.is_empty() {
        Ok(())
    } else {
        Err(format!("{name}: {}", problems.join("; ")))
    }
}

fn describe(s: &Summary) -> String {
    format!(
        "median {:.4} q1 {:.4} q3 {:.4} mad {:.4} min {:.4} max {:.4} n {}",
        s.median, s.q1, s.q3, s.mad, s.min, s.max, s.n
    )
}

// ---------------------------------------------------------------------------
// all: every workload in child processes, untraced then traced
// ---------------------------------------------------------------------------

/// One child run: its `detail` line and its final result line, parsed.
struct ChildRun {
    detail: Value,
    result: Value,
}

/// Start one run of one workload in a child process of this executable.
fn spawn_child(workload: &str, opts: &Opts, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if opts.quick {
        cmd.arg("--quick");
    }
    cmd.spawn().map_err(|e| format!("spawn {workload}: {e}"))
}

/// Wait for a child run and parse the last two lines it printed.
fn collect(workload: &str, child: Child) -> Result<ChildRun, String> {
    let out = child
        .wait_with_output()
        .map_err(|e| format!("wait for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| -> Result<Value, String> {
        serde_json::from_str(line.unwrap_or("")).map_err(|e| {
            format!(
                "{workload} printed no result: {e}\n{}",
                String::from_utf8_lossy(&out.stderr)
            )
        })
    };
    let result = parse(lines.next())?;
    let detail = parse(lines.next())?;
    let detail = get(&detail, "detail")
        .cloned()
        .ok_or("child printed no detail line")?;
    if !out.status.success() {
        let problems =
            get(&detail, "problems").map(|p| serde_json::to_string(p).unwrap_or_default());
        return Err(format!(
            "{workload} failed its checks: {}",
            problems.unwrap_or_default()
        ));
    }
    Ok(ChildRun { detail, result })
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    get(get(get(result, "metrics")?, name)?, "value")?.as_f64()
}

/// Run every workload and return the result document (also written to
/// `--out`, default `benchmark/out/run_seed<seed>.json`).
pub fn run_all(opts: &Opts) -> Result<Value, String> {
    let seconds = if opts.quick {
        QUICK_SECONDS
    } else {
        opts.seconds
    };
    let runs = if opts.quick { 1 } else { RUNS_PER_WORKLOAD };
    let mut workloads_json = Vec::new();
    for w in WORKLOADS {
        eprintln!(
            "[{}] {} untraced run(s) + 1 traced, {} s each",
            w.name, runs, seconds
        );
        // A smoke run's timings are not results, so its traced child runs
        // beside the untraced one; measured runs go one at a time.
        let beside = opts
            .quick
            .then(|| spawn_child(w.name, opts, seconds, true))
            .transpose()?;
        let untraced: Result<Vec<ChildRun>, String> = (0..runs)
            .map(|_| collect(w.name, spawn_child(w.name, opts, seconds, false)?))
            .collect();
        let traced = match beside {
            // Already running: wait for it whatever became of its sibling.
            Some(child) => collect(w.name, child),
            None => untraced
                .as_ref()
                .map_err(String::clone)
                .and_then(|_| collect(w.name, spawn_child(w.name, opts, seconds, true)?)),
        };
        let (untraced, traced) = (untraced?, traced?);
        let last = untraced.last().expect("at least one run");

        let mut e2e = Vec::new();
        for m in END_TO_END {
            let values: Vec<f64> = untraced
                .iter()
                .map(|c| {
                    metric_value(&c.result, m.name).ok_or(format!("{} lacks {}", w.name, m.name))
                })
                .collect::<Result<_, _>>()?;
            let summary = Summary::of(&values);
            let mut entry: Vec<(String, Value)> = vec![
                ("unit".into(), string(m.unit)),
                ("better".into(), string(m.better.as_str())),
                (
                    "bound".into(),
                    Value::Float(m.bound.expect("end-to-end metrics carry a bound")),
                ),
                (
                    "values".into(),
                    Value::Seq(values.iter().map(|v| Value::Float(*v)).collect()),
                ),
            ];
            if let Value::Map(fields) = summary.to_json() {
                entry.extend(fields);
            }
            println!(
                "{:<16} {:<14} {:>16.4} {:<9} spread {:>6.2}% over {} run(s)",
                w.name,
                m.name,
                summary.median,
                m.unit,
                summary.spread() * 100.0,
                runs
            );
            e2e.push((m.name, obj(entry)));
        }
        let mut layers_json = Vec::new();
        for m in PER_LAYER {
            let v = metric_value(&traced.result, m.name)
                .ok_or(format!("{} lacks {}", w.name, m.name))?;
            println!("{:<16} {:<34} {:>16.4} {}", w.name, m.name, v, m.unit);
            layers_json.push((
                m.name,
                obj(vec![("unit", string(m.unit)), ("value", Value::Float(v))]),
            ));
        }
        let pick = |key: &str| get(&last.detail, key).cloned().unwrap_or(Value::Null);
        workloads_json.push((
            w.name,
            obj(vec![
                ("why", string(w.why)),
                ("input_hash", pick("input_hash")),
                (
                    "attempted",
                    get(&last.result, "attempted")
                        .cloned()
                        .unwrap_or(Value::Null),
                ),
                (
                    "failed",
                    get(&last.result, "failed").cloned().unwrap_or(Value::Null),
                ),
                ("end_to_end", obj(e2e)),
                (
                    "timings_of_last_run",
                    obj(vec![("setup_s", pick("setup_s")), ("op_ms", pick("op_ms"))]),
                ),
                ("notes", pick("notes")),
                ("per_layer", obj(layers_json)),
            ]),
        ));
    }
    let mut header = fingerprint(opts.seed, seconds);
    if let Value::Map(h) = &mut header {
        h.push(("runs_per_workload".into(), Value::UInt(runs as u64)));
    }
    let doc = obj(vec![("header", header), ("workloads", obj(workloads_json))]);
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("{OUT_DIR}/run_seed{}.json", opts.seed));
    write_doc(&path, &doc)?;
    Ok(doc)
}

fn write_doc(path: &str, doc: &Value) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(doc).expect("serialises");
    std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
    eprintln!("[written {path}]");
    Ok(())
}

// ---------------------------------------------------------------------------
// compare, repeat
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound: the runs cannot say.
    Unresolved,
}

/// Judge `after` against `before` for one metric: by how much of the
/// `before` median it got worse, held against the bound, unless either
/// side's own spread already exceeds the bound.
fn judge(better: Better, bound: f64, before: (f64, f64), after: (f64, f64)) -> (Verdict, f64) {
    let (a, spread_a) = before;
    let (b, spread_b) = after;
    let worse_by = match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    let verdict = if spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

/// `(median, spread)` of one end-to-end metric of one workload in a
/// result document.
fn doc_metric(doc: &Value, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let m = get(
        get(get(get(doc, "workloads")?, workload)?, "end_to_end")?,
        metric,
    )?;
    let median = get(m, "median")?.as_f64()?;
    let iqr = get(m, "q3")?.as_f64()? - get(m, "q1")?.as_f64()?;
    Some((
        median,
        if median == 0.0 {
            0.0
        } else {
            iqr / median.abs()
        },
    ))
}

/// Print one row per workload and return how many pairings regressed.
fn compare_docs(before: &Value, after: &Value) -> Result<(usize, Value), String> {
    let mut regressed = 0;
    let mut rows = Vec::new();
    for w in WORKLOADS {
        let mut cells = Vec::new();
        let mut row = Vec::new();
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let a = doc_metric(before, w.name, m.name)
                .ok_or(format!("first file lacks {} × {}", w.name, m.name))?;
            let b = doc_metric(after, w.name, m.name)
                .ok_or(format!("second file lacks {} × {}", w.name, m.name))?;
            let (verdict, worse_by) = judge(m.better, bound, a, b);
            regressed += usize::from(verdict == Verdict::Regressed);
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            };
            cells.push(format!("{}={word}({:+.1}%)", m.name, worse_by * 100.0));
            row.push((
                m.name,
                obj(vec![
                    ("verdict", string(word)),
                    ("worse_by", Value::Float(worse_by)),
                    ("bound", Value::Float(bound)),
                    ("before", Value::Float(a.0)),
                    ("after", Value::Float(b.0)),
                    ("spread", Value::Float(a.1.max(b.1))),
                ]),
            ));
        }
        println!("{:<16} {}", w.name, cells.join(" "));
        rows.push((w.name, obj(row)));
    }
    Ok((regressed, obj(rows)))
}

fn read_doc(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn compare(opts: &Opts) -> Result<(), String> {
    let [_, before, after] = opts.positional.as_slice() else {
        return Err("usage: benchmark compare <before.json> <after.json>".into());
    };
    println!(
        "# worse-by share of the first file's median (positive = worse), one row per workload"
    );
    let (regressed, _) = compare_docs(&read_doc(before)?, &read_doc(after)?)?;
    if regressed > 0 {
        return Err(format!(
            "{regressed} workload × metric pairing(s) regressed"
        ));
    }
    Ok(())
}

/// Two full sets of runs of the same code, and whether they agree within
/// the benchmark's own bounds.
pub fn repeat(opts: &Opts) -> Result<(), String> {
    let set = |tag: &str| {
        run_all(&Opts {
            out: Some(format!("{OUT_DIR}/repeat_{tag}_seed{}.json", opts.seed)),
            workload: None,
            positional: Vec::new(),
            ..*opts
        })
    };
    let first = set("a")?;
    let second = set("b")?;
    println!("# second set against the first, one row per workload");
    let (regressed, rows) = compare_docs(&first, &second)?;
    write_doc(&format!("{OUT_DIR}/repeat_seed{}.json", opts.seed), &rows)?;
    if regressed > 0 {
        return Err(format!(
            "two sets of the same code disagree on {regressed} pairing(s)"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// spec: BENCHMARK.json from the tables
// ---------------------------------------------------------------------------

pub fn benchmark_json() -> String {
    let metric = |m: &MetricSpec| {
        let mut e = vec![
            ("name", string(m.name)),
            ("unit", string(m.unit)),
            ("better", string(m.better.as_str())),
        ];
        if let Some(b) = m.bound {
            e.push(("bound", Value::Float(b)));
        }
        obj(e)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let doc = obj(vec![
        (
            "command",
            Value::Seq(command.into_iter().map(string).collect()),
        ),
        ("paths", Value::Seq(vec![string("benchmark")])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", string(w.name)), ("why", string(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Seq(PER_LAYER.iter().map(metric).collect()),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("serialises")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let tight = 0.01;
        // Lower is better: +20% is a regression under a 10% bound, +5% is not.
        assert_eq!(
            judge(Better::Lower, 0.1, (10.0, tight), (12.0, tight)).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Lower, 0.1, (10.0, tight), (10.5, tight)).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.1, (10.0, tight), (5.0, tight)).0,
            Verdict::Ok
        );
        // Higher is better: a drop is the regression.
        assert_eq!(
            judge(Better::Higher, 0.1, (100.0, tight), (80.0, tight)).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Higher, 0.1, (100.0, tight), (120.0, tight)).0,
            Verdict::Ok
        );
        // A spread wider than the bound on either side resolves nothing.
        assert_eq!(
            judge(Better::Lower, 0.1, (10.0, 0.3), (12.0, tight)).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.1, (10.0, tight), (10.0, 0.3)).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn incomplete_or_extra_metrics_are_refused() {
        let mut values: BTreeMap<&'static str, f64> =
            END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
        assert!(check_complete(END_TO_END, &values).is_ok());
        values.insert("made_up", 1.0);
        assert!(check_complete(END_TO_END, &values)
            .unwrap_err()
            .contains("made_up"));
        values.remove("made_up");
        values.remove("recall");
        assert!(check_complete(END_TO_END, &values)
            .unwrap_err()
            .contains("recall"));
        values.insert("recall", f64::NAN);
        assert!(check_complete(END_TO_END, &values).is_err());
    }

    #[test]
    fn spec_output_round_trips_as_json() {
        let doc: Value = serde_json::from_str(&benchmark_json()).unwrap();
        assert_eq!(
            get(&doc, "run_seconds").unwrap().as_u64(),
            Some(RUN_SECONDS)
        );
        assert_eq!(
            get(&doc, "workloads").unwrap().as_seq().unwrap().len(),
            WORKLOADS.len()
        );
    }
}
