//! The repository benchmark.
//!
//! ```text
//! benchmark --workload <name> [--seed 7] [--seconds 8] [--trace 0|1]   one run of one workload
//! benchmark all     [--seed 7] [--seconds 8] [--quick] [--out <file>]  every workload, both passes
//! benchmark repeat  [--seed 7] [--seconds 8] [--quick]                 two full sets and their spread
//! benchmark compare <a.json> <b.json>                                  apply each metric's bound
//! benchmark spec                                                       print BENCHMARK.json
//! ```
//!
//! A single run prints its metrics by name with units and, as the last line
//! of standard output, one JSON object `{correct, attempted, failed,
//! metrics}`. It exits non-zero when a correctness or validity check fails.

mod gen;
mod layers;
mod report;
mod spec;
mod stats;
mod sut;
mod trace;
mod workloads;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

use std::process::ExitCode;

/// Options shared by the run modes.
pub struct Opts {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: Option<String>,
    pub positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 7,
        seconds: report::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => o.workload = Some(value("--workload")?),
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                o.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => o.quick = true,
            "--out" => o.out = Some(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(a.clone()),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match opts.positional.first().map(String::as_str) {
        None if opts.workload.is_some() => report::run_one(&opts),
        None | Some("all") => report::run_all(&opts).map(|_| ()),
        Some("repeat") => report::repeat(&opts),
        Some("compare") => report::compare(&opts),
        Some("spec") => {
            println!("{}", report::benchmark_json());
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
