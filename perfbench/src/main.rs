//! The LineageX benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <extract-20k|extract-rich-5k|serve-10k> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable summary, then one JSON line with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! traced run (`--trace 1`). See `README.md` beside this crate.

mod extract;
mod serve;
mod stats;
mod sys;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The end-to-end metrics every `--trace 0` run reports, with units.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("op_median_ms", "ms"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics every `--trace 1` run reports, with units. A
/// layer the workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("sqlparse.lex_ms", "ms"),
    ("sqlparse.parse_ms", "ms"),
    ("sqlparse.tokens", "count"),
    ("core.preprocess_ms", "ms"),
    ("core.infer_ms", "ms"),
    ("core.deferrals", "count"),
    ("core.stats_ms", "ms"),
    ("core.report_build_ms", "ms"),
    ("core.serialize_ms", "ms"),
    ("core.report_bytes", "bytes"),
    ("cli.other_ms", "ms"),
    ("query.run_ms", "ms"),
    ("query.cone_columns", "count"),
    ("core.query_report_ms", "ms"),
    ("serve.encode_query_ms", "ms"),
    ("serve.reply_bytes", "bytes"),
    ("serve.wire_ms", "ms"),
    ("engine.ingest_ms", "ms"),
    ("engine.refresh_ms", "ms"),
    ("engine.dirty_cone", "count"),
    ("core.graph_clone_ms", "ms"),
    ("engine.publish_ms", "ms"),
    ("core.index_build_ms", "ms"),
    ("serve.encode_report_ms", "ms"),
    ("snapshot.load_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("engine.first_publish_ms", "ms"),
];

pub const WORKLOADS: [&str; 3] = ["extract-20k", "extract-rich-5k", "serve-10k"];

/// Set-up repetitions of an end-to-end run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of this run, removed when it ends.
    pub dir: PathBuf,
}

/// What a run found: operation counts, failures and metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first failure messages, for the summary.
    pub problems: Vec<String>,
    /// Name, value, and how many samples the value summarises.
    pub metrics: Vec<(String, f64, usize)>,
}

impl Outcome {
    /// Count one checked operation, failing it with `problem` if set.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            if self.problems.len() < 10 {
                self.problems.push(problem);
            }
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.push((name.to_string(), value, samples));
    }

    /// One summary line per declared metric: value, unit, sample count.
    fn print_metrics(&self, declared: &[(&str, &str)]) {
        for (name, unit) in declared {
            if let Some((_, value, samples)) = self.metrics.iter().find(|(have, ..)| have == name) {
                println!("  {name:<24} {value:>16.4} {unit:<6} n={samples}");
            }
        }
    }

    /// The result line: every declared metric of this mode, in order.
    fn json_line(&self, declared: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::new();
        for (name, unit) in declared {
            let value = self
                .metrics
                .iter()
                .find(|(have, ..)| have == name)
                .map(|(_, value, _)| *value)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            fields.push(format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(",")
        ))
    }
}

/// Where runs keep their scratch files: `work/` beside this crate.
pub fn work_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut iter = argv.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad --seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed: u64 = seed.unwrap_or(29);
    let seconds: f64 = seconds.unwrap_or(15.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let dir = work_root().join(format!("{workload}-{seed}-{}", std::process::id()));
    Ok(Args { workload, seed, seconds, trace: trace.unwrap_or(false), dir })
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.dir)
        .map_err(|e| format!("cannot create {}: {e}", args.dir.display()))?;
    match args.workload.as_str() {
        "extract-20k" => extract::run(args, extract::Log::Scaled),
        "extract-rich-5k" => extract::run(args, extract::Log::Rich),
        _ => serve::run(args),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Child processes the benchmark starts: one extraction, or a server.
    match argv.first().map(String::as_str) {
        Some("extract-child") => return extract::child(&argv[1..]),
        Some("serve-child") => return serve::child(&argv[1..]),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    // Best effort: a run leaves only its trace file behind.
    let _ = std::fs::remove_dir_all(&args.dir);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    for problem in &outcome.problems {
        println!("FAILED: {problem}");
    }
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{} metrics of {} (seed {}):",
        if args.trace { "per-layer" } else { "end-to-end" },
        args.workload,
        args.seed
    );
    outcome.print_metrics(declared);
    match outcome.json_line(declared) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in the repository's `BENCHMARK.json`
    /// must agree name for name and unit for unit.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json: serde_json::Value = serde_json::from_str(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_lists_every_declared_metric() {
        let mut outcome = Outcome::default();
        outcome.check(None);
        outcome.metric("a_ms", 1.25, 4);
        outcome.metric("b", 3.0, 1);
        let line = outcome.json_line(&[("a_ms", "ms"), ("b", "count")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"a_ms\":{\"value\":1.25,\
             \"unit\":\"ms\"},\"b\":{\"value\":3,\"unit\":\"count\"}}}"
        );
        assert!(outcome.json_line(&[("missing", "ms")]).is_err());
        outcome.check(Some("wrong".into()));
        assert!(outcome.json_line(&[("a_ms", "ms")]).unwrap().starts_with("{\"correct\":false"));
    }
}
