//! `extract-20k` and `extract-rich-5k`: `lineagex extract <log> --json
//! <out>`, each timed extraction in a fresh process.
//!
//! The child process is this binary's `extract-child` mode. Untraced, it
//! runs the `lineagex` command line itself (`lineagex_cli::run`). Traced,
//! it makes the same library calls as that command's one-shot path, one
//! span around each, then three probe calls (lex, parse, stats) that
//! time work those calls do inside the library.

use crate::stats::{mean, median};
use crate::trace::{read_spans, Span, Tracer};
use crate::workload::{self, ShapeCounts};
use crate::{sys, Args, Outcome, SETUP_REPS};
use lineagex_core::{InferenceEngine, QueryDict, ReportV2};
use lineagex_datasets::generator::{generate, generate_scaled, GeneratorConfig};
use lineagex_datasets::groundtruth::GroundTruth;
use lineagex_sqlparse::lexer::Lexer;
use lineagex_sqlparse::{parse_sql_spanned_with, DialectKind};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Fewest timed extractions per run, whatever `--seconds` says.
const MIN_EXTRACTIONS: usize = 3;

/// Fewest of each kind in a traced run.
const MIN_TRACED: usize = 3;

/// How far the traced stages' sum may sit from the untraced median
/// extraction, as a share of it. The rest is process start, file I/O
/// and the command's summary.
pub const STAGE_TOLERANCE: f64 = 0.2;

#[derive(Debug, Clone, Copy)]
pub enum Log {
    /// `generate_scaled`, 100 components of 200 views, dependency order.
    Scaled,
    /// `generator::generate`, 5,000 views, reverse dependency order.
    Rich,
}

/// How a run decides that an extraction's output is right.
enum Expected {
    /// Scaled log: counts implied by the shape, and the same bytes on
    /// every extraction as on the set-up one.
    Shape { counts: ShapeCounts, first: Option<Vec<u8>> },
    /// Rich log: the bytes of an in-process extraction whose graph
    /// matched the generator's ground truth.
    Reference(Vec<u8>),
}

/// One extraction process, as the parent saw it.
struct Extraction {
    ms: f64,
    peak_rss_kib: u64,
    /// Counts and spans a traced child reported.
    counts: Vec<(String, f64)>,
    spans: Vec<Span>,
}

pub fn run(args: &Args, log: Log) -> Result<Outcome, String> {
    let log_path = args.dir.join("log.sql");
    let out_path = args.dir.join("out.json");
    let mut outcome = Outcome::default();

    // Set-up: generate and write the log, then one warm-up extraction
    // (the first process after a pause runs slow on small machines).
    // Repeated; `setup_s` is the median.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut expected = None;
    for _ in 0..reps {
        let started = Instant::now();
        let (sql, truth) = generate_log(args.seed, log);
        std::fs::write(&log_path, &sql).map_err(|e| format!("cannot write the log: {e}"))?;
        extract_once(&log_path, &out_path, None)?;
        setup_s.push(started.elapsed().as_secs_f64());
        // Checks run off the clock: after set-up, between extractions.
        if expected.is_none() {
            expected = Some(match truth {
                Truth::Counts(counts) => Expected::Shape { counts, first: None },
                Truth::Lineage(truth) => {
                    Expected::Reference(rich_reference(&sql, &truth, &mut outcome)?)
                }
            });
        }
        outcome.check(check_output(&out_path, expected.as_mut().expect("set above")));
    }
    let mut expected = expected.expect("at least one set-up");

    let started = Instant::now();
    let mut plain: Vec<Extraction> = Vec::new();
    let mut traced: Vec<Extraction> = Vec::new();
    let spans_path = args.dir.join("spans.jsonl");
    loop {
        let enough = if args.trace {
            plain.len() >= MIN_TRACED && traced.len() >= MIN_TRACED
        } else {
            plain.len() >= MIN_EXTRACTIONS
        };
        if enough && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        // A traced run alternates plain and traced extractions, so both
        // see the same machine state.
        let trace_this = args.trace && traced.len() < plain.len();
        let extraction =
            extract_once(&log_path, &out_path, trace_this.then_some(spans_path.as_path()))?;
        outcome.check(check_output(&out_path, &mut expected));
        if trace_this {
            traced.push(extraction);
        } else {
            plain.push(extraction);
        }
    }

    let ms: Vec<f64> = plain.iter().map(|e| e.ms).collect();
    let rss: Vec<f64> = plain.iter().map(|e| e.peak_rss_kib as f64 / 1024.0).collect();
    println!(
        "{}: {} timed extractions, median {:.1} ms (min {:.1}, max {:.1}); set-up median {:.3} s \
         of {}",
        args.workload,
        ms.len(),
        median(&ms),
        ms.iter().copied().fold(f64::INFINITY, f64::min),
        ms.iter().copied().fold(0.0, f64::max),
        median(&setup_s),
        setup_s.len()
    );
    if args.trace {
        traced_report(args, &traced, median(&ms), &mut outcome)?;
    } else {
        outcome.metric("setup_s", median(&setup_s), setup_s.len());
        outcome.metric("op_median_ms", median(&ms), ms.len());
        outcome.metric("ops_per_s", 1e3 / mean(&ms), ms.len());
        outcome.metric("peak_rss_mb", median(&rss), rss.len());
    }
    Ok(outcome)
}

/// What the generator knows about a log's correct extraction.
enum Truth {
    Counts(ShapeCounts),
    Lineage(GroundTruth),
}

/// The log's SQL and what its extraction must find.
fn generate_log(seed: u64, log: Log) -> (String, Truth) {
    match log {
        Log::Scaled => {
            let config = workload::scale_config(seed, workload::EXTRACT_COMPONENTS);
            (generate_scaled(&config).full_sql(), Truth::Counts(workload::shape_counts(&config)))
        }
        Log::Rich => {
            let generated = generate(&rich_config(seed));
            (generated.full_sql(), Truth::Lineage(generated.ground_truth))
        }
    }
}

fn rich_config(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        views: workload::RICH_VIEWS,
        shuffle_statements: true,
        ..GeneratorConfig::seeded(seed)
    }
}

/// Extract the rich log in-process, check the graph against the
/// generator's ground truth and that the deferral stack fired, and
/// return the document the command must write.
fn rich_reference(
    sql: &str,
    truth: &GroundTruth,
    outcome: &mut Outcome,
) -> Result<Vec<u8>, String> {
    let result = lineagex_core::LineageX::new().run(sql).map_err(|e| e.to_string())?;
    let mismatches = truth.diff(&result.graph);
    outcome.check((!mismatches.is_empty()).then(|| {
        format!("{} ground-truth mismatches, first: {}", mismatches.len(), mismatches[0])
    }));
    outcome.check(result.deferrals.is_empty().then(|| "the deferral stack never fired".into()));
    Ok(ReportV2::from_graph(&result.graph, &result.diagnostics).to_json().into_bytes())
}

fn check_output(out: &Path, expected: &mut Expected) -> Option<String> {
    let bytes = match std::fs::read(out) {
        Ok(bytes) => bytes,
        Err(e) => return Some(format!("cannot read the extraction output: {e}")),
    };
    match expected {
        Expected::Reference(reference) => {
            (bytes != *reference).then(|| "output differs from the checked reference".into())
        }
        Expected::Shape { counts, first } => match first {
            Some(first) => (bytes != *first).then(|| "output bytes changed between runs".into()),
            None => {
                let problem = check_counts(&String::from_utf8_lossy(&bytes), counts);
                *first = Some(bytes);
                problem
            }
        },
    }
}

/// Compare the `stats` block of a report (a document, or a `report`
/// reply line) with the shape's counts.
pub fn check_counts(report: &str, counts: &ShapeCounts) -> Option<String> {
    let Some(body) = stats_object(report) else {
        return Some("the report has no stats block".into());
    };
    let stats: serde_json::Value = match serde_json::from_str(body) {
        Ok(value) => value,
        Err(e) => return Some(format!("unreadable stats block: {e}")),
    };
    let want = [
        ("queries", counts.queries),
        ("relations", counts.relations),
        ("columns", counts.columns),
        ("contribute_edges", counts.contribute_edges),
        ("reference_edges", counts.reference_edges),
        ("both_edges", counts.both_edges),
        ("max_pipeline_depth", counts.max_pipeline_depth),
    ];
    want.iter().find_map(|(key, value)| {
        let got = stats.get(key).and_then(serde_json::Value::as_u64);
        (got != Some(*value as u64)).then(|| format!("stats.{key} is {got:?}, expected {value}"))
    })
}

/// The `{...}` after the report's last `"stats":` key. `stats` is the
/// report's last field, and its values hold no braces inside strings.
fn stats_object(report: &str) -> Option<&str> {
    let at = report.rfind("\"stats\":")?;
    let start = at + report[at..].find('{')?;
    let mut depth = 0usize;
    for (offset, byte) in report[start..].bytes().enumerate() {
        match byte {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&report[start..=start + offset]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Run one extraction process and wait for it.
fn extract_once(log: &Path, out: &Path, spans: Option<&Path>) -> Result<Extraction, String> {
    let _ = std::fs::remove_file(out);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.arg("extract-child").arg(log).arg(out);
    if let Some(spans) = spans {
        command.arg("--spans").arg(spans);
    }
    command.stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::piped());
    let started = Instant::now();
    let output = command.output().map_err(|e| format!("cannot start an extraction: {e}"))?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let stderr = String::from_utf8_lossy(&output.stderr);
    if !output.status.success() {
        return Err(format!("extraction failed ({}): {stderr}", output.status));
    }
    let mut extraction = Extraction { ms, peak_rss_kib: 0, counts: Vec::new(), spans: Vec::new() };
    for line in stderr.lines() {
        if let Some(kib) = line.strip_prefix("peak_rss_kib=") {
            extraction.peak_rss_kib = kib.parse().map_err(|_| format!("bad line {line}"))?;
        } else if let Some((name, value)) =
            line.strip_prefix("count ").and_then(|l| l.split_once('='))
        {
            let value = value.parse().map_err(|_| format!("bad line {line}"))?;
            extraction.counts.push((name.to_string(), value));
        }
    }
    if let Some(spans) = spans {
        extraction.spans = read_spans(spans).map_err(|e| format!("cannot read spans: {e}"))?;
    }
    Ok(extraction)
}

/// Stage spans the untraced command also executes, in order. Their sum
/// is what the batch path accounts for.
const STAGES: [&str; 4] = ["core.dict", "core.infer", "core.report_build", "core.serialize"];

fn traced_report(
    args: &Args,
    traced: &[Extraction],
    plain_median_ms: f64,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let mut tracer = Tracer::new();
    for (i, extraction) in traced.iter().enumerate() {
        let process = tracer.begin("extract.process", i as u64);
        tracer.adopt(process, extraction.spans.clone());
        tracer.end(process);
    }
    let stage = |name: &str| median(&tracer.durations_ms(name));
    let count = |name: &str| {
        median(
            &traced
                .iter()
                .filter_map(|e| e.counts.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect::<Vec<_>>(),
        )
    };
    let stage_sums: Vec<f64> = traced
        .iter()
        .map(|e| e.spans.iter().filter(|s| STAGES.contains(&s.name.as_str())).map(Span::ms).sum())
        .collect();
    let stage_sum = median(&stage_sums);
    let roots: Vec<usize> =
        (0..tracer.spans().len()).filter(|&i| tracer.spans()[i].name == "extract.traced").collect();
    let outside: Vec<f64> = roots.iter().map(|&i| tracer.self_ms(i)).collect();
    let parse = stage("sqlparse.parse");
    let values = [
        ("sqlparse.lex_ms", stage("sqlparse.lex")),
        ("sqlparse.parse_ms", parse),
        ("sqlparse.tokens", count("sqlparse.tokens")),
        ("core.preprocess_ms", stage("core.dict") - parse),
        ("core.infer_ms", stage("core.infer")),
        ("core.deferrals", count("core.deferrals")),
        ("core.stats_ms", stage("core.stats")),
        ("core.report_build_ms", stage("core.report_build")),
        ("core.serialize_ms", stage("core.serialize")),
        ("core.report_bytes", count("core.report_bytes")),
        ("cli.other_ms", plain_median_ms - stage_sum),
    ];
    for (name, value) in values {
        outcome.metric(name, value, traced.len());
    }
    let gap = (plain_median_ms - stage_sum) / plain_median_ms;
    println!(
        "stage sum {stage_sum:.1} ms = parse + preprocess + infer + report build + serialize; \
         untraced median {plain_median_ms:.1} ms; the remainder (cli.other_ms) is {:.1}% \
         (tolerance {:.0}%): {}",
        gap * 100.0,
        STAGE_TOLERANCE * 100.0,
        if gap.abs() <= STAGE_TOLERANCE { "within" } else { "OUTSIDE" }
    );
    println!(
        "inside the traced child but outside every span (its root's self time): median {:.1} ms",
        median(&outside)
    );
    for (name, _) in crate::PER_LAYER.iter().filter(|(n, _)| !values.iter().any(|(v, _)| v == n)) {
        // The engine, query, serve and snapshot layers do no work here.
        outcome.metric(name, 0.0, 0);
    }
    write_trace(args, &tracer)
}

pub fn write_trace(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let dir = crate::work_root().join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    tracer.write_jsonl(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("spans: {} ({} spans)", path.display(), tracer.spans().len());
    Ok(())
}

/// `extract-child <log> <out> [--spans <file>]`: one extraction, then
/// the process's peak resident memory on stderr.
pub fn child(argv: &[String]) -> ExitCode {
    let (log, out) = match argv {
        [log, out, ..] => (log.as_str(), out.as_str()),
        _ => {
            eprintln!("usage: extract-child <log> <out> [--spans <file>]");
            return ExitCode::from(2);
        }
    };
    let result = match argv.get(2..) {
        Some([flag, spans]) if flag == "--spans" => traced_child(log, out, Path::new(spans)),
        Some([]) => {
            let argv: Vec<String> =
                ["extract", log, "--json", out].iter().map(|s| s.to_string()).collect();
            match lineagex_cli::run(&argv, &mut std::io::stdout()) {
                0 => Ok(()),
                code => Err(format!("lineagex extract exited with {code}")),
            }
        }
        _ => Err("unexpected arguments".into()),
    };
    match result.and_then(|()| sys::peak_rss_kib(std::process::id()).map_err(|e| e.to_string())) {
        Ok(kib) => {
            eprintln!("peak_rss_kib={kib}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The one-shot path of `lineagex extract <log> --json <out>` at the
/// default options, with a span around each library call, followed by
/// the probes. The probes run last so the command's own stages see the
/// same heap as an untraced run.
fn traced_child(log: &str, out: &str, spans: &Path) -> Result<(), String> {
    let dialect = DialectKind::Ansi;
    let mut t = Tracer::new();
    let root = t.begin("extract.traced", 0);
    let sql = t.time("cli.read", 0, || std::fs::read_to_string(log)).map_err(|e| e.to_string())?;
    let dict = t.time("core.dict", 0, || QueryDict::from_sql_dialect(&sql, false, dialect));
    let dict = dict.map_err(|e| e.to_string())?;
    let catalog = lineagex_catalog::Catalog::new();
    let options = lineagex_core::ExtractOptions::default();
    let result = t.time("core.infer", 0, || InferenceEngine::over(dict, &catalog, options).run());
    let result = result.map_err(|e| e.to_string())?;
    let report =
        t.time("core.report_build", 0, || ReportV2::from_graph(&result.graph, &result.diagnostics));
    let json = t.time("core.serialize", 0, || report.to_json());
    t.time("cli.write", 0, || std::fs::write(out, &json)).map_err(|e| e.to_string())?;
    // Probes: calls the stages above make inside the library.
    let tokens = t.time("sqlparse.lex", 0, || Lexer::tokenize_with(&sql, dialect));
    let tokens = tokens.map_err(|e| e.to_string())?.len();
    let statements = t.time("sqlparse.parse", 0, || parse_sql_spanned_with(&sql, dialect));
    drop(statements.map_err(|e| e.to_string())?);
    t.time("core.stats", 0, || drop(result.graph.stats()));
    t.end(root);
    eprintln!("count sqlparse.tokens={tokens}");
    eprintln!("count core.deferrals={}", result.deferrals.len());
    eprintln!("count core.report_bytes={}", json.len());
    t.write_jsonl(spans).map_err(|e| e.to_string())
}
