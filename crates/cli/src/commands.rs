//! Command execution.

use crate::args::{parse_column, ClientOp, Command, CommonOptions, QueryFormat};
use lineagex_baseline::metrics::{graph_contribute_edges, score_edges};
use lineagex_baseline::SqlLineageLike;
use lineagex_catalog::Catalog;
use lineagex_core::{
    Diagnostic, EdgeKind, ExplainPathExtractor, ExtractOptions, GraphStats, InferenceEngine,
    LineageError, LineageResult, LineageView, QueryDict, QueryReport, ReportV2, SourceColumn,
};
use lineagex_engine::{BatchSnapshot, Engine, EngineOptions};
use lineagex_serve::proto::{QueryParams, Request, PROTOCOL_VERSION};
use lineagex_serve::{Client, ServeOptions, Server};
use lineagex_viz::{
    subgraph_to_dot, subgraph_to_mermaid, to_dot, to_html, to_mermaid, to_output_json,
};
use std::io::{BufRead, Write};

type CmdResult = Result<(), String>;

/// Execute a parsed command, writing human-readable output to `out`.
pub fn execute(command: &Command, out: &mut dyn Write) -> CmdResult {
    match command {
        Command::Extract {
            file,
            json,
            json_v1,
            dot,
            html,
            mermaid,
            diagnostics_json,
            timings,
            save_snapshot,
            common,
        } => {
            let started = std::time::Instant::now();
            let sql = read_file(file)?;
            let (result, snapshot) = extract_log(&sql, common, save_snapshot.is_some())?;
            // The report computes the stats while it renders (on a second
            // thread when there is one), and the summary reads them there.
            // It renders straight into its file, so the document is never
            // held whole; a write error is reported where the file is
            // named below.
            let report = ReportV2::from_graph(&result.graph, &result.diagnostics);
            let written = json
                .as_ref()
                .map(|path| write_json(path, |file| serde_json::to_writer_pretty(file, &report)));
            if *timings {
                // Stderr so piped stdout artifacts stay clean.
                eprintln!(
                    "{}",
                    timings_summary(started.elapsed(), &lineagex_obs::registry().snapshot())
                );
            }
            summarize(&result, report.stats(), file, &sql, out)?;
            if let Some(path) = diagnostics_json {
                let diagnostics: Vec<Diagnostic> = collect_diagnostics(&result)
                    .into_iter()
                    .map(|d| d.with_excerpt_from(&sql))
                    .collect();
                write_json(path, |file| {
                    serde_json::to_writer_pretty(&mut *file, &diagnostics)?;
                    Ok(file.write_all(b"\n")?)
                })?;
                wln(out, &format!("wrote {path}"))?;
            }
            if let (Some(path), Some(written)) = (json, written) {
                // The versioned v2 document: graph + per-query lineage +
                // run diagnostics + stats, deterministic across backends.
                written?;
                wln(out, &format!("wrote {path}"))?;
            }
            if let Some(path) = json_v1 {
                write_file(path, &to_output_json(&result.graph))?;
                wln(out, &format!("wrote {path}"))?;
            }
            if let Some(path) = dot {
                write_file(path, &to_dot(&result.graph))?;
                wln(out, &format!("wrote {path}"))?;
            }
            if let Some(path) = html {
                write_file(path, &to_html(&result.graph))?;
                wln(out, &format!("wrote {path}"))?;
            }
            if let Some(path) = mermaid {
                write_file(path, &to_mermaid(&result.graph))?;
                wln(out, &format!("wrote {path}"))?;
            }
            if let (Some(path), Some(snapshot)) = (save_snapshot, snapshot) {
                snapshot
                    .save(&result, std::path::Path::new(path))
                    .map_err(|e| format!("cannot write snapshot {path}: {e}"))?;
                wln(out, &format!("wrote {path}"))?;
            }
            if common.trace {
                for (id, trace) in &result.traces {
                    wln(out, &format!("\ntrace of {id}:\n{trace}"))?;
                }
            }
            Ok(())
        }
        Command::Query {
            origins,
            file,
            upstream,
            depth,
            edge_kinds,
            table_level,
            to,
            format,
            common,
        } => {
            let (mut result, sql) = run_extraction(file, common)?;
            // One front door: the CLI speaks GraphQuery over the
            // LineageView trait, like any other application.
            let mut query = result.query();
            for origin in origins {
                query = query.from(origin);
            }
            query = if *upstream { query.upstream() } else { query.downstream() };
            if let Some(depth) = depth {
                query = query.max_depth(*depth);
            }
            for kind in edge_kinds {
                query = query.edge_kind(match kind.as_str() {
                    "contribute" => EdgeKind::Contribute,
                    "reference" => EdgeKind::Reference,
                    _ => EdgeKind::Both,
                });
            }
            if *table_level {
                query = query.table_level();
            }
            if let Some((table, column)) = to {
                query = query.to(table, column);
            }
            let answer = query.run().map_err(|e| e.to_string())?;
            // A lenient run's degraded lineage must never present the
            // cone as authoritative: partial relations and run
            // diagnostics travel with every format that can carry them.
            let partial: Vec<&str> = answer
                .relations
                .iter()
                .filter(|r| result.graph.queries.get(&r.name).is_some_and(|q| q.partial))
                .map(|r| r.name.as_str())
                .collect();
            match format {
                QueryFormat::Json => wln(
                    out,
                    &QueryReport::from_answer(&answer)
                        .with_context(&result.graph, &result.diagnostics)
                        .to_json(),
                ),
                QueryFormat::JsonV1 => wln(out, &to_output_json(&result.graph)),
                QueryFormat::Dot => wln(out, &subgraph_to_dot(&answer.subgraph)),
                QueryFormat::Mermaid => wln(out, &subgraph_to_mermaid(&answer.subgraph)),
                QueryFormat::Text => {
                    let origins: Vec<String> = answer
                        .origins
                        .iter()
                        .map(|o| if o.column.is_empty() { o.table.clone() } else { o.to_string() })
                        .collect();
                    wln(
                        out,
                        &format!(
                            "{} of {}: {} column(s), {} relation(s)",
                            answer.direction.as_str(),
                            origins.join(", "),
                            answer.columns.len(),
                            answer.relations.len(),
                        ),
                    )?;
                    for m in &answer.columns {
                        wln(out, &format!("  {} ({:?}, {} hop(s))", m.column, m.kind, m.distance))?;
                    }
                    if *table_level {
                        for r in &answer.relations {
                            wln(out, &format!("  {} ({} hop(s))", r.name, r.distance))?;
                        }
                    }
                    match (&answer.path, to) {
                        (Some(path), _) => {
                            wln(out, "shortest path:")?;
                            for step in path {
                                wln(out, &format!("  -> {} ({:?})", step.column, step.kind))?;
                            }
                        }
                        (None, Some((table, column))) => {
                            wln(out, &format!("target {table}.{column} is not reachable"))?;
                        }
                        (None, None) => {}
                    }
                    if !partial.is_empty() {
                        wln(out, &format!("partial lineage   : {partial:?}"))?;
                    }
                    let diagnostics = collect_diagnostics(&result);
                    if !diagnostics.is_empty() {
                        wln(out, &format!("diagnostics       : {}", diagnostics.len()))?;
                        for diagnostic in &diagnostics {
                            wln(out, &diagnostic.render(file, &sql))?;
                        }
                    }
                    Ok(())
                }
            }
        }
        Command::Impact { column, file, common } => {
            let (result, _) = run_extraction(file, common)?;
            let origin = SourceColumn::new(&column.0, &column.1);
            if !result.graph.has_column(&origin) {
                return Err(format!("column {origin} does not exist in the lineage graph"));
            }
            let report = result.impact_of(&origin.table, &origin.column);
            wln(out, &format!("impact of {origin}: {} column(s)", report.impacted().len()))?;
            for (table, cols) in report.by_table() {
                let rendered: Vec<String> = cols
                    .iter()
                    .map(|c| format!("{} ({:?}, {} hop(s))", c.column.column, c.kind, c.distance))
                    .collect();
                wln(out, &format!("  {table}: {}", rendered.join(", ")))?;
            }
            Ok(())
        }
        Command::Path { from, to, file, common } => {
            let (mut result, _) = run_extraction(file, common)?;
            let from = SourceColumn::new(&from.0, &from.1);
            let to = SourceColumn::new(&to.0, &to.1);
            for column in [&from, &to] {
                if !result.graph.has_column(column) {
                    return Err(format!("column {column} does not exist in the lineage graph"));
                }
            }
            let answer = result
                .query()
                .from_column(&from.table, &from.column)
                .downstream()
                .to(&to.table, &to.column)
                .run()
                .map_err(|e| e.to_string())?;
            match answer.path {
                Some(path) => {
                    wln(out, &format!("{from}"))?;
                    for step in path {
                        wln(out, &format!("  -> {} ({:?})", step.column, step.kind))?;
                    }
                    Ok(())
                }
                None => Err(format!("{to} is not downstream of {from}")),
            }
        }
        Command::Explain { file, common } => {
            // Connected mode: names resolve against the `--ddl` catalog and
            // the log's own DDL like the database's EXPLAIN, on the
            // create-views-first stack. It is strict, so a statement that
            // does not parse fails the run even under `--lenient`.
            let sql = read_file(file)?;
            let catalog = ddl_catalog(common)?.expect("validated by parser");
            let dict = QueryDict::from_sql_dialect(&sql, false, extract_options(common).dialect)
                .map_err(|e| e.to_string())?;
            let result =
                ExplainPathExtractor::new(dict, catalog).run().map_err(|e| e.to_string())?;
            wln(out, &format!("stack deferrals   : {:?}", result.deferrals))?;
            for id in &result.graph.order {
                wln(out, &format!("\ntrace of {id}:\n{}", result.traces[id]))?;
            }
            Ok(())
        }
        Command::Session { common } => {
            let stdin = std::io::stdin();
            run_session(&mut stdin.lock(), out, common)
        }
        Command::Serve { addr, verbose, slow_ms, load_snapshot, common } => {
            let options = ServeOptions {
                engine: EngineOptions {
                    jobs: common.jobs.max(1),
                    extract: extract_options(common),
                },
                catalog: ddl_catalog(common)?,
                verbose: *verbose,
                slow_ms: slow_ms.unwrap_or(lineagex_serve::DEFAULT_SLOW_MS),
                snapshot_path: load_snapshot.as_ref().map(std::path::PathBuf::from),
                dialect_pinned: common.dialect.is_some(),
            };
            let server =
                Server::start(addr, options).map_err(|e| format!("cannot serve on {addr}: {e}"))?;
            wln(
                out,
                &format!(
                    "lineagex serving on {} (protocol schema_version {PROTOCOL_VERSION})",
                    server.local_addr()
                ),
            )?;
            wln(out, "stop with: lineagex client <addr> shutdown")?;
            out.flush().map_err(|e| e.to_string())?;
            server.wait();
            wln(out, "server stopped")
        }
        Command::Client { addr, op, pretty } => {
            let mut client =
                Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            let request = match op {
                ClientOp::Ping => Request::Ping,
                ClientOp::Report => Request::Report,
                ClientOp::Stats => Request::Stats,
                ClientOp::Diagnostics => Request::Diagnostics,
                ClientOp::Refresh => Request::Refresh,
                ClientOp::Metrics => Request::Metrics,
                ClientOp::Shutdown => Request::Shutdown,
                ClientOp::Ingest { file, dialect } => {
                    // SQL written for one grammar must not be fed to a
                    // session pinned to another: check before sending.
                    if let Some(expected) = dialect {
                        let server = client.server_dialect().map_err(|e| e.to_string())?;
                        if server != expected.name() {
                            return Err(format!(
                                "server session speaks dialect {server:?} but the script was \
                                 written for {:?}; restart the server with --dialect {} or drop \
                                 the client-side check",
                                expected.name(),
                                expected.name()
                            ));
                        }
                    }
                    Request::Ingest { sql: read_file(file)? }
                }
                ClientOp::Drop { names } => Request::Drop { names: names.clone() },
                ClientOp::Query { origins, upstream, depth, edge_kind, table_level, to } => {
                    Request::Query(QueryParams {
                        origins: origins.clone(),
                        upstream: *upstream,
                        depth: *depth,
                        edge_kind: edge_kind.as_deref().map(|kind| match kind {
                            "contribute" => EdgeKind::Contribute,
                            "reference" => EdgeKind::Reference,
                            _ => EdgeKind::Both,
                        }),
                        table_level: *table_level,
                        to: to.as_ref().map(|(table, column)| format!("{table}.{column}")),
                    })
                }
            };
            let reply = client.request(&request).map_err(|e| e.to_string())?;
            if *pretty {
                wln(out, &serde_json::to_string_pretty(&reply.value).map_err(|e| e.to_string())?)?;
            } else {
                wln(out, &reply.line)?;
            }
            if reply.ok() {
                Ok(())
            } else {
                Err(format!(
                    "server rejected the request ({})",
                    reply.error_code().unwrap_or_else(|| "unknown error".into())
                ))
            }
        }
        Command::Compare { file, common } => {
            let sql = read_file(file)?;
            let (ours, _) = extract_log(&sql, common, false)?;
            let ours_edges = graph_contribute_edges(&ours.graph);
            let baseline = SqlLineageLike::new().extract(&sql).map_err(|e| e.to_string())?;
            let base_edges = graph_contribute_edges(&baseline);
            // Without independent ground truth, report mutual agreement:
            // edges only we find, only the baseline finds, and shared.
            let shared = ours_edges.intersection(&base_edges).count();
            wln(out, "contribute-edge comparison (LineageX vs SQLLineage-like):")?;
            wln(out, &format!("  LineageX edges : {}", ours_edges.len()))?;
            wln(out, &format!("  baseline edges : {}", base_edges.len()))?;
            wln(out, &format!("  shared         : {shared}"))?;
            let agreement = score_edges(&base_edges, &ours_edges);
            wln(
                out,
                &format!(
                    "  baseline vs LineageX-as-reference: precision {:.1}% recall {:.1}%",
                    100.0 * agreement.precision(),
                    100.0 * agreement.recall()
                ),
            )?;
            for edge in ours_edges.difference(&base_edges).take(10) {
                wln(out, &format!("  only LineageX: {} -> {}", edge.0, edge.1))?;
            }
            for edge in base_edges.difference(&ours_edges).take(10) {
                wln(out, &format!("  only baseline: {} -> {}", edge.0, edge.1))?;
            }
            Ok(())
        }
    }
}

fn run_extraction(file: &str, common: &CommonOptions) -> Result<(LineageResult, String), String> {
    let sql = read_file(file)?;
    let (result, _) = extract_log(&sql, common, false)?;
    Ok((result, sql))
}

/// All of a run's diagnostics in reading order: run-level first (parse
/// errors, skips, duplicates), then per-query extraction diagnostics in
/// processing order.
fn collect_diagnostics(result: &LineageResult) -> Vec<Diagnostic> {
    let mut out = result.diagnostics.clone();
    for id in &result.graph.order {
        if let Some(q) = result.graph.queries.get(id) {
            out.extend(q.diagnostics.iter().cloned());
        }
    }
    out
}

/// Extract a one-shot log. The options, the `--ddl` catalog and the
/// log's Query Dictionary are built here, once, and the dictionary alone
/// applies the one-shot rules (`DROP` skipped, strict duplicates
/// rejected, lenient last definition wins, noise skipped). The
/// auto-inference stack extracts it, one stack per connected component
/// on `--jobs` threads (default: the available parallelism). With
/// `snapshot` (`--save-snapshot`) the dictionary's half of the session
/// snapshot is captured before the run consumes the dictionary.
fn extract_log(
    sql: &str,
    common: &CommonOptions,
    snapshot: bool,
) -> Result<(LineageResult, Option<BatchSnapshot>), String> {
    let options = extract_options(common);
    let catalog = ddl_catalog(common)?.unwrap_or_default();
    let dict = QueryDict::from_sql_dialect(sql, options.lenient, options.dialect)
        .map_err(|e| e.to_string())?;
    let snapshot = snapshot.then(|| BatchSnapshot::capture(&dict, &catalog, options.dialect));
    let mut run = InferenceEngine::over(dict, &catalog, options);
    if common.jobs > 0 {
        run = run.jobs(common.jobs);
    }
    Ok((run.run().map_err(|e| e.to_string())?, snapshot))
}

/// The extraction options the shared flags select.
fn extract_options(common: &CommonOptions) -> ExtractOptions {
    ExtractOptions {
        ambiguity: common.ambiguity,
        trace: common.trace,
        auto_inference: !common.no_auto_inference,
        lenient: common.lenient,
        dialect: common.dialect.unwrap_or_default(),
    }
}

/// The `--ddl` catalog, when the flag is given. Every command words a
/// schema that does not parse like `LineageX::with_ddl`: a parse error.
fn ddl_catalog(common: &CommonOptions) -> Result<Option<Catalog>, String> {
    let Some(path) = &common.ddl else {
        return Ok(None);
    };
    let catalog = Catalog::from_ddl(&read_file(path)?)
        .map_err(|e| LineageError::Parse(e.to_string()).to_string())?;
    Ok(Some(catalog))
}

/// An engine over `catalog` with the options the shared flags select.
fn build_engine(common: &CommonOptions, catalog: Catalog) -> Engine {
    Engine::with_options(EngineOptions {
        jobs: common.jobs.max(1),
        extract: extract_options(common),
    })
    .with_catalog(catalog)
}

/// The interactive session loop: SQL statements (terminated by `;`) are
/// ingested into a long-lived [`Engine`]; lines starting with `\` are
/// meta commands answered from the current graph. Ingest and extraction
/// errors are reported but never end the session.
pub fn run_session(
    input: &mut dyn BufRead,
    out: &mut dyn Write,
    common: &CommonOptions,
) -> CmdResult {
    let mut engine = build_engine(common, ddl_catalog(common)?.unwrap_or_default());
    wln(out, "lineagex session — statements end with ';', meta commands with \\ (try \\help)")?;
    let mut buffer = String::new();
    let mut line = String::new();
    loop {
        line.clear();
        if input.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            break;
        }
        let trimmed = line.trim();
        if buffer.trim().is_empty() && trimmed.starts_with('\\') {
            if !session_meta(&mut engine, trimmed, out)? {
                return Ok(());
            }
            continue;
        }
        buffer.push_str(&line);
        if trimmed.ends_with(';') {
            session_ingest(&mut engine, &buffer, out)?;
            buffer.clear();
        }
    }
    if !buffer.trim().is_empty() {
        session_ingest(&mut engine, &buffer, out)?;
    }
    Ok(())
}

/// Ingest one buffered script, reporting receipts (with their rendered
/// diagnostics) and re-extraction work.
fn session_ingest(engine: &mut Engine, sql: &str, out: &mut dyn Write) -> CmdResult {
    match engine.ingest(sql) {
        Err(error) => wln(out, &format!("error: {error}")),
        Ok(receipts) => {
            // Receipt diagnostics carry spans into the ingest buffer;
            // render them against it caret-style.
            for receipt in &receipts {
                wln(out, &format!("  {receipt}"))?;
                for diagnostic in &receipt.diagnostics {
                    for line in diagnostic.render("stdin", sql).lines() {
                        wln(out, &format!("    {line}"))?;
                    }
                }
            }
            match engine.refresh() {
                Ok(0) => Ok(()),
                Ok(n) => {
                    wln(out, &format!("  re-extracted {n} quer{}", plural_y(n)))?;
                    // Surface only the *fresh* extraction diagnostics —
                    // what this refresh (re-)extracted — not the whole
                    // session's accumulated history.
                    let fresh = engine.last_refresh_ids().to_vec();
                    let graph = engine.graph().map_err(|e| e.to_string())?;
                    let mut rendered = Vec::new();
                    for id in &fresh {
                        if let Some(q) = graph.queries.get(id) {
                            for diagnostic in &q.diagnostics {
                                rendered.push(diagnostic.to_string());
                            }
                        }
                    }
                    for line in rendered {
                        wln(out, &format!("    {line}"))?;
                    }
                    Ok(())
                }
                Err(error) => wln(out, &format!("error: {error} (entry stays pending)")),
            }
        }
    }
}

/// Execute one `\` meta command; returns `false` on `\q`.
fn session_meta(engine: &mut Engine, command: &str, out: &mut dyn Write) -> Result<bool, String> {
    let mut parts = command.split_whitespace();
    let head = parts.next().unwrap_or(command);
    let arg = parts.next();
    match (head, arg) {
        ("\\q", _) | ("\\quit", _) => return Ok(false),
        ("\\help", _) => {
            wln(out, "  \\graph            summary of the settled lineage graph")?;
            wln(out, "  \\tables           relations with their columns")?;
            wln(out, "  \\lineage t.c      full lineage of one output column")?;
            wln(out, "  \\impact t.c       transitive downstream impact of one column")?;
            wln(out, "  \\stats            session counters")?;
            wln(out, "  \\q                quit")?;
        }
        ("\\stats", _) => {
            let stats = engine.stats().clone();
            wln(out, &format!("  statements ingested : {}", stats.statements))?;
            wln(
                out,
                &format!(
                    "  diagnostics         : {} live, {} parse failure(s)",
                    stats.diagnostics, stats.parse_failures
                ),
            )?;
            wln(
                out,
                &format!(
                    "  entries             : {} defined, {} redefined, {} unchanged, {} dropped",
                    stats.defined, stats.redefinitions, stats.unchanged, stats.drops
                ),
            )?;
            wln(
                out,
                &format!(
                    "  extractions         : {} total, {} in last refresh",
                    stats.extractions, stats.last_refresh_extractions
                ),
            )?;
        }
        ("\\graph", _) => match engine.graph() {
            Ok(graph) => {
                wln(out, &format!("  relations : {}", graph.nodes.len()))?;
                wln(out, &format!("  queries   : {}", graph.queries.len()))?;
                wln(out, &format!("  columns   : {}", graph.column_count()))?;
                wln(out, &format!("  edges     : {}", graph.stats().edge_count()))?;
            }
            Err(error) => wln(out, &format!("error: {error}"))?,
        },
        ("\\tables", _) => match engine.graph() {
            Ok(graph) => {
                for node in graph.nodes.values() {
                    wln(
                        out,
                        &format!("  {} ({:?}): {}", node.name, node.kind, node.columns.join(", ")),
                    )?;
                }
            }
            Err(error) => wln(out, &format!("error: {error}"))?,
        },
        ("\\lineage", Some(spec)) => {
            let (table, column) = parse_column(spec)?;
            match engine.lineage_of(&table, &column) {
                Ok(Some(sources)) => {
                    let rendered: Vec<String> = sources.iter().map(|s| s.to_string()).collect();
                    wln(out, &format!("  {table}.{column} <- {}", rendered.join(", ")))?;
                }
                Ok(None) => wln(out, &format!("  no lineage recorded for {table}.{column}"))?,
                Err(error) => wln(out, &format!("error: {error}"))?,
            }
        }
        ("\\impact", Some(spec)) => {
            let (table, column) = parse_column(spec)?;
            match engine.impact_of(&table, &column) {
                Ok(report) => {
                    wln(
                        out,
                        &format!(
                            "  impact of {table}.{column}: {} column(s)",
                            report.impacted().len()
                        ),
                    )?;
                    for (table, cols) in report.by_table() {
                        let rendered: Vec<String> =
                            cols.iter().map(|c| c.column.column.clone()).collect();
                        wln(out, &format!("    {table}: {}", rendered.join(", ")))?;
                    }
                }
                Err(error) => wln(out, &format!("error: {error}"))?,
            }
        }
        _ => wln(out, &format!("  unknown command {command:?} (try \\help)"))?,
    }
    Ok(true)
}

fn plural_y(n: usize) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}

fn summarize(
    result: &LineageResult,
    stats: &GraphStats,
    file: &str,
    sql: &str,
    out: &mut dyn Write,
) -> CmdResult {
    wln(out, &format!("queries processed : {}", result.graph.queries.len()))?;
    wln(out, &format!("processing order  : {:?}", result.graph.order))?;
    if !result.deferrals.is_empty() {
        wln(out, &format!("stack deferrals   : {:?}", result.deferrals))?;
    }
    wln(out, &format!("relations in graph: {}", result.graph.nodes.len()))?;
    wln(out, &format!("column nodes      : {}", result.graph.column_count()))?;
    wln(out, &format!("column edges      : {}", stats.edge_count()))?;
    let partial: Vec<&str> = result
        .graph
        .order
        .iter()
        .filter(|id| result.graph.queries.get(*id).is_some_and(|q| q.partial))
        .map(String::as_str)
        .collect();
    if !partial.is_empty() {
        wln(out, &format!("partial lineage   : {partial:?}"))?;
    }
    let diagnostics = collect_diagnostics(result);
    wln(out, &format!("diagnostics       : {}", diagnostics.len()))?;
    for diagnostic in &diagnostics {
        wln(out, &diagnostic.render(file, sql))?;
    }
    Ok(())
}

/// The `extract --timings` stderr summary: total wall time plus every
/// batch-pipeline (`core.`) and query histogram that recorded something:
/// the dictionary build, inference, its component count and the report
/// render. `--save-snapshot` writes from the same batch run.
fn timings_summary(total: std::time::Duration, snapshot: &lineagex_obs::MetricsSnapshot) -> String {
    let mut out = format!("[timings] total: {:.1} ms", total.as_secs_f64() * 1e3);
    for (name, h) in &snapshot.histograms {
        let relevant = ["core.", "query."].iter().any(|layer| name.starts_with(layer));
        if !relevant || h.count == 0 {
            continue;
        }
        let unit = if name.ends_with("_us") { "us" } else { "" };
        out.push_str(&format!(
            "\n[timings] {name}: count={} p50={}{unit} p99={}{unit} max={}{unit}",
            h.count, h.p50, h.p99, h.max
        ));
    }
    out
}

fn wln(out: &mut dyn Write, line: &str) -> CmdResult {
    writeln!(out, "{line}").map_err(|e| e.to_string())
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn write_file(path: &str, content: &str) -> CmdResult {
    std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Create `path` and let `write` stream a JSON document into it.
fn write_json(
    path: &str,
    write: impl FnOnce(&mut std::fs::File) -> Result<(), serde_json::Error>,
) -> CmdResult {
    let file = std::fs::File::create(path).map_err(serde_json::Error::from);
    file.and_then(|mut file| write(&mut file)).map_err(|e| format!("cannot write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Command;
    use lineagex_core::DialectKind;

    /// Write `content` to `name` in the tests' temp directory. Tests that
    /// run in parallel rewrite shared inputs while others read them, so
    /// each write goes to a sibling file of its own and is renamed into
    /// place: a reader sees the old file or the new one, never a
    /// truncated one.
    fn write_temp(name: &str, content: &str) -> String {
        static WRITES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let dir = std::env::temp_dir().join("lineagex_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let n = WRITES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let staged = dir.join(format!("{name}.{}.{n}.tmp", std::process::id()));
        std::fs::write(&staged, content).unwrap();
        std::fs::rename(&staged, &path).unwrap();
        path.to_string_lossy().into_owned()
    }

    const LOG: &str = "
        CREATE TABLE web (cid int, page text, reg boolean);
        CREATE VIEW v AS SELECT page AS p FROM web WHERE reg;
    ";

    fn execute_to_string(command: &Command) -> (CmdResult, String) {
        let mut out = Vec::new();
        let result = execute(command, &mut out);
        (result, String::from_utf8(out).unwrap())
    }

    #[test]
    fn extract_summarizes() {
        let file = write_temp("extract.sql", LOG);
        let cmd = Command::parse(&["extract".to_string(), file]).unwrap();
        let (result, text) = execute_to_string(&cmd);
        result.unwrap();
        assert!(text.contains("queries processed : 1"), "{text}");
        assert!(text.contains("column edges"), "{text}");
    }

    #[test]
    fn extract_summary_counts_every_column_edge() {
        use lineagex_datasets::{example1, generator, GeneratorConfig};
        let generated =
            generator::generate(&GeneratorConfig { views: 40, ..GeneratorConfig::seeded(11) });
        for (name, sql) in [
            ("edges_example1.sql", example1::full_log()),
            ("edges_generated.sql", generated.full_sql()),
        ] {
            let expected = lineagex_core::lineagex(&sql).unwrap().graph.all_edges().len();
            let cmd = Command::parse(&["extract".to_string(), write_temp(name, &sql)]).unwrap();
            let (result, text) = execute_to_string(&cmd);
            result.unwrap();
            assert!(text.contains(&format!("column edges      : {expected}\n")), "{name}: {text}");
        }
    }

    #[test]
    fn extract_writes_artifacts() {
        let file = write_temp("artifacts.sql", LOG);
        let json = write_temp("artifacts.json", "");
        let cmd =
            Command::parse(&["extract".to_string(), file, "--json".to_string(), json.clone()])
                .unwrap();
        execute_to_string(&cmd).0.unwrap();
        let written = std::fs::read_to_string(&json).unwrap();
        assert!(written.contains("\"queries\""));
    }

    #[test]
    fn extract_json_into_a_missing_directory_fails_cleanly() {
        let file = write_temp("unwritable.sql", LOG);
        let missing = std::env::temp_dir().join("lineagex_cli_tests/no/such/dir");
        for flag in ["--json", "--diagnostics-json"] {
            let path = missing.join("out.json").to_string_lossy().into_owned();
            let argv: Vec<String> =
                ["extract", &file, flag, &path].iter().map(|s| s.to_string()).collect();
            let mut out = Vec::new();
            assert_eq!(crate::run(&argv, &mut out), 1, "{flag}");
            let out = String::from_utf8(out).unwrap();
            assert!(out.contains(&format!("error: cannot write {path}: ")), "{flag}: {out}");
            // The summary is printed before the error.
            assert!(out.contains("queries processed : 1"), "{flag}: {out}");
        }
    }

    const CHAIN: &str = "
        CREATE TABLE web (cid int, page text, reg boolean);
        CREATE VIEW v AS SELECT page AS p FROM web WHERE reg;
        CREATE VIEW w AS SELECT p AS q FROM v;
    ";

    #[test]
    fn query_text_reports_cone() {
        let file = write_temp("query.sql", CHAIN);
        let cmd =
            Command::parse(&["query".to_string(), "web.page".to_string(), file.clone()]).unwrap();
        let (result, text) = execute_to_string(&cmd);
        result.unwrap();
        assert!(text.contains("downstream of web.page: 2 column(s)"), "{text}");
        assert!(text.contains("v.p (Contribute, 1 hop(s))"), "{text}");
        assert!(text.contains("w.q (Contribute, 2 hop(s))"), "{text}");
        // Depth limit cuts the cone; upstream walks the other way.
        let cmd = Command::parse(&[
            "query".to_string(),
            "web.page".to_string(),
            file.clone(),
            "--depth".to_string(),
            "1".to_string(),
        ])
        .unwrap();
        let (_, text) = execute_to_string(&cmd);
        assert!(text.contains("1 column(s)"), "{text}");
        let cmd = Command::parse(&[
            "query".to_string(),
            "w.q".to_string(),
            file,
            "--direction".to_string(),
            "up".to_string(),
        ])
        .unwrap();
        let (_, text) = execute_to_string(&cmd);
        assert!(text.contains("upstream of w.q"), "{text}");
        assert!(text.contains("web.page"), "{text}");
    }

    #[test]
    fn query_formats_render_the_cone() {
        let file = write_temp("query_fmt.sql", CHAIN);
        let json = |args: &[&str]| {
            let mut argv = vec!["query".to_string(), "web.page".to_string(), file.clone()];
            argv.extend(args.iter().map(|s| s.to_string()));
            execute_to_string(&Command::parse(&argv).unwrap())
        };
        let (result, text) = json(&["--format", "json"]);
        result.unwrap();
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(value["schema_version"], 2);
        assert_eq!(value["direction"], "downstream");
        assert_eq!(value["columns"][0]["column"], "v.p");
        let (_, dot) = json(&["--format", "dot"]);
        assert!(dot.contains("digraph lineage"), "{dot}");
        assert!(!dot.contains("cid"), "the cone excludes untouched columns: {dot}");
        let (_, mmd) = json(&["--format", "mermaid"]);
        assert!(mmd.contains("flowchart LR"), "{mmd}");
        let (_, v1) = json(&["--format", "json-v1"]);
        let value: serde_json::Value = serde_json::from_str(&v1).unwrap();
        assert!(value["processing_order"].is_array(), "{v1}");
    }

    #[test]
    fn query_path_and_table_level() {
        let file = write_temp("query_path.sql", CHAIN);
        let cmd = Command::parse(&[
            "query".to_string(),
            "web.page".to_string(),
            file.clone(),
            "--to".to_string(),
            "w.q".to_string(),
        ])
        .unwrap();
        let (_, text) = execute_to_string(&cmd);
        assert!(text.contains("shortest path:"), "{text}");
        assert!(text.contains("-> w.q (Contribute)"), "{text}");
        let cmd = Command::parse(&[
            "query".to_string(),
            "web".to_string(),
            file,
            "--table-level".to_string(),
        ])
        .unwrap();
        let (_, text) = execute_to_string(&cmd);
        assert!(text.contains("web (0 hop(s))"), "{text}");
        assert!(text.contains("w (2 hop(s))"), "{text}");
    }

    #[test]
    fn lenient_query_surfaces_diagnostics_and_partial_lineage() {
        let file = write_temp("query_lenient.sql", messy_log());
        let cmd = Command::parse(&[
            "query".to_string(),
            "web.page".to_string(),
            file.clone(),
            "--lenient".to_string(),
        ])
        .unwrap();
        let (result, text) = execute_to_string(&cmd);
        result.unwrap();
        // The messy log's parse error and duplicate id must be visible,
        // not silently dropped behind a confident-looking cone.
        assert!(text.contains("diagnostics       :"), "{text}");
        assert!(text.contains("parse-error"), "{text}");
        // And the JSON envelope embeds the same context.
        let cmd = Command::parse(&[
            "query".to_string(),
            "web.page".to_string(),
            file,
            "--lenient".to_string(),
            "--format".to_string(),
            "json".to_string(),
        ])
        .unwrap();
        let (result, json) = execute_to_string(&cmd);
        result.unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(!value["diagnostics"].as_array().unwrap().is_empty(), "{json}");
        assert!(value["partial_relations"].is_array(), "{json}");
    }

    /// A lenient log exercising every one-shot rule: a redefinition, a
    /// byte-identical duplicate, a `DROP`, a `DELETE` and an `EXPLAIN`.
    const ONE_SHOT_RULES: &str = "
        CREATE TABLE web (cid int, page text, reg boolean);
        CREATE VIEW v AS SELECT page AS p FROM web WHERE reg;
        CREATE VIEW w AS SELECT p FROM v;
        CREATE VIEW v AS SELECT cid AS p FROM web;
        CREATE VIEW w AS SELECT p FROM v;
        DROP VIEW w;
        DELETE FROM web WHERE reg;
        EXPLAIN SELECT * FROM v;
        SELECT p FROM w;
    ";

    /// A dependency cycle entered at `c`, not at its alphabetically first
    /// member: the stack closes it at `b`.
    const CYCLE: &str = "CREATE TABLE t (x int); CREATE VIEW c AS SELECT x FROM a; \
                         CREATE VIEW b AS SELECT x FROM c; CREATE VIEW a AS SELECT x FROM b; \
                         CREATE VIEW z AS SELECT x FROM a;";

    /// A view scanning a later one: under `--no-auto-inference` the later
    /// view is an unknown external to it, as in log order.
    const ABLATION: &str = "CREATE TABLE t (x int, y int); \
                            CREATE VIEW top AS SELECT x FROM mid; \
                            CREATE VIEW mid AS SELECT x, y FROM t WHERE y > 0;";

    /// A view that scans an unknown external and a later view: its
    /// deferred attempt gives the external back, so the retry reports it.
    const DEFERRED_EXTERNAL: &str =
        "CREATE VIEW b AS SELECT w.page, a.x FROM web w JOIN a ON w.cid = a.x; \
         CREATE VIEW a AS SELECT 1 AS x;";

    /// Two views in two components that scan one unknown external: the
    /// first in log order reports it, on every path.
    const SHARED_EXTERNAL: &str =
        "CREATE VIEW v1 AS SELECT page FROM web; CREATE VIEW v2 AS SELECT page FROM web;";

    /// A view whose `QUALIFY` subquery scans a later view: the partition
    /// must see the dependency, or its component fails to extract.
    const QUALIFY_DEPENDENCY: &str = "CREATE TABLE t (x int); \
        CREATE VIEW a AS SELECT x FROM t QUALIFY x IN (SELECT y FROM b); \
        CREATE VIEW b AS SELECT 1 AS y;";

    /// Two strict cycles in two components, the later-ingested one in the
    /// component with the smaller member.
    const TWO_CYCLES: &str = "CREATE VIEW y1 AS SELECT x FROM y2; CREATE VIEW y2 AS SELECT x FROM y1; \
                              CREATE VIEW a1 AS SELECT x FROM a2; CREATE VIEW a2 AS SELECT x FROM a1;";

    /// A cycle met after its component's first root extracted, behind a
    /// cycle in another component whose first root comes later.
    const LATE_CYCLE: &str = "CREATE VIEW a0 AS SELECT 1 AS x; \
                              CREATE VIEW y1 AS SELECT x FROM y2; CREATE VIEW y2 AS SELECT x FROM y1; \
                              CREATE VIEW a3 AS SELECT a0.x FROM a0 JOIN a4 ON a0.x = a4.x; \
                              CREATE VIEW a4 AS SELECT x FROM a3;";

    /// The `--jobs` parity inputs, each with the origin to query: the
    /// messy-log corpus and every dialect corpus under its own dialect,
    /// strict and lenient, the one-shot-rules log and the cycle log,
    /// lenient, the ablation log under `--no-auto-inference`, the
    /// deferred-external log, the shared-external log and the
    /// `QUALIFY`-dependency log.
    fn parity_inputs() -> Vec<(String, Vec<String>, &'static str)> {
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
        let mut logs = vec![(format!("{corpus}/messy_log.sql"), vec![], "web")];
        for dialect in DialectKind::ALL {
            let file = format!("{corpus}/dialects/{}.sql", dialect.name());
            logs.push((
                file,
                vec!["--dialect".to_string(), dialect.name().to_string()],
                "customers",
            ));
        }
        let mut inputs = Vec::new();
        for (file, flags, origin) in logs {
            let lenient = [flags.clone(), vec!["--lenient".to_string()]].concat();
            inputs.push((file.clone(), flags, origin));
            inputs.push((file, lenient, origin));
        }
        let rules = write_temp("parity_one_shot_rules.sql", ONE_SHOT_RULES);
        inputs.push((rules, vec!["--lenient".to_string()], "web"));
        let cycle = write_temp("parity_cycle.sql", CYCLE);
        inputs.push((cycle, vec!["--lenient".to_string()], "a"));
        let ablation = write_temp("parity_ablation.sql", ABLATION);
        inputs.push((ablation, vec!["--no-auto-inference".to_string()], "t"));
        let deferred = write_temp("parity_deferred_external.sql", DEFERRED_EXTERNAL);
        inputs.push((deferred, vec![], "web"));
        let shared = write_temp("parity_shared_external.sql", SHARED_EXTERNAL);
        inputs.push((shared, vec![], "web"));
        let qualify = write_temp("parity_qualify_dependency.sql", QUALIFY_DEPENDENCY);
        inputs.push((qualify, vec!["--dialect".to_string(), "snowflake".to_string()], "t"));
        inputs
    }

    #[test]
    fn query_json_is_byte_identical_across_jobs() {
        // The acceptance gate: schema_version-2 documents (or the error)
        // from one stack (--jobs 1) and from components on the pool (the
        // default, --jobs 4) are byte-identical on every input.
        let chain = write_temp("query_jobs.sql", CHAIN);
        let inputs = [(chain, Vec::new(), "web.page")].into_iter().chain(parity_inputs());
        for (file, flags, origin) in inputs {
            let run = |jobs: &[&str]| {
                let mut argv = vec![
                    "query".to_string(),
                    origin.to_string(),
                    file.clone(),
                    "--format".to_string(),
                    "json".to_string(),
                ];
                argv.extend(flags.iter().cloned());
                argv.extend(jobs.iter().map(|s| s.to_string()));
                execute_to_string(&Command::parse(&argv).unwrap())
            };
            let default = run(&[]);
            for jobs in ["1", "4"] {
                assert_eq!(run(&["--jobs", jobs]), default, "{file} {flags:?} --jobs {jobs}");
            }
        }
    }

    #[test]
    fn extract_json_v2_is_byte_identical_across_jobs() {
        let chain = write_temp("extract_v2_jobs.sql", CHAIN);
        let inputs = [(chain, Vec::new(), "")].into_iter().chain(parity_inputs());
        for (n, (file, flags, _)) in inputs.enumerate() {
            // The run's result, its --json, --json-v1 and
            // --diagnostics-json bytes, and its processing order and
            // deferral log on stdout. --save-snapshot writes from the same
            // batch run, so it changes none of them.
            let snapshot = write_temp(&format!("v2_jobs_{n}.lxsn"), "");
            let paths =
                [&[][..], &["--jobs", "1"], &["--jobs", "4"], &["--save-snapshot", &snapshot]];
            let run = |path: usize| {
                let json = write_temp(&format!("v2_jobs_{n}_{path}.json"), "");
                let v1 = write_temp(&format!("v2_jobs_{n}_{path}.v1.json"), "");
                let diagnostics = write_temp(&format!("v2_jobs_{n}_{path}.diag.json"), "");
                let mut argv = vec![
                    "extract".to_string(),
                    file.clone(),
                    "--json".to_string(),
                    json.clone(),
                    "--json-v1".to_string(),
                    v1.clone(),
                    "--diagnostics-json".to_string(),
                    diagnostics.clone(),
                ];
                argv.extend(flags.iter().cloned());
                argv.extend(paths[path].iter().map(|s| s.to_string()));
                let (result, stdout) = execute_to_string(&Command::parse(&argv).unwrap());
                let lines: Vec<String> = stdout
                    .lines()
                    .filter(|l| !l.starts_with("wrote ") && !l.starts_with("extracted "))
                    .map(String::from)
                    .collect();
                let read = |path: &str| std::fs::read_to_string(path).unwrap();
                (result, read(&json), read(&v1), read(&diagnostics), lines)
            };
            let default = run(0);
            // Only the strict messy log fails; every other input extracts.
            let extracts = !file.ends_with("messy_log.sql") || flags.contains(&"--lenient".into());
            assert_eq!(default.0.is_ok(), extracts, "{file} {flags:?}: {:?}", default.0);
            for (path, flags_of_path) in paths.iter().enumerate().skip(1) {
                assert_eq!(run(path), default, "{file} {flags:?} {flags_of_path:?}");
            }
            if n == 0 {
                let value: serde_json::Value = serde_json::from_str(&default.1).unwrap();
                assert_eq!(value["schema_version"], 2);
                assert_eq!(value["stats"]["queries"], 2);
            }
        }
    }

    #[test]
    fn extract_writes_v1_artifact_behind_json_v1() {
        let file = write_temp("extract_v1.sql", LOG);
        let v1 = write_temp("extract_v1.json", "");
        let cmd =
            Command::parse(&["extract".to_string(), file, "--json-v1".to_string(), v1.clone()])
                .unwrap();
        execute_to_string(&cmd).0.unwrap();
        let written = std::fs::read_to_string(&v1).unwrap();
        let value: serde_json::Value = serde_json::from_str(&written).unwrap();
        assert!(value["schema_version"].is_null(), "v1 has no version field");
        assert!(value["processing_order"].is_array());
    }

    #[test]
    fn impact_reports_downstream() {
        let file = write_temp("impact.sql", LOG);
        let cmd = Command::parse(&["impact".to_string(), "web.page".to_string(), file]).unwrap();
        let (result, text) = execute_to_string(&cmd);
        result.unwrap();
        assert!(text.contains("v: p"), "{text}");
    }

    #[test]
    fn impact_unknown_column_errors() {
        let file = write_temp("impact_bad.sql", LOG);
        let cmd = Command::parse(&["impact".to_string(), "web.ghost".to_string(), file]).unwrap();
        let (result, _) = execute_to_string(&cmd);
        assert!(result.is_err());
    }

    #[test]
    fn path_prints_hops() {
        let file = write_temp("path.sql", LOG);
        let cmd =
            Command::parse(&["path".to_string(), "web.page".to_string(), "v.p".to_string(), file])
                .unwrap();
        let (result, text) = execute_to_string(&cmd);
        result.unwrap();
        assert!(text.contains("-> v.p"), "{text}");
    }

    #[test]
    fn path_unknown_column_errors() {
        let file = write_temp("path_bad.sql", LOG);
        let path = |from: &str, to: &str| {
            let argv = ["path", from, to, file.as_str()].map(String::from);
            execute_to_string(&Command::parse(&argv).unwrap())
        };
        // An unknown column naming itself must not get an empty path.
        let (result, text) = path("ghost.c", "ghost.c");
        assert!(result.unwrap_err().contains("ghost.c does not exist"), "{text}");
        assert!(text.is_empty(), "{text}");
        assert!(path("web.page", "v.ghost").0.unwrap_err().contains("v.ghost does not exist"));
        assert!(path("web.ghost", "v.p").0.unwrap_err().contains("web.ghost does not exist"));
    }

    /// The `--ddl` of the `explain` tests, the connection's metadata.
    const WEB_DDL: &str = "CREATE TABLE web (cid int, page text);";

    /// `explain <log> --ddl <WEB_DDL> <flags>`; `tag` names the schema
    /// file, one per test.
    fn explain(tag: &str, log: &str, flags: &[&str]) -> (CmdResult, String) {
        let ddl = write_temp(&format!("explain_{tag}_schema.sql"), WEB_DDL);
        let mut argv = vec!["explain".to_string(), log.to_string(), "--ddl".to_string(), ddl];
        argv.extend(flags.iter().map(|f| f.to_string()));
        execute_to_string(&Command::parse(&argv).unwrap())
    }

    #[test]
    fn explain_creates_a_forward_reference_first() {
        let log = write_temp(
            "explain_forward.sql",
            "CREATE VIEW second AS SELECT wcid FROM first;
             CREATE VIEW first AS SELECT cid AS wcid FROM web;",
        );
        let (result, text) = explain("forward", &log, &[]);
        result.unwrap();
        assert!(text.starts_with("stack deferrals   : [(\"second\", \"first\")]\n"), "{text}");
        // Each query's trace, in processing order.
        let first = text.find("trace of first:").expect(&text);
        let second = text.find("trace of second:").expect(&text);
        assert!(first < second, "{text}");
        assert!(text.contains("scan view first"), "{text}");
    }

    #[test]
    fn explain_reads_the_log_ddl() {
        let log = write_temp(
            "explain_log_ddl.sql",
            "CREATE TABLE c (cid int, x int); CREATE TABLE o (cid int, y int);
             CREATE VIEW amb AS SELECT cid FROM c, o;",
        );
        let (result, _) = explain("log_ddl", &log, &[]);
        let error = result.unwrap_err();
        assert!(error.contains("column reference \"cid\" is ambiguous"), "{error}");
        let log = write_temp("explain_unknown.sql", "CREATE VIEW v AS SELECT x FROM nope;");
        let (result, _) = explain("unknown", &log, &[]);
        assert_eq!(result.unwrap_err(), "database error: relation \"nope\" does not exist");
    }

    #[test]
    fn explain_is_strict_under_lenient() {
        let log = write_temp(
            "explain_lenient.sql",
            "CREATE VIEW v AS SELECT cid FROM web; CREATE VIEW broken AS SELEC;",
        );
        let (result, text) = explain("lenient", &log, &["--lenient"]);
        assert!(result.unwrap_err().starts_with("parse error"), "{text}");
        assert!(text.is_empty(), "{text}");
    }

    #[test]
    fn explain_parses_under_the_dialect() {
        let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus/dialects/tsql.sql");
        assert!(explain("ansi", fixture, &[]).0.is_err());
        let (result, text) = explain("tsql", fixture, &["--dialect", "tsql"]);
        result.unwrap();
        assert!(text.contains("trace of "), "{text}");
    }

    #[test]
    fn compare_reports_edge_sets() {
        let file = write_temp("compare.sql", LOG);
        let cmd = Command::parse(&["compare".to_string(), file]).unwrap();
        let (result, text) = execute_to_string(&cmd);
        result.unwrap();
        assert!(text.contains("LineageX edges"), "{text}");
    }

    #[test]
    fn extract_with_jobs_matches_sequential() {
        let file = write_temp("jobs.sql", LOG);
        let sequential =
            Command::parse(&["extract".to_string(), file.clone(), "--jobs".into(), "1".into()])
                .unwrap();
        let parallel =
            Command::parse(&["extract".to_string(), file, "--jobs".to_string(), "4".to_string()])
                .unwrap();
        let (seq_result, seq_text) = execute_to_string(&sequential);
        let (par_result, par_text) = execute_to_string(&parallel);
        seq_result.unwrap();
        par_result.unwrap();
        // The whole summary, processing order included.
        assert_eq!(seq_text, par_text);
    }

    #[test]
    fn extract_with_jobs_keeps_one_shot_log_semantics() {
        // A DROP in the file is skipped with a warning in both modes.
        let file = write_temp("jobs_drop.sql", &format!("{LOG}\nDROP VIEW v;"));
        let sequential =
            Command::parse(&["extract".to_string(), file.clone(), "--jobs".into(), "1".into()])
                .unwrap();
        let parallel =
            Command::parse(&["extract".to_string(), file, "--jobs".to_string(), "4".to_string()])
                .unwrap();
        let (seq_result, seq_text) = execute_to_string(&sequential);
        let (par_result, par_text) = execute_to_string(&parallel);
        seq_result.unwrap();
        par_result.unwrap();
        assert!(seq_text.contains("queries processed : 1"), "{seq_text}");
        assert!(par_text.contains("queries processed : 1"), "{par_text}");
        assert!(seq_text.contains("diagnostics       : 1"), "{seq_text}");
        assert!(par_text.contains("diagnostics       : 1"), "{par_text}");
        // Strict errors read the same on every path: a duplicate query
        // id, a dependency cycle, the first of two cycles in log order,
        // a SQL parse error, and a --ddl file that does not parse.
        let dup =
            write_temp("jobs_dup.sql", "CREATE VIEW v AS SELECT 1; CREATE VIEW v AS SELECT 2;");
        let bad_sql = write_temp("jobs_bad.sql", "CREATE TABLE t (a int);\nSELECT FROM oops;\n");
        let log = write_temp("jobs_log.sql", LOG);
        let bad_ddl = write_temp("jobs_bad_ddl.sql", "CREATE TABLE t (a int;");
        let cycle = write_temp("jobs_cycle.sql", CYCLE);
        let two_cycles = write_temp("jobs_two_cycles.sql", TWO_CYCLES);
        let late_cycle = write_temp("jobs_late_cycle.sql", LATE_CYCLE);
        let snapshot = write_temp("jobs_errors.lxsn", "");
        for (args, expected) in [
            (vec![dup], "duplicate query identifier \"v\""),
            (vec![cycle], "dependency cycle: c -> a -> b -> c"),
            (vec![two_cycles], "dependency cycle: y1 -> y2 -> y1"),
            (vec![late_cycle], "dependency cycle: y1 -> y2 -> y1"),
            (
                vec![bad_sql],
                "parse error: parse error at line 2, column 8: expected identifier, found \
                 reserved keyword FROM",
            ),
            (
                vec![log, "--ddl".to_string(), bad_ddl],
                "parse error: syntax error: parse error at line 1, column 22: expected ), found ;",
            ),
        ] {
            for extra in
                [&[][..], &["--jobs", "1"], &["--jobs", "4"], &["--save-snapshot", &snapshot]]
            {
                let mut argv = vec!["extract".to_string()];
                argv.extend(args.iter().cloned());
                argv.extend(extra.iter().map(|s| s.to_string()));
                let (result, _) = execute_to_string(&Command::parse(&argv).unwrap());
                assert_eq!(result.unwrap_err(), expected, "{argv:?}");
            }
        }
    }

    #[test]
    fn a_ddl_file_that_does_not_parse_reads_the_same_in_every_command() {
        let bad_ddl = write_temp("every_command_bad_ddl.sql", "CREATE TABLE t (a int;");
        let log = write_temp("every_command_log.sql", LOG);
        let expected = "error: parse error: syntax error: parse error at line 1, column 22: \
                        expected ), found ;\n";
        for command in [
            vec!["extract", log.as_str()],
            vec!["extract", log.as_str(), "--jobs", "2"],
            vec!["explain", log.as_str()],
            vec!["session"],
            vec!["serve", "--addr", "127.0.0.1:0"],
        ] {
            let mut argv: Vec<String> = command.iter().map(|s| s.to_string()).collect();
            argv.extend(["--ddl".to_string(), bad_ddl.clone()]);
            let mut out = Vec::new();
            assert_eq!(crate::run(&argv, &mut out), 1, "{argv:?}");
            assert_eq!(String::from_utf8(out).unwrap(), expected, "{argv:?}");
        }
    }

    fn run_session_script(script: &str, common: &CommonOptions) -> String {
        let mut input = std::io::Cursor::new(script.as_bytes().to_vec());
        let mut out = Vec::new();
        run_session(&mut input, &mut out, common).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn session_ingests_and_answers_queries() {
        let text = run_session_script(
            "CREATE TABLE web (cid int, page text, reg boolean);\n\
             CREATE VIEW v AS\n  SELECT page AS p FROM web WHERE reg;\n\
             \\lineage v.p\n\
             \\impact web.page\n\
             \\stats\n\
             \\graph\n\
             \\q\n",
            &CommonOptions::default(),
        );
        assert!(text.contains("#1 schema web"), "{text}");
        assert!(text.contains("#2 defined v"), "{text}");
        assert!(text.contains("re-extracted 1 query"), "{text}");
        assert!(text.contains("v.p <- web.page, web.reg"), "{text}");
        assert!(text.contains("impact of web.page: 1 column(s)"), "{text}");
        assert!(text.contains("statements ingested : 2"), "{text}");
        assert!(text.contains("queries   : 1"), "{text}");
        // web.page contributes to v.p and web.reg is referenced.
        assert!(text.contains("edges     : 2\n"), "{text}");
    }

    #[test]
    fn session_redefinition_reports_cone_and_errors_are_not_fatal() {
        let text = run_session_script(
            "CREATE TABLE t (a int);\n\
             CREATE VIEW v AS SELECT a FROM t;\n\
             CREATE VIEW w AS SELECT a FROM v;\n\
             CREATE VIEW v AS SELECT a + a AS a FROM t;\n\
             NOT EVEN SQL;\n\
             \\tables\n\
             \\nonsense\n",
            &CommonOptions::default(),
        );
        assert!(text.contains("redefined v"), "{text}");
        assert!(text.contains("re-extracted 2 queries"), "{text}");
        assert!(text.contains("error:"), "{text}");
        assert!(text.contains("w (View): a"), "{text}");
        assert!(text.contains("unknown command"), "{text}");
    }

    #[test]
    fn session_respects_ddl_option() {
        let ddl = write_temp("session_schema.sql", "CREATE TABLE web (cid int, page text);");
        let common = CommonOptions { ddl: Some(ddl), ..CommonOptions::default() };
        let text = run_session_script("CREATE VIEW v AS SELECT * FROM web;\n\\tables\n", &common);
        assert!(text.contains("v (View): cid, page"), "{text}");
    }

    fn messy_log() -> &'static str {
        "CREATE TABLE web (cid int, page text);\n\
         SELECT FROM oops;\n\
         CREATE VIEW v AS SELECT page FROM web;\n\
         CREATE VIEW v AS SELECT cid FROM web;\n"
    }

    #[test]
    fn strict_extract_fails_on_messy_log() {
        let file = write_temp("messy_strict.sql", messy_log());
        let cmd = Command::parse(&["extract".to_string(), file]).unwrap();
        let (result, _) = execute_to_string(&cmd);
        assert!(result.is_err());
    }

    #[test]
    fn lenient_extract_renders_caret_diagnostics() {
        let file = write_temp("messy_lenient.sql", messy_log());
        let cmd = Command::parse(&["extract".to_string(), file.clone(), "--lenient".to_string()])
            .unwrap();
        let (result, text) = execute_to_string(&cmd);
        result.unwrap();
        assert!(text.contains("queries processed : 1"), "{text}");
        // The parse error points at its line with a source excerpt.
        assert!(text.contains(&format!("{file}:2:8: error[parse-error]:")), "{text}");
        assert!(text.contains("SELECT FROM oops;"), "{text}");
        assert!(text.lines().any(|l| l.trim_start().starts_with('^')), "{text}");
        // The duplicate resolved last-definition-wins.
        assert!(text.contains("duplicate-query-id"), "{text}");
    }

    #[test]
    fn diagnostics_json_dumps_structured_findings() {
        let file = write_temp("messy_diag.sql", messy_log());
        let diag = write_temp("messy_diag.json", "");
        let cmd = Command::parse(&[
            "extract".to_string(),
            file,
            "--lenient".to_string(),
            "--diagnostics-json".to_string(),
            diag.clone(),
        ])
        .unwrap();
        execute_to_string(&cmd).0.unwrap();
        let written = std::fs::read_to_string(&diag).unwrap();
        assert!(written.contains("\"code\":"), "{written}");
        assert!(written.contains("parse-error"), "{written}");
        assert!(written.contains("\"line\":"), "{written}");
        assert!(written.contains("\"excerpt\":"), "{written}");
    }

    #[test]
    fn lenient_session_survives_corrupt_statements() {
        let common = CommonOptions { lenient: true, ..CommonOptions::default() };
        let text = run_session_script(
            "CREATE TABLE t (a int);\n\
             SELECT FROM nope;\n\
             CREATE VIEW v AS SELECT a FROM t;\n\
             \\stats\n\\q\n",
            &common,
        );
        assert!(text.contains("failed <unparsable>"), "{text}");
        assert!(text.contains("error[parse-error]"), "{text}");
        assert!(text.contains("defined v"), "{text}");
        assert!(text.contains("parse failure(s)"), "{text}");
    }

    #[test]
    fn client_round_trips_against_a_server() {
        let server = Server::start("127.0.0.1:0", ServeOptions::default()).unwrap();
        let addr = server.local_addr().to_string();
        let run = |args: Vec<String>| {
            let mut argv = vec!["client".to_string(), addr.clone()];
            argv.extend(args);
            execute_to_string(&Command::parse(&argv).unwrap())
        };
        // Seed over the wire from a file, like a script would.
        let file = write_temp("client_seed.sql", CHAIN);
        let (result, text) = run(vec!["ingest".into(), file]);
        result.unwrap();
        assert!(text.contains("\"ok\":true"), "{text}");
        assert!(text.contains("\"action\":\"defined\""), "{text}");
        // Query the served snapshot.
        let (result, text) =
            run(vec!["query".into(), "web.page".into(), "--direction".into(), "down".into()]);
        result.unwrap();
        assert!(text.contains("\"column\":\"w.q\""), "{text}");
        // Stats and ping speak the same envelope.
        let (result, text) = run(vec!["stats".into()]);
        result.unwrap();
        assert!(text.contains("\"entries\":2"), "{text}");
        let (result, text) = run(vec!["ping".into()]);
        result.unwrap();
        assert!(text.contains("\"pong\":true"), "{text}");
        // A rejected request prints the line and errors.
        let (result, text) = run(vec!["drop".into(), "w".into()]);
        result.unwrap();
        assert!(text.contains("\"action\":\"dropped\""), "{text}");
        server.shutdown();
    }

    #[test]
    fn client_reports_connection_failure() {
        // A port nothing listens on: bind-then-drop to find a free one.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let cmd = Command::parse(&["client".to_string(), addr, "ping".to_string()]).unwrap();
        let (result, _) = execute_to_string(&cmd);
        assert!(result.unwrap_err().contains("cannot connect"));
    }

    #[test]
    fn timings_summary_lists_populated_histograms_only() {
        use lineagex_obs::{HistogramSummary, MetricsSnapshot};
        use std::collections::BTreeMap;
        let mut histograms = BTreeMap::new();
        histograms.insert(
            "core.dict_us".to_string(),
            HistogramSummary { count: 3, sum: 90, max: 63, p50: 31, p90: 63, p99: 63 },
        );
        histograms.insert(
            "core.infer_us".to_string(),
            HistogramSummary { count: 0, sum: 0, max: 0, p50: 0, p90: 0, p99: 0 },
        );
        for name in ["serve.op.ping_us", "engine.ingest_us"] {
            histograms.insert(
                name.to_string(),
                HistogramSummary { count: 9, sum: 9, max: 1, p50: 1, p90: 1, p99: 1 },
            );
        }
        let snapshot = MetricsSnapshot {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms,
            slow_ops: Vec::new(),
        };
        let text = timings_summary(std::time::Duration::from_millis(12), &snapshot);
        assert!(text.starts_with("[timings] total: 12.0 ms"), "{text}");
        assert!(text.contains("core.dict_us: count=3 p50=31us p99=63us max=63us"), "{text}");
        assert!(!text.contains("infer_us"), "empty histograms are omitted: {text}");
        for layer in ["serve.", "engine."] {
            assert!(!text.contains(layer), "{layer} metrics are not extract timings: {text}");
        }
    }

    #[test]
    fn extract_timings_flag_parses_and_runs() {
        let file = write_temp("timings.sql", LOG);
        let cmd = Command::parse(&["extract".to_string(), file, "--timings".to_string()]).unwrap();
        let (result, text) = execute_to_string(&cmd);
        result.unwrap();
        // The summary goes to stderr; stdout stays the normal report.
        assert!(text.contains("queries processed : 1"), "{text}");
        assert!(!text.contains("[timings]"), "{text}");
        // The batch stages recorded into the registry the summary reads.
        let summary =
            timings_summary(std::time::Duration::ZERO, &lineagex_obs::registry().snapshot());
        assert!(summary.contains("\n[timings] core.infer_us: count="), "{summary}");
    }

    #[test]
    fn client_metrics_and_pretty_round_trip() {
        let server = Server::start("127.0.0.1:0", ServeOptions::default()).unwrap();
        let addr = server.local_addr().to_string();
        let file = write_temp("metrics_seed.sql", CHAIN);
        let cmd = Command::parse(&["client".to_string(), addr.clone(), "ingest".to_string(), file])
            .unwrap();
        execute_to_string(&cmd).0.unwrap();
        let cmd =
            Command::parse(&["client".to_string(), addr.clone(), "metrics".to_string()]).unwrap();
        let (result, text) = execute_to_string(&cmd);
        result.unwrap();
        assert!(text.contains("\"counters\""), "{text}");
        assert!(text.contains("\"serve.requests\""), "{text}");
        // --pretty re-renders the same document with indentation.
        let cmd = Command::parse(&[
            "client".to_string(),
            addr,
            "metrics".to_string(),
            "--pretty".to_string(),
        ])
        .unwrap();
        let (result, text) = execute_to_string(&cmd);
        result.unwrap();
        assert!(text.contains("    \"counters\": {"), "{text}");
        server.shutdown();
    }

    #[test]
    fn extract_respects_the_dialect_flag() {
        let tsql = "CREATE TABLE [raw web] (cid int, page text);\n\
                    CREATE VIEW v AS SELECT TOP 5 page AS p FROM [raw web];\n";
        let file = write_temp("dialect_extract.sql", tsql);
        // Under the default (ANSI-permissive) grammar TOP is a parse error.
        let cmd = Command::parse(&["extract".to_string(), file.clone()]).unwrap();
        assert!(execute_to_string(&cmd).0.is_err());
        // Under --dialect tsql the same file extracts cleanly — on one
        // stack, on the pool and through the engine alike.
        let snapshot = write_temp("dialect_extract.lxsn", "");
        for extra in [vec!["--jobs", "1"], vec!["--jobs", "2"], vec!["--save-snapshot", &snapshot]]
        {
            let extra: Vec<String> = extra.into_iter().map(String::from).collect();
            let mut argv =
                vec!["extract".to_string(), file.clone(), "--dialect".to_string(), "tsql".into()];
            argv.extend(extra);
            let (result, text) = execute_to_string(&Command::parse(&argv).unwrap());
            result.unwrap();
            assert!(text.contains("queries processed : 1"), "{text}");
        }
    }

    #[test]
    fn session_respects_the_dialect_flag() {
        let common =
            CommonOptions { dialect: Some(DialectKind::BigQuery), ..CommonOptions::default() };
        let text = run_session_script(
            "# BigQuery hash comment\n\
             CREATE TABLE `raw web` (cid INT64, page STRING);\n\
             CREATE VIEW v AS SELECT page AS p FROM `raw web`;\n\
             \\lineage v.p\n\\q\n",
            &common,
        );
        assert!(text.contains("defined v"), "{text}");
        assert!(text.contains("v.p <- raw web.page"), "{text}");
    }

    #[test]
    fn client_ingest_checks_the_server_dialect() {
        let server = Server::start("127.0.0.1:0", ServeOptions::default()).unwrap();
        let addr = server.local_addr().to_string();
        let file = write_temp("dialect_client.sql", CHAIN);
        // The server session is pinned to ANSI: a matching check passes...
        let cmd = Command::parse(&[
            "client".to_string(),
            addr.clone(),
            "ingest".to_string(),
            file.clone(),
            "--dialect".to_string(),
            "ansi".to_string(),
        ])
        .unwrap();
        let (result, text) = execute_to_string(&cmd);
        result.unwrap();
        assert!(text.contains("\"ok\":true"), "{text}");
        // ... and a mismatched one refuses before sending any SQL.
        let cmd = Command::parse(&[
            "client".to_string(),
            addr,
            "ingest".to_string(),
            file,
            "--dialect".to_string(),
            "snowflake".to_string(),
        ])
        .unwrap();
        let (result, _) = execute_to_string(&cmd);
        let message = result.unwrap_err();
        assert!(message.contains("\"ansi\""), "{message}");
        assert!(message.contains("\"snowflake\""), "{message}");
        server.shutdown();
    }

    #[test]
    fn serve_adopts_or_rejects_a_snapshot_dialect() {
        // Build a Snowflake-dialect snapshot via extract --save-snapshot.
        let sql = "CREATE TABLE web (cid int, page text);\n\
                   // Snowflake line comment\n\
                   CREATE VIEW v AS SELECT page AS p FROM web QUALIFY 1 = 1;\n";
        let file = write_temp("dialect_snapshot.sql", sql);
        let snap = write_temp("dialect_snapshot.lxsn", "");
        let cmd = Command::parse(&[
            "extract".to_string(),
            file,
            "--dialect".to_string(),
            "snowflake".to_string(),
            "--save-snapshot".to_string(),
            snap.clone(),
        ])
        .unwrap();
        execute_to_string(&cmd).0.unwrap();
        // Unpinned serve adopts the snapshot's dialect.
        let options = ServeOptions {
            snapshot_path: Some(std::path::PathBuf::from(&snap)),
            ..ServeOptions::default()
        };
        let server = Server::start("127.0.0.1:0", options).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert_eq!(client.server_dialect().unwrap(), "snowflake");
        server.shutdown();
        // A conflicting pinned dialect fails startup with a typed error.
        let options = ServeOptions {
            snapshot_path: Some(std::path::PathBuf::from(&snap)),
            engine: EngineOptions {
                extract: ExtractOptions::new().with_dialect(DialectKind::TSql),
                ..EngineOptions::default()
            },
            dialect_pinned: true,
            ..ServeOptions::default()
        };
        let error = match Server::start("127.0.0.1:0", options) {
            Err(error) => error,
            Ok(_) => panic!("a conflicting pinned dialect must fail startup"),
        };
        assert!(error.to_string().contains("snowflake"), "{error}");
        // A matching pinned dialect starts fine.
        let options = ServeOptions {
            snapshot_path: Some(std::path::PathBuf::from(&snap)),
            engine: EngineOptions {
                extract: ExtractOptions::new().with_dialect(DialectKind::Snowflake),
                ..EngineOptions::default()
            },
            dialect_pinned: true,
            ..ServeOptions::default()
        };
        let server = Server::start("127.0.0.1:0", options).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert_eq!(client.server_dialect().unwrap(), "snowflake");
        server.shutdown();
    }

    #[test]
    fn a_saved_snapshot_continues_after_the_log() {
        // Two bare SELECTs, plus noise, a DROP and a parse error that
        // become run diagnostics.
        let sql = "CREATE TABLE web (cid int, page text);\n\
                   BEGIN;\n\
                   SELECT page FROM web;\n\
                   DROP VIEW gone;\n\
                   SELECT FROM oops;\n\
                   SELECT cid FROM web;\n";
        let file = write_temp("snapshot_continues.sql", sql);
        let snap = write_temp("snapshot_continues.lxsn", "");
        let argv = ["extract", &file, "--lenient", "--save-snapshot", &snap].map(String::from);
        execute_to_string(&Command::parse(&argv).unwrap()).0.unwrap();
        let mut engine =
            Engine::load_snapshot(std::path::Path::new(&snap), EngineOptions::default()).unwrap();
        // The restored session diagnostics are the extract's run
        // diagnostics, and the next bare SELECT numbers on after the log.
        let run = lineagex_core::LineageX::new().lenient().run(sql).unwrap();
        assert_eq!(run.diagnostics.len(), 3);
        assert_eq!(engine.diagnostics(), run.diagnostics.as_slice());
        let receipts = engine.ingest("SELECT cid, page FROM web;").unwrap();
        assert_eq!(receipts[0].target, "query_3");
    }

    #[test]
    fn trace_flag_prints_rules() {
        let file = write_temp("trace.sql", LOG);
        let cmd = Command::parse(&["extract".to_string(), file, "--trace".to_string()]).unwrap();
        let (result, text) = execute_to_string(&cmd);
        result.unwrap();
        assert!(text.contains("FROM (Table/View)"), "{text}");
    }
}
