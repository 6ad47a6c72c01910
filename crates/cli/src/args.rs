//! Hand-rolled argument parsing (no external dependencies).

use lineagex_core::{AmbiguityPolicy, DialectKind};

/// The usage banner.
pub const USAGE: &str = "\
usage:
  lineagex extract  <queries.sql> [--ddl <schema.sql>] [--json <out>] [--json-v1 <out>]
                    [--dot <out>] [--html <out>] [--mermaid <out>] [--trace]
                    [--ambiguity all|first|error] [--no-auto-inference] [--jobs <N>]
                    [--lenient] [--diagnostics-json <out>] [--timings]
                    [--save-snapshot <out.lxsn>] [--dialect <name>]
                    (--json emits the versioned schema_version-2 document;
                     --json-v1 keeps the legacy output.json; --timings prints a
                     phase/metrics summary to stderr; --save-snapshot persists
                     the settled session in the binary snapshot format for
                     `serve --load-snapshot`; the auto-inference stack runs
                     once per connected component of the log on --jobs N
                     threads, default the available parallelism, with the
                     same output at every N; --save-snapshot extracts
                     through the engine, with the same --json bytes)
  lineagex query    <origin>[,<origin>...] <queries.sql> [--ddl <schema.sql>]
                    [--direction down|up] [--depth <N>]
                    [--edge-kind contribute|reference|both]... [--table-level]
                    [--to <table.column>] [--format text|json|json-v1|dot|mermaid]
                    [--jobs <N>] [--lenient] [--dialect <name>]
                    (composable GraphQuery: an origin is table.column, or a bare
                     relation name for all of its columns; --jobs as for extract)
  lineagex session  [--ddl <schema.sql>] [--jobs <N>] [--ambiguity all|first|error] [--lenient]
                    [--dialect <name>]
                    (incremental REPL: statements from stdin, \\commands for queries)
  lineagex serve    [--addr <host:port>] [--ddl <schema.sql>] [--jobs <N>]
                    [--ambiguity all|first|error] [--lenient] [--dialect <name>]
                    [--verbose] [--slow-ms <N>] [--load-snapshot <in.lxsn>]
                    (long-lived JSON-lines lineage service; default addr
                     127.0.0.1:7117; stop with `lineagex client <addr> shutdown`;
                     --verbose logs one stderr line per connection/publish/slow
                     request, --slow-ms sets the slow threshold, default 100;
                     --load-snapshot cold-starts from an `extract
                     --save-snapshot` file without re-parsing or re-extracting)
  lineagex client   <host:port> <op> [args] [query flags] [--pretty]
                    (ops: ping | report | stats | diagnostics | metrics | refresh
                     | shutdown | ingest <file.sql> [--dialect <name>]
                     | drop <name>[,<name>...]
                     | query <origin>[,<origin>...] [--direction down|up]
                       [--depth <N>] [--edge-kind contribute|reference|both]
                       [--table-level] [--to <table.column>];
                     prints the server's raw JSON response line, or an indented
                     rendering with --pretty)
  lineagex impact   <table.column> <queries.sql> [--ddl <schema.sql>]
  lineagex path     <from.column> <to.column> <queries.sql> [--ddl <schema.sql>]
  lineagex explain  <queries.sql> --ddl <schema.sql> [--dialect <name>]
                    (connected mode: names resolve against the schema and the
                     log's own DDL like a database's EXPLAIN, views the log
                     defines later are created first; prints the stack
                     deferrals and each query's trace in processing order)
  lineagex compare  <queries.sql> [--ddl <schema.sql>]

  --dialect <name> picks the SQL dialect front end:
  ansi (default) | postgres | snowflake | bigquery | tsql.
  serve --load-snapshot adopts the snapshot's recorded dialect unless
  --dialect pins one (a mismatch then fails startup); client ingest
  --dialect checks the server session's dialect before sending SQL.";

/// Output format of the `query` subcommand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueryFormat {
    /// Human-readable summary (the default).
    #[default]
    Text,
    /// The schema-version-2 query document.
    Json,
    /// The legacy whole-run v1 document (cone slicing is a v2
    /// capability; this renders the full graph).
    JsonV1,
    /// Graphviz DOT of the traversal cone.
    Dot,
    /// Mermaid flowchart of the traversal cone.
    Mermaid,
}

/// Options shared by every subcommand.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommonOptions {
    /// Path to a DDL file providing base-table schemas.
    pub ddl: Option<String>,
    /// Ambiguity policy (default: attribute-all).
    pub ambiguity: AmbiguityPolicy,
    /// Disable the auto-inference stack.
    pub no_auto_inference: bool,
    /// Record traversal traces.
    pub trace: bool,
    /// Worker threads (`--jobs`; 0 when the flag is not given). One-shot
    /// commands run the auto-inference stack once per connected
    /// component of the log on this many threads (0: the available
    /// parallelism; 1: one stack over the whole log), with the same
    /// output at every value; `session`, `serve` and `extract
    /// --save-snapshot` size the engine's refresh pool (0 and 1: the
    /// calling thread).
    pub jobs: usize,
    /// Lenient mode: corrupt statements, duplicate ids, and unresolvable
    /// columns degrade into diagnostics instead of aborting.
    pub lenient: bool,
    /// `--dialect`: the SQL dialect front end. `None` means the flag was
    /// not given — commands default to ANSI, and `serve --load-snapshot`
    /// adopts the snapshot's recorded dialect.
    pub dialect: Option<DialectKind>,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `extract` with optional artefact outputs.
    Extract {
        /// The SQL file to analyse.
        file: String,
        /// `--json` output path (the versioned v2 document).
        json: Option<String>,
        /// `--json-v1` output path (the legacy `output.json`).
        json_v1: Option<String>,
        /// `--dot` output path.
        dot: Option<String>,
        /// `--html` output path.
        html: Option<String>,
        /// `--mermaid` output path.
        mermaid: Option<String>,
        /// `--diagnostics-json` output path: every diagnostic of the run
        /// as structured JSON (code, severity, span, excerpt).
        diagnostics_json: Option<String>,
        /// `--timings`: print a phase/metrics summary to stderr.
        timings: bool,
        /// `--save-snapshot` output path: persist the settled session in
        /// the binary snapshot format (the engine extracts the log).
        save_snapshot: Option<String>,
        /// Shared options.
        common: CommonOptions,
    },
    /// `query <origin>[,<origin>...]`: the composable GraphQuery front
    /// door.
    Query {
        /// Origins: `table.column` specs or bare relation names.
        origins: Vec<String>,
        /// The SQL file.
        file: String,
        /// Walk upstream instead of downstream.
        upstream: bool,
        /// `--depth`: maximum hops.
        depth: Option<usize>,
        /// `--edge-kind` filters (repeatable).
        edge_kinds: Vec<String>,
        /// `--table-level`: relation-granularity traversal.
        table_level: bool,
        /// `--to`: also compute the shortest path to this column.
        to: Option<(String, String)>,
        /// `--format`: output format.
        format: QueryFormat,
        /// Shared options.
        common: CommonOptions,
    },
    /// `impact <table.column>`.
    Impact {
        /// The origin column as `table.column`.
        column: (String, String),
        /// The SQL file.
        file: String,
        /// Shared options.
        common: CommonOptions,
    },
    /// `path <from> <to>`.
    Path {
        /// Origin column.
        from: (String, String),
        /// Target column.
        to: (String, String),
        /// The SQL file.
        file: String,
        /// Shared options.
        common: CommonOptions,
    },
    /// `explain`: connected mode, with traces.
    Explain {
        /// The SQL file.
        file: String,
        /// Shared options (requires `--ddl`).
        common: CommonOptions,
    },
    /// `compare` against the SQLLineage-like baseline.
    Compare {
        /// The SQL file.
        file: String,
        /// Shared options.
        common: CommonOptions,
    },
    /// `session`: incremental REPL over stdin.
    Session {
        /// Shared options.
        common: CommonOptions,
    },
    /// `serve`: the long-lived JSON-lines lineage service.
    Serve {
        /// `--addr`: the address to bind.
        addr: String,
        /// `--verbose`: one structured stderr line per server event.
        verbose: bool,
        /// `--slow-ms`: slow-request threshold in milliseconds (unset =
        /// the server default).
        slow_ms: Option<u64>,
        /// `--load-snapshot`: restore the session from a binary snapshot
        /// instead of starting empty.
        load_snapshot: Option<String>,
        /// Shared options (`--ddl` preloads schemas; `--jobs` sizes the
        /// refresh worker pool).
        common: CommonOptions,
    },
    /// `client <addr> <op>`: one scripted request against a running
    /// server; prints the raw response line.
    Client {
        /// The server address.
        addr: String,
        /// The request to send.
        op: ClientOp,
        /// `--pretty`: pretty-print the JSON response instead of dumping
        /// the raw line.
        pretty: bool,
    },
}

/// One `lineagex client` operation.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientOp {
    /// Liveness probe.
    Ping,
    /// Fetch the full `ReportV2` document.
    Report,
    /// Fetch graph/engine/server statistics.
    Stats,
    /// Fetch session-level diagnostics.
    Diagnostics,
    /// Fetch a snapshot of the server's observability registry.
    Metrics,
    /// Settle pending work.
    Refresh,
    /// Drain and stop the server.
    Shutdown,
    /// Ingest a SQL file.
    Ingest {
        /// Path of the SQL file to send.
        file: String,
        /// `--dialect`: refuse to send unless the server session is
        /// pinned to this dialect (checked via the `stats` op).
        dialect: Option<DialectKind>,
    },
    /// Drop relations by name.
    Drop {
        /// Relations to drop.
        names: Vec<String>,
    },
    /// Run a graph query against the served snapshot.
    Query {
        /// Origins: `table.column` specs or bare relation names.
        origins: Vec<String>,
        /// Walk upstream instead of downstream.
        upstream: bool,
        /// `--depth`: maximum hops.
        depth: Option<usize>,
        /// `--edge-kind` filter (at most one over the wire).
        edge_kind: Option<String>,
        /// `--table-level`: relation-granularity traversal.
        table_level: bool,
        /// `--to`: also compute the shortest path to this column.
        to: Option<(String, String)>,
    },
}

impl Command {
    /// Parse an argument vector (without the program name).
    pub fn parse(argv: &[String]) -> Result<Command, String> {
        let mut positional: Vec<String> = Vec::new();
        let mut common = CommonOptions::default();
        let mut json = None;
        let mut json_v1 = None;
        let mut dot = None;
        let mut html = None;
        let mut mermaid = None;
        let mut diagnostics_json = None;
        let mut upstream = false;
        let mut depth = None;
        let mut edge_kinds = Vec::new();
        let mut table_level = false;
        let mut to = None;
        let mut format = QueryFormat::default();
        let mut addr = None;
        let mut timings = false;
        let mut verbose = false;
        let mut slow_ms = None;
        let mut pretty = false;
        let mut save_snapshot = None;
        let mut load_snapshot = None;

        let mut iter = argv.iter().peekable();
        let Some(sub) = iter.next() else {
            return Err("a subcommand is required".into());
        };

        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--ddl" => common.ddl = Some(take_value(&mut iter, "--ddl")?),
                "--addr" => addr = Some(take_value(&mut iter, "--addr")?),
                "--json" => json = Some(take_value(&mut iter, "--json")?),
                "--json-v1" => json_v1 = Some(take_value(&mut iter, "--json-v1")?),
                "--direction" => {
                    upstream = match take_value(&mut iter, "--direction")?.as_str() {
                        "down" | "downstream" => false,
                        "up" | "upstream" => true,
                        other => {
                            return Err(format!(
                                "invalid --direction value {other:?} (use down|up)"
                            ))
                        }
                    };
                }
                "--depth" => {
                    let value = take_value(&mut iter, "--depth")?;
                    depth =
                        Some(value.parse().map_err(|_| {
                            format!("invalid --depth value {value:?} (use a number)")
                        })?);
                }
                "--edge-kind" => {
                    let value = take_value(&mut iter, "--edge-kind")?;
                    match value.as_str() {
                        "contribute" | "reference" | "both" => edge_kinds.push(value),
                        other => {
                            return Err(format!(
                                "invalid --edge-kind value {other:?} \
                                 (use contribute|reference|both)"
                            ))
                        }
                    }
                }
                "--table-level" => table_level = true,
                "--to" => to = Some(parse_column(&take_value(&mut iter, "--to")?)?),
                "--format" => {
                    format = match take_value(&mut iter, "--format")?.as_str() {
                        "text" => QueryFormat::Text,
                        "json" => QueryFormat::Json,
                        "json-v1" => QueryFormat::JsonV1,
                        "dot" => QueryFormat::Dot,
                        "mermaid" => QueryFormat::Mermaid,
                        other => {
                            return Err(format!(
                                "invalid --format value {other:?} \
                                 (use text|json|json-v1|dot|mermaid)"
                            ))
                        }
                    };
                }
                "--dot" => dot = Some(take_value(&mut iter, "--dot")?),
                "--html" => html = Some(take_value(&mut iter, "--html")?),
                "--mermaid" => mermaid = Some(take_value(&mut iter, "--mermaid")?),
                "--diagnostics-json" => {
                    diagnostics_json = Some(take_value(&mut iter, "--diagnostics-json")?)
                }
                "--save-snapshot" => {
                    save_snapshot = Some(take_value(&mut iter, "--save-snapshot")?)
                }
                "--load-snapshot" => {
                    load_snapshot = Some(take_value(&mut iter, "--load-snapshot")?)
                }
                "--trace" => common.trace = true,
                "--timings" => timings = true,
                "--verbose" => verbose = true,
                "--pretty" => pretty = true,
                "--slow-ms" => {
                    let value = take_value(&mut iter, "--slow-ms")?;
                    slow_ms = Some(value.parse().map_err(|_| {
                        format!("invalid --slow-ms value {value:?} (use a number)")
                    })?);
                }
                "--lenient" => common.lenient = true,
                "--dialect" => {
                    let value = take_value(&mut iter, "--dialect")?;
                    common.dialect = Some(DialectKind::parse(&value).ok_or_else(|| {
                        format!(
                            "invalid --dialect value {value:?} \
                             (use ansi|postgres|snowflake|bigquery|tsql)"
                        )
                    })?);
                }
                "--no-auto-inference" => common.no_auto_inference = true,
                "--jobs" => {
                    let value = take_value(&mut iter, "--jobs")?;
                    common.jobs = value
                        .parse()
                        .map_err(|_| format!("invalid --jobs value {value:?} (use a number)"))?;
                }
                "--ambiguity" => {
                    common.ambiguity = match take_value(&mut iter, "--ambiguity")?.as_str() {
                        "all" => AmbiguityPolicy::AttributeAll,
                        "first" => AmbiguityPolicy::FirstMatch,
                        "error" => AmbiguityPolicy::Error,
                        other => {
                            return Err(format!(
                                "invalid --ambiguity value {other:?} (use all|first|error)"
                            ))
                        }
                    };
                }
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag {flag}"));
                }
                _ => positional.push(arg.clone()),
            }
        }

        match sub.as_str() {
            "extract" => {
                let [file] = take_positional::<1>(positional, "extract <queries.sql>")?;
                Ok(Command::Extract {
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
                })
            }
            "query" => {
                let [origins, file] =
                    take_positional::<2>(positional, "query <origin>[,<origin>...] <queries.sql>")?;
                let origins: Vec<String> = origins
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(|s| s.to_lowercase())
                    .collect();
                if origins.is_empty() {
                    return Err("query requires at least one origin".into());
                }
                Ok(Command::Query {
                    origins,
                    file,
                    upstream,
                    depth,
                    edge_kinds,
                    table_level,
                    to,
                    format,
                    common,
                })
            }
            "impact" => {
                let [column, file] =
                    take_positional::<2>(positional, "impact <table.column> <queries.sql>")?;
                Ok(Command::Impact { column: parse_column(&column)?, file, common })
            }
            "path" => {
                let [from, to, file] = take_positional::<3>(
                    positional,
                    "path <from.column> <to.column> <queries.sql>",
                )?;
                Ok(Command::Path {
                    from: parse_column(&from)?,
                    to: parse_column(&to)?,
                    file,
                    common,
                })
            }
            "explain" => {
                let [file] = take_positional::<1>(positional, "explain <queries.sql>")?;
                if common.ddl.is_none() {
                    return Err("explain requires --ddl <schema.sql>".into());
                }
                Ok(Command::Explain { file, common })
            }
            "compare" => {
                let [file] = take_positional::<1>(positional, "compare <queries.sql>")?;
                Ok(Command::Compare { file, common })
            }
            "session" => {
                let [] = take_positional::<0>(positional, "session (no positional arguments)")?;
                Ok(Command::Session { common })
            }
            "serve" => {
                let [] = take_positional::<0>(positional, "serve (no positional arguments)")?;
                Ok(Command::Serve {
                    addr: addr.unwrap_or_else(|| "127.0.0.1:7117".to_string()),
                    verbose,
                    slow_ms,
                    load_snapshot,
                    common,
                })
            }
            "client" => {
                if positional.len() < 2 {
                    return Err("expected client <host:port> <op> [args]".into());
                }
                let mut parts = positional.into_iter();
                let addr = parts.next().expect("len checked");
                let op_name = parts.next().expect("len checked");
                let rest: Vec<String> = parts.collect();
                let no_args = |op: ClientOp| {
                    if rest.is_empty() {
                        Ok(op)
                    } else {
                        Err(format!("client {op_name} takes no further arguments"))
                    }
                };
                let op = match op_name.as_str() {
                    "ping" => no_args(ClientOp::Ping)?,
                    "report" => no_args(ClientOp::Report)?,
                    "stats" => no_args(ClientOp::Stats)?,
                    "diagnostics" => no_args(ClientOp::Diagnostics)?,
                    "metrics" => no_args(ClientOp::Metrics)?,
                    "refresh" => no_args(ClientOp::Refresh)?,
                    "shutdown" => no_args(ClientOp::Shutdown)?,
                    "ingest" => {
                        let [file] = take_positional::<1>(rest, "client <addr> ingest <file.sql>")?;
                        ClientOp::Ingest { file, dialect: common.dialect }
                    }
                    "drop" => {
                        let [names] =
                            take_positional::<1>(rest, "client <addr> drop <name>[,<name>...]")?;
                        let names: Vec<String> = split_list(&names);
                        if names.is_empty() {
                            return Err("drop requires at least one relation name".into());
                        }
                        ClientOp::Drop { names }
                    }
                    "query" => {
                        let [origins] = take_positional::<1>(
                            rest,
                            "client <addr> query <origin>[,<origin>...]",
                        )?;
                        let origins = split_list(&origins);
                        if origins.is_empty() {
                            return Err("query requires at least one origin".into());
                        }
                        if edge_kinds.len() > 1 {
                            return Err(
                                "client query supports at most one --edge-kind filter".into()
                            );
                        }
                        ClientOp::Query {
                            origins,
                            upstream,
                            depth,
                            edge_kind: edge_kinds.pop(),
                            table_level,
                            to,
                        }
                    }
                    other => {
                        return Err(format!(
                            "unknown client op {other:?} (use ping|report|stats|diagnostics|\
                             metrics|refresh|shutdown|ingest|drop|query)"
                        ))
                    }
                };
                Ok(Command::Client { addr, op, pretty })
            }
            other => Err(format!("unknown command {other:?}")),
        }
    }
}

fn take_value(
    iter: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
    flag: &str,
) -> Result<String, String> {
    iter.next().cloned().ok_or_else(|| format!("{flag} requires a value"))
}

fn take_positional<const N: usize>(
    positional: Vec<String>,
    shape: &str,
) -> Result<[String; N], String> {
    positional
        .try_into()
        .map_err(|got: Vec<String>| format!("expected {shape}, got {} argument(s)", got.len()))
}

/// Split a comma-separated list, trimming and lower-casing each item.
fn split_list(raw: &str) -> Vec<String> {
    raw.split(',').map(str::trim).filter(|s| !s.is_empty()).map(str::to_lowercase).collect()
}

/// Split `table.column` (the column part may not contain further dots).
pub fn parse_column(spec: &str) -> Result<(String, String), String> {
    match spec.rsplit_once('.') {
        Some((table, column)) if !table.is_empty() && !column.is_empty() => {
            Ok((table.to_lowercase(), column.to_lowercase()))
        }
        _ => Err(format!("expected <table.column>, got {spec:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Command::parse(&argv)
    }

    #[test]
    fn parses_extract_with_outputs() {
        let cmd = parse(&[
            "extract", "q.sql", "--ddl", "s.sql", "--json", "o.json", "--html", "o.html", "--trace",
        ])
        .unwrap();
        match cmd {
            Command::Extract { file, json, dot, html, mermaid, common, .. } => {
                assert_eq!(file, "q.sql");
                assert!(mermaid.is_none());
                assert_eq!(json.as_deref(), Some("o.json"));
                assert!(dot.is_none());
                assert_eq!(html.as_deref(), Some("o.html"));
                assert_eq!(common.ddl.as_deref(), Some("s.sql"));
                assert!(common.trace);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_query() {
        let cmd = parse(&[
            "query",
            "web.page,web.cid",
            "q.sql",
            "--direction",
            "up",
            "--depth",
            "3",
            "--edge-kind",
            "contribute",
            "--edge-kind",
            "reference",
            "--to",
            "info.wreg",
            "--format",
            "json",
        ])
        .unwrap();
        match cmd {
            Command::Query { origins, file, upstream, depth, edge_kinds, to, format, .. } => {
                assert_eq!(origins, vec!["web.page", "web.cid"]);
                assert_eq!(file, "q.sql");
                assert!(upstream);
                assert_eq!(depth, Some(3));
                assert_eq!(edge_kinds, vec!["contribute", "reference"]);
                assert_eq!(to, Some(("info".into(), "wreg".into())));
                assert_eq!(format, QueryFormat::Json);
            }
            other => panic!("{other:?}"),
        }
        // Defaults: downstream, unlimited depth, text format.
        let cmd = parse(&["query", "web", "q.sql", "--table-level"]).unwrap();
        match cmd {
            Command::Query { origins, upstream, depth, table_level, format, .. } => {
                assert_eq!(origins, vec!["web"]);
                assert!(!upstream);
                assert_eq!(depth, None);
                assert!(table_level);
                assert_eq!(format, QueryFormat::Text);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn query_error_cases() {
        assert!(parse(&["query", "q.sql"]).is_err());
        assert!(parse(&["query", ",", "q.sql"]).is_err());
        assert!(parse(&["query", "t.c", "q.sql", "--direction", "sideways"]).is_err());
        assert!(parse(&["query", "t.c", "q.sql", "--depth", "many"]).is_err());
        assert!(parse(&["query", "t.c", "q.sql", "--edge-kind", "psychic"]).is_err());
        assert!(parse(&["query", "t.c", "q.sql", "--format", "yaml"]).is_err());
        assert!(parse(&["query", "t.c", "q.sql", "--to", "nodot"]).is_err());
    }

    #[test]
    fn parses_extract_json_v1() {
        let cmd = parse(&["extract", "q.sql", "--json-v1", "old.json"]).unwrap();
        match cmd {
            Command::Extract { json, json_v1, .. } => {
                assert!(json.is_none());
                assert_eq!(json_v1.as_deref(), Some("old.json"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_impact() {
        let cmd = parse(&["impact", "web.page", "q.sql"]).unwrap();
        match cmd {
            Command::Impact { column, file, .. } => {
                assert_eq!(column, ("web".to_string(), "page".to_string()));
                assert_eq!(file, "q.sql");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_path() {
        let cmd = parse(&["path", "web.page", "info.wreg", "q.sql"]).unwrap();
        assert!(matches!(cmd, Command::Path { .. }));
    }

    #[test]
    fn ambiguity_values() {
        for (value, expected) in [
            ("all", AmbiguityPolicy::AttributeAll),
            ("first", AmbiguityPolicy::FirstMatch),
            ("error", AmbiguityPolicy::Error),
        ] {
            let cmd = parse(&["extract", "q.sql", "--ambiguity", value]).unwrap();
            match cmd {
                Command::Extract { common, .. } => assert_eq!(common.ambiguity, expected),
                other => panic!("{other:?}"),
            }
        }
        assert!(parse(&["extract", "q.sql", "--ambiguity", "maybe"]).is_err());
    }

    #[test]
    fn parses_session_and_jobs() {
        let cmd = parse(&["session", "--ddl", "s.sql", "--jobs", "4"]).unwrap();
        match cmd {
            Command::Session { common } => {
                assert_eq!(common.ddl.as_deref(), Some("s.sql"));
                assert_eq!(common.jobs, 4);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&["extract", "q.sql", "--jobs", "8"]).unwrap();
        match cmd {
            Command::Extract { common, .. } => assert_eq!(common.jobs, 8),
            other => panic!("{other:?}"),
        }
        assert!(parse(&["extract", "q.sql", "--jobs", "lots"]).is_err());
        assert!(parse(&["session", "stray.sql"]).is_err());
    }

    #[test]
    fn parses_lenient_and_diagnostics_json() {
        let cmd =
            parse(&["extract", "q.sql", "--lenient", "--diagnostics-json", "diags.json"]).unwrap();
        match cmd {
            Command::Extract { diagnostics_json, common, .. } => {
                assert!(common.lenient);
                assert_eq!(diagnostics_json.as_deref(), Some("diags.json"));
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&["session", "--lenient"]).unwrap();
        match cmd {
            Command::Session { common } => assert!(common.lenient),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_serve() {
        let cmd = parse(&["serve"]).unwrap();
        match cmd {
            Command::Serve { addr, verbose, slow_ms, load_snapshot, common } => {
                assert_eq!(addr, "127.0.0.1:7117");
                assert_eq!(common.jobs, 0);
                assert!(!verbose);
                assert_eq!(slow_ms, None);
                assert_eq!(load_snapshot, None);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&["serve", "--addr", "0.0.0.0:9999", "--jobs", "4", "--lenient"]).unwrap();
        match cmd {
            Command::Serve { addr, common, .. } => {
                assert_eq!(addr, "0.0.0.0:9999");
                assert_eq!(common.jobs, 4);
                assert!(common.lenient);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["serve", "stray.sql"]).is_err());
    }

    #[test]
    fn parses_serve_observability_flags() {
        let cmd = parse(&["serve", "--verbose", "--slow-ms", "250"]).unwrap();
        match cmd {
            Command::Serve { verbose, slow_ms, .. } => {
                assert!(verbose);
                assert_eq!(slow_ms, Some(250));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["serve", "--slow-ms", "soon"]).is_err());
        assert!(parse(&["serve", "--slow-ms"]).is_err());
    }

    #[test]
    fn parses_client_ops() {
        for (op_name, expected) in [
            ("ping", ClientOp::Ping),
            ("report", ClientOp::Report),
            ("stats", ClientOp::Stats),
            ("diagnostics", ClientOp::Diagnostics),
            ("metrics", ClientOp::Metrics),
            ("refresh", ClientOp::Refresh),
            ("shutdown", ClientOp::Shutdown),
        ] {
            let cmd = parse(&["client", "127.0.0.1:7117", op_name]).unwrap();
            match cmd {
                Command::Client { addr, op, pretty } => {
                    assert_eq!(addr, "127.0.0.1:7117");
                    assert_eq!(op, expected);
                    assert!(!pretty);
                }
                other => panic!("{other:?}"),
            }
        }
        let cmd = parse(&["client", "h:1", "ingest", "more.sql"]).unwrap();
        assert!(
            matches!(cmd, Command::Client { op: ClientOp::Ingest { file, dialect: None }, .. } if file == "more.sql")
        );
        let cmd = parse(&["client", "h:1", "drop", "v1,V2"]).unwrap();
        assert!(
            matches!(cmd, Command::Client { op: ClientOp::Drop { names }, .. } if names == vec!["v1", "v2"])
        );
        let cmd = parse(&["client", "h:1", "metrics", "--pretty"]).unwrap();
        assert!(matches!(cmd, Command::Client { op: ClientOp::Metrics, pretty: true, .. }));
    }

    #[test]
    fn parses_client_query_with_flags() {
        let cmd = parse(&[
            "client",
            "127.0.0.1:7117",
            "query",
            "web.page,web.cid",
            "--direction",
            "up",
            "--depth",
            "2",
            "--edge-kind",
            "contribute",
            "--table-level",
            "--to",
            "info.wreg",
        ])
        .unwrap();
        match cmd {
            Command::Client {
                op: ClientOp::Query { origins, upstream, depth, edge_kind, table_level, to },
                ..
            } => {
                assert_eq!(origins, vec!["web.page", "web.cid"]);
                assert!(upstream);
                assert_eq!(depth, Some(2));
                assert_eq!(edge_kind.as_deref(), Some("contribute"));
                assert!(table_level);
                assert_eq!(to, Some(("info".into(), "wreg".into())));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn client_error_cases() {
        assert!(parse(&["client", "127.0.0.1:7117"]).is_err());
        assert!(parse(&["client", "h:1", "teleport"]).is_err());
        assert!(parse(&["client", "h:1", "ping", "extra"]).is_err());
        assert!(parse(&["client", "h:1", "ingest"]).is_err());
        assert!(parse(&["client", "h:1", "drop", ","]).is_err());
        assert!(parse(&[
            "client",
            "h:1",
            "query",
            "t.c",
            "--edge-kind",
            "contribute",
            "--edge-kind",
            "reference"
        ])
        .is_err());
    }

    #[test]
    fn parses_dialect_flag() {
        // Unset everywhere by default.
        let cmd = parse(&["extract", "q.sql"]).unwrap();
        match cmd {
            Command::Extract { common, .. } => assert_eq!(common.dialect, None),
            other => panic!("{other:?}"),
        }
        // Case-insensitive names on every dialect-aware subcommand.
        for (value, expected) in [
            ("ansi", DialectKind::Ansi),
            ("Postgres", DialectKind::Postgres),
            ("SNOWFLAKE", DialectKind::Snowflake),
            ("bigquery", DialectKind::BigQuery),
            ("tsql", DialectKind::TSql),
        ] {
            let cmd = parse(&["extract", "q.sql", "--dialect", value]).unwrap();
            match cmd {
                Command::Extract { common, .. } => assert_eq!(common.dialect, Some(expected)),
                other => panic!("{other:?}"),
            }
        }
        let cmd = parse(&["session", "--dialect", "tsql"]).unwrap();
        match cmd {
            Command::Session { common } => assert_eq!(common.dialect, Some(DialectKind::TSql)),
            other => panic!("{other:?}"),
        }
        let cmd = parse(&["serve", "--dialect", "bigquery"]).unwrap();
        match cmd {
            Command::Serve { common, .. } => {
                assert_eq!(common.dialect, Some(DialectKind::BigQuery))
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&["client", "h:1", "ingest", "q.sql", "--dialect", "snowflake"]).unwrap();
        assert!(matches!(
            cmd,
            Command::Client {
                op: ClientOp::Ingest { dialect: Some(DialectKind::Snowflake), .. },
                ..
            }
        ));
        assert!(parse(&["extract", "q.sql", "--dialect", "oracle"]).is_err());
        assert!(parse(&["extract", "q.sql", "--dialect"]).is_err());
    }

    #[test]
    fn parses_snapshot_flags() {
        let cmd = parse(&["extract", "q.sql", "--save-snapshot", "state.lxsn"]).unwrap();
        match cmd {
            Command::Extract { save_snapshot, .. } => {
                assert_eq!(save_snapshot.as_deref(), Some("state.lxsn"));
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&["serve", "--load-snapshot", "state.lxsn", "--jobs", "2"]).unwrap();
        match cmd {
            Command::Serve { load_snapshot, common, .. } => {
                assert_eq!(load_snapshot.as_deref(), Some("state.lxsn"));
                assert_eq!(common.jobs, 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["extract", "q.sql", "--save-snapshot"]).is_err());
        assert!(parse(&["serve", "--load-snapshot"]).is_err());
    }

    #[test]
    fn explain_requires_ddl() {
        assert!(parse(&["explain", "q.sql"]).is_err());
        assert!(parse(&["explain", "q.sql", "--ddl", "s.sql"]).is_ok());
    }

    #[test]
    fn error_cases() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["extract"]).is_err());
        assert!(parse(&["extract", "a.sql", "b.sql"]).is_err());
        assert!(parse(&["extract", "q.sql", "--bogus"]).is_err());
        assert!(parse(&["extract", "q.sql", "--json"]).is_err());
        assert!(parse(&["impact", "nodot", "q.sql"]).is_err());
    }

    #[test]
    fn column_spec_parsing() {
        assert_eq!(parse_column("Web.Page").unwrap(), ("web".into(), "page".into()));
        assert_eq!(
            parse_column("schema.table.col").unwrap(),
            ("schema.table".into(), "col".into())
        );
        assert!(parse_column("nodot").is_err());
        assert!(parse_column(".x").is_err());
        assert!(parse_column("x.").is_err());
    }
}
