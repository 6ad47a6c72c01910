//! # lineagex-cli
//!
//! The `lineagex` command-line tool: extract column lineage from SQL
//! files, run impact analyses, explain a log in connected mode, and
//! compare against the SQLLineage-like baseline.
//!
//! ```text
//! lineagex extract  queries.sql [--ddl schema.sql] [--json out.json]
//!                   [--dot out.dot] [--html out.html] [--trace]
//!                   [--ambiguity all|first|error] [--no-auto-inference]
//!                   [--jobs N]
//! lineagex session  [--ddl schema.sql] [--jobs N]
//! lineagex serve    [--addr host:port] [--ddl schema.sql] [--jobs N]
//! lineagex client   <host:port> <op> [args]
//! lineagex impact   <table.column> queries.sql [--ddl schema.sql]
//! lineagex path     <from.column> <to.column> queries.sql [--ddl schema.sql]
//! lineagex explain  queries.sql --ddl schema.sql [--dialect name]
//! lineagex compare  queries.sql [--ddl schema.sql]
//! ```
//!
//! `extract` runs the auto-inference stack once per connected component
//! of the log on `--jobs N` threads (default: the available
//! parallelism), with the same output at every `N`; `--save-snapshot`
//! hands the log's Query Dictionary to `lineagex-engine`
//! (`Engine::ingest_dict`) to persist the settled session. `session` is
//! the incremental REPL over the engine — SQL statements stream in over
//! stdin, `\`-commands (`\impact`, `\lineage`, `\stats`, ...) answer
//! lineage questions between ingests.
//! `serve` exposes the same engine as a long-lived JSON-lines TCP
//! service (`lineagex-serve`), and `client` scripts one request against
//! it, printing the server's raw response line. `explain` runs the
//! paper's connected mode (`lineagex_core::ExplainPathExtractor`) and
//! prints the stack deferrals and each query's traversal trace.
//!
//! The command logic lives in this library (driven by string arguments
//! and an output writer) so it is fully unit-testable; `main.rs` is a
//! thin wrapper.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod args;
pub mod commands;

use std::io::Write;

/// Entry point shared by `main` and the tests. Returns the process exit
/// code.
pub fn run(argv: &[String], out: &mut dyn Write) -> i32 {
    match args::Command::parse(argv) {
        Ok(command) => match commands::execute(&command, out) {
            Ok(()) => 0,
            Err(message) => {
                let _ = writeln!(out, "error: {message}");
                1
            }
        },
        Err(message) => {
            let _ = writeln!(out, "error: {message}");
            let _ = writeln!(out, "{}", args::USAGE);
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(argv: &[&str]) -> (i32, String) {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let code = run(&argv, &mut out);
        (code, String::from_utf8(out).unwrap())
    }

    #[test]
    fn no_args_prints_usage() {
        let (code, text) = run_to_string(&[]);
        assert_eq!(code, 2);
        assert!(text.contains("usage"), "{text}");
    }

    #[test]
    fn unknown_subcommand_fails() {
        let (code, text) = run_to_string(&["frobnicate"]);
        assert_eq!(code, 2);
        assert!(text.contains("unknown command"), "{text}");
    }

    #[test]
    fn missing_file_reports_io_error() {
        let (code, text) = run_to_string(&["extract", "/definitely/not/here.sql"]);
        assert_eq!(code, 1);
        assert!(text.contains("error"), "{text}");
    }
}
