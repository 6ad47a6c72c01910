//! Structured, span-carrying diagnostics.
//!
//! Every non-fatal finding anywhere in the pipeline — preprocessing,
//! extraction, the session engine — is a [`Diagnostic`]: a typed code, a
//! severity, a human-readable message, and (when the source location is
//! known) a [`DiagnosticSpan`] resolving to `line:col` in the original
//! SQL text. The CLI renders diagnostics caret-style against the source
//! (`file:line:col` plus the offending line); `--diagnostics-json` dumps
//! them as structured JSON.
//!
//! In **lenient mode** ([`crate::ExtractOptions::lenient`]) conditions
//! that would abort a strict run — unparsable statements, duplicate query
//! ids, unresolvable columns — degrade into diagnostics, and the affected
//! query's lineage is marked *partial* instead of poisoning the batch.

use lineagex_sqlparse::Span;
use serde::{Serialize, Serializer};
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: extraction was complete, this is worth knowing.
    Info,
    /// Something degraded: lineage may be partial or inferred.
    Warning,
    /// A statement or region could not be processed at all.
    Error,
}

impl Severity {
    /// The lower-case name used in rendered output and JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl Serialize for Severity {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.str(self.as_str());
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The typed classification of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagnosticCode {
    /// A statement (or region) failed to lex/parse; it was skipped and
    /// parsing resumed at the next `;`.
    ParseError,
    /// Two Query-Dictionary entries claimed the same identifier; the last
    /// definition won.
    DuplicateQueryId,
    /// A scanned relation is neither in the catalog nor the dictionary;
    /// its schema is inferred from usage.
    UnknownRelation,
    /// A column reference could not be attributed to any relation in
    /// scope (lenient mode only; strict mode errors).
    UnresolvedColumn,
    /// `*`/`t.*` over a schema-less relation cannot be fully expanded.
    UnresolvedWildcard,
    /// An ambiguous unqualified column was attributed under a lenient
    /// ambiguity policy.
    AmbiguityResolved,
    /// A column of a schema-less relation was inferred from usage.
    InferredColumn,
    /// A statement carrying no lineage was skipped (e.g. `DROP`,
    /// `DELETE`).
    SkippedStatement,
    /// Recognised query-log noise (`EXPLAIN`, `SET`, transaction
    /// control, `ANALYZE`) was skipped.
    NoiseStatement,
    /// View definitions form a dependency cycle; the cycle was broken
    /// with an empty stub (lenient mode only).
    DependencyCycle,
    /// Extraction of one query failed outright; its lineage record is a
    /// partial stub (lenient mode only).
    ExtractionFailed,
    /// A service request was malformed (bad JSON shape, missing or
    /// mistyped fields, unknown operation). The request was rejected;
    /// the connection and every other client are unaffected.
    InvalidRequest,
    /// A service request declared a protocol `schema_version` this
    /// server does not speak.
    UnsupportedSchemaVersion,
    /// A binary snapshot file could not be loaded: wrong magic, an
    /// unsupported format version, a truncated payload, or a checksum
    /// mismatch. The session starts empty instead.
    SnapshotCorrupt,
    /// A dialect-specific construct was recognised but not modelled
    /// (e.g. `MERGE`); the statement was skipped with its span so the
    /// rest of the log extracts normally.
    DialectFallback,
}

impl DiagnosticCode {
    /// The kebab-case code used in rendered output and JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            DiagnosticCode::ParseError => "parse-error",
            DiagnosticCode::DuplicateQueryId => "duplicate-query-id",
            DiagnosticCode::UnknownRelation => "unknown-relation",
            DiagnosticCode::UnresolvedColumn => "unresolved-column",
            DiagnosticCode::UnresolvedWildcard => "unresolved-wildcard",
            DiagnosticCode::AmbiguityResolved => "ambiguity-resolved",
            DiagnosticCode::InferredColumn => "inferred-column",
            DiagnosticCode::SkippedStatement => "skipped-statement",
            DiagnosticCode::NoiseStatement => "noise-statement",
            DiagnosticCode::DependencyCycle => "dependency-cycle",
            DiagnosticCode::ExtractionFailed => "extraction-failed",
            DiagnosticCode::InvalidRequest => "invalid-request",
            DiagnosticCode::UnsupportedSchemaVersion => "unsupported-schema-version",
            DiagnosticCode::SnapshotCorrupt => "snapshot-corrupt",
            DiagnosticCode::DialectFallback => "dialect-fallback",
        }
    }

    /// The default severity for this code.
    pub fn default_severity(&self) -> Severity {
        match self {
            DiagnosticCode::ParseError
            | DiagnosticCode::InvalidRequest
            | DiagnosticCode::UnsupportedSchemaVersion
            | DiagnosticCode::SnapshotCorrupt => Severity::Error,
            DiagnosticCode::DuplicateQueryId
            | DiagnosticCode::UnresolvedColumn
            | DiagnosticCode::UnresolvedWildcard
            | DiagnosticCode::UnknownRelation
            | DiagnosticCode::DependencyCycle
            | DiagnosticCode::ExtractionFailed
            | DiagnosticCode::DialectFallback => Severity::Warning,
            DiagnosticCode::AmbiguityResolved
            | DiagnosticCode::InferredColumn
            | DiagnosticCode::SkippedStatement
            | DiagnosticCode::NoiseStatement => Severity::Info,
        }
    }
}

impl Serialize for DiagnosticCode {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.str(self.as_str());
    }
}

impl fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A serializable source range: byte offsets plus the 1-based line/column
/// of the start (mirrors [`lineagex_sqlparse::Span`] without dragging the
/// parser crate into serialized output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct DiagnosticSpan {
    /// Byte offset of the first spanned byte.
    pub start: usize,
    /// Byte offset one past the last spanned byte.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column of `start`.
    pub column: u32,
}

impl From<Span> for DiagnosticSpan {
    fn from(span: Span) -> Self {
        DiagnosticSpan {
            start: span.start,
            end: span.end,
            line: span.location.line,
            column: span.location.column,
        }
    }
}

impl fmt::Display for DiagnosticSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// One structured finding, produced anywhere in the pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Diagnostic {
    /// The typed classification.
    pub code: DiagnosticCode,
    /// How serious it is.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// The query id the diagnostic belongs to, when one exists (a parse
    /// error has no query id; an unresolved column does).
    pub statement: Option<String>,
    /// Where in the source the diagnostic points, when known.
    pub span: Option<DiagnosticSpan>,
    /// The source line the span starts on, when it was available at
    /// construction time (lets reports render excerpts without re-reading
    /// the input).
    pub excerpt: Option<String>,
}

impl Diagnostic {
    /// A diagnostic with the code's default severity.
    pub fn new(code: DiagnosticCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            statement: None,
            span: None,
            excerpt: None,
        }
    }

    /// Override the severity.
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Attach a source span. A default (empty) parser span means "no
    /// location" and is ignored, so synthetic statements never render a
    /// bogus `1:1`.
    pub fn with_span(mut self, span: Span) -> Self {
        if span != Span::default() {
            self.span = Some(span.into());
        }
        self
    }

    /// Attribute the diagnostic to a query id.
    pub fn for_statement(mut self, id: impl Into<String>) -> Self {
        self.statement = Some(id.into());
        self
    }

    /// Capture the source line the span starts on as the stored excerpt.
    pub fn with_excerpt_from(mut self, source: &str) -> Self {
        if let Some(line) = self.span.and_then(|span| line_at(source, span.start)) {
            self.excerpt = Some(line.to_string());
        }
        self
    }

    /// Render the diagnostic caret-style against the original source:
    ///
    /// ```text
    /// queries.sql:2:8: warning[unresolved-column]: in v: column "ghost" does not exist
    ///   SELECT ghost FROM t
    ///          ^~~~~
    /// ```
    ///
    /// Falls back to the stored excerpt when `source` no longer holds the
    /// spanned line (e.g. a session buffer that has moved on), and to a
    /// one-line rendering when no span is known.
    pub fn render(&self, file: &str, source: &str) -> String {
        let mut head = String::new();
        head.push_str(file);
        if let Some(span) = &self.span {
            head.push_str(&format!(":{span}"));
        }
        head.push_str(&format!(": {}[{}]: {}", self.severity, self.code, self.message));
        let Some(span) = &self.span else { return head };
        let line = line_at(source, span.start).or(self.excerpt.as_deref()).unwrap_or_default();
        if line.is_empty() {
            return head;
        }
        let col_idx = span.column.saturating_sub(1) as usize;
        let width = span.end.saturating_sub(span.start).max(1);
        // The caret marks the first column; tildes extend over the rest
        // of the span (clamped to the line).
        let avail = line.chars().count().saturating_sub(col_idx).max(1);
        let tildes = "~".repeat(width.min(avail).saturating_sub(1));
        format!("{head}\n  {line}\n  {}^{tildes}", " ".repeat(col_idx))
    }
}

/// The line of `source` holding byte `offset`, as [`str::lines`] yields
/// it, or `None` past the last line. It reads that line alone, so
/// excerpting every diagnostic of a log stays linear in the log.
fn line_at(source: &str, offset: usize) -> Option<&str> {
    let before = source.as_bytes().get(..offset)?;
    let start = before.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    source[start..].lines().next()
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.statement, &self.span) {
            (Some(id), Some(span)) => {
                write!(f, "{}[{}] at {span} in {id}: {}", self.severity, self.code, self.message)
            }
            (Some(id), None) => {
                write!(f, "{}[{}] in {id}: {}", self.severity, self.code, self.message)
            }
            (None, Some(span)) => {
                write!(f, "{}[{}] at {span}: {}", self.severity, self.code, self.message)
            }
            (None, None) => write!(f, "{}[{}]: {}", self.severity, self.code, self.message),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lineagex_sqlparse::Location;

    fn span(start: usize, end: usize, line: u32, col: u32) -> Span {
        Span::new(start, end, Location::new(line, col))
    }

    #[test]
    fn codes_render_kebab_case() {
        assert_eq!(DiagnosticCode::ParseError.as_str(), "parse-error");
        assert_eq!(DiagnosticCode::DuplicateQueryId.as_str(), "duplicate-query-id");
        assert_eq!(DiagnosticCode::NoiseStatement.to_string(), "noise-statement");
    }

    #[test]
    fn default_severities() {
        assert_eq!(DiagnosticCode::ParseError.default_severity(), Severity::Error);
        assert_eq!(DiagnosticCode::UnresolvedColumn.default_severity(), Severity::Warning);
        assert_eq!(DiagnosticCode::NoiseStatement.default_severity(), Severity::Info);
    }

    #[test]
    fn render_points_caret_at_span() {
        let source = "SELECT ghost FROM t";
        let d = Diagnostic::new(DiagnosticCode::UnresolvedColumn, "column \"ghost\" not found")
            .for_statement("v")
            .with_span(span(7, 12, 1, 8));
        let rendered = d.render("q.sql", source);
        assert!(rendered.starts_with("q.sql:1:8: warning[unresolved-column]:"), "{rendered}");
        assert!(rendered.contains("SELECT ghost FROM t"), "{rendered}");
        let caret_line = rendered.lines().last().unwrap();
        assert_eq!(caret_line, &format!("  {}^~~~~", " ".repeat(7)));
    }

    #[test]
    fn render_without_span_is_one_line() {
        let d = Diagnostic::new(DiagnosticCode::SkippedStatement, "DROP old_v");
        assert_eq!(d.render("q.sql", ""), "q.sql: info[skipped-statement]: DROP old_v");
    }

    #[test]
    fn render_falls_back_to_stored_excerpt() {
        let source = "SELECT ghost FROM t";
        let d = Diagnostic::new(DiagnosticCode::UnresolvedColumn, "ghost")
            .with_span(span(7, 12, 1, 8))
            .with_excerpt_from(source);
        // Rendering against a *different* (shorter) source still shows
        // the captured line.
        let rendered = d.render("session", "");
        assert!(rendered.contains("SELECT ghost FROM t"), "{rendered}");
    }

    #[test]
    fn default_span_means_no_location() {
        let d = Diagnostic::new(DiagnosticCode::SkippedStatement, "x").with_span(Span::default());
        assert!(d.span.is_none());
    }

    #[test]
    fn serializes_with_kebab_code_and_span() {
        let d = Diagnostic::new(DiagnosticCode::ParseError, "expected expression")
            .with_span(span(7, 11, 2, 3));
        let json = serde_json::to_string(&d).unwrap();
        assert!(json.contains("\"code\":\"parse-error\""), "{json}");
        assert!(json.contains("\"severity\":\"error\""), "{json}");
        assert!(json.contains("\"line\":2"), "{json}");
    }

    proptest::proptest! {
        /// The excerpt is the line `str::lines` numbers as the span's
        /// line, on sources with `\n`, `\r\n`, lone `\r` and multi-byte
        /// characters, at every offset up to one past the end.
        #[test]
        fn the_excerpt_is_the_line_the_old_rule_numbered(
            pieces in proptest::collection::vec(0usize..6, 0..40),
            at in 0usize..400,
        ) {
            let source: String =
                pieces.iter().map(|&p| ["a", "\n", "\r\n", "\r", "é", " ;"][p]).collect();
            let offsets: Vec<usize> = source
                .char_indices()
                .map(|(i, _)| i)
                .chain([source.len()])
                .collect();
            let start = offsets[at % offsets.len()];
            let line = 1 + source[..start].matches('\n').count() as u32;
            let column = 1 + source[..start].rsplit('\n').next().unwrap().chars().count() as u32;
            let d = Diagnostic::new(DiagnosticCode::ParseError, "x")
                .with_span(span(start, start + 1, line, column))
                .with_excerpt_from(&source);
            let old_rule = source.lines().nth(line as usize - 1).map(str::to_string);
            proptest::prop_assert_eq!(&d.excerpt, &old_rule);
            let rendered = d.render("q.sql", &source);
            proptest::prop_assert_eq!(
                rendered.split('\n').nth(1).map(|l| l.strip_prefix("  ").unwrap().to_string()),
                old_rule.filter(|l| !l.is_empty())
            );
        }
    }

    #[test]
    fn display_mentions_statement_and_location() {
        let d = Diagnostic::new(DiagnosticCode::UnknownRelation, "relation web is external")
            .for_statement("v")
            .with_span(span(0, 3, 4, 9));
        assert_eq!(
            d.to_string(),
            "warning[unknown-relation] at 4:9 in v: relation web is external"
        );
    }
}
