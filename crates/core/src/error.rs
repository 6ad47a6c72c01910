//! Errors raised during lineage extraction.

use std::fmt;

/// Errors from the LineageX extraction pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineageError {
    /// SQL failed to parse.
    Parse(String),
    /// A scanned relation is a Query-Dictionary entry that has not been
    /// processed yet. Internal to the auto-inference engine: it triggers
    /// the deferral stack and never escapes a successful run.
    MissingDependency {
        /// The query being extracted when the gap was found.
        query: String,
        /// The unprocessed dependency.
        dependency: String,
    },
    /// View definitions form a dependency cycle.
    DependencyCycle(Vec<String>),
    /// A column reference could not be attributed to any relation in scope.
    ColumnNotFound {
        /// The query being extracted.
        query: String,
        /// The unresolved column.
        column: String,
        /// The qualifier, when one was written.
        relation: Option<String>,
    },
    /// An unqualified column matches several relations and the ambiguity
    /// policy is [`crate::options::AmbiguityPolicy::Error`].
    AmbiguousColumn {
        /// The query being extracted.
        query: String,
        /// The ambiguous column.
        column: String,
        /// Relations that all expose it.
        candidates: Vec<String>,
    },
    /// A qualifier does not name any relation in scope.
    UnknownQualifier {
        /// The query being extracted.
        query: String,
        /// The qualifier.
        qualifier: String,
    },
    /// Set-operation branches disagree on arity.
    SetOperationArityMismatch {
        /// The query being extracted.
        query: String,
        /// Left branch arity.
        left: usize,
        /// Right branch arity.
        right: usize,
    },
    /// Two Query-Dictionary entries claim the same identifier.
    DuplicateQueryId(String),
    /// Two relations in one `FROM` clause share a binding name.
    DuplicateBinding {
        /// The query being extracted.
        query: String,
        /// The duplicated binding.
        binding: String,
    },
    /// An alias/view column list does not match the output arity.
    ColumnCountMismatch {
        /// The owner (view, CTE, or alias) declaring the list.
        owner: String,
        /// Declared names.
        declared: usize,
        /// Actual output arity.
        actual: usize,
    },
    /// A statement kind the extractor does not handle.
    Unsupported(String),
    /// Connected mode's closed-world check: a query scans a relation
    /// that neither the catalog nor the log defines, which a database
    /// connection reports as `relation "x" does not exist`.
    Database(String),
    /// A binary snapshot could not be written or read back (I/O failure,
    /// wrong magic, unsupported version, truncation, checksum mismatch).
    /// Carries the typed [`crate::DiagnosticCode::SnapshotCorrupt`]
    /// classification via [`crate::snapshot::SnapshotError`].
    Snapshot(String),
}

impl fmt::Display for LineageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineageError::Parse(msg) => write!(f, "parse error: {msg}"),
            LineageError::MissingDependency { query, dependency } => {
                write!(f, "query {query} depends on unprocessed relation {dependency}")
            }
            LineageError::DependencyCycle(path) => {
                write!(f, "dependency cycle: {}", path.join(" -> "))
            }
            LineageError::ColumnNotFound { query, column, relation: Some(rel) } => {
                write!(f, "in {query}: column {rel}.{column} does not exist")
            }
            LineageError::ColumnNotFound { query, column, relation: None } => {
                write!(f, "in {query}: column \"{column}\" does not exist")
            }
            LineageError::AmbiguousColumn { query, column, candidates } => write!(
                f,
                "in {query}: column reference \"{column}\" is ambiguous (candidates: {})",
                candidates.join(", ")
            ),
            LineageError::UnknownQualifier { query, qualifier } => {
                write!(f, "in {query}: missing FROM-clause entry for \"{qualifier}\"")
            }
            LineageError::SetOperationArityMismatch { query, left, right } => write!(
                f,
                "in {query}: set-operation branches have different arities ({left} vs {right})"
            ),
            LineageError::DuplicateQueryId(id) => {
                write!(f, "duplicate query identifier \"{id}\"")
            }
            LineageError::DuplicateBinding { query, binding } => {
                write!(f, "in {query}: table name \"{binding}\" specified more than once")
            }
            LineageError::ColumnCountMismatch { owner, declared, actual } => write!(
                f,
                "\"{owner}\" declares {declared} column names but produces {actual} columns"
            ),
            LineageError::Unsupported(what) => write!(f, "unsupported: {what}"),
            LineageError::Database(msg) => write!(f, "database error: {msg}"),
            LineageError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
        }
    }
}

impl std::error::Error for LineageError {}

impl From<lineagex_sqlparse::ParseError> for LineageError {
    fn from(e: lineagex_sqlparse::ParseError) -> Self {
        LineageError::Parse(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = LineageError::DependencyCycle(vec!["a".into(), "b".into(), "a".into()]);
        assert_eq!(e.to_string(), "dependency cycle: a -> b -> a");
        let e = LineageError::ColumnNotFound {
            query: "info".into(),
            column: "wpage".into(),
            relation: Some("w".into()),
        };
        assert!(e.to_string().contains("w.wpage"));
        let e = LineageError::UnknownQualifier { query: "q1".into(), qualifier: "zz".into() };
        assert!(e.to_string().contains("missing FROM-clause entry"));
    }

    #[test]
    fn parse_error_conversion() {
        let pe = lineagex_sqlparse::parse_sql("SELECT FROM").unwrap_err();
        assert!(matches!(LineageError::from(pe), LineageError::Parse(_)));
    }
}
