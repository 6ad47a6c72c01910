//! Errors from loading DDL into a [`crate::Catalog`].

use std::fmt;

/// Errors from building or extending a [`crate::Catalog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// `relation "<name>" already exists`.
    DuplicateTable(String),
    /// The SQL failed to parse.
    Parse(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::DuplicateTable(name) => write!(f, "relation \"{name}\" already exists"),
            DbError::Parse(msg) => write!(f, "syntax error: {msg}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<lineagex_sqlparse::ParseError> for DbError {
    fn from(e: lineagex_sqlparse::ParseError) -> Self {
        DbError::Parse(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_postgres_phrasing() {
        assert_eq!(
            DbError::DuplicateTable("web".into()).to_string(),
            "relation \"web\" already exists"
        );
    }

    #[test]
    fn parse_error_converts() {
        let pe = lineagex_sqlparse::parse_sql("SELEC 1").unwrap_err();
        let de: DbError = pe.into();
        assert!(matches!(de, DbError::Parse(_)));
    }
}
