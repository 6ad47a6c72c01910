//! Session bookkeeping: per-statement ingest receipts and engine-level
//! counters.

use lineagex_core::Diagnostic;
use std::fmt;

/// What the engine did with one ingested statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestAction {
    /// A new lineage-bearing entry (view, CTAS, INSERT, UPDATE, SELECT).
    Defined,
    /// An existing entry was replaced by a different definition; its
    /// downstream cone is now dirty.
    Redefined,
    /// The statement re-defined an entry with byte-identical content;
    /// nothing was invalidated.
    Unchanged,
    /// Plain DDL: the catalog changed (added or replaced a base table).
    Schema,
    /// A `DROP` retracted entries and/or catalog schemas.
    Dropped,
    /// A statement carrying neither lineage nor schema (e.g. `DELETE`,
    /// `EXPLAIN`, transaction control).
    Skipped,
    /// A region of the ingested text failed to parse; lenient mode
    /// skipped it (see the receipt's diagnostics for the span).
    Failed,
}

/// The receipt for one ingested statement.
#[derive(Debug, Clone, PartialEq)]
pub struct StmtId {
    /// Session-wide statement sequence number (1-based).
    pub seq: u64,
    /// The entry id or relation name the statement concerned.
    pub target: String,
    /// What the engine did with it.
    pub action: IngestAction,
    /// Diagnostics this statement produced at ingest time (parse errors,
    /// skipped noise, redefinition notices). Extraction-time diagnostics
    /// live on the query's lineage record and are retracted with it.
    pub diagnostics: Vec<Diagnostic>,
}

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verb = match self.action {
            IngestAction::Defined => "defined",
            IngestAction::Redefined => "redefined",
            IngestAction::Unchanged => "unchanged",
            IngestAction::Schema => "schema",
            IngestAction::Dropped => "dropped",
            IngestAction::Skipped => "skipped",
            IngestAction::Failed => "failed",
        };
        write!(f, "#{} {} {}", self.seq, verb, self.target)
    }
}

/// Counters describing the work a session has done. The extraction
/// counters are the observable proof of incrementality: redefining one
/// view on a long log must bump `last_refresh_extractions` by the size of
/// its downstream cone, not by the size of the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineStats {
    /// The SQL dialect name the session lexes and parses under
    /// ([`lineagex_sqlparse::DialectKind::name`]), pinned at engine
    /// construction. Carried in the stats so every stats surface (CLI
    /// summary, serve `stats` reply) reports which grammar produced the
    /// numbers.
    pub dialect: String,
    /// Statements ingested (including DDL, drops, skips, and — in
    /// lenient mode — unparsable regions).
    pub statements: u64,
    /// Lineage entries defined (first definitions only).
    pub defined: u64,
    /// Entry redefinitions (changed content).
    pub redefinitions: u64,
    /// Re-ingests of byte-identical entry definitions (no-ops).
    pub unchanged: u64,
    /// Entries and schemas removed by `DROP`.
    pub drops: u64,
    /// Unparsable regions skipped by lenient ingest.
    pub parse_failures: u64,
    /// Diagnostics currently live in the session: session-level ones
    /// (skips, noise, failures) plus every settled query's extraction
    /// diagnostics. Retracting a query (redefinition, `DROP`) takes its
    /// diagnostics out of this count.
    pub diagnostics: u64,
    /// Total per-query extractions performed over the session's lifetime.
    pub extractions: u64,
    /// Extractions performed by the most recent refresh.
    pub last_refresh_extractions: u64,
    /// Refreshes that did any work.
    pub refreshes: u64,
}

impl Default for EngineStats {
    fn default() -> Self {
        EngineStats {
            dialect: lineagex_sqlparse::DialectKind::Ansi.name().to_string(),
            statements: 0,
            defined: 0,
            redefinitions: 0,
            unchanged: 0,
            drops: 0,
            parse_failures: 0,
            diagnostics: 0,
            extractions: 0,
            last_refresh_extractions: 0,
            refreshes: 0,
        }
    }
}

/// Where one [`crate::Engine::publish`]'s write time went outside
/// extraction, in µs, summed since the publish before it
/// ([`crate::Engine::last_publish_split`]). Both are copies the engine
/// pays because readers hold the previous revision; a slow write whose
/// split is small spent its time extracting its dirty cone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishSplit {
    /// Copy-on-write copies of the settled graph (pointers per entry).
    pub graph_clone_us: u64,
    /// Deriving the new revision's traversal index from the last one.
    pub index_update_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_stats_report_the_ansi_dialect() {
        assert_eq!(EngineStats::default().dialect, "ansi");
    }

    #[test]
    fn stmt_id_displays_compactly() {
        let id = StmtId {
            seq: 3,
            target: "v".into(),
            action: IngestAction::Redefined,
            diagnostics: Vec::new(),
        };
        assert_eq!(id.to_string(), "#3 redefined v");
    }
}
