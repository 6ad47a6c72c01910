//! The versioned JSON-lines wire protocol.
//!
//! One request per line, one response per line. Every message is a JSON
//! object; requests carry an `op` discriminator plus op-specific fields,
//! responses carry `schema_version`, the echoed request `id`, an `ok`
//! flag, the settled-graph `revision` the answer was computed from, and
//! either a `result` or a typed `error` (reusing
//! [`DiagnosticCode`] — malformed input is `invalid-request`, a version
//! mismatch is `unsupported-schema-version`).
//!
//! Versioning follows the [`ReportV2`] convention: the envelope's
//! [`PROTOCOL_VERSION`] covers the framing; the documents nested under
//! `result` (query reports, the full report) keep their own
//! `schema_version: 2` and stay byte-identical to what the in-process
//! [`LineageView`](lineagex_core::LineageView) surface serialises.
//!
//! Requests are parsed by hand from [`serde_json::Value`] (the vendored
//! shim has no `Deserialize` derive); responses serialize through typed
//! structs so field order is declaration order, never map order.

use lineagex_core::{
    ConeReport, Diagnostic, DiagnosticCode, EdgeKind, GraphStats, QueryReport, QuerySpec, ReportV2,
};
use lineagex_engine::{EngineStats, IngestAction, StmtId};
use lineagex_obs::MetricsSnapshot;
use serde::{Serialize, Serializer};
use serde_json::Value;

/// The protocol envelope version this crate speaks.
///
/// History: `1` — the PR 6 launch surface; `2` — adds the `metrics` op
/// (a deterministic-shaped snapshot of the process-wide observability
/// registry); `3` — the `stats` reply's `engine` block leads with the
/// session's pinned SQL `dialect` (and the engine's metrics registry
/// grew `engine.dialect` / `sqlparse.dialect_fallbacks`, visible through
/// the `metrics` op); `4` — the engine stopped caching parsed scripts,
/// so the `stats` reply's `engine` block drops its two cache hit/miss
/// fields and the `metrics` op its two matching counters; `5` — the
/// engine maintains its traversal index instead of invalidating it, so
/// the `metrics` op drops the `engine.index_invalidations` counter and
/// gains the `engine.graph_clone_us` and `engine.index_update_us`
/// histograms; `6` — the server encodes each published revision's
/// `report` body once and rejects oversized request lines, so the
/// `metrics` op gains the `serve.report_cache.hits` and
/// `serve.rejected.oversize` counters; `7` — a refresh extracts each
/// dirty component on the deferral stack instead of in topological
/// levels, so the `metrics` op drops the `engine.refresh_level_us`
/// histogram, and gains the `serve.rejected.write_timeout` counter of
/// replies whose send timed out; `8` — the batch pipeline records its
/// stages, so the `metrics` op gains the `core.dict_us`,
/// `core.infer_us`, `core.components` and `core.serialize_us`
/// histograms.
pub const PROTOCOL_VERSION: u32 = 8;

/// A typed service error: a [`DiagnosticCode`] plus a human message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct WireError {
    /// The machine-readable code (kebab-case on the wire).
    pub code: DiagnosticCode,
    /// What went wrong, for humans.
    pub message: String,
}

impl WireError {
    /// Build an error.
    pub fn new(code: DiagnosticCode, message: impl Into<String>) -> Self {
        WireError { code, message: message.into() }
    }

    fn invalid(message: impl Into<String>) -> Self {
        WireError::new(DiagnosticCode::InvalidRequest, message)
    }
}

/// Parameters of a `query` request — the wire form of [`QuerySpec`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryParams {
    /// Origin specs (`table.column`, or a bare relation name).
    pub origins: Vec<String>,
    /// Walk upstream instead of the default downstream.
    pub upstream: bool,
    /// Hop limit, when set.
    pub depth: Option<usize>,
    /// Restrict to one edge kind, when set.
    pub edge_kind: Option<EdgeKind>,
    /// Collapse to relation granularity.
    pub table_level: bool,
    /// Ask for the shortest path to this `table.column`.
    pub to: Option<String>,
}

impl QueryParams {
    /// Lower into the engine's [`QuerySpec`].
    pub fn spec(&self) -> QuerySpec {
        let mut spec = QuerySpec::new();
        for origin in &self.origins {
            spec = spec.from(origin);
        }
        spec = if self.upstream { spec.upstream() } else { spec.downstream() };
        if let Some(depth) = self.depth {
            spec = spec.max_depth(depth);
        }
        if let Some(kind) = self.edge_kind {
            spec = spec.edge_kind(kind);
        }
        if self.table_level {
            spec = spec.table_level();
        }
        if let Some(to) = &self.to {
            if let Some((table, column)) = to.rsplit_once('.') {
                spec = spec.to(table, column);
            }
        }
        spec
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Lock-free read: run a graph query against the published snapshot.
    Query(QueryParams),
    /// Lock-free read: the full [`ReportV2`] document.
    Report,
    /// Lock-free read: graph, engine, and server statistics.
    Stats,
    /// Lock-free read: session-level diagnostics.
    Diagnostics,
    /// Write (single-writer channel): ingest SQL text and settle.
    Ingest {
        /// The SQL script to ingest.
        sql: String,
    },
    /// Write: settle any pending work (usually a no-op: writes settle
    /// before replying).
    Refresh,
    /// Write: retract relations, as `DROP VIEW IF EXISTS …` would.
    Drop {
        /// Relations to drop.
        names: Vec<String>,
    },
    /// Lock-free read: a snapshot of the observability registry
    /// (counters, gauges, histogram summaries, recent slow ops).
    Metrics,
    /// Liveness probe; replies with the current revision.
    Ping,
    /// Ask the server to drain in-flight requests and stop.
    Shutdown,
}

/// A request line as received: the echoable `id` (when one could be
/// recovered) and the parse outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Incoming {
    /// The request id, when the line carried a well-formed one.
    pub id: Option<u64>,
    /// The parsed request, or the error to reply with.
    pub request: Result<Request, WireError>,
}

impl Request {
    /// The wire `op` discriminator.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Query(_) => "query",
            Request::Report => "report",
            Request::Stats => "stats",
            Request::Diagnostics => "diagnostics",
            Request::Ingest { .. } => "ingest",
            Request::Refresh => "refresh",
            Request::Drop { .. } => "drop",
            Request::Metrics => "metrics",
            Request::Ping => "ping",
            Request::Shutdown => "shutdown",
        }
    }

    /// Serialize as one request line (no trailing newline) — what a
    /// client writes. Only set fields are emitted, in a fixed order.
    pub fn to_line(&self, id: Option<u64>) -> String {
        let mut line = String::new();
        let s = &mut Serializer::compact(&mut line);
        s.begin_map();
        s.field("schema_version", &PROTOCOL_VERSION);
        if let Some(id) = id {
            s.field("id", &id);
        }
        s.field("op", self.op());
        match self {
            Request::Query(params) => {
                s.field("origins", &params.origins);
                if params.upstream {
                    s.field("direction", "upstream");
                }
                if let Some(depth) = params.depth {
                    s.field("depth", &depth);
                }
                if let Some(kind) = params.edge_kind {
                    s.field("edge_kind", edge_kind_str(kind));
                }
                if params.table_level {
                    s.field("table_level", &true);
                }
                if let Some(to) = &params.to {
                    s.field("to", to);
                }
            }
            Request::Ingest { sql } => s.field("sql", sql),
            Request::Drop { names } => s.field("names", names),
            _ => {}
        }
        s.end_map();
        line
    }

    /// Parse one request line. Framing problems (bad JSON, a non-object,
    /// a bad `id`) leave `id` as `None`; once the envelope is readable
    /// the id is recovered even when the body is rejected, so the error
    /// reply can still be correlated.
    pub fn parse_line(line: &str) -> Incoming {
        let value: Value = match serde_json::from_str(line) {
            Ok(value) => value,
            Err(error) => {
                return Incoming {
                    id: None,
                    request: Err(WireError::invalid(format!("malformed JSON: {error}"))),
                }
            }
        };
        if !value.is_object() {
            return Incoming {
                id: None,
                request: Err(WireError::invalid("request must be a JSON object")),
            };
        }
        let id = match value.get("id") {
            None => None,
            Some(raw) => match raw.as_u64() {
                Some(id) => Some(id),
                None => {
                    return Incoming {
                        id: None,
                        request: Err(WireError::invalid("`id` must be a non-negative integer")),
                    }
                }
            },
        };
        Incoming { id, request: parse_body(&value) }
    }
}

fn parse_body(value: &Value) -> Result<Request, WireError> {
    if let Some(raw) = value.get("schema_version") {
        match raw.as_u64() {
            Some(v) if v == u64::from(PROTOCOL_VERSION) => {}
            _ => {
                return Err(WireError::new(
                    DiagnosticCode::UnsupportedSchemaVersion,
                    format!("this server speaks protocol schema_version {PROTOCOL_VERSION}"),
                ))
            }
        }
    }
    let op = value
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| WireError::invalid("missing `op` field"))?;
    match op {
        "query" => parse_query(value).map(Request::Query),
        "report" => Ok(Request::Report),
        "stats" => Ok(Request::Stats),
        "diagnostics" => Ok(Request::Diagnostics),
        "ingest" => {
            let sql = value
                .get("sql")
                .and_then(Value::as_str)
                .ok_or_else(|| WireError::invalid("`ingest` needs a string `sql` field"))?;
            Ok(Request::Ingest { sql: sql.to_string() })
        }
        "refresh" => Ok(Request::Refresh),
        "drop" => {
            let names = string_list(value, "names")?;
            if names.is_empty() {
                return Err(WireError::invalid("`drop` needs a non-empty `names` list"));
            }
            Ok(Request::Drop { names })
        }
        "metrics" => Ok(Request::Metrics),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(WireError::invalid(format!("unknown op `{other}`"))),
    }
}

fn parse_query(value: &Value) -> Result<QueryParams, WireError> {
    let origins = string_list(value, "origins")?;
    if origins.is_empty() {
        return Err(WireError::invalid("`query` needs a non-empty `origins` list"));
    }
    let upstream = match value.get("direction").map(|d| d.as_str()) {
        None => false,
        Some(Some("downstream")) | Some(Some("down")) => false,
        Some(Some("upstream")) | Some(Some("up")) => true,
        Some(_) => {
            return Err(WireError::invalid("`direction` must be `downstream` or `upstream`"))
        }
    };
    let depth = match value.get("depth") {
        None => None,
        Some(raw) => Some(
            raw.as_u64()
                .map(|d| d as usize)
                .ok_or_else(|| WireError::invalid("`depth` must be a non-negative integer"))?,
        ),
    };
    let edge_kind = match value.get("edge_kind").map(|k| k.as_str()) {
        None => None,
        Some(Some("contribute")) => Some(EdgeKind::Contribute),
        Some(Some("reference")) => Some(EdgeKind::Reference),
        Some(Some("both")) => Some(EdgeKind::Both),
        Some(_) => {
            return Err(WireError::invalid(
                "`edge_kind` must be `contribute`, `reference`, or `both`",
            ))
        }
    };
    let table_level = match value.get("table_level") {
        None => false,
        Some(raw) => {
            raw.as_bool().ok_or_else(|| WireError::invalid("`table_level` must be a boolean"))?
        }
    };
    let to = match value.get("to") {
        None => None,
        Some(raw) => {
            let to = raw
                .as_str()
                .ok_or_else(|| WireError::invalid("`to` must be a `table.column` string"))?;
            if !to.contains('.') {
                return Err(WireError::invalid("`to` must be a `table.column` string"));
            }
            Some(to.to_string())
        }
    };
    Ok(QueryParams { origins, upstream, depth, edge_kind, table_level, to })
}

fn string_list(value: &Value, key: &str) -> Result<Vec<String>, WireError> {
    match value.get(key) {
        None => Ok(Vec::new()),
        Some(raw) => {
            let items = raw
                .as_array()
                .ok_or_else(|| WireError::invalid(format!("`{key}` must be a list of strings")))?;
            items
                .iter()
                .map(|item| {
                    item.as_str().map(str::to_string).ok_or_else(|| {
                        WireError::invalid(format!("`{key}` must be a list of strings"))
                    })
                })
                .collect()
        }
    }
}

fn edge_kind_str(kind: EdgeKind) -> &'static str {
    match kind {
        EdgeKind::Contribute => "contribute",
        EdgeKind::Reference => "reference",
        EdgeKind::Both => "both",
    }
}

/// The receipt for one statement of a settled `ingest`/`drop`, mirroring
/// the engine's [`StmtId`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReceiptRecord {
    /// Session-wide statement sequence number.
    pub seq: u64,
    /// The entry or relation the statement concerned.
    pub target: String,
    /// What the engine did (`defined`, `redefined`, `dropped`, …).
    pub action: String,
    /// Ingest-time diagnostics for this statement.
    pub diagnostics: Vec<Diagnostic>,
}

impl From<&StmtId> for ReceiptRecord {
    fn from(id: &StmtId) -> Self {
        let action = match id.action {
            IngestAction::Defined => "defined",
            IngestAction::Redefined => "redefined",
            IngestAction::Unchanged => "unchanged",
            IngestAction::Schema => "schema",
            IngestAction::Dropped => "dropped",
            IngestAction::Skipped => "skipped",
            IngestAction::Failed => "failed",
        };
        ReceiptRecord {
            seq: id.seq,
            target: id.target.clone(),
            action: action.to_string(),
            diagnostics: id.diagnostics.clone(),
        }
    }
}

/// The settled outcome of a write request.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WriteReceipt {
    /// Per-statement receipts (empty for a bare `refresh`).
    pub receipts: Vec<ReceiptRecord>,
    /// Extractions the settling refresh performed.
    pub extracted: usize,
}

/// The `stats` result body.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsBody {
    /// Settled-graph statistics.
    pub graph: GraphStats,
    /// Engine session counters.
    pub engine: EngineStats,
    /// Live Query-Dictionary entries.
    pub entries: usize,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Requests handled over the server's lifetime.
    pub requests: u64,
}

impl Serialize for StatsBody {
    fn serialize(&self, s: &mut Serializer<'_>) {
        // EngineStats lives in a serde-free crate; map it by hand.
        let e = &self.engine;
        s.begin_map();
        s.field("graph", &self.graph);
        s.key("engine");
        s.begin_map();
        s.field("dialect", &e.dialect);
        s.field("statements", &e.statements);
        s.field("defined", &e.defined);
        s.field("redefinitions", &e.redefinitions);
        s.field("unchanged", &e.unchanged);
        s.field("drops", &e.drops);
        s.field("parse_failures", &e.parse_failures);
        s.field("diagnostics", &e.diagnostics);
        s.field("extractions", &e.extractions);
        s.field("last_refresh_extractions", &e.last_refresh_extractions);
        s.field("refreshes", &e.refreshes);
        s.end_map();
        s.field("entries", &self.entries);
        s.key("server");
        s.begin_map();
        s.field("connections", &self.connections);
        s.field("requests", &self.requests);
        s.end_map();
        s.end_map();
    }
}

/// A successful response's `result` body.
#[derive(Debug, Clone)]
pub enum Payload<'a> {
    /// A [`QueryReport`] (`schema_version: 2`).
    Query(Box<QueryReport>),
    /// The same document written from the traversal's cone, every name
    /// borrowed from the index it ran over: how the server answers
    /// `query`.
    Cone(Box<ConeReport<'a>>),
    /// The full [`ReportV2`] document (`schema_version: 2`), rendered
    /// from the graph it borrows.
    Report(Box<ReportV2<'a>>),
    /// A body encoded earlier as compact JSON, written as it is: the
    /// server's once-per-revision `report` body, borrowed from where the
    /// server keeps it.
    Encoded(&'a str),
    /// Graph/engine/server statistics.
    Stats(Box<StatsBody>),
    /// Session-level diagnostics.
    Diagnostics(Vec<Diagnostic>),
    /// A settled write.
    Write(WriteReceipt),
    /// A snapshot of the process-wide observability registry.
    Metrics(MetricsSnapshot),
    /// A `ping` acknowledgement.
    Pong,
    /// A `shutdown` acknowledgement: the server is draining.
    Stopping,
}

impl Serialize for Payload<'_> {
    fn serialize(&self, s: &mut Serializer<'_>) {
        match self {
            Payload::Query(report) => report.serialize(s),
            Payload::Cone(report) => report.serialize(s),
            Payload::Report(report) => report.serialize(s),
            Payload::Encoded(body) => s.raw(body),
            Payload::Stats(stats) => stats.serialize(s),
            Payload::Diagnostics(diagnostics) => {
                s.begin_map();
                s.field("diagnostics", diagnostics);
                s.end_map();
            }
            Payload::Write(receipt) => receipt.serialize(s),
            Payload::Metrics(snapshot) => snapshot.serialize(s),
            Payload::Pong => {
                s.begin_map();
                s.field("pong", &true);
                s.end_map();
            }
            Payload::Stopping => {
                s.begin_map();
                s.field("stopping", &true);
                s.end_map();
            }
        }
    }
}

/// One response line: the envelope plus either a result or an error.
#[derive(Debug, Clone)]
pub struct Response<'a> {
    /// The echoed request id (absent when the request carried none or
    /// the line was too malformed to recover one).
    pub id: Option<u64>,
    /// The settled-graph revision this answer was computed from.
    pub revision: u64,
    /// The result or error body.
    pub body: Result<Payload<'a>, WireError>,
}

impl<'a> Response<'a> {
    /// A success response.
    pub fn ok(id: Option<u64>, revision: u64, payload: Payload<'a>) -> Self {
        Response { id, revision, body: Ok(payload) }
    }

    /// An error response.
    pub fn error(id: Option<u64>, revision: u64, error: WireError) -> Self {
        Response { id, revision, body: Err(error) }
    }

    /// Serialize as one compact line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("responses always serialize")
    }

    /// [`to_line`](Self::to_line)'s text in three parts, to be written in
    /// order, so a server can send a [`Payload::Encoded`] body without
    /// copying it into a line: for such a body, the envelope before it,
    /// the body, and the envelope's closing `}`; for any other response,
    /// the whole line and two empty parts.
    pub fn line_parts(&self) -> (String, &str, &'static str) {
        let Ok(Payload::Encoded(body)) = &self.body else {
            return (self.to_line(), "", "");
        };
        let mut head = String::new();
        let s = &mut Serializer::compact(&mut head);
        self.envelope(s);
        s.key("result");
        (head, body, "}")
    }

    /// Open the line's object and write the members before the body.
    fn envelope(&self, s: &mut Serializer<'_>) {
        s.begin_map();
        s.field("schema_version", &PROTOCOL_VERSION);
        s.field("id", &self.id);
        s.field("ok", &self.body.is_ok());
        s.field("revision", &self.revision);
    }
}

impl Serialize for Response<'_> {
    fn serialize(&self, s: &mut Serializer<'_>) {
        self.envelope(s);
        match &self.body {
            Ok(payload) => s.field("result", payload),
            Err(error) => s.field("error", error),
        }
        s.end_map();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_round_trips_through_the_wire() {
        let params = QueryParams {
            origins: vec!["web.page".into()],
            upstream: true,
            depth: Some(3),
            edge_kind: Some(EdgeKind::Contribute),
            table_level: false,
            to: Some("info.wpage".into()),
        };
        let line = Request::Query(params.clone()).to_line(Some(7));
        let incoming = Request::parse_line(&line);
        assert_eq!(incoming.id, Some(7));
        assert_eq!(incoming.request, Ok(Request::Query(params)));
    }

    #[test]
    fn every_op_round_trips() {
        let requests = vec![
            Request::Query(QueryParams { origins: vec!["t.a".into()], ..Default::default() }),
            Request::Report,
            Request::Stats,
            Request::Diagnostics,
            Request::Ingest { sql: "CREATE TABLE t (a int);".into() },
            Request::Refresh,
            Request::Drop { names: vec!["v".into()] },
            Request::Metrics,
            Request::Ping,
            Request::Shutdown,
        ];
        for request in requests {
            let line = request.to_line(Some(1));
            let incoming = Request::parse_line(&line);
            assert_eq!(incoming.request, Ok(request), "line: {line}");
        }
    }

    #[test]
    fn malformed_json_is_invalid_request() {
        let incoming = Request::parse_line("{not json");
        assert_eq!(incoming.id, None);
        assert_eq!(incoming.request.unwrap_err().code, DiagnosticCode::InvalidRequest);
    }

    #[test]
    fn unknown_schema_version_is_rejected_but_id_recovered() {
        let incoming = Request::parse_line(r#"{"schema_version":99,"id":4,"op":"ping"}"#);
        assert_eq!(incoming.id, Some(4));
        assert_eq!(incoming.request.unwrap_err().code, DiagnosticCode::UnsupportedSchemaVersion);
    }

    #[test]
    fn missing_origins_is_rejected() {
        let incoming = Request::parse_line(r#"{"op":"query"}"#);
        let error = incoming.request.unwrap_err();
        assert_eq!(error.code, DiagnosticCode::InvalidRequest);
        assert!(error.message.contains("origins"));
    }

    #[test]
    fn an_encoded_body_splits_the_line_around_itself() {
        let body = r#"{"schema_version":2,"nodes":[]}"#;
        let response = Response::ok(Some(3), 9, Payload::Encoded(body));
        let (head, parts_body, tail) = response.line_parts();
        assert_eq!(format!("{head}{parts_body}{tail}"), response.to_line());
        assert_eq!(parts_body, body);
        let pong = Response::ok(Some(3), 9, Payload::Pong);
        assert_eq!(pong.line_parts(), (pong.to_line(), "", ""));
    }

    #[test]
    fn response_lines_have_stable_field_order() {
        let response = Response::ok(Some(2), 5, Payload::Pong);
        assert_eq!(
            response.to_line(),
            format!(
                r#"{{"schema_version":{PROTOCOL_VERSION},"id":2,"ok":true,"revision":5,"result":{{"pong":true}}}}"#
            )
        );
        let response =
            Response::error(None, 0, WireError::new(DiagnosticCode::InvalidRequest, "nope"));
        assert_eq!(
            response.to_line(),
            format!(
                r#"{{"schema_version":{PROTOCOL_VERSION},"id":null,"ok":false,"revision":0,"error":{{"code":"invalid-request","message":"nope"}}}}"#
            )
        );
    }
}
