//! Wire-protocol pinning for `lineagex serve`.
//!
//! A scripted single-client session — every request kind, plus the
//! malformed-input error paths — is run against an in-process [`Server`]
//! and the full request/response transcript is pinned byte-for-byte in
//! `tests/golden/serve_proto.txt`. Protocol drift (field order, error
//! codes, revision stamping) without a `PROTOCOL_VERSION` bump fails CI.
//!
//! Regenerate intentionally with
//! `UPDATE_GOLDEN=1 cargo test --test serve_protocol`.
//!
//! Beyond the golden transcript:
//! * the transcript must be identical under `--jobs 1` and `--jobs 4`
//!   (server-side parallelism is invisible on the wire);
//! * a served `report` result must be byte-identical to what
//!   [`LineageView::report_v2`] serialises for the same statements —
//!   the *incremental ≡ batch* invariant extended to the wire;
//! * a request line nested too deeply to parse is an `invalid-request`
//!   reply, and the connection keeps serving.

use lineagex::datasets::example1;
use lineagex::prelude::*;
use lineagex::serve::proto::{QueryParams, Request};
use lineagex::serve::{Client, ServeOptions, Server};

const GOLDEN: &str = "tests/golden/serve_proto.txt";

const PIPELINE_SQL: &str = "CREATE TABLE web (cid int, date date, page text, reg boolean); \
     CREATE VIEW webinfo AS SELECT cid AS wcid, page AS wpage FROM web WHERE reg; \
     CREATE VIEW info AS SELECT wpage FROM webinfo;";

fn start(jobs: usize) -> Server {
    let options =
        ServeOptions { engine: EngineOptions { jobs, ..Default::default() }, ..Default::default() };
    Server::start("127.0.0.1:0", options).expect("server starts")
}

/// The scripted session: a mix of typed requests (rendered through
/// [`Request::to_line`], so the golden also pins the client-side
/// serialisation) and raw lines exercising the recovery paths.
fn script() -> Vec<String> {
    let typed: Vec<(u64, Request)> = vec![
        (1, Request::Ping),
        (2, Request::Ingest { sql: PIPELINE_SQL.to_string() }),
        (3, Request::Query(QueryParams { origins: vec!["web.page".into()], ..Default::default() })),
        (
            4,
            Request::Query(QueryParams {
                origins: vec!["info.wpage".into()],
                upstream: true,
                depth: Some(1),
                ..Default::default()
            }),
        ),
        (
            5,
            Request::Query(QueryParams {
                origins: vec!["web".into()],
                table_level: true,
                ..Default::default()
            }),
        ),
        (
            6,
            Request::Query(QueryParams {
                origins: vec!["web.page".into()],
                to: Some("info.wpage".into()),
                ..Default::default()
            }),
        ),
        (7, Request::Report),
        (8, Request::Stats),
        (9, Request::Diagnostics),
        (10, Request::Refresh),
        (11, Request::Drop { names: vec!["info".into()] }),
        (
            12,
            Request::Query(QueryParams { origins: vec!["web.page".into()], ..Default::default() }),
        ),
        (13, Request::Metrics),
    ];
    let mut lines: Vec<String> =
        typed.into_iter().map(|(id, request)| request.to_line(Some(id))).collect();
    // Error paths: framing failures (no id recoverable) ...
    lines.push("this is not json".to_string());
    lines.push("[1,2,3]".to_string());
    lines.push("{\"id\":\"twelve\",\"op\":\"ping\"}".to_string());
    // ... and body failures (id echoed back for correlation).
    lines.push("{\"id\":14,\"op\":\"frobnicate\"}".to_string());
    lines.push("{\"schema_version\":99,\"id\":15,\"op\":\"ping\"}".to_string());
    lines.push("{\"id\":16,\"op\":\"query\"}".to_string());
    lines.push("{\"id\":17,\"op\":\"ingest\"}".to_string());
    lines
        .push("{\"id\":18,\"op\":\"ingest\",\"sql\":\"CREATE VIEW broken AS SELEC;\"}".to_string());
    lines.push(Request::Shutdown.to_line(Some(19)));
    lines
}

/// Metric *values* vary run to run (wall-clock histograms, process-wide
/// counters shared across tests); the golden pins the *shape*. Within
/// the metrics reply's `result` object every JSON number token becomes
/// `0` and the timing-dependent `slow_ops` ring is emptied — the key
/// set, key order, and envelope survive byte-for-byte.
fn normalize_metrics_reply(line: &str) -> String {
    let marker = ",\"result\":";
    let Some(at) = line.find(marker) else { return line.to_string() };
    let start = at + marker.len();
    let end = line.len() - 1; // the envelope's closing '}'
    let mut result = String::with_capacity(end - start);
    let mut chars = line[start..end].chars().peekable();
    let mut in_string = false;
    let mut escaped = false;
    while let Some(c) = chars.next() {
        if in_string {
            result.push(c);
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                result.push(c);
            }
            '0'..='9' | '-' => {
                while chars
                    .peek()
                    .is_some_and(|n| n.is_ascii_digit() || matches!(n, '.' | 'e' | 'E' | '+' | '-'))
                {
                    chars.next();
                }
                result.push('0');
            }
            _ => result.push(c),
        }
    }
    // `slow_ops` is the snapshot's final field: truncate its entries.
    if let Some(open) = result.find("\"slow_ops\":[") {
        result.truncate(open + "\"slow_ops\":[".len());
        result.push_str("]}");
    }
    format!("{}{}{}", &line[..start], result, "}")
}

/// Run the scripted session against a fresh server, returning the
/// transcript: `>> request` / `<< response` line pairs.
fn transcript(jobs: usize) -> String {
    let server = start(jobs);
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    let mut out = String::new();
    for line in script() {
        let reply = client.send_line(&line).expect("server replies");
        let reply = if line.contains("\"op\":\"metrics\"") {
            normalize_metrics_reply(&reply.line)
        } else {
            reply.line
        };
        out.push_str(">> ");
        out.push_str(&line);
        out.push_str("\n<< ");
        out.push_str(&reply);
        out.push('\n');
    }
    server.wait();
    out
}

#[test]
fn wire_transcript_is_golden() {
    let rendered = transcript(1);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &rendered).expect("can write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file exists");
    assert_eq!(
        rendered, golden,
        "the serve wire transcript drifted from {GOLDEN}; the protocol is versioned — \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1 \
         (and bump PROTOCOL_VERSION if the shape changed)"
    );
}

#[test]
fn wire_transcript_is_independent_of_jobs() {
    // Server-side parallelism must be invisible on the wire: byte-equal
    // transcripts under a serial and a parallel engine.
    assert_eq!(transcript(1), transcript(4));
}

#[test]
fn golden_transcript_sanity() {
    // Spot-check the golden content so a bad regeneration cannot lock in
    // wrong protocol behaviour.
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file exists");
    let replies: Vec<&str> = golden.lines().filter_map(|l| l.strip_prefix("<< ")).collect();
    assert_eq!(replies.len(), script().len());
    // Framing failures reply with id null; body failures echo the id.
    assert!(golden.contains("\"id\":null,\"ok\":false"));
    assert!(golden.contains("\"code\":\"invalid-request\""));
    assert!(golden.contains("\"code\":\"unsupported-schema-version\""));
    assert!(golden.contains("\"code\":\"parse-error\""));
    // Every reply carries the envelope, in pinned field order.
    for reply in &replies {
        assert!(reply.starts_with("{\"schema_version\":3,\"id\":"), "bad envelope: {reply}");
        assert!(reply.contains("\"revision\":"), "unstamped reply: {reply}");
    }
    // The stats reply leads its engine block with the session's dialect.
    let stats = replies[7];
    assert!(stats.contains("\"engine\":{\"dialect\":\"ansi\""), "stats lacks dialect: {stats}");
    // The drop retracts `info`: the final query must not reach it.
    let last_query = replies[11];
    assert!(
        !last_query.contains("\"column\":\"info.wpage\""),
        "drop did not retract: {last_query}"
    );
    // The metrics reply pins every layer's key set, values normalized.
    let metrics = replies[12];
    assert!(metrics.contains("\"serve.requests\":0"), "unnormalized or missing: {metrics}");
    assert!(metrics.contains("\"engine.ingest_us\":{\"count\":0"), "{metrics}");
    assert!(metrics.contains("\"query.bfs_nodes\":0"), "{metrics}");
    assert!(metrics.contains("\"slow_ops\":[]"), "slow-op ring must be emptied: {metrics}");
}

#[test]
fn served_report_is_byte_identical_to_batch() {
    for jobs in [1, 4] {
        let server = start(jobs);
        let mut client = Client::connect(server.local_addr()).expect("client connects");
        let reply = client.ingest(&example1::full_log()).expect("ingest succeeds");
        assert!(reply.ok(), "ingest failed: {}", reply.line);
        let reply = client.report().expect("report succeeds");
        assert!(reply.ok(), "report failed: {}", reply.line);

        // The served result is the raw `result` object of the reply line
        // (the reply's final field) — not a reserialisation, so this
        // pins bytes, field order included.
        let marker = ",\"result\":";
        let at = reply.line.find(marker).expect("reply has a result field");
        let served = &reply.line[at + marker.len()..reply.line.len() - 1];

        let mut batch = lineagex(&example1::full_log()).expect("batch run succeeds");
        let report = batch.report_v2().expect("batch report succeeds");
        let expected = serde_json::to_string(&report).expect("report serialises");
        assert_eq!(served, expected, "served ReportV2 drifted from the batch serialisation");
        server.shutdown();
    }
}

#[test]
fn deeply_nested_request_is_rejected_and_the_connection_keeps_serving() {
    let server = start(1);
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    let reply = client.send_line(&"[".repeat(100_000)).expect("server replies");
    assert_eq!(reply.error_code().as_deref(), Some("invalid-request"), "{}", reply.line);
    assert!(
        reply.line.contains("\"id\":null"),
        "framing failure must not echo an id: {}",
        reply.line
    );
    let pong = client.request(&Request::Ping).expect("the same connection still serves");
    assert!(pong.ok(), "ping failed: {}", pong.line);
    server.shutdown();
}
