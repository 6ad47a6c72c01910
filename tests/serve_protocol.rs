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
//!   reply, and the connection keeps serving;
//! * a published revision's `report` body is encoded once and reused
//!   byte for byte, and a write starts a fresh one;
//! * a request line of [`MAX_REQUEST_BYTES`] without a newline is an
//!   `invalid-request` reply, and the connection closes;
//! * in a lenient session where a write makes a view partial and a later
//!   write makes it clean again, every query reply is byte-identical to
//!   the owned reference an in-process engine builds at its revision;
//! * a client that pipelines requests and never reads the replies does
//!   not keep a shut-down server from stopping.

use lineagex::core::ExtractOptions;
use lineagex::datasets::{example1, generator, GeneratorConfig};
use lineagex::prelude::*;
use lineagex::serve::proto::{Payload, QueryParams, Request, Response, PROTOCOL_VERSION};
use lineagex::serve::{Client, ServeOptions, Server, MAX_REQUEST_BYTES};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

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
    // wrong protocol behaviour. Under UPDATE_GOLDEN=1 the file is being
    // rewritten by `wire_transcript_is_golden` on another thread, so check
    // the rendering it writes instead of a half-replaced file.
    let golden = if std::env::var_os("UPDATE_GOLDEN").is_some() {
        transcript(1)
    } else {
        std::fs::read_to_string(GOLDEN).expect("golden file exists")
    };
    let replies: Vec<&str> = golden.lines().filter_map(|l| l.strip_prefix("<< ")).collect();
    assert_eq!(replies.len(), script().len());
    // Framing failures reply with id null; body failures echo the id.
    assert!(golden.contains("\"id\":null,\"ok\":false"));
    assert!(golden.contains("\"code\":\"invalid-request\""));
    assert!(golden.contains("\"code\":\"unsupported-schema-version\""));
    assert!(golden.contains("\"code\":\"parse-error\""));
    // Every reply carries the envelope, in pinned field order.
    for reply in &replies {
        let envelope = format!("{{\"schema_version\":{PROTOCOL_VERSION},\"id\":");
        assert!(reply.starts_with(&envelope), "bad envelope: {reply}");
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

/// The `result` object of a reply line, as sent (its final field).
fn result_bytes(line: &str) -> &str {
    let marker = ",\"result\":";
    let at = line.find(marker).expect("reply has a result field");
    &line[at + marker.len()..line.len() - 1]
}

#[test]
fn report_body_is_encoded_once_per_revision() {
    // Only this test asks for a report twice at one revision, so the
    // process-wide hit counter moves only here.
    let hits = || lineagex::obs::registry().counter("serve.report_cache.hits").get();
    let server = start(1);
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    assert!(client.ingest(PIPELINE_SQL).expect("ingest succeeds").ok());
    let before = hits();
    let first = client.report().expect("report succeeds");
    let second = client.report().expect("report succeeds");
    assert!(first.ok() && second.ok(), "report failed: {}", first.line);
    assert_eq!(first.revision(), second.revision());
    assert_eq!(result_bytes(&first.line), result_bytes(&second.line));
    assert_eq!(hits() - before, 1, "the second report must reuse the first one's body");

    // A write publishes a new revision with a fresh body: the batch
    // replay of every statement so far.
    let write = "CREATE VIEW pages AS SELECT wpage, wcid FROM webinfo WHERE wcid > 0;";
    assert!(client.ingest(write).expect("ingest succeeds").ok());
    let third = client.report().expect("report succeeds");
    assert_eq!(third.revision(), first.revision() + 1);
    let mut batch = lineagex(&format!("{PIPELINE_SQL} {write}")).expect("batch run succeeds");
    let expected = serde_json::to_string(&batch.report_v2().expect("batch report succeeds"))
        .expect("report serialises");
    assert_eq!(result_bytes(&third.line), expected);
    assert_ne!(result_bytes(&third.line), result_bytes(&first.line));
    assert_eq!(hits() - before, 1, "a new revision's first report encodes afresh");
    server.shutdown();
}

#[test]
fn oversized_request_line_is_rejected_and_the_connection_closes() {
    let rejected = || lineagex::obs::registry().counter("serve.rejected.oversize").get();
    let before = rejected();
    let server = start(1);
    let mut stream = TcpStream::connect(server.local_addr()).expect("client connects");
    // Exactly the cap and no newline: the server has read every byte
    // when it rejects the line.
    let chunk = vec![b'x'; 1 << 16];
    for _ in 0..MAX_REQUEST_BYTES / chunk.len() {
        stream.write_all(&chunk).expect("the server reads up to the cap");
    }
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("the server replies");
    assert!(reply.contains("\"id\":null,\"ok\":false"), "{reply}");
    assert!(reply.contains("\"code\":\"invalid-request\""), "{reply}");
    assert!(reply.contains(&format!("exceeds {MAX_REQUEST_BYTES} bytes")), "{reply}");
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("the connection closes"), 0, "{rest}");
    assert_eq!(rejected() - before, 1);
    // Other connections keep serving.
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    assert!(client.request(&Request::Ping).expect("ping succeeds").ok());
    server.shutdown();
}

/// The `query` reply line an engine at `snapshot` answers, built the
/// owned way: `QueryReport::from_answer(..).with_context(..)`.
fn reference_query_line(snapshot: &EngineSnapshot, id: u64, params: &QueryParams) -> String {
    let answer = params.spec().run_with(&snapshot.index);
    let report =
        QueryReport::from_answer(&answer).with_context(&snapshot.graph, &snapshot.diagnostics);
    Response::ok(Some(id), snapshot.revision, Payload::Query(Box::new(report))).to_line()
}

#[test]
fn lenient_query_replies_match_the_reference_while_a_view_turns_partial_and_back() {
    let engine = EngineOptions {
        extract: ExtractOptions { lenient: true, ..Default::default() },
        ..Default::default()
    };
    let options = ServeOptions { engine: engine.clone(), ..Default::default() };
    let server = Server::start("127.0.0.1:0", options).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    let mut mirror = Engine::with_options(engine);
    let writes = [
        PIPELINE_SQL,
        // An unresolvable column makes `webinfo` partial ...
        "CREATE VIEW webinfo AS SELECT cid AS wcid, page AS wpage, ghost FROM web WHERE reg;",
        // ... and the original definition makes it clean again.
        "CREATE VIEW webinfo AS SELECT cid AS wcid, page AS wpage FROM web WHERE reg;",
    ];
    let queries = [
        QueryParams { origins: vec!["web.page".into()], ..Default::default() },
        QueryParams { origins: vec!["info.wpage".into()], upstream: true, ..Default::default() },
        QueryParams { origins: vec!["web".into()], table_level: true, ..Default::default() },
        QueryParams {
            origins: vec!["web.reg".into(), "web.page".into(), "ghost.col".into()],
            to: Some("info.wpage".into()),
            ..Default::default()
        },
    ];
    let mut partial = Vec::new();
    for (w, write) in writes.iter().enumerate() {
        let reply = client.ingest(write).expect("ingest succeeds");
        assert!(reply.ok(), "ingest failed: {}", reply.line);
        mirror.ingest(write).expect("the mirror ingests");
        let snapshot = mirror.publish().expect("the mirror publishes");
        assert_eq!(snapshot.revision, reply.revision(), "the mirror tracks the server");
        for (q, params) in queries.iter().enumerate() {
            let id = (100 * w + q) as u64;
            let served = client
                .send_line(&Request::Query(params.clone()).to_line(Some(id)))
                .expect("query succeeds");
            assert_eq!(served.line, reference_query_line(&snapshot, id, params), "write {w}");
        }
        let downstream = client.query(queries[0].clone()).expect("query succeeds");
        let listed = downstream.result().expect("a result")["partial_relations"].clone();
        partial.push((snapshot.partial_queries, listed.as_array().expect("a list").len()));
    }
    assert_eq!(partial, [(0, 0), (1, 1), (0, 0)], "webinfo turns partial, then clean again");
    server.shutdown();
}

#[test]
fn a_client_that_stops_reading_does_not_keep_the_server_from_stopping() {
    let timed_out = || lineagex::obs::registry().counter("serve.rejected.write_timeout").get();
    let before = timed_out();
    let server = start(1);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("client connects");
    let log = generator::generate(&GeneratorConfig { views: 120, ..GeneratorConfig::seeded(5) });
    assert!(client.ingest(&log.full_sql()).expect("ingest succeeds").ok());
    let body = client.report().expect("report succeeds").line.len();

    // A connection the server serves (its ping is answered) pipelines
    // far more reply bytes than any socket buffers hold, and never reads
    // them: the server answers every request it has read, so its writes
    // block once the buffers fill.
    let requests = 1_000;
    assert!(requests * body > 64 << 20, "{requests} replies of {body} bytes fill the buffers");
    let mut stuck = TcpStream::connect(addr).expect("client connects");
    writeln!(stuck, "{}", Request::Ping.to_line(None)).expect("ping is sent");
    let mut pong = String::new();
    BufReader::new(stuck.try_clone().expect("clones")).read_line(&mut pong).expect("pong");
    assert!(pong.contains("\"pong\":true"), "{pong}");
    let line = format!("{}\n", Request::Report.to_line(None));
    stuck.write_all(line.repeat(requests).as_bytes()).expect("the requests fit the buffers");

    assert!(client.shutdown().expect("shutdown is acknowledged").ok());
    let (stopped, wait) = mpsc::channel();
    std::thread::spawn(move || {
        server.wait();
        let _ = stopped.send(());
    });
    let bound = Duration::from_secs(60);
    assert!(
        wait.recv_timeout(bound).is_ok(),
        "the server was still running {bound:?} after acknowledging shutdown"
    );
    // The stuck connection closed on a timed-out reply send.
    assert!(timed_out() > before, "no reply send was counted as timed out");
    drop(stuck);
}
