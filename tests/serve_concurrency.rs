//! The serve-layer concurrency battery.
//!
//! The correctness contract under fire: a reader that gets a response
//! stamped `revision: r` must see **exactly** the lineage a batch
//! `lineagex()` run over the statement prefix published as `r` would
//! serialise — never a torn graph, never a half-applied write. The soak
//! test hammers a live server with reader threads during churn ingest
//! and then replays every observed revision through the batch pipeline,
//! comparing bytes. The proptest interleaves one malformed request at an
//! arbitrary point in a scripted session and checks the other requests'
//! answers are untouched.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use lineagex::prelude::*;
use lineagex::serve::proto::{QueryParams, Request, PROTOCOL_VERSION};
use lineagex::serve::{Client, Reply, ServeOptions, Server};
use proptest::prelude::*;

/// The append-only churn workload: batch 1 seeds the base table, every
/// later batch chains one view onto the previous one, so any prefix is a
/// valid, settle-able script.
fn batches(total: usize) -> Vec<String> {
    let mut out = vec!["CREATE TABLE base (c0 int, c1 int, c2 int); \
              CREATE VIEW v1 AS SELECT c0 AS a1, c1 AS b1 FROM base;"
        .to_string()];
    for k in 2..=total {
        out.push(format!(
            "CREATE VIEW v{k} AS SELECT a{prev} AS a{k}, b{prev} AS b{k} FROM v{prev};",
            prev = k - 1
        ));
    }
    out
}

fn start(jobs: usize) -> Server {
    let options =
        ServeOptions { engine: EngineOptions { jobs, ..Default::default() }, ..Default::default() };
    Server::start("127.0.0.1:0", options).expect("server starts")
}

fn reader_params() -> QueryParams {
    QueryParams { origins: vec!["base.c0".into()], ..Default::default() }
}

/// The raw `result` object of a reply line — the reply's final field,
/// taken as a byte slice so no reserialisation can mask drift.
fn result_bytes(reply: &Reply) -> String {
    let marker = ",\"result\":";
    let at = reply.line.find(marker).unwrap_or_else(|| panic!("no result in: {}", reply.line));
    reply.line[at + marker.len()..reply.line.len() - 1].to_string()
}

/// What the batch pipeline serialises for one statement prefix: the
/// reader query's `QueryReport` and the full `ReportV2`, both compact —
/// exactly what the server embeds in its reply lines.
fn batch_expectation(prefix_sql: &str) -> (String, String) {
    let mut result = lineagex(prefix_sql).expect("prefix replays cleanly");
    let index = result.settled_index().expect("index builds");
    let answer = reader_params().spec().run_with(&index);
    let diagnostics = result.run_diagnostics();
    let graph = result.settled_graph().expect("graph settles");
    let query = QueryReport::from_answer(&answer).with_context(graph, &diagnostics);
    let report = ReportV2::from_graph(graph, &diagnostics);
    (
        serde_json::to_string(&query).expect("query serialises"),
        serde_json::to_string(&report).expect("report serialises"),
    )
}

/// One observed read: which revision stamped it, which op it was, and
/// the raw result bytes served.
struct Observation {
    revision: u64,
    op: &'static str,
    result: String,
}

fn soak(jobs: usize, readers: usize, total_batches: usize) {
    let server = start(jobs);
    let addr = server.local_addr();
    let done = Arc::new(AtomicBool::new(false));

    // Seed before spawning readers so no thread can observe revision 0
    // (the empty pre-seed snapshot has no prefix to replay).
    let script = batches(total_batches);
    let mut writer = Client::connect(addr).expect("writer connects");
    let mut revision_to_prefix: HashMap<u64, usize> = HashMap::new();
    let reply = writer.ingest(&script[0]).expect("seed ingest");
    assert!(reply.ok(), "seed failed: {}", reply.line);
    revision_to_prefix.insert(reply.revision(), 1);

    let mut handles = Vec::new();
    for _ in 0..readers {
        let done = Arc::clone(&done);
        handles.push(thread::spawn(move || {
            let mut client = Client::connect(addr).expect("reader connects");
            let mut seen = Vec::new();
            while !done.load(Ordering::Relaxed) {
                let reply = client.query(reader_params()).expect("query reply");
                assert!(reply.ok(), "query failed: {}", reply.line);
                seen.push(Observation {
                    revision: reply.revision(),
                    op: "query",
                    result: result_bytes(&reply),
                });
                let reply = client.report().expect("report reply");
                assert!(reply.ok(), "report failed: {}", reply.line);
                seen.push(Observation {
                    revision: reply.revision(),
                    op: "report",
                    result: result_bytes(&reply),
                });
            }
            seen
        }));
    }

    // Churn: one batch at a time through the single-writer channel, each
    // reply's revision recording which prefix that revision published.
    for (i, batch) in script.iter().enumerate().skip(1) {
        let reply = writer.ingest(batch).expect("churn ingest");
        assert!(reply.ok(), "churn batch {i} failed: {}", reply.line);
        revision_to_prefix.insert(reply.revision(), i + 1);
    }
    done.store(true, Ordering::Relaxed);

    let mut observations = Vec::new();
    for handle in handles {
        observations.extend(handle.join().expect("reader thread panicked"));
    }
    server.shutdown();
    assert!(!observations.is_empty(), "readers observed nothing");

    // Replay: every revision a reader ever saw must be one the writer's
    // receipts published, and its bytes must match the batch pipeline
    // over that exact statement prefix.
    let mut expected: HashMap<u64, (String, String)> = HashMap::new();
    for observation in &observations {
        let prefix = *revision_to_prefix
            .get(&observation.revision)
            .unwrap_or_else(|| panic!("reader saw unpublished revision {}", observation.revision));
        let (query, report) = expected
            .entry(observation.revision)
            .or_insert_with(|| batch_expectation(&script[..prefix].join(" ")));
        let want = if observation.op == "query" { query } else { report };
        assert_eq!(
            &observation.result, want,
            "{} at revision {} drifted from the batch replay of prefix {}",
            observation.op, observation.revision, prefix
        );
    }
}

#[test]
fn soak_readers_vs_churn_serial_engine() {
    soak(1, 4, 12);
}

#[test]
fn soak_readers_vs_churn_parallel_engine() {
    soak(4, 4, 12);
}

/// The scripted session for the malformed-interleaving property: ids
/// 1..=6, all reads after one seed write, so the expected replies are
/// position-independent.
fn scripted_requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Query(reader_params()),
        Request::Report,
        Request::Diagnostics,
        Request::Query(QueryParams {
            origins: vec!["v1.a1".into()],
            upstream: true,
            ..Default::default()
        }),
        Request::Ping,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One malformed line injected *anywhere* in a scripted session is
    /// answered with an error reply and perturbs nothing: every other
    /// request's reply is byte-identical to the uninterleaved run, and a
    /// second client connected at the same time sees clean answers too.
    #[test]
    fn malformed_request_never_perturbs_other_answers(
        position in 0usize..=6,
        garbage_kind in 0usize..4,
    ) {
        let garbage = match garbage_kind {
            0 => "{\"id\":99,\"op\":\"no-such-op\"}".to_string(),
            1 => "not even json".to_string(),
            2 => format!("{{\"schema_version\":{},\"id\":99,\"op\":\"ping\"}}", PROTOCOL_VERSION + 1),
            _ => "[\"an\",\"array\"]".to_string(),
        };

        let server = start(1);
        let addr = server.local_addr();
        let mut seeder = Client::connect(addr).expect("seeder connects");
        let reply = seeder.ingest(&batches(3).join(" ")).expect("seed ingest");
        prop_assert!(reply.ok(), "seed failed: {}", reply.line);

        // Baseline: the scripted session with no interference.
        let mut baseline = Client::connect(addr).expect("baseline connects");
        let mut clean = Vec::new();
        for (i, request) in scripted_requests().iter().enumerate() {
            let line = request.to_line(Some(i as u64 + 1));
            clean.push(baseline.send_line(&line).expect("baseline reply").line);
        }

        // The same session with garbage injected at `position`, while a
        // bystander client runs the same script concurrently.
        let bystander = thread::spawn(move || {
            let mut client = Client::connect(addr).expect("bystander connects");
            let mut seen = Vec::new();
            for (i, request) in scripted_requests().iter().enumerate() {
                let line = request.to_line(Some(i as u64 + 1));
                seen.push(client.send_line(&line).expect("bystander reply").line);
            }
            seen
        });
        let mut victim = Client::connect(addr).expect("victim connects");
        let mut dirty = Vec::new();
        for (i, request) in scripted_requests().iter().enumerate() {
            if i == position {
                let reply = victim.send_line(&garbage).expect("garbage is answered");
                prop_assert!(!reply.ok(), "garbage was accepted: {}", reply.line);
            }
            let line = request.to_line(Some(i as u64 + 1));
            dirty.push(victim.send_line(&line).expect("victim reply").line);
        }
        if position >= scripted_requests().len() {
            let reply = victim.send_line(&garbage).expect("garbage is answered");
            prop_assert!(!reply.ok(), "garbage was accepted: {}", reply.line);
        }
        let bystander_replies = bystander.join().expect("bystander panicked");

        prop_assert_eq!(&clean, &dirty, "garbage at {} perturbed the same connection", position);
        prop_assert_eq!(&clean, &bystander_replies, "garbage perturbed a concurrent client");
        server.shutdown();
    }
}
