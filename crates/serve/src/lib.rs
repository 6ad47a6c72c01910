//! # lineagex-serve
//!
//! **Lineage as a service**: a long-lived, concurrent front end over the
//! incremental engine, speaking a versioned JSON-lines protocol over
//! TCP. The paper frames LineageX as infrastructure consumed by many
//! downstream tools — debugging, auditing, impact analysis — and this
//! crate is that serving layer:
//!
//! * [`proto`] — the wire protocol: typed requests/responses, protocol
//!   `schema_version`, and typed errors reusing
//!   [`DiagnosticCode`](lineagex_core::DiagnosticCode);
//! * [`server`] — the concurrent [`Server`]: reads execute lock-free
//!   against a published [`EngineSnapshot`](lineagex_engine::EngineSnapshot)
//!   (swap-on-refresh), writes funnel through a single channel into the
//!   engine thread, and every response is stamped with the settled-graph
//!   `revision` it was answered from;
//! * [`client`] — a small blocking [`Client`] for scripting and tests.
//!
//! The correctness contract, pinned by the workspace's serve test
//! battery: a response at revision `r` is byte-identical to what a batch
//! `LineageX::run` over the same statement prefix would serialise — the
//! PR 2 *incremental ≡ batch* invariant extended to the wire.
//!
//! Everything is `std` only (TcpListener, threads, channels): no
//! tokio, no new dependencies.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod client;
pub mod proto;
pub mod server;

/// Alias of [`Client`] for contexts (like the façade prelude) where the
/// bare name would read ambiguously.
pub use client::Client as ServeClient;
pub use client::{Client, Reply};
pub use proto::{
    Incoming, Payload, QueryParams, ReceiptRecord, Request, Response, StatsBody, WireError,
    WriteReceipt, PROTOCOL_VERSION,
};
pub use server::{ServeOptions, Server, DEFAULT_SLOW_MS, MAX_REQUEST_BYTES};

#[cfg(test)]
mod tests {
    use super::*;
    use lineagex_core::DiagnosticCode;

    fn pipeline_server() -> Server {
        let server = Server::start("127.0.0.1:0", ServeOptions::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let reply = client
            .ingest(
                "CREATE TABLE web (cid int, date date, page text, reg boolean);
                 CREATE VIEW webinfo AS SELECT cid AS wcid, page AS wpage FROM web WHERE reg;
                 CREATE VIEW info AS SELECT wpage FROM webinfo;",
            )
            .unwrap();
        assert!(reply.ok(), "seed ingest failed: {}", reply.line);
        server
    }

    #[test]
    fn serves_queries_over_tcp() {
        let server = pipeline_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let reply = client
            .query(QueryParams { origins: vec!["web.page".into()], ..Default::default() })
            .unwrap();
        assert!(reply.ok());
        assert!(reply.revision() > 0);
        let columns = reply.result().unwrap().get("columns").unwrap().as_array().unwrap();
        let reached: Vec<&str> =
            columns.iter().filter_map(|c| c.get("column").and_then(|v| v.as_str())).collect();
        assert!(reached.contains(&"webinfo.wpage"));
        assert!(reached.contains(&"info.wpage"));
        server.shutdown();
    }

    #[test]
    fn write_then_read_sees_the_new_revision() {
        let server = pipeline_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let before = client.ping().unwrap();
        let reply = client.ingest("CREATE VIEW extra AS SELECT wcid FROM webinfo;").unwrap();
        assert!(reply.ok());
        assert!(reply.revision() > before, "a settled write must bump the revision");
        let report = client.report().unwrap();
        assert_eq!(report.revision(), reply.revision());
        assert!(report.result().unwrap().get("queries").unwrap().get("extra").is_some());
        server.shutdown();
    }

    #[test]
    fn drop_retracts_and_failed_writes_keep_the_old_snapshot() {
        let server = pipeline_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let settled = client.ping().unwrap();
        // Strict-mode parse failure: nothing published, revision keeps.
        let bad = client.ingest("CREATE VIEW broken AS SELECT FROM FROM;").unwrap();
        assert!(!bad.ok());
        assert_eq!(bad.error_code().as_deref(), Some(DiagnosticCode::ParseError.as_str()));
        assert_eq!(client.ping().unwrap(), settled);
        // A drop settles and bumps.
        let dropped = client.drop_relations(&["info".to_string()]).unwrap();
        assert!(dropped.ok());
        assert!(dropped.revision() > settled);
        let report = client.report().unwrap();
        assert!(report.result().unwrap().get("queries").unwrap().get("info").is_none());
        server.shutdown();
    }

    #[test]
    fn malformed_lines_do_not_kill_the_connection() {
        let server = pipeline_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let reply = client.send_line("{this is not json").unwrap();
        assert!(!reply.ok());
        assert_eq!(reply.error_code().as_deref(), Some(DiagnosticCode::InvalidRequest.as_str()));
        // Same connection still answers.
        assert!(client.ping().is_ok());
        server.shutdown();
    }

    #[test]
    fn wire_shutdown_drains_and_stops() {
        let server = pipeline_server();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.wait());
        let mut client = Client::connect(addr).unwrap();
        let reply = client.shutdown().unwrap();
        assert!(reply.ok());
        handle.join().unwrap();
        // The listener is closed: new connections fail (possibly after
        // the OS drains its backlog; a request on them fails for sure).
        if let Ok(mut late) = Client::connect(addr) {
            assert!(late.ping().is_err());
        }
    }
}
