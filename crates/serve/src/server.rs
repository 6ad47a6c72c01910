//! The concurrent TCP server.
//!
//! Threading model (one writer, lock-free readers):
//!
//! * an **engine thread** owns the mutable [`Engine`]. Every write
//!   (`ingest`, `refresh`, `drop`) funnels through one mpsc channel into
//!   it, settles, and publishes a fresh [`EngineSnapshot`] by swapping it
//!   into a shared slot — the serving half of the engine's
//!   swap-on-refresh protocol;
//! * **connection threads** answer reads (`query`, `report`, `stats`,
//!   `diagnostics`) against a clone of the published snapshot: cloning is
//!   a few `Arc` bumps under a read lock held for nanoseconds, and the
//!   traversal itself touches no lock at all. A slow ingest can never
//!   block a reader — readers just keep answering from the previous
//!   settled revision, and every response says which revision that was.
//!   A published revision never changes, so the first `report` request
//!   at it encodes the report body and every later one reuses the bytes;
//! * an **accept thread** polls the listener so it can notice shutdown,
//!   and joins every connection thread before exiting (in-flight
//!   requests drain; no response is ever cut off mid-line).
//!
//! A `query` reply is written from the traversal's id-level cone with
//! every name borrowed from the snapshot's index ([`ConeReport`]): no
//! owned answer is built. A reply send that moves no byte for 5 s (the
//! fixed write timeout) closes its connection.
//!
//! Failed writes publish nothing: the previous snapshot stays current
//! and the error reply carries its revision. One malformed request gets
//! one typed error reply and the connection (and every other client)
//! carries on; a request line longer than [`MAX_REQUEST_BYTES`] gets one
//! and the connection is closed.

use crate::proto::{
    Incoming, Payload, ReceiptRecord, Request, Response, StatsBody, WireError, WriteReceipt,
};
use lineagex_catalog::Catalog;
use lineagex_core::{ConeReport, DiagnosticCode, LineageError, ReportV2};
use lineagex_engine::{Engine, EngineOptions, EngineSnapshot};
use lineagex_obs::{Counter, Gauge, Histogram};
use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, OnceLock, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long a blocked read waits before re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// How long one send of a reply waits for the client to take bytes. A
/// send that moves none in this time fails the write and closes the
/// connection, so a client that stops reading holds its connection
/// thread, and a shutdown that joins it, for a bounded time: a few of
/// these, as a send that moved some bytes first returns them.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Default [`ServeOptions::slow_ms`]: requests slower than this enter
/// the registry's slow-op ring (and the `--verbose` event log).
pub const DEFAULT_SLOW_MS: u64 = 100;

/// The longest request line a connection reads, newline included:
/// 64 MiB, 40 times the ingest of a 20k-view log. A longer line is
/// answered with an `invalid-request` error and the connection is
/// closed, so a client that never sends a newline cannot grow the
/// server's memory without bound.
pub const MAX_REQUEST_BYTES: usize = 64 << 20;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Engine options (worker threads per refresh, extraction options).
    pub engine: EngineOptions,
    /// Base-table schemas to preload.
    pub catalog: Option<Catalog>,
    /// Log one structured line per server event (connection open/close,
    /// write publishes, slow requests) to stderr.
    pub verbose: bool,
    /// Threshold (in milliseconds) above which a handled request counts
    /// as slow: it is pushed into the observability registry's slow-op
    /// ring and, with `verbose`, logged as a `slow_request` event.
    pub slow_ms: u64,
    /// Restore the session from a binary snapshot
    /// ([`Engine::save_snapshot`]) instead of starting empty. A preload
    /// `catalog` is merged on top of the snapshot's catalog. Corrupt or
    /// version-mismatched files fail [`Server::start`] with a typed
    /// error instead of serving a half-loaded session.
    pub snapshot_path: Option<std::path::PathBuf>,
    /// Whether `engine.extract.dialect` was pinned explicitly (e.g. a
    /// `--dialect` flag). A pinned dialect must match a restored
    /// snapshot's recorded dialect or [`Server::start`] fails with a
    /// typed error; unpinned servers adopt the snapshot's dialect.
    pub dialect_pinned: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            engine: EngineOptions::default(),
            catalog: None,
            verbose: false,
            slow_ms: DEFAULT_SLOW_MS,
            snapshot_path: None,
            dialect_pinned: false,
        }
    }
}

/// Every `op` the wire knows, plus the `invalid` pseudo-op unparsable
/// requests are accounted under. Pre-registered at startup so the
/// metrics snapshot has a stable shape from the first request on.
const SERVE_OPS: [&str; 11] = [
    "diagnostics",
    "drop",
    "ingest",
    "invalid",
    "metrics",
    "ping",
    "query",
    "refresh",
    "report",
    "shutdown",
    "stats",
];

/// The [`DiagnosticCode`]s the serve layer itself can put on the wire,
/// pre-registered as `serve.errors.<code>` counters for a stable
/// snapshot shape. Codes outside this set register lazily.
const SERVE_ERROR_CODES: [DiagnosticCode; 5] = [
    DiagnosticCode::InvalidRequest,
    DiagnosticCode::UnsupportedSchemaVersion,
    DiagnosticCode::ParseError,
    DiagnosticCode::DependencyCycle,
    DiagnosticCode::ExtractionFailed,
];

/// Serve-layer handles into the process-wide metrics registry.
struct ServerMetrics {
    /// Requests handled (any op, success or error).
    requests: Counter,
    /// Connections accepted over the process lifetime.
    connections_total: Counter,
    /// Connections currently open.
    connections_live: Gauge,
    /// Request bytes read off the wire (including line terminators).
    bytes_in: Counter,
    /// Response bytes written to the wire (including line terminators).
    bytes_out: Counter,
    /// Per-op request latency histograms (`serve.op.<op>_us`).
    ops: Vec<(&'static str, Histogram)>,
    /// Error replies by code (`serve.errors.<code>`).
    errors: Vec<(DiagnosticCode, Counter)>,
    /// `report` replies that reused their revision's encoded body.
    report_cache_hits: Counter,
    /// Request lines rejected for exceeding [`MAX_REQUEST_BYTES`].
    rejected_oversize: Counter,
    /// Replies whose send moved no byte within [`WRITE_TIMEOUT`],
    /// closing their connection.
    rejected_write_timeout: Counter,
}

impl ServerMetrics {
    fn new() -> ServerMetrics {
        let registry = lineagex_obs::registry();
        ServerMetrics {
            requests: registry.counter("serve.requests"),
            connections_total: registry.counter("serve.connections"),
            connections_live: registry.gauge("serve.connections_live"),
            bytes_in: registry.counter("serve.bytes_in"),
            bytes_out: registry.counter("serve.bytes_out"),
            ops: SERVE_OPS
                .iter()
                .map(|op| (*op, registry.histogram(&format!("serve.op.{op}_us"))))
                .collect(),
            errors: SERVE_ERROR_CODES
                .iter()
                .map(|code| (*code, registry.counter(&format!("serve.errors.{}", code.as_str()))))
                .collect(),
            report_cache_hits: registry.counter("serve.report_cache.hits"),
            rejected_oversize: registry.counter("serve.rejected.oversize"),
            rejected_write_timeout: registry.counter("serve.rejected.write_timeout"),
        }
    }

    fn op_histogram(&self, op: &str) -> Histogram {
        match self.ops.iter().find(|(name, _)| *name == op) {
            Some((_, histogram)) => histogram.clone(),
            None => lineagex_obs::registry().histogram(&format!("serve.op.{op}_us")),
        }
    }

    fn error_counter(&self, code: DiagnosticCode) -> Counter {
        match self.errors.iter().find(|(known, _)| *known == code) {
            Some((_, counter)) => counter.clone(),
            None => lineagex_obs::registry().counter(&format!("serve.errors.{}", code.as_str())),
        }
    }
}

/// The published snapshot and its `report` body, encoded by the first
/// reader that asks for it and borrowed by every later reply at the same
/// snapshot.
#[derive(Clone)]
struct Published {
    snapshot: EngineSnapshot,
    report: Arc<OnceLock<String>>,
}

impl Published {
    fn new(snapshot: EngineSnapshot) -> Published {
        Published { snapshot, report: Arc::default() }
    }
}

struct Shared {
    published: RwLock<Published>,
    shutdown: AtomicBool,
    connections: AtomicU64,
    requests: AtomicU64,
    metrics: ServerMetrics,
    verbose: bool,
    slow_ms: u64,
}

impl Shared {
    fn current(&self) -> Published {
        self.published.read().expect("snapshot lock poisoned").clone()
    }

    fn revision(&self) -> u64 {
        self.published.read().expect("snapshot lock poisoned").snapshot.revision
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

enum WriteCmd {
    Ingest(String),
    Drop(Vec<String>),
    Refresh,
}

struct WriteJob {
    cmd: WriteCmd,
    reply: mpsc::Sender<Result<(u64, WriteReceipt), WireError>>,
}

/// A running `lineagex serve` instance.
///
/// Binds on [`Server::start`]; stops either from the wire (a `shutdown`
/// request, awaited by [`Server::wait`]) or in-process
/// ([`Server::shutdown`]). Both paths drain in-flight requests, join
/// every thread, and close the listener.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    engine: Option<JoinHandle<()>>,
    write_tx: Option<mpsc::Sender<WriteJob>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving on background threads. Returns once the listener is live.
    pub fn start(addr: &str, options: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Pin every metric name this process can emit (serve ops and
        // error codes here, query-layer names below, engine names at
        // engine construction) so `metrics` snapshots have a stable,
        // deterministic shape from the first request on.
        lineagex_core::query::register_metrics();
        let metrics = ServerMetrics::new();
        let mut engine = match &options.snapshot_path {
            Some(path) => {
                let loaded = if options.dialect_pinned {
                    Engine::load_snapshot(path, options.engine)
                } else {
                    Engine::load_snapshot_adopting(path, options.engine)
                };
                loaded.map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("snapshot {path:?}: {e}"))
                })?
            }
            None => Engine::with_options(options.engine),
        };
        if let Some(catalog) = options.catalog {
            if options.snapshot_path.is_some() {
                engine.merge_catalog(catalog);
            } else {
                engine = engine.with_catalog(catalog);
            }
        }
        let initial = engine.publish().map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("initial publish failed: {e}"))
        })?;
        let shared = Arc::new(Shared {
            published: RwLock::new(Published::new(initial)),
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            metrics,
            verbose: options.verbose,
            slow_ms: options.slow_ms,
        });
        let (write_tx, write_rx) = mpsc::channel::<WriteJob>();
        let engine_shared = Arc::clone(&shared);
        let engine_thread = thread::Builder::new()
            .name("lineagex-serve-engine".into())
            .spawn(move || engine_loop(engine, engine_shared, write_rx))?;
        let accept_shared = Arc::clone(&shared);
        let accept_tx = write_tx.clone();
        let accept_thread = thread::Builder::new()
            .name("lineagex-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, accept_tx))?;
        Ok(Server {
            local_addr,
            shared,
            accept: Some(accept_thread),
            engine: Some(engine_thread),
            write_tx: Some(write_tx),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The currently published settled-graph revision.
    pub fn revision(&self) -> u64 {
        self.shared.revision()
    }

    /// Block until a client asks for `shutdown` over the wire, then
    /// drain and stop. This is what `lineagex serve` sits in.
    pub fn wait(mut self) {
        self.finish(false);
    }

    /// Stop from in-process: drain in-flight requests, join every
    /// thread, close the listener.
    pub fn shutdown(mut self) {
        self.finish(true);
    }

    fn finish(&mut self, request_stop: bool) {
        if request_stop {
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // All connection threads are joined; dropping the last sender
        // ends the engine thread's recv loop.
        drop(self.write_tx.take());
        if let Some(engine) = self.engine.take() {
            let _ = engine.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.finish(true);
    }
}

/// The engine thread: the single writer. Settles each command, then
/// publishes the new snapshot *before* replying, so a client that saw
/// its write acknowledged at revision `r` knows every later read at
/// revision `r` includes it. The replaced snapshot is swapped out under
/// the write lock and retired: it is freed when the next write arrives,
/// so neither readers (waiting on the lock) nor the write's reply wait
/// on the free, and the free does not compete for the CPU with the
/// reads a client sends between writes. Every publish starts an empty
/// `report` body: a write that keeps the revision may still add a
/// session diagnostic, which the report carries.
fn engine_loop(mut engine: Engine, shared: Arc<Shared>, jobs: mpsc::Receiver<WriteJob>) {
    let mut retired: Option<Published> = None;
    while let Ok(job) = jobs.recv() {
        drop(retired.take());
        let op = match &job.cmd {
            WriteCmd::Ingest(_) => "ingest",
            WriteCmd::Drop(_) => "drop",
            WriteCmd::Refresh => "refresh",
        };
        let receipts = match job.cmd {
            WriteCmd::Ingest(sql) => engine.ingest(&sql),
            WriteCmd::Drop(names) => engine.ingest(&drop_script(&names)),
            WriteCmd::Refresh => Ok(Vec::new()),
        };
        let outcome = receipts.and_then(|receipts| {
            let before = engine.stats().extractions;
            let snapshot = engine.publish()?;
            let extracted = (engine.stats().extractions - before) as usize;
            retired = Some(std::mem::replace(
                &mut *shared.published.write().expect("snapshot lock poisoned"),
                Published::new(snapshot.clone()),
            ));
            if shared.verbose {
                let split = engine.last_publish_split();
                eprintln!(
                    "[lineagex-serve] event=publish op={op} revision={} extracted={extracted} \
                     graph_clone_us={} index_update_us={}",
                    snapshot.revision, split.graph_clone_us, split.index_update_us
                );
            }
            let receipts = receipts.iter().map(ReceiptRecord::from).collect();
            Ok((snapshot.revision, WriteReceipt { receipts, extracted }))
        });
        let _ = job.reply.send(outcome.map_err(|error| wire_error(&error)));
    }
}

fn drop_script(names: &[String]) -> String {
    names.iter().map(|name| format!("DROP VIEW IF EXISTS {name};")).collect::<Vec<_>>().join("\n")
}

fn wire_error(error: &LineageError) -> WireError {
    let code = match error {
        LineageError::Parse(_) => DiagnosticCode::ParseError,
        LineageError::DependencyCycle(_) => DiagnosticCode::DependencyCycle,
        _ => DiagnosticCode::ExtractionFailed,
    };
    WireError::new(code, error.to_string())
}

/// The accept thread: polls the (non-blocking) listener so the shutdown
/// flag is honoured promptly, spawns one thread per connection, and
/// joins them all before exiting.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>, write_tx: mpsc::Sender<WriteJob>) {
    listener.set_nonblocking(true).expect("listener supports non-blocking accept");
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.connections.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(&shared);
                let conn_tx = write_tx.clone();
                let worker = thread::Builder::new()
                    .name("lineagex-serve-conn".into())
                    .spawn(move || connection_loop(stream, conn_shared, conn_tx));
                match worker {
                    Ok(handle) => workers.push(handle),
                    Err(_) => thread::sleep(POLL_INTERVAL),
                }
            }
            Err(error)
                if matches!(error.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                thread::sleep(POLL_INTERVAL)
            }
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
        workers.retain(|worker| !worker.is_finished());
    }
    drop(listener);
    for worker in workers {
        let _ = worker.join();
    }
}

/// One connection: read JSON lines, answer each with exactly one line.
/// Reads poll with a timeout so an idle connection notices shutdown;
/// a partially received line is kept across polls, never dropped. A
/// line that reaches [`MAX_REQUEST_BYTES`] without its newline is
/// answered with an `invalid-request` error, and the connection closes,
/// as it does when a reply write times out ([`WRITE_TIMEOUT`]).
fn connection_loop(stream: TcpStream, shared: Arc<Shared>, write_tx: mpsc::Sender<WriteJob>) {
    // The stream inherits the listener's non-blocking mode on some
    // platforms; switch to blocking reads with a poll timeout.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let reader = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "unknown".into());
    let mut reader = BufReader::new(reader);
    let mut writer = stream;
    let mut line: Vec<u8> = Vec::new();
    shared.metrics.connections_total.inc();
    shared.metrics.connections_live.inc();
    if shared.verbose {
        eprintln!(
            "[lineagex-serve] event=conn_open peer={peer} live={}",
            shared.metrics.connections_live.get()
        );
    }
    loop {
        // `line` never holds `MAX_REQUEST_BYTES` here: a line that reaches
        // it is rejected below.
        let room = (MAX_REQUEST_BYTES - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(read) => {
                shared.metrics.bytes_in.add(read as u64);
                if line.len() == MAX_REQUEST_BYTES && line.last() != Some(&b'\n') {
                    reject_oversize(&shared, &mut reader, &mut writer);
                    break;
                }
                // Lines that are not UTF-8 close the connection.
                let Ok(text) = std::str::from_utf8(&line) else { break };
                let stop = if text.trim().is_empty() {
                    false
                } else {
                    shared.requests.fetch_add(1, Ordering::Relaxed);
                    let (written, stop) = dispatch(text.trim(), &shared, &write_tx, &mut writer);
                    !written || stop
                };
                line.clear();
                if stop {
                    break;
                }
            }
            Err(error)
                if matches!(error.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                // Only bail between requests: a partial line means the
                // client is mid-send, so keep draining it even during
                // shutdown.
                if shared.stopping() && line.is_empty() {
                    break;
                }
            }
            Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    shared.metrics.connections_live.dec();
    if shared.verbose {
        eprintln!(
            "[lineagex-serve] event=conn_close peer={peer} live={}",
            shared.metrics.connections_live.get()
        );
    }
}

/// Write one response line from its [`Response::line_parts`], all parts
/// and the newline in one vectored write; returns whether the write
/// succeeded. A reused `report` body goes to the connection as it is,
/// between the parts of the line around it, never copied into a line.
/// A send that times out ([`WRITE_TIMEOUT`]) counts in
/// `serve.rejected.write_timeout`.
fn write_line(shared: &Shared, writer: &mut TcpStream, line: (String, &str, &str)) -> bool {
    let (head, body, tail) = line;
    let mut parts = [head.as_str(), body, tail, "\n"].map(|part| IoSlice::new(part.as_bytes()));
    shared.metrics.bytes_out.add(parts.iter().map(|part| part.len() as u64).sum());
    let mut unsent = &mut parts[..];
    while !unsent.is_empty() {
        match writer.write_vectored(unsent) {
            Ok(0) => return false,
            Ok(sent) => IoSlice::advance_slices(&mut unsent, sent),
            Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
            Err(error) => {
                if matches!(error.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) {
                    shared.metrics.rejected_write_timeout.inc();
                }
                return false;
            }
        }
    }
    true
}

/// Answer a line that reached [`MAX_REQUEST_BYTES`] without a newline:
/// count it, send an `invalid-request` error, end the write side, and
/// discard what the client still sends (bounded by one more cap), so
/// closing with unread input does not reset the connection before the
/// client reads the error.
fn reject_oversize(shared: &Shared, reader: &mut BufReader<TcpStream>, writer: &mut TcpStream) {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    shared.metrics.requests.inc();
    shared.metrics.rejected_oversize.inc();
    shared.metrics.error_counter(DiagnosticCode::InvalidRequest).inc();
    let error = WireError::new(
        DiagnosticCode::InvalidRequest,
        format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
    );
    if write_line(shared, writer, Response::error(None, shared.revision(), error).line_parts()) {
        let _ = writer.shutdown(Shutdown::Write);
        let _ = io::copy(&mut reader.take(MAX_REQUEST_BYTES as u64), &mut io::sink());
    }
}

/// Answer one request line and write the reply. Returns whether the
/// reply was written and whether this connection should stop serving
/// (after acknowledging `shutdown`).
///
/// Accounting wraps the exchange up to the reply's rendered text, not
/// its write to the connection: per-op latency histograms (the `invalid`
/// pseudo-op for unparsable lines), error counters by
/// [`DiagnosticCode`], and the slow-op ring for requests over the
/// configured threshold.
fn dispatch(
    line: &str,
    shared: &Shared,
    write_tx: &mpsc::Sender<WriteJob>,
    writer: &mut TcpStream,
) -> (bool, bool) {
    let start = Instant::now();
    let Incoming { id, request } = Request::parse_line(line);
    let (op, origins) = match &request {
        Ok(Request::Query(params)) => ("query", params.origins.len() as u64),
        Ok(request) => (request.op(), 0),
        Err(_) => ("invalid", 0),
    };
    let published = shared.current();
    let (response, stop) = match request {
        Ok(request) => handle(id, request, &published, shared, write_tx),
        Err(error) => (Response::error(id, shared.revision(), error), false),
    };
    let line = response.line_parts();
    let elapsed = start.elapsed();
    shared.metrics.requests.inc();
    shared.metrics.op_histogram(op).record_duration(elapsed);
    if let Err(error) = &response.body {
        shared.metrics.error_counter(error.code).inc();
    }
    if elapsed >= Duration::from_millis(shared.slow_ms) {
        lineagex_obs::registry().record_slow(op, elapsed, response.revision, origins);
        if shared.verbose {
            eprintln!(
                "[lineagex-serve] event=slow_request op={op} ms={} revision={}",
                elapsed.as_millis(),
                response.revision
            );
        }
    }
    (write_line(shared, writer, line), stop)
}

/// Execute one parsed request, answering reads from `published`.
fn handle<'a>(
    id: Option<u64>,
    request: Request,
    published: &'a Published,
    shared: &Shared,
    write_tx: &mpsc::Sender<WriteJob>,
) -> (Response<'a>, bool) {
    let Published { snapshot, report } = published;
    match request {
        Request::Query(params) => {
            let reply = ConeReport::new(&params.spec(), &snapshot.index).with_context(
                &snapshot.graph,
                snapshot.partial_queries,
                &snapshot.diagnostics,
            );
            (Response::ok(id, snapshot.revision, Payload::Cone(Box::new(reply))), false)
        }
        Request::Report => {
            if report.get().is_some() {
                shared.metrics.report_cache_hits.inc();
            }
            // The encoded `String` itself is kept, shrunk to its length:
            // copying it into another buffer would hold the body twice.
            let body = report.get_or_init(|| {
                let report = ReportV2::from_graph(&snapshot.graph, &snapshot.diagnostics)
                    .with_index(&snapshot.index);
                let mut body = serde_json::to_string(&report).expect("reports serialize");
                body.shrink_to_fit();
                body
            });
            (Response::ok(id, snapshot.revision, Payload::Encoded(body)), false)
        }
        Request::Stats => {
            let stats = StatsBody {
                graph: snapshot.graph.stats(),
                engine: snapshot.stats.clone(),
                entries: snapshot.entries,
                connections: shared.connections.load(Ordering::Relaxed),
                requests: shared.requests.load(Ordering::Relaxed),
            };
            (Response::ok(id, snapshot.revision, Payload::Stats(Box::new(stats))), false)
        }
        Request::Diagnostics => {
            let diagnostics = snapshot.diagnostics.as_ref().clone();
            (Response::ok(id, snapshot.revision, Payload::Diagnostics(diagnostics)), false)
        }
        Request::Metrics => {
            let snapshot = lineagex_obs::registry().snapshot();
            (Response::ok(id, shared.revision(), Payload::Metrics(snapshot)), false)
        }
        Request::Ingest { sql } => (run_write(id, WriteCmd::Ingest(sql), shared, write_tx), false),
        Request::Refresh => (run_write(id, WriteCmd::Refresh, shared, write_tx), false),
        Request::Drop { names } => (run_write(id, WriteCmd::Drop(names), shared, write_tx), false),
        Request::Ping => (Response::ok(id, shared.revision(), Payload::Pong), false),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            (Response::ok(id, shared.revision(), Payload::Stopping), true)
        }
    }
}

/// Funnel one write through the engine channel and wait for it to
/// settle. A failed write replies with the *previous* (still published)
/// revision — nothing was swapped.
fn run_write(
    id: Option<u64>,
    cmd: WriteCmd,
    shared: &Shared,
    write_tx: &mpsc::Sender<WriteJob>,
) -> Response<'static> {
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = WriteJob { cmd, reply: reply_tx };
    let outcome = match write_tx.send(job) {
        Ok(()) => match reply_rx.recv() {
            Ok(outcome) => outcome,
            Err(_) => {
                Err(WireError::new(DiagnosticCode::ExtractionFailed, "server is shutting down"))
            }
        },
        Err(_) => Err(WireError::new(DiagnosticCode::ExtractionFailed, "server is shutting down")),
    };
    match outcome {
        Ok((revision, receipt)) => Response::ok(id, revision, Payload::Write(receipt)),
        Err(error) => Response::error(id, shared.revision(), error),
    }
}
