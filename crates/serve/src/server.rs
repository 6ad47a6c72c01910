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
//!   settled revision, and every response says which revision that was;
//! * an **accept thread** polls the listener so it can notice shutdown,
//!   and joins every connection thread before exiting (in-flight
//!   requests drain; no response is ever cut off mid-line).
//!
//! Failed writes publish nothing: the previous snapshot stays current
//! and the error reply carries its revision. One malformed request gets
//! one typed error reply and the connection (and every other client)
//! carries on.

use crate::proto::{
    Incoming, Payload, ReceiptRecord, Request, Response, StatsBody, WireError, WriteReceipt,
};
use lineagex_catalog::Catalog;
use lineagex_core::{DiagnosticCode, LineageError, QueryReport, ReportV2};
use lineagex_engine::{Engine, EngineOptions, EngineSnapshot};
use lineagex_obs::{Counter, Gauge, Histogram};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long a blocked read waits before re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Default [`ServeOptions::slow_ms`]: requests slower than this enter
/// the registry's slow-op ring (and the `--verbose` event log).
pub const DEFAULT_SLOW_MS: u64 = 100;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Engine options (worker threads per refresh, extraction options,
    /// AST cache size).
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

struct Shared {
    snapshot: RwLock<EngineSnapshot>,
    shutdown: AtomicBool,
    connections: AtomicU64,
    requests: AtomicU64,
    metrics: ServerMetrics,
    verbose: bool,
    slow_ms: u64,
}

impl Shared {
    fn current(&self) -> EngineSnapshot {
        self.snapshot.read().expect("snapshot lock poisoned").clone()
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
            snapshot: RwLock::new(initial),
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
        self.shared.snapshot.read().expect("snapshot lock poisoned").revision
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
/// revision `r` includes it.
fn engine_loop(mut engine: Engine, shared: Arc<Shared>, jobs: mpsc::Receiver<WriteJob>) {
    while let Ok(job) = jobs.recv() {
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
            *shared.snapshot.write().expect("snapshot lock poisoned") = snapshot.clone();
            if shared.verbose {
                eprintln!(
                    "[lineagex-serve] event=publish op={op} revision={} extracted={extracted}",
                    snapshot.revision
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
/// a partially received line is kept across polls, never dropped.
fn connection_loop(stream: TcpStream, shared: Arc<Shared>, write_tx: mpsc::Sender<WriteJob>) {
    // The stream inherits the listener's non-blocking mode on some
    // platforms; switch to blocking reads with a poll timeout.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let reader = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "unknown".into());
    let mut reader = BufReader::new(reader);
    let mut writer = stream;
    let mut line = String::new();
    shared.metrics.connections_total.inc();
    shared.metrics.connections_live.inc();
    if shared.verbose {
        eprintln!(
            "[lineagex-serve] event=conn_open peer={peer} live={}",
            shared.metrics.connections_live.get()
        );
    }
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(read) => {
                shared.metrics.bytes_in.add(read as u64);
                let stop = if line.trim().is_empty() {
                    false
                } else {
                    shared.requests.fetch_add(1, Ordering::Relaxed);
                    let (response, stop) = dispatch(line.trim(), &shared, &write_tx);
                    let out = response.to_line();
                    shared.metrics.bytes_out.add(out.len() as u64 + 1);
                    let wrote = writeln!(writer, "{out}").and_then(|()| writer.flush()).is_ok();
                    stop || !wrote
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

/// Answer one request line. Returns the response plus whether this
/// connection should stop serving (after acknowledging `shutdown`).
///
/// Accounting wraps the whole exchange: per-op latency histograms (the
/// `invalid` pseudo-op for unparsable lines), error counters by
/// [`DiagnosticCode`], and the slow-op ring for requests over the
/// configured threshold.
fn dispatch(line: &str, shared: &Shared, write_tx: &mpsc::Sender<WriteJob>) -> (Response, bool) {
    let start = Instant::now();
    let Incoming { id, request } = Request::parse_line(line);
    let (op, origins) = match &request {
        Ok(Request::Query(params)) => ("query", params.origins.len() as u64),
        Ok(request) => (request.op(), 0),
        Err(_) => ("invalid", 0),
    };
    let (response, stop) = match request {
        Ok(request) => handle(id, request, shared, write_tx),
        Err(error) => {
            let revision = shared.snapshot.read().expect("snapshot lock poisoned").revision;
            (Response::error(id, revision, error), false)
        }
    };
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
    (response, stop)
}

/// Execute one parsed request.
fn handle(
    id: Option<u64>,
    request: Request,
    shared: &Shared,
    write_tx: &mpsc::Sender<WriteJob>,
) -> (Response, bool) {
    match request {
        Request::Query(params) => {
            let snapshot = shared.current();
            let answer = params.spec().run_with(&snapshot.index);
            let report = QueryReport::from_answer(&answer)
                .with_context(&snapshot.graph, &snapshot.diagnostics);
            (Response::ok(id, snapshot.revision, Payload::Query(Box::new(report))), false)
        }
        Request::Report => {
            let snapshot = shared.current();
            let report = ReportV2::from_graph(&snapshot.graph, &snapshot.diagnostics);
            (Response::ok(id, snapshot.revision, Payload::Report(Box::new(report))), false)
        }
        Request::Stats => {
            let snapshot = shared.current();
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
            let snapshot = shared.current();
            let diagnostics = snapshot.diagnostics.as_ref().clone();
            (Response::ok(id, snapshot.revision, Payload::Diagnostics(diagnostics)), false)
        }
        Request::Metrics => {
            let revision = shared.snapshot.read().expect("snapshot lock poisoned").revision;
            let snapshot = lineagex_obs::registry().snapshot();
            (Response::ok(id, revision, Payload::Metrics(snapshot)), false)
        }
        Request::Ingest { sql } => (run_write(id, WriteCmd::Ingest(sql), shared, write_tx), false),
        Request::Refresh => (run_write(id, WriteCmd::Refresh, shared, write_tx), false),
        Request::Drop { names } => (run_write(id, WriteCmd::Drop(names), shared, write_tx), false),
        Request::Ping => {
            let revision = shared.snapshot.read().expect("snapshot lock poisoned").revision;
            (Response::ok(id, revision, Payload::Pong), false)
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            let revision = shared.snapshot.read().expect("snapshot lock poisoned").revision;
            (Response::ok(id, revision, Payload::Stopping), true)
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
) -> Response {
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
        Err(error) => {
            let revision = shared.snapshot.read().expect("snapshot lock poisoned").revision;
            Response::error(id, revision, error)
        }
    }
}
