//! `serve-10k`: one connection drives a `lineagex serve` child holding a
//! 10,000-view catalog in a closed loop of queries, ingests and report
//! bursts, then servers restart from the set-up `.lxsn`.
//!
//! The load generator and the server share one CPU: the loop never has
//! two runnable threads, and on a small machine unbound placement adds
//! a tail that is the scheduler's, not LineageX's.
//!
//! The traced run replays the loop's requests in-process against an
//! [`Engine`], making the calls the server makes, one span around each.

use crate::stats::{highest_percentile, mean, median, percentile};
use crate::trace::{Span, Tracer};
use crate::workload::{self, Op, OpStream};
use crate::{sys, Args, Outcome, SETUP_REPS};
use lineagex_core::{GraphIndex, QueryReport, ReportV2};
use lineagex_datasets::generator::{generate_scaled, ScaleConfig, ScaledWorkload};
use lineagex_engine::{Engine, EngineSnapshot};
use lineagex_serve::{Payload, QueryParams, Request, Response};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::Instant;

/// Server starts on the set-up snapshot per run.
const RESTARTS: usize = 3;

/// Queries checked byte for byte against an in-process reference.
const CHECKED_QUERIES: usize = 20;

/// Share of the loop's query replies a traced run compares with the
/// replay.
const REPLAY_SAMPLE: f64 = 0.1;

/// A `lineagex serve` child on an ephemeral port.
struct ServerChild {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl ServerChild {
    fn start(snapshot: Option<&Path>) -> Result<ServerChild, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut command = Command::new(exe);
        command.arg("serve-child");
        if let Some(path) = snapshot {
            command.arg("--load-snapshot").arg(path);
        }
        command.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::inherit());
        let mut child = command.spawn().map_err(|e| format!("cannot start a server: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        // "lineagex serving on <addr> (protocol schema_version N)"
        let addr = banner.strip_prefix("lineagex serving on ").and_then(|r| r.split(' ').next());
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                let addr = addr.to_string();
                Ok(ServerChild { child, addr, _stdout: stdout })
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("the server did not start: {banner:?}"))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the server to stop over the wire and wait for the process.
    fn stop(mut self) -> Result<(), String> {
        let stopped = Wire::connect(&self.addr)
            .and_then(|mut wire| wire.call(&Request::Shutdown.to_line(None)).map(|_| ()));
        let status = self.child.wait().map_err(|e| e.to_string())?;
        stopped?;
        status.success().then_some(()).ok_or_else(|| format!("the server exited with {status}"))
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        // Reached only when a run bails out early; `stop` already waited.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection that times raw request lines.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl Wire {
    fn connect(addr: &str) -> Result<Wire, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Wire { reader, writer, buf: Vec::new() })
    }

    /// Send one request line and return the reply line with the round
    /// trip in ms: from writing the request to reading the reply's last
    /// byte. Decoding happens after the clock stops.
    fn call(&mut self, line: &str) -> Result<(String, f64), String> {
        let mut request = String::with_capacity(line.len() + 1);
        request.push_str(line);
        request.push('\n');
        self.buf.clear();
        let started = Instant::now();
        self.writer.write_all(request.as_bytes()).map_err(|e| e.to_string())?;
        let read = self.reader.read_until(b'\n', &mut self.buf).map_err(|e| e.to_string())?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        if read == 0 || self.buf.last() != Some(&b'\n') {
            return Err("the server closed the connection".into());
        }
        self.buf.pop();
        let reply = String::from_utf8(std::mem::take(&mut self.buf)).map_err(|e| e.to_string())?;
        Ok((reply, ms))
    }
}

/// `"ok"` and `"revision"` of a reply envelope, read from its prefix
/// (`{"schema_version":..,"id":..,"ok":..,"revision":..,"result":..}`).
fn envelope(reply: &str) -> Option<(bool, u64)> {
    let head = &reply[..reply.len().min(160)];
    let ok = head.split_once("\"ok\":")?.1.starts_with("true");
    let revision = head.split_once("\"revision\":")?.1;
    let digits = revision.find(|c: char| !c.is_ascii_digit()).unwrap_or(revision.len());
    Some((ok, revision[..digits].parse().ok()?))
}

fn query_params(origin: &str, upstream: bool) -> QueryParams {
    QueryParams { origins: vec![origin.to_string()], upstream, ..Default::default() }
}

fn request_line(op: &Op, id: u64) -> String {
    match op {
        Op::Query { origin, upstream } => Request::Query(query_params(origin, *upstream)),
        Op::Ingest { sql, .. } => Request::Ingest { sql: sql.clone() },
        Op::Report => Request::Report,
    }
    .to_line(Some(id))
}

/// The query reply a server at `snapshot` sends, built in-process.
fn expected_query_line(snapshot: &EngineSnapshot, id: u64, origin: &str, upstream: bool) -> String {
    let answer = query_params(origin, upstream).spec().run_with(&snapshot.index);
    let report =
        QueryReport::from_answer(&answer).with_context(&snapshot.graph, &snapshot.diagnostics);
    Response::ok(Some(id), snapshot.revision, Payload::Query(Box::new(report))).to_line()
}

/// One timed loop request.
struct Sample {
    kind: &'static str,
    ms: f64,
}

/// What a set-up leaves for the timed loop.
struct SetUp {
    server: ServerChild,
    wire: Wire,
    /// The engine that wrote the snapshot; it answers the checks.
    mirror: Engine,
    scaled: ScaledWorkload,
    /// The server's revision after the last set-up ingest.
    revision: u64,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let cpus = sys::allowed_cpus().map_err(|e| format!("cannot read the CPU mask: {e}"))?;
    let cpu = *cpus.last().ok_or("no CPU is allowed")?;
    sys::bind_to_cpu(cpu).map_err(|e| format!("cannot bind to CPU {cpu}: {e}"))?;
    println!("serve-10k: load generator and server bound to CPU {cpu} of {cpus:?}");

    let config = workload::scale_config(args.seed, workload::SERVE_COMPONENTS);
    let snapshot_path = args.dir.join("serve.lxsn");
    let mut outcome = Outcome::default();

    // Set-up: generate, start the server, ingest per component, write
    // the snapshot. Repeated; the last set-up's server is the one timed.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut snapshot_revision = 0;
    let mut current: Option<SetUp> = None;
    for _ in 0..reps {
        if let Some(previous) = current.take() {
            drop(previous.wire);
            previous.server.stop()?;
        }
        let started = Instant::now();
        let scaled = generate_scaled(&config);
        let server = ServerChild::start(None)?;
        let mut wire = Wire::connect(&server.addr)?;
        let mut revision = 0;
        let mut replies = Vec::new();
        for script in workload::component_scripts(&scaled, &config) {
            let (reply, _) = wire.call(&Request::Ingest { sql: script }.to_line(None))?;
            replies.push(reply);
        }
        // The snapshot restarts load. A traced run builds it from an
        // engine that took the server's exact write sequence, so the
        // replay below starts at the server's revision.
        let mut engine = if args.trace {
            server_twin(&scaled, &config)?
        } else {
            let mut engine = Engine::new();
            engine.ingest(&scaled.full_sql()).map_err(|e| e.to_string())?;
            engine
        };
        engine.save_snapshot(&snapshot_path).map_err(|e| e.to_string())?;
        setup_s.push(started.elapsed().as_secs_f64());
        snapshot_revision = engine.revision();
        for reply in &replies {
            let env = envelope(reply);
            outcome.check(match env {
                Some((true, r)) if r == revision + 1 => None,
                _ => Some(format!("set-up ingest reply {env:?} after revision {revision}")),
            });
            revision = env.map_or(revision, |(_, r)| r);
        }
        current = Some(SetUp { server, wire, mirror: engine, scaled, revision });
    }
    let SetUp { server, mut wire, mut mirror, scaled, mut revision } = current.expect("one set-up");

    // The timed loop: whole blocks until `--seconds` have passed.
    let mut stream = OpStream::new(args.seed, workload::columns(&scaled, &config), &config);
    let mut sample_rng = StdRng::seed_from_u64(args.seed ^ 0xC0FFEE);
    let mut ops: Vec<Op> = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let mut replayed: Vec<(usize, String)> = Vec::new();
    let loop_started = Instant::now();
    while loop_started.elapsed().as_secs_f64() < args.seconds {
        for op in stream.next_block() {
            let index = ops.len();
            let (reply, ms) = wire.call(&request_line(&op, index as u64 + 1))?;
            samples.push(Sample { kind: op.kind(), ms });
            outcome.check(check_reply(&op, &reply, &mut revision, &config));
            if args.trace && matches!(op, Op::Query { .. }) && sample_rng.gen_bool(REPLAY_SAMPLE) {
                replayed.push((index, reply));
            }
            ops.push(op);
        }
    }
    let loop_s = loop_started.elapsed().as_secs_f64();

    let times = |kind: &str| -> Vec<f64> {
        samples.iter().filter(|s| s.kind == kind).map(|s| s.ms).collect()
    };
    let reads = times("query");
    println!(
        "loop: {} requests in {loop_s:.1} s at revision {revision} (one connection, closed loop)",
        samples.len()
    );
    for kind in ["query", "ingest", "report"] {
        println!("  {}", describe(kind, &times(kind)));
    }
    let read_p50 = percentile(&reads, 50.0)?;
    let busy_ms: f64 = samples.iter().map(|s| s.ms).sum();
    let peak_rss_mb =
        sys::peak_rss_kib(server.pid()).map_err(|e| format!("server memory: {e}"))? as f64 / 1024.0;
    print_server_split(&mut wire)?;

    if !args.trace {
        check_final_queries(args.seed, &mut wire, &mut mirror, &ops, revision, &mut outcome)?;
    }
    drop(wire);
    server.stop()?;

    let mut restart_ms = Vec::with_capacity(RESTARTS);
    let probe = Op::Query { origin: "t_c0.v1".into(), upstream: false };
    for _ in 0..RESTARTS {
        let started = Instant::now();
        let server = ServerChild::start(Some(&snapshot_path))?;
        let mut wire = Wire::connect(&server.addr)?;
        let (reply, _) = wire.call(&request_line(&probe, 1))?;
        restart_ms.push(started.elapsed().as_secs_f64() * 1e3);
        outcome.check(match envelope(&reply) {
            Some((true, r)) if r == snapshot_revision => None,
            env => Some(format!("restart reply {env:?}, expected revision {snapshot_revision}")),
        });
        drop(wire);
        server.stop()?;
    }
    println!(
        "restart (spawn `serve --load-snapshot` to first query reply): median {:.1} ms of {RESTARTS}",
        median(&restart_ms)
    );
    println!("set-up median {:.3} s of {}", median(&setup_s), setup_s.len());

    if args.trace {
        let start_revision =
            revision - ops.iter().filter(|op| op.kind() == "ingest").count() as u64;
        let loop_ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
        // A thread of its own, as the server answers on connection and
        // engine threads.
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    replay(
                        args,
                        mirror,
                        start_revision,
                        &ops,
                        &loop_ms,
                        &replayed,
                        &snapshot_path,
                        &mut outcome,
                    )
                })
                .join()
                .expect("the replay thread panicked")
        })?;
    } else {
        outcome.metric("setup_s", median(&setup_s), setup_s.len());
        outcome.metric("op_median_ms", read_p50, reads.len());
        outcome.metric("ops_per_s", samples.len() as f64 / (busy_ms / 1e3), samples.len());
        outcome.metric("peak_rss_mb", peak_rss_mb, 1);
    }
    Ok(outcome)
}

/// An engine that took the same writes as the server's set-up: the
/// initial publish, then one ingest and publish per component.
fn server_twin(scaled: &ScaledWorkload, config: &ScaleConfig) -> Result<Engine, String> {
    let mut engine = Engine::new();
    engine.publish().map_err(|e| e.to_string())?;
    for script in workload::component_scripts(scaled, config) {
        engine.ingest(&script).map_err(|e| e.to_string())?;
        engine.publish().map_err(|e| e.to_string())?;
    }
    Ok(engine)
}

/// Check one loop reply: `ok`, stamped with the current revision; a
/// write raises the revision by one and re-extracts exactly its cone;
/// a report carries the shape's counts.
fn check_reply(op: &Op, reply: &str, revision: &mut u64, config: &ScaleConfig) -> Option<String> {
    let Some((ok, stamped)) = envelope(reply) else {
        return Some(format!("unreadable {} reply", op.kind()));
    };
    if !ok {
        return Some(format!("{} failed: {}", op.kind(), &reply[..reply.len().min(300)]));
    }
    match op {
        Op::Ingest { depth, .. } => {
            if stamped != *revision + 1 {
                return Some(format!("write published revision {stamped} after {revision}"));
            }
            *revision = stamped;
            let value: Option<serde_json::Value> = serde_json::from_str(reply).ok();
            let extracted = value
                .as_ref()
                .and_then(|v| v.get("result"))
                .and_then(|r| r.get("extracted"))
                .and_then(serde_json::Value::as_u64);
            let cone = workload::cone_views(config, *depth) as u64;
            (extracted != Some(cone))
                .then(|| format!("write at depth {depth} extracted {extracted:?}, cone is {cone}"))
        }
        _ if stamped != *revision => {
            Some(format!("{} answered at revision {stamped}, expected {revision}", op.kind()))
        }
        Op::Report => crate::extract::check_counts(reply, &workload::shape_counts(config)),
        Op::Query { .. } => None,
    }
}

/// The sample count, highest supported percentile and mean of one
/// request kind.
fn describe(kind: &str, ms: &[f64]) -> String {
    let mut line = format!("{kind:<7} n={:<5} mean {:>9.3} ms", ms.len(), mean(ms));
    if let Ok(p50) = percentile(ms, 50.0) {
        line.push_str(&format!("  p50 {p50:>9.3} ms"));
    }
    match highest_percentile(ms) {
        Some((p, value)) if p > 50.0 => line.push_str(&format!("  p{p} {value:>9.3} ms")),
        Some(_) => {}
        None => line.push_str("  (under 20 samples: no percentile)"),
    }
    line
}

/// Read the server's own `metrics` op and print how each round trip
/// splits into server time and wire time. Its histograms are log₂
/// bucketed, so this cross-checks the client's figures; it is not a
/// metric.
fn print_server_split(wire: &mut Wire) -> Result<(), String> {
    let (reply, _) = wire.call(&Request::Metrics.to_line(None))?;
    let value: serde_json::Value = serde_json::from_str(&reply).map_err(|e| e.to_string())?;
    let histograms = value.get("result").and_then(|r| r.get("histograms"));
    println!("server-side (metrics op; p50 is a log2 bucket bound):");
    for name in [
        "serve.op.query_us",
        "serve.op.ingest_us",
        "serve.op.report_us",
        "engine.refresh_us",
        "engine.publish_us",
    ] {
        let Some(h) = histograms.and_then(|h| h.get(name)) else { continue };
        let field = |f: &str| h.get(f).and_then(serde_json::Value::as_u64).unwrap_or(0);
        let count = field("count");
        let mean_ms = field("sum") as f64 / count.max(1) as f64 / 1e3;
        println!(
            "  {name:<20} n={count:<5} mean {mean_ms:>9.3} ms  p50 <= {:.3} ms",
            field("p50") as f64 / 1e3
        );
    }
    Ok(())
}

/// Off the clock: replay the loop's writes into the set-up engine, then
/// ask the server a seeded sample of queries at its final revision and
/// compare each reply byte for byte with the in-process answer.
fn check_final_queries(
    seed: u64,
    wire: &mut Wire,
    mirror: &mut Engine,
    ops: &[Op],
    revision: u64,
    outcome: &mut Outcome,
) -> Result<(), String> {
    for op in ops {
        if let Op::Ingest { sql, .. } = op {
            mirror.ingest(sql).map_err(|e| e.to_string())?;
        }
    }
    // The mirror settled every write in one refresh, so only its
    // revision differs from the server's; replies carry the server's.
    let mut snapshot = mirror.publish().map_err(|e| e.to_string())?;
    snapshot.revision = revision;
    let queries: Vec<&Op> = ops.iter().filter(|op| op.kind() == "query").collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFACADE);
    for i in 0..CHECKED_QUERIES {
        let Op::Query { origin, upstream } = queries[rng.gen_range(0..queries.len())] else {
            unreachable!("filtered to queries")
        };
        let id = 1_000_000 + i as u64;
        let (reply, _) =
            wire.call(&Request::Query(query_params(origin, *upstream)).to_line(Some(id)))?;
        let expected = expected_query_line(&snapshot, id, origin, *upstream);
        outcome.check(
            (reply != expected).then(|| format!("query {origin} differs from the reference")),
        );
    }
    Ok(())
}

/// What the replayed engine thread returns for one write.
struct Published {
    snapshot: EngineSnapshot,
    spans: Vec<Span>,
    extracted: u64,
}

/// The server's engine thread, replayed: publish once, then settle and
/// publish each write, one span around each call, and send the new
/// snapshot back. Ends when the write channel closes.
fn engine_thread(
    mut engine: Engine,
    writes: mpsc::Receiver<(u64, String)>,
    done: mpsc::Sender<Result<Published, String>>,
) {
    let mut published = match engine.publish() {
        Ok(snapshot) => snapshot,
        Err(e) => {
            let _ = done.send(Err(e.to_string()));
            return;
        }
    };
    let _ =
        done.send(Ok(Published { snapshot: published.clone(), spans: Vec::new(), extracted: 0 }));
    for (id, sql) in writes {
        let mut t = Tracer::new();
        let result = (|| {
            t.time("engine.ingest", id, || engine.ingest(&sql)).map_err(|e| e.to_string())?;
            // What `Arc::make_mut` pays inside refresh while the published
            // snapshot still holds the graph.
            let copy = t.time("core.graph_clone", id, || (*published.graph).clone());
            drop(copy);
            let before = engine.stats().extractions;
            t.time("engine.refresh", id, || engine.refresh()).map_err(|e| e.to_string())?;
            let extracted = engine.stats().extractions - before;
            let graph = engine.graph().map_err(|e| e.to_string())?;
            drop(t.time("core.index_build", id, || GraphIndex::build(graph)));
            published =
                t.time("engine.publish", id, || engine.publish()).map_err(|e| e.to_string())?;
            Ok(extracted)
        })();
        let reply = result.map(|extracted| Published {
            snapshot: published.clone(),
            spans: t.spans().to_vec(),
            extracted,
        });
        if done.send(reply).is_err() {
            return;
        }
    }
}

/// The traced run: replay `ops` in-process against `engine` (which
/// starts at the server's set-up revision), a span around each call the
/// server makes, on the threads it makes them on: reads on this thread,
/// as on a connection thread, writes on an engine thread. Then restart
/// from the snapshot.
#[allow(clippy::too_many_arguments)]
fn replay(
    args: &Args,
    engine: Engine,
    start_revision: u64,
    ops: &[Op],
    loop_ms: &[f64],
    replayed: &[(usize, String)],
    snapshot_path: &Path,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let (write_tx, write_rx) = mpsc::channel::<(u64, String)>();
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(move || engine_thread(engine, write_rx, done_tx));
        let result = (|| {
            let next_published = || -> Result<Published, String> {
                done_rx.recv().map_err(|_| "the replay engine thread stopped".to_string())?
            };
            let mut snapshot = next_published()?.snapshot;
            outcome.check((snapshot.revision != start_revision).then(|| {
                format!(
                    "replay starts at revision {}, server at {start_revision}",
                    snapshot.revision
                )
            }));
            replay_requests(
                args,
                &mut snapshot,
                ops,
                loop_ms,
                replayed,
                snapshot_path,
                outcome,
                |id, sql| {
                    write_tx.send((id, sql.to_string())).map_err(|e| e.to_string())?;
                    next_published()
                },
            )
        })();
        drop(write_tx);
        result
    })
}

#[allow(clippy::too_many_arguments)]
fn replay_requests(
    args: &Args,
    snapshot: &mut EngineSnapshot,
    ops: &[Op],
    loop_ms: &[f64],
    replayed: &[(usize, String)],
    snapshot_path: &Path,
    outcome: &mut Outcome,
    mut write: impl FnMut(u64, &str) -> Result<Published, String>,
) -> Result<(), String> {
    let config = workload::scale_config(args.seed, workload::SERVE_COMPONENTS);
    let mut t = Tracer::new();
    let mut counts: Vec<(&str, f64)> = Vec::new();
    // Per query: the untraced round trip minus the traced calls of the
    // same request, which leaves the wire and the server's dispatch.
    let mut wire_ms: Vec<f64> = Vec::new();
    let mut sampled = replayed.iter().peekable();
    for (index, op) in ops.iter().enumerate() {
        let id = index as u64 + 1;
        match op {
            Op::Query { origin, upstream } => {
                let root = t.begin("serve.query", id);
                let first = t.spans().len();
                let spec = query_params(origin, *upstream).spec();
                let answer = t.time("query.run", id, || spec.run_with(&snapshot.index));
                let report = t.time("core.query_report", id, || {
                    QueryReport::from_answer(&answer)
                        .with_context(&snapshot.graph, &snapshot.diagnostics)
                });
                let line = t.time("serve.encode_query", id, || {
                    Response::ok(Some(id), snapshot.revision, Payload::Query(Box::new(report)))
                        .to_line()
                });
                t.end(root);
                let calls: f64 = t.spans()[first..].iter().map(Span::ms).sum();
                wire_ms.push(loop_ms[index] - calls);
                counts.push(("query.cone_columns", answer.columns.len() as f64));
                counts.push(("serve.reply_bytes", line.len() as f64));
                if let Some((_, reply)) = sampled.next_if(|(i, _)| *i == index) {
                    outcome.check(
                        (*reply != line).then(|| format!("query {id} differs from the replay")),
                    );
                }
            }
            Op::Ingest { depth, sql, .. } => {
                let root = t.begin("serve.ingest", id);
                let published = write(id, sql)?;
                t.adopt(root, published.spans);
                t.end(root);
                *snapshot = published.snapshot;
                counts.push(("engine.dirty_cone", published.extracted as f64));
                let cone = workload::cone_views(&config, *depth) as u64;
                outcome.check((published.extracted != cone).then(|| {
                    format!(
                        "replayed write at depth {depth} extracted {}, cone is {cone}",
                        published.extracted
                    )
                }));
            }
            Op::Report => {
                let root = t.begin("serve.report", id);
                t.time("core.stats", id, || drop(snapshot.graph.stats()));
                let report = t.time("core.report_build", id, || {
                    ReportV2::from_graph(&snapshot.graph, &snapshot.diagnostics)
                });
                let line = t.time("serve.encode_report", id, || {
                    Response::ok(Some(id), snapshot.revision, Payload::Report(Box::new(report)))
                        .to_line()
                });
                t.end(root);
                drop(line);
            }
        }
    }
    let snapshot_bytes = std::fs::metadata(snapshot_path).map_err(|e| e.to_string())?.len();
    for r in 0..RESTARTS {
        let root = t.begin("serve.restart", r as u64);
        let loaded = t.time("snapshot.load", r as u64, || {
            Engine::load_snapshot_adopting(snapshot_path, Default::default())
        });
        let mut loaded = loaded.map_err(|e| e.to_string())?;
        t.time("engine.first_publish", r as u64, || loaded.publish()).map_err(|e| e.to_string())?;
        t.end(root);
    }

    // Median per call with its call count; 0 for a call never made.
    let summarize = |values: Vec<f64>| match values.len() {
        0 => (0.0, 0),
        n => (median(&values), n),
    };
    let span = |name: &str| summarize(t.durations_ms(name));
    let count = |name: &str| {
        summarize(counts.iter().filter(|(n, _)| *n == name).map(|(_, v)| *v).collect())
    };
    let wire = summarize(wire_ms);
    let values = [
        ("core.stats_ms", span("core.stats")),
        ("core.report_build_ms", span("core.report_build")),
        ("query.run_ms", span("query.run")),
        ("query.cone_columns", count("query.cone_columns")),
        ("core.query_report_ms", span("core.query_report")),
        ("serve.encode_query_ms", span("serve.encode_query")),
        ("serve.reply_bytes", count("serve.reply_bytes")),
        ("serve.wire_ms", wire),
        ("engine.ingest_ms", span("engine.ingest")),
        ("engine.refresh_ms", span("engine.refresh")),
        ("engine.dirty_cone", count("engine.dirty_cone")),
        ("core.graph_clone_ms", span("core.graph_clone")),
        ("engine.publish_ms", span("engine.publish")),
        ("core.index_build_ms", span("core.index_build")),
        ("serve.encode_report_ms", span("serve.encode_report")),
        ("snapshot.load_ms", span("snapshot.load")),
        ("snapshot.bytes", (snapshot_bytes as f64, 1)),
        ("engine.first_publish_ms", span("engine.first_publish")),
    ];
    for (name, (value, n)) in values {
        outcome.metric(name, value, n);
    }
    let ms = |name: &str| span(name).0;
    let reads: Vec<f64> =
        ops.iter().zip(loop_ms).filter(|(op, _)| op.kind() == "query").map(|(_, ms)| *ms).collect();
    println!(
        "read: untraced median {:.3} ms = query.run {:.3} + core.query_report {:.3} + \
         serve.encode_query {:.3} + serve.wire_ms {:.3} (medians per request, so the sum is \
         approximate)",
        median(&reads),
        ms("query.run"),
        ms("core.query_report"),
        ms("serve.encode_query"),
        wire.0,
    );
    println!(
        "write: engine.ingest {:.1} + engine.refresh {:.1} (holds core.graph_clone {:.1}) + \
         engine.publish {:.1} (holds core.index_build {:.1}) ms",
        ms("engine.ingest"),
        ms("engine.refresh"),
        ms("core.graph_clone"),
        ms("engine.publish"),
        ms("core.index_build"),
    );
    for (name, _) in crate::PER_LAYER.iter().filter(|(n, _)| !values.iter().any(|(v, _)| v == n)) {
        // Batch-only stages: the service never runs them.
        outcome.metric(name, 0.0, 0);
    }
    crate::extract::write_trace(args, &t)
}

/// `serve-child [--load-snapshot <file>]`: `lineagex serve` on an
/// ephemeral local port, until a client asks it to stop.
pub fn child(argv: &[String]) -> ExitCode {
    let mut command: Vec<String> = ["serve", "--addr", "127.0.0.1:0"].map(String::from).to_vec();
    command.extend(argv.iter().cloned());
    match lineagex_cli::run(&command, &mut std::io::stdout()) {
        0 => ExitCode::SUCCESS,
        _ => ExitCode::FAILURE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_reads_ok_and_revision_from_the_reply_prefix() {
        let line = Response::ok(Some(7), 42, Payload::Pong).to_line();
        assert_eq!(envelope(&line), Some((true, 42)));
        assert_eq!(envelope("garbage"), None);
    }
}
