//! Stress tests: pathologically deep and wide pipelines must extract
//! without stack overflow and in reasonable time — the explicit LIFO
//! deferral stack (not call-stack recursion) is what makes this safe.
//! The hammer test at the bottom adds the concurrency dimension: readers
//! pulling `settled_index()` while a writer churns redefinitions and
//! drops must never be served a stale index.

use lineagex::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

/// Build a linear chain `v_0 <- v_1 <- ... <- v_{n-1}` emitted in
/// **reverse** order, so every single view is deferred: the worst case for
/// the auto-inference stack.
fn deep_chain(depth: usize) -> String {
    let mut stmts = vec!["CREATE TABLE base (a int, b int);".to_string()];
    for i in (0..depth).rev() {
        let source = if i == 0 { "base".to_string() } else { format!("v_{}", i - 1) };
        stmts.push(format!("CREATE VIEW v_{i} AS SELECT * FROM {source};"));
    }
    stmts.join("\n")
}

#[test]
fn thousand_deep_reversed_chain_extracts() {
    let depth = 1000;
    let result = lineagex(&deep_chain(depth)).unwrap();
    assert_eq!(result.graph.queries.len(), depth);
    // Every view was deferred exactly once (the log is fully reversed).
    assert_eq!(result.deferrals.len(), depth - 1);
    // Lineage composed through the whole chain: the top view's column
    // points at its immediate upstream, and impact reaches end to end.
    let top = &result.graph.queries[&format!("v_{}", depth - 1)];
    assert_eq!(top.output_names(), vec!["a", "b"]);
    let impact = result.impact_of("base", "a");
    assert_eq!(impact.impacted().len(), depth, "one column per view");
    let farthest = impact.impacted().iter().map(|c| c.distance).max().unwrap();
    assert_eq!(farthest, depth);
}

#[test]
fn wide_fanout_extracts() {
    // One base table, 500 independent views reading it.
    let mut stmts = vec!["CREATE TABLE base (a int);".to_string()];
    for i in 0..500 {
        stmts.push(format!("CREATE VIEW w_{i} AS SELECT a AS a_{i} FROM base WHERE a > {i};"));
    }
    let result = lineagex(&stmts.join("\n")).unwrap();
    assert_eq!(result.graph.queries.len(), 500);
    assert!(result.deferrals.is_empty());
    let impact = result.impact_of("base", "a");
    assert_eq!(impact.impacted().len(), 500);
}

#[test]
fn wide_star_diamond() {
    // Diamond: base -> left/right -> join view, repeated 100 times.
    let mut stmts = vec!["CREATE TABLE base (k int, x int, y int);".to_string()];
    for i in 0..100 {
        stmts.push(format!("CREATE VIEW l_{i} AS SELECT k, x FROM base;"));
        stmts.push(format!("CREATE VIEW r_{i} AS SELECT k AS k2, y FROM base;"));
        stmts.push(format!(
            "CREATE VIEW top_{i} AS SELECT l.x, r.y FROM l_{i} l JOIN r_{i} r ON l.k = r.k2;"
        ));
    }
    let result = lineagex(&stmts.join("\n")).unwrap();
    assert_eq!(result.graph.queries.len(), 300);
    let impact = result.impact_of("base", "k");
    // k is referenced by every top view's join (through l/r columns).
    assert!(impact.impacted().len() >= 400, "got {}", impact.impacted().len());
}

#[test]
fn settled_index_is_never_stale_under_hammering() {
    // The maintained-index contract, under fire: between every
    // redefinition / DROP / refresh, `settled_index()` must hand out an
    // index that matches the graph *as settled at that moment* — an
    // index derived from anything but the current graph would leak a
    // previous round here.
    let engine = Arc::new(Mutex::new(Engine::new()));
    {
        let mut guard = engine.lock().unwrap();
        guard
            .ingest(
                "CREATE TABLE base (a int, b int);
                 CREATE VIEW hot AS SELECT a AS h_0 FROM base;
                 CREATE VIEW temp AS SELECT b AS t FROM base;",
            )
            .unwrap();
        guard.refresh().unwrap();
    }
    let done = Arc::new(AtomicBool::new(false));

    let mut readers = Vec::new();
    for _ in 0..3 {
        let engine = Arc::clone(&engine);
        let done = Arc::clone(&done);
        readers.push(thread::spawn(move || {
            let mut checks = 0usize;
            while !done.load(Ordering::Relaxed) {
                // Capture graph facts and the index under one lock hold,
                // so they describe the same settled state...
                let (hot_columns, has_temp, index) = {
                    let mut guard = engine.lock().unwrap();
                    let (hot_columns, has_temp) = {
                        let graph = guard.settled_graph().unwrap();
                        let names: Vec<String> = graph.queries["hot"]
                            .output_names()
                            .iter()
                            .map(|s| s.to_string())
                            .collect();
                        (names, graph.queries.contains_key("temp"))
                    };
                    (hot_columns, has_temp, guard.settled_index().unwrap())
                };
                // ... then verify the index against them outside it.
                for column in &hot_columns {
                    assert!(
                        index.lookup_column("hot", column).is_some(),
                        "index is stale: hot.{column} is settled but not indexed"
                    );
                }
                let round: usize = hot_columns[0][2..].parse().unwrap();
                if round > 0 {
                    let previous = format!("h_{}", round - 1);
                    assert!(
                        index.lookup_column("hot", &previous).is_none(),
                        "index is stale: hot.{previous} was redefined away"
                    );
                }
                assert_eq!(
                    index.lookup_column("temp", "t").is_some(),
                    has_temp,
                    "index disagrees with the graph about `temp` (round {round})"
                );
                checks += 1;
            }
            checks
        }));
    }

    for round in 1..=40 {
        let mut guard = engine.lock().unwrap();
        guard.ingest(&format!("CREATE VIEW hot AS SELECT a AS h_{round} FROM base;")).unwrap();
        if round % 2 == 1 {
            guard.ingest("DROP VIEW IF EXISTS temp;").unwrap();
        } else {
            guard.ingest("CREATE VIEW temp AS SELECT b AS t FROM base;").unwrap();
        }
        guard.refresh().unwrap();
        drop(guard);
        thread::yield_now();
    }
    done.store(true, Ordering::Relaxed);
    let total: usize = readers.into_iter().map(|r| r.join().expect("reader panicked")).sum();
    assert!(total > 0, "readers never got a look in");
}

#[test]
fn long_cycle_is_detected_not_overflowed() {
    // a_0 -> a_1 -> ... -> a_199 -> a_0.
    let n = 200;
    let mut stmts = Vec::new();
    for i in 0..n {
        stmts.push(format!("CREATE VIEW a_{i} AS SELECT * FROM a_{};", (i + 1) % n));
    }
    let err = lineagex(&stmts.join("\n")).unwrap_err();
    match err {
        LineageError::DependencyCycle(path) => {
            assert_eq!(path.len(), n + 1);
            assert_eq!(path.first(), path.last());
        }
        other => panic!("expected cycle, got {other}"),
    }
}
