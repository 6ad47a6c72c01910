//! Round-trip tests: `parse(sql)` → `to_string()` → `parse` must yield an
//! identical AST. A fixed corpus covers every grammar production; a proptest
//! generator fuzzes expression shapes.

use lineagex_sqlparse::ast::*;
use lineagex_sqlparse::{parse_sql, parse_statement};
use proptest::prelude::*;

/// Assert one statement round-trips through the printer.
fn assert_roundtrip(sql: &str) {
    let first = parse_statement(sql).unwrap_or_else(|e| panic!("{sql}\n{e}"));
    let printed = first.to_string();
    let second = parse_statement(&printed)
        .unwrap_or_else(|e| panic!("printed SQL failed to parse:\n{printed}\n{e}"));
    assert_eq!(first, second, "round-trip mismatch\noriginal: {sql}\nprinted:  {printed}");
}

const CORPUS: &[&str] = &[
    "SELECT 1",
    "SELECT a, b AS bb, c cc FROM t",
    "SELECT * FROM t",
    "SELECT w.* FROM web w",
    "SELECT public.t.* FROM public.t",
    "SELECT DISTINCT a FROM t",
    "SELECT DISTINCT ON (a) a, b FROM t",
    "SELECT count(*) FROM t",
    "SELECT count(DISTINCT a) FROM t",
    "SELECT count(t.*) FROM t",
    "SELECT coalesce(a, b, 0) FROM t",
    "SELECT a FROM t WHERE a = 1 AND b <> 2 OR NOT c",
    "SELECT a FROM t WHERE a IS NULL",
    "SELECT a FROM t WHERE a IS NOT NULL",
    "SELECT a FROM t WHERE a IN (1, 2, 3)",
    "SELECT a FROM t WHERE a NOT IN (SELECT x FROM u)",
    "SELECT a FROM t WHERE a BETWEEN 1 AND 10",
    "SELECT a FROM t WHERE a NOT BETWEEN 1 AND 10",
    "SELECT a FROM t WHERE a LIKE 'x%'",
    "SELECT a FROM t WHERE a NOT ILIKE '%y'",
    "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id)",
    "SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u)",
    "SELECT a FROM t WHERE a = ANY (SELECT x FROM u)",
    "SELECT a FROM t WHERE a < ALL (SELECT x FROM u)",
    "SELECT CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' END FROM t",
    "SELECT CASE a WHEN 1 THEN 'one' END FROM t",
    "SELECT CAST(a AS integer) FROM t",
    "SELECT a::numeric(10, 2) FROM t",
    "SELECT EXTRACT(year FROM w.date) FROM web w",
    "SELECT SUBSTRING(a FROM 1 FOR 3) FROM t",
    "SELECT TRIM(a) FROM t",
    "SELECT TRIM(LEADING ' ' FROM a) FROM t",
    "SELECT POSITION('x' IN a) FROM t",
    "SELECT INTERVAL '1 day' FROM t",
    "SELECT INTERVAL '1' day FROM t",
    "SELECT a || b || 'suffix' FROM t",
    "SELECT -a, +b, 2 ^ 10, a % 3 FROM t",
    "SELECT (SELECT max(x) FROM u) AS mx FROM t",
    "SELECT (1, 2) FROM t",
    "SELECT ((a)) FROM t",
    "SELECT row_number() OVER (PARTITION BY dept ORDER BY salary DESC) FROM emp",
    "SELECT sum(x) OVER (ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) FROM t",
    "SELECT sum(x) OVER (RANGE BETWEEN 1 PRECEDING AND 2 FOLLOWING) FROM t",
    "SELECT sum(x) FILTER (WHERE x > 0) FROM t",
    "SELECT a FROM t1 JOIN t2 ON t1.id = t2.id",
    "SELECT a FROM t1 LEFT JOIN t2 USING (id, ts)",
    "SELECT a FROM t1 RIGHT JOIN t2 ON TRUE",
    "SELECT a FROM t1 FULL JOIN t2 ON t1.id = t2.id",
    "SELECT a FROM t1 CROSS JOIN t2",
    "SELECT a FROM t1 NATURAL JOIN t2",
    "SELECT a FROM t1, t2, t3 WHERE t1.x = t2.x",
    "SELECT a FROM (SELECT b AS a FROM u) AS sub",
    "SELECT a FROM (SELECT b FROM u) AS sub(a)",
    "SELECT a FROM (t1 JOIN t2 ON t1.id = t2.id) JOIN t3 ON t2.k = t3.k",
    "SELECT a FROM t, LATERAL (SELECT t.x AS y) AS l",
    "WITH c AS (SELECT 1 AS one) SELECT one FROM c",
    "WITH c(renamed) AS (SELECT 1) SELECT renamed FROM c",
    "WITH RECURSIVE r AS (SELECT 1 AS n UNION ALL SELECT n + 1 FROM r WHERE n < 5) SELECT * FROM r",
    "WITH a AS (SELECT 1 AS x), b AS (SELECT x FROM a) SELECT x FROM b",
    "SELECT 1 UNION SELECT 2",
    "SELECT 1 UNION ALL SELECT 2",
    "SELECT 1 INTERSECT SELECT 2",
    "SELECT 1 EXCEPT SELECT 2",
    "SELECT 1 UNION SELECT 2 INTERSECT SELECT 3",
    "(SELECT 1 UNION SELECT 2) INTERSECT SELECT 3",
    "SELECT a FROM t ORDER BY a",
    "SELECT a FROM t ORDER BY a DESC NULLS LAST, b ASC NULLS FIRST",
    "SELECT a FROM t LIMIT 10",
    "SELECT a FROM t LIMIT 10 OFFSET 20",
    "SELECT a FROM t GROUP BY a HAVING count(*) > 1",
    "SELECT dept, avg(salary) FROM emp GROUP BY dept",
    "VALUES (1, 'a'), (2, 'b')",
    "SELECT \"Mixed Case\" FROM \"Weird Table\"",
    "SELECT a FROM t WHERE ts > '2022-01-01'::timestamp",
    "CREATE VIEW v AS SELECT a FROM t",
    "CREATE OR REPLACE VIEW v(x, y) AS SELECT a, b FROM t",
    "CREATE MATERIALIZED VIEW mv AS SELECT a FROM t",
    "CREATE TEMPORARY VIEW tv AS SELECT a FROM t",
    "CREATE TABLE t (a integer, b character varying(20) NOT NULL)",
    "CREATE TABLE t (a integer PRIMARY KEY, b numeric(10, 2) DEFAULT 0)",
    "CREATE TABLE t (a integer REFERENCES u(id), CHECK (a > 0))",
    "CREATE TABLE t (a integer, PRIMARY KEY (a), UNIQUE (a), FOREIGN KEY (a) REFERENCES u (id))",
    "CREATE TABLE t2 AS SELECT * FROM t1",
    "CREATE TABLE IF NOT EXISTS t (a integer)",
    "INSERT INTO t (a, b) SELECT x, y FROM u",
    "INSERT INTO t VALUES (1, 2)",
    "DROP TABLE a, b",
    "DROP VIEW IF EXISTS v",
    "DROP MATERIALIZED VIEW mv",
    "SELECT a FROM t WHERE a IS DISTINCT FROM b",
    "SELECT a FROM t WHERE a IS NOT DISTINCT FROM b",
    "UPDATE t SET a = 1, b = c + 1",
    "UPDATE web AS w SET page = u.page FROM updates AS u WHERE w.cid = u.cid",
    "DELETE FROM t WHERE a > 0",
    "DELETE FROM web AS w USING retired AS r WHERE w.cid = r.cid",
    "SELECT a FROM t WHERE EXTRACT(year FROM w.date) = 2022",
];

#[test]
fn corpus_round_trips() {
    for sql in CORPUS {
        assert_roundtrip(sql);
    }
}

#[test]
fn multi_statement_script_round_trips() {
    let script = "CREATE VIEW a AS SELECT 1; CREATE VIEW b AS SELECT 2; SELECT * FROM a";
    let stmts = parse_sql(script).unwrap();
    assert_eq!(stmts.len(), 3);
    for stmt in stmts {
        let printed = stmt.to_string();
        assert_eq!(parse_statement(&printed).unwrap(), stmt);
    }
}

// ---- property-based round-trip over generated expression trees ----------

fn ident_strategy() -> impl Strategy<Value = Ident> {
    "[a-z][a-z0-9_]{0,8}"
        .prop_filter("not a keyword", |s| lineagex_sqlparse::keywords::Keyword::lookup(s).is_none())
        .prop_map(Ident::new)
}

fn literal_strategy() -> impl Strategy<Value = Literal> {
    prop_oneof![
        (0u64..1_000_000).prop_map(|n| Literal::Number(n.to_string())),
        "[a-zA-Z0-9 '%_-]{0,12}".prop_map(Literal::String),
        any::<bool>().prop_map(Literal::Boolean),
        Just(Literal::Null),
    ]
}

/// Generate expressions that print unambiguously: every composite operand is
/// wrapped in `Nested`, matching what the parser produces for parenthesised
/// input.
fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        ident_strategy().prop_map(Expr::Identifier),
        (ident_strategy(), ident_strategy())
            .prop_map(|(t, c)| Expr::CompoundIdentifier(vec![t, c])),
        literal_strategy().prop_map(Expr::Literal),
    ];
    leaf.prop_recursive(4, 24, 4, |inner| {
        let wrapped = inner.clone().prop_map(|e| match e {
            leaf @ (Expr::Identifier(_) | Expr::CompoundIdentifier(_) | Expr::Literal(_)) => leaf,
            other => Expr::Nested(Box::new(other)),
        });
        prop_oneof![
            (
                wrapped.clone(),
                prop_oneof![
                    Just(BinaryOperator::Plus),
                    Just(BinaryOperator::Multiply),
                    Just(BinaryOperator::Eq),
                    Just(BinaryOperator::And),
                    Just(BinaryOperator::Concat),
                ],
                wrapped.clone()
            )
                .prop_map(|(l, op, r)| Expr::BinaryOp {
                    left: Box::new(l),
                    op,
                    right: Box::new(r)
                }),
            wrapped.clone().prop_map(|e| Expr::IsNull { expr: Box::new(e), negated: false }),
            (ident_strategy(), proptest::collection::vec(wrapped.clone(), 0..3)).prop_map(
                |(name, args)| {
                    Expr::Function(Box::new(Function {
                        name: ObjectName(vec![name]),
                        args: args.into_iter().map(FunctionArg::Expr).collect(),
                        distinct: false,
                        filter: None,
                        over: None,
                    }))
                }
            ),
            (wrapped.clone(), wrapped.clone(), wrapped.clone()).prop_map(|(c, r, e)| {
                Expr::Case {
                    operand: None,
                    conditions: vec![c],
                    results: vec![r],
                    else_result: Some(Box::new(e)),
                }
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_expressions_round_trip(expr in expr_strategy()) {
        let sql = format!("SELECT {expr} FROM t");
        let stmt = parse_statement(&sql)
            .unwrap_or_else(|e| panic!("generated SQL failed to parse:\n{sql}\n{e}"));
        let Statement::Query(q) = &stmt else { panic!("expected query") };
        let SetExpr::Select(sel) = &q.body else { panic!("expected select") };
        let parsed_expr = match &sel.projection[0] {
            SelectItem::UnnamedExpr(e) => e,
            other => panic!("expected unnamed expr, got {other:?}"),
        };
        prop_assert_eq!(parsed_expr, &expr, "printed: {}", sql);
    }

    #[test]
    fn parser_never_panics_on_random_input(input in "[ -~]{0,80}") {
        // Any byte soup must yield Ok or Err, never a panic.
        let _ = parse_sql(&input);
    }

    #[test]
    fn parser_never_panics_on_sqlish_soup(
        words in proptest::collection::vec(
            prop_oneof![
                Just("SELECT".to_string()), Just("FROM".to_string()),
                Just("WHERE".to_string()), Just("JOIN".to_string()),
                Just("ON".to_string()), Just("(".to_string()), Just(")".to_string()),
                Just(",".to_string()), Just("*".to_string()), Just("=".to_string()),
                Just("t".to_string()), Just("a".to_string()), Just("1".to_string()),
                Just("UNION".to_string()), Just("WITH".to_string()), Just("AS".to_string()),
            ],
            0..20
        )
    ) {
        let sql = words.join(" ");
        let _ = parse_sql(&sql);
    }
}
