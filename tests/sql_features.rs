//! Feature-by-feature lineage semantics tests: each test pins the exact
//! expected `C_con`/`C_ref` for one SQL construct.

use lineagex::prelude::*;
use std::collections::BTreeSet;

fn src(t: &str, c: &str) -> SourceColumn {
    SourceColumn::new(t, c)
}

fn set(items: &[(&str, &str)]) -> BTreeSet<SourceColumn> {
    items.iter().map(|(t, c)| src(t, c)).collect()
}

const DDL: &str = "
    CREATE TABLE emp (id int, name text, dept text, salary numeric, hired date);
    CREATE TABLE dept (id int, dname text, budget numeric);
";

fn view(sql_body: &str) -> QueryLineage {
    let log = format!("{DDL} CREATE VIEW v AS {sql_body};");
    (*lineagex(&log).unwrap().graph.queries["v"]).clone()
}

#[test]
fn window_function_lineage() {
    let v = view("SELECT name, rank() OVER (PARTITION BY dept ORDER BY salary DESC) AS r FROM emp");
    // Window partition/order columns contribute to the windowed output.
    assert_eq!(v.outputs[1].ccon, set(&[("emp", "dept"), ("emp", "salary")]));
    assert_eq!(v.outputs[0].ccon, set(&[("emp", "name")]));
}

#[test]
fn aggregate_with_filter_clause() {
    let v = view("SELECT sum(salary) FILTER (WHERE dept = 'eng') AS s FROM emp");
    assert_eq!(v.outputs[0].ccon, set(&[("emp", "salary"), ("emp", "dept")]));
}

#[test]
fn correlated_exists_subquery() {
    let v = view(
        "SELECT name FROM emp e WHERE EXISTS (
            SELECT 1 FROM dept d WHERE d.id = e.id AND d.budget > 0)",
    );
    assert_eq!(v.cref, set(&[("dept", "id"), ("emp", "id"), ("dept", "budget")]));
    // The subquery's scan counts into table lineage.
    assert_eq!(v.tables, BTreeSet::from(["emp".to_string(), "dept".to_string()]));
}

#[test]
fn scalar_subquery_contributes() {
    let v =
        view("SELECT name, (SELECT dname FROM dept d WHERE d.id = e.dept::int) AS dn FROM emp e");
    assert!(v.outputs[1].ccon.contains(&src("dept", "dname")));
    assert!(v.cref.contains(&src("dept", "id")));
    assert!(v.cref.contains(&src("emp", "dept")));
}

#[test]
fn in_subquery_is_referenced() {
    let v = view("SELECT name FROM emp WHERE dept IN (SELECT dname FROM dept)");
    assert!(v.cref.contains(&src("emp", "dept")));
    assert!(v.cref.contains(&src("dept", "dname")));
}

#[test]
fn three_way_set_operation() {
    let v = view("SELECT name FROM emp UNION SELECT dname FROM dept EXCEPT SELECT dept FROM emp");
    assert_eq!(v.outputs.len(), 1);
    assert_eq!(v.outputs[0].name, "name");
    assert_eq!(v.outputs[0].ccon, set(&[("emp", "name"), ("dept", "dname"), ("emp", "dept")]));
    // Every branch projection is referenced.
    assert_eq!(v.cref, set(&[("emp", "name"), ("dept", "dname"), ("emp", "dept")]));
}

#[test]
fn using_and_natural_joins_reference_keys() {
    let v = view("SELECT name FROM emp JOIN dept USING (id)");
    assert_eq!(v.cref, set(&[("emp", "id"), ("dept", "id")]));
    let v = view("SELECT name FROM emp NATURAL JOIN dept");
    assert_eq!(v.cref, set(&[("emp", "id"), ("dept", "id")]));
}

#[test]
fn distinct_on_references() {
    let v = view("SELECT DISTINCT ON (dept) dept, name FROM emp");
    assert!(v.cref.contains(&src("emp", "dept")));
}

#[test]
fn order_by_forms() {
    // Positional, alias, and raw-column order keys all land in C_ref.
    let v = view("SELECT name AS n, salary FROM emp ORDER BY 2, n, hired");
    assert_eq!(v.cref, set(&[("emp", "salary"), ("emp", "name"), ("emp", "hired")]));
}

#[test]
fn alias_column_renames() {
    let v = view("SELECT a, b FROM emp AS e(a, b, c, d, f)");
    assert_eq!(v.outputs[0].ccon, set(&[("emp", "id")]));
    assert_eq!(v.outputs[1].ccon, set(&[("emp", "name")]));
}

#[test]
fn wildcard_from_derived_table() {
    let v = view("SELECT * FROM (SELECT name AS nm, salary * 2 AS pay FROM emp) AS sub");
    assert_eq!(v.output_names(), vec!["nm", "pay"]);
    assert_eq!(v.outputs[1].ccon, set(&[("emp", "salary")]));
}

#[test]
fn cte_shadowing_and_chaining() {
    let v = view(
        "WITH dept AS (SELECT name AS x FROM emp),
              second AS (SELECT x FROM dept)
         SELECT x FROM second",
    );
    // The CTE named `dept` shadows the real table; everything composes to emp.
    assert_eq!(v.outputs[0].ccon, set(&[("emp", "name")]));
    assert_eq!(v.tables, BTreeSet::from(["emp".to_string()]));
}

#[test]
fn recursive_cte_lineage() {
    let v = view(
        "WITH RECURSIVE r AS (
            SELECT id AS n FROM emp
            UNION ALL
            SELECT n + 1 FROM r WHERE n < 10)
         SELECT n FROM r",
    );
    assert_eq!(v.outputs[0].ccon, set(&[("emp", "id")]));
}

#[test]
fn case_and_cast_and_extract() {
    let v = view(
        "SELECT CASE WHEN salary > 100 THEN name ELSE dept END AS who,
                CAST(hired AS text) AS h,
                EXTRACT(year FROM hired) AS y
         FROM emp",
    );
    assert_eq!(v.outputs[0].ccon, set(&[("emp", "salary"), ("emp", "name"), ("emp", "dept")]));
    assert_eq!(v.outputs[1].ccon, set(&[("emp", "hired")]));
    assert_eq!(v.outputs[2].ccon, set(&[("emp", "hired")]));
}

#[test]
fn derived_output_names() {
    let v = view("SELECT lower(name), salary + 1, hired FROM emp");
    assert_eq!(v.output_names(), vec!["lower", "?column?", "hired"]);
}

#[test]
fn quoted_identifiers_end_to_end() {
    let log = r#"
        CREATE TABLE "Weird Table" ("Mixed Case" int, plain int);
        CREATE VIEW v AS SELECT "Mixed Case" AS ok FROM "Weird Table";
    "#;
    let result = lineagex(log).unwrap();
    let v = &result.graph.queries["v"];
    assert_eq!(v.outputs[0].ccon, set(&[("Weird Table", "Mixed Case")]));
}

#[test]
fn unknown_table_inference_warns_and_infers() {
    let result =
        lineagex("CREATE VIEW v AS SELECT w.page, w.cid FROM mystery w WHERE w.reg").unwrap();
    let v = &result.graph.queries["v"];
    assert!(v.diagnostics.iter().any(|d| d.code == DiagnosticCode::UnknownRelation));
    assert!(v.diagnostics.iter().any(|d| d.code == DiagnosticCode::InferredColumn));
    assert_eq!(
        result.inferred["mystery"],
        BTreeSet::from(["page".to_string(), "cid".to_string(), "reg".to_string()])
    );
}

#[test]
fn wildcard_over_unknown_table_warns() {
    let result = lineagex("CREATE VIEW v AS SELECT * FROM mystery").unwrap();
    let v = &result.graph.queries["v"];
    assert!(v.diagnostics.iter().any(|d| d.code == DiagnosticCode::UnresolvedWildcard));
    assert!(v.outputs.is_empty(), "nothing to expand without schema");
}

#[test]
fn ambiguity_policies_differ() {
    let log = "
        CREATE TABLE a (k int, only_a int);
        CREATE TABLE b (k int);
        CREATE VIEW v AS SELECT k FROM a, b;
    ";
    // AttributeAll (default): both.
    let v = lineagex(log).unwrap().graph.queries["v"].clone();
    assert_eq!(v.outputs[0].ccon, set(&[("a", "k"), ("b", "k")]));
    assert!(v.diagnostics.iter().any(|d| d.code == DiagnosticCode::AmbiguityResolved));
    // FirstMatch: the first relation in FROM order.
    let v = LineageX::new().ambiguity(AmbiguityPolicy::FirstMatch).run(log).unwrap().graph.queries
        ["v"]
        .clone();
    assert_eq!(v.outputs[0].ccon, set(&[("a", "k")]));
    // Error: refuses.
    assert!(matches!(
        LineageX::new().ambiguity(AmbiguityPolicy::Error).run(log),
        Err(LineageError::AmbiguousColumn { .. })
    ));
}

#[test]
fn missing_column_is_an_error() {
    let err = lineagex(&format!("{DDL} CREATE VIEW v AS SELECT ghost FROM emp;")).unwrap_err();
    assert!(matches!(err, LineageError::ColumnNotFound { .. }));
    let err = lineagex(&format!("{DDL} CREATE VIEW v AS SELECT emp.ghost FROM emp;")).unwrap_err();
    assert!(matches!(err, LineageError::ColumnNotFound { relation: Some(_), .. }));
}

#[test]
fn duplicate_binding_is_an_error() {
    let err = lineagex(&format!("{DDL} CREATE VIEW v AS SELECT 1 FROM emp, emp;")).unwrap_err();
    assert!(matches!(err, LineageError::DuplicateBinding { .. }));
}

#[test]
fn count_star_has_no_sources() {
    let v = view("SELECT dept, count(*) AS n FROM emp GROUP BY dept");
    assert!(v.outputs[1].ccon.is_empty());
    assert!(v.cref.contains(&src("emp", "dept")));
}

#[test]
fn count_qualified_star_references_whole_relation() {
    let v = view("SELECT count(e.*) AS n FROM emp e");
    // count(e.*) depends on every column of emp.
    assert_eq!(v.outputs[0].ccon.len(), 5);
}

#[test]
fn is_distinct_from_references() {
    let v = view("SELECT name FROM emp WHERE dept IS DISTINCT FROM 'sales'");
    assert!(v.cref.contains(&src("emp", "dept")));
}

#[test]
fn lateral_subquery_sees_siblings() {
    let v = view("SELECT l.top FROM emp e, LATERAL (SELECT e.salary AS top) AS l");
    assert_eq!(v.outputs[0].ccon, set(&[("emp", "salary")]));
}

#[test]
fn values_in_insert_has_no_lineage_sources() {
    let log = format!("{DDL} INSERT INTO dept VALUES (1, 'x', 0);");
    let result = lineagex(&log).unwrap();
    let q = &result.graph.queries["dept"];
    assert!(q.outputs.iter().all(|o| o.ccon.is_empty()));
}

#[test]
fn duplicate_output_names_are_preserved() {
    let v = view("SELECT name, name FROM emp");
    assert_eq!(v.output_names(), vec!["name", "name"]);
    assert_eq!(v.outputs[0].ccon, v.outputs[1].ccon);
}
