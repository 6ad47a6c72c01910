//! Static dependency discovery: which relations does a query scan?
//!
//! Extraction discovers dependencies *during* a run (a missing one raises
//! `MissingDependency` and drives the paper's deferral stack). The
//! component scheduler ([`crate::schedule`]) needs them *before* it, to
//! split a log (or a session's dirty cone) into components that extract
//! apart, and the session engine keeps them as the edges of its view
//! dependency DAG. So this module walks the AST directly, collecting
//! every `FROM`-clause and subquery relation reference while respecting
//! CTE scoping (a `WITH x AS (...)` binding shadows any relation named
//! `x` inside its query, exactly as the extractor's `M_CTE` lookup does).

use lineagex_sqlparse::ast::visit::{walk_expr, ExprItem};
use lineagex_sqlparse::ast::{
    Distinct, Expr, JoinConstraint, Query, SelectItem, SetExpr, TableFactor, TableWithJoins,
};
use std::collections::BTreeSet;

/// All relation base names a query references, as written (the extractor
/// matches Query-Dictionary ids case-sensitively; catalog lookups
/// normalise separately). CTE-shadowed names are excluded.
pub fn referenced_relations(query: &Query) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for_each_relation(query, |name| {
        if !out.contains(name) {
            out.insert(name.to_string());
        }
    });
    out
}

/// Call `visit` with the base name of every relation reference in
/// `query` that no CTE shadows, in source order (a name scanned twice is
/// visited twice). The walk allocates nothing but its CTE-scope stack.
pub(crate) fn for_each_relation<'q>(query: &'q Query, visit: impl FnMut(&'q str)) {
    Walker { ctes: Vec::new(), visit }.query(query);
}

struct Walker<'q, F> {
    /// CTE names in scope, innermost last.
    ctes: Vec<&'q str>,
    visit: F,
}

impl<'q, F: FnMut(&'q str)> Walker<'q, F> {
    fn query(&mut self, query: &'q Query) {
        let mark = self.ctes.len();
        if let Some(with) = &query.with {
            for cte in &with.ctes {
                let name = cte.alias.name.value.as_str();
                if with.recursive {
                    // The CTE may scan itself; bind the name first.
                    self.ctes.push(name);
                    self.query(&cte.query);
                } else {
                    // Later CTEs see earlier ones, not themselves.
                    self.query(&cte.query);
                    self.ctes.push(name);
                }
            }
        }
        self.set_expr(&query.body);
        for item in &query.order_by {
            self.expr(&item.expr);
        }
        for e in query.limit.iter().chain(query.offset.iter()) {
            self.expr(e);
        }
        self.ctes.truncate(mark);
    }

    fn set_expr(&mut self, body: &'q SetExpr) {
        match body {
            SetExpr::Select(select) => {
                for twj in &select.from {
                    self.table_with_joins(twj);
                }
                for item in &select.projection {
                    match item {
                        SelectItem::UnnamedExpr(e) | SelectItem::ExprWithAlias { expr: e, .. } => {
                            self.expr(e)
                        }
                        SelectItem::QualifiedWildcard(_) | SelectItem::Wildcard => {}
                    }
                }
                let filters = select.selection.iter().chain(&select.group_by);
                for e in filters.chain(select.having.as_deref()).chain(select.qualify.as_deref()) {
                    self.expr(e);
                }
                if let Some(Distinct::On(exprs)) = &select.distinct {
                    for e in exprs {
                        self.expr(e);
                    }
                }
            }
            SetExpr::Query(query) => self.query(query),
            SetExpr::SetOperation { left, right, .. } => {
                self.set_expr(left);
                self.set_expr(right);
            }
            SetExpr::Values(values) => {
                for row in &values.0 {
                    for e in row {
                        self.expr(e);
                    }
                }
            }
        }
    }

    fn table_with_joins(&mut self, twj: &'q TableWithJoins) {
        self.factor(&twj.relation);
        for join in &twj.joins {
            self.factor(&join.relation);
            if let Some(JoinConstraint::On(expr)) = join.join_operator.constraint() {
                self.expr(expr);
            }
        }
    }

    fn factor(&mut self, factor: &'q TableFactor) {
        match factor {
            TableFactor::Table { name, .. } => {
                let base = name.base_name();
                if !self.ctes.contains(&base) {
                    (self.visit)(base);
                }
            }
            TableFactor::Derived { subquery, .. } => self.query(subquery),
            TableFactor::NestedJoin(inner) => self.table_with_joins(inner),
        }
    }

    /// Walk one expression, descending into its subqueries only.
    fn expr(&mut self, expr: &'q Expr) {
        walk_expr(expr, &mut |item| {
            if let ExprItem::Subquery(subquery) = item {
                self.query(subquery);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lineagex_sqlparse::ast::Statement;
    use lineagex_sqlparse::{parse_sql_with, parse_statement, DialectKind};

    fn deps(sql: &str) -> Vec<String> {
        let stmt = parse_statement(sql).unwrap();
        refs_of(&stmt)
    }

    fn refs_of(stmt: &Statement) -> Vec<String> {
        let query = match stmt {
            Statement::Update { .. } => stmt.update_as_query().unwrap(),
            _ => stmt.defining_query().expect("statement has a query").clone(),
        };
        referenced_relations(&query).into_iter().collect()
    }

    #[test]
    fn collects_from_and_joins() {
        assert_eq!(deps("SELECT * FROM a JOIN b ON a.x = b.y, c"), vec!["a", "b", "c"]);
    }

    #[test]
    fn cte_names_shadow_relations() {
        assert_eq!(
            deps("WITH a AS (SELECT * FROM base) SELECT * FROM a JOIN b ON a.x = b.y"),
            vec!["b", "base"]
        );
    }

    #[test]
    fn later_ctes_see_earlier_ones() {
        assert_eq!(
            deps("WITH a AS (SELECT * FROM t), b AS (SELECT * FROM a) SELECT * FROM b"),
            vec!["t"]
        );
    }

    #[test]
    fn recursive_cte_does_not_depend_on_itself() {
        assert_eq!(
            deps(
                "WITH RECURSIVE r AS (SELECT x FROM seed UNION ALL SELECT x + 1 FROM r) \
                 SELECT * FROM r"
            ),
            vec!["seed"]
        );
    }

    #[test]
    fn cte_scope_ends_with_its_query() {
        // The outer query's `a` is a real relation; only the inner one is
        // shadowed by the derived table's CTE.
        assert_eq!(
            deps(
                "SELECT * FROM (WITH a AS (SELECT * FROM t) SELECT * FROM a) d \
                 JOIN a ON d.x = a.x"
            ),
            vec!["a", "t"]
        );
    }

    #[test]
    fn subqueries_in_predicates_and_projections_count() {
        assert_eq!(
            deps(
                "SELECT (SELECT max(x) FROM m) FROM t \
                 WHERE t.id IN (SELECT id FROM allowed) AND EXISTS (SELECT 1 FROM flags)"
            ),
            vec!["allowed", "flags", "m", "t"]
        );
    }

    #[test]
    fn subqueries_inside_functions_cases_and_join_conditions_count() {
        assert_eq!(
            deps(
                "SELECT coalesce((SELECT max(x) FROM in_fn), 0), \
                 CASE WHEN t.a > 0 THEN (SELECT 1 FROM in_case) ELSE 2 END \
                 FROM t JOIN u ON u.id IN (SELECT id FROM in_join)"
            ),
            vec!["in_case", "in_fn", "in_join", "t", "u"]
        );
    }

    #[test]
    fn subqueries_in_qualify_and_distinct_on_count() {
        let stmts = parse_sql_with(
            "SELECT a FROM t QUALIFY a IN (SELECT x FROM in_qualify)",
            DialectKind::Snowflake,
        )
        .unwrap();
        assert_eq!(refs_of(&stmts[0]), vec!["in_qualify", "t"]);
        assert_eq!(
            deps("SELECT DISTINCT ON ((SELECT 1 FROM in_distinct)) a FROM t"),
            vec!["in_distinct", "t"]
        );
    }

    #[test]
    fn set_operations_collect_both_branches() {
        assert_eq!(deps("SELECT x FROM a UNION SELECT y FROM b"), vec!["a", "b"]);
    }

    #[test]
    fn update_references_target_and_from() {
        assert_eq!(deps("UPDATE t SET a = s.v FROM s WHERE t.id = s.id"), vec!["s", "t"]);
    }

    #[test]
    fn create_view_defining_query() {
        assert_eq!(deps("CREATE VIEW v AS SELECT * FROM base WHERE reg"), vec!["base"]);
    }
}
