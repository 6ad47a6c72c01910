//! A single-statement, metadata-free lineage extractor reproducing the
//! behaviour of tools like SQLLineage.
//!
//! Design constraints copied from the real tool family:
//!
//! 1. **Each statement is analysed in isolation** — no Query Dictionary,
//!    so a view referencing another view sees only its name, never its
//!    columns.
//! 2. **No schema metadata** — `SELECT *` and `t.*` cannot be expanded;
//!    they are emitted as literal `*` columns (Fig. 2's
//!    `webact.* → info.*` red box).
//! 3. **Set-operation branches are concatenated** — each branch's
//!    projection list is appended to the target's outputs, producing the
//!    "four extra columns" of Fig. 2.
//! 4. **Prefix-less columns resolve only when the FROM clause has exactly
//!    one relation**; otherwise the source is unknown and the edge is
//!    dropped.

use lineagex_core::{
    LineageGraph, Node, NodeKind, OutputColumn, QueryKind, QueryLineage, SourceColumn,
};
use lineagex_sqlparse::ast::visit::{output_name, ExprRefs};
use lineagex_sqlparse::ast::{
    Query, Select, SelectItem, SetExpr, Statement, TableFactor, TableWithJoins,
};
use lineagex_sqlparse::parse_sql;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The SQLLineage-like baseline extractor.
#[derive(Debug, Clone, Default)]
pub struct SqlLineageLike;

/// Alias → table-name map for one SELECT block.
type AliasMap = BTreeMap<String, String>;

impl SqlLineageLike {
    /// Create the baseline extractor.
    pub fn new() -> Self {
        SqlLineageLike
    }

    /// Extract lineage from a SQL script, one statement at a time.
    pub fn extract(&self, sql: &str) -> Result<LineageGraph, String> {
        let statements = parse_sql(sql).map_err(|e| e.to_string())?;
        let mut graph = LineageGraph::default();
        let mut anon = 0usize;
        for stmt in &statements {
            let (id, kind) = match stmt {
                Statement::CreateView { name, materialized, .. } => (
                    name.base_name().to_string(),
                    QueryKind::View { materialized: *materialized },
                ),
                Statement::CreateTable { name, query: Some(_), .. } => {
                    (name.base_name().to_string(), QueryKind::TableAs)
                }
                Statement::CreateTable { .. }
                | Statement::Drop { .. }
                // The tool family largely ignores DML mutations and
                // transaction/EXPLAIN noise.
                | Statement::Update { .. }
                | Statement::Delete { .. }
                | Statement::Merge(_)
                | Statement::Noise(_) => continue,
                Statement::Insert { table, .. } => {
                    (table.base_name().to_string(), QueryKind::Insert)
                }
                Statement::Query(_) => {
                    anon += 1;
                    (format!("query_{anon}"), QueryKind::Select)
                }
            };
            let Some(query) = stmt.defining_query() else { continue };
            let mut outputs = Vec::new();
            let mut tables = BTreeSet::new();
            let mut cte_names = BTreeSet::new();
            process_query(query, &mut outputs, &mut tables, &mut cte_names);
            // CTE names leak neither into table lineage (the real tool
            // prunes them) — but the columns resolved through them keep the
            // CTE name as source table (intermediate leak).
            let tables: BTreeSet<String> =
                tables.into_iter().filter(|t| !cte_names.contains(t)).collect();

            let lineage = QueryLineage {
                id: id.clone(),
                kind,
                outputs,
                cref: BTreeSet::new(), // the tool has no referenced-column concept
                tables,
                diagnostics: Vec::new(),
                partial: false,
            };
            graph.nodes.insert(
                id.clone(),
                Arc::new(Node {
                    name: id.clone(),
                    kind: NodeKind::View,
                    columns: lineage.outputs.iter().map(|o| o.name.clone()).collect(),
                }),
            );
            graph.order.push(id.clone());
            graph.queries.insert(id, Arc::new(lineage));
        }
        Ok(graph)
    }
}

/// Walk a query: CTE bodies are analysed for their own side effects but
/// not composed; every set-operation branch appends its projections.
fn process_query(
    query: &Query,
    outputs: &mut Vec<OutputColumn>,
    tables: &mut BTreeSet<String>,
    cte_names: &mut BTreeSet<String>,
) {
    if let Some(with) = &query.with {
        for cte in &with.ctes {
            cte_names.insert(cte.alias.name.value.clone());
            // The tool scans CTE bodies for table names only.
            let mut cte_outputs = Vec::new();
            process_query(&cte.query, &mut cte_outputs, tables, cte_names);
        }
    }
    process_set_expr(&query.body, outputs, tables);
}

fn process_set_expr(
    body: &SetExpr,
    outputs: &mut Vec<OutputColumn>,
    tables: &mut BTreeSet<String>,
) {
    match body {
        SetExpr::Select(select) => process_select(select, outputs, tables),
        SetExpr::Query(q) => process_set_expr(&q.body, outputs, tables),
        SetExpr::SetOperation { left, right, .. } => {
            // Failure mode 3: both branches' projections appended.
            process_set_expr(left, outputs, tables);
            process_set_expr(right, outputs, tables);
        }
        SetExpr::Values(_) => {}
    }
}

fn collect_from(
    from: &[TableWithJoins],
    aliases: &mut AliasMap,
    tables: &mut BTreeSet<String>,
    outputs: &mut Vec<OutputColumn>,
) {
    for twj in from {
        collect_factor(&twj.relation, aliases, tables, outputs);
        for join in &twj.joins {
            collect_factor(&join.relation, aliases, tables, outputs);
        }
    }
}

fn collect_factor(
    factor: &TableFactor,
    aliases: &mut AliasMap,
    tables: &mut BTreeSet<String>,
    outputs: &mut Vec<OutputColumn>,
) {
    match factor {
        TableFactor::Table { name, alias } => {
            let base = name.base_name().to_string();
            let binding =
                alias.as_ref().map(|a| a.name.value.clone()).unwrap_or_else(|| base.clone());
            aliases.insert(binding, base.clone());
            tables.insert(base);
        }
        TableFactor::Derived { subquery, alias, .. } => {
            // The subquery's own sources are scanned; the derived alias
            // resolves to nothing (no composition).
            let mut sub_outputs = Vec::new();
            let mut cte_names = BTreeSet::new();
            process_query(subquery, &mut sub_outputs, tables, &mut cte_names);
            let _ = outputs;
            if let Some(alias) = alias {
                aliases.insert(alias.name.value.clone(), alias.name.value.clone());
            }
        }
        TableFactor::NestedJoin(twj) => {
            collect_factor(&twj.relation, aliases, tables, outputs);
            for join in &twj.joins {
                collect_factor(&join.relation, aliases, tables, outputs);
            }
        }
    }
}

fn process_select(select: &Select, outputs: &mut Vec<OutputColumn>, tables: &mut BTreeSet<String>) {
    let mut aliases = AliasMap::new();
    collect_from(&select.from, &mut aliases, tables, outputs);
    let single_table = if aliases.len() == 1 { aliases.values().next().cloned() } else { None };

    for item in &select.projection {
        match item {
            SelectItem::Wildcard => {
                // Failure mode 2: a literal star entry per source table.
                for table in aliases.values() {
                    outputs.push(OutputColumn::new(
                        "*",
                        BTreeSet::from([SourceColumn::new(table, "*")]),
                    ));
                }
            }
            SelectItem::QualifiedWildcard(name) => {
                let binding = name.base_name();
                let table = aliases.get(binding).cloned().unwrap_or_else(|| binding.to_string());
                outputs
                    .push(OutputColumn::new("*", BTreeSet::from([SourceColumn::new(table, "*")])));
            }
            SelectItem::UnnamedExpr(expr) => {
                let sources = resolve_sources(expr, &aliases, &single_table);
                outputs.push(OutputColumn::new(output_name(expr), sources));
            }
            SelectItem::ExprWithAlias { expr, alias } => {
                let sources = resolve_sources(expr, &aliases, &single_table);
                outputs.push(OutputColumn::new(alias.value.clone(), sources));
            }
        }
    }
}

/// Resolve an expression's column references using only the alias map.
fn resolve_sources(
    expr: &lineagex_sqlparse::ast::Expr,
    aliases: &AliasMap,
    single_table: &Option<String>,
) -> BTreeSet<SourceColumn> {
    let refs = ExprRefs::from_expr(expr);
    let mut out = BTreeSet::new();
    for col in &refs.columns {
        match col.table() {
            Some(prefix) => {
                let table = aliases.get(prefix).cloned().unwrap_or_else(|| prefix.to_string());
                out.insert(SourceColumn::new(table, &col.column.value));
            }
            None => {
                // Failure mode 4: prefix-less columns resolve only with a
                // single FROM relation.
                if let Some(table) = single_table {
                    out.insert(SourceColumn::new(table, &col.column.value));
                }
            }
        }
    }
    // Subqueries in expressions: only their table names are picked up.
    for sq in &refs.subqueries {
        let mut sub_outputs = Vec::new();
        let mut sub_tables = BTreeSet::new();
        let mut cte_names = BTreeSet::new();
        process_query(sq, &mut sub_outputs, &mut sub_tables, &mut cte_names);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_on_simple_prefixed_sql() {
        // Without stars/set-ops the baseline gets lineage right.
        let graph = SqlLineageLike::new()
            .extract("CREATE VIEW v AS SELECT c.name AS n FROM customers c")
            .unwrap();
        let v = &graph.queries["v"];
        assert_eq!(v.output_names(), vec!["n"]);
        assert_eq!(v.outputs[0].ccon, BTreeSet::from([SourceColumn::new("customers", "name")]));
        assert!(v.tables.contains("customers"));
    }

    #[test]
    fn wildcard_becomes_star_entry() {
        let graph =
            SqlLineageLike::new().extract("CREATE VIEW v AS SELECT w.* FROM webact w").unwrap();
        let v = &graph.queries["v"];
        assert_eq!(v.output_names(), vec!["*"]);
        assert_eq!(v.outputs[0].ccon, BTreeSet::from([SourceColumn::new("webact", "*")]));
    }

    #[test]
    fn setop_branches_appended_as_extra_outputs() {
        // The paper's webact case: 4 + 4 = 8 output columns.
        let graph = SqlLineageLike::new()
            .extract(
                "CREATE VIEW webact AS
                 SELECT w.wcid, w.wdate, w.wpage, w.wreg FROM webinfo w
                 INTERSECT
                 SELECT w1.cid, w1.date, w1.page, w1.reg FROM web w1",
            )
            .unwrap();
        let v = &graph.queries["webact"];
        assert_eq!(v.outputs.len(), 8);
        assert_eq!(
            v.output_names(),
            vec!["wcid", "wdate", "wpage", "wreg", "cid", "date", "page", "reg"]
        );
    }

    #[test]
    fn unprefixed_column_dropped_with_multiple_tables() {
        let graph = SqlLineageLike::new()
            .extract("CREATE VIEW v AS SELECT name FROM customers c, orders o")
            .unwrap();
        let v = &graph.queries["v"];
        assert!(v.outputs[0].ccon.is_empty(), "source should be unresolvable");
    }

    #[test]
    fn no_cross_query_schema_composition() {
        let graph = SqlLineageLike::new()
            .extract(
                "CREATE VIEW a AS SELECT c.cid AS k FROM customers c;
                 CREATE VIEW b AS SELECT * FROM a;",
            )
            .unwrap();
        // b's star cannot expand because the tool never consults a's output.
        let b = &graph.queries["b"];
        assert_eq!(b.output_names(), vec!["*"]);
    }

    #[test]
    fn cref_is_always_empty() {
        let graph = SqlLineageLike::new()
            .extract("CREATE VIEW v AS SELECT c.name FROM customers c WHERE c.age > 1")
            .unwrap();
        assert!(graph.queries["v"].cref.is_empty());
    }
}
