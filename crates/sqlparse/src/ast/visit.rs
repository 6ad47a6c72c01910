//! Lightweight traversal helpers over expressions.
//!
//! The lineage extractor needs two things from an expression: the column
//! references that occur *directly* in it, and the subqueries nested in it
//! (which must be resolved against their own scopes). [`walk_expr`] meets
//! both in a single walk without descending into subqueries, and
//! [`ExprRefs`] collects what it meets.

use super::expr::{Expr, Function, FunctionArg};
use super::ident::{Ident, ObjectName};
use super::query::Query;

/// References collected from one expression.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ExprRefs<'a> {
    /// Column references (`Identifier` / `CompoundIdentifier` nodes).
    pub columns: Vec<ColumnRef<'a>>,
    /// `t.*` wildcards inside function calls (`COUNT(t.*)`).
    pub qualified_wildcards: Vec<&'a ObjectName>,
    /// Whether a bare `*` appears inside a function call (`COUNT(*)`).
    pub has_wildcard: bool,
    /// Immediate subqueries (scalar, `IN`, `EXISTS`, quantified).
    pub subqueries: Vec<&'a Query>,
}

/// One column reference: optional qualifier path plus the column identifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnRef<'a> {
    /// Qualifier parts (`["t"]` for `t.c`, `["s", "t"]` for `s.t.c`), empty
    /// for a bare column name.
    pub qualifier: &'a [Ident],
    /// The column identifier.
    pub column: &'a Ident,
}

impl<'a> ColumnRef<'a> {
    /// The last qualifier part, which names the table binding (`t` in
    /// `s.t.c`), if any.
    pub fn table(&self) -> Option<&'a str> {
        self.qualifier.last().map(|i| i.value.as_str())
    }
}

impl<'a> ExprRefs<'a> {
    /// Collect references from a single expression.
    pub fn from_expr(expr: &'a Expr) -> Self {
        let mut refs = ExprRefs::default();
        refs.walk(expr);
        refs
    }

    /// Collect references from several expressions.
    pub fn from_exprs<I: IntoIterator<Item = &'a Expr>>(exprs: I) -> Self {
        let mut refs = ExprRefs::default();
        for e in exprs {
            refs.walk(e);
        }
        refs
    }

    /// Walk one more expression, accumulating into `self`.
    pub fn walk(&mut self, expr: &'a Expr) {
        walk_expr(expr, &mut |item| match item {
            ExprItem::Column(column) => self.columns.push(column),
            ExprItem::Wildcard => self.has_wildcard = true,
            ExprItem::QualifiedWildcard(name) => self.qualified_wildcards.push(name),
            ExprItem::Subquery(query) => self.subqueries.push(query),
        });
    }
}

/// One thing an expression walk ([`walk_expr`]) meets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExprItem<'a> {
    /// A column reference.
    Column(ColumnRef<'a>),
    /// A bare `*` function argument (`COUNT(*)`).
    Wildcard,
    /// A `t.*` function argument (`COUNT(t.*)`).
    QualifiedWildcard(&'a ObjectName),
    /// An immediate subquery (scalar, `IN`, `EXISTS`, quantified); the
    /// walk does not descend into it.
    Subquery(&'a Query),
}

/// Walk `expr` and its sub-expressions, outside nested subqueries,
/// handing every [`ExprItem`] to `visit` in source order. It allocates
/// nothing: a caller that wants only some items (the subqueries, say)
/// pays for no others.
pub fn walk_expr<'a>(expr: &'a Expr, visit: &mut impl FnMut(ExprItem<'a>)) {
    match expr {
        Expr::Identifier(ident) => {
            visit(ExprItem::Column(ColumnRef { qualifier: &[], column: ident }));
        }
        Expr::CompoundIdentifier(parts) => {
            if let Some((column, qualifier)) = parts.split_last() {
                visit(ExprItem::Column(ColumnRef { qualifier, column }));
            }
        }
        Expr::Literal(_) | Expr::Placeholder(_) => {}
        Expr::BinaryOp { left, right, .. } => {
            walk_expr(left, visit);
            walk_expr(right, visit);
        }
        Expr::UnaryOp { expr, .. } | Expr::Nested(expr) => walk_expr(expr, visit),
        Expr::IsNull { expr, .. } => walk_expr(expr, visit),
        Expr::IsDistinctFrom { left, right, .. } => {
            walk_expr(left, visit);
            walk_expr(right, visit);
        }
        Expr::InList { expr, list, .. } => {
            walk_expr(expr, visit);
            for e in list {
                walk_expr(e, visit);
            }
        }
        Expr::InSubquery { expr, subquery, .. } => {
            walk_expr(expr, visit);
            visit(ExprItem::Subquery(subquery));
        }
        Expr::Between { expr, low, high, .. } => {
            walk_expr(expr, visit);
            walk_expr(low, visit);
            walk_expr(high, visit);
        }
        Expr::Like { expr, pattern, .. } => {
            walk_expr(expr, visit);
            walk_expr(pattern, visit);
        }
        Expr::Case { operand, conditions, results, else_result } => {
            if let Some(op) = operand {
                walk_expr(op, visit);
            }
            for e in conditions.iter().chain(results.iter()) {
                walk_expr(e, visit);
            }
            if let Some(e) = else_result {
                walk_expr(e, visit);
            }
        }
        Expr::Cast { expr, .. } => walk_expr(expr, visit),
        Expr::Extract { expr, .. } => walk_expr(expr, visit),
        Expr::Substring { expr, from, for_len } => {
            walk_expr(expr, visit);
            if let Some(e) = from {
                walk_expr(e, visit);
            }
            if let Some(e) = for_len {
                walk_expr(e, visit);
            }
        }
        Expr::Trim { expr, what, .. } => {
            walk_expr(expr, visit);
            if let Some(e) = what {
                walk_expr(e, visit);
            }
        }
        Expr::Position { expr, in_expr } => {
            walk_expr(expr, visit);
            walk_expr(in_expr, visit);
        }
        Expr::Interval { value, .. } => walk_expr(value, visit),
        Expr::Function(func) => walk_function(func, visit),
        Expr::Exists { subquery, .. } => visit(ExprItem::Subquery(subquery)),
        Expr::Subquery(q) => visit(ExprItem::Subquery(q)),
        Expr::QuantifiedComparison { expr, subquery, .. } => {
            walk_expr(expr, visit);
            visit(ExprItem::Subquery(subquery));
        }
        Expr::Tuple(items) => {
            for e in items {
                walk_expr(e, visit);
            }
        }
    }
}

fn walk_function<'a>(func: &'a Function, visit: &mut impl FnMut(ExprItem<'a>)) {
    for arg in &func.args {
        match arg {
            FunctionArg::Expr(e) => walk_expr(e, visit),
            FunctionArg::Wildcard => visit(ExprItem::Wildcard),
            FunctionArg::QualifiedWildcard(name) => visit(ExprItem::QualifiedWildcard(name)),
        }
    }
    if let Some(filter) = &func.filter {
        walk_expr(filter, visit);
    }
    if let Some(over) = &func.over {
        for e in &over.partition_by {
            walk_expr(e, visit);
        }
        for ob in &over.order_by {
            walk_expr(&ob.expr, visit);
        }
    }
}

/// Derive the output column name SQL gives an unaliased projection, using
/// Postgres conventions: a column reference keeps its (last) name, casts and
/// parentheses are transparent, function calls are named after the function,
/// `EXTRACT` yields `extract`, `CASE` yields `case`, and anything else
/// becomes the anonymous `?column?`.
///
/// The lineage extractor, in every extraction mode, and the
/// SQLLineage-like baseline name unaliased projections with this one
/// definition.
pub fn output_name(expr: &Expr) -> String {
    match expr {
        Expr::Identifier(i) => i.value.clone(),
        Expr::CompoundIdentifier(parts) => {
            parts.last().map(|i| i.value.clone()).unwrap_or_else(|| "?column?".into())
        }
        Expr::Nested(inner) | Expr::Cast { expr: inner, .. } => output_name(inner),
        Expr::Function(f) => f.name.base_name().to_string(),
        Expr::Extract { .. } => "extract".into(),
        Expr::Case { .. } => "case".into(),
        Expr::Substring { .. } => "substring".into(),
        Expr::Trim { .. } => "trim".into(),
        Expr::Position { .. } => "position".into(),
        Expr::Exists { .. } => "exists".into(),
        Expr::Subquery(q) => subquery_output_name(q),
        Expr::Interval { .. } => "interval".into(),
        Expr::Literal(crate::ast::Literal::Boolean(_)) => "bool".into(),
        _ => "?column?".into(),
    }
}

/// Name a scalar subquery after its single output column when derivable.
fn subquery_output_name(query: &Query) -> String {
    use crate::ast::{SelectItem, SetExpr};
    if let SetExpr::Select(select) = &query.body {
        if let Some(first) = select.projection.first() {
            return match first {
                SelectItem::ExprWithAlias { alias, .. } => alias.value.clone(),
                SelectItem::UnnamedExpr(e) => output_name(e),
                _ => "?column?".into(),
            };
        }
    }
    "?column?".into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parse_statement;

    fn refs_of(sql: &str) -> (Vec<String>, usize) {
        let stmt = parse_statement(sql).unwrap();
        let Statement::Query(q) = stmt else { panic!("expected query") };
        let crate::ast::SetExpr::Select(sel) = &q.body else { panic!("expected select") };
        let refs = ExprRefs::from_expr(sel.selection.as_ref().unwrap());
        let cols = refs
            .columns
            .iter()
            .map(|c| match c.table() {
                Some(t) => format!("{t}.{}", c.column.value),
                None => c.column.value.clone(),
            })
            .collect();
        (cols, refs.subqueries.len())
    }

    #[test]
    fn collects_simple_columns() {
        let (cols, subs) = refs_of("SELECT 1 FROM t WHERE a = b AND t.c > 5");
        assert_eq!(cols, vec!["a", "b", "t.c"]);
        assert_eq!(subs, 0);
    }

    #[test]
    fn does_not_descend_into_subqueries() {
        let (cols, subs) = refs_of("SELECT 1 FROM t WHERE a IN (SELECT x FROM u WHERE u.y = 1)");
        assert_eq!(cols, vec!["a"]);
        assert_eq!(subs, 1);
    }

    #[test]
    fn collects_from_case_and_functions() {
        let (cols, _) =
            refs_of("SELECT 1 FROM t WHERE CASE WHEN a > 0 THEN b ELSE c END = coalesce(d, e)");
        assert_eq!(cols, vec!["a", "b", "c", "d", "e"]);
    }

    #[test]
    fn collects_exists_subquery() {
        let (cols, subs) = refs_of("SELECT 1 FROM t WHERE EXISTS (SELECT 1 FROM u)");
        assert!(cols.is_empty());
        assert_eq!(subs, 1);
    }

    #[test]
    fn collects_window_spec_columns() {
        let stmt =
            parse_statement("SELECT sum(x) OVER (PARTITION BY dept ORDER BY hired) FROM emp")
                .unwrap();
        let Statement::Query(q) = stmt else { panic!() };
        let crate::ast::SetExpr::Select(sel) = &q.body else { panic!() };
        let crate::ast::SelectItem::UnnamedExpr(e) = &sel.projection[0] else { panic!() };
        let refs = ExprRefs::from_expr(e);
        let names: Vec<_> = refs.columns.iter().map(|c| c.column.value.clone()).collect();
        assert_eq!(names, vec!["x", "dept", "hired"]);
    }

    #[test]
    fn qualified_wildcard_in_count() {
        let stmt = parse_statement("SELECT count(t.*) FROM t").unwrap();
        let Statement::Query(q) = stmt else { panic!() };
        let crate::ast::SetExpr::Select(sel) = &q.body else { panic!() };
        let crate::ast::SelectItem::UnnamedExpr(e) = &sel.projection[0] else { panic!() };
        let refs = ExprRefs::from_expr(e);
        assert_eq!(refs.qualified_wildcards.len(), 1);
        assert!(!refs.has_wildcard);
    }

    #[test]
    fn three_part_identifier_table() {
        let (cols, _) = refs_of("SELECT 1 FROM t WHERE public.t.c = 1");
        assert_eq!(cols, vec!["t.c"]);
    }

    fn name_of(projection_sql: &str) -> String {
        let stmt = parse_statement(&format!("SELECT {projection_sql} FROM t")).unwrap();
        let Statement::Query(q) = stmt else { panic!() };
        let crate::ast::SetExpr::Select(sel) = &q.body else { panic!() };
        let crate::ast::SelectItem::UnnamedExpr(e) = &sel.projection[0] else { panic!() };
        output_name(e)
    }

    #[test]
    fn output_names_follow_postgres_rules() {
        assert_eq!(name_of("a"), "a");
        assert_eq!(name_of("t.a"), "a");
        assert_eq!(name_of("(a)"), "a");
        assert_eq!(name_of("a::int"), "a");
        assert_eq!(name_of("CAST(t.a AS text)"), "a");
        assert_eq!(name_of("lower(a)"), "lower");
        assert_eq!(name_of("count(*)"), "count");
        assert_eq!(name_of("EXTRACT(year FROM ts)"), "extract");
        assert_eq!(name_of("CASE WHEN a THEN 1 END"), "case");
        assert_eq!(name_of("1 + 2"), "?column?");
        assert_eq!(name_of("'str'"), "?column?");
        assert_eq!(name_of("(SELECT x FROM u)"), "x");
        assert_eq!(name_of("(SELECT max(x) AS mx FROM u)"), "mx");
    }
}
