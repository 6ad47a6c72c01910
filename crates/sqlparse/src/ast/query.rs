//! Query-level AST nodes: `SELECT`, set operations, joins, CTEs.

use super::expr::Expr;
use super::ident::{Ident, ObjectName};

/// A full query: optional CTEs, a set-expression body, and trailing clauses
/// (`LIMIT` and `OFFSET` boxed, as they are rare).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    /// The `WITH` clause, if present.
    pub with: Option<With>,
    /// The query body (a `SELECT`, set operation, `VALUES`, or nested query).
    pub body: SetExpr,
    /// `ORDER BY` items.
    pub order_by: Vec<OrderByExpr>,
    /// `LIMIT` expression.
    pub limit: Option<Box<Expr>>,
    /// `OFFSET` expression.
    pub offset: Option<Box<Expr>>,
}

impl Query {
    /// Wrap a bare `SELECT` into a query with no trailing clauses.
    pub fn from_select(select: Select) -> Query {
        Query {
            with: None,
            body: SetExpr::Select(Box::new(select)),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }
}

/// A `WITH` clause.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct With {
    /// `WITH RECURSIVE` when true.
    pub recursive: bool,
    /// The common table expressions in declaration order.
    pub ctes: Vec<Cte>,
}

/// One common table expression: `name [(cols)] AS (query)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cte {
    /// The CTE name and optional explicit column list.
    pub alias: TableAlias,
    /// The CTE body.
    pub query: Box<Query>,
}

/// The body of a query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SetExpr {
    /// A plain `SELECT`.
    Select(Box<Select>),
    /// A parenthesised query (own ORDER BY/LIMIT allowed).
    Query(Box<Query>),
    /// `left UNION/INTERSECT/EXCEPT [ALL] right`.
    SetOperation {
        /// Which set operator.
        op: SetOperator,
        /// `ALL` when true (bag semantics).
        all: bool,
        /// Left branch.
        left: Box<SetExpr>,
        /// Right branch.
        right: Box<SetExpr>,
    },
    /// A `VALUES (..), (..)` constructor.
    Values(Values),
}

/// The three SQL set operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum SetOperator {
    Union,
    Intersect,
    Except,
}

impl SetOperator {
    /// SQL spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            SetOperator::Union => "UNION",
            SetOperator::Intersect => "INTERSECT",
            SetOperator::Except => "EXCEPT",
        }
    }
}

/// Rows of a `VALUES` constructor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Values(pub Vec<Vec<Expr>>);

/// The `DISTINCT` variants.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Distinct {
    /// Plain `DISTINCT`.
    Distinct,
    /// Postgres `DISTINCT ON (exprs)`.
    On(Vec<Expr>),
}

/// A `SELECT` block. The rare clauses (`TOP`, `HAVING`, `QUALIFY`) are
/// boxed, so a block without them does not pay for their width.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Select {
    /// Optional `DISTINCT` / `DISTINCT ON`.
    pub distinct: Option<Distinct>,
    /// T-SQL `TOP n` row limit (dialect-gated at parse time).
    pub top: Option<Box<Expr>>,
    /// The projection list.
    pub projection: Vec<SelectItem>,
    /// The `FROM` clause: one entry per comma-separated factor.
    pub from: Vec<TableWithJoins>,
    /// The `WHERE` predicate.
    pub selection: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Box<Expr>>,
    /// Snowflake/BigQuery `QUALIFY` predicate (dialect-gated at parse
    /// time).
    pub qualify: Option<Box<Expr>>,
}

impl Select {
    /// An empty select with the given projection (used by tests/builders).
    pub fn projecting(projection: Vec<SelectItem>) -> Select {
        Select {
            distinct: None,
            top: None,
            projection,
            from: Vec::new(),
            selection: None,
            group_by: Vec::new(),
            having: None,
            qualify: None,
        }
    }
}

/// One item in a projection list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SelectItem {
    /// `expr` with no alias.
    UnnamedExpr(Expr),
    /// `expr AS alias`.
    ExprWithAlias {
        /// The projected expression.
        expr: Expr,
        /// Its output name.
        alias: Ident,
    },
    /// `t.*` (or `schema.t.*`).
    QualifiedWildcard(ObjectName),
    /// Bare `*`.
    Wildcard,
}

/// A table alias with an optional column-rename list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableAlias {
    /// The alias name.
    pub name: Ident,
    /// Optional column aliases: `t(a, b, c)`.
    pub columns: Vec<Ident>,
}

impl TableAlias {
    /// A plain alias without column renames.
    pub fn new(name: impl AsRef<str>) -> Self {
        TableAlias { name: Ident::new(name), columns: Vec::new() }
    }
}

/// One `FROM`-clause factor with its chained joins.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableWithJoins {
    /// The leftmost relation.
    pub relation: TableFactor,
    /// Joins applied left-to-right.
    pub joins: Vec<Join>,
}

/// A relation appearing in `FROM`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TableFactor {
    /// A named table / view / CTE reference.
    Table {
        /// The (possibly qualified) name.
        name: ObjectName,
        /// Optional alias.
        alias: Option<TableAlias>,
    },
    /// A derived table `( subquery ) [AS] alias`.
    Derived {
        /// `LATERAL` when true.
        lateral: bool,
        /// The subquery.
        subquery: Box<Query>,
        /// Optional alias (usually required by engines, optional here).
        alias: Option<TableAlias>,
    },
    /// A parenthesised join tree.
    NestedJoin(Box<TableWithJoins>),
}

impl TableFactor {
    /// Alias name if present, else the base table name for `Table` factors.
    pub fn binding_name(&self) -> Option<&str> {
        match self {
            TableFactor::Table { name, alias } => {
                Some(alias.as_ref().map(|a| a.name.value.as_str()).unwrap_or(name.base_name()))
            }
            TableFactor::Derived { alias, .. } => alias.as_ref().map(|a| a.name.value.as_str()),
            TableFactor::NestedJoin(_) => None,
        }
    }
}

/// A join step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Join {
    /// The joined relation.
    pub relation: TableFactor,
    /// The join kind and constraint.
    pub join_operator: JoinOperator,
}

/// Join kinds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum JoinOperator {
    /// `[INNER] JOIN ... ON/USING`.
    Inner(JoinConstraint),
    /// `LEFT [OUTER] JOIN`.
    LeftOuter(JoinConstraint),
    /// `RIGHT [OUTER] JOIN`.
    RightOuter(JoinConstraint),
    /// `FULL [OUTER] JOIN`.
    FullOuter(JoinConstraint),
    /// `CROSS JOIN`.
    CrossJoin,
}

impl JoinOperator {
    /// The join constraint, when the kind carries one.
    pub fn constraint(&self) -> Option<&JoinConstraint> {
        match self {
            JoinOperator::Inner(c)
            | JoinOperator::LeftOuter(c)
            | JoinOperator::RightOuter(c)
            | JoinOperator::FullOuter(c) => Some(c),
            JoinOperator::CrossJoin => None,
        }
    }
}

/// Join constraints.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum JoinConstraint {
    /// `ON <predicate>`.
    On(Expr),
    /// `USING (col, ...)`.
    Using(Vec<Ident>),
    /// `NATURAL` join.
    Natural,
    /// No constraint written (comma join rewritten, etc.).
    None,
}

/// One `ORDER BY` item.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OrderByExpr {
    /// The sort expression.
    pub expr: Expr,
    /// `ASC`(true)/`DESC`(false) if written.
    pub asc: Option<bool>,
    /// `NULLS FIRST`(true)/`NULLS LAST`(false) if written.
    pub nulls_first: Option<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binding_name_prefers_alias() {
        let t = TableFactor::Table {
            name: ObjectName::single("customers"),
            alias: Some(TableAlias::new("c")),
        };
        assert_eq!(t.binding_name(), Some("c"));
        let t = TableFactor::Table { name: ObjectName::single("customers"), alias: None };
        assert_eq!(t.binding_name(), Some("customers"));
    }

    #[test]
    fn derived_without_alias_has_no_binding() {
        let q = Query::from_select(Select::projecting(vec![SelectItem::Wildcard]));
        let t = TableFactor::Derived { lateral: false, subquery: Box::new(q), alias: None };
        assert_eq!(t.binding_name(), None);
    }

    #[test]
    fn join_constraint_accessor() {
        let j = JoinOperator::LeftOuter(JoinConstraint::Using(vec![Ident::new("id")]));
        assert!(matches!(j.constraint(), Some(JoinConstraint::Using(_))));
        assert!(JoinOperator::CrossJoin.constraint().is_none());
    }

    #[test]
    fn set_operator_spelling() {
        assert_eq!(SetOperator::Intersect.as_str(), "INTERSECT");
    }
}
