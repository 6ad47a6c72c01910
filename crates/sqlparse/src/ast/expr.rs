//! Scalar expressions.

use super::ident::{Ident, ObjectName};
use super::query::{OrderByExpr, Query};

/// A literal value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Literal {
    /// Numeric literal, kept verbatim to avoid float-precision surprises.
    Number(String),
    /// String literal (escapes already folded).
    String(String),
    /// `TRUE` / `FALSE`.
    Boolean(bool),
    /// `NULL`.
    Null,
}

/// Binary operators in order of appearance in the precedence table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinaryOperator {
    Or,
    And,
    Eq,
    NotEq,
    Lt,
    Gt,
    LtEq,
    GtEq,
    Plus,
    Minus,
    Multiply,
    Divide,
    Modulo,
    Concat,
    Caret,
}

impl BinaryOperator {
    /// The SQL spelling of the operator.
    pub fn as_str(&self) -> &'static str {
        use BinaryOperator::*;
        match self {
            Or => "OR",
            And => "AND",
            Eq => "=",
            NotEq => "<>",
            Lt => "<",
            Gt => ">",
            LtEq => "<=",
            GtEq => ">=",
            Plus => "+",
            Minus => "-",
            Multiply => "*",
            Divide => "/",
            Modulo => "%",
            Concat => "||",
            Caret => "^",
        }
    }
}

/// Prefix unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum UnaryOperator {
    Plus,
    Minus,
    Not,
}

/// A (simplified) SQL data type, sufficient for DDL loading and `CAST`.
///
/// `name` holds the full lower-case type phrase (`"integer"`, `"character
/// varying"`, `"double precision"`), `params` any parenthesised lengths, and
/// `suffix` trailing modifiers such as `"with time zone"`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DataType {
    /// Lower-case type name phrase.
    pub name: String,
    /// Optional length/precision/scale parameters.
    pub params: Vec<u64>,
    /// Optional trailing modifier phrase (lower case).
    pub suffix: Option<String>,
}

impl DataType {
    /// A bare type with no parameters.
    pub fn named(name: impl Into<String>) -> Self {
        DataType { name: name.into(), params: Vec::new(), suffix: None }
    }
}

/// Which side(s) `TRIM` strips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum TrimSide {
    Both,
    Leading,
    Trailing,
}

/// Window frame units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FrameUnits {
    Rows,
    Range,
}

/// One bound of a window frame.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FrameBound {
    /// `CURRENT ROW`
    CurrentRow,
    /// `<n> PRECEDING`, or `UNBOUNDED PRECEDING` when `None`.
    Preceding(Option<u64>),
    /// `<n> FOLLOWING`, or `UNBOUNDED FOLLOWING` when `None`.
    Following(Option<u64>),
}

/// A window frame clause (`ROWS BETWEEN ... AND ...`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WindowFrame {
    /// `ROWS` or `RANGE`.
    pub units: FrameUnits,
    /// The starting bound.
    pub start: FrameBound,
    /// The ending bound when the `BETWEEN` form is used.
    pub end: Option<FrameBound>,
}

/// An `OVER (...)` window specification.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct WindowSpec {
    /// `PARTITION BY` expressions.
    pub partition_by: Vec<Expr>,
    /// `ORDER BY` expressions.
    pub order_by: Vec<OrderByExpr>,
    /// Optional frame clause.
    pub frame: Option<WindowFrame>,
}

/// One argument in a function call.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FunctionArg {
    /// An ordinary expression argument.
    Expr(Expr),
    /// `*` as in `COUNT(*)`.
    Wildcard,
    /// `t.*` as in `COUNT(t.*)`.
    QualifiedWildcard(ObjectName),
}

/// A function call, possibly with `DISTINCT`, `FILTER`, and a window.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Function {
    /// The function name (possibly schema-qualified).
    pub name: ObjectName,
    /// Call arguments in order.
    pub args: Vec<FunctionArg>,
    /// `DISTINCT` inside the call, e.g. `COUNT(DISTINCT x)`.
    pub distinct: bool,
    /// `FILTER (WHERE ...)` clause.
    pub filter: Option<Box<Expr>>,
    /// `OVER (...)` window specification.
    pub over: Option<WindowSpec>,
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A bare column reference (`name`).
    Identifier(Ident),
    /// A qualified reference (`t.name`, `schema.t.name`).
    CompoundIdentifier(Vec<Ident>),
    /// A literal value.
    Literal(Literal),
    /// A `?` / `$n` placeholder.
    Placeholder(String),
    /// Binary operation.
    BinaryOp {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOperator,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Prefix unary operation.
    UnaryOp {
        /// Operator.
        op: UnaryOperator,
        /// Operand.
        expr: Box<Expr>,
    },
    /// A parenthesised sub-expression, preserved for faithful printing.
    Nested(Box<Expr>),
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// `IS NOT NULL` when true.
        negated: bool,
    },
    /// `left IS [NOT] DISTINCT FROM right` (null-safe comparison).
    IsDistinctFrom {
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
        /// `IS NOT DISTINCT FROM` when true.
        negated: bool,
    },
    /// `expr [NOT] IN (e1, e2, ...)`.
    InList {
        /// The tested expression.
        expr: Box<Expr>,
        /// List members.
        list: Vec<Expr>,
        /// `NOT IN` when true.
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)`.
    InSubquery {
        /// The tested expression.
        expr: Box<Expr>,
        /// The subquery.
        subquery: Box<Query>,
        /// `NOT IN` when true.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// The tested expression.
        expr: Box<Expr>,
        /// `NOT BETWEEN` when true.
        negated: bool,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
    },
    /// `expr [NOT] LIKE/ILIKE pattern`.
    Like {
        /// The tested expression.
        expr: Box<Expr>,
        /// `NOT LIKE` when true.
        negated: bool,
        /// The pattern.
        pattern: Box<Expr>,
        /// `ILIKE` when true.
        case_insensitive: bool,
    },
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`.
    Case {
        /// Optional operand for the simple-CASE form.
        operand: Option<Box<Expr>>,
        /// `WHEN` conditions.
        conditions: Vec<Expr>,
        /// `THEN` results, parallel to `conditions`.
        results: Vec<Expr>,
        /// `ELSE` result.
        else_result: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)` or `expr::type`.
    Cast {
        /// The expression being cast.
        expr: Box<Expr>,
        /// Target type (boxed: casts are rare, and inline it would
        /// widen every expression).
        data_type: Box<DataType>,
        /// Rendered as `expr::type` when true.
        postgres_style: bool,
    },
    /// `EXTRACT(field FROM expr)`.
    Extract {
        /// The field (`year`, `month`, ...), lower case.
        field: String,
        /// The source expression.
        expr: Box<Expr>,
    },
    /// `SUBSTRING(expr [FROM start] [FOR len])`.
    Substring {
        /// The string expression.
        expr: Box<Expr>,
        /// `FROM` start position.
        from: Option<Box<Expr>>,
        /// `FOR` length.
        for_len: Option<Box<Expr>>,
    },
    /// `TRIM([side] [what FROM] expr)`.
    Trim {
        /// The trimmed expression.
        expr: Box<Expr>,
        /// Which side(s) to trim.
        side: TrimSide,
        /// The characters to strip.
        what: Option<Box<Expr>>,
    },
    /// `POSITION(needle IN haystack)`.
    Position {
        /// The searched-for expression.
        expr: Box<Expr>,
        /// The expression searched within.
        in_expr: Box<Expr>,
    },
    /// `INTERVAL '1 day'`-style literal.
    Interval {
        /// The quoted interval body.
        value: Box<Expr>,
        /// Optional trailing unit word (`day`, `month`, ...).
        unit: Option<String>,
    },
    /// A function call (boxed: inline it would widen every expression).
    Function(Box<Function>),
    /// `[NOT] EXISTS (SELECT ...)`.
    Exists {
        /// The subquery.
        subquery: Box<Query>,
        /// `NOT EXISTS` when true.
        negated: bool,
    },
    /// A scalar subquery `(SELECT ...)`.
    Subquery(Box<Query>),
    /// `expr op ANY/SOME/ALL (subquery)`.
    QuantifiedComparison {
        /// Left operand.
        expr: Box<Expr>,
        /// Comparison operator.
        op: BinaryOperator,
        /// `ALL` when true; `ANY`/`SOME` when false.
        all: bool,
        /// The subquery producing comparands.
        subquery: Box<Query>,
    },
    /// A row/tuple constructor `(a, b, c)` with two or more members.
    Tuple(Vec<Expr>),
}

impl Expr {
    /// Convenience: a bare column reference.
    pub fn col(name: &str) -> Expr {
        Expr::Identifier(Ident::new(name))
    }

    /// Convenience: a `table.column` reference.
    pub fn qcol(table: &str, name: &str) -> Expr {
        Expr::CompoundIdentifier(vec![Ident::new(table), Ident::new(name)])
    }

    /// Convenience: conjunction of two expressions.
    pub fn and(self, other: Expr) -> Expr {
        Expr::BinaryOp { left: Box::new(self), op: BinaryOperator::And, right: Box::new(other) }
    }

    /// Convenience: equality comparison.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::BinaryOp { left: Box::new(self), op: BinaryOperator::Eq, right: Box::new(other) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build_expected_shapes() {
        assert_eq!(Expr::col("A"), Expr::Identifier(Ident::new("a")));
        assert_eq!(
            Expr::qcol("T", "C"),
            Expr::CompoundIdentifier(vec![Ident::new("t"), Ident::new("c")])
        );
        let e = Expr::col("a").eq(Expr::col("b")).and(Expr::col("c"));
        match e {
            Expr::BinaryOp { op: BinaryOperator::And, .. } => {}
            other => panic!("expected AND at top, got {other:?}"),
        }
    }

    #[test]
    fn operator_spellings() {
        assert_eq!(BinaryOperator::NotEq.as_str(), "<>");
        assert_eq!(BinaryOperator::Concat.as_str(), "||");
        assert_eq!(BinaryOperator::And.as_str(), "AND");
    }

    #[test]
    fn data_type_named_has_no_params() {
        let t = DataType::named("integer");
        assert!(t.params.is_empty());
        assert!(t.suffix.is_none());
    }
}
