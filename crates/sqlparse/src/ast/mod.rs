//! The SQL abstract syntax tree.
//!
//! The tree mirrors the analytical SQL grammar the LineageX extractor
//! traverses. All nodes implement `Display`, producing SQL that parses back
//! to an identical tree (verified by the round-trip property tests).

mod display;
mod expr;
mod ident;
mod query;
mod stmt;
pub mod visit;

pub use expr::{
    BinaryOperator, DataType, FrameBound, FrameUnits, Function, FunctionArg, Literal, TrimSide,
    UnaryOperator, WindowFrame, WindowSpec,
};
pub use ident::{Ident, ObjectName};
pub use query::{
    Cte, Distinct, Join, JoinConstraint, JoinOperator, OrderByExpr, Query, Select, SelectItem,
    SetExpr, SetOperator, TableAlias, TableFactor, TableWithJoins, Values, With,
};
pub use stmt::{
    Assignment, ColumnDef, ColumnOption, MergeStatement, NoiseKind, NoiseStatement, ObjectType,
    SpannedStatement, Statement, TableConstraint,
};

pub use expr::Expr;

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    /// Every held view keeps its tree, so these widths are paid once per
    /// node of every view. A new inline variant or clause that widens them
    /// must box its payload instead (as `Function`, a cast's `DataType`
    /// and the rare `TOP`/`HAVING`/`QUALIFY`/`LIMIT`/`OFFSET` clauses are).
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn node_sizes_stay_within_budget() {
        let budgets = [
            ("Expr", size_of::<Expr>(), 64),
            ("Select", size_of::<Select>(), 184),
            ("Query", size_of::<Query>(), 104),
            ("Statement", size_of::<Statement>(), 216),
        ];
        for (name, size, budget) in budgets {
            assert!(size <= budget, "size_of::<{name}>() is {size} bytes, over its {budget}");
        }
    }
}
