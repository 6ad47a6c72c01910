//! Query, select, and join parsing.

use crate::ast::*;
use crate::error::ParseError;
use crate::keywords::Keyword;
use crate::token::Token;

use super::Parser;

/// Set-operator precedence: `INTERSECT` binds tighter than `UNION`/`EXCEPT`.
fn set_op_precedence(op: SetOperator) -> u8 {
    match op {
        SetOperator::Intersect => 20,
        SetOperator::Union | SetOperator::Except => 10,
    }
}

impl Parser {
    /// Parse a full query (`WITH ... body ORDER BY ... LIMIT ...`).
    pub fn parse_query(&mut self) -> Result<Query, ParseError> {
        self.with_depth(Self::parse_query_inner)
    }

    fn parse_query_inner(&mut self) -> Result<Query, ParseError> {
        let with = if self.peek_token().is_keyword(Keyword::WITH) {
            Some(self.parse_with()?)
        } else {
            None
        };
        let body = self.parse_set_expr(0)?;
        let mut order_by = Vec::new();
        if self.parse_keywords(&[Keyword::ORDER, Keyword::BY]) {
            loop {
                order_by.push(self.parse_order_by_expr()?);
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.parse_keyword(Keyword::LIMIT) {
            if self.parse_keyword(Keyword::ALL) {
                None
            } else {
                Some(Box::new(self.parse_expr()?))
            }
        } else {
            None
        };
        let offset = if self.parse_keyword(Keyword::OFFSET) {
            let e = self.parse_expr()?;
            // Optional ROW/ROWS noise word.
            let _ = self.parse_one_of_keywords(&[Keyword::ROW, Keyword::ROWS]);
            Some(Box::new(e))
        } else {
            None
        };
        // `FETCH { FIRST | NEXT } [n] { ROW | ROWS } ONLY` — the standard
        // spelling of LIMIT; normalised into `limit`.
        let limit = if self.parse_keyword(Keyword::FETCH) {
            if limit.is_some() {
                return Err(self.error_here("cannot combine LIMIT and FETCH"));
            }
            if self.parse_one_of_keywords(&[Keyword::FIRST, Keyword::NEXT]).is_none() {
                return Err(self.error_here("expected FIRST or NEXT after FETCH"));
            }
            let count = match self.peek_token() {
                Token::Number(_) => Some(self.parse_expr()?),
                _ => None, // bare `FETCH FIRST ROW ONLY` means 1
            };
            if self.parse_one_of_keywords(&[Keyword::ROW, Keyword::ROWS]).is_none() {
                return Err(self.error_here("expected ROW or ROWS in FETCH clause"));
            }
            self.expect_keyword(Keyword::ONLY)?;
            Some(Box::new(count.unwrap_or(Expr::Literal(Literal::Number("1".into())))))
        } else {
            limit
        };
        Ok(Query { with, body, order_by, limit, offset })
    }

    fn parse_with(&mut self) -> Result<With, ParseError> {
        self.expect_keyword(Keyword::WITH)?;
        let recursive = self.parse_keyword(Keyword::RECURSIVE);
        let mut ctes = Vec::new();
        loop {
            let name = self.parse_identifier()?;
            let columns = if self.peek_token() == &Token::LParen {
                self.parse_paren_ident_list()?
            } else {
                Vec::new()
            };
            self.expect_keyword(Keyword::AS)?;
            self.expect_token(&Token::LParen)?;
            let query = Box::new(self.parse_query()?);
            self.expect_token(&Token::RParen)?;
            ctes.push(Cte { alias: TableAlias { name, columns }, query });
            if !self.consume_token(&Token::Comma) {
                break;
            }
        }
        Ok(With { recursive, ctes })
    }

    /// Parse a set-expression with operator precedence
    /// (`INTERSECT` > `UNION` = `EXCEPT`, all left-associative).
    pub(crate) fn parse_set_expr(&mut self, min_precedence: u8) -> Result<SetExpr, ParseError> {
        let mut left = self.parse_set_operand()?;
        loop {
            let op = match self.peek_token() {
                t if t.is_keyword(Keyword::UNION) => SetOperator::Union,
                t if t.is_keyword(Keyword::INTERSECT) => SetOperator::Intersect,
                t if t.is_keyword(Keyword::EXCEPT) => SetOperator::Except,
                _ => break,
            };
            let precedence = set_op_precedence(op);
            if precedence <= min_precedence {
                break;
            }
            self.advance();
            let all = self.parse_keyword(Keyword::ALL);
            if !all {
                // `UNION DISTINCT` is the explicit spelling of the default.
                let _ = self.parse_keyword(Keyword::DISTINCT);
            }
            let right = self.parse_set_expr(precedence)?;
            left = SetExpr::SetOperation { op, all, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn parse_set_operand(&mut self) -> Result<SetExpr, ParseError> {
        match self.peek_token() {
            t if t.is_keyword(Keyword::SELECT) => {
                Ok(SetExpr::Select(Box::new(self.parse_select()?)))
            }
            t if t.is_keyword(Keyword::VALUES) => {
                self.advance();
                let mut rows = Vec::new();
                loop {
                    self.expect_token(&Token::LParen)?;
                    let mut row = Vec::new();
                    loop {
                        row.push(self.parse_expr()?);
                        if !self.consume_token(&Token::Comma) {
                            break;
                        }
                    }
                    self.expect_token(&Token::RParen)?;
                    rows.push(row);
                    if !self.consume_token(&Token::Comma) {
                        break;
                    }
                }
                Ok(SetExpr::Values(Values(rows)))
            }
            Token::LParen => {
                self.advance();
                let query = self.parse_query()?;
                self.expect_token(&Token::RParen)?;
                Ok(SetExpr::Query(Box::new(query)))
            }
            other => Err(self.error_here(format!("expected SELECT, VALUES or (, found {other}"))),
        }
    }

    /// Parse a `SELECT` block (no set operators, no ORDER BY).
    pub fn parse_select(&mut self) -> Result<Select, ParseError> {
        self.expect_keyword(Keyword::SELECT)?;
        let distinct = if self.parse_keyword(Keyword::DISTINCT) {
            if self.parse_keyword(Keyword::ON) {
                self.expect_token(&Token::LParen)?;
                let mut exprs = Vec::new();
                loop {
                    exprs.push(self.parse_expr()?);
                    if !self.consume_token(&Token::Comma) {
                        break;
                    }
                }
                self.expect_token(&Token::RParen)?;
                Some(Distinct::On(exprs))
            } else {
                Some(Distinct::Distinct)
            }
        } else {
            let _ = self.parse_keyword(Keyword::ALL);
            None
        };

        // T-SQL `TOP n` / `TOP (n)`, dialect-gated. Speculative: `TOP`
        // is not reserved, so `SELECT top FROM t` must keep `top` as a
        // plain projected column — only a following number (possibly
        // parenthesised) commits the clause.
        // The count is consumed as a bare literal, not via `parse_expr`,
        // so `TOP 5 * FROM t` cannot be misread as the product `5 * FROM`.
        let mut top = None;
        if self.dialect.supports_top() && self.peek_token().is_keyword(Keyword::TOP) {
            let snapshot = self.snapshot();
            self.advance();
            match (self.peek_token(), self.peek_nth(1), self.peek_nth(2)) {
                (Token::Number(n), _, _) => {
                    top = Some(Box::new(Expr::Literal(Literal::Number(n.clone()))));
                    self.advance();
                }
                (Token::LParen, Token::Number(n), Token::RParen) => {
                    let count = Expr::Literal(Literal::Number(n.clone()));
                    top = Some(Box::new(Expr::Nested(Box::new(count))));
                    self.advance();
                    self.advance();
                    self.advance();
                }
                _ => self.rollback(snapshot),
            }
        }

        // Every list a held view keeps is trimmed to its length once
        // parsed: a pushed `Vec` keeps room for at least four items.
        let mut projection = Vec::new();
        loop {
            projection.push(self.parse_select_item()?);
            if !self.consume_token(&Token::Comma) {
                break;
            }
        }
        projection.shrink_to_fit();

        let mut from = Vec::new();
        if self.parse_keyword(Keyword::FROM) {
            loop {
                from.push(self.parse_table_with_joins()?);
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
        }
        from.shrink_to_fit();

        let selection =
            if self.parse_keyword(Keyword::WHERE) { Some(self.parse_expr()?) } else { None };

        let mut group_by = Vec::new();
        if self.parse_keywords(&[Keyword::GROUP, Keyword::BY]) {
            loop {
                group_by.push(self.parse_expr()?);
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
        }
        group_by.shrink_to_fit();

        let having = if self.parse_keyword(Keyword::HAVING) {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };

        // Snowflake/BigQuery window-filter clause, dialect-gated.
        let qualify = if self.dialect.supports_qualify() && self.parse_keyword(Keyword::QUALIFY) {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };

        Ok(Select { distinct, top, projection, from, selection, group_by, having, qualify })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.consume_token(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // Attempt `name(.name)*.*` — a qualified wildcard.
        if matches!(self.peek_token(), Token::Word(_)) {
            let snapshot = self.snapshot();
            if let Ok(name) = self.parse_object_name() {
                if self.peek_token() == &Token::Period && self.peek_nth(1) == &Token::Star {
                    self.advance();
                    self.advance();
                    return Ok(SelectItem::QualifiedWildcard(name));
                }
            }
            self.rollback(snapshot);
        }
        let expr = self.parse_expr()?;
        match self.parse_optional_alias()? {
            Some(alias) => Ok(SelectItem::ExprWithAlias { expr, alias }),
            None => Ok(SelectItem::UnnamedExpr(expr)),
        }
    }

    pub(crate) fn parse_order_by_expr(&mut self) -> Result<OrderByExpr, ParseError> {
        let expr = self.parse_expr()?;
        let asc = if self.parse_keyword(Keyword::ASC) {
            Some(true)
        } else if self.parse_keyword(Keyword::DESC) {
            Some(false)
        } else {
            None
        };
        let nulls_first = if self.parse_keyword(Keyword::NULLS) {
            if self.parse_keyword(Keyword::FIRST) {
                Some(true)
            } else {
                self.expect_keyword(Keyword::LAST)?;
                Some(false)
            }
        } else {
            None
        };
        Ok(OrderByExpr { expr, asc, nulls_first })
    }

    pub(crate) fn parse_table_with_joins(&mut self) -> Result<TableWithJoins, ParseError> {
        let relation = self.parse_table_factor()?;
        let mut joins = Vec::new();
        loop {
            let join_operator = if self.parse_keyword(Keyword::NATURAL) {
                let kind = self.parse_one_of_keywords(&[
                    Keyword::INNER,
                    Keyword::LEFT,
                    Keyword::RIGHT,
                    Keyword::FULL,
                ]);
                if matches!(kind, Some(Keyword::LEFT) | Some(Keyword::RIGHT) | Some(Keyword::FULL))
                {
                    let _ = self.parse_keyword(Keyword::OUTER);
                }
                self.expect_keyword(Keyword::JOIN)?;
                match kind {
                    Some(Keyword::LEFT) => JoinOperator::LeftOuter(JoinConstraint::Natural),
                    Some(Keyword::RIGHT) => JoinOperator::RightOuter(JoinConstraint::Natural),
                    Some(Keyword::FULL) => JoinOperator::FullOuter(JoinConstraint::Natural),
                    _ => JoinOperator::Inner(JoinConstraint::Natural),
                }
            } else if self.parse_keywords(&[Keyword::CROSS, Keyword::JOIN]) {
                JoinOperator::CrossJoin
            } else if self.parse_keyword(Keyword::JOIN) {
                JoinOperator::Inner(JoinConstraint::None)
            } else if self.parse_keyword(Keyword::INNER) {
                self.expect_keyword(Keyword::JOIN)?;
                JoinOperator::Inner(JoinConstraint::None)
            } else if self.parse_keyword(Keyword::LEFT) {
                let _ = self.parse_keyword(Keyword::OUTER);
                self.expect_keyword(Keyword::JOIN)?;
                JoinOperator::LeftOuter(JoinConstraint::None)
            } else if self.parse_keyword(Keyword::RIGHT) {
                let _ = self.parse_keyword(Keyword::OUTER);
                self.expect_keyword(Keyword::JOIN)?;
                JoinOperator::RightOuter(JoinConstraint::None)
            } else if self.parse_keyword(Keyword::FULL) {
                let _ = self.parse_keyword(Keyword::OUTER);
                self.expect_keyword(Keyword::JOIN)?;
                JoinOperator::FullOuter(JoinConstraint::None)
            } else {
                break;
            };

            let relation = self.parse_table_factor()?;

            let join_operator = match join_operator {
                JoinOperator::CrossJoin => JoinOperator::CrossJoin,
                JoinOperator::Inner(JoinConstraint::Natural) => {
                    JoinOperator::Inner(JoinConstraint::Natural)
                }
                JoinOperator::LeftOuter(JoinConstraint::Natural) => {
                    JoinOperator::LeftOuter(JoinConstraint::Natural)
                }
                JoinOperator::RightOuter(JoinConstraint::Natural) => {
                    JoinOperator::RightOuter(JoinConstraint::Natural)
                }
                JoinOperator::FullOuter(JoinConstraint::Natural) => {
                    JoinOperator::FullOuter(JoinConstraint::Natural)
                }
                other => {
                    let constraint = self.parse_join_constraint()?;
                    match other {
                        JoinOperator::Inner(_) => JoinOperator::Inner(constraint),
                        JoinOperator::LeftOuter(_) => JoinOperator::LeftOuter(constraint),
                        JoinOperator::RightOuter(_) => JoinOperator::RightOuter(constraint),
                        JoinOperator::FullOuter(_) => JoinOperator::FullOuter(constraint),
                        JoinOperator::CrossJoin => JoinOperator::CrossJoin,
                    }
                }
            };
            joins.push(Join { relation, join_operator });
        }
        joins.shrink_to_fit();
        Ok(TableWithJoins { relation, joins })
    }

    fn parse_join_constraint(&mut self) -> Result<JoinConstraint, ParseError> {
        if self.parse_keyword(Keyword::ON) {
            Ok(JoinConstraint::On(self.parse_expr()?))
        } else if self.parse_keyword(Keyword::USING) {
            Ok(JoinConstraint::Using(self.parse_paren_ident_list()?))
        } else {
            Ok(JoinConstraint::None)
        }
    }

    fn parse_table_factor(&mut self) -> Result<TableFactor, ParseError> {
        if self.parse_keyword(Keyword::LATERAL) {
            self.expect_token(&Token::LParen)?;
            let subquery = Box::new(self.parse_query()?);
            self.expect_token(&Token::RParen)?;
            let alias = self.parse_optional_table_alias()?;
            return Ok(TableFactor::Derived { lateral: true, subquery, alias });
        }
        if self.peek_token() == &Token::LParen {
            // Either a derived table `(SELECT ...)` or a nested join
            // `(a JOIN b ON ...)`. Decide by what follows the paren.
            let snapshot = self.snapshot();
            self.advance();
            let is_query = matches!(
                self.peek_token(),
                t if t.is_keyword(Keyword::SELECT) || t.is_keyword(Keyword::WITH) || t.is_keyword(Keyword::VALUES)
            );
            if is_query {
                let subquery = Box::new(self.parse_query()?);
                self.expect_token(&Token::RParen)?;
                let alias = self.parse_optional_table_alias()?;
                return Ok(TableFactor::Derived { lateral: false, subquery, alias });
            }
            if self.peek_token() == &Token::LParen {
                // Could be `((SELECT ...))` or `((a JOIN b) JOIN c)`; re-parse
                // from the start as a nested join, falling back to a derived
                // table on failure.
                self.rollback(snapshot);
                self.advance();
                if let Ok(twj) = self.parse_table_with_joins() {
                    self.expect_token(&Token::RParen)?;
                    return Ok(TableFactor::NestedJoin(Box::new(twj)));
                }
                self.rollback(snapshot);
                self.advance();
                let subquery = Box::new(self.parse_query()?);
                self.expect_token(&Token::RParen)?;
                let alias = self.parse_optional_table_alias()?;
                return Ok(TableFactor::Derived { lateral: false, subquery, alias });
            }
            let twj = self.parse_table_with_joins()?;
            self.expect_token(&Token::RParen)?;
            return Ok(TableFactor::NestedJoin(Box::new(twj)));
        }
        let name = self.parse_object_name()?;
        let alias = self.parse_optional_table_alias()?;
        Ok(TableFactor::Table { name, alias })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_statement;

    fn parse_query_of(sql: &str) -> Query {
        match parse_statement(sql).unwrap() {
            Statement::Query(q) => *q,
            other => panic!("expected query, got {other:?}"),
        }
    }

    fn select_of(sql: &str) -> Select {
        match parse_query_of(sql).body {
            SetExpr::Select(s) => *s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    fn select_of_dialect(sql: &str, dialect: crate::dialect::DialectKind) -> Select {
        let mut stmts = Parser::parse_sql_with(sql, dialect).unwrap();
        match stmts.remove(0) {
            Statement::Query(q) => match q.body {
                SetExpr::Select(s) => *s,
                other => panic!("expected select, got {other:?}"),
            },
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn tsql_top_parses_and_roundtrips() {
        use crate::dialect::DialectKind;
        let s = select_of_dialect("SELECT TOP 5 * FROM t", DialectKind::TSql);
        assert_eq!(s.top.as_deref(), Some(&Expr::Literal(Literal::Number("5".into()))));
        assert_eq!(s.to_string(), "SELECT TOP 5 * FROM t");
        // Parenthesised count.
        let s = select_of_dialect("SELECT TOP (10) a FROM t", DialectKind::TSql);
        assert!(matches!(s.top.as_deref(), Some(Expr::Nested(_))));
        // `top` as a plain column survives, even under T-SQL.
        let s = select_of_dialect("SELECT top FROM t", DialectKind::TSql);
        assert!(s.top.is_none());
        assert!(
            matches!(&s.projection[0], SelectItem::UnnamedExpr(Expr::Identifier(i)) if i.value == "top")
        );
        // Under ANSI, `TOP 5` is a syntax error (5 cannot follow the
        // projected column `top`), caught at end-of-statement checking.
        assert!(Parser::parse_sql_with("SELECT TOP 5 * FROM t", DialectKind::Ansi).is_err());
    }

    #[test]
    fn qualify_parses_under_snowflake_and_bigquery() {
        use crate::dialect::DialectKind;
        let sql = "SELECT a, row_number() OVER (PARTITION BY a ORDER BY b) AS rn \
                   FROM t QUALIFY rn = 1";
        for kind in [DialectKind::Snowflake, DialectKind::BigQuery] {
            let s = select_of_dialect(sql, kind);
            assert!(s.qualify.is_some(), "{kind}");
            assert!(s.to_string().contains("QUALIFY rn = 1"));
        }
        // QUALIFY is reserved, so ANSI fails cleanly instead of taking it
        // as an alias.
        assert!(Parser::parse_sql_with(sql, DialectKind::Ansi).is_err());
        assert!(Parser::parse_sql_with(sql, DialectKind::Postgres).is_err());
    }

    #[test]
    fn merge_parses_shallowly_under_supporting_dialects() {
        use crate::dialect::DialectKind;
        let sql = "MERGE INTO tgt USING src ON tgt.id = src.id \
                   WHEN MATCHED THEN UPDATE SET v = src.v";
        for kind in [
            DialectKind::Postgres,
            DialectKind::Snowflake,
            DialectKind::BigQuery,
            DialectKind::TSql,
        ] {
            let mut stmts = Parser::parse_sql_with(sql, kind).unwrap();
            match stmts.remove(0) {
                Statement::Merge(m) => {
                    assert_eq!(m.target.base_name(), "tgt");
                    assert!(m.text.starts_with("MERGE INTO tgt"));
                }
                other => panic!("expected merge, got {other:?}"),
            }
        }
        // ANSI does not recognise MERGE at all.
        assert!(Parser::parse_sql_with(sql, DialectKind::Ansi).is_err());
    }

    #[test]
    fn parses_projection_variants() {
        let s = select_of("SELECT *, w.*, a, b AS bb, c cc FROM t AS w");
        assert_eq!(s.projection.len(), 5);
        assert!(matches!(s.projection[0], SelectItem::Wildcard));
        assert!(
            matches!(&s.projection[1], SelectItem::QualifiedWildcard(n) if n.base_name() == "w")
        );
        assert!(
            matches!(&s.projection[3], SelectItem::ExprWithAlias { alias, .. } if alias.value == "bb")
        );
        assert!(
            matches!(&s.projection[4], SelectItem::ExprWithAlias { alias, .. } if alias.value == "cc")
        );
    }

    #[test]
    fn parses_join_chain() {
        let s = select_of(
            "SELECT 1 FROM customers c JOIN orders o ON c.cid = o.cid \
             LEFT JOIN web w USING (cid) CROSS JOIN x NATURAL JOIN y",
        );
        let twj = &s.from[0];
        assert_eq!(twj.joins.len(), 4);
        assert!(matches!(&twj.joins[0].join_operator, JoinOperator::Inner(JoinConstraint::On(_))));
        assert!(matches!(
            &twj.joins[1].join_operator,
            JoinOperator::LeftOuter(JoinConstraint::Using(u)) if u.len() == 1
        ));
        assert!(matches!(&twj.joins[2].join_operator, JoinOperator::CrossJoin));
        assert!(matches!(
            &twj.joins[3].join_operator,
            JoinOperator::Inner(JoinConstraint::Natural)
        ));
    }

    #[test]
    fn parses_comma_separated_from() {
        let s = select_of("SELECT 1 FROM a, b, c");
        assert_eq!(s.from.len(), 3);
    }

    #[test]
    fn parses_derived_table() {
        let s = select_of("SELECT x FROM (SELECT y AS x FROM t) AS sub(x2)");
        match &s.from[0].relation {
            TableFactor::Derived { alias, lateral, .. } => {
                assert!(!lateral);
                let alias = alias.as_ref().unwrap();
                assert_eq!(alias.name.value, "sub");
                assert_eq!(alias.columns.len(), 1);
            }
            other => panic!("expected derived, got {other:?}"),
        }
    }

    #[test]
    fn parses_nested_join() {
        let s = select_of("SELECT 1 FROM (a JOIN b ON a.x = b.x) JOIN c ON b.y = c.y");
        assert!(matches!(&s.from[0].relation, TableFactor::NestedJoin(_)));
        assert_eq!(s.from[0].joins.len(), 1);
    }

    #[test]
    fn parses_lateral_derived() {
        let s = select_of("SELECT 1 FROM t, LATERAL (SELECT t.x) l");
        match &s.from[1].relation {
            TableFactor::Derived { lateral, .. } => assert!(lateral),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_ctes() {
        let q = parse_query_of(
            "WITH a AS (SELECT 1), b(x) AS (SELECT 2) SELECT * FROM a JOIN b ON true",
        );
        let with = q.with.unwrap();
        assert!(!with.recursive);
        assert_eq!(with.ctes.len(), 2);
        assert_eq!(with.ctes[1].alias.columns.len(), 1);
    }

    #[test]
    fn parses_recursive_cte() {
        let q = parse_query_of(
            "WITH RECURSIVE r AS (SELECT 1 AS n UNION ALL SELECT n + 1 FROM r WHERE n < 10) \
             SELECT * FROM r",
        );
        assert!(q.with.unwrap().recursive);
    }

    #[test]
    fn set_op_precedence_intersect_binds_tighter() {
        let q = parse_query_of("SELECT 1 UNION SELECT 2 INTERSECT SELECT 3");
        match q.body {
            SetExpr::SetOperation { op: SetOperator::Union, right, .. } => {
                assert!(matches!(*right, SetExpr::SetOperation { op: SetOperator::Intersect, .. }));
            }
            other => panic!("expected UNION at top, got {other:?}"),
        }
    }

    #[test]
    fn set_ops_left_associative() {
        let q = parse_query_of("SELECT 1 EXCEPT SELECT 2 EXCEPT SELECT 3");
        match q.body {
            SetExpr::SetOperation { op: SetOperator::Except, left, right, .. } => {
                assert!(matches!(*left, SetExpr::SetOperation { .. }));
                assert!(matches!(*right, SetExpr::Select(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parenthesised_set_operand() {
        let q = parse_query_of("(SELECT 1 UNION SELECT 2) INTERSECT SELECT 3");
        match q.body {
            SetExpr::SetOperation { op: SetOperator::Intersect, left, .. } => {
                assert!(matches!(*left, SetExpr::Query(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn union_all_flag() {
        let q = parse_query_of("SELECT 1 UNION ALL SELECT 2");
        assert!(matches!(q.body, SetExpr::SetOperation { all: true, .. }));
        let q = parse_query_of("SELECT 1 UNION DISTINCT SELECT 2");
        assert!(matches!(q.body, SetExpr::SetOperation { all: false, .. }));
    }

    #[test]
    fn parses_order_limit_offset() {
        let q =
            parse_query_of("SELECT a FROM t ORDER BY a DESC NULLS LAST, b LIMIT 10 OFFSET 5 ROWS");
        assert_eq!(q.order_by.len(), 2);
        assert_eq!(q.order_by[0].asc, Some(false));
        assert_eq!(q.order_by[0].nulls_first, Some(false));
        assert!(q.limit.is_some());
        assert!(q.offset.is_some());
    }

    #[test]
    fn fetch_first_normalises_to_limit() {
        let q = parse_query_of("SELECT a FROM t OFFSET 5 FETCH NEXT 10 ROWS ONLY");
        assert_eq!(q.limit.as_deref(), Some(&Expr::Literal(Literal::Number("10".into()))));
        assert!(q.offset.is_some());
        let q = parse_query_of("SELECT a FROM t FETCH FIRST ROW ONLY");
        assert_eq!(q.limit.as_deref(), Some(&Expr::Literal(Literal::Number("1".into()))));
    }

    #[test]
    fn limit_and_fetch_conflict() {
        assert!(parse_statement("SELECT a FROM t LIMIT 5 FETCH FIRST 3 ROWS ONLY").is_err());
    }

    #[test]
    fn is_distinct_from_parses() {
        let s = select_of("SELECT 1 FROM t WHERE a IS DISTINCT FROM b");
        assert!(matches!(s.selection, Some(Expr::IsDistinctFrom { negated: false, .. })));
        let s = select_of("SELECT 1 FROM t WHERE a IS NOT DISTINCT FROM b");
        assert!(matches!(s.selection, Some(Expr::IsDistinctFrom { negated: true, .. })));
    }

    #[test]
    fn parses_group_by_having() {
        let s = select_of("SELECT dept, count(*) FROM emp GROUP BY dept HAVING count(*) > 5");
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
    }

    #[test]
    fn parses_distinct_on() {
        let s = select_of("SELECT DISTINCT ON (dept) dept, name FROM emp");
        assert!(matches!(s.distinct, Some(Distinct::On(ref e)) if e.len() == 1));
    }

    #[test]
    fn select_without_from() {
        let s = select_of("SELECT 1 + 1");
        assert!(s.from.is_empty());
    }

    #[test]
    fn three_part_wildcard() {
        let s = select_of("SELECT public.t.* FROM public.t");
        assert!(
            matches!(&s.projection[0], SelectItem::QualifiedWildcard(n) if n.full_name() == "public.t")
        );
    }
}
