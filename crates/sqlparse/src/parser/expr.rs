//! Pratt (binding-power) expression parser.

use crate::ast::*;
use crate::error::ParseError;
use crate::keywords::Keyword;
use crate::token::Token;

use super::Parser;

// Binding powers, loosely following Postgres operator precedence.
const BP_OR: u8 = 5;
const BP_AND: u8 = 10;
const BP_PREFIX_NOT: u8 = 15;
const BP_IS: u8 = 17;
const BP_LIKE_IN_BETWEEN: u8 = 18;
const BP_COMPARISON: u8 = 20;
const BP_CONCAT: u8 = 25;
const BP_ADDITIVE: u8 = 30;
const BP_MULTIPLICATIVE: u8 = 40;
const BP_PREFIX_SIGN: u8 = 45;
const BP_CARET: u8 = 50;
const BP_CAST: u8 = 60;

/// Interval unit words accepted after an `INTERVAL` literal.
const INTERVAL_UNITS: &[&str] = &[
    "year", "years", "month", "months", "week", "weeks", "day", "days", "hour", "hours", "minute",
    "minutes", "second", "seconds",
];

impl Parser {
    /// Parse a full expression.
    pub fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_subexpr(0)
    }

    pub(crate) fn parse_subexpr(&mut self, min_bp: u8) -> Result<Expr, ParseError> {
        self.with_depth(|parser| {
            let mut left = parser.parse_prefix()?;
            loop {
                let bp = parser.peek_infix_bp();
                if bp <= min_bp {
                    break;
                }
                left = parser.parse_infix(left, bp)?;
            }
            Ok(left)
        })
    }

    /// Binding power of the upcoming infix operator, or 0 when the next
    /// token does not continue an expression.
    fn peek_infix_bp(&self) -> u8 {
        match self.peek_token() {
            Token::Word(w) => match w.keyword {
                Some(Keyword::OR) => BP_OR,
                Some(Keyword::AND) => BP_AND,
                Some(Keyword::IS) => BP_IS,
                Some(Keyword::IN)
                | Some(Keyword::BETWEEN)
                | Some(Keyword::LIKE)
                | Some(Keyword::ILIKE) => BP_LIKE_IN_BETWEEN,
                Some(Keyword::NOT) => match self.peek_nth(1) {
                    Token::Word(w2) => match w2.keyword {
                        Some(Keyword::IN)
                        | Some(Keyword::BETWEEN)
                        | Some(Keyword::LIKE)
                        | Some(Keyword::ILIKE) => BP_LIKE_IN_BETWEEN,
                        _ => 0,
                    },
                    _ => 0,
                },
                _ => 0,
            },
            Token::Eq | Token::Neq | Token::Lt | Token::Gt | Token::LtEq | Token::GtEq => {
                BP_COMPARISON
            }
            Token::Concat => BP_CONCAT,
            Token::Plus | Token::Minus => BP_ADDITIVE,
            Token::Star | Token::Slash | Token::Percent => BP_MULTIPLICATIVE,
            Token::Caret => BP_CARET,
            Token::DoubleColon => BP_CAST,
            _ => 0,
        }
    }

    fn parse_infix(&mut self, left: Expr, bp: u8) -> Result<Expr, ParseError> {
        let tok = self.next_token();
        macro_rules! binop {
            ($op:expr) => {{
                let right = self.parse_subexpr(bp)?;
                Ok(Expr::BinaryOp { left: Box::new(left), op: $op, right: Box::new(right) })
            }};
        }
        match tok {
            Token::Word(w) => match w.keyword {
                Some(Keyword::OR) => binop!(BinaryOperator::Or),
                Some(Keyword::AND) => binop!(BinaryOperator::And),
                Some(Keyword::IS) => {
                    let negated = self.parse_keyword(Keyword::NOT);
                    if self.parse_keyword(Keyword::DISTINCT) {
                        self.expect_keyword(Keyword::FROM)?;
                        let right = self.parse_subexpr(bp)?;
                        Ok(Expr::IsDistinctFrom {
                            left: Box::new(left),
                            right: Box::new(right),
                            negated,
                        })
                    } else {
                        self.expect_keyword(Keyword::NULL)?;
                        Ok(Expr::IsNull { expr: Box::new(left), negated })
                    }
                }
                Some(Keyword::NOT) => {
                    if self.parse_keyword(Keyword::IN) {
                        self.parse_in_tail(left, true)
                    } else if self.parse_keyword(Keyword::BETWEEN) {
                        self.parse_between_tail(left, true)
                    } else if self.parse_keyword(Keyword::LIKE) {
                        self.parse_like_tail(left, true, false)
                    } else if self.parse_keyword(Keyword::ILIKE) {
                        self.parse_like_tail(left, true, true)
                    } else {
                        Err(self.error_here("expected IN, BETWEEN, LIKE or ILIKE after NOT"))
                    }
                }
                Some(Keyword::IN) => self.parse_in_tail(left, false),
                Some(Keyword::BETWEEN) => self.parse_between_tail(left, false),
                Some(Keyword::LIKE) => self.parse_like_tail(left, false, false),
                Some(Keyword::ILIKE) => self.parse_like_tail(left, false, true),
                _ => Err(self.error_here(format!("unexpected word {} in expression", w.value))),
            },
            Token::Eq | Token::Neq | Token::Lt | Token::Gt | Token::LtEq | Token::GtEq => {
                let op = match tok {
                    Token::Eq => BinaryOperator::Eq,
                    Token::Neq => BinaryOperator::NotEq,
                    Token::Lt => BinaryOperator::Lt,
                    Token::Gt => BinaryOperator::Gt,
                    Token::LtEq => BinaryOperator::LtEq,
                    _ => BinaryOperator::GtEq,
                };
                // `= ANY (subquery)` / `<> ALL (subquery)` quantified forms.
                if let Some(kw) =
                    self.parse_one_of_keywords(&[Keyword::ANY, Keyword::SOME, Keyword::ALL])
                {
                    self.expect_token(&Token::LParen)?;
                    let subquery = Box::new(self.parse_query()?);
                    self.expect_token(&Token::RParen)?;
                    return Ok(Expr::QuantifiedComparison {
                        expr: Box::new(left),
                        op,
                        all: kw == Keyword::ALL,
                        subquery,
                    });
                }
                let right = self.parse_subexpr(bp)?;
                Ok(Expr::BinaryOp { left: Box::new(left), op, right: Box::new(right) })
            }
            Token::Concat => binop!(BinaryOperator::Concat),
            Token::Plus => binop!(BinaryOperator::Plus),
            Token::Minus => binop!(BinaryOperator::Minus),
            Token::Star => binop!(BinaryOperator::Multiply),
            Token::Slash => binop!(BinaryOperator::Divide),
            Token::Percent => binop!(BinaryOperator::Modulo),
            Token::Caret => binop!(BinaryOperator::Caret),
            Token::DoubleColon => {
                let data_type = self.parse_data_type()?;
                Ok(Expr::Cast {
                    expr: Box::new(left),
                    data_type: Box::new(data_type),
                    postgres_style: true,
                })
            }
            other => Err(self.error_here(format!("unexpected token {other} in expression"))),
        }
    }

    fn parse_in_tail(&mut self, left: Expr, negated: bool) -> Result<Expr, ParseError> {
        self.expect_token(&Token::LParen)?;
        if matches!(
            self.peek_token(),
            t if t.is_keyword(Keyword::SELECT) || t.is_keyword(Keyword::WITH)
        ) {
            let subquery = Box::new(self.parse_query()?);
            self.expect_token(&Token::RParen)?;
            Ok(Expr::InSubquery { expr: Box::new(left), subquery, negated })
        } else {
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
            Ok(Expr::InList { expr: Box::new(left), list, negated })
        }
    }

    fn parse_between_tail(&mut self, left: Expr, negated: bool) -> Result<Expr, ParseError> {
        let low = self.parse_subexpr(BP_LIKE_IN_BETWEEN)?;
        self.expect_keyword(Keyword::AND)?;
        let high = self.parse_subexpr(BP_LIKE_IN_BETWEEN)?;
        Ok(Expr::Between {
            expr: Box::new(left),
            negated,
            low: Box::new(low),
            high: Box::new(high),
        })
    }

    fn parse_like_tail(
        &mut self,
        left: Expr,
        negated: bool,
        case_insensitive: bool,
    ) -> Result<Expr, ParseError> {
        let pattern = self.parse_subexpr(BP_LIKE_IN_BETWEEN)?;
        Ok(Expr::Like {
            expr: Box::new(left),
            negated,
            pattern: Box::new(pattern),
            case_insensitive,
        })
    }

    fn parse_prefix(&mut self) -> Result<Expr, ParseError> {
        match self.peek_token() {
            Token::Word(w) => match w.keyword {
                Some(Keyword::TRUE) => {
                    self.advance();
                    Ok(Expr::Literal(Literal::Boolean(true)))
                }
                Some(Keyword::FALSE) => {
                    self.advance();
                    Ok(Expr::Literal(Literal::Boolean(false)))
                }
                Some(Keyword::NULL) => {
                    self.advance();
                    Ok(Expr::Literal(Literal::Null))
                }
                Some(Keyword::CASE) => self.parse_case(),
                Some(Keyword::CAST) => self.parse_cast(),
                Some(Keyword::EXTRACT) => self.parse_extract(),
                Some(Keyword::SUBSTRING) => self.parse_substring(),
                Some(Keyword::TRIM) => self.parse_trim(),
                Some(Keyword::POSITION) => self.parse_position(),
                Some(Keyword::INTERVAL) => self.parse_interval(),
                Some(Keyword::EXISTS) => {
                    self.advance();
                    self.expect_token(&Token::LParen)?;
                    let subquery = Box::new(self.parse_query()?);
                    self.expect_token(&Token::RParen)?;
                    Ok(Expr::Exists { subquery, negated: false })
                }
                Some(Keyword::NOT) => {
                    self.advance();
                    if self.peek_token().is_keyword(Keyword::EXISTS) {
                        self.advance();
                        self.expect_token(&Token::LParen)?;
                        let subquery = Box::new(self.parse_query()?);
                        self.expect_token(&Token::RParen)?;
                        Ok(Expr::Exists { subquery, negated: true })
                    } else {
                        let expr = self.parse_subexpr(BP_PREFIX_NOT)?;
                        Ok(Expr::UnaryOp { op: UnaryOperator::Not, expr: Box::new(expr) })
                    }
                }
                _ => self.parse_word_prefix(),
            },
            Token::Number(n) => {
                let literal = Literal::Number(n.clone());
                self.advance();
                Ok(Expr::Literal(literal))
            }
            Token::SingleQuotedString(s) | Token::NationalString(s) => {
                let literal = Literal::String(s.clone());
                self.advance();
                Ok(Expr::Literal(literal))
            }
            Token::Placeholder(p) => {
                let placeholder = Expr::Placeholder(p.clone());
                self.advance();
                Ok(placeholder)
            }
            Token::Minus => {
                self.advance();
                let expr = self.parse_subexpr(BP_PREFIX_SIGN)?;
                Ok(Expr::UnaryOp { op: UnaryOperator::Minus, expr: Box::new(expr) })
            }
            Token::Plus => {
                self.advance();
                let expr = self.parse_subexpr(BP_PREFIX_SIGN)?;
                Ok(Expr::UnaryOp { op: UnaryOperator::Plus, expr: Box::new(expr) })
            }
            Token::LParen => {
                self.advance();
                if matches!(
                    self.peek_token(),
                    t if t.is_keyword(Keyword::SELECT) || t.is_keyword(Keyword::WITH)
                ) {
                    let query = Box::new(self.parse_query()?);
                    self.expect_token(&Token::RParen)?;
                    return Ok(Expr::Subquery(query));
                }
                let first = self.parse_expr()?;
                if self.consume_token(&Token::Comma) {
                    let mut items = vec![first];
                    loop {
                        items.push(self.parse_expr()?);
                        if !self.consume_token(&Token::Comma) {
                            break;
                        }
                    }
                    self.expect_token(&Token::RParen)?;
                    Ok(Expr::Tuple(items))
                } else {
                    self.expect_token(&Token::RParen)?;
                    Ok(Expr::Nested(Box::new(first)))
                }
            }
            other => Err(self.error_here(format!("expected expression, found {other}"))),
        }
    }

    /// Identifier chain or function call.
    fn parse_word_prefix(&mut self) -> Result<Expr, ParseError> {
        let mut parts = vec![self.parse_identifier()?];
        while self.peek_token() == &Token::Period {
            // `t.*` is not an expression; leave the period for the caller
            // (projection / function-arg parsing handles wildcards).
            if self.peek_nth(1) == &Token::Star {
                break;
            }
            self.advance();
            parts.push(self.parse_identifier()?);
        }
        parts.shrink_to_fit();
        if self.peek_token() == &Token::LParen {
            return self.parse_function(ObjectName(parts));
        }
        if parts.len() == 1 {
            Ok(Expr::Identifier(parts.pop().expect("one part")))
        } else {
            Ok(Expr::CompoundIdentifier(parts))
        }
    }

    fn parse_function(&mut self, name: ObjectName) -> Result<Expr, ParseError> {
        self.expect_token(&Token::LParen)?;
        let distinct = self.parse_keyword(Keyword::DISTINCT);
        let mut args = Vec::new();
        if !self.consume_token(&Token::RParen) {
            loop {
                args.push(self.parse_function_arg()?);
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
        }
        let filter = if self.parse_keyword(Keyword::FILTER) {
            self.expect_token(&Token::LParen)?;
            self.expect_keyword(Keyword::WHERE)?;
            let e = self.parse_expr()?;
            self.expect_token(&Token::RParen)?;
            Some(Box::new(e))
        } else {
            None
        };
        let over = if self.parse_keyword(Keyword::OVER) {
            self.expect_token(&Token::LParen)?;
            let spec = self.parse_window_spec()?;
            self.expect_token(&Token::RParen)?;
            Some(spec)
        } else {
            None
        };
        Ok(Expr::Function(Box::new(Function { name, args, distinct, filter, over })))
    }

    fn parse_function_arg(&mut self) -> Result<FunctionArg, ParseError> {
        if self.peek_token() == &Token::Star {
            self.advance();
            return Ok(FunctionArg::Wildcard);
        }
        // Attempt `name(.name)*.*`.
        if matches!(self.peek_token(), Token::Word(_)) {
            let snapshot = self.snapshot();
            if let Ok(name) = self.parse_object_name() {
                if self.peek_token() == &Token::Period && self.peek_nth(1) == &Token::Star {
                    self.advance();
                    self.advance();
                    return Ok(FunctionArg::QualifiedWildcard(name));
                }
            }
            self.rollback(snapshot);
        }
        Ok(FunctionArg::Expr(self.parse_expr()?))
    }

    pub(crate) fn parse_window_spec(&mut self) -> Result<WindowSpec, ParseError> {
        let mut spec = WindowSpec::default();
        if self.parse_keywords(&[Keyword::PARTITION, Keyword::BY]) {
            loop {
                spec.partition_by.push(self.parse_expr()?);
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
        }
        if self.parse_keywords(&[Keyword::ORDER, Keyword::BY]) {
            loop {
                spec.order_by.push(self.parse_order_by_expr()?);
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
        }
        let units = if self.parse_keyword(Keyword::ROWS) {
            Some(FrameUnits::Rows)
        } else if self.parse_keyword(Keyword::RANGE) {
            Some(FrameUnits::Range)
        } else {
            None
        };
        if let Some(units) = units {
            let (start, end) = if self.parse_keyword(Keyword::BETWEEN) {
                let start = self.parse_frame_bound()?;
                self.expect_keyword(Keyword::AND)?;
                let end = self.parse_frame_bound()?;
                (start, Some(end))
            } else {
                (self.parse_frame_bound()?, None)
            };
            spec.frame = Some(WindowFrame { units, start, end });
        }
        Ok(spec)
    }

    fn parse_frame_bound(&mut self) -> Result<FrameBound, ParseError> {
        if self.parse_keywords(&[Keyword::CURRENT, Keyword::ROW]) {
            return Ok(FrameBound::CurrentRow);
        }
        if self.parse_keyword(Keyword::UNBOUNDED) {
            return if self.parse_keyword(Keyword::PRECEDING) {
                Ok(FrameBound::Preceding(None))
            } else {
                self.expect_keyword(Keyword::FOLLOWING)?;
                Ok(FrameBound::Following(None))
            };
        }
        match self.peek_token() {
            Token::Number(n) => {
                let n = n.clone();
                self.advance();
                let v = n
                    .parse::<u64>()
                    .map_err(|_| self.error_here(format!("invalid frame offset {n}")))?;
                if self.parse_keyword(Keyword::PRECEDING) {
                    Ok(FrameBound::Preceding(Some(v)))
                } else {
                    self.expect_keyword(Keyword::FOLLOWING)?;
                    Ok(FrameBound::Following(Some(v)))
                }
            }
            other => Err(self.error_here(format!("expected frame bound, found {other}"))),
        }
    }

    fn parse_case(&mut self) -> Result<Expr, ParseError> {
        self.expect_keyword(Keyword::CASE)?;
        let operand = if self.peek_token().is_keyword(Keyword::WHEN) {
            None
        } else {
            Some(Box::new(self.parse_expr()?))
        };
        let mut conditions = Vec::new();
        let mut results = Vec::new();
        while self.parse_keyword(Keyword::WHEN) {
            conditions.push(self.parse_expr()?);
            self.expect_keyword(Keyword::THEN)?;
            results.push(self.parse_expr()?);
        }
        if conditions.is_empty() {
            return Err(self.error_here("CASE requires at least one WHEN clause"));
        }
        let else_result = if self.parse_keyword(Keyword::ELSE) {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_keyword(Keyword::END)?;
        Ok(Expr::Case { operand, conditions, results, else_result })
    }

    fn parse_cast(&mut self) -> Result<Expr, ParseError> {
        self.expect_keyword(Keyword::CAST)?;
        self.expect_token(&Token::LParen)?;
        let expr = self.parse_expr()?;
        self.expect_keyword(Keyword::AS)?;
        let data_type = self.parse_data_type()?;
        self.expect_token(&Token::RParen)?;
        Ok(Expr::Cast {
            expr: Box::new(expr),
            data_type: Box::new(data_type),
            postgres_style: false,
        })
    }

    fn parse_extract(&mut self) -> Result<Expr, ParseError> {
        self.expect_keyword(Keyword::EXTRACT)?;
        self.expect_token(&Token::LParen)?;
        let field = match self.peek_token() {
            Token::Word(w) => w.value.to_lowercase(),
            Token::SingleQuotedString(s) => s.to_lowercase(),
            other => return Err(self.error_here(format!("expected extract field, found {other}"))),
        };
        self.advance();
        self.expect_keyword(Keyword::FROM)?;
        let expr = self.parse_expr()?;
        self.expect_token(&Token::RParen)?;
        Ok(Expr::Extract { field, expr: Box::new(expr) })
    }

    fn parse_substring(&mut self) -> Result<Expr, ParseError> {
        self.expect_keyword(Keyword::SUBSTRING)?;
        self.expect_token(&Token::LParen)?;
        let expr = self.parse_expr()?;
        let mut from = None;
        let mut for_len = None;
        if self.parse_keyword(Keyword::FROM) {
            from = Some(Box::new(self.parse_expr()?));
            if self.parse_keyword(Keyword::FOR) {
                for_len = Some(Box::new(self.parse_expr()?));
            }
        } else if self.consume_token(&Token::Comma) {
            // Comma form `substring(s, start [, len])`.
            from = Some(Box::new(self.parse_expr()?));
            if self.consume_token(&Token::Comma) {
                for_len = Some(Box::new(self.parse_expr()?));
            }
        }
        self.expect_token(&Token::RParen)?;
        Ok(Expr::Substring { expr: Box::new(expr), from, for_len })
    }

    fn parse_trim(&mut self) -> Result<Expr, ParseError> {
        self.expect_keyword(Keyword::TRIM)?;
        self.expect_token(&Token::LParen)?;
        let side = if self.parse_keyword(Keyword::BOTH) {
            TrimSide::Both
        } else if self.parse_keyword(Keyword::LEADING) {
            TrimSide::Leading
        } else if self.parse_keyword(Keyword::TRAILING) {
            TrimSide::Trailing
        } else {
            TrimSide::Both
        };
        if self.parse_keyword(Keyword::FROM) {
            // `TRIM(LEADING FROM s)`.
            let expr = self.parse_expr()?;
            self.expect_token(&Token::RParen)?;
            return Ok(Expr::Trim { expr: Box::new(expr), side, what: None });
        }
        let first = self.parse_expr()?;
        if self.parse_keyword(Keyword::FROM) {
            let expr = self.parse_expr()?;
            self.expect_token(&Token::RParen)?;
            Ok(Expr::Trim { expr: Box::new(expr), side, what: Some(Box::new(first)) })
        } else {
            self.expect_token(&Token::RParen)?;
            Ok(Expr::Trim { expr: Box::new(first), side, what: None })
        }
    }

    fn parse_position(&mut self) -> Result<Expr, ParseError> {
        self.expect_keyword(Keyword::POSITION)?;
        self.expect_token(&Token::LParen)?;
        let expr = self.parse_subexpr(BP_LIKE_IN_BETWEEN)?;
        self.expect_keyword(Keyword::IN)?;
        let in_expr = self.parse_expr()?;
        self.expect_token(&Token::RParen)?;
        Ok(Expr::Position { expr: Box::new(expr), in_expr: Box::new(in_expr) })
    }

    fn parse_interval(&mut self) -> Result<Expr, ParseError> {
        self.expect_keyword(Keyword::INTERVAL)?;
        let value = self.parse_subexpr(BP_CARET)?;
        let unit = match self.peek_token() {
            Token::Word(w)
                if w.keyword.is_none()
                    && INTERVAL_UNITS.contains(&w.value.to_lowercase().as_str()) =>
            {
                let unit = w.value.to_lowercase();
                self.advance();
                Some(unit)
            }
            _ => None,
        };
        Ok(Expr::Interval { value: Box::new(value), unit })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_statement;

    fn expr_of(sql_tail: &str) -> Expr {
        let stmt = parse_statement(&format!("SELECT {sql_tail}")).unwrap();
        let Statement::Query(q) = stmt else { panic!() };
        let SetExpr::Select(sel) = q.body else { panic!() };
        match sel.projection.into_iter().next().unwrap() {
            SelectItem::UnnamedExpr(e) => e,
            other => panic!("expected unnamed expr, got {other:?}"),
        }
    }

    #[test]
    fn precedence_and_or() {
        // a OR b AND c  =>  a OR (b AND c)
        let e = expr_of("a OR b AND c");
        match e {
            Expr::BinaryOp { op: BinaryOperator::Or, right, .. } => {
                assert!(matches!(*right, Expr::BinaryOp { op: BinaryOperator::And, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_arith() {
        // 1 + 2 * 3  =>  1 + (2 * 3)
        let e = expr_of("1 + 2 * 3");
        match e {
            Expr::BinaryOp { op: BinaryOperator::Plus, right, .. } => {
                assert!(matches!(*right, Expr::BinaryOp { op: BinaryOperator::Multiply, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn left_associativity() {
        // 1 - 2 - 3  =>  (1 - 2) - 3
        let e = expr_of("1 - 2 - 3");
        match e {
            Expr::BinaryOp { op: BinaryOperator::Minus, left, .. } => {
                assert!(matches!(*left, Expr::BinaryOp { op: BinaryOperator::Minus, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn comparison_with_concat() {
        // a || b = c  =>  (a || b) = c
        let e = expr_of("a || b = c");
        match e {
            Expr::BinaryOp { op: BinaryOperator::Eq, left, .. } => {
                assert!(matches!(*left, Expr::BinaryOp { op: BinaryOperator::Concat, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unary_minus_tighter_than_multiply() {
        // -2 * 3  =>  (-2) * 3
        let e = expr_of("-2 * 3");
        assert!(matches!(e, Expr::BinaryOp { op: BinaryOperator::Multiply, .. }));
    }

    #[test]
    fn not_binds_looser_than_comparison() {
        // NOT a = b  =>  NOT (a = b)
        let e = expr_of("NOT a = b");
        match e {
            Expr::UnaryOp { op: UnaryOperator::Not, expr } => {
                assert!(matches!(*expr, Expr::BinaryOp { op: BinaryOperator::Eq, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn postgres_cast() {
        let e = expr_of("a::int + 1");
        match e {
            Expr::BinaryOp { op: BinaryOperator::Plus, left, .. } => {
                assert!(matches!(*left, Expr::Cast { postgres_style: true, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn standard_cast() {
        let e = expr_of("CAST(a AS numeric(10, 2))");
        match e {
            Expr::Cast { data_type, postgres_style, .. } => {
                assert_eq!(data_type.name, "numeric");
                assert_eq!(data_type.params, vec![10, 2]);
                assert!(!postgres_style);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn between_parses() {
        let e = expr_of("a BETWEEN 1 AND 10 AND b");
        // Top must be AND with BETWEEN on the left.
        match e {
            Expr::BinaryOp { op: BinaryOperator::And, left, .. } => {
                assert!(matches!(*left, Expr::Between { negated: false, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn not_between() {
        let e = expr_of("a NOT BETWEEN 1 AND 10");
        assert!(matches!(e, Expr::Between { negated: true, .. }));
    }

    #[test]
    fn in_list_and_subquery() {
        assert!(matches!(expr_of("a IN (1, 2, 3)"), Expr::InList { negated: false, .. }));
        assert!(matches!(
            expr_of("a NOT IN (SELECT x FROM t)"),
            Expr::InSubquery { negated: true, .. }
        ));
    }

    #[test]
    fn like_ilike() {
        assert!(matches!(
            expr_of("a LIKE 'x%'"),
            Expr::Like { negated: false, case_insensitive: false, .. }
        ));
        assert!(matches!(
            expr_of("a NOT ILIKE 'x%'"),
            Expr::Like { negated: true, case_insensitive: true, .. }
        ));
    }

    #[test]
    fn is_null_forms() {
        assert!(matches!(expr_of("a IS NULL"), Expr::IsNull { negated: false, .. }));
        assert!(matches!(expr_of("a IS NOT NULL"), Expr::IsNull { negated: true, .. }));
    }

    #[test]
    fn exists_forms() {
        assert!(matches!(expr_of("EXISTS (SELECT 1)"), Expr::Exists { negated: false, .. }));
        assert!(matches!(expr_of("NOT EXISTS (SELECT 1)"), Expr::Exists { negated: true, .. }));
    }

    #[test]
    fn quantified_comparison() {
        let e = expr_of("a = ANY (SELECT x FROM t)");
        assert!(matches!(e, Expr::QuantifiedComparison { all: false, .. }));
        let e = expr_of("a <> ALL (SELECT x FROM t)");
        assert!(matches!(e, Expr::QuantifiedComparison { all: true, .. }));
    }

    #[test]
    fn scalar_subquery_vs_nested_vs_tuple() {
        assert!(matches!(expr_of("(SELECT max(x) FROM t)"), Expr::Subquery(_)));
        assert!(matches!(expr_of("(1 + 2)"), Expr::Nested(_)));
        assert!(matches!(expr_of("(1, 2, 3)"), Expr::Tuple(ref v) if v.len() == 3));
    }

    #[test]
    fn case_forms() {
        let e = expr_of("CASE WHEN a THEN 1 WHEN b THEN 2 ELSE 3 END");
        match e {
            Expr::Case { operand: None, conditions, results, else_result } => {
                assert_eq!(conditions.len(), 2);
                assert_eq!(results.len(), 2);
                assert!(else_result.is_some());
            }
            other => panic!("{other:?}"),
        }
        let e = expr_of("CASE x WHEN 1 THEN 'a' END");
        assert!(matches!(e, Expr::Case { operand: Some(_), .. }));
    }

    #[test]
    fn case_without_when_errors() {
        assert!(parse_statement("SELECT CASE END").is_err());
    }

    #[test]
    fn extract_year() {
        let e = expr_of("EXTRACT(YEAR FROM w.date)");
        match e {
            Expr::Extract { field, .. } => assert_eq!(field, "year"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn substring_both_forms() {
        assert!(matches!(
            expr_of("SUBSTRING(a FROM 1 FOR 3)"),
            Expr::Substring { from: Some(_), for_len: Some(_), .. }
        ));
        assert!(matches!(
            expr_of("substring(a, 1, 3)"),
            Expr::Substring { from: Some(_), for_len: Some(_), .. }
        ));
    }

    #[test]
    fn trim_forms() {
        assert!(matches!(expr_of("TRIM(a)"), Expr::Trim { side: TrimSide::Both, what: None, .. }));
        assert!(matches!(
            expr_of("TRIM(LEADING ' ' FROM a)"),
            Expr::Trim { side: TrimSide::Leading, what: Some(_), .. }
        ));
        assert!(matches!(
            expr_of("TRIM(TRAILING FROM a)"),
            Expr::Trim { side: TrimSide::Trailing, what: None, .. }
        ));
    }

    #[test]
    fn position_form() {
        assert!(matches!(expr_of("POSITION('x' IN a)"), Expr::Position { .. }));
    }

    #[test]
    fn interval_literal() {
        let e = expr_of("INTERVAL '1 day'");
        assert!(matches!(e, Expr::Interval { unit: None, .. }));
        let e = expr_of("INTERVAL '1' day");
        assert!(matches!(e, Expr::Interval { unit: Some(ref u), .. } if u == "day"));
    }

    #[test]
    fn function_calls() {
        let e = expr_of("count(*)");
        match e {
            Expr::Function(f) => {
                assert_eq!(f.name.base_name(), "count");
                assert!(matches!(f.args[0], FunctionArg::Wildcard));
            }
            other => panic!("{other:?}"),
        }
        let e = expr_of("count(DISTINCT a)");
        assert!(matches!(e, Expr::Function(ref f) if f.distinct));
        let e = expr_of("count(t.*)");
        assert!(
            matches!(e, Expr::Function(ref f) if matches!(f.args[0], FunctionArg::QualifiedWildcard(_)))
        );
    }

    #[test]
    fn window_function() {
        let e = expr_of(
            "sum(x) FILTER (WHERE x > 0) OVER (PARTITION BY d ORDER BY t ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)",
        );
        match e {
            Expr::Function(f) => {
                assert!(f.filter.is_some());
                let over = f.over.unwrap();
                assert_eq!(over.partition_by.len(), 1);
                assert_eq!(over.order_by.len(), 1);
                let frame = over.frame.unwrap();
                assert_eq!(frame.units, FrameUnits::Rows);
                assert_eq!(frame.start, FrameBound::Preceding(Some(1)));
                assert_eq!(frame.end, Some(FrameBound::CurrentRow));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compound_identifiers() {
        assert!(matches!(expr_of("a.b.c"), Expr::CompoundIdentifier(ref p) if p.len() == 3));
        assert!(matches!(expr_of("a"), Expr::Identifier(_)));
    }

    #[test]
    fn schema_qualified_function() {
        let e = expr_of("pg_catalog.lower(a)");
        assert!(matches!(e, Expr::Function(ref f) if f.name.full_name() == "pg_catalog.lower"));
    }

    #[test]
    fn placeholders() {
        assert!(matches!(expr_of("?"), Expr::Placeholder(ref p) if p == "?"));
        assert!(matches!(expr_of("$2"), Expr::Placeholder(ref p) if p == "$2"));
    }

    #[test]
    fn deeply_nested_expression_within_limit() {
        let depth = 50;
        let sql = format!("{}1{}", "(".repeat(depth), ")".repeat(depth));
        let e = expr_of(&sql);
        assert!(matches!(e, Expr::Nested(_)));
    }

    #[test]
    fn pathological_nesting_errors_instead_of_overflowing() {
        let depth = 10_000;
        let sql = format!("SELECT {}1{}", "(".repeat(depth), ")".repeat(depth));
        let err = parse_statement(&sql).unwrap_err();
        assert!(err.message.contains("too deep"), "{err}");
    }
}
