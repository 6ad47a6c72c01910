//! Recursive-descent SQL parser.
//!
//! Split across three files: this module holds the statement driver, the
//! token cursor, statement dispatch, DDL, and shared helpers; `query.rs`
//! parses queries, selects, and joins; `expr.rs` is the Pratt expression
//! parser.

#[cfg(test)]
mod driver_tests;
mod expr;
mod query;

use crate::ast::*;
use crate::dialect::{Dialect, DialectKind};
use crate::error::ParseError;
use crate::keywords::Keyword;
use crate::lexer::Lexer;
use crate::span::Span;
use crate::token::{SpannedToken, Token, Word};

/// Maximum expression/query nesting depth before the parser gives up with a
/// clean error instead of overflowing the stack on adversarial input.
pub const MAX_PARSE_DEPTH: usize = 100;

/// The outcome of [`Parser::parse_statements_recovering`]: everything that
/// parsed, plus a span-tagged error for every region that did not.
///
/// The two vectors are independent — a log with one corrupt statement
/// yields all its other statements *and* one error. `statements` is in
/// source order; `errors` is in detection order (also source order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredScript {
    /// The statements that parsed, each with its source span.
    pub statements: Vec<SpannedStatement>,
    /// One error per unparsable region, each pointing into the source.
    pub errors: Vec<ParseError>,
}

impl RecoveredScript {
    /// Whether every statement parsed cleanly.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// The parser: a cursor over the tokens of the statement it parses.
pub struct Parser {
    tokens: Vec<SpannedToken>,
    index: usize,
    depth: usize,
    dialect: &'static dyn Dialect,
}

/// The statement driver behind every script parse: it lexes the script
/// one statement at a time into the parser's token buffer, which it
/// reuses, and parses each statement from there, so no token vector of
/// the whole script is ever built.
///
/// Before a statement is parsed the buffer holds its tokens through its
/// `;` and the whole statement after that, so the parser sees what it
/// would see in the token stream of the whole script: a malformed
/// statement may step onto the token after its `;` (its error points
/// there), and recovery then skips to the next `;`, but neither reaches
/// further.
struct Statements<'a> {
    lexer: Lexer<'a>,
    parser: Parser,
    /// Where a recovering parse records its lex errors; `None` when the
    /// first lex error fails the parse.
    lex_errors: Option<Vec<ParseError>>,
    /// Whether the buffer has reached `Eof`.
    lexed_all: bool,
}

impl<'a> Statements<'a> {
    fn new(sql: &'a str, dialect: DialectKind, recovering: bool) -> Self {
        Statements {
            lexer: Lexer::with_dialect(sql, dialect),
            parser: Parser { tokens: Vec::new(), index: 0, depth: 0, dialect: dialect.behavior() },
            lex_errors: recovering.then(Vec::new),
            lexed_all: false,
        }
    }

    /// Move the cursor to the start of the next statement, past empty
    /// ones; `false` at the end of the script. The error is a lex error,
    /// which only a strict parse returns.
    fn next_statement(&mut self) -> Result<bool, ParseError> {
        loop {
            self.refill()?;
            if !self.parser.consume_token(&Token::Semicolon) {
                return Ok(self.parser.peek_token() != &Token::Eof);
            }
        }
    }

    /// Drop the tokens before the cursor, then lex statements until the
    /// buffer holds two statement ends (`;` or `Eof`) or reaches `Eof`.
    fn refill(&mut self) -> Result<(), ParseError> {
        let tokens = &mut self.parser.tokens;
        tokens.drain(..self.parser.index);
        self.parser.index = 0;
        let mut ends =
            tokens.iter().filter(|t| matches!(t.token, Token::Semicolon | Token::Eof)).count();
        while ends < 2 && !self.lexed_all {
            self.lexed_all = self.lexer.lex_statement(tokens, self.lex_errors.as_mut())?;
            ends += 1;
        }
        Ok(())
    }

    /// Lex the rest of the script without keeping it: its first lex error,
    /// if it has one.
    fn lex_rest(&mut self) -> Result<(), ParseError> {
        while !self.lexed_all {
            self.parser.tokens.clear();
            self.lexed_all = self.lexer.lex_statement(&mut self.parser.tokens, None)?;
        }
        Ok(())
    }
}

impl Parser {
    /// Parse a semicolon-separated script into statements.
    pub fn parse_sql(sql: &str) -> Result<Vec<Statement>, ParseError> {
        Self::parse_sql_with(sql, DialectKind::Ansi)
    }

    /// [`Parser::parse_sql`] under a specific dialect.
    pub fn parse_sql_with(sql: &str, dialect: DialectKind) -> Result<Vec<Statement>, ParseError> {
        Ok(Self::parse_sql_spanned_with(sql, dialect)?.into_iter().map(|s| s.statement).collect())
    }

    /// Parse a semicolon-separated script, keeping each statement's source
    /// span (first to last token, semicolon excluded).
    pub fn parse_sql_spanned(sql: &str) -> Result<Vec<SpannedStatement>, ParseError> {
        Self::parse_sql_spanned_with(sql, DialectKind::Ansi)
    }

    /// [`Parser::parse_sql_spanned`] under a specific dialect.
    ///
    /// A lex error anywhere in the script fails the parse, ahead of any
    /// parse error: after the first parse error the rest of the script is
    /// still lexed, and its first lex error is returned if it has one.
    pub fn parse_sql_spanned_with(
        sql: &str,
        dialect: DialectKind,
    ) -> Result<Vec<SpannedStatement>, ParseError> {
        let mut script = Statements::new(sql, dialect, false);
        let mut statements = Vec::new();
        while script.next_statement()? {
            match script.parser.parse_spanned_statement() {
                Ok(statement) => statements.push(statement),
                Err(error) => return Err(script.lex_rest().err().unwrap_or(error)),
            }
        }
        Ok(statements)
    }

    /// Parse a script that may contain corrupt statements, recovering at
    /// statement boundaries instead of aborting.
    ///
    /// Both lexing and parsing recover: a lex error skips to the next `;`
    /// in the raw text, and a parse error records the failure and
    /// resynchronises at the next top-level `;` in the token stream. The
    /// result carries every statement that parsed *and* every span-tagged
    /// error, so callers can extract lineage from the healthy part of a
    /// messy query log while reporting precisely what was skipped.
    pub fn parse_statements_recovering(sql: &str) -> RecoveredScript {
        Self::parse_statements_recovering_with(sql, DialectKind::Ansi)
    }

    /// [`Parser::parse_statements_recovering`] under a specific dialect.
    pub fn parse_statements_recovering_with(sql: &str, dialect: DialectKind) -> RecoveredScript {
        let mut script = Statements::new(sql, dialect, true);
        let (mut statements, mut parse_errors) = (Vec::new(), Vec::new());
        // A recovering parse records its lex errors instead of failing.
        while let Ok(true) = script.next_statement() {
            match script.parser.parse_spanned_statement() {
                Ok(statement) => statements.push(statement),
                // A statement followed by trailing garbage is dropped too:
                // its meaning is suspect.
                Err(error) => {
                    parse_errors.push(error);
                    script.parser.skip_to_statement_boundary();
                }
            }
        }
        // Every error in source order, so reports read top-to-bottom; a
        // lex error sorts before a parse error at the same offset.
        let mut errors = script.lex_errors.unwrap_or_default();
        errors.append(&mut parse_errors);
        errors.sort_by_key(|e| e.span.start);
        RecoveredScript { statements, errors }
    }

    /// Parse the statement at the cursor, which must end at a `;` or the
    /// end of the script.
    fn parse_spanned_statement(&mut self) -> Result<SpannedStatement, ParseError> {
        let start = self.peek_span();
        let statement = self.parse_statement()?;
        let span = start.union(&self.prev_span());
        match self.peek_token() {
            Token::Semicolon | Token::Eof => Ok(statement.with_span(span)),
            other => Err(self.error_here(format!("expected end of statement, found {other}"))),
        }
    }

    /// Advance the cursor to the next `;` (or end of input) so recovery
    /// can resume at the following statement.
    fn skip_to_statement_boundary(&mut self) {
        loop {
            match self.peek_token() {
                Token::Semicolon | Token::Eof => return,
                _ => {
                    self.advance();
                }
            }
        }
    }

    // ---- token cursor -------------------------------------------------

    pub(crate) fn peek_token(&self) -> &Token {
        self.peek_nth(0)
    }

    pub(crate) fn peek_nth(&self, n: usize) -> &Token {
        self.tokens.get(self.index + n).map(|t| &t.token).unwrap_or(&Token::Eof)
    }

    pub(crate) fn peek_span(&self) -> Span {
        self.tokens
            .get(self.index)
            .map(|t| t.span)
            .or_else(|| self.tokens.last().map(|t| t.span))
            .unwrap_or_default()
    }

    /// The span of the most recently consumed token (the cursor's own
    /// span before any token was consumed).
    pub(crate) fn prev_span(&self) -> Span {
        match self.index.checked_sub(1).and_then(|i| self.tokens.get(i)) {
            Some(t) => t.span,
            None => self.peek_span(),
        }
    }

    /// Consume the next token and return a copy of it. Callers that only
    /// step past the token use [`Parser::advance`], which copies nothing.
    pub(crate) fn next_token(&mut self) -> Token {
        let tok = self.peek_token().clone();
        self.advance();
        tok
    }

    /// Step past the next token (no-op at end of input).
    pub(crate) fn advance(&mut self) {
        if self.index < self.tokens.len() {
            self.index += 1;
        }
    }

    pub(crate) fn snapshot(&self) -> usize {
        self.index
    }

    pub(crate) fn rollback(&mut self, snapshot: usize) {
        self.index = snapshot;
    }

    pub(crate) fn error_here(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(message, self.peek_span())
    }

    /// Run `f` one nesting level deeper, failing cleanly past
    /// [`MAX_PARSE_DEPTH`]. The depth is restored on both success and error
    /// so speculative parses (snapshot/rollback) stay balanced.
    pub(crate) fn with_depth<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_PARSE_DEPTH {
            return Err(self.error_here("expression or query nesting is too deep"));
        }
        self.depth += 1;
        let result = f(self);
        self.depth -= 1;
        result
    }

    /// Consume the next token if it equals `expected`.
    pub(crate) fn consume_token(&mut self, expected: &Token) -> bool {
        if self.peek_token() == expected {
            self.advance();
            true
        } else {
            false
        }
    }

    pub(crate) fn expect_token(&mut self, expected: &Token) -> Result<(), ParseError> {
        if self.consume_token(expected) {
            Ok(())
        } else {
            Err(self.error_here(format!("expected {expected}, found {}", self.peek_token())))
        }
    }

    /// Consume the next token if it is the keyword `kw`.
    pub(crate) fn parse_keyword(&mut self, kw: Keyword) -> bool {
        if self.peek_token().is_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    /// Consume a sequence of keywords atomically (all or none).
    pub(crate) fn parse_keywords(&mut self, kws: &[Keyword]) -> bool {
        let snapshot = self.snapshot();
        for kw in kws {
            if !self.parse_keyword(*kw) {
                self.rollback(snapshot);
                return false;
            }
        }
        true
    }

    /// Consume and return whichever of `kws` comes next, if any.
    pub(crate) fn parse_one_of_keywords(&mut self, kws: &[Keyword]) -> Option<Keyword> {
        for kw in kws {
            if self.parse_keyword(*kw) {
                return Some(*kw);
            }
        }
        None
    }

    pub(crate) fn expect_keyword(&mut self, kw: Keyword) -> Result<(), ParseError> {
        if self.parse_keyword(kw) {
            Ok(())
        } else {
            Err(self.error_here(format!("expected {}, found {}", kw.as_str(), self.peek_token())))
        }
    }

    // ---- identifiers ---------------------------------------------------

    fn word_to_ident(word: &Word, span: Span) -> Ident {
        if word.quote.is_some() {
            Ident::quoted(word.value.as_str()).with_span(span)
        } else {
            Ident::new(&word.value).with_span(span)
        }
    }

    /// The next token as an identifier, built from the borrowed word,
    /// when it is a word a bare name may be (not reserved for aliases).
    fn peek_name(&self) -> Option<Ident> {
        match self.peek_token() {
            Token::Word(w) if w.keyword.is_none_or(|kw| !kw.is_reserved_for_alias()) => {
                Some(Self::word_to_ident(w, self.peek_span()))
            }
            _ => None,
        }
    }

    /// Parse one identifier. Non-reserved keywords are accepted as names.
    pub(crate) fn parse_identifier(&mut self) -> Result<Ident, ParseError> {
        if let Some(ident) = self.peek_name() {
            self.advance();
            return Ok(ident);
        }
        Err(match self.peek_token() {
            Token::Word(w) => {
                self.error_here(format!("expected identifier, found reserved keyword {}", w.value))
            }
            other => self.error_here(format!("expected identifier, found {other}")),
        })
    }

    /// Parse a dotted object name (`a`, `a.b`, `a.b.c`).
    ///
    /// A trailing `.` is left unconsumed unless a word follows, so callers
    /// can detect the `name.*` wildcard form.
    pub(crate) fn parse_object_name(&mut self) -> Result<ObjectName, ParseError> {
        let mut parts = vec![self.parse_identifier()?];
        while self.peek_token() == &Token::Period && matches!(self.peek_nth(1), Token::Word(_)) {
            self.advance();
            parts.push(self.parse_identifier()?);
        }
        parts.shrink_to_fit();
        Ok(ObjectName(parts))
    }

    /// Parse an optional `[AS] alias`, rejecting reserved words for the
    /// bare (no `AS`) form.
    pub(crate) fn parse_optional_alias(&mut self) -> Result<Option<Ident>, ParseError> {
        if self.parse_keyword(Keyword::AS) {
            return Ok(Some(self.parse_identifier()?));
        }
        let alias = self.peek_name();
        if alias.is_some() {
            self.advance();
        }
        Ok(alias)
    }

    /// Parse an optional table alias with an optional column list.
    pub(crate) fn parse_optional_table_alias(&mut self) -> Result<Option<TableAlias>, ParseError> {
        let Some(name) = self.parse_optional_alias()? else {
            return Ok(None);
        };
        let mut columns = Vec::new();
        if self.peek_token() == &Token::LParen {
            self.advance();
            loop {
                columns.push(self.parse_identifier()?);
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
        }
        Ok(Some(TableAlias { name, columns }))
    }

    /// Parse a parenthesised comma-separated identifier list.
    pub(crate) fn parse_paren_ident_list(&mut self) -> Result<Vec<Ident>, ParseError> {
        self.expect_token(&Token::LParen)?;
        let mut out = Vec::new();
        loop {
            out.push(self.parse_identifier()?);
            if !self.consume_token(&Token::Comma) {
                break;
            }
        }
        self.expect_token(&Token::RParen)?;
        Ok(out)
    }

    // ---- statements ----------------------------------------------------

    /// Parse a single statement at the cursor.
    pub fn parse_statement(&mut self) -> Result<Statement, ParseError> {
        match self.peek_token() {
            Token::Word(w) => match w.keyword {
                Some(Keyword::SELECT) | Some(Keyword::WITH) | Some(Keyword::VALUES) => {
                    Ok(Statement::Query(Box::new(self.parse_query()?)))
                }
                Some(Keyword::CREATE) => self.parse_create(),
                Some(Keyword::INSERT) => self.parse_insert(),
                Some(Keyword::DROP) => self.parse_drop(),
                Some(Keyword::UPDATE) => self.parse_update(),
                Some(Keyword::DELETE) => self.parse_delete(),
                Some(Keyword::EXPLAIN) => Ok(self.parse_noise(NoiseKind::Explain)),
                Some(Keyword::SET) => Ok(self.parse_noise(NoiseKind::Set)),
                Some(Keyword::BEGIN) => Ok(self.parse_noise(NoiseKind::Begin)),
                Some(Keyword::COMMIT) => Ok(self.parse_noise(NoiseKind::Commit)),
                Some(Keyword::ROLLBACK) => Ok(self.parse_noise(NoiseKind::Rollback)),
                Some(Keyword::ANALYZE) => Ok(self.parse_noise(NoiseKind::Analyze)),
                Some(Keyword::MERGE) if self.dialect.supports_merge() => self.parse_merge(),
                _ => Err(self.error_here(format!("unexpected start of statement: {}", w.value))),
            },
            Token::LParen => Ok(Statement::Query(Box::new(self.parse_query()?))),
            other => Err(self.error_here(format!("unexpected start of statement: {other}"))),
        }
    }

    /// Consume a recognised log-noise statement (`EXPLAIN`, `SET`,
    /// transaction control, `ANALYZE`) up to its terminating `;`,
    /// recording the statement's token text. Noise never fails: whatever
    /// follows the leading keyword is part of the skipped statement.
    fn parse_noise(&mut self, kind: NoiseKind) -> Statement {
        let mut text = String::new();
        loop {
            match self.peek_token() {
                Token::Semicolon | Token::Eof => break,
                token => {
                    if !text.is_empty() {
                        text.push(' ');
                    }
                    text.push_str(&token.to_string());
                    self.advance();
                }
            }
        }
        Statement::Noise(NoiseStatement { kind, text })
    }

    /// Shallowly parse a dialect `MERGE` statement: the target name is
    /// extracted for diagnostics and everything up to the terminating `;`
    /// is captured as token text. The body is deliberately not modelled —
    /// downstream layers degrade the statement to a `dialect-fallback`
    /// diagnostic rather than extracting lineage from it.
    fn parse_merge(&mut self) -> Result<Statement, ParseError> {
        let snapshot = self.snapshot();
        self.expect_keyword(Keyword::MERGE)?;
        self.parse_keyword(Keyword::INTO);
        let target = self.parse_object_name()?;
        // Re-walk from MERGE so the captured text covers the whole
        // statement, target included.
        self.rollback(snapshot);
        let mut text = String::new();
        loop {
            match self.peek_token() {
                Token::Semicolon | Token::Eof => break,
                token => {
                    if !text.is_empty() {
                        text.push(' ');
                    }
                    text.push_str(&token.to_string());
                    self.advance();
                }
            }
        }
        Ok(Statement::Merge(MergeStatement { target, text }))
    }

    fn parse_create(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword(Keyword::CREATE)?;
        let or_replace = self.parse_keywords(&[Keyword::OR, Keyword::REPLACE]);
        let temporary = self.parse_keyword(Keyword::TEMPORARY) || self.parse_keyword(Keyword::TEMP);
        let materialized = self.parse_keyword(Keyword::MATERIALIZED);
        if self.parse_keyword(Keyword::VIEW) {
            self.parse_create_view(or_replace, materialized, temporary)
        } else if self.parse_keyword(Keyword::TABLE) {
            if materialized {
                return Err(self.error_here("MATERIALIZED applies to views, not tables"));
            }
            self.parse_create_table(or_replace, temporary)
        } else {
            Err(self.error_here(format!("expected VIEW or TABLE, found {}", self.peek_token())))
        }
    }

    fn parse_create_view(
        &mut self,
        or_replace: bool,
        materialized: bool,
        temporary: bool,
    ) -> Result<Statement, ParseError> {
        let if_not_exists = self.parse_keywords(&[Keyword::IF, Keyword::NOT, Keyword::EXISTS]);
        let name = self.parse_object_name()?;
        let columns = if self.peek_token() == &Token::LParen {
            self.parse_paren_ident_list()?
        } else {
            Vec::new()
        };
        self.expect_keyword(Keyword::AS)?;
        let query = Box::new(self.parse_query()?);
        Ok(Statement::CreateView {
            or_replace,
            materialized,
            temporary,
            if_not_exists,
            name,
            columns,
            query,
        })
    }

    fn parse_create_table(
        &mut self,
        or_replace: bool,
        temporary: bool,
    ) -> Result<Statement, ParseError> {
        let if_not_exists = self.parse_keywords(&[Keyword::IF, Keyword::NOT, Keyword::EXISTS]);
        let name = self.parse_object_name()?;
        let mut columns = Vec::new();
        let mut constraints = Vec::new();
        let mut query = None;
        if self.peek_token() == &Token::LParen {
            self.advance();
            loop {
                if let Some(constraint) = self.parse_optional_table_constraint()? {
                    constraints.push(constraint);
                } else {
                    columns.push(self.parse_column_def()?);
                }
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
        } else if self.parse_keyword(Keyword::AS) {
            query = Some(Box::new(self.parse_query()?));
        } else {
            return Err(self.error_here("expected ( column list ) or AS query"));
        }
        // `CREATE TABLE t (...) AS query` is not standard; only the bare
        // CTAS form sets `query`.
        Ok(Statement::CreateTable {
            or_replace,
            temporary,
            if_not_exists,
            name,
            columns,
            constraints,
            query,
        })
    }

    fn parse_optional_table_constraint(&mut self) -> Result<Option<TableConstraint>, ParseError> {
        // An optional `CONSTRAINT name` prefix applies to both column and
        // table constraints; we only support it on table constraints, where
        // it is most common, and discard the name (lineage does not use it).
        let snapshot = self.snapshot();
        if self.parse_keyword(Keyword::CONSTRAINT) {
            let _name = self.parse_identifier()?;
        }
        let constraint = if self.parse_keywords(&[Keyword::PRIMARY, Keyword::KEY]) {
            Some(TableConstraint::PrimaryKey(self.parse_paren_ident_list()?))
        } else if self.peek_token().is_keyword(Keyword::UNIQUE)
            && self.peek_nth(1) == &Token::LParen
        {
            self.advance();
            Some(TableConstraint::Unique(self.parse_paren_ident_list()?))
        } else if self.parse_keywords(&[Keyword::FOREIGN, Keyword::KEY]) {
            let columns = self.parse_paren_ident_list()?;
            self.expect_keyword(Keyword::REFERENCES)?;
            let foreign_table = self.parse_object_name()?;
            let referred_columns = if self.peek_token() == &Token::LParen {
                self.parse_paren_ident_list()?
            } else {
                Vec::new()
            };
            Some(TableConstraint::ForeignKey { columns, foreign_table, referred_columns })
        } else if self.peek_token().is_keyword(Keyword::CHECK) && self.peek_nth(1) == &Token::LParen
        {
            self.advance();
            self.expect_token(&Token::LParen)?;
            let expr = self.parse_expr()?;
            self.expect_token(&Token::RParen)?;
            Some(TableConstraint::Check(expr))
        } else {
            None
        };
        if constraint.is_none() {
            self.rollback(snapshot);
        }
        Ok(constraint)
    }

    fn parse_column_def(&mut self) -> Result<ColumnDef, ParseError> {
        let name = self.parse_identifier()?;
        let data_type = self.parse_data_type()?;
        let mut options = Vec::new();
        loop {
            if self.parse_keywords(&[Keyword::NOT, Keyword::NULL]) {
                options.push(ColumnOption::NotNull);
            } else if self.parse_keyword(Keyword::NULL) {
                options.push(ColumnOption::Null);
            } else if self.parse_keywords(&[Keyword::PRIMARY, Keyword::KEY]) {
                options.push(ColumnOption::PrimaryKey);
            } else if self.parse_keyword(Keyword::UNIQUE) {
                options.push(ColumnOption::Unique);
            } else if self.parse_keyword(Keyword::DEFAULT) {
                options.push(ColumnOption::Default(self.parse_expr()?));
            } else if self.parse_keyword(Keyword::REFERENCES) {
                let table = self.parse_object_name()?;
                let column = if self.peek_token() == &Token::LParen {
                    self.advance();
                    let c = self.parse_identifier()?;
                    self.expect_token(&Token::RParen)?;
                    Some(c)
                } else {
                    None
                };
                options.push(ColumnOption::References { table, column });
            } else if self.parse_keyword(Keyword::CHECK) {
                self.expect_token(&Token::LParen)?;
                let expr = self.parse_expr()?;
                self.expect_token(&Token::RParen)?;
                options.push(ColumnOption::Check(expr));
            } else {
                break;
            }
        }
        Ok(ColumnDef { name, data_type, options })
    }

    /// Parse a data type: a one-or-two-word type phrase, optional numeric
    /// parameters, and an optional `with/without time zone` suffix.
    pub(crate) fn parse_data_type(&mut self) -> Result<DataType, ParseError> {
        let first = match self.peek_token() {
            Token::Word(w)
                if w.keyword.is_none() || !w.keyword.unwrap().is_reserved_for_alias() =>
            {
                let v = w.value.to_lowercase();
                self.advance();
                v
            }
            other => return Err(self.error_here(format!("expected data type, found {other}"))),
        };
        let mut name = first;
        // Known two-word type phrases.
        let continuation: Option<&str> = match (name.as_str(), self.peek_token()) {
            ("double", Token::Word(w)) if w.value.eq_ignore_ascii_case("precision") => {
                Some("precision")
            }
            ("character", Token::Word(w)) if w.value.eq_ignore_ascii_case("varying") => {
                Some("varying")
            }
            ("bit", Token::Word(w)) if w.value.eq_ignore_ascii_case("varying") => Some("varying"),
            _ => None,
        };
        if let Some(cont) = continuation {
            self.advance();
            name.push(' ');
            name.push_str(cont);
        }
        let mut params = Vec::new();
        if self.peek_token() == &Token::LParen {
            self.advance();
            loop {
                match self.next_token() {
                    Token::Number(n) => {
                        let v = n
                            .parse::<u64>()
                            .map_err(|_| self.error_here(format!("invalid type parameter {n}")))?;
                        params.push(v);
                    }
                    other => {
                        return Err(
                            self.error_here(format!("expected numeric parameter, found {other}"))
                        )
                    }
                }
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
        }
        let mut suffix = None;
        if matches!(name.as_str(), "time" | "timestamp") {
            let snapshot = self.snapshot();
            let with = if self.parse_keyword(Keyword::WITH) {
                Some(true)
            } else if matches!(self.peek_token(), Token::Word(w) if w.value.eq_ignore_ascii_case("without"))
            {
                self.advance();
                Some(false)
            } else {
                None
            };
            if let Some(with) = with {
                let time_ok = matches!(self.peek_token(), Token::Word(w) if w.value.eq_ignore_ascii_case("time"));
                if time_ok {
                    self.advance();
                    let zone_ok = matches!(self.peek_token(), Token::Word(w) if w.value.eq_ignore_ascii_case("zone"));
                    if zone_ok {
                        self.advance();
                        suffix = Some(if with {
                            "with time zone".to_string()
                        } else {
                            "without time zone".to_string()
                        });
                    } else {
                        self.rollback(snapshot);
                    }
                } else {
                    self.rollback(snapshot);
                }
            }
        }
        Ok(DataType { name, params, suffix })
    }

    fn parse_insert(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword(Keyword::INSERT)?;
        self.expect_keyword(Keyword::INTO)?;
        let table = self.parse_object_name()?;
        let columns = if self.peek_token() == &Token::LParen
            && !matches!(self.peek_nth(1), Token::Word(w) if w.keyword == Some(Keyword::SELECT) || w.keyword == Some(Keyword::WITH))
        {
            self.parse_paren_ident_list()?
        } else {
            Vec::new()
        };
        let source = Box::new(self.parse_query()?);
        Ok(Statement::Insert { table, columns, source })
    }

    fn parse_update(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword(Keyword::UPDATE)?;
        let table = self.parse_object_name()?;
        let alias = self.parse_optional_table_alias()?;
        self.expect_keyword(Keyword::SET)?;
        let mut assignments = Vec::new();
        loop {
            let column = self.parse_identifier()?;
            self.expect_token(&Token::Eq)?;
            let value = self.parse_expr()?;
            assignments.push(Assignment { column, value });
            if !self.consume_token(&Token::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        if self.parse_keyword(Keyword::FROM) {
            loop {
                from.push(self.parse_table_with_joins()?);
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
        }
        let selection =
            if self.parse_keyword(Keyword::WHERE) { Some(self.parse_expr()?) } else { None };
        Ok(Statement::Update { table, alias, assignments, from, selection })
    }

    fn parse_delete(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword(Keyword::DELETE)?;
        self.expect_keyword(Keyword::FROM)?;
        let table = self.parse_object_name()?;
        let alias = self.parse_optional_table_alias()?;
        let mut using = Vec::new();
        if self.parse_keyword(Keyword::USING) {
            loop {
                using.push(self.parse_table_with_joins()?);
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
        }
        let selection =
            if self.parse_keyword(Keyword::WHERE) { Some(self.parse_expr()?) } else { None };
        Ok(Statement::Delete { table, alias, using, selection })
    }

    fn parse_drop(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword(Keyword::DROP)?;
        let object_type = if self.parse_keyword(Keyword::TABLE) {
            ObjectType::Table
        } else if self.parse_keywords(&[Keyword::MATERIALIZED, Keyword::VIEW]) {
            ObjectType::MaterializedView
        } else if self.parse_keyword(Keyword::VIEW) {
            ObjectType::View
        } else {
            return Err(self.error_here("expected TABLE or VIEW after DROP"));
        };
        let if_exists = self.parse_keywords(&[Keyword::IF, Keyword::EXISTS]);
        let mut names = vec![self.parse_object_name()?];
        while self.consume_token(&Token::Comma) {
            names.push(self.parse_object_name()?);
        }
        Ok(Statement::Drop { object_type, if_exists, names })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_multiple_statements() {
        let stmts = Parser::parse_sql("SELECT 1; SELECT 2;; SELECT 3").unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn empty_input_yields_no_statements() {
        assert!(Parser::parse_sql("").unwrap().is_empty());
        assert!(Parser::parse_sql(" ;; ; ").unwrap().is_empty());
    }

    #[test]
    fn garbage_between_statements_errors() {
        let err = Parser::parse_sql("SELECT 1 SELECT 2").unwrap_err();
        assert!(err.message.contains("end of statement"), "{err}");
    }

    #[test]
    fn spanned_statements_cover_their_source() {
        let sql = "SELECT 1;\nCREATE VIEW v AS SELECT a FROM t;";
        let stmts = Parser::parse_sql_spanned(sql).unwrap();
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[0].span.slice(sql), "SELECT 1");
        assert_eq!(stmts[1].span.slice(sql), "CREATE VIEW v AS SELECT a FROM t");
        assert_eq!(stmts[1].span.location.line, 2);
    }

    #[test]
    fn identifiers_carry_token_spans() {
        let sql = "SELECT col FROM tbl";
        let stmts = Parser::parse_sql_spanned(sql).unwrap();
        let Statement::Query(q) = &stmts[0].statement else { panic!() };
        let SetExpr::Select(sel) = &q.body else { panic!() };
        let SelectItem::UnnamedExpr(Expr::Identifier(col)) = &sel.projection[0] else { panic!() };
        assert_eq!(col.span.slice(sql), "col");
        let TableFactor::Table { name, .. } = &sel.from[0].relation else { panic!() };
        assert_eq!(name.span().slice(sql), "tbl");
    }

    #[test]
    fn recovering_parse_keeps_good_statements() {
        let sql = "SELECT a FROM t;\nSELECT FROM oops;\nSELECT b FROM u;";
        let script = Parser::parse_statements_recovering(sql);
        assert_eq!(script.statements.len(), 2);
        assert_eq!(script.errors.len(), 1);
        assert!(!script.is_clean());
        assert_eq!(script.errors[0].span.location.line, 2);
        assert_eq!(script.statements[1].span.location.line, 3);
    }

    #[test]
    fn recovering_parse_survives_lex_errors() {
        // `#` is not a valid SQL character; the lexer must resynchronise.
        let sql = "SELECT a # b;\nSELECT c FROM t;";
        let script = Parser::parse_statements_recovering(sql);
        assert_eq!(script.errors.len(), 1);
        assert_eq!(script.statements.len(), 1);
        assert_eq!(script.statements[0].span.location.line, 2);
    }

    #[test]
    fn recovering_parse_reports_trailing_garbage() {
        let script = Parser::parse_statements_recovering("SELECT 1 SELECT 2; SELECT 3");
        assert_eq!(script.errors.len(), 1);
        assert_eq!(script.statements.len(), 1);
        assert!(matches!(&script.statements[0].statement, Statement::Query(_)));
    }

    #[test]
    fn recovering_parse_of_clean_script_matches_strict() {
        let sql = "SELECT a FROM t; CREATE VIEW v AS SELECT 1;";
        let strict = Parser::parse_sql(sql).unwrap();
        let script = Parser::parse_statements_recovering(sql);
        assert!(script.is_clean());
        let recovered: Vec<Statement> =
            script.statements.into_iter().map(|s| s.statement).collect();
        assert_eq!(strict, recovered);
    }

    #[test]
    fn noise_statements_parse_without_tripping() {
        let sql = "BEGIN; SET search_path = public; EXPLAIN SELECT * FROM t; \
                   ANALYZE web; COMMIT; ROLLBACK";
        let stmts = Parser::parse_sql(sql).unwrap();
        let kinds: Vec<NoiseKind> = stmts
            .iter()
            .map(|s| match s {
                Statement::Noise(n) => n.kind,
                other => panic!("expected noise, got {other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                NoiseKind::Begin,
                NoiseKind::Set,
                NoiseKind::Explain,
                NoiseKind::Analyze,
                NoiseKind::Commit,
                NoiseKind::Rollback,
            ]
        );
        // The noise text preserves the tokens for diagnostics.
        let Statement::Noise(explain) = &stmts[2] else { panic!() };
        assert_eq!(explain.text, "EXPLAIN SELECT * FROM t");
    }

    #[test]
    fn noise_statements_roundtrip_through_display() {
        for sql in ["BEGIN", "SET search_path = public", "EXPLAIN SELECT a FROM t"] {
            let stmt = crate::parse_statement(sql).unwrap();
            let redisplayed = crate::parse_statement(&stmt.to_string()).unwrap();
            assert_eq!(stmt, redisplayed);
        }
    }

    #[test]
    fn parses_create_view() {
        let stmt = crate::parse_statement(
            "CREATE OR REPLACE MATERIALIZED VIEW v(a, b) AS SELECT x, y FROM t",
        )
        .unwrap();
        match stmt {
            Statement::CreateView { or_replace, materialized, name, columns, .. } => {
                assert!(or_replace);
                assert!(materialized);
                assert_eq!(name.base_name(), "v");
                assert_eq!(columns.len(), 2);
            }
            other => panic!("expected CreateView, got {other:?}"),
        }
    }

    #[test]
    fn parses_create_table_with_constraints() {
        let sql = "CREATE TABLE orders (
            oid int PRIMARY KEY,
            cid int NOT NULL REFERENCES customers(cid),
            amount numeric(10, 2) DEFAULT 0,
            note character varying(100),
            CONSTRAINT uq UNIQUE (oid, cid),
            FOREIGN KEY (cid) REFERENCES customers (cid),
            CHECK (amount >= 0)
        )";
        let stmt = crate::parse_statement(sql).unwrap();
        match stmt {
            Statement::CreateTable { name, columns, constraints, query, .. } => {
                assert_eq!(name.base_name(), "orders");
                assert_eq!(columns.len(), 4);
                assert_eq!(constraints.len(), 3);
                assert!(query.is_none());
                assert_eq!(columns[2].data_type.params, vec![10, 2]);
                assert_eq!(columns[3].data_type.name, "character varying");
            }
            other => panic!("expected CreateTable, got {other:?}"),
        }
    }

    #[test]
    fn parses_ctas() {
        let stmt = crate::parse_statement("CREATE TABLE t2 AS SELECT * FROM t1").unwrap();
        match stmt {
            Statement::CreateTable { query, columns, .. } => {
                assert!(query.is_some());
                assert!(columns.is_empty());
            }
            other => panic!("expected CreateTable, got {other:?}"),
        }
    }

    #[test]
    fn parses_insert_select() {
        let stmt = crate::parse_statement("INSERT INTO t (a, b) SELECT x, y FROM u").unwrap();
        match stmt {
            Statement::Insert { table, columns, .. } => {
                assert_eq!(table.base_name(), "t");
                assert_eq!(columns.len(), 2);
            }
            other => panic!("expected Insert, got {other:?}"),
        }
    }

    #[test]
    fn parses_insert_values() {
        let stmt = crate::parse_statement("INSERT INTO t VALUES (1, 'x'), (2, 'y')").unwrap();
        match stmt {
            Statement::Insert { source, .. } => {
                assert!(matches!(source.body, SetExpr::Values(_)));
            }
            other => panic!("expected Insert, got {other:?}"),
        }
    }

    #[test]
    fn parses_drop() {
        let stmt = crate::parse_statement("DROP VIEW IF EXISTS a, b.c").unwrap();
        match stmt {
            Statement::Drop { object_type, if_exists, names } => {
                assert_eq!(object_type, ObjectType::View);
                assert!(if_exists);
                assert_eq!(names.len(), 2);
            }
            other => panic!("expected Drop, got {other:?}"),
        }
    }

    #[test]
    fn timestamp_with_time_zone() {
        let stmt = crate::parse_statement("CREATE TABLE t (ts timestamp with time zone)").unwrap();
        match stmt {
            Statement::CreateTable { columns, .. } => {
                assert_eq!(columns[0].data_type.suffix.as_deref(), Some("with time zone"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_update() {
        let stmt = crate::parse_statement(
            "UPDATE web AS w SET page = u.page, reg = TRUE FROM updates u WHERE w.cid = u.cid",
        )
        .unwrap();
        match stmt {
            Statement::Update { table, alias, assignments, from, selection } => {
                assert_eq!(table.base_name(), "web");
                assert_eq!(alias.unwrap().name.value, "w");
                assert_eq!(assignments.len(), 2);
                assert_eq!(assignments[0].column.value, "page");
                assert_eq!(from.len(), 1);
                assert!(selection.is_some());
            }
            other => panic!("expected Update, got {other:?}"),
        }
    }

    #[test]
    fn parses_minimal_update() {
        let stmt = crate::parse_statement("UPDATE t SET a = 1").unwrap();
        match stmt {
            Statement::Update { assignments, from, selection, alias, .. } => {
                assert_eq!(assignments.len(), 1);
                assert!(from.is_empty());
                assert!(selection.is_none());
                assert!(alias.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_delete() {
        let stmt = crate::parse_statement("DELETE FROM web w USING retired r WHERE w.cid = r.cid")
            .unwrap();
        match stmt {
            Statement::Delete { table, alias, using, selection } => {
                assert_eq!(table.base_name(), "web");
                assert_eq!(alias.unwrap().name.value, "w");
                assert_eq!(using.len(), 1);
                assert!(selection.is_some());
            }
            other => panic!("expected Delete, got {other:?}"),
        }
    }

    #[test]
    fn reserved_word_as_identifier_fails() {
        assert!(crate::parse_statement("SELECT * FROM select").is_err());
    }

    #[test]
    fn quoted_reserved_word_as_identifier_ok() {
        let stmt = crate::parse_statement(r#"SELECT * FROM "select""#).unwrap();
        assert!(matches!(stmt, Statement::Query(_)));
    }
}
