//! The SQL lexer: turns raw text into [`SpannedToken`]s, one statement at
//! a time for the parser's statement driver, or a whole script at once.
//!
//! Handles `--` line comments, `/* ... */` block comments (nested, as in
//! Postgres), single-quoted strings with `''` escapes, `E'...'` escape
//! strings, double-quoted / backtick / bracket identifiers, numbers with
//! exponents, and all multi-character operators used by the parser.

use crate::dialect::{Dialect, DialectKind};
use crate::error::ParseError;
use crate::span::{Location, Span};
use crate::token::{SpannedToken, Token, Word};

/// A streaming lexer over a SQL source string.
pub struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    dialect: &'static dyn Dialect,
}

impl<'a> Lexer<'a> {
    /// Create a lexer over `src` using the permissive ANSI dialect.
    pub fn new(src: &'a str) -> Self {
        Lexer::with_dialect(src, DialectKind::Ansi)
    }

    /// Create a lexer over `src` for a specific dialect.
    pub fn with_dialect(src: &'a str, dialect: DialectKind) -> Self {
        Lexer { src, bytes: src.as_bytes(), pos: 0, line: 1, col: 1, dialect: dialect.behavior() }
    }

    /// Tokenize the entire input, appending a final [`Token::Eof`].
    pub fn tokenize(src: &'a str) -> Result<Vec<SpannedToken>, ParseError> {
        Lexer::tokenize_with(src, DialectKind::Ansi)
    }

    /// Tokenize the entire input under `dialect`, appending a final
    /// [`Token::Eof`].
    pub fn tokenize_with(
        src: &'a str,
        dialect: DialectKind,
    ) -> Result<Vec<SpannedToken>, ParseError> {
        let mut lexer = Lexer::with_dialect(src, dialect);
        let mut out = Vec::new();
        while !lexer.lex_statement(&mut out, None)? {}
        Ok(out)
    }

    /// Tokenize as much of the input as possible, collecting lex errors
    /// instead of aborting on the first one.
    ///
    /// After an error the lexer resynchronises at the next `;` in the raw
    /// text (the statement separator, which no token may contain), so one
    /// corrupt statement cannot take down the rest of a query log. Line
    /// and column accounting continue through the skipped region, so
    /// every span — before and after the error — stays accurate.
    pub fn tokenize_recovering(src: &'a str) -> (Vec<SpannedToken>, Vec<ParseError>) {
        Lexer::tokenize_recovering_with(src, DialectKind::Ansi)
    }

    /// [`Lexer::tokenize_recovering`] under a specific dialect.
    pub fn tokenize_recovering_with(
        src: &'a str,
        dialect: DialectKind,
    ) -> (Vec<SpannedToken>, Vec<ParseError>) {
        let mut lexer = Lexer::with_dialect(src, dialect);
        let mut out = Vec::new();
        let mut errors = Vec::new();
        while lexer.lex_statement(&mut out, Some(&mut errors)) == Ok(false) {}
        (out, errors)
    }

    /// Lex one statement's tokens onto `out`: everything up to and
    /// including the next `;` token, or [`Token::Eof`]. Returns whether
    /// the input is exhausted (the pushed statement ends in `Eof`).
    ///
    /// Without `errors` a lex error is returned. With it the error is
    /// recorded instead: the statement's tokens so far are discarded (a
    /// truncated prefix must not masquerade as a complete statement), and
    /// lexing resumes at the next `;` in the raw text, the statement
    /// separator no token may contain, which is lexed normally. Every
    /// error path in `next_token` consumes at least one byte, so recovery
    /// always makes progress.
    pub(crate) fn lex_statement(
        &mut self,
        out: &mut Vec<SpannedToken>,
        mut errors: Option<&mut Vec<ParseError>>,
    ) -> Result<bool, ParseError> {
        let start = out.len();
        loop {
            match self.next_token() {
                Ok(tok) => {
                    let eof = tok.token == Token::Eof;
                    let end = eof || tok.token == Token::Semicolon;
                    out.push(tok);
                    if end {
                        return Ok(eof);
                    }
                }
                Err(error) => {
                    let Some(errors) = errors.as_deref_mut() else { return Err(error) };
                    errors.push(error);
                    out.truncate(start);
                    while let Some(b) = self.peek() {
                        if b == b';' {
                            break;
                        }
                        self.advance_char();
                    }
                }
            }
        }
    }

    fn location(&self) -> Location {
        Location::new(self.line, self.col)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.bytes.get(self.pos + offset).copied()
    }

    /// Advance one byte (must not be called mid-UTF8-sequence for col
    /// accounting; multi-byte chars advance via `advance_char`).
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    /// Advance over one full (possibly multi-byte) character.
    fn advance_char(&mut self) {
        if let Some(c) = self.src[self.pos..].chars().next() {
            self.pos += c.len_utf8();
            if c == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
    }

    fn skip_whitespace_and_comments(&mut self) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\r') | Some(b'\n') => {
                    self.bump();
                }
                Some(b'-') if self.peek_at(1) == Some(b'-') => {
                    self.skip_to_line_end();
                }
                Some(b'#') if self.dialect.hash_line_comments() => {
                    self.skip_to_line_end();
                }
                Some(b'/')
                    if self.peek_at(1) == Some(b'/')
                        && self.dialect.double_slash_line_comments() =>
                {
                    self.skip_to_line_end();
                }
                Some(b'/') if self.peek_at(1) == Some(b'*') => {
                    let start = self.location();
                    let start_pos = self.pos;
                    self.bump();
                    self.bump();
                    let mut depth = 1usize;
                    loop {
                        match (self.peek(), self.peek_at(1)) {
                            (Some(b'*'), Some(b'/')) => {
                                self.bump();
                                self.bump();
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            (Some(b'/'), Some(b'*')) => {
                                self.bump();
                                self.bump();
                                depth += 1;
                            }
                            (Some(_), _) => self.advance_char(),
                            (None, _) => {
                                return Err(ParseError::new(
                                    "unterminated block comment",
                                    Span::new(start_pos, self.pos, start),
                                ))
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn skip_to_line_end(&mut self) {
        while let Some(b) = self.peek() {
            if b == b'\n' {
                break;
            }
            self.advance_char();
        }
    }

    /// Produce the next token.
    pub fn next_token(&mut self) -> Result<SpannedToken, ParseError> {
        self.skip_whitespace_and_comments()?;
        let start_pos = self.pos;
        let start_loc = self.location();
        let span = |lexer: &Lexer<'a>| Span::new(start_pos, lexer.pos, start_loc);

        let Some(b) = self.peek() else {
            return Ok(SpannedToken { token: Token::Eof, span: span(self) });
        };

        let token = match b {
            b'\'' => {
                let s = self.lex_single_quoted(start_pos, start_loc)?;
                Token::SingleQuotedString(s)
            }
            b'"' => {
                let s = self.lex_quoted_ident(b'"', b'"', start_pos, start_loc)?;
                Token::Word(Word::quoted(s, '"'))
            }
            b'`' if self.dialect.backtick_identifiers() => {
                let s = self.lex_quoted_ident(b'`', b'`', start_pos, start_loc)?;
                Token::Word(Word::quoted(s, '`'))
            }
            b'[' if self.dialect.bracket_identifiers() => {
                let s = self.lex_quoted_ident(b'[', b']', start_pos, start_loc)?;
                Token::Word(Word::quoted(s, '['))
            }
            b'0'..=b'9' => self.lex_number(),
            b'.' => {
                // `.5` is a number; `t.c` is a period.
                if matches!(self.peek_at(1), Some(b'0'..=b'9')) {
                    self.lex_number()
                } else {
                    self.bump();
                    Token::Period
                }
            }
            b',' => {
                self.bump();
                Token::Comma
            }
            b'(' => {
                self.bump();
                Token::LParen
            }
            b')' => {
                self.bump();
                Token::RParen
            }
            b';' => {
                self.bump();
                Token::Semicolon
            }
            b'*' => {
                self.bump();
                Token::Star
            }
            b'+' => {
                self.bump();
                Token::Plus
            }
            b'-' => {
                self.bump();
                Token::Minus
            }
            b'/' => {
                self.bump();
                Token::Slash
            }
            b'%' => {
                self.bump();
                Token::Percent
            }
            b'^' => {
                self.bump();
                Token::Caret
            }
            b'=' => {
                self.bump();
                Token::Eq
            }
            b'!' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Token::Neq
                } else {
                    return Err(ParseError::new("unexpected character '!'", span(self)));
                }
            }
            b'<' => {
                self.bump();
                match self.peek() {
                    Some(b'=') => {
                        self.bump();
                        Token::LtEq
                    }
                    Some(b'>') => {
                        self.bump();
                        Token::Neq
                    }
                    _ => Token::Lt,
                }
            }
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Token::GtEq
                } else {
                    Token::Gt
                }
            }
            b'|' => {
                self.bump();
                if self.peek() == Some(b'|') {
                    self.bump();
                    Token::Concat
                } else {
                    return Err(ParseError::new("unexpected character '|'", span(self)));
                }
            }
            b':' => {
                self.bump();
                if self.peek() == Some(b':') {
                    self.bump();
                    Token::DoubleColon
                } else {
                    return Err(ParseError::new("unexpected character ':'", span(self)));
                }
            }
            b'?' => {
                self.bump();
                Token::Placeholder("?".into())
            }
            b'$' => {
                self.bump();
                let mut p = String::from("$");
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    p.push(self.bump().unwrap() as char);
                }
                Token::Placeholder(p)
            }
            b'E' | b'e' if self.peek_at(1) == Some(b'\'') => {
                // Postgres escape string E'...'; fold common escapes.
                self.bump(); // E
                let s = self.lex_escape_string(start_pos, start_loc)?;
                Token::SingleQuotedString(s)
            }
            b'N' | b'n' if self.peek_at(1) == Some(b'\'') => {
                self.bump(); // N
                let s = self.lex_single_quoted(start_pos, start_loc)?;
                Token::NationalString(s)
            }
            _ if is_ident_start(b) || !b.is_ascii() => {
                let word = self.lex_word();
                Token::Word(Word::bare(word))
            }
            other => {
                self.advance_char();
                return Err(ParseError::new(
                    format!("unexpected character {:?}", other as char),
                    span(self),
                ));
            }
        };

        Ok(SpannedToken { token, span: span(self) })
    }

    fn lex_word(&mut self) -> String {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if is_ident_part(b) || !b.is_ascii() {
                self.advance_char();
            } else {
                break;
            }
        }
        self.src[start..self.pos].to_string()
    }

    fn lex_number(&mut self) -> Token {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.bump();
        }
        // Consume a fractional part only when a digit follows the dot, so
        // that `7.` lexes as the number `7` and a separate period.
        if self.peek() == Some(b'.') && matches!(self.peek_at(1), Some(b'0'..=b'9')) {
            self.bump(); // '.'
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            let mut lookahead = 1;
            if matches!(self.peek_at(1), Some(b'+') | Some(b'-')) {
                lookahead = 2;
            }
            if matches!(self.peek_at(lookahead), Some(b'0'..=b'9')) {
                for _ in 0..=lookahead {
                    self.bump();
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.bump();
                }
            }
        }
        Token::Number(self.src[start..self.pos].to_string())
    }

    fn lex_single_quoted(
        &mut self,
        start_pos: usize,
        start_loc: Location,
    ) -> Result<String, ParseError> {
        debug_assert_eq!(self.peek(), Some(b'\''));
        self.bump();
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'\'') => {
                    self.bump();
                    if self.peek() == Some(b'\'') {
                        out.push('\'');
                        self.bump();
                    } else {
                        return Ok(out);
                    }
                }
                Some(_) => {
                    let c = self.src[self.pos..].chars().next().unwrap();
                    out.push(c);
                    self.advance_char();
                }
                None => {
                    return Err(ParseError::new(
                        "unterminated string literal",
                        Span::new(start_pos, self.pos, start_loc),
                    ))
                }
            }
        }
    }

    fn lex_escape_string(
        &mut self,
        start_pos: usize,
        start_loc: Location,
    ) -> Result<String, ParseError> {
        debug_assert_eq!(self.peek(), Some(b'\''));
        self.bump();
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'\'') => {
                    self.bump();
                    if self.peek() == Some(b'\'') {
                        out.push('\'');
                        self.bump();
                    } else {
                        return Ok(out);
                    }
                }
                Some(b'\\') => {
                    self.bump();
                    let c = match self.peek() {
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'\\') => '\\',
                        Some(b'\'') => '\'',
                        Some(other) => other as char,
                        None => {
                            return Err(ParseError::new(
                                "unterminated escape string",
                                Span::new(start_pos, self.pos, start_loc),
                            ))
                        }
                    };
                    out.push(c);
                    self.advance_char();
                }
                Some(_) => {
                    let c = self.src[self.pos..].chars().next().unwrap();
                    out.push(c);
                    self.advance_char();
                }
                None => {
                    return Err(ParseError::new(
                        "unterminated string literal",
                        Span::new(start_pos, self.pos, start_loc),
                    ))
                }
            }
        }
    }

    fn lex_quoted_ident(
        &mut self,
        open: u8,
        close: u8,
        start_pos: usize,
        start_loc: Location,
    ) -> Result<String, ParseError> {
        debug_assert_eq!(self.peek(), Some(open));
        self.bump();
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b) if b == close => {
                    self.bump();
                    // Doubled close quote is an escaped quote char.
                    if self.peek() == Some(close) && open == close {
                        out.push(close as char);
                        self.bump();
                    } else {
                        return Ok(out);
                    }
                }
                Some(_) => {
                    let c = self.src[self.pos..].chars().next().unwrap();
                    out.push(c);
                    self.advance_char();
                }
                None => {
                    return Err(ParseError::new(
                        "unterminated quoted identifier",
                        Span::new(start_pos, self.pos, start_loc),
                    ))
                }
            }
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_part(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'$'
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keywords::Keyword;

    fn toks(sql: &str) -> Vec<Token> {
        Lexer::tokenize(sql).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn lexes_simple_select() {
        let t = toks("SELECT a FROM t");
        assert_eq!(t.len(), 5); // SELECT a FROM t <eof>
        assert!(t[0].is_keyword(Keyword::SELECT));
        assert!(matches!(&t[1], Token::Word(w) if w.value == "a"));
        assert!(t[2].is_keyword(Keyword::FROM));
    }

    #[test]
    fn skips_line_comments() {
        let t = toks("SELECT -- comment here\n a");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn skips_nested_block_comments() {
        let t = toks("SELECT /* outer /* inner */ still outer */ a");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(Lexer::tokenize("SELECT /* oops").is_err());
    }

    #[test]
    fn lexes_string_with_escaped_quote() {
        let t = toks("'it''s'");
        assert_eq!(t[0], Token::SingleQuotedString("it's".into()));
    }

    #[test]
    fn lexes_escape_string() {
        let t = toks(r"E'line\nbreak'");
        assert_eq!(t[0], Token::SingleQuotedString("line\nbreak".into()));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(Lexer::tokenize("'oops").is_err());
    }

    #[test]
    fn lexes_quoted_identifiers() {
        let t = toks(r#""Weird Name" `tick` [bracket name]"#);
        assert!(matches!(&t[0], Token::Word(w) if w.value == "Weird Name" && w.quote == Some('"')));
        assert!(matches!(&t[1], Token::Word(w) if w.value == "tick" && w.quote == Some('`')));
        assert!(
            matches!(&t[2], Token::Word(w) if w.value == "bracket name" && w.quote == Some('['))
        );
    }

    #[test]
    fn doubled_double_quote_escapes() {
        let t = toks(r#""a""b""#);
        assert!(matches!(&t[0], Token::Word(w) if w.value == "a\"b"));
    }

    #[test]
    fn lexes_numbers() {
        let t = toks("42 3.14 .5 1e6 2.5E-3 7.");
        assert_eq!(t[0], Token::Number("42".into()));
        assert_eq!(t[1], Token::Number("3.14".into()));
        assert_eq!(t[2], Token::Number(".5".into()));
        assert_eq!(t[3], Token::Number("1e6".into()));
        assert_eq!(t[4], Token::Number("2.5E-3".into()));
        // "7." lexes as number 7 then a period (identifier access never
        // follows a number in valid SQL).
        assert_eq!(t[5], Token::Number("7".into()));
        assert_eq!(t[6], Token::Period);
    }

    #[test]
    fn lexes_operators() {
        let t = toks("= <> != < > <= >= || :: ^ + - * / %");
        assert_eq!(
            &t[..t.len() - 1],
            &[
                Token::Eq,
                Token::Neq,
                Token::Neq,
                Token::Lt,
                Token::Gt,
                Token::LtEq,
                Token::GtEq,
                Token::Concat,
                Token::DoubleColon,
                Token::Caret,
                Token::Plus,
                Token::Minus,
                Token::Star,
                Token::Slash,
                Token::Percent,
            ]
        );
    }

    #[test]
    fn lexes_placeholders() {
        let t = toks("? $1 $23");
        assert_eq!(t[0], Token::Placeholder("?".into()));
        assert_eq!(t[1], Token::Placeholder("$1".into()));
        assert_eq!(t[2], Token::Placeholder("$23".into()));
    }

    #[test]
    fn tracks_line_and_column() {
        let toks = Lexer::tokenize("SELECT\n  a").unwrap();
        assert_eq!(toks[1].span.location.line, 2);
        assert_eq!(toks[1].span.location.column, 3);
    }

    #[test]
    fn word_starting_with_e_is_not_escape_string() {
        let t = toks("extract epoch");
        assert!(matches!(&t[0], Token::Word(w) if w.keyword == Some(Keyword::EXTRACT)));
        assert!(matches!(&t[1], Token::Word(w) if w.value == "epoch"));
    }

    #[test]
    fn national_string() {
        let t = toks("N'café'");
        assert_eq!(t[0], Token::NationalString("café".into()));
    }

    #[test]
    fn rejects_stray_characters() {
        assert!(Lexer::tokenize("SELECT a # b").is_err());
        assert!(Lexer::tokenize("a ! b").is_err());
        assert!(Lexer::tokenize("a : b").is_err());
        assert!(Lexer::tokenize("a | b").is_err());
    }

    #[test]
    fn unicode_identifiers_lex() {
        let t = toks("sélect_col täble");
        assert!(matches!(&t[0], Token::Word(w) if w.value == "sélect_col"));
        assert!(matches!(&t[1], Token::Word(w) if w.value == "täble"));
    }

    fn toks_with(sql: &str, dialect: DialectKind) -> Vec<Token> {
        Lexer::tokenize_with(sql, dialect).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn bigquery_hash_comments() {
        let t = toks_with("SELECT # trailing\n a", DialectKind::BigQuery);
        assert_eq!(t.len(), 3);
        // Under every other dialect `#` stays a lex error.
        assert!(Lexer::tokenize_with("SELECT # x", DialectKind::Ansi).is_err());
        assert!(Lexer::tokenize_with("SELECT # x", DialectKind::Snowflake).is_err());
    }

    #[test]
    fn snowflake_double_slash_comments() {
        let t = toks_with("SELECT // trailing\n a", DialectKind::Snowflake);
        assert_eq!(t.len(), 3);
        // Elsewhere `//` is two division operators, not a comment.
        let t = toks_with("a // b", DialectKind::Ansi);
        assert_eq!(t[1], Token::Slash);
        assert_eq!(t[2], Token::Slash);
    }

    #[test]
    fn quoting_styles_follow_the_dialect() {
        // Backticks: BigQuery and permissive ANSI only.
        assert!(matches!(
            &toks_with("`q`", DialectKind::BigQuery)[0],
            Token::Word(w) if w.value == "q" && w.quote == Some('`')
        ));
        assert!(Lexer::tokenize_with("`q`", DialectKind::Postgres).is_err());
        assert!(Lexer::tokenize_with("`q`", DialectKind::TSql).is_err());
        // Brackets: T-SQL and permissive ANSI only.
        assert!(matches!(
            &toks_with("[q]", DialectKind::TSql)[0],
            Token::Word(w) if w.value == "q" && w.quote == Some('[')
        ));
        assert!(Lexer::tokenize_with("[q]", DialectKind::Snowflake).is_err());
        // Double quotes work everywhere.
        for kind in DialectKind::ALL {
            assert!(matches!(
                &toks_with(r#""q""#, kind)[0],
                Token::Word(w) if w.value == "q" && w.quote == Some('"')
            ));
        }
    }

    #[test]
    fn wrong_dialect_quote_errors_carry_spans() {
        let err = Lexer::tokenize_with("SELECT `q` FROM t", DialectKind::Postgres).unwrap_err();
        assert_eq!(err.span.location.line, 1);
        assert_eq!(err.span.location.column, 8);
    }

    #[test]
    fn recovery_works_under_every_dialect() {
        for kind in DialectKind::ALL {
            let (toks, errors) = Lexer::tokenize_recovering_with("SELECT ~bad; SELECT ok", kind);
            assert_eq!(errors.len(), 1);
            assert!(toks.iter().any(|t| matches!(&t.token, Token::Word(w) if w.value == "ok")));
        }
    }
}
