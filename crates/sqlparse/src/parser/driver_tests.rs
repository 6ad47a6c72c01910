//! The statement driver against the whole-script parse it replaced.
//!
//! The reference below lexes the whole script into one token vector
//! (`Lexer::tokenize_with` / `tokenize_recovering_with`) and then parses
//! that vector. The driver must return the same statements, spans and
//! errors (message and span) on every input, strict and recovering.

use super::*;
use proptest::prelude::*;

/// The whole-script strict parse.
fn reference_strict(sql: &str, dialect: DialectKind) -> Result<Vec<SpannedStatement>, ParseError> {
    let tokens = Lexer::tokenize_with(sql, dialect)?;
    let mut parser = Parser { tokens, index: 0, depth: 0, dialect: dialect.behavior() };
    let mut statements = Vec::new();
    loop {
        while parser.consume_token(&Token::Semicolon) {}
        if parser.peek_token() == &Token::Eof {
            break;
        }
        let start = parser.peek_span();
        let statement = parser.parse_statement()?;
        statements.push(statement.with_span(start.union(&parser.prev_span())));
        match parser.peek_token() {
            Token::Semicolon | Token::Eof => {}
            other => {
                let msg = format!("expected end of statement, found {other}");
                return Err(parser.error_here(msg));
            }
        }
    }
    Ok(statements)
}

/// The whole-script recovering parse.
fn reference_recovering(sql: &str, dialect: DialectKind) -> RecoveredScript {
    let (tokens, lex_errors) = Lexer::tokenize_recovering_with(sql, dialect);
    let mut script = RecoveredScript { statements: Vec::new(), errors: lex_errors };
    let mut parser = Parser { tokens, index: 0, depth: 0, dialect: dialect.behavior() };
    loop {
        while parser.consume_token(&Token::Semicolon) {}
        if parser.peek_token() == &Token::Eof {
            break;
        }
        let start = parser.peek_span();
        match parser.parse_statement() {
            Ok(statement) => {
                let span = start.union(&parser.prev_span());
                match parser.peek_token() {
                    Token::Semicolon | Token::Eof => {
                        script.statements.push(statement.with_span(span));
                    }
                    other => {
                        let msg = format!("expected end of statement, found {other}");
                        script.errors.push(parser.error_here(msg));
                        parser.skip_to_statement_boundary();
                    }
                }
            }
            Err(error) => {
                script.errors.push(error);
                parser.skip_to_statement_boundary();
            }
        }
    }
    script.errors.sort_by_key(|e| e.span.start);
    script
}

/// The driver and the reference agree on `sql` under `dialect`, strict
/// and recovering. `Debug` output is compared because it shows every
/// span, which `PartialEq` ignores inside identifiers.
fn assert_agree(sql: &str, dialect: DialectKind) {
    assert_eq!(
        format!("{:?}", Parser::parse_sql_spanned_with(sql, dialect)),
        format!("{:?}", reference_strict(sql, dialect)),
        "strict parse under {dialect:?} of:\n{sql}"
    );
    assert_eq!(
        format!("{:?}", Parser::parse_statements_recovering_with(sql, dialect)),
        format!("{:?}", reference_recovering(sql, dialect)),
        "recovering parse under {dialect:?} of:\n{sql}"
    );
}

#[test]
fn the_driver_matches_the_whole_script_parse_on_the_corpus() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
    let dialects = format!("{corpus}/dialects");
    let mut files = 0;
    for dir in [corpus, dialects.as_str()] {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "sql") {
                continue;
            }
            let sql = std::fs::read_to_string(&path).unwrap();
            // Every file under every dialect, its own included.
            for dialect in DialectKind::ALL {
                assert_agree(&sql, dialect);
            }
            files += 1;
        }
    }
    assert!(files >= 6, "the corpus holds the messy log and five dialect fixtures");
}

#[test]
fn a_strict_lex_error_after_a_parse_error_wins() {
    let sql = "SELECT FROM oops;\nSELECT 2;\nSELECT a # b;\nSELECT 4";
    let error = Parser::parse_sql_spanned_with(sql, DialectKind::Ansi).unwrap_err();
    assert!(error.message.contains("unexpected character '#'"), "{error}");
    assert_eq!(error.span.location.line, 3);
    assert_agree(sql, DialectKind::Ansi);
    // Without the lex error the parse error is reported.
    let sql = "SELECT FROM oops;\nSELECT 2;\nSELECT a + b;\nSELECT 4";
    let error = Parser::parse_sql_spanned_with(sql, DialectKind::Ansi).unwrap_err();
    assert_eq!(error.span.location.line, 1);
    assert_agree(sql, DialectKind::Ansi);
}

#[test]
fn a_statement_failing_at_its_semicolon_keeps_the_next_one() {
    // Each of these fails at its own `;`, so its error points there and
    // recovery resumes with the next statement.
    for broken in
        ["SELECT EXTRACT(", "CREATE TABLE t (a numeric(", "SELECT sum(a) OVER (ROWS BETWEEN"]
    {
        let sql = format!("{broken};\nSELECT 2;\nSELECT 3");
        let error = Parser::parse_sql_spanned_with(&sql, DialectKind::Ansi).unwrap_err();
        assert_eq!(error.span.start, broken.len(), "{broken}: {error}");
        assert!(error.message.ends_with("found ;"), "{broken}: {error}");
        let script = Parser::parse_statements_recovering(&sql);
        let lines: Vec<u32> = script.statements.iter().map(|s| s.span.location.line).collect();
        assert_eq!(lines, [2, 3], "{broken}");
        assert_agree(&sql, DialectKind::Ansi);
    }
}

#[test]
fn the_token_buffer_holds_one_statement_at_most() {
    let statement = "CREATE VIEW v AS SELECT a, b, c FROM t WHERE a = 1";
    let sql = vec![statement; 200].join(";\n");
    let mut script = Statements::new(&sql, DialectKind::Ansi, false);
    // The statement's tokens and its `Eof`, which stands for its `;`.
    let per_statement = Lexer::tokenize(statement).unwrap().len();
    let mut parsed = 0;
    while script.next_statement().unwrap() {
        assert!(script.parser.tokens.len() <= per_statement);
        script.parser.parse_spanned_statement().unwrap();
        parsed += 1;
    }
    assert_eq!(parsed, 200);
}

/// Statements that parse, statements that fail to parse (three of them
/// at their `;`), statements that fail to lex mid-log, and empty
/// statements.
const FRAGMENTS: &[&str] = &[
    "CREATE TABLE web (cid int, page text, reg boolean)",
    "CREATE VIEW v AS SELECT page AS p FROM web WHERE reg",
    "SELECT a, b FROM t",
    "INSERT INTO t (a) SELECT x FROM u",
    "WITH c AS (SELECT 1 AS x) SELECT x FROM c",
    "SELECT EXTRACT(YEAR FROM ts), CAST(a AS numeric(10, 2)) FROM t",
    "SELECT sum(a) OVER (ORDER BY b ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) FROM t",
    "SELECT 'a;b' AS s, \"q;\" FROM t",
    "SET search_path = public",
    "MERGE INTO t USING s ON t.a = s.a",
    "SELECT TOP 3 a FROM t",
    "-- a comment; with a semicolon\nSELECT 1",
    "/* a block; comment */ SELECT 2",
    "",
    "SELECT FROM oops",
    "SELECT 1 SELECT 2",
    "SELECT EXTRACT(",
    "CREATE TABLE t (a numeric(",
    "SELECT sum(a) OVER (ROWS BETWEEN",
    "CREATE VIEW v AS",
    "SELECT (a FROM t",
    "UPDATE t SET",
    "SELECT a # b",
    "SELECT a ! b",
    "SELECT `q` FROM t",
    "SELECT [q] FROM t",
    "SELECT a : b /* x; y */ FROM t",
    "SELECT ! 'a;b' FROM t",
];

/// Lex errors that run to the end of the script.
const ENDINGS: &[&str] = &[
    "",
    "SELECT 'unterminated",
    "SELECT /* unterminated; comment",
    "SELECT E'escape\\",
    "SELECT \"unterminated",
];

const SEPARATORS: &[&str] = &[";", ";\n", "; ", ";;\n"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_driver_matches_the_whole_script_parse_on_generated_logs(
        picks in proptest::collection::vec((0..FRAGMENTS.len(), 0..SEPARATORS.len()), 0..16),
        ending in 0..ENDINGS.len(),
        trailing in any::<bool>(),
    ) {
        let mut sql = String::new();
        for (fragment, separator) in picks {
            sql.push_str(FRAGMENTS[fragment]);
            sql.push_str(SEPARATORS[separator]);
        }
        sql.push_str(ENDINGS[ending]);
        if trailing {
            sql.push(';');
        }
        for dialect in DialectKind::ALL {
            assert_agree(&sql, dialect);
        }
    }
}

/// Where each of `fragments`, joined by `separators`, starts and where
/// its separator's `;` is, in the joined script.
fn fragment_bounds(fragments: &[&str], separators: &[&str]) -> (String, Vec<(usize, usize)>) {
    let mut sql = String::new();
    let mut bounds = Vec::new();
    for (fragment, separator) in fragments.iter().zip(separators) {
        let start = sql.len();
        sql.push_str(fragment);
        bounds.push((start, sql.len()));
        sql.push_str(separator);
    }
    (sql, bounds)
}

/// Whether `fragment` lexes cleanly under `dialect` and a `;` after it
/// is a token of its own (a dialect's line comment would swallow it).
fn ends_at_its_semicolon(fragment: &str, dialect: DialectKind) -> bool {
    let tokens = Lexer::tokenize_with(&format!("{fragment};"), dialect);
    tokens.is_ok_and(|t| t.len() >= 2 && t[t.len() - 2].token == Token::Semicolon)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No statement's parse error points past its own `;`: on logs of
    /// fragments that lex cleanly up to their `;`, each fragment that fails alone fails
    /// once, between its first byte and its `;`, and every fragment that
    /// parses alone is recovered, whatever its neighbours.
    #[test]
    fn no_parse_error_points_past_its_own_semicolon(
        picks in proptest::collection::vec((0..FRAGMENTS.len(), 0..SEPARATORS.len()), 0..16),
    ) {
        for dialect in DialectKind::ALL {
            let (fragments, separators): (Vec<&str>, Vec<&str>) = picks
                .iter()
                .map(|&(f, s)| (FRAGMENTS[f], SEPARATORS[s]))
                .filter(|(f, _)| ends_at_its_semicolon(f, dialect))
                .unzip();
            let (sql, bounds) = fragment_bounds(&fragments, &separators);
            let script = Parser::parse_statements_recovering_with(&sql, dialect);
            let (mut failing, mut parsing) = (Vec::new(), Vec::new());
            for (fragment, bound) in fragments.iter().zip(&bounds) {
                match Parser::parse_sql_spanned_with(fragment, dialect) {
                    Ok(statements) if statements.is_empty() => {}
                    Ok(_) => parsing.push(*bound),
                    Err(_) => failing.push(*bound),
                }
            }
            prop_assert_eq!(script.errors.len(), failing.len(), "{:?}: {}", dialect, sql);
            for (error, (start, semicolon)) in script.errors.iter().zip(&failing) {
                prop_assert!(
                    (*start..=*semicolon).contains(&error.span.start),
                    "{:?}: {} at {} outside {}..={} of {}", dialect, error, error.span.start,
                    start, semicolon, sql
                );
            }
            let starts: Vec<usize> = script.statements.iter().map(|s| s.span.start).collect();
            let fragment_of = |at: usize| bounds.iter().rposition(|(start, _)| *start <= at);
            let recovered: Vec<(usize, usize)> =
                starts.iter().filter_map(|&at| fragment_of(at)).map(|i| bounds[i]).collect();
            prop_assert_eq!(recovered, parsing, "{:?}: {}", dialect, sql);
        }
    }
}
