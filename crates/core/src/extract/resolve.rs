//! Column and expression resolution with ambiguity handling and
//! usage-based schema inference (the paper's second challenge).
//!
//! In lenient mode ([`crate::ExtractOptions::lenient`]) a reference that
//! strict mode would reject — an unknown qualifier, a column no relation
//! in scope exposes — degrades into a span-tagged
//! [`DiagnosticCode::UnresolvedColumn`] diagnostic: the reference
//! contributes no sources, the query is marked partial, and extraction of
//! everything else continues.

use super::{working_set, Extractor, Scope};
use crate::diagnostics::{Diagnostic, DiagnosticCode};
use crate::error::LineageError;
use crate::model::SourceColumn;
use crate::options::AmbiguityPolicy;
use lineagex_sqlparse::ast::visit::{ColumnRef, ExprRefs};
use lineagex_sqlparse::ast::Expr;
use lineagex_sqlparse::Span;
use std::collections::BTreeSet;

impl Extractor<'_> {
    /// Resolve every column reference in an expression to source columns.
    ///
    /// Nested subqueries are extracted recursively with the current scope
    /// as their outer scope; their output sources count as this
    /// expression's sources (a scalar subquery's value flows into the
    /// expression) while their internal predicate references accumulate
    /// into this query's `C_ref` through the shared state.
    pub(crate) fn resolve_expr(
        &mut self,
        expr: &Expr,
        scope: Option<&Scope<'_>>,
    ) -> Result<BTreeSet<SourceColumn>, LineageError> {
        let refs = ExprRefs::from_expr(expr);
        let mut out = BTreeSet::new();
        for col in &refs.columns {
            out.extend(self.resolve_column(col, scope)?);
        }
        for wildcard in &refs.qualified_wildcards {
            out.extend(self.resolve_relation_wildcard(
                wildcard.base_name(),
                wildcard.span(),
                scope,
            )?);
        }
        for subquery in &refs.subqueries {
            let outputs = self.extract_query(subquery, scope)?;
            for o in outputs {
                out.extend(o.ccon);
            }
        }
        Ok(out)
    }

    /// Expand `t.*` (in a function argument) into the relation's sources.
    pub(crate) fn resolve_relation_wildcard(
        &mut self,
        binding: &str,
        span: Span,
        scope: Option<&Scope<'_>>,
    ) -> Result<BTreeSet<SourceColumn>, LineageError> {
        let Some(rel) = scope.and_then(|s| s.find_binding(binding)) else {
            return self.unresolved(
                format!("missing FROM-clause entry for \"{binding}\""),
                span,
                || LineageError::UnknownQualifier {
                    query: String::new(),
                    qualifier: binding.to_string(),
                },
            );
        };
        if rel.open {
            let name = rel.name.clone();
            self.diagnostics.push(
                Diagnostic::new(
                    DiagnosticCode::UnresolvedWildcard,
                    format!("cannot fully expand {binding}.* over schema-less relation {name}"),
                )
                .for_statement(&self.query_id)
                .with_span(span),
            );
            let cols = self.inferred.get(&name).cloned().unwrap_or_default();
            return Ok(cols.iter().map(|c| SourceColumn::new(&name, c)).collect());
        }
        let mut out = BTreeSet::new();
        for col in &rel.columns {
            out.extend(col.ccon.iter().cloned());
        }
        Ok(out)
    }

    /// Resolve one column reference through the scope chain, applying the
    /// ambiguity policy and inferring columns of open relations.
    pub(crate) fn resolve_column(
        &mut self,
        col: &ColumnRef<'_>,
        scope: Option<&Scope<'_>>,
    ) -> Result<BTreeSet<SourceColumn>, LineageError> {
        let column = col.column.value.as_str();
        let span = col.qualifier.iter().fold(col.column.span, |acc, part| acc.union(&part.span));
        match col.table() {
            Some(qualifier) => self.resolve_qualified(qualifier, column, span, scope),
            None => self.resolve_unqualified(column, span, scope),
        }
    }

    fn resolve_qualified(
        &mut self,
        qualifier: &str,
        column: &str,
        span: Span,
        scope: Option<&Scope<'_>>,
    ) -> Result<BTreeSet<SourceColumn>, LineageError> {
        let Some(rel) = scope.and_then(|s| s.find_binding(qualifier)) else {
            let qualifier = qualifier.to_string();
            return self.unresolved(
                format!("missing FROM-clause entry for \"{qualifier}\""),
                span,
                || LineageError::UnknownQualifier { query: String::new(), qualifier },
            );
        };
        if rel.open {
            let name = rel.name.clone();
            return Ok(self.infer_column(&name, column, Some(span)));
        }
        match rel.sources_of(column) {
            Some(sources) => Ok(working_set(sources)),
            None => {
                let (qualifier, column) = (qualifier.to_string(), column.to_string());
                self.unresolved(format!("column {qualifier}.{column} does not exist"), span, || {
                    LineageError::ColumnNotFound {
                        query: String::new(),
                        column,
                        relation: Some(qualifier),
                    }
                })
            }
        }
    }

    fn resolve_unqualified(
        &mut self,
        column: &str,
        span: Span,
        scope: Option<&Scope<'_>>,
    ) -> Result<BTreeSet<SourceColumn>, LineageError> {
        let mut current = scope;
        while let Some(s) = current {
            // Matches: closed relations exposing the column, plus open
            // relations whose inferred schema already contains it.
            let mut matches: Vec<(String, BTreeSet<SourceColumn>)> = Vec::new();
            let mut open_candidates: Vec<String> = Vec::new();
            for rel in s.relations.iter() {
                if rel.open {
                    let inferred_has = self
                        .inferred
                        .get(&rel.name)
                        .map(|cols| cols.contains(column))
                        .unwrap_or(false);
                    if inferred_has {
                        matches.push((
                            rel.binding.clone(),
                            BTreeSet::from([SourceColumn::new(&rel.name, column)]),
                        ));
                    } else {
                        open_candidates.push(rel.name.clone());
                    }
                } else if rel.has_column(column) {
                    let sources = working_set(rel.sources_of(column).expect("checked"));
                    matches.push((rel.binding.clone(), sources));
                }
            }
            match matches.len() {
                0 => {
                    // No known owner; attribute to open relations if any,
                    // per the ambiguity policy.
                    match open_candidates.len() {
                        0 => current = s.parent,
                        1 => return Ok(self.infer_column(&open_candidates[0], column, Some(span))),
                        _ => return self.attribute_ambiguous_open(column, span, open_candidates),
                    }
                }
                1 => return Ok(matches.pop().expect("one match").1),
                _ => return self.attribute_ambiguous(column, span, matches),
            }
        }
        let column = column.to_string();
        self.unresolved(format!("column \"{column}\" does not exist"), span, || {
            LineageError::ColumnNotFound { query: String::new(), column, relation: None }
        })
    }

    /// The shared strict/lenient fork for a reference nothing in scope can
    /// own: strict raises `make_error` (with the query id filled in),
    /// lenient records an [`DiagnosticCode::UnresolvedColumn`] diagnostic,
    /// marks the lineage partial, and resolves to no sources.
    pub(crate) fn unresolved(
        &mut self,
        message: String,
        span: Span,
        make_error: impl FnOnce() -> LineageError,
    ) -> Result<BTreeSet<SourceColumn>, LineageError> {
        if !self.options.lenient {
            return Err(fill_query(make_error(), &self.query_id));
        }
        self.diagnostics.push(
            Diagnostic::new(DiagnosticCode::UnresolvedColumn, message)
                .for_statement(&self.query_id)
                .with_span(span),
        );
        self.partial = true;
        Ok(BTreeSet::new())
    }

    fn attribute_ambiguous(
        &mut self,
        column: &str,
        span: Span,
        matches: Vec<(String, BTreeSet<SourceColumn>)>,
    ) -> Result<BTreeSet<SourceColumn>, LineageError> {
        let candidates: Vec<String> = matches.iter().map(|(b, _)| b.clone()).collect();
        match self.options.ambiguity {
            AmbiguityPolicy::Error => Err(LineageError::AmbiguousColumn {
                query: self.query_id.clone(),
                column: column.to_string(),
                candidates,
            }),
            AmbiguityPolicy::FirstMatch => {
                self.ambiguity_diagnostic(column, span, &candidates[..1]);
                Ok(matches.into_iter().next().expect("non-empty").1)
            }
            AmbiguityPolicy::AttributeAll => {
                self.ambiguity_diagnostic(column, span, &candidates);
                let mut out = BTreeSet::new();
                for (_, sources) in matches {
                    out.extend(sources);
                }
                Ok(out)
            }
        }
    }

    fn attribute_ambiguous_open(
        &mut self,
        column: &str,
        span: Span,
        open_names: Vec<String>,
    ) -> Result<BTreeSet<SourceColumn>, LineageError> {
        match self.options.ambiguity {
            AmbiguityPolicy::Error => Err(LineageError::AmbiguousColumn {
                query: self.query_id.clone(),
                column: column.to_string(),
                candidates: open_names,
            }),
            AmbiguityPolicy::FirstMatch => {
                self.ambiguity_diagnostic(column, span, &open_names[..1]);
                Ok(self.infer_column(&open_names[0], column, Some(span)))
            }
            AmbiguityPolicy::AttributeAll => {
                self.ambiguity_diagnostic(column, span, &open_names);
                let mut out = BTreeSet::new();
                for name in &open_names {
                    out.extend(self.infer_column(name, column, Some(span)));
                }
                Ok(out)
            }
        }
    }

    fn ambiguity_diagnostic(&mut self, column: &str, span: Span, attributed_to: &[String]) {
        self.diagnostics.push(
            Diagnostic::new(
                DiagnosticCode::AmbiguityResolved,
                format!("ambiguous column \"{column}\" attributed to {}", attributed_to.join(", ")),
            )
            .for_statement(&self.query_id)
            .with_span(span),
        );
    }

    /// Add `relation`, and `column` when given, to the usage-inferred
    /// schemas, logging each addition in `inferred_added` so a deferred
    /// attempt can give it back. Returns whether anything was new.
    pub(crate) fn record_inferred(&mut self, relation: &str, column: Option<&str>) -> bool {
        let created = !self.inferred.contains_key(relation);
        if created {
            self.inferred.insert(relation.to_string(), BTreeSet::new());
            self.inferred_added.push((relation.to_string(), None));
        }
        let Some(column) = column else { return created };
        let added = self.inferred.get_mut(relation).is_some_and(|set| set.insert(column.into()));
        if added {
            self.inferred_added.push((relation.to_string(), Some(column.to_string())));
        }
        added
    }

    /// Record a usage-inferred column on an external relation.
    pub(crate) fn infer_column(
        &mut self,
        relation: &str,
        column: &str,
        span: Option<Span>,
    ) -> BTreeSet<SourceColumn> {
        if self.record_inferred(relation, Some(column)) {
            let mut diagnostic = Diagnostic::new(
                DiagnosticCode::InferredColumn,
                format!("inferred column {relation}.{column} from usage"),
            )
            .for_statement(&self.query_id);
            if let Some(span) = span {
                diagnostic = diagnostic.with_span(span);
            }
            self.diagnostics.push(diagnostic);
        }
        BTreeSet::from([SourceColumn::new(relation, column)])
    }
}

/// Stamp the extractor's query id into an error built without one.
fn fill_query(error: LineageError, id: &str) -> LineageError {
    match error {
        LineageError::ColumnNotFound { column, relation, .. } => {
            LineageError::ColumnNotFound { query: id.to_string(), column, relation }
        }
        LineageError::UnknownQualifier { qualifier, .. } => {
            LineageError::UnknownQualifier { query: id.to_string(), qualifier }
        }
        other => other,
    }
}
