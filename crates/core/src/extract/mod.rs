//! The SQL Lineage Information Extraction Module (paper §III, Table I).
//!
//! [`Extractor`] performs the post-order depth-first traversal of one
//! query's AST, applying the keyword rules of the paper's Table I:
//!
//! | Table I rule        | Implementation |
//! |---------------------|----------------|
//! | SELECT              | [`select`] — `process projection → C_con` |
//! | FROM (table/view)   | [`from_clause`] — add to `T`, columns to `C_pos` |
//! | FROM (CTE/subquery) | [`from_clause`] — look up `M_CTE` / recurse |
//! | WITH/Subquery       | [`Extractor::extract_query`] — stash into `M_CTE` |
//! | Set operation       | [`Extractor::extract_set_expr`] — branch projections into `C_ref` |
//! | Other keywords      | [`resolve`] — predicate columns into `C_ref` |
//!
//! The temporary variables of the paper map to fields: `M_CTE` is
//! [`Extractor::ctes`], `C_ref` accumulates in [`Extractor::cref`], `T` in
//! [`Extractor::tables`], and `C_pos` is implicit in the [`scope::Scope`]
//! relations (the trace snapshots materialise it for display).

pub(crate) mod from_clause;
pub(crate) mod resolve;
pub(crate) mod scope;
pub(crate) mod select;

use crate::diagnostics::Diagnostic;
use crate::error::LineageError;
use crate::model::{OutputColumn, QueryLineage, SourceColumn};
use crate::options::ExtractOptions;
use crate::trace::{Rule, TraceLog};
use lineagex_catalog::Catalog;
use lineagex_sqlparse::ast::{Expr, Ident, Literal, Query, SetExpr};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

pub(crate) use scope::{Relation, Scope};

/// One entry of `M_CTE`: a named intermediate result.
#[derive(Debug, Clone)]
pub(crate) struct CteInfo {
    pub name: String,
    pub columns: Vec<OutputColumn>,
}

/// Extraction state for a single Query-Dictionary entry.
pub(crate) struct Extractor<'e> {
    /// The id of the query being extracted (for error messages).
    pub query_id: String,
    /// All Query-Dictionary identifiers (to detect missing dependencies).
    pub qd_ids: &'e BTreeSet<String>,
    /// Lineage of already-processed QD entries.
    pub processed: &'e BTreeMap<String, Arc<QueryLineage>>,
    /// The effective catalog (user catalog merged with log DDL).
    pub catalog: &'e Catalog,
    /// Extraction options.
    pub options: &'e ExtractOptions,
    /// Engine-level usage-inferred schemas of external tables.
    pub inferred: &'e mut BTreeMap<String, BTreeSet<String>>,
    /// What this extraction added to `inferred`, in order: a relation
    /// key it created (`None`) or a column it added to one.
    pub inferred_added: Vec<(String, Option<String>)>,
    /// `C_ref` accumulator for this query.
    pub cref: BTreeSet<SourceColumn>,
    /// Table lineage `T` accumulator.
    pub tables: BTreeSet<String>,
    /// `M_CTE`: the CTE stack.
    pub ctes: Vec<CteInfo>,
    /// Non-fatal findings, span-tagged where the source location is known.
    pub diagnostics: Vec<Diagnostic>,
    /// Whether lenient mode degraded part of this query's lineage.
    pub partial: bool,
    /// Optional traversal trace (Fig. 4).
    pub trace: Option<TraceLog>,
}

impl<'e> Extractor<'e> {
    /// Create an extractor for one query.
    pub fn new(
        query_id: impl Into<String>,
        qd_ids: &'e BTreeSet<String>,
        processed: &'e BTreeMap<String, Arc<QueryLineage>>,
        catalog: &'e Catalog,
        options: &'e ExtractOptions,
        inferred: &'e mut BTreeMap<String, BTreeSet<String>>,
    ) -> Self {
        let trace = options.trace.then(TraceLog::default);
        Extractor {
            query_id: query_id.into(),
            qd_ids,
            processed,
            catalog,
            options,
            inferred,
            inferred_added: Vec::new(),
            cref: BTreeSet::new(),
            tables: BTreeSet::new(),
            ctes: Vec::new(),
            diagnostics: Vec::new(),
            partial: false,
            trace,
        }
    }

    /// Extract the lineage of a full query, returning its output columns.
    pub fn extract(&mut self, query: &Query) -> Result<Vec<OutputColumn>, LineageError> {
        self.extract_query(query, None)
    }

    /// Recursive entry point: handles `WITH`, the body, and `ORDER BY`.
    pub(crate) fn extract_query(
        &mut self,
        query: &Query,
        outer: Option<&Scope<'_>>,
    ) -> Result<Vec<OutputColumn>, LineageError> {
        let cte_mark = self.ctes.len();
        if let Some(with) = &query.with {
            for cte in &with.ctes {
                let name = cte.alias.name.value.clone();
                let outputs = if with.recursive {
                    self.extract_recursive_cte_body(&name, &cte.query)?
                } else {
                    self.extract_query(&cte.query, None)?
                };
                let outputs = rename_outputs(outputs, &cte.alias.columns, &name)?;
                // WITH/Subquery rule: stash the intermediate lineage into
                // M_CTE for later FROM references.
                self.trace_step(
                    Rule::WithSubquery,
                    format!("register CTE {name}"),
                    Vec::new(),
                    Vec::new(),
                );
                self.ctes.push(CteInfo { name, columns: outputs });
            }
        }

        let (outputs, relations) = self.extract_set_expr(&query.body, outer)?;

        if !query.order_by.is_empty() {
            let scope = Scope { relations: &relations, parent: outer };
            for item in &query.order_by {
                let refs = self.resolve_order_key(&item.expr, &outputs, &scope)?;
                self.cref.extend(refs);
            }
            self.trace_step(Rule::OtherKeywords, "ORDER BY", Vec::new(), Vec::new());
        }

        self.ctes.truncate(cte_mark);
        Ok(outputs)
    }

    /// A recursive CTE's schema comes from its seed branch; register that
    /// first so the self-reference resolves, then extract the full body.
    fn extract_recursive_cte_body(
        &mut self,
        name: &str,
        body: &Query,
    ) -> Result<Vec<OutputColumn>, LineageError> {
        if let SetExpr::SetOperation { left, .. } = &body.body {
            let (seed_outputs, _) = self.extract_set_expr(left, None)?;
            self.ctes.push(CteInfo { name: name.to_string(), columns: seed_outputs });
            let result = self.extract_query(body, None);
            self.ctes.pop();
            result
        } else {
            self.extract_query(body, None)
        }
    }

    /// Dispatch on the query body; returns the output columns plus the
    /// `FROM` relations when the body is a plain `SELECT` (for `ORDER BY`).
    pub(crate) fn extract_set_expr(
        &mut self,
        body: &SetExpr,
        outer: Option<&Scope<'_>>,
    ) -> Result<(Vec<OutputColumn>, Vec<Relation>), LineageError> {
        match body {
            SetExpr::Select(select) => self.extract_select(select, outer),
            SetExpr::Query(query) => Ok((self.extract_query(query, outer)?, Vec::new())),
            SetExpr::SetOperation { op, left, right, .. } => {
                let (louts, _) = self.extract_set_expr(left, outer)?;
                let (routs, _) = self.extract_set_expr(right, outer)?;
                if louts.len() != routs.len() {
                    return Err(LineageError::SetOperationArityMismatch {
                        query: self.query_id.clone(),
                        left: louts.len(),
                        right: routs.len(),
                    });
                }
                // Set Operation rule: every projection column of every
                // branch becomes referenced — a change to any of them
                // changes row membership of the whole result.
                for col in louts.iter().chain(routs.iter()) {
                    self.cref.extend(col.ccon.iter().cloned());
                }
                let merged: Vec<OutputColumn> = louts
                    .into_iter()
                    .zip(routs)
                    .map(|(l, r)| {
                        let mut ccon = l.ccon;
                        ccon.extend(r.ccon);
                        OutputColumn { name: l.name, ccon }
                    })
                    .collect();
                let names: Vec<String> = merged.iter().map(|c| c.name.clone()).collect();
                self.trace_step(
                    Rule::SetOperation,
                    format!("{op:?} over {} columns", merged.len()),
                    Vec::new(),
                    names,
                );
                Ok((merged, Vec::new()))
            }
            SetExpr::Values(values) => {
                let width = values.0.first().map(|r| r.len()).unwrap_or(0);
                let outputs = (0..width)
                    .map(|i| OutputColumn::new(format!("column{}", i + 1), BTreeSet::new()))
                    .collect();
                Ok((outputs, Vec::new()))
            }
        }
    }

    /// Resolve one `ORDER BY` key: positional number, output alias, or an
    /// expression over the select scope.
    fn resolve_order_key(
        &mut self,
        expr: &Expr,
        outputs: &[OutputColumn],
        scope: &Scope<'_>,
    ) -> Result<BTreeSet<SourceColumn>, LineageError> {
        match expr {
            Expr::Literal(Literal::Number(n)) => {
                if let Ok(idx) = n.parse::<usize>() {
                    if idx >= 1 && idx <= outputs.len() {
                        return Ok(outputs[idx - 1].ccon.clone());
                    }
                }
                Ok(BTreeSet::new())
            }
            Expr::Identifier(ident) => {
                if let Some(col) = outputs.iter().find(|c| c.name == ident.value) {
                    return Ok(col.ccon.clone());
                }
                self.resolve_expr(expr, Some(scope))
            }
            other => self.resolve_expr(other, Some(scope)),
        }
    }

    /// Record a trace step when tracing is enabled.
    pub(crate) fn trace_step(
        &mut self,
        rule: Rule,
        node: impl Into<String>,
        cpos: Vec<String>,
        projection: Vec<String>,
    ) {
        if let Some(trace) = &mut self.trace {
            trace.record(rule, node, &self.tables, cpos, &self.cref, projection);
        }
    }

    /// Materialise `C_pos` (all in-scope candidate columns) for a trace
    /// snapshot.
    pub(crate) fn cpos_snapshot(relations: &[Relation]) -> Vec<String> {
        relations
            .iter()
            .flat_map(|r| r.columns.iter().map(move |c| format!("{}.{}", r.binding, c.name)))
            .collect()
    }
}

/// Apply an explicit column-name list positionally (CTE/view/table alias).
pub(crate) fn rename_outputs(
    outputs: Vec<OutputColumn>,
    new_names: &[Ident],
    owner: &str,
) -> Result<Vec<OutputColumn>, LineageError> {
    if new_names.is_empty() {
        return Ok(outputs);
    }
    if new_names.len() != outputs.len() {
        return Err(LineageError::ColumnCountMismatch {
            owner: owner.to_string(),
            declared: new_names.len(),
            actual: outputs.len(),
        });
    }
    Ok(outputs
        .into_iter()
        .zip(new_names)
        .map(|(o, n)| OutputColumn { name: n.value.clone(), ccon: o.ccon })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lineagex_sqlparse::ast::Ident;

    #[test]
    fn rename_outputs_positional() {
        let outs =
            vec![OutputColumn::new("a", BTreeSet::new()), OutputColumn::new("b", BTreeSet::new())];
        let renamed = rename_outputs(outs, &[Ident::new("x"), Ident::new("y")], "v").unwrap();
        assert_eq!(renamed[0].name, "x");
        assert_eq!(renamed[1].name, "y");
    }

    #[test]
    fn rename_outputs_arity_mismatch() {
        let outs = vec![OutputColumn::new("a", BTreeSet::new())];
        let err = rename_outputs(outs, &[Ident::new("x"), Ident::new("y")], "v").unwrap_err();
        assert!(matches!(err, LineageError::ColumnCountMismatch { declared: 2, actual: 1, .. }));
    }

    #[test]
    fn rename_outputs_empty_keeps_names() {
        let outs = vec![OutputColumn::new("a", BTreeSet::new())];
        let renamed = rename_outputs(outs, &[], "v").unwrap();
        assert_eq!(renamed[0].name, "a");
    }
}
