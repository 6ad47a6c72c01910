//! The SELECT rule of Table I: resolve `C_con` for each projection, with
//! `WHERE`/`GROUP BY`/`HAVING`/`QUALIFY`/`DISTINCT ON` feeding `C_ref`.

use super::{Extractor, Relation, Scope};
use crate::diagnostics::{Diagnostic, DiagnosticCode};
use crate::error::LineageError;
use crate::model::{OutputColumn, SourceColumn};
use crate::shared::SortedSet;
use crate::trace::Rule;
use lineagex_sqlparse::ast::visit::output_name;
use lineagex_sqlparse::ast::{Distinct, Select, SelectItem};

impl Extractor<'_> {
    /// Extract one `SELECT` block, returning its output columns and the
    /// `FROM` relations (for `ORDER BY` resolution by the caller).
    pub(crate) fn extract_select(
        &mut self,
        select: &Select,
        outer: Option<&Scope<'_>>,
    ) -> Result<(Vec<OutputColumn>, Vec<Relation>), LineageError> {
        let relations = self.build_from(&select.from, outer)?;
        let scope = Scope { relations: &relations, parent: outer };

        // Other Keywords rule: predicate/grouping columns → C_ref.
        if let Some(selection) = &select.selection {
            let refs = self.resolve_expr(selection, Some(&scope))?;
            self.cref.extend(refs);
            self.trace_step(Rule::OtherKeywords, "WHERE (σ)", Vec::new(), Vec::new());
        }
        if !select.group_by.is_empty() {
            for expr in &select.group_by {
                let refs = self.resolve_expr(expr, Some(&scope))?;
                self.cref.extend(refs);
            }
            self.trace_step(Rule::OtherKeywords, "GROUP BY (γ)", Vec::new(), Vec::new());
        }
        if let Some(having) = &select.having {
            let refs = self.resolve_expr(having, Some(&scope))?;
            self.cref.extend(refs);
            self.trace_step(Rule::OtherKeywords, "HAVING", Vec::new(), Vec::new());
        }
        // Dialect extensions filter rows, never columns, so they feed
        // C_ref exactly like WHERE/HAVING (QUALIFY) or touch nothing at
        // all (T-SQL's TOP n literal carries no column references).
        if let Some(qualify) = &select.qualify {
            let refs = self.resolve_expr(qualify, Some(&scope))?;
            self.cref.extend(refs);
            self.trace_step(Rule::OtherKeywords, "QUALIFY", Vec::new(), Vec::new());
        }
        if let Some(Distinct::On(exprs)) = &select.distinct {
            for expr in exprs {
                let refs = self.resolve_expr(expr, Some(&scope))?;
                self.cref.extend(refs);
            }
            self.trace_step(Rule::OtherKeywords, "DISTINCT ON", Vec::new(), Vec::new());
        }

        // SELECT rule: resolve C_con for each projection.
        let mut outputs: Vec<OutputColumn> = Vec::new();
        for item in &select.projection {
            match item {
                SelectItem::Wildcard => {
                    for rel in &relations {
                        outputs.extend(self.expand_relation(rel));
                    }
                }
                SelectItem::QualifiedWildcard(name) => {
                    let binding = name.base_name();
                    let Some(rel) = scope.find_binding(binding) else {
                        let qualifier = binding.to_string();
                        self.unresolved(
                            format!("missing FROM-clause entry for \"{qualifier}\""),
                            name.span(),
                            || LineageError::UnknownQualifier { query: String::new(), qualifier },
                        )?;
                        continue;
                    };
                    outputs.extend(self.expand_relation(rel));
                }
                SelectItem::UnnamedExpr(expr) => {
                    let ccon = self.resolve_expr(expr, Some(&scope))?;
                    outputs.push(OutputColumn::new(output_name(expr), ccon));
                }
                SelectItem::ExprWithAlias { expr, alias } => {
                    let ccon = self.resolve_expr(expr, Some(&scope))?;
                    outputs.push(OutputColumn::new(alias.value.clone(), ccon));
                }
            }
        }

        let cpos = Self::cpos_snapshot(&relations);
        let names: Vec<String> = outputs.iter().map(|o| o.name.clone()).collect();
        self.trace_step(Rule::Select, "SELECT (π)", cpos, names);
        Ok((outputs, relations))
    }

    /// Expand a relation's columns for `*`/`t.*` projections. Open
    /// relations expand to their inferred-so-far columns with a warning —
    /// the honest answer when no schema exists (prior tools emit a bogus
    /// `table.*` entry here; see the baseline crate).
    fn expand_relation(&mut self, rel: &Relation) -> Vec<OutputColumn> {
        if rel.open {
            self.diagnostics.push(
                Diagnostic::new(
                    DiagnosticCode::UnresolvedWildcard,
                    format!("cannot fully expand * over schema-less relation {}", rel.name),
                )
                .for_statement(&self.query_id)
                .with_span(rel.span),
            );
            let cols = self.inferred.get(&rel.name).cloned().unwrap_or_default();
            return cols
                .iter()
                .map(|c| OutputColumn::new(c, SortedSet::from([SourceColumn::new(&rel.name, c)])))
                .collect();
        }
        rel.columns.clone()
    }
}
