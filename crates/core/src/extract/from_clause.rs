//! The FROM rules of Table I: scanning tables, views, CTEs, derived
//! subqueries, and join constraints.

use super::{rename_outputs, Extractor, Relation, Scope};
use crate::diagnostics::{Diagnostic, DiagnosticCode};
use crate::error::LineageError;
use crate::model::{OutputColumn, SourceColumn};
use crate::trace::Rule;
use lineagex_sqlparse::ast::{JoinConstraint, TableFactor, TableWithJoins};
use lineagex_sqlparse::Span;
use std::collections::BTreeSet;

impl Extractor<'_> {
    /// Bind the whole `FROM` clause into scope relations, resolving each
    /// join constraint against its operands (plus outer scopes).
    pub(crate) fn build_from(
        &mut self,
        from: &[TableWithJoins],
        outer: Option<&Scope<'_>>,
    ) -> Result<Vec<Relation>, LineageError> {
        let mut relations = Vec::new();
        for twj in from {
            self.process_table_with_joins(twj, outer, &mut relations)?;
        }
        for (i, rel) in relations.iter().enumerate() {
            if relations[..i].iter().any(|r| r.binding == rel.binding) {
                return Err(LineageError::DuplicateBinding {
                    query: self.query_id.clone(),
                    binding: rel.binding.clone(),
                });
            }
        }
        Ok(relations)
    }

    /// Process one FROM item (a factor plus its chained joins), appending
    /// the bound relations to `acc`. Relations already in `acc` are
    /// visible to `LATERAL` subqueries in later factors.
    fn process_table_with_joins(
        &mut self,
        twj: &TableWithJoins,
        outer: Option<&Scope<'_>>,
        acc: &mut Vec<Relation>,
    ) -> Result<(), LineageError> {
        let chain_start = acc.len();
        let visible = acc.clone();
        let rels = self.resolve_table_factor(&twj.relation, outer, &visible)?;
        acc.extend(rels);
        for join in &twj.joins {
            let split = acc.len();
            let visible = acc.clone();
            let rels = self.resolve_table_factor(&join.relation, outer, &visible)?;
            acc.extend(rels);
            let refs = match join.join_operator.constraint() {
                Some(JoinConstraint::On(expr)) => {
                    let chain = &acc[chain_start..];
                    let scope = Scope { relations: chain, parent: outer };
                    self.resolve_expr(expr, Some(&scope))?
                }
                Some(JoinConstraint::Using(cols)) => {
                    let mut refs = BTreeSet::new();
                    for col in cols {
                        refs.extend(self.resolve_shared_column(
                            &col.value,
                            Some(col.span),
                            &acc[chain_start..],
                            split - chain_start,
                        )?);
                    }
                    refs
                }
                Some(JoinConstraint::Natural) => {
                    let shared = natural_columns(&acc[chain_start..], split - chain_start);
                    let mut refs = BTreeSet::new();
                    for col in shared {
                        refs.extend(self.resolve_shared_column(
                            &col,
                            None,
                            &acc[chain_start..],
                            split - chain_start,
                        )?);
                    }
                    refs
                }
                Some(JoinConstraint::None) | None => BTreeSet::new(),
            };
            // Other Keywords rule: join-predicate columns are referenced.
            self.cref.extend(refs);
            let cpos = Self::cpos_snapshot(&acc[chain_start..]);
            self.trace_step(Rule::OtherKeywords, "JOIN (⨝)", cpos, Vec::new());
        }
        Ok(())
    }

    /// Resolve one table factor into scope relations. `visible` holds the
    /// relations already bound in this `FROM`, which `LATERAL` subqueries
    /// may reference.
    pub(crate) fn resolve_table_factor(
        &mut self,
        factor: &TableFactor,
        outer: Option<&Scope<'_>>,
        visible: &[Relation],
    ) -> Result<Vec<Relation>, LineageError> {
        match factor {
            TableFactor::Table { name, alias } => {
                let base = name.base_name().to_string();
                let binding =
                    alias.as_ref().map(|a| a.name.value.clone()).unwrap_or_else(|| base.clone());
                let alias_cols = alias.as_ref().map(|a| a.columns.as_slice()).unwrap_or(&[]);

                // FROM (CTE/Subquery) rule: find it in M_CTE first.
                if let Some(cte) = self.ctes.iter().rev().find(|c| c.name == base) {
                    let columns = rename_outputs(cte.columns.clone(), alias_cols, &binding)?;
                    let rel = Relation::closed(binding, base, columns);
                    let cpos = Self::cpos_snapshot(std::slice::from_ref(&rel));
                    self.trace_step(
                        Rule::FromCteOrSubquery,
                        format!("scan CTE {}", rel.name),
                        cpos,
                        Vec::new(),
                    );
                    return Ok(vec![rel]);
                }

                // FROM (Table/View) rule — a relation produced by an
                // earlier Query-Dictionary entry.
                if let Some(lineage) = self.processed.get(&base) {
                    let columns: Vec<OutputColumn> = lineage
                        .outputs
                        .iter()
                        .map(|o| {
                            OutputColumn::new(
                                &o.name,
                                BTreeSet::from([SourceColumn::new(&base, &o.name)]),
                            )
                        })
                        .collect();
                    let columns = rename_outputs(columns, alias_cols, &binding)?;
                    self.tables.insert(base.clone());
                    let rel = Relation::closed(binding, base, columns);
                    let cpos = Self::cpos_snapshot(std::slice::from_ref(&rel));
                    self.trace_step(
                        Rule::FromTable,
                        format!("scan view {}", rel.name),
                        cpos,
                        Vec::new(),
                    );
                    return Ok(vec![rel]);
                }

                // FROM (Table/View) rule — a catalog relation.
                if let Some(schema) = self.catalog.get(&base) {
                    let columns: Vec<OutputColumn> = schema
                        .columns
                        .iter()
                        .map(|c| {
                            OutputColumn::new(
                                &c.name,
                                BTreeSet::from([SourceColumn::new(&schema.name, &c.name)]),
                            )
                        })
                        .collect();
                    let columns = rename_outputs(columns, alias_cols, &binding)?;
                    self.tables.insert(schema.name.clone());
                    let rel = Relation::closed(binding, schema.name.clone(), columns);
                    let cpos = Self::cpos_snapshot(std::slice::from_ref(&rel));
                    self.trace_step(
                        Rule::FromTable,
                        format!("scan table {}", rel.name),
                        cpos,
                        Vec::new(),
                    );
                    return Ok(vec![rel]);
                }

                // Table/View Auto-Inference: the relation is defined by a
                // QD entry that has not been processed yet — defer. With
                // the stack disabled (ablation) the relation degrades to
                // an unknown external, like prior tools.
                if self.options.auto_inference
                    && self.qd_ids.contains(&base)
                    && base != self.query_id
                {
                    return Err(LineageError::MissingDependency {
                        query: self.query_id.clone(),
                        dependency: base,
                    });
                }

                // Unknown external table: schema inferred from usage.
                self.tables.insert(base.clone());
                if self.record_inferred(&base, None) {
                    self.diagnostics.push(
                        Diagnostic::new(
                            DiagnosticCode::UnknownRelation,
                            format!(
                                "relation {base} is not defined in the log or catalog; \
                                 inferring its schema from usage"
                            ),
                        )
                        .for_statement(&self.query_id)
                        .with_span(name.span()),
                    );
                }
                let rel = Relation::open(binding, base).with_span(name.span());
                self.trace_step(
                    Rule::FromTable,
                    format!("scan external {}", rel.name),
                    Vec::new(),
                    Vec::new(),
                );
                Ok(vec![rel])
            }
            TableFactor::Derived { lateral, subquery, alias } => {
                let alias = alias.as_ref().ok_or_else(|| {
                    LineageError::Unsupported("derived table in FROM requires an alias".into())
                })?;
                // Only LATERAL subqueries may see sibling/outer relations.
                let lateral_scope;
                let sub_outer = if *lateral {
                    lateral_scope = Scope { relations: visible, parent: outer };
                    Some(&lateral_scope)
                } else {
                    None
                };
                let outputs = self.extract_query(subquery, sub_outer)?;
                let binding = alias.name.value.clone();
                let columns = rename_outputs(outputs, &alias.columns, &binding)?;
                let rel = Relation::closed(binding.clone(), binding, columns);
                let cpos = Self::cpos_snapshot(std::slice::from_ref(&rel));
                self.trace_step(
                    Rule::FromCteOrSubquery,
                    format!("derived subquery {}", rel.binding),
                    cpos,
                    Vec::new(),
                );
                Ok(vec![rel])
            }
            TableFactor::NestedJoin(twj) => {
                let mut acc = Vec::new();
                self.process_table_with_joins(twj, outer, &mut acc)?;
                Ok(acc)
            }
        }
    }

    /// Resolve a `USING`/natural-join column on both sides of a join chain.
    /// `split` is the index separating the left relations from the joined
    /// one within `chain`.
    fn resolve_shared_column(
        &mut self,
        column: &str,
        span: Option<Span>,
        chain: &[Relation],
        split: usize,
    ) -> Result<BTreeSet<SourceColumn>, LineageError> {
        let mut out = BTreeSet::new();
        let mut found = false;
        // Owned worklist first: inference needs &mut self.
        let mut inferable: Vec<String> = Vec::new();
        for rel in chain {
            if rel.open {
                inferable.push(rel.name.clone());
            } else if let Some(sources) = rel.sources_of(column) {
                out.extend(sources.iter().cloned());
                found = true;
            }
        }
        if !found && inferable.is_empty() {
            let column = column.to_string();
            return self.unresolved(
                format!("column \"{column}\" does not exist"),
                span.unwrap_or_default(),
                || LineageError::ColumnNotFound { query: String::new(), column, relation: None },
            );
        }
        if !found || split < chain.len() {
            // A USING column must exist on both sides; attribute it to any
            // open relation as an inferred column.
            for name in inferable {
                out.extend(self.infer_column(&name, column, span));
            }
        }
        Ok(out)
    }
}

/// Column names common to the left (before `split`) and right (from
/// `split`) relations — the natural-join key set. Only closed relations
/// participate; open schemas cannot prove commonality.
fn natural_columns(chain: &[Relation], split: usize) -> Vec<String> {
    let (left, right) = chain.split_at(split.min(chain.len()));
    let left_names: BTreeSet<&str> = left
        .iter()
        .filter(|r| !r.open)
        .flat_map(|r| r.columns.iter().map(|c| c.name.as_str()))
        .collect();
    let mut out = Vec::new();
    for rel in right.iter().filter(|r| !r.open) {
        for c in &rel.columns {
            if left_names.contains(c.name.as_str()) && !out.contains(&c.name) {
                out.push(c.name.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed(binding: &str, cols: &[&str]) -> Relation {
        Relation::closed(
            binding,
            binding,
            cols.iter()
                .map(|c| OutputColumn::new(*c, BTreeSet::from([SourceColumn::new(binding, *c)])))
                .collect(),
        )
    }

    #[test]
    fn natural_columns_finds_shared_names() {
        let chain = vec![closed("a", &["id", "x"]), closed("b", &["id", "y"])];
        assert_eq!(natural_columns(&chain, 1), vec!["id".to_string()]);
    }

    #[test]
    fn natural_columns_ignores_open_relations() {
        let chain = vec![closed("a", &["id"]), Relation::open("b", "b")];
        assert!(natural_columns(&chain, 1).is_empty());
    }
}
