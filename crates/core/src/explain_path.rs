//! EXPLAIN-based extraction — "when the database connection is available"
//! (paper §III).
//!
//! Instead of traversing the raw AST, this path asks the (simulated)
//! database to bind each query, obtaining a plan whose column references
//! are resolved against real metadata. Missing views raise
//! `UndefinedTable` exactly like Postgres; the same LIFO stack defers the
//! current query, **creates the dependency's view first**, and resumes —
//! the paper's "additional step to create the views".
//!
//! The resulting lineage is convertible 1:1 with the static path's on
//! catalog-complete workloads, which the integration tests assert.

use crate::error::LineageError;
use crate::infer::{assemble_graph, run_deferral_stack, LineageResult, StackExtraction};
use crate::model::{OutputColumn, QueryLineage};
use crate::preprocess::{QueryDict, QueryEntry};
use lineagex_catalog::{DbError, PlanNode, SimulatedDatabase, SourceColumn};
use lineagex_sqlparse::ast::Statement;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Extract lineage through a simulated database connection.
pub struct ExplainPathExtractor {
    db: SimulatedDatabase,
    qd: QueryDict,
    processed: BTreeMap<String, Arc<QueryLineage>>,
    order: Vec<String>,
    deferrals: Vec<(String, String)>,
}

impl ExplainPathExtractor {
    /// Create an extractor over a dictionary and a database whose catalog
    /// holds the base tables. DDL in the log is loaded into the database.
    pub fn new(qd: QueryDict, mut db: SimulatedDatabase) -> Self {
        // One merged copy of the catalog for the whole log's DDL.
        if qd.ddl_catalog.relations().next().is_some() {
            let mut catalog = db.catalog().clone();
            for schema in qd.ddl_catalog.relations() {
                catalog.add_or_replace(schema.clone());
            }
            db = SimulatedDatabase::with_catalog(catalog);
        }
        ExplainPathExtractor {
            db,
            qd,
            processed: BTreeMap::new(),
            order: Vec::new(),
            deferrals: Vec::new(),
        }
    }

    /// Run extraction over every entry, in log order, on the deferral
    /// stack ([`run_deferral_stack`]), and assemble the graph: every
    /// relation the connection knows, views the log created included,
    /// settles under the node rule ([`assemble_graph`]).
    pub fn run(mut self) -> Result<LineageResult, LineageError> {
        let ids: Vec<String> = self.qd.ids().map(String::from).collect();
        run_deferral_stack(&mut self, ids)?;
        let inferred = BTreeMap::new();
        let graph = assemble_graph(self.db.catalog(), self.processed.into(), &inferred, self.order);
        Ok(LineageResult {
            graph,
            traces: BTreeMap::new(),
            deferrals: self.deferrals,
            inferred,
            diagnostics: self.qd.diagnostics,
            index: Default::default(),
        })
    }

    fn try_bind(&self, entry: &QueryEntry) -> Result<QueryLineage, DbError> {
        // Bind the entry's defining query (the synthesised SELECT for
        // UPDATE) — equivalent to EXPLAINing it on the connection.
        let bound = lineagex_catalog::Binder::new(self.db.catalog()).bind(entry.query())?;

        let outputs: Vec<OutputColumn> =
            bound.output.iter().map(|c| OutputColumn::new(&c.name, c.sources.clone())).collect();
        let outputs = crate::infer::apply_output_names(entry, outputs, self.db.catalog())
            .map_err(|e| DbError::Unsupported(e.to_string()))?;

        // LineageX semantics on top of database semantics: set-operation
        // branch projections are referenced columns (Table I).
        let mut cref = bound.referenced.clone();
        collect_setop_refs(&bound.plan, &mut cref);

        Ok(QueryLineage {
            id: entry.id.clone(),
            kind: entry.kind.clone(),
            outputs,
            cref,
            tables: bound.tables,
            diagnostics: Vec::new(),
            partial: false,
        })
    }
}

/// The log on the deferral stack, where the database's binder finds the
/// gaps: an `UndefinedTable` naming an unprocessed dictionary entry
/// defers the current query while the dependency's view is created
/// first. A cycle stays a strict error.
impl StackExtraction for ExplainPathExtractor {
    fn is_done(&self, id: &str) -> bool {
        self.processed.contains_key(id)
    }

    fn attempt(&mut self, id: &str) -> Result<(), LineageError> {
        let entry = self.qd.get(id).expect("id from dictionary");
        match self.try_bind(entry) {
            Ok(lineage) => {
                // Create the view so downstream EXPLAINs can see it —
                // the paper's create-first step.
                create_if_needed(&mut self.db, entry)?;
                self.processed.insert(id.to_string(), Arc::new(lineage));
                self.order.push(id.to_string());
                Ok(())
            }
            Err(DbError::UndefinedTable(dependency))
                if self.qd.contains(&dependency)
                    && dependency != id
                    && !self.processed.contains_key(&dependency) =>
            {
                Err(LineageError::MissingDependency { query: id.to_string(), dependency })
            }
            Err(other) => Err(LineageError::Database(other.to_string())),
        }
    }

    fn defer(&mut self, id: &str, dependency: &str) -> Result<(), LineageError> {
        self.deferrals.push((id.to_string(), dependency.to_string()));
        Ok(())
    }
}

/// Execute a view or table definition on the connection.
fn create_if_needed(db: &mut SimulatedDatabase, entry: &QueryEntry) -> Result<(), LineageError> {
    match &entry.statement {
        Statement::CreateView { .. } | Statement::CreateTable { .. } => {
            db.execute_statement(&entry.statement)
                .map_err(|e| LineageError::Database(e.to_string()))?;
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Walk a plan and add every set-operation branch's projected sources to
/// `cref` (the paper's Set Operation rule).
fn collect_setop_refs(plan: &PlanNode, cref: &mut BTreeSet<SourceColumn>) {
    match plan {
        PlanNode::SetOp { left, right, .. } => {
            for col in left.output().iter().chain(right.output()) {
                cref.extend(col.sources.iter().cloned());
            }
            collect_setop_refs(left, cref);
            collect_setop_refs(right, cref);
        }
        PlanNode::SubqueryScan { input, .. }
        | PlanNode::Filter { input, .. }
        | PlanNode::Aggregate { input, .. }
        | PlanNode::Sort { input, .. }
        | PlanNode::Limit { input } => collect_setop_refs(input, cref),
        PlanNode::Join { left, right, .. } => {
            collect_setop_refs(left, cref);
            collect_setop_refs(right, cref);
        }
        PlanNode::Project { input, .. } => {
            if let Some(input) = input {
                collect_setop_refs(input, cref);
            }
        }
        PlanNode::Scan { .. } | PlanNode::Values { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lineagex_catalog::Catalog;

    const DDL: &str = "
        CREATE TABLE customers (cid int, name text, age int);
        CREATE TABLE web (cid int, date date, page text, reg boolean);
    ";

    fn run(sql: &str) -> Result<LineageResult, LineageError> {
        let qd = QueryDict::from_sql(sql).unwrap();
        let db = SimulatedDatabase::with_catalog(Catalog::from_ddl(DDL).unwrap());
        ExplainPathExtractor::new(qd, db).run()
    }

    #[test]
    fn binds_and_creates_views_in_dependency_order() {
        let result = run("CREATE VIEW second AS SELECT wcid FROM first;
             CREATE VIEW first AS SELECT cid AS wcid FROM web;")
        .unwrap();
        assert_eq!(result.graph.order, vec!["first", "second"]);
        assert_eq!(result.deferrals, vec![("second".into(), "first".into())]);
        let second = &result.graph.queries["second"];
        assert_eq!(second.outputs[0].ccon, BTreeSet::from([SourceColumn::new("first", "wcid")]));
    }

    #[test]
    fn missing_base_table_is_hard_error() {
        // Connected mode has full metadata; unknown relations are errors,
        // not inference targets.
        let err = run("CREATE VIEW v AS SELECT x FROM nope").unwrap_err();
        assert!(matches!(err, LineageError::Database(msg) if msg.contains("nope")));
    }

    #[test]
    fn setop_branches_are_referenced() {
        let result =
            run("CREATE VIEW u AS SELECT cid FROM customers INTERSECT SELECT cid FROM web")
                .unwrap();
        let u = &result.graph.queries["u"];
        assert!(u.cref.contains(&SourceColumn::new("customers", "cid")));
        assert!(u.cref.contains(&SourceColumn::new("web", "cid")));
    }

    #[test]
    fn cycle_detected() {
        let err =
            run("CREATE VIEW a AS SELECT * FROM b; CREATE VIEW b AS SELECT * FROM a;").unwrap_err();
        assert!(matches!(err, LineageError::DependencyCycle(_)));
    }
}
