//! The in-memory catalog: a namespace of base tables and views.

use crate::error::DbError;
use crate::schema::{Column, TableSchema};
use lineagex_sqlparse::ast::{ColumnDef, Statement};
use lineagex_sqlparse::parse_sql;
use std::collections::BTreeMap;

/// A flat namespace of relations keyed by lower-case base name.
///
/// Schema qualifiers (`public.orders`) are stripped: the paper's workloads
/// operate on a single search path, and LineageX matches relations by base
/// name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    tables: BTreeMap<String, TableSchema>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Build a catalog from a `CREATE TABLE` DDL script.
    ///
    /// Non-DDL statements in the script are ignored so a full query log can
    /// be passed; only the base-table definitions are loaded.
    pub fn from_ddl(sql: &str) -> Result<Self, DbError> {
        let mut catalog = Catalog::new();
        for stmt in parse_sql(sql)? {
            if let Statement::CreateTable { name, columns, query: None, .. } = stmt {
                catalog.add(TableSchema::base_table(
                    name.base_name().to_string(),
                    columns.iter().map(column_from_def).collect(),
                ))?;
            }
        }
        Ok(catalog)
    }

    /// Register a relation. Errors if the name is taken.
    pub fn add(&mut self, schema: TableSchema) -> Result<(), DbError> {
        let key = schema.name.to_lowercase();
        if self.tables.contains_key(&key) {
            return Err(DbError::DuplicateTable(key));
        }
        self.tables.insert(key, schema);
        Ok(())
    }

    /// Register a relation, replacing any existing one with the same name
    /// (compared case-insensitively); returns the replaced schema.
    pub fn add_or_replace(&mut self, schema: TableSchema) -> Option<TableSchema> {
        self.tables.insert(schema.name.to_lowercase(), schema)
    }

    /// Remove a relation by name; returns the removed schema if present.
    pub fn remove(&mut self, name: &str) -> Option<TableSchema> {
        self.tables.remove(&normalize(name))
    }

    /// Look a relation up by (possibly qualified) name.
    pub fn get(&self, name: &str) -> Option<&TableSchema> {
        self.tables.get(&normalize(name))
    }

    /// Whether `name` resolves to a relation.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// All relation names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(|s| s.as_str())
    }

    /// All relations in name order.
    pub fn relations(&self) -> impl Iterator<Item = &TableSchema> {
        self.tables.values()
    }

    /// Count of base tables (non-views).
    pub fn base_table_count(&self) -> usize {
        self.tables.values().filter(|t| !t.is_view()).count()
    }

    /// Count of views.
    pub fn view_count(&self) -> usize {
        self.tables.values().filter(|t| t.is_view()).count()
    }

    /// Total number of columns across base tables.
    pub fn base_table_column_count(&self) -> usize {
        self.tables.values().filter(|t| !t.is_view()).map(|t| t.columns.len()).sum()
    }

    /// Total number of columns across views.
    pub fn view_column_count(&self) -> usize {
        self.tables.values().filter(|t| t.is_view()).map(|t| t.columns.len()).sum()
    }
}

/// Strip any schema qualifier and lower-case the name.
fn normalize(name: &str) -> String {
    name.rsplit('.').next().unwrap_or(name).to_lowercase()
}

fn column_from_def(def: &ColumnDef) -> Column {
    Column::new(def.name.value.clone(), def.data_type.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DDL: &str = "
        CREATE TABLE customers (cid int PRIMARY KEY, name text, age int);
        CREATE TABLE orders (oid int, cid int REFERENCES customers(cid));
        CREATE TABLE web (cid int, date date, page text, reg boolean);
        -- a trailing query should be ignored by from_ddl
        SELECT * FROM customers;
    ";

    #[test]
    fn loads_ddl_script() {
        let catalog = Catalog::from_ddl(DDL).unwrap();
        assert_eq!(catalog.len(), 3);
        assert_eq!(catalog.base_table_count(), 3);
        assert_eq!(catalog.view_count(), 0);
        let web = catalog.get("web").unwrap();
        assert_eq!(web.columns.len(), 4);
        assert_eq!(web.columns[1].data_type, "date");
    }

    #[test]
    fn lookup_strips_qualifiers_and_case() {
        let catalog = Catalog::from_ddl(DDL).unwrap();
        assert!(catalog.contains("CUSTOMERS"));
        assert!(catalog.contains("public.customers"));
        assert!(!catalog.contains("nope"));
    }

    #[test]
    fn duplicate_add_errors() {
        let mut catalog = Catalog::from_ddl(DDL).unwrap();
        let dup = TableSchema::base_table("web", vec![]);
        assert!(matches!(catalog.add(dup.clone()), Err(DbError::DuplicateTable(_))));
        catalog.add_or_replace(dup);
        assert_eq!(catalog.get("web").unwrap().columns.len(), 0);
    }

    #[test]
    fn remove_returns_schema() {
        let mut catalog = Catalog::from_ddl(DDL).unwrap();
        assert!(catalog.remove("orders").is_some());
        assert!(catalog.remove("orders").is_none());
        assert_eq!(catalog.len(), 2);
    }

    #[test]
    fn column_statistics() {
        let catalog = Catalog::from_ddl(DDL).unwrap();
        assert_eq!(catalog.base_table_column_count(), 3 + 2 + 4);
        assert_eq!(catalog.view_column_count(), 0);
    }
}
