//! Extraction-time scopes: the relations visible to a query block.

use crate::model::{OutputColumn, SourceColumn};
use crate::shared::SortedSet;
use lineagex_sqlparse::Span;

/// One relation visible in a `FROM` scope.
///
/// Closed relations carry their full column list. Open relations (external
/// tables absent from both the catalog and the Query Dictionary) have no
/// known schema; the extractor infers their columns from usage into an
/// engine-level map, so `columns` stays empty here.
#[derive(Debug, Clone)]
pub(crate) struct Relation {
    /// The binding name (alias, or the relation's own name).
    pub binding: String,
    /// The underlying relation name or query id (labels inferred columns).
    pub name: String,
    /// Output columns with composed sources (closed relations only).
    pub columns: Vec<OutputColumn>,
    /// True when the schema is unknown and inferred from usage.
    pub open: bool,
    /// Where the relation was bound in the source (the table factor's
    /// name), so diagnostics about the binding can point at it.
    pub span: Span,
}

impl Relation {
    /// A closed relation with known columns.
    pub fn closed(
        binding: impl Into<String>,
        name: impl Into<String>,
        columns: Vec<OutputColumn>,
    ) -> Self {
        Relation {
            binding: binding.into(),
            name: name.into(),
            columns,
            open: false,
            span: Span::default(),
        }
    }

    /// An open (schema-less) relation.
    pub fn open(binding: impl Into<String>, name: impl Into<String>) -> Self {
        Relation {
            binding: binding.into(),
            name: name.into(),
            columns: Vec::new(),
            open: true,
            span: Span::default(),
        }
    }

    /// Attach the source span the relation was bound from.
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = span;
        self
    }

    /// Whether this closed relation exposes `column`.
    pub fn has_column(&self, column: &str) -> bool {
        self.columns.iter().any(|c| c.name == column)
    }

    /// The sources of `column`, if exposed.
    pub fn sources_of(&self, column: &str) -> Option<&SortedSet<SourceColumn>> {
        self.columns.iter().find(|c| c.name == column).map(|c| &c.ccon)
    }
}

/// A chain of `FROM` scopes, innermost first, for correlated resolution.
#[derive(Clone, Copy)]
pub(crate) struct Scope<'s> {
    /// Relations of this scope.
    pub relations: &'s [Relation],
    /// The enclosing query's scope, if any.
    pub parent: Option<&'s Scope<'s>>,
}

impl<'s> Scope<'s> {
    /// Iterate scopes from innermost to outermost.
    pub fn chain(&self) -> impl Iterator<Item = &Scope<'s>> {
        std::iter::successors(Some(self), |s| s.parent)
    }

    /// Find a relation by binding name anywhere in the chain.
    pub fn find_binding(&self, binding: &str) -> Option<&'s Relation> {
        self.chain().find_map(|s| s.relations.iter().find(|r| r.binding == binding))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(binding: &str, cols: &[&str]) -> Relation {
        Relation::closed(
            binding,
            binding,
            cols.iter()
                .map(|c| OutputColumn::new(*c, SortedSet::from([SourceColumn::new(binding, *c)])))
                .collect(),
        )
    }

    #[test]
    fn column_lookup() {
        let r = rel("web", &["cid", "page"]);
        assert!(r.has_column("page"));
        assert!(!r.has_column("nope"));
        assert!(r.sources_of("cid").unwrap().contains(&SourceColumn::new("web", "cid")));
    }

    #[test]
    fn scope_chain_finds_outer_bindings() {
        let outer_rels = vec![rel("c", &["cid"])];
        let outer = Scope { relations: &outer_rels, parent: None };
        let inner_rels = vec![rel("o", &["oid"])];
        let inner = Scope { relations: &inner_rels, parent: Some(&outer) };
        assert!(inner.find_binding("o").is_some());
        assert!(inner.find_binding("c").is_some());
        assert!(inner.find_binding("zz").is_none());
        assert_eq!(inner.chain().count(), 2);
    }

    #[test]
    fn open_relations_have_no_columns() {
        let r = Relation::open("w", "web");
        assert!(r.open);
        assert!(!r.has_column("page"));
    }
}
