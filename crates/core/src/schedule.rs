//! The component scheduler: connected components, one scoped
//! work-queue pool, and the deferral stack run over one component.
//!
//! Extracting one query reads two things other queries write: the
//! finished lineage of every dictionary entry it scans, and the
//! usage-inferred schema of every unknown external it scans (the first
//! scanner reports the external, `unknown-relation`, and each column it
//! adds, `inferred-column`). [`components`] links exactly those readers
//! and writers, so the components it returns share nothing: each runs
//! the paper's deferral stack ([`crate::run_deferral_stack`]) on its own,
//! rooted in log order ([`ComponentRun`]), and [`run_tasks`] runs them
//! on up to `jobs` scoped threads.
//!
//! A component's stack meets, for each of its roots, exactly the events
//! one stack over the whole log meets for that root: the same attempts,
//! deferrals, extractions and stubs, in the same order, against the same
//! lineage and inferred schemas. So the one-stack run is the
//! components' events merged by the log position of the root whose
//! stack made them, which is how the batch run
//! ([`crate::InferenceEngine`]) merges: its processing order, deferrals,
//! traces, inferred schemas and first strict error are those of one
//! stack whatever `jobs` is. The session engine partitions each
//! refresh's dirty cone with the same rule.

use crate::error::LineageError;
use crate::infer::{
    cycle_stub, extract_entry, run_deferral_stack, InferredSchemas, StackExtraction,
};
use crate::model::QueryLineage;
use crate::options::ExtractOptions;
use crate::preprocess::QueryEntry;
use crate::trace::TraceLog;
use lineagex_catalog::Catalog;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// The stack of each pool worker: room for the deepest query the parser
/// accepts (`MAX_PARSE_DEPTH` nested levels), which a debug build cannot
/// extract on a default 2 MiB thread. It matches a Linux main thread's.
const WORKER_STACK_BYTES: usize = 8 << 20;

/// Partition `members` into the connected components whose deferral
/// stacks share nothing. A member links to
///
/// * every other member it depends on (`deps_of(i, visit)` visits member
///   `i`'s dependencies), and
/// * every other member that depends on the same *unknown external*: a
///   dependency that is no member, no settled entry (`is_settled`) and
///   no `catalog` relation, whose schema the scanners infer together.
///
/// A catalog relation or a settled entry links nothing: its scanners only
/// read it. Each component lists its members' indices ascending, and
/// components come out ordered by their smallest index, so the result is
/// deterministic: give `members` in log order and each component's
/// roots are in log order too.
pub fn components<'a>(
    members: &[&'a str],
    mut deps_of: impl FnMut(usize, &mut dyn FnMut(&'a str)),
    is_settled: impl Fn(&str) -> bool,
    catalog: &Catalog,
) -> Vec<Vec<usize>> {
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]]; // path halving
            i = parent[i];
        }
        i
    }
    let index: HashMap<&str, usize> = members.iter().enumerate().map(|(i, &m)| (m, i)).collect();
    let mut parent: Vec<usize> = (0..members.len()).collect();
    // Each dependency that is no member: its first scanner when it is
    // an unknown external, `None` when it is only read.
    let mut outside: HashMap<&'a str, Option<usize>> = HashMap::new();
    for i in 0..members.len() {
        deps_of(i, &mut |dep| {
            let linked = match index.get(dep) {
                Some(&j) => Some(j),
                None => *outside.entry(dep).or_insert_with(|| {
                    (!is_settled(dep) && catalog.get(dep).is_none()).then_some(i)
                }),
            };
            if let Some(j) = linked {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                parent[ri.max(rj)] = ri.min(rj);
            }
        });
    }
    // Roots are the smallest index of their group, so a component's slot
    // is allocated when its smallest member comes up.
    let mut slot_of_root: HashMap<usize, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 0..members.len() {
        let root = find(&mut parent, i);
        let slot = *slot_of_root.entry(root).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[slot].push(i);
    }
    groups
}

/// Run `work(0..count)` and return the results in index order. `jobs <=
/// 1` (or a single task) runs every task inline on the calling thread.
/// Otherwise the calling thread runs task 0 while up to `jobs` scoped
/// workers claim the others from a shared queue one at a time, the
/// right shape when tasks have very uneven sizes (dependency components
/// of any size); give the largest task first. The calling thread would
/// otherwise only wait, and on its own thread the largest task reuses
/// the memory the caller freed. Both paths produce identical output.
/// Every worker is joined before the call returns, and each has an
/// 8 MiB stack, a Linux main thread's: room for the deepest query the
/// parser accepts.
pub fn run_tasks<T, F>(count: usize, jobs: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || count <= 1 {
        return (0..count).map(&work).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    let next = AtomicUsize::new(1);
    let mut out: Vec<Option<T>> = (0..count).map(|_| None).collect();
    std::thread::scope(|scope| {
        let next = &next;
        let work = &work;
        let handles: Vec<_> = (0..jobs.min(count - 1))
            .map(|_| {
                std::thread::Builder::new()
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn_scoped(scope, move || {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= count {
                                break;
                            }
                            local.push((i, work(i)));
                        }
                        local
                    })
                    .expect("spawn a component worker")
            })
            .collect();
        out[0] = Some(work(0));
        for handle in handles {
            for (i, result) in handle.join().expect("component worker panicked") {
                out[i] = Some(result);
            }
        }
    });
    out.into_iter().map(|slot| slot.expect("every task index was claimed exactly once")).collect()
}

/// One entry a [`ComponentRun`] extracted (or stubbed): the log position
/// of the root whose stack made it, its lineage, the optional trace, and
/// the inferred-schema delta the extraction added.
#[derive(Debug)]
pub struct Extracted {
    /// The position, in log (ingest) order, of the root whose stack
    /// extracted the entry.
    pub root: u64,
    /// The entry's id.
    pub id: String,
    /// Its settled lineage.
    pub lineage: Arc<QueryLineage>,
    /// Its traversal trace, when tracing is on.
    pub trace: Option<TraceLog>,
    /// What its extraction added to the inferred schemas.
    pub delta: InferredSchemas,
}

/// One connected component on the deferral stack: its members' entries,
/// rooted in log order, against read-only dictionary ids, catalog and
/// options. `processed` starts with whatever settled lineage outside the
/// component the members read (nothing in a batch run; a session
/// refresh seeds the members' clean dependencies) and `inferred` with the
/// inferred schemas the component starts from. Inferred schemas
/// accumulate in `inferred` across the component, like a one-stack
/// run's; a deferred attempt gives its additions back
/// ([`extract_entry`]).
pub struct ComponentRun<'a> {
    roots: Vec<(u64, &'a str)>,
    members: HashMap<&'a str, &'a QueryEntry>,
    qd_ids: &'a BTreeSet<String>,
    catalog: &'a Catalog,
    options: &'a ExtractOptions,
    /// The position of the root whose stack is running.
    root: u64,
    /// Lineage the stack reads: the seeded settled lineage, then every
    /// member it extracted or stubbed.
    pub processed: BTreeMap<String, Arc<QueryLineage>>,
    /// The inferred schemas, as the stack leaves them.
    pub inferred: InferredSchemas,
    /// Every member extracted or stubbed, in stack order.
    pub extracted: Vec<Extracted>,
    /// `(root position, deferred query, missing dependency)`, in the
    /// order the stack fired.
    pub deferrals: Vec<(u64, String, String)>,
}

impl<'a> ComponentRun<'a> {
    /// A run over `members`, each with its log position, given in
    /// ascending position: the stack's roots.
    pub fn new(
        members: impl IntoIterator<Item = (u64, &'a QueryEntry)>,
        qd_ids: &'a BTreeSet<String>,
        catalog: &'a Catalog,
        options: &'a ExtractOptions,
        processed: BTreeMap<String, Arc<QueryLineage>>,
        inferred: InferredSchemas,
    ) -> Self {
        let mut roots = Vec::new();
        let mut map = HashMap::new();
        for (pos, entry) in members {
            roots.push((pos, entry.id.as_str()));
            map.insert(entry.id.as_str(), entry);
        }
        ComponentRun {
            roots,
            members: map,
            qd_ids,
            catalog,
            options,
            root: 0,
            processed,
            inferred,
            extracted: Vec::new(),
            deferrals: Vec::new(),
        }
    }

    /// Run the stack from each root in turn. A failure stops the run and
    /// names the position of the root whose stack failed: the first root
    /// the component did not finish.
    pub fn run(&mut self) -> Result<(), (u64, LineageError)> {
        for (pos, root) in std::mem::take(&mut self.roots) {
            self.root = pos;
            run_deferral_stack(self, [root.to_string()]).map_err(|error| (pos, error))?;
        }
        Ok(())
    }

    fn record(
        &mut self,
        id: &str,
        lineage: QueryLineage,
        trace: Option<TraceLog>,
        delta: InferredSchemas,
    ) {
        let lineage = Arc::new(lineage);
        self.processed.insert(id.to_string(), Arc::clone(&lineage));
        let root = self.root;
        self.extracted.push(Extracted { root, id: id.to_string(), lineage, trace, delta });
    }
}

impl StackExtraction for ComponentRun<'_> {
    fn is_done(&self, id: &str) -> bool {
        self.processed.contains_key(id)
    }

    fn attempt(&mut self, id: &str) -> Result<(), LineageError> {
        let (lineage, trace, delta) = extract_entry(
            self.members[id],
            self.qd_ids,
            &self.processed,
            self.catalog,
            self.options,
            &mut self.inferred,
        )?;
        self.record(id, lineage, trace, delta);
        Ok(())
    }

    /// Only a member of the component can be pushed: anything else the
    /// extractor finds missing has no lineage this run could wait for.
    fn defer(&mut self, id: &str, dependency: &str) -> Result<(), LineageError> {
        if self.members.contains_key(dependency) {
            self.deferrals.push((self.root, id.to_string(), dependency.to_string()));
            Ok(())
        } else {
            Err(LineageError::MissingDependency {
                query: id.to_string(),
                dependency: dependency.to_string(),
            })
        }
    }

    fn break_cycle(&mut self, id: &str, path: Vec<String>) -> Result<(), LineageError> {
        if !self.options.lenient {
            return Err(LineageError::DependencyCycle(path));
        }
        let stub = cycle_stub(self.members[id], &path);
        self.record(id, stub, None, InferredSchemas::new());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::QueryDict;

    /// The components of a log, as ids.
    fn split(sql: &str, catalog: &Catalog) -> Vec<Vec<String>> {
        let qd = QueryDict::from_sql(sql).unwrap();
        let ids: Vec<&str> = qd.ids().collect();
        let comps = components(
            &ids,
            |i, visit| crate::deps::for_each_relation(qd.entries()[i].query(), visit),
            |_| false,
            catalog,
        );
        comps.iter().map(|c| c.iter().map(|&i| ids[i].to_string()).collect()).collect()
    }

    #[test]
    fn components_link_scanned_entries_and_shared_externals_only() {
        let catalog = Catalog::from_ddl("CREATE TABLE base (x int)").unwrap();
        let comps = split(
            "CREATE VIEW b AS SELECT x FROM a; CREATE VIEW e AS SELECT x FROM base;
             CREATE VIEW a AS SELECT x FROM base; CREATE VIEW w1 AS SELECT page FROM web;
             CREATE VIEW d AS SELECT x FROM c; CREATE VIEW c AS SELECT 1 AS x;
             CREATE VIEW w2 AS SELECT page FROM web;",
            &catalog,
        );
        // b <- a; d <- c; w1 and w2 share the unknown external web; e
        // shares only the catalog table base. In log order.
        let expected: Vec<Vec<&str>> =
            vec![vec!["b", "a"], vec!["e"], vec!["w1", "w2"], vec!["d", "c"]];
        assert_eq!(comps, expected);
    }

    #[test]
    fn settled_dependencies_link_nothing() {
        let members = ["v1", "v2"];
        let deps = [vec!["settled"], vec!["settled"]];
        let comps = components(
            &members,
            |i, visit| deps[i].iter().for_each(|d| visit(d)),
            |d| d == "settled",
            &Catalog::new(),
        );
        assert_eq!(comps, vec![vec![0], vec![1]]);
    }

    #[test]
    fn run_tasks_matches_inline_execution() {
        let sequential = run_tasks(23, 1, |i| i * i);
        let parallel = run_tasks(23, 4, |i| i * i);
        assert_eq!(sequential, parallel);
        assert_eq!(parallel[7], 49);
        assert!(run_tasks(0, 4, |i| i).is_empty());
    }

    #[test]
    fn a_component_defers_only_on_its_own_members() {
        let qd = QueryDict::from_sql(
            "CREATE VIEW a AS SELECT x FROM b; CREATE VIEW b AS SELECT 1 AS x;
             CREATE VIEW outside AS SELECT 1 AS x;",
        )
        .unwrap();
        let qd_ids = qd.ids().map(String::from).collect();
        let (catalog, options) = (Catalog::new(), ExtractOptions::default());
        let members = [(0, qd.get("a").unwrap()), (1, qd.get("b").unwrap())];
        let mut run = ComponentRun::new(
            members,
            &qd_ids,
            &catalog,
            &options,
            BTreeMap::new(),
            InferredSchemas::new(),
        );
        assert_eq!(run.defer("a", "b"), Ok(()));
        // An entry outside the component is never pushed: the run fails
        // with a typed error instead.
        assert_eq!(
            run.defer("a", "outside"),
            Err(LineageError::MissingDependency {
                query: "a".into(),
                dependency: "outside".into()
            })
        );
    }
}
