//! The parallel extraction scheduler: connected components and one
//! scoped work-queue pool.
//!
//! Extraction of one view needs the finished lineage of everything it
//! scans, plus the usage-inferred schemas of the unknown externals it
//! scans. [`components`] splits a refresh's dirty cone into connected
//! components of the dependency DAG, which extract independently;
//! within a component the engine orders extraction with the paper's
//! deferral stack ([`lineagex_core::run_deferral_stack`]), rooted in
//! ingest order, on one thread. [`run_tasks`] runs the components on up
//! to `jobs` threads, one task per component, so a one-component
//! refresh runs on the calling thread.
//!
//! Components share the settled lineage they read, but each extracts
//! against its own copy of the inferred schemas. So an unknown external
//! that two components scan is reported (`unknown-relation`) in each,
//! where a log-order run over the same log reports it once.
//!
//! Both execution modes run the exact same algorithm — `jobs <= 1` just
//! skips the thread spawns — so parallel output is byte-identical to
//! sequential output by construction, which the property tests assert.

use std::collections::{BTreeMap, BTreeSet};

/// Partition `nodes` into connected components of the dependency graph
/// (edges = `deps_of` restricted to the node set, direction ignored).
/// Components come out sorted by their smallest member, members sorted —
/// fully deterministic, so a scheduler iterating components in order
/// produces the same merge order no matter how they executed.
///
/// Two nodes sharing only an *out-of-set* dependency (say, a base table)
/// are **not** connected: neither reads the other's lineage, which is
/// the independence component-sharded extraction exploits. One thing
/// still crosses components: when the shared dependency is an unknown
/// external, each component infers its schema on its own, so each
/// reports it (see the module docs).
pub fn components(
    nodes: &BTreeSet<String>,
    mut deps_of: impl FnMut(&str) -> BTreeSet<String>,
) -> Vec<BTreeSet<String>> {
    let ids: Vec<&String> = nodes.iter().collect();
    let index: BTreeMap<&str, usize> =
        ids.iter().enumerate().map(|(i, s)| (s.as_str(), i)).collect();
    let mut parent: Vec<usize> = (0..ids.len()).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]]; // path halving
            i = parent[i];
        }
        i
    }
    for (i, id) in ids.iter().enumerate() {
        for dep in deps_of(id) {
            if let Some(&j) = index.get(dep.as_str()) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri.max(rj)] = ri.min(rj);
                }
            }
        }
    }
    let mut groups: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for (i, id) in ids.iter().enumerate() {
        groups.entry(find(&mut parent, i)).or_default().insert((*id).clone());
    }
    // Roots are minimal indices of their group and ids are sorted, so
    // ascending root order IS ascending smallest-member order.
    groups.into_values().collect()
}

/// Run `work(0..count)` over a shared work queue on up to `jobs` scoped
/// worker threads, returning results in index order regardless of
/// completion order. Tasks are claimed one at a time — the right shape
/// when tasks have very uneven sizes (dependency components of any
/// size). `jobs <= 1` (or a single task) runs inline on the calling
/// thread; both paths produce identical output.
pub fn run_tasks<T, F>(count: usize, jobs: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || count <= 1 {
        return (0..count).map(&work).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<T>> = (0..count).map(|_| None).collect();
    std::thread::scope(|scope| {
        let next = &next;
        let work = &work;
        let handles: Vec<_> = (0..jobs.min(count))
            .map(|_| {
                scope.spawn(move || {
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
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("component worker panicked") {
                out[i] = Some(result);
            }
        }
    });
    out.into_iter().map(|slot| slot.expect("every task index was claimed exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[&str]) -> BTreeSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn components_split_on_connectivity_not_shared_externals() {
        let nodes = set(&["a", "b", "c", "d", "e"]);
        // a <- b, c <- d; e shares only the out-of-set dep "base".
        let comps = components(&nodes, |n| match n {
            "b" => set(&["a"]),
            "d" => set(&["c"]),
            _ => set(&["base"]),
        });
        assert_eq!(comps, vec![set(&["a", "b"]), set(&["c", "d"]), set(&["e"])]);
    }

    #[test]
    fn components_are_sorted_by_smallest_member() {
        let nodes = set(&["m", "z", "a"]);
        // z <- a joins {a, z}; m alone.
        let comps = components(&nodes, |n| if n == "z" { set(&["a"]) } else { BTreeSet::new() });
        assert_eq!(comps, vec![set(&["a", "z"]), set(&["m"])]);
    }

    #[test]
    fn run_tasks_matches_inline_execution() {
        let sequential = run_tasks(23, 1, |i| i * i);
        let parallel = run_tasks(23, 4, |i| i * i);
        assert_eq!(sequential, parallel);
        assert_eq!(parallel[7], 49);
        assert!(run_tasks(0, 4, |i| i).is_empty());
    }
}
