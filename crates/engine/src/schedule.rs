//! The parallel extraction scheduler: connected components, topological
//! leveling, and one scoped work-queue pool.
//!
//! Extraction of one view needs the finished lineage of everything it
//! scans, and nothing else. [`components`] splits a refresh's dirty cone
//! into connected components of the dependency DAG, which share nothing
//! and extract independently; [`topo_levels`] orders each component into
//! *levels*: level 0 holds views whose dependencies are already settled,
//! level *n* holds views depending only on earlier levels. Within a level
//! every extraction is independent; between levels the engine merges
//! results, which keeps the shared state free of locks (workers only ever
//! hold shared references to a frozen snapshot). [`run_tasks`] runs
//! either kind of work — whole components, or the views of one level —
//! on up to `jobs` threads.
//!
//! Both execution modes run the exact same algorithm — `jobs <= 1` just
//! skips the thread spawns — so parallel output is byte-identical to
//! sequential output by construction, which the property tests assert.

use std::collections::{BTreeMap, BTreeSet};

/// Group `nodes` into dependency levels: every node's dependencies (as
/// given by `deps_of`, already restricted however the caller likes) that
/// are themselves in `nodes` land in a strictly earlier level. Levels and
/// the ids inside them come out in deterministic sorted order.
///
/// Returns `Err(cycle)` — a path `[a, b, ..., a]` — when the nodes cannot
/// be levelled because they form a dependency cycle.
pub fn topo_levels(
    nodes: &BTreeSet<String>,
    mut deps_of: impl FnMut(&str) -> BTreeSet<String>,
) -> Result<Vec<Vec<String>>, Vec<String>> {
    // Dependencies restricted to the node set, self-edges dropped (a
    // self-scan degrades to an external in extraction, not a cycle).
    let deps: BTreeMap<String, BTreeSet<String>> = nodes
        .iter()
        .map(|n| {
            let mut d: BTreeSet<String> =
                deps_of(n).into_iter().filter(|d| nodes.contains(d)).collect();
            d.remove(n.as_str());
            (n.clone(), d)
        })
        .collect();

    // Kahn's algorithm in level batches: O(V log V + E) instead of the
    // former fixpoint's O(V · levels), which mattered once deep diamond
    // stacks pushed level counts into the hundreds. A node's level is
    // 1 + the maximum level of its in-set dependencies, so the output is
    // identical to the fixpoint formulation (the unit tests pin it).
    let mut waiting: BTreeMap<&str, usize> = BTreeMap::new();
    let mut dependents: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (node, node_deps) in &deps {
        waiting.insert(node, node_deps.len());
        for dep in node_deps {
            dependents.entry(dep).or_default().push(node);
        }
    }
    let mut ready: Vec<&str> =
        deps.iter().filter(|(_, d)| d.is_empty()).map(|(n, _)| n.as_str()).collect();
    let mut levels: Vec<Vec<String>> = Vec::new();
    let mut placed = 0usize;
    while !ready.is_empty() {
        placed += ready.len();
        let mut next: Vec<&str> = Vec::new();
        for node in &ready {
            for dependent in dependents.get(node).map_or(&[][..], |d| d) {
                let n = waiting.get_mut(dependent).expect("every node has a waiting count");
                *n -= 1;
                if *n == 0 {
                    next.push(dependent);
                }
            }
        }
        next.sort_unstable();
        levels.push(ready.iter().map(|n| n.to_string()).collect());
        ready = next;
    }
    if placed < nodes.len() {
        let remaining: BTreeSet<String> =
            waiting.iter().filter(|(_, n)| **n > 0).map(|(node, _)| node.to_string()).collect();
        return Err(find_cycle(&remaining, &deps));
    }
    Ok(levels)
}

/// Partition `nodes` into connected components of the dependency graph
/// (edges = `deps_of` restricted to the node set, direction ignored).
/// Components come out sorted by their smallest member, members sorted —
/// fully deterministic, so a scheduler iterating components in order
/// produces the same merge order no matter how they executed.
///
/// Two nodes sharing only an *out-of-set* dependency (say, a base table)
/// are **not** connected: nothing about one's extraction can influence
/// the other, which is exactly the independence component-sharded
/// extraction exploits.
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
/// when tasks have very uneven sizes (whole dependency components vs
/// single extractions). `jobs <= 1` (or a single task) runs inline on the
/// calling thread; both paths produce identical output.
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

/// Walk unresolved dependencies until a node repeats, producing the cycle
/// path in the `[a, b, ..., a]` shape `LineageError::DependencyCycle`
/// reports.
fn find_cycle(
    remaining: &BTreeSet<String>,
    deps: &BTreeMap<String, BTreeSet<String>>,
) -> Vec<String> {
    let start = remaining.iter().next().expect("remaining is non-empty");
    let mut path: Vec<String> = vec![start.clone()];
    loop {
        let current = path.last().expect("path starts non-empty");
        let next = deps[current]
            .iter()
            .find(|d| remaining.contains(*d))
            .expect("every stuck node has an unresolved dependency")
            .clone();
        if let Some(pos) = path.iter().position(|p| p == &next) {
            let mut cycle = path.split_off(pos);
            cycle.push(next);
            return cycle;
        }
        path.push(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[&str]) -> BTreeSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn levels_respect_dependencies() {
        let nodes = set(&["a", "b", "c", "d"]);
        // a <- b <- c, and d independent.
        let levels = topo_levels(&nodes, |n| match n {
            "b" => set(&["a"]),
            "c" => set(&["b"]),
            _ => BTreeSet::new(),
        })
        .unwrap();
        assert_eq!(levels, vec![vec!["a", "d"], vec!["b"], vec!["c"]]);
    }

    #[test]
    fn deps_outside_the_node_set_are_satisfied() {
        let nodes = set(&["x"]);
        let levels = topo_levels(&nodes, |_| set(&["already_done"])).unwrap();
        assert_eq!(levels, vec![vec!["x"]]);
    }

    #[test]
    fn self_edges_are_not_cycles() {
        let nodes = set(&["x"]);
        let levels = topo_levels(&nodes, |_| set(&["x"])).unwrap();
        assert_eq!(levels, vec![vec!["x"]]);
    }

    #[test]
    fn cycles_are_reported_as_paths() {
        let nodes = set(&["a", "b", "c"]);
        let err = topo_levels(&nodes, |n| match n {
            "a" => set(&["b"]),
            "b" => set(&["a"]),
            _ => BTreeSet::new(),
        })
        .unwrap_err();
        assert_eq!(err, vec!["a", "b", "a"]);
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
    fn deep_chains_level_in_linear_time() {
        // 500 levels: the fixpoint formulation would take 250k scans.
        let nodes: BTreeSet<String> = (0..500).map(|i| format!("v{i:03}")).collect();
        let levels = topo_levels(&nodes, |n| {
            let i: usize = n[1..].parse().unwrap();
            if i == 0 {
                BTreeSet::new()
            } else {
                set(&[&format!("v{:03}", i - 1)])
            }
        })
        .unwrap();
        assert_eq!(levels.len(), 500);
        assert!(levels.iter().all(|l| l.len() == 1));
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
