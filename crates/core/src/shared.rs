//! Structurally shared, copy-on-write containers for the lineage graph.
//!
//! A session publishes each settled [`LineageGraph`](crate::LineageGraph)
//! revision to readers and then edits its own copy, so the graph's
//! containers are built for cheap copies and cone-sized edits. Items
//! live in bounded-size leaves behind `Arc`s, listed in order by a leaf
//! table, itself behind an `Arc`:
//!
//! * cloning a container copies two pointers: its leaf table's and its
//!   separator list's;
//! * an edit copies the leaf table's pointers plus the leaves it
//!   touches, each at most 64 items;
//! * dropping a revision frees only the leaves no other revision holds.
//!
//! [`SharedMap`] is a sorted map and [`SharedVec`] a sequence. Their
//! iteration order, equality, `Debug` and `Serialize` output are those
//! of the `BTreeMap` and `Vec` holding the same items; only the leaf
//! layout, which no output shows, depends on the edit history.
//!
//! ```
//! use lineagex_core::SharedMap;
//!
//! let mut published: SharedMap<String, u32> = SharedMap::new();
//! for i in 0..1_000 {
//!     published.insert(format!("v{i:04}"), i);
//! }
//! let mut next = published.clone();
//! next.insert("v0500".into(), 7);
//! assert_eq!(published["v0500"], 500);
//! assert_eq!(next["v0500"], 7);
//! // The edit copied one leaf; every other leaf is shared.
//! let shared = next.leaves().filter(|l| published.leaves().any(|p| p.as_ptr() == l.as_ptr()));
//! assert_eq!(shared.count(), next.leaves().count() - 1);
//! ```

use serde::{Serialize, Serializer};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;
use std::slice;
use std::sync::Arc;

/// The most items one leaf holds. A leaf that grows past it splits in
/// half, so an edit copies at most this many items.
const LEAF_MAX: usize = 64;

/// A leaf: up to [`LEAF_MAX`] items, in order.
type Leaf<T> = Arc<Vec<T>>;

/// The layout both containers share: the leaves, one separator per leaf,
/// and the item count.
struct Leaves<T, L> {
    table: Arc<Vec<Leaf<T>>>,
    /// A [`SharedMap`]'s separators, `lows[j]` for leaf `j`: every key
    /// leaf `j` holds is at least `lows[j]` and below `lows[j + 1]`, and
    /// the first leaf also takes the keys below the second's. A leaf
    /// keeps its separator while it lives, even when emptied, so a key
    /// removed and inserted again returns to its own leaf, never a
    /// neighbour's; and the list is copied only when leaves split or
    /// merge, not when their items change. `()` per leaf in a
    /// [`SharedVec`].
    lows: Arc<Vec<L>>,
    len: usize,
}

impl<T, L> Leaves<T, L> {
    fn new() -> Self {
        Leaves { table: Arc::new(Vec::new()), lows: Arc::new(Vec::new()), len: 0 }
    }

    /// Leaves of [`LEAF_MAX`] items cut from `items`, in order.
    fn from_items(items: Vec<T>, low: impl Fn(&T) -> L) -> Self {
        let len = items.len();
        let mut table = Vec::with_capacity(len.div_ceil(LEAF_MAX));
        let mut lows = Vec::with_capacity(table.capacity());
        let mut items = items.into_iter().peekable();
        while let Some(first) = items.peek() {
            lows.push(low(first));
            table.push(Arc::new(items.by_ref().take(LEAF_MAX).collect()));
        }
        Leaves { table: Arc::new(table), lows: Arc::new(lows), len }
    }

    fn iter(&self) -> Items<'_, T> {
        Items { front: [].iter(), leaves: self.table.iter() }
    }

    fn leaves(&self) -> impl Iterator<Item = &[T]> {
        self.table.iter().map(|leaf| leaf.as_slice())
    }
}

impl<T: Clone, L: Clone> Leaves<T, L> {
    /// Leaf `j`'s items, made unique for mutation: the table's pointers
    /// are copied if another revision holds the table, and the leaf's
    /// items if another revision holds the leaf.
    fn leaf_mut(&mut self, j: usize) -> &mut Vec<T> {
        Arc::make_mut(&mut Arc::make_mut(&mut self.table)[j])
    }

    /// Put a new leaf at position `j`.
    fn insert_leaf(&mut self, j: usize, low: L, items: Vec<T>) {
        Arc::make_mut(&mut self.table).insert(j, Arc::new(items));
        Arc::make_mut(&mut self.lows).insert(j, low);
    }

    /// Keep the items `keep` accepts, calling it once per item, in
    /// order. Leaves that lose nothing stay shared.
    fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        for j in 0..self.table.len() {
            let Some(first) = self.table[j].iter().position(|item| !keep(item)) else {
                continue;
            };
            let items = self.leaf_mut(j);
            let mut kept = first;
            for next in first + 1..items.len() {
                if keep(&items[next]) {
                    items.swap(kept, next);
                    kept += 1;
                }
            }
            let removed = items.len() - kept;
            items.truncate(kept);
            self.len -= removed;
        }
        self.compact();
    }

    /// After a removal: once the leaves average under a quarter full,
    /// drop the empty ones and merge neighbours that fit in one leaf.
    /// Edits only ever split leaves, so it takes removals of about half
    /// the items to get here again: the merge costs amortised O(1) per
    /// removal.
    fn compact(&mut self) {
        if self.table.len() <= 4 + 4 * self.len / LEAF_MAX {
            return;
        }
        let mut table: Vec<Leaf<T>> = Vec::with_capacity(self.table.len());
        let mut lows = Vec::with_capacity(self.table.len());
        for (leaf, low) in self.table.iter().zip(self.lows.iter()) {
            match table.last_mut() {
                _ if leaf.is_empty() => {}
                // The merged leaf keeps the left one's separator, so its
                // key range is the union of the two.
                Some(last) if last.len() + leaf.len() <= LEAF_MAX => {
                    Arc::make_mut(last).extend(leaf.iter().cloned());
                }
                _ => {
                    table.push(Arc::clone(leaf));
                    lows.push(low.clone());
                }
            }
        }
        self.table = Arc::new(table);
        self.lows = Arc::new(lows);
    }
}

impl<T, L> Clone for Leaves<T, L> {
    fn clone(&self) -> Self {
        Leaves { table: Arc::clone(&self.table), lows: Arc::clone(&self.lows), len: self.len }
    }
}

/// A borrowing iterator over the items from some position on: the rest
/// of one leaf, then whole leaves.
struct Items<'a, T> {
    front: slice::Iter<'a, T>,
    leaves: slice::Iter<'a, Leaf<T>>,
}

impl<'a, T> Items<'a, T> {
    /// The items from item `pos` of leaf `leaf` to the end.
    fn starting_at(table: &'a [Leaf<T>], (leaf, pos): (usize, usize)) -> Self {
        match table.get(leaf) {
            Some(first) => Items { front: first[pos..].iter(), leaves: table[leaf + 1..].iter() },
            None => Items { front: [].iter(), leaves: [].iter() },
        }
    }
}

impl<'a, T> Iterator for Items<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(item) = self.front.next() {
                return Some(item);
            }
            self.front = self.leaves.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let known = self.front.len();
        (known, self.leaves.as_slice().is_empty().then_some(known))
    }
}

/// A sorted map whose clones share structure: a copy-on-write stand-in
/// for `BTreeMap` (see the [module docs](self)).
///
/// Lookups binary-search the leaf table by separator, then one leaf.
/// [`insert`](Self::insert), [`remove`](Self::remove) and
/// [`get_mut`](Self::get_mut) copy the table's pointers once per
/// revision plus the leaf they change.
pub struct SharedMap<K, V> {
    leaves: Leaves<(K, V), K>,
}

/// An iterator over a [`SharedMap`]'s entries, in key order.
pub struct Iter<'a, K, V>(Items<'a, (K, V)>);

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        self.0.next().map(|(k, v)| (k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<K, V> SharedMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        SharedMap { leaves: Leaves::new() }
    }

    /// The number of entries.
    pub fn len(&self) -> usize {
        self.leaves.len
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.leaves.len == 0
    }

    /// The entries, in key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter(self.leaves.iter())
    }

    /// The keys, in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// The values, in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// The leaves, in order: each the slice of entries it holds. Two
    /// revisions share a non-empty leaf exactly when the two slices
    /// start at the same address.
    pub fn leaves(&self) -> impl Iterator<Item = &[(K, V)]> {
        self.leaves.leaves()
    }
}

impl<K: Ord, V> SharedMap<K, V> {
    /// Entries sorted by strictly increasing key, cut into full leaves.
    fn from_sorted(entries: Vec<(K, V)>) -> Self
    where
        K: Clone,
    {
        SharedMap { leaves: Leaves::from_items(entries, |(k, _)| k.clone()) }
    }

    /// The leaf that holds `key` if the map does: the last leaf whose
    /// separator is at most `key`, or the first. The table must not be
    /// empty.
    fn route<Q>(&self, key: &Q) -> usize
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.leaves.lows[1..].partition_point(|low| low.borrow() <= key)
    }

    /// The `(leaf, index)` of `key`'s entry.
    fn find<Q>(&self, key: &Q) -> Option<(usize, usize)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        if self.leaves.table.is_empty() {
            return None;
        }
        let j = self.route(key);
        let pos = self.leaves.table[j].binary_search_by(|(k, _)| k.borrow().cmp(key)).ok()?;
        Some((j, pos))
    }

    /// The value stored under `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (j, pos) = self.find(key)?;
        Some(&self.leaves.table[j][pos].1)
    }

    /// Whether the map holds `key`.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.find(key).is_some()
    }

    /// The entries whose keys are at least `start`, in key order.
    pub fn range_from<Q>(&self, start: &Q) -> Iter<'_, K, V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let table = &self.leaves.table;
        if table.is_empty() {
            return Iter(Items::starting_at(table, (0, 0)));
        }
        let j = self.route(start);
        let pos = table[j].partition_point(|(k, _)| k.borrow() < start);
        Iter(Items::starting_at(table, (j, pos)))
    }
}

impl<K: Ord + Clone, V: Clone> SharedMap<K, V> {
    /// Store `value` under `key`, returning the value it replaces (the
    /// stored key is kept, as `BTreeMap::insert` keeps it). Copies the
    /// leaf it lands in, and splits that leaf past 64 entries.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.leaves.table.is_empty() {
            self.leaves.insert_leaf(0, key.clone(), vec![(key, value)]);
            self.leaves.len = 1;
            return None;
        }
        // Keys arriving in order, as a bulk build sends them, append to
        // the last leaf without a search.
        let last = self.leaves.table.len() - 1;
        let appending = self.leaves.table[last].last().is_some_and(|(k, _)| key > *k);
        let j = if appending { last } else { self.route(&key) };
        let items = self.leaves.leaf_mut(j);
        let found =
            if appending { Err(items.len()) } else { items.binary_search_by(|(k, _)| k.cmp(&key)) };
        let pos = match found {
            Ok(pos) => return Some(std::mem::replace(&mut items[pos].1, value)),
            Err(pos) => pos,
        };
        items.insert(pos, (key, value));
        // A full leaf splits in half, except that an append starts the
        // next leaf, so a map built in key order has full leaves.
        let at = if appending { LEAF_MAX } else { items.len() / 2 };
        let right = (items.len() > LEAF_MAX).then(|| items.split_off(at));
        if let Some(right) = right {
            self.leaves.insert_leaf(j + 1, right[0].0.clone(), right);
        }
        self.leaves.len += 1;
        None
    }

    /// Remove `key`'s entry, returning its value. A miss copies nothing.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (j, pos) = self.find(key)?;
        let (_, value) = self.leaves.leaf_mut(j).remove(pos);
        self.leaves.len -= 1;
        self.leaves.compact();
        Some(value)
    }

    /// The value stored under `key`, unshared for mutation. A miss
    /// copies nothing.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (j, pos) = self.find(key)?;
        Some(&mut self.leaves.leaf_mut(j)[pos].1)
    }
}

impl<K: Ord, V> SharedMap<K, Arc<V>> {
    /// Walk `self` (the old revision) and `new` in one merge-join and
    /// call `changed` with every entry pair they do not share:
    /// `(Some(old), Some(new))` for a key both hold with different
    /// entries, `(Some(old), None)` for a key only `self` holds,
    /// `(None, Some(new))` for one only `new` holds.
    ///
    /// A leaf both revisions hold is skipped whole, and a pointer-equal
    /// entry pair is skipped without comparing keys, so diffing a
    /// copy-on-write copy costs one pointer compare per leaf plus the
    /// leaves the edits copied. Callers that depend on the entries alone
    /// (not the keys) see exactly the difference, as every entry is
    /// consumed once.
    pub(crate) fn for_each_changed<'g>(
        &'g self,
        new: &'g Self,
        mut changed: impl FnMut(Option<(&'g K, &'g V)>, Option<(&'g K, &'g V)>),
    ) {
        if Arc::ptr_eq(&self.leaves.table, &new.leaves.table) {
            return;
        }
        let mut olds = Cursor { table: &self.leaves.table, leaf: 0, pos: 0 };
        let mut news = Cursor { table: &new.leaves.table, leaf: 0, pos: 0 };
        loop {
            let (old, new) = (olds.peek(), news.peek());
            if let (Some(a), Some(b)) = (olds.table.get(olds.leaf), news.table.get(news.leaf)) {
                // Both cursors stand at the same key of a leaf both
                // revisions hold: the rest of it is the same.
                if Arc::ptr_eq(a, b) {
                    olds.skip_leaf();
                    news.skip_leaf();
                    continue;
                }
            }
            let order = match (old, new) {
                (None, None) => return,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some((_, a)), Some((_, b))) if Arc::ptr_eq(a, b) => {
                    olds.pos += 1;
                    news.pos += 1;
                    continue;
                }
                (Some((a, _)), Some((b, _))) => a.cmp(b),
            };
            let entry = |(key, value): &'g (K, Arc<V>)| (key, &**value);
            if order != Ordering::Greater {
                olds.pos += 1;
            }
            if order != Ordering::Less {
                news.pos += 1;
            }
            match order {
                Ordering::Less => changed(old.map(entry), None),
                Ordering::Greater => changed(None, new.map(entry)),
                Ordering::Equal => changed(old.map(entry), new.map(entry)),
            }
        }
    }
}

/// A position in a leaf table, for [`SharedMap::for_each_changed`].
struct Cursor<'g, T> {
    table: &'g [Leaf<T>],
    leaf: usize,
    pos: usize,
}

impl<'g, T> Cursor<'g, T> {
    /// The item at the cursor, first moving past exhausted and empty
    /// leaves.
    fn peek(&mut self) -> Option<&'g T> {
        while let Some(leaf) = self.table.get(self.leaf) {
            if let Some(item) = leaf.get(self.pos) {
                return Some(item);
            }
            self.leaf += 1;
            self.pos = 0;
        }
        None
    }

    fn skip_leaf(&mut self) {
        self.leaf += 1;
        self.pos = 0;
    }
}

impl<K, V> Clone for SharedMap<K, V> {
    /// Copies two pointers.
    fn clone(&self) -> Self {
        SharedMap { leaves: self.leaves.clone() }
    }
}

impl<K, V> Default for SharedMap<K, V> {
    fn default() -> Self {
        SharedMap::new()
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for SharedMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && (Arc::ptr_eq(&self.leaves.table, &other.leaves.table)
                || self.iter().eq(other.iter()))
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for SharedMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: AsRef<str>, V: Serialize> Serialize for SharedMap<K, V> {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.begin_map();
        for (k, v) in self {
            s.field(k.as_ref(), v);
        }
        s.end_map();
    }
}

impl<K, Q, V> Index<&Q> for SharedMap<K, V>
where
    K: Ord + Borrow<Q>,
    Q: Ord + ?Sized,
{
    type Output = V;

    fn index(&self, key: &Q) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

impl<'a, K, V> IntoIterator for &'a SharedMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Iter<'a, K, V> {
        self.iter()
    }
}

impl<K: Ord + Clone, V> FromIterator<(K, V)> for SharedMap<K, V> {
    /// Like `BTreeMap`'s: of entries with equal keys, the last one wins.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut entries: Vec<(K, V)> = iter.into_iter().collect();
        if entries.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            let mut unique: Vec<(K, V)> = Vec::with_capacity(entries.len());
            for entry in entries {
                match unique.last_mut() {
                    Some(last) if last.0 == entry.0 => *last = entry,
                    _ => unique.push(entry),
                }
            }
            entries = unique;
        }
        SharedMap::from_sorted(entries)
    }
}

impl<K: Ord + Clone, V> From<BTreeMap<K, V>> for SharedMap<K, V> {
    fn from(map: BTreeMap<K, V>) -> Self {
        SharedMap::from_sorted(map.into_iter().collect())
    }
}

/// A sequence whose clones share structure: a copy-on-write stand-in
/// for `Vec` (see the [module docs](self)).
///
/// [`push`](Self::push) copies at most the last leaf;
/// [`retain`](Self::retain) copies the leaves it removes items from.
pub struct SharedVec<T> {
    leaves: Leaves<T, ()>,
}

/// An iterator over a [`SharedVec`]'s items, in order.
pub struct SeqIter<'a, T>(Items<'a, T>);

impl<'a, T> Iterator for SeqIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        self.0.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<T> SharedVec<T> {
    /// An empty sequence.
    pub fn new() -> Self {
        SharedVec { leaves: Leaves::new() }
    }

    /// The number of items.
    pub fn len(&self) -> usize {
        self.leaves.len
    }

    /// Whether the sequence has no items.
    pub fn is_empty(&self) -> bool {
        self.leaves.len == 0
    }

    /// The items, in order.
    pub fn iter(&self) -> SeqIter<'_, T> {
        SeqIter(self.leaves.iter())
    }

    /// The leaves, in order: each the slice of items it holds. Two
    /// revisions share a non-empty leaf exactly when the two slices
    /// start at the same address.
    pub fn leaves(&self) -> impl Iterator<Item = &[T]> {
        self.leaves.leaves()
    }
}

impl<T: Clone> SharedVec<T> {
    /// Append `item`, copying the last leaf if another revision holds it.
    pub fn push(&mut self, item: T) {
        let last = self.leaves.table.len().wrapping_sub(1);
        match self.leaves.table.last() {
            Some(leaf) if leaf.len() < LEAF_MAX => self.leaves.leaf_mut(last).push(item),
            _ => self.leaves.insert_leaf(self.leaves.table.len(), (), vec![item]),
        }
        self.leaves.len += 1;
    }

    /// Keep the items `keep` accepts, calling it once per item, in
    /// order. Leaves that lose no item are not copied.
    pub fn retain(&mut self, keep: impl FnMut(&T) -> bool) {
        self.leaves.retain(keep);
    }
}

impl<T> Clone for SharedVec<T> {
    /// Copies two pointers.
    fn clone(&self) -> Self {
        SharedVec { leaves: self.leaves.clone() }
    }
}

impl<T> Default for SharedVec<T> {
    fn default() -> Self {
        SharedVec::new()
    }
}

impl<T: PartialEq> PartialEq for SharedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && (Arc::ptr_eq(&self.leaves.table, &other.leaves.table)
                || self.iter().eq(other.iter()))
    }
}

impl<T: PartialEq<U>, U> PartialEq<Vec<U>> for SharedVec<T> {
    fn eq(&self, other: &Vec<U>) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a == b)
    }
}

impl<T: fmt::Debug> fmt::Debug for SharedVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Serialize> Serialize for SharedVec<T> {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.seq(self.iter());
    }
}

impl<'a, T> IntoIterator for &'a SharedVec<T> {
    type Item = &'a T;
    type IntoIter = SeqIter<'a, T>;

    fn into_iter(self) -> SeqIter<'a, T> {
        self.iter()
    }
}

impl<T> FromIterator<T> for SharedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        SharedVec::from(iter.into_iter().collect::<Vec<T>>())
    }
}

impl<T> From<Vec<T>> for SharedVec<T> {
    fn from(items: Vec<T>) -> Self {
        SharedVec { leaves: Leaves::from_items(items, |_| ()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl<T, L> Leaves<T, L> {
        /// Every leaf within bounds, one separator per leaf, and the
        /// count right.
        fn check_layout(&self) {
            assert!(self.table.iter().all(|leaf| leaf.len() <= LEAF_MAX));
            assert_eq!(self.lows.len(), self.table.len());
            assert_eq!(self.table.iter().map(|leaf| leaf.len()).sum::<usize>(), self.len);
        }
    }

    impl<K: Ord + fmt::Debug, V> SharedMap<K, V> {
        /// Keys strictly increasing across leaves, each leaf within its
        /// separators.
        fn check(&self) {
            self.leaves.check_layout();
            let keys: Vec<&K> = self.keys().collect();
            assert!(keys.windows(2).all(|pair| pair[0] < pair[1]), "{keys:?}");
            let lows = &self.leaves.lows;
            for (j, leaf) in self.leaves.table.iter().enumerate() {
                for (k, _) in leaf.iter() {
                    assert!(j == 0 || *k >= lows[j], "{k:?} below its leaf's separator");
                    let next = lows.get(j + 1);
                    assert!(next.is_none_or(|next| k < next), "{k:?} past the next separator");
                }
            }
        }
    }

    #[derive(Debug, Clone)]
    enum MapOp {
        Insert(u16, u32),
        Remove(u16),
        RemoveRun(u16, u16),
        RangeFrom(u16),
        Get(u16),
        Clone,
    }

    /// Inserts six times as often as ranges and clones, removes three;
    /// runs of removals leave leaves sparse enough to compact.
    fn map_op() -> impl Strategy<Value = MapOp> {
        (0u8..14, 0u16..1500, 0u16..1500, any::<u32>()).prop_map(|(tag, a, b, v)| match tag {
            0..=5 => MapOp::Insert(a, v),
            6..=8 => MapOp::Remove(a),
            9 => MapOp::RemoveRun(a.min(b), a.max(b)),
            10 => MapOp::RangeFrom(a),
            11 | 12 => MapOp::Get(a),
            _ => MapOp::Clone,
        })
    }

    /// One `for_each_changed` report: the old and the new entry.
    type Change = (Option<(u16, u32)>, Option<(u16, u32)>);

    /// The entries `for_each_changed` reports between two maps, by the
    /// reference: keys whose entries are not the same `Arc`.
    fn reference_changes(
        old: &BTreeMap<u16, Arc<u32>>,
        new: &BTreeMap<u16, Arc<u32>>,
    ) -> Vec<Change> {
        let keys: std::collections::BTreeSet<u16> = old.keys().chain(new.keys()).copied().collect();
        keys.into_iter()
            .filter_map(|k| match (old.get(&k), new.get(&k)) {
                (Some(a), Some(b)) if Arc::ptr_eq(a, b) => None,
                (a, b) => Some((a.map(|v| (k, **v)), b.map(|v| (k, **v)))),
            })
            .collect()
    }

    fn changes(old: &SharedMap<u16, Arc<u32>>, new: &SharedMap<u16, Arc<u32>>) -> Vec<Change> {
        let mut out = Vec::new();
        old.for_each_changed(new, |a, b| {
            out.push((a.map(|(k, v)| (*k, *v)), b.map(|(k, v)| (*k, *v))))
        });
        out
    }

    #[derive(Debug, Clone)]
    enum SeqOp {
        Push(u16),
        Retain(u16),
        Clone,
    }

    /// Pushes eight times as often as retains and clones.
    fn seq_op() -> impl Strategy<Value = SeqOp> {
        (0u8..10, any::<u16>()).prop_map(|(tag, v)| match tag {
            0..=7 => SeqOp::Push(v),
            8 => SeqOp::Retain(2 + v % 7),
            _ => SeqOp::Clone,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random edits agree with `BTreeMap` step for step; a clone
        /// taken partway never changes, and diffing it against the live
        /// map reports exactly the entries that are not shared.
        #[test]
        fn map_matches_btreemap(ops in proptest::collection::vec(map_op(), 1..900)) {
            let mut map: SharedMap<u16, Arc<u32>> = SharedMap::new();
            let mut reference: BTreeMap<u16, Arc<u32>> = BTreeMap::new();
            let mut clones = Vec::new();
            for op in ops {
                match op {
                    MapOp::Insert(k, v) => {
                        let value = Arc::new(v);
                        prop_assert_eq!(
                            map.insert(k, Arc::clone(&value)),
                            reference.insert(k, value)
                        );
                    }
                    MapOp::Remove(k) => prop_assert_eq!(map.remove(&k), reference.remove(&k)),
                    MapOp::RemoveRun(a, b) => {
                        for k in a..b {
                            prop_assert_eq!(map.remove(&k), reference.remove(&k));
                        }
                    }
                    MapOp::RangeFrom(a) => {
                        prop_assert!(map.range_from(&a).eq(reference.range(a..)));
                    }
                    MapOp::Get(k) => {
                        prop_assert_eq!(map.get(&k), reference.get(&k));
                        prop_assert_eq!(map.contains_key(&k), reference.contains_key(&k));
                        if let Some(v) = map.get_mut(&k) {
                            *v = Arc::new(**v ^ 1);
                            let updated = Arc::clone(v);
                            reference.insert(k, updated);
                        }
                    }
                    MapOp::Clone => clones.push((map.clone(), reference.clone())),
                }
                map.check();
                prop_assert_eq!(map.len(), reference.len());
                prop_assert!(map.iter().eq(reference.iter()));
            }
            prop_assert_eq!(format!("{map:?}"), format!("{reference:?}"));
            prop_assert_eq!(format!("{map:#?}"), format!("{reference:#?}"));
            let collected: SharedMap<u16, Arc<u32>> = reference.clone().into_iter().rev().collect();
            collected.check();
            prop_assert!(collected == map);
            for (clone, frozen) in &clones {
                clone.check();
                prop_assert!(clone.iter().eq(frozen.iter()), "a clone changed");
                prop_assert_eq!(changes(clone, &map), reference_changes(frozen, &reference));
                prop_assert_eq!(changes(&map, clone), reference_changes(&reference, frozen));
            }
        }

        /// Random pushes and retains agree with `Vec`; a clone taken
        /// partway never changes.
        #[test]
        fn vec_matches_vec(ops in proptest::collection::vec(seq_op(), 1..900)) {
            let mut seq: SharedVec<u16> = SharedVec::new();
            let mut reference: Vec<u16> = Vec::new();
            let mut clones: Vec<(SharedVec<u16>, Vec<u16>)> = Vec::new();
            for op in ops {
                match op {
                    SeqOp::Push(v) => {
                        seq.push(v);
                        reference.push(v);
                    }
                    SeqOp::Retain(m) => {
                        // Odd `m` drops a few items, even `m` most.
                        let keep = |v: &u16| v.is_multiple_of(m) == m.is_multiple_of(2);
                        let mut seen = Vec::new();
                        seq.retain(|v| {
                            seen.push(*v);
                            keep(v)
                        });
                        prop_assert_eq!(&seen, &reference);
                        reference.retain(keep);
                    }
                    SeqOp::Clone => clones.push((seq.clone(), reference.clone())),
                }
                seq.leaves.check_layout();
                prop_assert!(seq == reference);
            }
            prop_assert_eq!(format!("{seq:?}"), format!("{reference:?}"));
            let rebuilt = SharedVec::from(reference.clone());
            prop_assert!(rebuilt == seq);
            for (clone, frozen) in &clones {
                prop_assert!(*clone == *frozen, "a clone changed");
            }
        }
    }

    #[test]
    fn serialized_like_btreemap_and_vec() {
        let reference: BTreeMap<String, Vec<u32>> =
            (0..200).map(|i| (format!("k{i}"), vec![i, i + 1])).collect();
        let map: SharedMap<String, Vec<u32>> = reference.clone().into();
        assert_eq!(
            serde_json::to_string(&map).unwrap(),
            serde_json::to_string(&reference).unwrap()
        );
        let pretty = |v: &dyn Fn(&mut Serializer<'_>)| {
            let mut out = String::new();
            v(&mut Serializer::pretty(&mut out));
            out
        };
        assert_eq!(pretty(&|s| map.serialize(s)), pretty(&|s| reference.serialize(s)));
        let items: Vec<String> = reference.keys().cloned().collect();
        let seq = SharedVec::from(items.clone());
        assert_eq!(serde_json::to_string(&seq).unwrap(), serde_json::to_string(&items).unwrap());
        assert_eq!(serde_json::to_string(&SharedVec::<u8>::new()).unwrap(), "[]");
        assert_eq!(serde_json::to_string(&SharedMap::<String, u8>::new()).unwrap(), "{}");
    }

    #[test]
    fn sparse_leaves_compact_and_clones_keep_their_own() {
        // 4,000 in-order keys fill 63 leaves; removing nine in ten leaves
        // them under a quarter full, so they compact.
        let mut map: SharedMap<u32, Arc<u32>> = SharedMap::new();
        let mut reference = BTreeMap::new();
        for k in 0..4_000 {
            map.insert(k, Arc::new(k));
            reference.insert(k, Arc::new(k));
        }
        let (before, frozen) = (map.clone(), reference.clone());
        for k in (0..4_000).filter(|k| k % 10 != 0) {
            assert_eq!(map.remove(&k), reference.remove(&k));
        }
        map.check();
        let leaves = map.leaves().count();
        assert!(leaves < 30 && leaves <= 4 + 4 * map.len() / LEAF_MAX, "{leaves} leaves");
        assert!(map.iter().eq(reference.iter()));
        // Keys route by the merged leaves' separators from then on.
        for k in (0..4_500).step_by(7) {
            assert_eq!(map.insert(k, Arc::new(k + 1)), reference.insert(k, Arc::new(k + 1)));
        }
        map.check();
        assert!(map.iter().eq(reference.iter()));
        before.check();
        assert!(before.iter().eq(frozen.iter()), "a clone changed");

        let seq: SharedVec<u32> = (0..4_000).collect();
        let mut thinned = seq.clone();
        thinned.retain(|v| v % 10 == 0);
        thinned.leaves.check_layout();
        let leaves = thinned.leaves().count();
        assert!(leaves < 30 && leaves <= 4 + 4 * thinned.len() / LEAF_MAX, "{leaves} leaves");
        assert!(thinned == (0..4_000).step_by(10).collect::<Vec<u32>>());
        assert!(seq == (0..4_000).collect::<Vec<u32>>(), "a clone changed");
    }

    #[test]
    fn an_edit_copies_only_the_leaves_it_touches() {
        let mut published: SharedMap<u32, Arc<u32>> = SharedMap::new();
        for i in 0..1_000 {
            published.insert(i, Arc::new(i));
        }
        // In-order inserts fill every leaf but the last.
        published.check();
        let sizes: Vec<usize> = published.leaves().map(<[_]>::len).collect();
        assert_eq!(sizes, [[LEAF_MAX; 15].as_slice(), &[1_000 - 15 * LEAF_MAX]].concat());
        let copied = |a: &SharedMap<u32, Arc<u32>>, b: &SharedMap<u32, Arc<u32>>| {
            b.leaves().filter(|l| !a.leaves().any(|p| p.as_ptr() == l.as_ptr())).count()
        };
        // Remove a run of keys and insert them again: the run's leaves
        // keep their separators, so no neighbour is touched.
        let mut next = published.clone();
        for k in 300..420 {
            next.remove(&k);
        }
        for k in 300..420 {
            next.insert(k, Arc::new(k + 1));
        }
        let run_leaves =
            published.leaves().filter(|l| l.iter().any(|(k, _)| (300..420).contains(k)));
        assert_eq!(copied(&published, &next), run_leaves.count());
        let mut changed = 0;
        published.for_each_changed(&next, |_, _| changed += 1);
        assert_eq!(changed, 120);
        // A sequence push copies the last leaf only.
        let order: SharedVec<u32> = (0..1_000).collect();
        let mut pushed = order.clone();
        pushed.push(7);
        let shared = pushed.leaves().filter(|l| order.leaves().any(|p| p.as_ptr() == l.as_ptr()));
        assert_eq!(shared.count(), order.leaves().count() - 1);
    }
}
