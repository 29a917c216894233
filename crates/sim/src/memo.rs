//! A memo keyed by allocation.
//!
//! Images travel through the simulator and the serving layer as shared
//! `Arc<Vec<u8>>` buffers: the VFS hands out clones of the `Arc` it
//! stores, sessions stage clones, bundles carry clones. A pure function of
//! the bytes (their content key, their parsed loader metadata) can
//! therefore be remembered per *allocation*, and a hit costs one map
//! lookup instead of a pass over the image. The same table keys a site's
//! loader walks by their root's parsed metadata, there holding a small
//! list per root, read and updated in place.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, Weak};

/// Dead entries are purged when the table reaches this many entries, or
/// twice its live size at the last purge, whichever is larger.
const MIN_PURGE_AT: usize = 1024;

/// Answers of a pure function of `T`, remembered per live allocation.
///
/// Sound under address reuse: each entry holds a `Weak` to the allocation
/// it was computed from, and a `Weak` keeps that allocation's address
/// reserved until the entry goes. So while an entry lives, no other `Arc`
/// can sit at its address, and an `Arc` found at an entry's address is
/// the one the answer was computed from. Mutation cannot slip past
/// either: `Arc::get_mut` refuses while a weak exists and `Arc::make_mut`
/// moves the value to a new allocation.
pub struct AllocMemo<T, V> {
    table: Mutex<Table<T, V>>,
}

struct Table<T, V> {
    entries: BTreeMap<usize, (Weak<T>, V)>,
    purge_at: usize,
}

impl<T, V> AllocMemo<T, V> {
    /// An empty memo (usable in a `static`).
    pub const fn new() -> Self {
        AllocMemo {
            table: Mutex::new(Table {
                entries: BTreeMap::new(),
                purge_at: MIN_PURGE_AT,
            }),
        }
    }

    /// What `read` makes of the value held for `of`, when one is held.
    pub(crate) fn read<R>(&self, of: &Arc<T>, read: impl FnOnce(&V) -> Option<R>) -> Option<R> {
        let t = self.lock();
        let (_, v) = t.entries.get(&(Arc::as_ptr(of) as usize))?;
        read(v)
    }

    /// Runs `update` on the value held for `of`, holding `V::default()`
    /// for it first when none is held. `update` runs under the lock, so it
    /// must leave the value whole at every step.
    pub(crate) fn update<R>(&self, of: &Arc<T>, update: impl FnOnce(&mut V) -> R) -> R
    where
        V: Default,
    {
        let addr = Arc::as_ptr(of) as usize;
        let mut t = self.lock();
        if !t.entries.contains_key(&addr) {
            t.insert(of, V::default());
        }
        let (_, v) = t.entries.get_mut(&addr).expect("held or just inserted");
        update(v)
    }

    /// Allocations held, live or dead.
    pub(crate) fn len(&self) -> usize {
        self.lock().entries.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Table<T, V>> {
        // A panic inside `compute` runs outside the lock, and `update`
        // keeps the value whole, so a poisoned table still holds only
        // complete entries.
        self.table.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T, V: Clone> AllocMemo<T, V> {
    /// The memoized answer for `of`, computing it with `compute` (outside
    /// the lock) on the first call for this allocation.
    pub fn get_or_insert_with(&self, of: &Arc<T>, compute: impl FnOnce(&T) -> V) -> V {
        if let Some(v) = self.read(of, |v| Some(v.clone())) {
            return v;
        }
        let v = compute(of);
        self.lock().insert(of, v.clone());
        v
    }
}

impl<T, V> Table<T, V> {
    /// Hold `v` for `of`, first purging dead entries when the table has
    /// grown to the mark.
    fn insert(&mut self, of: &Arc<T>, v: V) {
        if self.entries.len() >= self.purge_at {
            self.entries.retain(|_, (weak, _)| weak.strong_count() > 0);
            self.purge_at = MIN_PURGE_AT.max(2 * self.entries.len());
        }
        self.entries
            .insert(Arc::as_ptr(of) as usize, (Arc::downgrade(of), v));
    }
}

impl<T, V> Default for AllocMemo<T, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_a_live_allocation_and_recomputes_a_new_one() {
        let memo: AllocMemo<Vec<u8>, usize> = AllocMemo::new();
        let a = Arc::new(vec![1u8, 2, 3]);
        assert_eq!(memo.get_or_insert_with(&a, |b| b.len()), 3);
        assert_eq!(memo.get_or_insert_with(&a, |_| 99), 3, "second call hits");
        assert_eq!(
            memo.get_or_insert_with(&a.clone(), |_| 99),
            3,
            "clones share"
        );
        drop(a);
        // Whatever address a new buffer gets, its answer is its own.
        for n in 0..64usize {
            let b = Arc::new(vec![0u8; n]);
            assert_eq!(memo.get_or_insert_with(&b, |b| b.len()), n);
        }
    }

    #[test]
    fn dead_entries_are_purged() {
        let memo: AllocMemo<Vec<u8>, usize> = AllocMemo::new();
        let keep = Arc::new(vec![7u8]);
        memo.get_or_insert_with(&keep, |b| b.len());
        let doomed: Vec<_> = (1..MIN_PURGE_AT).map(|_| Arc::new(vec![0u8; 4])).collect();
        for b in &doomed {
            memo.get_or_insert_with(b, |b| b.len());
        }
        assert_eq!(memo.len(), MIN_PURGE_AT, "no purge below the mark");
        drop(doomed);
        // The weaks keep the dead buffers' addresses until the purge.
        let fresh = Arc::new(vec![0u8; 2]);
        assert_eq!(memo.get_or_insert_with(&fresh, |b| b.len()), 2);
        assert_eq!(memo.len(), 2, "the dead entries went at the insert");
        assert_eq!(memo.get_or_insert_with(&keep, |_| 99), 1, "live entry kept");
    }
}
