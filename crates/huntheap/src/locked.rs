//! A `std::collections::BinaryHeap` under one mutex — the trivial
//! coarse-grained heap baseline, timed as perfbench's layer-ladder rung
//! `ladder.locked_heap_ns`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use parking_lot::Mutex;
use skipqueue::PriorityQueue;

/// One big lock around a sequential binary min-heap.
#[derive(Debug)]
pub struct LockedBinaryHeap<K, V> {
    inner: Mutex<BinaryHeap<Reverse<Entry<K, V>>>>,
}

#[derive(Debug)]
struct Entry<K, V>(K, u64, V);

impl<K: Ord, V> PartialEq for Entry<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0 && self.1 == other.1
    }
}
impl<K: Ord, V> Eq for Entry<K, V> {}
impl<K: Ord, V> PartialOrd for Entry<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, V> Ord for Entry<K, V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

impl<K: Ord, V> Default for LockedBinaryHeap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, V> LockedBinaryHeap<K, V> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(BinaryHeap::new()),
        }
    }
}

impl<K: Ord + Send, V: Send> PriorityQueue<K, V> for LockedBinaryHeap<K, V> {
    fn insert(&self, key: K, value: V) {
        let mut h = self.inner.lock();
        let seq = h.len() as u64; // not FIFO-exact under deletes; fine for a strawman
        h.push(Reverse(Entry(key, seq, value)));
    }

    fn delete_min(&self) -> Option<(K, V)> {
        self.inner
            .lock()
            .pop()
            .map(|Reverse(Entry(k, _, v))| (k, v))
    }

    fn len(&self) -> usize {
        self.inner.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ordering() {
        let q = LockedBinaryHeap::new();
        for k in [3u64, 1, 2] {
            q.insert(k, k);
        }
        assert_eq!(q.delete_min(), Some((1, 1)));
        assert_eq!(q.delete_min(), Some((2, 2)));
        assert_eq!(q.delete_min(), Some((3, 3)));
        assert_eq!(q.delete_min(), None);
    }

    #[test]
    fn concurrent_use() {
        let q = LockedBinaryHeap::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..500u64 {
                        q.insert(t * 500 + i, ());
                        if i % 2 == 1 {
                            q.delete_min();
                        }
                    }
                });
            }
        });
        assert_eq!(PriorityQueue::len(&q), 4 * 250);
    }
}
