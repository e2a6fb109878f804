//! The bounded ring behind the trace, the probe samples and the flight
//! recorder.

/// Keeps the most recent `capacity` entries of a stream: a push into a
/// full ring evicts the oldest entry and counts it; iteration runs oldest
/// first.
#[derive(Debug)]
pub struct Ring<T> {
    buf: Vec<T>,
    capacity: usize,
    /// Index of the oldest entry once the ring is full (the slot the
    /// next push overwrites); zero until then.
    head: usize,
    evicted: u64,
}

impl<T> Ring<T> {
    /// A ring holding at most `capacity` entries (storage grows on
    /// demand from at most 4096).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer needs capacity");
        Ring {
            buf: Vec::with_capacity(capacity.min(4096)),
            capacity,
            head: 0,
            evicted: 0,
        }
    }

    /// Appends `item`, evicting the oldest entry if the ring is full.
    pub fn push(&mut self, item: T) {
        if self.buf.len() < self.capacity {
            self.buf.push(item);
            return;
        }
        self.buf[self.head] = item;
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
        }
        self.evicted += 1;
    }

    /// The retained entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (newer, older) = self.buf.split_at(self.head);
        older.iter().chain(newer)
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries evicted so far.
    pub fn dropped(&self) -> u64 {
        self.evicted
    }

    /// Heap bytes held by the ring's storage.
    pub fn memory_bytes(&self) -> usize {
        self.buf.capacity() * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(capacity: usize, n: u64) -> Ring<u64> {
        let mut r = Ring::new(capacity);
        for i in 0..n {
            r.push(i);
        }
        r
    }

    fn items(r: &Ring<u64>) -> Vec<u64> {
        r.iter().copied().collect()
    }

    #[test]
    fn wraps_and_counts_evictions() {
        // Exactly full: nothing evicted yet.
        let r = filled(4, 4);
        assert_eq!((r.len(), r.dropped()), (4, 0));
        // Every push past capacity evicts exactly the oldest entry, across
        // several wraps and at every head position.
        for n in 5..40 {
            let r = filled(4, n);
            assert_eq!(r.len(), 4);
            assert_eq!(r.dropped(), n - 4);
            assert_eq!(items(&r), (n - 4..n).collect::<Vec<_>>());
        }
        // A capacity that is not a power of two wraps the same way.
        let r = filled(5, 13);
        assert_eq!(r.capacity(), 5);
        assert_eq!(items(&r), vec![8, 9, 10, 11, 12]);
        assert_eq!(r.dropped(), 8);
    }

    #[test]
    fn partial_ring_iterates_in_order() {
        let r = filled(8, 3);
        assert_eq!(items(&r), vec![0, 1, 2]);
        assert_eq!((r.len(), r.dropped()), (3, 0));
        assert!(!r.is_empty());
        assert!(Ring::<u64>::new(8).is_empty());
    }

    #[test]
    fn capacity_one_keeps_only_newest() {
        let r = filled(1, 2);
        assert_eq!(items(&r), vec![1]);
        assert_eq!(r.dropped(), 1);
        let r = filled(1, 9);
        assert_eq!(items(&r), vec![8]);
        assert_eq!(r.dropped(), 8);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        Ring::<u64>::new(0);
    }
}
