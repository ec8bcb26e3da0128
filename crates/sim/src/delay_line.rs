//! A delay line: pending items ordered by `(time, seq)` outside the
//! event queue.
//!
//! Fixed-latency pipelines (the accelerator's 3.2 µs preprocess +
//! transfer window) release items in almost the order they entered:
//! each channel's completion times are non-decreasing, and channels
//! interleave only by a few entries. A [`DelayLine`] exploits that: an
//! insert scans back from the tail to its sorted position, which is
//! O(1) in practice, and the front is always the next item due. The run
//! loop merges the front key with the event queue by `(time, seq)`, the
//! sequence number reserved from that queue
//! ([`crate::EventQueue::reserve_seq`]) so ties fall in the exact order
//! a queued event would have taken.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Items sorted by `(time, seq)`; see the module docs.
#[derive(Clone, Debug)]
pub struct DelayLine<T> {
    items: VecDeque<(SimTime, u64, T)>,
    hwm: usize,
}

impl<T> DelayLine<T> {
    /// An empty line with room for `capacity` items before it grows.
    pub fn with_capacity(capacity: usize) -> Self {
        DelayLine {
            items: VecDeque::with_capacity(capacity),
            hwm: 0,
        }
    }

    /// Inserts `item` due at `time`. `seq` breaks ties and must be
    /// unique; callers pass a number reserved from the event queue, so
    /// it exceeds every earlier one and equal-time items stay FIFO.
    pub fn push(&mut self, time: SimTime, seq: u64, item: T) {
        let key = (time, seq);
        let mut i = self.items.len();
        while i > 0 {
            let (t, s, _) = &self.items[i - 1];
            if (*t, *s) <= key {
                break;
            }
            i -= 1;
        }
        if i == self.items.len() {
            self.items.push_back((time, seq, item));
        } else {
            self.items.insert(i, (time, seq, item));
        }
        self.hwm = self.hwm.max(self.items.len());
    }

    /// `(time, seq)` of the next item due, if any.
    #[inline]
    pub fn front_key(&self) -> Option<(SimTime, u64)> {
        self.items.front().map(|&(t, s, _)| (t, s))
    }

    /// Removes and returns the next item due with its key.
    #[inline]
    pub fn pop_front(&mut self) -> Option<(SimTime, u64, T)> {
        self.items.pop_front()
    }

    /// Items pending.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Deepest the line has ever been, surviving [`DelayLine::compact`].
    pub fn high_watermark(&self) -> usize {
        self.hwm
    }

    /// Bytes held by the backing store.
    pub fn resident_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<(SimTime, u64, T)>()
    }

    /// Releases backing storage beyond the current occupancy.
    pub fn compact(&mut self) {
        self.items.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn in_order_inserts_append() {
        let mut d = DelayLine::with_capacity(4);
        for (i, ns) in [10, 20, 20, 30].into_iter().enumerate() {
            d.push(t(ns), i as u64, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| d.pop_front()).map(|e| e.2).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn late_insert_lands_in_sorted_position() {
        let mut d = DelayLine::with_capacity(0);
        d.push(t(50), 0, 'a');
        d.push(t(70), 1, 'b');
        d.push(t(60), 2, 'c');
        d.push(t(50), 3, 'd');
        assert_eq!(d.front_key(), Some((t(50), 0)));
        let order: String = std::iter::from_fn(|| d.pop_front()).map(|e| e.2).collect();
        assert_eq!(order, "adcb");
        assert_eq!(d.high_watermark(), 4);
    }

    #[test]
    fn compact_keeps_contents_and_watermark() {
        let mut d = DelayLine::with_capacity(64);
        d.push(t(1), 0, 7u64);
        let before = d.resident_bytes();
        d.compact();
        assert!(d.resident_bytes() < before);
        assert_eq!(d.pop_front(), Some((t(1), 0, 7)));
        assert_eq!(d.high_watermark(), 1);
    }
}
