//! Randomized differential test of [`DelayLine`] against a
//! `BinaryHeap<Reverse<(time, seq)>>` reference.
//!
//! The driver mimics the accelerator's delivery pipeline: several
//! channels, each stamping non-decreasing completion times (so inserts
//! are near-monotone), occasional stalls that push one channel far
//! ahead (out-of-order inserts that scan back from the tail), a coarse
//! time grid that produces long equal-time runs, and pops interleaved
//! with the inserts as a clock advances. Every pop must match the
//! reference exactly — time, sequence number and payload — and so must
//! the front key and the length after every operation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use taichi_sim::{DelayLine, Rng, SimTime};

fn run(seed: u64, ops: usize) {
    let mut rng = Rng::new(seed);
    let channels = 1 + rng.next_below(8) as usize;
    // A coarse grid makes equal-time runs common.
    let grid = [1, 10, 100][rng.next_below(3) as usize];
    let mut line = DelayLine::with_capacity(rng.next_below(4) as usize);
    let mut reference: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
    let mut channel_free = vec![0u64; channels];
    let mut now = 0u64;
    let mut seq = 0u64;
    let mut max_len = 0;

    for op in 0..ops {
        if rng.chance(0.55) {
            // Insert: a fixed latency after the channel's next issue
            // slot, sometimes pushed back by a stall.
            let ch = rng.next_below(channels as u64) as usize;
            let mut start = now.max(channel_free[ch]);
            if rng.chance(0.05) {
                start += grid * (1 + rng.next_below(50));
            }
            channel_free[ch] = start + grid * rng.next_below(3);
            let due = SimTime::from_nanos(start + 32 * grid);
            let payload = op as u64;
            line.push(due, seq, payload);
            reference.push(Reverse((due, seq, payload)));
            seq += 1;
        } else {
            // Advance the clock and drain everything due by then.
            now += grid * rng.next_below(8);
            loop {
                let due = reference.peek().map(|Reverse((t, _, _))| t.as_nanos());
                match due {
                    Some(t) if t <= now => {
                        let Reverse(want) = reference.pop().expect("peeked");
                        assert_eq!(line.pop_front(), Some(want), "seed {seed} op {op}");
                    }
                    _ => break,
                }
            }
        }
        let want_front = reference.peek().map(|Reverse((t, s, _))| (*t, *s));
        assert_eq!(line.front_key(), want_front, "seed {seed} op {op}");
        assert_eq!(line.len(), reference.len(), "seed {seed} op {op}");
        max_len = max_len.max(reference.len());
        if op % 997 == 0 {
            line.compact(); // observably inert
        }
    }
    while let Some(Reverse(want)) = reference.pop() {
        assert_eq!(line.pop_front(), Some(want), "seed {seed} final drain");
    }
    assert!(line.is_empty());
    assert_eq!(line.high_watermark(), max_len, "seed {seed}");
}

#[test]
fn delay_line_matches_heap_reference() {
    for seed in 0..64 {
        run(seed, 4_000);
    }
}

#[test]
fn delay_line_long_run() {
    run(0xDE1A_7115, 200_000);
}
