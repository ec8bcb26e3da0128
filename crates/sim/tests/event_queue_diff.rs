//! Randomized differential tests of [`EventQueue`] against a spec
//! model.
//!
//! The model ([`SpecQueue`]) is a sorted map in `(time, seq)` order
//! with the documented sweep points (on `cancel` and after `pop`, the
//! leading cancelled run is discarded). The queue must agree with it on
//! pop order and payload, batch drains, `len`, `peek_time`, `is_empty`,
//! and `cancel`'s return value (including stale tokens after slot
//! reuse).
//!
//! `cancelled_backlog` is checked only for what the overflow heap
//! leaves behind: the wheel removes cancelled entries eagerly
//! everywhere else, so its backlog may count only cancelled entries far
//! enough ahead of `now` to still be parked in overflow — and must be
//! zero once the queue is drained.

use std::collections::{BTreeMap, BTreeSet};

use taichi_sim::{EventQueue, EventToken, Rng, SimDuration, SimTime};

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Live,
    Cancelled,
}

/// An entry still parked in the overflow heap lies more than 255
/// level-1 buckets of 2^17 ns (~33.4 ms) past `now`: the level-1
/// horizon is 255 buckets beyond the level-0 window end, which is
/// always ahead of `now`. Cancels nearer than that are eager.
const OVERFLOW_FLOOR_NS: u64 = 255 << 17;

/// Specification model: entries sorted by `(time, seq)`, never a
/// cancelled entry at the front (the sweep invariant).
struct SpecQueue {
    entries: BTreeMap<(SimTime, u64), (u64, State)>,
    /// Keys of the cancelled entries still in `entries`.
    cancelled: BTreeSet<(SimTime, u64)>,
    /// Deadline of every entry ever scheduled, indexed by seq.
    times: Vec<SimTime>,
    live: usize,
    now: SimTime,
}

impl SpecQueue {
    fn new() -> Self {
        SpecQueue {
            entries: BTreeMap::new(),
            cancelled: BTreeSet::new(),
            times: Vec::new(),
            live: 0,
            now: SimTime::ZERO,
        }
    }

    /// Returns the model-side id of the new entry (its seq).
    fn schedule(&mut self, time: SimTime, payload: u64) -> u64 {
        let time = time.max(self.now);
        let seq = self.times.len() as u64;
        self.times.push(time);
        self.entries.insert((time, seq), (payload, State::Live));
        self.live += 1;
        seq
    }

    /// Cancels by model id; true iff the entry is still present and
    /// live (a stale or repeated cancel records nothing).
    fn cancel(&mut self, id: u64) -> bool {
        let key = (self.times[id as usize], id);
        let Some(e) = self.entries.get_mut(&key) else {
            return false;
        };
        if e.1 == State::Cancelled {
            return false;
        }
        e.1 = State::Cancelled;
        self.live -= 1;
        self.cancelled.insert(key);
        self.sweep_front();
        true
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        // The front is live by the sweep invariant.
        let ((time, _), (payload, state)) = self.entries.pop_first()?;
        assert!(state == State::Live, "sweep invariant violated in spec");
        self.live -= 1;
        self.now = time;
        self.sweep_front();
        Some((time, payload))
    }

    /// Every live entry at the earliest pending time, if that time is
    /// `<= limit`, as `(seq, payload)`; otherwise `Err(front)`.
    fn drain_next_batch(
        &mut self,
        limit: SimTime,
        out: &mut Vec<(u64, u64)>,
    ) -> Result<SimTime, SimTime> {
        let at = self.peek_time().unwrap_or(SimTime::MAX);
        if self.entries.is_empty() || at > limit {
            return Err(at);
        }
        self.now = at;
        while let Some(e) = self.entries.first_entry() {
            if e.key().0 != at {
                break;
            }
            let ((_, seq), (payload, state)) = e.remove_entry();
            match state {
                State::Live => {
                    self.live -= 1;
                    out.push((seq, payload));
                }
                State::Cancelled => {
                    self.cancelled.remove(&(at, seq));
                }
            }
        }
        self.sweep_front();
        Ok(at)
    }

    fn sweep_front(&mut self) {
        while let Some(e) = self.entries.first_entry() {
            if e.get().1 == State::Live {
                break;
            }
            self.cancelled.remove(e.key());
            e.remove();
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    /// Cancelled entries the overflow heap may still hold: those past
    /// [`OVERFLOW_FLOOR_NS`] from `now`.
    fn overflow_backlog_bound(&self) -> usize {
        let floor = self.now + SimDuration::from_nanos(OVERFLOW_FLOOR_NS);
        self.cancelled.range((floor, 0)..).count()
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.entries.first_key_value().map(|(k, _)| k.0)
    }
}

fn check_invariants(q: &EventQueue<u64>, spec: &SpecQueue, step: usize) {
    assert_eq!(q.len(), spec.len(), "len diverged at step {step}");
    assert_eq!(q.now(), spec.now, "now diverged at step {step}");
    assert!(
        q.cancelled_backlog() <= spec.overflow_backlog_bound(),
        "cancelled entries left outside the overflow heap at step {step}: \
         backlog {} > bound {}",
        q.cancelled_backlog(),
        spec.overflow_backlog_bound()
    );
    assert_eq!(
        q.peek_time(),
        spec.peek_time(),
        "peek_time diverged at step {step}"
    );
    assert_eq!(
        q.is_empty(),
        spec.len() == 0,
        "is_empty diverged at step {step}"
    );
}

/// Pops both sides to empty, checking every step, and requires the
/// queue to end fully swept.
fn drain_and_check(q: &mut EventQueue<u64>, spec: &mut SpecQueue, mut step: usize) -> usize {
    let mut drained = 0usize;
    loop {
        let a = q.pop();
        let b = spec.pop();
        assert_eq!(a, b, "pop diverged during drain after {drained} pops");
        if a.is_none() {
            break;
        }
        drained += 1;
        step += 1;
        check_invariants(q, spec, step);
    }
    assert!(q.is_empty());
    assert_eq!(
        q.cancelled_backlog(),
        0,
        "leaked cancelled slots after full drain"
    );
    drained
}

fn run_differential(seed: u64, ops: usize) {
    let mut rng = Rng::new(seed);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut spec = SpecQueue::new();
    // All tokens ever issued (live, fired, swept, recycled slots) —
    // cancelling old ones exercises generation staleness after reuse.
    let mut tokens: Vec<(EventToken, u64)> = Vec::new();
    let mut next_payload = 0u64;

    let mut recent_times: Vec<SimTime> = Vec::new();

    for step in 0..ops {
        match rng.next_below(4) {
            // Half the ops schedule, so the queue keeps growing and
            // slots recycle through the free list. A quarter of the
            // schedules reuse the exact deadline of a recent entry.
            0 | 1 => {
                let time = match recent_times.get(rng.next_below(4) as usize) {
                    Some(&t) if rng.next_below(4) == 0 && t >= q.now() => t,
                    _ => q.now() + SimDuration::from_nanos(rng.next_below(1_000)),
                };
                recent_times.push(time);
                if recent_times.len() > 16 {
                    recent_times.remove(0);
                }
                let payload = next_payload;
                next_payload += 1;
                let tok = q.schedule(time, payload);
                let id = spec.schedule(time, payload);
                tokens.push((tok, id));
            }
            2 if !tokens.is_empty() => {
                let i = rng.next_below(tokens.len() as u64) as usize;
                let (tok, id) = tokens[i];
                let a = q.cancel(tok);
                let b = spec.cancel(id);
                assert_eq!(a, b, "cancel return diverged at step {step}");
            }
            _ => {
                let a = q.pop();
                let b = spec.pop();
                assert_eq!(a, b, "pop diverged at step {step}");
            }
        }
        check_invariants(&q, &spec, step);
    }
    drain_and_check(&mut q, &mut spec, ops);
}

#[test]
fn event_queue_matches_spec_over_random_ops() {
    // 3 seeds x 12k ops (plus drains).
    for seed in [0x5EED_0001u64, 0x5EED_0002, 0x5EED_0003] {
        run_differential(seed, 12_000);
    }
}

#[test]
fn event_queue_matches_spec_under_heavy_cancellation() {
    // Skew towards cancels: schedule bursts, then cancel most of them
    // before popping, hammering the sweep + slot-recycling paths. Every
    // delta stays inside level 0, so every cancel is eager and the
    // backlog bound is zero throughout.
    let mut rng = Rng::new(0xCA7);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut spec = SpecQueue::new();
    let mut step = 0usize;
    for _round in 0..200 {
        let mut batch = Vec::new();
        for _ in 0..32 {
            let dt = SimDuration::from_nanos(rng.next_below(500));
            let time = q.now() + dt;
            let payload = rng.next_u64();
            batch.push((q.schedule(time, payload), spec.schedule(time, payload)));
            step += 1;
            check_invariants(&q, &spec, step);
        }
        for (tok, id) in batch {
            if rng.next_below(4) != 0 {
                assert_eq!(q.cancel(tok), spec.cancel(id), "cancel diverged");
                step += 1;
                check_invariants(&q, &spec, step);
            }
        }
        for _ in 0..8 {
            assert_eq!(q.pop(), spec.pop(), "pop diverged at step {step}");
            step += 1;
            check_invariants(&q, &spec, step);
        }
    }
}

/// Cancel storm concentrated on the wheel's *overflow-heap* region,
/// where cancellation is lazy (a flag plus a top sweep, unlike the
/// eager unlink inside the wheel levels). The heavy-cancellation test
/// above never leaves the first wheel level — its 500 ns deltas sit
/// five orders of magnitude short of the ~33.5 ms level-1 horizon —
/// so the lazy path's bookkeeping (slot retirement at promotion and
/// top-sweep) went entirely unexercised by it.
///
/// Well over half of the scheduled deltas here land beyond the
/// horizon; most entries get cancelled while still buried in the
/// overflow heap; pops force promotions across the boundary. The full
/// drain must end with zero backlog — a leaked overflow slot (a
/// cancelled entry whose slot is never retired) would hold the backlog
/// nonzero at the end.
#[test]
fn overflow_cancel_storm_retires_every_slot() {
    const HORIZON_NS: u64 = 33_500_000; // just under the level-1 span
    let mut rng = Rng::new(0x5702_0CA7);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut spec = SpecQueue::new();
    let mut tokens: Vec<(EventToken, u64)> = Vec::new();
    let mut next_payload = 0u64;
    let (mut far, mut total) = (0u64, 0u64);
    let mut step = 0usize;

    for _round in 0..300 {
        for _ in 0..16 {
            total += 1;
            let dt = if rng.next_below(10) < 7 {
                // Deep in the overflow region: 34 ms ..= 500 ms.
                far += 1;
                SimDuration::from_nanos(34_000_000 + rng.next_below(466_000_000))
            } else {
                // Inside the wheel levels, crossing both spans.
                SimDuration::from_nanos(rng.next_below(33_000_000))
            };
            let time = q.now() + dt;
            let payload = next_payload;
            next_payload += 1;
            tokens.push((q.schedule(time, payload), spec.schedule(time, payload)));
        }
        // The storm: cancel roughly 3/4 of everything outstanding,
        // including stale tokens of already-fired entries (their
        // cancel must report false on both sides).
        for &(tok, id) in &tokens {
            if rng.next_below(4) < 3 {
                assert_eq!(
                    q.cancel(tok),
                    spec.cancel(id),
                    "cancel return diverged at step {step}"
                );
                step += 1;
            }
        }
        check_invariants(&q, &spec, step);
        // A few pops advance time across the horizon, forcing
        // overflow promotion through cancelled runs.
        for _ in 0..6 {
            assert_eq!(q.pop(), spec.pop(), "pop diverged at step {step}");
            step += 1;
            check_invariants(&q, &spec, step);
        }
        // Keep the stale-token pool bounded (oldest first out);
        // enough survivors remain to exercise generation checks.
        if tokens.len() > 4096 {
            let excess = tokens.len() - 4096;
            tokens.drain(..excess);
        }
    }
    assert!(
        far * 2 > total,
        "storm drifted: only {far}/{total} deltas beyond the horizon"
    );
    assert!(
        far > 0 && 34_000_000 > HORIZON_NS,
        "constants drifted: far deltas must start past the horizon"
    );
    drain_and_check(&mut q, &mut spec, step);
}

/// Cold-start and sparse-occupancy differential for the fleet
/// footprint path: a wheel born with a 2-slot slab and *no*
/// materialized bucket-head chunks (`with_slots` — the fleet profile's
/// constructor) must stay observably identical to a fully prewarmed
/// wheel and to the spec model through:
///
/// - cold-start scheduling straight into absent chunks (the first
///   link must materialize exactly the right chunk, not disturb pop
///   order);
/// - sparse occupancy — event clusters separated by whole 64-bucket
///   chunk ranges, so most chunks stay absent while level hops cross
///   them;
/// - repeated [`EventQueue::compact`] calls at arbitrary moments
///   (live entries pending, sometimes mid-cluster), which release
///   empty chunks and truncate the slab: the generation floor must
///   keep every pre-compaction token dead, and regrowth must not
///   perturb ordering;
/// - stale-token cancels across compactions.
#[test]
fn cold_start_sparse_occupancy_matches_prewarmed_and_spec() {
    let mut rng = Rng::new(0xC01D_57A7);
    // The fleet-profile wheel: tiny slab, lazy chunks.
    let mut small: EventQueue<u64> = EventQueue::with_slots(2);
    // The hot-profile wheel: full slab, every chunk materialized.
    let mut warm: EventQueue<u64> = EventQueue::new();
    // The ordering reference.
    let mut spec = SpecQueue::new();
    let mut tokens: Vec<(EventToken, EventToken, u64)> = Vec::new();
    let mut next_payload = 0u64;
    let mut pops = 0usize;

    for step in 0..40_000usize {
        match rng.next_below(8) {
            0..=3 => {
                // Sparse clusters: a tight 1 us burst, based either
                // near now (level 0), a few ms out (level 1), or far
                // out (overflow) — chunk ranges between clusters stay
                // untouched.
                let base = match rng.next_below(8) {
                    0..=4 => rng.next_below(4) * 200_000,
                    5 | 6 => 2_000_000 + rng.next_below(3) * 5_000_000,
                    _ => 200_000_000,
                };
                let t = small.now() + SimDuration::from_nanos(base + rng.next_below(1_000));
                let payload = next_payload;
                next_payload += 1;
                tokens.push((
                    small.schedule(t, payload),
                    warm.schedule(t, payload),
                    spec.schedule(t, payload),
                ));
            }
            4 if !tokens.is_empty() => {
                // Cancels reach arbitrarily far back: post-compaction
                // tokens from truncated slots must report dead on the
                // small queue exactly when they do on the others.
                let i = rng.next_below(tokens.len() as u64) as usize;
                let (st, wt, id) = tokens[i];
                let a = small.cancel(st);
                assert_eq!(a, warm.cancel(wt), "small/warm cancel diverged at {step}");
                assert_eq!(a, spec.cancel(id), "small/spec cancel diverged at {step}");
            }
            5 => {
                // Compact the small queue mid-run (the fleet's
                // post-storm trigger fires with live entries pending)
                // — an observable no-op.
                small.compact();
            }
            _ => {
                let a = small.pop();
                assert_eq!(a, warm.pop(), "small/warm pop diverged at step {step}");
                assert_eq!(a, spec.pop(), "small/spec pop diverged at step {step}");
                pops += usize::from(a.is_some());
            }
        }
        check_invariants(&small, &spec, step);
        assert_eq!(warm.peek_time(), spec.peek_time());
    }

    // Full drain, then one more cold restart on the compacted queue.
    loop {
        let a = small.pop();
        assert_eq!(a, warm.pop(), "small/warm pop diverged during drain");
        assert_eq!(a, spec.pop(), "small/spec pop diverged during drain");
        if a.is_none() {
            break;
        }
        pops += 1;
    }
    assert!(pops > 5_000, "differential exercised too few pops: {pops}");
    small.compact();
    // Post-drain compaction truncates the whole slab; scheduling again
    // regrows from empty with the generation floor raised.
    for i in 0..100u64 {
        let t = small.now() + SimDuration::from_nanos(1 + i * 7);
        tokens.push((
            small.schedule(t, i),
            warm.schedule(t, i),
            spec.schedule(t, i),
        ));
    }
    loop {
        let a = small.pop();
        assert_eq!(a, warm.pop(), "regrown small/warm pop diverged");
        assert_eq!(a, spec.pop(), "regrown small/spec pop diverged");
        if a.is_none() {
            break;
        }
    }
    // Every token ever issued is now dead everywhere.
    for (st, wt, id) in tokens {
        assert!(!small.cancel(st), "stale token revived on small queue");
        assert!(!warm.cancel(wt));
        assert!(!spec.cancel(id));
    }
}

/// Draws a time delta that lands across all three wheel levels:
/// mostly dense near-future (level 0), a healthy share of level-1
/// distances, and an occasional far-future overflow entry — plus
/// exact-zero deltas to force same-timestamp FIFO runs.
fn mixed_delta(rng: &mut Rng) -> SimDuration {
    match rng.next_below(16) {
        // Same-instant burst: exercises per-timestamp FIFO.
        0 => SimDuration::ZERO,
        // Dense near-future timers (level 0: < 131 us).
        1..=9 => SimDuration::from_nanos(rng.next_below(100_000)),
        // Mid-range (level 1: up to ~33 ms).
        10..=13 => SimDuration::from_nanos(rng.next_below(30_000_000)),
        // Far future (overflow heap: up to 2 s).
        _ => SimDuration::from_nanos(rng.next_below(2_000_000_000)),
    }
}

/// ≥100k-op wheel-vs-spec differential: identical `(time, payload)`
/// pop sequences and batch drains under interleaved
/// push/cancel/advance, with deltas across all three wheel levels,
/// same-timestamp bursts, equal-deadline re-landings, long idle gaps
/// and stale-token cancels.
#[test]
fn wheel_matches_spec_over_mixed_ops() {
    const OPS: usize = 120_000;
    let mut rng = Rng::new(0xD1FF_5EED);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut spec = SpecQueue::new();
    let mut tokens: Vec<(EventToken, u64)> = Vec::new();
    let mut next_payload = 0u64;
    let mut pops = 0usize;
    let mut q_batch = Vec::new();
    let mut spec_batch = Vec::new();

    let mut recent_times: Vec<SimTime> = Vec::new();

    for step in 0..OPS {
        match rng.next_below(8) {
            0..=3 => {
                // Same-timestamp runs matter most: occasionally push a
                // small burst at one instant, or re-land on the exact
                // deadline of a recent pending entry.
                let burst = if rng.next_below(8) == 0 { 4 } else { 1 };
                let time = match recent_times.get(rng.next_below(8) as usize) {
                    Some(&t) if rng.next_below(3) == 0 && t >= q.now() => t,
                    _ => q.now() + mixed_delta(&mut rng),
                };
                recent_times.push(time);
                if recent_times.len() > 32 {
                    recent_times.remove(0);
                }
                for _ in 0..burst {
                    let payload = next_payload;
                    next_payload += 1;
                    tokens.push((q.schedule(time, payload), spec.schedule(time, payload)));
                }
            }
            4 if !tokens.is_empty() => {
                // Any token ever issued: live, cancelled, fired or
                // recycled.
                let i = rng.next_below(tokens.len() as u64) as usize;
                let (tok, id) = tokens[i];
                assert_eq!(
                    q.cancel(tok),
                    spec.cancel(id),
                    "cancel return diverged at step {step}"
                );
            }
            5 => {
                // Batch drain: the same same-timestamp run, in the
                // same order. One drain in four reaches seconds ahead
                // — a long idle gap that forces the wheel's bulk
                // advance to hop level-1 stretches (and whole wheel
                // spans) without touching the per-slot cursor.
                let reach = if rng.next_below(4) == 0 {
                    3_000_000_000
                } else {
                    40_000_000
                };
                let limit = q.now() + SimDuration::from_nanos(rng.next_below(reach));
                q_batch.clear();
                spec_batch.clear();
                let a = q.drain_next_batch(limit, &mut q_batch);
                let b = spec.drain_next_batch(limit, &mut spec_batch);
                assert_eq!(a, b, "batch timestamp or front diverged at step {step}");
                assert_eq!(q_batch, spec_batch, "batch diverged at step {step}");
                pops += q_batch.len();
            }
            _ => {
                let a = q.pop();
                assert_eq!(a, spec.pop(), "pop diverged at step {step}");
                pops += usize::from(a.is_some());
            }
        }
        check_invariants(&q, &spec, step);
    }
    pops += drain_and_check(&mut q, &mut spec, OPS);
    assert!(pops > 10_000, "differential exercised too few pops: {pops}");
}
