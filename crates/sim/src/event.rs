//! Deterministic event queue.
//!
//! The queue orders events by `(time, sequence)` so that events scheduled
//! at the same instant fire in insertion order — a hard requirement for
//! reproducibility. [`EventQueue::schedule`] returns an [`EventToken`]
//! usable for cancellation.
//!
//! # Generation-stamped slots
//!
//! This is the simulator's hottest structure (every machine event goes
//! through one schedule and one pop), so the schedule/pop/cancel path
//! performs **zero hash lookups**. The queue keeps its entries in a
//! *slab*: each queued entry is stamped with a slot; the slot records a
//! generation counter, a cancelled bit, and owns the event payload (the
//! ordering structures only shuffle small fixed-size keys, however
//! large `E` is):
//!
//! - `schedule` takes a free slot (or grows the slab) and returns a
//!   token carrying `(slot, generation)`.
//! - `cancel` compares the token's generation against the slot: a match
//!   means the entry is still queued and it is cancelled; a mismatch
//!   means the event already fired (or was swept), so the cancel
//!   reports `false` and records nothing.
//! - popping bumps the slot generation when an entry leaves the queue
//!   (fired or swept), recycling the slot and invalidating any stale
//!   tokens.
//!
//! # Hierarchical timing wheel
//!
//! The scheduling core is a hierarchical timing wheel (calendar queue)
//! tuned for the simulator's actual event mix — dense, near-future
//! timers (softirq deadlines, probe windows, slice expiries, kernel
//! decision ticks):
//!
//! - **Level 0**: 2048 buckets of 64 ns ⇒ a 131 µs window, with an
//!   occupancy bitmap (one bit per bucket) so the scan jumps straight
//!   to the next non-empty bucket.
//! - **Level 1**: 256 buckets of 131 µs ⇒ ~33.6 ms of coverage beyond
//!   level 0. When the level-0 window advances into a level-1 bucket,
//!   its entries are redistributed into level-0 buckets.
//! - **Overflow**: everything beyond level 1 lands in a binary heap of
//!   keys, promoted into the wheel as the window advances. Far-future
//!   events are rare by construction, so the heap stays tiny.
//!
//! Bucket membership is stored as **intrusive singly-linked lists
//! threaded through the slab** (each slot carries its key and a `next`
//! link; a bucket is one `u32` head index). The wheel therefore owns
//! no per-bucket storage at all: once the slab's free list reaches its
//! working-set fixed point, schedule/pop/redistribute are strictly
//! allocation-free — the property the [`crate::alloc`] harness pins
//! down. A bucket holds the events of one 64 ns instant-range, which
//! in practice is zero or one entry (occasionally a same-timestamp
//! burst), so the per-bucket min-scan that restores exact `(time,
//! seq)` order is a walk over a handful of slots.
//!
//! Steady-state schedule/pop is O(1), and
//! [`EventQueue::drain_next_batch`] exposes the calendar structure to
//! drivers: one wheel access drains an entire same-timestamp burst.
//!
//! The slab records which bucket an entry lives in, so cancels inside
//! the two wheel levels remove the entry *eagerly*; only the overflow
//! heap cancels lazily (a flipped bit, discarded when the entry
//! surfaces or is promoted).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Opaque handle identifying a scheduled event, usable for cancellation.
///
/// Tokens are generation-stamped: once the event fires (or the cancel
/// is swept), the token goes stale and [`EventQueue::cancel`] on it is
/// a recorded-nothing no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EventToken {
    slot: u32,
    generation: u64,
}

/// An overflow-heap entry carries no payload — only the key and the
/// slot index. Payloads live in the slab and are written exactly once
/// on schedule and read exactly once on pop, however often heap sifts
/// move the entry.
#[derive(Clone, Copy)]
struct Entry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Entry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for min-heap behaviour on BinaryHeap (a max-heap).
        other.key().cmp(&self.key())
    }
}

/// Where an entry currently lives, recorded in its slab slot so cancels
/// can remove it eagerly without a search. Free slots hold `LOC_NONE`.
const LOC_NONE: u32 = u32::MAX;
/// The entry sits in the overflow heap (lazy cancellation).
const LOC_OVERFLOW: u32 = u32::MAX - 1;

/// Intrusive-list terminator.
const NIL: u32 = u32::MAX;

/// Default slab capacity reserved at construction, sized so the
/// in-flight high-water mark of a full machine (a few hundred events)
/// never forces a mid-run doubling. Fleet footprint profiles override
/// this via [`EventQueue::with_slots`].
pub const INITIAL_SLOTS: usize = 1024;

/// Per-slot bookkeeping. A slot is bound to exactly one queued entry at
/// a time; the generation distinguishes successive occupants. The slot
/// owns the entry's payload and carries the ordering key and the
/// intrusive bucket-list link, so the wheel needs no storage of its
/// own.
struct Slot<E> {
    generation: u64,
    cancelled: bool,
    /// `LOC_OVERFLOW`, a level-0 bucket index (`0..N0`), `N0 +` a
    /// level-1 bucket index, or `LOC_NONE` for free slots.
    loc: u32,
    /// Ordering key, valid while queued.
    time: SimTime,
    seq: u64,
    /// Next slot in the same bucket's intrusive list, or [`NIL`].
    next: u32,
    event: Option<E>,
}

// --------------------------------------------------------------------
// Timing-wheel geometry.
// --------------------------------------------------------------------

/// Level-0 bucket granularity: 2^6 = 64 ns.
const G0_BITS: u32 = 6;
/// Level-0 bucket count: 2^11 = 2048 buckets ⇒ 131.072 µs window.
const L0_BITS: u32 = 11;
const N0: usize = 1 << L0_BITS;
/// Level-1 bucket granularity = the whole level-0 span (2^17 ns).
const G1_BITS: u32 = G0_BITS + L0_BITS;
const G1: u64 = 1 << G1_BITS;
/// Level-1 bucket count: 2^8 = 256 ⇒ ~33.55 ms of coverage.
const L1_BITS: u32 = 8;
const N1: usize = 1 << L1_BITS;

const L0_WORDS: usize = N0 / 64;
const L1_WORDS: usize = N1 / 64;

/// Lazy bucket-head storage: one optional 64-head chunk per occupancy
/// bitmap word. A hot machine touches most of the calendar and ends up
/// with every chunk allocated (256 B each — the same memory the old
/// flat array held); a mostly-idle fleet machine whose events cluster
/// in a few 64-bucket ranges only materializes the chunks it links
/// into, so thousands of cold queues stop paying for 2048 + 256 eager
/// head words apiece. Chunk presence is pure storage: `get` answers
/// [`NIL`] for an absent chunk, which is exactly what the flat array
/// held for an empty bucket, so pop order and cancel results are
/// unaffected.
struct HeadTable<const WORDS: usize> {
    chunks: [Option<Box<[u32; 64]>>; WORDS],
}

impl<const WORDS: usize> HeadTable<WORDS> {
    fn new() -> Self {
        HeadTable {
            chunks: std::array::from_fn(|_| None),
        }
    }

    /// Head of bucket `b`, or [`NIL`] if the bucket (or its whole
    /// chunk) is empty.
    #[inline]
    fn get(&self, b: usize) -> u32 {
        match &self.chunks[b >> 6] {
            Some(c) => c[b & 63],
            None => NIL,
        }
    }

    /// Mutable head slot for bucket `b`, materializing its chunk.
    #[inline]
    fn slot_mut(&mut self, b: usize) -> &mut u32 {
        &mut self.chunks[b >> 6].get_or_insert_with(|| Box::new([NIL; 64]))[b & 63]
    }

    /// Reads and clears bucket `b`'s head without materializing an
    /// absent chunk.
    #[inline]
    fn take(&mut self, b: usize) -> u32 {
        match &mut self.chunks[b >> 6] {
            Some(c) => std::mem::replace(&mut c[b & 63], NIL),
            None => NIL,
        }
    }

    /// Materializes every chunk up front (hot-profile prewarm): the
    /// chunks hold only [`NIL`] heads, so nothing observable changes —
    /// the steady-state loop just never pays a mid-run chunk
    /// allocation.
    fn materialize_all(&mut self) {
        for chunk in &mut self.chunks {
            chunk.get_or_insert_with(|| Box::new([NIL; 64]));
        }
    }

    /// Releases chunks whose occupancy-bitmap word is zero (every head
    /// in them is provably [`NIL`]).
    fn release_empty(&mut self, mask: &[u64; WORDS]) {
        for (chunk, &word) in self.chunks.iter_mut().zip(mask.iter()) {
            if word == 0 {
                *chunk = None;
            }
        }
    }

    /// Resident bytes held by materialized chunks.
    fn resident_bytes(&self) -> usize {
        self.chunks.iter().flatten().count() * std::mem::size_of::<[u32; 64]>()
    }
}

/// The hierarchical wheel core. All invariants are phrased against
/// `l0_end`, the exclusive upper bound of level-0 coverage (always a
/// multiple of [`G1`]):
///
/// - every queued entry with `time < l0_end` is in a level-0 bucket,
///   and all level-0 times fall in `[l0_end - G1, l0_end)` (one 64 ns
///   instant-range per bucket — the bitmap scan order *is* the time
///   order);
/// - every entry with `l0_end <= time < h1` (where
///   `h1 = l0_end + (N1-1)·G1`) is in a level-1 bucket;
/// - everything at `time >= h1` is in the overflow heap, and `l0_end`
///   only moves forward, so overflow entries are promoted exactly once;
/// - no cancelled entry is ever linked into a level-0/level-1 bucket
///   (wheel cancellation is eager there).
struct Wheel {
    l0_head: HeadTable<L0_WORDS>,
    l0_mask: [u64; L0_WORDS],
    l0_count: usize,
    l1_head: HeadTable<L1_WORDS>,
    l1_mask: [u64; L1_WORDS],
    l1_count: usize,
    /// Exclusive upper bound of level-0 coverage (multiple of `G1`).
    l0_end: u64,
    overflow: BinaryHeap<Entry>,
}

impl Wheel {
    fn new() -> Box<Self> {
        Box::new(Wheel {
            l0_head: HeadTable::new(),
            l0_mask: [0; L0_WORDS],
            l0_count: 0,
            l1_head: HeadTable::new(),
            l1_mask: [0; L1_WORDS],
            l1_count: 0,
            l0_end: G1,
            overflow: BinaryHeap::new(),
        })
    }

    /// Exclusive upper bound of level-1 coverage.
    #[inline]
    fn h1(&self) -> u64 {
        self.l0_end + (N1 as u64 - 1) * G1
    }

    #[inline]
    fn l0_bucket(t: u64) -> usize {
        (t >> G0_BITS) as usize & (N0 - 1)
    }

    #[inline]
    fn l1_bucket(t: u64) -> usize {
        (t >> G1_BITS) as usize & (N1 - 1)
    }
}

/// Finds the first set bit at or after `start` (wrapping) in a bitmap.
#[inline]
fn find_set_from(mask: &[u64], start: usize) -> Option<usize> {
    let words = mask.len();
    let w = start / 64;
    let first = mask[w] & (!0u64 << (start % 64));
    if first != 0 {
        return Some(w * 64 + first.trailing_zeros() as usize);
    }
    for i in 1..=words {
        let wi = (w + i) % words;
        if mask[wi] != 0 {
            return Some(wi * 64 + mask[wi].trailing_zeros() as usize);
        }
    }
    None
}

#[inline]
fn set_bit(mask: &mut [u64], idx: usize) {
    mask[idx / 64] |= 1u64 << (idx % 64);
}

#[inline]
fn clear_bit(mask: &mut [u64], idx: usize) {
    mask[idx / 64] &= !(1u64 << (idx % 64));
}

// Intrusive bucket-list operations, threaded through the slab.

/// Prepends `slot` onto the level-0 bucket covering its time.
#[inline]
fn l0_link<E>(wheel: &mut Wheel, slots: &mut [Slot<E>], slot: u32) {
    let b = Wheel::l0_bucket(slots[slot as usize].time.as_nanos());
    let head = wheel.l0_head.slot_mut(b);
    slots[slot as usize].next = *head;
    slots[slot as usize].loc = b as u32;
    *head = slot;
    set_bit(&mut wheel.l0_mask, b);
    wheel.l0_count += 1;
}

/// Prepends `slot` onto the level-1 bucket covering its time.
#[inline]
fn l1_link<E>(wheel: &mut Wheel, slots: &mut [Slot<E>], slot: u32) {
    let b = Wheel::l1_bucket(slots[slot as usize].time.as_nanos());
    let head = wheel.l1_head.slot_mut(b);
    slots[slot as usize].next = *head;
    slots[slot as usize].loc = (N0 + b) as u32;
    *head = slot;
    set_bit(&mut wheel.l1_mask, b);
    wheel.l1_count += 1;
}

/// Finds the `(time, seq)`-minimum of a non-empty bucket list.
/// Returns `(prev_of_min, min)` where `prev_of_min` is [`NIL`] when
/// the minimum is the head. Buckets cover one 64 ns (level 0) or
/// 131 µs (level 1) range and typically hold a single entry, so this
/// walk is short by construction.
#[inline]
fn list_min<E>(slots: &[Slot<E>], head: u32) -> (u32, u32) {
    let mut best_prev = NIL;
    let mut best = head;
    let mut prev = head;
    let mut cur = slots[head as usize].next;
    while cur != NIL {
        let c = &slots[cur as usize];
        let b = &slots[best as usize];
        if (c.time, c.seq) < (b.time, b.seq) {
            best_prev = prev;
            best = cur;
        }
        prev = cur;
        cur = c.next;
    }
    (best_prev, best)
}

/// Unlinks `slot` (whose predecessor is `prev`, [`NIL`] for the head)
/// from the bucket list rooted at `head`.
#[inline]
fn list_unlink<E>(slots: &mut [Slot<E>], head: &mut u32, prev: u32, slot: u32) {
    if prev == NIL {
        debug_assert_eq!(*head, slot);
        *head = slots[slot as usize].next;
    } else {
        slots[prev as usize].next = slots[slot as usize].next;
    }
}

/// A time-ordered queue of events of type `E`.
pub struct EventQueue<E> {
    wheel: Box<Wheel>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    next_seq: u64,
    /// Pending (non-cancelled) events.
    live: usize,
    /// Cancelled entries still parked in the overflow heap.
    cancelled: usize,
    now: SimTime,
    /// Generation stamp for slots created by slab growth. Zero until
    /// [`EventQueue::compact`] truncates the slab: freshly regrown
    /// slots must start *above* every generation the truncated slots
    /// ever issued, or a stale token from before the compaction could
    /// alias a new occupant of the same index and cancel a live event.
    gen_floor: u64,
    /// Largest slab length ever reached, surviving compaction.
    slab_hwm: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    ///
    /// Reserves the full [`INITIAL_SLOTS`] slab: a realloc mid-run is
    /// a steady-state allocation the hot loop is audited against (see
    /// the zero_alloc test), and a transient burst that pushes the
    /// in-flight high-water mark past the previous power of two would
    /// reallocate long after warm-up. Reserving a generous slab up
    /// front moves that first-touch growth to construction; full
    /// machines peak at a few hundred in-flight events, so 1024 slots
    /// leave ample headroom without meaningful memory cost — *for one
    /// hot machine*. Fleet drivers standing up thousands of mostly-idle
    /// machines use [`EventQueue::with_slots`] with a small reservation
    /// instead and let the slab grow to each machine's actual working
    /// set.
    pub fn new() -> Self {
        let mut q = Self::with_slots(INITIAL_SLOTS);
        q.prewarm();
        q
    }

    /// Materializes every wheel bucket-head chunk up front so the
    /// steady-state loop never allocates one mid-run — the hot-profile
    /// companion to the eager [`INITIAL_SLOTS`] slab. Purely a storage
    /// decision: the chunks hold only empty (`NIL`) heads, identical to
    /// absent chunks.
    pub fn prewarm(&mut self) {
        self.wheel.l0_head.materialize_all();
        self.wheel.l1_head.materialize_all();
    }

    /// Creates an empty queue at time zero with an explicit initial
    /// slab reservation and no prewarmed bucket chunks. The slab still
    /// grows on demand — `initial_slots` only sets where growth starts,
    /// so every observable (pop order, cancel results, `peek_time`) is
    /// identical for any value.
    pub fn with_slots(initial_slots: usize) -> Self {
        EventQueue {
            wheel: Wheel::new(),
            slots: Vec::with_capacity(initial_slots),
            free: Vec::with_capacity(initial_slots),
            next_seq: 0,
            live: 0,
            cancelled: 0,
            now: SimTime::ZERO,
            gen_floor: 0,
            slab_hwm: 0,
        }
    }

    /// The time of the most recently popped event (simulation "now").
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Reserves the next sequence number for an event kept *outside*
    /// the queue (a delay line or a per-source slot) that a run loop
    /// merges with the queue by `(time, seq)`. Reserving at the program
    /// point where the event would otherwise have been scheduled keeps
    /// its place in the global tie order exactly.
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// The sequence number the next [`EventQueue::schedule`] or
    /// [`EventQueue::reserve_seq`] will take: every event keyed so far,
    /// queued or external, sorts below it.
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Scheduling in the past is a logic error and panics in debug
    /// builds; in release builds the event fires immediately (at `now`).
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventToken {
        debug_assert!(
            time >= self.now,
            "scheduled event in the past: {time:?} < now {:?}",
            self.now
        );
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                let sl = &mut self.slots[s as usize];
                sl.time = time;
                sl.seq = seq;
                sl.event = Some(event);
                s
            }
            None => {
                self.slots.push(Slot {
                    generation: self.gen_floor,
                    cancelled: false,
                    loc: LOC_NONE,
                    time,
                    seq,
                    next: NIL,
                    event: Some(event),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let generation = self.slots[slot as usize].generation;
        let wheel = &mut *self.wheel;
        let t = time.as_nanos();
        if t < wheel.l0_end {
            l0_link(wheel, &mut self.slots, slot);
        } else if t < wheel.h1() {
            l1_link(wheel, &mut self.slots, slot);
        } else {
            wheel.overflow.push(Entry { time, seq, slot });
            self.slots[slot as usize].loc = LOC_OVERFLOW;
        }
        self.live += 1;
        EventToken { slot, generation }
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the token had not already fired or been
    /// cancelled. Cancelling an already-fired token is a no-op (and
    /// records nothing: the slot generation moved on, so the stale
    /// token cannot leave residue).
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let Some(slot) = self.slots.get_mut(token.slot as usize) else {
            return false;
        };
        if slot.generation != token.generation || slot.cancelled {
            return false;
        }
        let loc = slot.loc;
        if loc == LOC_OVERFLOW {
            slot.cancelled = true;
            self.live -= 1;
            self.cancelled += 1;
            self.sweep_overflow_top();
            return true;
        }
        // The slab knows the bucket: remove eagerly so no cancelled
        // entry ever sits in the wheel proper. (`slot_mut` cannot
        // allocate here — the entry is linked into the bucket, so its
        // chunk exists.)
        let wheel = &mut *self.wheel;
        let (head, mask, count, b) = if (loc as usize) < N0 {
            let b = loc as usize;
            (
                wheel.l0_head.slot_mut(b),
                &mut wheel.l0_mask[..],
                &mut wheel.l0_count,
                b,
            )
        } else {
            let b = loc as usize - N0;
            (
                wheel.l1_head.slot_mut(b),
                &mut wheel.l1_mask[..],
                &mut wheel.l1_count,
                b,
            )
        };
        let mut prev = NIL;
        let mut cur = *head;
        while cur != token.slot {
            debug_assert_ne!(cur, NIL, "slab loc tracks the live bucket");
            prev = cur;
            cur = self.slots[cur as usize].next;
        }
        list_unlink(&mut self.slots, head, prev, token.slot);
        if *head == NIL {
            clear_bit(mask, b);
        }
        *count -= 1;
        self.live -= 1;
        self.free_slot(token.slot);
        // The removal may have emptied both wheel levels, promoting the
        // overflow top to global front: it must be live (`peek_time`
        // relies on it), and a cancelled entry parked there would hold
        // its slot until the next window advance.
        self.sweep_overflow_if_front();
        true
    }

    /// Pops the next non-cancelled event, advancing `now` to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (time, _, event) = self.pop_min(SimTime::MAX).ok()?;
        self.live -= 1;
        self.now = time;
        Some((time, event))
    }

    /// Drains **every** event at the earliest pending timestamp (if
    /// that timestamp is `<= limit`) into `out` as `(seq, event)` pairs
    /// in sequence order, returning `Ok(timestamp)` and advancing `now`
    /// to it. Events the handlers then schedule *at the same instant*
    /// are deliberately not included: they carry later sequence
    /// numbers, so they fire on the next call — exactly the order a
    /// peek/pop loop would produce. The sequence numbers let a run loop
    /// interleave the batch with events kept outside the queue (see
    /// [`EventQueue::reserve_seq`]).
    ///
    /// When nothing is due by `limit`, returns `Err(front)`: the
    /// earliest pending time the drain saw ([`SimTime::MAX`] when the
    /// queue is empty). Until the next `schedule`, no event fires
    /// before `front`, so a caller can keep it as a lower bound and
    /// skip the queue for anything earlier.
    ///
    /// A same-timestamp burst costs one bucket scan total instead of
    /// one per event.
    ///
    /// Entries appended to `out` leave the queue at drain time, so
    /// their tokens go stale immediately: a handler that cancels a
    /// token whose event sits later in the same batch gets the
    /// documented stale-token `false` (generation stamping makes this
    /// a recorded-nothing no-op), and the event still dispatches this
    /// batch. The machine driver's skip layer relies on exactly that
    /// contract when it cancels superseded timers.
    pub fn drain_next_batch(
        &mut self,
        limit: SimTime,
        out: &mut Vec<(u64, E)>,
    ) -> Result<SimTime, SimTime> {
        let (at, seq, event) = self.pop_min(limit)?;
        self.live -= 1;
        self.now = at;
        out.push((seq, event));
        // Same-timestamp events necessarily share the level-0 bucket:
        // drain them without rescanning the bitmap. While the bucket
        // minimum still fires at `at`, it is the next-in-seq event of
        // the batch.
        let b = Wheel::l0_bucket(at.as_nanos());
        loop {
            let head = self.wheel.l0_head.get(b);
            if head == NIL {
                break;
            }
            let (prev, min) = list_min(&self.slots, head);
            if self.slots[min as usize].time != at {
                break;
            }
            let entry = self.take_l0(b, prev, min);
            self.live -= 1;
            out.push(entry);
        }
        // Same front-is-live repair as `pop_min`: the batch may have
        // drained the last level entries.
        self.sweep_overflow_if_front();
        Ok(at)
    }

    /// Returns the time of the next pending event without popping it:
    /// a read-only bucket scan (no cancelled entry ever sits in the
    /// wheel levels, and the overflow top is kept live by the sweeps in
    /// `pop` and `cancel`).
    pub fn peek_time(&self) -> Option<SimTime> {
        let wheel = &*self.wheel;
        if wheel.l0_count > 0 {
            let start = Wheel::l0_bucket(self.now.as_nanos().max(wheel.l0_end - G1));
            let b = find_set_from(&wheel.l0_mask, start).expect("l0_count > 0");
            let (_, min) = list_min(&self.slots, wheel.l0_head.get(b));
            return Some(self.slots[min as usize].time);
        }
        if wheel.l1_count > 0 {
            // The global minimum is in the first occupied level-1
            // bucket in ring order from the window (bucket time-ranges
            // are monotone from there, and all overflow times are
            // larger still).
            let start = Wheel::l1_bucket(wheel.l0_end);
            let b = find_set_from(&wheel.l1_mask, start).expect("l1_count > 0");
            let (_, min) = list_min(&self.slots, wheel.l1_head.get(b));
            return Some(self.slots[min as usize].time);
        }
        debug_assert!(wheel
            .overflow
            .peek()
            .map(|e| !self.slots[e.slot as usize].cancelled)
            .unwrap_or(true));
        wheel.overflow.peek().map(|e| e.time)
    }

    /// Removes and returns `(time, seq, event)` of the minimum entry if
    /// its time is `<= limit`, advancing the level-0 window (draining
    /// level-1 buckets, promoting overflow entries) as needed.
    /// Advancing only happens when the result is actually popped — an
    /// `Err` return leaves the window untouched, so `now` can never
    /// fall behind the level-0 coverage. `Err` carries the minimum time
    /// seen ([`SimTime::MAX`] when empty). Does not touch `self.live`;
    /// callers account for the removed event.
    fn pop_min(&mut self, limit: SimTime) -> Result<(SimTime, u64, E), SimTime> {
        loop {
            let wheel = &*self.wheel;
            if wheel.l0_count > 0 {
                let start = Wheel::l0_bucket(self.now.as_nanos().max(wheel.l0_end - G1));
                let b = find_set_from(&wheel.l0_mask, start).expect("l0_count > 0");
                let (prev, min) = list_min(&self.slots, wheel.l0_head.get(b));
                let time = self.slots[min as usize].time;
                if time > limit {
                    return Err(time);
                }
                let (seq, event) = self.take_l0(b, prev, min);
                // If that was the last entry in the wheel proper, the
                // overflow top is the front now: discard any cancelled
                // run sitting on it.
                self.sweep_overflow_if_front();
                return Ok((time, seq, event));
            }
            if wheel.l1_count > 0 {
                // The global minimum lives in the first occupied
                // level-1 bucket in ring order (bucket time-ranges are
                // monotone from the window position).
                let cur = Wheel::l1_bucket(wheel.l0_end);
                let b = find_set_from(&wheel.l1_mask, cur).expect("l1_count > 0");
                let (_, min) = list_min(&self.slots, wheel.l1_head.get(b));
                let time = self.slots[min as usize].time;
                if time > limit {
                    // Check BEFORE advancing: a limited pop must leave
                    // the window where `now` can still reach it, or a
                    // later schedule could alias into a stale bucket.
                    return Err(time);
                }
                // Advance the window to the target bucket and
                // redistribute it into level 0 (ring distance in G1
                // steps from the current window position).
                let steps = (b + N1 - cur) % N1;
                let new_end = wheel.l0_end + (steps as u64 + 1) * G1;
                self.advance_to(new_end);
                continue;
            }
            // Both wheel levels empty: jump to the overflow minimum.
            self.sweep_overflow_top();
            let Some(head) = self.wheel.overflow.peek() else {
                return Err(SimTime::MAX);
            };
            if head.time > limit {
                return Err(head.time);
            }
            let t = head.time.as_nanos();
            self.advance_to((t >> G1_BITS << G1_BITS) + G1);
        }
    }

    /// Unlinks the level-0 entry `slot` (bucket `b`, list predecessor
    /// `prev`) and retires its slab slot, returning its
    /// `(seq, event)`. `self.live` is the caller's job.
    fn take_l0(&mut self, b: usize, prev: u32, slot: u32) -> (u64, E) {
        let wheel = &mut *self.wheel;
        list_unlink(&mut self.slots, wheel.l0_head.slot_mut(b), prev, slot);
        if wheel.l0_head.get(b) == NIL {
            clear_bit(&mut wheel.l0_mask, b);
        }
        wheel.l0_count -= 1;
        let seq = self.slots[slot as usize].seq;
        (seq, self.free_slot(slot))
    }

    /// Moves the level-0 window forward so that its exclusive end is
    /// `new_end` (a multiple of `G1`), one `G1` block at a time: each
    /// step drains the level-1 bucket of the block entering the window
    /// into level 0 and promotes the overflow entries the moved level-1
    /// horizon now covers. Cancelled overflow entries are retired
    /// instead of promoted — the wheel proper never holds a cancelled
    /// entry.
    fn advance_to(&mut self, new_end: u64) {
        while self.wheel.l0_end < new_end {
            let wheel = &mut *self.wheel;
            // List order is irrelevant: the per-bucket min-scan
            // re-establishes (time, seq) order.
            let b1 = Wheel::l1_bucket(wheel.l0_end);
            let mut cur = wheel.l1_head.take(b1);
            clear_bit(&mut wheel.l1_mask, b1);
            wheel.l0_end += G1;
            while cur != NIL {
                let nxt = self.slots[cur as usize].next;
                let t = self.slots[cur as usize].time.as_nanos();
                debug_assert!((wheel.l0_end - G1..wheel.l0_end).contains(&t));
                wheel.l1_count -= 1;
                l0_link(wheel, &mut self.slots, cur);
                cur = nxt;
            }
            let h1 = self.wheel.h1();
            while let Some(&entry) = self.wheel.overflow.peek() {
                if entry.time.as_nanos() >= h1 {
                    break;
                }
                self.wheel.overflow.pop();
                if self.slots[entry.slot as usize].cancelled {
                    // Lazily cancelled while parked in overflow.
                    self.free_slot(entry.slot);
                } else if entry.time.as_nanos() < self.wheel.l0_end {
                    l0_link(&mut self.wheel, &mut self.slots, entry.slot);
                } else {
                    l1_link(&mut self.wheel, &mut self.slots, entry.slot);
                }
            }
        }
    }

    /// Returns `slot` to the free list, invalidating its outstanding
    /// tokens and settling its cancel flag, and hands back the payload
    /// it owned.
    fn free_slot(&mut self, slot: u32) -> E {
        let s = &mut self.slots[slot as usize];
        s.generation += 1;
        s.loc = LOC_NONE;
        s.next = NIL;
        if std::mem::take(&mut s.cancelled) {
            self.cancelled -= 1;
        }
        let event = s.event.take().expect("queued slot owns its payload");
        self.free.push(slot);
        event
    }

    /// Discards cancelled entries sitting at the overflow-heap top, so
    /// overflow peeks always see a live entry.
    fn sweep_overflow_top(&mut self) {
        while let Some(&top) = self.wheel.overflow.peek() {
            if !self.slots[top.slot as usize].cancelled {
                return;
            }
            self.wheel.overflow.pop();
            self.free_slot(top.slot);
        }
    }

    /// [`EventQueue::sweep_overflow_top`] once both wheel levels are
    /// empty, i.e. once the overflow top is the global front.
    #[inline]
    fn sweep_overflow_if_front(&mut self) {
        if self.wheel.l0_count == 0 && self.wheel.l1_count == 0 {
            self.sweep_overflow_top();
        }
    }

    /// Releases memory retained past the current working set: trailing
    /// free slab slots (and their spare capacity), the overflow heap's
    /// spare capacity, and bucket-head chunks whose buckets are all
    /// empty. Bounded by the structures' current sizes and observably
    /// inert — pop order, cancel results, and `peek_time` are identical
    /// with or without the call — so fleet drivers can invoke it after
    /// a storm peak without disturbing byte-identity. Stale tokens
    /// referencing truncated slots stay dead: out-of-range slots report
    /// the usual recorded-nothing `false`, and regrown slots start
    /// above every truncated generation (`gen_floor`).
    pub fn compact(&mut self) {
        self.slab_hwm = self.slab_hwm.max(self.slots.len());
        let wheel = &mut *self.wheel;
        wheel.overflow.shrink_to_fit();
        wheel.l0_head.release_empty(&wheel.l0_mask);
        wheel.l1_head.release_empty(&wheel.l1_mask);
        // Drop the free tail of the slab: slots at the end that hold no
        // queued entry can go, and the free list forgets them. Interior
        // free slots stay (their indices are linked into live bucket
        // lists' numbering); in practice post-storm slabs are a dense
        // live prefix plus a long free tail.
        let mut is_free = vec![false; self.slots.len()];
        for &f in &self.free {
            is_free[f as usize] = true;
        }
        let mut new_len = self.slots.len();
        while new_len > 0 && is_free[new_len - 1] {
            new_len -= 1;
        }
        if new_len < self.slots.len() {
            let floor = self.slots[new_len..]
                .iter()
                .map(|s| s.generation + 1)
                .max()
                .unwrap_or(0);
            self.gen_floor = self.gen_floor.max(floor);
            self.slots.truncate(new_len);
            self.free.retain(|&f| (f as usize) < new_len);
        }
        self.slots.shrink_to_fit();
        self.free.shrink_to_fit();
    }

    /// Largest slab length ever reached (slots, not bytes), surviving
    /// [`EventQueue::compact`] truncation — the storm-peak watermark
    /// fleet stats report.
    pub fn slab_high_watermark(&self) -> usize {
        self.slab_hwm.max(self.slots.len())
    }

    /// Approximate resident bytes held by the queue's own structures
    /// (slab, free list, overflow heap, materialized bucket chunks).
    /// Payload-internal allocations are not counted.
    pub fn resident_bytes(&self) -> usize {
        let slab = self.slots.capacity() * std::mem::size_of::<Slot<E>>();
        let free = self.free.capacity() * std::mem::size_of::<u32>();
        let wheel = self.wheel.overflow.capacity() * std::mem::size_of::<Entry>()
            + self.wheel.l0_head.resident_bytes()
            + self.wheel.l1_head.resident_bytes();
        slab + free + wheel
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Cancellation records not yet swept out of the overflow heap
    /// (diagnostics; always bounded by the number of queued entries).
    /// Cancels inside the two wheel levels are eager and never count.
    pub fn cancelled_backlog(&self) -> usize {
        self.cancelled
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), "c");
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(42));
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let t1 = q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        assert!(q.cancel(t1));
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn double_cancel_is_false() {
        let mut q = EventQueue::new();
        let t = q.schedule(SimTime::from_nanos(10), ());
        assert!(q.cancel(t));
        assert!(!q.cancel(t));
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let t = q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        // The token already fired: per the documented contract the
        // cancel reports failure and records nothing.
        assert!(!q.cancel(t));
        assert_eq!(q.cancelled_backlog(), 0);
        q.schedule(SimTime::from_nanos(20), ());
        assert!(q.pop().is_some());
    }

    #[test]
    fn stale_token_does_not_cancel_slot_reuse() {
        // The slot of a fired event is recycled for the next schedule;
        // the old (stale) token must not cancel the new occupant.
        let mut q = EventQueue::new();
        let old = q.schedule(SimTime::from_nanos(10), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        let fresh = q.schedule(SimTime::from_nanos(20), 2);
        assert!(!q.cancel(old), "stale token must be dead");
        assert_eq!(q.pop().map(|(_, e)| e), Some(2), "new occupant survives");
        assert!(!q.cancel(fresh), "fired token is dead too");
    }

    #[test]
    fn post_fire_cancellations_do_not_accumulate() {
        // Regression: cancelling tokens after their events popped used
        // to grow the cancelled set without bound (nothing ever swept
        // those entries). The bookkeeping must stay empty here.
        let mut q = EventQueue::new();
        let mut tokens = Vec::new();
        for i in 0..10_000u64 {
            tokens.push(q.schedule(SimTime::from_nanos(i + 1), i));
        }
        while q.pop().is_some() {}
        for t in tokens {
            assert!(!q.cancel(t));
        }
        assert_eq!(q.cancelled_backlog(), 0);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn cancels_are_eager_outside_overflow() {
        // A cancel inside the wheel's coverage removes the entry on the
        // spot — zero backlog — while a far-future cancel parks lazily
        // in the overflow heap.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(50), 0);
        let near = q.schedule(SimTime::from_nanos(100_000), 1);
        let far = q.schedule(SimTime::from_secs(10), 2);
        q.schedule(SimTime::from_secs(11), 3);
        assert!(q.cancel(near));
        assert_eq!(q.cancelled_backlog(), 0, "wheel cancel is eager");
        assert!(q.cancel(far));
        assert!(q.cancelled_backlog() <= 1, "overflow cancel may be lazy");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 3]);
        assert_eq!(q.cancelled_backlog(), 0);
    }

    #[test]
    fn cancel_at_top_sweeps_immediately() {
        // Cancelling the front entry keeps peek_time a pure read.
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(10), 0);
        q.schedule(SimTime::from_nanos(20), 1);
        assert!(q.cancel(a));
        assert_eq!(q.cancelled_backlog(), 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(20)));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let t1 = q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        q.cancel(t1);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(20)));
    }

    #[test]
    fn peek_time_is_shared_access() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        let r: &EventQueue<()> = &q;
        assert_eq!(r.peek_time(), Some(SimTime::from_nanos(10)));
    }

    #[test]
    fn peek_time_reaches_into_level_one() {
        // Level 0 empty, next event beyond the level-0 window: the
        // peek must find it in the level-1 ring without popping.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 7);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.pop().map(|(_, e)| e), Some(7));
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), ());
        q.schedule(SimTime::from_nanos(2), ());
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 1u32);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t.as_nanos(), e), (10, 1));
        // Schedule relative to the new now.
        q.schedule(q.now() + SimDuration::from_nanos(5), 2u32);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t.as_nanos(), e), (15, 2));
    }

    #[test]
    fn slab_recycles_slots() {
        // Steady-state schedule/pop churn must not grow the slab.
        let mut q = EventQueue::new();
        for i in 0..100_000u64 {
            q.schedule(SimTime::from_nanos(i + 1), i);
            q.pop();
        }
        assert!(q.slots.len() <= 2, "slab grew to {}", q.slots.len());
    }

    #[test]
    fn wheel_spans_every_level() {
        // Events in level 0, level 1, and the overflow heap — popped
        // back in global time order across the structural boundaries.
        let mut q = EventQueue::new();
        let times: Vec<u64> = vec![
            40,            // level 0
            5_000,         // level 0
            200_000,       // level 1 (beyond the initial 131 µs window)
            10_000_000,    // level 1 (10 ms)
            50_000_000,    // overflow (50 ms)
            2_000_000_000, // overflow (2 s)
        ];
        let mut shuffled = times.clone();
        shuffled.reverse();
        for &t in &shuffled {
            q.schedule(SimTime::from_nanos(t), t);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, times);
        assert_eq!(q.now(), SimTime::from_nanos(2_000_000_000));
    }

    #[test]
    fn wheel_same_timestamp_fifo_across_levels() {
        // Same-timestamp events arriving via different routes (direct
        // level-0 insert vs. level-1/overflow promotion) must still pop
        // in schedule order.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(40); // starts in overflow
        q.schedule(t, 0u32); // → overflow
        q.schedule(SimTime::from_nanos(10), 100); // level 0, pops first
        let order: Vec<u32> = {
            // Pop the early event; the window later jumps to 40 ms.
            let mut out = Vec::new();
            out.push(q.pop().unwrap().1);
            q.schedule(t, 1); // still beyond the level-1 horizon → overflow
            out.push(q.pop().unwrap().1);
            q.schedule(t, 2); // now == t: direct level-0 insert
            while let Some((at, e)) = q.pop() {
                assert_eq!(at, t);
                out.push(e);
            }
            out
        };
        assert_eq!(order, vec![100, 0, 1, 2]);
    }

    #[test]
    fn drain_next_batch_groups_same_timestamp() {
        let mut q = EventQueue::new();
        let t1 = SimTime::from_nanos(100);
        let t2 = SimTime::from_nanos(200);
        q.schedule(t1, 1);
        q.schedule(t2, 10);
        q.schedule(t1, 2);
        q.schedule(t1, 3);
        let mut out = Vec::new();
        assert_eq!(q.drain_next_batch(SimTime::MAX, &mut out), Ok(t1));
        assert_eq!(out, vec![(0, 1), (2, 2), (3, 3)]);
        assert_eq!(q.now(), t1);
        out.clear();
        // A limited drain that finds nothing reports the front.
        assert_eq!(
            q.drain_next_batch(SimTime::from_nanos(150), &mut out),
            Err(t2)
        );
        assert!(out.is_empty());
        assert_eq!(q.drain_next_batch(SimTime::MAX, &mut out), Ok(t2));
        assert_eq!(out, vec![(1, 10)]);
        assert!(q.is_empty());
        assert_eq!(
            q.drain_next_batch(SimTime::MAX, &mut out),
            Err(SimTime::MAX)
        );
    }

    #[test]
    fn reserved_seqs_interleave_with_scheduled_ones() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(100);
        q.schedule(t, 'a');
        let external = q.reserve_seq();
        q.schedule(t, 'b');
        assert_eq!(q.next_seq(), 3);
        let mut out = Vec::new();
        assert_eq!(q.drain_next_batch(t, &mut out), Ok(t));
        // The reserved number sits between the two queued events.
        assert_eq!(out, vec![(0, 'a'), (2, 'b')]);
        assert_eq!(external, 1);
    }

    #[test]
    fn limited_drain_respects_limit() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(500), 5);
        let mut out = Vec::new();
        let early = q.drain_next_batch(SimTime::from_nanos(400), &mut out);
        assert_eq!(early, Err(SimTime::from_nanos(500)));
        assert_eq!(q.len(), 1, "limited drain must not consume");
        let due = q.drain_next_batch(SimTime::from_nanos(500), &mut out);
        assert_eq!(due, Ok(SimTime::from_nanos(500)));
        assert_eq!(out, vec![(0, 5)]);
    }

    #[test]
    fn limited_drain_does_not_strand_the_window() {
        // A limited drain that finds nothing due (next event beyond
        // the limit, parked in level 1 / overflow) must leave the wheel
        // able to accept schedules near `now` without aliasing.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), 1u32);
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        q.schedule(SimTime::from_millis(25), 2); // level 1
        q.schedule(SimTime::from_secs(1), 3); // overflow
        let mut out = Vec::new();
        let early = q.drain_next_batch(SimTime::from_millis(20), &mut out);
        assert_eq!(early, Err(SimTime::from_millis(25)));
        // Schedule close to now: must pop before the far ones.
        q.schedule(SimTime::from_millis(15), 4);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![4, 2, 3]);
    }

    #[test]
    fn wheel_window_jump_over_long_gap() {
        // A lone far-future event forces the window to jump (no
        // per-bucket crawling): schedule → pop → schedule near the new
        // now must all stay consistent.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "far");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("far"));
        let near = q.now() + SimDuration::from_nanos(64);
        q.schedule(near, "near");
        assert_eq!(q.pop().map(|(t, _)| t), Some(near));
    }

    #[test]
    fn same_deadline_cancel_semantics() {
        // Every token of a same-deadline group is individually
        // cancellable, with the usual stale-token contract.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(700);
        let toks: Vec<_> = (0..5).map(|i| q.schedule(t, i)).collect();
        assert!(q.cancel(toks[2]), "middle member");
        assert!(!q.cancel(toks[2]), "double cancel");
        assert!(q.cancel(toks[0]), "front member");
        assert_eq!(q.len(), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 3, 4]);
        for tok in toks {
            assert!(!q.cancel(tok), "all tokens dead after fire");
        }
        assert_eq!(q.cancelled_backlog(), 0);
    }

    #[test]
    fn level_one_same_deadline_drains_in_order() {
        // Same-deadline events parked in one level-1 bucket ride the
        // redistribution into level 0 together and drain as one batch
        // in seq order, still interleaving correctly with a neighbour.
        let mut q = EventQueue::new();
        let a = SimTime::from_micros(200); // level 1
        let b = SimTime::from_micros(201); // same level-1 bucket
        q.schedule(a, 10u32);
        q.schedule(b, 20);
        q.schedule(a, 11);
        let mut out = Vec::new();
        assert_eq!(q.drain_next_batch(SimTime::MAX, &mut out), Ok(a));
        assert_eq!(out, vec![(0, 10), (2, 11)]);
        assert_eq!(q.pop().map(|(_, e)| e), Some(20));
        assert!(q.is_empty());
    }

    #[test]
    fn small_slab_grows_on_demand_with_identical_order() {
        // A fleet-profile queue starting from a tiny slab must produce
        // the exact pop order of the default reservation under a load
        // that forces several mid-run doublings.
        let mut small = EventQueue::with_slots(2);
        let mut big = EventQueue::new();
        for i in 0..3000u64 {
            let t = SimTime::from_nanos(1 + (i * 7919) % 50_000);
            small.schedule(t, i);
            big.schedule(t, i);
        }
        loop {
            let (a, b) = (small.pop(), big.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn compact_releases_storm_peak_and_keeps_tokens_dead() {
        // A burst inflates the slab; compact() must shed the free tail,
        // keep the high-water mark visible, and never let a
        // pre-compaction token cancel a post-compaction occupant of a
        // recycled slot index.
        let mut q = EventQueue::with_slots(4);
        let stale: Vec<_> = (0..4000u64)
            .map(|i| q.schedule(SimTime::from_nanos(i + 1), i))
            .collect();
        while q.pop().is_some() {}
        let peak = q.slab_high_watermark();
        assert!(peak >= 1000, "storm should inflate the slab");
        q.compact();
        assert!(q.slots.is_empty(), "free tail dropped");
        assert_eq!(q.slab_high_watermark(), peak, "HWM survives");
        // Regrow over the same indices; every stale token is dead.
        let fresh: Vec<_> = (0..4000u64)
            .map(|i| q.schedule(SimTime::from_nanos(10_000 + i), i))
            .collect();
        for t in stale {
            assert!(!q.cancel(t), "stale token aliased a live slot");
        }
        assert_eq!(q.len(), 4000);
        for t in fresh.iter().step_by(2) {
            assert!(q.cancel(*t), "fresh tokens stay cancellable");
        }
        let popped = std::iter::from_fn(|| q.pop()).count();
        assert_eq!(popped, 2000);
    }

    #[test]
    fn compact_with_live_entries_is_inert() {
        let mut q = EventQueue::with_slots(4);
        // Live entries across all wheel levels, plus churn to leave
        // free slots behind them.
        for i in 0..500u64 {
            let t = q.schedule(SimTime::from_nanos(i + 1), i);
            q.cancel(t);
        }
        q.schedule(SimTime::from_nanos(40), 1u64);
        q.schedule(SimTime::from_micros(200), 2);
        q.schedule(SimTime::from_secs(2), 3);
        q.compact();
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }
}
