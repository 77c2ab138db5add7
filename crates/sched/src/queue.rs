//! The indexed FIFO queue behind FCFS, EASY and the multi-queue
//! scheduler.
//!
//! Requests sit in submission order in a slot vector. Removing one
//! leaves a *tombstone* (a slot whose `nodes` is 0, a value
//! [`Request::new`] rejects, so the marker costs no memory) instead of
//! shifting its successors. The vector is compacted once tombstones
//! outnumber live requests, or fill an eighth of it when it is full, so
//! every operation is amortised `O(1)` in slot moves.
//!
//! Two indexes make the queue cheap to search at any depth:
//!
//! * **By id.** Callers hand out request ids in submission order (see
//!   [`crate::Scheduler::submit`]), so ids rise along the slots,
//!   tombstones included, and a binary search finds any request.
//! * **By shape.** Over blocks of [`BLOCK`] slots an implicit binary
//!   min-tree keeps the smallest node count and the smallest estimate of
//!   the live requests. [`FifoQueue::next_fit`] uses it to jump straight
//!   to the first request at or after a slot that passes an EASY
//!   backfill test ([`Fit`]), skipping every block that cannot hold one.

use rbr_simcore::{Duration, SimTime};

use crate::types::{Request, RequestId};

/// Slots per leaf of the min-tree.
const BLOCK: usize = 16;

/// Lower bounds on the live requests of a block or of a subtree of
/// blocks; [`Bound::EMPTY`] when there are none.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Bound {
    nodes: u32,
    /// The estimate in units of `2^ESTIMATE_SHIFT` µs, rounded down (and
    /// saturated), so it stays a lower bound in half the bytes.
    estimate: u32,
}

/// About a millisecond per [`Bound::estimate`] unit.
const ESTIMATE_SHIFT: u32 = 10;

impl Bound {
    const EMPTY: Bound = Bound {
        nodes: u32::MAX,
        estimate: u32::MAX,
    };

    fn of(req: &Request) -> Bound {
        let units = req.estimate.as_micros() >> ESTIMATE_SHIFT;
        Bound {
            nodes: req.nodes,
            estimate: u32::try_from(units).unwrap_or(u32::MAX),
        }
    }

    fn estimate_floor(self) -> Duration {
        Duration::from_micros(u64::from(self.estimate) << ESTIMATE_SHIFT)
    }

    fn min(self, other: Bound) -> Bound {
        Bound {
            nodes: self.nodes.min(other.nodes),
            estimate: self.estimate.min(other.estimate),
        }
    }
}

/// The EASY backfill test at one instant: a request may start now if it
/// fits the free nodes and either ends by the head's shadow time or
/// only uses nodes the head will not need.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fit {
    pub now: SimTime,
    pub free: u32,
    pub shadow: SimTime,
    pub extra: u32,
}

impl Fit {
    /// Whether `req` passes the test.
    fn admits(&self, req: &Request) -> bool {
        req.nodes <= self.free
            && (req.end_if_started(self.now) <= self.shadow || req.nodes <= self.extra)
    }

    /// Whether some request bounded below by `b` could pass the test: if
    /// a request passes, so does its block's bound, because every term
    /// of the test only loosens as nodes and estimate shrink.
    fn may_admit(&self, b: Bound) -> bool {
        b.nodes <= self.free
            && (self.now.saturating_add(b.estimate_floor()) <= self.shadow || b.nodes <= self.extra)
    }
}

/// A FIFO queue of requests with id lookup and backfill-candidate search.
#[derive(Clone, Debug, Default)]
pub(crate) struct FifoQueue {
    /// Requests in submission order; `nodes == 0` marks a tombstone.
    slots: Vec<Request>,
    /// The first live slot, or `slots.len()` when the queue is empty.
    head: usize,
    /// Number of live slots.
    live: usize,
    /// Min-tree over blocks: leaves at `[cap, 2 cap)` with
    /// `cap = tree.len() / 2` a power of two, `tree[i]` the min of its
    /// two children. Empty until the first push.
    tree: Vec<Bound>,
}

impl FifoQueue {
    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The oldest queued request.
    pub fn front(&self) -> Option<&Request> {
        self.slots.get(self.head)
    }

    /// The slot of the oldest queued request (`next_fit` positions are
    /// slots; they stay valid until the next `push_back`, `pop_front` or
    /// `remove`).
    pub fn front_slot(&self) -> usize {
        self.head
    }

    /// Queued requests, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Request> {
        self.slots[self.head..].iter().filter(|r| r.nodes != 0)
    }

    /// Whether the request is queued.
    pub fn contains(&self, id: RequestId) -> bool {
        self.find(id).is_some()
    }

    /// Appends a request.
    ///
    /// Its id must exceed the id of every request still queued; checked
    /// in debug builds.
    pub fn push_back(&mut self, req: Request) {
        debug_assert!(req.nodes > 0, "a queued request needs nodes");
        // Besides the sparse rule, reclaim tombstones rather than grow
        // the slot vector once they fill an eighth of it.
        let dead = self.slots.len() - self.live;
        if dead > self.live
            || (self.slots.len() == self.slots.capacity() && 8 * dead >= self.slots.len().max(1))
        {
            self.compact();
        }
        // Trailing tombstones carry no bound; dropping them keeps the
        // id order a property of the live requests alone.
        while self.slots.last().is_some_and(|r| r.nodes == 0) {
            self.slots.pop();
        }
        self.head = self.head.min(self.slots.len());
        debug_assert!(
            self.slots.last().is_none_or(|r| r.id < req.id),
            "request {} submitted after {}: ids must rise along a queue",
            req.id,
            self.slots.last().map_or(RequestId(0), |r| r.id)
        );
        if self.slots.len() == self.slots.capacity() {
            // Grow by half, not double: a deep queue then carries less
            // slack than the ring buffer of live requests it replaced.
            self.slots.reserve_exact(self.slots.len() / 2 + BLOCK);
        }
        self.slots.push(req);
        self.live += 1;
        let block = (self.slots.len() - 1) / BLOCK;
        if block >= self.tree.len() / 2 {
            self.rebuild();
        } else {
            self.lower(block, Bound::of(&req));
        }
    }

    /// Removes and returns the oldest request.
    pub fn pop_front(&mut self) -> Option<Request> {
        if self.is_empty() {
            return None;
        }
        let req = self.take(self.head);
        self.compact_if_sparse();
        Some(req)
    }

    /// Removes the request with this id, if it is queued.
    pub fn remove(&mut self, id: RequestId) -> Option<Request> {
        let slot = self.find(id)?;
        let req = self.take(slot);
        self.compact_if_sparse();
        Some(req)
    }

    /// Removes and returns the live request at `slot`, leaving a
    /// tombstone. Never compacts, so other slot positions stay valid.
    pub fn take(&mut self, slot: usize) -> Request {
        let req = self.slots[slot];
        debug_assert!(req.nodes != 0, "slot {slot} is a tombstone");
        self.slots[slot].nodes = 0;
        self.live -= 1;
        if slot == self.head {
            while self.head < self.slots.len() && self.slots[self.head].nodes == 0 {
                self.head += 1;
            }
        }
        self.refresh(slot / BLOCK, Bound::of(&req));
        req
    }

    /// The first live slot at or after `from` whose request passes `fit`.
    pub fn next_fit(&self, from: usize, fit: &Fit) -> Option<usize> {
        let cap = self.tree.len() / 2;
        let mut pos = from;
        while pos < self.slots.len() {
            let block = pos / BLOCK;
            if !fit.may_admit(self.tree[cap + block]) {
                pos = self.next_block(block + 1, fit)? * BLOCK;
                continue;
            }
            let end = ((block + 1) * BLOCK).min(self.slots.len());
            if let Some(i) = (pos..end).find(|&i| {
                let r = &self.slots[i];
                r.nodes != 0 && fit.admits(r)
            }) {
                return Some(i);
            }
            pos = end;
        }
        None
    }

    /// The first block at or after `block` whose bound may admit `fit`:
    /// a left-to-right walk of the tree that skips every subtree whose
    /// bound rules it out. A parent's bound can admit while neither
    /// child's does (its two minima may come from different requests),
    /// so a failed descent climbs on to the next subtree to the right.
    fn next_block(&self, block: usize, fit: &Fit) -> Option<usize> {
        let cap = self.tree.len() / 2;
        if block >= cap {
            return None;
        }
        let mut i = cap + block;
        loop {
            if fit.may_admit(self.tree[i]) {
                if i >= cap {
                    return Some(i - cap);
                }
                i *= 2;
                continue;
            }
            while i & 1 == 1 {
                i >>= 1;
            }
            if i == 0 {
                return None;
            }
            i += 1;
        }
    }

    /// The slot holding `id`, if it is live. Ids rise along the slots,
    /// tombstones included, so this is a binary search.
    fn find(&self, id: RequestId) -> Option<usize> {
        let i = self.slots[self.head..]
            .binary_search_by_key(&id, |r| r.id)
            .ok()?;
        let slot = self.head + i;
        (self.slots[slot].nodes != 0).then_some(slot)
    }

    fn compact_if_sparse(&mut self) {
        if self.slots.len() - self.live > self.live {
            self.compact();
        }
    }

    /// Drops every tombstone and rebuilds the tree. Runs only once
    /// tombstones outnumber live requests or fill an eighth of a full
    /// slot vector, so its cost is paid for by the removals that made
    /// them.
    fn compact(&mut self) {
        self.slots.retain(|r| r.nodes != 0);
        self.head = 0;
        self.rebuild();
    }

    /// Rebuilds the tree for the current slots, sized to the smallest
    /// power of two of blocks that holds them.
    fn rebuild(&mut self) {
        let cap = self.slots.len().div_ceil(BLOCK).next_power_of_two();
        self.tree.clear();
        self.tree.resize(2 * cap, Bound::EMPTY);
        for (b, chunk) in self.slots.chunks(BLOCK).enumerate() {
            self.tree[cap + b] = block_bound(chunk);
        }
        for i in (1..cap).rev() {
            self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
        }
    }

    /// Recomputes the bound of `block` after the removal of a request
    /// bounded by `gone`.
    fn refresh(&mut self, block: usize, gone: Bound) {
        let cap = self.tree.len() / 2;
        let old = self.tree[cap + block];
        if gone.nodes > old.nodes && gone.estimate > old.estimate {
            // Another request holds both minima.
            return;
        }
        let start = block * BLOCK;
        let end = (start + BLOCK).min(self.slots.len());
        let bound = block_bound(&self.slots[start..end]);
        let mut i = cap + block;
        if self.tree[i] == bound {
            return;
        }
        self.tree[i] = bound;
        while i > 1 {
            i /= 2;
            let b = self.tree[2 * i].min(self.tree[2 * i + 1]);
            if self.tree[i] == b {
                return;
            }
            self.tree[i] = b;
        }
    }

    /// Folds a newly pushed request's bound into `block` and its
    /// ancestors.
    fn lower(&mut self, block: usize, bound: Bound) {
        let mut i = self.tree.len() / 2 + block;
        while i >= 1 {
            let b = self.tree[i].min(bound);
            if self.tree[i] == b {
                return;
            }
            self.tree[i] = b;
            i /= 2;
        }
    }
}

/// The bound of the live requests among `slots`.
fn block_bound(slots: &[Request]) -> Bound {
    slots
        .iter()
        .filter(|r| r.nodes != 0)
        .fold(Bound::EMPTY, |b, r| b.min(Bound::of(r)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, nodes: u32, est: f64) -> Request {
        Request::new(
            RequestId(id),
            nodes,
            Duration::from_secs(est),
            SimTime::ZERO,
        )
    }

    /// The slot-by-slot scan `next_fit` replaces.
    fn linear_fit(q: &FifoQueue, from: usize, fit: &Fit) -> Option<usize> {
        (from..q.slots.len()).find(|&i| q.slots[i].nodes != 0 && fit.admits(&q.slots[i]))
    }

    #[test]
    fn fifo_order_and_id_lookup() {
        let mut q = FifoQueue::default();
        for i in 1..=40 {
            q.push_back(req(i, 1 + (i % 5) as u32, 10.0));
        }
        assert_eq!(q.len(), 40);
        assert_eq!(q.remove(RequestId(7)).map(|r| r.id), Some(RequestId(7)));
        assert_eq!(q.remove(RequestId(7)), None, "already gone");
        assert_eq!(q.remove(RequestId(99)), None, "never queued");
        assert!(!q.contains(RequestId(7)) && q.contains(RequestId(8)));
        assert_eq!(q.pop_front().map(|r| r.id), Some(RequestId(1)));
        assert_eq!(q.front().map(|r| r.id), Some(RequestId(2)));
        let ids: Vec<u64> = q.iter().map(|r| r.id.0).collect();
        let expect: Vec<u64> = (2..=40).filter(|&i| i != 7).collect();
        assert_eq!(ids, expect);
    }

    #[test]
    fn compaction_keeps_order_and_bounds_memory() {
        let mut q = FifoQueue::default();
        let mut next = 0;
        for round in 0..50 {
            for _ in 0..20 {
                next += 1;
                q.push_back(req(next, 1 + (next % 7) as u32, next as f64));
            }
            // Cancel every other request of the round, then pop two.
            for k in (next - 19..=next).step_by(2) {
                assert!(q.remove(RequestId(k)).is_some(), "round {round}");
            }
            q.pop_front();
            q.pop_front();
            assert!(q.slots.len() <= 2 * q.len() + 1, "tombstones bounded");
        }
        let ids: Vec<u64> = q.iter().map(|r| r.id.0).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ids.len(), q.len());
    }

    #[test]
    fn empty_queue_accepts_any_id() {
        let mut q = FifoQueue::default();
        q.push_back(req(u64::MAX, 3, 1.0));
        assert_eq!(q.pop_front().map(|r| r.nodes), Some(3));
        q.push_back(req(0, 1, 1.0));
        assert!(q.contains(RequestId(0)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ids must rise")]
    fn falling_ids_are_rejected() {
        let mut q = FifoQueue::default();
        q.push_back(req(5, 1, 1.0));
        q.push_back(req(4, 1, 1.0));
    }

    /// `next_fit` finds exactly what the linear scan finds, from every
    /// start position, across tombstones, block edges and compactions.
    #[test]
    fn next_fit_matches_the_linear_scan() {
        let mut x = 0x2545f4914f6cdd1du64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut q = FifoQueue::default();
        let mut next = 0;
        for step in 0..3_000 {
            match rand() % 4 {
                0 | 1 => {
                    next += 1;
                    let nodes = 1 + (rand() % 32) as u32;
                    q.push_back(req(next, nodes, 1.0 + (rand() % 1000) as f64));
                }
                2 if !q.is_empty() => {
                    let victim = RequestId(next - rand() % next.min(60));
                    q.remove(victim);
                }
                _ if !q.is_empty() => {
                    let fit = Fit {
                        now: SimTime::from_secs(5.0),
                        free: (rand() % 34) as u32,
                        shadow: SimTime::from_secs((rand() % 1100) as f64),
                        extra: (rand() % 8) as u32,
                    };
                    let from = q.front_slot() + (rand() % 40) as usize;
                    let got = q.next_fit(from, &fit);
                    assert_eq!(got, linear_fit(&q, from, &fit), "step {step}");
                    if let Some(slot) = got {
                        q.take(slot);
                    }
                }
                _ => {}
            }
        }
    }
}
