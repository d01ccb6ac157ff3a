//! The shared RPC packet-buffer pool.
//!
//! In Firefly RPC, "RPC packet buffers reside in memory shared among all
//! user address spaces and the Nub … RPC stubs in user spaces, and the
//! Ethernet driver code and interrupt handler in the Nub, all can read and
//! write packet buffers in memory using the same addresses. This strategy
//! eliminates the need for extra address mapping operations or copying when
//! doing RPC." (§3.2.)
//!
//! This crate reproduces that discipline in safe Rust:
//!
//! * a [`BufferPool`] is created once with a fixed number of 1514-byte
//!   buffers, each made on the pool's first take that finds no slab to
//!   reuse. The runtime keeps one per endpoint, on its server side: it
//!   holds the copy of a single-packet call on its way from the thread
//!   that received it to the server thread that runs it;
//! * a take never waits: a pool found dry fails it at once with
//!   [`PoolError::Exhausted`] (the server sheds that call like a lost
//!   packet), and a give-back is one lock and a push;
//! * [`PacketBuf`] hands out exclusive access to one buffer and returns it
//!   to the free list on drop, so once a slab is made the fast path
//!   allocates **nothing** from the general-purpose heap for it again;
//! * [`PoolStats`] counts allocations, frees, recycles and exhaustions so
//!   tests can prove the zero-allocation property;
//! * [`BufferPool::recycle_to_receive_queue`] and
//!   [`BufferPool::take_receive_buffer`] model the paper's on-the-fly
//!   receive-buffer replacement, where the interrupt handler moves the
//!   buffer found in a call-table entry straight onto the Ethernet
//!   controller's receive queue.
//!
//! # Examples
//!
//! ```
//! use firefly_pool::BufferPool;
//!
//! let pool = BufferPool::new(4);
//! let mut buf = pool.alloc().unwrap();
//! buf.set_len(74);
//! buf[0] = 0x02;
//! drop(buf); // Returned to the free list.
//! assert_eq!(pool.stats().outstanding(), 0);
//! ```

// No unsafe anywhere in this crate — see DESIGN.md ("Unsafe policy").
#![forbid(unsafe_code)]

use firefly_sync::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// The size of every pool buffer: one maximal Ethernet frame.
pub const BUFFER_SIZE: usize = 1514;

/// Errors returned by pool operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// No free buffers; the pool is fixed-size by design.
    Exhausted,
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::Exhausted => write!(f, "packet buffer pool exhausted"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Counters describing pool behaviour; all monotonically increasing except
/// the derived [`PoolStats::outstanding`]. A by-value snapshot: of one
/// shard (taken under its lock, so the figures agree with each other)
/// or, from [`ShardedPool::stats`], the sum over all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    allocs: u64,
    frees: u64,
    recycles: u64,
    exhaustions: u64,
    high_water: u64,
    made: u64,
}

impl PoolStats {
    /// Total successful allocations.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Total buffers returned through drop.
    pub fn frees(&self) -> u64 {
        self.frees
    }

    /// Buffers moved directly to the receive queue (the paper's
    /// interrupt-handler recycling).
    pub fn recycles(&self) -> u64 {
        self.recycles
    }

    /// Allocation attempts that found the pool empty.
    pub fn exhaustions(&self) -> u64 {
        self.exhaustions
    }

    /// Maximum simultaneously outstanding buffers observed; summed over
    /// shards it is an upper bound on the whole pool's true peak.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Slabs made so far: never more than the capacity, and no more than
    /// were ever out at once.
    pub fn made(&self) -> u64 {
        self.made
    }

    /// Buffers currently held by users (allocs − frees − recycles).
    pub fn outstanding(&self) -> u64 {
        self.allocs
            .saturating_sub(self.frees)
            .saturating_sub(self.recycles)
    }
}

/// Everything a pool shard shares, under its one lock: both lists, the
/// slabs not made yet and the counters that describe them, so every
/// operation is one acquisition and the counters are plain integers that
/// always agree with the lists.
struct Slabs {
    free: Vec<Box<[u8]>>,
    /// Buffers parked on the simulated controller's receive queue.
    receive_queue: VecDeque<Box<[u8]>>,
    /// Slabs of the capacity not made yet: free, but not in `free`.
    unmade: usize,
    stats: PoolStats,
}

impl Slabs {
    /// Hands out a slab from the preferred list, falling back to the
    /// other one and then to making one of those not made yet, and
    /// accounts for the outcome. A made slab is always reused first, so
    /// a pool makes only as many as were ever out at once.
    fn take(&mut self, receive_queue_first: bool) -> Option<Box<[u8]>> {
        let reused = if receive_queue_first {
            self.receive_queue.pop_front().or_else(|| self.free.pop())
        } else {
            self.free.pop().or_else(|| self.receive_queue.pop_front())
        };
        let slab = reused.or_else(|| self.make());
        if slab.is_some() {
            self.stats.allocs += 1;
            self.stats.high_water = self.stats.high_water.max(self.stats.outstanding());
        } else {
            self.stats.exhaustions += 1;
        }
        slab
    }

    /// Makes one of the slabs not made yet, if any is left.
    fn make(&mut self) -> Option<Box<[u8]>> {
        self.unmade = self.unmade.checked_sub(1)?;
        self.stats.made += 1;
        // lint:allow(no-alloc-on-fast-path): at most `capacity` times per
        // pool, each the first take that finds no made slab free; every
        // later take reuses the slab.
        Some(vec![0u8; BUFFER_SIZE].into_boxed_slice())
    }

    /// Free buffers, made or not.
    fn free_count(&self) -> usize {
        self.free.len() + self.unmade
    }
}

struct PoolInner {
    slabs: Mutex<Slabs>,
    capacity: usize,
}

/// A fixed-size pool of packet buffers shared by the whole RPC machinery.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let slabs = self.inner.slabs.lock();
        f.debug_struct("BufferPool")
            .field("capacity", &self.inner.capacity)
            .field("free", &slabs.free_count())
            .field("outstanding", &slabs.stats.outstanding())
            .finish()
    }
}

impl BufferPool {
    /// Creates a pool of `capacity` 1514-byte buffers, none made yet.
    ///
    /// A slab is made by the first take that finds no made one free, and
    /// never more than `capacity` of them: a pool nobody takes from costs
    /// no slab, and one whose takers hold at most `k` buffers at a time
    /// makes `k`. After that the fast path only moves buffers between
    /// lists.
    pub fn new(capacity: usize) -> Self {
        BufferPool {
            // lint:allow(no-alloc-on-fast-path): once per pool.
            inner: Arc::new(PoolInner {
                slabs: Mutex::new(Slabs {
                    // lint:allow(no-alloc-on-fast-path): an empty Vec
                    // allocates nothing; slabs are made by the takes.
                    free: Vec::new(),
                    receive_queue: VecDeque::new(),
                    unmade: capacity,
                    stats: PoolStats::default(),
                }),
                capacity,
            }),
        }
    }

    /// The configured number of buffers.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Number of free buffers: those on the free list and those not
    /// made yet, so `capacity − free − receive queue = outstanding`
    /// holds from the start.
    pub fn free_count(&self) -> usize {
        self.inner.slabs.lock().free_count()
    }

    /// Number of buffers parked on the receive queue.
    pub fn receive_queue_len(&self) -> usize {
        self.inner.slabs.lock().receive_queue.len()
    }

    /// Pool statistics.
    pub fn stats(&self) -> PoolStats {
        self.inner.slabs.lock().stats
    }

    /// Labels this pool's lock for `firefly-check` ("pool"), a stable
    /// name for its trace lines and publication classes. No-op outside a
    /// checked schedule.
    pub fn check_labels(&self) {
        self.inner.slabs.check_label("pool");
    }

    fn wrap(&self, slab: Box<[u8]>) -> PacketBuf {
        PacketBuf {
            pool: BufferPool {
                inner: Arc::clone(&self.inner),
            },
            slab: Some(slab),
            len: 0,
        }
    }

    fn take(&self, receive_queue_first: bool) -> Result<PacketBuf, PoolError> {
        let slab = self.inner.slabs.lock().take(receive_queue_first);
        slab.map(|s| self.wrap(s)).ok_or(PoolError::Exhausted)
    }

    /// Allocates a buffer, failing immediately if the pool is exhausted.
    ///
    /// This is the `Starter` path: "obtain a packet buffer for the call".
    /// When the free list is empty the Nub reclaims an idle buffer from
    /// the controller receive queue rather than failing.
    pub fn alloc(&self) -> Result<PacketBuf, PoolError> {
        self.take(false)
    }

    /// Moves a buffer straight onto the controller receive queue.
    ///
    /// The paper: "when putting the newly arrived packet into the call
    /// table, the interrupt handler removes the buffer found in that call
    /// table entry and adds it to the Ethernet controller's receive queue"
    /// (§3.2). The buffer is consumed without touching the free list.
    pub fn recycle_to_receive_queue(&self, mut buf: PacketBuf) {
        if let Some(slab) = buf.slab.take() {
            self.recycle_slab(slab);
        }
    }

    fn recycle_slab(&self, slab: Box<[u8]>) {
        let mut slabs = self.inner.slabs.lock();
        slabs.receive_queue.push_back(slab);
        slabs.stats.recycles += 1;
    }

    /// Takes a buffer from the receive queue (what the controller does when
    /// a packet arrives), falling back to the free list when the queue is
    /// empty.
    pub fn take_receive_buffer(&self) -> Result<PacketBuf, PoolError> {
        self.take(true)
    }

    fn return_slab(&self, slab: Box<[u8]>) {
        let mut slabs = self.inner.slabs.lock();
        slabs.free.push(slab);
        slabs.stats.frees += 1;
    }
}

/// A pool split into independent shards, each a full [`BufferPool`] with
/// its own lock, free list and receive queue.
///
/// Its user picks the shard for a call as a pure function of the
/// activity id (as `firefly_rpc::calltable::shard_for` picks a
/// call-table shard), so two threads touching the same call always
/// agree on which shard's lock they contend on — and calls on different
/// shards contend on nothing. A [`PacketBuf`] always returns
/// to the shard that allocated it (its owning [`BufferPool`]), so
/// cross-shard borrowing during exhaustion cannot leak buffers between
/// shards.
///
/// The exhaustion fallback visits the remaining shards in ascending
/// (wrapped) index order. That is a visiting order, not a lock
/// discipline: no two shard locks are ever held at once (each attempt
/// releases its lock before the next shard is tried).
#[derive(Clone)]
pub struct ShardedPool {
    shards: Arc<[BufferPool]>,
}

impl fmt::Debug for ShardedPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedPool")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity())
            .field("free", &self.free_count())
            .finish()
    }
}

impl ShardedPool {
    /// Creates a pool of `capacity` total buffers split across `shards`
    /// shards (at least one buffer per shard; the remainder goes to the
    /// lowest-indexed shards).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let n = shards.max(1);
        let base = (capacity / n).max(1);
        let extra = capacity.saturating_sub(base * n);
        let shards: Vec<BufferPool> = (0..n)
            .map(|i| BufferPool::new(base + usize::from(i < extra)))
            .collect();
        ShardedPool {
            shards: shards.into(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard at `idx` (wrapped, so any hash value is a valid index).
    pub fn shard(&self, idx: usize) -> &BufferPool {
        &self.shards[idx % self.shards.len()]
    }

    /// All shards, for per-shard introspection in tests.
    pub fn shards(&self) -> &[BufferPool] {
        &self.shards
    }

    /// Total configured buffers across all shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.capacity()).sum()
    }

    /// Total buffers on free lists across all shards.
    pub fn free_count(&self) -> usize {
        self.shards.iter().map(|s| s.free_count()).sum()
    }

    /// Total buffers parked on receive queues across all shards.
    pub fn receive_queue_len(&self) -> usize {
        self.shards.iter().map(|s| s.receive_queue_len()).sum()
    }

    /// Aggregate statistics across all shards.
    pub fn stats(&self) -> PoolStats {
        let mut sum = PoolStats::default();
        for s in &*self.shards {
            let st = s.stats();
            sum.allocs += st.allocs;
            sum.frees += st.frees;
            sum.recycles += st.recycles;
            sum.exhaustions += st.exhaustions;
            sum.high_water += st.high_water;
            sum.made += st.made;
        }
        sum
    }

    /// Labels every shard's lock for `firefly-check`. No-op outside a
    /// checked schedule.
    pub fn check_labels(&self) {
        for s in &*self.shards {
            s.check_labels();
        }
    }

    /// Allocates from the home shard, falling back to the other shards
    /// in ascending index order when it is exhausted.
    pub fn alloc_from(&self, idx: usize) -> Result<PacketBuf, PoolError> {
        let n = self.shards.len();
        let home = idx % n;
        match self.shards[home].alloc() {
            Ok(buf) => Ok(buf),
            Err(_) => {
                for step in 1..n {
                    if let Ok(buf) = self.shards[(home + step) % n].alloc() {
                        return Ok(buf);
                    }
                }
                Err(PoolError::Exhausted)
            }
        }
    }

    /// Takes a receive-queue buffer from the home shard, falling back to
    /// an ascending-order allocation scan.
    pub fn take_receive_buffer_from(&self, idx: usize) -> Result<PacketBuf, PoolError> {
        match self.shard(idx).take_receive_buffer() {
            Ok(buf) => Ok(buf),
            Err(_) => self.alloc_from(idx),
        }
    }
}

/// Exclusive ownership of one pool buffer, returned to the pool on drop.
///
/// Dereferences to the first `len` bytes — the valid portion of the packet.
/// The full 1514-byte slab is reachable via [`PacketBuf::raw_mut`] for
/// header construction in place.
pub struct PacketBuf {
    pool: BufferPool,
    slab: Option<Box<[u8]>>,
    len: usize,
}

impl PacketBuf {
    /// Sets the number of valid bytes.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`BUFFER_SIZE`]; packets larger than one
    /// Ethernet frame cannot exist.
    pub fn set_len(&mut self, len: usize) {
        assert!(len <= BUFFER_SIZE, "packet length {len} exceeds buffer");
        self.len = len;
    }

    /// Number of valid bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bytes are valid yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The whole 1514-byte slab, regardless of `len`.
    pub fn raw_mut(&mut self) -> &mut [u8] {
        // The slab is Some from construction until drop; the empty-slice
        // fallback keeps the accessor panic-free for the demux thread.
        match self.slab.as_mut() {
            Some(slab) => slab,
            None => &mut [],
        }
    }

    /// Copies `src` into the buffer and sets the valid length.
    ///
    /// # Panics
    ///
    /// Panics if `src` exceeds [`BUFFER_SIZE`].
    pub fn fill_from(&mut self, src: &[u8]) {
        assert!(src.len() <= BUFFER_SIZE, "source exceeds buffer size");
        let Some(slab) = self.slab.as_mut() else {
            return;
        };
        slab[..src.len()].copy_from_slice(src);
        self.len = src.len();
    }

    /// Returns the owning pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Moves this buffer onto its *owning* pool's receive queue (the
    /// interrupt-handler recycling path). With a [`ShardedPool`] this
    /// keeps every slab in the shard that allocated it, so per-shard
    /// capacity is invariant no matter which thread recycles.
    pub fn recycle(mut self) {
        if let Some(slab) = self.slab.take() {
            self.pool.recycle_slab(slab);
        }
    }
}

impl Deref for PacketBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self.slab.as_ref() {
            Some(slab) => &slab[..self.len],
            None => &[],
        }
    }
}

impl DerefMut for PacketBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        let len = self.len;
        match self.slab.as_mut() {
            Some(slab) => &mut slab[..len],
            None => &mut [],
        }
    }
}

impl fmt::Debug for PacketBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PacketBuf").field("len", &self.len).finish()
    }
}

impl Drop for PacketBuf {
    fn drop(&mut self) {
        if let Some(slab) = self.slab.take() {
            self.pool.return_slab(slab);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_drop_round_trip() {
        let pool = BufferPool::new(2);
        assert_eq!(pool.free_count(), 2);
        let b = pool.alloc().unwrap();
        assert_eq!(pool.free_count(), 1);
        drop(b);
        assert_eq!(pool.free_count(), 2);
        assert_eq!(pool.stats().allocs(), 1);
        assert_eq!(pool.stats().frees(), 1);
        assert_eq!(pool.stats().outstanding(), 0);
    }

    #[test]
    fn slabs_are_made_on_first_take_and_never_past_capacity() {
        let pool = BufferPool::new(3);
        assert_eq!((pool.stats().made(), pool.free_count()), (0, 3));
        let a = pool.alloc().unwrap();
        drop(a);
        // The made slab is reused before another is made.
        let a = pool.alloc().unwrap();
        assert_eq!(pool.stats().made(), 1);
        let b = pool.take_receive_buffer().unwrap();
        let c = pool.alloc().unwrap();
        assert_eq!((pool.stats().made(), pool.free_count()), (3, 0));
        assert_eq!(pool.alloc().unwrap_err(), PoolError::Exhausted);
        pool.recycle_to_receive_queue(b);
        // capacity − free − receive queue = outstanding, made or not.
        assert_eq!(pool.capacity() - pool.free_count() - pool.receive_queue_len(), 2);
        assert_eq!(pool.stats().outstanding(), 2);
        drop((a, c));
        assert_eq!(pool.stats().made(), 3);
    }

    #[test]
    fn exhaustion_is_reported_not_grown() {
        let pool = BufferPool::new(1);
        let _a = pool.alloc().unwrap();
        assert_eq!(pool.alloc().unwrap_err(), PoolError::Exhausted);
        assert_eq!(pool.stats().exhaustions(), 1);
        assert_eq!(pool.capacity(), 1);
    }

    #[test]
    fn len_discipline() {
        let pool = BufferPool::new(1);
        let mut b = pool.alloc().unwrap();
        assert!(b.is_empty());
        b.set_len(74);
        assert_eq!(b.len(), 74);
        assert_eq!(b.deref().len(), 74);
        b.fill_from(&[1, 2, 3]);
        assert_eq!(&*b, &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "exceeds buffer")]
    fn oversize_len_panics() {
        let pool = BufferPool::new(1);
        let mut b = pool.alloc().unwrap();
        b.set_len(BUFFER_SIZE + 1);
    }

    #[test]
    fn recycling_feeds_receive_queue() {
        let pool = BufferPool::new(2);
        let b = pool.alloc().unwrap();
        pool.recycle_to_receive_queue(b);
        assert_eq!(pool.receive_queue_len(), 1);
        assert_eq!(pool.free_count(), 1);
        // The controller picks the recycled buffer up first.
        let b2 = pool.take_receive_buffer().unwrap();
        assert_eq!(pool.receive_queue_len(), 0);
        drop(b2);
        assert_eq!(pool.free_count(), 2);
    }

    #[test]
    fn take_receive_buffer_falls_back_to_free_list() {
        let pool = BufferPool::new(1);
        let b = pool.take_receive_buffer().unwrap();
        assert_eq!(pool.free_count(), 0);
        drop(b);
    }

    #[test]
    fn high_water_tracks_peak() {
        let pool = BufferPool::new(3);
        let a = pool.alloc().unwrap();
        let b = pool.alloc().unwrap();
        drop(a);
        let c = pool.alloc().unwrap();
        drop(b);
        drop(c);
        assert_eq!(pool.stats().high_water(), 2);
    }

    #[test]
    fn sharded_pool_splits_capacity_and_isolates_shards() {
        let pool = ShardedPool::new(10, 4);
        assert_eq!(pool.shard_count(), 4);
        assert_eq!(pool.capacity(), 10);
        // Remainder buffers go to the lowest-indexed shards.
        assert_eq!(pool.shard(0).capacity(), 3);
        assert_eq!(pool.shard(1).capacity(), 3);
        assert_eq!(pool.shard(2).capacity(), 2);
        assert_eq!(pool.shard(3).capacity(), 2);
        let b = pool.alloc_from(2).unwrap();
        assert_eq!(pool.shard(2).free_count(), 1);
        assert_eq!(pool.shard(0).free_count(), 3);
        drop(b);
        // The buffer returns to the shard that allocated it.
        assert_eq!(pool.shard(2).free_count(), 2);
        assert_eq!(pool.stats().outstanding(), 0);
    }

    #[test]
    fn sharded_pool_borrows_ascending_on_exhaustion() {
        let pool = ShardedPool::new(4, 4);
        let _home = pool.alloc_from(1).unwrap();
        // Home shard 1 is now empty; the fallback scans 2, 3, 0.
        let borrowed = pool.alloc_from(1).unwrap();
        assert_eq!(pool.shard(2).free_count(), 0);
        drop(borrowed);
        assert_eq!(pool.shard(2).free_count(), 1);
        assert!(pool.shard(1).stats().exhaustions() >= 1);
    }

    #[test]
    fn sharded_pool_exhausts_only_when_every_shard_is_empty() {
        let pool = ShardedPool::new(4, 2);
        let held: Vec<_> = (0..4).map(|i| pool.alloc_from(i).unwrap()).collect();
        assert_eq!(pool.alloc_from(0).unwrap_err(), PoolError::Exhausted);
        drop(held);
        assert_eq!(pool.free_count(), 4);
    }

    #[test]
    fn sharded_pool_single_shard_matches_plain_pool() {
        let pool = ShardedPool::new(3, 1);
        assert_eq!(pool.shard_count(), 1);
        assert_eq!(pool.capacity(), 3);
        let b = pool.take_receive_buffer_from(7).unwrap();
        pool.shard(0).recycle_to_receive_queue(b);
        assert_eq!(pool.receive_queue_len(), 1);
        assert_eq!(pool.stats().recycles(), 1);
    }

    #[test]
    fn pool_is_shared_across_clones() {
        let pool = BufferPool::new(2);
        let clone = pool.clone();
        let b = clone.alloc().unwrap();
        assert_eq!(pool.free_count(), 1);
        drop(b);
        assert_eq!(pool.free_count(), 2);
    }
}
