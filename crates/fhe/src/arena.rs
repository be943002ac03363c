//! Buffer pooling for the zero-allocation hot path.
//!
//! Every per-operation buffer the execution engine touches is a `Vec<u64>`
//! of one of a few lengths: ciphertext payload stripes are `2 * limb_count *
//! payload_degree` long, fixed by the session parameters, and slot vectors
//! are a power of two up to `slot_count` — one length per run (its lane
//! window), so at most `log2 slot_count` over a session's life. A
//! [`PolyArena`] keeps free lists of those buffers keyed by length,
//! so a request stream running against one warm session performs **zero
//! fresh buffer allocations** in steady state — every `take` is served from
//! a buffer some earlier operation returned with `put`.
//!
//! Arenas are deliberately not thread-safe: each worker (and each
//! [`Evaluator`](crate::Evaluator) / [`Encryptor`](crate::Encryptor)) owns
//! one privately and pays no synchronization while it serves itself. An
//! [`ArenaPool`] is the shared, mutex-guarded free list a session parks
//! buffers in between checkouts: a checked-out arena starts empty, a `take`
//! its own free lists cannot serve draws from the pool before it allocates,
//! and `restore` drains everything the arena gathered back into the pool.
//! So whichever worker recycles a buffer, the next `take` of that length —
//! by any worker, or by the next request's `bind` — finds it: the number of
//! buffers a session ever allocates is bounded by what one request holds
//! live at once plus what its workers hold privately, however the workers
//! interleave.
//!
//! Every miss and hit of an arena checked out of a pool is counted on that
//! pool ([`ArenaPool::alloc_stats`]): the figures feed the session's
//! telemetry registry and back the allocation-regression tests, which warm
//! a session, replay the request stream and assert the miss count did not
//! move. They are scoped to one pool, so concurrent sessions — or tests —
//! never alias each other's allocation stats.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Free buffers by length class.
type FreeLists = HashMap<usize, Vec<Vec<u64>>>;

/// What every arena checked out of one [`ArenaPool`] shares with it: the
/// parked buffers and the pool's hit/miss counters.
#[derive(Debug, Default)]
struct PoolShared {
    parked: Mutex<FreeLists>,
    fresh: AtomicU64,
    reused: AtomicU64,
}

impl PoolShared {
    fn parked(&self) -> MutexGuard<'_, FreeLists> {
        // Every update is a push or a pop of a whole buffer, so the lists
        // are valid at every step and a poisoned guard is safe to recover.
        self.parked
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A session-scoped snapshot of one [`ArenaPool`]'s allocation counters
/// ([`ArenaPool::alloc_stats`]): pool misses and hits across every arena
/// that was ever checked out of the pool, since the pool was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaPoolStats {
    /// `take` calls that had to allocate a fresh buffer (pool miss).
    pub fresh_allocations: u64,
    /// `take` calls served from a free list (pool hit).
    pub reuses: u64,
}

/// A length-keyed free-list allocator for the `u64` buffers of the hot path
/// (slot vectors and ciphertext payload stripes).
///
/// [`PolyArena::take`] returns a buffer of exactly the requested length with
/// **unspecified contents** — callers fully overwrite it. [`PolyArena::put`]
/// returns a buffer to the free list of its length class. Buffers of
/// different length classes (slots vs. payload stripes, or stripes of
/// different payload degrees) never mix.
#[derive(Debug, Default)]
pub struct PolyArena {
    pools: FreeLists,
    /// The [`ArenaPool`] this arena was checked out of, if any: its parked
    /// buffers back this arena's misses and its counters record them.
    /// Standalone arenas are not counted.
    home: Option<Arc<PoolShared>>,
}

impl PolyArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        PolyArena::default()
    }

    /// Takes a buffer of exactly `len` entries: from this arena's own free
    /// list, else from the buffers parked in the pool it was checked out of,
    /// else a fresh (counted) allocation.
    ///
    /// The returned buffer's contents are unspecified; the caller must
    /// overwrite every entry it reads back.
    pub fn take(&mut self, len: usize) -> Vec<u64> {
        let pooled = self.pools.get_mut(&len).and_then(Vec::pop).or_else(|| {
            let home = self.home.as_ref()?;
            home.parked().get_mut(&len).and_then(Vec::pop)
        });
        if let Some(home) = &self.home {
            let counter = if pooled.is_some() {
                &home.reused
            } else {
                &home.fresh
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        pooled.unwrap_or_else(|| vec![0u64; len])
    }

    /// Returns a buffer to the free list of its length class. Zero-length
    /// buffers are dropped (there is nothing to reuse).
    pub fn put(&mut self, buf: Vec<u64>) {
        if !buf.is_empty() {
            self.pools.entry(buf.len()).or_default().push(buf);
        }
    }

    /// Number of buffers currently parked in the arena, across all length
    /// classes.
    pub fn retained(&self) -> usize {
        self.pools.values().map(Vec::len).sum()
    }

    /// Drops every pooled buffer.
    pub fn clear(&mut self) {
        self.pools.clear();
    }
}

/// A session's shared free lists: workers check an (empty) arena out for
/// the duration of a request and restore it afterwards, which parks every
/// buffer it gathered here — where any later `take` by any arena of this
/// pool finds it. Warm buffers therefore survive across requests and
/// migrate freely between workers.
///
/// The mutex is touched at restore and whenever a checked-out arena cannot
/// serve a `take` from what it recycled itself — at most once per
/// operation, never inside one.
#[derive(Debug, Clone, Default)]
pub struct ArenaPool {
    /// Shared with every arena checked out of this pool (clones of the pool
    /// share it too).
    shared: Arc<PoolShared>,
}

impl ArenaPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ArenaPool::default()
    }

    /// Checks an arena out of the pool: empty itself, backed by the pool's
    /// parked buffers, its hits and misses attributed to this pool.
    pub fn checkout(&self) -> PolyArena {
        PolyArena {
            pools: FreeLists::new(),
            home: Some(Arc::clone(&self.shared)),
        }
    }

    /// Parks every buffer the arena holds in the pool.
    pub fn restore(&self, arena: PolyArena) {
        if arena.pools.is_empty() {
            return;
        }
        let mut parked = self.shared.parked();
        for (len, buffers) in arena.pools {
            parked.entry(len).or_default().extend(buffers);
        }
    }

    /// Recycles one ciphertext's buffers straight into the pool (used for
    /// the request's output ciphertext after decryption, when no worker
    /// arena is checked out any more).
    pub fn recycle(&self, ciphertext: crate::Ciphertext) {
        let mut arena = PolyArena::new();
        ciphertext.recycle_into(&mut arena);
        self.restore(arena);
    }

    /// A snapshot of this pool's allocation counters: pool misses and hits
    /// of every arena ever checked out of it, scoped to this pool (and its
    /// clones), so concurrent sessions each read their own allocation
    /// behavior.
    pub fn alloc_stats(&self) -> ArenaPoolStats {
        ArenaPoolStats {
            fresh_allocations: self.shared.fresh.load(Ordering::Relaxed),
            reuses: self.shared.reused.load(Ordering::Relaxed),
        }
    }

    /// Total buffers parked in the pool (buffers held by checked-out arenas
    /// are not visible).
    pub fn retained(&self) -> usize {
        self.shared.parked().values().map(Vec::len).sum()
    }

    /// The length classes with at least one buffer parked, ascending: a
    /// session's slot vectors beside its payload splats and stripes, which
    /// is how its tests read the slot-vector lengths its runs computed on.
    pub fn parked_lengths(&self) -> Vec<usize> {
        let parked = self.shared.parked();
        let mut lengths: Vec<usize> = parked
            .iter()
            .filter(|(_, buffers)| !buffers.is_empty())
            .map(|(&len, _)| len)
            .collect();
        lengths.sort_unstable();
        lengths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_put_buffers_of_the_same_length() {
        let mut arena = PolyArena::new();
        let mut a = arena.take(16);
        assert_eq!(a.len(), 16);
        a[0] = 7;
        arena.put(a);
        assert_eq!(arena.retained(), 1);
        let b = arena.take(16);
        assert_eq!(b.len(), 16, "reused buffer keeps its length");
        assert_eq!(arena.retained(), 0);
        // A different length class misses the pool.
        let c = arena.take(32);
        assert_eq!(c.len(), 32);
    }

    #[test]
    fn length_classes_never_mix() {
        let mut arena = PolyArena::new();
        arena.put(vec![0; 8]);
        arena.put(vec![0; 16]);
        assert_eq!(arena.take(8).len(), 8);
        assert_eq!(arena.take(16).len(), 16);
        arena.put(vec![0; 8]);
        arena.clear();
        assert_eq!(arena.retained(), 0);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let mut arena = PolyArena::new();
        arena.put(Vec::new());
        assert_eq!(arena.retained(), 0);
    }

    #[test]
    fn pool_scoped_counters_do_not_alias_across_pools() {
        let a = ArenaPool::new();
        let b = ArenaPool::new();
        let mut arena = a.checkout();
        let buf = arena.take(8); // miss
        arena.put(buf);
        let _hit = arena.take(8); // hit
        a.restore(arena);
        assert_eq!(
            a.alloc_stats(),
            ArenaPoolStats {
                fresh_allocations: 1,
                reuses: 1
            }
        );
        // The sibling pool saw none of that traffic...
        assert_eq!(b.alloc_stats(), ArenaPoolStats::default());
        // ...while a clone of the first pool shares its counters.
        assert_eq!(a.clone().alloc_stats(), a.alloc_stats());
    }

    #[test]
    fn restored_buffers_serve_any_later_checkout() {
        let pool = ArenaPool::new();
        let mut arena = pool.checkout();
        arena.put(vec![0; 4]);
        pool.restore(arena);
        assert_eq!(pool.retained(), 1);
        // Two concurrent checkouts: whichever asks first gets the parked
        // buffer, the other allocates.
        let mut a = pool.checkout();
        let mut b = pool.checkout();
        assert_eq!(a.retained() + b.retained(), 0);
        let first = b.take(4);
        assert_eq!(pool.retained(), 0);
        let second = a.take(4);
        assert_eq!(
            pool.alloc_stats(),
            ArenaPoolStats {
                fresh_allocations: 1,
                reuses: 1
            }
        );
        // What one arena recycles, the other's next miss finds once it is
        // restored — buffers never strand in the arena that freed them.
        a.put(first);
        a.put(second);
        pool.restore(a);
        assert_eq!(pool.retained(), 2);
        let _ = (b.take(4), b.take(4));
        assert_eq!(pool.alloc_stats().fresh_allocations, 1);
        pool.restore(b);
    }
}
