//! Content-addressed response cache with in-flight request coalescing.
//!
//! A frozen model's output is a pure function of its input bytes, so the
//! server can memoize responses keyed by `(model, input bits)` and coalesce
//! concurrent identical requests onto one pending computation. The cache is
//! sharded: each shard owns one mutex guarding both its LRU slice *and* its
//! in-flight (pending) table, so the lookup → join → admit decision is one
//! short critical section and the no-lost-wakeup argument is pure mutual
//! exclusion:
//!
//! - `admit` runs the admission-queue send *inside* the shard lock and only
//!   registers a leader after the send succeeds, so a rejected submission
//!   never leaves a pending entry behind;
//! - `complete` (called by the worker that ran the forward) inserts the
//!   result into the LRU and removes the pending entry under the same lock,
//!   so every waiter either attached before removal (and is woken with the
//!   result) or locks afterwards and sees the freshly inserted LRU entry.
//!
//! Keys are 64-bit hashes; a collision must never serve the wrong bytes, so
//! both the LRU and the pending table store the full input row and verify
//! it on every match — a mismatch is treated as a miss, trading a duplicate
//! forward for guaranteed bit-exactness.

use crate::config::CacheConfig;
use crate::payload::Payload;
use crate::request::{InferResponse, SubmitError};
use crossbeam::channel::Sender;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// fxhash-style multiplier (64-bit).
const HASH_K: u64 = 0x517c_c1b7_2722_0a95;
/// FNV-1a 64-bit offset basis, used as the hash seed.
const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(HASH_K)
}

/// Hashes an arbitrary byte string (used to route model names to registry
/// shards). Deterministic across runs and platforms.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = HASH_SEED;
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        h = mix(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = mix(h, u64::from_le_bytes(tail) ^ (rem.len() as u64) << 56);
    }
    mix(h, bytes.len() as u64)
}

/// Content-address of one request: model index plus the exact bit pattern
/// of the input row. `-0.0` and `0.0` hash differently (conservative: equal
/// outputs, but the cache never has to reason about float equality).
pub fn input_key(model: usize, input: &[f32]) -> u64 {
    let mut h = mix(HASH_SEED, model as u64);
    for &v in input {
        h = mix(h, v.to_bits() as u64);
    }
    mix(h, input.len() as u64)
}

/// The same content key as [`input_key`], computed from a shared
/// [`Payload`] without materialising a float slice. For identical bits the
/// two functions produce identical keys, so switching the submit path to
/// shared payloads changes no cache addressing.
pub fn payload_key(model: usize, input: &Payload) -> u64 {
    let mut h = mix(HASH_SEED, model as u64);
    for bits in input.iter_bits() {
        h = mix(h, bits as u64);
    }
    mix(h, input.len() as u64)
}

/// Proof of leadership: handed to the request that is admitted to compute a
/// key, presented back on completion so only the registering leader removes
/// the pending entry (a later generation for the same key is a different
/// computation).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CacheTag {
    pub key: u64,
    pub generation: u64,
}

/// A coalesced request parked on a pending computation.
pub(crate) struct Waiter {
    pub client: u64,
    pub seq: u64,
    pub submitted: Instant,
    pub reply: Sender<InferResponse>,
}

/// Outcome of the lookup → join → admit critical section.
pub(crate) enum AdmitOutcome {
    /// Input-verified cached output; serve it without touching the batcher.
    Hit(Vec<f32>),
    /// Joined an in-flight computation of the same key; the leader's worker
    /// wakes the reply channel.
    Coalesced,
    /// The send closure ran and succeeded: this request is the key's leader.
    Admitted,
    /// The send closure ran and failed; nothing was registered.
    NotAdmitted(SubmitError),
}

struct Pending {
    generation: u64,
    /// Shared with the leader's [`crate::request::InferRequest`] — a
    /// refcount bump, not a copy.
    input: Payload,
    waiters: Vec<Waiter>,
}

/// Slot links use `NIL` as the null index.
const NIL: usize = usize::MAX;

struct Slot {
    key: u64,
    /// Compacted on insert (see [`Payload::compact`]) so a memoized entry
    /// never pins a wire segment; sharing with the completed request is
    /// still a refcount bump in the common owned case.
    input: Payload,
    output: Vec<f32>,
    prev: usize,
    next: usize,
}

/// An intrusive doubly-linked LRU over a slab of slots: O(1) get / insert /
/// evict, no per-operation allocation once warm.
struct Lru {
    map: HashMap<u64, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl Lru {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::with_capacity(capacity.min(1024)),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Input-verified lookup; a hit moves the entry to the front.
    fn get(&mut self, key: u64, input: &Payload) -> Option<&[f32]> {
        let &i = self.map.get(&key)?;
        if !self.slots[i].input.bit_eq(input) {
            // 64-bit collision: different content behind the same key.
            return None;
        }
        self.unlink(i);
        self.push_front(i);
        Some(&self.slots[i].output)
    }

    /// Inserts (or refreshes) an entry, returning how many entries were
    /// evicted to make room.
    fn insert(&mut self, key: u64, input: Payload, output: Vec<f32>) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        if let Some(&i) = self.map.get(&key) {
            let slot = &mut self.slots[i];
            slot.input = input;
            slot.output = output;
            self.unlink(i);
            self.push_front(i);
            return 0;
        }
        let mut evicted = 0;
        while self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL, "non-empty map must have a tail");
            self.unlink(lru);
            self.map.remove(&self.slots[lru].key);
            self.free.push(lru);
            evicted += 1;
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Slot { key, input, output, prev: NIL, next: NIL };
                i
            }
            None => {
                self.slots.push(Slot { key, input, output, prev: NIL, next: NIL });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
        evicted
    }
}

struct Shard {
    lru: Lru,
    pending: HashMap<u64, Pending>,
}

/// Raw counter block of the cache (exported through
/// [`crate::metrics::CacheStats`] at snapshot time).
#[derive(Default)]
pub(crate) struct CacheCounters {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub coalesced: AtomicU64,
    pub insertions: AtomicU64,
    pub evictions: AtomicU64,
}

/// The two-level serving cache: sharded LRU result store + in-flight table.
pub(crate) struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    /// `capacity == 0` disables memoization but keeps in-flight dedup.
    memoize: bool,
    capacity: usize,
    generation: AtomicU64,
    pub counters: CacheCounters,
}

impl ResponseCache {
    pub fn new(config: &CacheConfig) -> Self {
        let shards = config.shards.max(1);
        let per_shard = config.capacity.div_ceil(shards);
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard { lru: Lru::new(per_shard), pending: HashMap::new() }))
                .collect(),
            memoize: config.capacity > 0,
            capacity: config.capacity,
            generation: AtomicU64::new(0),
            counters: CacheCounters::default(),
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn shard_index(&self, key: u64) -> usize {
        // High bits: the low bits already picked the slot within the shard
        // maps, and the fx multiply mixes best upward.
        (key >> 32) as usize % self.shards.len()
    }

    /// Entries currently memoized, across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().lru.len()).sum()
    }

    /// In-flight (pending) computations, across all shards.
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(|s| s.lock().pending.len()).sum()
    }

    /// Snapshot of the cache's counters and occupancy.
    pub fn stats(&self) -> crate::metrics::CacheStats {
        let hits = self.counters.hits.load(Ordering::Relaxed);
        let misses = self.counters.misses.load(Ordering::Relaxed);
        let coalesced = self.counters.coalesced.load(Ordering::Relaxed);
        let looked = hits + misses + coalesced;
        crate::metrics::CacheStats {
            enabled: true,
            capacity: self.capacity(),
            shards: self.shard_count(),
            entries: self.len(),
            in_flight: self.in_flight(),
            hits,
            misses,
            coalesced,
            hit_rate: if looked == 0 { 0.0 } else { hits as f64 / looked as f64 },
            insertions: self.counters.insertions.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
        }
    }

    /// The lookup → join → admit critical section (see module docs).
    ///
    /// `waiter` is only invoked when the request coalesces; `send` is only
    /// invoked on a genuine miss and must be the non-blocking admission-queue
    /// send (it runs under the shard lock, so it must not block or take any
    /// lock that could be held while calling [`ResponseCache::complete`]).
    pub fn admit(
        &self,
        key: u64,
        input: &Payload,
        waiter: impl FnOnce() -> Waiter,
        send: impl FnOnce(CacheTag) -> Result<(), SubmitError>,
    ) -> AdmitOutcome {
        let mut shard = self.shards[self.shard_index(key)].lock();
        if let Some(output) = shard.lru.get(key, input) {
            let output = output.to_vec();
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return AdmitOutcome::Hit(output);
        }
        if let Some(pending) = shard.pending.get_mut(&key) {
            if pending.input.bit_eq(input) {
                pending.waiters.push(waiter());
                self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                return AdmitOutcome::Coalesced;
            }
            // Collision: a different input owns this key's pending slot.
            // Fall through and admit without registering (the request still
            // computes correctly; it just gets no dedup).
        }
        let tag = CacheTag { key, generation: self.generation.fetch_add(1, Ordering::Relaxed) };
        match send(tag) {
            Ok(()) => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                shard.pending.entry(key).or_insert_with(|| Pending {
                    generation: tag.generation,
                    input: input.clone(),
                    waiters: Vec::new(),
                });
                AdmitOutcome::Admitted
            }
            Err(e) => AdmitOutcome::NotAdmitted(e),
        }
    }

    /// Publishes a leader's computed result: memoizes it, removes the
    /// pending entry (generation-checked) and returns its waiters, each
    /// paired with a completion index drawn from `assign_index` *inside* the
    /// critical section — so a cache hit racing with this wake-up always
    /// observes a larger index than every waiter (per-client FIFO for
    /// same-key streams).
    pub fn complete(
        &self,
        tag: CacheTag,
        input: Payload,
        output: &[f32],
        mut assign_index: impl FnMut() -> u64,
    ) -> Vec<(Waiter, u64)> {
        let mut shard = self.shards[self.shard_index(tag.key)].lock();
        if self.memoize {
            let evicted = shard.lru.insert(tag.key, input.compact(), output.to_vec());
            self.counters.insertions.fetch_add(1, Ordering::Relaxed);
            self.counters.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        let owns = shard.pending.get(&tag.key).is_some_and(|p| p.generation == tag.generation);
        if !owns {
            return Vec::new();
        }
        let pending = shard.pending.remove(&tag.key).expect("checked above");
        pending.waiters.into_iter().map(|w| (w, assign_index())).collect()
    }

    /// Abandons a leader's computation without memoizing anything: removes
    /// the pending entry (generation-checked) and returns its waiters so
    /// the caller can answer them with the same failure the leader got
    /// (e.g. the pod went down before the forward could run). Completion
    /// indices are assigned inside the critical section, exactly as in
    /// [`ResponseCache::complete`], so failure wake-ups keep the same-key
    /// FIFO ordering guarantees.
    pub fn fail(&self, tag: CacheTag, mut assign_index: impl FnMut() -> u64) -> Vec<(Waiter, u64)> {
        let mut shard = self.shards[self.shard_index(tag.key)].lock();
        let owns = shard.pending.get(&tag.key).is_some_and(|p| p.generation == tag.generation);
        if !owns {
            return Vec::new();
        }
        let pending = shard.pending.remove(&tag.key).expect("checked above");
        pending.waiters.into_iter().map(|w| (w, assign_index())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ResponseHandle;

    fn config(capacity: usize, shards: usize) -> CacheConfig {
        CacheConfig { enabled: true, capacity, shards }
    }

    fn waiter() -> Waiter {
        let (reply, _handle) = ResponseHandle::channel();
        Waiter { client: 0, seq: 0, submitted: Instant::now(), reply }
    }

    #[test]
    fn hash_is_deterministic_and_input_sensitive() {
        let a = input_key(0, &[1.0, 2.0, 3.0]);
        assert_eq!(a, input_key(0, &[1.0, 2.0, 3.0]));
        let p: Payload = vec![1.0f32, 2.0, 3.0].into();
        assert_eq!(a, payload_key(0, &p), "payload_key matches input_key bit-for-bit");
        assert_ne!(a, input_key(1, &[1.0, 2.0, 3.0]), "model index is part of the key");
        let one_ulp_off = f32::from_bits(3.0f32.to_bits() + 1);
        assert_ne!(a, input_key(0, &[1.0, 2.0, one_ulp_off]), "input bits are part of the key");
        assert_ne!(a, input_key(0, &[1.0, 2.0]), "length is part of the key");
        assert_ne!(input_key(0, &[0.0]), input_key(0, &[-0.0]), "bit-pattern keyed");
        assert_ne!(hash_bytes(b"butterfly"), hash_bytes(b"baseline"));
    }

    #[test]
    fn miss_then_hit_roundtrip() {
        let cache = ResponseCache::new(&config(8, 2));
        let input: Payload = vec![0.5f32; 16].into();
        let key = payload_key(0, &input);
        let mut tag = None;
        match cache.admit(key, &input, waiter, |t| {
            tag = Some(t);
            Ok(())
        }) {
            AdmitOutcome::Admitted => {}
            _ => panic!("first lookup must admit"),
        }
        let woken = cache.complete(tag.expect("send ran"), input.clone(), &[9.0, 8.0], || 0);
        assert!(woken.is_empty(), "no waiters attached");
        match cache.admit(key, &input, waiter, |_| panic!("hit must not send")) {
            AdmitOutcome::Hit(output) => assert_eq!(output, vec![9.0, 8.0]),
            _ => panic!("second lookup must hit"),
        }
        assert_eq!(cache.counters.hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache.counters.misses.load(Ordering::Relaxed), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_same_key_coalesces_and_wakes_in_attach_order() {
        let cache = ResponseCache::new(&config(8, 1));
        let input: Payload = vec![1.5f32; 4].into();
        let key = payload_key(3, &input);
        let mut tag = None;
        assert!(matches!(
            cache.admit(key, &input, waiter, |t| {
                tag = Some(t);
                Ok(())
            }),
            AdmitOutcome::Admitted
        ));
        for seq in 0..5u64 {
            let outcome = cache.admit(
                key,
                &input,
                || {
                    let (reply, _h) = ResponseHandle::channel();
                    Waiter { client: 7, seq, submitted: Instant::now(), reply }
                },
                |_| panic!("pending key must coalesce, not send"),
            );
            assert!(matches!(outcome, AdmitOutcome::Coalesced));
        }
        assert_eq!(cache.in_flight(), 1);
        let mut next = 100u64;
        let woken = cache.complete(tag.expect("sent"), input, &[1.0], || {
            next += 1;
            next
        });
        assert_eq!(woken.len(), 5, "every waiter woken exactly once");
        for (i, (w, idx)) in woken.iter().enumerate() {
            assert_eq!(w.seq, i as u64, "attach order preserved");
            assert_eq!(*idx, 101 + i as u64, "indices assigned in attach order");
        }
        assert_eq!(cache.in_flight(), 0);
        assert_eq!(cache.counters.coalesced.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn rejected_send_registers_nothing() {
        let cache = ResponseCache::new(&config(8, 1));
        let input: Payload = vec![2.0f32; 4].into();
        let key = payload_key(0, &input);
        let outcome = cache.admit(key, &input, waiter, |_| Err(SubmitError::Overloaded));
        assert!(matches!(outcome, AdmitOutcome::NotAdmitted(SubmitError::Overloaded)));
        assert_eq!(cache.in_flight(), 0, "failed admission must not strand a pending entry");
        assert_eq!(cache.counters.misses.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn colliding_key_with_different_input_never_serves_wrong_bytes() {
        let cache = ResponseCache::new(&config(8, 1));
        let a: Payload = vec![1.0f32; 4].into();
        let b: Payload = vec![2.0f32; 4].into();
        let key = 42u64; // force a "collision" by reusing the key directly
        let mut tag = None;
        assert!(matches!(
            cache.admit(key, &a, waiter, |t| {
                tag = Some(t);
                Ok(())
            }),
            AdmitOutcome::Admitted
        ));
        // Same key, different content: must not coalesce onto a's pending
        // entry, must admit its own computation.
        let mut tag_b = None;
        assert!(matches!(
            cache.admit(key, &b, waiter, |t| {
                tag_b = Some(t);
                Ok(())
            }),
            AdmitOutcome::Admitted
        ));
        cache.complete(tag.expect("sent"), a.clone(), &[10.0], || 0);
        // b's completion has a non-matching generation: wakes nobody, but
        // overwrites the LRU slot (last writer wins; gets verify anyway).
        cache.complete(tag_b.expect("sent"), b.clone(), &[20.0], || 0);
        match cache.admit(key, &b, waiter, |_| Ok(())) {
            AdmitOutcome::Hit(out) => assert_eq!(out, vec![20.0]),
            _ => panic!("b should hit its own entry"),
        }
        // a's content no longer matches the stored input: verified miss.
        assert!(matches!(cache.admit(key, &a, waiter, |_| Ok(())), AdmitOutcome::Admitted));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let cache = ResponseCache::new(&config(2, 1));
        let inputs: Vec<Payload> = (0..3).map(|i| Payload::from(vec![i as f32; 2])).collect();
        let keys: Vec<u64> = inputs.iter().map(|x| payload_key(0, x)).collect();
        for (key, input) in keys.iter().zip(&inputs).take(2) {
            let mut tag = None;
            cache.admit(*key, input, waiter, |t| {
                tag = Some(t);
                Ok(())
            });
            cache.complete(tag.expect("sent"), input.clone(), &[*key as f32], || 0);
        }
        // Touch entry 0 so entry 1 is the LRU victim.
        assert!(matches!(
            cache.admit(keys[0], &inputs[0], waiter, |_| Ok(())),
            AdmitOutcome::Hit(_)
        ));
        let mut tag = None;
        cache.admit(keys[2], &inputs[2], waiter, |t| {
            tag = Some(t);
            Ok(())
        });
        cache.complete(tag.expect("sent"), inputs[2].clone(), &[2.0], || 0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.counters.evictions.load(Ordering::Relaxed), 1);
        assert!(
            matches!(cache.admit(keys[0], &inputs[0], waiter, |_| Ok(())), AdmitOutcome::Hit(_)),
            "recently-touched entry survives"
        );
        assert!(
            matches!(cache.admit(keys[1], &inputs[1], waiter, |_| Ok(())), AdmitOutcome::Admitted),
            "LRU entry was evicted"
        );
    }

    #[test]
    fn fail_wakes_waiters_without_memoizing() {
        let cache = ResponseCache::new(&config(8, 1));
        let input: Payload = vec![5.0f32; 4].into();
        let key = payload_key(0, &input);
        let mut tag = None;
        assert!(matches!(
            cache.admit(key, &input, waiter, |t| {
                tag = Some(t);
                Ok(())
            }),
            AdmitOutcome::Admitted
        ));
        assert!(matches!(
            cache.admit(key, &input, waiter, |_| panic!("must coalesce")),
            AdmitOutcome::Coalesced
        ));
        let woken = cache.fail(tag.expect("sent"), || 3);
        assert_eq!(woken.len(), 1, "the waiter is handed back for a failure answer");
        assert_eq!(woken[0].1, 3);
        assert_eq!(cache.in_flight(), 0);
        assert_eq!(cache.len(), 0, "nothing memoized on failure");
        assert!(
            matches!(cache.admit(key, &input, waiter, |_| Ok(())), AdmitOutcome::Admitted),
            "the key is free to compute again"
        );
        // A stale tag (wrong generation) wakes nobody.
        assert!(cache.fail(CacheTag { key, generation: u64::MAX }, || 0).is_empty());
    }

    #[test]
    fn zero_capacity_keeps_dedup_but_memoizes_nothing() {
        let cache = ResponseCache::new(&config(0, 2));
        let input: Payload = vec![4.0f32; 4].into();
        let key = payload_key(0, &input);
        let mut tag = None;
        assert!(matches!(
            cache.admit(key, &input, waiter, |t| {
                tag = Some(t);
                Ok(())
            }),
            AdmitOutcome::Admitted
        ));
        assert!(matches!(
            cache.admit(key, &input, waiter, |_| panic!("must coalesce")),
            AdmitOutcome::Coalesced
        ));
        let woken = cache.complete(tag.expect("sent"), input.clone(), &[1.0], || 7);
        assert_eq!(woken.len(), 1);
        assert_eq!(cache.len(), 0, "nothing memoized at capacity 0");
        assert!(
            matches!(cache.admit(key, &input, waiter, |_| Ok(())), AdmitOutcome::Admitted),
            "no result store: the next request recomputes"
        );
    }
}
