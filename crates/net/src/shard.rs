//! The sharded event-queue runtime: N per-shard clocks with conservative
//! cross-shard synchronization.
//!
//! [`ShardedNetwork`] partitions the ring's nodes into `n` **shards** by
//! contiguous ring-identifier range. Each shard owns its own constant-δ
//! [`BucketQueue`], its own local virtual clock and its own traffic buffer,
//! and is driven by one persistent worker thread, whatever the shard count
//! or the host's core count. Intra-shard messages are scheduled straight
//! into the shard's own queue; cross-shard messages go through a per-shard
//! inbox (the outbox/inbox exchange) and lower the receiving shard's
//! published event watermark.
//! A worker with nothing safe to process spins briefly and then parks on a
//! shared progress condvar, so shards that outnumber the cores (down to a
//! single core) time-slice without stalling the protocol.
//!
//! # The watermark protocol
//!
//! Every shard publishes a **low watermark** `low_s`: the smallest tick it
//! might still process (its current tick while mid-tick, else the earliest
//! arrival in its queue/inbox, else `∞`). Because every link has the same
//! constant delay δ ≥ 1, a shard processing tick `t` can only produce
//! arrivals at `max(clock, t) + δ > t` — so a shard may safely process its
//! next tick `t` as soon as
//!
//! ```text
//! t  <  min over all shards of low  +  δ
//! ```
//!
//! holds: no shard will ever emit a message arriving at or before `t`
//! again. This is the classic conservative (Chandy–Misra–Bryant) null-
//! message rule with lookahead δ, collapsed into shared-memory atomics: the
//! "null messages" are `fetch_max`/`fetch_min` updates of per-shard
//! watermark words, so synchronization costs a few atomic operations per
//! tick instead of a global barrier. δ ≥ 1 makes the protocol deadlock-free:
//! the shard holding the globally minimal watermark always satisfies the
//! rule for its own next tick (its own `low` *is* the minimum), processes
//! it, and thereby raises the minimum for everyone else.
//!
//! A second per-shard word, `handled_through`, records the last tick whose
//! **handlers** have all run. It is published *before* the shard applies the
//! tick's effects, which lets another shard's effect phase perform a
//! blocking-but-deadlock-free remote state read (the engine's RIC rate
//! lookups): a reader mid-tick `t` waits for `handled_through ≥ t`, and the
//! provider can always reach that point because running handlers never
//! blocks on remote state.
//!
//! # Determinism
//!
//! The global `(at, seq)` order of the single-queue [`Network`] cannot be
//! reproduced without serializing the run, so the sharded runtime replaces
//! the sequence counter with a **lineage**: a 128-bit identity derived by
//! hash-chaining from the message's causal parent ([`root_lineage`] /
//! [`child_lineage`]). Lineages are a pure function of the dataflow — they
//! do not depend on the shard count or on thread interleaving — so sorting
//! each tick's bucket by lineage gives every node a delivery order that is
//! identical across shard counts and across repeated runs.
//!
//! [`Network`]: crate::Network

use crate::queue::BucketQueue;
use crate::{KeyRouter, SimTime, TrafficClass, Transport};
use rjoin_dht::{ChordNetwork, DhtError, Id, LookupResult};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// The causal identity of one in-flight message under the sharded runtime:
/// a 128-bit hash chained from the message's parent. Within one tick,
/// deliveries are processed in ascending lineage order.
pub type Lineage = u128;

/// Sorts one drained bucket into ascending lineage order.
///
/// Message payloads are large (a pending query carries its whole rewritten
/// AST), so rather than letting a comparison sort shuffle them `n log n`
/// times, the 24-byte `(lineage, index)` pairs are sorted and the payloads
/// gathered once.
fn sort_by_lineage<M>(
    bucket: std::collections::VecDeque<ShardDelivery<M>>,
) -> Vec<ShardDelivery<M>> {
    if bucket.len() <= 1 {
        return bucket.into_iter().collect();
    }
    let mut slots: Vec<Option<ShardDelivery<M>>> = bucket.into_iter().map(Some).collect();
    let mut order: Vec<(Lineage, u32)> = slots
        .iter()
        .enumerate()
        .map(|(i, d)| (d.as_ref().expect("freshly filled").lineage, i as u32))
        .collect();
    order.sort_unstable();
    order
        .into_iter()
        .map(|(_, i)| slots[i as usize].take().expect("each index gathered once"))
        .collect()
}

#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lineage of the `i`-th root message of a drain (the messages already in
/// flight when the sharded run starts, numbered in their global `(at, seq)`
/// order). Roots are numbered identically whatever the shard count, so root
/// lineages are shard-count-invariant by construction.
pub fn root_lineage(i: u64) -> Lineage {
    let lo = mix64(i ^ 0xA076_1D64_78BD_642F);
    let hi = mix64(i ^ 0xE703_7ED1_A0B4_28DB);
    ((hi as u128) << 64) | (lo as u128)
}

/// Lineage of the `k`-th message sent while processing the delivery with
/// lineage `parent`. Hash-chaining keeps the identity a pure function of
/// the dataflow, so it is stable across shard counts; 128 bits make a
/// collision (which would make the intra-tick sort order ambiguous)
/// astronomically unlikely even across billions of messages.
pub fn child_lineage(parent: Lineage, k: u64) -> Lineage {
    let salt = mix64(k ^ 0x8EBC_6AF0_9C88_C6E3);
    let lo = mix64((parent as u64) ^ salt);
    let hi = mix64(((parent >> 64) as u64) ^ mix64(salt ^ 0x5896_59B2_29A6_0AED));
    ((hi as u128) << 64) | (lo as u128)
}

/// A 64-bit seed derived from `(base seed, lineage, k)` — the per-decision
/// randomness source of lineage-deterministic drivers (the engine seeds one
/// placement RNG per decision from the triggering delivery's lineage, so
/// decisions are independent of execution order and shard count). Lives
/// next to the lineage constructors so all lineage-derived hashing shares
/// one mixer.
pub fn lineage_seed(base: u64, lineage: Lineage, k: u64) -> u64 {
    let lo = lineage as u64;
    let hi = (lineage >> 64) as u64;
    mix64(base ^ mix64(lo ^ mix64(hi ^ mix64(k))))
}

/// A delivery scheduled under the sharded runtime.
#[derive(Debug)]
pub struct ShardDelivery<M> {
    /// Arrival tick.
    pub at: SimTime,
    /// Causal identity; the intra-tick order key.
    pub lineage: Lineage,
    /// Receiving node.
    pub to: Id,
    /// Originating node.
    pub from: Id,
    /// The payload.
    pub msg: M,
}

/// Assignment of ring nodes to shards by contiguous identifier range.
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// First node identifier of each shard's range, ascending. Identifiers
    /// below `starts[0]` wrap around to the last shard.
    starts: Vec<Id>,
}

impl ShardMap {
    /// Splits `node_ids` (any order) into `shards` contiguous ranges of
    /// near-equal node count. `shards` is clamped to `1..=node_ids.len()`.
    pub fn new(node_ids: &[Id], shards: usize) -> Self {
        let mut sorted: Vec<Id> = node_ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let shards = shards.clamp(1, sorted.len().max(1));
        let chunk = sorted.len().div_ceil(shards.max(1)).max(1);
        let starts: Vec<Id> = sorted.chunks(chunk).map(|c| c[0]).collect();
        ShardMap { starts: if starts.is_empty() { vec![Id(0)] } else { starts } }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.starts.len()
    }

    /// The shard responsible for ring identifier `id`. Identifiers below the
    /// first range start wrap to the last shard (ring order).
    pub fn shard_of(&self, id: Id) -> usize {
        let idx = self.starts.partition_point(|s| *s <= id);
        if idx == 0 {
            self.starts.len() - 1
        } else {
            idx - 1
        }
    }
}

/// Published synchronization state of one shard.
#[derive(Debug)]
struct ShardSync {
    /// Low watermark: smallest tick this shard might still process.
    low: AtomicU64,
    /// Handlers of all deliveries with `at <=` this value have run.
    handled_through: AtomicU64,
}

/// The per-worker (thread-owned) half of one shard.
#[derive(Debug)]
pub struct ShardLocal<M> {
    shard: usize,
    queue: BucketQueue<ShardDelivery<M>>,
    /// Sequential-semantics clock: `max(floor, last processed tick)`. Sends
    /// are scheduled `clock + δ`, exactly as under the single queue.
    clock: SimTime,
    traffic: crate::TrafficStats,
    /// Ticks this worker processed.
    pub ticks: u64,
    /// Deliveries this worker processed.
    pub deliveries: u64,
    /// Times this worker's effect phase blocked on a remote watermark.
    pub blocked_reads: u64,
}

/// Outcome of one [`ShardHandle::poll`] call.
#[derive(Debug)]
pub enum ShardPoll<M> {
    /// The next safe tick of this shard, with its deliveries sorted by
    /// lineage and the shard's (floor-clamped) clock after advancing to it.
    Tick {
        /// The arrival tick being processed.
        tick: SimTime,
        /// The shard clock, i.e. `max(floor, tick)`.
        now: SimTime,
        /// The tick's deliveries in ascending lineage order.
        deliveries: Vec<ShardDelivery<M>>,
    },
    /// No message is in flight anywhere: the drain is complete.
    Quiescent,
    /// Another worker aborted the run.
    Aborted,
}

/// The sharded event-queue runtime for one drain.
///
/// Built from the shared Chord ring plus the global queue's in-flight
/// messages; per-shard state is handed to worker threads via
/// [`take_local`](Self::take_local) and driven through [`ShardHandle`]s.
#[derive(Debug)]
pub struct ShardedNetwork<'a, M> {
    dht: &'a ChordNetwork,
    delay: SimTime,
    floor: SimTime,
    map: ShardMap,
    sync: Vec<ShardSync>,
    inboxes: Vec<Mutex<Vec<ShardDelivery<M>>>>,
    inflight: AtomicU64,
    max_now: AtomicU64,
    aborted: AtomicBool,
    progress: Mutex<u64>,
    progress_cv: Condvar,
    locals: Vec<Option<ShardLocal<M>>>,
    roots: u64,
}

impl<'a, M> ShardedNetwork<'a, M> {
    /// Creates the runtime: `shards` per-shard queues over the nodes of
    /// `node_ids`, message delay `delay`, all clocks starting at `floor`
    /// (the global clock when the drain begins).
    pub fn new(
        dht: &'a ChordNetwork,
        delay: SimTime,
        floor: SimTime,
        node_ids: &[Id],
        shards: usize,
    ) -> Self {
        let map = ShardMap::new(node_ids, shards);
        let n = map.shards();
        ShardedNetwork {
            dht,
            delay: delay.max(1),
            floor,
            map,
            sync: (0..n)
                .map(|_| ShardSync {
                    low: AtomicU64::new(u64::MAX),
                    handled_through: AtomicU64::new(0),
                })
                .collect(),
            inboxes: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            inflight: AtomicU64::new(0),
            max_now: AtomicU64::new(floor),
            aborted: AtomicBool::new(false),
            progress: Mutex::new(0),
            progress_cv: Condvar::new(),
            locals: (0..n)
                .map(|shard| {
                    Some(ShardLocal {
                        shard,
                        queue: BucketQueue::new(),
                        clock: floor,
                        traffic: crate::TrafficStats::new(),
                        ticks: 0,
                        deliveries: 0,
                        blocked_reads: 0,
                    })
                })
                .collect(),
            roots: 0,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.map.shards()
    }

    /// The shard that owns node `id`.
    pub fn shard_of(&self, id: Id) -> usize {
        self.map.shard_of(id)
    }

    /// The shard-range map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The drain's starting clock.
    pub fn floor(&self) -> SimTime {
        self.floor
    }

    /// The highest clock value any shard reached (the global clock after the
    /// drain).
    pub fn final_clock(&self) -> SimTime {
        self.max_now.load(Ordering::SeqCst)
    }

    /// Seeds one already-in-flight message (called before the workers start,
    /// in the global `(at, seq)` pop order of the single queue so root
    /// lineages are shard-count-invariant).
    pub fn seed(&mut self, at: SimTime, to: Id, from: Id, msg: M) {
        let lineage = root_lineage(self.roots);
        self.roots += 1;
        let shard = self.map.shard_of(to);
        let local = self.locals[shard].as_mut().expect("seeding happens before take_local");
        local.queue.push(at, ShardDelivery { at, lineage, to, from, msg });
        let low = local.queue.next_time().unwrap_or(u64::MAX);
        self.sync[shard].low.store(low, Ordering::SeqCst);
        *self.inflight.get_mut() += 1;
    }

    /// Hands out shard `i`'s thread-owned state. Panics if taken twice.
    pub fn take_local(&mut self, shard: usize) -> ShardLocal<M> {
        self.locals[shard].take().expect("each shard's local state is taken exactly once")
    }

    /// Marks the run aborted (a worker hit an error); all other workers see
    /// [`ShardPoll::Aborted`] on their next poll and blocked waits return.
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        self.bump();
    }

    /// Whether the run was aborted.
    fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    fn bump(&self) {
        let mut gen = self.progress.lock().expect("progress lock");
        *gen = gen.wrapping_add(1);
        self.progress_cv.notify_all();
    }

    /// Spins briefly, then parks on the progress condvar until `pred` holds.
    /// A 1 ms timeout re-checks the predicate unconditionally, so no lost
    /// wakeup can hang the run.
    fn wait_until(&self, pred: impl Fn() -> bool) {
        for _ in 0..128 {
            if pred() {
                return;
            }
            std::hint::spin_loop();
        }
        loop {
            if pred() {
                return;
            }
            let gen = self.progress.lock().expect("progress lock");
            if pred() {
                return;
            }
            let start = *gen;
            let (gen, _) = self
                .progress_cv
                .wait_timeout_while(gen, Duration::from_millis(1), |g| *g == start)
                .expect("progress lock");
            drop(gen);
        }
    }

    fn global_min_low(&self) -> u64 {
        self.sync.iter().map(|s| s.low.load(Ordering::SeqCst)).min().unwrap_or(u64::MAX)
    }
}

/// One worker's view of the sharded runtime: its owned [`ShardLocal`] plus
/// the shared fabric. Implements [`Transport`] for the effect phase.
#[derive(Debug)]
pub struct ShardHandle<'n, 'a, M> {
    net: &'n ShardedNetwork<'a, M>,
    local: ShardLocal<M>,
    /// Lineage of the delivery whose effects are being applied.
    parent: Lineage,
    /// Sends performed while applying the current delivery's effects.
    children: u64,
}

impl<'n, 'a, M> ShardHandle<'n, 'a, M> {
    /// Wraps a taken [`ShardLocal`] for use on a worker thread.
    pub fn new(net: &'n ShardedNetwork<'a, M>, local: ShardLocal<M>) -> Self {
        ShardHandle { net, local, parent: 0, children: 0 }
    }

    /// This worker's shard index.
    pub fn shard(&self) -> usize {
        self.local.shard
    }

    /// The shard that owns node `id`.
    pub fn shard_of(&self, id: Id) -> usize {
        self.net.map.shard_of(id)
    }

    /// Returns the thread-owned state (after the drain, for merging).
    pub fn into_local(self) -> ShardLocal<M> {
        self.local
    }

    /// Read access to this shard's traffic buffer.
    pub fn traffic(&self) -> &crate::TrafficStats {
        &self.local.traffic
    }

    /// Sets the causal parent for subsequent sends: every message scheduled
    /// until the next call gets lineage `child_lineage(parent, k)` with `k`
    /// counting up from 0.
    pub fn begin_effect(&mut self, parent: Lineage) {
        self.parent = parent;
        self.children = 0;
    }

    /// Drains the inbox into the local queue and publishes the shard's low
    /// watermark. Loops until the inbox is observed empty *after* the
    /// publish, so a racing cross-shard push can never be missed.
    fn sync_low(&mut self) {
        loop {
            let drained: Vec<ShardDelivery<M>> = {
                let mut inbox = self.net.inboxes[self.local.shard].lock().expect("inbox lock");
                std::mem::take(&mut *inbox)
            };
            for d in drained {
                self.local.queue.push(d.at, d);
            }
            let low = self.local.queue.next_time().unwrap_or(u64::MAX);
            self.net.sync[self.local.shard].low.store(low, Ordering::SeqCst);
            if self.net.inboxes[self.local.shard].lock().expect("inbox lock").is_empty() {
                return;
            }
        }
    }

    /// Blocks until the next safe tick for this shard, global quiescence, or
    /// an abort. The returned deliveries are sorted by lineage.
    pub fn poll(&mut self) -> ShardPoll<M> {
        loop {
            if self.net.is_aborted() {
                return ShardPoll::Aborted;
            }
            self.sync_low();
            let next = self.local.queue.next_time();
            let g = self.net.global_min_low();
            if let Some(t) = next {
                if t < g.saturating_add(self.net.delay) {
                    let (at, bucket) =
                        self.local.queue.pop_bucket().expect("next_time returned Some");
                    debug_assert_eq!(at, t);
                    let deliveries = sort_by_lineage(bucket);
                    self.local.clock = self.local.clock.max(t);
                    self.local.ticks += 1;
                    self.local.deliveries += deliveries.len() as u64;
                    // `low` stays at `t` (published by sync_low) while this
                    // tick is being processed: peers may not run past it.
                    return ShardPoll::Tick { tick: t, now: self.local.clock, deliveries };
                }
            }
            if self.net.inflight.load(Ordering::SeqCst) == 0 {
                return ShardPoll::Quiescent;
            }
            // Idle: nothing processable below the global bound. Everything
            // strictly below min(next, g + δ) is settled — raise the handled
            // watermark so remote readers blocked on this shard make
            // progress, then sleep until the picture changes.
            let bound = next.unwrap_or(u64::MAX).min(g.saturating_add(self.net.delay));
            if bound > 0 {
                let prev = self.net.sync[self.local.shard]
                    .handled_through
                    .fetch_max(bound - 1, Ordering::SeqCst);
                if prev < bound - 1 {
                    self.net.bump();
                }
            }
            let net = self.net;
            let shard = self.local.shard;
            net.wait_until(|| {
                net.is_aborted()
                    || net.inflight.load(Ordering::SeqCst) == 0
                    || net.global_min_low() != g
                    || !net.inboxes[shard].lock().expect("inbox lock").is_empty()
            });
        }
    }

    /// Publishes that every handler of tick `t` has run on this shard.
    /// Must be called between the handler phase and the effect phase, so
    /// remote readers can proceed while this shard applies effects.
    pub fn mark_handled(&self, t: SimTime) {
        self.net.sync[self.local.shard].handled_through.fetch_max(t, Ordering::SeqCst);
        self.net.bump();
    }

    /// Completes the current tick: `n` deliveries leave the in-flight set
    /// and the global clock high-water mark advances to `now`.
    pub fn finish_tick(&mut self, n: usize, now: SimTime) {
        self.net.max_now.fetch_max(now, Ordering::SeqCst);
        self.net.inflight.fetch_sub(n as u64, Ordering::SeqCst);
        self.net.bump();
    }

    /// Blocks until shard `shard`'s handlers have run through tick `t`.
    /// Returns `false` if the run was aborted while waiting. Deadlock-free:
    /// providers publish `handled_through` before their own effect phase,
    /// and idle shards keep raising it as the global watermark advances.
    pub fn wait_handled(&mut self, shard: usize, t: SimTime) -> bool {
        if shard == self.local.shard
            || self.net.sync[shard].handled_through.load(Ordering::SeqCst) >= t
        {
            return true;
        }
        self.local.blocked_reads += 1;
        let net = self.net;
        net.wait_until(|| {
            net.is_aborted() || net.sync[shard].handled_through.load(Ordering::SeqCst) >= t
        });
        !net.is_aborted()
    }

    /// Schedules `msg` for delivery to node `to` one delay bound from now.
    fn schedule(&mut self, to: Id, from: Id, msg: M) {
        let at = self.local.clock + self.net.delay;
        let lineage = child_lineage(self.parent, self.children);
        self.children += 1;
        let delivery = ShardDelivery { at, lineage, to, from, msg };
        let target = self.net.map.shard_of(to);
        self.net.inflight.fetch_add(1, Ordering::SeqCst);
        if target == self.local.shard {
            self.local.traffic.record_shard_hop(false);
            self.local.queue.push(at, delivery);
        } else {
            self.local.traffic.record_shard_hop(true);
            self.net.inboxes[target].lock().expect("inbox lock").push(delivery);
            self.net.sync[target].low.fetch_min(at, Ordering::SeqCst);
        }
    }
}

impl<M> KeyRouter for ShardHandle<'_, '_, M> {
    fn owner_of(&self, key_id: Id) -> Result<Id, DhtError> {
        self.net.dht.successor_of(key_id)
    }
}

impl<M> Transport<M> for ShardHandle<'_, '_, M> {
    fn now(&self) -> SimTime {
        self.local.clock
    }

    fn delay(&self) -> SimTime {
        self.net.delay
    }

    fn send(
        &mut self,
        from: Id,
        key_id: Id,
        msg: M,
        class: TrafficClass,
    ) -> Result<LookupResult, DhtError> {
        let result = self.net.dht.lookup_stable(from, key_id)?;
        crate::traffic::account_route(&mut self.local.traffic, result.path(), class);
        self.local.traffic.record_received(result.owner);
        self.schedule(result.owner, from, msg);
        Ok(result)
    }

    fn send_direct(&mut self, from: Id, to: Id, msg: M, class: TrafficClass) {
        self.local.traffic.record_sent(from, class);
        self.local.traffic.record_received(to);
        self.schedule(to, from, msg);
    }

    fn charge_route(
        &mut self,
        from: Id,
        key_id: Id,
        class: TrafficClass,
    ) -> Result<LookupResult, DhtError> {
        let result = self.net.dht.lookup_stable(from, key_id)?;
        crate::traffic::account_route(&mut self.local.traffic, result.path(), class);
        Ok(result)
    }

    fn charge_direct(&mut self, from: Id, class: TrafficClass) {
        self.local.traffic.record_sent(from, class);
    }
}

impl<M> ShardLocal<M> {
    /// This shard's index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The shard's traffic buffer (merged into the global stats after the
    /// drain).
    pub fn traffic(&self) -> &crate::TrafficStats {
        &self.traffic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineages_are_stable_and_distinct() {
        assert_eq!(root_lineage(7), root_lineage(7));
        assert_ne!(root_lineage(7), root_lineage(8));
        let p = root_lineage(3);
        assert_eq!(child_lineage(p, 0), child_lineage(p, 0));
        assert_ne!(child_lineage(p, 0), child_lineage(p, 1));
        assert_ne!(child_lineage(p, 0), child_lineage(root_lineage(4), 0));
    }

    #[test]
    fn shard_map_partitions_contiguously_and_covers_all_ids() {
        let ids: Vec<Id> = (0..40).map(|i| Id(i * 100 + 5)).collect();
        let map = ShardMap::new(&ids, 4);
        assert_eq!(map.shards(), 4);
        // Every node id maps to a shard; contiguous ids map to contiguous
        // shards in ring order.
        let shards: Vec<usize> = ids.iter().map(|id| map.shard_of(*id)).collect();
        assert!(shards.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(shards[0], 0);
        assert_eq!(*shards.last().unwrap(), 3);
        // Identifiers below the first node wrap to the last shard.
        assert_eq!(map.shard_of(Id(0)), 3);
        // Arbitrary (non-node) identifiers map deterministically.
        assert_eq!(map.shard_of(Id(12_345)), map.shard_of(Id(12_345)));
    }

    #[test]
    fn shard_count_is_clamped_to_node_count() {
        let ids: Vec<Id> = (0..3).map(|i| Id(i + 1)).collect();
        assert_eq!(ShardMap::new(&ids, 16).shards(), 3);
        assert_eq!(ShardMap::new(&ids, 0).shards(), 1);
    }

    #[test]
    fn single_shard_drain_delivers_in_lineage_order() {
        let mut dht = ChordNetwork::new(4);
        let a = Id::hash_key("shard-test-a");
        let b = Id::hash_key("shard-test-b");
        dht.join(a).unwrap();
        dht.join(b).unwrap();
        dht.full_stabilize();

        let mut net: ShardedNetwork<'_, &str> = ShardedNetwork::new(&dht, 1, 0, &[a, b], 1);
        net.seed(1, a, b, "r1");
        net.seed(1, b, a, "r0");
        let local = net.take_local(0);
        let mut handle = ShardHandle::new(&net, local);

        let ShardPoll::Tick { tick, deliveries, .. } = handle.poll() else {
            panic!("expected a tick");
        };
        assert_eq!(tick, 1);
        assert_eq!(deliveries.len(), 2);
        assert!(deliveries[0].lineage < deliveries[1].lineage);
        handle.mark_handled(tick);
        // Send a child during the effect phase, then finish the tick.
        handle.begin_effect(deliveries[0].lineage);
        handle.send_direct(a, b, "child", 0);
        handle.finish_tick(deliveries.len(), 1);

        let ShardPoll::Tick { tick, deliveries, .. } = handle.poll() else {
            panic!("expected the child tick");
        };
        assert_eq!(tick, 2);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].msg, "child");
        handle.mark_handled(tick);
        handle.finish_tick(1, 2);
        assert!(matches!(handle.poll(), ShardPoll::Quiescent));
        assert_eq!(net.final_clock(), 2);
    }
}
