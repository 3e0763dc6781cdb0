//! The sharded drain: persistent per-shard workers with conservative
//! clock synchronization.
//!
//! [`drain_sharded`] is what
//! [`RJoinEngine::run_until_quiescent`](crate::RJoinEngine::run_until_quiescent)
//! runs when `shards > 1`: the ring is partitioned into contiguous
//! identifier ranges and each range gets a persistent worker with its own
//! [`rjoin_net::ShardedNetwork`] queue and local clock. Shards only
//! coordinate through the conservative watermark protocol, so independent
//! cascades on different shards proceed concurrently with no global tick
//! barrier, even when every tick is thin — the shared-nothing layout of a
//! multicore join.
//!
//! Each shard runs the same two-phase tick the single-queue drain uses:
//!
//! 1. **handler phase** — Procedures 1–3 against the shard's own
//!    [`NodeState`](crate::NodeState)s, in ascending lineage order; then the
//!    shard publishes its `handled_through` watermark,
//! 2. **effect phase** — load accounting, answer buffering and the full
//!    Sections 6–7 dispatch pipeline ([`dispatch_query_in`] via
//!    [`perform_actions_in`]), shared verbatim with the single-queue
//!    drain through the [`EffectEnv`] trait.
//!
//! Engine-global observations are funneled through per-shard buffers —
//! answers tagged `(at, lineage)`, per-shard load maps and traffic stats —
//! and merged deterministically after the workers finish, so the drain's
//! observable results are a pure function of the workload for every shard
//! count.
//!
//! The handler phase runs the compiled predicate-program hot loop
//! unchanged: each shard's `NodeState`s carry their own program caches and
//! [`CompileCounters`](rjoin_metrics::CompileCounters), so compiled batch
//! execution needs no cross-shard coordination and the engine's
//! [`compile_counters`](crate::RJoinEngine::compile_counters) aggregate is
//! a plain per-node merge after the drain, exactly like the single-queue
//! drain.
//!
//! Two ingredients replace the global mutable state of the sequential
//! effect phase:
//!
//! * **per-decision randomness** — placement tie-breaks draw from a fresh
//!   RNG seeded by `(engine seed, triggering lineage, decision index)`
//!   instead of one global stream, making every decision independent of
//!   execution order and shard count;
//! * **watermark-synchronized RIC reads** — a rate request for a key owned
//!   by another shard blocks until that shard's handlers have run through
//!   the reader's tick, then reads the pure
//!   [`RicTracker::rate_at`](crate::RicTracker::rate_at) snapshot bounded
//!   by the reader's tick. Handlers never block on remote state and
//!   `handled_through` is published *before* each effect phase, so these
//!   reads cannot deadlock (see the protocol notes on
//!   [`rjoin_net::ShardedNetwork`]).
//!
//! # Execution modes
//!
//! The **worker count** is decoupled from the shard count: it comes from
//! [`EngineConfig::workers`], falling back to the `RJOIN_WORKERS`
//! environment variable and then to the machine's available parallelism.
//!
//! * `workers >= shards` — every shard gets its own persistent worker
//!   thread under [`std::thread::scope`], coordinated purely through the
//!   watermark protocol (the fully concurrent mode).
//! * `1 < workers < shards` — a **pooled** scheduler drives the shards
//!   global-minimum tick by tick, fanning each tick's handler phases and
//!   then its effect phases across the worker pool; `mark_all_handled`
//!   between the phases keeps remote RIC reads non-blocking.
//! * `workers == 1` — the same tick loop runs **cooperatively** on the
//!   calling thread, preserving the sharded semantics bit for bit while
//!   paying no context-switch or condvar cost (the right mode for
//!   single-core hosts).
//!
//! All three modes produce identical results by construction (the
//! per-shard effect phases of one tick touch disjoint state and only
//! perform pure watermark-gated reads), so a workload's outputs depend
//! neither on the machine nor on the worker count.

use crate::answers::AnswerRecord;
use crate::config::{EngineConfig, PlacementStrategy};
use crate::engine::{
    handle_node_msg, perform_actions_in, EffectEnv, KeyLoadMap, NodeLoadMap, NodeMap, RJoinEngine,
    TickEffect,
};
use crate::error::EngineError;
use crate::messages::RJoinMessage;
use crate::node_state::RicEntry;
use crate::placement::choose_candidate;
use crate::split::SplitMap;
use crate::RicTracker;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rjoin_dht::{Id, RingBuildHasher};
use rjoin_net::{
    lineage_seed, Lineage, ShardDelivery, ShardHandle, ShardLocal, ShardPoll, ShardedNetwork,
    SimTime, Transport,
};
use rjoin_query::IndexKey;
use rjoin_relation::Catalog;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// Shared directory of every node's RIC tracker, the one piece of node
/// state readable across shard workers (each tracker behind its own lock).
type RicDirectory = HashMap<Id, Arc<Mutex<RicTracker>>, RingBuildHasher>;

/// The sharded driver's [`EffectEnv`]: shard-local transport and node
/// states, watermark-synchronized remote RIC reads, per-decision RNG.
struct ShardEnv<'e, 'n, 'a> {
    handle: &'e mut ShardHandle<'n, 'a, RJoinMessage>,
    nodes: &'e mut NodeMap,
    ric_dir: &'e RicDirectory,
    /// The engine's hot-key split registry — frozen for the whole drain
    /// (splits only activate between drains), so shared read-only access
    /// across workers is race-free and deterministic.
    splits: &'e SplitMap,
    /// This shard's share of the query fan-out counter (merged after the
    /// drain).
    query_fanout: &'e mut u64,
    engine_seed: u64,
    /// Lineage of the delivery whose effects are being applied.
    lineage: Lineage,
    /// Placement decisions made so far within this effect.
    decisions: u64,
    /// The tick being processed (the bound for remote RIC reads).
    tick: SimTime,
}

impl<'n, 'a> EffectEnv for ShardEnv<'_, 'n, 'a> {
    type Net = ShardHandle<'n, 'a, RJoinMessage>;

    fn net(&mut self) -> &mut Self::Net {
        self.handle
    }

    fn now(&self) -> SimTime {
        Transport::<RJoinMessage>::now(&*self.handle)
    }

    fn cached_ric(
        &self,
        node: Id,
        ring: u64,
        now: SimTime,
        validity: Option<SimTime>,
    ) -> Option<RicEntry> {
        // The dispatching node always lives on this worker's shard.
        self.nodes.get(&node).and_then(|s| s.cached_ric(ring, now, validity))
    }

    fn cache_ric(&mut self, node: Id, ring: u64, entry: RicEntry) {
        if let Some(state) = self.nodes.get_mut(&node) {
            state.candidate_table.insert(ring, entry);
        }
    }

    fn observed_rate(&mut self, owner: Id, ring: u64, now: SimTime, window: SimTime) -> u64 {
        let shard = self.handle.shard_of(owner);
        if !self.handle.wait_handled(shard, self.tick) {
            // Aborted while waiting; the run's results are discarded.
            return 0;
        }
        self.ric_dir
            .get(&owner)
            .map(|tracker| tracker.lock().expect("ric lock").rate_at(ring, now, window, self.tick))
            .unwrap_or(0)
    }

    fn choose(
        &mut self,
        candidates: &[IndexKey],
        rates: &[u64],
        strategy: PlacementStrategy,
    ) -> usize {
        let seed = lineage_seed(self.engine_seed, self.lineage, self.decisions);
        self.decisions += 1;
        let mut rng = StdRng::seed_from_u64(seed);
        choose_candidate(candidates, rates, strategy, &mut rng)
    }

    fn splits(&self) -> &SplitMap {
        self.splits
    }

    fn note_query_fanout(&mut self, extra: u64) {
        *self.query_fanout += extra;
    }
}

/// Per-shard buffers of engine-global observations, merged after the drain.
#[derive(Default)]
struct ShardTally {
    /// Raw answer deliveries tagged with `(arrival tick, lineage)` for the
    /// deterministic global merge.
    answers: Vec<(SimTime, Lineage, AnswerRecord)>,
    qpl: NodeLoadMap,
    sl: NodeLoadMap,
    qpl_by_key: KeyLoadMap,
    sl_by_key: KeyLoadMap,
    /// Extra query copies this shard sent to partitions of split hot keys.
    query_fanout: u64,
    processed: u64,
    error: Option<EngineError>,
}

/// Everything one shard hands back after the drain.
struct WorkerOutcome {
    local: ShardLocal<RJoinMessage>,
    nodes: NodeMap,
    tally: ShardTally,
}

/// Handler phase of one tick on one shard: Procedures 1–3 in lineage
/// order, purely node-local.
fn run_handlers(
    nodes: &mut NodeMap,
    catalog: &Catalog,
    config: &EngineConfig,
    now: SimTime,
    deliveries: Vec<ShardDelivery<RJoinMessage>>,
) -> Vec<(Lineage, TickEffect)> {
    let mut effects: Vec<(Lineage, TickEffect)> = Vec::with_capacity(deliveries.len());
    for d in deliveries {
        if !nodes.contains_key(&d.to) {
            // The node left after the message was sent: lost, exactly as
            // under the single-queue drain.
            effects.push((d.lineage, TickEffect::Lost));
            continue;
        }
        let effect = match d.msg {
            RJoinMessage::Answer { query, row, produced_at } => {
                TickEffect::Answer(AnswerRecord { query, row, produced_at, received_at: d.at })
            }
            msg => {
                let state = nodes.get_mut(&d.to).expect("membership checked above");
                handle_node_msg(state, catalog, config, now, d.at, d.to, msg)
            }
        };
        effects.push((d.lineage, effect));
    }
    effects
}

/// Effect phase of one tick on one shard, in lineage order. Returns `false`
/// after signalling an abort if a dispatch failed.
#[allow(clippy::too_many_arguments)]
fn apply_effects(
    handle: &mut ShardHandle<'_, '_, RJoinMessage>,
    nodes: &mut NodeMap,
    tally: &mut ShardTally,
    catalog: &Catalog,
    config: &EngineConfig,
    ric_dir: &RicDirectory,
    splits: &SplitMap,
    tick: SimTime,
    effects: Vec<(Lineage, TickEffect)>,
) -> bool {
    for (lineage, effect) in effects {
        match effect {
            TickEffect::Lost => {}
            TickEffect::Answer(record) => {
                tally.answers.push((record.received_at, lineage, record));
            }
            TickEffect::Node { node, load, actions } => {
                if let Some(load) = load {
                    tally.qpl.incr(node);
                    tally.qpl_by_key.incr(load.key);
                    if load.sl {
                        tally.sl.incr(node);
                        tally.sl_by_key.incr(load.key);
                    }
                }
                if actions.is_empty() {
                    continue;
                }
                handle.begin_effect(lineage);
                let mut env = ShardEnv {
                    handle,
                    nodes,
                    ric_dir,
                    splits,
                    query_fanout: &mut tally.query_fanout,
                    engine_seed: config.seed,
                    lineage,
                    decisions: 0,
                    tick,
                };
                if let Err(e) = perform_actions_in(&mut env, config, catalog, node, actions) {
                    tally.error = Some(e);
                    return false;
                }
            }
        }
    }
    true
}

/// One shard's threaded worker loop: poll → handler phase → publish
/// handled → effect phase → finish tick, until global quiescence (or
/// abort).
fn run_worker(
    snet: &ShardedNetwork<'_, RJoinMessage>,
    local: ShardLocal<RJoinMessage>,
    mut nodes: NodeMap,
    catalog: &Catalog,
    config: &EngineConfig,
    ric_dir: &RicDirectory,
    splits: &SplitMap,
) -> WorkerOutcome {
    let mut handle = ShardHandle::new(snet, local);
    let mut tally = ShardTally::default();

    loop {
        match handle.poll() {
            ShardPoll::Quiescent | ShardPoll::Aborted => break,
            ShardPoll::Tick { tick, now, deliveries } => {
                let count = deliveries.len();
                tally.processed += count as u64;
                let effects = run_handlers(&mut nodes, catalog, config, now, deliveries);
                // Unblock remote readers before running our own effects.
                handle.mark_handled(tick);
                let ok = apply_effects(
                    &mut handle,
                    &mut nodes,
                    &mut tally,
                    catalog,
                    config,
                    ric_dir,
                    splits,
                    tick,
                    effects,
                );
                handle.finish_tick(count, now);
                if !ok {
                    snet.abort();
                    break;
                }
            }
        }
    }

    WorkerOutcome { local: handle.into_local(), nodes, tally }
}

/// Cooperative single-threaded scheduler: drives every shard from the
/// calling thread, one global-minimum tick at a time — all shards' handler
/// phases first, then all effect phases. Semantically identical to the
/// threaded mode (per-tick effect phases touch disjoint state), but pays
/// no thread or wakeup cost, which matters on single-core hosts.
fn run_cooperative(
    snet: &ShardedNetwork<'_, RJoinMessage>,
    locals: Vec<ShardLocal<RJoinMessage>>,
    parts: Vec<NodeMap>,
    catalog: &Catalog,
    config: &EngineConfig,
    ric_dir: &RicDirectory,
    splits: &SplitMap,
) -> Vec<WorkerOutcome> {
    struct CoopShard<'n, 'a> {
        handle: ShardHandle<'n, 'a, RJoinMessage>,
        nodes: NodeMap,
        tally: ShardTally,
    }
    snet.set_cooperative(true);
    let mut shards: Vec<CoopShard<'_, '_>> = locals
        .into_iter()
        .zip(parts)
        .map(|(local, nodes)| CoopShard {
            handle: ShardHandle::new(snet, local),
            nodes,
            tally: ShardTally::default(),
        })
        .collect();

    // Handler-phase output of one cooperative round: the shard index, its
    // floor-clamped clock, the delivery count and the staged effects.
    type Staged = (usize, SimTime, usize, Vec<(Lineage, TickEffect)>);
    // Runs until all queues are empty: quiescent.
    'drain: while let Some(tick) =
        shards.iter_mut().filter_map(|s| s.handle.next_event_time()).min()
    {
        // Handler phase on every shard holding deliveries at `tick`.
        let mut staged: Vec<Staged> = Vec::new();
        for (i, shard) in shards.iter_mut().enumerate() {
            if let Some((now, deliveries)) = shard.handle.try_take_tick(tick) {
                let count = deliveries.len();
                shard.tally.processed += count as u64;
                let effects = run_handlers(&mut shard.nodes, catalog, config, now, deliveries);
                staged.push((i, now, count, effects));
            }
        }
        // All handlers of `tick` ran; remote rate reads must never block.
        snet.mark_all_handled(tick);
        // Effect phase, shard by shard (the order is immaterial: effects
        // touch disjoint shard state and only perform pure remote reads).
        for (i, now, count, effects) in staged {
            let shard = &mut shards[i];
            let ok = apply_effects(
                &mut shard.handle,
                &mut shard.nodes,
                &mut shard.tally,
                catalog,
                config,
                ric_dir,
                splits,
                tick,
                effects,
            );
            shard.handle.finish_tick(count, now);
            if !ok {
                snet.abort();
                break 'drain;
            }
        }
    }

    shards
        .into_iter()
        .map(|s| WorkerOutcome { local: s.handle.into_local(), nodes: s.nodes, tally: s.tally })
        .collect()
}

/// Pooled scheduler for `1 < workers < shards`: the cooperative
/// global-minimum tick loop, executed by a pool of **persistent** worker
/// threads (spawned once per drain, not per tick — per-tick spawn/join
/// would dominate thin-tick workloads). Each worker owns a static chunk of
/// shards; the rounds are coordinated by a reusable [`Barrier`]:
///
/// 1. every worker publishes its chunk's earliest event time, the barrier
///    leader reduces them to the global minimum tick (or termination),
/// 2. handler phase on every chunk, then `mark_all_handled(tick)` behind a
///    barrier — so the concurrent effect phases' remote RIC reads never
///    block,
/// 3. effect phase + `finish_tick` on every chunk, and a final barrier so
///    the next round's inbox drain observes every send of this tick.
///
/// Workers only touch their own shards and the schedule is the same
/// global-minimum order the cooperative scheduler runs, so the results are
/// byte-identical to every other execution mode.
#[allow(clippy::too_many_arguments)]
fn run_pooled(
    snet: &ShardedNetwork<'_, RJoinMessage>,
    locals: Vec<ShardLocal<RJoinMessage>>,
    parts: Vec<NodeMap>,
    catalog: &Catalog,
    config: &EngineConfig,
    ric_dir: &RicDirectory,
    splits: &SplitMap,
    workers: usize,
) -> Vec<WorkerOutcome> {
    /// Handler-phase output staged for this round's effect phase:
    /// `(floor-clamped clock, delivery count, effects)`.
    type StagedTick = (SimTime, usize, Vec<(Lineage, TickEffect)>);
    struct PoolShard<'n, 'a> {
        handle: ShardHandle<'n, 'a, RJoinMessage>,
        nodes: NodeMap,
        tally: ShardTally,
        staged: Option<StagedTick>,
        ok: bool,
    }
    // Nobody parks on the progress condvar: rounds are coordinated by the
    // barrier alone, exactly like the cooperative scheduler.
    snet.set_cooperative(true);
    let shards: Vec<PoolShard<'_, '_>> = locals
        .into_iter()
        .zip(parts)
        .map(|(local, nodes)| PoolShard {
            handle: ShardHandle::new(snet, local),
            nodes,
            tally: ShardTally::default(),
            staged: None,
            ok: true,
        })
        .collect();
    let chunk_size = shards.len().div_ceil(workers).max(1);
    let mut chunks: Vec<Vec<PoolShard<'_, '_>>> = Vec::new();
    {
        let mut shards = shards;
        while !shards.is_empty() {
            let rest = shards.split_off(chunk_size.min(shards.len()));
            chunks.push(shards);
            shards = rest;
        }
    }
    let pool = chunks.len();
    let barrier = Barrier::new(pool);
    // Per-worker earliest event times, reduced by the barrier leader into
    // the shared next-tick word (`u64::MAX` = quiescent, stop).
    let chunk_mins: Vec<AtomicU64> = (0..pool).map(|_| AtomicU64::new(u64::MAX)).collect();
    let next_tick = AtomicU64::new(u64::MAX);
    let failed = AtomicBool::new(false);

    let outcomes: Vec<Vec<WorkerOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .enumerate()
            .map(|(i, mut chunk)| {
                let (barrier, chunk_mins, next_tick, failed) =
                    (&barrier, &chunk_mins, &next_tick, &failed);
                scope.spawn(move || {
                    loop {
                        // Round start: publish this chunk's earliest event
                        // time; the leader reduces to the global minimum.
                        let local_min = chunk
                            .iter_mut()
                            .filter_map(|s| s.handle.next_event_time())
                            .min()
                            .unwrap_or(u64::MAX);
                        chunk_mins[i].store(local_min, Ordering::SeqCst);
                        if barrier.wait().is_leader() {
                            let global = chunk_mins
                                .iter()
                                .map(|m| m.load(Ordering::SeqCst))
                                .min()
                                .unwrap_or(u64::MAX);
                            let stop = failed.load(Ordering::SeqCst) || snet.is_aborted();
                            next_tick.store(if stop { u64::MAX } else { global }, Ordering::SeqCst);
                        }
                        barrier.wait();
                        let tick = next_tick.load(Ordering::SeqCst);
                        if tick == u64::MAX {
                            break;
                        }
                        // Handler phase on this chunk's shards at `tick`.
                        for shard in chunk.iter_mut() {
                            if let Some((now, deliveries)) = shard.handle.try_take_tick(tick) {
                                let count = deliveries.len();
                                shard.tally.processed += count as u64;
                                let effects = run_handlers(
                                    &mut shard.nodes,
                                    catalog,
                                    config,
                                    now,
                                    deliveries,
                                );
                                shard.staged = Some((now, count, effects));
                            }
                        }
                        // All handlers of `tick` ran: remote rate reads in
                        // the concurrent effect phases below never block.
                        if barrier.wait().is_leader() {
                            snet.mark_all_handled(tick);
                        }
                        barrier.wait();
                        for shard in chunk.iter_mut() {
                            if let Some((now, count, effects)) = shard.staged.take() {
                                let ok = apply_effects(
                                    &mut shard.handle,
                                    &mut shard.nodes,
                                    &mut shard.tally,
                                    catalog,
                                    config,
                                    ric_dir,
                                    splits,
                                    tick,
                                    effects,
                                );
                                shard.handle.finish_tick(count, now);
                                if !ok {
                                    shard.ok = false;
                                    failed.store(true, Ordering::SeqCst);
                                    snet.abort();
                                }
                            }
                        }
                        // Close the round: the next inbox drain must observe
                        // every send of this tick.
                        barrier.wait();
                    }
                    chunk
                        .into_iter()
                        .map(|s| WorkerOutcome {
                            local: s.handle.into_local(),
                            nodes: s.nodes,
                            tally: s.tally,
                        })
                        .collect::<Vec<WorkerOutcome>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("pool worker must not panic")).collect()
    });
    outcomes.into_iter().flatten().collect()
}

/// Resolves how many worker threads a sharded drain may use: the explicit
/// [`EngineConfig::workers`] pin, else the `RJOIN_WORKERS` environment
/// variable, else the machine's available parallelism. Purely an execution
/// choice — results are identical for every value.
fn resolve_workers(config: &EngineConfig) -> usize {
    if let Some(workers) = config.workers {
        return workers.max(1);
    }
    if let Some(workers) =
        std::env::var("RJOIN_WORKERS").ok().and_then(|v| v.trim().parse::<usize>().ok())
    {
        if workers >= 1 {
            return workers;
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Drains the engine's event queue on the sharded runtime. See the module
/// docs for the architecture; the observable results (answers, loads,
/// traffic) are deterministic and shard-count-invariant for every
/// `shards > 1`.
pub(crate) fn drain_sharded(engine: &mut RJoinEngine) -> Result<u64, EngineError> {
    let pending = engine.network.drain_in_flight();
    if pending.is_empty() {
        return Ok(0);
    }

    // Shared directory of RIC trackers (the only cross-shard node state).
    let ric_dir: RicDirectory =
        engine.nodes.iter().map(|(id, state)| (*id, state.ric_handle())).collect();

    let mut snet = ShardedNetwork::new(
        engine.network.dht(),
        engine.network.delay(),
        engine.network.now(),
        &engine.node_ids,
        engine.config.shards,
    );
    // Seed in global (at, seq) order: root lineages are numbered by the
    // position in this order, which no shard count can change.
    for d in pending {
        snet.seed(d.at, d.to, d.from, d.msg);
    }
    let shard_count = snet.shards();

    // Partition the node states by shard.
    let mut parts: Vec<NodeMap> = (0..shard_count).map(|_| NodeMap::default()).collect();
    for (id, state) in engine.nodes.drain() {
        parts[snet.shard_of(id)].insert(id, state);
    }
    let locals: Vec<ShardLocal<RJoinMessage>> =
        (0..shard_count).map(|i| snet.take_local(i)).collect();

    let catalog = &engine.catalog;
    let config = &engine.config;
    let snet_ref = &snet;
    let ric_dir_ref = &ric_dir;
    let splits_ref = &engine.splits;

    let workers = resolve_workers(config);
    let outcomes: Vec<WorkerOutcome> = if workers <= 1 {
        run_cooperative(snet_ref, locals, parts, catalog, config, ric_dir_ref, splits_ref)
    } else if workers < shard_count {
        run_pooled(snet_ref, locals, parts, catalog, config, ric_dir_ref, splits_ref, workers)
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = locals
                .into_iter()
                .zip(parts)
                .map(|(local, part)| {
                    scope.spawn(move || {
                        run_worker(snet_ref, local, part, catalog, config, ric_dir_ref, splits_ref)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard worker must not panic")).collect()
        })
    };

    let final_clock = snet.final_clock();
    drop(snet);
    drop(ric_dir);

    // Deterministic merge: states and order-insensitive counters first.
    let mut raw_answers: Vec<(SimTime, Lineage, AnswerRecord)> = Vec::new();
    let mut processed = 0u64;
    let mut ticks = 0u64;
    let mut deliveries = 0u64;
    let mut blocked = 0u64;
    let mut error: Option<EngineError> = None;
    for outcome in outcomes {
        engine.nodes.extend(outcome.nodes);
        engine.network.traffic_mut().merge(outcome.local.traffic());
        engine.qpl.merge(&outcome.tally.qpl);
        engine.sl.merge(&outcome.tally.sl);
        engine.qpl_by_key.merge(&outcome.tally.qpl_by_key);
        engine.sl_by_key.merge(&outcome.tally.sl_by_key);
        engine.split_counters.query_fanout += outcome.tally.query_fanout;
        processed += outcome.tally.processed;
        ticks += outcome.local.ticks;
        deliveries += outcome.local.deliveries;
        blocked += outcome.local.blocked_reads;
        raw_answers.extend(outcome.tally.answers);
        if error.is_none() {
            // Shards are visited in index order, so the reported error is
            // the lowest-shard one — deterministic.
            error = outcome.tally.error;
        }
    }
    engine.network.advance_to(final_clock);
    // Same post-drain expiry flush as the single-queue drain, so state
    // snapshots are identical across drivers at quiescence.
    engine.flush_expiry();
    engine.shard_runtime.absorb_drain(shard_count, ticks, deliveries, blocked);

    // Answers enter the global log in (arrival tick, lineage) order — the
    // sharded counterpart of the single queue's (at, seq) order.
    raw_answers.sort_unstable_by_key(|(at, lineage, _)| (*at, *lineage));
    for (_, _, record) in raw_answers {
        if engine.distinct_queries.contains(&record.query) {
            engine.answers.record_distinct(record);
        } else {
            engine.answers.record(record);
        }
    }

    match error {
        Some(e) => Err(e),
        None => Ok(processed),
    }
}
