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
//! # Execution
//!
//! Every shard gets its own persistent worker thread under
//! [`std::thread::scope`], coordinated purely through the watermark
//! protocol — one scheduler on every host and for every shard count. The
//! workers are not pinned: with more shards than cores the OS time-slices
//! them, and the watermark protocol still makes progress (the shard holding
//! the globally minimal watermark can always run its next tick). A
//! workload's outputs therefore depend neither on the machine nor on how
//! the threads interleave.

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
use std::sync::{Arc, Mutex};

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

/// One shard's worker loop: poll → handler phase → publish handled →
/// effect phase → finish tick, until global quiescence (or abort).
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

    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
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
    });

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
