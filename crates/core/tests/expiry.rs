//! Tests of the two expiry modes, timer-wheel pops and the contact-driven
//! sweep. While tuples are published at or after the clock — as in the
//! differential tests here — both modes deliver **byte-identical**
//! per-query answers, equal to the centralized windowed oracle, and hold
//! exactly the same live state after garbage collection. When a closed-loop
//! driver publishes rounds behind the clock, the sweep still answers
//! exactly and the wheel only soundly (see
//! `back_dated_rounds_cost_the_wheel_answers_but_not_the_sweep`).
//!
//! The shard counts exercised honor the `RJOIN_SHARDS` environment variable
//! (comma-separated, e.g. `RJOIN_SHARDS=1,4`), which is what the CI
//! shard-count matrix sets; the default covers `1,4`.

mod common;

use common::{assert_exact, assert_sound, shard_counts, windowed_oracle_answers};
use rjoin_core::{EngineConfig, QueryId, RJoinEngine};
use rjoin_query::WindowSpec;
use rjoin_relation::Tuple;
use rjoin_workload::Scenario;

fn scenario(window: WindowSpec) -> Scenario {
    Scenario {
        nodes: 24,
        queries: 30,
        tuples: 60,
        joins: 2,
        relations: 6,
        attributes: 4,
        domain: 6,
        window,
        ..Scenario::small_test()
    }
}

/// Runs the windowed workload — overlapping queries, two tuple waves with a
/// node joining between them and leaving after them (so re-homed state must
/// expire correctly at its new home too) — under the given expiry mode.
/// Returns the engine, the query ids and every published tuple.
fn run(
    window: WindowSpec,
    base: EngineConfig,
    shards: usize,
    wheel: bool,
) -> (RJoinEngine, Vec<QueryId>, Vec<Tuple>) {
    let scenario = scenario(window);
    let queries = scenario.generate_overlapping_queries(5);
    let config = base.with_shards(shards).with_wheel_expiry(wheel);
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();
    let mut qids = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        qids.push(engine.submit_query(origins[i % origins.len()], q.clone()).unwrap());
    }
    engine.run_until_quiescent().unwrap();

    // Two tuple waves, each generated at the then-current clock: tuples
    // enter the network at their publication time, the contract wheel-mode
    // deadlines are derived under (the wheel/sweep clock trajectories match,
    // so both engines see identical waves).
    let half = Scenario { tuples: scenario.tuples / 2, ..scenario.clone() };
    let second = Scenario { seed: scenario.seed ^ 0x9E37, ..half.clone() };
    let mut published = Vec::new();
    let mut publish = |engine: &mut RJoinEngine, wave: Vec<Tuple>| {
        for (i, t) in wave.into_iter().enumerate() {
            engine.publish_tuple(origins[i % origins.len()], t.clone()).unwrap();
            published.push(t);
        }
        engine.run_until_quiescent().unwrap();
    };
    let wave = half.generate_tuples(engine.now() + 1);
    publish(&mut engine, wave);
    // Churn at the quiescent points: a joiner steals buckets mid-run (their
    // wheel tokens on the donor go stale; the joiner re-schedules), then
    // leaves again, re-homing its state a second time.
    let joined = engine.join_node("expiry-churn").unwrap();
    let wave = second.generate_tuples(engine.now() + 1);
    publish(&mut engine, wave);
    engine.leave_node(joined).unwrap();
    (engine, qids, published)
}

#[test]
fn wheel_expiry_matches_sweep_differentially() {
    for shards in shard_counts() {
        for (kind, window) in [
            ("sliding", WindowSpec::sliding_tuples(16)),
            ("tumbling", WindowSpec::tumbling_time(16)),
        ] {
            for (variant, config) in [
                ("shared+altt", EngineConfig::default().with_subjoin_sharing(true).with_altt(64)),
                ("split+altt", EngineConfig::default().with_altt(32).with_hot_key_splitting(4, 2)),
            ] {
                let tag = format!("shards={shards} window={kind} variant={variant}");
                let (mut with_wheel, qids, published) = run(window, config.clone(), shards, true);
                let (mut with_sweep, sweep_qids, _) = run(window, config.clone(), shards, false);
                assert_eq!(qids, sweep_qids, "{tag}: query ids must line up");

                // Answers are byte-identical per query and equal to the
                // oracle's: with in-time publication, expiry mode affects
                // when dead state is reclaimed, never what is answered.
                let scenario = scenario(window);
                let catalog = scenario.workload_schema().build_catalog();
                let queries = scenario.generate_overlapping_queries(5);
                let mut produced = 0usize;
                for (qid, query) in qids.iter().zip(&queries) {
                    let wheel_rows = with_wheel.answers().rows_for(*qid);
                    let sweep_rows = with_sweep.answers().rows_for(*qid);
                    assert_eq!(wheel_rows, sweep_rows, "{tag}: answers diverge for {qid}");
                    produced += assert_exact(
                        &format!("{tag}: {qid}"),
                        sweep_rows,
                        windowed_oracle_answers(&catalog, query, 0, &published),
                    );
                }
                assert!(produced > 0, "{tag}: the workload should produce answers");

                // Each mode took the reclamation path it claims.
                let wheel_counters = with_wheel.state_counters();
                let sweep_counters = with_sweep.state_counters();
                assert!(wheel_counters.wheel_pops > 0, "{tag}: the wheel never popped");
                assert_eq!(sweep_counters.wheel_pops, 0, "{tag}: sweep mode must not pop");
                assert_eq!(
                    sweep_counters.wheel_scheduled, 0,
                    "{tag}: sweep mode must not schedule deadlines"
                );

                // After garbage collection both engines hold exactly the
                // same live stored-query state.
                with_wheel.gc_expired_state();
                with_sweep.gc_expired_state();
                assert_eq!(
                    with_wheel.stored_queries_current(),
                    with_sweep.stored_queries_current(),
                    "{tag}: live stored queries diverge after GC"
                );
                assert_eq!(
                    with_wheel.state_counters().altt_slab_live,
                    with_sweep.state_counters().altt_slab_live,
                    "{tag}: live ALTT entries diverge after GC"
                );
            }
        }
    }
}

/// Forced splitting interacting with churn under the wheel: `split_key`
/// re-homes stored windowed state to the sub-key owners mid-run (the donor's
/// wheel tokens go stale, the receivers re-schedule), a joining node steals
/// some of it again, and the leave re-homes it a third time. No deadline may
/// be orphaned or lost along the way: answers and post-GC live state must
/// match the sweep oracle exactly.
#[test]
fn forced_split_and_churn_rehome_wheel_deadlines() {
    let window = WindowSpec::sliding_tuples(16);
    let run_split = |wheel: bool| -> (RJoinEngine, Vec<QueryId>) {
        let scenario = scenario(window);
        let config = EngineConfig::default()
            .with_subjoin_sharing(true)
            .with_altt(64)
            .with_wheel_expiry(wheel);
        let catalog = scenario.workload_schema().build_catalog();
        let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
        let origins: Vec<_> = engine.node_ids().to_vec();
        let mut qids = Vec::new();
        for (i, q) in scenario.generate_overlapping_queries(5).into_iter().enumerate() {
            qids.push(engine.submit_query(origins[i % origins.len()], q).unwrap());
        }
        engine.run_until_quiescent().unwrap();
        let half = Scenario { tuples: scenario.tuples / 2, ..scenario.clone() };
        let second = Scenario { seed: scenario.seed ^ 0x9E37, ..half.clone() };
        let publish = |engine: &mut RJoinEngine, wave: Vec<Tuple>| {
            for (i, t) in wave.into_iter().enumerate() {
                engine.publish_tuple(origins[i % origins.len()], t).unwrap();
            }
            engine.run_until_quiescent().unwrap();
        };
        let wave = half.generate_tuples(engine.now() + 1);
        publish(&mut engine, wave);
        // Split every attribute key of the head relation while its buckets
        // hold live windowed entries, then churn the membership.
        for attr in ["A0", "A1", "A2", "A3"] {
            engine.split_key(&rjoin_query::IndexKey::attribute("R0", attr), 4).unwrap();
        }
        let joined = engine.join_node("expiry-split-churn").unwrap();
        let wave = second.generate_tuples(engine.now() + 1);
        publish(&mut engine, wave);
        engine.leave_node(joined).unwrap();
        (engine, qids)
    };

    let (mut with_wheel, qids) = run_split(true);
    let (mut with_sweep, sweep_qids) = run_split(false);
    assert_eq!(qids, sweep_qids);
    for qid in &qids {
        assert_eq!(
            with_wheel.answers().rows_for(*qid),
            with_sweep.answers().rows_for(*qid),
            "split+churn: answers diverge for {qid}"
        );
    }
    assert!(with_wheel.state_counters().wheel_pops > 0, "re-homed deadlines must still pop");
    with_wheel.gc_expired_state();
    with_sweep.gc_expired_state();
    assert_eq!(
        with_wheel.stored_queries_current(),
        with_sweep.stored_queries_current(),
        "split+churn: live stored queries diverge after GC"
    );
    assert_eq!(
        with_wheel.state_counters().altt_slab_live,
        with_sweep.state_counters().altt_slab_live,
        "split+churn: live ALTT entries diverge after GC"
    );
}

/// The wheel engine's reclamation is dominated by deadline pops, not
/// contact stumbles: on a windowed workload with long-lived buckets the
/// sweep engine can only reclaim what later arrivals happen to touch,
/// while the wheel retires every expired entry. After GC the two agree,
/// but *during* the run the wheel holds no more live slab state than the
/// sweep engine does.
#[test]
fn wheel_retires_state_the_sweep_leaves_behind() {
    let window = WindowSpec::sliding_tuples(16);
    let config = EngineConfig::default().with_subjoin_sharing(true).with_altt(64);
    let (with_wheel, _, _) = run(window, config.clone(), 1, true);
    let (with_sweep, _, _) = run(window, config, 1, false);
    // Before any explicit GC: the sweep engine still stores every entry a
    // walk never contacted; the wheel engine already popped them.
    assert!(
        with_wheel.stored_queries_current() <= with_sweep.stored_queries_current(),
        "wheel ({}) must never hold more stored queries than sweep ({})",
        with_wheel.stored_queries_current(),
        with_sweep.stored_queries_current(),
    );
    let wheel_counters = with_wheel.state_counters();
    assert!(
        wheel_counters.wheel_pops >= wheel_counters.contact_expirations,
        "deadline pops should dominate contact expiry under the wheel: {wheel_counters:?}"
    );
}

/// Closed-loop publication: a value-level windowed workload is published
/// in rounds, draining after every round, the way a closed-loop client
/// drives the engine. Each drain carries the clock a few ticks past the
/// round's last publication time, so the next round's first tuples enter
/// the network behind the clock — later than the delay bound the wheel's
/// deadlines allow for. The sweep still answers exactly: value-level
/// placement is complete, and contact expiry only fires on a tuple outside
/// the window. The wheel can pop a windowed query before an in-window
/// tuple reaches it, so it is only sound; its shortfall is printed. This is
/// why neither expiry mode can be deleted until publication lateness has a
/// contract.
#[test]
fn back_dated_rounds_cost_the_wheel_answers_but_not_the_sweep() {
    let scenario = Scenario {
        nodes: 24,
        queries: 40,
        tuples: 240,
        joins: 2,
        relations: 6,
        attributes: 4,
        domain: 8,
        window: WindowSpec::sliding_tuples(8),
        ..Scenario::small_test()
    };
    let round = 16;
    let catalog = scenario.workload_schema().build_catalog();
    let queries = scenario.generate_overlapping_queries(8);
    for shards in shard_counts() {
        let run = |wheel: bool| {
            let config = EngineConfig::default()
                .with_value_level_only(true)
                .with_subjoin_sharing(true)
                .with_wheel_expiry(wheel)
                .with_shards(shards);
            let mut engine = RJoinEngine::simulated(config, catalog.clone(), scenario.nodes);
            let origins: Vec<_> = engine.node_ids().to_vec();
            let mut qids = Vec::new();
            for (i, q) in queries.iter().enumerate() {
                qids.push(engine.submit_query(origins[i % origins.len()], q.clone()).unwrap());
            }
            engine.run_until_quiescent().unwrap();
            let tuples = scenario.generate_tuples(engine.now() + 1);
            let mut back_dated = 0usize;
            for (r, chunk) in tuples.chunks(round).enumerate() {
                for (j, t) in chunk.iter().enumerate() {
                    back_dated += usize::from(t.pub_time() < engine.now());
                    engine
                        .publish_tuple(origins[(r * round + j) % origins.len()], t.clone())
                        .unwrap();
                }
                engine.run_until_quiescent().unwrap();
            }
            (engine, qids, tuples, back_dated)
        };
        let (sweep, qids, tuples, back_dated) = run(false);
        let (wheel, _, _, _) = run(true);
        assert!(back_dated > 0, "shards={shards}: the rounds must publish behind the clock");

        let (mut expected_total, mut shortfall) = (0usize, 0usize);
        for (qid, query) in qids.iter().zip(&queries) {
            let tag = format!("shards={shards}: {qid}");
            let expected = windowed_oracle_answers(&catalog, query, 0, &tuples);
            expected_total += assert_exact(
                &format!("sweep {tag}"),
                sweep.answers().rows_for(*qid),
                expected.clone(),
            );
            shortfall +=
                assert_sound(&format!("wheel {tag}"), wheel.answers().rows_for(*qid), expected);
        }
        assert!(expected_total > 0, "shards={shards}: the workload must produce answers");
        println!(
            "shards={shards}: {back_dated} of {} tuples published behind the clock; \
             the wheel missed {shortfall} of {expected_total} oracle rows, the sweep none",
            tuples.len()
        );
    }
}
