//! End-to-end correctness tests: the distributed RJoin evaluation is checked
//! against a brute-force centralized oracle implementing Definition 1 of the
//! paper (the bag union of the instantaneous query results over tuples
//! published at or after query submission).

mod common;

use common::{assert_sound, sorted, windowed_oracle_answers};
use rjoin_core::{EngineConfig, PlacementStrategy, RJoinEngine};
use rjoin_query::{Conjunct, JoinQuery, SelectItem};
use rjoin_relation::{Timestamp, Tuple, Value};
use rjoin_workload::{Scenario, WorkloadSchema};

/// Runs a scenario through the engine and returns (engine, query ids,
/// queries, tuples).
fn run_scenario(
    config: EngineConfig,
    scenario: &Scenario,
) -> (RJoinEngine, Vec<rjoin_core::QueryId>, Vec<JoinQuery>, Vec<Tuple>) {
    let schema = scenario.workload_schema();
    let catalog = schema.build_catalog();
    let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();

    let queries = scenario.generate_queries();
    let mut qids = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let origin = origins[i % origins.len()];
        qids.push(engine.submit_query(origin, q.clone()).unwrap());
    }
    engine.run_until_quiescent().unwrap();

    let tuples = scenario.generate_tuples(engine.now() + 1);
    for (i, t) in tuples.iter().enumerate() {
        let origin = origins[i % origins.len()];
        engine.publish_tuple(origin, t.clone()).unwrap();
    }
    engine.run_until_quiescent().unwrap();
    (engine, qids, queries, tuples)
}

fn small_scenario(joins: usize, queries: usize, tuples: usize) -> Scenario {
    Scenario {
        nodes: 24,
        queries,
        tuples,
        joins,
        theta: 0.9,
        relations: 6,
        attributes: 4,
        domain: 8,
        ..Scenario::small_test()
    }
}

/// With value-level placement of rewritten queries (the Section 3 base
/// algorithm) and no windows, RJoin must produce *exactly* the bag of
/// answers of the centralized oracle: no answer lost, no duplicate added
/// (Theorems 1 and 2).
#[test]
fn matches_oracle_exactly_two_way() {
    let scenario = small_scenario(1, 30, 60);
    let config = EngineConfig::default().with_value_level_only(true);
    let (engine, qids, queries, tuples) = run_scenario(config, &scenario);
    let catalog = scenario.workload_schema().build_catalog();

    let mut total_expected = 0usize;
    for (qid, query) in qids.iter().zip(&queries) {
        let expected = sorted(windowed_oracle_answers(&catalog, query, 0, &tuples));
        let actual = sorted(engine.answers().rows_for(*qid));
        assert_eq!(actual, expected, "query {qid} answers diverge from the oracle");
        total_expected += expected.len();
    }
    assert!(total_expected > 0, "the workload should produce at least one answer");
}

#[test]
fn matches_oracle_exactly_three_way() {
    let scenario = small_scenario(2, 20, 50);
    let config = EngineConfig::default().with_value_level_only(true);
    let (engine, qids, queries, tuples) = run_scenario(config, &scenario);
    let catalog = scenario.workload_schema().build_catalog();

    let mut produced = 0usize;
    for (qid, query) in qids.iter().zip(&queries) {
        let expected = sorted(windowed_oracle_answers(&catalog, query, 0, &tuples));
        let actual = sorted(engine.answers().rows_for(*qid));
        assert_eq!(actual, expected, "query {qid} answers diverge from the oracle");
        produced += expected.len();
    }
    assert!(produced > 0, "the workload should produce at least one answer");
}

#[test]
fn matches_oracle_exactly_four_way() {
    let scenario = small_scenario(3, 12, 48);
    let config = EngineConfig::default().with_value_level_only(true);
    let (engine, qids, queries, tuples) = run_scenario(config, &scenario);
    let catalog = scenario.workload_schema().build_catalog();

    for (qid, query) in qids.iter().zip(&queries) {
        let expected = sorted(windowed_oracle_answers(&catalog, query, 0, &tuples));
        let actual = sorted(engine.answers().rows_for(*qid));
        assert_eq!(actual, expected, "query {qid} answers diverge from the oracle");
    }
}

/// Soundness holds for every placement strategy: every answer RJoin delivers
/// is an answer the oracle also derives (Theorem 2 additionally rules out
/// accidental duplicates, which we check via multiset inclusion).
#[test]
fn sound_and_duplicate_free_under_all_strategies() {
    for placement in [
        PlacementStrategy::RicAware,
        PlacementStrategy::Random,
        PlacementStrategy::Worst,
        PlacementStrategy::FirstInClause,
    ] {
        let scenario = small_scenario(2, 15, 40);
        let config = EngineConfig::with_placement(placement);
        let (engine, qids, queries, tuples) = run_scenario(config, &scenario);
        let catalog = scenario.workload_schema().build_catalog();

        for (qid, query) in qids.iter().zip(&queries) {
            // Sub-bag inclusion: every delivered row consumes one oracle row.
            assert_sound(
                &format!("{qid} ({placement:?})"),
                engine.answers().rows_for(*qid),
                windowed_oracle_answers(&catalog, query, 0, &tuples),
            );
        }
    }
}

/// Tuples published *before* a query is submitted must not contribute to its
/// answers (Definition 1).
#[test]
fn earlier_tuples_do_not_count() {
    let schema = WorkloadSchema::new(4, 3, 5);
    let catalog = schema.build_catalog();
    let config = EngineConfig::default().with_value_level_only(true);
    let mut engine = RJoinEngine::simulated(config, catalog.clone(), 16);
    let origin = engine.node_ids()[0];

    // Publish a batch of tuples first.
    let mut gen = rjoin_workload::TupleGenerator::new(schema.clone(), 0.9, 3);
    let early = gen.generate_batch(30, 1);
    for t in &early {
        engine.publish_tuple(origin, t.clone()).unwrap();
    }
    engine.run_until_quiescent().unwrap();

    // Now submit queries, then publish a second batch.
    let mut qgen = rjoin_workload::QueryGenerator::new(schema.clone(), 2, 5);
    let queries = qgen.generate_batch(10);
    let mut qids = Vec::new();
    let submit_time = engine.now();
    for q in &queries {
        qids.push(engine.submit_query(origin, q.clone()).unwrap());
    }
    engine.run_until_quiescent().unwrap();

    let late = gen.generate_batch(30, engine.now() + 1);
    for t in &late {
        engine.publish_tuple(origin, t.clone()).unwrap();
    }
    engine.run_until_quiescent().unwrap();

    // The oracle only sees the late tuples (those published after submission).
    for (qid, query) in qids.iter().zip(&queries) {
        let expected = sorted(windowed_oracle_answers(&catalog, query, submit_time, &late));
        let actual = sorted(engine.answers().rows_for(*qid));
        assert_eq!(actual, expected, "query {qid} must ignore pre-submission tuples");
    }
}

/// DISTINCT queries deliver set semantics: no repeated rows, and the set of
/// rows matches the oracle's set.
#[test]
fn distinct_queries_deliver_set_semantics() {
    let mut scenario = small_scenario(1, 20, 60);
    scenario.distinct = true;
    // A tiny domain maximises the chance of duplicate joins.
    scenario.domain = 3;
    let config = EngineConfig::default().with_value_level_only(true);
    let (engine, qids, queries, tuples) = run_scenario(config, &scenario);
    let catalog = scenario.workload_schema().build_catalog();

    let mut any_duplicates_avoided = false;
    for (qid, query) in qids.iter().zip(&queries) {
        let actual = engine.answers().rows_for(*qid);
        assert!(
            !engine.answers().has_duplicate_rows(*qid),
            "DISTINCT query {qid} received duplicate rows"
        );
        let expected_bag = windowed_oracle_answers(&catalog, query, 0, &tuples);
        let mut expected_set = sorted(expected_bag.clone());
        expected_set.dedup();
        if expected_bag.len() > expected_set.len() {
            any_duplicates_avoided = true;
        }
        // Every delivered row is a valid answer.
        for row in &actual {
            assert!(expected_set.contains(row), "unsound DISTINCT answer {row:?}");
        }
    }
    assert!(any_duplicates_avoided, "the workload should contain at least one potential duplicate");
}

/// A 4-way `SELECT DISTINCT` join under a sliding window, checked against
/// the centralized windowed oracle.
///
/// Tuples are published in bursts: within a burst all publication times fit
/// the window, while consecutive bursts are separated by far more than the
/// window length. Join values are chosen so that combinations mixing bursts
/// still satisfy every conjunct whenever R0 or R3 comes from a different
/// burst than the R1/R2 pair (the burst marker rides on the R1.A1 = R2.A1
/// edge, so those two relations must agree) — for all such combos only the
/// window can exclude them — and so
/// that each burst contributes fresh DISTINCT projections for every relation
/// (otherwise Section 4's duplicate elimination would legitimately suppress
/// later bursts). Each burst also contains a pair of tuples with identical
/// referenced projections, so bag semantics would deliver duplicate rows and
/// DISTINCT has to collapse them.
#[test]
fn four_way_distinct_sliding_window_matches_windowed_oracle() {
    let schema = WorkloadSchema::new(4, 3, 64);
    let catalog = schema.build_catalog();
    let config = EngineConfig::default().with_value_level_only(true);
    let mut engine = RJoinEngine::simulated(config, catalog.clone(), 24);
    let origin = engine.node_ids()[0];

    // Chain: R0.A0 = R1.A0 (constant 1), R1.A1 = R2.A1 (burst marker),
    // R2.A0 = R3.A0 (constant 3); select the two ends of the chain.
    let query = JoinQuery::new(
        true,
        vec![
            SelectItem::Attr(rjoin_query::QualifiedAttr::new("R0", "A2")),
            SelectItem::Attr(rjoin_query::QualifiedAttr::new("R3", "A2")),
        ],
        vec!["R0".into(), "R1".into(), "R2".into(), "R3".into()],
        vec![
            Conjunct::JoinEq(
                rjoin_query::QualifiedAttr::new("R0", "A0"),
                rjoin_query::QualifiedAttr::new("R1", "A0"),
            ),
            Conjunct::JoinEq(
                rjoin_query::QualifiedAttr::new("R1", "A1"),
                rjoin_query::QualifiedAttr::new("R2", "A1"),
            ),
            Conjunct::JoinEq(
                rjoin_query::QualifiedAttr::new("R2", "A0"),
                rjoin_query::QualifiedAttr::new("R3", "A0"),
            ),
        ],
        rjoin_query::WindowSpec::sliding_tuples(8),
    )
    .unwrap();
    let qid = engine.submit_query(origin, query.clone()).unwrap();
    engine.run_until_quiescent().unwrap();

    let tuple = |rel: &str, vals: [i64; 3], at: Timestamp| {
        Tuple::new(rel, vals.iter().map(|v| Value::from(*v)).collect(), at)
    };
    let mut published = Vec::new();
    for burst in 0..3i64 {
        // Bursts are 50 ticks apart — far beyond the 8-tuple window — while
        // the 6 tuples of one burst span 6 <= 8 positions.
        let base = engine.now() + 1 + 50 * burst as u64;
        let burst_tuples = [
            // Two R0 tuples with the same referenced projection (A0, A2):
            // the bag answer would repeat, DISTINCT must not.
            tuple("R0", [1, 0, burst], base),
            tuple("R0", [1, 5, burst], base + 1),
            tuple("R1", [1, burst, 0], base + 2),
            tuple("R2", [3, burst, 0], base + 3),
            tuple("R3", [3, 0, 10 + burst], base + 4),
            tuple("R3", [3, 1, 20 + burst], base + 5),
        ];
        for t in burst_tuples {
            engine.publish_tuple(origin, t.clone()).unwrap();
            published.push(t);
        }
        engine.run_until_quiescent().unwrap();
    }

    // The windowed bag oracle must see duplicates (the scenario exercises
    // DISTINCT), and its deduplicated form is the expected answer set.
    let bag = windowed_oracle_answers(&catalog, &query, 0, &published);
    let mut expected = sorted(bag.clone());
    expected.dedup();
    assert!(bag.len() > expected.len(), "the scenario must produce bag-duplicates");
    // Every burst contributes its two distinct rows: (b, 10+b) and (b, 20+b).
    assert_eq!(expected.len(), 6, "three bursts x two distinct rows each");

    let actual = sorted(engine.answers().rows_for(qid));
    assert!(!engine.answers().has_duplicate_rows(qid), "DISTINCT delivered duplicate rows");
    assert_eq!(
        actual, expected,
        "windowed DISTINCT answers diverge from the centralized windowed oracle"
    );
}

/// A 3-way join under a *tumbling* window, checked against the centralized
/// windowed oracle (ROADMAP "Oracle coverage" gap).
///
/// Join values are constant across bursts, so every cross-bucket combination
/// satisfies every conjunct — only the tumbling-bucket test can exclude it.
/// Three bursts land in three consecutive buckets, and one extra pair of
/// matching tuples straddles a bucket boundary, which the sliding validity
/// test would accept but the tumbling test must reject.
#[test]
fn three_way_tumbling_window_matches_windowed_oracle() {
    let schema = WorkloadSchema::new(3, 3, 64);
    let catalog = schema.build_catalog();
    let config = EngineConfig::default().with_value_level_only(true);
    let mut engine = RJoinEngine::simulated(config, catalog.clone(), 24);
    let origin = engine.node_ids()[0];

    let parts = |window| {
        JoinQuery::new(
            false,
            vec![
                SelectItem::Attr(rjoin_query::QualifiedAttr::new("R0", "A2")),
                SelectItem::Attr(rjoin_query::QualifiedAttr::new("R2", "A2")),
            ],
            vec!["R0".into(), "R1".into(), "R2".into()],
            vec![
                Conjunct::JoinEq(
                    rjoin_query::QualifiedAttr::new("R0", "A0"),
                    rjoin_query::QualifiedAttr::new("R1", "A0"),
                ),
                Conjunct::JoinEq(
                    rjoin_query::QualifiedAttr::new("R1", "A1"),
                    rjoin_query::QualifiedAttr::new("R2", "A1"),
                ),
            ],
            window,
        )
        .unwrap()
    };
    let query = parts(rjoin_query::WindowSpec::tumbling_time(20));
    let qid = engine.submit_query(origin, query.clone()).unwrap();
    engine.run_until_quiescent().unwrap();

    let tuple = |rel: &str, vals: [i64; 3], at: Timestamp| {
        Tuple::new(rel, vals.iter().map(|v| Value::from(*v)).collect(), at)
    };
    let mut published = Vec::new();
    // Three bursts, one per tumbling bucket [20b, 20b + 20).
    for burst in 0..3i64 {
        let base = 20 * burst as u64;
        for t in [
            tuple("R0", [1, 0, 100 + burst], base + 2),
            tuple("R1", [1, 2, 0], base + 3),
            tuple("R2", [5, 2, 200 + burst], base + 4),
        ] {
            published.push(t.clone());
            engine.publish_tuple(origin, t).unwrap();
        }
    }
    // A straddling pair: 18/19 sit in bucket 0, 21 in bucket 1. The sliding
    // test |start - now| + 1 <= 20 would join all three; tumbling must not.
    for t in
        [tuple("R0", [1, 0, 900], 18), tuple("R1", [1, 2, 1], 19), tuple("R2", [5, 2, 901], 21)]
    {
        published.push(t.clone());
        engine.publish_tuple(origin, t).unwrap();
    }
    engine.run_until_quiescent().unwrap();

    let expected = sorted(windowed_oracle_answers(&catalog, &query, 0, &published));
    // Sanity: without the window the constant join values join across
    // bursts, so the tumbling buckets must have excluded combinations.
    let unwindowed =
        windowed_oracle_answers(&catalog, &parts(rjoin_query::WindowSpec::None), 0, &published);
    assert!(
        unwindowed.len() > expected.len(),
        "the scenario must contain cross-bucket combinations for the window to exclude"
    );
    // And the straddling pair must not have produced the (900, 901) row.
    assert!(
        !expected.contains(&vec![Value::from(900), Value::from(901)]),
        "a combination straddling a bucket boundary must be excluded"
    );
    assert!(!expected.is_empty(), "within-bucket combinations must survive");

    let actual = sorted(engine.answers().rows_for(qid));
    assert_eq!(
        actual, expected,
        "tumbling-window answers diverge from the centralized windowed oracle"
    );
}

/// ALTT under churn (ROADMAP oracle gap): nodes join and leave mid-stream
/// while windowed queries keep running with the ALTT enabled and
/// attribute-level placement allowed. Membership changes hand application
/// state (stored queries, value-level tuples, ALTT entries) to the nodes
/// that become responsible for the keys, so the engine's answers must still
/// be exactly the centralized windowed oracle's.
#[test]
fn altt_under_churn_matches_windowed_oracle() {
    let schema = WorkloadSchema::new(4, 3, 6);
    let catalog = schema.build_catalog();
    // Attribute-level placement of rewrites is allowed: completeness then
    // rests on the ALTT (retention far beyond the run length) — exactly the
    // Section 4 configuration the churn must not break.
    let config = EngineConfig::default().with_altt(100_000).with_delay(2);
    let mut engine = RJoinEngine::simulated(config, catalog.clone(), 20);
    let origin = engine.node_ids()[0];

    let mut qgen = rjoin_workload::QueryGenerator::new(schema.clone(), 2, 11)
        .with_window(rjoin_query::WindowSpec::sliding_tuples(30));
    let queries = qgen.generate_batch(8);
    let mut qids = Vec::new();
    for q in &queries {
        qids.push(engine.submit_query(origin, q.clone()).unwrap());
    }
    engine.run_until_quiescent().unwrap();

    let mut tgen = rjoin_workload::TupleGenerator::new(schema.clone(), 0.9, 13);
    let mut published = Vec::new();
    let mut moved_total = 0usize;
    for round in 0..6 {
        for t in tgen.generate_batch(10, engine.now() + 1) {
            engine.publish_tuple(origin, t.clone()).unwrap();
            published.push(t);
        }
        engine.run_until_quiescent().unwrap();

        // Churn between bursts: one node joins, one (never the query owner,
        // never the newcomer) leaves gracefully, handing its state over.
        let added = engine.join_node(&format!("churn-oracle-{round}")).unwrap();
        let victim = engine
            .node_ids()
            .iter()
            .copied()
            .find(|id| *id != origin && *id != added)
            .expect("the ring always keeps more than two nodes");
        moved_total += engine.leave_node(victim).unwrap();
        engine.run_until_quiescent().unwrap();
    }
    assert!(moved_total > 0, "churn must actually re-home application state");

    let mut total = 0usize;
    for (qid, query) in qids.iter().zip(&queries) {
        let expected = sorted(windowed_oracle_answers(&catalog, query, 0, &published));
        let actual = sorted(engine.answers().rows_for(*qid));
        assert_eq!(
            actual, expected,
            "query {qid} diverges from the centralized windowed oracle under churn"
        );
        total += expected.len();
    }
    assert!(total > 0, "the churn workload must produce answers");
}

/// The same churn schedule with shared sub-join evaluation enabled on an
/// overlapping workload: re-homed shared entries must keep fanning answers
/// out to every subscriber, still matching the oracle exactly.
#[test]
fn shared_subjoins_survive_churn() {
    let schema = WorkloadSchema::new(4, 3, 6);
    let catalog = schema.build_catalog();
    let config = EngineConfig::default().with_value_level_only(true).with_subjoin_sharing(true);
    let mut engine = RJoinEngine::simulated(config, catalog.clone(), 20);
    let origin = engine.node_ids()[0];

    // 12 queries over 3 shared sub-join patterns.
    let mut qgen = rjoin_workload::QueryGenerator::new(schema.clone(), 2, 21);
    let queries = qgen.generate_overlapping_batch(12, 3);
    let mut qids = Vec::new();
    for q in &queries {
        qids.push(engine.submit_query(origin, q.clone()).unwrap());
    }
    engine.run_until_quiescent().unwrap();

    let mut tgen = rjoin_workload::TupleGenerator::new(schema.clone(), 0.9, 23);
    let mut published = Vec::new();
    for round in 0..4 {
        for t in tgen.generate_batch(12, engine.now() + 1) {
            engine.publish_tuple(origin, t.clone()).unwrap();
            published.push(t);
        }
        engine.run_until_quiescent().unwrap();
        let added = engine.join_node(&format!("churn-shared-{round}")).unwrap();
        let victim = engine
            .node_ids()
            .iter()
            .copied()
            .find(|id| *id != origin && *id != added)
            .expect("the ring always keeps more than two nodes");
        engine.leave_node(victim).unwrap();
        engine.run_until_quiescent().unwrap();
    }

    assert!(engine.sharing_counters().any_sharing(), "the overlap must engage sharing");
    let mut total = 0usize;
    for (qid, query) in qids.iter().zip(&queries) {
        let expected = sorted(windowed_oracle_answers(&catalog, query, 0, &published));
        let actual = sorted(engine.answers().rows_for(*qid));
        assert_eq!(actual, expected, "shared query {qid} diverges from the oracle under churn");
        total += expected.len();
    }
    assert!(total > 0, "the shared churn workload must produce answers");
}

/// The ALTT extension recovers answers that would otherwise be lost when an
/// input query is delayed behind a tuple that should trigger it (Example 1 /
/// Theorem 1).
#[test]
fn altt_recovers_from_message_delays() {
    let schema = WorkloadSchema::new(3, 3, 4);
    let catalog = schema.build_catalog();

    let run = |altt: Option<u64>| -> usize {
        let mut config = EngineConfig::default().with_value_level_only(true).with_delay(5);
        config.altt_delta = altt;
        let mut engine = RJoinEngine::simulated(config, catalog.clone(), 12);
        let origin = engine.node_ids()[0];
        // Publish the tuple and submit the query in the same tick: both are
        // in flight together and the tuple is processed first (it was sent
        // first), recreating the race of Example 1.
        let tuple_r = Tuple::new("R0", vec![Value::from(1), Value::from(2), Value::from(3)], 0);
        let tuple_s = Tuple::new("R1", vec![Value::from(1), Value::from(7), Value::from(9)], 0);
        engine.publish_tuple(origin, tuple_r).unwrap();
        engine.publish_tuple(origin, tuple_s).unwrap();
        let q = rjoin_query::parse_query("SELECT R0.A1, R1.A1 FROM R0, R1 WHERE R0.A0 = R1.A0")
            .unwrap();
        let qid = engine.submit_query(origin, q).unwrap();
        engine.run_until_quiescent().unwrap();
        engine.answers().count_for(qid)
    };

    assert_eq!(run(None), 0, "without the ALTT the racing answer is lost");
    assert_eq!(run(Some(1000)), 1, "with the ALTT the answer is recovered");
}
