//! Shared sub-join evaluation, end to end: on an overlapping multi-query
//! workload the shared registry must produce **exactly** the per-query
//! answers of the unshared engine (and of the centralized oracle) while
//! measurably reducing `Eval` traffic, query-processing load and the number
//! of stored queries.

mod common;

use common::{assert_sound, sorted, windowed_oracle_answers};
use rjoin_core::{traffic_class, EngineConfig, QueryId, RJoinEngine};
use rjoin_query::JoinQuery;
use rjoin_relation::Tuple;
use rjoin_workload::Scenario;

/// 40 input queries sharing 5 sub-join patterns (8 queries per pattern) over
/// a small, dense domain so joins actually complete.
fn overlap_workload() -> (Scenario, Vec<JoinQuery>, Vec<Tuple>) {
    let scenario = Scenario {
        nodes: 24,
        queries: 40,
        tuples: 50,
        joins: 2,
        relations: 6,
        attributes: 4,
        domain: 6,
        ..Scenario::small_test()
    };
    let queries = scenario.generate_overlapping_queries(5);
    // Publication times start after query submission in both engines (the
    // submission burst quiesces at tick 1).
    let tuples = scenario.generate_tuples(2);
    (scenario, queries, tuples)
}

fn run(share: bool) -> (RJoinEngine, Vec<QueryId>, Vec<JoinQuery>, Vec<Tuple>) {
    let (scenario, queries, tuples) = overlap_workload();
    // Value-level placement of rewrites guarantees exact oracle equality
    // (Theorems 1 and 2), so shared and unshared runs are comparable
    // answer-for-answer.
    let mut config = EngineConfig::default().with_value_level_only(true);
    if share {
        config = config.with_subjoin_sharing(true);
    }
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();
    let mut qids = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        qids.push(engine.submit_query(origins[i % origins.len()], q.clone()).unwrap());
    }
    engine.run_until_quiescent().unwrap();
    for (i, t) in tuples.iter().enumerate() {
        engine.publish_tuple(origins[i % origins.len()], t.clone()).unwrap();
    }
    engine.run_until_quiescent().unwrap();
    (engine, qids, queries, tuples)
}

/// The acceptance gate of the shared sub-join subsystem: identical answers,
/// measurably less work.
#[test]
fn shared_registry_reduces_load_with_identical_answers() {
    let (unshared, qids_a, queries, tuples) = run(false);
    let (shared, qids_b, _, _) = run(true);
    assert_eq!(qids_a, qids_b);

    // 1. Answers are identical per query — to the unshared engine *and* to
    //    the centralized oracle.
    let catalog = overlap_workload().0.workload_schema().build_catalog();
    let mut total_answers = 0usize;
    for (qid, query) in qids_a.iter().zip(&queries) {
        let expected = sorted(windowed_oracle_answers(&catalog, query, 0, &tuples));
        let base = sorted(unshared.answers().rows_for(*qid));
        let opt = sorted(shared.answers().rows_for(*qid));
        assert_eq!(base, expected, "unshared engine diverges from the oracle for {qid}");
        assert_eq!(opt, expected, "shared engine diverges from the oracle for {qid}");
        total_answers += expected.len();
    }
    assert!(total_answers > 0, "the workload must produce answers for the test to mean anything");

    // 2. Sharing actually engaged: queries merged, Evals saved, answers
    //    fanned out.
    let savings = shared.sharing_counters();
    assert!(savings.merged_queries > 0, "overlapping queries must merge: {savings:?}");
    assert!(savings.evals_saved > 0, "shared triggers must save re-index messages: {savings:?}");
    assert!(savings.fanout_answers > 0, "completions must fan out to subscribers: {savings:?}");
    assert!(!unshared.sharing_counters().any_sharing(), "sharing must stay off by default");

    // 3. The measurable wins: fewer stored queries, less Eval/index message
    //    traffic, lower query-processing and storage load.
    assert!(
        shared.stored_queries_current() < unshared.stored_queries_current(),
        "stored-query load must drop ({} vs {})",
        shared.stored_queries_current(),
        unshared.stored_queries_current()
    );
    let eval_a = unshared.traffic().total_sent_class(traffic_class::EVAL);
    let eval_b = shared.traffic().total_sent_class(traffic_class::EVAL);
    assert!(eval_b < eval_a, "Eval re-index traffic must drop ({eval_b} vs {eval_a})");
    assert!(
        shared.total_qpl() < unshared.total_qpl(),
        "query-processing load must drop ({} vs {})",
        shared.total_qpl(),
        unshared.total_qpl()
    );
    assert!(
        shared.total_sl() < unshared.total_sl(),
        "storage load must drop ({} vs {})",
        shared.total_sl(),
        unshared.total_sl()
    );

    // 4. The savings are visible through the stats snapshot as well.
    let stats = shared.stats();
    assert_eq!(stats.sharing, savings);
    assert_eq!(stats.stored_queries_current, shared.stored_queries_current());
}

/// Sharing under **sliding windows**: overlapping windowed queries must
/// still produce exactly the centralized windowed oracle's answers with the
/// registry on — the shared span gate (`window_min`/`window_max`) and the
/// no-merge-across-spans rule are what this exercises end to end.
#[test]
fn shared_registry_matches_windowed_oracle() {
    let (mut scenario, _, _) = overlap_workload();
    scenario.window = rjoin_query::WindowSpec::sliding_tuples(12);
    let queries = scenario.generate_overlapping_queries(5);
    let tuples = scenario.generate_tuples(2);
    let catalog = scenario.workload_schema().build_catalog();

    let run_with = |share: bool| {
        let mut config = EngineConfig::default().with_value_level_only(true);
        if share {
            config = config.with_subjoin_sharing(true);
        }
        let mut engine = RJoinEngine::simulated(config, catalog.clone(), scenario.nodes);
        let origins: Vec<_> = engine.node_ids().to_vec();
        let mut qids = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            qids.push(engine.submit_query(origins[i % origins.len()], q.clone()).unwrap());
        }
        engine.run_until_quiescent().unwrap();
        for (i, t) in tuples.iter().enumerate() {
            engine.publish_tuple(origins[i % origins.len()], t.clone()).unwrap();
        }
        engine.run_until_quiescent().unwrap();
        (engine, qids)
    };
    let (unshared, qids) = run_with(false);
    let (shared, qids_b) = run_with(true);
    assert_eq!(qids, qids_b);

    let mut total = 0usize;
    for (qid, query) in qids.iter().zip(&queries) {
        let expected = sorted(windowed_oracle_answers(&catalog, query, 0, &tuples));
        assert_eq!(
            sorted(unshared.answers().rows_for(*qid)),
            expected,
            "unshared windowed run diverges from the oracle for {qid}"
        );
        assert_eq!(
            sorted(shared.answers().rows_for(*qid)),
            expected,
            "shared windowed run diverges from the oracle for {qid}"
        );
        total += expected.len();
    }
    assert!(total > 0, "the windowed overlap workload must produce answers");
    assert!(shared.sharing_counters().any_sharing(), "windowed twins must still merge");
}

/// Sharing must also hold up under the default (attribute-level capable)
/// placement: answers remain a subset-equal multiset of the unshared run's
/// per-query answers and sharing still saves work.
#[test]
fn shared_registry_is_sound_under_default_placement() {
    let (scenario, queries, tuples) = overlap_workload();
    let run_with = |share: bool| {
        let mut config = EngineConfig::default();
        if share {
            config = config.with_subjoin_sharing(true);
        }
        let catalog = scenario.workload_schema().build_catalog();
        let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
        let origins: Vec<_> = engine.node_ids().to_vec();
        let mut qids = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            qids.push(engine.submit_query(origins[i % origins.len()], q.clone()).unwrap());
        }
        engine.run_until_quiescent().unwrap();
        for (i, t) in tuples.iter().enumerate() {
            engine.publish_tuple(origins[i % origins.len()], t.clone()).unwrap();
        }
        engine.run_until_quiescent().unwrap();
        (engine, qids)
    };
    let (unshared, _) = run_with(false);
    let (shared, qids) = run_with(true);
    let catalog = scenario.workload_schema().build_catalog();
    // Soundness versus the oracle: every delivered row consumes one oracle
    // row (no unsound answers, no duplicates).
    for (qid, query) in qids.iter().zip(&queries) {
        assert_sound(
            &format!("shared {qid}"),
            shared.answers().rows_for(*qid),
            windowed_oracle_answers(&catalog, query, 0, &tuples),
        );
    }
    assert!(shared.sharing_counters().any_sharing());
    // Sharing must not eat into recall: the shared run delivers at least as
    // many answers as the unshared one (attribute-level placement makes the
    // default config lossy in general, but merging twins only *adds*
    // trigger opportunities at their merge site, never removes them).
    assert!(!shared.answers().is_empty(), "the shared run must deliver answers");
    assert!(
        shared.answers().len() >= unshared.answers().len(),
        "sharing lost answers: {} shared vs {} unshared",
        shared.answers().len(),
        unshared.answers().len()
    );
}
