//! Engine-level tests of the compiled predicate-program hot loop: for every
//! configuration variant and shard count, the answers must match the
//! centralized windowed oracle — exactly where the configuration's answers
//! do not depend on placement, as a sound sub-bag where they do — while the
//! compile counters show the programs were compiled, shared and run.
//!
//! The shard counts exercised honor the `RJOIN_SHARDS` environment variable
//! (comma-separated, e.g. `RJOIN_SHARDS=1,4`), which is what the CI
//! shard-count matrix sets; the default covers `1,4`.

mod common;

use common::{assert_exact, assert_sound, shard_counts, windowed_oracle_answers};
use rjoin_core::{EngineConfig, QueryId, RJoinEngine};
use rjoin_query::JoinQuery;
use rjoin_relation::Tuple;
use rjoin_workload::Scenario;

fn workload() -> (Scenario, Vec<JoinQuery>, Vec<Tuple>) {
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
    // Overlapping queries give the fingerprint cache twins to hit; the
    // constant-heavy generator mix exercises the pre-folded filters.
    let queries = scenario.generate_overlapping_queries(5);
    let tuples = scenario.generate_tuples(2);
    (scenario, queries, tuples)
}

/// The configuration variants the hot loop runs under in the rest of the
/// suite, each with whether its answers are placement-independent: default
/// placement, value-level rewrites, shared sub-joins, ALTT retention and
/// hot-key splitting.
fn variants() -> Vec<(&'static str, EngineConfig, bool)> {
    vec![
        ("default", EngineConfig::default(), false),
        ("value_level", EngineConfig::default().with_value_level_only(true), true),
        (
            "shared",
            EngineConfig::default().with_value_level_only(true).with_subjoin_sharing(true),
            true,
        ),
        ("altt", EngineConfig::default().with_altt(200), true),
        ("split", EngineConfig::default().with_hot_key_splitting(4, 2), false),
    ]
}

fn run(config: EngineConfig, shards: usize) -> (RJoinEngine, Vec<QueryId>) {
    let (scenario, queries, tuples) = workload();
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(config.with_shards(shards), catalog, scenario.nodes);
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
    (engine, qids)
}

/// Across every configuration variant and shard count, the compiled engine
/// delivers the oracle's answers: the whole bag where placement cannot
/// lose answers, a sound sub-bag where it can.
#[test]
fn compiled_answers_match_the_oracle() {
    let (scenario, queries, tuples) = workload();
    let catalog = scenario.workload_schema().build_catalog();
    for shards in shard_counts() {
        for (name, config, exact) in variants() {
            let (engine, qids) = run(config, shards);
            assert!(
                !engine.answers().is_empty(),
                "the {name} workload must deliver answers (shards={shards})"
            );
            for (qid, query) in qids.iter().zip(&queries) {
                let tag = format!("{qid} under variant={name} shards={shards}");
                let expected = windowed_oracle_answers(&catalog, query, 0, &tuples);
                let delivered = engine.answers().rows_for(*qid);
                if exact {
                    assert_exact(&tag, delivered, expected);
                } else {
                    assert_sound(&tag, delivered, expected);
                }
            }
        }
    }
}

/// Every trigger runs a compiled program: programs are compiled, the
/// fingerprint cache sees hits on the overlapping workload, no rewrite is
/// interpreted, and the per-delivery timer has accumulated.
#[test]
fn compile_counters_reflect_the_configured_path() {
    for shards in shard_counts() {
        let (compiled, _) = run(EngineConfig::default(), shards);
        let c = compiled.compile_counters();
        assert!(c.programs_compiled > 0, "shards={shards}: {c:?}");
        assert!(c.cache_hits > 0, "overlapping twins must hit the cache: {c:?}");
        assert!(c.compiled_rewrites > 0, "shards={shards}: {c:?}");
        assert_eq!(c.interpreted_rewrites, 0, "shards={shards}: {c:?}");
        assert!(c.eval_nanos > 0, "the trigger walks must be timed: {c:?}");
        assert_eq!(compiled.stats().compile, c, "stats snapshot must carry the counters");
    }
}
