//! Oracle tests of the value-partitioned trigger index: for sliding and
//! tumbling windows, with shared sub-joins, the ALTT, hot-key splitting,
//! hypercube cells and membership churn in the mix, the indexed engine must
//! deliver exactly the centralized windowed oracle's per-query answer bag.
//! Every configuration here retains attribute-level tuples (ALTT) or runs
//! on hypercube cells, so its answers do not depend on placement. Rows are
//! compared **sorted**: the index hands candidates out residual-first and
//! column-by-column, so answer order within a tick follows probe order,
//! not bucket order.
//!
//! The shard counts exercised honor the `RJOIN_SHARDS` environment variable
//! (comma-separated, e.g. `RJOIN_SHARDS=1,4`), which is what the CI
//! shard-count matrix sets; the default covers `1,4`.

mod common;

use common::{assert_exact, shard_counts, windowed_oracle_answers};
use rjoin_core::{EngineConfig, QueryId, RJoinEngine};
use rjoin_query::{JoinQuery, WindowSpec};
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

/// One finished run: the engine, its queries (all submitted at tick 0) and
/// every tuple it published.
struct Run {
    engine: RJoinEngine,
    qids: Vec<QueryId>,
    queries: Vec<JoinQuery>,
    published: Vec<Tuple>,
}

impl Run {
    /// Checks every query against the oracle and the probe counters against
    /// the indexed path. Returns the number of rows so callers can require
    /// a non-vacuous workload.
    fn assert_matches_oracle(&self, tag: &str, scenario: &Scenario) -> usize {
        let catalog = scenario.workload_schema().build_catalog();
        let mut produced = 0usize;
        for (qid, query) in self.qids.iter().zip(&self.queries) {
            produced += assert_exact(
                &format!("{tag}: {qid}"),
                self.engine.answers().rows_for(*qid),
                windowed_oracle_answers(&catalog, query, 0, &self.published),
            );
        }
        let probe = self.engine.probe_counters();
        assert!(probe.indexed_probes > 0, "{tag}: the engine never probed the index");
        assert_eq!(probe.linear_walks, 0, "{tag}: no arrival may walk a whole bucket");
        assert!(
            probe.candidates_probed <= probe.bucket_len_total,
            "{tag}: the index must never hand out more candidates than the bucket holds \
             ({} > {})",
            probe.candidates_probed,
            probe.bucket_len_total,
        );
        produced
    }
}

/// Runs the windowed workload — overlapping queries, two tuple waves with a
/// node joining between them and leaving after them (so re-homed state must
/// stay correctly indexed at its new home too). `split_head` force-splits
/// every attribute key of the head relation after the first wave, while its
/// buckets hold live indexed entries.
fn run(scenario: &Scenario, config: EngineConfig, split_head: bool) -> Run {
    let queries = scenario.generate_overlapping_queries(5);
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();
    let mut qids = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        qids.push(engine.submit_query(origins[i % origins.len()], q.clone()).unwrap());
    }
    engine.run_until_quiescent().unwrap();

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
    if split_head {
        // The donor's index entries are dropped ring-by-ring, the receivers
        // re-file them under the split sub-keys, which keep the original
        // key text — so pins stay vacuous-aware.
        for attr in ["A0", "A1", "A2", "A3"] {
            engine.split_key(&rjoin_query::IndexKey::attribute("R0", attr), 4).unwrap();
        }
    }
    // Churn at the quiescent points: the joiner steals buckets mid-run
    // (their index entries move with the re-homed state), then leaves
    // again, re-homing everything a second time.
    let joined = engine.join_node("trigger-index-churn").unwrap();
    let wave = second.generate_tuples(engine.now() + 1);
    publish(&mut engine, wave);
    engine.leave_node(joined).unwrap();
    Run { engine, qids, queries, published }
}

#[test]
fn indexed_probing_matches_the_oracle() {
    for shards in shard_counts() {
        for (kind, window) in [
            ("sliding", WindowSpec::sliding_tuples(16)),
            ("tumbling", WindowSpec::tumbling_time(16)),
        ] {
            for (variant, config) in [
                ("shared+altt", EngineConfig::default().with_subjoin_sharing(true).with_altt(64)),
                ("unshared+altt", EngineConfig::default().with_altt(64)),
                ("split+altt", EngineConfig::default().with_altt(32).with_hot_key_splitting(4, 2)),
            ] {
                let tag = format!("shards={shards} window={kind} variant={variant}");
                let scenario = scenario(window);
                let run = run(&scenario, config.with_shards(shards), false);
                let produced = run.assert_matches_oracle(&tag, &scenario);
                assert!(produced > 0, "{tag}: the workload should produce answers");
            }
        }
    }
}

/// Forced splitting interacting with churn: `split_key` re-homes stored
/// windowed state to the sub-key owners mid-run, a joining node steals
/// some of it again, and the leave re-homes it a third time. No stored
/// query may be orphaned or double-filed along the way: answers must match
/// the oracle exactly.
#[test]
fn forced_split_and_churn_keep_the_index_consistent() {
    for shards in shard_counts() {
        let tag = format!("split+churn shards={shards}");
        let scenario = scenario(WindowSpec::sliding_tuples(16));
        let config =
            EngineConfig::default().with_subjoin_sharing(true).with_altt(64).with_shards(shards);
        let run = run(&scenario, config, true);
        let produced = run.assert_matches_oracle(&tag, &scenario);
        assert!(produced > 0, "{tag}: the split workload should produce answers");
    }
}

/// Cyclic shapes on the hypercube plan: replicated cell registrations
/// trigger on every relation of the query, so they are filed as residual
/// entries — the index must hand every one of them to every arriving
/// tuple, with churn re-homing cell state mid-stream. Answers must match
/// the oracle exactly.
#[test]
fn hypercube_cells_match_the_oracle_under_churn() {
    let scenario = Scenario { nodes: 24, queries: 6, tuples: 48, ..Scenario::cyclic_test() };
    for shards in shard_counts() {
        let tag = format!("hypercube shards={shards}");
        let catalog = scenario.workload_schema().build_catalog();
        let config = EngineConfig::default().with_shards(shards);
        let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
        let origins: Vec<_> = engine.node_ids().to_vec();
        let queries = scenario.generate_queries();
        let mut qids = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            qids.push(engine.submit_query(origins[i % origins.len()], q.clone()).unwrap());
        }
        engine.run_until_quiescent().unwrap();

        let tuples = scenario.generate_tuples(engine.now() + 1);
        let churn_point = tuples.len() / 2;
        for (i, t) in tuples.iter().enumerate() {
            if i == churn_point {
                engine.run_until_quiescent().unwrap();
                engine.join_node("trigger-index-cyclic-churn").unwrap();
            }
            let origin = engine.node_ids()[i % engine.node_ids().len()];
            engine.publish_tuple(origin, t.clone()).unwrap();
        }
        engine.run_until_quiescent().unwrap();
        assert!(
            engine.planner_counters().any_hypercube(),
            "{tag}: the cyclic workload must take the hypercube plan"
        );
        let run = Run { engine, qids, queries, published: tuples };
        let produced = run.assert_matches_oracle(&tag, &scenario);
        assert!(produced > 0, "{tag}: the cyclic workload should produce answers");
        // Hypercube cell registrations trigger on every relation: they must
        // be filed as residual, never under a single discriminating column.
        assert!(
            run.engine.probe_counters().residual_probed > 0,
            "{tag}: hypercube cell entries must be probed from the residual list"
        );
    }
}
