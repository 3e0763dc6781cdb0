//! Cross-crate integration tests exercised through the `rjoin` facade: the
//! full pipeline from SQL text to answers delivered over the simulated DHT.

use rjoin::dht::balance;
use rjoin::prelude::*;

fn small_engine(nodes: usize) -> (RJoinEngine, Vec<Id>) {
    let schema = WorkloadSchema::paper_default();
    let engine = RJoinEngine::simulated(EngineConfig::default(), schema.build_catalog(), nodes);
    let ids = engine.node_ids().to_vec();
    (engine, ids)
}

#[test]
fn figure_one_walkthrough_delivers_the_paper_answer() {
    let mut catalog = Catalog::new();
    for rel in ["R", "S", "J", "M"] {
        catalog.register(Schema::new(rel, ["A", "B", "C"]).unwrap()).unwrap();
    }
    let mut engine = RJoinEngine::simulated(EngineConfig::default(), catalog, 48);
    let node = engine.node_ids()[0];

    let q =
        parse_query("SELECT S.B, M.A FROM R, S, J, M WHERE R.A = S.A AND S.B = J.B AND J.C = M.C")
            .unwrap();
    let qid = engine.submit_query(node, q).unwrap();
    engine.run_until_quiescent().unwrap();

    for (rel, values) in [("R", [2, 5, 8]), ("S", [2, 6, 3]), ("M", [9, 1, 2]), ("J", [7, 6, 2])] {
        let t = Tuple::new(rel, values.iter().map(|v| Value::from(*v)).collect(), engine.now() + 1);
        engine.publish_tuple(node, t).unwrap();
        engine.run_until_quiescent().unwrap();
    }

    assert_eq!(engine.answers().rows_for(qid), vec![vec![Value::from(6), Value::from(9)]]);
}

#[test]
fn zipf_workload_produces_answers_and_spreads_load() {
    let scenario = Scenario { nodes: 48, queries: 300, tuples: 120, ..Scenario::small_test() };
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(EngineConfig::default(), catalog, scenario.nodes);
    let nodes = engine.node_ids().to_vec();

    for (i, q) in scenario.generate_queries().into_iter().enumerate() {
        engine.submit_query(nodes[i % nodes.len()], q).unwrap();
    }
    engine.run_until_quiescent().unwrap();
    for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
        engine.publish_tuple(nodes[i % nodes.len()], t).unwrap();
    }
    engine.run_until_quiescent().unwrap();

    let stats = engine.stats();
    assert!(stats.answers > 0, "a skewed workload of this size must produce answers");
    assert!(stats.traffic_total > 0);
    assert!(
        stats.qpl_participants > scenario.nodes / 2,
        "most nodes should take part in query processing (got {})",
        stats.qpl_participants
    );
    // The paper's metric relationships hold: every stored item was counted,
    // and the per-key breakdown is consistent with the per-node totals.
    assert_eq!(engine.qpl_by_key_id().values().sum::<u64>(), stats.qpl_total);
    assert_eq!(engine.sl_by_key_id().values().sum::<u64>(), stats.sl_total);
    assert!(stats.current_storage.total() <= stats.sl_total);
}

#[test]
fn placement_strategies_rank_as_in_figure_two() {
    let scenario = Scenario { nodes: 48, queries: 400, tuples: 100, ..Scenario::small_test() };
    let catalog = scenario.workload_schema().build_catalog();

    let run = |placement| {
        let mut engine = RJoinEngine::simulated(
            EngineConfig::with_placement(placement),
            catalog.clone(),
            scenario.nodes,
        );
        let nodes = engine.node_ids().to_vec();
        for (i, q) in scenario.generate_queries().into_iter().enumerate() {
            engine.submit_query(nodes[i % nodes.len()], q).unwrap();
        }
        engine.run_until_quiescent().unwrap();
        for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
            engine.publish_tuple(nodes[i % nodes.len()], t).unwrap();
        }
        engine.run_until_quiescent().unwrap();
        engine.stats()
    };

    let rjoin = run(PlacementStrategy::RicAware);
    let random = run(PlacementStrategy::Random);
    let worst = run(PlacementStrategy::Worst);

    // Figure 2 shape: the adversarial strategy triggers the most query
    // processing and storage work. (At this test's tiny scale the RIC-aware
    // and random strategies are close — all input queries are placed before
    // any rate information exists — so the robust orderings are against the
    // worst-case baseline; the full gap is visible at the benchmark scales,
    // see EXPERIMENTS.md.)
    assert!(rjoin.qpl_total <= worst.qpl_total, "{} vs {}", rjoin.qpl_total, worst.qpl_total);
    assert!(random.qpl_total <= worst.qpl_total, "{} vs {}", random.qpl_total, worst.qpl_total);
    assert!(rjoin.sl_total <= worst.sl_total);
    assert!(rjoin.qpl.max() <= worst.qpl.max());
}

#[test]
fn sliding_windows_bound_live_state() {
    let base = Scenario { nodes: 48, queries: 200, tuples: 150, ..Scenario::small_test() };
    let run = |window| {
        let scenario = Scenario { window, ..base.clone() };
        let catalog = scenario.workload_schema().build_catalog();
        let mut engine = RJoinEngine::simulated(EngineConfig::default(), catalog, scenario.nodes);
        let nodes = engine.node_ids().to_vec();
        for (i, q) in scenario.generate_queries().into_iter().enumerate() {
            engine.submit_query(nodes[i % nodes.len()], q).unwrap();
        }
        engine.run_until_quiescent().unwrap();
        for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
            engine.publish_tuple(nodes[i % nodes.len()], t).unwrap();
        }
        engine.run_until_quiescent().unwrap();
        engine.stats()
    };

    let unwindowed = run(WindowSpec::None);
    let windowed = run(WindowSpec::sliding_tuples(25));
    assert!(
        windowed.current_storage.total() < unwindowed.current_storage.total(),
        "a small window must garbage-collect rewritten-query state ({} vs {})",
        windowed.current_storage.total(),
        unwindowed.current_storage.total()
    );
    assert!(windowed.qpl_total <= unwindowed.qpl_total);
}

#[test]
fn identifier_movement_reduces_hotspots_on_engine_loads() {
    let (mut engine, nodes) = small_engine(64);
    let scenario = Scenario { nodes: 64, queries: 400, tuples: 100, ..Scenario::small_test() };
    for (i, q) in scenario.generate_queries().into_iter().enumerate() {
        engine.submit_query(nodes[i % nodes.len()], q).unwrap();
    }
    engine.run_until_quiescent().unwrap();
    for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
        engine.publish_tuple(nodes[i % nodes.len()], t).unwrap();
    }
    engine.run_until_quiescent().unwrap();

    let key_loads = engine.qpl_by_key_id();
    let mut ring: Network<()> = Network::new(NetworkConfig::default());
    ring.bootstrap(64, "rjoin-node");
    let before = balance::node_loads(ring.dht(), &key_loads).unwrap();
    let max_before = *before.values().max().unwrap();

    balance::rebalance(ring.dht_mut(), &key_loads, 16).unwrap();
    let after = balance::node_loads(ring.dht(), &key_loads).unwrap();
    let max_after = *after.values().max().unwrap();

    assert!(max_after <= max_before);
    assert_eq!(before.values().sum::<u64>(), after.values().sum::<u64>());
}

#[test]
fn distinct_queries_have_no_duplicate_rows_end_to_end() {
    let scenario = Scenario {
        nodes: 32,
        queries: 100,
        tuples: 120,
        joins: 1,
        domain: 4,
        distinct: true,
        ..Scenario::small_test()
    };
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(EngineConfig::default(), catalog, scenario.nodes);
    let nodes = engine.node_ids().to_vec();
    let mut qids = Vec::new();
    for (i, q) in scenario.generate_queries().into_iter().enumerate() {
        qids.push(engine.submit_query(nodes[i % nodes.len()], q).unwrap());
    }
    engine.run_until_quiescent().unwrap();
    for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
        engine.publish_tuple(nodes[i % nodes.len()], t).unwrap();
    }
    engine.run_until_quiescent().unwrap();

    assert!(!engine.answers().is_empty());
    for qid in qids {
        assert!(!engine.answers().has_duplicate_rows(qid), "duplicates delivered for {qid}");
    }
}
