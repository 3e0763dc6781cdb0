//! Identifier-movement load balancing under RJoin (the Figure 9 experiment
//! in miniature).
//!
//! RJoin only uses the standard DHT `lookup` API, so any low-level DHT
//! optimisation can be plugged underneath it. This example runs a skewed
//! workload, measures the per-key query-processing load, and then applies
//! the Karger–Ruhl identifier-movement technique to show how the maximum
//! per-node load drops and how many more nodes end up sharing the work.
//!
//! Run with: `cargo run --release --example load_balancing`

use rjoin::dht::balance;
use rjoin::prelude::*;

fn main() {
    // A deliberately skewed workload: Zipf θ = 0.9 over relations and values.
    let scenario = Scenario {
        nodes: 96,
        queries: 800,
        tuples: 150,
        joins: 3,
        theta: 0.9,
        ..Scenario::small_test()
    };
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

    // Per-key load observed during the run, keyed by ring identifier.
    let key_loads = engine.qpl_by_key_id();
    println!(
        "observed {} distinct index keys, total query processing load {}",
        key_loads.len(),
        engine.total_qpl()
    );

    // Rebuild the same ring and compare the load distribution with and
    // without identifier movement.
    let mut reference: Network<()> = Network::new(NetworkConfig::default());
    reference.bootstrap(scenario.nodes, "rjoin-node");

    let without = balance::node_loads(reference.dht(), &key_loads).unwrap();
    let without = Distribution::from_values(without.values().copied());

    let mut balanced = reference;
    let movements = balance::rebalance(balanced.dht_mut(), &key_loads, scenario.nodes / 4).unwrap();
    let with = balance::node_loads(balanced.dht(), &key_loads).unwrap();
    let with = Distribution::from_values(with.values().copied());

    let mut table = Table::new(
        "Identifier movement: query processing load",
        ["metric", "without", "with id movement"],
    );
    table.push_row(["max load", &without.max().to_string(), &with.max().to_string()]);
    table.push_row([
        "99th percentile",
        &without.percentile(99.0).to_string(),
        &with.percentile(99.0).to_string(),
    ]);
    table.push_row([
        "participating nodes",
        &without.participants().to_string(),
        &with.participants().to_string(),
    ]);
    table.push_row([
        "gini coefficient",
        &format!("{:.3}", without.gini()),
        &format!("{:.3}", with.gini()),
    ]);
    println!("\n{}", table.to_text());
    println!("identifier movements performed: {}", movements.len());

    assert!(with.max() <= without.max(), "id movement must not increase the maximum load");
}
