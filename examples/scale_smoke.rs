//! Scale smoke run: the long-horizon windowed workload at CI-friendly size.
//!
//! [`Scenario::scale_test`] is the ≥512-node / 10⁴-query / 10⁵-tuple
//! generator the O(active) state machinery (slab-backed stores + timer-wheel
//! expiry) is sized for. Running it in full takes minutes; this example runs
//! a reduced cut end-to-end and prints the run's statistics as CSV — answer
//! and traffic totals plus the slab/wheel gauges and the trigger-index
//! probe counters — so CI can archive the state-machinery trajectory next
//! to the bench numbers.
//!
//! Run with: `cargo run --release --example scale_smoke`
//!
//! `SCALE_SMOKE_FULL=1` runs the full `Scenario::scale_test()` preset
//! (minutes, not CI material); the output format is identical.

use rjoin::prelude::*;

/// Queries per shared sub-join pattern — the multi-query regime the scale
/// workload models (thousands of standing queries over a few hundred
/// distinct structures).
const OVERLAP: usize = 50;

fn main() {
    let full = std::env::var("SCALE_SMOKE_FULL").is_ok_and(|v| v == "1");
    let scenario = if full {
        Scenario::scale_test()
    } else {
        Scenario { nodes: 128, queries: 1_000, tuples: 4_000, ..Scenario::scale_test() }
    };
    let config = EngineConfig::default().with_subjoin_sharing(true).with_altt(256);
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();

    let queries = scenario.generate_overlapping_queries(scenario.queries / OVERLAP);
    for (i, q) in queries.into_iter().enumerate() {
        engine.submit_query(origins[i % origins.len()], q).unwrap();
    }
    engine.run_until_quiescent().unwrap();

    for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
        engine.publish_tuple(origins[i % origins.len()], t).unwrap();
    }
    engine.run_until_quiescent().unwrap();

    let stats = engine.stats();
    let state = stats.state;
    println!("metric,value");
    println!("nodes,{}", stats.nodes);
    println!("queries,{}", scenario.queries);
    println!("tuples,{}", scenario.tuples);
    println!("answers,{}", stats.answers);
    println!("traffic_total,{}", stats.traffic_total);
    println!("qpl_total,{}", stats.qpl_total);
    println!("stored_queries_current,{}", stats.stored_queries_current);
    println!("query_slab_live,{}", state.query_slab_live);
    println!("query_slab_high_water,{}", state.query_slab_high_water);
    println!("tuple_slab_live,{}", state.tuple_slab_live);
    println!("tuple_slab_high_water,{}", state.tuple_slab_high_water);
    println!("altt_slab_live,{}", state.altt_slab_live);
    println!("altt_slab_high_water,{}", state.altt_slab_high_water);
    println!("wheel_scheduled,{}", state.wheel_scheduled);
    println!("wheel_pops,{}", state.wheel_pops);
    println!("contact_expirations,{}", state.contact_expirations);
    let probe = stats.probe;
    println!("indexed_probes,{}", probe.indexed_probes);
    println!("candidates_probed,{}", probe.candidates_probed);
    println!("residual_probed,{}", probe.residual_probed);
    println!("bucket_len_total,{}", probe.bucket_len_total);
    println!("index_entries_high_water,{}", probe.index_entries_high_water);

    // The point of the machinery, asserted where CI will trip on it: with
    // the wheel on, reclamation is deadline pops, and peak live state stays
    // a fraction of the run's cumulative volume.
    assert!(state.wheel_pops > 0, "the wheel must pop on a windowed long-horizon run");
    assert!(
        state.query_slab_high_water < stats.qpl_total,
        "peak live stored queries must stay below cumulative processing volume"
    );
    assert!(probe.indexed_probes > 0, "the trigger index must serve tuple arrivals by default");
    assert!(
        probe.candidates_probed <= probe.bucket_len_total,
        "the index must never hand out more candidates than a linear walk would scan"
    );
    eprintln!(
        "scale smoke ok: {} answers, {} wheel pops vs {} contact expirations, \
         {} candidates probed of {} bucket entries",
        stats.answers,
        state.wheel_pops,
        state.contact_expirations,
        probe.candidates_probed,
        probe.bucket_len_total
    );
}
