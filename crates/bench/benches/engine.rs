//! End-to-end engine benchmarks: tuple-processing throughput under the
//! different placement strategies (the ablation behind Figure 2) and with
//! RIC reuse enabled/disabled (the Section 7 optimisation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rjoin_core::{EngineConfig, PlacementStrategy, RJoinEngine};
use rjoin_workload::Scenario;

fn bench_scenario() -> Scenario {
    Scenario { nodes: 48, queries: 300, tuples: 60, ..Scenario::small_test() }
}

fn run(config: EngineConfig, scenario: &Scenario) -> u64 {
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();
    for (i, q) in scenario.generate_queries().into_iter().enumerate() {
        engine.submit_query(origins[i % origins.len()], q).unwrap();
    }
    engine.run_until_quiescent().unwrap();
    for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
        engine.publish_tuple(origins[i % origins.len()], t).unwrap();
    }
    engine.run_until_quiescent().unwrap();
    engine.total_qpl()
}

fn bench_placement_strategies(c: &mut Criterion) {
    let scenario = bench_scenario();
    let mut group = c.benchmark_group("placement_strategy");
    group.sample_size(10);
    for (name, strategy) in [
        ("ric_aware", PlacementStrategy::RicAware),
        ("random", PlacementStrategy::Random),
        ("worst", PlacementStrategy::Worst),
        ("first_in_clause", PlacementStrategy::FirstInClause),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &strategy, |b, strategy| {
            b.iter(|| run(EngineConfig::with_placement(*strategy), &scenario))
        });
    }
    group.finish();
}

fn bench_ric_reuse_ablation(c: &mut Criterion) {
    let scenario = bench_scenario();
    let mut group = c.benchmark_group("ric_reuse");
    group.sample_size(10);
    group.bench_function("with_reuse", |b| b.iter(|| run(EngineConfig::default(), &scenario)));
    group.bench_function("without_reuse", |b| {
        b.iter(|| run(EngineConfig::default().with_ric_reuse(false), &scenario))
    });
    group.finish();
}

fn bench_window_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_size");
    group.sample_size(10);
    for window in [10u64, 40, 0] {
        let mut scenario = bench_scenario();
        scenario.window = if window == 0 {
            rjoin_query::WindowSpec::None
        } else {
            rjoin_query::WindowSpec::sliding_tuples(window)
        };
        let label = if window == 0 { "none".to_string() } else { format!("W{window}") };
        group.bench_with_input(BenchmarkId::from_parameter(label), &scenario, |b, scenario| {
            b.iter(|| run(EngineConfig::default(), scenario))
        });
    }
    group.finish();
}

/// The sharded event-queue runtime on the cascade-heavy standard workload
/// (3-join chain queries whose rewrites hop Eval/Index chains across the
/// ring) at 2/4/8 shards; `placement_strategy/ric_aware` is the same
/// workload on the single queue. Every shard runs on its own OS thread,
/// whatever the host's core count.
fn bench_sharding_runtime(c: &mut Criterion) {
    let scenario = bench_scenario();
    let mut group = c.benchmark_group("sharding_runtime");
    group.sample_size(10);
    for shards in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("shards{shards}")),
            &shards,
            |b, &shards| b.iter(|| run(EngineConfig::default().with_shards(shards), &scenario)),
        );
    }
    group.finish();
}

/// The long-horizon `scale` workload — a reduced cut of
/// [`Scenario::scale_test`]: thousands of overlapping windowed queries
/// (50 per shared sub-join pattern) over a publication horizon of ~125
/// window-lengths, with sharing and the ALTT on so all three state
/// families carry expiry pressure.
fn run_scale(config: EngineConfig) -> u64 {
    let scenario = Scenario { nodes: 256, queries: 2_000, tuples: 8_000, ..Scenario::scale_test() };
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();
    for (i, q) in
        scenario.generate_overlapping_queries(scenario.queries / 50).into_iter().enumerate()
    {
        engine.submit_query(origins[i % origins.len()], q).unwrap();
    }
    engine.run_until_quiescent().unwrap();
    for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
        engine.publish_tuple(origins[i % origins.len()], t).unwrap();
    }
    engine.run_until_quiescent().unwrap();
    engine.total_qpl()
}

/// Timer-wheel expiry (`engine`, the default) versus the contact-driven
/// sweep (`sweep`) on the scale workload, which publishes every tuple at
/// or after the clock, so both modes answer identically; the delta is the
/// price of O(active) *memory* — sweep mode reclaims only on contact, so
/// state at rings the workload stops touching survives the whole horizon
/// (~70× the wheel's live stored-query count on this cut),
/// while the wheel pays a per-delivery advance plus a pop per deadline to
/// keep peak state proportional to what can still trigger.
fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    let config = || EngineConfig::default().with_subjoin_sharing(true).with_altt(256);
    group.bench_function("engine", |b| b.iter(|| run_scale(config())));
    group.bench_function("sweep", |b| b.iter(|| run_scale(config().with_wheel_expiry(false))));
    group.finish();
}

/// Cyclic query shapes under the two-plan planner: the `pipeline` leg is
/// the matched acyclic chain workload (cycle knob off, same schema and
/// counts), the `hypercube` leg is the triangle workload evaluated as
/// replicated cells with cell-local partials. The delta is the price of
/// cyclic shapes.
fn bench_cyclic_shapes(c: &mut Criterion) {
    let scenario =
        |cycle: usize| Scenario { cycle, queries: 60, tuples: 120, ..Scenario::cyclic_test() };
    let mut group = c.benchmark_group("cyclic");
    group.sample_size(10);
    group.bench_function("pipeline", |b| b.iter(|| run(EngineConfig::default(), &scenario(0))));
    group.bench_function("hypercube", |b| b.iter(|| run(EngineConfig::default(), &scenario(3))));
    group.finish();
}

criterion_group!(
    benches,
    bench_placement_strategies,
    bench_ric_reuse_ablation,
    bench_window_sizes,
    bench_sharding_runtime,
    bench_scale,
    bench_cyclic_shapes
);
criterion_main!(benches);
