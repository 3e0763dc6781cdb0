//! Aggregated statistics of an engine run, in the units the paper reports.

use rjoin_metrics::{
    CompileCounters, Distribution, PlannerCounters, ProbeCounters, ShardRuntimeStats,
    SharingCounters, SplitCounters, StateCounters,
};
use serde::{Deserialize, Serialize};

/// A snapshot of the metrics the paper's figures are built from.
///
/// Built by [`RJoinEngine::stats`](crate::RJoinEngine::stats); the benchmark
/// harness prints selected fields of these snapshots as the rows/series of
/// each figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentStats {
    /// Number of nodes in the network.
    pub nodes: usize,
    /// Total messages sent (created + routed) across all nodes.
    pub traffic_total: u64,
    /// Messages spent requesting/returning RIC information.
    pub traffic_ric: u64,
    /// Per-node traffic distribution (messages sent per node).
    pub traffic_per_node: Distribution,
    /// Per-node query-processing load distribution.
    pub qpl: Distribution,
    /// Total query-processing load.
    pub qpl_total: u64,
    /// Per-node (cumulative) storage-load distribution.
    pub sl: Distribution,
    /// Total (cumulative) storage load.
    pub sl_total: u64,
    /// Per-node *current* storage (stored rewritten queries + tuples right
    /// now, i.e. after window garbage collection).
    pub current_storage: Distribution,
    /// Number of answers delivered to querying nodes.
    pub answers: u64,
    /// Number of nodes with non-zero query-processing load.
    pub qpl_participants: usize,
    /// Number of nodes with non-zero storage load.
    pub sl_participants: usize,
    /// Queries (input + rewritten) currently stored across all nodes — one
    /// shared entry counts once however many subscribers it carries.
    pub stored_queries_current: u64,
    /// Cumulative shared sub-join savings (zero when sharing is disabled).
    pub sharing: SharingCounters,
    /// Deliveries that stayed inside their source shard (sharded drains
    /// only; zero under the single-queue driver).
    pub intra_shard_messages: u64,
    /// Deliveries that crossed a shard boundary (sharded drains only).
    pub cross_shard_messages: u64,
    /// How the sharded runtime executed (zeroed for single-queue runs).
    pub shard_runtime: ShardRuntimeStats,
    /// Per-key heat: the query-processing load of every index key that
    /// received at least one delivery, ranked. `key_heat.max()` is the
    /// heaviest hitter; under hot-key splitting the partitions of a split
    /// key appear as separate (cooler) keys, so the drop in `max` and in
    /// `key_heat.gini()` is the direct measure of the split's effect.
    pub key_heat: Distribution,
    /// What the hot-key splitting subsystem did (zeroed when disabled).
    pub splits: SplitCounters,
    /// What the two-plan query planner decided: plans chosen per kind,
    /// hypercube cells/shares allocated, replicated query registrations and
    /// tuple copies routed into cell spaces (hypercube-side counters stay
    /// zero for purely acyclic workloads).
    pub planner: PlannerCounters,
    /// How the compiled rewrite hot loop behaved: programs compiled, cache
    /// hits, rewrite counts and per-delivery eval time.
    pub compile: CompileCounters,
    /// How the O(active) state machinery behaved: live/peak slab occupancy
    /// per store, scheduled wheel deadlines, and reclamations split into
    /// wheel pops vs contact expirations (all-contact in sweep mode).
    pub state: StateCounters,
    /// How tuple-arrival probing behaved: indexed probes, candidates handed
    /// out vs the bucket lengths a full walk would have scanned, the
    /// residual share, and the summed per-node peak of indexed
    /// handles. `candidates_probed / bucket_len_total` is the direct measure
    /// of what the value-partitioned trigger index saves.
    pub probe: ProbeCounters,
}

impl ExperimentStats {
    /// Average messages per node (the y-axis of the paper's traffic plots).
    pub fn traffic_per_node_avg(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.traffic_total as f64 / self.nodes as f64
        }
    }

    /// Average RIC-request messages per node.
    pub fn ric_per_node_avg(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.traffic_ric as f64 / self.nodes as f64
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "nodes={} traffic={} (ric={}) qpl={} sl={} answers={} qpl_participants={} max_qpl={}",
            self.nodes,
            self.traffic_total,
            self.traffic_ric,
            self.qpl_total,
            self.sl_total,
            self.answers,
            self.qpl_participants,
            self.qpl.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentStats {
        ExperimentStats {
            nodes: 10,
            traffic_total: 100,
            traffic_ric: 20,
            traffic_per_node: Distribution::from_values([10; 10]),
            qpl: Distribution::from_values([5, 5, 0, 0, 0, 0, 0, 0, 0, 0]),
            qpl_total: 10,
            sl: Distribution::from_values([1; 10]),
            sl_total: 10,
            current_storage: Distribution::from_values([1; 10]),
            answers: 3,
            qpl_participants: 2,
            sl_participants: 10,
            stored_queries_current: 12,
            sharing: SharingCounters::default(),
            intra_shard_messages: 0,
            cross_shard_messages: 0,
            shard_runtime: ShardRuntimeStats::default(),
            key_heat: Distribution::from_values([6, 4]),
            splits: SplitCounters::default(),
            planner: PlannerCounters::default(),
            compile: CompileCounters::default(),
            state: StateCounters::default(),
            probe: ProbeCounters::default(),
        }
    }

    #[test]
    fn averages() {
        let s = sample();
        assert!((s.traffic_per_node_avg() - 10.0).abs() < 1e-9);
        assert!((s.ric_per_node_avg() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn summary_mentions_key_numbers() {
        let s = sample().summary();
        assert!(s.contains("traffic=100"));
        assert!(s.contains("answers=3"));
    }

    #[test]
    fn zero_nodes_do_not_divide_by_zero() {
        let mut s = sample();
        s.nodes = 0;
        assert_eq!(s.traffic_per_node_avg(), 0.0);
        assert_eq!(s.ric_per_node_avg(), 0.0);
    }
}
