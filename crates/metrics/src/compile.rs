//! Counters for compiled predicate-program evaluation.

use serde::{Deserialize, Serialize};

/// Counters describing how the compiled rewrite hot loop behaved.
///
/// Each node maintains one instance; the engine sums them into the run-level
/// statistics snapshot. All counters are cumulative over a run:
///
/// * `programs_compiled` — `WHERE`-side programs compiled from scratch (one
///   per distinct sub-join shape × trigger relation seen on the node),
/// * `cache_hits` — stored queries that reused a program already in the
///   node's fingerprint-keyed cache instead of compiling their own,
/// * `compiled_rewrites` — per-tuple rewrites executed by a compiled
///   program,
/// * `interpreted_rewrites` — always 0 (see the field),
/// * `eval_nanos` — wall-clock nanoseconds spent walking stored-query
///   buckets per delivery (rewrites plus trigger bookkeeping).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompileCounters {
    /// Predicate programs compiled from scratch.
    pub programs_compiled: u64,
    /// Program reuses served by the fingerprint-keyed cache.
    pub cache_hits: u64,
    /// Per-tuple rewrites executed by compiled programs.
    pub compiled_rewrites: u64,
    /// Per-tuple rewrites executed by the AST interpreter. Always 0: the
    /// engine runs every trigger as a compiled program and keeps the
    /// interpreter (`rjoin_query::rewrite`) only as the reference its tests
    /// compare against. The field stays because benchmark harnesses read
    /// it (summed into their rewrite totals).
    pub interpreted_rewrites: u64,
    /// Nanoseconds spent in per-delivery evaluation walks.
    pub eval_nanos: u64,
}

impl CompileCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any compiled program ever ran.
    pub fn any_compiled(&self) -> bool {
        self.programs_compiled > 0 || self.cache_hits > 0 || self.compiled_rewrites > 0
    }

    /// Adds another instance's counts into this one (per-node → run totals).
    pub fn merge(&mut self, other: &CompileCounters) {
        self.programs_compiled += other.programs_compiled;
        self.cache_hits += other.cache_hits;
        self.compiled_rewrites += other.compiled_rewrites;
        self.interpreted_rewrites += other.interpreted_rewrites;
        self.eval_nanos += other.eval_nanos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = CompileCounters {
            programs_compiled: 1,
            cache_hits: 2,
            compiled_rewrites: 3,
            interpreted_rewrites: 4,
            eval_nanos: 5,
        };
        let b = CompileCounters {
            programs_compiled: 10,
            cache_hits: 20,
            compiled_rewrites: 30,
            interpreted_rewrites: 40,
            eval_nanos: 50,
        };
        a.merge(&b);
        assert_eq!(
            a,
            CompileCounters {
                programs_compiled: 11,
                cache_hits: 22,
                compiled_rewrites: 33,
                interpreted_rewrites: 44,
                eval_nanos: 55,
            }
        );
        assert!(a.any_compiled());
        assert!(!CompileCounters::new().any_compiled());
    }

    #[test]
    fn serde_round_trip() {
        let c = CompileCounters {
            programs_compiled: 4,
            cache_hits: 5,
            compiled_rewrites: 6,
            interpreted_rewrites: 7,
            eval_nanos: 8,
        };
        let v = c.serialize_json();
        let back = CompileCounters::deserialize_json(&v).unwrap();
        assert_eq!(back, c);
    }
}
