//! Counters of the value-partitioned trigger index's probe behaviour.

use serde::{Deserialize, Serialize};

/// How the per-node trigger index narrowed tuple-arrival probes.
///
/// Each node maintains one instance; the engine sums them into the
/// run-level statistics snapshot.
///
/// The ratio to watch is `candidates_probed` vs `bucket_len_total`: the
/// index pays off exactly when the candidates it hands back are a small
/// slice of the bucket a full walk would have scanned. A high
/// `residual_probed` share means most stored queries carry no
/// tuple-resolvable equality pin (or are forced residual by DISTINCT or
/// hypercube placement) and the index degenerates towards a full walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeCounters {
    /// Tuple arrivals answered through the trigger index.
    pub indexed_probes: u64,
    /// Arrivals answered by walking the whole bucket. Always 0: every
    /// arrival probes the index (tuples) or the publication-span sidecar
    /// (queries). The field stays because benchmark harnesses read it
    /// (summed into their probe totals).
    pub linear_walks: u64,
    /// Stored-query candidates handed to the trigger loop by the index.
    pub candidates_probed: u64,
    /// Candidates that came from the residual (unpinned) list.
    pub residual_probed: u64,
    /// Total bucket length a full walk would have scanned instead.
    pub bucket_len_total: u64,
    /// Peak number of handles held by the index at once.
    pub index_entries_high_water: u64,
}

impl ProbeCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another instance's counts into this one (per-node → run totals;
    /// `index_entries_high_water` sums too, bounding total peak index size
    /// across nodes).
    pub fn merge(&mut self, other: &ProbeCounters) {
        self.indexed_probes += other.indexed_probes;
        self.linear_walks += other.linear_walks;
        self.candidates_probed += other.candidates_probed;
        self.residual_probed += other.residual_probed;
        self.bucket_len_total += other.bucket_len_total;
        self.index_entries_high_water += other.index_entries_high_water;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = ProbeCounters { indexed_probes: 1, candidates_probed: 4, ..Default::default() };
        let b = ProbeCounters {
            indexed_probes: 10,
            candidates_probed: 40,
            bucket_len_total: 100,
            index_entries_high_water: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.indexed_probes, 11);
        assert_eq!(a.candidates_probed, 44);
        assert_eq!(a.bucket_len_total, 100);
        assert_eq!(a.index_entries_high_water, 7);
    }

    #[test]
    fn serde_round_trip() {
        let c = ProbeCounters { residual_probed: 9, linear_walks: 3, ..Default::default() };
        let json = serde_json::to_string(&c).unwrap();
        let back: ProbeCounters = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
