//! Value-partitioned trigger index: probe O(matching) stored queries per
//! tuple instead of walking the whole bucket.
//!
//! Every stored query whose compiled rewrite pins a **tuple-resolvable
//! equality** — a `ConstEq` over the relation of its index key, i.e. a
//! constant predicate of the original query or a join value already bound
//! by an earlier rewrite — is filed under `(ring, column, value)`; queries
//! with no such pin (no constants over the key relation, `DISTINCT`
//! entries whose dedup filter mutates on contact, hypercube cell replicas
//! that trigger on several relations) go to a per-ring **residual** list
//! that is always walked. A tuple arrival then probes
//! `residual ∪ index[(ring, column, tuple[column])]`: entries pinned to a
//! different value of a column the tuple resolves would have rewritten to
//! `Mismatch` anyway, so skipping them cannot change any answer.
//!
//! # Maintenance contract
//!
//! The index shadows `NodeState::stored_queries` exactly: **every** site
//! that inserts a stored-query handle into a bucket must `insert` it here,
//! and every site that unlinks one (contact expiry in the trigger walk,
//! timer-wheel pops, the sweep-mode collector, churn drains) must `remove`
//! it with the same entry — the pin is a pure function of the entry's
//! query, key text, dedup and hypercube state, none of which mutate while
//! it is stored, so removal recomputes the pin and finds the one vector
//! the insertion filed the handle under. Whole-ring teardown
//! (`drain_misplaced`) uses `remove_ring`.
//!
//! Range and θ-predicates have no equality pin and would stay residual;
//! the query model is pure equi-join today, so the residual list only
//! holds the unpinned cases listed above.
//!
//! # Why skipping is sound
//!
//! A full walk of the bucket would contact every entry. A skipped entry
//! differs from a contacted one in two ways only:
//!
//! * **No `Mismatch` rewrite** — by construction the skipped entry's
//!   pinned constant filter rejects the tuple, so the contact would have
//!   produced no action and mutated nothing (entries whose contact *can*
//!   mutate state — `DISTINCT` dedup admission — are residual).
//! * **No contact expiry** — the network's constant delay δ makes per-ring
//!   tuple publication times monotone in delivery order, so an entry whose
//!   window already expired against a skipped tuple can never trigger on
//!   any later tuple either; its removal shifts to its wheel deadline (or
//!   a later contact) without affecting any answer.
//!
//! Ring identifiers are 64-bit digests of the key text, so two key texts
//! may collide onto one ring and a bucket may mix entries of several keys.
//! Collisions stay sound: a probing tuple only skips columns of **its own
//! relation** that it resolves to a different value — foreign-relation
//! columns and columns its schema cannot resolve are walked in full,
//! exactly like the residual list.

use crate::node_state::StoredQuery;
use crate::slab::Handle;
use rjoin_dht::{RingHasher, RingMap};
use rjoin_metrics::ProbeCounters;
use rjoin_query::probe_pins;
use rjoin_relation::{Name, Schema, Tuple, Value};
use std::hash::{Hash, Hasher};

/// 64-bit digest a value is filed under. Within-column digest collisions
/// are harmless: a colliding candidate's constant filter rejects the tuple
/// during the trigger.
fn value_digest(value: &Value) -> u64 {
    let mut hasher = RingHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

/// The discriminating pin of a stored entry: the first tuple-resolvable
/// constant equality over the key's relation, as
/// `(relation, attribute, value)`. `None` sends the entry to the residual
/// list.
///
/// At a value-level key the pin equal to the key's own `(attribute,
/// value)` pair is **vacuous** — every tuple routed to the key satisfies
/// it already — so a later constant is preferred and the vacuous pin is
/// only the fallback (it still separates colliding key texts).
fn entry_pin(stored: &StoredQuery) -> Option<(&Name, &Name, &Value)> {
    if stored.pending.hypercube.is_some() || stored.dedup.is_some() {
        return None;
    }
    let mut parts = stored.key.as_str().splitn(3, '+');
    let key_rel = parts.next()?;
    let key_attr = parts.next();
    let key_frag = parts.next();
    let mut vacuous = None;
    for (attr, value) in probe_pins(&stored.pending.query, key_rel) {
        let is_vacuous = key_frag.is_some_and(|frag| {
            key_attr.is_some_and(|ka| attr.attribute == ka) && value.key_fragment() == frag
        });
        if is_vacuous {
            if vacuous.is_none() {
                vacuous = Some((attr, value));
            }
        } else {
            return Some((&attr.relation, &attr.attribute, value));
        }
    }
    vacuous.map(|(attr, value)| (&attr.relation, &attr.attribute, value))
}

/// One pinned column of a ring: the handles of every entry pinned on
/// `relation.attribute`, partitioned by pinned-value digest.
#[derive(Debug, Clone)]
struct ColumnIndex {
    relation: Name,
    attribute: Name,
    by_value: RingMap<Vec<Handle>>,
}

/// The partition of one ring's bucket.
#[derive(Debug, Clone, Default)]
struct RingIndex {
    /// Pinned entries, grouped by pin column (a handful per ring: queries
    /// stored under one key pin constants over the same few attributes).
    columns: Vec<ColumnIndex>,
    /// Entries with no tuple-resolvable pin; walked on every arrival.
    residual: Vec<Handle>,
    /// Handles currently filed in this ring (columns + residual).
    live: usize,
}

/// Per-node trigger index over the stored-query buckets. See the module
/// docs for the maintenance contract and the soundness argument.
#[derive(Debug, Clone)]
pub(crate) struct TriggerIndex {
    rings: RingMap<RingIndex>,
    /// Handles currently filed across all rings.
    live: usize,
    counters: ProbeCounters,
    /// Candidate buffer reused across tuple arrivals.
    scratch: Vec<Handle>,
}

impl TriggerIndex {
    pub(crate) fn new() -> Self {
        TriggerIndex {
            rings: RingMap::default(),
            live: 0,
            counters: ProbeCounters::new(),
            scratch: Vec::new(),
        }
    }

    /// Snapshot of the probe counters.
    pub(crate) fn counters(&self) -> ProbeCounters {
        self.counters
    }

    /// Takes the reusable candidate buffer (cleared).
    pub(crate) fn take_scratch(&mut self) -> Vec<Handle> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch
    }

    /// Returns the candidate buffer for reuse.
    pub(crate) fn put_scratch(&mut self, scratch: Vec<Handle>) {
        self.scratch = scratch;
    }

    /// Files a stored entry's handle under its pin (or the residual list).
    pub(crate) fn insert(&mut self, ring: u64, handle: Handle, stored: &StoredQuery) {
        let ring_index = self.rings.entry(ring).or_default();
        match entry_pin(stored) {
            None => ring_index.residual.push(handle),
            Some((relation, attribute, value)) => {
                let digest = value_digest(value);
                let pos = ring_index
                    .columns
                    .iter()
                    .position(|c| c.relation == *relation && c.attribute == *attribute);
                let column = match pos {
                    Some(pos) => &mut ring_index.columns[pos],
                    None => {
                        ring_index.columns.push(ColumnIndex {
                            relation: relation.clone(),
                            attribute: attribute.clone(),
                            by_value: RingMap::default(),
                        });
                        ring_index.columns.last_mut().expect("pushed above")
                    }
                };
                column.by_value.entry(digest).or_default().push(handle);
            }
        }
        ring_index.live += 1;
        self.live += 1;
        self.counters.index_entries_high_water =
            self.counters.index_entries_high_water.max(self.live as u64);
    }

    /// Unfiles a removed entry's handle. `stored` must be the entry the
    /// handle was inserted with (the pin is recomputed from it).
    pub(crate) fn remove(&mut self, ring: u64, handle: Handle, stored: &StoredQuery) {
        let Some(ring_index) = self.rings.get_mut(&ring) else {
            debug_assert!(false, "trigger-index removal from an unindexed ring");
            return;
        };
        let found = match entry_pin(stored) {
            None => remove_handle(&mut ring_index.residual, handle),
            Some((relation, attribute, value)) => {
                let digest = value_digest(value);
                ring_index
                    .columns
                    .iter_mut()
                    .find(|c| c.relation == *relation && c.attribute == *attribute)
                    .is_some_and(|column| match column.by_value.get_mut(&digest) {
                        Some(bucket) => {
                            let found = remove_handle(bucket, handle);
                            if bucket.is_empty() {
                                column.by_value.remove(&digest);
                            }
                            found
                        }
                        None => false,
                    })
            }
        };
        debug_assert!(found, "trigger-index maintenance contract violated: handle not filed");
        if found {
            ring_index.live -= 1;
            self.live -= 1;
            if ring_index.live == 0 {
                self.rings.remove(&ring);
            }
        }
    }

    /// Tears down a whole ring's partition (churn drained the bucket).
    pub(crate) fn remove_ring(&mut self, ring: u64) {
        if let Some(ring_index) = self.rings.remove(&ring) {
            self.live -= ring_index.live;
        }
    }

    /// Collects the handles a tuple arrival must contact: the residual
    /// list, the tuple's own slice of every column it resolves, and every
    /// column it cannot resolve (foreign relation, unknown attribute,
    /// arity-short tuple) in full. `schema` is the schema of `tuple`'s
    /// relation; `bucket_len` is the length of the full bucket, recorded
    /// for the probe counters.
    pub(crate) fn collect_candidates(
        &mut self,
        ring: u64,
        tuple: &Tuple,
        schema: &Schema,
        bucket_len: usize,
        out: &mut Vec<Handle>,
    ) {
        self.counters.indexed_probes += 1;
        self.counters.bucket_len_total += bucket_len as u64;
        let Some(ring_index) = self.rings.get(&ring) else { return };
        out.extend_from_slice(&ring_index.residual);
        self.counters.residual_probed += ring_index.residual.len() as u64;
        for column in &ring_index.columns {
            let resolved = if column.relation == tuple.relation() {
                schema.index_of(&column.attribute).and_then(|offset| tuple.value(offset))
            } else {
                None
            };
            match resolved {
                Some(value) => {
                    if let Some(bucket) = column.by_value.get(&value_digest(value)) {
                        out.extend_from_slice(bucket);
                    }
                }
                None => {
                    for bucket in column.by_value.values() {
                        out.extend_from_slice(bucket);
                    }
                }
            }
        }
        self.counters.candidates_probed += out.len() as u64;
    }

    /// Books one span-bounded eval walk: an arriving query probed `probed`
    /// of the `bucket_len` tuples stored under its key (the eval-side twin
    /// of [`collect_candidates`](Self::collect_candidates) — see the module
    /// docs).
    pub(crate) fn note_span_probe(&mut self, bucket_len: usize, probed: usize) {
        self.counters.indexed_probes += 1;
        self.counters.bucket_len_total += bucket_len as u64;
        self.counters.candidates_probed += probed as u64;
    }

    /// Handles currently filed (test support).
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.live
    }
}

fn remove_handle(bucket: &mut Vec<Handle>, handle: Handle) -> bool {
    match bucket.iter().position(|h| *h == handle) {
        Some(pos) => {
            bucket.swap_remove(pos);
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{PendingQuery, QueryId};
    use rjoin_dht::{HashedKey, Id};
    use rjoin_query::{parse_query, IndexLevel};
    use rjoin_relation::Timestamp;

    fn stored(sql: &str, key_text: &str, level: IndexLevel) -> StoredQuery {
        let pending = PendingQuery::input(
            QueryId { owner: Id(1), seq: 0 },
            Id(1),
            0,
            parse_query(sql).unwrap(),
        );
        StoredQuery::new(pending, HashedKey::new(key_text), level)
    }

    fn tuple(relation: &str, values: Vec<Value>, pub_time: Timestamp) -> Tuple {
        Tuple::new(relation, values, pub_time)
    }

    /// Mints `n` distinct live handles (the index only compares them).
    fn handles(n: usize) -> Vec<Handle> {
        let mut slab = crate::slab::Slab::new();
        (0..n).map(|i| slab.insert(i)).collect()
    }

    #[test]
    fn pin_prefers_first_constant_at_attribute_level() {
        let s = stored(
            "SELECT S.B FROM R, S WHERE R.A = 2 AND R.B = 7 AND R.C = S.C",
            "R+C",
            IndexLevel::Attribute,
        );
        let (rel, attr, value) = entry_pin(&s).unwrap();
        assert_eq!(rel, "R");
        assert_eq!(attr, "A");
        assert_eq!(*value, Value::from(2));
    }

    #[test]
    fn pin_skips_the_vacuous_key_equality_at_value_level() {
        let s = stored(
            "SELECT S.B FROM R, S WHERE R.A = 2 AND R.B = 7 AND R.C = S.C",
            "R+A+i:2",
            IndexLevel::Value,
        );
        let (_, attr, value) = entry_pin(&s).unwrap();
        assert_eq!(attr, "B");
        assert_eq!(*value, Value::from(7));
        // With the key equality as the only constant, the vacuous pin is
        // still used (it separates colliding key texts).
        let sole = stored(
            "SELECT S.B FROM R, S WHERE R.A = 2 AND R.C = S.C",
            "R+A+i:2",
            IndexLevel::Value,
        );
        let (_, attr, value) = entry_pin(&sole).unwrap();
        assert_eq!(attr, "A");
        assert_eq!(*value, Value::from(2));
    }

    #[test]
    fn distinct_and_unpinned_queries_are_residual() {
        let distinct = stored(
            "SELECT DISTINCT S.B FROM R, S WHERE R.A = 2 AND R.C = S.C",
            "R+C",
            IndexLevel::Attribute,
        );
        assert!(entry_pin(&distinct).is_none(), "dedup admission mutates on contact");
        let unpinned = stored("SELECT S.B FROM R, S WHERE R.C = S.C", "R+C", IndexLevel::Attribute);
        assert!(entry_pin(&unpinned).is_none(), "no constant over the key relation");
        let foreign = stored(
            "SELECT S.B FROM R, S WHERE S.B = 3 AND R.C = S.C",
            "R+C",
            IndexLevel::Attribute,
        );
        assert!(entry_pin(&foreign).is_none(), "constants over other relations do not resolve");
    }

    #[test]
    fn probes_return_residual_and_matching_slice_only() {
        let mut index = TriggerIndex::new();
        let schema = Schema::new("R", ["A", "B", "C"]).unwrap();
        let ring = 42;
        let pinned_2 = stored(
            "SELECT S.B FROM R, S WHERE R.A = 2 AND R.C = S.C",
            "R+C",
            IndexLevel::Attribute,
        );
        let pinned_9 = stored(
            "SELECT S.B FROM R, S WHERE R.A = 9 AND R.C = S.C",
            "R+C",
            IndexLevel::Attribute,
        );
        let residual = stored("SELECT S.B FROM R, S WHERE R.C = S.C", "R+C", IndexLevel::Attribute);
        let minted = handles(3);
        let (h2, h9, hr) = (minted[0], minted[1], minted[2]);
        index.insert(ring, h2, &pinned_2);
        index.insert(ring, h9, &pinned_9);
        index.insert(ring, hr, &residual);
        assert_eq!(index.live(), 3);

        // An R tuple with A = 2 probes the residual plus the A = 2 slice.
        let mut out = Vec::new();
        let t = tuple("R", vec![Value::from(2), Value::from(0), Value::from(0)], 0);
        index.collect_candidates(ring, &t, &schema, 3, &mut out);
        out.sort();
        let mut expected = vec![hr, h2];
        expected.sort();
        assert_eq!(out, expected);

        // A foreign-relation tuple cannot resolve the column: full walk.
        let mut out = Vec::new();
        let s_schema = Schema::new("S", ["B", "C"]).unwrap();
        let t = tuple("S", vec![Value::from(2), Value::from(0)], 0);
        index.collect_candidates(ring, &t, &s_schema, 3, &mut out);
        assert_eq!(out.len(), 3, "collision safety: foreign columns are walked in full");

        let counters = index.counters();
        assert_eq!(counters.indexed_probes, 2);
        assert_eq!(counters.bucket_len_total, 6);
        assert_eq!(counters.residual_probed, 2);
        assert_eq!(counters.candidates_probed, 5);
        assert_eq!(counters.index_entries_high_water, 3);

        // Removal unfiles exactly the handle's slice and empties the ring.
        index.remove(ring, h2, &pinned_2);
        index.remove(ring, h9, &pinned_9);
        index.remove(ring, hr, &residual);
        assert_eq!(index.live(), 0);
        let mut out = Vec::new();
        let t = tuple("R", vec![Value::from(2), Value::from(0), Value::from(0)], 0);
        index.collect_candidates(ring, &t, &schema, 0, &mut out);
        assert!(out.is_empty());
    }
}
