//! What the engine suites share: the centralized windowed oracle every
//! configuration is checked against, and the shard counts the suites run
//! under.
//!
//! The oracle is a brute-force evaluation of Definition 1 plus the
//! Section 5 validity test applied to the whole combination: every
//! combination of one tuple per `FROM` relation, published at or after the
//! query's submission, whose publication times fit one window and which
//! satisfies every conjunct contributes one answer row. It is
//! shape-agnostic, so it covers the cyclic `WHERE` clauses the hypercube
//! planner runs as well as the chains the rewrite pipeline runs.
//!
//! Two checks build on it. Configurations whose answers do not depend on
//! placement (value-level rewrites, the ALTT, hypercube cells) must deliver
//! exactly the oracle's bag ([`assert_exact`]). Configurations whose
//! answers do depend on placement (attribute-level rewrites without the
//! ALTT, churn with messages in flight) must be sound: no row outside the
//! oracle's bag and no row more often than the oracle has it
//! ([`assert_sound`]).

#![allow(dead_code)]

use rjoin_query::{Conjunct, JoinQuery, SelectItem};
use rjoin_relation::{Catalog, Name, Timestamp, Tuple, Value};

/// Shard counts to exercise, from `RJOIN_SHARDS` (comma-separated, e.g.
/// `RJOIN_SHARDS=1,4`; default `1,4`). A count of 1 drains on the single
/// queue, larger counts on the sharded runtime.
pub fn shard_counts() -> Vec<usize> {
    std::env::var("RJOIN_SHARDS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .collect::<Vec<_>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 4])
}

/// The value of `relation.attribute` in a combination (one tuple per
/// `relations` entry, in the same order).
fn attr_value<'a>(
    catalog: &Catalog,
    relations: &[Name],
    combo: &[&'a Tuple],
    relation: &str,
    attribute: &str,
) -> Option<&'a Value> {
    let idx = relations.iter().position(|r| r == relation)?;
    let schema = catalog.schema(relation)?;
    combo[idx].value(schema.index_of(attribute)?)
}

/// Whether a combination satisfies every conjunct of `query`.
fn satisfies(catalog: &Catalog, query: &JoinQuery, relations: &[Name], combo: &[&Tuple]) -> bool {
    query.conjuncts().iter().all(|conjunct| match conjunct {
        Conjunct::JoinEq(a, b) => {
            attr_value(catalog, relations, combo, &a.relation, &a.attribute)
                == attr_value(catalog, relations, combo, &b.relation, &b.attribute)
        }
        Conjunct::ConstEq(a, v) => {
            attr_value(catalog, relations, combo, &a.relation, &a.attribute) == Some(v)
        }
    })
}

/// The answer row a satisfying combination projects to.
fn project(
    catalog: &Catalog,
    query: &JoinQuery,
    relations: &[Name],
    combo: &[&Tuple],
) -> Vec<Value> {
    query
        .select()
        .iter()
        .map(|item| match item {
            SelectItem::Const(v) => v.clone(),
            SelectItem::Attr(a) => attr_value(catalog, relations, combo, &a.relation, &a.attribute)
                .cloned()
                .expect("valid queries only reference existing attributes"),
        })
        .collect()
}

pub fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

/// The oracle's answer bag for `query`, submitted at `insert_time`, over
/// the published `tuples` (see the module docs). `WindowSpec::None`
/// admits every combination, so unwindowed queries get the plain
/// Definition 1 evaluation.
pub fn windowed_oracle_answers(
    catalog: &Catalog,
    query: &JoinQuery,
    insert_time: Timestamp,
    tuples: &[Tuple],
) -> Vec<Vec<Value>> {
    let window = *query.window();
    let relations = query.relations();
    let per_relation: Vec<Vec<&Tuple>> = relations
        .iter()
        .map(|r| {
            tuples.iter().filter(|t| t.relation() == r && t.pub_time() >= insert_time).collect()
        })
        .collect();
    if per_relation.iter().any(|v| v.is_empty()) {
        return Vec::new();
    }

    let mut results = Vec::new();
    let mut indices = vec![0usize; relations.len()];
    loop {
        let combo: Vec<&Tuple> = indices.iter().zip(&per_relation).map(|(&i, v)| v[i]).collect();
        let earliest = combo.iter().map(|t| t.pub_time()).min().expect("non-empty combo");
        let latest = combo.iter().map(|t| t.pub_time()).max().expect("non-empty combo");
        if window.within(earliest, latest) && satisfies(catalog, query, relations, &combo) {
            results.push(project(catalog, query, relations, &combo));
        }
        let mut pos = 0;
        loop {
            indices[pos] += 1;
            if indices[pos] < per_relation[pos].len() {
                break;
            }
            indices[pos] = 0;
            pos += 1;
            if pos == relations.len() {
                return results;
            }
        }
    }
}

/// Asserts `delivered` is exactly the oracle's bag `expected` (order
/// ignored). Returns the number of rows.
pub fn assert_exact(tag: &str, delivered: Vec<Vec<Value>>, expected: Vec<Vec<Value>>) -> usize {
    let expected = sorted(expected);
    assert_eq!(sorted(delivered), expected, "{tag}: answers diverge from the oracle");
    expected.len()
}

/// Asserts `delivered` is a sub-bag of the oracle's bag `expected`: every
/// delivered row is an oracle row, and no row is delivered more often than
/// the oracle derives it. Returns the shortfall — how many oracle rows were
/// not delivered.
pub fn assert_sound(tag: &str, delivered: Vec<Vec<Value>>, expected: Vec<Vec<Value>>) -> usize {
    let delivered = sorted(delivered);
    let expected = sorted(expected);
    let mut cursor = 0usize;
    for row in &delivered {
        while cursor < expected.len() && expected[cursor] < *row {
            cursor += 1;
        }
        assert!(
            cursor < expected.len() && expected[cursor] == *row,
            "{tag}: unsound or over-delivered answer {row:?}"
        );
        cursor += 1;
    }
    expected.len() - delivered.len()
}
