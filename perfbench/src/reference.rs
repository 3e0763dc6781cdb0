//! The benchmark's own reference evaluator.
//!
//! It computes the answer bag of Definition 1 of the paper: for each query,
//! every combination of one tuple per `FROM` relation, all published at or
//! after the query's submission, that satisfies every conjunct contributes
//! one projected row. Windowed queries additionally require the
//! combination to pass the window's validity test of Section 5
//! (`|start − now| + 1 ≤ w` for sliding windows, taken between the
//! earliest and latest publication time of the combination).
//!
//! The evaluator only reads `rjoin_query` / `rjoin_relation` accessors and
//! shares no code with the engine. It is a hash-indexed nested-loop join:
//! relations are bound in an order that lets each one be looked up by an
//! equality value already fixed, and window bounds cut each candidate list
//! by binary search over publication times. Queries with identical
//! `FROM`/`WHERE`/window (shared sub-join patterns) enumerate their
//! combinations once and differ only in projection.

use rjoin_query::{Conjunct, JoinQuery, QualifiedAttr, SelectItem, WindowSpec};
use rjoin_relation::{Catalog, Name, Timestamp, Tuple, Value};
use std::collections::HashMap;

/// A bag of answer rows: row → multiplicity.
pub type Bag = HashMap<Vec<Value>, u32>;

/// An attribute resolved to (position in `FROM`, column index).
type Col = (usize, usize);

/// How the candidates of one relation are found.
enum Anchor {
    /// Every tuple of the relation.
    Scan,
    /// Tuples whose column holds a constant.
    Const(usize, Value),
    /// Tuples whose column equals a column of an already bound relation.
    Join(usize, Col),
}

/// One binding step: the relation bound at this depth, how to find its
/// candidates, and the conjuncts that become checkable once it is bound.
struct Level {
    position: usize,
    anchor: Anchor,
    checks: Vec<(Col, Operand)>,
}

#[derive(Clone)]
enum Operand {
    Col(Col),
    Const(Value),
}

/// Tuples indexed by relation and by (relation, column, value); every list
/// holds tuple indices in publication-time order.
struct TupleIndex<'a> {
    tuples: &'a [Tuple],
    by_relation: HashMap<Name, Vec<u32>>,
    by_value: HashMap<(Name, usize, Value), Vec<u32>>,
}

impl<'a> TupleIndex<'a> {
    fn new(tuples: &'a [Tuple]) -> Self {
        let mut order: Vec<u32> = (0..tuples.len() as u32).collect();
        order.sort_by_key(|&i| tuples[i as usize].pub_time());
        let mut by_relation: HashMap<Name, Vec<u32>> = HashMap::new();
        let mut by_value: HashMap<(Name, usize, Value), Vec<u32>> = HashMap::new();
        for i in order {
            let t = &tuples[i as usize];
            by_relation.entry(t.relation_name().clone()).or_default().push(i);
            for (col, v) in t.values().iter().enumerate() {
                by_value.entry((t.relation_name().clone(), col, v.clone())).or_default().push(i);
            }
        }
        TupleIndex { tuples, by_relation, by_value }
    }

    fn pub_time(&self, i: u32) -> Timestamp {
        self.tuples[i as usize].pub_time()
    }

    fn value(&self, i: u32, col: usize) -> &Value {
        self.tuples[i as usize].value(col).expect("catalog-validated tuples have every column")
    }
}

/// Evaluates every query; `insert_times[i]` is the submission time of
/// `queries[i]`. Returns one bag per query, in query order.
pub fn evaluate(
    catalog: &Catalog,
    queries: &[JoinQuery],
    insert_times: &[Timestamp],
    tuples: &[Tuple],
) -> Vec<Bag> {
    assert_eq!(queries.len(), insert_times.len(), "one submission time per query");
    let index = TupleIndex::new(tuples);
    type Pattern = (Vec<Name>, Vec<Conjunct>, WindowSpec, Timestamp);
    let mut combos: HashMap<Pattern, Vec<Vec<u32>>> = HashMap::new();
    let mut bags = Vec::with_capacity(queries.len());
    for (query, &insert_time) in queries.iter().zip(insert_times) {
        let key =
            (query.relations().to_vec(), query.conjuncts().to_vec(), *query.window(), insert_time);
        let found =
            combos.entry(key).or_insert_with(|| enumerate(catalog, query, insert_time, &index));
        let columns: Vec<Result<Col, &Value>> = query
            .select()
            .iter()
            .map(|item| match item {
                SelectItem::Const(v) => Err(v),
                SelectItem::Attr(a) => Ok(resolve(catalog, query, a)),
            })
            .collect();
        let mut bag = Bag::new();
        for combo in found.iter() {
            let row = columns
                .iter()
                .map(|c| match c {
                    Ok((pos, col)) => index.value(combo[*pos], *col).clone(),
                    Err(v) => (*v).clone(),
                })
                .collect();
            *bag.entry(row).or_insert(0) += 1;
        }
        if query.distinct() {
            bag.values_mut().for_each(|n| *n = 1);
        }
        bags.push(bag);
    }
    bags
}

fn resolve(catalog: &Catalog, query: &JoinQuery, attr: &QualifiedAttr) -> Col {
    let position = query
        .relations()
        .iter()
        .position(|r| *r == attr.relation)
        .expect("validated queries only reference FROM relations");
    let column = catalog
        .schema(&attr.relation)
        .and_then(|s| s.index_of(&attr.attribute))
        .expect("validated queries only reference existing attributes");
    (position, column)
}

/// All satisfying combinations of one query, as tuple indices per `FROM`
/// position.
fn enumerate(
    catalog: &Catalog,
    query: &JoinQuery,
    insert_time: Timestamp,
    index: &TupleIndex<'_>,
) -> Vec<Vec<u32>> {
    let relations = query.relations();
    for (i, r) in relations.iter().enumerate() {
        assert!(!relations[..i].contains(r), "self-joins are outside the benchmark's workloads");
    }
    let levels = plan(catalog, query);
    let mut out = Vec::new();
    let mut chosen = vec![0u32; relations.len()];
    descend(
        index,
        relations,
        &levels,
        *query.window(),
        insert_time,
        0,
        (Timestamp::MAX, 0),
        &mut chosen,
        &mut out,
    );
    out
}

/// Orders the relations so that each is reached through an equality with
/// a constant or an already bound relation where possible, and attaches
/// each conjunct to the first level at which all its relations are bound.
fn plan(catalog: &Catalog, query: &JoinQuery) -> Vec<Level> {
    let n = query.relations().len();
    let conjuncts: Vec<(Col, Operand)> = query
        .conjuncts()
        .iter()
        .map(|c| match c {
            Conjunct::JoinEq(a, b) => {
                (resolve(catalog, query, a), Operand::Col(resolve(catalog, query, b)))
            }
            Conjunct::ConstEq(a, v) => (resolve(catalog, query, a), Operand::Const(v.clone())),
        })
        .collect();
    let mut bound = vec![false; n];
    let mut used = vec![false; conjuncts.len()];
    let mut levels = Vec::with_capacity(n);
    for _ in 0..n {
        // Prefer a relation joined to a bound one, then one with a constant.
        let mut pick: Option<(usize, Anchor)> = None;
        for (lhs, rhs) in &conjuncts {
            if let Operand::Col(other) = rhs {
                for (this, that) in [(*lhs, *other), (*other, *lhs)] {
                    if pick.is_none() && !bound[this.0] && bound[that.0] {
                        pick = Some((this.0, Anchor::Join(this.1, that)));
                    }
                }
            }
        }
        for (lhs, rhs) in &conjuncts {
            if let (None, Operand::Const(v)) = (&pick, rhs) {
                if !bound[lhs.0] {
                    pick = Some((lhs.0, Anchor::Const(lhs.1, v.clone())));
                }
            }
        }
        let (position, anchor) = pick.unwrap_or_else(|| {
            (bound.iter().position(|b| !b).expect("an unbound relation remains"), Anchor::Scan)
        });
        bound[position] = true;
        let mut checks = Vec::new();
        for (i, (lhs, rhs)) in conjuncts.iter().enumerate() {
            let ready = bound[lhs.0]
                && match rhs {
                    Operand::Col(c) => bound[c.0],
                    Operand::Const(_) => true,
                };
            if ready && !used[i] {
                used[i] = true;
                checks.push((*lhs, rhs.clone()));
            }
        }
        levels.push(Level { position, anchor, checks });
    }
    levels
}

#[allow(clippy::too_many_arguments)]
fn descend(
    index: &TupleIndex<'_>,
    relations: &[Name],
    levels: &[Level],
    window: WindowSpec,
    insert_time: Timestamp,
    depth: usize,
    (earliest, latest): (Timestamp, Timestamp),
    chosen: &mut [u32],
    out: &mut Vec<Vec<u32>>,
) {
    let Some(level) = levels.get(depth) else {
        if window.within(earliest, latest) {
            out.push(chosen.to_vec());
        }
        return;
    };
    let relation = &relations[level.position];
    let candidates: &[u32] = match &level.anchor {
        Anchor::Scan => index.by_relation.get(relation),
        Anchor::Const(col, v) => index.by_value.get(&(relation.clone(), *col, v.clone())),
        Anchor::Join(col, (pos, other)) => {
            let v = index.value(chosen[*pos], *other);
            index.by_value.get(&(relation.clone(), *col, v.clone()))
        }
    }
    .map_or(&[], Vec::as_slice);
    // Publication-time bounds every candidate must meet: the submission
    // time, and the window around the tuples bound so far.
    let mut lo = insert_time;
    let mut hi = Timestamp::MAX;
    if depth > 0 {
        match window {
            WindowSpec::None => {}
            WindowSpec::Sliding { duration, .. } => {
                let reach = duration.saturating_sub(1);
                lo = lo.max(latest.saturating_sub(reach));
                hi = earliest.saturating_add(reach);
            }
            WindowSpec::Tumbling { duration, .. } => {
                let start = earliest / duration.max(1) * duration.max(1);
                lo = lo.max(start);
                hi = start.saturating_add(duration.saturating_sub(1));
            }
        }
    }
    let first = candidates.partition_point(|&i| index.pub_time(i) < lo);
    let last = candidates.partition_point(|&i| index.pub_time(i) <= hi);
    for &i in candidates.get(first..last).unwrap_or(&[]) {
        chosen[level.position] = i;
        let ok = level.checks.iter().all(|((pos, col), rhs)| {
            let left = index.value(chosen[*pos], *col);
            match rhs {
                Operand::Col((p, c)) => left == index.value(chosen[*p], *c),
                Operand::Const(v) => left == v,
            }
        });
        if ok {
            let t = index.pub_time(i);
            let span = (earliest.min(t), latest.max(t));
            descend(index, relations, levels, window, insert_time, depth + 1, span, chosen, out);
        }
    }
}

/// How a delivered answer stream compares with a reference bag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Check {
    /// Delivered rows matched by a reference row (multiplicities count).
    pub matched: u64,
    /// Delivered rows with no reference row left to match: wrong answers
    /// or extra duplicates.
    pub unsound: u64,
    /// Reference rows no delivered row matched.
    pub missing: u64,
}

impl Check {
    pub fn add(&mut self, other: Check) {
        self.matched += other.matched;
        self.unsound += other.unsound;
        self.missing += other.missing;
    }
}

/// Compares one query's delivered rows with its reference bag.
pub fn check(reference: &Bag, delivered: Vec<Vec<Value>>) -> Check {
    let mut got = Bag::new();
    for row in delivered {
        *got.entry(row).or_insert(0) += 1;
    }
    let mut result = Check::default();
    for (row, n) in got {
        let expected = reference.get(&row).copied().unwrap_or(0);
        result.matched += u64::from(n.min(expected));
        result.unsound += u64::from(n.saturating_sub(expected));
    }
    let total: u64 = reference.values().map(|&n| u64::from(n)).sum();
    result.missing = total - result.matched;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjoin_core::{EngineConfig, RJoinEngine};
    use rjoin_query::WindowSpec;
    use rjoin_workload::Scenario;

    /// Under value-level placement with one drain over the whole stream the
    /// engine is complete and sound (Theorems 1–2), so on a small windowed
    /// scenario its answers must equal the reference bag exactly.
    #[test]
    fn matches_value_level_simulator_on_windowed_scenario() {
        let scenario = Scenario {
            nodes: 24,
            queries: 40,
            tuples: 300,
            joins: 2,
            relations: 6,
            attributes: 4,
            domain: 8,
            window: WindowSpec::sliding_tuples(16),
            ..Scenario::small_test()
        };
        let catalog = scenario.workload_schema().build_catalog();
        let config = EngineConfig::default().with_value_level_only(true);
        let mut engine = RJoinEngine::simulated(config, catalog.clone(), scenario.nodes);
        let origins = engine.node_ids().to_vec();
        let queries = scenario.generate_overlapping_queries(8);
        let mut qids = Vec::new();
        let mut insert_times = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            insert_times.push(engine.now());
            qids.push(engine.submit_query(origins[i % origins.len()], q.clone()).unwrap());
        }
        engine.run_until_quiescent().unwrap();
        let tuples = scenario.generate_tuples(engine.now() + 1);
        for (i, t) in tuples.iter().enumerate() {
            engine.publish_tuple(origins[i % origins.len()], t.clone()).unwrap();
        }
        engine.run_until_quiescent().unwrap();

        let bags = evaluate(&catalog, &queries, &insert_times, &tuples);
        let mut total = Check::default();
        for (qid, bag) in qids.iter().zip(&bags) {
            let got = check(bag, engine.answers().rows_for(*qid));
            assert_eq!((got.unsound, got.missing), (0, 0), "query {qid} diverges");
            total.add(got);
        }
        assert!(total.matched > 100, "the scenario must produce answers: {total:?}");
    }

    /// The window test is applied between the earliest and latest tuple of
    /// a combination: a brute-force enumeration agrees with the indexed one.
    #[test]
    fn indexed_enumeration_equals_brute_force() {
        let scenario = Scenario {
            queries: 30,
            tuples: 120,
            joins: 2,
            relations: 4,
            attributes: 3,
            domain: 5,
            window: WindowSpec::sliding_tuples(10),
            ..Scenario::small_test()
        };
        let catalog = scenario.workload_schema().build_catalog();
        let queries = scenario.generate_queries();
        let tuples = scenario.generate_tuples(1);
        let bags = evaluate(&catalog, &queries, &vec![0; queries.len()], &tuples);
        for (query, bag) in queries.iter().zip(&bags) {
            let mut brute = Bag::new();
            let rels = query.relations();
            let lists: Vec<Vec<&Tuple>> = rels
                .iter()
                .map(|r| tuples.iter().filter(|t| t.relation_name() == r).collect())
                .collect();
            let mut idx = vec![0usize; rels.len()];
            if lists.iter().any(Vec::is_empty) {
                assert!(bag.is_empty());
                continue;
            }
            'combos: loop {
                let combo: Vec<&Tuple> = idx.iter().zip(&lists).map(|(&i, l)| l[i]).collect();
                let get = |a: &QualifiedAttr| {
                    let p = rels.iter().position(|r| *r == a.relation).unwrap();
                    let c = catalog.schema(&a.relation).unwrap().index_of(&a.attribute).unwrap();
                    combo[p].value(c).unwrap().clone()
                };
                let ok = query.conjuncts().iter().all(|c| match c {
                    Conjunct::JoinEq(a, b) => get(a) == get(b),
                    Conjunct::ConstEq(a, v) => get(a) == *v,
                });
                let lo = combo.iter().map(|t| t.pub_time()).min().unwrap();
                let hi = combo.iter().map(|t| t.pub_time()).max().unwrap();
                if ok && query.window().within(lo, hi) {
                    let row = query
                        .select()
                        .iter()
                        .map(|s| match s {
                            SelectItem::Const(v) => v.clone(),
                            SelectItem::Attr(a) => get(a),
                        })
                        .collect();
                    *brute.entry(row).or_insert(0) += 1;
                }
                for pos in 0..idx.len() {
                    idx[pos] += 1;
                    if idx[pos] < lists[pos].len() {
                        continue 'combos;
                    }
                    idx[pos] = 0;
                }
                break;
            }
            assert_eq!(*bag, brute, "query {query} diverges from brute force");
        }
    }
}
