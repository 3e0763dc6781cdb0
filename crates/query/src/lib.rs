//! Query model for the RJoin reproduction.
//!
//! This crate contains everything RJoin needs to know about continuous
//! multi-way equi-join queries, independently of any network concern:
//!
//! * [`JoinQuery`] — the AST of a (possibly already rewritten) multi-way
//!   equi-join: a `SELECT` list, a set of remaining relations and a
//!   conjunction of equality predicates ([`Conjunct`]),
//! * [`parse_query`] — a small SQL parser for the continuous-query dialect
//!   used throughout the paper (`SELECT ... FROM ... WHERE a = b AND ...`,
//!   optional `DISTINCT`, optional `WINDOW` clause),
//! * [`rewrite`] — the incremental rewriting step at the heart of RJoin:
//!   substituting an incoming tuple into a query produces either a smaller
//!   query, a complete answer, or a mismatch,
//! * [`compile_trigger`] / [`compile_subjoin`] — compilation of that
//!   rewriting step into flat predicate programs,
//! * [`IndexKey`] / [`candidate_keys`] — derivation of the attribute-level
//!   and value-level DHT keys under which queries and tuples are indexed
//!   (Sections 3 and 6 of the paper),
//! * [`plan`] — join-graph shape classification (GYO
//!   ear-removal, acyclic vs cyclic) and the per-query cost model choosing
//!   between the paper's pipeline-of-rewrites and a one-shot hypercube
//!   placement with per-attribute shares ([`plan_query`]),
//! * [`WindowSpec`] — sliding/tumbling window declarations (Section 5),
//! * [`fingerprint`] / [`subjoin_signature`] — canonical fingerprints of a
//!   query's sub-join structure (`FROM` + `WHERE` + window, `SELECT`
//!   abstracted away), the collision test used by shared multi-query
//!   evaluation.
//!
//! # The compile pipeline
//!
//! Query evaluation goes through three representations:
//!
//! 1. **AST** — [`JoinQuery`], produced by [`parse_query`] or by a rewrite
//!    step. Constructor-validated ([`JoinQuery::new`]) for user input;
//!    unchecked for engine-internal construction.
//! 2. **Validated IR** — at compile time every attribute reference is
//!    checked against the `FROM` list (orphaned residue from unchecked
//!    construction is rejected) and resolved to a column offset against the
//!    catalog schema, yielding flat [`EmitStep`]/[`SelectStep`] sequences.
//! 3. **Program** — a [`SubJoinProgram`] (the projection-agnostic `WHERE`
//!    rewrite template, shareable across all subscribers of a fingerprinted
//!    sub-join) paired with a per-query `SELECT` plan in a
//!    [`CompiledTrigger`]. Executing a tuple is then a linear scan:
//!    pre-folded constant filters first, then self-join filters, then
//!    template emission — no AST walk, no string comparison, no schema
//!    lookup.
//!
//! The AST interpreter ([`rewrite`]) remains the reference semantics:
//! differential tests assert program results are byte-identical to it, and
//! shared sub-join evaluation still uses the name-based
//! [`resolve_select_items`] for per-subscriber projections.
//!
//! # Example
//!
//! ```
//! use rjoin_query::{parse_query, rewrite, RewriteResult};
//! use rjoin_relation::{Schema, Tuple, Value};
//!
//! let q = parse_query(
//!     "SELECT S.B, M.A FROM R, S, M WHERE R.A = S.A AND S.B = M.B",
//! ).unwrap();
//! assert_eq!(q.join_count(), 2);
//!
//! // A tuple of R arrives; the query loses one join.
//! let schema_r = Schema::new("R", ["A", "B", "C"]).unwrap();
//! let t = Tuple::new("R", vec![Value::from(2), Value::from(5), Value::from(8)], 0);
//! match rewrite(&q, &t, &schema_r).unwrap() {
//!     RewriteResult::Partial(q1) => assert_eq!(q1.join_count(), 1),
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```

mod ast;
mod compile;
mod error;
mod fingerprint;
mod keys;
mod parser;
pub mod plan;
mod rewrite;
mod window;

pub use ast::{Conjunct, EmitStep, JoinQuery, QualifiedAttr, SelectItem, SelectStep};
pub use compile::{compile_subjoin, compile_trigger, probe_pins, CompiledTrigger, SubJoinProgram};
pub use error::QueryError;
pub use fingerprint::{fingerprint, subjoin_signature, subjoin_signature_eq, Fingerprint};
pub use keys::{candidate_keys, tuple_index_keys, IndexKey, IndexLevel};
pub use parser::parse_query;
pub use plan::{
    allocate_shares, classify_shape, plan_query, HypercubeAxis, HypercubePlan, JoinGraph,
    QueryPlan, QueryShape,
};
pub use rewrite::{resolve_select_items, rewrite, RewriteResult};
pub use window::{WindowKind, WindowSpec};
