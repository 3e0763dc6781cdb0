//! # RJoin — Continuous Multi-Way Joins over Distributed Hash Tables
//!
//! A from-scratch Rust reproduction of *"Continuous Multi-Way Joins over
//! Distributed Hash Tables"* (Idreos, Liarou, Koubarakis — EDBT 2008),
//! including every substrate the paper depends on:
//!
//! * [`dht`] — a Chord simulation (identifier ring, finger tables, lookups,
//!   churn, identifier-movement load balancing),
//! * [`net`] — the discrete-event network with the `send` / `multiSend` /
//!   `sendDirect` API and per-node traffic accounting,
//! * [`relation`] — the relational data model (schemas, tuples, catalog),
//! * [`query`] — the continuous-query model: SQL parser, rewriting engine,
//!   index-key derivation, sliding windows,
//! * [`core`] — the RJoin algorithm itself (Procedures 1–3, RIC-aware
//!   placement, candidate-table caching, ALTT, duplicate elimination),
//! * [`transport`] — the algorithm off the simulator: node processes over
//!   `std::net` TCP, a service-facing [`Cluster`](prelude::Cluster) handle,
//!   graceful join/leave with state re-homing,
//! * [`workload`] — the paper's Zipf workload generators,
//! * [`metrics`] — distributions, cumulative series and report tables.
//!
//! This facade crate re-exports everything; the most common entry points are
//! available directly from the [`prelude`].
//!
//! ```
//! use rjoin::prelude::*;
//!
//! // Build the paper's default 10x10x100 schema and a small network.
//! let schema = WorkloadSchema::paper_default();
//! let mut engine = RJoinEngine::simulated(EngineConfig::default(), schema.build_catalog(), 32);
//! let node = engine.node_ids()[0];
//!
//! // Register a continuous 3-way join and stream a few tuples through it.
//! let q = parse_query("SELECT R0.A1, R2.A1 FROM R0, R1, R2 \
//!                      WHERE R0.A0 = R1.A0 AND R1.A1 = R2.A2").unwrap();
//! let qid = engine.submit_query(node, q).unwrap();
//!
//! let mut tuples = TupleGenerator::new(schema, 0.9, 42);
//! for t in tuples.generate_batch(200, 1) {
//!     engine.publish_tuple(node, t).unwrap();
//! }
//! engine.run_until_quiescent().unwrap();
//! println!("answers so far: {}", engine.answers().count_for(qid));
//! ```
//!
//! ## Networked mode
//!
//! The same algorithm runs over loopback (or real) TCP: a [`Cluster`]
//! launches one node process per ring member, queries and tuples are
//! dispatched through the identical pipeline code, and
//! [`Cluster::settle`] is the networked analogue of
//! `run_until_quiescent` — a conservation barrier over counted messages.
//! The deterministic simulator doubles as the oracle: [`replay`] records
//! a scenario on the simulated engine and asserts per-query answer-set
//! equality after replaying it over TCP.
//!
//! [`Cluster`]: prelude::Cluster
//! [`Cluster::settle`]: prelude::Cluster::settle
//!
//! ```no_run
//! use rjoin::prelude::*;
//!
//! let schema = WorkloadSchema::paper_default();
//! let mut cluster = Cluster::launch(
//!     EngineConfig::default(),
//!     schema.build_catalog(),
//!     4,                        // four node processes on loopback TCP
//!     ClusterConfig::default(),
//! )?;
//!
//! let q = parse_query("SELECT R0.A1, R2.A1 FROM R0, R1, R2 \
//!                      WHERE R0.A0 = R1.A0 AND R1.A1 = R2.A2")?;
//! let qid = cluster.submit_query(q)?;
//!
//! let mut tuples = TupleGenerator::new(schema, 0.9, 42);
//! for t in tuples.generate_batch(200, 1) {
//!     cluster.publish_tuple(t)?;
//! }
//! cluster.settle()?;            // wait for the network to go quiescent
//! println!("answers: {}", cluster.rows_for(qid).len());
//!
//! let newcomer = cluster.join_node()?;      // graceful join + re-homing
//! let moved = cluster.leave_node(newcomer)?; // graceful leave, no answer loss
//! println!("re-homed {moved} items");
//! cluster.shutdown();
//! # Ok::<(), rjoin::Error>(())
//! ```

mod error;
pub mod replay;

pub use error::Error;

pub use rjoin_core as core;
pub use rjoin_dht as dht;
pub use rjoin_metrics as metrics;
pub use rjoin_net as net;
pub use rjoin_query as query;
pub use rjoin_relation as relation;
pub use rjoin_transport as transport;
pub use rjoin_workload as workload;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use crate::Error;
    pub use rjoin_core::{
        AnswerLog, EngineConfig, ExperimentStats, NodeId, PlacementStrategy, QueryId, RJoinEngine,
    };
    pub use rjoin_dht::{ChordNetwork, HashedKey, Id};
    pub use rjoin_metrics::{CumulativeSeries, Distribution, Table};
    pub use rjoin_net::{Network, NetworkConfig};
    pub use rjoin_query::{parse_query, JoinQuery, WindowSpec};
    pub use rjoin_relation::{Catalog, Schema, Tuple, Value};
    pub use rjoin_transport::{Cluster, ClusterConfig, NodeProcess, TransportError};
    pub use rjoin_workload::{
        QueryGenerator, Scenario, TupleGenerator, WorkloadSchema, ZipfSampler,
    };
}
