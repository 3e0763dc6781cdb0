//! Wide-area network monitoring with continuous multi-way joins.
//!
//! The paper motivates RJoin with internet-scale monitoring applications
//! (distributed triggers, stream overlays). This example models a small
//! security-monitoring deployment: three event streams are published into
//! the DHT by many collectors, and analysts register continuous joins that
//! correlate them.
//!
//! * `Flows(Src, Dst, Port)`      — observed network flows
//! * `Alerts(Host, Signature, Severity)` — IDS alerts
//! * `Logins(Host, User, Outcome)`        — authentication events
//!
//! The continuous query
//!
//! ```sql
//! SELECT Alerts.Signature, Logins.User
//! FROM   Flows, Alerts, Logins
//! WHERE  Flows.Dst = Alerts.Host AND Alerts.Host = Logins.Host
//! ```
//!
//! reports every (signature, user) pair where a host that received a flow
//! also raised an IDS alert and saw a login — the classic "suspicious chain"
//! correlation — continuously, as events stream in.
//!
//! Run with: `cargo run --example network_monitoring`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rjoin::prelude::*;

fn main() {
    let mut catalog = Catalog::new();
    catalog.register(Schema::new("Flows", ["Src", "Dst", "Port"]).unwrap()).unwrap();
    catalog.register(Schema::new("Alerts", ["Host", "Signature", "Severity"]).unwrap()).unwrap();
    catalog.register(Schema::new("Logins", ["Host", "User", "Outcome"]).unwrap()).unwrap();

    // 128 monitoring nodes participate in the overlay.
    let mut engine = RJoinEngine::simulated(EngineConfig::default(), catalog, 128);
    let nodes = engine.node_ids().to_vec();

    // Three analysts register continuous correlation queries from different
    // nodes. The third one uses DISTINCT: it only wants each (signature,
    // user) pair once.
    let correlation = "SELECT Alerts.Signature, Logins.User FROM Flows, Alerts, Logins \
                       WHERE Flows.Dst = Alerts.Host AND Alerts.Host = Logins.Host";
    let failed_logins = "SELECT Logins.Host, Logins.User FROM Logins, Alerts \
                         WHERE Logins.Host = Alerts.Host AND Logins.Outcome = 0";
    let distinct_pairs = &format!("SELECT DISTINCT {}", &correlation["SELECT ".len()..]);

    let q_corr = engine.submit_query(nodes[0], parse_query(correlation).unwrap()).unwrap();
    let q_fail = engine.submit_query(nodes[1], parse_query(failed_logins).unwrap()).unwrap();
    let q_dist = engine.submit_query(nodes[2], parse_query(distinct_pairs).unwrap()).unwrap();
    engine.run_until_quiescent().unwrap();
    println!("registered 3 continuous monitoring queries");

    // Collectors publish a stream of events. Hosts are drawn from a small
    // pool so correlations actually occur.
    let mut rng = StdRng::seed_from_u64(2008);
    let hosts = 12i64;
    let users = 20i64;
    let signatures = 6i64;
    let events = 600usize;

    for i in 0..events {
        let publisher = nodes[i % nodes.len()];
        let t = engine.now() + 1;
        let tuple = match i % 3 {
            0 => Tuple::new(
                "Flows",
                vec![
                    Value::Int(rng.gen_range(0..hosts)),
                    Value::Int(rng.gen_range(0..hosts)),
                    Value::Int([22, 80, 443, 3389][rng.gen_range(0..4usize)]),
                ],
                t,
            ),
            1 => Tuple::new(
                "Alerts",
                vec![
                    Value::Int(rng.gen_range(0..hosts)),
                    Value::Int(rng.gen_range(0..signatures)),
                    Value::Int(rng.gen_range(1..=5)),
                ],
                t,
            ),
            _ => Tuple::new(
                "Logins",
                vec![
                    Value::Int(rng.gen_range(0..hosts)),
                    Value::Int(rng.gen_range(0..users)),
                    Value::Int(rng.gen_range(0..2)),
                ],
                t,
            ),
        };
        engine.publish_tuple(publisher, tuple).unwrap();
        engine.run_until_quiescent().unwrap();

        if (i + 1) % 150 == 0 {
            println!(
                "after {:4} events: correlation={:5} answers, failed-logins={:5}, distinct pairs={:4}",
                i + 1,
                engine.answers().count_for(q_corr),
                engine.answers().count_for(q_fail),
                engine.answers().count_for(q_dist),
            );
        }
    }

    let stats = engine.stats();
    println!("\nfinal counts");
    println!("  correlation query   : {} answers", engine.answers().count_for(q_corr));
    println!("  failed-login query  : {} answers", engine.answers().count_for(q_fail));
    println!("  DISTINCT correlation: {} answers", engine.answers().count_for(q_dist));
    assert!(
        engine.answers().count_for(q_dist) <= engine.answers().count_for(q_corr),
        "set semantics can never deliver more rows than bag semantics"
    );
    assert!(!engine.answers().has_duplicate_rows(q_dist));

    println!("\nload distribution across the {} monitoring nodes", stats.nodes);
    println!("  messages per node (avg) : {:.1}", stats.traffic_per_node_avg());
    println!("  busiest node QPL        : {}", stats.qpl.max());
    println!("  nodes sharing the work  : {}", stats.qpl_participants);
    println!("  mean answer latency     : {:.1} ticks", engine.answers().mean_latency());
}
