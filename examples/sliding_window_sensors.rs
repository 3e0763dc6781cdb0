//! Sliding-window joins over sensor streams.
//!
//! Window restrictions are RJoin's garbage-collection mechanism (Section 5
//! of the paper): without them every tuple has to be combined with *all*
//! past tuples, so the stored state and the per-tuple cost keep growing.
//! This example runs the same sensor-fusion workload twice — once without
//! windows and once with a sliding window — and prints the difference in
//! stored state and processing load.
//!
//! Scenario: a building deployment publishes three streams keyed by room,
//!
//! * `Temp(Room, Celsius)`, `Smoke(Room, Level)`, `Badge(Room, Person)`
//!
//! and the facility service runs the continuous query "report a person badged
//! into a room where temperature and smoke readings were both observed":
//!
//! ```sql
//! SELECT Badge.Person, Temp.Celsius
//! FROM Temp, Smoke, Badge
//! WHERE Temp.Room = Smoke.Room AND Smoke.Room = Badge.Room
//! WINDOW SLIDING 40 TUPLES
//! ```
//!
//! Run with: `cargo run --example sliding_window_sensors`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rjoin::prelude::*;

fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register(Schema::new("Temp", ["Room", "Celsius"]).unwrap()).unwrap();
    catalog.register(Schema::new("Smoke", ["Room", "Level"]).unwrap()).unwrap();
    catalog.register(Schema::new("Badge", ["Room", "Person"]).unwrap()).unwrap();
    catalog
}

fn run(window: Option<u64>, readings: usize) -> (u64, u64, u64, usize) {
    let mut engine = RJoinEngine::simulated(EngineConfig::default(), catalog(), 64);
    let nodes = engine.node_ids().to_vec();

    let window_clause = match window {
        Some(w) => format!(" WINDOW SLIDING {w} TUPLES"),
        None => String::new(),
    };
    let sql = format!(
        "SELECT Badge.Person, Temp.Celsius FROM Temp, Smoke, Badge \
         WHERE Temp.Room = Smoke.Room AND Smoke.Room = Badge.Room{window_clause}"
    );
    let qid = engine.submit_query(nodes[0], parse_query(&sql).unwrap()).unwrap();
    engine.run_until_quiescent().unwrap();

    let mut rng = StdRng::seed_from_u64(7);
    let rooms = 10i64;
    for i in 0..readings {
        let t = engine.now() + 1;
        let room = Value::Int(rng.gen_range(0..rooms));
        let tuple = match i % 3 {
            0 => Tuple::new("Temp", vec![room, Value::Int(rng.gen_range(15..35))], t),
            1 => Tuple::new("Smoke", vec![room, Value::Int(rng.gen_range(0..5))], t),
            _ => Tuple::new("Badge", vec![room, Value::Int(rng.gen_range(0..50))], t),
        };
        engine.publish_tuple(nodes[i % nodes.len()], tuple).unwrap();
        engine.run_until_quiescent().unwrap();
    }

    let stats = engine.stats();
    (
        stats.qpl_total,
        stats.sl_total,
        stats.current_storage.total(),
        engine.answers().count_for(qid),
    )
}

fn main() {
    let readings = 450;
    println!("publishing {readings} sensor readings through a 64-node overlay\n");

    let (qpl_none, sl_none, live_none, answers_none) = run(None, readings);
    println!("without windows:");
    println!("  query processing load : {qpl_none}");
    println!("  cumulative storage    : {sl_none}");
    println!("  state still stored    : {live_none}");
    println!("  answers delivered     : {answers_none}\n");

    let (qpl_win, sl_win, live_win, answers_win) = run(Some(40), readings);
    println!("with a 40-tuple sliding window:");
    println!("  query processing load : {qpl_win}");
    println!("  cumulative storage    : {sl_win}");
    println!("  state still stored    : {live_win}");
    println!("  answers delivered     : {answers_win}\n");

    assert!(answers_win <= answers_none, "windows can only restrict the result");
    assert!(
        live_win <= live_none,
        "the sliding window must not retain more state than the unwindowed run"
    );
    println!(
        "the window keeps {:.0}% of the unwindowed live state and {:.0}% of its answers",
        100.0 * live_win as f64 / live_none.max(1) as f64,
        100.0 * answers_win as f64 / answers_none.max(1) as f64,
    );
}
