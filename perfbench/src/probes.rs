//! Standalone layer probes of the traced run, and the memory reading.
//!
//! The probes time one layer at a time outside the engine, on the run's own
//! inputs: SHA-1 key hashing and Chord `lookup_stable` routing (`dht`), and
//! frame encode/decode of the run's `NewTuple` frames (`transport`).

use rjoin_core::{EngineConfig, RJoinMessage};
use rjoin_dht::{HashedKey, Id};
use rjoin_net::{Network, NetworkConfig};
use rjoin_query::tuple_index_keys;
use rjoin_relation::{Catalog, Tuple};
use rjoin_transport::frame::{read_frame, write_frame};
use rjoin_transport::ServiceMessage;
use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

/// The process's peak resident set so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Repeats `f` over `items` until at least `min_ms` have passed, and returns
/// the mean nanoseconds per item.
fn time_per_item<T>(items: &[T], min_ms: f64, mut f: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    let mut done = 0u64;
    loop {
        items.iter().for_each(&mut f);
        done += items.len() as u64;
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        if elapsed >= min_ms || items.is_empty() {
            return elapsed * 1e6 / done.max(1) as f64;
        }
    }
}

/// The `dht` layer on the run's keys: keys per tuple, SHA-1 hashing time
/// per key, and `lookup_stable` hops and time from each tuple's publisher
/// on a ring bootstrapped with the engine's node labels.
pub struct DhtProbe {
    pub keys_per_tuple: f64,
    pub key_hash_ns: f64,
    pub lookup_hops_mean: f64,
    pub lookup_ns: f64,
}

pub fn dht_probe(
    catalog: &Catalog,
    config: &EngineConfig,
    nodes: usize,
    tuples: &[Tuple],
) -> DhtProbe {
    let mut network: Network<()> = Network::new(NetworkConfig {
        delay: config.network_delay,
        successor_list_len: config.successor_list_len,
    });
    let ids = network.bootstrap(nodes, "rjoin-node");
    let ring = network.dht();
    let mut texts: Vec<Arc<str>> = Vec::new();
    let mut routes: Vec<(Id, Id)> = Vec::new();
    for (i, t) in tuples.iter().enumerate() {
        let schema = catalog.schema(t.relation()).expect("workload tuples match the catalog");
        for key in tuple_index_keys(t, schema) {
            let hashed = key.hashed();
            routes.push((ids[i % ids.len()], hashed.id()));
            texts.push(Arc::clone(hashed.text()));
        }
    }
    let key_hash_ns = time_per_item(&texts, 50.0, |text| {
        black_box(HashedKey::new(Arc::clone(text)));
    });
    let hops: usize = routes
        .iter()
        .map(|&(from, key)| ring.lookup_stable(from, key).expect("stable ring routes").hops())
        .sum();
    let lookup_ns = time_per_item(&routes, 50.0, |&(from, key)| {
        black_box(ring.lookup_stable(from, key).ok());
    });
    DhtProbe {
        keys_per_tuple: texts.len() as f64 / tuples.len().max(1) as f64,
        key_hash_ns,
        lookup_hops_mean: hops as f64 / routes.len().max(1) as f64,
        lookup_ns,
    }
}

/// The `transport` frame codec on the run's `NewTuple` frames (one frame
/// per index key of each tuple, as the client sends them).
pub struct FrameProbe {
    pub frame_bytes_mean: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
}

pub fn frame_probe(catalog: &Catalog, tuples: &[Tuple], publisher: Id) -> FrameProbe {
    let mut frames = Vec::new();
    for t in tuples {
        let schema = catalog.schema(t.relation()).expect("workload tuples match the catalog");
        let tuple = Arc::new(t.clone());
        for key in tuple_index_keys(t, schema) {
            let level = key.level();
            let msg = RJoinMessage::NewTuple {
                tuple: Arc::clone(&tuple),
                key: key.hashed(),
                level,
                publisher,
            };
            frames.push(ServiceMessage::Engine { at: t.pub_time(), msg });
        }
    }
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(frames.len());
    for f in &frames {
        let mut buf = Vec::new();
        write_frame(&mut buf, f).expect("in-memory frame encode");
        encoded.push(buf);
    }
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let mut buf = Vec::with_capacity(4096);
    let encode_ns = time_per_item(&frames, 50.0, |f| {
        buf.clear();
        write_frame(&mut buf, f).expect("in-memory frame encode");
        black_box(&buf);
    });
    let decode_ns = time_per_item(&encoded, 50.0, |bytes| {
        let msg: Option<ServiceMessage> =
            read_frame(&mut Cursor::new(bytes)).expect("frames written above decode");
        black_box(msg);
    });
    FrameProbe { frame_bytes_mean: bytes as f64 / frames.len().max(1) as f64, encode_ns, decode_ns }
}
