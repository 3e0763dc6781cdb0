//! Running one repetition of a workload: set-up, the closed-loop stream,
//! the answer check, and (traced) the per-layer readings. A run's parent
//! process starts one child process per repetition (see `main.rs`); the
//! child prints its measurements as `@key value...` lines.

use crate::probes;
use crate::reference::{self, Bag, Check};
use rjoin_core::{traffic_class, EngineConfig, QueryId, RJoinEngine};
use rjoin_dht::Id;
use rjoin_query::JoinQuery;
use rjoin_relation::{Catalog, Tuple, Value};
use rjoin_transport::{Cluster, ClusterConfig};
use rjoin_workload::Scenario;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Publication time of the first tuple over TCP. Node clocks read wall
/// ticks (100 ms each) since launch, so every query's submission tick is
/// far below it and Definition 1 admits the whole stream for every query.
const TCP_FIRST_PUB_TIME: u64 = 1_000;

/// Where a workload runs.
#[derive(Clone, Copy)]
pub enum Deploy {
    /// The deterministic simulator (`RJoinEngine::simulated`).
    Simulator,
    /// In-process node processes over loopback TCP (`Cluster`).
    Tcp,
}

/// One named workload: the scenario (its `seed` draws the query population;
/// each repetition replaces it for the tuple stream), the engine
/// configuration, and the closed-loop round size.
pub struct Workload {
    pub scenario: Scenario,
    pub config: EngineConfig,
    /// Shared sub-join patterns the queries are drawn from, or `None` for
    /// independently generated queries.
    pub patterns: Option<usize>,
    /// Tuples published per round.
    pub round: usize,
    /// Nominal seconds of one repetition (set-up plus stream) on a 2-core
    /// x86-64 host; `--seconds` divided by it gives the repetitions a run
    /// measures.
    pub nominal_rep_s: f64,
    pub deploy: Deploy,
}

pub fn workload(name: &str) -> Option<Workload> {
    // Cuts of the windowed long-horizon scale scenario: sliding 64-tuple
    // windows, queries drawn from 40 shared sub-join patterns.
    let windowed = |queries: usize, tuples: usize, nodes: usize| Scenario {
        nodes,
        queries,
        tuples,
        ..Scenario::scale_test()
    };
    let shared = EngineConfig::default().with_subjoin_sharing(true).with_altt(256);
    Some(match name {
        "paper-4way" => Workload {
            scenario: Scenario { tuples: 150, ..Scenario::paper_default() },
            config: EngineConfig::default(),
            patterns: None,
            round: 1,
            nominal_rep_s: 7.5,
            deploy: Deploy::Simulator,
        },
        "window-stream" => Workload {
            scenario: windowed(2_000, 8_000, 256),
            config: shared,
            patterns: Some(40),
            round: 64,
            nominal_rep_s: 4.5,
            deploy: Deploy::Simulator,
        },
        "tcp-window" => Workload {
            scenario: windowed(500, 2_000, 2),
            config: shared.with_value_level_only(true),
            patterns: Some(40),
            round: 20,
            nominal_rep_s: 4.5,
            deploy: Deploy::Tcp,
        },
        _ => return None,
    })
}

/// Spans recorded in memory around the public calls of a traced
/// repetition; an untraced tracer records nothing and reads no clock.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn enter(&mut self, name: &'static str) {
        if self.on {
            let start_ns = self.origin.elapsed().as_nanos() as u64;
            let parent = self.open.last().copied();
            self.open.push(self.spans.len());
            self.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        }
    }

    fn exit(&mut self) {
        if self.on {
            let i = self.open.pop().expect("exit matches an enter");
            self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Σ duration of the spans called `name`, in milliseconds.
    fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 =
            self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum();
        ns as f64 / 1e6
    }

    /// Writes the spans as JSON lines: id, name, parent id, start and end.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The generated inputs of a repetition. The simulator's tuples start one
/// tick after the set-up drain, so `sim_rep` generates them.
struct Inputs {
    scenario: Scenario,
    catalog: Catalog,
    queries: Vec<JoinQuery>,
    tuples: Vec<Tuple>,
}

/// One repetition: set-up, then the stream in rounds.
#[derive(Default)]
pub struct Rep {
    pub setup_s: f64,
    pub stream_s: f64,
    pub round_ms: Vec<f64>,
    /// Stream-phase messages (simulator: sent; TCP: processed).
    pub messages: u64,
    pub calls: u64,
    pub call_errors: u64,
    pub setup_rss_mb: f64,
    pub stream_rss_mb: f64,
    /// Delivered rows per query, in submission order; emptied by the check.
    pub rows: Vec<Vec<Vec<Value>>>,
    pub check: Check,
    pub tuples: usize,
    pub reference_rows: u64,
    /// Set-up phases run on their own after the repetition.
    pub extra_setups: Vec<f64>,
    /// Per-layer numbers of a traced repetition.
    pub layers: Vec<(String, f64)>,
}

impl Rep {
    fn record<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.calls += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                if self.call_errors == 0 {
                    eprintln!("perfbench: {what} failed: {e}");
                }
                self.call_errors += 1;
                None
            }
        }
    }
}

/// Cumulative engine counters read between phases.
#[derive(Default, Clone, Copy)]
struct SimCounters {
    sent: [u64; 5],
    sent_total: u64,
    probes: u64,
    candidates: u64,
    residual: u64,
    bucket_len: u64,
    rewrites: u64,
    programs_compiled: u64,
    cache_hits: u64,
    qpl: u64,
    wheel_pops: u64,
    contact_expirations: u64,
    merged: u64,
    evals_saved: u64,
    fanout: u64,
}

impl SimCounters {
    fn read(engine: &RJoinEngine) -> Self {
        let traffic = engine.traffic();
        let probe = engine.probe_counters();
        let compile = engine.compile_counters();
        let state = engine.state_counters();
        let sharing = engine.sharing_counters();
        let classes = [
            traffic_class::TUPLE,
            traffic_class::QUERY_INDEX,
            traffic_class::EVAL,
            traffic_class::ANSWER,
            traffic_class::RIC,
        ];
        SimCounters {
            sent: classes.map(|c| traffic.total_sent_class(c)),
            sent_total: traffic.total_sent(),
            probes: probe.indexed_probes + probe.linear_walks,
            candidates: probe.candidates_probed,
            residual: probe.residual_probed,
            bucket_len: probe.bucket_len_total,
            rewrites: compile.compiled_rewrites + compile.interpreted_rewrites,
            programs_compiled: compile.programs_compiled,
            cache_hits: compile.cache_hits,
            qpl: engine.total_qpl(),
            wheel_pops: state.wheel_pops,
            contact_expirations: state.contact_expirations,
            merged: sharing.merged_queries,
            evals_saved: sharing.evals_saved,
            fanout: sharing.fanout_answers,
        }
    }
}

/// Builds a simulated engine, submits every query and drains the index
/// traffic: the set-up phase.
fn sim_setup(
    w: &Workload,
    inputs: &Inputs,
    tracer: &mut Tracer,
    rep: &mut Rep,
) -> (RJoinEngine, Vec<Option<QueryId>>) {
    tracer.enter("setup");
    let mut engine =
        RJoinEngine::simulated(w.config.clone(), inputs.catalog.clone(), w.scenario.nodes);
    let origins = engine.node_ids().to_vec();
    let mut qids = Vec::with_capacity(inputs.queries.len());
    for (i, q) in inputs.queries.iter().enumerate() {
        tracer.enter("engine.submit");
        let r = engine.submit_query(origins[i % origins.len()], q.clone());
        tracer.exit();
        qids.push(rep.record("submit_query", r));
    }
    tracer.enter("engine.index_drain");
    let r = engine.run_until_quiescent();
    tracer.exit();
    rep.record("run_until_quiescent", r);
    tracer.exit();
    (engine, qids)
}

fn sim_rep(w: &Workload, inputs: &mut Inputs, tracer: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let t0 = Instant::now();
    let (mut engine, qids) = sim_setup(w, inputs, tracer, &mut rep);
    rep.setup_s = t0.elapsed().as_secs_f64();
    rep.setup_rss_mb = probes::peak_rss_mb();
    inputs.tuples = inputs.scenario.generate_tuples(engine.now() + 1);
    let origins = engine.node_ids().to_vec();
    let before = SimCounters::read(&engine);
    let (mut delivered, mut backlog_max) = (0u64, 0usize);
    let s0 = Instant::now();
    tracer.enter("stream");
    for (r, round) in inputs.tuples.chunks(w.round).enumerate() {
        let r0 = Instant::now();
        tracer.enter("round");
        for (j, t) in round.iter().enumerate() {
            let origin = origins[(r * w.round + j) % origins.len()];
            tracer.enter("engine.publish");
            let res = engine.publish_tuple(origin, t.clone());
            tracer.exit();
            rep.record("publish_tuple", res);
        }
        backlog_max = backlog_max.max(engine.in_flight());
        tracer.enter("engine.drain");
        let res = engine.run_until_quiescent();
        tracer.exit();
        delivered += rep.record("run_until_quiescent", res).unwrap_or(0);
        tracer.exit();
        rep.round_ms.push(r0.elapsed().as_secs_f64() * 1e3);
    }
    tracer.exit();
    rep.stream_s = s0.elapsed().as_secs_f64();
    rep.tuples = inputs.tuples.len();
    rep.stream_rss_mb = probes::peak_rss_mb();
    let after = SimCounters::read(&engine);
    rep.messages = after.sent_total - before.sent_total;
    rep.rows =
        qids.iter().map(|q| q.map(|q| engine.answers().rows_for(q)).unwrap_or_default()).collect();
    if tracer.on {
        let state = engine.state_counters();
        let d = |f: fn(&SimCounters) -> u64| (f(&after) - f(&before)) as f64;
        let tuples = inputs.tuples.len() as f64;
        let rewrites = d(|c| c.rewrites);
        let sent = |i: usize| (after.sent[i] - before.sent[i]) as f64;
        rep.layers = [
            ("engine.publish_ms", tracer.total_ms("engine.publish")),
            ("engine.drain_ms", tracer.total_ms("engine.drain")),
            ("engine.submit_ms", tracer.total_ms("engine.submit")),
            ("engine.index_drain_ms", tracer.total_ms("engine.index_drain")),
            ("net.delivered", delivered as f64),
            ("net.backlog_max", backlog_max as f64),
            ("net.sent.tuple", sent(0)),
            ("net.sent.query_index", sent(1)),
            ("net.sent.eval", sent(2)),
            ("net.sent.answer", sent(3)),
            ("net.sent.ric", sent(4)),
            ("ric.share", sent(4) / rep.messages.max(1) as f64),
            ("trigger_index.probes", d(|c| c.probes)),
            ("trigger_index.candidates", d(|c| c.candidates)),
            ("trigger_index.residual", d(|c| c.residual)),
            ("trigger_index.bucket_len_total", d(|c| c.bucket_len)),
            ("trigger_index.useful_ratio", rewrites / d(|c| c.candidates).max(1.0)),
            ("procedures.rewrites", rewrites),
            ("procedures.rewrites_per_tuple", rewrites / tuples),
            ("procedures.qpl", d(|c| c.qpl)),
            ("procedures.programs_compiled", d(|c| c.programs_compiled)),
            ("procedures.cache_hits", d(|c| c.cache_hits)),
            ("node_state.query_slab_high_water", state.query_slab_high_water as f64),
            ("node_state.tuple_slab_high_water", state.tuple_slab_high_water as f64),
            ("node_state.altt_slab_high_water", state.altt_slab_high_water as f64),
            ("node_state.wheel_pops", d(|c| c.wheel_pops)),
            ("node_state.contact_expirations", d(|c| c.contact_expirations)),
            ("node_state.stored_queries_end", engine.stored_queries_current() as f64),
            ("shared.merged_queries", d(|c| c.merged)),
            ("shared.evals_saved", d(|c| c.evals_saved)),
            ("shared.fanout_answers", d(|c| c.fanout)),
        ]
        .map(|(n, v)| (n.to_string(), v))
        .to_vec();
    }
    rep
}

/// Launches the cluster, submits every query and settles: the set-up
/// phase over TCP.
fn tcp_setup(
    w: &Workload,
    inputs: &Inputs,
    tracer: &mut Tracer,
    rep: &mut Rep,
) -> Option<(Cluster, Vec<Option<QueryId>>)> {
    tracer.enter("setup");
    let launched = Cluster::launch(
        w.config.clone(),
        inputs.catalog.clone(),
        w.scenario.nodes,
        ClusterConfig::default(),
    );
    let mut cluster = rep.record("Cluster::launch", launched)?;
    let mut qids = Vec::with_capacity(inputs.queries.len());
    for q in &inputs.queries {
        tracer.enter("transport.submit");
        let r = cluster.submit_query(q.clone());
        tracer.exit();
        qids.push(rep.record("submit_query", r));
    }
    tracer.enter("transport.index_settle");
    let r = cluster.settle();
    tracer.exit();
    rep.record("settle", r);
    tracer.exit();
    Some((cluster, qids))
}

/// Node counters summed over the cluster: processed, malformed, truncated,
/// dispatch errors.
fn node_totals(cluster: &Cluster) -> [u64; 4] {
    use std::sync::atomic::Ordering::Relaxed;
    let mut total = [0u64; 4];
    for id in cluster.node_ids() {
        if let Some(s) = cluster.node_stats(id) {
            total[0] += s.processed.load(Relaxed);
            total[1] += s.malformed_frames.load(Relaxed);
            total[2] += s.truncated_frames.load(Relaxed);
            total[3] += s.dispatch_errors.load(Relaxed);
        }
    }
    total
}

fn tcp_rep(w: &Workload, inputs: &mut Inputs, tracer: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let t0 = Instant::now();
    let Some((mut cluster, qids)) = tcp_setup(w, inputs, tracer, &mut rep) else {
        rep.rows = vec![Vec::new(); inputs.queries.len()];
        return rep;
    };
    rep.setup_s = t0.elapsed().as_secs_f64();
    rep.setup_rss_mb = probes::peak_rss_mb();
    let before = node_totals(&cluster);
    let s0 = Instant::now();
    tracer.enter("stream");
    for round in inputs.tuples.chunks(w.round) {
        let r0 = Instant::now();
        tracer.enter("round");
        for t in round {
            tracer.enter("transport.publish");
            let res = cluster.publish_tuple(t.clone());
            tracer.exit();
            rep.record("publish_tuple", res);
        }
        tracer.enter("transport.settle");
        let res = cluster.settle();
        tracer.exit();
        rep.record("settle", res);
        tracer.exit();
        rep.round_ms.push(r0.elapsed().as_secs_f64() * 1e3);
    }
    tracer.exit();
    rep.stream_s = s0.elapsed().as_secs_f64();
    rep.tuples = inputs.tuples.len();
    rep.stream_rss_mb = probes::peak_rss_mb();
    let after = node_totals(&cluster);
    rep.messages = after[0] - before[0];
    rep.rows = qids.iter().map(|q| q.map(|q| cluster.rows_for(q)).unwrap_or_default()).collect();
    if tracer.on {
        rep.layers = [
            ("transport.publish_ms", tracer.total_ms("transport.publish")),
            ("transport.settle_ms", tracer.total_ms("transport.settle")),
            ("transport.frames_processed", after[0] as f64),
            ("transport.malformed", after[1] as f64),
            ("transport.truncated", after[2] as f64),
            ("transport.dispatch_errors", after[3] as f64),
        ]
        .map(|(n, v)| (n.to_string(), v))
        .to_vec();
    }
    cluster.shutdown();
    rep
}

fn run_rep(w: &Workload, inputs: &mut Inputs, tracer: &mut Tracer) -> Rep {
    match w.deploy {
        Deploy::Simulator => sim_rep(w, inputs, tracer),
        Deploy::Tcp => tcp_rep(w, inputs, tracer),
    }
}

/// A set-up phase on its own (for extra `setup_s` samples).
fn setup_only(w: &Workload, inputs: &Inputs, rep: &mut Rep) -> f64 {
    let mut tracer = Tracer::new(false);
    let t0 = Instant::now();
    match w.deploy {
        Deploy::Simulator => {
            let setup = sim_setup(w, inputs, &mut tracer, rep);
            let elapsed = t0.elapsed().as_secs_f64();
            drop(setup);
            elapsed
        }
        Deploy::Tcp => {
            let setup = tcp_setup(w, inputs, &mut tracer, rep);
            let elapsed = t0.elapsed().as_secs_f64();
            if let Some((cluster, _)) = setup {
                cluster.shutdown();
            }
            elapsed
        }
    }
}

/// Checks a repetition's delivered rows against the reference bags.
fn check_rep(rep: &mut Rep, bags: &[Bag]) {
    rep.reference_rows = bags.iter().flat_map(|b| b.values()).map(|&n| u64::from(n)).sum();
    let rows = std::mem::take(&mut rep.rows);
    for (bag, delivered) in bags.iter().zip(rows) {
        rep.check.add(reference::check(bag, delivered));
    }
}

/// Seed of the `i`-th sub-workload of a run: the run's own seed first,
/// then golden-ratio strides from it.
fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The inputs of a sub-workload. The queries come from the preset's own
/// seed, so every repetition of every run measures one query population
/// (with 40 shared patterns, seeding the population too moved
/// window-stream's throughput by up to 40% between seeds, the stream alone
/// by about 10%); `seed` draws the tuple stream.
fn generate(w: &Workload, seed: u64) -> Inputs {
    let queries = match w.patterns {
        Some(p) => w.scenario.generate_overlapping_queries(p),
        None => w.scenario.generate_queries(),
    };
    let scenario = Scenario { seed, ..w.scenario.clone() };
    let catalog = scenario.workload_schema().build_catalog();
    let tuples = match w.deploy {
        // `sim_rep` generates them one tick after its set-up drain.
        Deploy::Simulator => Vec::new(),
        Deploy::Tcp => scenario.generate_tuples(TCP_FIRST_PUB_TIME),
    };
    Inputs { scenario, catalog, queries, tuples }
}

impl Workload {
    /// Repetitions a run of `seconds` measures: one per nominal repetition
    /// length, so the count follows from the arguments alone and a seed
    /// with a length always gives the same inputs.
    pub fn reps(&self, seconds: f64) -> usize {
        (seconds / self.nominal_rep_s).ceil().max(1.0) as usize
    }
}

/// Runs repetition `index` of a run (tuple-stream seed derived from
/// `seed`), checks its answers, and prints its measurements. A traced
/// repetition also runs the standalone layer probes and writes its spans
/// under `spans_dir`; an untraced one runs `extra_setups` more set-ups.
pub fn run_sub(
    w: &Workload,
    seed: u64,
    index: usize,
    trace: bool,
    extra_setups: usize,
    spans_dir: &Path,
) {
    let mut inputs = generate(w, sub_seed(seed, index));
    let mut tracer = Tracer::new(trace);
    let mut rep = run_rep(w, &mut inputs, &mut tracer);
    // The reference is built after the deployment is gone, so its memory
    // stays out of the peak-RSS readings. Every query is submitted before
    // the first tuple is published, so Definition 1 admits the whole
    // stream: submission time 0 for all.
    let t0 = Instant::now();
    let insert_times = vec![0; inputs.queries.len()];
    let bags = reference::evaluate(&inputs.catalog, &inputs.queries, &insert_times, &inputs.tuples);
    check_rep(&mut rep, &bags);
    eprintln!(
        "perfbench: sub-workload {index}: reference of {} rows in {:.2} s",
        rep.reference_rows,
        t0.elapsed().as_secs_f64()
    );
    drop(bags);
    if trace {
        let c = rep.check;
        let publisher = Id::hash_key(&ClusterConfig::default().client_label);
        let dht = probes::dht_probe(&inputs.catalog, &w.config, w.scenario.nodes, &inputs.tuples);
        let frames = probes::frame_probe(&inputs.catalog, &inputs.tuples, publisher);
        rep.layers.extend(
            [
                ("answers.delivered", (c.matched + c.unsound) as f64),
                ("answers.unsound", c.unsound as f64),
                ("answers.missing", c.missing as f64),
                ("memory.setup_rss_mb", rep.setup_rss_mb),
                ("dht.keys_per_tuple", dht.keys_per_tuple),
                ("dht.key_hash_ns", dht.key_hash_ns),
                ("dht.lookup_hops_mean", dht.lookup_hops_mean),
                ("dht.lookup_ns", dht.lookup_ns),
                ("transport.frame_bytes_mean", frames.frame_bytes_mean),
                ("transport.encode_ns", frames.encode_ns),
                ("transport.decode_ns", frames.decode_ns),
            ]
            .map(|(n, v)| (n.to_string(), v)),
        );
        let path = spans_dir.join(format!("seed{seed}-rep{index}.jsonl"));
        if let Err(e) = tracer.write(&path) {
            eprintln!("perfbench: writing spans to {}: {e}", path.display());
        }
    }
    for _ in 0..extra_setups {
        let s = setup_only(w, &inputs, &mut rep);
        rep.extra_setups.push(s);
    }
    print!("{}", rep.emit());
}

impl Rep {
    /// The repetition as `@key value...` lines.
    fn emit(&self) -> String {
        let c = self.check;
        let mut lines: Vec<(String, Vec<f64>)> = vec![
            ("setup_s".into(), vec![self.setup_s]),
            ("stream_s".into(), vec![self.stream_s]),
            ("round_ms".into(), self.round_ms.clone()),
            ("messages".into(), vec![self.messages as f64]),
            ("calls".into(), vec![self.calls as f64]),
            ("call_errors".into(), vec![self.call_errors as f64]),
            ("setup_rss_mb".into(), vec![self.setup_rss_mb]),
            ("stream_rss_mb".into(), vec![self.stream_rss_mb]),
            ("matched".into(), vec![c.matched as f64]),
            ("unsound".into(), vec![c.unsound as f64]),
            ("missing".into(), vec![c.missing as f64]),
            ("tuples".into(), vec![self.tuples as f64]),
            ("reference_rows".into(), vec![self.reference_rows as f64]),
            ("extra_setups".into(), self.extra_setups.clone()),
        ];
        lines.extend(self.layers.iter().map(|(n, v)| (format!("layer:{n}"), vec![*v])));
        lines
            .iter()
            .map(|(key, values)| {
                let values: Vec<String> = values.iter().map(|v| v.to_string()).collect();
                format!("@{key} {}\n", values.join(" "))
            })
            .collect()
    }

    /// Reads back what [`Rep::emit`] printed; other lines are ignored.
    pub fn parse(text: &str) -> Result<Rep, String> {
        let mut map: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for line in text.lines().filter_map(|l| l.strip_prefix('@')) {
            let mut parts = line.split_whitespace();
            let key = parts.next().ok_or("empty measurement line")?;
            let values = parts
                .map(|v| v.parse::<f64>().map_err(|e| format!("@{key}: {e}")))
                .collect::<Result<Vec<f64>, String>>()?;
            map.insert(key, values);
        }
        let list = |key: &str| map.get(key).cloned().ok_or(format!("missing @{key}"));
        let one = |key: &str| -> Result<f64, String> {
            list(key)?.first().copied().ok_or(format!("empty @{key}"))
        };
        let count = |key: &str| one(key).map(|v| v as u64);
        Ok(Rep {
            setup_s: one("setup_s")?,
            stream_s: one("stream_s")?,
            round_ms: list("round_ms")?,
            messages: count("messages")?,
            calls: count("calls")?,
            call_errors: count("call_errors")?,
            setup_rss_mb: one("setup_rss_mb")?,
            stream_rss_mb: one("stream_rss_mb")?,
            rows: Vec::new(),
            check: Check {
                matched: count("matched")?,
                unsound: count("unsound")?,
                missing: count("missing")?,
            },
            tuples: count("tuples")? as usize,
            reference_rows: count("reference_rows")?,
            extra_setups: list("extra_setups")?,
            layers: map
                .iter()
                .filter_map(|(k, v)| Some((k.strip_prefix("layer:")?.to_string(), *v.first()?)))
                .collect(),
        })
    }
}
