//! RJoin benchmark: one named closed-loop workload per run, answers checked
//! against the benchmark's own reference evaluator.
//!
//! ```text
//! perfbench --workload <paper-4way|window-stream|tcp-window> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run measures several repetitions of the workload, each on its own
//! sub-workload (the workload's fixed query population and a tuple stream
//! generated from a seed derived from `--seed`), each in a child process of
//! its own so that its peak resident set and allocator state are its own. A repetition is a set-up (build
//! the deployment, submit every query, wait for the index traffic) and a
//! stream in closed-loop rounds: publish a round of tuples, then wait for
//! the deployment to go quiet (`run_until_quiescent` on the simulator,
//! `Cluster::settle` over TCP), so every answer the round triggered has
//! arrived before the next round starts. Each repetition's answers are
//! checked against the reference bag.
//!
//! With `--trace 0` the last line of standard output is the end-to-end
//! result. With `--trace 1` every repetition runs twice, untraced and then
//! traced (spans around every public call, layer counters, standalone layer
//! probes), and the last line carries the per-layer metrics and the tracing
//! overhead. See `NOTES.md` for the workloads and metric definitions.

mod drive;
mod probes;
mod reference;

use drive::Rep;
use std::fmt::Display;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: perfbench --workload <paper-4way|window-stream|tcp-window> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-up samples per run: repetitions run extra set-ups after their
/// stream, so `setup_s` is a median of at least this many.
const SETUP_SAMPLES: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child process: the repetition to run.
    rep: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rep = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--rep" => rep = Some(value.parse::<usize>().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
        rep,
    })
}

/// Runs repetition `rep` (traced or not) in a child process and reads
/// back its measurements.
fn run_child(args: &Args, rep: usize, trace: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--rep", &rep.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting repetition {rep}: {e}"))?;
    if !output.status.success() {
        return Err(format!("repetition {rep} (trace {trace}) exited with {}", output.status));
    }
    Rep::parse(&String::from_utf8_lossy(&output.stdout))
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    percentile(&xs, 0.5)
}

/// Linear-interpolated percentile of sorted samples.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

type Metric = (&'static str, f64, &'static str);

/// The end-to-end metrics of a set of repetitions. Timings are medians
/// over the repetitions of each repetition's own figure, so one repetition
/// caught by a slow spell of the host does not move them; counts are
/// ratios of sums over all repetitions.
fn end_to_end(reps: &[Rep], setup_samples: &[f64]) -> Vec<Metric> {
    let sum = |f: fn(&Rep) -> f64| reps.iter().map(f).sum::<f64>();
    let per_rep = |f: &dyn Fn(&Rep) -> f64| median(reps.iter().map(f).collect());
    let round_percentile = |q: f64| {
        per_rep(&|r: &Rep| {
            let mut rounds = r.round_ms.clone();
            rounds.sort_by(f64::total_cmp);
            percentile(&rounds, q)
        })
    };
    vec![
        ("tuples_per_s", per_rep(&|r| r.tuples as f64 / r.stream_s), "tuples/s"),
        ("publish_latency_p50_ms", round_percentile(0.5), "ms"),
        ("publish_latency_p90_ms", round_percentile(0.9), "ms"),
        ("messages_per_tuple", sum(|r| r.messages as f64) / sum(|r| r.tuples as f64), "msgs/tuple"),
        (
            "answer_recall",
            sum(|r| r.check.matched as f64) / sum(|r| r.reference_rows as f64),
            "ratio",
        ),
        ("peak_rss_mb", per_rep(&|r| r.stream_rss_mb), "MB"),
        ("setup_s", median(setup_samples.to_vec()), "s"),
    ]
}

/// Names of every per-layer metric, with units, in output order.
const PER_LAYER: &[(&str, &str)] = &[
    ("engine.publish_ms", "ms"),
    ("engine.drain_ms", "ms"),
    ("engine.submit_ms", "ms"),
    ("engine.index_drain_ms", "ms"),
    ("net.delivered", "count"),
    ("net.backlog_max", "count"),
    ("net.sent.tuple", "count"),
    ("net.sent.query_index", "count"),
    ("net.sent.eval", "count"),
    ("net.sent.answer", "count"),
    ("net.sent.ric", "count"),
    ("dht.keys_per_tuple", "keys/tuple"),
    ("dht.key_hash_ns", "ns"),
    ("dht.lookup_hops_mean", "hops"),
    ("dht.lookup_ns", "ns"),
    ("ric.share", "ratio"),
    ("trigger_index.probes", "count"),
    ("trigger_index.candidates", "count"),
    ("trigger_index.residual", "count"),
    ("trigger_index.bucket_len_total", "count"),
    ("trigger_index.useful_ratio", "ratio"),
    ("procedures.rewrites", "count"),
    ("procedures.rewrites_per_tuple", "rewrites/tuple"),
    ("procedures.qpl", "count"),
    ("procedures.programs_compiled", "count"),
    ("procedures.cache_hits", "count"),
    ("node_state.query_slab_high_water", "count"),
    ("node_state.tuple_slab_high_water", "count"),
    ("node_state.altt_slab_high_water", "count"),
    ("node_state.wheel_pops", "count"),
    ("node_state.contact_expirations", "count"),
    ("node_state.stored_queries_end", "count"),
    ("shared.merged_queries", "count"),
    ("shared.evals_saved", "count"),
    ("shared.fanout_answers", "count"),
    ("answers.delivered", "count"),
    ("answers.unsound", "count"),
    ("answers.missing", "count"),
    ("transport.publish_ms", "ms"),
    ("transport.settle_ms", "ms"),
    ("transport.frames_processed", "count"),
    ("transport.malformed", "count"),
    ("transport.truncated", "count"),
    ("transport.dispatch_errors", "count"),
    ("transport.frame_bytes_mean", "bytes"),
    ("transport.encode_ns", "ns"),
    ("transport.decode_ns", "ns"),
    ("memory.setup_rss_mb", "MB"),
    ("trace_overhead.tuples_per_s", "ratio"),
    ("trace_overhead.publish_latency_p50_ms", "ratio"),
    ("trace_overhead.publish_latency_p90_ms", "ratio"),
    ("trace_overhead.messages_per_tuple", "ratio"),
    ("trace_overhead.answer_recall", "ratio"),
    ("trace_overhead.peak_rss_mb", "ratio"),
    ("trace_overhead.setup_s", "ratio"),
];

/// A JSON number for `x`; non-finite values (no samples) print as 0.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = drive::workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let reps = w.reps(args.seconds);
    if let Some(rep) = args.rep {
        let extra_setups = if args.trace { 0 } else { SETUP_SAMPLES.div_ceil(reps) - 1 };
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
        let spans = PathBuf::from(dir).join("perfbench-spans").join(&args.workload);
        drive::run_sub(&w, args.seed, rep, args.trace, extra_setups, &spans);
        return ExitCode::SUCCESS;
    }

    // Untraced and traced runs of one sub-workload follow each other, so a
    // slow spell of the host touches both sides of the overhead ratio.
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    for i in 0..reps {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            match run_child(&args, i, trace) {
                Ok(rep) if trace => traced.push(rep),
                Ok(rep) => untraced.push(rep),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let setups: Vec<f64> = untraced
        .iter()
        .flat_map(|r| std::iter::once(r.setup_s).chain(r.extra_setups.iter().copied()))
        .collect();

    // Failure accounting over every repetition and extra set-up. Missing
    // rows are reported by `answer_recall`, not counted as failed: over TCP
    // their number varies between runs of the same inputs.
    let all: Vec<&Rep> = untraced.iter().chain(&traced).collect();
    let mut attempted = 0;
    let mut failed = 0;
    for rep in &all {
        attempted += rep.calls + rep.reference_rows;
        failed += rep.call_errors + rep.check.unsound;
    }
    let correct = all.iter().all(|r| r.check.unsound == 0 && r.check.matched > 0);

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        // Each side's set-ups are the first of their processes, so only
        // those untraced samples compare with the traced ones.
        let first_setups = |reps: &[Rep]| reps.iter().map(|r| r.setup_s).collect::<Vec<_>>();
        let plain = end_to_end(&untraced, &first_setups(&untraced));
        let with_trace = end_to_end(&traced, &first_setups(&traced));
        let overhead: Vec<(String, f64)> = plain
            .iter()
            .zip(&with_trace)
            .map(|((name, plain, _), (_, with, _))| {
                (format!("trace_overhead.{name}"), with / plain - 1.0)
            })
            .collect();
        // Per-layer numbers are means over the traced repetitions.
        let mean = |name: &str| {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.layers.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect();
            (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
        };
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let value = mean(name)
                    .or_else(|| overhead.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                    .unwrap_or(0.0);
                (name.to_string(), value, *unit)
            })
            .collect()
    } else {
        end_to_end(&untraced, &setups).iter().map(|(n, v, u)| (n.to_string(), *v, *u)).collect()
    };

    println!(
        "# {} seed {}: {} repetitions{}, rounds of {} tuples, {} latency samples, \
         {} set-up samples",
        args.workload,
        args.seed,
        reps,
        if args.trace { " (each untraced, then traced)" } else { "" },
        w.round,
        untraced.iter().map(|r| r.round_ms.len()).sum::<usize>(),
        setups.len(),
    );
    for (i, r) in untraced.iter().enumerate() {
        println!(
            "# repetition {i}: set-up {:.3} s, stream {:.3} s, {} tuples, peak {:.1} MB, \
             {} matched / {} unsound / {} missing of {} reference rows",
            r.setup_s,
            r.stream_s,
            r.tuples,
            r.stream_rss_mb,
            r.check.matched,
            r.check.unsound,
            r.check.missing,
            r.reference_rows
        );
    }
    for (name, value, unit) in &metrics {
        println!("# {name:<40} {value:>16.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_number(*v)))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics a run prints are exactly the ones `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn printed_metrics_match_the_benchmark_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{section}\"")).expect("section present");
            let end = text[start..].find(']').expect("section is a list") + start;
            text[start..end]
                .lines()
                .filter_map(|l| {
                    let name = l.split("\"name\": \"").nth(1)?.split('"').next()?;
                    let unit = l.split("\"unit\": \"").nth(1)?.split('"').next()?;
                    Some((name.to_string(), unit.to_string()))
                })
                .collect()
        };
        let per_layer: Vec<(String, String)> =
            PER_LAYER.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(declared("per_layer"), per_layer);
        let rep = Rep { tuples: 1, stream_s: 1.0, reference_rows: 1, ..Rep::default() };
        let e2e: Vec<(String, String)> = end_to_end(&[rep], &[1.0])
            .iter()
            .map(|(n, _, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
    }

    #[test]
    fn percentiles_interpolate_between_samples() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0];
        assert_eq!(percentile(&xs, 0.5), 6.0);
        assert_eq!(percentile(&xs, 0.9), 10.0);
        assert!((percentile(&[0.0, 10.0], 0.25) - 2.5).abs() < 1e-12);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }
}
