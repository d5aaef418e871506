//! End-to-end benchmark of the RPQ serving stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <mem-fanout|disk-zipf|churn-cluster> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client thread keeps one request in flight. Each operation's service
//! time is its minimum wall time over interleaved rounds (see
//! `e2ebench/README.md`). `--trace 0` prints the end-to-end metrics;
//! `--trace 1` also runs a traced pass and prints the per-layer metrics.
//! The last line of standard output is one JSON object; the exit code is
//! non-zero when any output check failed.

mod churn;
mod disk;
mod inputs;
mod mem;
mod noise;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use rpq_graph::Neighbor;
use stats::Summary;

/// What one invocation asked for.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space for disk stores and trace files: the directory that
    /// holds the benchmark's executable, inside the build directory.
    pub work_dir: PathBuf,
}

/// Metrics plus the output-check tally of one run.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a failed output check (kept to the first few messages).
    pub fn fail(&mut self, msg: String) {
        if self.failures.len() < 20 {
            eprintln!("CHECK FAILED: {msg}");
        }
        self.failures.push(msg);
    }

    /// Fails unless `ids` are `k` distinct ids that all pass `valid`.
    pub fn check_topk(&mut self, op: usize, ids: &[u32], k: usize, valid: impl Fn(u32) -> bool) {
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if ids.len() != k || sorted.len() != k {
            self.fail(format!(
                "op {op}: {} ids, {} distinct, want {k}",
                ids.len(),
                sorted.len()
            ));
        } else if let Some(bad) = ids.iter().find(|&&g| !valid(g)) {
            self.fail(format!("op {op}: returned invalid id {bad}"));
        }
    }
}

pub fn ids(res: &[Neighbor]) -> Vec<u32> {
    res.iter().map(|n| n.id).collect()
}

/// Replays operations `0..n` in round-robin rounds until at least
/// `min_rounds` rounds are done and `seconds` have passed, stopping at
/// `max_rounds`. `op(round, i)` runs operation `i` and returns the wall
/// time of its timed call in µs. Returns `times[round][i]`.
pub fn interleaved(
    n: usize,
    min_rounds: usize,
    max_rounds: usize,
    seconds: f64,
    mut op: impl FnMut(usize, usize) -> f64,
) -> Vec<Vec<f64>> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < max_rounds
        && (rounds.len() < min_rounds || start.elapsed().as_secs_f64() < seconds)
    {
        let r = rounds.len();
        rounds.push((0..n).map(|i| op(r, i)).collect());
    }
    rounds
}

/// The raw wall rate of each round (every op timed once), for the noise
/// diagnostics: its median and its spread as a share of the median.
pub fn raw_rate(rounds: &[Vec<f64>]) -> Summary {
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.len() as f64 / (r.iter().sum::<f64>() / 1e6))
        .collect();
    Summary::of(&rates)
}

/// Per-round times of one traced call: `rows[round][i]`.
#[derive(Default)]
pub struct Grid(Vec<Vec<f64>>);

impl Grid {
    /// Records call `i` of `n` in `round`.
    pub fn set(&mut self, round: usize, i: usize, n: usize, us: f64) {
        while self.0.len() <= round {
            self.0.push(vec![0.0; n]);
        }
        self.0[round][i] = us;
    }

    pub fn min(&self) -> Vec<f64> {
        stats::min_over_rounds(&self.0)
    }
}

/// Puts the noise diagnostics of one measured phase and reports them on
/// standard error, so every run records them.
pub fn put_noise(out: &mut Outcome, raw: &Summary, steal: f64, rounds: usize) {
    eprintln!(
        "noise: {rounds} rounds, raw rate median {:.1}/s (IQR {:.2}% of median), steal {:.3}%",
        raw.median,
        raw.iqr_frac() * 100.0,
        steal * 100.0
    );
    out.put("bench.raw_qps", raw.median);
    out.put("bench.raw_qps_iqr", raw.iqr_frac());
    out.put("bench.steal_frac", steal);
    out.put("bench.rounds", rounds as f64);
}

/// Writes the spans of a traced pass, reports self time per layer, and
/// puts the tracing overhead (traced minus untraced p50 service time).
pub fn finish_trace(
    ctx: &Ctx,
    workload: &str,
    tracer: &trace::Tracer,
    overhead_us: f64,
    out: &mut Outcome,
) {
    let path = ctx
        .work_dir
        .join(format!("{workload}-seed{}.trace.jsonl", ctx.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "trace: {} spans written to {}",
            tracer.len(),
            path.display()
        ),
        Err(e) => out.fail(format!("cannot write {}: {e}", path.display())),
    }
    for (layer, (self_s, spans)) in tracer.self_time_by_layer() {
        eprintln!("trace: {layer:>10} self {self_s:>9.4} s over {spans} spans");
    }
    out.put("trace.overhead_us", overhead_us);
}

/// Puts the wall-clock latency metrics of per-operation service times.
pub fn put_latency(out: &mut Outcome, service_us: &[f64]) {
    let p99_ok = stats::highest_supported_percentile(service_us.len(), &[50.0, 90.0, 99.0])
        .is_some_and(|p| p >= 99.0);
    if !p99_ok {
        out.fail(format!("{} samples cannot support p99", service_us.len()));
    }
    out.put("qps", 1e6 / stats::mean(service_us));
    out.put("latency_p50_us", stats::percentile(service_us, 50.0));
    out.put("latency_p99_us", stats::percentile(service_us, 99.0));
}

/// Median of each set-up phase over the repeated set-ups of one run.
#[derive(Default)]
pub struct SetupTimes {
    pub phases: Vec<(&'static str, Vec<f64>)>,
}

impl SetupTimes {
    pub fn add(&mut self, phase: &'static str, seconds: f64) {
        match self.phases.iter_mut().find(|(p, _)| *p == phase) {
            Some((_, v)) => v.push(seconds),
            None => self.phases.push((phase, vec![seconds])),
        }
    }

    pub fn median(&self, phase: &str) -> f64 {
        self.phases
            .iter()
            .find(|(p, _)| *p == phase)
            .map_or(0.0, |(_, v)| Summary::of(v).median)
    }
}

/// Per-layer metrics every workload prints; each workload fills the ones
/// its layers use, the rest stay 0 (that layer is bypassed).
pub const PER_LAYER: [(&str, &str); 35] = [
    ("data.generate_s", "s"),
    ("data.ground_truth_s", "s"),
    ("graph.build_s", "s"),
    ("cache.warm_s", "s"),
    ("core.train_s", "s"),
    ("quant.train_s", "s"),
    ("quant.lut_us", "us"),
    ("quant.adc_ns_per_code", "ns"),
    ("graph.hops_per_query", "count"),
    ("graph.dist_comps_per_query", "count"),
    ("memory.search_us", "us"),
    ("serve.fanout_overhead_us", "us"),
    ("serve.merge_us", "us"),
    ("disk.search_us", "us"),
    ("disk.io_reads_per_query", "count"),
    ("disk.modelled_io_us_per_query", "us"),
    ("disk.coalesced_ios_per_query", "count"),
    ("disk.rerank_reads_per_query", "count"),
    ("cache.hit_rate", "ratio"),
    ("disk.io_stall_us_per_query", "us"),
    ("stream.insert_us", "us"),
    ("stream.remove_us", "us"),
    ("stream.consolidate_ms", "ms"),
    ("stream.reclaimed", "count"),
    ("stream.tombstone_frac_peak", "ratio"),
    ("insert_p50_us", "us"),
    ("insert_p99_us", "us"),
    ("consolidate_ms", "ms"),
    ("cluster.engine_overhead_us", "us"),
    ("cluster.rejects", "count"),
    ("bench.raw_qps", "1/s"),
    ("bench.raw_qps_iqr", "ratio"),
    ("bench.steal_frac", "ratio"),
    ("bench.rounds", "count"),
    ("trace.overhead_us", "us"),
];

/// Metrics printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("qps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("recall_at_10", "ratio"),
    ("resident_bytes_per_vector", "B"),
    ("setup_s", "s"),
];

fn parse_args() -> Result<(String, Ctx), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate executable: {e}"))?;
    let work_dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .join("e2ebench-work");
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    Ok((
        workload.ok_or("--workload is required")?,
        Ctx {
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
            work_dir,
        },
    ))
}

fn main() {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <mem-fanout|disk-zipf|churn-cluster> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut out = match workload.as_str() {
        "mem-fanout" => mem::run(&ctx),
        "disk-zipf" => disk::run(&ctx),
        "churn-cluster" => churn::run(&ctx),
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    };

    // Keep exactly the metrics of the requested mode, in a fixed order.
    let names: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let mut printed = Vec::new();
    for &(name, unit) in names {
        let value = match out.metrics.iter().find(|m| m.0 == name) {
            Some(m) => m.1,
            // A per-layer metric a workload does not fill is a layer it
            // bypasses; an end-to-end metric must always be measured.
            None if ctx.trace => 0.0,
            None => {
                out.fail(format!("metric {name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() {
            out.fail(format!("metric {name} is not finite"));
        }
        printed.push((name, value, unit));
    }
    for (name, value, unit) in &printed {
        println!("{name:>32} {value:>16.6} {unit}");
    }
    let failed = out.failures.len() as u64;
    let body: Vec<String> = printed
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        out.attempted.max(1),
        body.join(", ")
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
