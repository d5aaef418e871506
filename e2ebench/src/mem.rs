//! `mem-fanout`: the paper's in-memory scenario (Figs 6-7) served the
//! sharded way. RPQ (M=8, K=256) is trained over a Vamana graph of the
//! whole set, then a 2-shard in-memory index with one Vamana graph per
//! shard answers uniform queries through `ServeEngine::search`. The ADC
//! kernel, the beam search and the serve layer's fan-out and merge do the
//! work; RPQ training dominates set-up.

use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rpq_anns::serve::{merge_top_k, ServeConfig, ServeEngine, ShardedIndex};
use rpq_core::{
    train_rpq, DiffQuantizerConfig, RoutingSamplerConfig, RpqCompressor, RpqTrainerConfig,
    TrainingMode,
};
use rpq_data::synth::DatasetKind;
use rpq_data::{brute_force_knn, Dataset, GroundTruth};
use rpq_graph::{DistanceEstimator, SearchScratch, VamanaConfig};
use rpq_quant::{CompactCodes, SoaCodes, VectorCompressor};

use crate::inputs::{heap_pad, stream_seed, Rng};
use crate::stats::{self, min_over_rounds, Summary};
use crate::trace::Tracer;
use crate::{ids, interleaved, noise, put_latency, raw_rate, Ctx, Grid, Outcome, SetupTimes};

const N_BASE: usize = 10_000;
/// Distinct queries, each sent once per round: p99 keeps 40 samples
/// beyond it.
const N_QUERY: usize = 4_000;
const SHARDS: usize = 2;
const EF: usize = 40;
const K: usize = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rounds after each set-up, at least.
const MIN_ROUNDS: usize = 2;
const MAX_ROUNDS: usize = 200;
/// Traced rounds are capped so the span file stays a few tens of MB.
const MAX_TRACED_ROUNDS: usize = 5;
/// Every this many queries, the engine's answer is compared id for id
/// with the sequential `ShardedIndex::search`.
const SAMPLE_EVERY: usize = 10;
/// Ids per ADC probe batch: the graph's out-degree R.
const ADC_BATCH: usize = 32;
/// Set below the lowest recall measured over the sizing seeds (0.366), so
/// only a real regression trips it.
const RECALL_FLOOR: f64 = 0.33;
/// Model seed of the graph builds and RPQ training: the repository's
/// preset seed. Data and queries vary with `--seed`.
const MODEL_SEED: u64 = 42;

/// One trained RPQ shared by every shard (ADC distances are then
/// shard-invariant, as `ShardedIndex::build_in_memory` requires).
#[derive(Clone)]
struct SharedRpq(Arc<RpqCompressor>);

impl VectorCompressor for SharedRpq {
    fn name(&self) -> String {
        self.0.name()
    }
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn code_dim(&self) -> usize {
        self.0.code_dim()
    }
    fn model_bytes(&self) -> usize {
        self.0.model_bytes()
    }
    fn train_seconds(&self) -> f32 {
        self.0.train_seconds()
    }
    fn encode_dataset(&self, data: &Dataset) -> CompactCodes {
        self.0.encode_dataset(data)
    }
    fn decode_into(&self, code: &[u8], out: &mut [f32]) {
        self.0.decode_into(code, out)
    }
    fn estimator<'a>(
        &'a self,
        codes: &'a CompactCodes,
        query: &'a [f32],
    ) -> Box<dyn DistanceEstimator + 'a> {
        self.0.estimator(codes, query)
    }
    fn batch_estimator<'a>(
        &'a self,
        codes: &'a SoaCodes,
        query: &'a [f32],
    ) -> Option<Box<dyn DistanceEstimator + 'a>> {
        self.0.batch_estimator(codes, query)
    }
}

fn vamana(data: &Dataset) -> rpq_graph::ProximityGraph {
    VamanaConfig {
        r: 32,
        l: 64,
        seed: MODEL_SEED,
        ..Default::default()
    }
    .build(data)
}

struct Built {
    index: Arc<ShardedIndex>,
    rpq: SharedRpq,
    base: Dataset,
    queries: Dataset,
    gt: GroundTruth,
}

fn setup(seed: u64, times: &mut SetupTimes) -> Built {
    let start = Instant::now();
    let t = Instant::now();
    let (base, queries) = DatasetKind::Sift.generate(N_BASE, N_QUERY, stream_seed(seed, "data"));
    times.add("data.generate_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let gt = brute_force_knn(&base, &queries, K);
    times.add("data.ground_truth_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let graph = vamana(&base);
    let graph_s = Cell::new(t.elapsed().as_secs_f64());
    let t = Instant::now();
    // The Scale presets' trainer shape with the `ci` step budget and no
    // OPQ warm start, so three set-ups fit in one run.
    let cfg = RpqTrainerConfig {
        quantizer: DiffQuantizerConfig {
            m: 8,
            k: 256,
            seed: MODEL_SEED,
            ..Default::default()
        },
        mode: TrainingMode::Full,
        epochs: 2,
        steps_per_epoch: 8,
        triplet_batch: 32,
        decision_batch: 8,
        routing_sampler: RoutingSamplerConfig {
            n_queries: 16,
            h: 8,
            ..Default::default()
        },
        opq_init: false,
        seed: MODEL_SEED,
        ..Default::default()
    };
    let (rpq, _) = train_rpq(&cfg, &base, &graph);
    let rpq = SharedRpq(Arc::new(rpq));
    times.add("core.train_s", t.elapsed().as_secs_f64());
    let index = ShardedIndex::build_in_memory(&rpq, &base, SHARDS, |part| {
        let t = Instant::now();
        let g = vamana(part);
        graph_s.set(graph_s.get() + t.elapsed().as_secs_f64());
        g
    });
    times.add("graph.build_s", graph_s.get());
    times.add("setup_s", start.elapsed().as_secs_f64());
    Built {
        index: Arc::new(index),
        rpq,
        base,
        queries,
        gt,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = Outcome::default();
    let mut times = SetupTimes::default();
    let mut rounds: Vec<Vec<f64>> = Vec::new();
    let mut first: Vec<Vec<u32>> = Vec::with_capacity(N_QUERY);
    let (mut hops, mut dists) = (0usize, 0usize);
    let mut last = None;
    let cpu0 = noise::cpu_times();
    // Each set-up is followed by its share of the measuring time, so the
    // rounds spread over the whole run and a host slowdown lasting seconds
    // cannot cover all of them. Rebuilt indexes must answer identically.
    for phase in 0..SETUPS {
        drop(last.take());
        let pad = heap_pad(ctx.seed, phase);
        let b = setup(ctx.seed, &mut times);
        let engine = ServeEngine::new(
            Arc::clone(&b.index),
            ServeConfig {
                workers: SHARDS.min(nproc),
                ..ServeConfig::default()
            },
        );
        let done = rounds.len();
        let phase_s = ctx.seconds / SETUPS as f64;
        rounds.extend(interleaved(
            N_QUERY,
            MIN_ROUNDS,
            MAX_ROUNDS,
            phase_s,
            |r, i| {
                let q = b.queries.get(i);
                let t = Instant::now();
                let (res, st) = engine.search(q, EF, K);
                let us = t.elapsed().as_secs_f64() * 1e6;
                let got = ids(&res);
                if done + r == 0 {
                    out.check_topk(i, &got, K, |g| (g as usize) < N_BASE);
                    hops += st.hops;
                    dists += st.dist_comps;
                    first.push(got);
                } else if got != first[i] {
                    out.fail(format!(
                        "query {i}: round {} answered differently from round 0",
                        done + r
                    ));
                }
                us
            },
        ));
        last = Some((b, engine, pad));
    }
    let (b, engine, _pad) = last.expect("at least one set-up");
    let steal = noise::steal_frac(cpu0, noise::cpu_times());
    out.attempted = (rounds.len() * N_QUERY) as u64;

    let mut scratch = SearchScratch::with_capacity(b.index.max_shard_len());
    for i in (0..N_QUERY).step_by(SAMPLE_EVERY) {
        out.attempted += 1;
        let (seq, _) = b.index.search(b.queries.get(i), EF, K, &mut scratch);
        if ids(&seq) != first[i] {
            out.fail(format!(
                "query {i}: engine and ShardedIndex::search disagree"
            ));
        }
    }
    let recall = b.gt.recall(&first) as f64;
    if recall < RECALL_FLOOR {
        out.fail(format!("recall@10 {recall:.4} below floor {RECALL_FLOOR}"));
    }

    let service = min_over_rounds(&rounds);
    put_latency(&mut out, &service);
    out.put("recall_at_10", recall);
    out.put(
        "resident_bytes_per_vector",
        b.index.resident_bytes() as f64 / N_BASE as f64,
    );
    out.put("setup_s", times.median("setup_s"));
    for phase in [
        "data.generate_s",
        "data.ground_truth_s",
        "graph.build_s",
        "core.train_s",
    ] {
        out.put(phase, times.median(phase));
    }
    out.put("graph.hops_per_query", hops as f64 / N_QUERY as f64);
    out.put("graph.dist_comps_per_query", dists as f64 / N_QUERY as f64);
    crate::put_noise(&mut out, &raw_rate(&rounds), steal, rounds.len());

    if ctx.trace {
        traced(ctx, &b, &engine, &service, &mut out);
    }
    out
}

/// The traced pass: the same queries, with spans around the engine call
/// and around the benchmark's own calls into each layer below it.
fn traced(ctx: &Ctx, b: &Built, engine: &ServeEngine, service: &[f64], out: &mut Outcome) {
    let soa = SoaCodes::from_compact(&b.rpq.encode_dataset(&b.base));
    let mut rng = Rng::new(stream_seed(ctx.seed, "adc-batches"));
    let batches: Vec<Vec<u32>> = (0..N_QUERY)
        .map(|_| (0..ADC_BATCH).map(|_| rng.below(N_BASE) as u32).collect())
        .collect();
    let n_shards = b.index.n_shards();
    let mut scratch = SearchScratch::with_capacity(b.index.max_shard_len());
    let mut buf = vec![0f32; ADC_BATCH];
    let mut tracer = Tracer::default();
    let (mut shard, mut merge, mut lut, mut adc) = (
        Grid::default(),
        Grid::default(),
        Grid::default(),
        Grid::default(),
    );
    let mut mismatches = 0;
    let rounds = interleaved(N_QUERY, 1, MAX_TRACED_ROUNDS, ctx.seconds, |r, i| {
        let rid = (r * N_QUERY + i) as u64;
        let q = b.queries.get(i);
        let req = tracer.begin("request", None, rid);
        let s = tracer.begin("serve.search", Some(req), rid);
        let (res, _) = engine.search(q, EF, K);
        let engine_us = tracer.end(s);
        let mut partials = Vec::with_capacity(n_shards);
        for sh in 0..n_shards {
            let s = tracer.begin("memory.search_shard", Some(req), rid);
            let (part, _) = b.index.search_shard(sh, q, EF, K, &mut scratch);
            shard.set(r, i * n_shards + sh, N_QUERY * n_shards, tracer.end(s));
            partials.push(part);
        }
        let s = tracer.begin("serve.merge", Some(req), rid);
        let merged = merge_top_k(&partials, K);
        merge.set(r, i, N_QUERY, tracer.end(s));
        if ids(&merged) != ids(&res) {
            mismatches += 1;
        }
        let s = tracer.begin("quant.lut", Some(req), rid);
        let est = b
            .rpq
            .batch_estimator(&soa, q)
            .expect("RPQ serves through the batched ADC kernel");
        lut.set(r, i, N_QUERY, tracer.end(s));
        let s = tracer.begin("quant.adc", Some(req), rid);
        est.distance_batch(&batches[i], &mut buf);
        adc.set(r, i, N_QUERY, tracer.end(s));
        black_box(&buf);
        tracer.end(req);
        engine_us
    });
    out.attempted += (rounds.len() * N_QUERY) as u64;
    if mismatches > 0 {
        out.fail(format!(
            "{mismatches} traced merges disagree with the engine"
        ));
    }
    let engine_min = min_over_rounds(&rounds);
    let shard_min = shard.min();
    let overhead: Vec<f64> = (0..N_QUERY)
        .map(|i| {
            let slowest = shard_min[i * n_shards..(i + 1) * n_shards]
                .iter()
                .copied()
                .fold(0.0, f64::max);
            engine_min[i] - slowest
        })
        .collect();
    out.put("memory.search_us", Summary::of(&shard_min).median);
    out.put("serve.fanout_overhead_us", Summary::of(&overhead).median);
    out.put("serve.merge_us", Summary::of(&merge.min()).median);
    out.put("quant.lut_us", Summary::of(&lut.min()).median);
    out.put(
        "quant.adc_ns_per_code",
        Summary::of(&adc.min()).median * 1e3 / ADC_BATCH as f64,
    );
    crate::finish_trace(
        ctx,
        "mem-fanout",
        &tracer,
        stats::percentile(&engine_min, 50.0) - stats::percentile(service, 50.0),
        out,
    );
}
