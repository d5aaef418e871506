//! `disk-zipf`: the paper's hybrid DiskANN scenario (Fig 5). PQ codes
//! (M=16, K=256) stay in RAM, the graph and full vectors live in a store
//! file read 4 frontier nodes per stage, the final list is reranked
//! exactly, and a node cache holding 5% of the nodes is admitted from a
//! separate warm-up trace. Zipf(1.1) traffic over a query pool picks the
//! queries, which call `search_with_scratch` directly: store reads, rerank
//! and the cache do the work, while the serve layer and RPQ training are
//! bypassed. Rounds replay each distinct query once, so a query the
//! traffic sends once gets as many samples as a hot one; the per-request
//! counters weight each query by its share of the traffic.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rpq_anns::{DiskIndex, DiskIndexConfig, SsdModel};
use rpq_data::synth::DatasetKind;
use rpq_data::{brute_force_knn, Dataset, GroundTruth};
use rpq_graph::{SearchScratch, VamanaConfig};
use rpq_quant::{PqConfig, ProductQuantizer, SoaCodes, VectorCompressor};

use crate::inputs::{heap_pad, stream_seed, zipf_picks, Rng};
use crate::stats::{self, min_over_rounds, Summary};
use crate::trace::Tracer;
use crate::{ids, interleaved, noise, put_latency, raw_rate, Ctx, Grid, Outcome, SetupTimes};

const N_BASE: usize = 20_000;
/// Queries the traffic can pick from.
const POOL: usize = 20_000;
/// Requests of the Zipf(1.1) traffic; about 4000 of them are distinct, so
/// p99 keeps about 40 samples beyond it.
const TRAFFIC: usize = 20_000;
/// Requests of the warm-up trace the cache is admitted from.
const WARM: usize = 2_000;
const ZIPF_S: f64 = 1.1;
const EF: usize = 40;
const K: usize = 10;
const IO_WIDTH: usize = 4;
const RERANK: usize = 32;
/// About 5% of the nodes: smaller than the working set.
const CACHE_NODES: usize = N_BASE / 20;
const SETUPS: usize = 3;
/// Rounds after each set-up, at least.
const MIN_ROUNDS: usize = 2;
const MAX_ROUNDS: usize = 200;
/// Traced rounds are capped so the span file stays a few MB.
const MAX_TRACED_ROUNDS: usize = 10;
const ADC_BATCH: usize = 32;
/// Set below the lowest recall measured over the sizing seeds (0.744), so
/// only a real regression trips it.
const RECALL_FLOOR: f64 = 0.70;
const MODEL_SEED: u64 = 42;

struct Built {
    index: DiskIndex<ProductQuantizer>,
    pq: ProductQuantizer,
    base: Dataset,
    pool: Dataset,
    /// Pool rows the traffic picks, ascending. Rounds replay each once, and
    /// latency and recall weight each once.
    distinct: Vec<usize>,
    /// Requests the traffic sends for each distinct query; the per-request
    /// counters are weighted by it.
    requests: Vec<usize>,
    gt: GroundTruth,
    _store: StoreFile,
}

/// Deletes the store file when the index that reads it is gone.
struct StoreFile(PathBuf);

impl Drop for StoreFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn setup(seed: u64, path: &Path, times: &mut SetupTimes) -> Built {
    let start = Instant::now();
    let t = Instant::now();
    let (base, pool) = DatasetKind::Sift.generate(N_BASE, POOL, stream_seed(seed, "data"));
    let traffic = zipf_picks(stream_seed(seed, "zipf"), POOL, TRAFFIC, ZIPF_S);
    let warm_picks = zipf_picks(stream_seed(seed, "warm"), POOL, WARM, ZIPF_S);
    let warm = pool.subset(&warm_picks);
    times.add("data.generate_s", t.elapsed().as_secs_f64());

    let t = Instant::now();
    let mut distinct = traffic.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let mut requests = vec![0; distinct.len()];
    for q in &traffic {
        requests[distinct.binary_search(q).expect("picked")] += 1;
    }
    let gt = brute_force_knn(&base, &pool.subset(&distinct), K);
    times.add("data.ground_truth_s", t.elapsed().as_secs_f64());

    let t = Instant::now();
    let graph = VamanaConfig {
        r: 32,
        l: 64,
        seed: MODEL_SEED,
        ..Default::default()
    }
    .build(&base);
    times.add("graph.build_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let pq = ProductQuantizer::train(
        &PqConfig {
            m: 16,
            k: 256,
            seed: MODEL_SEED,
            ..Default::default()
        },
        &base,
    );
    times.add("quant.train_s", t.elapsed().as_secs_f64());

    let store = StoreFile(path.to_path_buf());
    let cfg = DiskIndexConfig {
        rerank: RERANK,
        cache_nodes: CACHE_NODES,
        io_width: IO_WIDTH,
        ssd: SsdModel::nvme(),
        ..DiskIndexConfig::new(path)
    };
    let mut index = DiskIndex::build(pq.clone(), &base, &graph, cfg).expect("store build failed");
    let t = Instant::now();
    index.warm_cache_by_trace(&warm, EF);
    times.add("cache.warm_s", t.elapsed().as_secs_f64());
    times.add("setup_s", start.elapsed().as_secs_f64());
    Built {
        index,
        pq,
        base,
        pool,
        distinct,
        requests,
        gt,
        _store: store,
    }
}

/// Exact counters of one query's search; they must repeat every round.
#[derive(Clone, Copy, Default, PartialEq)]
struct Counts {
    hops: usize,
    dists: usize,
    io_reads: usize,
    coalesced: usize,
    rerank_reads: usize,
    hits: usize,
    misses: usize,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut times = SetupTimes::default();
    let mut scratch = SearchScratch::with_capacity(N_BASE);
    let mut rounds: Vec<Vec<f64>> = Vec::new();
    let mut first: Vec<Vec<u32>> = Vec::new();
    let mut counts: Vec<Counts> = Vec::new();
    let (mut io_s, mut stall_s) = (Vec::new(), Vec::new());
    let mut last = None;
    let cpu0 = noise::cpu_times();
    // Each set-up is followed by its share of the measuring time (see
    // mem.rs); rebuilt indexes must answer and count identically.
    for phase in 0..SETUPS {
        drop(last.take());
        let path = ctx
            .work_dir
            .join(format!("disk-seed{}-{phase}.store", ctx.seed));
        let pad = heap_pad(ctx.seed, phase);
        let b = setup(ctx.seed, &path, &mut times);
        let done = rounds.len();
        let phase_s = ctx.seconds / SETUPS as f64;
        let n = b.distinct.len();
        rounds.extend(interleaved(n, MIN_ROUNDS, MAX_ROUNDS, phase_s, |r, i| {
            let q = b.pool.get(b.distinct[i]);
            let t = Instant::now();
            let (res, st) = b.index.search_with_scratch(q, EF, K, &mut scratch);
            let us = t.elapsed().as_secs_f64() * 1e6;
            let got = ids(&res);
            let c = Counts {
                hops: st.hops,
                dists: st.dist_comps,
                io_reads: st.io_reads,
                coalesced: st.coalesced_ios,
                rerank_reads: st.rerank_reads,
                hits: st.cache_hits,
                misses: st.cache_misses,
            };
            if done + r == 0 {
                out.check_topk(i, &got, K, |g| (g as usize) < N_BASE);
                io_s.push(st.io_seconds as f64);
                stall_s.push(st.io_stall_seconds as f64);
                first.push(got);
                counts.push(c);
            } else if got != first[i] || c != counts[i] {
                out.fail(format!(
                    "query {i}: round {} differs from round 0",
                    done + r
                ));
            }
            us
        }));
        last = Some((b, pad));
    }
    let (b, _pad) = last.expect("at least one set-up");
    let steal = noise::steal_frac(cpu0, noise::cpu_times());
    out.attempted = (rounds.len() * b.distinct.len()) as u64;
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
        "quant.train_s",
        "cache.warm_s",
    ] {
        out.put(phase, times.median(phase));
    }
    // Counters per request of the traffic: each distinct query's exact
    // counts, weighted by how often the traffic sends it.
    let per_req = |f: &dyn Fn(usize) -> f64| {
        (0..counts.len())
            .map(|d| f(d) * b.requests[d] as f64)
            .sum::<f64>()
            / TRAFFIC as f64
    };
    let count = |f: fn(&Counts) -> usize| per_req(&|d| f(&counts[d]) as f64);
    out.put("graph.hops_per_query", count(|c| c.hops));
    out.put("graph.dist_comps_per_query", count(|c| c.dists));
    out.put("disk.io_reads_per_query", count(|c| c.io_reads));
    out.put("disk.coalesced_ios_per_query", count(|c| c.coalesced));
    out.put("disk.rerank_reads_per_query", count(|c| c.rerank_reads));
    let (hits, misses) = (count(|c| c.hits), count(|c| c.misses));
    out.put(
        "cache.hit_rate",
        hits / (hits + misses).max(f64::MIN_POSITIVE),
    );
    out.put("disk.modelled_io_us_per_query", per_req(&|d| io_s[d] * 1e6));
    out.put("disk.io_stall_us_per_query", per_req(&|d| stall_s[d] * 1e6));
    crate::put_noise(&mut out, &raw_rate(&rounds), steal, rounds.len());

    if ctx.trace {
        traced(ctx, &b, &service, &mut out);
    }
    out
}

/// The traced pass: the same queries, with spans around the disk search
/// and around the benchmark's own calls into the PQ kernel.
fn traced(ctx: &Ctx, b: &Built, untraced: &[f64], out: &mut Outcome) {
    let soa = SoaCodes::from_compact(&b.pq.encode_dataset(&b.base));
    let mut rng = Rng::new(stream_seed(ctx.seed, "adc-batches"));
    let n = b.distinct.len();
    let batches: Vec<Vec<u32>> = (0..n)
        .map(|_| (0..ADC_BATCH).map(|_| rng.below(N_BASE) as u32).collect())
        .collect();
    let mut scratch = SearchScratch::with_capacity(N_BASE);
    let mut buf = vec![0f32; ADC_BATCH];
    let mut tracer = Tracer::default();
    let (mut lut, mut adc) = (Grid::default(), Grid::default());
    let rounds = interleaved(n, 1, MAX_TRACED_ROUNDS, ctx.seconds, |r, i| {
        let rid = (r * n + i) as u64;
        let q = b.pool.get(b.distinct[i]);
        let req = tracer.begin("request", None, rid);
        let s = tracer.begin("disk.search", Some(req), rid);
        black_box(b.index.search_with_scratch(q, EF, K, &mut scratch));
        let search_us = tracer.end(s);
        let s = tracer.begin("quant.lut", Some(req), rid);
        let est =
            b.pq.batch_estimator(&soa, q)
                .expect("PQ serves through the batched ADC kernel");
        lut.set(r, i, n, tracer.end(s));
        let s = tracer.begin("quant.adc", Some(req), rid);
        est.distance_batch(&batches[i], &mut buf);
        adc.set(r, i, n, tracer.end(s));
        black_box(&buf);
        tracer.end(req);
        search_us
    });
    out.attempted += (rounds.len() * n) as u64;
    let search_min = min_over_rounds(&rounds);
    out.put("disk.search_us", Summary::of(&search_min).median);
    out.put("quant.lut_us", Summary::of(&lut.min()).median);
    out.put(
        "quant.adc_ns_per_code",
        Summary::of(&adc.min()).median * 1e3 / ADC_BATCH as f64,
    );
    crate::finish_trace(
        ctx,
        "disk-zipf",
        &tracer,
        stats::percentile(&search_min, 50.0) - stats::percentile(untraced, 50.0),
        out,
    );
}
