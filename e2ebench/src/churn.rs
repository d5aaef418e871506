//! `churn-cluster`: writes beside reads, served the replicated-cluster
//! way. A `ClusterIndex::build_streaming` of 2 groups x 1 replica sits
//! behind a `ClusterEngine`; a seeded stream mixes searches
//! (`ClusterEngine::search`) with inserts and deletes (through
//! `reconfigure`), and after every delete the index's own threshold
//! decides whether a consolidation pass runs. The same beam kernel serves
//! tombstone-filtered reads while Vamana inserts and consolidation add
//! write work, so a kernel change that helps reads and hurts writes shows
//! here.
//!
//! Service times are per-op minima over replays of the identical stream,
//! each on a freshly and identically built index.

use std::time::Instant;

use rpq_anns::serve::{AdmissionConfig, ClusterEngine, ClusterIndex, CostModel, LoadBalancePolicy};
use rpq_anns::StreamingConfig;
use rpq_data::synth::DatasetKind;
use rpq_data::{Dataset, GroundTruth};
use rpq_graph::SearchScratch;
use rpq_quant::{PqConfig, ProductQuantizer};

use crate::inputs::{heap_pad, op_stream, stream_seed, LiveSet, Op, Source};
use crate::stats::{self, min_over_rounds, Summary};
use crate::trace::Tracer;
use crate::{ids, noise, put_latency, raw_rate, Ctx, Outcome, SetupTimes};

/// Small next to the 3000 deletes, so each group crosses the 20% tombstone
/// threshold several times per replay.
const N_BASE: usize = 2_000;
/// Distinct queries, one search each per replay: p99 keeps 30 samples
/// beyond it.
const SEARCHES: usize = 3_000;
const INSERTS: usize = 3_000;
const DELETES: usize = 3_000;
const GROUPS: usize = 2;
const EF: usize = 40;
const K: usize = 10;
const MIN_REPLAYS: usize = 3;
const MAX_REPLAYS: usize = 40;
const MIN_PASSES: usize = 3;
/// Set below the lowest recall measured over the sizing seeds (0.616), so
/// only a real regression trips it.
const RECALL_FLOOR: f64 = 0.55;
const MODEL_SEED: u64 = 42;

struct Built {
    engine: ClusterEngine,
    queries: Dataset,
    base: Dataset,
    pool: Dataset,
}

fn sq_l2(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Exact top-k of every search over the live set it will see: the live
/// set depends only on the op stream, not on the index.
fn ground_truth(ops: &[Op], base: &Dataset, pool: &Dataset, queries: &Dataset) -> Vec<Vec<u32>> {
    let mut live = LiveSet::with_base(base.len());
    let mut truth = Vec::with_capacity(SEARCHES);
    for op in ops {
        match *op {
            Op::Insert(j) => {
                live.add(Source::Inserted(j));
            }
            Op::Delete(r) => {
                live.take(r);
            }
            Op::Search(j) => {
                let q = queries.get(j);
                let mut scored: Vec<(f32, u32)> = live
                    .ids()
                    .iter()
                    .map(|&g| {
                        let v = match live.source(g).expect("live id") {
                            Source::Base(i) => base.get(i),
                            Source::Inserted(i) => pool.get(i),
                        };
                        (sq_l2(q, v), g)
                    })
                    .collect();
                scored
                    .select_nth_unstable_by(K - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                truth.push(scored[..K].iter().map(|&(_, g)| g).collect());
            }
        }
    }
    truth
}

fn setup(seed: u64, times: &mut SetupTimes) -> Built {
    let start = Instant::now();
    let t = Instant::now();
    let (all, queries) =
        DatasetKind::Sift.generate(N_BASE + INSERTS, SEARCHES, stream_seed(seed, "data"));
    let (base, pool) = all.split_at(N_BASE);
    times.add("data.generate_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let pq = ProductQuantizer::train(
        &PqConfig {
            m: 8,
            k: 256,
            seed: MODEL_SEED,
            ..Default::default()
        },
        &base,
    );
    times.add("quant.train_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let cfg = StreamingConfig {
        seed: MODEL_SEED,
        ..Default::default()
    };
    let cluster =
        ClusterIndex::build_streaming(&pq, &base, GROUPS, 1, LoadBalancePolicy::RoundRobin, cfg);
    times.add("graph.build_s", t.elapsed().as_secs_f64());
    let engine = ClusterEngine::new(cluster, AdmissionConfig::default(), CostModel::default());
    times.add("setup_s", start.elapsed().as_secs_f64());
    Built {
        engine,
        queries,
        base,
        pool,
    }
}

/// Wall times and outputs of one replay of the op stream.
#[derive(Default)]
struct Replay {
    search_us: Vec<f64>,
    insert_us: Vec<f64>,
    /// (op index, ms) of every consolidation call that reclaimed points.
    passes: Vec<(usize, f64)>,
    group_passes: Vec<usize>,
    answers: Vec<Vec<u32>>,
    reclaimed: usize,
    tombstone_peak: f64,
    resident_per_vector: f64,
    rejects: usize,
    // Traced replays only: the inner calls' span times and search stats.
    index_search_us: Vec<f64>,
    inner_insert_us: Vec<f64>,
    inner_remove_us: Vec<f64>,
    inner_pass_ms: Vec<f64>,
    hops: usize,
    dists: usize,
}

fn group_lens(c: &ClusterIndex) -> Vec<usize> {
    c.groups().iter().map(|g| g.global_ids().len()).collect()
}

/// Replays `ops` once on `b`. With a tracer, also records spans around
/// each call and around the inner index calls made under `reconfigure`,
/// and searches the index a second time without the engine for stats.
fn replay(b: &Built, ops: &[Op], mut tracer: Option<&mut Tracer>, out: &mut Outcome) -> Replay {
    let mut rep = Replay {
        group_passes: vec![0; GROUPS],
        ..Default::default()
    };
    let mut live = LiveSet::with_base(b.base.len());
    let mut scratch = SearchScratch::with_capacity(N_BASE + INSERTS);
    for (oi, &op) in ops.iter().enumerate() {
        let rid = oi as u64;
        let req = tracer.as_deref_mut().map(|t| t.begin("request", None, rid));
        match op {
            Op::Search(j) => {
                let q = b.queries.get(j);
                let span = tracer
                    .as_deref_mut()
                    .map(|t| t.begin("cluster.engine_search", req, rid));
                let t = Instant::now();
                let res = b.engine.search(q, EF, K, &mut scratch);
                rep.search_us.push(t.elapsed().as_secs_f64() * 1e6);
                if let (Some(tr), Some(s)) = (tracer.as_deref_mut(), span) {
                    tr.end(s);
                    let s = tr.begin("cluster.index_search", req, rid);
                    let stats = b.engine.with_read(|c| c.search(q, EF, K, &mut scratch));
                    rep.index_search_us.push(tr.end(s));
                    if let Ok((_, st)) = stats {
                        rep.hops += st.hops;
                        rep.dists += st.dist_comps;
                    }
                }
                match res {
                    Ok(res) => {
                        let got = ids(&res);
                        out.check_topk(oi, &got, K, |g| live.contains(g));
                        rep.answers.push(got);
                    }
                    Err(reason) => {
                        rep.rejects += 1;
                        out.fail(format!("op {oi}: search rejected ({reason:?})"));
                        rep.answers.push(Vec::new());
                    }
                }
            }
            Op::Insert(j) => {
                let v = b.pool.get(j);
                let span = tracer
                    .as_deref_mut()
                    .map(|t| t.begin("cluster.reconfigure", req, rid));
                let t = Instant::now();
                let g = b.engine.reconfigure(|c| match tracer.as_deref_mut() {
                    Some(tr) => {
                        let s = tr.begin("stream.insert", span, rid);
                        let g = c.insert(v, &mut scratch);
                        rep.inner_insert_us.push(tr.end(s));
                        g
                    }
                    None => c.insert(v, &mut scratch),
                });
                rep.insert_us.push(t.elapsed().as_secs_f64() * 1e6);
                if let (Some(tr), Some(s)) = (tracer.as_deref_mut(), span) {
                    tr.end(s);
                }
                let want = live.add(Source::Inserted(j));
                if g != want {
                    out.fail(format!("op {oi}: insert got id {g}, want {want}"));
                }
            }
            Op::Delete(r) => {
                let victim = live.take(r);
                let span = tracer
                    .as_deref_mut()
                    .map(|t| t.begin("cluster.reconfigure", req, rid));
                let removed = b.engine.reconfigure(|c| match tracer.as_deref_mut() {
                    Some(tr) => {
                        let s = tr.begin("stream.remove", span, rid);
                        let ok = c.remove(victim);
                        rep.inner_remove_us.push(tr.end(s));
                        ok
                    }
                    None => c.remove(victim),
                });
                if let (Some(tr), Some(s)) = (tracer.as_deref_mut(), span) {
                    tr.end(s);
                }
                if !removed {
                    out.fail(format!("op {oi}: delete of live id {victim} failed"));
                }
                let (before, frac) = b
                    .engine
                    .with_read(|c| (group_lens(c), 1.0 - c.live_len() as f64 / c.len() as f64));
                rep.tombstone_peak = rep.tombstone_peak.max(frac);
                let span = tracer
                    .as_deref_mut()
                    .map(|t| t.begin("cluster.reconfigure", req, rid));
                let mut inner_ms = 0.0;
                let t = Instant::now();
                let reclaimed = b.engine.reconfigure(|c| match tracer.as_deref_mut() {
                    Some(tr) => {
                        let s = tr.begin("stream.consolidate", span, rid);
                        let n = c.consolidate(false);
                        inner_ms = tr.end(s) / 1e3;
                        n
                    }
                    None => c.consolidate(false),
                });
                let ms = t.elapsed().as_secs_f64() * 1e3;
                if let (Some(tr), Some(s)) = (tracer.as_deref_mut(), span) {
                    tr.end(s);
                }
                if reclaimed > 0 {
                    rep.reclaimed += reclaimed;
                    rep.passes.push((oi, ms));
                    rep.inner_pass_ms.push(inner_ms);
                    let after = b.engine.with_read(group_lens);
                    for (g, (a, bf)) in after.iter().zip(&before).enumerate() {
                        rep.group_passes[g] += usize::from(a < bf);
                    }
                }
            }
        }
        if let (Some(tr), Some(r)) = (tracer.as_deref_mut(), req) {
            tr.end(r);
        }
    }
    // Compact first, so the figure does not depend on how many tombstones
    // the last pass left behind.
    b.engine.reconfigure(|c| c.consolidate(true));
    let (resident, live_len) = b.engine.with_read(|c| (c.resident_bytes(), c.live_len()));
    if live_len != live.len() {
        out.fail(format!(
            "index holds {live_len} live points, the record {}",
            live.len()
        ));
    }
    rep.resident_per_vector = resident as f64 / live_len.max(1) as f64;
    rep
}

pub fn run(ctx: &Ctx) -> Outcome {
    let ops = op_stream(stream_seed(ctx.seed, "ops"), SEARCHES, INSERTS, DELETES);
    let mut out = Outcome::default();
    let mut times = SetupTimes::default();
    let mut replays: Vec<Replay> = Vec::new();
    let mut truth = None;
    let mut truth_s = 0.0;
    let cpu0 = noise::cpu_times();
    // As on the other workloads, `--seconds` counts measured time only,
    // not the set-ups between replays.
    let mut measured = 0.0;
    while replays.len() < MAX_REPLAYS && (replays.len() < MIN_REPLAYS || measured < ctx.seconds) {
        let _pad = heap_pad(ctx.seed, replays.len());
        let b = setup(ctx.seed, &mut times);
        let t = Instant::now();
        let rep = replay(&b, &ops, None, &mut out);
        measured += t.elapsed().as_secs_f64();
        if truth.is_none() {
            // The benchmark's own exact search, so it stays out of setup_s.
            let t = Instant::now();
            truth = Some(ground_truth(&ops, &b.base, &b.pool, &b.queries));
            truth_s = t.elapsed().as_secs_f64();
        }
        if let Some(first) = replays.first() {
            let at = |r: &Replay| r.passes.iter().map(|&(oi, _)| oi).collect::<Vec<_>>();
            if rep.answers != first.answers || at(&rep) != at(first) {
                out.fail(format!("replay {} differs from replay 0", replays.len()));
            }
        }
        replays.push(rep);
    }
    let steal = noise::steal_frac(cpu0, noise::cpu_times());
    out.attempted = (replays.len() * ops.len()) as u64;

    let first = &replays[0];
    let gt = GroundTruth {
        k: K,
        neighbors: truth.expect("at least one replay"),
    };
    let recall = gt.recall(&first.answers) as f64;
    if recall < RECALL_FLOOR {
        out.fail(format!("recall@10 {recall:.4} below floor {RECALL_FLOOR}"));
    }
    if let Some(g) = first.group_passes.iter().position(|&p| p < MIN_PASSES) {
        out.fail(format!(
            "group {g} consolidated {} times, want at least {MIN_PASSES}",
            first.group_passes[g]
        ));
    }
    let grid = |f: fn(&Replay) -> &Vec<f64>| -> Vec<Vec<f64>> {
        replays.iter().map(|r| f(r).clone()).collect()
    };
    let searches = grid(|r| &r.search_us);
    let service = min_over_rounds(&searches);
    put_latency(&mut out, &service);
    out.put("recall_at_10", recall);
    out.put("resident_bytes_per_vector", first.resident_per_vector);
    out.put("setup_s", times.median("setup_s"));
    for phase in ["data.generate_s", "graph.build_s", "quant.train_s"] {
        out.put(phase, times.median(phase));
    }
    out.put("data.ground_truth_s", truth_s);
    let inserts = min_over_rounds(&grid(|r| &r.insert_us));
    out.put("insert_p50_us", stats::percentile(&inserts, 50.0));
    out.put("insert_p99_us", stats::percentile(&inserts, 99.0));
    let passes: Vec<Vec<f64>> = replays
        .iter()
        .map(|r| r.passes.iter().map(|&(_, ms)| ms).collect())
        .collect();
    // Replays consolidate at the same ops (checked above), so pass `p`
    // of every replay is the same work.
    if replays.iter().all(|r| r.passes.len() == first.passes.len()) {
        out.put("consolidate_ms", stats::mean(&min_over_rounds(&passes)));
    }
    out.put("stream.reclaimed", first.reclaimed as f64);
    out.put("stream.tombstone_frac_peak", first.tombstone_peak);
    out.put(
        "cluster.rejects",
        replays.iter().map(|r| r.rejects).sum::<usize>() as f64,
    );
    crate::put_noise(&mut out, &raw_rate(&searches), steal, replays.len());

    if ctx.trace {
        // The traced replay needs an index no replay has mutated yet.
        let b = setup(ctx.seed, &mut SetupTimes::default());
        let mut tracer = Tracer::default();
        let rep = replay(&b, &ops, Some(&mut tracer), &mut out);
        out.attempted += ops.len() as u64;
        let overhead: Vec<f64> = rep
            .search_us
            .iter()
            .zip(&rep.index_search_us)
            .map(|(e, i)| e - i)
            .collect();
        out.put("stream.insert_us", Summary::of(&rep.inner_insert_us).median);
        out.put("stream.remove_us", Summary::of(&rep.inner_remove_us).median);
        out.put("stream.consolidate_ms", stats::mean(&rep.inner_pass_ms));
        out.put("cluster.engine_overhead_us", Summary::of(&overhead).median);
        out.put("graph.hops_per_query", rep.hops as f64 / SEARCHES as f64);
        out.put(
            "graph.dist_comps_per_query",
            rep.dists as f64 / SEARCHES as f64,
        );
        crate::finish_trace(
            ctx,
            "churn-cluster",
            &tracer,
            stats::percentile(&rep.search_us, 50.0) - stats::percentile(&service, 50.0),
            &mut out,
        );
    }
    out
}
