//! Seeded inputs. Every random choice the benchmark makes (dataset seed,
//! Zipf picks, the churn op stream and its delete victims) comes from the
//! run's `--seed` through this module, so the same seed replays the same
//! inputs. The sampler is the benchmark's own: a change to the program's
//! load generators cannot change what the benchmark sends.

use std::collections::HashMap;

/// SplitMix64: tiny, fast, and fully specified, so inputs never depend on
/// a library's generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An independent seed for one named input stream of a run, so adding a
/// stream never shifts the values another stream draws.
pub fn stream_seed(seed: u64, stream: &str) -> u64 {
    // FNV-1a over the label, mixed with the run seed.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stream.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    Rng::new(seed ^ h).next_u64()
}

/// A heap allocation of seeded size (under 120 KiB, so it comes from the
/// heap and not from its own mapping) to hold while set-up `i` allocates
/// and its index lives. Each set-up then lays its index out at another
/// heap offset, so the per-operation minimum is taken over several memory
/// layouts instead of one process's luck (layout bias: Mytkowicz et al.,
/// ASPLOS'09).
pub fn heap_pad(seed: u64, i: usize) -> Vec<u8> {
    let len = Rng::new(stream_seed(seed, "layout") ^ i as u64).below(120 << 10);
    std::hint::black_box(vec![1u8; len])
}

/// Zipf(s) over ranks `0..n` (rank 0 most popular), sampled by inverting
/// the cumulative weights.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `count` Zipf(s) picks over a pool of `pool` items.
pub fn zipf_picks(seed: u64, pool: usize, count: usize, s: f64) -> Vec<usize> {
    let zipf = Zipf::new(pool, s);
    let mut rng = Rng::new(seed);
    (0..count).map(|_| zipf.sample(&mut rng)).collect()
}

/// One client operation of the churn stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Search with query `i` of the query set (each query is used once).
    Search(usize),
    /// Insert row `i` of the insert pool (rows are used in order).
    Insert(usize),
    /// Delete the live id at position `r % live` of the live set.
    Delete(u64),
}

/// A seeded op stream with exact counts of each kind in a shuffled order.
pub fn op_stream(seed: u64, searches: usize, inserts: usize, deletes: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let mut kinds: Vec<u8> = std::iter::repeat_n(0u8, searches)
        .chain(std::iter::repeat_n(1, inserts))
        .chain(std::iter::repeat_n(2, deletes))
        .collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i + 1));
    }
    let (mut s, mut ins) = (0, 0);
    kinds
        .into_iter()
        .map(|kind| match kind {
            0 => {
                s += 1;
                Op::Search(s - 1)
            }
            1 => {
                ins += 1;
                Op::Insert(ins - 1)
            }
            _ => Op::Delete(rng.next_u64()),
        })
        .collect()
}

/// Where a global id's vector lives in the benchmark's inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    Base(usize),
    Inserted(usize),
}

/// The benchmark's own record of which global ids are live. Global ids
/// are never reused by the index, so the record stays valid across
/// consolidations, which only compact the index's local ids.
#[derive(Clone, Debug, Default)]
pub struct LiveSet {
    ids: Vec<u32>,
    pos: HashMap<u32, (usize, Source)>,
    next: u32,
}

impl LiveSet {
    /// Ids `0..n` over base rows `0..n`, as a round-robin build assigns them.
    pub fn with_base(n: usize) -> Self {
        let mut live = Self::default();
        for i in 0..n {
            live.add(Source::Base(i));
        }
        live
    }

    /// Records the next global id (the one the index hands out next).
    pub fn add(&mut self, src: Source) -> u32 {
        let g = self.next;
        self.next += 1;
        self.pos.insert(g, (self.ids.len(), src));
        self.ids.push(g);
        g
    }

    /// The victim a [`Op::Delete`] selects; removed from the record.
    pub fn take(&mut self, r: u64) -> u32 {
        assert!(!self.ids.is_empty(), "delete from an empty live set");
        let g = self.ids[(r % self.ids.len() as u64) as usize];
        let (p, _) = self.pos.remove(&g).expect("live id has a position");
        self.ids.swap_remove(p);
        if let Some(&moved) = self.ids.get(p) {
            self.pos.get_mut(&moved).expect("moved id is live").0 = p;
        }
        g
    }

    pub fn contains(&self, g: u32) -> bool {
        self.pos.contains_key(&g)
    }

    pub fn source(&self, g: u32) -> Option<Source> {
        self.pos.get(&g).map(|&(_, s)| s)
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Live ids, in no particular order.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Live ids in ascending order.
    #[cfg(test)]
    pub fn sorted(&self) -> Vec<u32> {
        let mut v = self.ids.clone();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_anns::serve::{ClusterIndex, LoadBalancePolicy};
    use rpq_anns::StreamingConfig;
    use rpq_data::synth::DatasetKind;
    use rpq_graph::SearchScratch;
    use rpq_quant::{PqConfig, ProductQuantizer};

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(zipf_picks(7, 500, 300, 1.1), zipf_picks(7, 500, 300, 1.1));
        assert_ne!(zipf_picks(7, 500, 300, 1.1), zipf_picks(8, 500, 300, 1.1));
        assert_eq!(op_stream(7, 50, 40, 30), op_stream(7, 50, 40, 30));
        assert_ne!(op_stream(7, 50, 40, 30), op_stream(8, 50, 40, 30));
        assert_ne!(stream_seed(7, "ops"), stream_seed(7, "zipf"));
        assert_ne!(stream_seed(7, "ops"), stream_seed(8, "ops"));
    }

    #[test]
    fn op_stream_has_exact_counts_and_uses_each_row_once() {
        let ops = op_stream(3, 50, 40, 30);
        let searches: Vec<usize> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Search(i) => Some(*i),
                _ => None,
            })
            .collect();
        let inserts: Vec<usize> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Insert(i) => Some(*i),
                _ => None,
            })
            .collect();
        assert_eq!(searches, (0..50).collect::<Vec<_>>());
        assert_eq!(inserts, (0..40).collect::<Vec<_>>());
        assert_eq!(ops.len(), 120);
    }

    #[test]
    fn zipf_is_head_heavy_and_in_range() {
        let picks = zipf_picks(1, 1000, 20_000, 1.1);
        assert!(picks.iter().all(|&p| p < 1000));
        let head = picks.iter().filter(|&&p| p == 0).count() as f64 / 20_000.0;
        let tail = picks.iter().filter(|&&p| p == 999).count() as f64 / 20_000.0;
        // Rank 0 carries 1 / H(1000, 1.1) ≈ 18% of the traffic.
        assert!((0.16..0.20).contains(&head), "head share {head}");
        assert!(tail < 0.002, "tail share {tail}");
    }

    #[test]
    fn live_set_take_keeps_positions_consistent() {
        let mut live = LiveSet::with_base(10);
        let mut rng = Rng::new(5);
        let mut gone = Vec::new();
        for _ in 0..6 {
            gone.push(live.take(rng.next_u64()));
        }
        let g = live.add(Source::Inserted(0));
        assert_eq!(g, 10);
        assert_eq!(live.len(), 5);
        for id in &gone {
            assert!(!live.contains(*id));
        }
        for id in live.sorted() {
            assert!(live.contains(id));
        }
    }

    /// The record must keep naming exactly the index's live points after
    /// inserts, deletes and consolidations that compact local ids.
    #[test]
    fn live_set_survives_consolidation() {
        let (base, extra) = DatasetKind::Sift.generate(600, 200, 11);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 8,
                k: 16,
                seed: 1,
                ..Default::default()
            },
            &base,
        );
        let cfg = StreamingConfig {
            r: 16,
            l: 32,
            ..Default::default()
        };
        let mut cluster =
            ClusterIndex::build_streaming(&pq, &base, 2, 1, LoadBalancePolicy::RoundRobin, cfg);
        let mut scratch = SearchScratch::with_capacity(1000);
        let mut live = LiveSet::with_base(base.len());
        let mut passes = 0;
        for op in op_stream(9, 0, 200, 300) {
            match op {
                Op::Insert(i) => {
                    let g = cluster.insert(extra.get(i), &mut scratch);
                    assert_eq!(g, live.add(Source::Inserted(i)));
                }
                Op::Delete(r) => {
                    assert!(cluster.remove(live.take(r)));
                    if cluster.consolidate(false) > 0 {
                        passes += 1;
                    }
                }
                Op::Search(_) => unreachable!(),
            }
        }
        assert!(passes >= 2, "only {passes} consolidation passes");
        cluster.consolidate(true);
        let mut held: Vec<u32> = cluster
            .groups()
            .iter()
            .flat_map(|g| g.global_ids().iter().copied())
            .collect();
        held.sort_unstable();
        assert_eq!(held, live.sorted());
        assert_eq!(cluster.live_len(), live.len());
    }
}
