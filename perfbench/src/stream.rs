//! Seeded request streams for the three workloads, and a model of the
//! result cache that predicts which reads of a stream hit.
//!
//! Everything here is plain data derived from `(seed, corpus shape)`; the
//! program under test never sees the seed. Popularity (which binaries are
//! the Zipf head, which names flip, which images they flip to) is fixed
//! by the corpus shape alone, so every seed draws a different sample path
//! from the same distribution: runs with different seeds measure the same
//! workload.

use std::collections::HashSet;

/// Zipf exponent of the `hot-zipf` and `fleet-churn` read streams.
pub const ZIPF_S: f64 = 1.2;
/// Share of reads asking for the extended (source + target) prediction.
pub const EXTENDED_SHARE: f64 = 1.0 / 3.0;
/// `fleet-churn`: reads between two `update_binary` flips.
pub const UPDATE_EVERY: usize = 300;
/// `fleet-churn`: reads between two `reconfigure_site` bumps.
pub const RECONFIGURE_EVERY: usize = 3000;
/// `fleet-churn`: how many of the most popular names take turns flipping.
pub const FLIP_HEAD: usize = 4;

/// The corpus dimensions a stream is drawn over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub binaries: usize,
    pub sites: usize,
}

impl Shape {
    /// Number of distinct `(content, site, mode)` answers.
    pub fn keys(&self) -> usize {
        self.binaries * self.sites * 2
    }

    /// Dense index of a `(content, site, mode)` answer.
    pub fn key(&self, content: u32, site: u8, extended: bool) -> usize {
        (content as usize * self.sites + site as usize) * 2 + extended as usize
    }

    /// Inverse of [`Shape::key`].
    pub fn unkey(&self, key: usize) -> (u32, u8, bool) {
        let extended = key % 2 == 1;
        let pair = key / 2;
        (
            (pair / self.sites) as u32,
            (pair % self.sites) as u8,
            extended,
        )
    }

    /// Corpus index of the binary at popularity rank `rank` (0 = most
    /// popular). A fixed odd stride walks the corpus so the head mixes
    /// binaries from every build site instead of taking the first site's
    /// whole stack.
    pub fn by_rank(&self, rank: usize) -> u32 {
        let n = self.binaries;
        let mut stride = (n * 5 / 8) | 1;
        while gcd(stride, n) != 1 {
            stride += 2;
        }
        ((rank * stride + 7) % n) as u32
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One closed-loop operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Ask for the prediction of registered name `name` at `site`.
    Read { name: u32, site: u8, extended: bool },
    /// Rebind `name` to the image of corpus binary `content`.
    Update { name: u32, content: u32 },
    /// Bump `site`'s configuration epoch.
    Reconfigure { site: u8 },
}

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Inverse-CDF sampler over ranks `0..n` with weight `1/(rank+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `cold-sweep`: pass after pass over every `(binary, site)` pair, each
/// pass in its own seeded order with a seeded third in extended mode.
/// Every pass after the first starts by reconfiguring every site, so no
/// read ever repeats a result-cache key.
pub fn cold_sweep(seed: u64, shape: Shape, passes: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(passes * (shape.binaries + 1) * shape.sites);
    let mut pairs: Vec<(u32, u8)> = (0..shape.binaries as u32)
        .flat_map(|b| (0..shape.sites as u8).map(move |s| (b, s)))
        .collect();
    for pass in 0..passes {
        let mut rng = Rng::new(seed, 0xC01D_0000 + pass as u64);
        if pass > 0 {
            ops.extend((0..shape.sites as u8).map(|site| Op::Reconfigure { site }));
        }
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.below(i + 1));
        }
        for &(name, site) in &pairs {
            let extended = rng.unit() < EXTENDED_SHARE;
            ops.push(Op::Read {
                name,
                site,
                extended,
            });
        }
    }
    ops
}

/// `hot-zipf` warm-up: every `(binary, site, mode)` key once, in corpus
/// order, so the timed stream that follows is all result-cache hits.
pub fn hot_warmup(shape: Shape) -> Vec<Op> {
    (0..shape.keys())
        .map(|k| {
            let (name, site, extended) = shape.unkey(k);
            Op::Read {
                name,
                site,
                extended,
            }
        })
        .collect()
}

/// `hot-zipf` timed stream: `len` key indices ([`Shape::key`]) with the
/// binary drawn Zipf(s) by popularity rank, the site uniformly and the
/// mode extended a third of the time.
pub fn hot_zipf(seed: u64, shape: Shape, len: usize) -> Vec<u32> {
    let zipf = Zipf::new(shape.binaries, ZIPF_S);
    let mut rng = Rng::new(seed, 0x2_1BF);
    (0..len)
        .map(|_| {
            let content = shape.by_rank(zipf.sample(&mut rng));
            let site = rng.below(shape.sites) as u8;
            let extended = rng.unit() < EXTENDED_SHARE;
            shape.key(content, site, extended) as u32
        })
        .collect()
}

/// The image a flipping head name alternates with: a binary from the
/// middle of the popularity order, so the flip lands on content the
/// stream also reads under its own name.
pub fn flip_partner(shape: Shape, head_rank: usize) -> u32 {
    shape.by_rank(shape.binaries / 2 + head_rank)
}

/// `fleet-churn`: `reads` Zipf(s) reads with config writes interleaved.
/// Every [`UPDATE_EVERY`] reads one of the [`FLIP_HEAD`] most popular
/// names flips between its own image and its [`flip_partner`]'s
/// (A→B→A); every [`RECONFIGURE_EVERY`] reads a seeded site's epoch is
/// bumped.
pub fn fleet_churn(seed: u64, shape: Shape, reads: usize) -> Vec<Op> {
    let zipf = Zipf::new(shape.binaries, ZIPF_S);
    let mut rng = Rng::new(seed, 0xF1EE7);
    let mut flipped = [false; FLIP_HEAD];
    let mut updates = 0usize;
    let mut ops = Vec::with_capacity(reads + reads / UPDATE_EVERY + reads / RECONFIGURE_EVERY);
    for i in 1..=reads {
        let name = shape.by_rank(zipf.sample(&mut rng));
        let site = rng.below(shape.sites) as u8;
        let extended = rng.unit() < EXTENDED_SHARE;
        ops.push(Op::Read {
            name,
            site,
            extended,
        });
        if i % UPDATE_EVERY == 0 {
            let head = updates % FLIP_HEAD;
            updates += 1;
            flipped[head] = !flipped[head];
            let name = shape.by_rank(head);
            let content = if flipped[head] {
                flip_partner(shape, head)
            } else {
                name
            };
            ops.push(Op::Update { name, content });
        }
        if i % RECONFIGURE_EVERY == 0 {
            ops.push(Op::Reconfigure {
                site: rng.below(shape.sites) as u8,
            });
        }
    }
    ops
}

/// Index just past the `reads`-th read of `ops` and the writes that
/// follow it.
pub fn after_reads(ops: &[Op], reads: usize) -> usize {
    let mut seen = 0;
    for (i, op) in ops.iter().enumerate() {
        if matches!(op, Op::Read { .. }) {
            if seen == reads {
                return i;
            }
            seen += 1;
        }
    }
    ops.len()
}

/// What a stream should do to a correct result cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub reads: u64,
    pub hits: u64,
    pub computed: u64,
    pub config_ops: u64,
}

/// Replays `ops` against a model of the service's result cache: answers
/// are keyed by `(content, site, mode)`, an update purges every answer
/// for the displaced content, and a reconfiguration purges every answer
/// for its site. `content_of` starts as the identity binding.
pub fn model_counts(shape: Shape, ops: impl IntoIterator<Item = Op>) -> Counts {
    let mut content_of: Vec<u32> = (0..shape.binaries as u32).collect();
    let mut cached: HashSet<(u32, u8, bool)> = HashSet::new();
    let mut c = Counts::default();
    for op in ops {
        match op {
            Op::Read {
                name,
                site,
                extended,
            } => {
                c.reads += 1;
                if cached.insert((content_of[name as usize], site, extended)) {
                    c.computed += 1;
                } else {
                    c.hits += 1;
                }
            }
            Op::Update { name, content } => {
                c.config_ops += 1;
                let old = std::mem::replace(&mut content_of[name as usize], content);
                cached.retain(|k| k.0 != old);
            }
            Op::Reconfigure { site } => {
                c.config_ops += 1;
                cached.retain(|k| k.1 != site);
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        binaries: 274,
        sites: 5,
    };

    #[test]
    fn by_rank_is_a_permutation() {
        let mut seen: Vec<u32> = (0..SHAPE.binaries).map(|r| SHAPE.by_rank(r)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..SHAPE.binaries as u32).collect::<Vec<_>>());
    }

    #[test]
    fn key_roundtrips() {
        for k in 0..SHAPE.keys() {
            let (c, s, e) = SHAPE.unkey(k);
            assert_eq!(SHAPE.key(c, s, e), k);
        }
    }

    #[test]
    fn same_seed_same_streams_and_counts() {
        assert_eq!(cold_sweep(7, SHAPE, 3), cold_sweep(7, SHAPE, 3));
        assert_eq!(hot_zipf(7, SHAPE, 50_000), hot_zipf(7, SHAPE, 50_000));
        let a = fleet_churn(7, SHAPE, 20_000);
        assert_eq!(a, fleet_churn(7, SHAPE, 20_000));
        assert_eq!(
            model_counts(SHAPE, a.clone()),
            model_counts(SHAPE, a.clone())
        );
        let sweep = cold_sweep(7, SHAPE, 3);
        assert_eq!(
            model_counts(SHAPE, sweep),
            model_counts(SHAPE, cold_sweep(7, SHAPE, 3))
        );
    }

    #[test]
    fn different_seed_changes_streams() {
        assert_ne!(cold_sweep(7, SHAPE, 2), cold_sweep(8, SHAPE, 2));
        assert_ne!(hot_zipf(7, SHAPE, 1000), hot_zipf(8, SHAPE, 1000));
        assert_ne!(fleet_churn(7, SHAPE, 1000), fleet_churn(8, SHAPE, 1000));
    }

    #[test]
    fn cold_sweep_never_hits() {
        let ops = cold_sweep(3, SHAPE, 4);
        let c = model_counts(SHAPE, ops.iter().copied());
        assert_eq!(c.hits, 0);
        assert_eq!(c.computed, 4 * (SHAPE.binaries * SHAPE.sites) as u64);
        assert_eq!(c.config_ops, 3 * SHAPE.sites as u64);
        let extended = ops
            .iter()
            .filter(|o| matches!(o, Op::Read { extended: true, .. }))
            .count() as f64;
        let share = extended / c.reads as f64;
        assert!(
            (share - EXTENDED_SHARE).abs() < 0.03,
            "extended share {share}"
        );
    }

    #[test]
    fn hot_zipf_is_all_hits_after_warmup() {
        let mut ops = hot_warmup(SHAPE);
        let warm = model_counts(SHAPE, ops.iter().copied());
        assert_eq!(warm.computed, SHAPE.keys() as u64);
        ops.extend(hot_zipf(5, SHAPE, 20_000).into_iter().map(|k| {
            let (name, site, extended) = SHAPE.unkey(k as usize);
            Op::Read {
                name,
                site,
                extended,
            }
        }));
        let all = model_counts(SHAPE, ops.iter().copied());
        assert_eq!(all.computed, warm.computed);
        assert_eq!(all.hits, 20_000);
    }

    #[test]
    fn fleet_churn_mixes_hits_computes_and_writes() {
        let ops = fleet_churn(11, SHAPE, 20_000);
        let c = model_counts(SHAPE, ops.iter().copied());
        assert_eq!(c.reads, 20_000);
        assert_eq!(
            c.config_ops,
            (20_000 / UPDATE_EVERY + 20_000 / RECONFIGURE_EVERY) as u64
        );
        assert!(c.hits > c.computed * 3, "{c:?}");
        assert!(c.computed > 1000, "{c:?}");
    }

    #[test]
    fn zipf_head_dominates_tail() {
        let stream = hot_zipf(9, SHAPE, 100_000);
        let mut per_rank = vec![0usize; SHAPE.binaries];
        let rank_of: std::collections::HashMap<u32, usize> =
            (0..SHAPE.binaries).map(|r| (SHAPE.by_rank(r), r)).collect();
        for k in stream {
            per_rank[rank_of[&SHAPE.unkey(k as usize).0]] += 1;
        }
        let head: usize = per_rank[..10].iter().sum();
        let tail: usize = per_rank[SHAPE.binaries / 2..].iter().sum();
        assert!(per_rank[0] > per_rank[1] && per_rank[1] > per_rank[10]);
        assert!(head > 2 * tail, "head {head} tail {tail}");
    }

    #[test]
    fn flips_alternate_between_two_images() {
        let ops = fleet_churn(1, SHAPE, 10 * UPDATE_EVERY * FLIP_HEAD);
        let head = SHAPE.by_rank(0);
        let targets: Vec<u32> = ops
            .iter()
            .filter_map(|o| match *o {
                Op::Update { name, content } if name == head => Some(content),
                _ => None,
            })
            .collect();
        assert_eq!(targets.len(), 10);
        for (i, &t) in targets.iter().enumerate() {
            let expect = if i % 2 == 0 {
                flip_partner(SHAPE, 0)
            } else {
                head
            };
            assert_eq!(t, expect);
        }
    }
}
