//! Consistent-hash routing for the serving fleet.
//!
//! Each node contributes `vnodes` points to a 64-bit hash ring; a request
//! key — the binary's content hash plus the target site — hashes to a
//! point, and the nodes met walking clockwise from it, each counted once,
//! are the order the fleet tries them in. The first `r` of them are the
//! key's replica set. A fleet's membership is fixed when it is built (a
//! killed node keeps its points and is skipped), so the ring stores each
//! point's walk once, at build time.

use feam_sim::rng::hash_parts;

/// A consistent-hash ring over a fixed list of named nodes.
pub(crate) struct HashRing {
    seed: u64,
    /// Ring points, sorted.
    points: Vec<u64>,
    /// Every node index once, in ring order from each point: the walk
    /// from `points[j]` is `walks[j * n..(j + 1) * n]` for `n` nodes.
    walks: Vec<usize>,
    /// Node count.
    n: usize,
}

impl HashRing {
    /// A ring over `names`, node `i` being `names[i]`, with `vnodes` points
    /// per node (≥ 1); more points = smoother balance, linearly larger
    /// ring. A node's points depend only on its name and the seed.
    pub(crate) fn new(seed: u64, vnodes: usize, names: &[impl AsRef<str>]) -> Self {
        let mut ring: Vec<(u64, usize)> = names
            .iter()
            .enumerate()
            .flat_map(|(idx, name)| {
                (0..vnodes.max(1)).map(move |v| {
                    let point = hash_parts(seed, &["vnode", name.as_ref(), &v.to_string()]);
                    (point, idx)
                })
            })
            .collect();
        ring.sort_unstable();
        let n = names.len();
        let mut walks = Vec::with_capacity(ring.len() * n);
        for start in 0..ring.len() {
            let walk = walks.len();
            for &(_, idx) in ring[start..].iter().chain(&ring[..start]) {
                if !walks[walk..].contains(&idx) {
                    walks.push(idx);
                    if walks.len() - walk == n {
                        break;
                    }
                }
            }
        }
        HashRing {
            seed,
            points: ring.into_iter().map(|(point, _)| point).collect(),
            walks,
            n,
        }
    }

    /// The ring point for a request key. The key deliberately hashes the
    /// binary's *content* (not its registered name) with the site, so two
    /// names bound to the same bytes route identically.
    pub(crate) fn key_point(&self, content_hash: u64, site: &str) -> u64 {
        let mut digits = [0u8; 20];
        let content = decimal(content_hash, &mut digits);
        hash_parts(self.seed, &["key", content, site])
    }

    /// Every node once, in ring order from the first point at or after
    /// `point`, wrapping. Empty for a ring without nodes.
    pub(crate) fn walk(&self, point: u64) -> &[usize] {
        if self.points.is_empty() {
            return &[];
        }
        let start = self.points.partition_point(|&p| p < point) % self.points.len();
        &self.walks[start * self.n..(start + 1) * self.n]
    }

    /// The replica set for a key point: the first `r` nodes of its
    /// [`walk`](HashRing::walk). A fleet smaller than `r` returns every
    /// node rather than failing.
    pub(crate) fn replicas(&self, point: u64, r: usize) -> &[usize] {
        let walk = self.walk(point);
        &walk[..r.min(walk.len())]
    }
}

/// `n` in decimal, as `n.to_string()` spells it, written into `buf`.
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(names: &[&str]) -> HashRing {
        HashRing::new(0xF1EE7, 64, names)
    }

    fn sample_keys(ring: &HashRing, n: usize) -> Vec<u64> {
        (0..n)
            .map(|i| ring.key_point(0x1000 + i as u64, "india"))
            .collect()
    }

    #[test]
    fn replica_sets_are_distinct_and_sized() {
        let ring = ring_of(&["n0", "n1", "n2", "n3"]);
        for key in sample_keys(&ring, 200) {
            let reps = ring.replicas(key, 2);
            assert_eq!(reps.len(), 2);
            assert_ne!(reps[0], reps[1]);
            let mut walk = ring.walk(key).to_vec();
            assert_eq!(walk[..2], *reps, "the replica set heads the walk");
            walk.sort_unstable();
            assert_eq!(walk, [0, 1, 2, 3], "the walk lists every node once");
        }
    }

    #[test]
    fn tiny_fleet_returns_every_node() {
        let ring = ring_of(&["n0", "n1"]);
        for key in sample_keys(&ring, 50) {
            let reps = ring.replicas(key, 3);
            assert_eq!(reps.len(), 2, "R > N returns every node");
        }
        let empty = ring_of(&[]);
        assert!(empty.replicas(42, 2).is_empty());
        assert!(empty.walk(42).is_empty());
    }

    #[test]
    fn walks_wrap_past_the_last_point() {
        let ring = ring_of(&["n0", "n1", "n2"]);
        assert_eq!(ring.walk(u64::MAX), ring.walk(0), "past the end wraps");
        let first = ring.points[0];
        assert_eq!(
            ring.walk(first),
            ring.walk(0),
            "a point starts its own walk"
        );
    }

    #[test]
    fn balance_is_reasonable_with_vnodes() {
        let ring = ring_of(&["n0", "n1", "n2", "n3"]);
        let mut counts = [0usize; 4];
        for key in sample_keys(&ring, 4000) {
            counts[ring.replicas(key, 1)[0]] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (400..=2200).contains(&c),
                "node {i} owns {c} of 4000 keys — ring badly unbalanced: {counts:?}"
            );
        }
    }

    /// A down node's keys fail over to their second replica. Those must
    /// spread across every survivor, not pile onto one ring neighbour:
    /// with fixed membership, that spread is what keeps a node loss from
    /// doubling one peer's load.
    #[test]
    fn a_nodes_keys_fail_over_across_every_survivor() {
        let ring = ring_of(&["n0", "n1", "n2", "n3"]);
        let keys = sample_keys(&ring, 4000);
        for k in 0..4 {
            let mut second = [0usize; 4];
            for &key in &keys {
                let reps = ring.replicas(key, 2);
                if reps[0] == k {
                    second[reps[1]] += 1;
                }
            }
            let owned: usize = second.iter().sum();
            assert_eq!(second[k], 0, "a second replica is another node");
            for (i, &c) in second.iter().enumerate().filter(|&(i, _)| i != k) {
                assert!(
                    c * 6 >= owned,
                    "node {k}'s {owned} keys fail over to node {i} only {c} times: {second:?}"
                );
            }
        }
    }

    #[test]
    fn key_point_hashes_the_content_hash_in_decimal() {
        let ring = ring_of(&["n0", "n1", "n2"]);
        let edges = [0, 1, 9, 10, 99, 100, 0x1000, u32::MAX as u64, u64::MAX / 10];
        let powers = (0..20).map(|e| 10u64.pow(e)).flat_map(|p| [p - 1, p]);
        for hash in edges
            .into_iter()
            .chain(powers)
            .chain([u64::MAX - 1, u64::MAX])
        {
            for site in ["india", ""] {
                let spelled = hash_parts(0xF1EE7, &["key", &hash.to_string(), site]);
                assert_eq!(ring.key_point(hash, site), spelled, "hash {hash}");
            }
        }
    }

    #[test]
    fn key_point_uses_content_not_name() {
        let ring = ring_of(&["n0", "n1", "n2"]);
        // Same content hash + site → same point regardless of caller.
        assert_eq!(ring.key_point(99, "india"), ring.key_point(99, "india"));
        assert_ne!(ring.key_point(99, "india"), ring.key_point(99, "forge"));
        assert_ne!(ring.key_point(99, "india"), ring.key_point(100, "india"));
    }
}
