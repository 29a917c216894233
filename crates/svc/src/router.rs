//! Consistent-hash routing for the serving fleet.
//!
//! Each node contributes `vnodes` points to a 64-bit hash ring; a request
//! key — the binary's content hash plus the target site — hashes to a
//! point and walks clockwise collecting the first `r` *distinct* nodes as
//! its replica set. Because every node's points depend only on its own
//! name (and the shared ring seed), a node leaving or rejoining moves
//! only the keys whose nearest points belonged to it: bounded key
//! movement, no global reshuffle.

use feam_sim::rng::hash_parts;
use std::collections::HashMap;

/// A consistent-hash ring over named nodes.
#[derive(Debug, Clone)]
pub struct HashRing {
    seed: u64,
    vnodes: usize,
    /// Sorted `(point, node index)` pairs.
    ring: Vec<(u64, usize)>,
    /// Node names by index; a removed node leaves a `None` tombstone.
    nodes: Vec<Option<String>>,
    /// Every name's permanently reserved index. Rejoin restores the
    /// exact former slot — even when several nodes leave and rejoin out
    /// of order — so callers comparing `replicas()` index sets across
    /// churn never see a name re-bind to a different index. Fresh names
    /// always extend the index space rather than reusing a departed
    /// node's slot; the index space therefore grows with distinct names
    /// ever added, not with current membership.
    home: HashMap<String, usize>,
}

impl HashRing {
    /// An empty ring. `vnodes` points per node (≥ 1); more points =
    /// smoother balance, linearly larger ring.
    pub fn new(seed: u64, vnodes: usize) -> Self {
        HashRing {
            seed,
            vnodes: vnodes.max(1),
            ring: Vec::new(),
            nodes: Vec::new(),
            home: HashMap::new(),
        }
    }

    /// Add a node, returning its index. A name that previously left
    /// rejoins under its reserved former index with byte-identical ring
    /// points, regardless of how many other nodes departed or joined in
    /// between; a fresh name gets a fresh index (never a departed
    /// node's slot).
    pub fn add(&mut self, name: &str) -> usize {
        if let Some(idx) = self.index_of(name) {
            return idx; // already present
        }
        let idx = match self.home.get(name) {
            Some(&reserved) => {
                debug_assert!(
                    self.nodes[reserved].is_none(),
                    "reserved slot occupied by another name"
                );
                self.nodes[reserved] = Some(name.to_string());
                reserved
            }
            None => {
                self.nodes.push(Some(name.to_string()));
                let idx = self.nodes.len() - 1;
                self.home.insert(name.to_string(), idx);
                idx
            }
        };
        for v in 0..self.vnodes {
            let point = hash_parts(self.seed, &["vnode", name, &v.to_string()]);
            let at = self.ring.binary_search(&(point, idx)).unwrap_or_else(|e| e);
            self.ring.insert(at, (point, idx));
        }
        idx
    }

    /// Remove a node by name; its keys redistribute to ring successors.
    /// Unknown names are a no-op.
    pub fn remove(&mut self, name: &str) {
        let Some(idx) = self.index_of(name) else {
            return;
        };
        self.ring.retain(|&(_, i)| i != idx);
        self.nodes[idx] = None;
    }

    /// Index of a present node.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.nodes
            .iter()
            .position(|slot| slot.as_deref() == Some(name))
    }

    /// Present node count.
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|s| s.is_some()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The ring point for a request key. The key deliberately hashes the
    /// binary's *content* (not its registered name) with the site, so two
    /// names bound to the same bytes route identically.
    pub fn key_point(&self, content_hash: u64, site: &str) -> u64 {
        let mut digits = [0u8; 20];
        let content = decimal(content_hash, &mut digits);
        hash_parts(self.seed, &["key", content, site])
    }

    /// The replica set for a key point: the first `r` distinct nodes at
    /// or after the point, wrapping. A fleet smaller than `r` returns
    /// every present node — a tiny fleet degrades to full replication
    /// rather than failing.
    pub fn replicas(&self, point: u64, r: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(r.min(self.len()));
        self.replicas_into(point, r, &mut out);
        out
    }

    /// [`replicas`](HashRing::replicas), written into the empty `out`: a
    /// caller that goes on to list more nodes sizes one buffer for all.
    pub(crate) fn replicas_into(&self, point: u64, r: usize, out: &mut Vec<usize>) {
        debug_assert!(out.is_empty());
        if self.ring.is_empty() || r == 0 {
            return;
        }
        let start = self.ring.partition_point(|&(p, _)| p < point);
        for step in 0..self.ring.len() {
            let (_, idx) = self.ring[(start + step) % self.ring.len()];
            if !out.contains(&idx) {
                out.push(idx);
                if out.len() == r {
                    break;
                }
            }
        }
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
        let mut ring = HashRing::new(0xF1EE7, 64);
        for n in names {
            ring.add(n);
        }
        ring
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
        }
    }

    #[test]
    fn tiny_fleet_returns_every_node() {
        let ring = ring_of(&["n0", "n1"]);
        for key in sample_keys(&ring, 50) {
            let reps = ring.replicas(key, 3);
            assert_eq!(reps.len(), 2, "R > N degrades to full replication");
        }
        let empty = HashRing::new(1, 8);
        assert!(empty.replicas(42, 2).is_empty());
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

    #[test]
    fn leave_moves_only_the_departed_nodes_keys() {
        let before = ring_of(&["n0", "n1", "n2", "n3"]);
        let mut after = before.clone();
        after.remove("n2");
        let mut moved = 0;
        let keys = sample_keys(&before, 2000);
        for &key in &keys {
            let owner_before = before.replicas(key, 1)[0];
            let owner_after = after.replicas(key, 1)[0];
            if owner_before != owner_after {
                moved += 1;
                assert_eq!(
                    owner_before, 2,
                    "a key moved whose owner did not leave (key {key:#x})"
                );
            }
        }
        // Roughly 1/4 of keys lived on n2; all of them — and only them — moved.
        assert!(
            (300..=800).contains(&moved),
            "{moved} of 2000 keys moved; expected ≈ the departed node's share"
        );
    }

    #[test]
    fn rejoin_restores_the_original_mapping_exactly() {
        let original = ring_of(&["n0", "n1", "n2", "n3"]);
        let mut churned = original.clone();
        churned.remove("n2");
        churned.add("n2");
        for key in sample_keys(&original, 2000) {
            assert_eq!(
                original.replicas(key, 2),
                churned.replicas(key, 2),
                "leave + rejoin must restore the exact mapping"
            );
        }
    }

    #[test]
    fn out_of_order_rejoins_restore_original_indices() {
        let original = ring_of(&["n0", "n1", "n2", "n3"]);
        let mut churned = original.clone();
        churned.remove("n1");
        churned.remove("n2");
        // Rejoin in the opposite order of departure: each name must get
        // its own reserved slot back, not the first free tombstone.
        assert_eq!(churned.add("n2"), original.index_of("n2").unwrap());
        assert_eq!(churned.add("n1"), original.index_of("n1").unwrap());
        for key in sample_keys(&original, 1000) {
            assert_eq!(
                original.replicas(key, 2),
                churned.replicas(key, 2),
                "out-of-order churn must restore the exact index mapping"
            );
        }
    }

    #[test]
    fn new_nodes_never_steal_a_departed_nodes_slot() {
        let mut ring = ring_of(&["n0", "n1", "n2"]);
        ring.remove("n1");
        assert_eq!(ring.add("n3"), 3, "fresh name extends the index space");
        assert_eq!(ring.add("n1"), 1, "n1 rejoins under its reserved index");
        assert_eq!(ring.len(), 4);
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
