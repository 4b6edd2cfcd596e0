//! Per-vertex replica sets — which partitions hold a copy of each vertex —
//! as one packed bitmap.
//!
//! The streaming metrics pass and the stateful streaming partitioners
//! (Greedy, HDRF) all maintain `A(v)`, the set of partitions vertex `v` is
//! replicated into, and all update it twice per edge. [`ReplicaBitmap`]
//! stores every set in a single flat allocation of `⌈num_parts / 64⌉` words
//! per vertex: bit `p % 64` of word `p / 64` is set when `v` has a replica
//! in `p`. Insertion is an OR, membership a shift and mask, intersection
//! and union a word-wise AND / OR, and the replica count a popcount.

use cutfit_graph::types::PartId;
use cutfit_graph::VertexId;
use cutfit_util::num::{part_index, vid_index};

/// The replica sets of `num_vertices` vertices over `num_parts` partitions.
pub(crate) struct ReplicaBitmap {
    num_vertices: u64,
    num_parts: PartId,
    words_per_vertex: usize,
    words: Vec<u64>,
}

impl ReplicaBitmap {
    /// All-empty replica sets.
    ///
    /// # Panics
    /// Panics if `num_parts == 0`, or if `num_vertices × ⌈num_parts / 64⌉`
    /// words do not fit the address space (`num_vertices` can be a file
    /// header's claim, so the product is checked rather than wrapped).
    pub(crate) fn new(num_vertices: u64, num_parts: PartId) -> Self {
        assert!(num_parts > 0, "need at least one partition");
        let words_per_vertex = part_index(num_parts).div_ceil(64);
        let Some(len) = usize::try_from(num_vertices)
            .ok()
            .and_then(|n| n.checked_mul(words_per_vertex))
        else {
            panic!(
                "replica bitmap of {num_vertices} vertices × {words_per_vertex} words \
                 per vertex overflows usize"
            )
        };
        ReplicaBitmap {
            num_vertices,
            num_parts,
            words_per_vertex,
            words: vec![0; len],
        }
    }

    /// Index of `v`'s first word. The range check is what keeps the
    /// multiplication from wrapping: `num_vertices × words_per_vertex` fits
    /// `usize` by construction.
    #[inline]
    fn base(&self, v: VertexId) -> usize {
        assert!(v < self.num_vertices, "vertex id {v} out of range");
        vid_index(v) * self.words_per_vertex
    }

    /// Adds partition `p` to `v`'s replica set.
    #[inline]
    pub(crate) fn insert(&mut self, v: VertexId, p: PartId) {
        // An out-of-range `p` would land in the *next vertex's* words.
        debug_assert!(p < self.num_parts, "partition id {p} out of range");
        let word = self.base(v) + part_index(p / 64);
        self.words[word] |= 1u64 << (p % 64);
    }

    /// Whether `v` has a replica in partition `p`.
    #[inline]
    pub(crate) fn contains(&self, v: VertexId, p: PartId) -> bool {
        debug_assert!(p < self.num_parts, "partition id {p} out of range");
        self.words[self.base(v) + part_index(p / 64)] >> (p % 64) & 1 != 0
    }

    /// `v`'s replica set as its `⌈num_parts / 64⌉` raw words, lowest
    /// partitions first.
    #[inline]
    pub(crate) fn words(&self, v: VertexId) -> &[u64] {
        let base = self.base(v);
        &self.words[base..base + self.words_per_vertex]
    }

    /// Per-vertex replica counts, in vertex order (0 for isolated vertices).
    pub(crate) fn replication(&self) -> impl Iterator<Item = u32> + '_ {
        self.words
            .chunks_exact(self.words_per_vertex)
            .map(|set| set.iter().map(|w| w.count_ones()).sum())
    }
}

/// The partitions whose bits are set in `words` (a replica set, or the
/// word-wise AND / OR of two), in ascending order.
pub(crate) fn set_bits(words: impl IntoIterator<Item = u64>) -> impl Iterator<Item = PartId> {
    (0..)
        .step_by(64)
        .zip(words)
        .flat_map(|(first, mut bits): (PartId, u64)| {
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let p = first + bits.trailing_zeros();
                    bits &= bits - 1;
                    p
                })
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(r: &ReplicaBitmap, v: VertexId) -> Vec<PartId> {
        set_bits(r.words(v).iter().copied()).collect()
    }

    #[test]
    fn insert_is_idempotent_and_ordered() {
        let mut r = ReplicaBitmap::new(3, 200);
        for p in [130, 5, 64, 5, 199, 130, 0, 63] {
            r.insert(1, p);
        }
        assert_eq!(members(&r, 1), vec![0, 5, 63, 64, 130, 199]);
        assert_eq!(r.replication().collect::<Vec<_>>(), vec![0, 6, 0]);
    }

    #[test]
    fn contains_across_word_edges_leaves_neighbours_alone() {
        for num_parts in [63u32, 64, 65, 127, 128, 129, 256, 257] {
            let mut r = ReplicaBitmap::new(3, num_parts);
            assert_eq!(r.words(1).len(), num_parts.div_ceil(64) as usize);
            let edges: Vec<PartId> = [0, 62, 63, 64, 65, 127, 128, 255, 256]
                .into_iter()
                .filter(|&p| p < num_parts - 1)
                .chain([num_parts - 1])
                .collect();
            for &p in &edges {
                assert!(!r.contains(1, p));
                r.insert(1, p);
                assert!(r.contains(1, p), "p={p} of {num_parts}");
            }
            for p in 0..num_parts {
                assert_eq!(r.contains(1, p), edges.contains(&p), "p={p}");
                assert!(!r.contains(0, p) && !r.contains(2, p), "p={p} leaked");
            }
        }
    }

    #[test]
    fn replication_counts_isolated_vertices_as_zero() {
        let mut r = ReplicaBitmap::new(5, 100);
        r.insert(0, 99);
        r.insert(4, 0);
        r.insert(4, 64);
        assert_eq!(r.replication().collect::<Vec<_>>(), vec![1, 0, 0, 0, 2]);
    }

    #[test]
    fn single_partition_is_one_bit_of_one_word() {
        let mut r = ReplicaBitmap::new(2, 1);
        assert_eq!(r.words(0), &[0]);
        r.insert(0, 0);
        assert_eq!(r.words(0), &[1]);
        assert!(r.contains(0, 0) && !r.contains(1, 0));
        assert_eq!(r.replication().collect::<Vec<_>>(), vec![1, 0]);
    }

    #[test]
    fn zero_vertices_is_an_empty_sequence() {
        for num_parts in [1u32, 64, 300] {
            assert_eq!(ReplicaBitmap::new(0, num_parts).replication().count(), 0);
        }
    }

    #[test]
    fn set_bits_walks_words_in_ascending_order() {
        assert_eq!(set_bits([]).count(), 0);
        assert_eq!(set_bits([0, 0]).count(), 0);
        let got: Vec<PartId> = set_bits([1 << 63 | 1, 0, 0b110]).collect();
        assert_eq!(got, vec![0, 63, 129, 130]);
    }

    #[test]
    #[should_panic(expected = "18446744073709551615 vertices × 5 words")]
    fn sizing_overflow_panics_with_both_factors() {
        ReplicaBitmap::new(u64::MAX, 257);
    }

    #[test]
    #[should_panic(expected = "vertex id 3 out of range")]
    fn out_of_range_vertex_is_rejected() {
        ReplicaBitmap::new(3, 65).insert(3, 0);
    }

    #[test]
    #[should_panic(expected = "need at least one partition")]
    fn zero_partitions_is_rejected() {
        ReplicaBitmap::new(4, 0);
    }
}
