//! Shard planning for fleet-partitioned Monte Carlo runs.
//!
//! A fleet coordinator splits one experiment's sample index space
//! `0..total` into contiguous, disjoint shards and hands each shard to a
//! worker as a `(seed, offset, len)` job. Because every sample is a pure
//! function of `(seed, index)` (see
//! [`ParallelRunner::run_streaming_range`](super::ParallelRunner::run_streaming_range)),
//! *any* disjoint covering plan produces the same merged result — the
//! planner here just picks the balanced one, and [`Shard`] is the identity
//! a coordinator dedupes re-issued work by.

/// One contiguous shard of a sample index space: the half-open index
/// range `offset..offset + len`.
///
/// `Shard` is `Ord` by `(offset, len)` so a coordinator can merge shard
/// results in a deterministic order regardless of which worker finished
/// first — what makes the merged state independent of retry orderings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Shard {
    /// First sample index of the shard.
    pub offset: usize,
    /// Number of samples in the shard; planners never emit 0.
    pub len: usize,
}

impl Shard {
    /// The first index past the shard.
    #[must_use]
    pub fn end(self) -> usize {
        self.offset + self.len
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}..{}", self.offset, self.end())
    }
}

/// Splits `0..total` into at most `count` contiguous disjoint shards of
/// near-equal length (lengths differ by at most one; longer shards come
/// first). Returns fewer than `count` shards when `total < count` —
/// zero-length shards are never emitted, because a zero-length shard is
/// not a job. Deterministic in its inputs.
///
/// ```
/// use vscore::mc::plan_shards;
///
/// let plan = plan_shards(10, 3);
/// assert_eq!(
///     plan.iter().map(|s| (s.offset, s.len)).collect::<Vec<_>>(),
///     vec![(0, 4), (4, 3), (7, 3)]
/// );
/// ```
#[must_use]
pub fn plan_shards(total: usize, count: usize) -> Vec<Shard> {
    if total == 0 || count == 0 {
        return Vec::new();
    }
    let count = count.min(total);
    let base = total / count;
    let extra = total % count;
    let mut plan = Vec::with_capacity(count);
    let mut offset = 0;
    for i in 0..count {
        let len = base + usize::from(i < extra);
        plan.push(Shard { offset, len });
        offset += len;
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plan must tile `0..total` exactly: disjoint, covering, in order.
    fn assert_tiles(plan: &[Shard], total: usize) {
        let mut next = 0;
        for s in plan {
            assert_eq!(s.offset, next, "gap or overlap at {s}");
            assert!(s.len > 0, "zero-length shard {s}");
            next = s.end();
        }
        assert_eq!(next, total, "plan does not cover 0..{total}");
    }

    #[test]
    fn plans_tile_the_index_space() {
        for total in [1, 2, 7, 100, 101, 12_000] {
            for count in [1, 2, 3, 7, 64] {
                let plan = plan_shards(total, count);
                assert_tiles(&plan, total);
                assert_eq!(plan.len(), count.min(total));
                let (lo, hi) = plan.iter().fold((usize::MAX, 0), |(lo, hi), s| {
                    (lo.min(s.len), hi.max(s.len))
                });
                assert!(hi - lo <= 1, "unbalanced plan for {total}/{count}");
            }
        }
    }

    #[test]
    fn degenerate_inputs_yield_empty_plans() {
        assert!(plan_shards(0, 4).is_empty());
        assert!(plan_shards(10, 0).is_empty());
    }

    #[test]
    fn shards_order_by_offset_for_deterministic_merges() {
        let mut shards = [
            Shard { offset: 8, len: 2 },
            Shard { offset: 0, len: 4 },
            Shard { offset: 4, len: 4 },
        ];
        shards.sort();
        assert_eq!(shards[0].offset, 0);
        assert_eq!(shards[2].offset, 8);
    }
}
