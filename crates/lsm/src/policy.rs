//! Compaction: which on-disk components merge.
//!
//! The paper's experiments use AsterixDB's *tiering* merge policy (size
//! ratio 1.2) with a fair, first-come-first-served scheduler and a maximum
//! of five mergeable components (§6.3). Leveling and lazy leveling are two
//! more ways to set the same rule (arXiv 1812.07527 §2.3), so all three are
//! one serialisable [`CompactionSpec`] with one method,
//! [`CompactionSpec::merge_jobs`]. The spec round-trips through the
//! manifest, so a reopened dataset keeps compacting the way it was created.
//!
//! * **tiered** — write-optimised. Runs accumulate and a prefix of the
//!   newest runs merges when their cumulative size exceeds `size_ratio` ×
//!   the next older run, or when the run count exceeds `max_components`.
//! * **leveled** — read/space-optimised. Runs smaller than [`TARGET_SIZE`]
//!   count as L0; once [`L0_THRESHOLD`] of them pile up they merge into the
//!   next older run. Grown runs ("levels") merge into their older neighbour
//!   whenever they exceed [`LEVEL_RATIO`] × its size, which keeps the run
//!   count logarithmic and shadowed versions short-lived. Independent
//!   level-to-level cascades are separate, disjoint jobs of one round.
//! * **lazy-leveled** — a tiering/leveling hybrid ("How to Grow an
//!   LSM-tree?", `PAPERS.md`): young runs tier up cheaply and merge into the
//!   single oldest run (the "level") only when their total crosses
//!   [`LEVEL_RATIO`] × its size (and at least [`TARGET_SIZE`]), bounding
//!   both write amplification (few rewrites of the big run) and read
//!   amplification (few small runs).
//!
//! Every job is a [`Range`] of newest-first indexes: components are
//! age-ordered, and merging non-adjacent runs would let an old version of a
//! key leapfrog a newer one during reconciliation.

use std::ops::Range;

/// Leveled: runs below this size count as L0 (fresh flush output).
/// Lazy-leveled: the least combined tier size worth folding into the level.
pub const TARGET_SIZE: u64 = 4 << 20;

/// Leveled: L0 runs that trigger a merge into the next older run.
/// Lazy-leveled: runs beyond which the tiers merge among themselves.
pub const L0_THRESHOLD: usize = 4;

/// Leveled: a grown run merges into its older neighbour when it exceeds this
/// fraction of the neighbour's size. Lazy-leveled: the tiers fold into the
/// level when their total exceeds this fraction of it.
pub const LEVEL_RATIO: f64 = 0.5;

/// Which compaction strategy a dataset runs. This is what
/// [`crate::DatasetConfig`] carries and what the manifest persists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompactionSpec {
    /// Write-optimised tiering (the paper's policy; the default).
    Tiered {
        /// A prefix of the newest runs merges when its cumulative size
        /// exceeds `size_ratio` × the next older run.
        size_ratio: f64,
        /// More runs than this force a merge of all of them.
        max_components: usize,
    },
    /// Read/space-optimised leveling.
    Leveled,
    /// Tiering/leveling hybrid.
    LazyLeveled,
}

impl Default for CompactionSpec {
    fn default() -> Self {
        CompactionSpec::tiered(1.2, 5)
    }
}

impl CompactionSpec {
    /// The tiered spec with explicit knobs.
    pub fn tiered(size_ratio: f64, max_components: usize) -> CompactionSpec {
        CompactionSpec::Tiered {
            size_ratio,
            max_components,
        }
    }

    /// One merge round over run sizes in bytes, newest first: disjoint
    /// ranges of at least two runs each, in ascending order. Tiered and
    /// lazy-leveled return at most one range; leveled returns one per
    /// independent cascade.
    pub fn merge_jobs(&self, sizes: &[u64]) -> Vec<Range<usize>> {
        if sizes.len() < 2 {
            return Vec::new();
        }
        match *self {
            CompactionSpec::Tiered {
                size_ratio,
                max_components,
            } => tiered(sizes, size_ratio, max_components)
                .into_iter()
                .collect(),
            CompactionSpec::Leveled => leveled(sizes),
            CompactionSpec::LazyLeveled => lazy_leveled(sizes).into_iter().collect(),
        }
    }
}

/// Tiering over at least two runs.
fn tiered(sizes: &[u64], size_ratio: f64, max_components: usize) -> Option<Range<usize>> {
    // Size-ratio rule: the shortest prefix (newest runs) whose cumulative
    // size exceeds ratio × the next older run.
    let mut younger_total = 0u64;
    for i in 1..sizes.len() {
        younger_total += sizes[i - 1];
        if younger_total as f64 > size_ratio * sizes[i] as f64 {
            return Some(0..i + 1);
        }
    }
    // Component-count rule.
    (sizes.len() > max_components).then_some(0..sizes.len())
}

/// Leveling over at least two runs.
fn leveled(sizes: &[u64]) -> Vec<Range<usize>> {
    let n = sizes.len();
    let mut jobs = Vec::new();
    // Merge every L0 run plus the adjacent older run (or all runs when
    // everything is still L0-sized).
    let l0 = sizes.iter().take_while(|&&s| s < TARGET_SIZE).count();
    if l0 >= L0_THRESHOLD {
        jobs.push(0..l0.min(n - 1) + 1);
        return jobs;
    }
    // Cascade rule: every grown run that exceeds the ratio × its older
    // neighbour merges into it, newest pair first; a run taken by one pair
    // is not offered to the next.
    let mut i = 0;
    while i + 1 < n {
        if sizes[i] >= TARGET_SIZE && sizes[i] as f64 > LEVEL_RATIO * sizes[i + 1] as f64 {
            jobs.push(i..i + 2);
            i += 2;
        } else {
            i += 1;
        }
    }
    jobs
}

/// Lazy leveling over at least two runs.
fn lazy_leveled(sizes: &[u64]) -> Option<Range<usize>> {
    let n = sizes.len();
    let tier_total: u64 = sizes[..n - 1].iter().sum();
    // Fold the tiers into the level once they are a meaningful fraction of
    // it (and big enough that the rewrite is worth it); otherwise tier-merge
    // the young runs among themselves, leaving the level untouched (the
    // "lazy" part).
    if tier_total as f64 > LEVEL_RATIO * sizes[n - 1] as f64 && tier_total >= TARGET_SIZE {
        Some(0..n)
    } else {
        (n > L0_THRESHOLD).then_some(0..n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1 << 20;

    /// A round as `(start, end)` pairs.
    fn jobs(spec: CompactionSpec, sizes: &[u64]) -> Vec<(usize, usize)> {
        spec.merge_jobs(sizes)
            .into_iter()
            .map(|job| (job.start, job.end))
            .collect()
    }

    #[test]
    fn no_merge_for_single_component() {
        for spec in [
            CompactionSpec::default(),
            CompactionSpec::Leveled,
            CompactionSpec::LazyLeveled,
        ] {
            assert!(jobs(spec, &[]).is_empty());
            assert!(jobs(spec, &[100 * MIB]).is_empty());
        }
    }

    #[test]
    fn size_ratio_triggers_merge_of_prefix() {
        let p = CompactionSpec::tiered(1.2, 10);
        // Newest 100 vs older 50: 100 > 1.2 * 50 -> merge the two.
        assert_eq!(jobs(p, &[100, 50]), [(0, 2)]);
        // Balanced tier: 10 vs 100 then 110 vs 1000 — no merge.
        assert!(jobs(p, &[10, 100, 1000]).is_empty());
        // Cumulative young size eventually exceeds an older component.
        assert_eq!(jobs(p, &[60, 60, 90, 1000]), [(0, 3)]);
    }

    #[test]
    fn component_count_forces_merge() {
        let p = CompactionSpec::tiered(100.0, 3);
        assert!(jobs(p, &[1, 10, 100]).is_empty());
        assert_eq!(jobs(p, &[1, 10, 100, 1000]), [(0, 4)]);
    }

    #[test]
    fn leveled_l0_threshold_merges_fresh_runs_into_next_level() {
        let p = CompactionSpec::Leveled;
        let (l0, big) = (MIB, 1000 * MIB);
        // Three small runs: below threshold, and the big run is in balance.
        assert!(jobs(p, &[l0, l0, l0, big]).is_empty());
        // Four small runs merge together with the adjacent older run.
        assert_eq!(jobs(p, &[l0, l0, l0, l0, big]), [(0, 5)]);
        // All runs still L0-sized: merge everything.
        assert_eq!(jobs(p, &[l0, l0, l0, l0]), [(0, 4)]);
    }

    #[test]
    fn leveled_cascade_merges_oversized_level_into_neighbour() {
        let p = CompactionSpec::Leveled;
        // 600 > 0.5 × 1000: the grown run folds into its older neighbour.
        assert_eq!(jobs(p, &[600 * MIB, 1000 * MIB]), [(0, 2)]);
        // 400 ≤ 0.5 × 1000: in balance.
        assert!(jobs(p, &[400 * MIB, 1000 * MIB]).is_empty());
        // The pair must be adjacent (contiguous) even with runs before it.
        assert_eq!(jobs(p, &[MIB, 600 * MIB, 1000 * MIB]), [(1, 3)]);
    }

    #[test]
    fn leveled_merge_jobs_emit_disjoint_cascades() {
        let p = CompactionSpec::Leveled;
        // Two independent oversized pairs: 0..2 and 2..4.
        assert_eq!(
            jobs(p, &[600 * MIB, 1000 * MIB, 6000 * MIB, 10_000 * MIB]),
            [(0, 2), (2, 4)]
        );
        // Overlap is not allowed: after taking 0..2, run 1 is consumed.
        assert_eq!(jobs(p, &[900 * MIB, 1000 * MIB, 10_000 * MIB]), [(0, 2)]);
    }

    #[test]
    fn lazy_leveled_tiers_young_runs_then_folds_into_level() {
        let p = CompactionSpec::LazyLeveled;
        let level = 1000 * MIB;
        // Three tiers over a big level: below both triggers.
        assert!(jobs(p, &[MIB, MIB, MIB, level]).is_empty());
        // Four tiers: tier-only merge, the level is untouched.
        assert_eq!(jobs(p, &[MIB, MIB, MIB, MIB, level]), [(0, 4)]);
        // Tier total crosses ratio × level (and the target): fold it all.
        assert_eq!(jobs(p, &[300 * MIB, 300 * MIB, level]), [(0, 3)]);
        // Past the ratio but under the target: no fold.
        assert!(jobs(p, &[MIB, MIB]).is_empty());
    }
}
