//! Property tests for the compaction strategies.
//!
//! For arbitrary component-size sequences (newest first) every
//! [`CompactionSpec::merge_jobs`] round must:
//!
//! * hold ranges of at least two components each (a range is contiguous by
//!   construction — that is what the flush/merge pipeline and the manifest
//!   swap assume, components being age-ordered);
//! * hold pairwise **disjoint** jobs, in ascending order;
//! * **converge** under repeated application (merge every range of the
//!   round into one component, ask again): the tree settles within one
//!   merge per initial component — no livelock where a merge output
//!   immediately re-triggers forever.
//!
//! The tiering policy additionally promises newest-first *prefix* merges
//! and the `max_components` cap.

use std::ops::Range;

use lsm::policy::{L0_THRESHOLD, TARGET_SIZE};
use lsm::CompactionSpec;
use proptest::prelude::*;

/// Component sizes reaching past the leveled strategies' target size, so
/// both their L0 and their grown-run rules fire.
fn level_sizes() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..4 * TARGET_SIZE, 0..12)
}

/// Check one round's shape: disjoint, ascending ranges of at least two
/// components, all inside the tree.
fn check_round(sizes: &[u64], jobs: &[Range<usize>]) {
    let mut end = 0;
    for job in jobs {
        assert!(job.len() >= 2, "a merge needs at least two inputs: {job:?}");
        assert!(
            job.start >= end,
            "jobs must be disjoint and ascending: {jobs:?}"
        );
        end = job.end;
    }
    assert!(
        end <= sizes.len(),
        "{jobs:?} outside {} components",
        sizes.len()
    );
}

/// Apply one round to a newest-first size list: each merged range is
/// replaced by a single component holding the sum (exactly what a merge
/// produces, modulo reconciliation shrinking it).
fn apply(sizes: &[u64], jobs: &[Range<usize>]) -> Vec<u64> {
    let mut next = sizes.to_vec();
    for job in jobs.iter().rev() {
        let merged = next[job.clone()].iter().sum();
        next.splice(job.clone(), [merged]);
    }
    next
}

/// Drive a strategy to quiescence round by round, checking every round's
/// shape and that the whole run takes at most one merge per initial
/// component.
fn converge(spec: &CompactionSpec, sizes: Vec<u64>) -> Vec<u64> {
    let mut current = sizes.clone();
    let mut merges = 0usize;
    loop {
        let jobs = spec.merge_jobs(&current);
        if jobs.is_empty() {
            return current;
        }
        check_round(&current, &jobs);
        current = apply(&current, &jobs);
        merges += jobs.len();
        assert!(
            merges <= sizes.len(),
            "convergence must take at most one merge per initial component"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn scheduled_merges_are_newest_first_prefixes(
        sizes in prop::collection::vec(0u64..4_000_000, 0..12),
        ratio in 1.05f64..4.0,
        max in 2usize..8,
    ) {
        let jobs = CompactionSpec::tiered(ratio, max).merge_jobs(&sizes);
        check_round(&sizes, &jobs);
        prop_assert!(jobs.len() <= 1, "tiering schedules one merge at a time");
        if let Some(job) = jobs.first() {
            prop_assert_eq!(job.start, 0, "tiering must pick a newest-first prefix");
        }
    }

    #[test]
    fn component_cap_always_triggers_a_merge(
        sizes in prop::collection::vec(0u64..4_000_000, 0..12),
        max in 2usize..6,
    ) {
        // A huge ratio disables the size rule, isolating the count rule.
        let jobs = CompactionSpec::tiered(1e12, max).merge_jobs(&sizes);
        if sizes.len() > max {
            prop_assert_eq!(jobs.len(), 1, "cap exceeded but no merge");
            prop_assert_eq!(jobs[0].clone(), 0..sizes.len(), "the cap merges everything");
        } else {
            prop_assert!(jobs.is_empty());
        }
    }

    #[test]
    fn repeated_application_converges_without_livelock(
        sizes in prop::collection::vec(0u64..4_000_000, 0..12),
        ratio in 1.05f64..4.0,
        max in 2usize..8,
    ) {
        let spec = CompactionSpec::tiered(ratio, max);
        let settled = converge(&spec, sizes);
        prop_assert!(
            settled.len() <= max,
            "a settled tree respects max_components ({} > {max})",
            settled.len()
        );
    }

    #[test]
    fn flush_then_merge_cycle_stays_bounded(
        flushes in prop::collection::vec(1u64..200_000, 1..40),
        ratio in 1.05f64..2.0,
        max in 2usize..6,
    ) {
        // Simulate the real lifecycle: each flush prepends a new (newest)
        // component, then the policy is applied to quiescence — exactly what
        // the scheduler does after every flush. The tree must never grow
        // beyond max_components + 1 at decision time.
        let spec = CompactionSpec::tiered(ratio, max);
        let mut current: Vec<u64> = Vec::new();
        for flushed in flushes {
            current.insert(0, flushed);
            prop_assert!(current.len() <= max + 1, "tree grew unboundedly");
            current = converge(&spec, current);
        }
    }

    #[test]
    fn leveled_merges_are_contiguous_and_converge(sizes in level_sizes()) {
        converge(&CompactionSpec::Leveled, sizes);
    }

    #[test]
    fn leveled_jobs_are_disjoint_contiguous_ranges(sizes in level_sizes()) {
        let jobs = CompactionSpec::Leveled.merge_jobs(&sizes);
        check_round(&sizes, &jobs);
        // A cascade is a pair; only the L0 rule merges more, and alone.
        if jobs.len() > 1 {
            prop_assert!(jobs.iter().all(|job| job.len() == 2), "{:?}", jobs);
        }
    }

    #[test]
    fn lazy_leveled_merges_are_contiguous_and_converge(sizes in level_sizes()) {
        let spec = CompactionSpec::LazyLeveled;
        prop_assert!(spec.merge_jobs(&sizes).len() <= 1);
        let settled = converge(&spec, sizes);
        // A settled tree has no more runs than the tier threshold (the tier
        // rule would otherwise still fire).
        prop_assert!(
            settled.len() <= L0_THRESHOLD,
            "{} runs settled over threshold {L0_THRESHOLD}",
            settled.len()
        );
    }

    #[test]
    fn lazy_leveled_flush_cycle_stays_bounded(
        flushes in prop::collection::vec(1u64..TARGET_SIZE / 2, 1..40),
    ) {
        // Flushes below the target, so both the tier rule and the fold
        // rule are reachable; the tree must stay bounded by the tier
        // threshold plus the level.
        let spec = CompactionSpec::LazyLeveled;
        let mut current: Vec<u64> = Vec::new();
        for flushed in flushes {
            current.insert(0, flushed);
            prop_assert!(current.len() <= L0_THRESHOLD + 2, "tree grew unboundedly");
            current = converge(&spec, current);
        }
    }
}
