//! The planner's safety net: whatever access path, engine, lane or shard
//! split runs a query, the answer may not change. Generated documents and
//! queries, in one flushed AMAX component, run through every execution
//! ([`every_execution_agrees`]) on one dataset, on the same documents split
//! over four shards, and on a dataset indexed on `score` that the planner
//! may probe instead of scanning. (The lifecycle differential,
//! `lifecycle.rs`, runs the same check over whole histories.)

use docmodel::Path;
use lsm::LsmDataset;
use proptest::prelude::*;
use query::PlanContext;
use storage::LayoutKind;
use testkit::exec::{every_execution_agrees, write};
use testkit::gen::{inserts, query, Op, Setup, Shape};
use testkit::leafy_config;

#[test]
fn all_execution_paths_agree() {
    let mut rng = TestRng::from_seed(proptest::test_runner::seed_for("differential"));
    let config = || leafy_config("differential", LayoutKind::Amax, 8 * 1024, 64);
    for _ in 0..24 {
        let setup = Setup {
            clean: true,
            grp_strings: rng.below(2) == 0,
            compaction: 0,
        };
        let n = rng.usize_inclusive(20, 59) as i64;
        let mut ops = inserts(&mut rng, 0..n, Shape::Clean);
        ops.push(Op::Flush);

        let reference = LsmDataset::new(config());
        let indexed = LsmDataset::new(config().with_secondary_index(Path::parse("score")));
        let shards: Vec<LsmDataset> = (0..4).map(|_| LsmDataset::new(config())).collect();
        let shards: Vec<&LsmDataset> = shards.iter().collect();
        write(&[&reference], &ops, &setup);
        write(&[&indexed], &ops, &setup);
        write(&shards, &ops, &setup);

        for _ in 0..2 {
            let query = query(rng.next_u64());
            let rows = every_execution_agrees(&reference, &query, None, 0);
            // Rotation 3 is the default options with projection pushdown
            // off; rotations 0-2 run every access path on the indexed dataset.
            every_execution_agrees(&reference, &query, Some(&rows), 3);
            every_execution_agrees(&shards[..], &query, Some(&rows), 0);
            for rotation in 0..3 {
                every_execution_agrees(&indexed, &query, Some(&rows), rotation);
            }
            // Planning is total: explain never fails on a valid query.
            let plan = query.explain(&PlanContext::for_dataset(&indexed)).unwrap();
            assert!(plan.contains("access"), "{plan}");
        }
    }
}
