//! Differential property test for the compositional query API.
//!
//! Random documents × random `Expr` filters × random multi-aggregate select
//! lists, executed five ways — interpreted, compiled, with projection
//! pushdown off, sharded over four disjoint partitions, and against an
//! indexed dataset where the planner may route through the secondary index —
//! must all return identical rows. This
//! is the safety net under the planner: whatever access path it picks, the
//! answer may not change. (Its sibling `planner_cost.rs` attacks the same
//! invariant from the access-path side: ForceIndex vs ForceScan vs Auto and
//! zone-map pruning on vs off.)

mod support;

use proptest::prelude::*;

use lsm::LsmDataset;
use query::{ExecMode, PlanContext, PlannerOptions, Query, QueryEngine};

use support::{arb_aggregate, arb_doc_body, arb_expr, build_doc, dataset};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_execution_paths_agree(
        bodies in prop::collection::vec(arb_doc_body(), 20..60),
        filter in arb_expr(),
        aggs in prop::collection::vec(arb_aggregate(), 1..4),
        group in prop_oneof![Just(false), Just(true)],
        limit in prop_oneof![Just(None), (1usize..6).prop_map(Some)],
    ) {
        let reference = dataset("reference", false);
        let indexed = dataset("indexed", true);
        let shards: Vec<LsmDataset> =
            (0..4).map(|i| dataset(&format!("shard-{i}"), false)).collect();
        for (i, body) in bodies.iter().enumerate() {
            let doc = build_doc(i as i64, body);
            reference.insert(doc.clone()).unwrap();
            indexed.insert(doc.clone()).unwrap();
            // Any disjoint partition works for the merge; round-robin is the
            // simplest.
            shards[i % 4].insert(doc).unwrap();
        }
        reference.flush().unwrap();
        indexed.flush().unwrap();
        for shard in &shards {
            shard.flush().unwrap();
        }

        let mut query = Query::select(aggs).with_filter(filter);
        if group {
            query = query.group_by("grp");
        }
        if let Some(k) = limit {
            query = query.top_k(k);
        }

        let compiled = QueryEngine::new(ExecMode::Compiled)
            .execute(&reference, &query)
            .unwrap();
        let interpreted = QueryEngine::new(ExecMode::Interpreted)
            .execute(&reference, &query)
            .unwrap();
        prop_assert_eq!(&compiled, &interpreted, "interpreted vs compiled: {:?}", query);

        // Projection pushdown only narrows what is assembled: with it off
        // (whole records) both engines must give the same rows.
        let unprojected = PlannerOptions { projection_pushdown: false, ..Default::default() };
        for mode in [ExecMode::Compiled, ExecMode::Interpreted] {
            let whole = QueryEngine::with_options(mode, unprojected)
                .execute(&reference, &query)
                .unwrap();
            prop_assert_eq!(&compiled, &whole, "pushdown off ({:?}): {:?}", mode, query);
        }

        let refs: Vec<&LsmDataset> = shards.iter().collect();
        for mode in [ExecMode::Compiled, ExecMode::Interpreted] {
            let sharded = QueryEngine::new(mode).execute(&refs[..], &query).unwrap();
            prop_assert_eq!(&compiled, &sharded, "sharded(4) vs single ({:?}): {:?}", mode, query);
        }

        // The indexed dataset may plan a secondary-index probe (whenever the
        // filter implies a range on `score` and the cost model favours it) —
        // the answer must not change.
        let via_index = QueryEngine::new(ExecMode::Compiled)
            .execute(&indexed, &query)
            .unwrap();
        prop_assert_eq!(&compiled, &via_index, "index-probe vs scan: {:?}", query);

        // Planning is total: explain never fails on a valid query.
        let plan = query.explain(&PlanContext::for_dataset(&indexed)).unwrap();
        prop_assert!(plan.contains("access"), "{}", plan);
    }
}
