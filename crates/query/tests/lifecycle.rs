//! The lifecycle differential: the one test that runs generated queries
//! through every execution path. Generated histories of inserts, upserts,
//! deletes, flushes, merges, reclaims, held snapshots, queries, point reads
//! and crash-reopens run on every target of `testkit::exec::matrix` (VB,
//! APAX and AMAX at one and four shards, an indexed AMAX, a durable AMAX),
//! checked against a model — a `BTreeMap` of the live documents, whose query
//! answers are the batch oracle's over an unflushed VB dataset holding them:
//!
//! * every query agrees, on every engine and lane with filter pushdown on
//!   and off and over a rotation of the other planner options
//!   ([`every_execution_agrees`]), bit for bit with the batch oracle on the
//!   target's own snapshot — live, or held since the model was frozen —
//!   and with the model's answer, on every layout: the documents are drawn
//!   from the whole JSON domain (`null`s, empty containers, arrays of
//!   arrays, mixed items), and every layout stores them exactly;
//! * a point read returns the model's document (fields in any order), and a
//!   crash-reopen leaves the model unchanged.
//!
//! A failing history is shrunk to a 1-minimal op list and printed as a
//! `#[test]` to paste below. The planner, pushdown, streaming and kernel
//! suites beside this file pin only what a differential cannot see: pages
//! read, records assembled, plans chosen and their rendering.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use docmodel::{Path, Value};
use lsm::{DatasetConfig, LsmDataset, Snapshot};
use proptest::prelude::*;
use query::{oracle, Query, QueryRow};
use storage::LayoutKind;
use testkit::exec::{bits, compaction, coverage, every_execution_agrees, matrix, project, Target};
use testkit::gen::{document, query, regression, Histories, Op, Setup, Shape, PROJECTIONS};
use testkit::{minimise::minimise, sort_fields, TempDir};

/// Unoptimized builds run fewer histories so the tier-1 `cargo test` stays
/// fast; CI runs the full count in `--release`.
#[cfg(debug_assertions)]
const CASES: usize = 4;
#[cfg(not(debug_assertions))]
const CASES: usize = 64;

type Model = BTreeMap<i64, Value>;

#[test]
fn every_target_matches_the_model_over_generated_histories() {
    let mut rng = TestRng::from_seed(proptest::test_runner::seed_for("lifecycle"));
    let mut ran = [0; 4];
    for _ in 0..CASES {
        let (setup, ops) = Histories(40..120).generate(&mut rng);
        let replayed = catch_unwind(AssertUnwindSafe(|| replay(&setup, &ops)));
        let counts = replayed.unwrap_or_else(|panic| {
            std::panic::set_hook(Box::new(|_| {}));
            let fails =
                |ops: &[Op]| catch_unwind(AssertUnwindSafe(|| replay(&setup, ops))).is_err();
            let minimal = minimise(ops, fails);
            let _ = std::panic::take_hook();
            eprintln!(
                "a minimal failing history:\n\n{}",
                regression(&setup, &minimal)
            );
            std::panic::resume_unwind(panic)
        });
        (0..4).for_each(|i| ran[i] += counts[i]);
    }
    let seen = coverage();
    assert!(
        seen.records_kernel > 0,
        "no columnar query folded records on the kernels"
    );
    assert!(seen.index_probes > 0, "no query probed the secondary index");
    assert!(seen.index_only > 0, "no index probe counted keys alone");
    assert!(seen.leaves_skipped > 0, "no zone map hid a leaf");
    assert!(
        ran.iter().all(|&n| n > 0),
        "merges, reclaims, held-snapshot reads, crashes: {ran:?}"
    );
}

/// Applies `ops` to a fresh target matrix, checking every target against the
/// model as it goes; panics on the first disagreement. Returns how many
/// merges, reclaims, held-snapshot reads and crash-reopens ran.
fn replay(setup: &Setup, ops: &[Op]) -> [usize; 4] {
    // One directory per thread: a minimisation's replays reuse it.
    let dir = TempDir::new("lifecycle", &format!("{:?}", std::thread::current().id()));
    let mut targets = matrix(compaction(setup.compaction), dir);
    let (mut model, mut ran) = (Model::new(), [0; 4]);
    // Each check runs the executions under the next option rotation.
    let mut rotation = 0..;
    // Per held snapshot: the model then, and each target's (until a crash).
    let mut held: Vec<(Model, Vec<Option<Vec<Snapshot>>>)> = Vec::new();
    for op in ops {
        match *op {
            Op::Insert(id, seed, shape) => {
                let doc = document(id, seed, shape, setup);
                targets
                    .iter()
                    .for_each(|t| t.route(id).insert(doc.clone()).unwrap());
                model.insert(id, doc);
            }
            Op::Delete(id) => {
                targets
                    .iter()
                    .for_each(|t| t.route(id).delete(Value::Int(id)).unwrap());
                model.remove(&id);
            }
            Op::Flush | Op::Merge | Op::Reclaim => {
                for ds in targets.iter().flat_map(|t| &t.shards) {
                    match op {
                        Op::Flush => ds.flush().unwrap(),
                        Op::Merge => ds.compact_fully().unwrap(),
                        _ => drop(ds.reclaim_space().unwrap()),
                    }
                }
                ran[0] += usize::from(*op == Op::Merge);
                ran[1] += usize::from(*op == Op::Reclaim);
                counts_match(&targets, &model);
            }
            Op::TakeSnapshot => {
                let snapshots = targets.iter().map(|t| Some(snapshots(t)));
                held.push((model.clone(), snapshots.collect()));
            }
            Op::DropSnapshot => drop((!held.is_empty()).then(|| held.remove(0))),
            Op::Query(seed) => {
                let query = query(seed);
                let want = model_rows(&model, &query);
                for target in &targets {
                    check(target, None, &query, &want, rotation.next().unwrap());
                }
                if let Some((frozen, snapshots)) = held.first() {
                    let want = model_rows(frozen, &query);
                    for (target, snapshots) in targets.iter().zip(snapshots) {
                        if let Some(snapshots) = snapshots {
                            let r = rotation.next().unwrap();
                            check(target, Some(snapshots), &query, &want, r);
                            ran[2] += 1;
                        }
                    }
                }
            }
            Op::Get(id, projection) => {
                let paths = PROJECTIONS[projection];
                let projection: Vec<Path> = paths.iter().map(|p| Path::parse(p)).collect();
                let projection = (!paths.is_empty()).then_some(&projection[..]);
                for target in &targets {
                    let got = target
                        .route(id)
                        .lookup(&Value::Int(id), projection)
                        .unwrap();
                    let got = got.map(|doc| sort_fields(&project(&doc, paths)));
                    let want = model.get(&id).map(|doc| sort_fields(&project(doc, paths)));
                    assert_eq!(got, want, "{}: get({id}, {paths:?})", target.name);
                }
            }
            Op::CrashReopen(point) => {
                for (i, target) in targets
                    .iter_mut()
                    .enumerate()
                    .filter(|(_, t)| t.durable.is_some())
                {
                    held.iter_mut()
                        .for_each(|(_, snapshots)| snapshots[i] = None);
                    target.crash_reopen(point);
                }
                ran[3] += 1;
                counts_match(&targets, &model);
            }
        }
    }
    ran
}

fn snapshots(target: &Target) -> Vec<Snapshot> {
    target.shards.iter().map(LsmDataset::snapshot).collect()
}

/// `query` on `target` — on its live datasets, or on its `held` snapshots —
/// agrees, in every execution of option rotation `rotation`, with the batch
/// oracle on the snapshot and with the model's `want`.
fn check(
    target: &Target,
    held: Option<&[Snapshot]>,
    query: &Query,
    want: &[QueryRow],
    rotation: usize,
) {
    let live = snapshots(target);
    if let [one] = held.unwrap_or(&live) {
        let oracle =
            oracle::execute_batch(one, query).unwrap_or_else(|e| panic!("{}: {e}", target.name));
        assert_eq!(
            bits(&oracle),
            bits(want),
            "{}: the oracle disagrees with the model on {query:?}",
            target.name
        );
    }
    match held {
        Some(snapshots) => every_execution_agrees(snapshots, query, Some(want), rotation),
        None => every_execution_agrees(&target.shards[..], query, Some(want), rotation),
    };
}

/// The batch oracle's answer over an unflushed VB dataset holding `model`.
fn model_rows(model: &Model, query: &Query) -> Vec<QueryRow> {
    let ds = LsmDataset::new(
        DatasetConfig::new("model", LayoutKind::Vb).with_memtable_budget(usize::MAX),
    );
    model
        .values()
        .for_each(|doc| ds.insert(doc.clone()).unwrap());
    oracle::execute_batch(&ds.snapshot(), query).unwrap()
}

fn counts_match(targets: &[Target], model: &Model) {
    for target in targets {
        let count: usize = target.shards.iter().map(|ds| ds.count().unwrap()).sum();
        assert_eq!(count, model.len(), "{}: live records", target.name);
    }
}

// Printed by the minimiser: a flush of deletes alone gave a columnar leaf no
// key column, and a reclaim moved pages a held snapshot still read. The third
// kills the register's `planner-pushed-gt-reads-as-ge` (a pushed `>` on a
// decoded column accepting its bound), which the debug run's few histories
// miss.

#[test]
fn a_flush_of_deletes_alone() {
    let setup = Setup {
        grp_strings: true,
        compaction: 2,
    };
    replay(&setup, &[Op::Delete(2), Op::Flush]);
}

#[test]
fn a_snapshot_held_across_a_merge_and_two_reclaims() {
    let setup = Setup {
        grp_strings: true,
        compaction: 1,
    };
    let docs = [
        (15, 0x6080e5),
        (35, 0x44d268),
        (39, 0xb21477),
        (24, 0x255b35),
        (18, 0xf177d4),
        (23, 0xafe962),
        (9, 0x8dbdb4),
        (31, 0x7a1122),
        (26, 0xde4923),
        (32, 0x4ae6ad),
        (1, 0x39e830),
        (38, 0x625c4e),
        (22, 0xeeed2b),
        (20, 0xada808),
        (27, 0xccf065),
        (5, 0xe46544),
        (19, 0x823252),
    ];
    let mut ops: Vec<Op> = docs
        .iter()
        .map(|&(id, seed)| Op::Insert(id, seed, Shape::Clean))
        .collect();
    ops.insert(2, Op::TakeSnapshot);
    ops.insert(15, Op::Flush);
    ops.extend([
        Op::TakeSnapshot,
        Op::Merge,
        Op::TakeSnapshot,
        Op::DropSnapshot,
        Op::Reclaim,
        Op::DropSnapshot,
        Op::Reclaim,
        Op::Query(6542167),
    ]);
    replay(&setup, &ops);
}

#[test]
fn a_pushed_gt_at_a_stored_score() {
    let setup = Setup {
        grp_strings: true,
        compaction: 2,
    };
    replay(
        &setup,
        &[
            Op::Insert(39, 11833040, Shape::Clean), // {"id":39,"name":"n0","score":67}
            Op::Insert(34, 4265669, Shape::Clean),  // {"id":34,"name":"n0","score":69}
            Op::Flush,
            Op::Query(11433158),
        ],
    );
}
