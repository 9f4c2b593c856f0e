//! The target matrix and the one execution differential.

use std::cell::Cell;

use docmodel::{Path, Value};
use lsm::{CompactionSpec, CrashPoint, DatasetConfig, LsmDataset};
use query::AccessPathChoice::{Auto, ForceIndex, ForceScan};
use query::ExecMode::{Compiled, Interpreted};
use query::{PlannerOptions, Query, QueryEngine, QueryRow, QueryTarget, ScanLane};
use storage::LayoutKind;

use crate::{leafy_config, sort_fields, TempDir};

/// How many compaction strategies [`compaction`] tells apart.
pub const COMPACTIONS: usize = 4;

/// Never merge (winners stay spread over every component), the default
/// tiering, leveled, lazy-leveled.
pub fn compaction(i: usize) -> CompactionSpec {
    let never = CompactionSpec::tiered(f64::INFINITY, 64);
    let specs = [never, CompactionSpec::default(), CompactionSpec::Leveled];
    specs
        .into_iter()
        .nth(i)
        .unwrap_or(CompactionSpec::LazyLeveled)
}

/// One layout at one shard count (routed by id): the datasets a history
/// writes to, and where a durable one lives.
pub struct Target {
    pub name: String,
    pub layout: LayoutKind,
    pub shards: Vec<LsmDataset>,
    pub durable: Option<(TempDir, DatasetConfig)>,
}

/// VB, APAX and AMAX at one and four shards, AMAX with a secondary index on
/// `score`, and AMAX durable in `dir` with the same index (a crash-reopen
/// rebuilds it). Flushes happen only when asked; 2 KiB pages and 16-record
/// AMAX leaves make many leaves.
pub fn matrix(compaction: CompactionSpec, dir: TempDir) -> Vec<Target> {
    let config = |layout| leafy_config("testkit", layout, 2 * 1024, 16).with_compaction(compaction);
    let target = |name: &str, layout, shards: Vec<DatasetConfig>| Target {
        name: name.to_string(),
        layout,
        shards: shards.into_iter().map(LsmDataset::new).collect(),
        durable: None,
    };
    let mut targets = Vec::new();
    for layout in [LayoutKind::Vb, LayoutKind::Apax, LayoutKind::Amax] {
        for n in [1, 4] {
            targets.push(target(
                &format!("{}x{n}", layout.name()),
                layout,
                vec![config(layout); n],
            ));
        }
    }
    let index = config(LayoutKind::Amax).with_secondary_index(Path::parse("score"));
    targets.push(target("AMAX+index", LayoutKind::Amax, vec![index.clone()]));
    let mut durable = target("AMAX durable", LayoutKind::Amax, Vec::new());
    durable
        .shards
        .push(LsmDataset::open(&dir, index.clone()).unwrap());
    durable.durable = Some((dir, index));
    targets.push(durable);
    targets
}

impl Target {
    /// The shard that owns `id`.
    pub fn route(&self, id: i64) -> &LsmDataset {
        &self.shards[id.rem_euclid(self.shards.len() as i64) as usize]
    }

    /// Arm `point` (if any), run the flush or merge it interrupts, drop the
    /// dataset and reopen its directory. No-op unless durable.
    pub fn crash_reopen(&mut self, point: Option<CrashPoint>) {
        let Some((dir, config)) = &self.durable else {
            return;
        };
        let ds = self.shards.pop().unwrap();
        if let Some(point) = point {
            ds.set_crash_point(point);
            let interrupted = match point {
                CrashPoint::BeforeMergeManifestCommit => ds.compact_fully(),
                _ => ds.flush(),
            };
            // With nothing to flush or merge the point is never reached.
            if let Err(err) = interrupted {
                assert!(err.message.contains("injected crash"), "{err}");
            }
        }
        drop(ds);
        self.shards
            .push(LsmDataset::open(dir, config.clone()).unwrap());
    }
}

/// Rows compared bit for bit, up to the order of an object's fields (the
/// columnar layouts return them in schema order): `Value`'s `==` is IEEE
/// `==` on doubles, under which a NaN group differs from itself and `-0.0`
/// equals `0.0`; the debug spelling tells every double apart, and `7` from
/// `7.0`.
pub fn bits(rows: &[QueryRow]) -> String {
    let rows: Vec<QueryRow> = rows
        .iter()
        .map(|row| QueryRow {
            group: row.group.as_ref().map(sort_fields),
            aggs: row.aggs.iter().map(sort_fields).collect(),
        })
        .collect();
    format!("{rows:?}")
}

/// What the executions saw, so a run can show it did not pass vacuously.
#[derive(Debug, Default, Clone, Copy)]
pub struct Coverage {
    pub records_kernel: u64,
    pub index_probes: u64,
    /// Index probes that counted keys and looked up no record.
    pub index_only: u64,
    pub leaves_skipped: u64,
}

thread_local! {
    static COVERAGE: Cell<Coverage> = Cell::default();
}

/// What this thread's executions saw since the last call.
pub fn coverage() -> Coverage {
    COVERAGE.take()
}

/// How many option rotations [`every_execution_agrees`] tells apart:
/// projection pushdown on and off × the three access-path choices.
pub const ROTATIONS: usize = 6;

/// The executions of `query` on `target` return `expected` bit for bit
/// (without one, the same rows); returns the rows.
///
/// The executions are the compiled engine on its column kernels or forced
/// onto the assembled lane, and the interpreted engine, each with filter
/// pushdown on and off, under the projection-pushdown × access-path
/// combination `rotation % ROTATIONS`. Rotation 0 is the default planner
/// options; any [`ROTATIONS`] consecutive rotations run every combination.
/// In every second block of [`ROTATIONS`] the kernel lane with filter
/// pushdown runs as `EXPLAIN ANALYZE`, whose counters go to [`coverage`].
pub fn every_execution_agrees<'a, T>(
    target: T,
    query: &Query,
    expected: Option<&[QueryRow]>,
    rotation: usize,
) -> Vec<QueryRow>
where
    T: Copy + Into<QueryTarget<'a>>,
{
    let o = rotation % ROTATIONS;
    let analyze = rotation / ROTATIONS % 2 == 1;
    let lanes = [
        (Compiled, ScanLane::Kernels),
        (Compiled, ScanLane::Assembled),
        (Interpreted, ScanLane::Kernels),
    ];
    let mut first: Option<Vec<QueryRow>> = expected.map(<[QueryRow]>::to_vec);
    for (mode, lane) in lanes {
        for filter_pushdown in [true, false] {
            let mut options =
                PlannerOptions::with_access_path([Auto, ForceIndex, ForceScan][o % 3]);
            (options.filter_pushdown, options.projection_pushdown) = (filter_pushdown, o < 3);
            let engine = QueryEngine::with_options(mode, options);
            let what = |e: &dyn std::fmt::Display| {
                format!("{mode:?}/{lane:?} {options:?} on {query:?}: {e}")
            };
            let rows =
                if analyze && mode == Compiled && lane == ScanLane::Kernels && filter_pushdown {
                    let report = engine
                        .explain_analyze(target, query)
                        .unwrap_or_else(|e| panic!("{}", what(&e)));
                    let mut seen = COVERAGE.get();
                    seen.records_kernel += report.records_kernel();
                    seen.leaves_skipped += report.leaves_skipped();
                    seen.index_probes += u64::from(report.plan.contains("index range probe"));
                    seen.index_only += u64::from(report.plan.contains("index-only"));
                    COVERAGE.set(seen);
                    report.rows
                } else {
                    let rows = engine.execute_in_lane(target, query, lane);
                    rows.unwrap_or_else(|e| panic!("{}", what(&e)))
                };
            match &first {
                Some(want) => assert_eq!(bits(&rows), bits(want), "{}", what(&"differs")),
                None => first = Some(rows),
            }
        }
    }
    first.unwrap_or_default()
}

/// `doc` cut down to the top-level fields in `paths` (all of it when empty).
pub fn project(doc: &Value, paths: &[&str]) -> Value {
    match doc {
        Value::Object(fields) if !paths.is_empty() => {
            let kept = fields
                .iter()
                .filter(|(name, _)| paths.contains(&name.as_str()));
            Value::Object(kept.cloned().collect())
        }
        _ => doc.clone(),
    }
}
