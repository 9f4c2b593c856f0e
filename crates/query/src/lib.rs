//! # query — compositional analytical queries over LSM datasets
//!
//! The paper's evaluation runs a family of analytical queries (COUNT(*),
//! filtered counts, grouped aggregates over possibly-unnested arrays, top-k
//! by aggregate) against datasets stored in the four layouts, and §5 shows
//! that the *execution model* matters as much as the layout. This crate
//! reproduces that contrast behind a compositional query API:
//!
//! * [`Query`] — the logical plan: a predicate [`Expr`] tree
//!   (`AND`/`OR`/`NOT` over comparisons, `EXISTS`, `CONTAINS`, `LENGTH`), an
//!   optional `UNNEST`, an optional group key, and **any number of
//!   aggregates** per query ([`Aggregate`], including `SUM`/`AVG` with
//!   mergeable `(sum, count)` partials);
//! * [`physical`] — the planner: validates the logical plan, derives the
//!   pushed-down projection from the expression tree, and makes a
//!   **cost-based** access-path choice — full scan, key-only scan for
//!   `COUNT(*)`, or a secondary-index range probe — by estimating matching
//!   records from each component's column statistics (the fig. 15
//!   scan-vs-probe crossover; [`AccessPathChoice`] forces either path).
//!   Scans additionally push the filter's sargable conjuncts down, and the
//!   scan's zone maps hide whole components and leaves no record of which
//!   can match, without reading a single page. [`Query::explain`] renders
//!   the chosen
//!   [`physical::PhysicalPlan`] including the estimate;
//! * [`QueryEngine`] — the single execution entry point:
//!   [`QueryEngine::execute`] accepts any [`QueryTarget`] (a snapshot, a
//!   dataset, per-shard snapshots, or sharded datasets) and routes the same
//!   physical plan through the right access path, fanning out one thread per
//!   shard and merging per-group partial aggregates exactly.
//!
//! Execution **streams** end to end: the access stage is the LSM snapshot's
//! one scan ([`lsm::Snapshot::batches`] — key-only reconciliation, one
//! decoded leaf per component in memory, never the dataset), so a limited
//! query stops reading as soon as its answer is complete. Besides
//! aggregates, the plan supports **raw-column `SELECT`**
//! ([`Query::select_paths`]): one key-ordered row per matching record, with
//! `ORDER BY key LIMIT k` terminating after the k-th match without
//! scanning the tail. The seed's materialise-then-process model survives
//! only as the differential-testing [`oracle`].
//!
//! Two execution modes run every plan ([`ExecMode`]) — the paper's §5
//! contrast, interpreted per tuple over documents vs generated loops over
//! columns:
//!
//! * [`ExecMode::Interpreted`] — a classic operator pipeline
//!   (scan → filter → unnest → project → group) over the scan's key-ordered
//!   row adapter: every record is assembled into a document, every operator
//!   is a boxed trait object pulling rows through dynamic dispatch,
//!   re-resolving paths per tuple;
//! * [`ExecMode::Compiled`] — the "code generation" mode: the plan is
//!   lowered once per component schema into **column kernels** that fold
//!   aggregate inputs straight off each scan batch's decoded column chunks —
//!   typed values, definition levels for record and array boundaries, one
//!   group probe per record, no document built ([`compiled`]). Shapes the
//!   kernels do not cover (residual filters, unions on a plan path, row
//!   layouts and memtables) assemble the batch's winners and run a fused,
//!   pre-resolved per-record loop instead; `EXPLAIN ANALYZE` says which
//!   lane took how many records and why. Rust closure fusion and
//!   monomorphised loops stand in for the Truffle AST + JIT of the paper,
//!   which a Rust reproduction has no equivalent of; the property being
//!   measured — per-tuple interpretation overhead vs. specialised code — is
//!   the same.
//!
//! Group-by (the pipeline breaker) keeps one table of mergeable partials in
//! both modes, exactly as in the paper where code generation stops at the
//! first pipeline breaker. Projection plans have no pipeline breaker and no
//! interpretation contrast; both modes share one loop over the row adapter.
//!
//! ```
//! use docmodel::{doc, Path};
//! use lsm::{DatasetConfig, LsmDataset};
//! use query::{Aggregate, ExecMode, Expr, Query, QueryEngine};
//! use storage::LayoutKind;
//!
//! let ds = LsmDataset::new(DatasetConfig::new("scores", LayoutKind::Amax));
//! for i in 0..100i64 {
//!     ds.insert(doc!({"id": i, "grp": (format!("g{}", i % 3)), "score": (i % 10)})).unwrap();
//! }
//! ds.flush().unwrap();
//!
//! // SELECT grp, COUNT(*), MAX(score), AVG(score) WHERE score >= 5 GROUP BY grp
//! let q = Query::select([
//!         Aggregate::Count,
//!         Aggregate::Max(Path::parse("score")),
//!         Aggregate::Avg(Path::parse("score")),
//!     ])
//!     .with_filter(Expr::ge("score", 5))
//!     .group_by("grp");
//! let rows = QueryEngine::new(ExecMode::Compiled).execute(&ds, &q).unwrap();
//! assert_eq!(rows.len(), 3);
//! assert_eq!(rows[0].aggs.len(), 3);
//! ```
//!
//! ## Snapshots and sharded execution
//!
//! Both engines execute against [`lsm::Snapshot`]s — consistent
//! point-in-time views that concurrent ingestion, flushes and merges cannot
//! disturb. A sharded target fans the plan out over the partitions (one
//! thread each) and merges the per-shard **partial aggregates** — counts
//! sum, max/min combine, `SUM`/`AVG` carry exact `(sum, count)` partials —
//! before the global order-by/limit is applied. Because shards partition by
//! primary key, every group's partials come from disjoint record sets and
//! the merged result equals a single-dataset run. Index-probe plans fan out
//! the same way: each shard probes its own secondary index and contributes
//! partials.

pub mod analyze;
pub mod compiled;
pub mod expr;
pub mod interp;
pub mod oracle;
pub mod physical;
pub mod plan;
mod sum;

pub use analyze::{AnalyzeReport, ShardAnalysis};
pub use compiled::ScanLane;
pub use expr::{CmpOp, Expr};
pub use physical::{
    AccessEstimate, AccessPath, AccessPathChoice, ComponentPlanInfo, PhysicalPlan, PlanContext,
    PlannerOptions,
};
pub use plan::{AggSpec, Aggregate, ExecMode, Query, QueryRow};

use std::fmt;
use std::ops::Bound;
use std::time::Instant;

use docmodel::Value;
use lsm::{LsmDataset, ScanSpec, Snapshot};
use storage::pagestore::IoStats;
use telemetry::stage::{Stage, StageClock};

use analyze::{CountingIter, ExecProbe};
use compiled::LaneReport;
use physical::{finalize, key_count_partials, merge_partials, GroupPartials};

/// Error type of the query layer: plan validation failures are separated
/// from storage/decode failures, so callers can tell a malformed query from
/// a broken dataset.
#[derive(Debug)]
pub enum Error {
    /// The logical plan failed the planner's validation.
    InvalidPlan(String),
    /// The storage layer failed while reading (page decode, I/O, missing
    /// index).
    Storage(encoding::DecodeError),
}

impl Error {
    /// A plan-validation error.
    pub fn invalid_plan(msg: impl Into<String>) -> Error {
        Error::InvalidPlan(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidPlan(msg) => write!(f, "invalid query plan: {msg}"),
            Error::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::InvalidPlan(_) => None,
            Error::Storage(e) => Some(e),
        }
    }
}

impl From<encoding::DecodeError> for Error {
    fn from(e: encoding::DecodeError) -> Error {
        Error::Storage(e)
    }
}

/// Result alias of the query layer.
pub type Result<T> = std::result::Result<T, Error>;

/// What a query executes against: one consistent snapshot, one dataset
/// (enabling index probes), or the partitions of a sharded dataset.
///
/// Constructed implicitly via `From` — pass `&snapshot`, `&dataset`,
/// `&snapshots[..]` or `&shards[..]` straight to [`QueryEngine::execute`].
pub enum QueryTarget<'a> {
    /// A single consistent snapshot. Index probes are unavailable (a
    /// snapshot carries no secondary index), so plans fall back to scans.
    Snapshot(&'a Snapshot),
    /// A single dataset: snapshots are taken as needed and the dataset's
    /// secondary index is available to the planner.
    Dataset(&'a LsmDataset),
    /// Per-shard snapshots of a hash-partitioned dataset (scan-only).
    Snapshots(&'a [Snapshot]),
    /// The partitions of a hash-partitioned dataset; every access path,
    /// including index probes, fans out with partial-aggregate merging.
    Shards(&'a [&'a LsmDataset]),
}

impl<'a> From<&'a Snapshot> for QueryTarget<'a> {
    fn from(s: &'a Snapshot) -> Self {
        QueryTarget::Snapshot(s)
    }
}
impl<'a> From<&'a LsmDataset> for QueryTarget<'a> {
    fn from(d: &'a LsmDataset) -> Self {
        QueryTarget::Dataset(d)
    }
}
impl<'a> From<&'a [Snapshot]> for QueryTarget<'a> {
    fn from(s: &'a [Snapshot]) -> Self {
        QueryTarget::Snapshots(s)
    }
}
impl<'a> From<&'a [&'a LsmDataset]> for QueryTarget<'a> {
    fn from(s: &'a [&'a LsmDataset]) -> Self {
        QueryTarget::Shards(s)
    }
}

impl<'a> QueryTarget<'a> {
    fn plan_context(&self) -> PlanContext {
        match self {
            QueryTarget::Snapshot(s) => PlanContext::for_snapshot(s),
            QueryTarget::Snapshots(s) => PlanContext::for_snapshots(s),
            QueryTarget::Dataset(d) => PlanContext::for_dataset(d),
            QueryTarget::Shards(shards) => PlanContext::for_shards(shards),
        }
    }

    /// The partitions a plan runs over, in target order.
    fn partitions(&self) -> Vec<Partition<'a>> {
        match *self {
            QueryTarget::Snapshot(s) => vec![Partition::Snapshot(s)],
            QueryTarget::Dataset(d) => vec![Partition::Dataset(d)],
            QueryTarget::Snapshots(s) => s.iter().map(Partition::Snapshot).collect(),
            QueryTarget::Shards(s) => s.iter().map(|d| Partition::Dataset(d)).collect(),
        }
    }
}

/// One partition of a [`QueryTarget`]: a snapshot, or a dataset (which can
/// also serve index probes).
#[derive(Clone, Copy)]
enum Partition<'a> {
    Snapshot(&'a Snapshot),
    Dataset(&'a LsmDataset),
}

impl Partition<'_> {
    /// The I/O counters of the store the partition reads from; `None` for a
    /// snapshot without an on-disk component (it does no page I/O).
    fn io_stats(self) -> Option<IoStats> {
        match self {
            Partition::Snapshot(snapshot) => snapshot
                .components()
                .first()
                .map(|c| c.cache().store().stats()),
            Partition::Dataset(dataset) => Some(dataset.io_stats()),
        }
    }
}

/// The execution entry point: plans a [`Query`] for its target and runs the
/// physical plan in the configured [`ExecMode`], routing between full scans,
/// key-only scans, secondary-index range probes and sharded fan-out.
#[derive(Debug, Clone, Copy)]
pub struct QueryEngine {
    mode: ExecMode,
    options: PlannerOptions,
}

impl QueryEngine {
    /// An engine with default planner options (all optimisations on).
    pub fn new(mode: ExecMode) -> QueryEngine {
        QueryEngine::with_options(mode, PlannerOptions::default())
    }

    /// An engine with explicit planner options (the benchmarks flip
    /// projection pushdown and index routing off to measure them).
    pub fn with_options(mode: ExecMode, options: PlannerOptions) -> QueryEngine {
        QueryEngine { mode, options }
    }

    /// The configured execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Plan and execute a query against any [`QueryTarget`].
    pub fn execute<'a>(
        &self,
        target: impl Into<QueryTarget<'a>>,
        query: &Query,
    ) -> Result<Vec<QueryRow>> {
        self.run(target.into(), query, ScanLane::Kernels)
    }

    /// [`QueryEngine::execute`] with the compiled engine's scan lane named
    /// explicitly. [`ScanLane::Assembled`] is the reference lane of the
    /// differential tests and the `vectorized` experiment; the answer is the
    /// same in either lane. Not part of the query API.
    #[doc(hidden)]
    pub fn execute_in_lane<'a>(
        &self,
        target: impl Into<QueryTarget<'a>>,
        query: &Query,
        lane: ScanLane,
    ) -> Result<Vec<QueryRow>> {
        self.run(target.into(), query, lane)
    }

    fn run(&self, target: QueryTarget<'_>, query: &Query, lane: ScanLane) -> Result<Vec<QueryRow>> {
        let plan = physical::plan(query, &target.plan_context(), &self.options)?;
        // An empty shard list has no partitions to aggregate over — return
        // no rows rather than a default global aggregate.
        let parts = target.partitions();
        if parts.is_empty() {
            return Ok(Vec::new());
        }
        let output = self.fan_out(&parts, &plan, lane)?;
        Ok(match output {
            ExecOutput::Groups(partials) => finalize(partials, &plan),
            ExecOutput::Rows(rows) => rows,
        })
    }

    /// Plan a query for the target and render the physical plan (`EXPLAIN`):
    /// the chosen access path, the pushed-down projection, and the operator
    /// chain.
    pub fn explain<'a>(
        &self,
        target: impl Into<QueryTarget<'a>>,
        query: &Query,
    ) -> Result<String> {
        let target = target.into();
        physical::plan(query, &target.plan_context(), &self.options).map(|p| p.describe())
    }

    /// Plan the query, *execute it for real*, and return the plan annotated
    /// with actual execution counters (`EXPLAIN ANALYZE`): reconciliation
    /// winners handed to the operators, pages read (I/O-stats deltas), per
    /// partition which lane took them — column kernels or assembly — and why
    /// batches fell back, how many leaves the zone maps hid, the
    /// early-termination point of limited queries, and wall time — plus
    /// the query's result rows, so analyzing never costs a second execution.
    ///
    /// Partitions run sequentially (not thread-per-shard) so each shard's
    /// I/O delta is exact even when shards share one page store; the merged
    /// result rows equal [`QueryEngine::execute`]'s.
    pub fn explain_analyze<'a>(
        &self,
        target: impl Into<QueryTarget<'a>>,
        query: &Query,
    ) -> Result<AnalyzeReport> {
        let target = target.into();
        let plan = physical::plan(query, &target.plan_context(), &self.options)?;
        let plan_text = plan.describe();
        let started = Instant::now();
        let mut analyses: Vec<ShardAnalysis> = Vec::new();
        let mut outputs: Vec<ExecOutput> = Vec::new();
        for part in target.partitions() {
            let probe = ExecProbe::new();
            let before = part.io_stats();
            let clock = StageClock::start();
            let output = self.output(part, &plan, ScanLane::Kernels, Some(&probe))?;
            let stages = clock.stop();
            let rows_out = match &output {
                ExecOutput::Rows(rows) => rows.len(),
                ExecOutput::Groups(groups) => groups.len(),
            };
            analyses.push(probe.finish(before.zip(part.io_stats()), stages, rows_out));
            outputs.push(output);
        }
        // An empty shard list has no partitions — no rows, like execute().
        let rows = if outputs.is_empty() {
            Vec::new()
        } else {
            match merge_exec_outputs(outputs, &plan) {
                ExecOutput::Groups(partials) => finalize(partials, &plan),
                ExecOutput::Rows(rows) => rows,
            }
        };
        Ok(AnalyzeReport {
            plan: plan_text,
            rows,
            shards: analyses,
            wall: started.elapsed(),
        })
    }

    /// Fan a plan out over several partitions, one thread each, and merge
    /// the per-partition outputs: group partials merge group-wise, and
    /// projection plans k-way-merge the per-shard key-ordered row streams
    /// (each already capped at the plan's limit) instead of concatenating
    /// batches.
    fn fan_out(
        &self,
        parts: &[Partition<'_>],
        plan: &PhysicalPlan,
        lane: ScanLane,
    ) -> Result<ExecOutput> {
        if let [part] = parts {
            return self.output(*part, plan, lane, None);
        }
        let results: Vec<Result<ExecOutput>> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .iter()
                .map(|&part| scope.spawn(move || self.output(part, plan, lane, None)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sharded query thread panicked"))
                .collect()
        });
        let outputs: Vec<ExecOutput> = results.into_iter().collect::<Result<_>>()?;
        Ok(merge_exec_outputs(outputs, plan))
    }

    /// Execute the plan's access path against one partition in the
    /// configured mode: an index probe against a dataset, a scan over a
    /// snapshot's batches or its row adapter. When a `probe` is supplied
    /// (EXPLAIN ANALYZE) the record stream is wrapped to count actual pulls.
    fn output(
        &self,
        part: Partition<'_>,
        plan: &PhysicalPlan,
        lane: ScanLane,
        probe: Option<&ExecProbe>,
    ) -> Result<ExecOutput> {
        let snapshot = match (part, &plan.access) {
            (Partition::Dataset(dataset), AccessPath::IndexRange { lo, hi, .. }) => {
                // The probe's sorted batched lookups yield key-ordered
                // (key, record) pairs — only the estimated matches are ever
                // materialised, never the component.
                let entries = dataset.secondary_range_entries(
                    as_bound_ref(lo),
                    as_bound_ref(hi),
                    plan.projection.as_deref(),
                )?;
                let stream =
                    CountingIter::new(entries.into_iter().map(Ok), probe.map(|p| p.pull.clone()));
                return if plan.is_projection() {
                    self.select_rows(stream, plan)
                } else {
                    self.aggregate(stream.map(|e| e.map(|(_, doc)| doc)), plan)
                };
            }
            (Partition::Snapshot(_), AccessPath::IndexRange { .. }) => {
                return Err(Error::invalid_plan(
                    "an index-probe plan needs a dataset target, not a bare snapshot",
                ))
            }
            (Partition::Dataset(dataset), _) => dataset.snapshot(),
            (Partition::Snapshot(snapshot), _) => snapshot.clone(),
        };
        if matches!(plan.access, AccessPath::KeyOnlyScan) {
            // A key-only count reads key columns from every component but
            // never materialises a record: its cost is all in the page
            // counters.
            if let Some(probe) = probe {
                probe.mark_exhausted();
            }
            // Key-only batches: selection lengths are all it needs.
            let keys_only = ScanSpec { projection: Some(&[]), ..ScanSpec::default() };
            let count = snapshot.batches(keys_only).record_count()?;
            return Ok(ExecOutput::Groups(key_count_partials(count, plan)));
        }
        // Late materialization: sargable conjuncts travel into the scan,
        // which evaluates them as loops over the filter columns of each
        // key's reconciliation winner (and lets the zone maps hide whole
        // components and leaves) before anything is assembled. The engines
        // above evaluate only `plan.residual`.
        let batched = self.mode == ExecMode::Compiled && !plan.is_projection();
        let projection = if batched {
            compiled::scan_projection(plan, lane)
        } else {
            plan.projection.clone()
        };
        let scan = snapshot.batches(ScanSpec {
            projection: projection.as_deref(),
            pushed: &plan.pushed,
        });
        if batched {
            // Fused loops over the columns of each batch.
            let mut lanes = LaneReport::default();
            let partials = compiled::aggregate_batches(scan, plan, lane, &mut lanes)?;
            if let Some(probe) = probe {
                probe.note_lanes(lanes);
            }
            return Ok(ExecOutput::Groups(partials));
        }
        // Per tuple, in key order, over the row adapter: projection plans
        // (so `ORDER BY key LIMIT k` stops early) and the interpreted
        // engine.
        let _stage = Stage::Assemble.enter();
        let rows = scan.rows().map(|e| e.map_err(Error::from));
        let rows = CountingIter::new(rows, probe.map(|p| p.pull.clone()));
        if plan.is_projection() {
            self.select_rows(rows, plan)
        } else {
            let partials = interp::run_stream(rows.map(|e| e.map(|(_, doc)| doc)), plan)?;
            Ok(ExecOutput::Groups(partials))
        }
    }

    /// The mode-specific aggregation of a stream of documents (index-probe
    /// plans): the fused single-pass loop or the boxed operator pipeline,
    /// both pulling one record at a time.
    fn aggregate(
        &self,
        docs: impl Iterator<Item = Result<Value>>,
        plan: &PhysicalPlan,
    ) -> Result<ExecOutput> {
        let partials = match self.mode {
            ExecMode::Compiled => compiled::aggregate_stream(docs, plan)?,
            ExecMode::Interpreted => interp::run_stream(docs, plan)?,
        };
        Ok(ExecOutput::Groups(partials))
    }

    /// The streaming projection: key-ordered rows out, the input stream
    /// dropped at the plan's limit (`ORDER BY key LIMIT k` never reads the
    /// tail). Projection plans have no pipeline breaker and no per-tuple
    /// interpretation contrast — filter evaluation and path projection are
    /// identical either way — so both modes share this loop.
    fn select_rows(
        &self,
        entries: impl Iterator<Item = Result<(Value, Value)>>,
        plan: &PhysicalPlan,
    ) -> Result<ExecOutput> {
        let paths = plan
            .select_paths
            .as_deref()
            .expect("select_rows requires a projection plan");
        let limit = plan.limit.unwrap_or(usize::MAX);
        let mut rows = Vec::new();
        if limit == 0 {
            return Ok(ExecOutput::Rows(rows));
        }
        for entry in entries {
            let (key, doc) = entry?;
            // Only the residual runs here: the sargable conjuncts were
            // pushed into the scan (or folded into `residual` when
            // pushdown is disabled / the access path is not a full scan).
            if let Some(f) = &plan.residual {
                if !f.matches(&doc) {
                    continue;
                }
            }
            let values: Vec<Value> = paths
                .iter()
                .map(|p| {
                    p.evaluate(&doc)
                        .first()
                        .map(|v| (*v).clone())
                        .unwrap_or(Value::Null)
                })
                .collect();
            rows.push(QueryRow { group: Some(key), aggs: values });
            // Check *after* pushing so the k-th match is the last entry
            // ever pulled — pulling once more could decode the next leaf.
            if rows.len() >= limit {
                break;
            }
        }
        Ok(ExecOutput::Rows(rows))
    }
}

/// What one partition's execution produces: mergeable group partials
/// (aggregate plans) or key-ordered output rows (projection plans).
enum ExecOutput {
    Groups(GroupPartials),
    Rows(Vec<QueryRow>),
}

/// Merge per-partition execution outputs exactly as the sharded fan-out
/// does: group partials merge group-wise, projection plans k-way-merge
/// their key-ordered row streams under the plan's limit.
fn merge_exec_outputs(outputs: Vec<ExecOutput>, plan: &PhysicalPlan) -> ExecOutput {
    if outputs.len() == 1 {
        return outputs.into_iter().next().expect("one output");
    }
    if plan.is_projection() {
        let streams = outputs
            .into_iter()
            .map(|output| match output {
                ExecOutput::Rows(rows) => rows,
                ExecOutput::Groups(_) => unreachable!("projection plans emit rows"),
            })
            .collect();
        ExecOutput::Rows(merge_row_streams(streams, plan.limit))
    } else {
        let mut merged = GroupPartials::new();
        for output in outputs {
            match output {
                ExecOutput::Groups(partials) => merge_partials(&mut merged, partials),
                ExecOutput::Rows(_) => unreachable!("aggregate plans emit partials"),
            }
        }
        ExecOutput::Groups(merged)
    }
}

/// K-way merge of per-shard key-ordered row streams into one key-ordered
/// result, stopping at `limit`. Shards partition by primary key, so the
/// merged stream has no duplicates and equals the single-dataset order.
fn merge_row_streams(streams: Vec<Vec<QueryRow>>, limit: Option<usize>) -> Vec<QueryRow> {
    let limit = limit.unwrap_or(usize::MAX);
    let mut iters: Vec<std::vec::IntoIter<QueryRow>> =
        streams.into_iter().map(Vec::into_iter).collect();
    let mut heads: Vec<Option<QueryRow>> = iters.iter_mut().map(Iterator::next).collect();
    let mut out = Vec::new();
    while out.len() < limit {
        let mut best: Option<usize> = None;
        for (i, head) in heads.iter().enumerate() {
            let Some(row) = head else { continue };
            match best {
                None => best = Some(i),
                Some(b) => {
                    let best_key = heads[b].as_ref().and_then(|r| r.group.as_ref());
                    let key = row.group.as_ref();
                    if let (Some(key), Some(best_key)) = (key, best_key) {
                        if docmodel::total_cmp(key, best_key) == std::cmp::Ordering::Less {
                            best = Some(i);
                        }
                    }
                }
            }
        }
        let Some(best) = best else { break };
        out.push(heads[best].take().expect("best head present"));
        heads[best] = iters[best].next();
    }
    out
}

fn as_bound_ref(b: &Bound<Value>) -> Bound<&Value> {
    match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(v) => Bound::Included(v),
        Bound::Excluded(v) => Bound::Excluded(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docmodel::{doc, Path};
    use lsm::DatasetConfig;
    use storage::LayoutKind;

    fn sample_doc(i: i64) -> Value {
        doc!({
            "id": i,
            "grp": (format!("g{}", i % 7)),
            "score": (i % 100),
            "duration": (i % 900),
            "caller": (format!("caller{}", i % 23)),
            "games": [
                {"title": (format!("game{}", i % 7)), "consoles": ["PC", "PS4"]},
                {"title": (format!("game{}", (i + 1) % 7))}
            ],
            "text": (format!("text body {i} #jobs and more"))
        })
    }

    fn build_dataset(layout: LayoutKind) -> LsmDataset {
        let ds = LsmDataset::new(
            DatasetConfig::new("gamers", layout)
                .with_memtable_budget(16 * 1024)
                .with_page_size(8 * 1024),
        );
        for i in 0..400i64 {
            ds.insert(sample_doc(i)).unwrap();
        }
        ds.flush().unwrap();
        ds
    }

    fn both_modes(ds: &LsmDataset, q: &Query) -> Vec<QueryRow> {
        let compiled = QueryEngine::new(ExecMode::Compiled).execute(ds, q).unwrap();
        let interpreted = QueryEngine::new(ExecMode::Interpreted).execute(ds, q).unwrap();
        assert_eq!(compiled, interpreted, "engines disagree on {q:?}");
        compiled
    }

    #[test]
    fn count_star_matches_between_engines() {
        for layout in LayoutKind::ALL {
            let ds = build_dataset(layout);
            let rows = both_modes(&ds, &Query::count_star());
            assert_eq!(rows[0].agg(), &Value::Int(400), "{layout:?}");
        }
    }

    #[test]
    fn filtered_count_matches_between_engines() {
        let ds = build_dataset(LayoutKind::Amax);
        let q = Query::count_star().with_filter(Expr::ge("duration", 600));
        let rows = both_modes(&ds, &q);
        let expected = (0..400i64).filter(|i| i % 900 >= 600).count() as i64;
        assert_eq!(rows[0].agg(), &Value::Int(expected));
    }

    #[test]
    fn group_by_with_unnest_matches_between_engines() {
        for layout in [LayoutKind::Vb, LayoutKind::Apax, LayoutKind::Amax] {
            let ds = build_dataset(layout);
            // SELECT t.title, COUNT(*) FROM ds UNNEST games AS t GROUP BY t.title
            let q = Query::count_star()
                .with_unnest("games")
                .group_by_element("title")
                .top_k(3);
            let rows = both_modes(&ds, &q);
            assert_eq!(rows.len(), 3, "{layout:?}");
            // 400 records x 2 games each spread over 7 titles.
            assert!(rows[0].agg().as_int().unwrap() > 100);
        }
    }

    #[test]
    fn multi_aggregate_queries_return_one_value_per_aggregate() {
        let ds = build_dataset(LayoutKind::Amax);
        let q = Query::select([
            Aggregate::Count,
            Aggregate::Max(Path::parse("score")),
            Aggregate::Avg(Path::parse("score")),
            Aggregate::Sum(Path::parse("score")),
        ])
        .with_filter(Expr::and([Expr::ge("score", 50), Expr::exists("games")]))
        .group_by("grp")
        .top_k(3);
        let rows = both_modes(&ds, &q);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.aggs.len(), 4);
            let count = row.aggs[0].as_int().unwrap();
            let max = row.aggs[1].as_int().unwrap();
            let avg = match row.aggs[2] {
                Value::Double(d) => d,
                ref other => panic!("AVG must be a double, got {other:?}"),
            };
            let sum = row.aggs[3].as_int().unwrap();
            assert!(count > 0 && max >= 50 && avg >= 50.0);
            assert_eq!(sum as f64, avg * count as f64);
        }
    }

    #[test]
    fn contains_filter_and_max_length() {
        let ds = build_dataset(LayoutKind::Vb);
        let q = Query::select([Aggregate::MaxLength(Path::parse("text"))])
            .with_filter(Expr::contains("games[*].consoles[*]", "PC"))
            .group_by("caller")
            .top_k(5);
        let rows = both_modes(&ds, &q);
        assert_eq!(rows.len(), 5);
        assert!(rows[0].agg().as_int().unwrap() > 0);
    }

    #[test]
    fn complex_boolean_filters_match_a_scan_oracle() {
        let ds = build_dataset(LayoutKind::Apax);
        let filter = Expr::and([
            Expr::or([Expr::lt("score", 20), Expr::ge("score", 80)]),
            Expr::not(Expr::eq("grp", "g3")),
            Expr::length("text", CmpOp::Gt, 5),
        ]);
        let rows = both_modes(&ds, &Query::count_star().with_filter(filter.clone()));
        let oracle = (0..400i64)
            .map(sample_doc)
            .filter(|d| filter.matches(d))
            .count() as i64;
        assert_eq!(rows[0].agg(), &Value::Int(oracle));
    }

    #[test]
    fn sharded_execution_matches_single_dataset() {
        let shards: Vec<LsmDataset> = (0..4)
            .map(|i| {
                LsmDataset::new(
                    DatasetConfig::new(format!("shard-{i}"), LayoutKind::Amax)
                        .with_memtable_budget(16 * 1024)
                        .with_page_size(8 * 1024),
                )
            })
            .collect();
        let reference = LsmDataset::new(
            DatasetConfig::new("all", LayoutKind::Amax)
                .with_memtable_budget(16 * 1024)
                .with_page_size(8 * 1024),
        );
        for i in 0..400i64 {
            shards[(i as usize) % 4].insert(sample_doc(i)).unwrap();
            reference.insert(sample_doc(i)).unwrap();
        }
        for shard in &shards {
            shard.flush().unwrap();
        }
        reference.flush().unwrap();

        let queries = [
            Query::count_star(),
            Query::count_star().group_by("grp"),
            Query::select([Aggregate::Max(Path::parse("score"))])
                .group_by("grp")
                .top_k(3),
            Query::select([
                Aggregate::Count,
                Aggregate::Avg(Path::parse("score")),
                Aggregate::Min(Path::parse("score")),
            ])
            .group_by("grp"),
            Query::count_star().with_filter(Expr::ge("score", 50)),
        ];
        let refs: Vec<&LsmDataset> = shards.iter().collect();
        for (i, q) in queries.iter().enumerate() {
            for mode in [ExecMode::Compiled, ExecMode::Interpreted] {
                let engine = QueryEngine::new(mode);
                let sharded = engine.execute(&refs[..], q).unwrap();
                let single = engine.execute(&reference, q).unwrap();
                assert_eq!(sharded, single, "query {i} ({mode:?})");
                // Snapshot-based fan-out agrees too.
                let snapshots: Vec<Snapshot> = shards.iter().map(LsmDataset::snapshot).collect();
                let via_snapshots = engine.execute(&snapshots[..], q).unwrap();
                assert_eq!(via_snapshots, single, "query {i} ({mode:?}, snapshots)");
            }
        }
    }

    #[test]
    fn empty_and_single_shard_cases() {
        let engine = QueryEngine::new(ExecMode::Compiled);
        let none: [&LsmDataset; 0] = [];
        assert!(engine.execute(&none[..], &Query::count_star()).unwrap().is_empty());
        let ds = build_dataset(LayoutKind::Amax);
        let one = [&ds];
        let rows = engine.execute(&one[..], &Query::count_star()).unwrap();
        assert_eq!(rows[0].agg(), &Value::Int(400));
    }

    #[test]
    fn index_probe_plans_route_and_agree_with_scans() {
        let ds = LsmDataset::new(
            DatasetConfig::new("tweets", LayoutKind::Amax)
                .with_memtable_budget(16 * 1024)
                .with_page_size(8 * 1024)
                .with_secondary_index(Path::parse("timestamp")),
        );
        for i in 0..300i64 {
            ds.insert(doc!({"id": i, "timestamp": (1000 + i), "likes": (i % 50)}))
                .unwrap();
        }
        ds.flush().unwrap();
        let q = Query::count_star().with_filter(Expr::between("timestamp", 1100, 1199));
        let engine = QueryEngine::with_options(
            ExecMode::Compiled,
            PlannerOptions::with_access_path(AccessPathChoice::ForceIndex),
        );
        let plan_text = engine.explain(&ds, &q).unwrap();
        assert!(
            plan_text.contains("secondary-index range probe on `timestamp`"),
            "{plan_text}"
        );
        assert!(plan_text.contains("selectivity"), "{plan_text}");
        let via_index = engine.execute(&ds, &q).unwrap();
        assert_eq!(via_index[0].agg(), &Value::Int(100));
        // The same query forced to scan agrees.
        let scan_engine = QueryEngine::with_options(
            ExecMode::Compiled,
            PlannerOptions::with_access_path(AccessPathChoice::ForceScan),
        );
        assert!(scan_engine.explain(&ds, &q).unwrap().contains("full scan"));
        assert_eq!(scan_engine.execute(&ds, &q).unwrap(), via_index);
        // The cost-based default agrees whichever path it picks, and its
        // explain names the path and the estimate.
        let auto = QueryEngine::new(ExecMode::Compiled);
        assert_eq!(auto.execute(&ds, &q).unwrap(), via_index);
        let text = auto.explain(&ds, &q).unwrap();
        assert!(text.contains("estimate"), "{text}");
        assert!(text.contains("[auto]"), "{text}");
        // A snapshot target cannot probe: it plans a scan and still agrees.
        let snapshot = ds.snapshot();
        assert_eq!(engine.execute(&snapshot, &q).unwrap(), via_index);
    }

    #[test]
    fn index_probes_on_array_paths_stay_sound() {
        // Existential semantics on a multi-valued indexed path: the record
        // {"ts": [100, 200]} matches `ts[*] BETWEEN 120 AND 180` with two
        // different witnesses. The planner must not intersect the conjuncts'
        // bounds into [120, 180] (which contains neither indexed value) —
        // the probe has to return a superset of the scan result.
        let ds = LsmDataset::new(
            DatasetConfig::new("multi", LayoutKind::Amax)
                .with_page_size(8 * 1024)
                .with_secondary_index(Path::parse("ts[*]")),
        );
        ds.insert(doc!({"id": 1, "ts": [100, 200]})).unwrap();
        ds.insert(doc!({"id": 2, "ts": [150]})).unwrap();
        ds.insert(doc!({"id": 3, "ts": [10, 20]})).unwrap();
        ds.flush().unwrap();
        let q = Query::count_star().with_filter(Expr::between("ts[*]", 120, 180));
        let engine = QueryEngine::with_options(
            ExecMode::Compiled,
            PlannerOptions::with_access_path(AccessPathChoice::ForceIndex),
        );
        assert!(engine.explain(&ds, &q).unwrap().contains("range probe on `ts[*]`"));
        let via_index = engine.execute(&ds, &q).unwrap();
        let scan_engine = QueryEngine::with_options(
            ExecMode::Compiled,
            PlannerOptions::with_access_path(AccessPathChoice::ForceScan),
        );
        let via_scan = scan_engine.execute(&ds, &q).unwrap();
        assert_eq!(via_index, via_scan);
        assert_eq!(via_index[0].agg(), &Value::Int(2), "records 1 and 2 match");
    }

    #[test]
    fn raw_select_returns_key_ordered_rows_in_both_modes() {
        let ds = build_dataset(LayoutKind::Amax);
        let q = Query::select_paths(["caller", "score"])
            .with_filter(Expr::ge("score", 90))
            .order_by_key();
        let rows = both_modes(&ds, &q);
        let expected: Vec<i64> = (0..400i64).filter(|i| i % 100 >= 90).collect();
        assert_eq!(rows.len(), expected.len());
        for (row, want_id) in rows.iter().zip(&expected) {
            assert_eq!(row.group, Some(Value::Int(*want_id)), "key order");
            assert_eq!(row.aggs.len(), 2);
            assert!(matches!(row.aggs[0], Value::String(_)), "{:?}", row.aggs);
            assert!(row.aggs[1].as_int().unwrap() >= 90);
        }
        // A missing path projects as Null.
        let q = Query::select_paths(["nonexistent"]).with_limit(3);
        let rows = both_modes(&ds, &q);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.aggs == vec![Value::Null]));
    }

    #[test]
    fn raw_select_limit_agrees_across_engines_and_shards() {
        let shards: Vec<LsmDataset> = (0..4)
            .map(|i| {
                LsmDataset::new(
                    DatasetConfig::new(format!("sel-shard-{i}"), LayoutKind::Amax)
                        .with_memtable_budget(16 * 1024)
                        .with_page_size(8 * 1024),
                )
            })
            .collect();
        let single = LsmDataset::new(
            DatasetConfig::new("sel-single", LayoutKind::Amax)
                .with_memtable_budget(16 * 1024)
                .with_page_size(8 * 1024),
        );
        for i in 0..300i64 {
            let doc = sample_doc(i);
            shards[(i as usize) % 4].insert(doc.clone()).unwrap();
            single.insert(doc).unwrap();
        }
        for ds in shards.iter().chain(std::iter::once(&single)) {
            ds.flush().unwrap();
        }
        let refs: Vec<&LsmDataset> = shards.iter().collect();
        for limit in [1usize, 7, 50, 1000] {
            let q = Query::select_paths(["score"])
                .with_filter(Expr::ge("score", 30))
                .order_by_key()
                .with_limit(limit);
            let reference = QueryEngine::new(ExecMode::Compiled).execute(&single, &q).unwrap();
            for mode in [ExecMode::Compiled, ExecMode::Interpreted] {
                let engine = QueryEngine::new(mode);
                assert_eq!(engine.execute(&single, &q).unwrap(), reference, "{mode:?}");
                // The sharded fan-out merges per-shard key-ordered streams;
                // keys partition by shard, so the merge equals the single run.
                let sharded = engine.execute(&refs[..], &q).unwrap();
                assert_eq!(sharded, reference, "sharded {mode:?} limit {limit}");
            }
        }
    }

    #[test]
    fn raw_select_through_an_index_probe_matches_the_scan() {
        let ds = LsmDataset::new(
            DatasetConfig::new("sel-idx", LayoutKind::Amax)
                .with_memtable_budget(16 * 1024)
                .with_page_size(8 * 1024)
                .with_secondary_index(Path::parse("timestamp")),
        );
        let tweet = |i: i64, likes: i64| {
            doc!({"id": i, "timestamp": (1000 + i), "likes": likes,
                  "user": {"name": (format!("u{i}")), "bio": "x"}, "text": "long"})
        };
        for i in 0..300i64 {
            ds.insert(tweet(i, i % 50)).unwrap();
        }
        ds.flush().unwrap();
        // Memtable-resident upserts inside the range: the probe answers them
        // from the memtable, the scan from its frozen copy.
        for i in [101i64, 104, 105] {
            ds.insert(tweet(i, 1000 + i)).unwrap();
        }
        let q = Query::select_paths(["likes", "user.name"])
            .with_filter(Expr::between("timestamp", 1100, 1159))
            .order_by_key()
            .with_limit(10);
        let probe = QueryEngine::with_options(
            ExecMode::Compiled,
            PlannerOptions::with_access_path(AccessPathChoice::ForceIndex),
        );
        let scan = QueryEngine::with_options(
            ExecMode::Compiled,
            PlannerOptions::with_access_path(AccessPathChoice::ForceScan),
        );
        assert!(probe.explain(&ds, &q).unwrap().contains("range probe"), "probe routes");
        let via_probe = probe.execute(&ds, &q).unwrap();
        let via_scan = scan.execute(&ds, &q).unwrap();
        assert_eq!(via_probe, via_scan);
        assert_eq!(via_probe.len(), 10);
        assert_eq!(via_probe[0].group, Some(Value::Int(100)));
        assert_eq!(
            via_probe[1].aggs,
            vec![Value::Int(1101), Value::from("u101")],
            "a memtable hit: {via_probe:?}"
        );
    }

    #[test]
    fn invalid_plans_surface_as_invalid_plan_errors() {
        let ds = build_dataset(LayoutKind::Amax);
        let engine = QueryEngine::new(ExecMode::Compiled);
        let err = engine.execute(&ds, &Query::new()).unwrap_err();
        assert!(matches!(err, Error::InvalidPlan(_)), "{err}");
        assert!(err.to_string().contains("invalid query plan"));
    }
}
