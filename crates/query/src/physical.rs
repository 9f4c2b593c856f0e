//! The physical plan: what the planner lowers a logical [`Query`] to.
//!
//! Planning does four things, mirroring what AsterixDB's compiler does for
//! the paper's SQL++ queries:
//!
//! * **validation** — an empty select list, an element-scoped input without
//!   an `UNNEST`, or an out-of-range `ORDER BY` index are
//!   [`Error::InvalidPlan`](crate::Error)s, caught before any I/O happens;
//! * **projection pushdown** — the set of record-rooted paths the query
//!   touches is derived from the filter expression tree and the
//!   group/aggregate inputs, so columnar components assemble only those
//!   columns (§5 of the paper);
//! * **cost-based access-path selection** — `COUNT(*)`-only queries read
//!   primary keys alone ([`AccessPath::KeyOnlyScan`], Page 0 for AMAX); when
//!   the target has a secondary index and the filter *implies* a range on
//!   the indexed path ([`crate::Expr::implied_bounds`]), the planner
//!   *estimates* whether probing the index beats scanning (see the cost
//!   model below) and picks accordingly; [`AccessPathChoice::ForceIndex`] /
//!   [`AccessPathChoice::ForceScan`] override the estimate;
//! * **filter push-down** — the filter's sargable conjuncts travel into the
//!   scan ([`PhysicalPlan::pushed`]), which evaluates them on column loops
//!   and lets the zone maps ([`storage::stats::ComponentStats`], collected
//!   per leaf at flush/merge time and persisted with the leaf directory; a
//!   component's are its leaves' folded) hide whole components and leaves
//!   no record of which can match. The scan alone
//!   decides what it hides ([`storage::component::zone_map_hides`]); the
//!   planner only *estimates* it, by asking the same rule about each
//!   component for the cost model.
//!
//! ## The cost model
//!
//! Both alternatives are priced in **pages touched**, the currency of the
//! paper's evaluation (its speedups are I/O reductions):
//!
//! * a scan costs the pages of every component the zone maps will not
//!   hide (projection narrows what is decoded, but relative ranking is
//!   unaffected);
//! * an index probe costs `estimated matching records × pages per lookup`,
//!   where a lookup may touch one leaf in every component (`Σ ceil(pages /
//!   leaves)`). Matching records are estimated per component by
//!   interpolating the probe range against the component's `[min, max]` and
//!   row counts — uniform within bounds, exact zero when disjoint,
//!   conservative (every row) when a column has no usable bounds. A
//!   component's statistics are its leaves' zone maps folded into one, so
//!   every component has them.
//!
//! The crossover this reproduces is Figure 15: probes win at low
//! selectivity, scans win past roughly "one match per leaf". In-memory
//! records (active + sealed memtables) cost no pages on either path and are
//! excluded. The chosen path and the estimate behind it are rendered by
//! [`PhysicalPlan::describe`] (`EXPLAIN`).
//!
//! ## The streaming operator pipeline
//!
//! Execution is **pull-based** end to end. The access stage is the
//! snapshot's one scan (`lsm::Snapshot::batches`: key-only reconciliation,
//! one decoded leaf per component resident at a time) for scans, or the
//! sorted batched lookups of an index probe. No operator materialises its
//! input: memory is bounded by one storage leaf per component plus the
//! aggregation table (or, for projection queries, the emitted rows). The
//! two engines consume the scan differently — which is exactly the §5
//! contrast: [`crate::interp`] pulls assembled documents through boxed
//! operator objects (filter → unnest → project → aggregate) with per-tuple
//! dynamic dispatch, over the scan's key-ordered row adapter;
//! [`crate::compiled`] takes the scan batch by batch and folds aggregates
//! over each batch's decoded columns with kernels lowered once per
//! component schema, assembling only what the kernels do not cover.
//!
//! Two plan shapes exist:
//!
//! * **aggregate plans** produce mergeable per-group partials (the
//!   crate-private `AggState`), merged across shards before finalisation —
//!   `AVG` carries `(sum, count)`, so the merged result is exactly the
//!   single-dataset result. The groups' states lie side by side in one
//!   vector (`GroupPartials`), in arrival order: a kernel's group table or
//!   another shard's partials are taken over whole, with no allocation per
//!   group, and a key → group index is built only when a group is looked
//!   up by key. Finalisation orders only what it keeps: `ORDER BY` an
//!   aggregate `DESC LIMIT k` selects its `k` groups by the aggregate (ties
//!   in group-key order) before it sorts them and builds their rows;
//! * **projection plans** ([`crate::Query::select_paths`]) emit one
//!   key-ordered row per matching record. `LIMIT` is pushed *into* the
//!   pipeline: the cursor stops after the k-th match (`ORDER BY key LIMIT
//!   k` never decodes the tail leaves), and sharded fan-out k-way-merges
//!   the per-shard key-ordered row streams instead of concatenating
//!   batches.
//!
//! Filters are [`crate::Expr::simplify`]-ed before planning: constant
//! folding and `NOT` push-in run first, so access-path selection and the
//! zone maps see through `NOT NOT` and nested boolean noise, and `EXPLAIN`
//! shows the simplified tree.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::{Bound, Range};
use std::sync::Arc;

use columnar::ColumnValues;
use docmodel::cmp::OrderedValue;
use docmodel::{total_cmp, Path, Value};
use lsm::{LsmDataset, Snapshot};
use storage::component::{zone_map_hides, ColumnPredicate, Component};
use storage::stats::ComponentStats;

use crate::expr::{CmpOp, Expr};
use crate::plan::{AggSpec, Aggregate, Query, QueryRow};
use crate::sum::ExactSum;
use crate::{Error, Result};

/// What the planner knows about one on-disk component of the target: the
/// cardinalities and statistics the cost model and the zone maps consume.
#[derive(Debug, Clone, Default)]
pub struct ComponentPlanInfo {
    /// Physical pages the component occupies.
    pub pages: u64,
    /// Leaves (row/APAX pages, AMAX mega leaf nodes).
    pub leaves: u64,
    /// Smallest and largest key (absent for an empty component).
    pub key_range: Option<(Value, Value)>,
    /// Column statistics: the component's leaves' zone maps, folded.
    pub stats: Arc<ComponentStats>,
}

impl ComponentPlanInfo {
    /// Extract the planning view of one component.
    pub fn of(component: &Component) -> ComponentPlanInfo {
        ComponentPlanInfo {
            pages: component.pages().len() as u64,
            leaves: component.leaf_count() as u64,
            key_range: component.key_range(),
            stats: component.stats().clone(),
        }
    }
}

/// What the planner knows about the execution target.
#[derive(Debug, Clone, Default)]
pub struct PlanContext {
    /// Path covered by a secondary index on every target partition, if any.
    pub secondary_index_on: Option<Path>,
    /// Number of partitions the plan will fan out over (1 = unsharded).
    pub shards: usize,
    /// The target's on-disk components (across every partition), oldest
    /// first per partition. Feeds the cost model; empty for synthetic
    /// contexts, which makes the planner treat the target as memtable-only.
    pub components: Vec<ComponentPlanInfo>,
    /// Records (and anti-matter) in memory across the target's partitions —
    /// active plus sealed memtables. They cost no *pages* on either access
    /// path, but a scan must CPU-filter every one of them while a probe
    /// touches only the matching ones; the cost model charges them at
    /// [`MEM_RECORD_PAGE_EQUIV`] page-equivalents each, which sharpens the
    /// Auto choice when much of the data still sits in memtables.
    pub in_memory_records: u64,
}

impl PlanContext {
    /// A context with no index, no statistics and a single partition.
    pub fn scan_only() -> PlanContext {
        PlanContext::default()
    }

    /// The context of one consistent snapshot: no secondary index (a bare
    /// snapshot cannot probe), but full component statistics.
    pub fn for_snapshot(snapshot: &Snapshot) -> PlanContext {
        PlanContext::for_snapshots(std::slice::from_ref(snapshot))
    }

    /// The context of several per-shard snapshots (scan-only fan-out).
    pub fn for_snapshots(snapshots: &[Snapshot]) -> PlanContext {
        let mut ctx = PlanContext {
            shards: snapshots.len().max(1),
            ..PlanContext::default()
        };
        for snapshot in snapshots {
            ctx.components.extend(
                snapshot.components().iter().map(|c| ComponentPlanInfo::of(c)),
            );
            ctx.in_memory_records += snapshot.in_memory_entries() as u64;
        }
        ctx
    }

    /// The context of one dataset: its configured secondary index, one
    /// partition, and the current components' statistics.
    pub fn for_dataset(dataset: &LsmDataset) -> PlanContext {
        PlanContext::for_shards(std::slice::from_ref(dataset))
    }

    /// The context of a sharded dataset. The index is usable only when every
    /// shard maintains it on the same path; statistics aggregate over all
    /// shards.
    pub fn for_shards(shards: &[LsmDataset]) -> PlanContext {
        let index = shards
            .first()
            .and_then(|s| s.config().secondary_index_on.clone())
            .filter(|path| {
                shards
                    .iter()
                    .all(|s| s.config().secondary_index_on.as_ref() == Some(path))
            });
        let mut ctx = PlanContext {
            secondary_index_on: index,
            shards: shards.len().max(1),
            ..PlanContext::default()
        };
        for shard in shards {
            ctx.components
                .extend(shard.components().iter().map(|c| ComponentPlanInfo::of(c)));
            ctx.in_memory_records += shard.in_memory_entries() as u64;
        }
        ctx
    }
}

/// CPU cost of filtering one in-memory record, in page-equivalents: the
/// currency that lets the cost model weigh memtable records (which cost no
/// I/O) against pages touched. Decoding and filtering ~64 in-memory records
/// is charged like reading one page — deliberately coarse; it only needs to
/// break ties near the fig. 15 crossover when data still sits in memtables.
pub const MEM_RECORD_PAGE_EQUIV: f64 = 1.0 / 64.0;

/// How the planner picks between a secondary-index probe and a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessPathChoice {
    /// Cost-based: estimate matching records from the component statistics
    /// and pick whichever path touches fewer pages (the fig. 15 crossover).
    #[default]
    Auto,
    /// Always probe the secondary index when the target has one and the
    /// filter implies a range on the indexed path (PR 3's fixed routing).
    ForceIndex,
    /// Never probe; range filters execute as scans.
    ForceScan,
}

impl AccessPathChoice {
    fn label(self) -> &'static str {
        match self {
            AccessPathChoice::Auto => "auto",
            AccessPathChoice::ForceIndex => "forced index",
            AccessPathChoice::ForceScan => "forced scan",
        }
    }
}

/// Planner knobs. Defaults enable every optimisation; the benchmarks and the
/// differential tests flip them to measure (and cross-check) what each one
/// buys.
#[derive(Debug, Clone, Copy)]
pub struct PlannerOptions {
    /// Push the derived projection down to the storage layer. Off, every
    /// column is assembled (the "read everything" baseline).
    pub projection_pushdown: bool,
    /// Scan-vs-index-probe policy (cost-based by default).
    pub access_path: AccessPathChoice,
    /// Push the filter's sargable conjuncts (comparisons over single-valued
    /// scalar paths) into the scan: it evaluates them as loops over the
    /// filter columns of each key's reconciliation winner, drops
    /// non-matching records before anything is assembled, and hides whole
    /// components and leaves whose zone maps prove no match. Off, the whole
    /// filter runs as the residual and every page is read (the
    /// read-everything reference of the differential tests).
    pub filter_pushdown: bool,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            projection_pushdown: true,
            access_path: AccessPathChoice::Auto,
            filter_pushdown: true,
        }
    }
}

impl PlannerOptions {
    /// Default options with the given access-path policy.
    pub fn with_access_path(choice: AccessPathChoice) -> PlannerOptions {
        PlannerOptions { access_path: choice, ..Default::default() }
    }
}

/// How the plan acquires its input records.
#[derive(Debug, Clone)]
pub enum AccessPath {
    /// Scan the snapshot, assembling the pushed-down projection.
    FullScan,
    /// Read primary keys only — the `COUNT(*)` fast path (Page 0 for AMAX).
    KeyOnlyScan,
    /// Probe the secondary index over `[lo, hi]` and batch-lookup the
    /// qualifying records; the full filter still runs as a residual.
    IndexRange {
        /// The indexed path being probed.
        path: Path,
        /// Lower bound of the probe.
        lo: Bound<Value>,
        /// Upper bound of the probe.
        hi: Bound<Value>,
    },
}

/// The planner's page-cost estimate behind an access-path decision,
/// rendered by `EXPLAIN`. All numbers are estimates from the per-component
/// statistics; they never affect the answer, only the chosen path.
#[derive(Debug, Clone)]
pub struct AccessEstimate {
    /// Estimated records matching the filter's implied range on the
    /// estimation path (disk components only).
    pub est_matching_records: f64,
    /// Live records across the target's components.
    pub disk_records: u64,
    /// `est_matching_records / disk_records` (0 when the target is empty).
    pub est_selectivity: f64,
    /// Pages a scan would touch, net of what the zone maps will hide.
    pub scan_pages: u64,
    /// Pages an index probe would touch (`None` when probing is impossible:
    /// no index, or no implied range on the indexed path).
    pub probe_pages: Option<f64>,
    /// In-memory records (active + sealed memtables) across the target.
    pub in_memory_records: u64,
    /// Total scan cost in page-equivalents: `scan_pages` plus the CPU term
    /// for filtering every in-memory record
    /// ([`MEM_RECORD_PAGE_EQUIV`] each).
    pub scan_cost: f64,
    /// Total probe cost in page-equivalents: `probe_pages` plus the CPU
    /// term for the estimated in-memory matches.
    pub probe_cost: Option<f64>,
    /// Components the scan's zone maps will hide whole (planning-time
    /// estimate).
    pub hidden_components: usize,
    /// Total components across the target.
    pub total_components: usize,
    /// The access-path policy that produced the decision.
    pub choice: AccessPathChoice,
}

impl AccessEstimate {
    /// One-line rendering for `EXPLAIN`.
    pub fn describe(&self) -> String {
        let probe = match self.probe_pages {
            Some(p) => format!("probe ~{:.0} pages", p),
            None => "probe impossible".to_string(),
        };
        let memtable = if self.in_memory_records > 0 {
            format!(
                ", memtable {} rec (cost scan ~{:.1} vs probe ~{})",
                self.in_memory_records,
                self.scan_cost,
                match self.probe_cost {
                    Some(c) => format!("{c:.1}"),
                    None => "-".to_string(),
                },
            )
        } else {
            String::new()
        };
        format!(
            "selectivity ~{:.2}% (~{:.0} of {} records), scan ~{} pages ({}/{} components hidden by zone maps), {}{} [{}]",
            self.est_selectivity * 100.0,
            self.est_matching_records,
            self.disk_records,
            self.scan_pages,
            self.hidden_components,
            self.total_components,
            probe,
            memtable,
            self.choice.label(),
        )
    }
}

/// A lowered, executable plan. Produced by [`plan`]; render it with
/// [`PhysicalPlan::describe`].
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// How input records are acquired.
    pub access: AccessPath,
    /// The cost estimate behind the access choice (`None` for filterless
    /// plans, where there is nothing to estimate).
    pub estimate: Option<AccessEstimate>,
    /// Pushed-down projection; `None` assembles full records (pushdown off).
    pub projection: Option<Vec<Path>>,
    /// The full (simplified) filter — what the query means. The cost
    /// estimate and the batch oracle evaluate this;
    /// execution applies it as `pushed` (in the scan) plus `residual`
    /// (after assembly), a filter that folded to `TRUE` is dropped entirely.
    pub filter: Option<Expr>,
    /// Sargable conjuncts pushed into the scan ([`crate::physical`]'s
    /// late-materialization path): comparisons over single-valued scalar
    /// paths, evaluated by the scan as loops over the filter columns so
    /// non-matching records are never assembled. Empty when filter pushdown
    /// is off or the access path is not a full scan.
    pub pushed: Vec<ColumnPredicate>,
    /// The filter remainder execution evaluates on each assembled record:
    /// `filter` minus the `pushed` conjuncts. `filter ≡ pushed AND residual`
    /// always holds.
    pub residual: Option<Expr>,
    /// Array path to unnest, if any.
    pub unnest: Option<Path>,
    /// Grouping key path, if any.
    pub group_by: Option<Path>,
    /// Whether the grouping key is evaluated on the unnested element.
    pub group_on_element: bool,
    /// The select list (empty for projection plans).
    pub aggregates: Vec<AggSpec>,
    /// Raw-column projection plan: emit one key-ordered row per matching
    /// record with these paths' values (`None` = aggregate plan).
    pub select_paths: Option<Vec<Path>>,
    /// Sort groups descending by this aggregate index.
    pub order_desc_by_agg: Option<usize>,
    /// Projection rows are ordered by primary key ascending (free on the
    /// key-ordered merge cursor; with `limit`, execution terminates early).
    pub order_by_key: bool,
    /// Row cap. For aggregate plans it truncates the sorted groups; for
    /// projection plans it is pushed into the pipeline — per-partition scans
    /// stop at the k-th match.
    pub limit: Option<usize>,
    /// Number of partitions the plan fans out over (for `describe`).
    pub shards: usize,
}

impl PhysicalPlan {
    /// `true` for raw-column projection plans (one row per record), `false`
    /// for aggregate plans.
    pub fn is_projection(&self) -> bool {
        self.select_paths.is_some()
    }
}

/// Lower a logical query to a physical plan for the given target context.
pub fn plan(query: &Query, ctx: &PlanContext, options: &PlannerOptions) -> Result<PhysicalPlan> {
    let is_projection = !query.select_paths.is_empty();
    if is_projection {
        if !query.aggregates.is_empty() {
            return Err(Error::invalid_plan(
                "a query selects either aggregates or raw column paths, not both",
            ));
        }
        if query.unnest.is_some() || query.group_by.is_some() {
            return Err(Error::invalid_plan(
                "raw-column SELECT does not support UNNEST or GROUP BY",
            ));
        }
        if query.order_desc_by_agg.is_some() {
            return Err(Error::invalid_plan(
                "ORDER BY an aggregate needs an aggregate select list; raw-column SELECT orders by key",
            ));
        }
    } else {
        if query.aggregates.is_empty() {
            return Err(Error::invalid_plan(
                "the select list is empty: add at least one aggregate (or raw column paths)",
            ));
        }
        if query.order_by_key {
            return Err(Error::invalid_plan(
                "ORDER BY key applies to raw-column SELECT; aggregate queries order by an aggregate",
            ));
        }
        if query.unnest.is_none() {
            if query.group_on_element && query.group_by.is_some() {
                return Err(Error::invalid_plan(
                    "GROUP BY on the unnested element requires an UNNEST clause",
                ));
            }
            if let Some(spec) = query.aggregates.iter().find(|s| s.on_element) {
                return Err(Error::invalid_plan(format!(
                    "aggregate {} reads the unnested element but the query has no UNNEST clause",
                    spec.agg.describe()
                )));
            }
        }
        if let Some(i) = query.order_desc_by_agg {
            if i >= query.aggregates.len() {
                return Err(Error::invalid_plan(format!(
                    "ORDER BY references aggregate #{i} but the select list has {}",
                    query.aggregates.len()
                )));
            }
        }
    }

    // Expression simplification runs before every static analysis: constant
    // folding, flattening and NOT push-in (Expr::simplify). A filter that
    // folds to TRUE disappears; the simplified tree is what the access-path
    // estimate, the zone maps and the residual filter all see.
    let filter = query
        .filter
        .as_ref()
        .map(Expr::simplify)
        .filter(|f| !matches!(f, Expr::And(children) if children.is_empty()));

    let count_only = !is_projection
        && filter.is_none()
        && query.unnest.is_none()
        && query.group_by.is_none()
        && query
            .aggregates
            .iter()
            .all(|s| matches!(s.agg, Aggregate::Count));

    // What a full scan would push into storage (and the zone maps would
    // hide by) and what it would leave residual.
    let (scan_pushed, scan_residual) = if options.filter_pushdown {
        split_pushdown(filter.as_ref())
    } else {
        (Vec::new(), filter.clone())
    };
    let probe = probe_candidate(filter.as_ref(), ctx);
    let projected_columns = options
        .projection_pushdown
        .then(|| query.projection_paths().len());
    let estimate = filter.as_ref().filter(|_| !count_only).map(|filter| {
        estimate_access(filter, &scan_pushed, ctx, probe.as_ref(), options, projected_columns)
    });

    let access = if count_only {
        AccessPath::KeyOnlyScan
    } else {
        let take_probe = match options.access_path {
            AccessPathChoice::ForceScan => false,
            AccessPathChoice::ForceIndex => probe.is_some(),
            AccessPathChoice::Auto => probe.is_some() && auto_prefers_probe(estimate.as_ref()),
        };
        if take_probe {
            let (path, lo, hi) = probe.expect("probe candidate checked above");
            AccessPath::IndexRange { path, lo, hi }
        } else {
            AccessPath::FullScan
        }
    };

    let projection = options
        .projection_pushdown
        .then(|| query.projection_paths());

    // The pushed/residual split applies only to full scans: a key-only scan
    // has no filter, and an index probe must re-check the *whole* filter on
    // every looked-up record (the probe range is an over-approximation).
    let (pushed, residual) = if matches!(access, AccessPath::FullScan) {
        (scan_pushed, scan_residual)
    } else {
        (Vec::new(), filter.clone())
    };

    Ok(PhysicalPlan {
        access,
        estimate,
        projection,
        filter,
        pushed,
        residual,
        unnest: query.unnest.clone(),
        group_by: query.group_by.clone(),
        group_on_element: query.group_on_element,
        aggregates: query.aggregates.clone(),
        select_paths: is_projection.then(|| query.select_paths.clone()),
        order_desc_by_agg: query.order_desc_by_agg,
        order_by_key: query.order_by_key,
        limit: query.limit,
        shards: ctx.shards.max(1),
    })
}

/// Split the (simplified) filter into the sargable conjunction pushed into
/// the scan and the residual evaluated after assembly.
///
/// A conjunct is pushable exactly when it is a comparison over a
/// **single-valued scalar path** (no `[*]` step). Comparisons on repeated
/// paths stay residual — their existential semantics need the assembled
/// array (the PR 3 lesson), and leaf zone maps keep `[*]` paths
/// counts-only. Everything else (disjunctions, negations, `EXISTS`,
/// `CONTAINS`, `LENGTH`) also stays residual. The split is lossless:
/// `filter ≡ AND(pushed) AND residual`.
fn split_pushdown(filter: Option<&Expr>) -> (Vec<ColumnPredicate>, Option<Expr>) {
    let Some(filter) = filter else {
        return (Vec::new(), None);
    };
    let conjuncts: Vec<&Expr> = match filter {
        Expr::And(children) => children.iter().collect(),
        other => vec![other],
    };
    let mut pushed = Vec::new();
    let mut residual = Vec::new();
    for conjunct in conjuncts {
        match conjunct {
            Expr::Cmp { op, path, value } if path.repeated_depth() == 0 => {
                let (lo, hi) = match op {
                    CmpOp::Eq => (
                        Bound::Included(value.clone()),
                        Bound::Included(value.clone()),
                    ),
                    CmpOp::Ge => (Bound::Included(value.clone()), Bound::Unbounded),
                    CmpOp::Gt => (Bound::Excluded(value.clone()), Bound::Unbounded),
                    CmpOp::Le => (Bound::Unbounded, Bound::Included(value.clone())),
                    CmpOp::Lt => (Bound::Unbounded, Bound::Excluded(value.clone())),
                };
                pushed.push(ColumnPredicate { path: path.clone(), lo, hi });
            }
            other => residual.push(other.clone()),
        }
    }
    let residual = match residual.len() {
        0 => None,
        1 => residual.pop(),
        _ => Some(Expr::And(residual)),
    };
    (pushed, residual)
}

/// The probe the index-range access path would execute, when the context has
/// an index and the (simplified) filter implies a (at least one-sided) range
/// on the indexed path. Whether it is *taken* is the access-path policy's
/// call.
fn probe_candidate(
    filter: Option<&Expr>,
    ctx: &PlanContext,
) -> Option<(Path, Bound<Value>, Bound<Value>)> {
    let indexed = ctx.secondary_index_on.as_ref()?;
    let (lo, hi) = filter?.implied_bounds(indexed)?;
    if matches!((&lo, &hi), (Bound::Unbounded, Bound::Unbounded)) {
        return None;
    }
    Some((indexed.clone(), lo, hi))
}

/// The cost-based decision: probe when its total estimate (pages plus the
/// memtable CPU term) undercuts the scan's. A scan whose every component
/// the zone maps hide, over an empty memtable, costs zero and always wins — it
/// touches nothing at all; ties also go to the scan.
fn auto_prefers_probe(estimate: Option<&AccessEstimate>) -> bool {
    match estimate {
        Some(est) => match est.probe_cost {
            Some(probe) => probe < est.scan_cost,
            None => false,
        },
        // No filter to estimate with (cannot happen for a probe candidate,
        // which requires a filter) — scan.
        None => false,
    }
}

// ---------------------------------------------------------------------------
// The cost model.
// ---------------------------------------------------------------------------

/// The first path on which `filter` implies a value range, as a predicate
/// (a record matching `filter` has *some* value at the path inside the
/// range — see [`Expr::implied_bounds`]). It drives the selectivity estimate
/// when there is no probe.
fn first_implied_range(filter: &Expr) -> Option<ColumnPredicate> {
    let mut paths = Vec::new();
    filter.collect_paths(&mut paths);
    paths.into_iter().find_map(|path| {
        let (lo, hi) = filter.implied_bounds(&path)?;
        Some(ColumnPredicate { path, lo, hi })
    })
}

/// Estimated records of one component matching `range`: 0 when the stats
/// disprove it (disjoint or absent), a uniform interpolation against the
/// component's `[min, max]` for numeric bounds, and the conservative "every
/// row with the path" otherwise.
fn estimate_component_matches(stats: &ComponentStats, range: &ColumnPredicate) -> f64 {
    if range.prove_no_match(stats) {
        return 0.0;
    }
    let Some(col) = stats.column(&range.path.to_string()) else {
        return 0.0;
    };
    let rows = col.rows as f64;
    let (Some(min_f), Some(max_f)) = (
        col.min.as_ref().and_then(numeric),
        col.max.as_ref().and_then(numeric),
    ) else {
        return rows;
    };
    let lo_f = match &range.lo {
        Bound::Included(v) | Bound::Excluded(v) => numeric(v).unwrap_or(min_f),
        Bound::Unbounded => min_f,
    }
    .max(min_f);
    let hi_f = match &range.hi {
        Bound::Included(v) | Bound::Excluded(v) => numeric(v).unwrap_or(max_f),
        Bound::Unbounded => max_f,
    }
    .min(max_f);
    if hi_f < lo_f {
        return 0.0;
    }
    // Uniform-distribution interpolation. The +1 terms give integer point
    // ranges (`x = c`) the natural `rows / distinct-ish` estimate instead
    // of zero width; for doubles they are a harmless nudge.
    let fraction = ((hi_f - lo_f + 1.0) / (max_f - min_f + 1.0)).clamp(0.0, 1.0);
    (rows * fraction).max(1.0)
}

fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Double(d) => Some(*d),
        _ => None,
    }
}

/// Build the access estimate for a filtered plan: the scan's pages net of
/// the components its zone maps will hide vs. probe pages, plus the
/// selectivity display numbers. Estimation uses the probe path when one
/// exists, otherwise the filter's first implied range. `projected_columns` is the pushed-down projection width
/// (`None` = every column is assembled), which scales the per-lookup cost:
/// a point lookup decodes one leaf's *projected* columns, so for a mega
/// leaf (AMAX) it touches roughly `leaf pages × projected / total columns`.
fn estimate_access(
    filter: &Expr,
    pushed: &[ColumnPredicate],
    ctx: &PlanContext,
    probe: Option<&(Path, Bound<Value>, Bound<Value>)>,
    options: &PlannerOptions,
    projected_columns: Option<usize>,
) -> AccessEstimate {
    // What the scan will hide: the storage rule itself, asked about each
    // component with the conjuncts a scan is `pushed` and the key ranges of
    // the components listed before it. Across partitions (whose components
    // are listed one partition after another) that is conservative: it can
    // only hide less than the scans will.
    let mut older: Vec<(Value, Value)> = Vec::new();
    let hidden: Vec<bool> = ctx
        .components
        .iter()
        .map(|c| {
            let Some((min, max)) = &c.key_range else {
                return false;
            };
            let hidden = zone_map_hides(pushed, &c.stats, (min, max), &older);
            older.push((min.clone(), max.clone()));
            hidden
        })
        .collect();
    // The fraction of a component's data pages the projection touches —
    // applied identically to both sides of the comparison.
    let column_fraction = |c: &ComponentPlanInfo| match projected_columns {
        Some(projected) => (projected as f64 / c.stats.columns.len().max(1) as f64).min(1.0),
        None => 1.0,
    };
    let scan_pages: u64 = ctx
        .components
        .iter()
        .zip(&hidden)
        .filter_map(|(c, h)| (!h).then_some(c))
        .map(|c| {
            // At least one page per leaf is always read (keys / page 0).
            let floor = c.leaves.min(c.pages) as f64;
            (c.pages as f64 * column_fraction(c)).max(floor).round() as u64
        })
        .sum();
    let hidden_components = hidden.iter().filter(|h| **h).count();
    let disk_records: u64 = ctx
        .components
        .iter()
        .map(|c| c.stats.live_records)
        .sum();

    // The range driving the record estimate: the probe's, else the filter's
    // first implied range (for display), else "everything matches".
    let est_range = match probe {
        Some((path, lo, hi)) => Some(ColumnPredicate {
            path: path.clone(),
            lo: lo.clone(),
            hi: hi.clone(),
        }),
        None => first_implied_range(filter),
    };
    let est_matching: f64 = match &est_range {
        Some(range) => ctx
            .components
            .iter()
            .map(|c| estimate_component_matches(&c.stats, range))
            .sum(),
        None => disk_records as f64,
    };

    // One index lookup may touch one leaf in every component, decoding only
    // the projected columns of that leaf (at least one page: the key page).
    let pages_per_lookup: f64 = ctx
        .components
        .iter()
        .map(|c| {
            let leaf_pages = c.pages as f64 / c.leaves.max(1) as f64;
            (leaf_pages * column_fraction(c)).max(1.0)
        })
        .sum();
    let probe_pages = probe.map(|_| est_matching * pages_per_lookup);

    // The memtable-aware CPU term: a scan filters every in-memory record, a
    // probe touches only the estimated matching ones. In-memory selectivity
    // is assumed equal to the disk estimate; with no disk records to
    // estimate from, every in-memory record is assumed to match, which
    // safely biases toward the scan.
    let est_selectivity = if disk_records == 0 {
        0.0
    } else {
        (est_matching / disk_records as f64).clamp(0.0, 1.0)
    };
    let mem_records = ctx.in_memory_records as f64;
    let mem_fraction = if disk_records == 0 { 1.0 } else { est_selectivity };
    let scan_cost = scan_pages as f64 + mem_records * MEM_RECORD_PAGE_EQUIV;
    // Disk-side matches are already priced in pages (`pages_per_lookup`);
    // the CPU term covers only the in-memory matches a probe touches.
    let probe_cost = probe_pages
        .map(|pages| pages + mem_records * mem_fraction * MEM_RECORD_PAGE_EQUIV);

    AccessEstimate {
        est_matching_records: est_matching,
        disk_records,
        est_selectivity,
        scan_pages,
        probe_pages,
        in_memory_records: ctx.in_memory_records,
        scan_cost,
        probe_cost,
        hidden_components,
        total_components: ctx.components.len(),
        choice: options.access_path,
    }
}

impl AccessPath {
    /// One-line rendering for `EXPLAIN`.
    pub fn describe(&self) -> String {
        match self {
            AccessPath::FullScan => "full scan".to_string(),
            AccessPath::KeyOnlyScan => "key-only scan (COUNT(*) fast path)".to_string(),
            AccessPath::IndexRange { path, lo, hi } => {
                format!(
                    "secondary-index range probe on `{path}` over {}",
                    render_range(lo, hi)
                )
            }
        }
    }
}

fn render_range(lo: &Bound<Value>, hi: &Bound<Value>) -> String {
    let lo = match lo {
        Bound::Unbounded => "(-inf".to_string(),
        Bound::Included(v) => format!("[{v}"),
        Bound::Excluded(v) => format!("({v}"),
    };
    let hi = match hi {
        Bound::Unbounded => "+inf)".to_string(),
        Bound::Included(v) => format!("{v}]"),
        Bound::Excluded(v) => format!("{v})"),
    };
    format!("{lo}, {hi}")
}

impl PhysicalPlan {
    /// Render the plan as a multi-line `EXPLAIN` string.
    pub fn describe(&self) -> String {
        let select: Vec<String> = match &self.select_paths {
            Some(paths) => paths.iter().map(|p| p.to_string()).collect(),
            None => self.aggregates.iter().map(|s| s.agg.describe()).collect(),
        };
        let mut out = String::new();
        out.push_str(&format!("SELECT {}\n", select.join(", ")));
        out.push_str(&format!("  access     : {}\n", self.access.describe()));
        if let Some(est) = &self.estimate {
            out.push_str(&format!("  estimate   : {}\n", est.describe()));
        }
        match &self.projection {
            Some(paths) if paths.is_empty() => {
                out.push_str("  projection : (keys only)\n");
            }
            Some(paths) => {
                let rendered: Vec<String> = paths.iter().map(|p| p.to_string()).collect();
                out.push_str(&format!("  projection : {}\n", rendered.join(", ")));
            }
            None => out.push_str("  projection : * (pushdown disabled)\n"),
        }
        match &self.filter {
            Some(f) => out.push_str(&format!("  filter     : {f}\n")),
            None => out.push_str("  filter     : -\n"),
        }
        if self.filter.is_some() {
            if self.pushed.is_empty() {
                out.push_str("  pushed     : - (nothing sargable)\n");
            } else {
                let rendered: Vec<String> =
                    self.pushed.iter().map(|p| p.to_string()).collect();
                out.push_str(&format!("  pushed     : {}\n", rendered.join(" AND ")));
            }
            match &self.residual {
                Some(r) => out.push_str(&format!("  residual   : {r}\n")),
                None => out.push_str("  residual   : - (fully pushed)\n"),
            }
        }
        match &self.unnest {
            Some(u) => out.push_str(&format!("  unnest     : {u}\n")),
            None => out.push_str("  unnest     : -\n"),
        }
        match &self.group_by {
            Some(g) => out.push_str(&format!(
                "  group by   : {g}{}\n",
                if self.group_on_element { " (on element)" } else { "" }
            )),
            None => out.push_str("  group by   : - (global aggregate)\n"),
        }
        match (self.order_desc_by_agg, self.limit) {
            _ if self.order_by_key => match self.limit {
                Some(k) => out.push_str(&format!(
                    "  order/limit: key ASC LIMIT {k} (streaming early termination)\n"
                )),
                None => out.push_str("  order/limit: key ASC\n"),
            },
            (Some(i), Some(k)) => out.push_str(&format!(
                "  order/limit: {} DESC LIMIT {k}\n",
                self.aggregates[i].agg.describe()
            )),
            (Some(i), None) => out.push_str(&format!(
                "  order/limit: {} DESC\n",
                self.aggregates[i].agg.describe()
            )),
            (None, Some(k)) => out.push_str(&format!("  order/limit: LIMIT {k}\n")),
            (None, None) => out.push_str("  order/limit: -\n"),
        }
        if self.shards > 1 {
            if self.is_projection() {
                out.push_str(&format!(
                    "  shards     : {} (per-shard key-ordered row streams, k-way merge)\n",
                    self.shards
                ));
            } else {
                out.push_str(&format!(
                    "  shards     : {} (per-shard partial aggregates, exact merge)\n",
                    self.shards
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Mergeable aggregate partials.
// ---------------------------------------------------------------------------

/// Running state of one aggregate over one group. Partials are *mergeable*:
/// combining the states of disjoint record sets gives exactly the state of
/// their union, which is what makes sharded fan-out exact (AVG carries
/// `(sum, count)`, not the finished mean).
///
/// They are also **order-insensitive**: the finished value depends on the
/// set of inputs only, not on the order they were folded or merged in. The
/// engines fold in different orders (the compiled engine per source leaf,
/// the per-tuple engines by key, shards separately), and a merge moves
/// records between leaves — none of that may show in an answer. Counts and
/// integer sums are order-free by nature; double sums are exact
/// ([`ExactSum`]); `MIN`/`MAX` break ties between equal values written
/// differently (`7` and `7.0`) by [`spelled_first`], as the group table does
/// for group keys.
#[derive(Debug, Clone)]
pub(crate) enum AggState {
    /// `COUNT(*)`.
    Count(u64),
    /// `COUNT(path)`.
    CountNonNull(u64),
    /// `MAX(path)`.
    Max(Option<Value>),
    /// `MIN(path)`.
    Min(Option<Value>),
    /// `SUM(path)`: the integers and the doubles, each summed exactly. An
    /// `i128` cannot overflow on `i64` inputs, so whether the result still
    /// fits an integer is decided once, on the final value.
    Sum {
        int_sum: i128,
        double_sum: ExactSum,
        saw_double: bool,
        any: bool,
    },
    /// `AVG(path)`: the classic mergeable pair.
    Avg { sum: ExactSum, count: u64 },
    /// `MAX(LENGTH(path))`.
    MaxLength(Option<i64>),
}

impl AggState {
    pub(crate) fn new(agg: &Aggregate) -> AggState {
        match agg {
            Aggregate::Count => AggState::Count(0),
            Aggregate::CountNonNull(_) => AggState::CountNonNull(0),
            Aggregate::Max(_) => AggState::Max(None),
            Aggregate::Min(_) => AggState::Min(None),
            Aggregate::Sum(_) => AggState::Sum {
                int_sum: 0,
                double_sum: ExactSum::default(),
                saw_double: false,
                any: false,
            },
            Aggregate::Avg(_) => AggState::Avg { sum: ExactSum::default(), count: 0 },
            Aggregate::MaxLength(_) => AggState::MaxLength(None),
        }
    }

    /// Fold one input value (the aggregate's resolved path value, `None`
    /// when the path is missing on this record/element).
    pub(crate) fn update(&mut self, input: Option<&Value>) {
        self.fold(match input {
            None => Input::Absent,
            Some(Value::Int(i)) => Input::Int(*i),
            Some(Value::Double(d)) => Input::Double(*d),
            Some(Value::String(s)) => Input::Str(s),
            Some(other) => Input::Other(other),
        })
    }

    /// Fold one input — the one implementation of every aggregate's
    /// semantics, fed documents' values by the per-record engines
    /// ([`AggState::update`]) and typed column values by the compiled
    /// engine's kernels, which never build a [`Value`] to get here.
    pub(crate) fn fold(&mut self, input: Input<'_>) {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::CountNonNull(n) => {
                if !matches!(input, Input::Absent) {
                    *n += 1;
                }
            }
            AggState::Max(best) => {
                if input.beats(best.as_ref(), Ordering::Greater) {
                    *best = input.to_value();
                }
            }
            AggState::Min(best) => {
                if input.beats(best.as_ref(), Ordering::Less) {
                    *best = input.to_value();
                }
            }
            AggState::Sum { int_sum, double_sum, saw_double, any } => match input {
                Input::Int(i) => {
                    *int_sum += i128::from(i);
                    *any = true;
                }
                Input::Double(d) => {
                    double_sum.add(d);
                    *saw_double = true;
                    *any = true;
                }
                _ => {}
            },
            AggState::Avg { sum, count } => {
                let x = match input {
                    Input::Int(i) => i as f64,
                    Input::Double(d) => d,
                    _ => return,
                };
                sum.add(x);
                *count += 1;
            }
            AggState::MaxLength(best) => {
                if let Input::Str(s) = input {
                    let len = s.chars().count() as i64;
                    if best.map(|b| len > b).unwrap_or(true) {
                        *best = Some(len);
                    }
                }
            }
        }
    }

    /// Fold a run of inputs straight out of a decoded column: the values
    /// `values[range]`, then `absent` inputs that lack the path — one
    /// record's array elements, or one record-level value. The same
    /// semantics as folding each input ([`AggState::fold`]), reached through
    /// one typed pass over the slice: `MAX`/`MIN` fold the slice's extreme
    /// under `f64::total_cmp` (so `-0.0` and `0.0`, and every NaN, stay
    /// apart), `SUM`/`AVG` add every value exactly, and ties with a partial
    /// of another type still go by the `7` vs `7.0` rule.
    pub(crate) fn fold_slice(&mut self, values: &ColumnValues, range: Range<usize>, absent: usize) {
        let present = range.len() as u64;
        match self {
            AggState::Count(n) => *n += present + absent as u64,
            AggState::CountNonNull(n) => *n += present,
            AggState::Max(_) | AggState::Min(_) => {
                let side = match self {
                    AggState::Max(_) => Ordering::Greater,
                    _ => Ordering::Less,
                };
                match values {
                    ColumnValues::Int(v) => {
                        let top = if side == Ordering::Greater {
                            v[range].iter().max()
                        } else {
                            v[range].iter().min()
                        };
                        if let Some(&top) = top {
                            self.fold(Input::Int(top));
                        }
                    }
                    ColumnValues::Double(v) => {
                        // `f64::total_cmp` as an integer order, so the
                        // extreme is a plain `i64` max or min.
                        let keys = v[range].iter().map(|&d| total_order_key(d));
                        let top = if side == Ordering::Greater {
                            keys.max()
                        } else {
                            keys.min()
                        };
                        if let Some(top) = top {
                            self.fold(Input::Double(from_total_order_key(top)));
                        }
                    }
                    ColumnValues::String(v) => {
                        let top = if side == Ordering::Greater {
                            v[range].iter().max()
                        } else {
                            v[range].iter().min()
                        };
                        if let Some(top) = top {
                            self.fold(Input::Str(top));
                        }
                    }
                    ColumnValues::Bool(_) | ColumnValues::Null(_) => {
                        for i in range {
                            self.fold(Input::Other(&values.get(i)));
                        }
                    }
                }
            }
            AggState::Sum { .. } | AggState::Avg { .. } => match values {
                ColumnValues::Int(v) => v[range].iter().for_each(|&i| self.fold(Input::Int(i))),
                ColumnValues::Double(v) => {
                    v[range].iter().for_each(|&d| self.fold(Input::Double(d)))
                }
                // Strings, booleans and nulls are not summed.
                ColumnValues::String(_) | ColumnValues::Bool(_) | ColumnValues::Null(_) => {}
            },
            AggState::MaxLength(_) => {
                if let ColumnValues::String(v) = values {
                    if let Some(longest) = v[range].iter().max_by_key(|s| s.chars().count()) {
                        self.fold(Input::Str(longest));
                    }
                }
            }
        }
    }

    /// Merge another partial of the same aggregate (from a disjoint record
    /// set, e.g. another shard) into this one.
    pub(crate) fn merge(&mut self, other: AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::CountNonNull(a), AggState::CountNonNull(b)) => *a += b,
            (AggState::Max(a), AggState::Max(b)) => {
                if let Some(v) = b {
                    if a.as_ref().is_none_or(|x| replaces(&v, x, Ordering::Greater)) {
                        *a = Some(v);
                    }
                }
            }
            (AggState::Min(a), AggState::Min(b)) => {
                if let Some(v) = b {
                    if a.as_ref().is_none_or(|x| replaces(&v, x, Ordering::Less)) {
                        *a = Some(v);
                    }
                }
            }
            (
                AggState::Sum { int_sum, double_sum, saw_double, any },
                AggState::Sum {
                    int_sum: i2,
                    double_sum: d2,
                    saw_double: s2,
                    any: a2,
                },
            ) => {
                *int_sum += i2;
                double_sum.merge(d2);
                *saw_double |= s2;
                *any |= a2;
            }
            (AggState::Avg { sum, count }, AggState::Avg { sum: s2, count: c2 }) => {
                sum.merge(s2);
                *count += c2;
            }
            (AggState::MaxLength(a), AggState::MaxLength(b)) => {
                if let Some(v) = b {
                    if a.map(|x| v > x).unwrap_or(true) {
                        *a = Some(v);
                    }
                }
            }
            // Partials of the same plan position always share a variant.
            _ => unreachable!("merging partials of different aggregates"),
        }
    }

    /// Finish the aggregate: turn the partial into its output value.
    pub(crate) fn finish(&self) -> Value {
        match self {
            AggState::Count(n) | AggState::CountNonNull(n) => Value::Int(*n as i64),
            AggState::Max(best) | AggState::Min(best) => {
                best.clone().unwrap_or(Value::Null)
            }
            AggState::Sum { int_sum, double_sum, saw_double, any } => {
                if !any {
                    Value::Null
                } else if *saw_double {
                    let mut total = double_sum.clone();
                    total.add_int(*int_sum);
                    Value::Double(total.finish())
                } else {
                    // Integers only: widen to a double instead of wrapping
                    // when the sum no longer fits.
                    i64::try_from(*int_sum)
                        .map(Value::Int)
                        .unwrap_or(Value::Double(*int_sum as f64))
                }
            }
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Double(sum.finish() / *count as f64)
                }
            }
            AggState::MaxLength(best) => best.map(Value::Int).unwrap_or(Value::Null),
        }
    }
}

/// One aggregate input, borrowed: a scalar straight out of a decoded column
/// chunk, or any value of a document.
#[derive(Clone, Copy)]
pub(crate) enum Input<'a> {
    /// The path is missing on this record/element.
    Absent,
    /// An integer.
    Int(i64),
    /// A double.
    Double(f64),
    /// A string.
    Str(&'a str),
    /// Anything else a document can hold (booleans, nulls, composites).
    Other(&'a Value),
}

impl Input<'_> {
    /// Whether the input replaces `best` as a `MAX` (`side` = `Greater`) or
    /// `MIN` (`Less`): it is present, and there is no best yet or it
    /// compares on that side of it under the document total order (an equal
    /// value written differently: see [`replaces`]).
    fn beats(&self, best: Option<&Value>, side: Ordering) -> bool {
        match (self, best) {
            (Input::Absent, _) => false,
            (_, None) => true,
            // Same type: equal values are written the same.
            (Input::Int(a), Some(Value::Int(b))) => a.cmp(b) == side,
            (Input::Double(a), Some(Value::Double(b))) => a.total_cmp(b) == side,
            (Input::Str(a), Some(Value::String(b))) => (*a).cmp(b.as_str()) == side,
            (Input::Other(a), Some(b)) => replaces(a, b, side),
            // Mixed types (a union column's branches meet here).
            (_, Some(b)) => replaces(&self.to_value().expect("present input"), b, side),
        }
    }

    fn to_value(self) -> Option<Value> {
        match self {
            Input::Absent => None,
            Input::Int(i) => Some(Value::Int(i)),
            Input::Double(d) => Some(Value::Double(d)),
            Input::Str(s) => Some(Value::from(s)),
            Input::Other(v) => Some(v.clone()),
        }
    }
}

/// A double's place in `f64::total_cmp` as an `i64`: the negative doubles'
/// magnitude bits flipped, exactly the order `total_cmp` compares.
#[inline]
fn total_order_key(d: f64) -> i64 {
    let bits = d.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The double whose [`total_order_key`] is `key` (the mapping is its own
/// inverse).
#[inline]
fn from_total_order_key(key: i64) -> f64 {
    f64::from_bits((key ^ (((key >> 63) as u64) >> 1) as i64) as u64)
}

/// Two values that compare equal under the document order can still be
/// written differently: `7` and `7.0`, at any depth. Wherever an aggregate
/// or the group table must keep one of them, it keeps the one this orders
/// first (the integer), so that which record came first never shows in an
/// answer.
fn spelled_first(a: &Value, b: &Value) -> Ordering {
    fn first_difference<'v>(pairs: impl Iterator<Item = (&'v Value, &'v Value)>) -> Ordering {
        pairs
            .map(|(a, b)| spelled_first(a, b))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }
    match (a, b) {
        (Value::Int(_), Value::Double(_)) => Ordering::Less,
        (Value::Double(_), Value::Int(_)) => Ordering::Greater,
        (Value::Array(a), Value::Array(b)) => first_difference(a.iter().zip(b)),
        (Value::Object(a), Value::Object(b)) => {
            first_difference(a.iter().zip(b.iter()).map(|((_, a), (_, b))| (a, b)))
        }
        _ => Ordering::Equal,
    }
}

/// Whether `candidate` replaces `best` as a `MAX` (`side` = `Greater`) or
/// `MIN` (`Less`): it compares on that side, or it is the same value
/// [spelled first](spelled_first).
fn replaces(candidate: &Value, best: &Value, side: Ordering) -> bool {
    match total_cmp(candidate, best) {
        Ordering::Equal => spelled_first(candidate, best) == Ordering::Less,
        ordering => ordering == side,
    }
}

/// Per-group partial aggregate states, keyed by group value — what one
/// execution (one shard, one engine pass) produces. `7` and `7.0` are one
/// group; it is reported under the key [`spelled_first`], whichever arrived
/// first.
///
/// The groups are kept in the order they arrived, their states side by
/// side in one vector, so neither a new group nor a whole table taken over
/// at once ([`GroupPartials::absorb`], how the kernels' table and other
/// shards' partials arrive) allocates per group; ordering is left to
/// [`finalize`], which orders only what it keeps. The key → group index is
/// built when a group is first looked up by key, not when a table is taken
/// over whole.
#[derive(Debug, Default)]
pub(crate) struct GroupPartials {
    /// Each group's key, spelled as it is reported, and where its `width`
    /// states start in `states`. No two keys are equal.
    groups: Vec<(Option<Value>, usize)>,
    /// Every group's states; what no group points at is a merged-away
    /// leftover.
    states: Vec<AggState>,
    /// States per group (the plan's aggregates), set by the first group.
    width: usize,
    /// Key → place in `groups`, for a prefix of `groups` (see
    /// [`GroupPartials::extend_index`]).
    index: BTreeMap<Option<OrderedValue>, usize>,
}

impl GroupPartials {
    pub(crate) fn new() -> GroupPartials {
        GroupPartials::default()
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.groups.len()
    }

    /// The slot of group `key` (`None` = the one group of an ungrouped
    /// aggregate), in the manner of a map's entry.
    pub(crate) fn entry(&mut self, key: Option<OrderedValue>) -> GroupSlot<'_> {
        GroupSlot {
            partials: self,
            key,
        }
    }

    /// Extend the key → group index to the groups taken over since it was
    /// last used (they were appended, so they are the tail).
    fn extend_index(&mut self) {
        for place in self.index.len()..self.groups.len() {
            let key = self.groups[place].0.clone().map(OrderedValue);
            self.index.insert(key, place);
        }
    }

    /// Where the states of the group `key` belongs to start, and whether
    /// the group is new — then it is given the states at `fresh`. A key
    /// spelled before the group's becomes the group's spelling.
    fn place(&mut self, key: Option<OrderedValue>, fresh: usize) -> (usize, bool) {
        use std::collections::btree_map::Entry;
        // A copy of the key where it could go before the spelling of a group
        // that exists: a double never does, strings and booleans have one.
        let spare = match &key {
            Some(OrderedValue(key @ (Value::Int(_) | Value::Array(_) | Value::Object(_)))) => {
                Some(key.clone())
            }
            _ => None,
        };
        self.extend_index();
        let place = self.groups.len();
        let key = match self.index.entry(key) {
            Entry::Occupied(slot) => {
                let (reported, at) = &mut self.groups[*slot.get()];
                if let (Some(new), Some(old)) = (spare, reported.as_ref()) {
                    if spelled_first(&new, old) == Ordering::Less {
                        *reported = Some(new);
                    }
                }
                return (*at, false);
            }
            Entry::Vacant(slot) => {
                let key = slot.key().clone().map(|k| k.0);
                slot.insert(place);
                key
            }
        };
        self.groups.push((key, fresh));
        (fresh, true)
    }

    /// Merge the groups of a disjoint record set into these: each key with
    /// where its `width` states start in `states`, no two keys equal. Into
    /// no groups they are taken over whole — nothing indexed, nothing
    /// allocated per group; otherwise each joins the group its key belongs
    /// to, or is a new one.
    pub(crate) fn absorb(
        &mut self,
        incoming: Vec<(Option<Value>, usize)>,
        states: Vec<AggState>,
        width: usize,
    ) {
        self.width = width;
        if self.groups.is_empty() {
            self.groups = incoming;
            self.states = states;
            self.index.clear();
            return;
        }
        let base = self.states.len();
        self.states.extend(states);
        for (key, from) in incoming {
            let (at, new) = self.place(key.map(OrderedValue), base + from);
            if !new {
                for i in 0..width {
                    let state =
                        std::mem::replace(&mut self.states[base + from + i], AggState::Count(0));
                    self.states[at + i].merge(state);
                }
            }
        }
    }
}

/// One group's place in a [`GroupPartials`]; see [`GroupPartials::entry`].
pub(crate) struct GroupSlot<'g> {
    partials: &'g mut GroupPartials,
    key: Option<OrderedValue>,
}

impl<'g> GroupSlot<'g> {
    /// The group's states, made by `fresh` when the group is new.
    pub(crate) fn or_insert_with(
        self,
        fresh: impl FnOnce() -> Vec<AggState>,
    ) -> &'g mut [AggState] {
        let partials = self.partials;
        let (at, new) = partials.place(self.key, partials.states.len());
        if new {
            let fresh = fresh();
            partials.width = fresh.len();
            partials.states.extend(fresh);
        }
        &mut partials.states[at..at + partials.width]
    }
}

/// Fresh per-aggregate states for a new group.
pub(crate) fn new_states(plan: &PhysicalPlan) -> Vec<AggState> {
    plan.aggregates.iter().map(|s| AggState::new(&s.agg)).collect()
}

/// Partials for the key-only `COUNT(*)` fast path: one global group whose
/// `Count` states all equal `n`.
pub(crate) fn key_count_partials(n: usize, plan: &PhysicalPlan) -> GroupPartials {
    let width = plan.aggregates.len();
    let mut partials = GroupPartials::new();
    partials.absorb(
        vec![(None, 0)],
        vec![AggState::Count(n as u64); width],
        width,
    );
    partials
}

/// Merge the partials of one execution into the accumulator (group-wise,
/// aggregate-wise).
pub(crate) fn merge_partials(into: &mut GroupPartials, from: GroupPartials) {
    if !from.groups.is_empty() {
        into.absorb(from.groups, from.states, from.width);
    }
}

/// The order groups are reported in: by key, the ungrouped one first.
fn key_order(a: &Option<Value>, b: &Option<Value>) -> Ordering {
    match (a, b) {
        (Some(a), Some(b)) => total_cmp(a, b),
        _ => a.is_some().cmp(&b.is_some()),
    }
}

/// Turn merged partials into ordered, limited output rows. Rows are built
/// for the groups kept only: `ORDER BY` an aggregate `DESC LIMIT k` selects
/// its `k` groups by that aggregate's finished value, ties in key order —
/// exactly the order a stable sort of the key-ordered rows by the aggregate
/// gives — and sorts those `k`; without an aggregate order the groups are
/// put in key order, `LIMIT k` selecting the first `k` before sorting them.
pub(crate) fn finalize(groups: GroupPartials, plan: &PhysicalPlan) -> Vec<QueryRow> {
    let GroupPartials {
        mut groups,
        states,
        width,
        ..
    } = groups;
    let row = |(group, at): (Option<Value>, usize)| QueryRow {
        group,
        aggs: states[at..at + width]
            .iter()
            .map(AggState::finish)
            .collect(),
    };
    let limit = plan.limit.unwrap_or(usize::MAX);
    if plan.group_by.is_none() && groups.is_empty() {
        let fresh = QueryRow {
            group: None,
            aggs: new_states(plan).iter().map(AggState::finish).collect(),
        };
        return std::iter::once(fresh).take(limit).collect();
    }
    let Some(i) = plan.order_desc_by_agg else {
        keep_first(&mut groups, limit, |a, b| key_order(&a.0, &b.0));
        return groups.into_iter().map(row).collect();
    };
    // Each group's value of the ordering aggregate, and the group.
    let mut ranked: Vec<(Value, usize)> = groups
        .iter()
        .enumerate()
        .map(|(place, (_, at))| (states[at + i].finish(), place))
        .collect();
    keep_first(&mut ranked, limit, |a, b| {
        total_cmp(&b.0, &a.0).then_with(|| key_order(&groups[a.1].0, &groups[b.1].0))
    });
    ranked
        .into_iter()
        .map(|(_, place)| row((groups[place].0.take(), groups[place].1)))
        .collect()
}

/// Keep the first `limit` of `items` under `order`, sorted: a selection
/// before the sort when it drops any.
fn keep_first<T>(items: &mut Vec<T>, limit: usize, order: impl Fn(&T, &T) -> Ordering) {
    if limit < items.len() {
        if limit > 0 {
            items.select_nth_unstable_by(limit - 1, &order);
        }
        items.truncate(limit);
    }
    items.sort_unstable_by(order);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn planner_validates_the_select_list() {
        let ctx = PlanContext::scan_only();
        let opts = PlannerOptions::default();
        assert!(matches!(
            plan(&Query::new(), &ctx, &opts),
            Err(Error::InvalidPlan(_))
        ));
        let q = Query::new().aggregate_element(Aggregate::Max(Path::parse("x")));
        assert!(matches!(plan(&q, &ctx, &opts), Err(Error::InvalidPlan(_))));
        let q = Query::count_star().group_by_element(Path::parse("x"));
        assert!(matches!(plan(&q, &ctx, &opts), Err(Error::InvalidPlan(_))));
        let q = Query::count_star().order_desc_by(3);
        assert!(matches!(plan(&q, &ctx, &opts), Err(Error::InvalidPlan(_))));
    }

    #[test]
    fn projection_plans_validate_and_render() {
        let ctx = PlanContext::scan_only();
        let opts = PlannerOptions::default();
        // Raw select: one row per record, key-ordered, limited.
        let q = Query::select_paths(["user.name", "score"])
            .with_filter(Expr::ge("score", 10))
            .order_by_key()
            .with_limit(5);
        let p = plan(&q, &ctx, &opts).unwrap();
        assert!(p.is_projection());
        assert!(matches!(p.access, AccessPath::FullScan));
        let text = p.describe();
        assert!(text.contains("SELECT user.name, score"), "{text}");
        assert!(text.contains("key ASC LIMIT 5"), "{text}");
        assert!(text.contains("streaming early termination"), "{text}");
        // The pushed-down projection covers the select paths and the filter.
        let projection = p.projection.as_deref().unwrap();
        assert!(projection.contains(&Path::parse("user.name")));
        assert!(projection.contains(&Path::parse("score")));

        // Mixing forms, or decorating the wrong form, is invalid.
        let mixed = Query::select([Aggregate::Count]);
        let mixed = Query { select_paths: vec![Path::parse("a")], ..mixed };
        assert!(matches!(plan(&mixed, &ctx, &opts), Err(Error::InvalidPlan(_))));
        let q = Query::select_paths(["a"]).with_unnest("tags");
        assert!(matches!(plan(&q, &ctx, &opts), Err(Error::InvalidPlan(_))));
        let q = Query::select_paths(["a"]).group_by("g");
        assert!(matches!(plan(&q, &ctx, &opts), Err(Error::InvalidPlan(_))));
        let q = Query::select_paths(["a"]).order_desc_by(0);
        assert!(matches!(plan(&q, &ctx, &opts), Err(Error::InvalidPlan(_))));
        let q = Query::count_star().order_by_key();
        assert!(matches!(plan(&q, &ctx, &opts), Err(Error::InvalidPlan(_))));
    }

    #[test]
    fn planner_simplifies_filters_before_access_selection() {
        // NOT NOT BETWEEN is opaque unsimplified; the planner must see
        // through it and route the probe (ROADMAP PR 3 leftover).
        let ctx = indexed_ctx(vec![comp(1_000, 100, 10, (0, 999), (0, 999))]);
        let q = Query::count_star()
            .with_filter(Expr::not(Expr::not(Expr::between("score", 50, 52))));
        let p = plan(&q, &ctx, &PlannerOptions::default()).unwrap();
        assert!(matches!(p.access, AccessPath::IndexRange { .. }), "{:?}", p.access);
        let text = p.describe();
        assert!(!text.contains("NOT NOT"), "explain shows the simplified tree: {text}");
        assert!(text.contains("(score >= 50 AND score <= 52)"), "{text}");
        // A filter that folds to TRUE disappears: COUNT(*) takes the
        // key-only fast path.
        let q = Query::count_star().with_filter(Expr::and([]));
        let p = plan(&q, &ctx, &PlannerOptions::default()).unwrap();
        assert!(matches!(p.access, AccessPath::KeyOnlyScan));
        assert!(p.filter.is_none());
    }

    #[test]
    fn memtable_cpu_term_sharpens_the_auto_choice() {
        // Page costs alone say "scan" (probe ~120 pages vs scan ~100); a
        // large memtable the scan would have to chew through flips the
        // decision to the probe, whose CPU term only covers the matches.
        let q = Query::count_star().with_filter(Expr::between("score", 50, 61));
        let flushed = indexed_ctx(vec![comp(1_000, 100, 10, (0, 999), (0, 999))]);
        let p = plan(&q, &flushed, &PlannerOptions::default()).unwrap();
        assert!(matches!(p.access, AccessPath::FullScan), "{:?}", p.access);

        let mut with_memtable = indexed_ctx(vec![comp(1_000, 100, 10, (0, 999), (0, 999))]);
        with_memtable.in_memory_records = 4_000;
        let p = plan(&q, &with_memtable, &PlannerOptions::default()).unwrap();
        assert!(matches!(p.access, AccessPath::IndexRange { .. }), "{:?}", p.access);
        let est = p.estimate.as_ref().unwrap();
        assert_eq!(est.in_memory_records, 4_000);
        assert!(est.scan_cost > est.scan_pages as f64, "CPU term applied");
        assert!(est.probe_cost.unwrap() < est.scan_cost, "{est:?}");
        assert!(p.describe().contains("memtable 4000 rec"), "{}", p.describe());

        // An empty memtable leaves the page-only decision intact, and a
        // fully-pruned scan over an empty memtable still beats any probe.
        let pruned = indexed_ctx(vec![comp(500, 50, 5, (0, 499), (0, 99))]);
        let q_far = Query::count_star().with_filter(Expr::between("score", 5_000, 5_010));
        let p = plan(&q_far, &pruned, &PlannerOptions::default()).unwrap();
        assert!(matches!(p.access, AccessPath::FullScan));
        assert_eq!(p.estimate.as_ref().unwrap().scan_cost, 0.0);
    }

    #[test]
    fn count_star_plans_a_key_only_scan() {
        let p = plan(
            &Query::count_star(),
            &PlanContext::scan_only(),
            &PlannerOptions::default(),
        )
        .unwrap();
        assert!(matches!(p.access, AccessPath::KeyOnlyScan));
        assert_eq!(p.projection.as_deref(), Some(&[][..]));
        assert!(p.describe().contains("key-only scan"));
    }

    /// A synthetic component: keys `key_range`, one `score` column uniform
    /// over `score_range`.
    fn comp(
        records: u64,
        pages: u64,
        leaves: u64,
        key_range: (i64, i64),
        score_range: (i64, i64),
    ) -> ComponentPlanInfo {
        let mut columns = std::collections::BTreeMap::new();
        columns.insert(
            "score".to_string(),
            storage::stats::ColumnStats {
                rows: records,
                values: records,
                min: Some(Value::Int(score_range.0)),
                max: Some(Value::Int(score_range.1)),
            },
        );
        ComponentPlanInfo {
            pages,
            leaves,
            key_range: Some((Value::Int(key_range.0), Value::Int(key_range.1))),
            stats: Arc::new(ComponentStats {
                live_records: records,
                columns,
            }),
        }
    }

    fn indexed_ctx(components: Vec<ComponentPlanInfo>) -> PlanContext {
        PlanContext {
            secondary_index_on: Some(Path::parse("score")),
            shards: 1,
            components,
            in_memory_records: 0,
        }
    }

    #[test]
    fn range_filters_route_through_a_covering_index() {
        let ctx = indexed_ctx(vec![comp(1_000, 100, 10, (0, 999), (0, 999))]);
        // A tight range: the cost model must pick the probe on its own.
        let q = Query::count_star()
            .with_filter(Expr::and([Expr::between("score", 50, 52), Expr::exists("tags")]));
        let p = plan(&q, &ctx, &PlannerOptions::default()).unwrap();
        assert!(matches!(p.access, AccessPath::IndexRange { .. }));
        let text = p.describe();
        assert!(text.contains("secondary-index range probe on `score`"), "{text}");
        assert!(text.contains("[50, 52]"), "{text}");
        assert!(text.contains("estimate"), "{text}");
        // ForceScan overrides the cost model.
        let p = plan(
            &q,
            &ctx,
            &PlannerOptions::with_access_path(AccessPathChoice::ForceScan),
        )
        .unwrap();
        assert!(matches!(p.access, AccessPath::FullScan));
        // Filter on a different path → scan, even forced.
        let q = Query::count_star().with_filter(Expr::ge("other", 1));
        let p = plan(
            &q,
            &ctx,
            &PlannerOptions::with_access_path(AccessPathChoice::ForceIndex),
        )
        .unwrap();
        assert!(matches!(p.access, AccessPath::FullScan));
    }

    #[test]
    fn auto_crosses_over_from_probe_to_scan_with_selectivity() {
        let ctx = indexed_ctx(vec![comp(1_000, 100, 10, (0, 999), (0, 999))]);
        // ~3 of 1000 records → ~30 probe pages < 100 scan pages → probe.
        let tight = Query::count_star().with_filter(Expr::between("score", 10, 12));
        let p = plan(&tight, &ctx, &PlannerOptions::default()).unwrap();
        assert!(matches!(p.access, AccessPath::IndexRange { .. }), "{:?}", p.access);
        // ~500 records → ~5000 probe pages > 100 scan pages → scan.
        let wide = Query::count_star().with_filter(Expr::ge("score", 500));
        let p = plan(&wide, &ctx, &PlannerOptions::default()).unwrap();
        assert!(matches!(p.access, AccessPath::FullScan), "{:?}", p.access);
        let est = p.estimate.as_ref().unwrap();
        assert!(est.est_selectivity > 0.4 && est.est_selectivity < 0.6, "{est:?}");
        // ForceIndex still probes at the same selectivity.
        let p = plan(
            &wide,
            &ctx,
            &PlannerOptions::with_access_path(AccessPathChoice::ForceIndex),
        )
        .unwrap();
        assert!(matches!(p.access, AccessPath::IndexRange { .. }));
    }

    #[test]
    fn fully_pruned_scans_beat_any_probe() {
        // Every component is disjoint from the filter: the zone maps hide
        // them all, the scan costs zero pages, and Auto must scan.
        let ctx = indexed_ctx(vec![
            comp(500, 50, 5, (0, 499), (0, 99)),
            comp(500, 50, 5, (500, 999), (100, 199)),
        ]);
        let q = Query::count_star().with_filter(Expr::between("score", 5_000, 5_010));
        let p = plan(&q, &ctx, &PlannerOptions::default()).unwrap();
        assert!(matches!(p.access, AccessPath::FullScan), "{:?}", p.access);
        let est = p.estimate.as_ref().unwrap();
        assert_eq!(est.scan_pages, 0);
        assert_eq!(est.hidden_components, 2);
        assert!(p.describe().contains("2/2 components hidden by zone maps"));
    }

    #[test]
    fn the_estimate_hides_what_the_scan_will_hide() {
        // Component 1 is score-disjoint and key-disjoint from the older
        // component 0 → hidden. Component 2 is score-disjoint but shares
        // keys with component 0 (it may shadow older versions) → scanned.
        let ctx = indexed_ctx(vec![
            comp(100, 10, 2, (0, 99), (0, 99)),
            comp(100, 10, 2, (100, 199), (500, 599)),
            comp(100, 10, 2, (50, 149), (500, 599)),
        ]);
        let scan = PlannerOptions::with_access_path(AccessPathChoice::ForceScan);
        let hidden = |filter: Expr, options: &PlannerOptions| {
            let q = Query::count_star().with_filter(filter);
            let est = plan(&q, &ctx, options).unwrap().estimate.unwrap();
            (est.hidden_components, est.scan_pages)
        };
        assert_eq!(hidden(Expr::between("score", 0, 99), &scan), (1, 20));
        // Nothing sargable (a disjunction): nothing is pushed, nothing hidden.
        let hull = Expr::or([Expr::lt("score", 0), Expr::between("score", 1_000, 1_100)]);
        assert_eq!(hidden(hull, &scan), (0, 30));
        // Without push-down the scan reads every page.
        let off = PlannerOptions { filter_pushdown: false, ..scan };
        assert_eq!(hidden(Expr::between("score", 0, 99), &off), (0, 30));
    }

    #[test]
    fn pushdown_off_projects_everything() {
        let q = Query::count_star().with_filter(Expr::ge("score", 1));
        let p = plan(
            &q,
            &PlanContext::scan_only(),
            &PlannerOptions { projection_pushdown: false, ..Default::default() },
        )
        .unwrap();
        assert!(p.projection.is_none());
        assert!(p.describe().contains("pushdown disabled"));
    }

    #[test]
    fn avg_partials_merge_exactly() {
        let agg = Aggregate::Avg(Path::parse("x"));
        // Shard A: one value 0. Shard B: three values 100.
        let mut a = AggState::new(&agg);
        a.update(Some(&Value::Int(0)));
        let mut b = AggState::new(&agg);
        for _ in 0..3 {
            b.update(Some(&Value::Int(100)));
        }
        a.merge(b);
        // avg-of-avgs would be 50; the mergeable partial gives the true 75.
        assert_eq!(a.finish(), Value::Double(75.0));
        // Merging an empty partial is the identity.
        a.merge(AggState::new(&agg));
        assert_eq!(a.finish(), Value::Double(75.0));
        // An all-empty AVG finishes as NULL.
        assert_eq!(AggState::new(&agg).finish(), Value::Null);
    }

    #[test]
    fn sum_partials_keep_integers_exact() {
        let agg = Aggregate::Sum(Path::parse("x"));
        let mut a = AggState::new(&agg);
        a.update(Some(&Value::Int(7)));
        a.update(Some(&Value::from("ignored")));
        let mut b = AggState::new(&agg);
        b.update(Some(&Value::Int(5)));
        a.merge(b);
        assert_eq!(a.finish(), Value::Int(12));
        // A double anywhere widens the sum.
        a.update(Some(&Value::Double(0.5)));
        assert_eq!(a.finish(), Value::Double(12.5));
        assert_eq!(AggState::new(&agg).finish(), Value::Null);
    }

    #[test]
    fn ties_and_group_keys_do_not_depend_on_arrival_order() {
        // `7` and `7.0` compare equal, at any depth; the integer is kept.
        let spellings = [
            [Value::Int(7), Value::Double(7.0)],
            [
                Value::Array(vec![Value::from("k"), Value::Int(7)]),
                Value::Array(vec![Value::from("k"), Value::Double(7.0)]),
            ],
        ];
        for [int, double] in &spellings {
            for order in [[int, double], [double, int]] {
                for agg in [Aggregate::Max(Path::parse("x")), Aggregate::Min(Path::parse("x"))] {
                    let mut folded = AggState::new(&agg);
                    let mut merged = AggState::new(&agg);
                    for value in order {
                        folded.update(Some(value));
                        let mut part = AggState::new(&agg);
                        part.update(Some(value));
                        merged.merge(part);
                    }
                    assert_eq!(folded.finish(), *int);
                    assert_eq!(merged.finish(), *int);
                }
                // One group, reported under the integer, probed or merged.
                let mut probed = GroupPartials::new();
                let mut merged = GroupPartials::new();
                for value in order {
                    let key = || Some(OrderedValue(value.clone()));
                    let count = |groups: &mut GroupPartials| {
                        let states = groups.entry(key()).or_insert_with(|| vec![AggState::Count(0)]);
                        states[0].update(None);
                    };
                    count(&mut probed);
                    let mut part = GroupPartials::new();
                    count(&mut part);
                    merge_partials(&mut merged, part);
                }
                for groups in [probed, merged] {
                    let GroupPartials { groups, states, .. } = groups;
                    let groups: Vec<_> = groups
                        .into_iter()
                        .map(|(key, at)| (key, states[at].finish()))
                        .collect();
                    assert_eq!(groups, [(Some(int.clone()), Value::Int(2))]);
                }
            }
        }
    }

    /// `finalize` selects and orders only the rows it keeps; the answer is
    /// still what building every row in key order, a stable sort by the
    /// ordering aggregate and a truncation give — over ties, negative and
    /// positive integers, `7` / `7.0` (one group, reported as `7`), signed
    /// zeros and keys of other types, for groups made one record at a time
    /// and groups merged in from another execution, at every `LIMIT`.
    #[test]
    fn finalize_keeps_what_sort_then_truncate_keeps() {
        let keys = [
            Value::Int(-3),
            Value::Int(7),
            Value::Double(7.0),
            Value::Int(12),
            Value::Double(-0.0),
            Value::Double(0.0),
            Value::Double(2.5),
            Value::Int(-40),
            Value::from("a"),
            Value::Bool(true),
            Value::Null,
        ];
        let mut state = 17u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // (key, score) inputs; scores collide so the aggregates tie.
        let inputs: Vec<(Value, i64)> = (0..60)
            .map(|_| {
                (
                    keys[next() as usize % keys.len()].clone(),
                    (next() % 6) as i64,
                )
            })
            .collect();
        let ctx = PlanContext::scan_only();
        let opts = PlannerOptions::default();
        let aggs = || [Aggregate::Max(Path::parse("s")), Aggregate::Count];
        for limit in [None, Some(0), Some(1), Some(3), Some(5), Some(9), Some(50)] {
            for order in [None, Some(0), Some(1)] {
                let mut query = Query::select(aggs()).group_by("g");
                query.order_desc_by_agg = order;
                query.limit = limit;
                let plan = plan(&query, &ctx, &opts).unwrap();
                let fold = |groups: &mut GroupPartials, inputs: &[(Value, i64)]| {
                    for (key, score) in inputs {
                        let states = groups
                            .entry(Some(OrderedValue(key.clone())))
                            .or_insert_with(|| new_states(&plan));
                        states[0].update(Some(&Value::Int(*score)));
                        states[1].update(None);
                    }
                };
                let mut probed = GroupPartials::new();
                fold(&mut probed, &inputs);
                let mut merged = GroupPartials::new();
                let (left, right) = inputs.split_at(25);
                fold(&mut merged, left);
                let mut part = GroupPartials::new();
                fold(&mut part, right);
                merge_partials(&mut merged, part);

                // The reference: every group's row, in key order (spelled
                // first among equal keys), stably sorted, truncated.
                let mut model: Vec<(Value, Vec<AggState>)> = Vec::new();
                for (key, score) in &inputs {
                    let at = match model.iter().position(|(k, _)| total_cmp(k, key).is_eq()) {
                        Some(at) => at,
                        None => {
                            model.push((key.clone(), new_states(&plan)));
                            model.len() - 1
                        }
                    };
                    if spelled_first(key, &model[at].0) == Ordering::Less {
                        model[at].0 = key.clone();
                    }
                    model[at].1[0].update(Some(&Value::Int(*score)));
                    model[at].1[1].update(None);
                }
                model.sort_by(|a, b| total_cmp(&a.0, &b.0));
                let mut rows: Vec<QueryRow> = model
                    .iter()
                    .map(|(key, states)| QueryRow {
                        group: Some(key.clone()),
                        aggs: states.iter().map(AggState::finish).collect(),
                    })
                    .collect();
                if let Some(i) = order {
                    rows.sort_by(|a, b| total_cmp(&b.aggs[i], &a.aggs[i]));
                }
                rows.truncate(limit.unwrap_or(usize::MAX));
                let want = format!("{rows:?}");
                for groups in [probed, merged] {
                    let got = finalize(groups, &plan);
                    assert_eq!(format!("{got:?}"), want, "order {order:?} limit {limit:?}");
                }
            }
        }
    }

    #[test]
    fn sum_overflow_widens_to_double_instead_of_wrapping() {
        let agg = Aggregate::Sum(Path::parse("x"));
        let mut a = AggState::new(&agg);
        a.update(Some(&Value::Int(i64::MAX)));
        a.update(Some(&Value::Int(1)));
        match a.finish() {
            Value::Double(d) => assert!(d > i64::MAX as f64 * 0.99, "{d}"),
            other => panic!("overflowing SUM must widen, got {other:?}"),
        }
        // Same through a merge of two near-max partials.
        let mut b = AggState::new(&agg);
        b.update(Some(&Value::Int(i64::MAX)));
        let mut c = AggState::new(&agg);
        c.update(Some(&Value::Int(i64::MAX)));
        b.merge(c);
        match b.finish() {
            Value::Double(d) => assert!(d > i64::MAX as f64, "{d}"),
            other => panic!("overflowing merge must widen, got {other:?}"),
        }
        // Decided on the final value, not on a running one: whichever way
        // these are ordered the sum fits again, and is exact.
        for order in [[i64::MAX, 1, -5], [-5, i64::MAX, 1]] {
            let mut d = AggState::new(&agg);
            order.iter().for_each(|v| d.update(Some(&Value::Int(*v))));
            assert_eq!(d.finish(), Value::Int(i64::MAX - 4));
        }
    }
}
