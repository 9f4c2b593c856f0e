//! The logical query plan.
//!
//! [`Query`] captures a compositional SELECT shape as data. Aggregate form:
//!
//! ```sql
//! SELECT   [g,] AGG1(x1), AGG2(x2), ...
//! FROM     dataset d [UNNEST d.p AS e]
//! [WHERE   expression]
//! [GROUP BY g]
//! [ORDER BY AGGi DESC LIMIT k]
//! ```
//!
//! and the raw-column (non-aggregate) projection form
//! ([`Query::select_paths`]):
//!
//! ```sql
//! SELECT   p1, p2, ...
//! FROM     dataset d
//! [WHERE   expression]
//! [ORDER BY key [LIMIT k]]
//! ```
//!
//! which emits **one row per matching record** — the row's `group` is the
//! record's primary key, its values are the projected paths. Because
//! execution streams the key-ordered merge cursor, `ORDER BY key LIMIT k`
//! stops after the k-th match without scanning the tail.
//!
//! The filter is an arbitrary [`Expr`] tree, the select list holds any
//! number of aggregates ([`AggSpec`]), and group/aggregate inputs may be
//! evaluated either on the record or on the unnested element. The logical
//! plan says nothing about *how* the query runs: the planner in
//! [`crate::physical`] lowers it to a physical plan that picks the access
//! path (scan, key-only scan, or secondary-index range probe), derives the
//! pushed-down projection, and routes sharded execution. There is no SQL++
//! parser — the paper's claims are about storage and execution, not
//! parsing — so the builder API mirrors the paper's queries one-to-one and
//! the benchmark harness constructs plans directly.

use docmodel::{Path, Value};

use crate::expr::Expr;

/// Which execution engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Operator-at-a-time with materialisation between operators.
    Interpreted,
    /// Fused, pre-resolved single-pass pipeline ("code generation").
    Compiled,
}

/// The aggregate computed per group (or over the whole input).
///
/// An answer does not depend on the order records are folded in — the
/// engines, the leaves of a scan and the shards of a dataset each fold in
/// their own — which fixes two edge rules:
///
/// * `SUM` and `AVG` over doubles are exact: the correctly rounded sum of
///   the inputs, whatever their order. A running total beyond the `f64`
///   range saturates to an infinity (to NaN once both infinities were
///   met), as IEEE addition does.
/// * `MIN` and `MAX` compare under the document total order — doubles by
///   `f64::total_cmp`, so `-0.0` sorts below `0.0` and a NaN above every
///   number — and a tie between one value written as an integer and as a
///   double (`7` and `7.0`) goes to the integer. Group keys follow the same
///   rule: `7` and `7.0` are one group, reported as `7`.
#[derive(Debug, Clone)]
pub enum Aggregate {
    /// `COUNT(*)`.
    Count,
    /// `COUNT(path)` — counts records (or elements) where the path is present.
    CountNonNull(Path),
    /// `MAX(path)`.
    Max(Path),
    /// `MIN(path)`.
    Min(Path),
    /// `SUM(path)` — numeric sum; integer inputs stay exact `Int`s while
    /// the running sum fits an `i64`, any double input (or an integer
    /// overflow) widens the result to `Double`.
    Sum(Path),
    /// `AVG(path)` — numeric mean, carried as a mergeable `(sum, count)`
    /// partial so sharded fan-out stays exact.
    Avg(Path),
    /// `MAX(LENGTH(path))` — used by the "longest tweet" query.
    MaxLength(Path),
}

impl Aggregate {
    /// The path the aggregate reads, if any.
    pub fn path(&self) -> Option<&Path> {
        match self {
            Aggregate::Count => None,
            Aggregate::CountNonNull(p)
            | Aggregate::Max(p)
            | Aggregate::Min(p)
            | Aggregate::Sum(p)
            | Aggregate::Avg(p)
            | Aggregate::MaxLength(p) => Some(p),
        }
    }

    /// SQL-like rendering for `EXPLAIN` output.
    pub fn describe(&self) -> String {
        match self {
            Aggregate::Count => "COUNT(*)".to_string(),
            Aggregate::CountNonNull(p) => format!("COUNT({p})"),
            Aggregate::Max(p) => format!("MAX({p})"),
            Aggregate::Min(p) => format!("MIN({p})"),
            Aggregate::Sum(p) => format!("SUM({p})"),
            Aggregate::Avg(p) => format!("AVG({p})"),
            Aggregate::MaxLength(p) => format!("MAX(LENGTH({p}))"),
        }
    }
}

/// One aggregate of the select list, together with the scope its input is
/// evaluated in.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// The aggregate function.
    pub agg: Aggregate,
    /// `true` when the input path is evaluated on the unnested element
    /// rather than the record.
    pub on_element: bool,
}

/// A logical query plan. Build one with [`Query::select`] /
/// [`Query::count_star`] and the builder methods, then hand it to a
/// [`crate::QueryEngine`].
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// Optional filter expression, evaluated on records (before unnesting).
    pub filter: Option<Expr>,
    /// Optional array path to unnest; group/aggregate inputs flagged
    /// `on_element` are then evaluated on each unnested element.
    pub unnest: Option<Path>,
    /// Optional grouping key path.
    pub group_by: Option<Path>,
    /// Whether the grouping key is evaluated on the unnested element (`true`)
    /// or on the record (`false`).
    pub group_on_element: bool,
    /// The select list: one or more aggregates. Mutually exclusive with
    /// `select_paths`; the planner rejects a query with neither (or both).
    pub aggregates: Vec<AggSpec>,
    /// Raw-column projection: emit one row per matching record, projecting
    /// these paths (`group` = primary key). Mutually exclusive with
    /// `aggregates`, `unnest` and `group_by`.
    pub select_paths: Vec<Path>,
    /// Sort groups descending by the aggregate at this index (the paper's
    /// top-k queries order by their single aggregate).
    pub order_desc_by_agg: Option<usize>,
    /// Order projection rows by primary key ascending. Free on the streaming
    /// scan (the merge cursor is key-ordered), and with `limit` it makes
    /// execution stop after the k-th match. Projection queries only.
    pub order_by_key: bool,
    /// Keep only the first `k` groups (or projection rows) after sorting.
    pub limit: Option<usize>,
}

impl Query {
    /// An empty query with no aggregates yet; add them with
    /// [`Query::aggregate`] / [`Query::aggregate_element`].
    pub fn new() -> Query {
        Query::default()
    }

    /// `SELECT AGG1, AGG2, ... FROM dataset`, all evaluated on records.
    pub fn select(aggs: impl IntoIterator<Item = Aggregate>) -> Query {
        Query {
            aggregates: aggs
                .into_iter()
                .map(|agg| AggSpec { agg, on_element: false })
                .collect(),
            ..Query::default()
        }
    }

    /// `SELECT COUNT(*) FROM dataset`.
    pub fn count_star() -> Query {
        Query::select([Aggregate::Count])
    }

    /// `SELECT p1, p2, ... FROM dataset` — the raw-column projection form:
    /// one output row per matching record, `group` = the record's primary
    /// key, `aggs` = the projected paths' values (`Null` where a path is
    /// missing). Combine with [`Query::with_filter`],
    /// [`Query::order_by_key`] and [`Query::with_limit`].
    pub fn select_paths(paths: impl IntoIterator<Item = impl Into<Path>>) -> Query {
        Query {
            select_paths: paths.into_iter().map(Into::into).collect(),
            ..Query::default()
        }
    }

    /// Builder: set the filter expression.
    pub fn with_filter(mut self, expr: Expr) -> Query {
        self.filter = Some(expr);
        self
    }

    /// Builder: unnest an array path.
    pub fn with_unnest(mut self, p: impl Into<Path>) -> Query {
        self.unnest = Some(p.into());
        self
    }

    /// Builder: group by a record-rooted path.
    pub fn group_by(mut self, p: impl Into<Path>) -> Query {
        self.group_by = Some(p.into());
        self.group_on_element = false;
        self
    }

    /// Builder: group by a path evaluated on the unnested element (pass the
    /// empty path to group by the element itself).
    pub fn group_by_element(mut self, p: impl Into<Path>) -> Query {
        self.group_by = Some(p.into());
        self.group_on_element = true;
        self
    }

    /// Builder: append an aggregate evaluated on records.
    pub fn aggregate(mut self, agg: Aggregate) -> Query {
        self.aggregates.push(AggSpec { agg, on_element: false });
        self
    }

    /// Builder: append an aggregate whose input is evaluated on the unnested
    /// element.
    pub fn aggregate_element(mut self, agg: Aggregate) -> Query {
        self.aggregates.push(AggSpec { agg, on_element: true });
        self
    }

    /// Builder: order descending by the aggregate at `index` in the select
    /// list.
    pub fn order_desc_by(mut self, index: usize) -> Query {
        self.order_desc_by_agg = Some(index);
        self
    }

    /// Builder: order projection rows by primary key ascending. With
    /// [`Query::with_limit`], the streaming scan terminates after the k-th
    /// matching record (`ORDER BY key LIMIT k` never reads the tail).
    pub fn order_by_key(mut self) -> Query {
        self.order_by_key = true;
        self
    }

    /// Builder: cap the number of output rows.
    pub fn with_limit(mut self, k: usize) -> Query {
        self.limit = Some(k);
        self
    }

    /// Builder: order by the first aggregate descending (unless an explicit
    /// order was set) and keep the top `k` groups.
    pub fn top_k(mut self, k: usize) -> Query {
        if self.order_desc_by_agg.is_none() {
            self.order_desc_by_agg = Some(0);
        }
        self.limit = Some(k);
        self
    }

    /// The record-rooted paths this query needs — the projection the planner
    /// pushes down to the storage layer (so AMAX reads only these columns'
    /// megapages). Derived from the filter expression tree, the unnest path,
    /// and every group/aggregate input.
    pub fn projection_paths(&self) -> Vec<Path> {
        let mut paths = Vec::new();
        if let Some(f) = &self.filter {
            f.collect_paths(&mut paths);
        }
        self.add_output_paths(&mut paths);
        paths
    }

    /// The paths the query reads *besides* its filter: the select list, the
    /// unnest path and every group/aggregate input. Empty for a `COUNT(*)`
    /// with no group and no unnest — a query the keys alone answer once
    /// the filter is decided.
    pub fn output_paths(&self) -> Vec<Path> {
        let mut paths = Vec::new();
        self.add_output_paths(&mut paths);
        paths
    }

    fn add_output_paths(&self, paths: &mut Vec<Path>) {
        let mut add = |p: &Path| {
            if !paths.contains(p) {
                paths.push(p.clone());
            }
        };
        for p in &self.select_paths {
            add(p);
        }
        if let Some(u) = &self.unnest {
            add(u);
        }
        if let Some(g) = &self.group_by {
            if self.group_on_element {
                if let Some(u) = &self.unnest {
                    add(&join_paths(u, g));
                }
            } else {
                add(g);
            }
        }
        for spec in &self.aggregates {
            if let Some(a) = spec.agg.path() {
                if spec.on_element {
                    if let Some(u) = &self.unnest {
                        add(&join_paths(u, a));
                    }
                } else {
                    add(a);
                }
            }
        }
    }

    /// Plan this query against `ctx` and render the resulting physical plan
    /// — the chosen access path, the pushed-down projection, and the
    /// operator chain.
    ///
    /// Plans with **default** [`crate::PlannerOptions`]; for the plan a
    /// specifically-configured engine would execute (pushdown or index
    /// routing disabled), use [`crate::QueryEngine::explain`], which uses
    /// the engine's own options.
    pub fn explain(&self, ctx: &crate::physical::PlanContext) -> crate::Result<String> {
        crate::physical::plan(self, ctx, &crate::physical::PlannerOptions::default())
            .map(|p| p.describe())
    }
}

/// Concatenate an unnest path and an element-relative path into one
/// record-rooted path (for projection purposes): `u[*] . rel`.
pub fn join_paths(unnest: &Path, relative: &Path) -> Path {
    let mut joined = unnest.elements();
    for step in relative.steps() {
        joined = match step {
            docmodel::PathStep::Field(name) => joined.child(name),
            docmodel::PathStep::AllElements => joined.elements(),
            docmodel::PathStep::Union(t) => joined.union_branch(t),
        };
    }
    joined
}

/// One output row: the group key (absent for global aggregates) and one
/// value per aggregate of the select list. For raw-column projection queries
/// ([`Query::select_paths`]) a row is one matching record: `group` holds the
/// record's primary key and `aggs` the projected paths' values, in
/// select-list order (`Null` where a path is missing on the record).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRow {
    /// Group key (`None` for a global aggregate); the record's primary key
    /// for projection queries.
    pub group: Option<Value>,
    /// Aggregate — or projected — values, in select-list order.
    pub aggs: Vec<Value>,
}

impl QueryRow {
    /// The first aggregate value — the whole row for single-aggregate
    /// queries, which most of the paper's workload is.
    pub fn agg(&self) -> &Value {
        &self.aggs[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn projection_paths_cover_all_referenced_columns() {
        let q = Query::count_star()
            .with_filter(Expr::and([
                Expr::ge("duration", 600),
                Expr::exists("caller"),
            ]))
            .with_unnest("readings")
            .group_by("sensor_id")
            .aggregate_element(Aggregate::Max(Path::parse("temp")))
            .aggregate_element(Aggregate::Avg(Path::parse("temp")))
            .top_k(10);
        let paths: Vec<String> = q.projection_paths().iter().map(|p| p.to_string()).collect();
        assert!(paths.contains(&"duration".to_string()));
        assert!(paths.contains(&"caller".to_string()));
        assert!(paths.contains(&"readings".to_string()));
        assert!(paths.contains(&"sensor_id".to_string()));
        assert!(paths.contains(&"readings[*].temp".to_string()));
        // Deduplicated: temp appears once despite two aggregates reading it.
        assert_eq!(paths.iter().filter(|p| p.contains("temp")).count(), 1);
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.order_desc_by_agg, Some(0));
    }

    #[test]
    fn select_builds_multi_aggregate_plans() {
        let q = Query::select([
            Aggregate::Count,
            Aggregate::Max(Path::parse("score")),
            Aggregate::Avg(Path::parse("score")),
        ])
        .group_by("grp")
        .order_desc_by(1)
        .with_limit(3);
        assert_eq!(q.aggregates.len(), 3);
        assert_eq!(q.order_desc_by_agg, Some(1));
        assert_eq!(q.limit, Some(3));
        // top_k respects an explicit order.
        let q = q.top_k(5);
        assert_eq!(q.order_desc_by_agg, Some(1));
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn join_paths_concatenates() {
        let joined = join_paths(&Path::parse("games"), &Path::parse("consoles[*]"));
        assert_eq!(joined.to_string(), "games[*].consoles[*]");
        let identity = join_paths(&Path::parse("games"), &Path::root());
        assert_eq!(identity.to_string(), "games[*]");
    }

    #[test]
    fn aggregate_describe_renders_sql() {
        assert_eq!(Aggregate::Count.describe(), "COUNT(*)");
        assert_eq!(Aggregate::Avg(Path::parse("x")).describe(), "AVG(x)");
        assert_eq!(
            Aggregate::MaxLength(Path::parse("text")).describe(),
            "MAX(LENGTH(text))"
        );
    }
}
