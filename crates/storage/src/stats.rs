//! Per-component column statistics — the zone maps behind the cost-based
//! planner.
//!
//! Every sealed component carries a [`ComponentStats`]: for each column path
//! observed in its live records, how many records have the path, how many
//! values the path addresses, and (for *single-valued* paths whose values
//! are all atomic) the minimum and maximum value under the document total
//! order. The structure is computed once per leaf, at flush/merge time by
//! the [`crate::writer::ComponentWriter`] as each leaf is sealed, and
//! persisted with the leaf in the manifest; the component's is the fold of
//! its leaves' ([`ComponentStats::absorb`]), taken when the component handle
//! is built. It is consumed twice:
//!
//! * **Zone maps** — a pushed predicate whose range is disjoint from a
//!   component's or a leaf's `[min, max]` for its path (or whose path the
//!   component or leaf never materialised at all) cannot match any record
//!   there, so the scan hides it without reading a single page
//!   ([`crate::component::zone_map_hides`]);
//! * **Selectivity estimation** — the planner interpolates a range filter
//!   against the per-component bounds and value counts to estimate how many
//!   records match, which drives the scan-vs-index-probe decision (the
//!   fig. 15 crossover).
//!
//! ## Where the numbers come from
//!
//! Statistics describe **what a scan of the component produces**. A row
//! layout stores documents, so its leaves are summarised by walking each
//! live record's value tree once ([`StatsBuilder`]). A columnar layout
//! stores column chunks, and its leaves are summarised from those chunks
//! ([`column_derived_stats`]): per-path presence counts from
//! [`columnar::ShapeWalker`] — the record-assembly automaton itself, run
//! with a sink that tallies each value's path where the assembler would
//! build the value, so the counts are those of the records a scan
//! assembles by construction — and bounds from [`ColumnChunk::min_max`],
//! under the same total order the statistics pass and the pushed
//! predicates use. No document is built or walked, whether the chunks were
//! shredded at a flush or copied from other components at a merge, and no
//! definition level is read here. Shredding is lossless (`null`s and empty
//! containers included), so the two agree: a flush of `{"v": null}` records
//! a `v` path with `null` bounds in every layout.
//!
//! ## What is (and is not) tracked
//!
//! A column exists in the map exactly when **some record a scan of the
//! component returns addresses at least one value at that path** — the
//! precondition absence hiding relies on. Bounds follow
//! the same existential
//! semantics as filter evaluation and are deliberately conservative:
//!
//! * **Multi-valued paths** (any `[*]` step, e.g. `tags[*]`) keep counts
//!   only, never bounds. With existential semantics one record contributes
//!   many values, and PR 3's lesson applies: per-value bounds are still
//!   sound for disjointness, but keeping them invites exactly the
//!   intersect-the-conjuncts mistakes the planner had to unlearn — so the
//!   open edge is documented (ROADMAP) and the bounds are simply omitted.
//! * **Heterogeneous paths**: the moment a path addresses a non-atomic value
//!   (an object or array node — e.g. the path `tags` addressing the array
//!   itself), its bounds are dropped. Comparisons against composite values
//!   are legal under the total order, but summarising them cheaply is not
//!   worth the soundness analysis.
//! * Explicit `null`s **are** values under the total order (`x <= 5` can
//!   match a `null`), so they participate in min/max like any other atomic.
//!
//! Anti-matter entries contribute nothing: stats describe the records a scan
//! of this component alone could produce. Whether hiding a component or a
//! leaf the stats disprove is *reconciliation-safe* (an older component
//! might hold a shadowed version of one of its keys) is decided from the key
//! ranges, by the same rule ([`crate::component::zone_map_hides`]).

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

use columnar::{ColumnChunk, ShapePlan, ShapeWalker};
use docmodel::{total_cmp, Value};

use crate::Result;

/// Statistics for one column path within one component.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Live records with at least one value at the path.
    pub rows: u64,
    /// Total values the path addresses across live records (`>= rows`; equal
    /// for single-valued paths).
    pub values: u64,
    /// Smallest value under the document total order. `None` when bounds are
    /// not tracked for this path (multi-valued, or a non-atomic value was
    /// observed).
    pub min: Option<Value>,
    /// Largest value under the document total order; tracked iff `min` is.
    pub max: Option<Value>,
}

impl ColumnStats {
    /// `true` when the column carries usable `[min, max]` bounds.
    pub fn has_bounds(&self) -> bool {
        self.min.is_some() && self.max.is_some()
    }
}

/// Column statistics of one sealed component, keyed by the column path's
/// query rendering (`user.name`, `games[*].title`, ...). Computed at
/// flush/merge time, persisted in the manifest, immutable thereafter.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ComponentStats {
    /// Live (non-anti-matter) records in the component.
    pub live_records: u64,
    /// Per-column statistics. A path is present iff some live record
    /// addresses at least one value there.
    pub columns: BTreeMap<String, ColumnStats>,
}

impl ComponentStats {
    /// Statistics for a column path (its query rendering, e.g. `"score"`).
    pub fn column(&self, path: &str) -> Option<&ColumnStats> {
        self.columns.get(path)
    }

    /// Fold in the statistics of a disjoint set of records (the next leaf of
    /// the same component): counts add up, bounds widen, and a path loses
    /// its bounds for good once either side holds it without — the same
    /// outcome as one statistics pass over both sets.
    pub fn absorb(&mut self, other: &ComponentStats) {
        self.live_records += other.live_records;
        for (path, theirs) in &other.columns {
            let Some(ours) = self.columns.get_mut(path) else {
                self.columns.insert(path.clone(), theirs.clone());
                continue;
            };
            ours.rows += theirs.rows;
            ours.values += theirs.values;
            let bounds = match (ours.min.take(), ours.max.take(), &theirs.min, &theirs.max) {
                (Some(min), Some(max), Some(their_min), Some(their_max)) => {
                    Some(widen((min, max), their_min, their_max))
                }
                _ => None,
            };
            (ours.min, ours.max) = bounds.unzip();
        }
    }
}

/// `bounds` stretched to cover `[min, max]`; on ties the earlier value stays.
fn widen(mut bounds: (Value, Value), min: &Value, max: &Value) -> (Value, Value) {
    if total_cmp(min, &bounds.0) == Ordering::Less {
        bounds.0 = min.clone();
    }
    if total_cmp(max, &bounds.1) == Ordering::Greater {
        bounds.1 = max.clone();
    }
    bounds
}

/// The zone map of one columnar leaf, derived from its column chunks: the
/// leaf's `record_count` records are shape-walked for the per-path counts,
/// and single-valued all-atomic paths take their bounds from the chunks'
/// values. `chunks` are the columns `plan` was built for, in its order.
/// Anti-matter contributes nothing (every column but the key holds it as
/// absent, and the key column's bounds skip it).
pub fn column_derived_stats(
    plan: &ShapePlan,
    chunks: &[ColumnChunk],
    record_count: usize,
) -> Result<ComponentStats> {
    let mut walker = ShapeWalker::new(plan, chunks.iter().collect(), 0);
    for _ in 0..record_count {
        walker.next_record()?;
    }
    let live_records = match chunks.iter().find(|c| c.spec.is_key) {
        Some(keys) => (0..keys.entry_count())
            .filter(|&i| !keys.is_antimatter(i))
            .count(),
        None => record_count,
    };
    let mut columns = BTreeMap::new();
    for (path, tally) in plan.paths().iter().zip(walker.tallies()) {
        if tally.values == 0 {
            continue;
        }
        let bounds = (path.single_valued && !tally.composite)
            .then(|| {
                path.columns
                    .iter()
                    .filter_map(|&slot| live_bounds(&chunks[slot]))
                    .reduce(|bounds, (min, max)| widen(bounds, &min, &max))
            })
            .flatten();
        let (min, max) = bounds.unzip();
        columns.insert(
            path.path.clone(),
            ColumnStats {
                rows: tally.rows,
                values: tally.values,
                min,
                max,
            },
        );
    }
    Ok(ComponentStats {
        live_records: live_records as u64,
        columns,
    })
}

/// `[min, max]` over the values a non-repeated chunk holds for live records.
/// Only the key column stores values for anti-matter too; its entries are in
/// key order, so its bounds are its first and last live entries.
fn live_bounds(chunk: &ColumnChunk) -> Option<(Value, Value)> {
    if !chunk.spec.is_key {
        return chunk.min_max();
    }
    let mut live = (0..chunk.entry_count()).filter(|&i| !chunk.is_antimatter(i));
    let first = live.next()?;
    let last = live.next_back().unwrap_or(first);
    Some((chunk.values.get(first), chunk.values.get(last)))
}

impl fmt::Display for ComponentStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} live records", self.live_records)?;
        for (path, col) in &self.columns {
            write!(f, "  {path}: rows={} values={}", col.rows, col.values)?;
            match (&col.min, &col.max) {
                (Some(min), Some(max)) => writeln!(f, " min={min} max={max}")?,
                _ => writeln!(f, " (no bounds)")?,
            }
        }
        Ok(())
    }
}

/// Per-column accumulation state while a component is being written.
struct ColumnBuilder {
    rows: u64,
    values: u64,
    /// Ordinal of the last record that touched this column (for `rows`).
    last_record: u64,
    /// Bounds, maintained while every observed value is atomic and the path
    /// is single-valued; dropped permanently otherwise.
    bounds: Option<(Value, Value)>,
    bounds_ok: bool,
}

/// Accumulates [`ComponentStats`] over the live records of a component being
/// written. One [`StatsBuilder::observe`] call per record, then
/// [`StatsBuilder::finish`].
pub struct StatsBuilder {
    live_records: u64,
    columns: BTreeMap<String, ColumnBuilder>,
}

impl StatsBuilder {
    /// An empty accumulator.
    pub fn new() -> StatsBuilder {
        StatsBuilder {
            live_records: 0,
            columns: BTreeMap::new(),
        }
    }

    /// Fold one live record into the statistics.
    pub fn observe(&mut self, doc: &Value) {
        self.live_records += 1;
        let ordinal = self.live_records;
        let mut path = String::new();
        observe_value(&mut self.columns, &mut path, doc, ordinal, true);
    }

    /// Finish accumulation.
    pub fn finish(self) -> ComponentStats {
        ComponentStats {
            live_records: self.live_records,
            columns: self
                .columns
                .into_iter()
                .map(|(path, col)| {
                    let (min, max) = match (col.bounds_ok, col.bounds) {
                        (true, Some((min, max))) => (Some(min), Some(max)),
                        _ => (None, None),
                    };
                    (
                        path,
                        ColumnStats {
                            rows: col.rows,
                            values: col.values,
                            min,
                            max,
                        },
                    )
                })
                .collect(),
        }
    }
}

impl Default for StatsBuilder {
    fn default() -> Self {
        StatsBuilder::new()
    }
}

/// Record `value` at the current `path`, then recurse into its children. The
/// path buffer mirrors [`docmodel::Path`]'s display syntax exactly, so a
/// query path's `to_string()` is a direct key into the map. `single_valued`
/// is `false` once the path has crossed an `[*]` step.
fn observe_value(
    columns: &mut BTreeMap<String, ColumnBuilder>,
    path: &mut String,
    value: &Value,
    ordinal: u64,
    single_valued: bool,
) {
    // The record root itself is not a column.
    if !path.is_empty() {
        let col = columns.entry(path.clone()).or_insert_with(|| ColumnBuilder {
            rows: 0,
            values: 0,
            last_record: 0,
            bounds: None,
            bounds_ok: single_valued,
        });
        col.values += 1;
        if col.last_record != ordinal {
            col.last_record = ordinal;
            col.rows += 1;
        }
        if col.bounds_ok {
            if single_valued && value.is_atomic() {
                match &mut col.bounds {
                    None => col.bounds = Some((value.clone(), value.clone())),
                    Some((min, max)) => {
                        if total_cmp(value, min) == Ordering::Less {
                            *min = value.clone();
                        }
                        if total_cmp(value, max) == Ordering::Greater {
                            *max = value.clone();
                        }
                    }
                }
            } else {
                // A composite value (or a multi-valued sighting) poisons the
                // bounds for good: comparisons against it are legal under
                // the total order, so partial bounds would be unsound.
                col.bounds_ok = false;
                col.bounds = None;
            }
        }
    }
    match value {
        Value::Object(fields) => {
            for (name, child) in fields.iter() {
                let saved = path.len();
                if !path.is_empty() {
                    path.push('.');
                }
                path.push_str(name);
                observe_value(columns, path, child, ordinal, single_valued);
                path.truncate(saved);
            }
        }
        Value::Array(elems) => {
            let saved = path.len();
            path.push_str("[*]");
            for elem in elems.iter() {
                observe_value(columns, path, elem, ordinal, false);
            }
            path.truncate(saved);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docmodel::doc;

    fn stats(docs: &[Value]) -> ComponentStats {
        let mut b = StatsBuilder::new();
        for d in docs {
            b.observe(d);
        }
        b.finish()
    }

    #[test]
    fn single_valued_atomic_paths_get_bounds() {
        let s = stats(&[
            doc!({"id": 1, "score": 10, "user": {"name": "bo"}}),
            doc!({"id": 2, "score": 90}),
            doc!({"id": 3}),
        ]);
        assert_eq!(s.live_records, 3);
        let score = s.column("score").unwrap();
        assert_eq!((score.rows, score.values), (2, 2));
        assert_eq!(score.min, Some(Value::Int(10)));
        assert_eq!(score.max, Some(Value::Int(90)));
        let name = s.column("user.name").unwrap();
        assert_eq!(name.rows, 1);
        assert_eq!(name.min, Some(Value::from("bo")));
        // `user` addresses an object: counted, but no bounds.
        let user = s.column("user").unwrap();
        assert_eq!(user.rows, 1);
        assert!(!user.has_bounds());
        assert!(s.column("missing").is_none());
    }

    #[test]
    fn multi_valued_paths_are_counts_only() {
        let s = stats(&[
            doc!({"id": 1, "ts": [100, 200]}),
            doc!({"id": 2, "ts": [150]}),
        ]);
        let elems = s.column("ts[*]").unwrap();
        assert_eq!((elems.rows, elems.values), (2, 3));
        assert!(!elems.has_bounds(), "no bounds on [*] paths");
        // The array node itself: single-valued path, composite value.
        let arr = s.column("ts").unwrap();
        assert_eq!(arr.rows, 2);
        assert!(!arr.has_bounds());
    }

    #[test]
    fn heterogeneous_values_drop_bounds_permanently() {
        let s = stats(&[
            doc!({"id": 1, "v": 5}),
            doc!({"id": 2, "v": {"nested": 1}}),
            doc!({"id": 3, "v": 7}),
        ]);
        let v = s.column("v").unwrap();
        assert_eq!(v.rows, 3);
        assert!(!v.has_bounds(), "a composite sighting poisons the bounds");
    }

    #[test]
    fn explicit_nulls_participate_in_bounds() {
        let s = stats(&[doc!({"id": 1, "v": null}), doc!({"id": 2, "v": 5})]);
        let v = s.column("v").unwrap();
        assert_eq!(v.rows, 2);
        assert!(v.has_bounds());
        // Null sorts below every other value in the document total order.
        assert_eq!(
            total_cmp(v.min.as_ref().unwrap(), &Value::Int(5)),
            std::cmp::Ordering::Less
        );
    }

    #[test]
    fn paths_render_exactly_like_query_paths() {
        let s = stats(&[doc!({"games": [{"title": "NBA", "consoles": ["PC"]}]})]);
        for path in ["games", "games[*]", "games[*].title", "games[*].consoles[*]"] {
            assert!(
                s.column(&docmodel::Path::parse(path).to_string()).is_some(),
                "{path}"
            );
        }
    }

    #[test]
    fn display_renders_without_panicking() {
        let s = stats(&[doc!({"id": 1, "tags": ["a"]})]);
        let text = s.to_string();
        assert!(text.contains("live records"), "{text}");
        assert!(text.contains("no bounds"), "{text}");
    }
}
