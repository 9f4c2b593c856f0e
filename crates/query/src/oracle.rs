//! The materialised batch oracle: the seed engine's "materialise then
//! process" execution model, preserved verbatim for differential testing.
//!
//! The production engines stream — the access stage is a cursor and every
//! operator pulls one record at a time ([`crate::physical`]'s pipeline
//! docs). This module keeps the *old* model alive: scan the whole snapshot
//! into a `Vec`, run each operator as a full-batch pass, and only then
//! order/limit. Answers must be identical; only the memory profile (and the
//! pages a limited scan touches) may differ. The lifecycle differential
//! (`crates/query/tests/lifecycle.rs`) leans on it.
//!
//! The oracle ignores zone maps and never terminates early — it is the
//! pruning-free, limit-after-the-fact upper bound the streaming paths are
//! compared against.

use docmodel::{Path, Value};
use lsm::Snapshot;

use crate::physical::{self, finalize, key_count_partials, new_states, GroupPartials, PlanContext};
use crate::plan::{Query, QueryRow};
use crate::{AccessPath, PlannerOptions, Result};

/// Execute `query` against `snapshot` with the materialised batch model:
/// full scan into a `Vec`, batch-at-a-time operators, order/limit last.
pub fn execute_batch(snapshot: &Snapshot, query: &Query) -> Result<Vec<QueryRow>> {
    // Plan against a bare-snapshot context: validation, projection pushdown
    /* and the KeyOnlyScan fast path apply; probes cannot (no index). */
    let ctx = PlanContext::for_snapshot(snapshot);
    let plan = physical::plan(query, &ctx, &PlannerOptions::default())?;

    // The materialisation the streaming refactor removed: the whole
    // reconciled snapshot as one batch (entries keep their primary key for
    // the projection form's output order).
    let mut batch: Vec<(Value, Value)> = Vec::new();
    for entry in snapshot.cursor(plan.projection.as_deref())? {
        batch.push(entry?);
    }

    if matches!(plan.access, AccessPath::KeyOnlyScan) {
        return Ok(finalize(key_count_partials(batch.len(), &plan), &plan));
    }

    // Batch filter pass.
    if let Some(filter) = &plan.filter {
        batch.retain(|(_, doc)| filter.matches(doc));
    }

    if let Some(paths) = &plan.select_paths {
        // Batch projection pass, then limit (no early termination here).
        let mut rows: Vec<QueryRow> = batch
            .into_iter()
            .map(|(key, doc)| QueryRow {
                group: Some(key),
                aggs: paths
                    .iter()
                    .map(|p| {
                        p.evaluate(&doc)
                            .first()
                            .map(|v| (*v).clone())
                            .unwrap_or(Value::Null)
                    })
                    .collect(),
            })
            .collect();
        if let Some(k) = plan.limit {
            rows.truncate(k);
        }
        return Ok(rows);
    }

    // Batch unnest pass: one `(record, element)` pair per element.
    let unnested: Vec<(Value, Option<Value>)> = match &plan.unnest {
        None => batch.into_iter().map(|(_, doc)| (doc, None)).collect(),
        Some(path) => {
            let mut out = Vec::new();
            for (_, doc) in batch {
                let elements: Vec<Value> = path
                    .evaluate(&doc)
                    .into_iter()
                    .flat_map(|v| match v {
                        Value::Array(elems) => elems.clone(),
                        other => vec![other.clone()],
                    })
                    .collect();
                for element in elements {
                    out.push((doc.clone(), Some(element)));
                }
            }
            out
        }
    };

    // Batch aggregation pass over the fully materialised pairs.
    let resolve = |record: &Value, element: Option<&Value>, on_element: bool, path: &Path| {
        let base = if on_element { element? } else { record };
        if path.is_empty() {
            Some(base.clone())
        } else {
            path.evaluate(base).first().map(|v| (*v).clone())
        }
    };
    let mut groups = GroupPartials::new();
    for (record, element) in &unnested {
        let key = match &plan.group_by {
            Some(p) => match resolve(record, element.as_ref(), plan.group_on_element, p) {
                Some(k) => Some(docmodel::cmp::OrderedValue(k)),
                None => continue,
            },
            None => None,
        };
        let states = groups.entry(key).or_insert_with(|| new_states(&plan));
        for (state, spec) in states.iter_mut().zip(&plan.aggregates) {
            let input = spec
                .agg
                .path()
                .and_then(|p| resolve(record, element.as_ref(), spec.on_element, p));
            state.update(input.as_ref());
        }
    }
    Ok(finalize(groups, &plan))
}
