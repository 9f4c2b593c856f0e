//! The interpreted engine: operator-at-a-time with per-tuple dispatch.
//!
//! Every operator is a boxed trait object wrapping its input stream — the
//! classic Volcano shape. The pipeline *streams*: its input is the snapshot
//! scan's key-ordered row adapter (`lsm::ScanCursor`), which assembles each
//! reconciliation winner into a document, and each operator pulls one row at
//! a time, so memory stays bounded by the storage cursors underneath (one
//! decoded leaf per component). What the paper attributes to interpretation
//! is the **per-tuple** cost: a document built per record, dynamic dispatch
//! through `dyn Iterator` per operator per row, repeated path resolution
//! against schemaless values, and the per-row `$record`/`$element`
//! re-materialisation of the unnest. These are precisely the overheads
//! [`crate::compiled`] removes — it never builds the document: its kernels
//! fold the same aggregates straight off the decoded column chunks. The two
//! engines are §5's contrast: per tuple over documents vs fused loops over
//! columns.
//!
//! The engine executes a [`PhysicalPlan`] over a record stream supplied by
//! the access stage and emits mergeable per-group aggregate partials;
//! ordering and limiting happen after partials from every partition are
//! merged. (Projection plans have no pipeline breaker and no per-tuple
//! interpretation contrast; both modes share one projection loop in the
//! engine crate root.)

use docmodel::{Path, Value};

use crate::physical::{new_states, GroupPartials, PhysicalPlan};
use crate::Result;

/// A boxed, streaming row source: what every operator consumes and
/// produces. The `Box<dyn ...>` is the interpretation overhead under
/// measurement — one virtual call per row per operator.
type RowStream<'a> = Box<dyn Iterator<Item = Result<Value>> + 'a>;

/// A streaming operator: wraps an input stream into an output stream.
trait Operator {
    /// Attach the operator to its input.
    fn open<'a>(&'a self, input: RowStream<'a>) -> RowStream<'a>;
}

/// Filter operator: keeps rows matching the predicate expression.
struct FilterOp {
    predicate: crate::expr::Expr,
}

impl Operator for FilterOp {
    fn open<'a>(&'a self, input: RowStream<'a>) -> RowStream<'a> {
        Box::new(input.filter(|row| match row {
            Ok(row) => self.predicate.matches(row),
            Err(_) => true, // errors pass through to the consumer
        }))
    }
}

/// Unnest operator: produces one row per array element, carrying both the
/// original record (under `$record`) and the element (under `$element`) —
/// the per-row re-materialisation the interpreted engine pays for.
struct UnnestOp {
    path: Path,
}

impl Operator for UnnestOp {
    fn open<'a>(&'a self, input: RowStream<'a>) -> RowStream<'a> {
        Box::new(input.flat_map(move |row| -> Vec<Result<Value>> {
            let row = match row {
                Ok(row) => row,
                Err(e) => return vec![Err(e)],
            };
            let elements: Vec<Value> = self
                .path
                .evaluate(&row)
                .into_iter()
                .flat_map(|v| match v {
                    Value::Array(elems) => elems.clone(),
                    other => vec![other.clone()],
                })
                .collect();
            elements
                .into_iter()
                .map(|element| {
                    Ok(Value::Object(vec![
                        ("$record".to_string(), row.clone()),
                        ("$element".to_string(), element),
                    ]))
                })
                .collect()
        }))
    }
}

/// Identity projection: rebuilds each row keeping only the referenced paths
/// (simulating the PROJECT operator's copy).
struct ProjectOp {
    paths: Vec<Path>,
}

impl Operator for ProjectOp {
    fn open<'a>(&'a self, input: RowStream<'a>) -> RowStream<'a> {
        Box::new(input.map(move |row| {
            let row = row?;
            let mut projected = Value::empty_object();
            for (i, path) in self.paths.iter().enumerate() {
                if let Some(v) = path.evaluate(&row).first() {
                    projected.set_field(format!("${i}"), (*v).clone());
                }
            }
            // Keep the original row alongside the projection so the
            // aggregation stage can still resolve arbitrary paths.
            projected.set_field("$row", row);
            Ok(projected)
        }))
    }
}

fn resolve<'a>(row: &'a Value, on_element: bool, path: &Path, unnested: bool) -> Vec<&'a Value> {
    if !unnested {
        return path.evaluate(row);
    }
    let root = if on_element { "$element" } else { "$record" };
    match row
        .get_field("$row")
        .and_then(|r| r.get_field(root))
        .or_else(|| row.get_field(root))
    {
        Some(base) => {
            if path.is_empty() {
                vec![base]
            } else {
                path.evaluate(base)
            }
        }
        None => Vec::new(),
    }
}

/// Execute the pipelining part of an aggregate plan over a streaming record
/// source, producing per-group aggregate partials. Rows flow through the
/// boxed operator chain one at a time; the per-tuple work — operator
/// dispatch, path re-resolution, the unnest's row rebuilding — is the
/// interpretation overhead the paper measures.
pub(crate) fn run_stream<'a>(
    input: impl Iterator<Item = Result<Value>> + 'a,
    plan: &PhysicalPlan,
) -> Result<GroupPartials> {
    // Build the operator pipeline (dynamic dispatch per operator per row).
    let mut pipeline: Vec<Box<dyn Operator>> = Vec::new();
    // The scan already applied the pushed conjuncts; only the residual
    // needs a filter operator (for non-scan access paths the whole filter
    // is the residual).
    if let Some(p) = &plan.residual {
        pipeline.push(Box::new(FilterOp { predicate: p.clone() }));
    }
    let unnested = plan.unnest.is_some();
    if let Some(u) = &plan.unnest {
        pipeline.push(Box::new(UnnestOp { path: u.clone() }));
    }
    if unnested {
        pipeline.push(Box::new(ProjectOp {
            paths: vec![Path::parse("$record"), Path::parse("$element")],
        }));
    }
    let mut stream: RowStream<'_> = Box::new(input);
    for op in &pipeline {
        stream = op.open(stream);
    }

    // GROUP BY / aggregate (the pipeline breaker, shared with compiled mode
    // in spirit, but here it re-resolves paths per tuple).
    let group_key = plan
        .group_by
        .as_ref()
        .map(|p| (plan.group_on_element, p.clone()));
    let agg_inputs: Vec<(bool, Option<Path>)> = plan
        .aggregates
        .iter()
        .map(|s| (s.on_element, s.agg.path().cloned()))
        .collect();

    let mut groups = GroupPartials::new();
    for row in stream {
        let row = row?;
        let key = group_key.as_ref().and_then(|(on_element, path)| {
            resolve(&row, *on_element, path, unnested)
                .first()
                .map(|v| docmodel::cmp::OrderedValue((*v).clone()))
        });
        if group_key.is_some() && key.is_none() {
            continue; // grouping key absent: the record contributes no group
        }
        let states = groups.entry(key).or_insert_with(|| new_states(plan));
        for (state, (on_element, path)) in states.iter_mut().zip(&agg_inputs) {
            let input = path.as_ref().and_then(|p| {
                resolve(&row, *on_element, p, unnested)
                    .first()
                    .copied()
                    .cloned()
            });
            state.update(input.as_ref());
        }
    }
    Ok(groups)
}

