//! The interpreted engine: operator-at-a-time with per-tuple dispatch.
//!
//! Every operator is a boxed trait object wrapping its input stream — the
//! classic Volcano shape. The pipeline *streams*: its input is the snapshot
//! scan's key-ordered row adapter (`lsm::ScanCursor`), which assembles each
//! reconciliation winner into a document, and each operator pulls one row at
//! a time, so memory stays bounded by the storage cursors underneath (one
//! decoded leaf per component). What the paper attributes to interpretation
//! is the **per-tuple** cost: a document built per record, dynamic dispatch
//! through `dyn Iterator` per operator per row, and the unnest's copy of the
//! record into every `(record, element)` row. The rows then fold into the
//! same group table, through the same per-record fold, as the compiled
//! engine's fused loop (`compiled::FusedLoop`), which resolves each path
//! against the schemaless values. These are precisely the overheads
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

use crate::compiled::{unnest, FusedLoop};
use crate::physical::{GroupPartials, PhysicalPlan};
use crate::Result;

/// One row of the pipeline: a record and, below an unnest, one element of
/// it.
type Tuple = (Value, Option<Value>);

/// A boxed, streaming row source: what every operator consumes and
/// produces. The `Box<dyn ...>` is the interpretation overhead under
/// measurement — one virtual call per row per operator.
type RowStream<'a> = Box<dyn Iterator<Item = Result<Tuple>> + 'a>;

/// A streaming operator: wraps an input stream into an output stream.
trait Operator {
    /// Attach the operator to its input.
    fn open<'a>(&'a self, input: RowStream<'a>) -> RowStream<'a>;
}

/// Filter operator: keeps rows whose record matches the predicate
/// expression.
struct FilterOp {
    predicate: crate::expr::Expr,
}

impl Operator for FilterOp {
    fn open<'a>(&'a self, input: RowStream<'a>) -> RowStream<'a> {
        Box::new(input.filter(|row| match row {
            Ok((record, _)) => self.predicate.matches(record),
            Err(_) => true, // errors pass through to the consumer
        }))
    }
}

/// Unnest operator: produces one `(record, element)` row per element, the
/// record copied into every one of them — the per-row re-materialisation
/// the interpreted engine pays for.
struct UnnestOp {
    path: Path,
}

impl Operator for UnnestOp {
    fn open<'a>(&'a self, input: RowStream<'a>) -> RowStream<'a> {
        Box::new(input.flat_map(move |row| -> Vec<Result<Tuple>> {
            match row {
                Ok((record, _)) => unnest(&self.path, &record)
                    .map(|element| Ok((record.clone(), Some(element.clone()))))
                    .collect(),
                Err(e) => vec![Err(e)],
            }
        }))
    }
}

/// Execute the pipelining part of an aggregate plan over a streaming record
/// source, producing per-group aggregate partials. Rows flow through the
/// boxed operator chain one at a time — operator dispatch and the unnest's
/// record copies are the interpretation overhead the paper measures — into
/// the fold the compiled engine's fused loop uses (the pipeline breaker).
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
    if let Some(u) = &plan.unnest {
        pipeline.push(Box::new(UnnestOp { path: u.clone() }));
    }
    let mut stream: RowStream<'_> = Box::new(input.map(|doc| doc.map(|doc| (doc, None))));
    for op in &pipeline {
        stream = op.open(stream);
    }
    let mut fold = FusedLoop::new(plan);
    for row in stream {
        let (record, element) = row?;
        fold.update(&record, element.as_ref());
    }
    Ok(fold.finish())
}
