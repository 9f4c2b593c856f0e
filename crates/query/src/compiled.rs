//! The compiled engine: fused loops over columns, not documents.
//!
//! The paper generates a Truffle AST for the pipelining part of the plan
//! (scan → assign → unnest → project), executes it interpreted a few times
//! and lets the JVM JIT turn it into machine code. The observable property
//! (§5, Fig. 14) is that a query over a columnar component touches only the
//! columns it names and runs straight-line code over their values; only the
//! pipeline breaker (group-by) runs in the regular engine.
//!
//! Here the plan is lowered **once per component schema** into column
//! kernels (`Kernel`) and the access stage is the snapshot's batch scan
//! ([`lsm::Snapshot::batches`]): key-only reconciliation hands over, per
//! columnar leaf, the decoded chunks plus the ordinals of the winners, and a
//! kernel folds the aggregate inputs straight off the chunks — one
//! [`columnar::ColumnWalk`] per column says where each record's values are
//! (its value, whether its array has elements, each element's), the typed
//! values feed `AggState::fold`, the group table is probed once per
//! **record**, and no document is ever built. The contrast with [`crate::interp`] — which stays
//! per-tuple over assembled documents — is §5's interpreted-vs-generated
//! contrast.
//!
//! Batches arrive per source leaf, not in key order, so this engine folds
//! the records in another order than the per-tuple ones — and in another
//! order again after a merge has rearranged the leaves. No answer may depend
//! on that: the aggregate partials are order-insensitive (exact double sums,
//! ties between `7` and `7.0` settled by value; see `AggState` in
//! [`crate::physical`]).
//!
//! ## The kernels' group table
//!
//! A kernel's group key is a record-level scalar column that is not a
//! string, so a key is its column's type plus the value's raw 64 bits (an
//! integer's two's complement, a double's IEEE bits, a boolean's 0/1). One
//! std `HashMap` on that pair serves a whole scan, and a probe builds no
//! [`Value`]. The raw bits are a sound key: within one typed column, equal
//! bits are equal under the document order (doubles compare by
//! `f64::total_cmp`, which tells `0.0` from `-0.0` and one NaN from
//! another exactly as their bits do). What bits cannot see — `7` in an
//! `Int` column and `7.0` in a `Double` column of another component being
//! one group — is settled when the scan ends: the table is folded into
//! `GroupPartials` once per distinct key, so the spelling rule and the
//! order-insensitive `AggState::merge` decide every answer, as they do
//! across shards.
//!
//! ## Which lane a batch takes
//!
//! Decided from what the code can see, never by an option:
//!
//! * the plan must have no residual filter and must not group on the
//!   unnested element;
//! * against the batch's component schema, every plan path must resolve to a
//!   **covered shape** ([`storage::batch::plain_node`]): field steps through
//!   objects only, the group key and record-level inputs ending at a scalar
//!   column (the group key not a string), the unnest path ending at an array
//!   whose items are objects or scalars — not a union — and element-level
//!   inputs ending at a scalar column directly under it;
//! * every pushed predicate was decided on columns, and the leaf holds every
//!   column the kernel reads.
//!
//! Anything else — and every [`ScanBatch::Rows`] batch (memtables, row
//! layouts) — takes the **assembled lane**: the selected ordinals are
//! assembled in one forward pass ([`storage::ColumnBatch::into_rows`]) and
//! fed to the fused per-record loop (`FusedLoop`), which index-probe plans
//! use too. `EXPLAIN ANALYZE` reports how many records took which lane and
//! why a batch fell back. [`ScanLane::Assembled`] forces the assembled lane;
//! it exists for the differential tests (`tests/vectorized.rs`), which hold
//! the two lanes, the interpreted engine and the batch oracle to one answer.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use columnar::{ColumnChunk, ColumnValues, ColumnWalk};
use docmodel::cmp::OrderedValue;
use docmodel::{Path, Value};
use lsm::{BatchScan, ScanBatch};
use schema::node::SchemaNode;
use schema::{AtomicType, ColumnId, NodeId, Schema};
use storage::batch::plain_node;

use crate::physical::{new_states, AggState, GroupPartials, Input, PhysicalPlan};
use crate::plan::join_paths;
use crate::Result;

/// Which lane the compiled engine's scans take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanLane {
    /// Column kernels wherever the plan and the component's schema allow —
    /// what every query runs with.
    #[default]
    Kernels,
    /// Assemble every winner and run the fused per-record loop. The
    /// reference the kernels are tested against, and nothing else: the
    /// answer must be identical.
    Assembled,
}

/// What the batch lanes did, for `EXPLAIN ANALYZE`.
#[derive(Debug, Default)]
pub(crate) struct LaneReport {
    /// Reconciliation winners handed to the operators, whichever lane.
    pub(crate) records: u64,
    /// Why batches took the assembled lane (one entry per distinct reason).
    pub(crate) fallbacks: BTreeSet<String>,
}

/// The fused per-record loop: residual filter, unnest and aggregate in one
/// pass over one document, every plan parameter resolved before the first
/// record. The assembled lane of scans and the whole of index-probe plans.
pub(crate) struct FusedLoop<'p> {
    plan: &'p PhysicalPlan,
    agg_inputs: Vec<(bool, Option<&'p Path>)>,
    groups: GroupPartials,
}

impl<'p> FusedLoop<'p> {
    pub(crate) fn new(plan: &'p PhysicalPlan) -> FusedLoop<'p> {
        FusedLoop {
            plan,
            agg_inputs: plan
                .aggregates
                .iter()
                .map(|s| (s.on_element, s.agg.path()))
                .collect(),
            groups: GroupPartials::new(),
        }
    }

    /// Fold one record. The filter here is the residual only — sargable
    /// conjuncts were pushed into the scan (non-scan access paths keep the
    /// whole filter residual).
    pub(crate) fn push(&mut self, record: &Value) {
        if let Some(filter) = &self.plan.residual {
            if !filter.matches(record) {
                return;
            }
        }
        match &self.plan.unnest {
            None => self.update(record, None),
            Some(path) => {
                for value in path.evaluate(record) {
                    match value {
                        Value::Array(elems) => {
                            for element in elems {
                                self.update(record, Some(element));
                            }
                        }
                        other => self.update(record, Some(other)),
                    }
                }
            }
        }
    }

    fn update(&mut self, record: &Value, element: Option<&Value>) {
        fn resolve<'v>(
            record: &'v Value,
            element: Option<&'v Value>,
            on_element: bool,
            path: &Path,
        ) -> Option<&'v Value> {
            let base = if on_element { element? } else { record };
            if path.is_empty() {
                Some(base)
            } else {
                path.evaluate(base).first().copied()
            }
        }
        let plan = self.plan;
        let key = match &plan.group_by {
            Some(path) => match resolve(record, element, plan.group_on_element, path) {
                Some(key) => Some(OrderedValue(key.clone())),
                None => return,
            },
            None => None,
        };
        let states = self.groups.entry(key).or_insert_with(|| new_states(plan));
        for (state, (on_element, path)) in states.iter_mut().zip(&self.agg_inputs) {
            state.update(path.and_then(|p| resolve(record, element, *on_element, p)));
        }
    }

    pub(crate) fn finish(self) -> GroupPartials {
        self.groups
    }
}

/// The fused loop over a stream of documents (index-probe plans).
pub(crate) fn aggregate_stream(
    docs: impl Iterator<Item = Result<Value>>,
    plan: &PhysicalPlan,
) -> Result<GroupPartials> {
    let mut fused = FusedLoop::new(plan);
    for record in docs {
        fused.push(&record?);
    }
    Ok(fused.finish())
}

/// The paths a columnar leaf should decode when it is loaded for `plan`:
/// exactly what the kernels fold over when the plan can take them at all
/// (a batch that falls back fetches the rest of the plan's projection when
/// it is assembled), the plan's whole projection otherwise.
pub(crate) fn scan_projection(plan: &PhysicalPlan, lane: ScanLane) -> Option<Vec<Path>> {
    let projection = plan.projection.as_ref()?;
    if lane == ScanLane::Assembled || plan_level_fallback(plan).is_some() {
        return Some(projection.clone());
    }
    let mut paths: Vec<Path> = Vec::new();
    let mut add = |path: Path| {
        if !paths.contains(&path) {
            paths.push(path);
        }
    };
    if let Some(group) = &plan.group_by {
        add(group.clone());
    }
    for spec in &plan.aggregates {
        match (spec.agg.path(), &plan.unnest) {
            (Some(path), Some(unnest)) if spec.on_element => add(join_paths(unnest, path)),
            (Some(path), _) => add(path.clone()),
            (None, _) => {}
        }
    }
    Some(paths)
}

/// Why no batch of this plan can take the kernels, whatever the schema.
fn plan_level_fallback(plan: &PhysicalPlan) -> Option<&'static str> {
    if plan.residual.is_some() {
        Some("residual filter")
    } else if plan.group_by.is_some() && plan.group_on_element {
        Some("group by the unnested element")
    } else {
        None
    }
}

/// Where one aggregate's input comes from.
enum KernelInput {
    /// `COUNT(*)`: no input, one fold per record (per element when unnested).
    None,
    /// A record-level scalar column (slot into [`Kernel::columns`]).
    Record(usize),
    /// A scalar column directly under the unnested array.
    Element(usize),
}

/// An aggregate plan lowered against one component schema: which columns to
/// fold over, and how. See the module docs for when lowering succeeds.
struct Kernel {
    /// The columns the kernel reads; the other fields index into it.
    columns: Vec<ColumnId>,
    /// Record-level scalar column holding the group key.
    group: Option<usize>,
    /// A column with exactly one entry per element of the unnested array,
    /// when some input is folded once per element without reading one
    /// (`COUNT(*)`, record-level inputs under `UNNEST`).
    elements: Option<usize>,
    /// Whether the plan unnests: a record without elements then contributes
    /// nothing at all, not even its group.
    unnested: bool,
    inputs: Vec<KernelInput>,
}

impl Kernel {
    fn lower(plan: &PhysicalPlan, schema: &Schema) -> std::result::Result<Kernel, String> {
        if let Some(reason) = plan_level_fallback(plan) {
            return Err(reason.to_string());
        }
        let mut columns: Vec<ColumnId> = Vec::new();
        let mut slot = |column: ColumnId| {
            columns
                .iter()
                .position(|c| *c == column)
                .unwrap_or_else(|| {
                    columns.push(column);
                    columns.len() - 1
                })
        };
        let scalar =
            |from: NodeId, path: &Path| -> std::result::Result<(NodeId, AtomicType), String> {
                let node = plain_node(schema, from, path)?;
                match schema.node(node) {
                    SchemaNode::Atomic { ty } => Ok((node, *ty)),
                    SchemaNode::Union { .. } => Err(format!("union at `{path}`")),
                    _ => Err(format!("`{path}` is not a scalar column")),
                }
            };
        let root = schema.root();
        let group = match &plan.group_by {
            Some(path) => match scalar(root, path)? {
                (_, AtomicType::String) => return Err("string group key".to_string()),
                (node, _) => Some(slot(node)),
            },
            None => None,
        };
        let item = match &plan.unnest {
            Some(path) => match schema.node(plain_node(schema, root, path)?) {
                SchemaNode::Array { item: Some(item) } => match schema.node(*item) {
                    SchemaNode::Union { .. } | SchemaNode::Array { .. } => {
                        return Err(format!("union or array at `{path}[*]`"));
                    }
                    _ => Some(*item),
                },
                SchemaNode::Union { .. } => return Err(format!("union at `{path}`")),
                _ => return Err(format!("`{path}` is not an array here")),
            },
            None => None,
        };
        let mut inputs = Vec::with_capacity(plan.aggregates.len());
        for spec in &plan.aggregates {
            inputs.push(match (spec.agg.path(), item) {
                (None, _) => KernelInput::None,
                (Some(path), Some(item)) if spec.on_element => {
                    KernelInput::Element(slot(scalar(item, path)?.0))
                }
                (Some(path), _) => KernelInput::Record(slot(scalar(root, path)?.0)),
            });
        }
        let counts_elements = item.is_some()
            && inputs
                .iter()
                .any(|input| !matches!(input, KernelInput::Element(_)));
        let elements = match item {
            Some(item) if counts_elements => {
                let counted = inputs.iter().find_map(|input| match input {
                    KernelInput::Element(slot) => Some(*slot),
                    _ => None,
                });
                Some(match counted {
                    Some(slot) => slot,
                    None => slot(first_scalar_under(schema, item).ok_or_else(|| {
                        "no scalar column directly under the unnested array".to_string()
                    })?),
                })
            }
            _ => None,
        };
        Ok(Kernel {
            columns,
            group,
            elements,
            unnested: item.is_some(),
            inputs,
        })
    }

    /// Fold the selected records of one leaf into `groups`.
    fn run(
        &self,
        chunks: &[Arc<ColumnChunk>],
        selection: &[u32],
        plan: &PhysicalPlan,
        groups: &mut GroupTable,
    ) {
        let walk = |slot: usize| ColumnWalk::new(chunks[slot].clone());
        let mut group = self.group.map(walk);
        let mut elements = self.elements.map(walk);
        let mut walks: Vec<Option<ColumnWalk>> = self
            .inputs
            .iter()
            .map(|input| match input {
                KernelInput::None => None,
                KernelInput::Record(slot) | KernelInput::Element(slot) => Some(walk(*slot)),
            })
            .collect();
        // The walk that tells whether a record has elements: an element
        // input's own (it is about to visit them anyway), else the counter.
        let probe = self
            .inputs
            .iter()
            .position(|input| matches!(input, KernelInput::Element(_)));
        for &ordinal in selection {
            let ordinal = ordinal as usize;
            let key = match &mut group {
                Some(walk) => match walk.value_index(ordinal) {
                    Some(i) => Some(raw_key(walk.values(), i)),
                    // No group key: the record contributes nothing.
                    None => continue,
                },
                None => None,
            };
            if self.unnested {
                let walk = match probe {
                    Some(input) => walks[input].as_mut(),
                    None => elements.as_mut(),
                };
                if !walk
                    .expect("an unnesting kernel reads the array")
                    .has_elements(ordinal)
                {
                    continue;
                }
            }
            let states = groups.0.entry(key).or_insert_with(|| new_states(plan));
            // How often an input that is not read per element is folded.
            let times = match &mut elements {
                Some(walk) => {
                    let mut n = 0;
                    walk.for_each_element(ordinal, |_| n += 1);
                    n
                }
                None => 1,
            };
            for ((state, input), walk) in states.iter_mut().zip(&self.inputs).zip(&mut walks) {
                match (input, walk) {
                    (KernelInput::Element(slot), Some(walk)) => {
                        let values = &chunks[*slot].values;
                        walk.for_each_element(ordinal, |i| fold_at(state, values, i));
                    }
                    (_, walk) => {
                        let at = walk
                            .as_mut()
                            .map(|walk| (walk.value_index(ordinal), walk.values()));
                        for _ in 0..times {
                            match at {
                                Some((i, values)) => fold_at(state, values, i),
                                None => state.fold(Input::Absent),
                            }
                        }
                    }
                }
            }
        }
    }
}

/// A kernel's group key: its column's type and the value's raw bits (see
/// the module docs for why equal bits are one group).
type RawKey = (AtomicType, u64);

fn raw_key(values: &ColumnValues, index: usize) -> RawKey {
    match values {
        ColumnValues::Int(v) => (AtomicType::Int, v[index] as u64),
        ColumnValues::Double(v) => (AtomicType::Double, v[index].to_bits()),
        ColumnValues::Bool(v) => (AtomicType::Bool, u64::from(v[index])),
        ColumnValues::String(_) => unreachable!("string group keys take the assembled lane"),
    }
}

/// The group table of one scan's kernels (`None` = the one group of an
/// ungrouped aggregate). See the module docs.
#[derive(Default)]
struct GroupTable(HashMap<Option<RawKey>, Vec<AggState>>);

impl GroupTable {
    /// Fold the table into `groups`, once per distinct key. In key order,
    /// so that the fold does not depend on the hash map's iteration order.
    fn fold_into(self, groups: &mut GroupPartials) {
        let mut entries: Vec<_> = self.0.into_iter().collect();
        entries.sort_unstable_by_key(|(key, _)| *key);
        for (key, states) in entries {
            let key = key.map(|(ty, bits)| match ty {
                AtomicType::Int => Value::Int(bits as i64),
                AtomicType::Double => Value::Double(f64::from_bits(bits)),
                AtomicType::Bool => Value::Bool(bits != 0),
                AtomicType::String => unreachable!("string group keys take the assembled lane"),
            });
            groups.merge_group(key, states);
        }
    }
}

/// The first scalar column reachable from `node` through objects only: it
/// holds exactly one entry per element of the array `node` is the item of.
fn first_scalar_under(schema: &Schema, node: NodeId) -> Option<ColumnId> {
    match schema.node(node) {
        SchemaNode::Atomic { .. } => Some(node),
        SchemaNode::Object { fields } => fields
            .iter()
            .find_map(|(_, child)| first_scalar_under(schema, *child)),
        _ => None,
    }
}

/// Fold entry `index` of a decoded column (`None` = the value is absent).
fn fold_at(state: &mut AggState, values: &ColumnValues, index: Option<usize>) {
    let Some(i) = index else {
        return state.fold(Input::Absent);
    };
    match values {
        ColumnValues::Int(v) => state.fold(Input::Int(v[i])),
        ColumnValues::Double(v) => state.fold(Input::Double(v[i])),
        ColumnValues::String(v) => state.fold(Input::Str(&v[i])),
        ColumnValues::Bool(v) => state.fold(Input::Other(&Value::Bool(v[i]))),
    }
}

/// Aggregate a snapshot's batch scan: per columnar batch the kernels when
/// they cover it, else — and for every batch of documents — the fused
/// per-record loop. See the module docs.
pub(crate) fn aggregate_batches(
    scan: BatchScan,
    plan: &PhysicalPlan,
    lane: ScanLane,
    report: &mut LaneReport,
) -> Result<GroupPartials> {
    let mut fused = FusedLoop::new(plan);
    let mut table = GroupTable::default();
    // Lowered once per component schema, not per leaf.
    let mut kernels: HashMap<u64, std::result::Result<Kernel, String>> = HashMap::new();
    for batch in scan {
        let mut batch = match batch? {
            ScanBatch::Columns(batch) => batch,
            ScanBatch::Rows(rows) => {
                report.records += rows.len() as u64;
                report
                    .fallbacks
                    .insert("row layout or memtable".to_string());
                for (_, record) in &rows {
                    fused.push(record);
                }
                continue;
            }
        };
        let component = batch.component().clone();
        let kernel = kernels
            .entry(component.meta().id)
            .or_insert_with(|| match lane {
                ScanLane::Kernels => Kernel::lower(plan, component.schema()),
                ScanLane::Assembled => Err("assembled lane forced".to_string()),
            });
        let fallback = match kernel {
            Err(reason) => reason.clone(),
            Ok(_) if batch.needs_records() => "pushed predicate needs the record".to_string(),
            Ok(kernel) => match batch
                .chunks(&kernel.columns)?
                .into_iter()
                .collect::<Option<Vec<_>>>()
            {
                Some(chunks) => {
                    kernel.run(&chunks, batch.selection(), plan, &mut table);
                    let folded = batch.selection().len() as u64;
                    report.records += folded;
                    component.cache().store().note_scan_records_kernel(folded);
                    continue;
                }
                None => "leaf predates a column".to_string(),
            },
        };
        report.fallbacks.insert(fallback);
        // Counted as they come out: a pushed predicate that needed the
        // record drops its rejections in `into_rows`.
        for row in batch.into_rows(plan.projection.as_deref())? {
            fused.push(&row?.1);
            report.records += 1;
        }
    }
    table.fold_into(&mut fused.groups);
    Ok(fused.finish())
}
