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
//! kernel folds the aggregate inputs straight off the chunks, no document
//! ever built. One [`columnar::ColumnWalk`] per column answers where the
//! selected records' values are — a **value range** and an input count
//! ([`columnar::Elements`]) — the gap between two selected ordinals skipped
//! over the definition levels. Without a group key the kernels fold **runs
//! of records**: the selection is cut into maximal runs of consecutive
//! ordinals, and each aggregate folds a run's range — its records' array
//! elements under `UNNEST`, else its records' values — in one typed pass
//! (`AggState::fold_slice`: a slice extreme, a run of exact adds). With a
//! group key the table is probed once per **record**, which folds its own
//! value or its array's value range ([`columnar::ColumnWalk::elements`]);
//! so is a record-level input under `UNNEST`, which is folded once per
//! element of its record. The contrast with [`crate::interp`] — which stays
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
//! integer's two's complement, a double's IEEE bits, a boolean's 0/1), and
//! a probe builds no [`Value`]. One table serves a whole scan: the groups'
//! states side by side in one vector, in the order the groups were met, and
//! a hash map from key to place that hashes with one folded multiply per key
//! (a 64×64→128-bit product whose halves are XORed, from a seed drawn per
//! scan) instead of SipHash — a collision costs a probe, never an answer.
//! An ungrouped aggregate's one group is never hashed. The raw bits are a
//! sound key: within one typed column, equal bits are equal under the
//! document order (doubles compare by `f64::total_cmp`, which tells `0.0`
//! from `-0.0` and one NaN from another exactly as their bits do). What
//! bits cannot see — `7` in an `Int` column and `7.0` in a `Double` column
//! of another component being one group — is settled when the scan ends:
//! such a double's states are merged into the integer's, and the table is
//! handed to `GroupPartials` whole — its states as they lie, its keys as
//! values, in no order — so the spelling rule and the order-insensitive
//! `AggState::merge` decide every answer, as they do across shards. Only
//! `finalize` orders groups, and only those it keeps.
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
//! it exists for the differential tests (`tests/lifecycle.rs`), which hold
//! the two lanes, the interpreted engine and the batch oracle to one answer.

use std::collections::hash_map::RandomState;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

use columnar::{ColumnChunk, ColumnValues, ColumnWalk, Elements};
use docmodel::cmp::OrderedValue;
use docmodel::{Path, Value};
use lsm::{BatchScan, RowOrigin, ScanBatch};
use schema::node::SchemaNode;
use schema::{AtomicType, ColumnId, NodeId, Schema};
use storage::batch::plain_node;
use telemetry::stage::Stage;

use crate::physical::{new_states, AggState, GroupPartials, PhysicalPlan};
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
/// record. The assembled lane of scans and the whole of index-probe plans;
/// its fold ([`FusedLoop::update`]) is the interpreted engine's too.
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
                for element in unnest(path, record) {
                    self.update(record, Some(element));
                }
            }
        }
    }

    /// Fold one record, or one `(record, element)` pair under `UNNEST`, into
    /// its group: a record without the group key contributes nothing.
    pub(crate) fn update(&mut self, record: &Value, element: Option<&Value>) {
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

/// The elements `UNNEST path` yields for `record`: every item of each array
/// the path addresses, and any other value it addresses as itself.
pub(crate) fn unnest<'v>(path: &Path, record: &'v Value) -> impl Iterator<Item = &'v Value> {
    path.evaluate(record)
        .into_iter()
        .flat_map(|value| match value {
            Value::Array(items) => items.iter(),
            other => std::slice::from_ref(other).iter(),
        })
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
    /// Under `UNNEST`, the columns with exactly one entry per element of the
    /// unnested array (slots, each once): every element input's, or else
    /// the first scalar under the array. The first one counts the elements,
    /// which a record-level input or `COUNT(*)` is folded once per; a record
    /// without elements contributes nothing, not even its group. Empty
    /// without `UNNEST`.
    elements: Vec<usize>,
    inputs: Vec<KernelInput>,
    /// The record-level input columns (slots, each once).
    records: Vec<usize>,
    /// Whether records are folded one at a time: with a group key, or with
    /// a record-level input under `UNNEST`; else a run of them is one fold.
    per_record: bool,
}

/// The inputs of `COUNT(*)` and of records without a value: no column.
static NO_VALUES: ColumnValues = ColumnValues::Int(Vec::new());

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
                    SchemaNode::Atomic {
                        ty: AtomicType::Null,
                    } => Err(format!("only nulls at `{path}`")),
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
        let mut elements: Vec<usize> = Vec::new();
        for input in &inputs {
            if let KernelInput::Element(at) = input {
                if !elements.contains(at) {
                    elements.push(*at);
                }
            }
        }
        if let (Some(item), true) = (item, elements.is_empty()) {
            elements.push(slot(first_scalar_under(schema, item).ok_or_else(|| {
                "no scalar column directly under the unnested array".to_string()
            })?));
        }
        let mut records: Vec<usize> = Vec::new();
        for input in &inputs {
            if let KernelInput::Record(at) = input {
                if !records.contains(at) {
                    records.push(*at);
                }
            }
        }
        let per_record = group.is_some() || (item.is_some() && !records.is_empty());
        Ok(Kernel {
            columns,
            group,
            elements,
            inputs,
            records,
            per_record,
        })
    }

    /// Fold the selected records of one leaf into `groups`. Without a group
    /// key (and without a record-level input under `UNNEST`, which is
    /// folded once per element of its record) a maximal run of consecutive
    /// ordinals is one fold: every column's inputs over the run are one
    /// slice ([`ColumnWalk::span`]). Otherwise each record is probed in the
    /// group table and folds its own inputs.
    fn run(
        &self,
        chunks: &[Arc<ColumnChunk>],
        selection: &[u32],
        plan: &PhysicalPlan,
        groups: &mut GroupTable,
    ) {
        let mut walks: Vec<ColumnWalk> = chunks.iter().cloned().map(ColumnWalk::new).collect();
        // Per column slot, the inputs of the run or of the record at hand.
        let mut spans = vec![Elements::default(); chunks.len()];
        if !self.per_record {
            for run in runs(selection) {
                for (span, walk) in spans.iter_mut().zip(&mut walks) {
                    *span = walk.span(run.clone());
                }
                let times = match self.elements.first() {
                    Some(&counter) => spans[counter].count,
                    None => run.len(),
                };
                if times > 0 {
                    self.fold(groups.states(None, plan), chunks, &spans, times);
                }
            }
            return;
        }
        for &ordinal in selection {
            let ordinal = ordinal as usize;
            let key = match self.group {
                Some(slot) => match walks[slot].value_index(ordinal) {
                    Some(i) => Some(RawKey::of(walks[slot].values(), i)),
                    // No group key: the record contributes nothing.
                    None => continue,
                },
                None => None,
            };
            // How often an input that is not read per element is folded.
            let mut times = 1;
            if let Some(&counter) = self.elements.first() {
                for &slot in &self.elements {
                    spans[slot] = walks[slot].elements(ordinal);
                }
                times = spans[counter].count;
                if times == 0 {
                    continue;
                }
            }
            for &slot in &self.records {
                let values = match walks[slot].value_index(ordinal) {
                    Some(i) => i..i + 1,
                    None => 0..0,
                };
                spans[slot] = Elements { values, count: 1 };
            }
            self.fold(groups.states(key, plan), chunks, &spans, times);
        }
    }

    /// Fold one record's or one run's inputs: `spans` per column slot, and
    /// `times` elements (records, without `UNNEST`) for `COUNT(*)`. A
    /// record-level input under `UNNEST` is one record's value or its
    /// absence, folded once per element of the record.
    #[inline]
    fn fold(
        &self,
        states: &mut [AggState],
        chunks: &[Arc<ColumnChunk>],
        spans: &[Elements],
        times: usize,
    ) {
        for (state, input) in states.iter_mut().zip(&self.inputs) {
            match *input {
                KernelInput::None => state.fold_slice(&NO_VALUES, 0..0, times),
                KernelInput::Element(slot) => {
                    let span = &spans[slot];
                    state.fold_slice(&chunks[slot].values, span.values.clone(), span.lacking());
                }
                KernelInput::Record(slot) => {
                    let span = &spans[slot];
                    let repeat = if self.elements.is_empty() { 1 } else { times };
                    for _ in 0..repeat {
                        state.fold_slice(&chunks[slot].values, span.values.clone(), span.lacking());
                    }
                }
            }
        }
    }
}

/// The maximal runs of consecutive ordinals in an ascending selection.
fn runs(selection: &[u32]) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    let mut rest = selection;
    std::iter::from_fn(move || {
        let first = *rest.first()? as usize;
        let len = rest
            .iter()
            .zip(first..)
            .take_while(|&(&ordinal, expected)| ordinal as usize == expected)
            .count();
        rest = &rest[len..];
        Some(first..first + len)
    })
}

/// A kernel's group key: its column's type and the value's raw bits (see
/// the module docs for why equal bits are one group).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RawKey {
    ty: AtomicType,
    bits: u64,
}

impl RawKey {
    #[inline]
    fn of(values: &ColumnValues, index: usize) -> RawKey {
        let (ty, bits) = match values {
            ColumnValues::Int(v) => (AtomicType::Int, v[index] as u64),
            ColumnValues::Double(v) => (AtomicType::Double, v[index].to_bits()),
            ColumnValues::Bool(v) => (AtomicType::Bool, u64::from(v[index])),
            ColumnValues::String(_) | ColumnValues::Null(_) => {
                unreachable!("string and null group keys take the assembled lane")
            }
        };
        RawKey { ty, bits }
    }

    fn to_value(self) -> Value {
        match self.ty {
            AtomicType::Int => Value::Int(self.bits as i64),
            AtomicType::Double => Value::Double(f64::from_bits(self.bits)),
            AtomicType::Bool => Value::Bool(self.bits != 0),
            AtomicType::String | AtomicType::Null => {
                unreachable!("string and null group keys take the assembled lane")
            }
        }
    }
}

impl Hash for RawKey {
    /// One word: the type goes into the top bits, where keys of two types
    /// that collide cost a probe, not an answer (equality tells them apart).
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.bits ^ ((self.ty as u64) << 62));
    }
}

/// The group table's hasher: per word, one folded multiply — the 128-bit
/// product of the word (mixed into the state) and an odd constant, its two
/// halves XORed, so every bit of the key reaches both the bucket index (the
/// low bits) and the tag (the high bits). The state starts from a seed drawn
/// per table, so group keys in the data cannot be chosen to collide.
/// A fresh one (`Default`) is the table's seed, and builds the hashers.
#[derive(Clone)]
struct MultiplyShift(u64);

impl Default for MultiplyShift {
    fn default() -> Self {
        MultiplyShift(RandomState::new().build_hasher().finish())
    }
}

impl BuildHasher for MultiplyShift {
    type Hasher = MultiplyShift;

    fn build_hasher(&self) -> MultiplyShift {
        self.clone()
    }
}

impl Hasher for MultiplyShift {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The group table of one scan's kernels: every group's states side by
/// side in one vector, in the order the groups were met, and the map from a
/// key to its group's place. See the module docs.
#[derive(Default)]
struct GroupTable {
    states: Vec<AggState>,
    /// Where each key's states start in `states`.
    groups: HashMap<RawKey, usize, MultiplyShift>,
    /// The ungrouped aggregate's start, never hashed.
    global: Option<usize>,
}

impl GroupTable {
    /// The states of group `key` (`None` = the one group of an ungrouped
    /// aggregate), made fresh when the group is new.
    #[inline]
    fn states(&mut self, key: Option<RawKey>, plan: &PhysicalPlan) -> &mut [AggState] {
        let fresh = self.states.len();
        let at = match key {
            None => *self.global.get_or_insert(fresh),
            Some(key) => *self.groups.entry(key).or_insert(fresh),
        };
        if at == fresh {
            self.states.extend(new_states(plan));
        }
        let width = plan.aggregates.len();
        &mut self.states[at..at + width]
    }

    /// Fold the table into `groups`: its states move over whole, with its
    /// keys as values. Two raw keys are one group only when a double equals
    /// an integer (`7.0` and `7`); such a double's states join the
    /// integer's first, so the keys handed over are distinct
    /// ([`GroupPartials::absorb`]).
    fn fold_into(mut self, groups: &mut GroupPartials, width: usize) {
        if self.groups.keys().any(|key| key.ty == AtomicType::Int) {
            let equal: Vec<(RawKey, usize, usize)> = self
                .groups
                .iter()
                .filter(|(key, _)| key.ty == AtomicType::Double)
                .filter_map(|(&key, &from)| {
                    let double = f64::from_bits(key.bits);
                    let int = double as i64;
                    if (int as f64).total_cmp(&double).is_ne() {
                        return None;
                    }
                    let into = self.groups.get(&RawKey {
                        ty: AtomicType::Int,
                        bits: int as u64,
                    })?;
                    Some((key, from, *into))
                })
                .collect();
            for (key, from, into) in equal {
                for i in 0..width {
                    let state = std::mem::replace(&mut self.states[from + i], AggState::Count(0));
                    self.states[into + i].merge(state);
                }
                self.groups.remove(&key);
            }
        }
        let mut keys: Vec<(Option<Value>, usize)> = Vec::with_capacity(self.groups.len() + 1);
        keys.extend(self.global.map(|at| (None, at)));
        keys.extend(
            self.groups
                .into_iter()
                .map(|(key, at)| (Some(key.to_value()), at)),
        );
        if !keys.is_empty() {
            groups.absorb(keys, self.states, width);
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
            ScanBatch::Rows { rows, from } => {
                report.records += rows.len() as u64;
                if matches!(from, RowOrigin::Memtable | RowOrigin::Both) {
                    report.fallbacks.insert("memtable".to_string());
                }
                if matches!(from, RowOrigin::RowLayout | RowOrigin::Both) {
                    report.fallbacks.insert("row layout".to_string());
                }
                let _stage = Stage::Assemble.enter();
                for (_, record) in &rows {
                    fused.push(record);
                }
                continue;
            }
        };
        let component = batch.component().clone();
        let kernel = kernels.entry(component.id()).or_insert_with(|| match lane {
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
                    let stage = Stage::KernelFold.enter();
                    kernel.run(&chunks, batch.selection(), plan, &mut table);
                    drop(stage);
                    let folded = batch.selection().len() as u64;
                    report.records += folded;
                    component.cache().store().note_scan_records_kernel(folded);
                    continue;
                }
                None => "leaf predates a column".to_string(),
            },
        };
        report.fallbacks.insert(fallback);
        let _stage = Stage::Assemble.enter();
        // Counted as they come out: a pushed predicate that needed the
        // record drops its rejections in `into_rows`.
        for row in batch.into_rows(plan.projection.as_deref())? {
            fused.push(&row?.1);
            report.records += 1;
        }
    }
    table.fold_into(&mut fused.groups, plan.aggregates.len());
    Ok(fused.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{finalize, merge_partials, plan, PlanContext, PlannerOptions};
    use crate::{Aggregate, Query, QueryRow};

    /// One scan's table can hold `7` from an integer column and `7.0` from
    /// a double column of another component: handed over, they are one
    /// group, reported as `7` — into no groups (taken over whole) and into
    /// groups that exist — while `-0.0` stays apart from `0`, and a double
    /// beyond every integer joins none.
    #[test]
    fn equal_int_and_double_keys_fold_into_one_group() {
        let query =
            Query::select([Aggregate::Max(Path::parse("s")), Aggregate::Count]).group_by("g");
        let plan = plan(
            &query,
            &PlanContext::scan_only(),
            &PlannerOptions::default(),
        )
        .unwrap();
        let int = |v: i64| RawKey {
            ty: AtomicType::Int,
            bits: v as u64,
        };
        let double = |v: f64| RawKey {
            ty: AtomicType::Double,
            bits: v.to_bits(),
        };
        let inputs = [
            (double(7.0), 9),
            (int(7), 4),
            (int(0), 1),
            (double(-0.0), 2),
            (double(1e300), 3),
            (int(-7), 5),
            (double(7.0), 2),
        ];
        let table = || {
            let mut table = GroupTable::default();
            for (key, score) in inputs {
                let states = table.states(Some(key), &plan);
                states[0].update(Some(&Value::Int(score)));
                states[1].update(None);
            }
            table
        };
        let row = |group: Value, max: i64, count: i64| QueryRow {
            group: Some(group),
            aggs: vec![Value::Int(max), Value::Int(count)],
        };
        let want = vec![
            row(Value::Int(-7), 5, 1),
            row(Value::Double(-0.0), 2, 1),
            row(Value::Int(0), 1, 1),
            row(Value::Int(7), 9, 3),
            row(Value::Double(1e300), 3, 1),
        ];
        let mut alone = GroupPartials::new();
        table().fold_into(&mut alone, 2);
        assert_eq!(format!("{:?}", finalize(alone, &plan)), format!("{want:?}"));
        // Into groups that exist: another execution's 7.0 and -7.
        let mut existing = GroupPartials::new();
        for (key, score) in [(Value::Double(7.0), 1), (Value::Int(-7), 6)] {
            let states = existing
                .entry(Some(OrderedValue(key)))
                .or_insert_with(|| new_states(&plan));
            states[0].update(Some(&Value::Int(score)));
            states[1].update(None);
        }
        table().fold_into(&mut existing, 2);
        let mut want = want;
        want[0] = row(Value::Int(-7), 6, 2);
        want[3] = row(Value::Int(7), 9, 4);
        assert_eq!(
            format!("{:?}", finalize(existing, &plan)),
            format!("{want:?}")
        );
        // And once more through a merge of whole partials.
        let mut merged = GroupPartials::new();
        let mut part = GroupPartials::new();
        table().fold_into(&mut part, 2);
        merge_partials(&mut merged, part);
        assert_eq!(finalize(merged, &plan).len(), 5);
    }
}
