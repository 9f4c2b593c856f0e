//! The shape walk: what assembly *would* build, counted instead of built.
//!
//! A component writer needs two things about the records it seals into a
//! leaf that only the records' structure can tell: per-path presence counts
//! (the leaf's zone map) and, for the size-bounded layouts, each record's
//! logical size. Both used to come from walking documents. [`ShapeWalker`]
//! gets them from the definition-level streams alone: it follows the
//! [`Assembler`](crate::Assembler)'s automaton entry for entry — the same
//! absent / empty / delimiter decisions, the same placeholders for array
//! elements whose subtree is absent — but where the assembler would build a
//! value it bumps a tally and adds up [`Value::approx_size`]. No value is
//! read except the length of a string, and no document exists at any point.
//!
//! The tallies are keyed by *path*, rendered exactly like
//! [`docmodel::Path`]'s display minus the union steps (`name<string>` and
//! `name<object>.first` tally under `name` and `name.first`): the key a
//! document walk would have produced for the assembled record.
//!
//! [`Value::approx_size`]: docmodel::Value::approx_size

use std::collections::HashMap;

use schema::node::SchemaNode;
use schema::{ColumnId, NodeId, Schema};

use crate::assemble::AssemblyPlan;
use crate::chunk::{ChunkPos, ColumnChunk};
use crate::{ColumnarError, Result};

/// One path the records of a schema can address.
#[derive(Debug, Clone)]
pub struct ShapePath {
    /// The path as a query renders it (`user.name`, `games[*].title`).
    pub path: String,
    /// `false` once the path has crossed an `[*]` step.
    pub single_valued: bool,
    /// The planned columns (by position in the plan's column list) whose
    /// values live at exactly this path — several when the path is a union
    /// of atomic types.
    pub columns: Vec<usize>,
}

/// What the walked records hold at one path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathTally {
    /// Records with at least one value at the path.
    pub rows: u64,
    /// Values at the path, over all records.
    pub values: u64,
    /// Whether any of those values was an object or an array.
    pub composite: bool,
    /// Ordinal (from 1) of the last walked record with a value here.
    last_record: u64,
}

/// The record-independent half of a shape walk over one list of columns:
/// the assembly plan plus the path every schema node tallies under.
pub struct ShapePlan {
    assembly: AssemblyPlan,
    paths: Vec<ShapePath>,
    /// Per schema node: index into `paths` (the root has none).
    path_of: Vec<Option<usize>>,
}

impl ShapePlan {
    /// Plan the walk of exactly `columns` (chunks are handed to
    /// [`ShapeWalker::new`] in the same order).
    pub fn new(schema: &Schema, columns: &[ColumnId]) -> ShapePlan {
        let mut plan = ShapePlan {
            assembly: AssemblyPlan::new(schema, columns),
            paths: Vec::new(),
            path_of: vec![None; schema.node_count()],
        };
        let mut by_path = HashMap::new();
        plan.render(schema, schema.root(), String::new(), true, &mut by_path);
        plan
    }

    /// Every path the planned columns can address, in first-visit order.
    pub fn paths(&self) -> &[ShapePath] {
        &self.paths
    }

    fn render(
        &mut self,
        schema: &Schema,
        node: NodeId,
        path: String,
        single_valued: bool,
        by_path: &mut HashMap<String, usize>,
    ) {
        if !path.is_empty() {
            // Union branches render like the union itself and share its tally.
            let index = *by_path.entry(path.clone()).or_insert_with(|| {
                self.paths.push(ShapePath {
                    path: path.clone(),
                    single_valued,
                    columns: Vec::new(),
                });
                self.paths.len() - 1
            });
            self.path_of[node as usize] = Some(index);
            if let Some(slot) = self.assembly.slot(node) {
                self.paths[index].columns.push(slot);
            }
        }
        match schema.node(node) {
            SchemaNode::Atomic { .. } => {}
            SchemaNode::Object { fields } => {
                for (name, child) in fields {
                    let child_path = if path.is_empty() {
                        name.clone()
                    } else {
                        format!("{path}.{name}")
                    };
                    self.render(schema, *child, child_path, single_valued, by_path);
                }
            }
            SchemaNode::Array { item } => {
                if let Some(item) = item {
                    self.render(schema, *item, format!("{path}[*]"), false, by_path);
                }
            }
            SchemaNode::Union { branches } => {
                for (_, child) in branches {
                    self.render(schema, *child, path.clone(), single_valued, by_path);
                }
            }
        }
    }
}

/// Walks the records of one batch of chunks in order, tallying what each
/// holds at every path. See the module docs.
pub struct ShapeWalker<'a> {
    plan: &'a ShapePlan,
    chunks: Vec<&'a ColumnChunk>,
    pos: Vec<ChunkPos>,
    tallies: Vec<PathTally>,
    /// Ordinal (from 1) of the record being walked.
    record: u64,
}

impl<'a> ShapeWalker<'a> {
    /// A walker over `chunks` — the plan's columns, in the plan's order —
    /// standing at record `first`.
    pub fn new(plan: &'a ShapePlan, chunks: Vec<&'a ColumnChunk>, first: usize) -> Self {
        assert!(
            chunks
                .iter()
                .map(|c| c.spec.id)
                .eq(plan.assembly.columns().iter().copied()),
            "chunks do not match the shape plan's columns"
        );
        ShapeWalker {
            pos: chunks.iter().map(|c| c.record_pos(first)).collect(),
            tallies: vec![PathTally::default(); plan.paths.len()],
            plan,
            chunks,
            record: 0,
        }
    }

    /// Walk the next record: tally its paths and return the
    /// [`approx_size`](docmodel::Value::approx_size) of the document an
    /// assembler would build from it (`4`, the empty object, for
    /// anti-matter, which therefore tallies nothing).
    pub fn next_record(&mut self) -> Result<usize> {
        self.record += 1;
        let plan = self.plan;
        let schema = plan.assembly.schema();
        let SchemaNode::Object { fields } = schema.node(schema.root()) else {
            unreachable!("schema root is always an object")
        };
        let mut size = 4;
        for (name, child) in fields {
            if plan.assembly.leaves_under(*child).is_empty() {
                continue;
            }
            if let Some(child_size) = self.value(*child, 1, 0)? {
                size += 2 + name.len() + child_size;
            }
        }
        Ok(size)
    }

    /// Per-path tallies of the records walked so far, parallel to
    /// [`ShapePlan::paths`].
    pub fn tallies(&self) -> &[PathTally] {
        &self.tallies
    }

    fn tally(&mut self, node: NodeId, composite: bool) {
        let Some(path) = self.plan.path_of[node as usize] else {
            return;
        };
        let tally = &mut self.tallies[path];
        tally.values += 1;
        tally.composite |= composite;
        if tally.last_record != self.record {
            tally.last_record = self.record;
            tally.rows += 1;
        }
    }

    /// The size of the value at `node` for the current structural position,
    /// `None` when it is absent. Mirrors `RecordWalk::assemble_value` step
    /// for step; see there for the array classification rules.
    fn value(&mut self, node: NodeId, level: u16, array_depth: u16) -> Result<Option<usize>> {
        let plan = self.plan;
        let assembly = &plan.assembly;
        match assembly.schema().node(node) {
            SchemaNode::Atomic { .. } => {
                let slot = assembly.slot(node).expect("included leaf has a chunk");
                let chunk = self.chunks[slot];
                let pos = &mut self.pos[slot];
                let def = *chunk
                    .defs
                    .get(pos.def)
                    .ok_or_else(|| ColumnarError::new("column exhausted mid-record"))?;
                let value_at = pos.value;
                chunk.skip_entry(pos);
                if def != chunk.spec.max_def {
                    return Ok(None);
                }
                self.tally(node, false);
                Ok(Some(chunk.values.approx_size_at(value_at)))
            }
            SchemaNode::Object { fields } => {
                let mut size = None;
                for (name, child) in fields {
                    if assembly.leaves_under(*child).is_empty() {
                        continue;
                    }
                    if let Some(child_size) = self.value(*child, level + 1, array_depth)? {
                        size = Some(size.unwrap_or(4) + 2 + name.len() + child_size);
                    }
                }
                if size.is_some() {
                    self.tally(node, true);
                }
                Ok(size)
            }
            SchemaNode::Union { branches } => {
                let mut result = None;
                for (_, child) in branches {
                    if assembly.leaves_under(*child).is_empty() {
                        continue;
                    }
                    let size = self.value(*child, level, array_depth)?;
                    result = result.or(size);
                }
                Ok(result)
            }
            SchemaNode::Array { item } => {
                let Some(item) = *item else { return Ok(None) };
                let Some(&repr) = assembly.leaves_under(item).first() else {
                    return Ok(None);
                };
                let next_def = self.max_peek_under(node)?;
                if next_def < level {
                    self.skip_entry_under(node);
                    return Ok(None);
                }
                self.tally(node, true);
                if next_def == level {
                    if array_depth == 0 {
                        self.skip_to_record_end_under(node);
                    } else {
                        self.skip_entry_under(node);
                    }
                    return Ok(Some(4));
                }
                let item_is_object =
                    matches!(assembly.schema().node(item), SchemaNode::Object { .. });
                let mut size = 4;
                loop {
                    size += match self.value(item, level + 1, array_depth + 1)? {
                        Some(elem) => elem,
                        None => {
                            // The assembler's placeholder: `{}` or `null`.
                            self.tally(item, item_is_object);
                            if item_is_object {
                                4
                            } else {
                                1
                            }
                        }
                    };
                    match self.chunks[repr].defs.get(self.pos[repr].def) {
                        None => break,
                        Some(&v) if v < array_depth => break,
                        Some(&v) if v == array_depth => {
                            self.skip_entry_under(node);
                            break;
                        }
                        Some(_) => {}
                    }
                }
                Ok(Some(size))
            }
        }
    }

    fn skip_entry_under(&mut self, node: NodeId) {
        for &leaf in self.plan.assembly.leaves_under(node) {
            self.chunks[leaf].skip_entry(&mut self.pos[leaf]);
        }
    }

    fn skip_to_record_end_under(&mut self, node: NodeId) {
        for &leaf in self.plan.assembly.leaves_under(node) {
            let chunk = self.chunks[leaf];
            let pos = &mut self.pos[leaf];
            while let Some(&def) = chunk.defs.get(pos.def) {
                chunk.skip_entry(pos);
                if def == 0 {
                    break;
                }
            }
        }
    }

    fn max_peek_under(&self, node: NodeId) -> Result<u16> {
        let mut max = None;
        for &leaf in self.plan.assembly.leaves_under(node) {
            let def = *self.chunks[leaf]
                .defs
                .get(self.pos[leaf].def)
                .ok_or_else(|| ColumnarError::new("column exhausted at array position"))?;
            max = Some(max.map_or(def, |m: u16| m.max(def)));
        }
        max.ok_or_else(|| ColumnarError::new("array node has no projected columns"))
    }
}
