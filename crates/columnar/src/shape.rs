//! The shape walk: what assembly *would* build, counted instead of built.
//!
//! A component writer needs two things about the records it seals into a
//! leaf that only the records' structure can tell: per-path presence counts
//! (the leaf's zone map) and, for the size-bounded layouts, each record's
//! logical size. [`ShapeWalker`] gets them from the definition-level streams
//! alone: it runs the [`Assembler`](crate::Assembler)'s automaton itself —
//! the same absent / empty / delimiter decisions — with a sink that, where the
//! assembler's sink builds a value, bumps a tally and adds up
//! [`Value::approx_size`]. No value is read except the length of a string,
//! and no document exists at any point.
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

use crate::assemble::{AssemblyPlan, RecordWalk, Sink};
use crate::chunk::{ChunkPos, ColumnChunk, ColumnValues};
use crate::Result;

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
    tallies: Tallies<'a>,
}

impl<'a> ShapeWalker<'a> {
    /// A walker over `chunks` — the plan's columns, in the plan's order —
    /// standing at record `first`.
    pub fn new(plan: &'a ShapePlan, chunks: Vec<&'a ColumnChunk>, first: usize) -> Self {
        plan.assembly.check_columns(&chunks);
        ShapeWalker {
            pos: chunks.iter().map(|c| c.record_pos(first)).collect(),
            tallies: Tallies {
                path_of: &plan.path_of,
                tallies: vec![PathTally::default(); plan.paths.len()],
                record: 0,
            },
            plan,
            chunks,
        }
    }

    /// Walk the next record: tally its paths and return the
    /// [`approx_size`](docmodel::Value::approx_size) of the document an
    /// assembler would build from it (`4`, the empty object, for
    /// anti-matter, which therefore tallies nothing).
    pub fn next_record(&mut self) -> Result<usize> {
        self.tallies.record += 1;
        RecordWalk {
            plan: &self.plan.assembly,
            chunks: &self.chunks,
            pos: &mut self.pos,
            sink: &mut self.tallies,
        }
        .record()
    }

    /// Per-path tallies of the records walked so far, parallel to
    /// [`ShapePlan::paths`].
    pub fn tallies(&self) -> &[PathTally] {
        &self.tallies.tallies
    }
}

/// The size sink: a value is its [`Value::approx_size`], and every present
/// value bumps the tally of its path.
struct Tallies<'a> {
    /// Per schema node: index into the tallies (the root has none).
    path_of: &'a [Option<usize>],
    tallies: Vec<PathTally>,
    /// Ordinal (from 1) of the record being walked.
    record: u64,
}

impl Tallies<'_> {
    fn tally(&mut self, node: NodeId, composite: bool) {
        let Some(path) = self.path_of[node as usize] else {
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
}

impl Sink for Tallies<'_> {
    type Value = usize;
    type Fields = usize;
    type Elements = usize;

    fn atomic(&mut self, node: NodeId, values: &ColumnValues, index: usize) -> usize {
        self.tally(node, false);
        values.approx_size_at(index)
    }

    fn field(fields: &mut usize, name: &str, size: usize) {
        *fields += 2 + name.len() + size;
    }

    fn object(&mut self, node: NodeId, fields: usize) -> usize {
        self.tally(node, true);
        4 + fields
    }

    fn element(elements: &mut usize, size: usize) {
        *elements += size;
    }

    fn array(&mut self, node: NodeId, elements: usize) -> usize {
        self.tally(node, true);
        4 + elements
    }
}
