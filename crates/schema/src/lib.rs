//! # schema — inferred schemas for schemaless documents
//!
//! Document stores do not require a schema up front; instead, the *tuple
//! compactor* (Alkowaileet et al., PVLDB 2020 — the substrate this paper
//! builds on) infers one as records are flushed from the LSM in-memory
//! component to disk. The inferred schema is a tree:
//!
//! * **object** nodes with named children,
//! * **array** nodes with a single item child,
//! * **union** nodes whose children are keyed by their type (introduced when
//!   the same field is observed with two or more different types), and
//! * **atomic** leaves (`bool`, `int`, `double`, `string`, `null`).
//!
//! Every atomic leaf corresponds to exactly one *column* in the extended
//! Dremel format, and so does every container seen only empty (an array
//! with no item, an object with no fields): every node has a column at or
//! beneath it. This crate provides:
//!
//! * [`SchemaNode`]/[`Schema`] — the arena-backed schema tree ([`node`]),
//! * [`SchemaBuilder`] — single-pass schema inference with union introduction
//!   ([`infer`]),
//! * [`ColumnSpec`] — the per-column metadata (path, type, maximum definition
//!   level, enclosing-array levels) the shredder and assembler need
//!   ([`columns`]),
//! * persistence of the schema into a component's metadata page ([`serial`]).
//!
//! Node identifiers are append-only and therefore stable across schema
//! evolution: when a field's type changes and a union node is interposed, the
//! existing leaf keeps its identifier, which is exactly the property the
//! paper relies on to avoid rewriting the definition levels of
//! already-written columns (§3.2.2).

pub mod columns;
pub mod infer;
pub mod node;
pub mod serial;
pub mod types;

pub use columns::{
    columns_of, key_column, readable_columns, widen_over_union_items, ColumnId, ColumnSpec,
};
pub use infer::SchemaBuilder;
pub use node::{NodeId, Schema, SchemaNode};
pub use serial::{read_schema, write_schema};
pub use types::AtomicType;
