//! # columnar — the extended Dremel format
//!
//! This crate implements the paper's §3: a columnar representation for
//! schemaless, nested, heterogeneous documents that
//!
//! * keeps Dremel's **definition levels** (how much of a column's path is
//!   present in a given record),
//! * replaces Dremel's repetition levels with **delimiters** embedded in the
//!   definition-level stream (§3.2.1) — a delimiter value `k` marks the end
//!   of the enclosing array at nesting depth `k`, and an inner delimiter is
//!   subsumed when an outer array ends at the same point,
//! * supports **union types** so a field may hold different types in
//!   different records (§3.2.2): each union branch is its own column, and
//!   when one branch is present the sibling branches record an "absent"
//!   definition level one below the union's level,
//! * is **exact over the whole JSON domain**: `null` is a type (a column of
//!   levels with no values), a container seen only empty is a column of its
//!   own, and presence is read off the levels for objects as for arrays, so
//!   `null`s, `[]` and `{}` come back as written,
//! * encodes LSM **anti-matter** through the primary-key column's definition
//!   level (0 = tombstone, 1 = record, §3.2.3).
//!
//! The pieces:
//!
//! * [`chunk`] — [`ColumnChunk`]: one column's definition levels and values,
//!   with encode/decode to the byte representation stored inside APAX
//!   minipages and AMAX megapages, min/max statistics for zone maps, the
//!   key column's anti-matter test ([`ColumnChunk::is_antimatter`]), and
//!   [`ChunkPos`], the one position type: record-wise skipping and seeking
//!   through a lazily built record-offset index (§4.6);
//! * [`shred`] — [`Shredder`]: schema-driven decomposition of records into
//!   column chunks (the "columnize while inferring the schema" pass of the
//!   tuple compactor);
//! * [`assemble`] — the record-assembly automaton, written once and generic
//!   over what it produces, with projection push-down so queries only touch
//!   (and only decode) the columns they need. Two sinks drive it:
//!   [`Assembler`] stitches the columns back into documents (one after the
//!   other, or the record at one ordinal, [`Assembler::record_at`]), and
//!   [`shape`]'s [`ShapeWalker`] adds up their sizes and per-path presence
//!   tallies instead — how a component writer derives zone maps and page
//!   boundaries from column chunks without a document;
//! * [`cursor`] — [`ColumnWalk`]: one column read at a time over ascending
//!   record ordinals (a record's value, its array's elements, the value
//!   range and input count of a run of records) — what column kernels and
//!   pushed filters run on — and [`ColumnCursor`], a chunk handed to an
//!   [`Assembler`].
//!
//! The definition-level rules are read only here: nothing outside this crate
//! compares a level.
//!
//! Chunks also support **record-range copy** ([`ColumnChunk::record_pos`],
//! [`ColumnChunk::skip_records`], [`ColumnChunk::extend_from`]): the entries
//! of a run of records move from one chunk of a column to another as two
//! slice extends — the primitive behind §4.4's column-wise merge.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod assemble;
pub mod chunk;
pub mod cursor;
pub mod shape;
pub mod shred;

pub use assemble::{Assembler, AssemblyPlan};
pub use chunk::{ChunkPos, ColumnChunk, ColumnValues};
pub use cursor::{ColumnCursor, ColumnWalk, Elements};
pub use shape::{PathTally, ShapePath, ShapePlan, ShapeWalker};
pub use shred::{ShreddedBatch, Shredder};

/// Error type shared by the columnar readers.
pub type ColumnarError = encoding::DecodeError;
/// Result alias.
pub type Result<T> = std::result::Result<T, ColumnarError>;
