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
//! * encodes LSM **anti-matter** through the primary-key column's definition
//!   level (0 = tombstone, 1 = record, §3.2.3).
//!
//! The pieces:
//!
//! * [`chunk`] — [`ColumnChunk`]: one column's definition levels and values,
//!   with encode/decode to the byte representation stored inside APAX
//!   minipages and AMAX megapages, plus min/max statistics for zone maps;
//! * [`shred`] — [`Shredder`]: schema-driven decomposition of records into
//!   column chunks (the "columnize while inferring the schema" pass of the
//!   tuple compactor);
//! * [`cursor`] — [`ColumnCursor`]: entry-at-a-time iteration with
//!   record-boundary awareness and batch skipping (used by LSM
//!   reconciliation, §4.4);
//! * [`assemble`] — [`Assembler`]: the record-assembly automaton that stitches
//!   columns back into documents, with projection push-down so queries only
//!   touch (and only decode) the columns they need. Point lookups assemble
//!   the record at one ordinal ([`Assembler::record_at`]) by seeking each
//!   projected column through a lazily built record-offset index (§4.6);
//! * [`shape`] — [`ShapeWalker`]: the same automaton run for its side
//!   effects only — per-path presence tallies and per-record logical sizes
//!   read off the definition levels, which is how a component writer derives
//!   zone maps and page boundaries from column chunks without a document.
//!
//! Chunks also support **record-range copy** ([`ColumnChunk::record_pos`],
//! [`ColumnChunk::skip_records`], [`ColumnChunk::extend_from`]): the entries
//! of a run of records move from one chunk of a column to another as two
//! slice extends — the primitive behind §4.4's column-wise merge.

pub mod assemble;
pub mod chunk;
pub mod cursor;
pub mod shape;
pub mod shred;

pub use assemble::{Assembler, AssemblyPlan};
pub use chunk::{ChunkPos, ColumnChunk, ColumnValues};
pub use cursor::ColumnCursor;
pub use shape::{PathTally, ShapePath, ShapePlan, ShapeWalker};
pub use shred::{ShreddedBatch, Shredder};

/// Error type shared by the columnar readers.
pub type ColumnarError = encoding::DecodeError;
/// Result alias.
pub type Result<T> = std::result::Result<T, ColumnarError>;
