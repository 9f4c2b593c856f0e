//! Merging components: reconcile on keys, copy columns.
//!
//! [`merge_components`] is the whole of a merge job's data path. It drives
//! one [`ComponentWriter`] — the same one a flush drives — from the k-way
//! reconciliation of its inputs ([`EntryMergeCursor`]), and **nothing of the
//! output is ever resident beyond the writer's open leaf**.
//!
//! For the columnar layouts (APAX, AMAX) the merge follows §4.4 of the
//! paper: reconciliation runs on the key columns alone and yields, per
//! winning key, *where* the winner sits — input, leaf, ordinal — instead of
//! the record. Winners that are consecutive in one input leaf collapse into
//! a run, and the writer then copies the runs column by column out of the
//! inputs' decoded chunks ([`ComponentWriter::push_runs`]). A run is two
//! slice extends per column; no record is assembled and none is shredded.
//! Which lane an input takes is decided per decoded leaf by what the writer
//! observes of it ([`ComponentWriter::can_copy`]), never by an option:
//!
//! | The leaf's chunk of an output column is…                | Lane |
//! |---|---|
//! | there, with an equal [`schema::ColumnSpec`]              | copied |
//! | missing, as is every column of its top-level field       | filled with one definition-level-0 entry per record |
//! | anything else (a new nested field, a promotion to a union, changed levels) | the leaf's winners are assembled and re-shredded into the same writer |
//!
//! Row layouts (Open, VB) have no columns to copy; their winners stream
//! through the writer as entries.
//!
//! Memory: at most one decoded leaf per input (the cursors') plus the
//! writer's open leaf. Pending runs refer to records of those resident
//! leaves and are handed to the writer before the leaf they point into is
//! released, so they add nothing. [`MergeReport::peak_buffered`] is the
//! high-water mark that shows it.

use std::ops::Range;
use std::sync::Arc;

use schema::Schema;
use storage::component::{Component, ComponentConfig, LeafChunks};
use storage::pagestore::BufferCache;
use storage::ComponentWriter;

use crate::snapshot::{EntryMergeCursor, ROW_BATCH};
use crate::Result;

/// How a merge moves the winners of copy-compatible columnar leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeLane {
    /// Copy record ranges wherever the writer accepts the leaf — what every
    /// merge of a dataset does.
    Copy,
    /// Assemble and re-shred every winner. The reference the copy lane is
    /// tested against, and nothing else: the output must be identical.
    Reshred,
}

/// What one merge did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Winners copied column by column, never assembled.
    pub records_copied: u64,
    /// Winners of columnar inputs that had to be assembled and re-shredded.
    pub records_reshredded: u64,
    /// High-water mark of records resident at once: the unconsumed part of
    /// every input's decoded leaf, the records pending runs refer to, and
    /// the writer's open leaf.
    pub peak_buffered: usize,
}

/// The runs collected since the writer was last fed, and the input leaves
/// they point into.
struct PendingRuns {
    /// Per merge source: the leaf it is reading, and that leaf's chunks when
    /// the writer can copy from them (`None` = its winners are re-shredded).
    leaves: Vec<Option<(usize, Option<LeafChunks>)>>,
    runs: Vec<(usize, Range<usize>)>,
    records: usize,
}

impl PendingRuns {
    fn add(&mut self, source: usize, ordinal: usize) {
        self.records += 1;
        match self.runs.last_mut() {
            Some((last, run)) if *last == source && run.end == ordinal => run.end += 1,
            _ => self.runs.push((source, ordinal..ordinal + 1)),
        }
    }

    /// Hand the pending runs to the writer.
    fn flush(&mut self, writer: &mut ComponentWriter) -> Result<()> {
        if self.runs.is_empty() {
            return Ok(());
        }
        // `push_runs` indexes its leaf list; sources without a leaf get an
        // empty stand-in no run refers to.
        let leaves: Vec<&[_]> = self
            .leaves
            .iter()
            .map(|leaf| match leaf {
                Some((_, Some(chunks))) => &chunks[..],
                _ => &[],
            })
            .collect();
        writer.push_runs(&leaves, &self.runs)?;
        self.runs.clear();
        self.records = 0;
        Ok(())
    }
}

/// Merge `inputs` (oldest first, adjacent in age) into component `id`:
/// newest version of each key wins, anti-matter is kept unless the merge
/// `includes_oldest` (then nothing older is left for it to annihilate).
pub fn merge_components(
    cache: &BufferCache,
    config: &ComponentConfig,
    schema: Schema,
    inputs: &[Arc<Component>],
    id: u64,
    includes_oldest: bool,
    lane: MergeLane,
) -> Result<(Component, MergeReport)> {
    let mut writer = ComponentWriter::new(cache, config, schema, id);
    let mut cursor = EntryMergeCursor::over_components(inputs, None);
    let mut report = MergeReport::default();
    let mut pending = PendingRuns {
        leaves: vec![None; inputs.len()],
        runs: Vec::new(),
        records: 0,
    };
    let columnar = config.layout.is_columnar();
    let mut winners = Vec::new();
    loop {
        // A leaf some source has used up is about to be replaced by the
        // source's next one: feed the writer the runs that point into it and
        // let go of its chunks first, so no input ever holds two.
        for source in 0..pending.leaves.len() {
            if pending.leaves[source].is_some() && cursor.source_buffered(source) == 0 {
                pending.flush(&mut writer)?;
                pending.leaves[source] = None;
            }
        }
        cursor.step(ROW_BATCH, &mut winners)?;
        if winners.is_empty() {
            break;
        }
        // Everything the step reconciled was resident when it began.
        let resident = cursor.resident() + pending.records + writer.open_records();
        report.peak_buffered = report.peak_buffered.max(resident);
        for &winner in &winners {
            let source = winner.source;
            let leaf = match lane {
                MergeLane::Copy => cursor.resident_leaf(source),
                MergeLane::Reshred => None,
            };
            if let Some(leaf) = leaf {
                if pending.leaves[source].as_ref().map(|(at, ..)| *at) != Some(leaf) {
                    // The source's first winner in this leaf (runs into its
                    // previous leaf were handed over when that one ran out).
                    let chunks = cursor
                        .source_chunks(source)
                        .expect("a located winner has a resident leaf");
                    let copyable = writer.can_copy(chunks).then(|| chunks.clone());
                    pending.leaves[source] = Some((leaf, copyable));
                }
                if matches!(pending.leaves[source], Some((_, Some(_)))) {
                    if !(winner.anti_matter && includes_oldest) {
                        pending.add(source, winner.ordinal);
                        report.records_copied += 1;
                    }
                    continue;
                }
            }
            // The entry lane: rows, forced re-shreds, copy-incompatible
            // leaves.
            let (key, doc) = cursor.take_winner(winner)?;
            if doc.is_some() || !includes_oldest {
                pending.flush(&mut writer)?;
                writer.push_entry(&key, doc.as_ref())?;
                report.records_reshredded += u64::from(columnar);
            }
        }
    }
    pending.flush(&mut writer)?;
    Ok((writer.finish()?, report))
}
