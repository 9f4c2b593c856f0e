//! EXPLAIN ANALYZE — actual execution counters alongside the plan.
//!
//! [`QueryEngine::explain_analyze`](crate::QueryEngine::explain_analyze)
//! runs the query for real and returns an [`AnalyzeReport`]: the rendered
//! physical plan (exactly what [`explain`](crate::QueryEngine::explain)
//! produces), the query's actual rows, and one [`ShardAnalysis`] per
//! partition with the counters the plan's *estimates* promise:
//!
//! * **rows pulled** — reconciliation winners handed to the operators,
//!   whichever lane took them: the records of the batches the compiled
//!   engine aggregated (folded by column kernels or assembled), or the rows
//!   drawn through the key-ordered row adapter, counted by a thin wrapper
//!   (`CountingIter`); with `ORDER BY key LIMIT k` this is the
//!   early-termination point, not the dataset size;
//! * **the lane** — per partition: batches scanned, records the column
//!   kernels folded without building a document (`scan_records_kernel`),
//!   documents actually built (`records_assembled`), and *why* batches fell
//!   back to the assembled lane ("residual filter", "union at `readings`",
//!   "memtable", "row layout", …);
//! * **pages/bytes read** — deltas of the underlying store's
//!   [`IoStats`] around the partition's
//!   execution. Partitions run *sequentially* under analyze (unlike
//!   [`execute`](crate::QueryEngine::execute)'s thread-per-shard fan-out)
//!   so each shard's delta is exact even when shards share one store;
//! * **cache hits/misses** — decoded-leaf cache traffic during execution
//!   (same [`IoStats`] deltas); a fully warm
//!   hot-range re-scan shows hits equal to the leaves touched and a
//!   pages-read delta of zero;
//! * **filtered pre-assembly / leaves skipped** — late-materialization
//!   counters: reconciliation winners the pushed-down filter rejected
//!   before record assembly, and leaves the zone maps hid before any page
//!   read — one at a time, or every leaf of a component its own zone map
//!   hid. `leaves_skipped` is the one zone-map counter. Both are exact
//!   [`IoStats`] deltas and appear in the rendering only when nonzero.
//!
//! * **stages** — where the partition's wall time went, from the stage
//!   clock ([`telemetry::stage`]) run around it: page reads (cache, backend
//!   and CRC), decompression, level and value decoding, kernel folds and the
//!   assembled lane, each exclusive of the stages nested in it. The time
//!   outside every stage is reconciliation, planning and finalisation.
//!
//! A key-only `COUNT(*)` never materialises records, so it reports zero
//! rows pulled and a complete (`exhausted`) stream; its cost shows up in
//! the page counters.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use storage::pagestore::IoStats;
use telemetry::stage::StageTimes;

use crate::compiled::LaneReport;
use crate::plan::QueryRow;

/// Pull counters shared between the executing pipeline and the probe: how
/// many records the operators drew from the access stage, and whether they
/// drained it (a limited query that stops early leaves `exhausted` false).
#[derive(Default)]
pub(crate) struct PullStats {
    pulled: AtomicU64,
    exhausted: AtomicBool,
}

/// Wraps the access-stage record stream and, when analyzing, counts what
/// flows through it.
pub(crate) struct CountingIter<I> {
    inner: I,
    stats: Option<Arc<PullStats>>,
}

impl<I> CountingIter<I> {
    pub(crate) fn new(inner: I, stats: Option<Arc<PullStats>>) -> CountingIter<I> {
        CountingIter { inner, stats }
    }
}

impl<I: Iterator> Iterator for CountingIter<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next();
        match (&item, &self.stats) {
            (Some(_), Some(stats)) => {
                stats.pulled.fetch_add(1, Ordering::Relaxed);
            }
            (None, Some(stats)) => stats.exhausted.store(true, Ordering::Relaxed),
            (_, None) => {}
        }
        item
    }
}

/// Collection point for one partition's counters while it executes.
pub(crate) struct ExecProbe {
    pub(crate) pull: Arc<PullStats>,
    fallbacks: std::cell::RefCell<Vec<String>>,
}

impl ExecProbe {
    pub(crate) fn new() -> ExecProbe {
        ExecProbe {
            pull: Arc::new(PullStats::default()),
            fallbacks: std::cell::RefCell::default(),
        }
    }

    /// Mark the stream complete for access paths that never route records
    /// through the counting iterator (key-only counts).
    pub(crate) fn mark_exhausted(&self) {
        self.pull.exhausted.store(true, Ordering::Relaxed);
    }

    /// Record what a drained batch scan handed to the operators.
    pub(crate) fn note_lanes(&self, lanes: LaneReport) {
        self.pull.pulled.fetch_add(lanes.records, Ordering::Relaxed);
        self.mark_exhausted();
        self.fallbacks.borrow_mut().extend(lanes.fallbacks);
    }

    /// Freeze the counters into the partition's report. `io` is the store's
    /// counters before and after the partition ran (absent for a
    /// memtable-only snapshot, which does no page I/O).
    pub(crate) fn finish(
        self,
        io: Option<(IoStats, IoStats)>,
        stages: StageTimes,
        rows_out: usize,
    ) -> ShardAnalysis {
        let delta = |field: fn(&IoStats) -> u64| {
            io.as_ref()
                .map_or(0, |(before, after)| field(after).saturating_sub(field(before)))
        };
        ShardAnalysis {
            rows_pulled: self.pull.pulled.load(Ordering::Relaxed),
            exhausted: self.pull.exhausted.load(Ordering::Relaxed),
            pages_read: delta(|io| io.pages_read),
            bytes_read: delta(|io| io.bytes_read),
            cache_hits: delta(|io| io.leaf_cache_hits),
            cache_misses: delta(|io| io.leaf_cache_misses),
            records_filtered_pre_assembly: delta(|io| io.records_filtered_pre_assembly),
            leaves_skipped: delta(|io| io.leaves_skipped),
            scan_batches: delta(|io| io.scan_batches),
            records_kernel: delta(|io| io.scan_records_kernel),
            records_assembled: delta(|io| io.records_assembled),
            fallbacks: self.fallbacks.into_inner(),
            stages,
            rows_out,
        }
    }
}

/// Actual execution counters of one partition of an analyzed query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAnalysis {
    /// Reconciliation winners handed to the operators, whichever lane took
    /// them (rows drawn through the row adapter or an index probe; records
    /// of the batches the compiled engine aggregated).
    pub rows_pulled: u64,
    /// Whether the access stream was drained. `false` means the query
    /// terminated early (`ORDER BY key LIMIT k` found its k rows).
    pub exhausted: bool,
    /// Pages read from the partition's store during execution
    /// ([`IoStats`] delta).
    pub pages_read: u64,
    /// Bytes read from the partition's store during execution.
    pub bytes_read: u64,
    /// Decoded-leaf cache hits during execution (leaves served without a
    /// page read; 0 when the store has no leaf cache).
    pub cache_hits: u64,
    /// Decoded-leaf cache misses during execution (leaves decoded from
    /// pages and inserted into the cache).
    pub cache_misses: u64,
    /// Reconciliation winners the pushed-down filter rejected *before*
    /// assembly ([`IoStats`] delta): their
    /// filter columns were decoded, nothing else.
    pub records_filtered_pre_assembly: u64,
    /// Leaves the zone maps hid before any page read, including every leaf
    /// of a component its own zone map hid ([`IoStats`] delta).
    pub leaves_skipped: u64,
    /// Batches the snapshot's batch scan handed over
    /// ([`IoStats`] delta).
    pub scan_batches: u64,
    /// Winners the compiled engine's column kernels folded without building
    /// a document ([`IoStats`] delta).
    pub records_kernel: u64,
    /// Documents actually built from stored pages
    /// ([`IoStats`] delta): the assembled lane,
    /// the row adapter, index-probe lookups. Zero when the kernels covered
    /// every batch.
    pub records_assembled: u64,
    /// Why batches took the assembled lane instead of the kernels, one
    /// entry per distinct reason (empty when none did).
    pub fallbacks: Vec<String>,
    /// Wall time by stage while the partition ran (the stage clock's split).
    pub stages: StageTimes,
    /// Rows (projection) or groups (aggregation) this partition produced
    /// before the cross-shard merge.
    pub rows_out: usize,
}

impl ShardAnalysis {
    /// The early-termination point: how many records had been pulled when
    /// the query stopped, or `None` when the stream ran to completion.
    pub fn early_termination(&self) -> Option<u64> {
        (!self.exhausted).then_some(self.rows_pulled)
    }
}

/// What [`QueryEngine::explain_analyze`](crate::QueryEngine::explain_analyze)
/// returns: the plan as `explain` renders it, the real result rows, and the
/// per-partition execution counters.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// The rendered physical plan (identical to `explain`'s output).
    pub plan: String,
    /// The query's actual result rows.
    pub rows: Vec<QueryRow>,
    /// Execution counters, one entry per partition in target order.
    pub shards: Vec<ShardAnalysis>,
    /// Wall-clock time of the whole analyzed execution (partitions run
    /// sequentially, so this is the sum of per-shard work).
    pub wall: Duration,
}

impl AnalyzeReport {
    /// Total records pulled from the access stage across partitions.
    pub fn rows_pulled(&self) -> u64 {
        self.shards.iter().map(|s| s.rows_pulled).sum()
    }

    /// Total pages read across partitions.
    pub fn pages_read(&self) -> u64 {
        self.shards.iter().map(|s| s.pages_read).sum()
    }

    /// Total bytes read across partitions.
    pub fn bytes_read(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes_read).sum()
    }

    /// Total decoded-leaf cache hits across partitions.
    pub fn cache_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.cache_hits).sum()
    }

    /// Total decoded-leaf cache misses across partitions.
    pub fn cache_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.cache_misses).sum()
    }

    /// Total reconciliation winners the pushed-down filter rejected before
    /// assembly, across partitions.
    pub fn records_filtered_pre_assembly(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.records_filtered_pre_assembly)
            .sum()
    }

    /// Total leaves the zone maps hid before any page read, across
    /// partitions.
    pub fn leaves_skipped(&self) -> u64 {
        self.shards.iter().map(|s| s.leaves_skipped).sum()
    }

    /// Total winners the column kernels folded, across partitions.
    pub fn records_kernel(&self) -> u64 {
        self.shards.iter().map(|s| s.records_kernel).sum()
    }

    /// Total documents built, across partitions.
    pub fn records_assembled(&self) -> u64 {
        self.shards.iter().map(|s| s.records_assembled).sum()
    }

    /// Wall time by stage, summed over partitions.
    pub fn stages(&self) -> StageTimes {
        let mut total = StageTimes::default();
        for shard in &self.shards {
            total.absorb(&shard.stages);
        }
        total
    }

    /// The early-termination point across the whole run: total rows pulled,
    /// if any partition stopped before draining its stream.
    pub fn early_termination(&self) -> Option<u64> {
        self.shards
            .iter()
            .any(|s| !s.exhausted)
            .then(|| self.rows_pulled())
    }

    /// Render the plan with the actual-execution annotations appended —
    /// the EXPLAIN ANALYZE text.
    pub fn describe(&self) -> String {
        let mut out = self.plan.clone();
        if !out.ends_with('\n') {
            out.push('\n');
        }
        let termination = match self.early_termination() {
            Some(at) => format!("early termination after {at} rows pulled"),
            None => "stream exhausted".to_string(),
        };
        // Cache counters appear only when a decoded-leaf cache took part,
        // so cacheless stores keep their familiar one-line rendering.
        let cache = if self.cache_hits() + self.cache_misses() > 0 {
            format!(
                ", cache hits {} / misses {}",
                self.cache_hits(),
                self.cache_misses(),
            )
        } else {
            String::new()
        };
        // Likewise the pushdown counters: rendered only when the pushed
        // filter actually rejected records or skipped leaves.
        let pushdown = if self.records_filtered_pre_assembly() + self.leaves_skipped() > 0 {
            format!(
                ", filtered pre-assembly {}, leaves skipped {}",
                self.records_filtered_pre_assembly(),
                self.leaves_skipped(),
            )
        } else {
            String::new()
        };
        out.push_str(&format!(
            "analyze: wall {:?}, rows pulled {}, pages read {}{}{}, output rows {}, {}\n",
            self.wall,
            self.rows_pulled(),
            self.pages_read(),
            cache,
            pushdown,
            self.rows.len(),
            termination,
        ));
        for (i, s) in self.shards.iter().enumerate() {
            let cache = if s.cache_hits + s.cache_misses > 0 {
                format!(", cache hits {} / misses {}", s.cache_hits, s.cache_misses)
            } else {
                String::new()
            };
            let pushdown = if s.records_filtered_pre_assembly + s.leaves_skipped > 0 {
                format!(
                    ", filtered pre-assembly {}, leaves skipped {}",
                    s.records_filtered_pre_assembly, s.leaves_skipped,
                )
            } else {
                String::new()
            };
            let fallbacks = if s.fallbacks.is_empty() {
                String::new()
            } else {
                format!(" (fell back: {})", s.fallbacks.join("; "))
            };
            out.push_str(&format!(
                "analyze[shard {i}]: rows pulled {}, pages read {}{}{}, batches {}, kernel records {}, assembled records {}{}, rows out {}{}\n",
                s.rows_pulled,
                s.pages_read,
                cache,
                pushdown,
                s.scan_batches,
                s.records_kernel,
                s.records_assembled,
                fallbacks,
                s.rows_out,
                if s.exhausted { "" } else { ", terminated early" },
            ));
            out.push_str(&format!("analyze[shard {i}] stages: {}\n", s.stages));
        }
        out
    }
}
