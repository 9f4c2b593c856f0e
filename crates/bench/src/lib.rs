//! # bench — the experiment harness
//!
//! [`EXPERIMENTS`] is one table of every experiment: the tables and figures
//! of the paper's evaluation (§6) plus the self-asserting experiments that
//! pin the engine's contracts (leaf cache, filter pushdown, column kernels,
//! compaction, the RESP server). Each entry builds its datasets with the one
//! `DatasetBuilder` at a laptop-scale record count, runs the measurement
//! and returns printable rows with the same structure as the paper's
//! figures: dataset × layout for storage/ingestion, query × layout for
//! execution times, selectivity × layout for index experiments, column-count
//! sweeps for Figure 16.
//!
//! Absolute numbers differ from the paper (simulated disk, scaled data,
//! different language/runtime); what carries over are the *shapes*: who
//! wins, by roughly what factor, where the crossovers are.
//!
//! The `experiments` binary (`cargo run -p bench --release --bin experiments`)
//! prints every entry and, at full scale only, writes the entry's
//! `BENCH_*.json` artifact ([`Experiment::run_and_emit`]). Its times are
//! **informational**: each is a single `Instant` sample, so no speed claim
//! can rest on them — the repository's one timing harness is the
//! `benchmark/` package (see `BENCHMARK.json`). What the self-asserting
//! experiments *assert* are contracts: pages read, records assembled /
//! copied / handled by kernels, and answers equal across lanes, layouts and
//! access paths.

use std::io;
use std::path::{Path as FsPath, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use datagen::{generate, generate_updates, summarize, DatasetKind, DatasetSpec};
use docmodel::{Path, Value};
use lsm::{CompactionSpec, DatasetConfig, LsmDataset};
use query::{
    AccessPathChoice, Aggregate, ExecMode, Expr, PlannerOptions, Query, QueryEngine, ScanLane,
};
use storage::{IoStats, LayoutKind, LeafCache};

/// The scale `--smoke` caps a run at: every entry end to end in seconds.
pub const SMOKE_SCALE: f64 = 0.05;

/// One entry of the experiment table.
pub struct Experiment {
    /// Selector for `--only`.
    pub name: &'static str,
    /// Printed above the entry's matrix.
    pub title: &'static str,
    /// The `BENCH_*.json` file a full-scale run writes, if any.
    pub artifact: Option<&'static str>,
    /// The experiment, at a scale factor.
    pub run: fn(f64) -> Vec<Measurement>,
}

/// Every experiment, in print order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "table1", title: "Table 1: dataset summary", artifact: None, run: table1 },
    Experiment {
        name: "fig10",
        title: "Figure 10: interpreted vs code-generated execution (sensors)",
        artifact: None,
        run: fig10,
    },
    Experiment {
        name: "fig12",
        title: "Figure 12a: on-disk storage size",
        artifact: None,
        run: fig12,
    },
    Experiment { name: "fig13", title: "Figure 13a: ingestion time", artifact: None, run: fig13 },
    Experiment {
        name: "fig14",
        title: "Figure 14: query times per dataset",
        artifact: None,
        run: fig14,
    },
    Experiment {
        name: "fig15",
        title: "Figure 15: secondary index vs scan vs cost-based Auto (tweet_2)",
        artifact: Some("BENCH_fig15.json"),
        run: fig15,
    },
    Experiment {
        name: "fig16",
        title: "Figure 16: impact of number of columns accessed (tweet_2)",
        artifact: None,
        run: fig16,
    },
    Experiment {
        name: "concurrency",
        title: "Concurrency: blocking vs background flush/merge vs sharded ingest (cell)",
        artifact: None,
        run: concurrency,
    },
    Experiment {
        name: "compaction",
        title: "Compaction: tiered vs leveled vs lazy-leveled, amp + GC packing (tweet_1)",
        artifact: Some("BENCH_compaction.json"),
        run: compaction,
    },
    Experiment {
        name: "cache",
        title: "Decoded-leaf cache: cold vs warm latency, hit rate, budget sweep (tweet_2)",
        artifact: Some("BENCH_cache.json"),
        run: cache,
    },
    Experiment {
        name: "pushdown",
        title: "Filter pushdown: selectivity x layout, pushed vs unpushed scans",
        artifact: Some("BENCH_pushdown.json"),
        run: pushdown,
    },
    Experiment {
        name: "vectorized",
        title: "Column kernels vs assembled lane: Fig. 14 sensors suite x layout",
        artifact: None,
        run: vectorized,
    },
    Experiment {
        name: "server",
        title: "Server: RESP front-end load generator, connections x pipeline depth",
        artifact: Some("BENCH_server.json"),
        run: server,
    },
];

impl Experiment {
    /// Run the experiment at `scale`, print its matrix, and write its
    /// artifact into `dir` through the one emitter (full scale only).
    pub fn run_and_emit(&self, scale: f64, dir: &FsPath) -> Vec<Measurement> {
        let rows = (self.run)(scale);
        print_matrix(self.title, &rows);
        match self.emit(scale, &rows, dir) {
            Ok(Some(path)) => println!("\nwrote {}", path.display()),
            Ok(None) => {}
            Err(e) => eprintln!("\ncould not write {}: {e}", self.name),
        }
        rows
    }

    /// The one emitter: write `rows` as the entry's `BENCH_*.json` artifact
    /// into `dir` — at full scale only, so a smoke or scaled-down run never
    /// overwrites a committed artifact. Returns the path written, if any.
    /// The JSON is hand-rolled (the workspace has no serde).
    fn emit(&self, scale: f64, rows: &[Measurement], dir: &FsPath) -> io::Result<Option<PathBuf>> {
        let Some(file) = self.artifact.filter(|_| scale >= 1.0) else {
            return Ok(None);
        };
        fn escape(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = format!(
            "{{\"figure\": \"{}\", \"scale\": {scale}, \"measurements\": [",
            escape(self.name)
        );
        for (i, m) in rows.iter().enumerate() {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            out.push_str(&format!(
                "  {{\"row\": \"{}\", \"column\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.row),
                escape(&m.column),
                if m.value.is_finite() { m.value } else { -1.0 },
                escape(m.unit)
            ));
        }
        out.push_str("\n]}\n");
        let path = dir.join(file);
        std::fs::write(&path, out)?;
        Ok(Some(path))
    }
}

/// One measured cell of a figure: a labelled value.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Row label (dataset or query).
    pub row: String,
    /// Column label (layout, engine, selectivity, ...).
    pub column: String,
    /// The measured value.
    pub value: f64,
    /// Unit for printing ("MiB", "ms", "pages", ...).
    pub unit: &'static str,
}

/// The one-line row helper every experiment fills its figure with:
/// `out.row(row, column, value, unit)`.
trait Rows {
    fn row(&mut self, row: impl Into<String>, col: impl Into<String>, v: f64, unit: &'static str);
}

impl Rows for Vec<Measurement> {
    fn row(&mut self, row: impl Into<String>, col: impl Into<String>, v: f64, unit: &'static str) {
        let (row, column) = (row.into(), col.into());
        self.push(Measurement { row, column, value: v, unit });
    }
}

/// Print a list of measurements as an aligned matrix (rows × columns).
fn print_matrix(title: &str, measurements: &[Measurement]) {
    println!("\n== {title} ==");
    let mut rows: Vec<String> = Vec::new();
    let mut cols: Vec<String> = Vec::new();
    for m in measurements {
        if !rows.contains(&m.row) {
            rows.push(m.row.clone());
        }
        if !cols.contains(&m.column) {
            cols.push(m.column.clone());
        }
    }
    let unit = measurements.first().map(|m| m.unit).unwrap_or("");
    print!("{:<22}", format!("({unit})"));
    for c in &cols {
        print!("{c:>14}");
    }
    println!();
    for r in &rows {
        print!("{r:<22}");
        for c in &cols {
            let v = measurements.iter().find(|m| &m.row == r && &m.column == c).map(|m| m.value);
            match v {
                Some(v) => print!("{v:>14.2}"),
                None => print!("{:>14}", "-"),
            }
        }
        println!();
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64() * 1000.0)
}

// ---------------------------------------------------------------------------
// The dataset builder.
// ---------------------------------------------------------------------------

/// Default record counts per dataset (scaled from the paper's 17M–1.43B).
fn default_records(kind: DatasetKind) -> usize {
    match kind {
        DatasetKind::Cell => 8_000,
        DatasetKind::Sensors => 3_000,
        DatasetKind::Tweet1 => 2_000,
        DatasetKind::Wos => 1_500,
        DatasetKind::Tweet2 => 4_000,
    }
}

/// `base × scale` records, never fewer than `floor`.
fn scaled(base: usize, scale: f64, floor: usize) -> usize {
    ((base as f64 * scale) as usize).max(floor)
}

/// The timestamp field the index experiments range over, and its first value.
const TIMESTAMP: &str = "timestamp";
const BASE_TS: i64 = 1_450_000_000_000;

/// How an experiment's dataset is built: one generated dataset in one
/// layout, with the settings every experiment shares — key field from the
/// dataset kind, 256 KiB memtable, 32 KiB pages. An experiment that varies
/// more edits `config` through `DatasetConfig`'s own setters.
struct DatasetBuilder {
    /// The documents: which dataset, how many.
    spec: DatasetSpec,
    /// The dataset configuration.
    config: DatasetConfig,
}

impl DatasetBuilder {
    /// `records` documents of `kind` in `layout`.
    fn new(kind: DatasetKind, layout: LayoutKind, records: usize) -> DatasetBuilder {
        DatasetBuilder {
            spec: DatasetSpec::new(kind, records),
            config: DatasetConfig::new(kind.name(), layout)
                .with_key_field(kind.key_field())
                .with_memtable_budget(256 << 10)
                .with_page_size(32 << 10),
        }
    }

    /// `kind` at `scale` × its default record count, at least `floor`.
    fn scaled(kind: DatasetKind, layout: LayoutKind, scale: f64, floor: usize) -> DatasetBuilder {
        DatasetBuilder::new(kind, layout, scaled(default_records(kind), scale, floor))
    }

    /// Maintain a secondary index on `timestamp`.
    fn indexed(mut self) -> Self {
        self.config.secondary_index_on = Some(Path::parse(TIMESTAMP));
        self
    }

    /// The generated documents.
    fn docs(&self) -> Vec<Value> {
        generate(&self.spec)
    }

    /// Ingest the generated documents into a fresh in-memory dataset and
    /// flush it; returns the dataset and the ingest wall time in ms.
    fn build(&self) -> (LsmDataset, f64) {
        ingest(self.config.clone(), self.docs())
    }
}

/// Insert `docs` into a fresh in-memory dataset and flush it; returns the
/// dataset and the ingest wall time in ms.
fn ingest(config: DatasetConfig, docs: impl IntoIterator<Item = Value>) -> (LsmDataset, f64) {
    let dataset = LsmDataset::new(config);
    let ms = upsert(&dataset, docs);
    (dataset, ms)
}

/// Insert (or overwrite) `docs` and flush; returns the wall time in ms.
fn upsert(dataset: &LsmDataset, docs: impl IntoIterator<Item = Value>) -> f64 {
    time(|| {
        for doc in docs {
            dataset.insert(doc).expect("ingest");
        }
        dataset.flush().expect("flush");
    })
    .1
}

// ---------------------------------------------------------------------------
// The paper's tables and figures.
// ---------------------------------------------------------------------------

/// Table 1 (dataset characteristics) at the scaled record counts.
fn table1(scale: f64) -> Vec<Measurement> {
    let mut out = Vec::new();
    for kind in DatasetKind::ALL {
        let docs = DatasetBuilder::scaled(kind, LayoutKind::Amax, scale, 100).docs();
        let summary = summarize(kind, &docs);
        for (column, value) in [
            ("records", summary.records as f64),
            ("avg_record_bytes", summary.avg_record_bytes as f64),
            ("columns", summary.inferred_columns as f64),
            ("json_MiB", summary.json_bytes as f64 / (1 << 20) as f64),
        ] {
            out.row(kind.name(), column, value, "count");
        }
    }
    out
}

/// Figure 10: Q1 (COUNT(*)) and Q2 (group-by over an unnested array),
/// interpreted vs compiled, across the four layouts.
fn fig10(scale: f64) -> Vec<Measurement> {
    let q1 = Query::count_star();
    let q2 = Query::new()
        .with_unnest("readings")
        .group_by("sensor_id")
        .aggregate_element(Aggregate::Max(Path::parse("temp")))
        .top_k(10);
    let mut out = Vec::new();
    for layout in LayoutKind::ALL {
        let (dataset, _) = DatasetBuilder::scaled(DatasetKind::Sensors, layout, scale, 100).build();
        for (row, query, mode) in [
            ("Q1 COUNT(*)", &q1, ExecMode::Compiled),
            ("Q2 (Interpreted)", &q2, ExecMode::Interpreted),
            ("Q2 (CodeGen)", &q2, ExecMode::Compiled),
        ] {
            let engine = QueryEngine::new(mode);
            let (_, ms) = time(|| engine.execute(&dataset, query).expect("query"));
            out.row(row, layout.name(), ms, "ms");
        }
    }
    out
}

/// Figure 12a: total on-disk size per dataset and layout (tweet_2 includes
/// its secondary index, as in the paper).
fn fig12(scale: f64) -> Vec<Measurement> {
    let mut out = Vec::new();
    for kind in DatasetKind::ALL {
        let indexed = kind == DatasetKind::Tweet2;
        let label = format!("{}{}", kind.name(), if indexed { "*" } else { "" });
        for layout in LayoutKind::ALL {
            let builder = DatasetBuilder::scaled(kind, layout, scale, 100);
            let (dataset, _) = if indexed { builder.indexed() } else { builder }.build();
            let mib = dataset.total_stored_bytes() as f64 / (1 << 20) as f64;
            out.row(label.clone(), layout.name(), mib, "MiB");
        }
    }
    out
}

/// The datasets Figs. 13a and 14 run as plain loads (tweet_2 has its own
/// update-intensive and index workloads).
const FIG13_FIG14_KINDS: [DatasetKind; 4] =
    [DatasetKind::Cell, DatasetKind::Sensors, DatasetKind::Tweet1, DatasetKind::Wos];

/// Figure 13a: ingestion wall time per dataset and layout. `tweet_2*` runs
/// the update-intensive workload (50% updates) with a timestamp secondary
/// index and a primary-key index, as in §6.3.2.
fn fig13(scale: f64) -> Vec<Measurement> {
    let mut out = Vec::new();
    for kind in FIG13_FIG14_KINDS {
        for layout in LayoutKind::ALL {
            let (_, ms) = DatasetBuilder::scaled(kind, layout, scale, 100).build();
            out.row(kind.name(), layout.name(), ms, "ms");
        }
    }
    for layout in LayoutKind::ALL {
        let builder = DatasetBuilder::scaled(DatasetKind::Tweet2, layout, scale, 100).indexed();
        let (dataset, load_ms) = builder.build();
        let update_ms = upsert(&dataset, generate_updates(&builder.spec, 0.5));
        out.row("tweet_2*", layout.name(), load_ms + update_ms, "ms");
    }
    out
}

/// The query suite of Table 2, expressed as logical plans.
pub fn queries_for(kind: DatasetKind) -> Vec<(&'static str, Query)> {
    match kind {
        DatasetKind::Cell => vec![
            ("Q1", Query::count_star()),
            (
                "Q2",
                Query::select([Aggregate::Max(Path::parse("duration"))])
                    .group_by("caller")
                    .top_k(10),
            ),
            ("Q3", Query::count_star().with_filter(Expr::ge("duration", 600))),
        ],
        DatasetKind::Sensors => vec![
            ("Q1", Query::count_star()),
            (
                "Q2",
                Query::new()
                    .with_unnest("readings")
                    .aggregate_element(Aggregate::Max(Path::parse("temp"))),
            ),
            (
                "Q3",
                Query::new()
                    .with_unnest("readings")
                    .group_by("sensor_id")
                    .aggregate_element(Aggregate::Max(Path::parse("temp")))
                    .top_k(10),
            ),
            (
                "Q4",
                Query::new()
                    .with_filter(Expr::between(
                        "report_time",
                        1_556_400_000_000i64,
                        1_556_400_000_000i64 + 24 * 60 * 60 * 1000,
                    ))
                    .with_unnest("readings")
                    .group_by("sensor_id")
                    .aggregate_element(Aggregate::Max(Path::parse("temp")))
                    .top_k(10),
            ),
        ],
        DatasetKind::Tweet1 | DatasetKind::Tweet2 => vec![
            ("Q1", Query::count_star()),
            (
                "Q2",
                Query::select([Aggregate::MaxLength(Path::parse("text"))])
                    .group_by("user.name")
                    .top_k(10),
            ),
            (
                "Q3",
                Query::count_star()
                    .with_filter(Expr::contains("entities.hashtags[*].text", "jobs"))
                    .group_by("user.name")
                    .top_k(10),
            ),
        ],
        DatasetKind::Wos => vec![
            ("Q1", Query::count_star()),
            (
                "Q2",
                Query::count_star()
                    .with_unnest("static_data.fullrecord_metadata.category_info.subjects.subject")
                    .group_by_element("value")
                    .top_k(10),
            ),
            (
                "Q3",
                Query::count_star()
                    .with_unnest("static_data.fullrecord_metadata.addresses.address_name")
                    .group_by_element("address_spec.country")
                    .top_k(10),
            ),
            (
                "Q4",
                Query::count_star()
                    .with_unnest("static_data.fullrecord_metadata.addresses.address_name")
                    .group_by_element("address_spec.country")
                    .top_k(10),
            ),
        ],
    }
}

/// Figure 14a–d: execution time of every Table-2 query per dataset and
/// layout, on the compiled engine (the paper reports code-generation
/// numbers for this figure).
fn fig14(scale: f64) -> Vec<Measurement> {
    let engine = QueryEngine::new(ExecMode::Compiled);
    let mut out = Vec::new();
    for kind in FIG13_FIG14_KINDS {
        for layout in LayoutKind::ALL {
            let (dataset, _) = DatasetBuilder::scaled(kind, layout, scale, 100).build();
            for (name, q) in queries_for(kind) {
                let (_, ms) = time(|| engine.execute(&dataset, &q).expect("query"));
                out.row(format!("{} {name}", kind.name()), layout.name(), ms, "ms");
            }
        }
    }
    out
}

/// `COUNT(*)` over the first `span` timestamps of tweet_2.
fn timestamp_range(span: i64) -> Expr {
    Expr::between(TIMESTAMP, BASE_TS, BASE_TS + span - 1)
}

/// Figure 15: the same range-`COUNT` query at five selectivities, executed
/// three ways — forced through the secondary index, forced to a scan
/// (zone maps hiding what they can), and with the cost-based `Auto` policy — per
/// layout. Every cell is also a differential check: the three policies must
/// return identical counts. `Auto`'s choice per selectivity is recorded as
/// `auto picks index` rows (1 = probe, 0 = scan), so the crossover is
/// visible in `BENCH_fig15.json`.
fn fig15(scale: f64) -> Vec<Measurement> {
    let mut out = Vec::new();
    for layout in LayoutKind::ALL {
        let builder = DatasetBuilder::scaled(DatasetKind::Tweet2, layout, scale, 200).indexed();
        let (dataset, _) = builder.build();
        // Settle the tree so per-component statistics describe one merged
        // component (the steady state the paper measures).
        dataset.compact_fully().expect("compact");
        for sel in [0.001, 0.01, 0.1, 1.0, 10.0] {
            let span = ((builder.spec.records as f64) * sel / 100.0).max(1.0) as i64;
            let q = Query::count_star().with_filter(timestamp_range(span));
            let mut reference: Option<Vec<query::QueryRow>> = None;
            for (label, choice) in [
                ("index", AccessPathChoice::ForceIndex),
                ("scan", AccessPathChoice::ForceScan),
                ("auto", AccessPathChoice::Auto),
            ] {
                let engine = QueryEngine::with_options(
                    ExecMode::Compiled,
                    PlannerOptions::with_access_path(choice),
                );
                let (rows, ms) = time(|| engine.execute(&dataset, &q).expect("query"));
                match &reference {
                    None => reference = Some(rows),
                    Some(expected) => {
                        assert_eq!(expected, &rows, "{label} diverged at {sel}% ({layout:?})")
                    }
                }
                out.row(format!("{sel}% ({label})"), layout.name(), ms, "ms");
            }
            let plan = QueryEngine::new(ExecMode::Compiled).explain(&dataset, &q);
            let probe = plan.expect("explain").contains("secondary-index range probe");
            let row = format!("{sel}% (auto picks index)");
            out.row(row, layout.name(), if probe { 1.0 } else { 0.0 }, "bool");
        }
    }
    out
}

/// Figure 16: count-non-null queries reading 1..=10 columns, scan-based
/// (APAX vs AMAX), plus an index-based variant at 1% selectivity.
fn fig16(scale: f64) -> Vec<Measurement> {
    let columns = [
        "text",
        "lang",
        "retweet_count",
        "favorite_count",
        "user.name",
        "user.followers_count",
        "user.verified",
        "user.lang",
        "entities.hashtags[*].text",
        "coordinates[*]",
    ];
    let engine = QueryEngine::new(ExecMode::Compiled);
    let count_columns = |dataset: &LsmDataset, n: usize, filter: Option<Expr>| {
        time(|| {
            // One query per column keeps the per-column page counts of the
            // figure (the paper picks n random columns; a fixed prefix keeps
            // runs comparable).
            for col in &columns[..n] {
                let mut q = Query::select([Aggregate::CountNonNull(Path::parse(col))]);
                if let Some(filter) = &filter {
                    q = q.with_filter(filter.clone());
                }
                engine.execute(dataset, &q).expect("query");
            }
        })
        .1
    };
    let mut out = Vec::new();
    for layout in [LayoutKind::Apax, LayoutKind::Amax] {
        let builder = DatasetBuilder::scaled(DatasetKind::Tweet2, layout, scale, 200).indexed();
        let (dataset, _) = builder.build();
        for n in 1..=columns.len() {
            let ms = count_columns(&dataset, n, None);
            out.row(format!("{n} columns (scan)"), layout.name(), ms, "ms");
        }
        // The range filter on the indexed timestamp routes through the index.
        let span = ((builder.spec.records as f64) * 0.01).max(1.0) as i64;
        let ms = count_columns(&dataset, columns.len(), Some(timestamp_range(span)));
        out.row("10 columns (index, 1%)", layout.name(), ms, "ms");
    }
    out
}

// ---------------------------------------------------------------------------
// Self-asserting experiments.
// ---------------------------------------------------------------------------

/// Acknowledged-ingest group-commit cadence of the concurrency experiment:
/// the WAL is fsynced every this many records, as a durable service
/// acknowledging client batches would.
const CONCURRENCY_GROUP_COMMIT: usize = 64;

/// Concurrency: the same durable, group-committed, insert-only `cell`
/// workload (WAL fsync every [`CONCURRENCY_GROUP_COMMIT`] records, through
/// [`docstore::Datastore::ingest_batch`]) ingested three ways on identical
/// LSM settings —
///
/// * **blocking**: flushes and merges (including their page-file and
///   manifest fsyncs) run inside `insert()` on the writer thread;
/// * **background**: one writer thread, flushes/merges on the dataset's
///   background worker, overlapping the writer's group-commit waits;
/// * **sharded xN**: N hash partitions written one after another by the one
///   writer thread, one background worker per shard — N independent
///   WAL/flush streams.
///
/// Reported as wall time and throughput; every mode must count every record.
fn concurrency(scale: f64) -> Vec<Measurement> {
    use docstore::{DatasetOptions, Datastore};

    let kind = DatasetKind::Cell;
    let records = scaled(8_000, scale, 500);
    let shards = std::thread::available_parallelism().map_or(4, |n| n.get().clamp(2, 8));
    let dir = std::env::temp_dir().join(format!("bench-concurrency-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let docs = generate(&DatasetSpec::new(kind, records));
    let mut out = Vec::new();
    for (label, n_shards, background) in [
        ("blocking".to_string(), 1usize, false),
        ("background".to_string(), 1, true),
        (format!("sharded x{shards}"), shards, true),
    ] {
        let mut store = Datastore::new();
        let options = DatasetOptions::new(LayoutKind::Amax)
            .key(kind.key_field())
            .memtable_budget(64 << 10)
            .page_size(32 << 10)
            .shards(n_shards)
            .background(background)
            .max_sealed(8);
        store.open_dataset(&label, dir.join(&label), options).expect("open dataset");
        let ((), ms) = time(|| {
            store
                .ingest_batch(&label, docs.clone(), CONCURRENCY_GROUP_COMMIT)
                .expect("group-committed ingest");
            store.flush(&label).expect("flush");
        });
        let count =
            store.query(&label, &Query::count_star(), ExecMode::Compiled).expect("fan-out count");
        assert_eq!(count[0].agg(), &Value::Int(records as i64), "{label}");
        out.row(&label, "wall", ms, "ms");
        out.row(&label, "krec/s", records as f64 / ms, "krec/s");
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Compaction-strategy sweep: tiered vs leveled vs lazy-leveled under an
/// append-only and an update-heavy workload (tweet_1, AMAX).
///
/// Per strategy × workload the sweep reports ingest wall time, merge count,
/// the `amp.write` / `amp.space` gauges, how the merges moved their winners
/// — copied column by column (§4.4) or assembled and re-shredded (inputs
/// whose columns predate a nested field or a union promotion, frequent in
/// `tweet_1`, whose sparse metadata groups keep growing the schema) — and
/// the peak number of records a merge held resident. Self-asserting: every
/// key is counted once, ingest assembles exactly the re-shredded winners
/// (the copy lane assembles nothing), and after the update-heavy churn
/// `reclaim_space` leaves a **fully packed** page file, so the reported
/// space amplification measures live data, not freed-slot or orphaned-page
/// leaks.
fn compaction(scale: f64) -> Vec<Measurement> {
    const UPDATE_ROUNDS: usize = 4;
    let mut builder = DatasetBuilder::scaled(DatasetKind::Tweet1, LayoutKind::Amax, scale, 300);
    builder.config = builder.config.with_memtable_budget(32 << 10).with_page_size(8 << 10);
    let docs = builder.docs();
    let mut out = Vec::new();
    for (workload, rounds) in [("append-only", 1), ("update-heavy", UPDATE_ROUNDS)] {
        for (name, spec) in [
            ("tiered", CompactionSpec::tiered(1.2, 5)),
            ("leveled", CompactionSpec::Leveled),
            ("lazy-leveled", CompactionSpec::LazyLeveled),
        ] {
            let (dataset, mut ingest_ms) =
                ingest(builder.config.clone().with_compaction(spec), docs.clone());
            for _ in 1..rounds {
                ingest_ms += upsert(&dataset, docs.clone());
            }
            // Nothing has read the dataset yet: every record assembled so far
            // was assembled by a merge, and only the re-shred lane does that.
            let merge_assembled = dataset.io_stats().records_assembled;
            let count = dataset.count().expect("count");
            assert_eq!(count, builder.spec.records, "{name}/{workload}");
            if rounds > 1 {
                dataset.reclaim_space().expect("reclaim");
                let free = dataset.cache().store().free_page_count();
                assert_eq!(free, 0, "{name}: reclaim_space must pack the page file");
            }

            let metrics = dataset.metrics();
            let reshredded = metrics.counter("storage.merge_records_reshredded");
            assert_eq!(
                merge_assembled, reshredded,
                "{name}/{workload}: merges assemble only what they re-shred"
            );
            let copied = metrics.counter("storage.merge_records_copied");
            let peak = metrics.histogram("merge.peak_buffered_records");
            let merges = metrics.counter("merge.count");
            let gauge = |name: &str| metrics.gauge(name).expect(name);
            for (what, value, unit) in [
                ("ingest wall", ingest_ms, "ms"),
                ("merge winners copied", copied as f64, "records"),
                ("merge winners re-shredded", reshredded as f64, "records"),
                ("merge peak buffered", peak.map_or(0, |h| h.max) as f64, "records"),
                ("merges", merges as f64, "x"),
                ("write amplification", gauge("amp.write"), "x"),
                ("space amplification", gauge("amp.space"), "x"),
            ] {
                out.row(format!("{workload}: {what}"), name, value, unit);
            }
        }
    }
    out
}

/// Decoded-leaf cache (tweet_2, AMAX): the same scan and point-read
/// workloads with and without a budget-backed [`LeafCache`]. Self-asserting:
///
/// * a warm repeated scan reads **zero pages**, and its cache hits equal
///   exactly the leaves the cold scan decoded;
/// * a point read served from the warm cache reads **zero pages** and
///   assembles at most the one record it returns (the uncached timing is
///   reported beside it, not asserted);
/// * across a budget sweep the cache's resident bytes never exceed its
///   capacity, and the hit rate on a re-scanned hot range is monotone.
fn cache(scale: f64) -> Vec<Measurement> {
    // Several point-read rounds amortise timer noise at smoke scales.
    const ROUNDS: usize = 3;
    let mut builder = DatasetBuilder::scaled(DatasetKind::Tweet2, LayoutKind::Amax, scale, 300);
    builder.config = builder.config.with_memtable_budget(64 << 10).with_page_size(8 << 10);
    builder.config.amax.record_limit = 64;
    let with_cache = |bytes: usize| {
        let cache = Arc::new(LeafCache::new(bytes));
        let (dataset, _) =
            ingest(builder.config.clone().with_leaf_cache(cache.clone()), builder.docs());
        cache.clear();
        (dataset, cache)
    };
    let engine = QueryEngine::new(ExecMode::Compiled);
    let scan = Query::count_star().with_filter(Expr::ge(TIMESTAMP, 0));
    let mut out = Vec::new();

    // Cold vs warm scan through one cache: the warm pass must touch no
    // page and score a hit on every leaf the cold pass decoded.
    let (cached, _) = with_cache(8 << 20);
    let before = cached.io_stats();
    let (cold_rows, cold_ms) = time(|| engine.execute(&cached, &scan).expect("cold scan"));
    let mid = cached.io_stats();
    let (warm_rows, warm_ms) = time(|| engine.execute(&cached, &scan).expect("warm scan"));
    let after = cached.io_stats();
    assert_eq!(cold_rows, warm_rows, "the cache must never change answers");
    let cold_misses = mid.leaf_cache_misses - before.leaf_cache_misses;
    assert!(cold_misses > 0, "the cold scan must decode leaves");
    assert_eq!(after.pages_read, mid.pages_read, "warm re-scans read no page");
    assert_eq!(
        after.leaf_cache_hits - mid.leaf_cache_hits,
        cold_misses,
        "warm hits must equal the leaves the cold scan decoded"
    );
    out.row("hot-range scan", "cold", cold_ms, "ms");
    out.row("hot-range scan", "warm", warm_ms, "ms");

    // Point reads: a warm cache vs no cache at all, same keys, same order.
    let (uncached, _) = builder.build();
    // Generated record `i` has key `i`.
    let keys: Vec<Value> = (0..builder.spec.records as i64).step_by(3).map(Value::Int).collect();
    let point_pass = |dataset: &LsmDataset, rounds: usize| {
        for _ in 0..rounds {
            for key in &keys {
                dataset.lookup(key, None).expect("lookup").expect("present");
            }
        }
    };
    point_pass(&cached, 1);
    let before = cached.io_stats();
    let ((), warm_ms) = time(|| point_pass(&cached, ROUNDS));
    let after = cached.io_stats();
    let ((), cold_ms) = time(|| point_pass(&uncached, ROUNDS));
    // A lookup served from the cache reads no page and assembles nothing
    // but the one record it returns.
    let lookups = (ROUNDS * keys.len()) as u64;
    let assembled = after.records_assembled - before.records_assembled;
    assert_eq!(after.pages_read, before.pages_read, "cached lookups read no page");
    assert_eq!(after.leaf_cache_misses, before.leaf_cache_misses, "leaves warmed");
    assert!(assembled <= lookups, "{assembled} records for {lookups} lookups");
    let per_lookup = assembled as f64 / lookups as f64;
    for (column, value, unit) in [
        ("uncached", cold_ms, "ms"),
        ("warm cache", warm_ms, "ms"),
        ("speedup", cold_ms / warm_ms.max(1e-6), "x"),
        ("assembled per cached lookup", per_lookup, "records"),
    ] {
        out.row("point reads", column, value, unit);
    }

    // Budget sweep: residency must stay bounded at every capacity, and a
    // re-scan of the same hot range can only raise the hit rate.
    let rate = |io: IoStats| {
        io.leaf_cache_hits as f64 / (io.leaf_cache_hits + io.leaf_cache_misses).max(1) as f64
    };
    for budget in [32usize << 10, 256 << 10, 4 << 20] {
        let (dataset, cache) = with_cache(budget);
        engine.execute(&dataset, &scan).expect("sweep scan");
        let first = rate(dataset.io_stats());
        engine.execute(&dataset, &scan).expect("sweep re-scan");
        let stats = cache.stats();
        assert!(
            stats.resident_bytes <= stats.capacity_bytes,
            "resident bytes must honour the budget: {stats:?}"
        );
        let second = rate(dataset.io_stats());
        assert!(second >= first, "hit rate must be monotone: {first} -> {second}");
        let label = format!("budget {} KiB", budget >> 10);
        let resident_kib = (stats.resident_bytes >> 10) as f64;
        out.row(&label, "resident", resident_kib, "KiB");
        out.row(&label, "hit rate", second * 100.0, "%");
    }
    out
}

/// Filter pushdown (late materialization): a narrow sortable filter column
/// (`ts`) next to a fat payload column, scanned at 0.1% / 1% / 10% / 100%
/// selectivity per layout (VB / APAX / AMAX) with pushdown on vs off, each
/// from a cold page cache. Self-asserting: pushdown never changes the
/// answer, and at ≤ 1% selectivity on the columnar layouts the pushed scan
/// reads **strictly fewer pages** and assembles ≈ the matching records
/// instead of the dataset.
fn pushdown(scale: f64) -> Vec<Measurement> {
    use docmodel::doc;

    let records = scaled(8_000, scale, 640);
    let pushed = QueryEngine::new(ExecMode::Compiled);
    let unpushed = QueryEngine::with_options(
        ExecMode::Compiled,
        PlannerOptions { filter_pushdown: false, ..Default::default() },
    );
    let measure = |dataset: &LsmDataset, engine: &QueryEngine, query: &Query| {
        dataset.cache().clear();
        dataset.cache().store().reset_stats();
        let (rows, ms) = time(|| engine.execute(dataset, query).expect("scan"));
        (rows, ms, dataset.io_stats())
    };

    let mut out = Vec::new();
    for layout in [LayoutKind::Vb, LayoutKind::Apax, LayoutKind::Amax] {
        let mut config = DatasetConfig::new("pushdown", layout)
            .with_memtable_budget(usize::MAX)
            .with_page_size(8 << 10);
        config.amax.record_limit = 64;
        let docs = (0..records as i64).map(|i| {
            let payload = format!("fat payload column for record {i}: {}", "x".repeat(120));
            doc!({"id": i, "ts": i, "payload": (payload)})
        });
        let (dataset, _) = ingest(config, docs);
        for (label, selectivity) in [("0.1%", 0.001), ("1%", 0.01), ("10%", 0.1), ("100%", 1.0)] {
            let cell = format!("{} {label}", layout.name());
            let matched = ((records as f64 * selectivity).round() as i64).max(1);
            let query = Query::count_star().with_filter(Expr::lt("ts", matched));
            let (on_rows, on_ms, on) = measure(&dataset, &pushed, &query);
            let (off_rows, off_ms, off) = measure(&dataset, &unpushed, &query);
            assert_eq!(on_rows, off_rows, "{cell}: pushdown changed the answer");
            if layout.is_columnar() && selectivity <= 0.01 {
                assert!(
                    on.pages_read < off.pages_read,
                    "{cell}: pushdown must read strictly fewer pages ({} vs {})",
                    on.pages_read,
                    off.pages_read
                );
                // Assembly tracks matches (± the one live leaf the filter
                // evaluates record by record), not the dataset.
                assert!(
                    on.records_assembled <= matched as u64 + 64,
                    "{cell}: assembled {} for {matched} matches",
                    on.records_assembled
                );
                assert_eq!(off.records_assembled, records as u64, "{cell}");
            }
            let filtered = on.records_filtered_pre_assembly as f64;
            out.row(&cell, "pushed", on_ms, "ms");
            out.row(&cell, "unpushed", off_ms, "ms");
            out.row(&cell, "pages on", on.pages_read as f64, "pages");
            out.row(&cell, "pages off", off.pages_read as f64, "pages");
            out.row(&cell, "assembled", on.records_assembled as f64, "records");
            out.row(&cell, "filtered", filtered, "records");
            out.row(&cell, "skip leaves", on.leaves_skipped as f64, "leaves");
        }
    }
    out
}

/// Column kernels vs the assembled lane: the Fig. 14 `sensors` suite per
/// layout, on a tree with shadowed versions (a third of the keys rewritten
/// after the initial load), run by the compiled engine on its kernels
/// ([`ScanLane::Kernels`], what every query takes) and forced onto the
/// assembled lane ([`ScanLane::Assembled`], the reference).
///
/// Self-asserting: the two lanes agree on every answer (and with the
/// interpreted engine); on the columnar layouts the kernel lane builds
/// **zero** documents and folds every winner off the column chunks. Row
/// layouts have no columns, so both lanes are the same per-record loop
/// there — reported for the contrast, not asserted.
fn vectorized(scale: f64) -> Vec<Measurement> {
    let compiled = QueryEngine::new(ExecMode::Compiled);
    let interpreted = QueryEngine::new(ExecMode::Interpreted);
    let mut out = Vec::new();
    for layout in LayoutKind::ALL {
        let builder = DatasetBuilder::new(DatasetKind::Sensors, layout, scaled(20_000, scale, 400));
        let (dataset, _) = builder.build();
        upsert(&dataset, generate_updates(&builder.spec, 0.3));
        for (name, query) in queries_for(DatasetKind::Sensors) {
            let run = |lane: ScanLane| {
                dataset.cache().store().reset_stats();
                let run = || compiled.execute_in_lane(&dataset, &query, lane);
                let (rows, ms) = time(|| run().expect("query"));
                (rows, ms, dataset.io_stats())
            };
            let (kernel_rows, kernel_ms, kernel_io) = run(ScanLane::Kernels);
            let (assembled_rows, assembled_ms, assembled_io) = run(ScanLane::Assembled);
            let cell = format!("{} {name}", layout.name());
            assert_eq!(kernel_rows, assembled_rows, "{cell}: the lanes disagree");
            assert_eq!(
                kernel_rows,
                interpreted.execute(&dataset, &query).expect("interpreted"),
                "{cell}: compiled and interpreted disagree"
            );
            if layout.is_columnar() {
                assert_eq!(kernel_io.records_assembled, 0, "{cell}: kernels built docs");
                assert_eq!(assembled_io.scan_records_kernel, 0, "{cell}");
                if name != "Q1" {
                    // (Q1 is the key-only COUNT(*): no operator sees a record.)
                    assert!(kernel_io.scan_records_kernel > 0, "{cell}: no kernel ran");
                    assert_eq!(
                        kernel_io.scan_records_kernel, assembled_io.records_assembled,
                        "{cell}: the lanes saw different winners"
                    );
                }
            }
            let built = assembled_io.records_assembled as f64;
            out.row(&cell, "kernels", kernel_ms, "ms");
            out.row(&cell, "assembled", assembled_ms, "ms");
            out.row(&cell, "speedup", assembled_ms / kernel_ms, "x");
            out.row(&cell, "kernel recs", kernel_io.scan_records_kernel as f64, "records");
            out.row(&cell, "built docs", built, "records");
        }
    }
    out
}

/// Load-generate the RESP server over localhost TCP: a connections ×
/// pipeline-depth grid ({1, 8} × {1, 16}) at a 70% GET / 30% SET mix over a
/// preloaded keyspace. Each cell starts a fresh in-memory server, preloads
/// the keys with group-committed `MSET` batches, then hammers it with one
/// client thread per connection; per-burst round-trip latency goes into a
/// shared [`telemetry::Histogram`] and the cell reports throughput plus
/// p50/p95/p99 (per burst — at depth 1 that is per request).
///
/// Self-asserting: every reply is checked (`+OK` for writes, a bulk
/// document for reads — the keyspace is fully preloaded so misses are
/// bugs), and the server's own `server.*` counters must agree exactly with
/// the client-side issue counts.
fn server(scale: f64) -> Vec<Measurement> {
    use server::{CommandKind, RespClient, Server, ServerConfig};
    use telemetry::Histogram;

    let keyspace = scaled(2_000, scale, 200) as i64;
    // A multiple of the deepest pipeline so every burst is full.
    let requests_per_conn = scaled(4_000, scale, 320) / 16 * 16;
    let doc = |k: i64| format!(r#"{{"num": {}, "nested": {{"tag": "t{}"}}}}"#, k % 977, k % 13);
    let mut out = Vec::new();
    for (connections, depth) in [(1usize, 1usize), (1, 16), (8, 1), (8, 16)] {
        let handle = Server::start(ServerConfig { shards: 4, ..ServerConfig::default() })
            .expect("start server");

        // Preload the whole keyspace so every GET hits.
        let mut admin = RespClient::connect(handle.addr()).expect("connect");
        for chunk in (0..keyspace).collect::<Vec<_>>().chunks(128) {
            let pairs: Vec<(String, String)> =
                chunk.iter().map(|&k| (k.to_string(), doc(k))).collect();
            let borrowed: Vec<(&str, &str)> =
                pairs.iter().map(|(k, d)| (k.as_str(), d.as_str())).collect();
            let reply = admin.mset(&borrowed).expect("preload");
            assert_eq!(reply.as_integer(), Some(chunk.len() as i64), "preload ack");
        }

        let latency = Arc::new(Histogram::default());
        let started = Instant::now();
        let workers: Vec<_> = (0..connections)
            .map(|conn| {
                let addr = handle.addr();
                let latency = Arc::clone(&latency);
                std::thread::spawn(move || {
                    let mut client = RespClient::connect(addr).expect("connect");
                    let mut sets = 0u64;
                    let mut gets = 0u64;
                    let mut burst: Vec<Vec<String>> = Vec::with_capacity(depth);
                    for i in 0..requests_per_conn {
                        // Deterministic mix and key choice (Weyl-ish mixing
                        // so threads don't march in lockstep).
                        let n = (conn * requests_per_conn + i) as i64;
                        let key = (n.wrapping_mul(2_654_435_761) as u64 % keyspace as u64) as i64;
                        if n % 10 < 3 {
                            sets += 1;
                            burst.push(vec!["SET".into(), key.to_string(), doc(key)]);
                        } else {
                            gets += 1;
                            burst.push(vec!["GET".into(), key.to_string()]);
                        }
                        if burst.len() == depth {
                            let t = Instant::now();
                            let replies = client.pipeline(&burst).expect("pipeline");
                            latency.record(t.elapsed().as_micros() as u64);
                            for (reply, req) in replies.iter().zip(&burst) {
                                match req[0].as_str() {
                                    "SET" => assert_eq!(reply.as_text(), Some("OK"), "{reply:?}"),
                                    _ => assert!(
                                        reply.as_text().is_some(),
                                        "preloaded key missed: {req:?} -> {reply:?}"
                                    ),
                                }
                            }
                            burst.clear();
                        }
                    }
                    (sets, gets)
                })
            })
            .collect();
        let mut issued_sets = 0u64;
        let mut issued_gets = 0u64;
        for worker in workers {
            let (sets, gets) = worker.join().expect("load thread");
            issued_sets += sets;
            issued_gets += gets;
        }
        let elapsed = started.elapsed();

        // The wire-side counters must agree exactly with what we issued.
        let metrics = handle.metrics();
        assert_eq!(metrics.requests_for(CommandKind::Set), issued_sets, "SET");
        assert_eq!(metrics.requests_for(CommandKind::Get), issued_gets, "GET");

        let total = (issued_sets + issued_gets) as f64;
        let snap = latency.snapshot();
        let row = format!("{connections} conn x {depth} deep");
        for (column, value) in [
            ("kreq/s", total / elapsed.as_secs_f64() / 1e3),
            ("p50_us", snap.quantile(0.50) as f64),
            ("p95_us", snap.quantile(0.95) as f64),
            ("p99_us", snap.quantile(0.99) as f64),
        ] {
            out.row(&row, column, value, "mixed");
        }
        handle.shutdown();
        handle.join();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bench-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn experiment_functions_run_at_tiny_scale() {
        // Every entry of the table end to end at smoke scale (each also runs
        // its own contract asserts): it returns rows, no (row, column) cell
        // repeats — `print_matrix` would silently show only the first — and
        // nothing is written, whatever artifact the entry owns.
        let dir = empty_dir("table");
        for experiment in EXPERIMENTS {
            let rows = experiment.run_and_emit(SMOKE_SCALE, &dir);
            assert!(!rows.is_empty(), "{}", experiment.name);
            let mut cells: Vec<(&str, &str)> =
                rows.iter().map(|m| (m.row.as_str(), m.column.as_str())).collect();
            cells.sort_unstable();
            for pair in cells.windows(2) {
                assert_ne!(pair[0], pair[1], "{}: repeated cell", experiment.name);
            }
        }
        let written = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(written, 0, "a smoke run wrote an artifact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fig15_crossover_sweeps_and_agrees_across_policies() {
        // The sweep itself asserts index == scan == auto per cell; here we
        // additionally check the crossover shape is recorded: Auto must pick
        // the probe somewhere and the scan somewhere (tweet_2's timestamp is
        // dense and unique, so 0.001% is a handful of records and 10% is
        // hundreds), and at the extremes it must side with the winner.
        let rows = fig15(0.25);
        // 4 layouts x 5 selectivities x (3 timings + 1 choice).
        assert_eq!(rows.len(), 4 * 5 * 4);
        let choice = |sel: &str, layout: LayoutKind| {
            let row = format!("{sel}% (auto picks index)");
            let cell = rows.iter().find(|m| m.row == row && m.column == layout.name());
            cell.unwrap().value
        };
        for layout in LayoutKind::ALL {
            // At 10% a scan always wins (matches outnumber leaves).
            assert_eq!(choice("10", layout), 0.0, "{layout:?}: auto must scan at 10%");
        }
        // At 0.001% the probe wins wherever lookups are cheaper than a
        // leaf-wide scan; VB components have many single-page leaves, so the
        // crossover must be visible there.
        assert_eq!(choice("0.001", LayoutKind::Vb), 1.0, "VB: auto must probe");
    }

    #[test]
    fn measurements_json_is_well_formed_enough() {
        let experiment = Experiment {
            name: "fig15",
            title: "test",
            artifact: Some("BENCH_test.json"),
            run: table1,
        };
        let mut rows = Vec::new();
        rows.row("0.1% (auto)", "VB", 1.25, "ms");
        rows.row("quote\"row", "AMAX", 0.0, "bool");
        let dir = empty_dir("json");
        // Only a full-scale run writes: smoke or scaled-down runs leave the
        // committed artifacts alone.
        for scale in [SMOKE_SCALE, 0.25] {
            assert!(experiment.emit(scale, &rows, &dir).unwrap().is_none());
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        let path = experiment.emit(1.0, &rows, &dir).unwrap();
        let text = std::fs::read_to_string(path.expect("full scale writes")).unwrap();
        assert!(text.contains("\"figure\": \"fig15\""), "{text}");
        assert!(text.contains("\"value\": 1.25"), "{text}");
        assert!(text.contains("quote\\\"row"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn storage_shape_matches_the_paper_on_sensors() {
        // AMAX/APAX beat the row layouts by a wide margin on numeric data.
        let rows = fig12(0.2);
        let get = |row: &str, col: &str| {
            rows.iter().find(|m| m.row == row && m.column == col).map(|m| m.value).unwrap()
        };
        assert!(get("sensors", "AMAX") < get("sensors", "VB"));
        assert!(get("sensors", "APAX") < get("sensors", "Open"));
    }
}
