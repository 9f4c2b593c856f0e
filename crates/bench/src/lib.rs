//! # bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation (§6). Each
//! function builds the required datasets at a laptop-scale record count,
//! runs the measurement and returns printable rows with the same structure
//! as the paper's figures: dataset × layout for storage/ingestion, query ×
//! layout for execution times, selectivity × layout for index experiments,
//! column-count sweeps for Figure 16.
//!
//! Absolute numbers differ from the paper (simulated disk, scaled data,
//! different language/runtime); what carries over are the *shapes*: who
//! wins, by roughly what factor, where the crossovers are.
//!
//! The `experiments` binary (`cargo run -p bench --release --bin experiments`)
//! prints every table. Its times are **informational**: each is a single
//! `Instant` sample, so no speed claim can rest on them — the repository's
//! one timing harness is the `benchmark/` package (see `BENCHMARK.json`).
//! What the self-asserting experiments *assert* are contracts: pages read,
//! records assembled / copied / handled by kernels, and answers equal across
//! lanes, layouts and access paths.

use std::time::{Duration, Instant};

use datagen::{generate, generate_updates, summarize, DatasetKind, DatasetSpec};
use docmodel::Path;
use lsm::{CompactionSpec, DatasetConfig, LsmDataset};
use query::{
    AccessPathChoice, Aggregate, ExecMode, Expr, PlannerOptions, Query, QueryEngine, ScanLane,
};
use storage::LayoutKind;

/// Run a query on one dataset in the given mode (default planner options).
pub fn run_query(dataset: &LsmDataset, query: &Query, mode: ExecMode) -> Vec<query::QueryRow> {
    QueryEngine::new(mode).execute(dataset, query).expect("query")
}

/// Default record counts per dataset (scaled from the paper's 17M–1.43B).
pub fn default_records(kind: DatasetKind) -> usize {
    match kind {
        DatasetKind::Cell => 8_000,
        DatasetKind::Sensors => 3_000,
        DatasetKind::Tweet1 => 2_000,
        DatasetKind::Wos => 1_500,
        DatasetKind::Tweet2 => 4_000,
    }
}

/// Build an LSM dataset containing the given synthetic dataset in the given
/// layout. Returns the dataset together with the wall-clock ingestion time.
pub fn build_dataset(
    kind: DatasetKind,
    layout: LayoutKind,
    records: usize,
    secondary_index: bool,
) -> (LsmDataset, Duration) {
    let spec = DatasetSpec::new(kind, records);
    let docs = generate(&spec);
    let mut config = DatasetConfig::new(kind.name(), layout)
        .with_key_field(kind.key_field())
        .with_memtable_budget(256 * 1024)
        .with_page_size(32 * 1024);
    if secondary_index {
        config = config.with_secondary_index(Path::parse("timestamp"));
    }
    let dataset = LsmDataset::new(config);
    let started = Instant::now();
    for doc in docs {
        dataset.insert(doc).expect("ingest");
    }
    dataset.flush().expect("flush");
    (dataset, started.elapsed())
}

/// Like [`build_dataset`], but with durability enabled: the dataset is
/// opened in (a fresh subdirectory of) `dir`, so every insert pays the WAL
/// append and every flush pays the page-file sync + manifest commit. Used by
/// the durability on/off ingest comparison.
pub fn build_durable_dataset(
    kind: DatasetKind,
    layout: LayoutKind,
    records: usize,
    dir: &std::path::Path,
) -> (LsmDataset, Duration) {
    let spec = DatasetSpec::new(kind, records);
    let docs = generate(&spec);
    let config = DatasetConfig::new(kind.name(), layout)
        .with_key_field(kind.key_field())
        .with_memtable_budget(256 * 1024)
        .with_page_size(32 * 1024);
    let subdir = dir.join(format!("{}-{}", kind.name(), layout.name()));
    let _ = std::fs::remove_dir_all(&subdir);
    let dataset = LsmDataset::open(&subdir, config).expect("open durable dataset");
    let started = Instant::now();
    for doc in docs {
        dataset.insert(doc).expect("ingest");
    }
    dataset.flush().expect("flush");
    let elapsed = started.elapsed();
    (dataset, elapsed)
}

/// Measure ingest wall time with durability off vs on (per layout), the
/// overhead of the WAL + manifest + file-backed pages on the write path.
pub fn run_durability_comparison(kind: DatasetKind, records: usize) -> Vec<Measurement> {
    let dir = std::env::temp_dir().join(format!("bench-durability-{}", std::process::id()));
    let mut out = Vec::new();
    for layout in LayoutKind::ALL {
        let (_, in_memory) = build_dataset(kind, layout, records, false);
        let (durable_ds, durable) = build_durable_dataset(kind, layout, records, &dir);
        drop(durable_ds);
        out.push(Measurement {
            row: "in-memory".to_string(),
            column: layout.name().to_string(),
            value: in_memory.as_secs_f64() * 1e3,
            unit: "ms",
        });
        out.push(Measurement {
            row: "durable".to_string(),
            column: layout.name().to_string(),
            value: durable.as_secs_f64() * 1e3,
            unit: "ms",
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Acknowledged-ingest group-commit cadence of the concurrency experiment:
/// the WAL is fsynced every this many records, as a durable service
/// acknowledging client batches would.
pub const CONCURRENCY_GROUP_COMMIT: usize = 64;

/// Concurrency experiment: the same durable, group-committed, insert-only
/// workload (WAL fsync every [`CONCURRENCY_GROUP_COMMIT`] records) ingested
/// three ways on identical LSM settings —
///
/// * **blocking**: the seed behaviour, flushes and merges (including their
///   page-file and manifest fsyncs) run inside `insert()` on the writer
///   thread, serialising with the group-commit fsyncs;
/// * **background**: one writer thread, flushes/merges on the dataset's
///   background worker (the paper's background-job LSM lifecycle) — the
///   worker's encode/compress/fsync work overlaps with ingestion and with
///   the writer's group-commit waits;
/// * **sharded xN**: N hash partitions, one writer thread and one
///   background worker per shard — N independent WAL/flush streams whose
///   I/O waits overlap each other even on a single core.
///
/// All three modes ingest through the facade's group-commit batching API
/// ([`docstore::Datastore::ingest_batch`] with a
/// [`CONCURRENCY_GROUP_COMMIT`]-record sync cadence) instead of hand-rolled
/// per-K-records `sync()` loops. Reported as wall time and throughput. The
/// background gain is bounded by the overlap between the writer's fsync
/// waits and the worker's flush work on one core, and grows with core
/// count; sharding adds scaling on top.
pub fn run_concurrency_comparison(
    kind: DatasetKind,
    records: usize,
    shards: usize,
) -> Vec<Measurement> {
    use docstore::{DatasetOptions, Datastore};

    let dir = std::env::temp_dir().join(format!(
        "bench-concurrency-{}-{}",
        std::process::id(),
        kind.name()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let docs = generate(&DatasetSpec::new(kind, records));
    let layout = LayoutKind::Amax;
    let budget = 64 * 1024;
    let mut out = Vec::new();
    let mut report = |row: &str, elapsed: Duration| {
        out.push(Measurement {
            row: row.to_string(),
            column: "wall".to_string(),
            value: elapsed.as_secs_f64() * 1e3,
            unit: "ms",
        });
        out.push(Measurement {
            row: row.to_string(),
            column: "krec/s".to_string(),
            value: records as f64 / elapsed.as_secs_f64() / 1e3,
            unit: "krec/s",
        });
    };

    // (mode label, shard count, background workers on/off).
    let modes = [
        ("blocking".to_string(), 1usize, false),
        ("background".to_string(), 1, true),
        (format!("sharded x{shards}"), shards, true),
    ];
    for (label, n_shards, background) in modes {
        let mut store = Datastore::new();
        store
            .open_dataset(
                &label,
                dir.join(&label),
                DatasetOptions::new(layout)
                    .key(kind.key_field())
                    .memtable_budget(budget)
                    .page_size(32 * 1024)
                    .shards(n_shards)
                    .background(background)
                    .max_sealed(8),
            )
            .expect("open dataset");
        let started = Instant::now();
        store
            .ingest_batch(&label, docs.clone(), CONCURRENCY_GROUP_COMMIT)
            .expect("group-committed ingest");
        store.flush(&label).expect("flush");
        report(&label, started.elapsed());

        let count = store
            .query(&label, &Query::count_star(), ExecMode::Compiled)
            .expect("fan-out count");
        assert_eq!(count[0].agg(), &docmodel::Value::Int(records as i64));
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
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

impl Measurement {
    fn new(row: impl Into<String>, column: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Measurement {
            row: row.into(),
            column: column.into(),
            value,
            unit,
        }
    }
}

/// Print a list of measurements as an aligned matrix (rows × columns).
pub fn print_matrix(title: &str, measurements: &[Measurement]) {
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
            let v = measurements
                .iter()
                .find(|m| &m.row == r && &m.column == c)
                .map(|m| m.value);
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
// Table 1 — dataset summary.
// ---------------------------------------------------------------------------

/// Regenerate Table 1 (dataset characteristics) at the scaled record counts.
pub fn table1(scale: f64) -> Vec<Measurement> {
    let mut out = Vec::new();
    for kind in DatasetKind::ALL {
        let records = ((default_records(kind) as f64) * scale).max(100.0) as usize;
        let docs = generate(&DatasetSpec::new(kind, records));
        let summary = summarize(kind, &docs);
        out.push(Measurement::new(kind.name(), "records", summary.records as f64, "count"));
        out.push(Measurement::new(
            kind.name(),
            "avg_record_bytes",
            summary.avg_record_bytes as f64,
            "count",
        ));
        out.push(Measurement::new(
            kind.name(),
            "columns",
            summary.inferred_columns as f64,
            "count",
        ));
        out.push(Measurement::new(
            kind.name(),
            "json_MiB",
            summary.json_bytes as f64 / (1 << 20) as f64,
            "count",
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 12a — storage size after ingestion.
// ---------------------------------------------------------------------------

/// Total on-disk size per dataset and layout (tweet_2 includes its secondary
/// indexes, as in the paper).
pub fn fig12_storage(scale: f64) -> Vec<Measurement> {
    let mut out = Vec::new();
    for kind in DatasetKind::ALL {
        let records = ((default_records(kind) as f64) * scale).max(100.0) as usize;
        let secondary = kind == DatasetKind::Tweet2;
        for layout in LayoutKind::ALL {
            let (dataset, _) = build_dataset(kind, layout, records, secondary);
            let label = if secondary {
                format!("{}*", kind.name())
            } else {
                kind.name().to_string()
            };
            out.push(Measurement::new(
                label,
                layout.name(),
                dataset.total_stored_bytes() as f64 / (1 << 20) as f64,
                "MiB",
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 13a — ingestion time.
// ---------------------------------------------------------------------------

/// Ingestion wall time per dataset and layout. `tweet_2*` runs the
/// update-intensive workload (50% updates) with a timestamp secondary index
/// and a primary-key index, as in §6.3.2.
pub fn fig13_ingestion(scale: f64) -> Vec<Measurement> {
    let mut out = Vec::new();
    for kind in [
        DatasetKind::Cell,
        DatasetKind::Sensors,
        DatasetKind::Tweet1,
        DatasetKind::Wos,
    ] {
        let records = ((default_records(kind) as f64) * scale).max(100.0) as usize;
        for layout in LayoutKind::ALL {
            let (_, elapsed) = build_dataset(kind, layout, records, false);
            out.push(Measurement::new(
                kind.name(),
                layout.name(),
                elapsed.as_secs_f64() * 1000.0,
                "ms",
            ));
        }
    }
    // Update-intensive tweet_2 with secondary index.
    let records = ((default_records(DatasetKind::Tweet2) as f64) * scale).max(100.0) as usize;
    let spec = DatasetSpec::new(DatasetKind::Tweet2, records);
    for layout in LayoutKind::ALL {
        let (dataset, base) = build_dataset(DatasetKind::Tweet2, layout, records, true);
        let updates = generate_updates(&spec, 0.5);
        let started = Instant::now();
        for doc in updates {
            dataset.insert(doc).expect("update");
        }
        dataset.flush().expect("flush");
        let elapsed = base + started.elapsed();
        out.push(Measurement::new(
            "tweet_2*",
            layout.name(),
            elapsed.as_secs_f64() * 1000.0,
            "ms",
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 14 — scan-query execution times per dataset.
// ---------------------------------------------------------------------------

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
            (
                "Q3",
                Query::count_star().with_filter(Expr::ge("duration", 600)),
            ),
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

/// Execution time of every Table-2 query, per layout (Figure 14a–d), using
/// the compiled engine (the paper reports code-generation numbers for this
/// figure).
pub fn fig14_queries(kind: DatasetKind, scale: f64) -> Vec<Measurement> {
    let records = ((default_records(kind) as f64) * scale).max(100.0) as usize;
    let mut out = Vec::new();
    let engine = QueryEngine::new(ExecMode::Compiled);
    for layout in LayoutKind::ALL {
        let (dataset, _) = build_dataset(kind, layout, records, false);
        for (name, q) in queries_for(kind) {
            let (_, ms) = time(|| engine.execute(&dataset, &q).expect("query"));
            out.push(Measurement::new(name, layout.name(), ms, "ms"));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 10 — interpreted vs. code-generated execution.
// ---------------------------------------------------------------------------

/// Q1 (COUNT(*)) and Q2 (group-by over an unnested array), interpreted vs
/// compiled, across the four layouts.
pub fn fig10_codegen(scale: f64) -> Vec<Measurement> {
    let kind = DatasetKind::Sensors;
    let records = ((default_records(kind) as f64) * scale).max(100.0) as usize;
    let q1 = Query::count_star();
    let q2 = Query::new()
        .with_unnest("readings")
        .group_by("sensor_id")
        .aggregate_element(Aggregate::Max(Path::parse("temp")))
        .top_k(10);
    let mut out = Vec::new();
    for layout in LayoutKind::ALL {
        let (dataset, _) = build_dataset(kind, layout, records, false);
        let (_, ms) = time(|| run_query(&dataset, &q1, ExecMode::Compiled));
        out.push(Measurement::new("Q1 COUNT(*)", layout.name(), ms, "ms"));
        let (_, ms) = time(|| run_query(&dataset, &q2, ExecMode::Interpreted));
        out.push(Measurement::new("Q2 (Interpreted)", layout.name(), ms, "ms"));
        let (_, ms) = time(|| run_query(&dataset, &q2, ExecMode::Compiled));
        out.push(Measurement::new("Q2 (CodeGen)", layout.name(), ms, "ms"));
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 15 — secondary-index range queries at different selectivities.
// ---------------------------------------------------------------------------

/// Range COUNT queries on the timestamp index at different selectivities,
/// plus the full-scan alternative, per layout. The *same* logical query is
/// executed both ways: the planner routes the range filter through the
/// index, and an engine with index routing disabled scans.
pub fn fig15_secondary(scale: f64) -> Vec<Measurement> {
    let kind = DatasetKind::Tweet2;
    let records = ((default_records(kind) as f64) * scale).max(200.0) as usize;
    let base_ts = 1_450_000_000_000i64;
    let selectivities = [0.001, 0.01, 0.1, 1.0, 10.0];
    let probe = QueryEngine::with_options(
        ExecMode::Compiled,
        PlannerOptions::with_access_path(AccessPathChoice::ForceIndex),
    );
    let scan = QueryEngine::with_options(
        ExecMode::Compiled,
        PlannerOptions::with_access_path(AccessPathChoice::ForceScan),
    );
    let mut out = Vec::new();
    for layout in LayoutKind::ALL {
        let (dataset, _) = build_dataset(kind, layout, records, true);
        for sel in selectivities {
            let span = ((records as f64) * sel / 100.0).max(1.0) as i64;
            let q = Query::count_star().with_filter(Expr::between(
                "timestamp",
                base_ts,
                base_ts + span - 1,
            ));
            let (_, ms) = time(|| probe.execute(&dataset, &q).unwrap());
            out.push(Measurement::new(format!("{sel}% (index)"), layout.name(), ms, "ms"));
        }
        // Scan-based execution of the 10% query (index routing disabled).
        let span = ((records as f64) * 0.1).max(1.0) as i64;
        let q = Query::count_star().with_filter(Expr::between(
            "timestamp",
            base_ts,
            base_ts + span - 1,
        ));
        let (_, ms) = time(|| scan.execute(&dataset, &q).unwrap());
        out.push(Measurement::new("10% (scan)", layout.name(), ms, "ms"));
    }
    out
}

/// Figure 15 crossover sweep: the same range-`COUNT` query at several
/// selectivities, executed three ways — forced through the secondary index,
/// forced to a (zone-map-pruned) scan, and with the cost-based `Auto`
/// policy — per layout. Every cell is also a differential check: the three
/// policies must return identical counts. `Auto`'s choice per selectivity
/// is recorded as `auto picks index` rows (1 = probe, 0 = scan), so the
/// crossover is visible in the emitted `BENCH_fig15.json`.
pub fn fig15_crossover(scale: f64) -> Vec<Measurement> {
    let kind = DatasetKind::Tweet2;
    let records = ((default_records(kind) as f64) * scale).max(200.0) as usize;
    let base_ts = 1_450_000_000_000i64;
    let selectivities = [0.001, 0.01, 0.1, 1.0, 10.0];
    let engines = [
        ("index", AccessPathChoice::ForceIndex),
        ("scan", AccessPathChoice::ForceScan),
        ("auto", AccessPathChoice::Auto),
    ];
    let mut out = Vec::new();
    for layout in [LayoutKind::Vb, LayoutKind::Amax] {
        let (dataset, _) = build_dataset(kind, layout, records, true);
        // Settle the tree so per-component statistics describe one merged
        // component (the steady state the paper measures).
        dataset.compact_fully().expect("compact");
        for sel in selectivities {
            let span = ((records as f64) * sel / 100.0).max(1.0) as i64;
            let q = Query::count_star().with_filter(Expr::between(
                "timestamp",
                base_ts,
                base_ts + span - 1,
            ));
            let mut reference: Option<Vec<query::QueryRow>> = None;
            for (label, choice) in engines {
                let engine = QueryEngine::with_options(
                    ExecMode::Compiled,
                    PlannerOptions::with_access_path(choice),
                );
                let (rows, ms) = time(|| engine.execute(&dataset, &q).unwrap());
                match &reference {
                    None => reference = Some(rows),
                    Some(expected) => {
                        assert_eq!(expected, &rows, "{label} diverged at {sel}% ({layout:?})")
                    }
                }
                out.push(Measurement::new(
                    format!("{sel}% ({label})"),
                    layout.name(),
                    ms,
                    "ms",
                ));
            }
            let auto = QueryEngine::new(ExecMode::Compiled);
            let picked_index = auto
                .explain(&dataset, &q)
                .unwrap()
                .contains("secondary-index range probe");
            out.push(Measurement::new(
                format!("{sel}% (auto picks index)"),
                layout.name(),
                if picked_index { 1.0 } else { 0.0 },
                "bool",
            ));
        }
    }
    out
}

/// Serialize measurements as a small JSON document (hand-rolled: the
/// container has no serde) so perf sweeps leave a machine-readable trail.
pub fn write_measurements_json(
    path: &std::path::Path,
    figure: &str,
    scale: f64,
    rows: &[Measurement],
) -> std::io::Result<()> {
    fn escape(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"figure\": \"{}\", \"scale\": {scale}, \"measurements\": [",
        escape(figure)
    ));
    for (i, m) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"row\": \"{}\", \"column\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}",
            escape(&m.row),
            escape(&m.column),
            if m.value.is_finite() { m.value } else { -1.0 },
            escape(m.unit)
        ));
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out)
}

// ---------------------------------------------------------------------------
// Figure 16 — impact of the number of columns accessed.
// ---------------------------------------------------------------------------

/// Count-non-null queries reading 1..=10 columns, scan-based (APAX vs AMAX),
/// plus index-based variants at a fixed selectivity.
pub fn fig16_column_count(scale: f64) -> Vec<Measurement> {
    let kind = DatasetKind::Tweet2;
    let records = ((default_records(kind) as f64) * scale).max(200.0) as usize;
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
    let mut out = Vec::new();
    for layout in [LayoutKind::Apax, LayoutKind::Amax] {
        let (dataset, _) = build_dataset(kind, layout, records, true);
        for n in 1..=columns.len() {
            // Count the non-null values of the first n columns, one query
            // each (the paper picks n random columns; we use a fixed prefix
            // so runs are comparable). A multi-aggregate query could read
            // all n in one pass; one query per column keeps the per-column
            // page counts of the figure.
            let (_, ms) = time(|| {
                for col in &columns[..n] {
                    let qn = Query::select([Aggregate::CountNonNull(Path::parse(col))]);
                    engine.execute(&dataset, &qn).unwrap();
                }
            });
            out.push(Measurement::new(
                format!("{n} columns (scan)"),
                layout.name(),
                ms,
                "ms",
            ));
        }
        // Index-based variant at 1% selectivity reading all ten columns: the
        // range filter on the indexed timestamp routes through the index.
        let base_ts = 1_450_000_000_000i64;
        let span = ((records as f64) * 0.01).max(1.0) as i64;
        let (_, ms) = time(|| {
            for col in &columns {
                let qn = Query::select([Aggregate::CountNonNull(Path::parse(col))])
                    .with_filter(Expr::between("timestamp", base_ts, base_ts + span - 1));
                engine.execute(&dataset, &qn).unwrap();
            }
        });
        out.push(Measurement::new("10 columns (index, 1%)", layout.name(), ms, "ms"));
    }
    out
}

// ---------------------------------------------------------------------------
// Decoded-leaf cache: cold vs warm latency, hit rate, budget sweep.
// ---------------------------------------------------------------------------

/// Decoded-leaf cache experiment (tweet_2, AMAX): the same scan and
/// point-read workloads with and without a budget-backed [`LeafCache`].
/// Self-asserting on the tentpole's acceptance criteria:
///
/// * a warm repeated scan reads **zero pages**, and its cache hits equal
///   exactly the leaves the cold scan decoded;
/// * a point read served from the warm cache reads **zero pages** and
///   assembles at most the one record it returns (the uncached timing is
///   reported beside it, not asserted);
/// * across a budget sweep the cache's resident bytes never exceed its
///   capacity, and the hit rate on a re-scanned hot range is monotone.
///
/// [`LeafCache`]: storage::LeafCache
pub fn run_cache_comparison(scale: f64) -> Vec<Measurement> {
    use std::sync::Arc;
    use storage::LeafCache;

    let kind = DatasetKind::Tweet2;
    let records = ((default_records(kind) as f64) * scale).max(300.0) as usize;
    let docs = generate(&DatasetSpec::new(kind, records));
    let keys: Vec<docmodel::Value> = docs
        .iter()
        .map(|d| d.get_field(kind.key_field()).expect("key field").clone())
        .collect();
    let build = |cache: Option<Arc<LeafCache>>| {
        let mut config = DatasetConfig::new(kind.name(), LayoutKind::Amax)
            .with_key_field(kind.key_field())
            .with_memtable_budget(64 * 1024)
            .with_page_size(8 * 1024);
        if let Some(cache) = cache {
            config = config.with_leaf_cache(cache);
        }
        config.amax.record_limit = 64;
        let dataset = LsmDataset::new(config);
        for doc in docs.clone() {
            dataset.insert(doc).expect("ingest");
        }
        dataset.flush().expect("flush");
        dataset
    };
    let mut out = Vec::new();
    let engine = QueryEngine::new(ExecMode::Compiled);
    let scan = Query::count_star().with_filter(Expr::ge("timestamp", 0));

    // Cold vs warm scan through one cache: the warm pass must touch no
    // page and score a hit on every leaf the cold pass decoded.
    let cache = Arc::new(LeafCache::new(8 << 20));
    let cached = build(Some(cache.clone()));
    cache.clear();
    let before = cached.io_stats();
    let (cold_rows, cold_scan) = time(|| engine.execute(&cached, &scan).expect("cold scan"));
    let mid = cached.io_stats();
    let (warm_rows, warm_scan) = time(|| engine.execute(&cached, &scan).expect("warm scan"));
    let after = cached.io_stats();
    assert_eq!(cold_rows, warm_rows, "the cache must never change answers");
    let cold_misses = mid.leaf_cache_misses - before.leaf_cache_misses;
    assert!(cold_misses > 0, "the cold scan must decode leaves");
    assert_eq!(after.pages_read, mid.pages_read, "a warm re-scan must read zero pages");
    assert_eq!(
        after.leaf_cache_hits - mid.leaf_cache_hits,
        cold_misses,
        "warm hits must equal the leaves the cold scan decoded"
    );
    out.push(Measurement::new("hot-range scan", "cold", cold_scan, "ms"));
    out.push(Measurement::new("hot-range scan", "warm", warm_scan, "ms"));

    // Point reads: a warm cache vs no cache at all, same keys, same order.
    // Several rounds amortise timer noise at smoke scales.
    const ROUNDS: usize = 3;
    let uncached = build(None);
    let probe: Vec<&docmodel::Value> = keys.iter().step_by(3).collect();
    for key in &probe {
        cached.lookup(key, None).expect("warmup lookup").expect("present");
    }
    let point_pass = |dataset: &LsmDataset| {
        for _ in 0..ROUNDS {
            for key in &probe {
                dataset.lookup(key, None).expect("lookup").expect("present");
            }
        }
    };
    let before = cached.io_stats();
    let ((), warm_points) = time(|| point_pass(&cached));
    let after = cached.io_stats();
    let ((), cold_points) = time(|| point_pass(&uncached));
    // The contract, not the clock: a lookup served from the cache reads no
    // page and assembles nothing but the one record it returns.
    let lookups = (ROUNDS * probe.len()) as u64;
    let assembled = after.records_assembled - before.records_assembled;
    assert_eq!(
        after.pages_read, before.pages_read,
        "cached lookups must read zero pages"
    );
    assert_eq!(
        after.leaf_cache_misses, before.leaf_cache_misses,
        "every leaf was warmed"
    );
    assert!(
        assembled <= lookups,
        "cached lookups assembled {assembled} records for {lookups} lookups"
    );
    let speedup = cold_points / warm_points.max(1e-6);
    out.push(Measurement::new("point reads", "uncached", cold_points, "ms"));
    out.push(Measurement::new("point reads", "warm cache", warm_points, "ms"));
    out.push(Measurement::new("point reads", "speedup", speedup, "x"));
    out.push(Measurement::new(
        "point reads",
        "assembled per cached lookup",
        assembled as f64 / lookups as f64,
        "records",
    ));

    // Budget sweep: residency must stay bounded at every capacity, and a
    // re-scan of the same hot range can only raise the hit rate.
    for budget in [32usize << 10, 256 << 10, 4 << 20] {
        let cache = Arc::new(LeafCache::new(budget));
        let dataset = build(Some(cache.clone()));
        cache.clear();
        let rate = |s: storage::LeafCacheStats| {
            s.hits as f64 / (s.hits + s.misses).max(1) as f64
        };
        engine.execute(&dataset, &scan).expect("sweep scan");
        let first = rate(cache.stats());
        engine.execute(&dataset, &scan).expect("sweep re-scan");
        let stats = cache.stats();
        assert!(
            stats.resident_bytes <= stats.capacity_bytes,
            "resident bytes must honour the budget: {stats:?}"
        );
        let second = rate(stats);
        assert!(second >= first, "hit rate must be monotone: {first} -> {second}");
        let label = format!("budget {} KiB", budget >> 10);
        out.push(Measurement::new(label.clone(), "resident", (stats.resident_bytes >> 10) as f64, "KiB"));
        out.push(Measurement::new(label, "hit rate", second * 100.0, "%"));
    }
    out
}

// ---------------------------------------------------------------------------
// Filter pushdown (late materialization): selectivity × layout sweep.
// ---------------------------------------------------------------------------

/// Filter-pushdown experiment: a narrow sortable filter column (`ts`) next
/// to a fat payload column, scanned at 0.1% / 1% / 10% / 100% selectivity
/// per layout (VB / APAX / AMAX) with pushdown on vs off.
///
/// Self-asserting on the tentpole's acceptance criteria:
///
/// * pushdown never changes the answer, at any cell of the sweep;
/// * at ≤ 1% selectivity on the columnar layouts, the pushed scan reads
///   **strictly fewer pages**, assembles ≈ the matching records instead of
///   the dataset, and improves wall time by at least 2x;
/// * at 100% selectivity (nothing filterable) the pushed scan's overhead —
///   the extra filter-column decode + per-record evaluation — stays ≤ 10%.
pub fn run_pushdown_comparison(scale: f64) -> Vec<Measurement> {
    use docmodel::doc;

    const ROUNDS: usize = 3;
    let records = ((8_000f64 * scale).max(640.0)) as usize;
    let build = |layout: LayoutKind| {
        let mut config = DatasetConfig::new("pushdown", layout)
            .with_key_field("id")
            .with_memtable_budget(usize::MAX)
            .with_page_size(8 * 1024);
        config.amax.record_limit = 64;
        let dataset = LsmDataset::new(config);
        for i in 0..records as i64 {
            dataset
                .insert(doc!({
                    "id": i,
                    "ts": i,
                    "payload": (format!("fat payload column for record {i}: {}", "x".repeat(120)))
                }))
                .expect("ingest");
        }
        dataset.flush().expect("flush");
        dataset
    };
    let pushed_engine = QueryEngine::new(ExecMode::Compiled);
    let unpushed_engine = QueryEngine::with_options(
        ExecMode::Compiled,
        PlannerOptions {
            filter_pushdown: false,
            ..Default::default()
        },
    );

    // One cold measured pass: clear the cache so every engine pays its real
    // page reads, take the best of `ROUNDS` for timing robustness, and
    // report the I/O counters of the final pass.
    let measure = |dataset: &LsmDataset, engine: &QueryEngine, query: &Query| {
        let mut wall = f64::MAX;
        let mut rows = Vec::new();
        let mut stats = dataset.io_stats();
        for _ in 0..ROUNDS {
            dataset.cache().clear();
            dataset.cache().store().reset_stats();
            let (r, ms) = time(|| engine.execute(dataset, query).expect("scan"));
            wall = wall.min(ms);
            rows = r;
            stats = dataset.io_stats();
        }
        (rows, wall, stats)
    };

    let mut out = Vec::new();
    for layout in [LayoutKind::Vb, LayoutKind::Apax, LayoutKind::Amax] {
        let dataset = build(layout);
        let columnar = matches!(layout, LayoutKind::Apax | LayoutKind::Amax);
        for (label, selectivity) in [("0.1%", 0.001), ("1%", 0.01), ("10%", 0.1), ("100%", 1.0)]
        {
            let matched = ((records as f64 * selectivity).round() as i64).max(1);
            let query = Query::count_star().with_filter(Expr::lt("ts", matched));
            let (on_rows, on_ms, on) = measure(&dataset, &pushed_engine, &query);
            let (off_rows, off_ms, off) = measure(&dataset, &unpushed_engine, &query);
            assert_eq!(
                on_rows, off_rows,
                "pushdown must never change answers: {} {label}",
                layout.name()
            );

            if columnar && selectivity <= 0.01 {
                assert!(
                    on.pages_read < off.pages_read,
                    "{} {label}: pushdown must read strictly fewer pages ({} vs {})",
                    layout.name(),
                    on.pages_read,
                    off.pages_read
                );
                // Assembly tracks matches (± the one live leaf the filter
                // evaluates record by record), not the dataset.
                assert!(
                    on.records_assembled <= matched as u64 + 64,
                    "{} {label}: assembled {} for {} matches",
                    layout.name(),
                    on.records_assembled,
                    matched
                );
                assert_eq!(off.records_assembled, records as u64);
                assert!(
                    off_ms >= on_ms * 2.0,
                    "{} {label}: pushdown must be at least 2x faster ({on_ms:.2}ms vs {off_ms:.2}ms)",
                    layout.name()
                );
            }
            if columnar && selectivity >= 1.0 {
                assert!(
                    on_ms <= off_ms * 1.10 + 1.0,
                    "{} 100%: pushdown overhead above 10% ({on_ms:.2}ms vs {off_ms:.2}ms)",
                    layout.name()
                );
            }

            let row = format!("{} {label}", layout.name());
            out.push(Measurement::new(row.clone(), "pushed", on_ms, "ms"));
            out.push(Measurement::new(row.clone(), "unpushed", off_ms, "ms"));
            out.push(Measurement::new(row.clone(), "pages on", on.pages_read as f64, "pages"));
            out.push(Measurement::new(row.clone(), "pages off", off.pages_read as f64, "pages"));
            out.push(Measurement::new(row.clone(), "assembled", on.records_assembled as f64, "records"));
            out.push(Measurement::new(row.clone(), "filtered", on.records_filtered_pre_assembly as f64, "records"));
            out.push(Measurement::new(row, "skip leaves", on.leaves_skipped as f64, "leaves"));
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
/// **zero** documents and folds every winner off the column chunks; and at
/// full scale the unnest queries (Q2, Q3) run at least 3x faster on kernels.
/// Row layouts have no columns, so both lanes are the same per-record loop
/// there — reported for the contrast, not asserted.
pub fn run_vectorized_comparison(scale: f64) -> Vec<Measurement> {
    const ROUNDS: usize = 3;
    let kind = DatasetKind::Sensors;
    let records = ((20_000f64 * scale).max(400.0)) as usize;
    let spec = DatasetSpec::new(kind, records);
    let compiled = QueryEngine::new(ExecMode::Compiled);
    let interpreted = QueryEngine::new(ExecMode::Interpreted);
    let mut out = Vec::new();
    for layout in LayoutKind::ALL {
        let (dataset, _) = build_dataset(kind, layout, records, false);
        for doc in generate_updates(&spec, 0.3) {
            dataset.insert(doc).expect("update");
        }
        dataset.flush().expect("flush");
        for (name, query) in queries_for(kind) {
            // Best of `ROUNDS`, counters of the last pass.
            let run = |lane: ScanLane| {
                let mut wall = f64::MAX;
                let mut rows = Vec::new();
                let mut io = dataset.io_stats();
                for _ in 0..ROUNDS {
                    dataset.cache().store().reset_stats();
                    let (r, ms) =
                        time(|| compiled.execute_in_lane(&dataset, &query, lane).expect("query"));
                    wall = wall.min(ms);
                    rows = r;
                    io = dataset.io_stats();
                }
                (rows, wall, io)
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
                assert_eq!(kernel_io.records_assembled, 0, "{cell}: kernels built documents");
                assert_eq!(assembled_io.scan_records_kernel, 0, "{cell}");
                if name != "Q1" {
                    // (Q1 is the key-only COUNT(*): no operator sees a record.)
                    assert!(kernel_io.scan_records_kernel > 0, "{cell}: no kernel ran");
                    assert_eq!(
                        kernel_io.scan_records_kernel, assembled_io.scan_records_assembled,
                        "{cell}: the lanes saw different winners"
                    );
                }
                if scale >= 1.0 && matches!(name, "Q2" | "Q3") {
                    assert!(
                        assembled_ms >= kernel_ms * 3.0,
                        "{cell}: kernels must be at least 3x faster ({kernel_ms:.2}ms vs {assembled_ms:.2}ms)"
                    );
                }
            }
            out.push(Measurement::new(cell.clone(), "kernels", kernel_ms, "ms"));
            out.push(Measurement::new(cell.clone(), "assembled", assembled_ms, "ms"));
            out.push(Measurement::new(cell.clone(), "speedup", assembled_ms / kernel_ms, "x"));
            out.push(Measurement::new(
                cell.clone(),
                "kernel recs",
                kernel_io.scan_records_kernel as f64,
                "records",
            ));
            out.push(Measurement::new(
                cell,
                "built docs",
                assembled_io.records_assembled as f64,
                "records",
            ));
        }
    }
    out
}

/// Compaction-strategy sweep: tiered vs leveled vs lazy-leveled under an
/// update-heavy and an append-only workload (tweet_1, AMAX).
///
/// Per strategy × workload the sweep reports ingest wall time, merge count,
/// and the `amp.write` / `amp.space` gauges from the metrics snapshot (the
/// telemetry groundwork: every gauge recomputes from raw counters of the
/// same snapshot), plus how the merges moved their winners: copied column by
/// column (§4.4) or assembled and re-shredded (inputs whose columns predate
/// a nested field or a union promotion — frequent in `tweet_1`, whose
/// sparse metadata groups keep growing the schema), and the peak number of
/// records a merge held resident. Self-asserting: ingest assembles exactly
/// the re-shredded winners — the copy lane assembles nothing.
/// The update-heavy leg additionally drives the page-space
/// GC: after the churn settles, `reclaim_space` must leave a **fully
/// packed** page file — zero free slots, every page referenced by a live
/// component — so the reported space amplification reflects live data, not
/// freed-slot or orphaned-page leaks.
pub fn run_compaction_comparison(scale: f64) -> Vec<Measurement> {
    const UPDATE_ROUNDS: usize = 4;
    let kind = DatasetKind::Tweet1;
    let records = ((default_records(kind) as f64) * scale).max(300.0) as usize;
    let spec = DatasetSpec::new(kind, records);
    let docs = generate(&spec);
    let strategies: [(&str, CompactionSpec); 3] = [
        ("tiered", CompactionSpec::tiered(1.2, 5)),
        ("leveled", CompactionSpec::leveled()),
        ("lazy-leveled", CompactionSpec::lazy_leveled()),
    ];

    let mut out = Vec::new();
    for workload in ["append-only", "update-heavy"] {
        for (name, compaction) in &strategies {
            let config = DatasetConfig::new(kind.name(), LayoutKind::Amax)
                .with_key_field(kind.key_field())
                .with_memtable_budget(32 * 1024)
                .with_page_size(8 * 1024)
                .with_compaction(*compaction);
            let dataset = LsmDataset::new(config);
            let (_, ingest_ms) = time(|| {
                let rounds = if workload == "update-heavy" { UPDATE_ROUNDS } else { 1 };
                for _ in 0..rounds {
                    for doc in docs.clone() {
                        dataset.insert(doc).expect("ingest");
                    }
                    dataset.flush().expect("flush");
                }
            });
            // Nothing has read the dataset yet: every record assembled so far
            // was assembled by a merge, and only the re-shred lane does that.
            let merge_assembled = dataset.io_stats().records_assembled;
            assert_eq!(dataset.count().expect("count"), records, "{name}/{workload}");

            if workload == "update-heavy" {
                // The GC must leave no dead slots behind: the page file is
                // exactly the live components, so the amp.space gauge below
                // measures fragmentation, not leaks.
                dataset.reclaim_space().expect("reclaim");
                let store = dataset.cache().store();
                assert_eq!(
                    store.free_page_count(),
                    0,
                    "{name}: reclaim_space must fully pack the page file"
                );
            }

            let metrics = dataset.metrics();
            let copied = metrics.counter("storage.merge_records_copied");
            let reshredded = metrics.counter("storage.merge_records_reshredded");
            assert_eq!(
                merge_assembled, reshredded,
                "{name}/{workload}: merges assemble only what they re-shred"
            );
            let peak_buffered = metrics
                .histogram("merge.peak_buffered_records")
                .map_or(0, |h| h.max);
            let row = |what: &str| format!("{workload}: {what}");
            out.push(Measurement::new(row("ingest wall"), *name, ingest_ms, "ms"));
            out.push(Measurement::new(
                row("merge winners copied"),
                *name,
                copied as f64,
                "records",
            ));
            out.push(Measurement::new(
                row("merge winners re-shredded"),
                *name,
                reshredded as f64,
                "records",
            ));
            out.push(Measurement::new(
                row("merge peak buffered"),
                *name,
                peak_buffered as f64,
                "records",
            ));
            out.push(Measurement::new(
                row("merges"),
                *name,
                metrics.counter("merge.count") as f64,
                "x",
            ));
            out.push(Measurement::new(
                row("write amplification"),
                *name,
                metrics.gauge("amp.write").expect("amp.write"),
                "x",
            ));
            out.push(Measurement::new(
                row("space amplification"),
                *name,
                metrics.gauge("amp.space").expect("amp.space"),
                "x",
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Network front-end: RESP wire-protocol load generator.
// ---------------------------------------------------------------------------

/// Requests each load-generator connection issues per grid cell, before
/// scaling.
const SERVER_BENCH_REQUESTS: f64 = 4_000.0;

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
pub fn run_server_benchmark(scale: f64) -> Vec<Measurement> {
    use std::sync::Arc;

    use server::{CommandKind, RespClient, Server, ServerConfig};
    use telemetry::Histogram;

    let keyspace = ((2_000.0 * scale) as i64).max(200);
    // A multiple of the deepest pipeline so every burst is full.
    let requests_per_conn = (((SERVER_BENCH_REQUESTS * scale) as usize).max(320) / 16) * 16;
    let grid = [(1usize, 1usize), (1, 16), (8, 1), (8, 16)];

    let doc = |key: i64| format!(r#"{{"num": {}, "nested": {{"tag": "t{}"}}}}"#, key % 977, key % 13);
    let mut out = Vec::new();
    for (connections, depth) in grid {
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
        assert_eq!(metrics.requests_for(CommandKind::Set), issued_sets, "SET count");
        assert_eq!(metrics.requests_for(CommandKind::Get), issued_gets, "GET count");

        let total = (issued_sets + issued_gets) as f64;
        let snap = latency.snapshot();
        let row = format!("{connections} conn x {depth} deep");
        out.push(Measurement::new(&row, "kreq/s", total / elapsed.as_secs_f64() / 1e3, "mixed"));
        out.push(Measurement::new(&row, "p50_us", snap.quantile(0.50) as f64, "mixed"));
        out.push(Measurement::new(&row, "p95_us", snap.quantile(0.95) as f64, "mixed"));
        out.push(Measurement::new(&row, "p99_us", snap.quantile(0.99) as f64, "mixed"));
        handle.shutdown();
        handle.join();
    }
    out
}

// ---------------------------------------------------------------------------
// Ablations called out in DESIGN.md.
// ---------------------------------------------------------------------------

/// Ablation: AMAX storage size as a function of the empty-page tolerance.
pub fn ablation_empty_page_tolerance(scale: f64) -> Vec<Measurement> {
    let kind = DatasetKind::Tweet2;
    let records = ((default_records(kind) as f64) * scale).max(200.0) as usize;
    let docs = generate(&DatasetSpec::new(kind, records));
    let mut out = Vec::new();
    for tolerance in [0.0, 0.1, 0.2, 0.5, 1.0] {
        let mut config = DatasetConfig::new("ablation", LayoutKind::Amax)
            .with_memtable_budget(256 * 1024)
            .with_page_size(32 * 1024);
        config.amax.empty_page_tolerance = tolerance;
        let dataset = LsmDataset::new(config);
        for doc in docs.clone() {
            dataset.insert(doc).unwrap();
        }
        dataset.flush().unwrap();
        out.push(Measurement::new(
            format!("tolerance {tolerance}"),
            "AMAX",
            dataset.primary_stored_bytes() as f64 / 1024.0,
            "KiB",
        ));
    }
    out
}

/// Ablation: page-level compression on/off per layout (storage size).
pub fn ablation_compression(scale: f64) -> Vec<Measurement> {
    let kind = DatasetKind::Sensors;
    let records = ((default_records(kind) as f64) * scale).max(200.0) as usize;
    let docs = generate(&DatasetSpec::new(kind, records));
    let mut out = Vec::new();
    for layout in LayoutKind::ALL {
        for compress in [true, false] {
            let mut config = DatasetConfig::new("ablation", layout)
                .with_memtable_budget(256 * 1024)
                .with_page_size(32 * 1024);
            config.compress_pages = compress;
            let dataset = LsmDataset::new(config);
            for doc in docs.clone() {
                dataset.insert(doc).unwrap();
            }
            dataset.flush().unwrap();
            let row = if compress { "compressed" } else { "raw" };
            out.push(Measurement::new(
                row,
                layout.name(),
                dataset.primary_stored_bytes() as f64 / 1024.0,
                "KiB",
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_functions_run_at_tiny_scale() {
        // Smoke-test every experiment at 5% scale so regressions in the
        // harness itself show up in `cargo test`.
        assert!(!table1(0.05).is_empty());
        assert!(!fig12_storage(0.05).is_empty());
        assert!(!fig10_codegen(0.05).is_empty());
        let cell = fig14_queries(DatasetKind::Cell, 0.05);
        assert_eq!(cell.len(), 3 * LayoutKind::ALL.len());
        assert!(!fig15_secondary(0.05).is_empty());
        assert!(!ablation_compression(0.05).is_empty());
        // 2 workloads x 3 strategies x 4 measurements (self-asserting: count
        // integrity per cell, fully-packed page file after update-heavy GC).
        assert_eq!(run_compaction_comparison(0.05).len(), 2 * 3 * 7);
    }

    #[test]
    fn fig15_crossover_sweeps_and_agrees_across_policies() {
        // The sweep itself asserts index == scan == auto per cell; here we
        // additionally check the crossover shape is recorded: Auto must pick
        // the probe somewhere and the scan somewhere (tweet_2's timestamp is
        // dense and unique, so 0.001% is a handful of records and 10% is
        // hundreds), and at the extremes it must side with the winner.
        let rows = fig15_crossover(0.25);
        // 2 layouts x 5 selectivities x (3 timings + 1 choice).
        assert_eq!(rows.len(), 2 * 5 * 4);
        let choices: Vec<&Measurement> = rows
            .iter()
            .filter(|m| m.row.contains("auto picks index"))
            .collect();
        assert_eq!(choices.len(), 10);
        for layout in ["VB", "AMAX"] {
            let lowest = choices
                .iter()
                .find(|m| m.row.starts_with("0.001%") && m.column == layout)
                .unwrap();
            let highest = choices
                .iter()
                .find(|m| m.row.starts_with("10%") && m.column == layout)
                .unwrap();
            // At 10% a scan always wins (matches outnumber leaves).
            assert_eq!(highest.value, 0.0, "{layout}: auto must scan at 10%");
            // At 0.001% the probe wins wherever lookups are cheaper than a
            // leaf-wide scan; VB components have many single-page leaves, so
            // the crossover must be visible there.
            if layout == "VB" {
                assert_eq!(lowest.value, 1.0, "{layout}: auto must probe at 0.001%");
            }
        }
    }

    #[test]
    fn measurements_json_is_well_formed_enough() {
        let rows = vec![
            Measurement::new("0.1% (auto)", "VB", 1.25, "ms"),
            Measurement::new("quote\"row", "AMAX", 0.0, "bool"),
        ];
        let path = std::env::temp_dir().join(format!(
            "bench-json-test-{}.json",
            std::process::id()
        ));
        write_measurements_json(&path, "fig15", 0.25, &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"figure\": \"fig15\""), "{text}");
        assert!(text.contains("\"value\": 1.25"), "{text}");
        assert!(text.contains("quote\\\"row"), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrency_comparison_runs_and_reports_all_modes() {
        let rows = run_concurrency_comparison(DatasetKind::Cell, 600, 4);
        // Three ingest modes x (wall, throughput).
        assert_eq!(rows.len(), 6);
        for mode in ["blocking", "background", "sharded x4"] {
            let wall = rows
                .iter()
                .find(|m| m.row == mode && m.column == "wall")
                .unwrap_or_else(|| panic!("missing wall measurement for {mode}"));
            assert!(wall.value > 0.0);
        }
    }

    #[test]
    fn server_benchmark_self_asserts_and_reports_the_grid() {
        // The run itself asserts reply correctness and the exact agreement
        // between issued and wire-counted requests; here we check the
        // matrix shape: 4 grid cells x (throughput + 3 percentiles).
        let rows = run_server_benchmark(0.05);
        assert_eq!(rows.len(), 4 * 4);
        for cell in ["1 conn x 1 deep", "1 conn x 16 deep", "8 conn x 1 deep", "8 conn x 16 deep"] {
            let throughput = rows
                .iter()
                .find(|m| m.row == cell && m.column == "kreq/s")
                .unwrap_or_else(|| panic!("missing throughput for {cell}"));
            assert!(throughput.value > 0.0);
            let p50 = rows.iter().find(|m| m.row == cell && m.column == "p50_us").unwrap();
            let p99 = rows.iter().find(|m| m.row == cell && m.column == "p99_us").unwrap();
            assert!(p50.value <= p99.value, "{cell}: p50 {} > p99 {}", p50.value, p99.value);
        }
    }

    #[test]
    fn storage_shape_matches_the_paper_on_sensors() {
        // AMAX/APAX beat the row layouts by a wide margin on numeric data.
        let rows = fig12_storage(0.2);
        let get = |row: &str, col: &str| {
            rows.iter()
                .find(|m| m.row == row && m.column == col)
                .map(|m| m.value)
                .unwrap()
        };
        assert!(get("sensors", "AMAX") < get("sensors", "VB"));
        assert!(get("sensors", "APAX") < get("sensors", "Open"));
    }

    #[test]
    fn print_matrix_does_not_panic() {
        print_matrix("test", &table1(0.05));
    }
}
