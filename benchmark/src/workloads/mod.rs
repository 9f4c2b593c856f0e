//! The four workloads and what they share: the run environment, the
//! document-equivalence rule of the correctness gates, and the counter
//! deltas taken at phase boundaries.

use std::path::PathBuf;

use docmodel::Value;
use docstore::{Datastore, ShardedDataset};
use lsm::IngestStats;
use storage::pagestore::IoStats;

use query::Query;
use server::resp::Frame;

use crate::json::Json;
use crate::metrics::{Attribution, Outcome, Values};
use crate::replay::{self, ReplayInput, UnitCosts};
use crate::stats::{median, quartiles, PhaseClock, Samples};
use crate::trace::Tracer;

pub mod ingest_sensors;
pub mod lookup_tweets;
pub mod scan_sensors;
pub mod wire_kv;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["ingest-sensors", "scan-sensors", "lookup-tweets", "wire-kv"];

/// Records per `ingest_batch` call and per WAL fsync: the stated flush
/// policy of every durable workload.
pub const CHUNK: usize = 1024;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Documents the layer replay pushes through each crate.
const REPLAY_DOCS: usize = 20_000;
const REPLAY_DOCS_SMOKE: usize = 2_000;

pub struct Env {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes: every code path and check, no meaningful numbers.
    pub smoke: bool,
    /// An empty directory of this run's own, inside the checkout.
    pub scratch: PathBuf,
}

impl Env {
    /// `full` at benchmark scale, `smoke` under `--smoke`.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// Recording when the run is traced, inert otherwise.
    pub fn tracer(&self) -> Tracer {
        if self.trace {
            Tracer::on()
        } else {
            Tracer::off()
        }
    }

    /// Replay a prefix of the workload's documents (and, for `wire-kv`, its
    /// requests and their replies) through each layer; see [`replay`].
    pub fn replay_layers(
        &self,
        tracer: &mut Tracer,
        out: &mut Values,
        docs: &[Value],
        queries: &[Query],
        wire: (&[Vec<Vec<u8>>], &[Frame]),
    ) -> UnitCosts {
        let input = ReplayInput {
            docs: &docs[..self.size(REPLAY_DOCS, REPLAY_DOCS_SMOKE).min(docs.len())],
            requests: wire.0,
            replies: wire.1,
            queries,
            dir: &self.fresh_dir("replay-wal"),
        };
        tracer.span("replay", 0, || replay::run(&input, out))
    }

    /// A fresh, empty directory under the scratch root.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        // Absent on first use; any other failure shows in create_dir_all.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a scratch directory inside the checkout");
        dir
    }
}

pub fn run(name: &str, env: &Env) -> Option<Outcome> {
    Some(match name {
        "ingest-sensors" => ingest_sensors::run(env),
        "scan-sensors" => scan_sensors::run(env),
        "lookup-tweets" => lookup_tweets::run(env),
        "wire-kv" => wire_kv::run(env),
        _ => return None,
    })
}

/// A document with `null` fields, empty arrays and empty objects dropped
/// and object fields sorted. Columnar reassembly returns fields in schema
/// order and does not round-trip empty containers (the quirk documented in
/// `columnar::assemble`), so the gates compare documents in this form:
/// every scalar at every path must survive, exactly.
pub fn canonical(doc: &Value) -> Value {
    match doc {
        Value::Object(fields) => {
            let mut kept: Vec<(String, Value)> = fields
                .iter()
                .map(|(k, v)| (k.clone(), canonical(v)))
                .filter(|(_, v)| !is_void(v))
                .collect();
            kept.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(kept)
        }
        Value::Array(items) => Value::Array(
            items
                .iter()
                .map(canonical)
                .filter(|v| !is_void(v))
                .collect(),
        ),
        other => other.clone(),
    }
}

fn is_void(v: &Value) -> bool {
    match v {
        Value::Null => true,
        Value::Array(items) => items.is_empty(),
        Value::Object(fields) => fields.is_empty(),
        _ => false,
    }
}

pub fn same_doc(a: &Value, b: &Value) -> bool {
    canonical(a) == canonical(b)
}

/// Bytes of the compact JSON rendering: the "user bytes" of the
/// amplification ratios.
pub fn json_bytes(docs: &[Value]) -> u64 {
    docs.iter().map(|d| docmodel::to_json(d).len() as u64).sum()
}

pub fn open_store(
    name: &str,
    dir: &std::path::Path,
    options: docstore::DatasetOptions,
) -> Datastore {
    let mut store = Datastore::new();
    store
        .open_dataset(name, dir, options)
        .expect("open a durable dataset");
    store
}

/// Feed `docs` through `ingest_batch` in [`CHUNK`]s (one group commit
/// each); returns the nanoseconds each call took.
pub fn ingest_chunks(dataset: &ShardedDataset, docs: Vec<Value>, tracer: &mut Tracer) -> Samples {
    let mut latencies = Samples::with_capacity(docs.len() / CHUNK + 1);
    let mut docs = docs.into_iter();
    loop {
        let chunk: Vec<Value> = docs.by_ref().take(CHUNK).collect();
        if chunk.is_empty() {
            return latencies;
        }
        let op = latencies.len() as u64 + 1;
        let (_, nanos) = tracer.timed("ingest_batch", op, || {
            dataset.ingest_batch(chunk, CHUNK).expect("ingest_batch")
        });
        latencies.push(nanos);
    }
}

/// Engine counters read at a phase boundary (single-shard datasets).
pub struct Counters {
    pub io: IoStats,
    pub ingest: IngestStats,
    pub flush_entries: u64,
    pub flush_pages: u64,
    pub merge_pages: u64,
    pub wal_syncs: u64,
}

impl Counters {
    pub fn read(dataset: &ShardedDataset) -> Counters {
        // The facade's merged IoStats leaves out the pushdown counters;
        // the workloads are single-shard, so the shard's own are complete.
        assert_eq!(dataset.shard_count(), 1, "counter deltas assume one shard");
        let metrics = dataset.metrics();
        Counters {
            io: dataset.shards()[0].io_stats(),
            ingest: dataset.stats(),
            flush_entries: metrics.counter("flush.entries_in"),
            flush_pages: metrics.counter("flush.pages_out"),
            merge_pages: metrics.counter("merge.pages_out"),
            wal_syncs: metrics.counter("wal.syncs"),
        }
    }
}

/// What the engine did between two counter readings.
pub struct Delta {
    pub pages_read: u64,
    pub bytes_written: u64,
    pub records_assembled: u64,
    pub leaf_hits: u64,
    pub leaf_misses: u64,
    pub leaf_evictions: u64,
    pub flushes: u64,
    pub merges: u64,
    pub flush_s: f64,
    pub merge_s: f64,
    pub maintenance_lookups: u64,
    /// Entries written by flushes, plus those rewritten by merges
    /// (estimated from merge pages at the flushes' entries per page).
    pub entries_written: u64,
    pub wal_syncs: u64,
}

impl Delta {
    pub fn between(before: &Counters, after: &Counters) -> Delta {
        let flush_entries = after.flush_entries - before.flush_entries;
        let flush_pages = after.flush_pages - before.flush_pages;
        let merge_pages = after.merge_pages - before.merge_pages;
        let merged_entries = (merge_pages * flush_entries)
            .checked_div(flush_pages)
            .unwrap_or(0);
        Delta {
            pages_read: after.io.pages_read - before.io.pages_read,
            bytes_written: after.io.bytes_written - before.io.bytes_written,
            records_assembled: after.io.records_assembled - before.io.records_assembled,
            leaf_hits: after.io.leaf_cache_hits - before.io.leaf_cache_hits,
            leaf_misses: after.io.leaf_cache_misses - before.io.leaf_cache_misses,
            leaf_evictions: after.io.leaf_cache_evictions - before.io.leaf_cache_evictions,
            flushes: after.ingest.flushes - before.ingest.flushes,
            merges: after.ingest.merges - before.ingest.merges,
            flush_s: (after.ingest.flush_time - before.ingest.flush_time).as_secs_f64(),
            merge_s: (after.ingest.merge_time - before.ingest.merge_time).as_secs_f64(),
            maintenance_lookups: after.ingest.maintenance_lookups
                - before.ingest.maintenance_lookups,
            entries_written: flush_entries + merged_entries,
            wal_syncs: after.wal_syncs - before.wal_syncs,
        }
    }

    /// Record the counter-derived storage and lsm metrics.
    pub fn record(&self, out: &mut Values) {
        out.set("flushes", self.flushes as f64);
        out.set("merges", self.merges as f64);
        out.set("flush_s", self.flush_s);
        out.set("merge_s", self.merge_s);
        out.set("bytes_written", self.bytes_written as f64);
        out.set("leaf_cache_evictions", self.leaf_evictions as f64);
        let loads = self.leaf_hits + self.leaf_misses;
        out.set(
            "leaf_cache_hit_rate",
            if loads == 0 {
                0.0
            } else {
                self.leaf_hits as f64 / loads as f64
            },
        );
    }
}

/// Seconds per layer from `(layer, what, ops, unit cost in ns)` rows, the
/// share of `measured_s` they explain, and the share of server + docmodel.
pub fn attribute(
    rows: &[(&'static str, &'static str, u64, f64)],
    measured_s: f64,
    out: &mut Values,
) -> Vec<Attribution> {
    let table: Vec<Attribution> = rows
        .iter()
        .map(|&(layer, what, ops, unit_ns)| Attribution {
            layer,
            what,
            ops,
            seconds: ops as f64 * unit_ns / 1e9,
        })
        .collect();
    // `fold`, not `sum`: an empty float sum is -0.0, which prints as "-0".
    let total = table.iter().fold(0.0, |acc, a| acc + a.seconds);
    let front = table
        .iter()
        .filter(|a| matches!(a.layer, "server" | "docmodel"))
        .fold(0.0, |acc, a| acc + a.seconds);
    out.set("attributed_share", total / measured_s);
    out.set("server_docmodel_share", front / measured_s);
    table
}

/// Ops and the time spent inside them, with the plain and the traced half
/// of a traced run kept apart (an untraced run has only the plain half).
#[derive(Default)]
pub struct Halves {
    /// Indexed by `traced as usize`.
    ops: [u64; 2],
    nanos: [u64; 2],
}

impl Halves {
    pub fn add(&mut self, traced: bool, nanos: u64) {
        self.ops[traced as usize] += 1;
        self.nanos[traced as usize] += nanos;
    }

    /// Ops per second of time spent inside ops; 0 for an empty half.
    pub fn ops_s(&self, traced: bool) -> f64 {
        match self.nanos[traced as usize] {
            0 => 0.0,
            nanos => self.ops[traced as usize] as f64 / (nanos as f64 / 1e9),
        }
    }

    pub fn ops(&self) -> u64 {
        self.ops[0] + self.ops[1]
    }

    pub fn busy_s(&self) -> f64 {
        (self.nanos[0] + self.nanos[1]) as f64 / 1e9
    }
}

/// What every workload reports about its measured phase besides the
/// metrics: the clocks and the number of latency samples.
pub struct Measured {
    pub wall_s: f64,
    pub cpu_s: Option<f64>,
    pub op_samples: usize,
}

impl Measured {
    pub fn finish(clock: PhaseClock, op_samples: usize) -> Measured {
        let (wall_s, cpu_s) = clock.finish();
        Measured {
            wall_s,
            cpu_s,
            op_samples,
        }
    }

    /// The `benchmark` rows of the per-layer table; the tracing overhead is
    /// the throughput the traced half lost against the plain one.
    pub fn record(&self, plain_ops_s: f64, traced_ops_s: f64, out: &mut Values) {
        out.set(
            "trace_overhead_pct",
            (plain_ops_s - traced_ops_s) / plain_ops_s * 100.0,
        );
        out.set(
            "wall_per_cpu",
            self.cpu_s.map_or(0.0, |cpu| self.wall_s / cpu),
        );
        out.set("op_samples", self.op_samples as f64);
    }

    pub fn notes(&self) -> [(&'static str, Json); 3] {
        [
            ("op_samples", Json::Int(self.op_samples as u64)),
            ("measure_wall_s", Json::Num(self.wall_s)),
            ("measure_cpu_s", self.cpu_s.map_or(Json::Null, Json::Num)),
        ]
    }
}

/// `[q1, median, q3]` for the run stamp: the spread inside one run.
pub fn quartile_note(values: &[f64]) -> Json {
    match quartiles(values) {
        Some((q1, q2, q3)) => Json::Arr(vec![Json::Num(q1), Json::Num(q2), Json::Num(q3)]),
        None => Json::Null,
    }
}

pub fn median_or_zero(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use docmodel::doc;

    #[test]
    fn canonical_form_ignores_order_nulls_and_empty_containers() {
        let stored = doc!({"id": 1, "user": {"name": "a", "tags": []}, "geo": null, "n": [1, 2]});
        let assembled = doc!({"n": [1, 2], "user": {"name": "a"}, "id": 1});
        assert!(same_doc(&stored, &assembled));
        let corrupted = doc!({"n": [1, 3], "user": {"name": "a"}, "id": 1});
        assert!(!same_doc(&stored, &corrupted));
        let dropped = doc!({"user": {"name": "a"}, "id": 1});
        assert!(!same_doc(&stored, &dropped));
    }

    #[test]
    fn attribution_sums_unit_costs_times_op_counts() {
        let mut out = Values::per_layer();
        let table = attribute(
            &[
                ("server", "decode", 1_000, 500.0),
                ("lsm", "insert", 1_000, 1_500.0),
            ],
            0.004,
            &mut out,
        );
        assert_eq!(table.len(), 2);
        assert!((out.get("attributed_share") - 0.5).abs() < 1e-9);
        assert!((out.get("server_docmodel_share") - 0.125).abs() < 1e-9);
    }

    #[test]
    fn halves_keep_plain_and_traced_apart() {
        let mut halves = Halves::default();
        halves.add(false, 500_000_000);
        halves.add(false, 500_000_000);
        halves.add(true, 250_000_000);
        assert_eq!((halves.ops_s(false), halves.ops_s(true)), (2.0, 4.0));
        assert_eq!((halves.ops(), halves.busy_s()), (3, 1.25));
        assert_eq!(Halves::default().ops_s(true), 0.0);
        let mut out = Values::per_layer();
        let measured = Measured {
            wall_s: 2.0,
            cpu_s: Some(1.0),
            op_samples: 7,
        };
        measured.record(100.0, 98.0, &mut out);
        assert!((out.get("trace_overhead_pct") - 2.0).abs() < 1e-9);
        assert_eq!((out.get("wall_per_cpu"), out.get("op_samples")), (2.0, 7.0));
    }
}
