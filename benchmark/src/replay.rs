//! Layer replay: a prefix of the workload's own documents and requests is
//! pushed through each crate's public functions in isolation, which gives
//! every layer a unit cost on exactly the data the workload uses. Unit
//! costs times the op counts of the live run estimate where the
//! end-to-end time went (see `attribute` in each workload).

use std::hint::black_box;
use std::path::Path as FsPath;
use std::sync::Arc;
use std::time::Instant;

use columnar::{Assembler, ColumnChunk, ColumnCursor, Shredder};
use docmodel::{parse_json, to_json, Value};
use lsm::{DatasetConfig, EntryMergeCursor, LsmDataset, Memtable};
use persist::Wal;
use query::{ExecMode, PlanContext, PlannerOptions, Query, QueryEngine};
use schema::SchemaBuilder;
use server::resp::{self, Frame, Limits};
use storage::component::{Component, ComponentConfig, Entry};
use storage::pagestore::{BufferCache, PageStore};
use storage::LayoutKind;

use crate::metrics::Values;
use crate::stats::{median, timed};
use crate::workloads::CHUNK;

/// Components the reconcile replay interleaves the keys over.
const RECONCILE_COMPONENTS: usize = 4;

/// Repetitions of the sub-millisecond planner and parser probes.
const SMALL_PROBE_REPS: usize = 50;

const PAGE_SIZE: usize = 128 * 1024;

const QUERY_SPEC: &str = r#"{"select": [{"agg": "count"}, {"agg": "max", "path": "temp", "on_element": true}],
  "filter": {"between": {"path": "report_time", "lo": 1556400000000, "hi": 1556486400000}},
  "unnest": "readings", "group_by": "sensor_id", "order_desc_by": 1, "limit": 10, "mode": "compiled"}"#;

pub struct ReplayInput<'a> {
    /// A prefix of the workload's documents, each carrying an integer `id`.
    pub docs: &'a [Value],
    /// A prefix of the workload's wire requests and the replies they drew
    /// (empty for embedded workloads).
    pub requests: &'a [Vec<Vec<u8>>],
    pub replies: &'a [Frame],
    /// Queries representative of the workload's reads.
    pub queries: &'a [Query],
    /// An empty directory for the WAL replay.
    pub dir: &'a FsPath,
}

/// Unit costs in nanoseconds, for attribution.
#[derive(Debug, Default, Clone, Copy)]
pub struct UnitCosts {
    pub parse_ns: f64,
    pub print_ns: f64,
    pub resp_decode_ns: f64,
    pub resp_encode_ns: f64,
    pub wal_append_ns: f64,
    pub wal_sync_ns: f64,
    pub memtable_insert_ns: f64,
    pub observe_ns: f64,
    pub component_write_ns: f64,
    pub leaf_decode_ns: f64,
    pub assemble_ns: f64,
    pub reconcile_ns: f64,
    /// Compiled execution per record examined, scan and assembly included.
    pub exec_ns: f64,
    pub plan_ns: f64,
}

fn per(nanos: u64, n: usize) -> f64 {
    nanos as f64 / n.max(1) as f64
}

fn key_of(doc: &Value) -> Value {
    doc.get_field("id")
        .cloned()
        .expect("replayed docs carry an id")
}

/// The latest version of each key, in key order: what a flush writes.
fn sorted_entries(docs: &[Value]) -> Vec<Entry> {
    let mut latest = std::collections::BTreeMap::new();
    for doc in docs {
        latest.insert(key_of(doc).as_int().expect("integer id"), doc.clone());
    }
    latest
        .into_iter()
        .map(|(id, doc)| (Value::Int(id), Some(doc)))
        .collect()
}

fn memory_cache() -> BufferCache {
    BufferCache::new(PageStore::with_page_size(PAGE_SIZE), 256)
}

fn memory_dataset(docs: &[Value], telemetry: bool) -> (LsmDataset, u64) {
    let dataset =
        LsmDataset::new(DatasetConfig::new("replay", LayoutKind::Amax).with_telemetry(telemetry));
    let copies = docs.to_vec();
    let ((), nanos) = timed(|| {
        for doc in copies {
            dataset.insert(doc).expect("replay insert");
        }
        dataset.flush().expect("replay flush");
    });
    (dataset, nanos)
}

/// Run the replay, record every replay metric in `out` and return the unit
/// costs.
pub fn run(input: &ReplayInput<'_>, out: &mut Values) -> UnitCosts {
    let docs = input.docs;
    let n = docs.len();
    assert!(n > 0, "nothing to replay");
    let mut costs = UnitCosts::default();

    // docmodel: print, then parse what was printed.
    let (jsons, nanos) = timed(|| docs.iter().map(to_json).collect::<Vec<String>>());
    costs.print_ns = per(nanos, n);
    let ((), nanos) = timed(|| {
        for json in &jsons {
            black_box(parse_json(json).expect("printed docs parse"));
        }
    });
    costs.parse_ns = per(nanos, n);
    out.set("print_ns_per_doc", costs.print_ns);
    out.set("parse_ns_per_doc", costs.parse_ns);

    // server: RESP framing of the workload's own requests and replies.
    if !input.requests.is_empty() {
        let limits = Limits::default();
        let mut wire = Vec::new();
        for request in input.requests {
            resp::encode_request(request, &mut wire);
        }
        let (decoded, nanos) = timed(|| {
            let (mut pos, mut decoded) = (0, 0usize);
            while let Ok(Some((args, next))) = resp::decode_request(&wire, pos, &limits) {
                black_box(args);
                pos = next;
                decoded += 1;
            }
            decoded
        });
        assert_eq!(
            decoded,
            input.requests.len(),
            "every replayed request decodes"
        );
        costs.resp_decode_ns = per(nanos, decoded);
        let ((), nanos) = timed(|| {
            let mut buf = Vec::new();
            for reply in input.replies {
                buf.clear();
                resp::encode(reply, &mut buf);
                black_box(&buf);
            }
        });
        costs.resp_encode_ns = per(nanos, input.replies.len());
        out.set("resp_decode_ns_per_req", costs.resp_decode_ns);
        out.set("resp_encode_ns_per_reply", costs.resp_encode_ns);
        let parses: Vec<f64> = (0..SMALL_PROBE_REPS)
            .map(|_| {
                let (parsed, nanos) = timed(|| {
                    let spec = parse_json(QUERY_SPEC).expect("spec is JSON");
                    server::queryspec::parse_query_spec(&spec)
                });
                parsed.expect("spec is a query");
                nanos as f64 / 1e3
            })
            .collect();
        out.set("queryspec_parse_us", median(&parses).unwrap_or(0.0));
    }

    // persist: WAL append and group-commit sync.
    {
        let (mut wal, _) = Wal::open(input.dir).expect("open replay WAL");
        let keys: Vec<Value> = docs.iter().map(key_of).collect();
        let mut append_ns = 0u64;
        let mut syncs = Vec::new();
        for (i, (key, doc)) in keys.iter().zip(docs).enumerate() {
            let start = Instant::now();
            wal.append_insert(key, doc).expect("WAL append");
            append_ns += start.elapsed().as_nanos() as u64;
            if (i + 1) % CHUNK == 0 || i + 1 == n {
                let ((), nanos) = timed(|| wal.sync().expect("WAL sync"));
                syncs.push(nanos as f64);
            }
        }
        costs.wal_append_ns = per(append_ns, n);
        costs.wal_sync_ns = median(&syncs).unwrap_or(0.0);
        out.set("wal_append_ns_per_rec", costs.wal_append_ns);
        out.set("wal_sync_us", costs.wal_sync_ns / 1e3);
    }

    // lsm: memtable insert (copies are made outside the timed region).
    {
        let pairs: Vec<(Value, Value)> = docs.iter().map(|d| (key_of(d), d.clone())).collect();
        let mut memtable = Memtable::new();
        let ((), nanos) = timed(|| {
            for (key, doc) in pairs {
                memtable.insert(key, doc);
            }
        });
        black_box(memtable.len());
        costs.memtable_insert_ns = per(nanos, n);
        out.set("memtable_insert_ns_per_rec", costs.memtable_insert_ns);
    }

    // schema: inference.
    let mut builder = SchemaBuilder::new(Some("id".to_string()));
    let ((), nanos) = timed(|| {
        for doc in docs {
            builder.observe(doc);
        }
    });
    costs.observe_ns = per(nanos, n);
    out.set("observe_ns_per_rec", costs.observe_ns);
    let schema = builder.into_schema();

    // columnar: shred, then assemble what was shredded.
    let mut shredder = Shredder::new(&schema);
    let ((), nanos) = timed(|| {
        for doc in docs {
            shredder.shred(doc);
        }
    });
    out.set("shred_ns_per_rec", per(nanos, n));
    let batch = shredder.finish();
    let cursors = batch
        .columns
        .iter()
        .map(|c| ColumnCursor::new(Arc::new(c.clone())))
        .collect();
    let mut assembler = Assembler::new(&schema, cursors, batch.record_count);
    let (assembled, nanos) = timed(|| {
        let mut assembled = 0usize;
        while let Some(record) = assembler.next_record() {
            black_box(record.expect("shredded records assemble"));
            assembled += 1;
        }
        assembled
    });
    assert_eq!(assembled, n, "every shredded record assembles");
    costs.assemble_ns = per(nanos, n);
    out.set("assemble_ns_per_rec", costs.assemble_ns);

    // encoding: the column chunks' own codecs.
    {
        let raw_mb = batch.approx_bytes() as f64 / 1e6;
        let (encoded, nanos) = timed(|| {
            batch
                .columns
                .iter()
                .map(|chunk| {
                    let mut buf = Vec::new();
                    chunk.encode(&mut buf);
                    buf
                })
                .collect::<Vec<Vec<u8>>>()
        });
        out.set("encode_mb_s", raw_mb / (nanos as f64 / 1e9));
        let ((), nanos) = timed(|| {
            for (chunk, buf) in batch.columns.iter().zip(&encoded) {
                let mut pos = 0;
                black_box(
                    ColumnChunk::decode(chunk.spec.clone(), buf, &mut pos).expect("chunk decodes"),
                );
            }
        });
        out.set("decode_mb_s", raw_mb / (nanos as f64 / 1e9));
    }

    // storage: write one component, then read it back cold.
    let entries = sorted_entries(docs);
    {
        let cache = memory_cache();
        let config = ComponentConfig::new(LayoutKind::Amax);
        let (component, nanos) = timed(|| {
            Component::write(&cache, &config, schema.clone(), &entries, 1).expect("component write")
        });
        costs.component_write_ns = per(nanos, entries.len());
        out.set("component_write_ns_per_rec", costs.component_write_ns);
        let component = Arc::new(component);
        cache.clear();
        let (read, nanos) = timed(|| {
            component
                .cursor(None)
                .map(|e| black_box(e).is_ok() as usize)
                .sum::<usize>()
        });
        assert_eq!(read, entries.len(), "the component reads back whole");
        // A cold scan reads, decompresses, decodes and assembles; taking
        // the replayed assembly out leaves the decode.
        let decode_ns = (nanos as f64 - costs.assemble_ns * read as f64).max(0.0);
        costs.leaf_decode_ns = decode_ns / component.leaf_count().max(1) as f64;
        out.set("leaf_decode_us", costs.leaf_decode_ns / 1e3);
    }

    // lsm: k-way reconciliation, keys only so that assembly cancels out.
    {
        let cache = memory_cache();
        let config = ComponentConfig::new(LayoutKind::Amax);
        let write = |part: &[Entry], id: u64| {
            Arc::new(
                Component::write(&cache, &config, schema.clone(), part, id)
                    .expect("component write"),
            )
        };
        let single = vec![write(&entries, 1)];
        let interleaved: Vec<Arc<Component>> = (0..RECONCILE_COMPONENTS)
            .map(|k| {
                let part: Vec<Entry> = entries
                    .iter()
                    .skip(k)
                    .step_by(RECONCILE_COMPONENTS)
                    .cloned()
                    .collect();
                write(&part, 2 + k as u64)
            })
            .collect();
        let walk = |components: &[Arc<Component>]| {
            let (keys, nanos) =
                timed(|| EntryMergeCursor::over_components(components, Some(&[])).count());
            assert_eq!(keys, entries.len(), "reconciliation yields every key once");
            nanos as f64
        };
        let one = walk(&single).min(walk(&single));
        let many = walk(&interleaved).min(walk(&interleaved));
        costs.reconcile_ns = ((many - one) / entries.len() as f64).max(0.0);
        out.set("reconcile_ns_per_rec", costs.reconcile_ns);
    }

    // query and telemetry share one in-memory dataset build per setting.
    let (dataset, on_ns) = memory_dataset(docs, true);
    {
        let (_, off_ns) = memory_dataset(docs, false);
        let (_, on_again) = memory_dataset(docs, true);
        let (_, off_again) = memory_dataset(docs, false);
        let (on, off) = (on_ns.min(on_again) as f64, off_ns.min(off_again) as f64);
        out.set("telemetry_overhead_pct", (on - off) / off * 100.0);
    }
    if !input.queries.is_empty() {
        let context = PlanContext::for_dataset(&dataset);
        let plans: Vec<f64> = input
            .queries
            .iter()
            .cycle()
            .take(SMALL_PROBE_REPS)
            .map(|q| {
                let (plan, nanos) =
                    timed(|| query::physical::plan(q, &context, &PlannerOptions::default()));
                plan.expect("replayed queries plan");
                nanos as f64
            })
            .collect();
        costs.plan_ns = median(&plans).unwrap_or(0.0);
        out.set("plan_us", costs.plan_ns / 1e3);
        let (mut examined, mut returned) = (0u64, 0u64);
        for q in input.queries {
            let report = QueryEngine::new(ExecMode::Compiled)
                .explain_analyze(&dataset, q)
                .expect("analyze");
            examined += report.rows_pulled();
            returned += report.rows.len() as u64;
        }
        out.set(
            "rows_examined_per_row_returned",
            examined as f64 / returned.max(1) as f64,
        );
        for (mode, name) in [
            (ExecMode::Compiled, "exec_ns_per_rec_compiled"),
            (ExecMode::Interpreted, "exec_ns_per_rec_interpreted"),
        ] {
            let engine = QueryEngine::new(mode);
            let ((), nanos) = timed(|| {
                for q in input.queries {
                    black_box(engine.execute(&dataset, q).expect("replayed queries run"));
                }
            });
            let ns = per(nanos, examined as usize);
            out.set(name, ns);
            if mode == ExecMode::Compiled {
                costs.exec_ns = ns;
            }
        }
    }
    costs
}
