//! `ingest-sensors`: the whole write path (WAL → memtable → schema
//! inference → shred → encode → page write → merge) and nothing of query
//! or server.
//!
//! A durable AMAX dataset takes `INSERTS` fresh `sensors` records and then
//! `UPSERTS` uniformly random upserts through `ingest_batch` in chunks of
//! 1024 records, one WAL fsync per chunk, and a final `flush`. Maintenance
//! runs in the foreground, so flush, merge, page and byte counts repeat
//! exactly. Fresh ingests repeat until the measured phase is over; each is
//! dropped, reopened and compared record by record with the generator.
//!
//! The op is one record, timed at chunk granularity: `ops_s` is records
//! per second of time spent inside `ingest_batch` and `flush`, the
//! `op_us_*` percentiles are over per-chunk times divided by 1024.

use docmodel::Value;
use docstore::{DatasetOptions, Datastore, Layout};

use super::{
    attribute, ingest_chunks, json_bytes, open_store, same_doc, Counters, Delta, Env, Measured,
    CHUNK, SETUPS,
};
use crate::gen;
use crate::json::Json;
use crate::metrics::{Checker, Outcome, Values};
use crate::stats::{PhaseClock, Samples};

/// Whole chunks, so that every chunk time covers exactly 1024 records.
const INSERTS: usize = 60 * CHUNK;
const UPSERTS: usize = 30 * CHUNK;
const INSERTS_SMOKE: usize = 3 * CHUNK;
const UPSERTS_SMOKE: usize = CHUNK;

/// A quarter funds the memtable: ~4 MiB, about eleven flushes and four
/// merges per ingest at full size.
const MEMORY_BUDGET: usize = 16 << 20;
const MEMORY_BUDGET_SMOKE: usize = 1 << 20;

/// Fewest ingests per run; a traced run alternates plain and traced ones
/// and wants two of each.
const MIN_INGESTS: usize = 3;
const MIN_INGESTS_TRACED: usize = 4;

/// Point reads compared with the model after the first reopen (each costs
/// ~100 ms on a cold multi-component AMAX dataset).
const SAMPLED_GETS: usize = 8;

struct Ingest {
    traced: bool,
    busy_s: f64,
    chunks: Samples,
    delta: Delta,
    stored_bytes: u64,
    reopen_ms: f64,
}

pub fn run(env: &Env) -> Outcome {
    let inserts = env.size(INSERTS, INSERTS_SMOKE);
    let upserts = env.size(UPSERTS, UPSERTS_SMOKE);
    let options = DatasetOptions::new(Layout::Amax)
        .memory_budget(env.size(MEMORY_BUDGET, MEMORY_BUDGET_SMOKE));
    let mut tracer = env.tracer();
    let mut checks = Checker::default();
    tracer.enter("ingest-sensors", 0);

    // Set-up: generate the documents and the model they are checked against.
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let (made, nanos) = tracer.timed("setup", 0, || {
            let mut rng = gen::prng(env.seed);
            let docs = gen::sensor_docs(&mut rng, inserts, upserts);
            let model = gen::latest_by_id(&docs, inserts);
            let user_bytes = json_bytes(&docs);
            let live_bytes = json_bytes(&model);
            (rng, docs, model, user_bytes, live_bytes)
        });
        setup_s.push(nanos as f64 / 1e9);
        inputs = Some(made);
    }
    let (mut rng, docs, model, user_bytes, live_bytes) = inputs.expect("at least one set-up");

    // Measured phase: fresh ingests until the time is up.
    let min_ingests = if env.trace {
        MIN_INGESTS_TRACED
    } else {
        MIN_INGESTS
    };
    tracer.enter("measure", 0);
    let phase = PhaseClock::start();
    let mut ingests: Vec<Ingest> = Vec::new();
    while ingests.len() < min_ingests || phase.wall_seconds() < env.seconds {
        let round = ingests.len();
        let traced = env.trace && round % 2 == 1;
        tracer.set_enabled(traced);
        let copies = docs.clone();
        let dir = env.fresh_dir("ingest-sensors");
        let store = open_store("sensors", &dir, options.clone());
        let dataset = store.dataset("sensors").expect("dataset just opened");
        let before = Counters::read(dataset);
        tracer.enter("ingest", round as u64);
        let chunks = ingest_chunks(dataset, copies, &mut tracer);
        let ((), flush_ns) = tracer.timed("flush", 0, || dataset.flush().expect("final flush"));
        tracer.exit();
        let delta = Delta::between(&before, &Counters::read(dataset));
        let stored_bytes = dataset.total_stored_bytes();
        drop(store);

        // Gate: what was acknowledged is what a restart finds.
        let mut store = Datastore::new();
        let ((), reopen_ns) = tracer.timed("reopen", 0, || {
            store.reopen_dataset("sensors", &dir).expect("reopen")
        });
        verify(&store, &model, round == 0, &mut rng, &mut checks);
        ingests.push(Ingest {
            traced,
            busy_s: (chunks.total_nanos() + flush_ns) as f64 / 1e9,
            chunks,
            delta,
            stored_bytes,
            reopen_ms: reopen_ns as f64 / 1e6,
        });
    }
    tracer.set_enabled(env.trace);
    tracer.exit();

    // Foreground maintenance makes every ingest do the same work.
    let first = &ingests[0];
    for ingest in &ingests[1..] {
        let same = (
            ingest.delta.flushes,
            ingest.delta.merges,
            ingest.delta.bytes_written,
            ingest.stored_bytes,
        ) == (
            first.delta.flushes,
            first.delta.merges,
            first.delta.bytes_written,
            first.stored_bytes,
        );
        checks.check(same, || {
            "flush/merge/byte counts differ between identical ingests".to_string()
        });
    }

    let records = (inserts + upserts) as f64;
    let rates = |traced: bool| -> Vec<f64> {
        ingests
            .iter()
            .filter(|i| i.traced == traced)
            .map(|i| records / i.busy_s)
            .collect()
    };
    let rate = |traced: bool| super::median_or_zero(&rates(traced));
    let mut per_record = Samples::default();
    for ingest in ingests.iter().filter(|i| !i.traced) {
        per_record.extend(&ingest.chunks);
    }
    let measured = Measured::finish(phase, per_record.len());
    let [p50, p95] = per_record.percentiles_us([50.0, 95.0]);
    let mut end_to_end = Values::end_to_end();
    end_to_end.set("setup_s", super::median_or_zero(&setup_s));
    end_to_end.set("ops_s", rate(false));
    end_to_end.set("op_us_p50", p50 / CHUNK as f64);
    end_to_end.set("op_us_p95", p95 / CHUNK as f64);

    let write_amp = first.delta.bytes_written as f64 / user_bytes as f64;
    let space_amp = first.stored_bytes as f64 / live_bytes as f64;
    let mut per_layer = Values::per_layer();
    let mut attribution = Vec::new();
    if env.trace {
        first.delta.record(&mut per_layer);
        per_layer.set("write_amp", write_amp);
        per_layer.set("space_amp", space_amp);
        let stall_ns = ingests
            .iter()
            .map(|i| i.chunks.max_nanos())
            .max()
            .unwrap_or(0);
        per_layer.set("stall_ms_max", stall_ns as f64 / 1e6);
        let reopens: Vec<f64> = ingests.iter().map(|i| i.reopen_ms).collect();
        per_layer.set("reopen_ms", super::median_or_zero(&reopens));
        measured.record(rate(false), rate(true), &mut per_layer);
        let costs = env.replay_layers(&mut tracer, &mut per_layer, &docs, &[], (&[], &[]));
        let d = &first.delta;
        attribution = attribute(
            &[
                ("persist", "wal append", records as u64, costs.wal_append_ns),
                ("persist", "wal sync", d.wal_syncs, costs.wal_sync_ns),
                (
                    "lsm",
                    "memtable insert",
                    records as u64,
                    costs.memtable_insert_ns,
                ),
                ("schema", "observe", records as u64, costs.observe_ns),
                (
                    "storage",
                    "component write (shred + encode + pages)",
                    d.entries_written,
                    costs.component_write_ns,
                ),
                (
                    "storage",
                    "leaf decode",
                    d.leaf_misses,
                    costs.leaf_decode_ns,
                ),
                (
                    "columnar",
                    "assemble (merge inputs)",
                    d.records_assembled,
                    costs.assemble_ns,
                ),
            ],
            first.busy_s,
            &mut per_layer,
        );
    }

    tracer.exit();
    let notes = vec![
        ("records_per_ingest", Json::Int(records as u64)),
        ("live_records", Json::Int(inserts as u64)),
        ("ingests", Json::Int(ingests.len() as u64)),
        ("ops_s_quartiles", super::quartile_note(&rates(false))),
        ("user_json_bytes", Json::Int(user_bytes)),
        ("bytes_on_disk", Json::Int(first.stored_bytes)),
        ("bytes_written", Json::Int(first.delta.bytes_written)),
        ("flushes", Json::Int(first.delta.flushes)),
        ("merges", Json::Int(first.delta.merges)),
        ("write_amp", Json::Num(write_amp)),
        ("space_amp", Json::Num(space_amp)),
    ];
    Outcome {
        checks,
        end_to_end,
        per_layer,
        notes,
        attribution,
        measured,
        tracer,
    }
}

/// Count, then every live record against the model, then (once) a few
/// point reads.
fn verify(
    store: &Datastore,
    model: &[Value],
    sample_gets: bool,
    rng: &mut gen::Prng,
    checks: &mut Checker,
) {
    use rand::Rng;
    let dataset = store.dataset("sensors").expect("reopened dataset");
    let count = dataset.count().expect("count");
    checks.check(count == model.len(), || {
        format!("reopened count {count}, expected {}", model.len())
    });
    let mut seen = 0usize;
    for entry in dataset.cursor(None).expect("cursor") {
        let (key, doc) = entry.expect("scan entry");
        let expected = key.as_int().and_then(|id| model.get(id as usize));
        checks.check(expected.is_some_and(|m| same_doc(m, &doc)), || {
            format!("record {key} differs after reopen")
        });
        seen += 1;
    }
    checks.check(seen == model.len(), || {
        format!("the scan saw {seen} records, expected {}", model.len())
    });
    if sample_gets {
        for _ in 0..SAMPLED_GETS {
            let id = rng.gen_range(0..model.len());
            let got = dataset.get(&Value::Int(id as i64)).expect("get");
            checks.check(got.is_some_and(|doc| same_doc(&model[id], &doc)), || {
                format!("get {id} differs")
            });
        }
    }
}
