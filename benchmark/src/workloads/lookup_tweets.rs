//! `lookup-tweets`: writes beside reads on the same layers. A cache or
//! lookup gain that costs upserts, or the reverse, shows here.
//!
//! `RECORDS` `tweet_2` documents sit in a durable AMAX dataset with a
//! secondary index on `timestamp`, in three unmerged components of three,
//! two and one full mega leaves (sizes the default tiering policy leaves
//! alone), under a memory budget whose leaf cache holds the whole decoded
//! dataset: zero evictions are asserted. One client runs a closed loop of 80 % `get` (80 % of key choices on
//! the hot 1 % of keys), 15 % upsert (each runs a secondary-index
//! maintenance lookup, so the write path uses the read path; the WAL is
//! appended without a per-op fsync) and 5 % 50-key `timestamp` range
//! COUNT through the index. Every reply is compared with a model of the
//! latest version.
//!
//! `ops_s` counts all three op kinds per second of time spent inside the
//! calls; `op_us_*` are `get` latencies.

use docmodel::{Path, Value};
use docstore::{DatasetOptions, Datastore, Layout};
use query::{AccessPathChoice, Aggregate, ExecMode, Expr, PlannerOptions, Query};

use super::{
    attribute, ingest_chunks, open_store, same_doc, Counters, Delta, Env, Halves, Measured, SETUPS,
};
use crate::gen::{self, LookupOp};
use crate::json::Json;
use crate::metrics::{Checker, Outcome, Values};
use crate::stats::{timed, PhaseClock, Samples};

/// Six AMAX mega leaves of 15 000 records (`AmaxConfig::record_limit`), so
/// that every `get` searches a leaf of the same size.
const RECORDS: usize = 90_000;
const RECORDS_SMOKE: usize = RECORDS / 20;

/// Half funds the leaf cache (128 MiB over ~10 MB stored, several times
/// that decoded) and a quarter the memtable, which therefore never fills:
/// the components are the ones set-up flushes.
const MEMORY_BUDGET: usize = 256 << 20;
/// Sixths of the records each set-up flush covers, oldest first. Tiering
/// merges when the younger components outweigh 1.2 x the next older one;
/// 1 < 1.2 x 2 and 1 + 2 < 1.2 x 3, so these stay apart.
const FLUSH_SIXTHS: [usize; 3] = [3, 2, 1];

const RANGE_LEN: usize = 50;

/// A traced run switches tracing every this many ops (one mix block).
const TRACE_BLOCK: u64 = 20;

fn range_count(lo: i64, len: i64) -> Query {
    Query::count_star().with_filter(Expr::between(
        "timestamp",
        gen::tweet_timestamp(lo),
        gen::tweet_timestamp(lo + len - 1),
    ))
}

pub fn run(env: &Env) -> Outcome {
    let records = env.size(RECORDS, RECORDS_SMOKE);
    let options = DatasetOptions::new(Layout::Amax)
        .memory_budget(MEMORY_BUDGET)
        .secondary_index(Path::parse("timestamp"));
    let via_index = PlannerOptions::with_access_path(AccessPathChoice::ForceIndex);
    let mut tracer = env.tracer();
    let mut checks = Checker::default();
    let dir = env.scratch.join("lookup-tweets");
    tracer.enter("lookup-tweets", 0);

    // Set-up: generate, ingest and flush; the last build is kept open.
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        // The previous build must be closed before its directory is reused.
        drop(inputs.take());
        tracer.enter("setup", 0);
        let (made, nanos) = timed(|| {
            let mut rng = gen::prng(env.seed);
            let docs = gen::tweet_docs(&mut rng, records);
            let store = open_store("tweets", &env.fresh_dir("lookup-tweets"), options.clone());
            let dataset = store.dataset("tweets").expect("dataset just opened");
            let mut rest = &docs[..];
            for sixths in FLUSH_SIXTHS {
                let (part, later) = rest.split_at(records * sixths / 6);
                ingest_chunks(dataset, part.to_vec(), &mut tracer);
                dataset.flush().expect("flush");
                rest = later;
            }
            assert!(rest.is_empty(), "the flush shares cover every record");
            (rng, docs, store)
        });
        tracer.exit();
        setup_s.push(nanos as f64 / 1e9);
        inputs = Some(made);
    }
    let (mut rng, mut model, store) = inputs.expect("at least one set-up");
    let dataset = store.dataset("tweets").expect("dataset");
    let shard = &dataset.shards()[0];
    let components = shard.component_count();
    checks.check(components == FLUSH_SIXTHS.len(), || {
        format!("{components} components after set-up")
    });

    // Measured phase: one closed-loop client.
    let mut ops = gen::LookupOps::new(gen::fork(&mut rng), records, RANGE_LEN);
    let before = Counters::read(dataset);
    tracer.enter("measure", 0);
    let phase = PhaseClock::start();
    let (mut gets, mut upserts, mut ranges) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut halves = Halves::default();
    let (mut traced_gets, mut get_assembled, mut get_pages) = (0u64, 0u64, 0u64);
    let mut op_id = 0u64;
    while phase.wall_seconds() < env.seconds {
        let traced = env.trace && (op_id / TRACE_BLOCK) % 2 == 1;
        tracer.set_enabled(traced);
        op_id += 1;
        let nanos = match ops.next().expect("the op sequence is endless") {
            LookupOp::Get { id } => {
                let io_before = traced.then(|| shard.io_stats());
                let (got, nanos) =
                    tracer.timed("get", op_id, || dataset.get(&Value::Int(id)).expect("get"));
                if let Some(io_before) = io_before {
                    let io = shard.io_stats();
                    traced_gets += 1;
                    get_assembled += io.records_assembled - io_before.records_assembled;
                    get_pages += io.pages_read - io_before.pages_read;
                } else {
                    gets.push(nanos);
                }
                checks.check(
                    got.is_some_and(|doc| same_doc(&model[id as usize], &doc)),
                    || format!("get {id} is not the latest version"),
                );
                nanos
            }
            LookupOp::Upsert { id, doc } => {
                model[id as usize] = doc.clone();
                let (result, nanos) = tracer.timed("upsert", op_id, || dataset.insert(doc));
                checks.check(result.is_ok(), || {
                    format!("upsert {id} refused: {result:?}")
                });
                if !traced {
                    upserts.push(nanos);
                }
                nanos
            }
            LookupOp::Range { lo, len } => {
                let query = range_count(lo, len);
                let (rows, nanos) = tracer.timed("range_count", op_id, || {
                    dataset
                        .query_with_options(&query, ExecMode::Compiled, via_index)
                        .expect("range")
                });
                let got = rows.first().map(|row| row.agg().clone());
                checks.check(got == Some(Value::Int(len)), || {
                    format!("range at {lo}: {got:?}, expected {len}")
                });
                if !traced {
                    ranges.push(nanos);
                }
                nanos
            }
        };
        halves.add(traced, nanos);
    }
    let measured = Measured::finish(phase, gets.len());
    tracer.set_enabled(env.trace);
    tracer.exit();
    let delta = Delta::between(&before, &Counters::read(dataset));
    let bytes_on_disk = dataset.total_stored_bytes();

    // Gates: the cache regime, the live count, then the same after a restart.
    checks.check(delta.leaf_evictions == 0, || {
        format!(
            "{} leaves were evicted from a cache meant to hold them all",
            delta.leaf_evictions
        )
    });
    checks.check(dataset.count().ok() == Some(records), || {
        "live count changed".to_string()
    });
    dataset.sync().expect("sync");
    drop(store);
    let mut store = Datastore::new();
    let ((), reopen_ns) = tracer.timed("reopen", 0, || {
        store.reopen_dataset("tweets", &dir).expect("reopen")
    });
    let reopened = store.dataset("tweets").expect("reopened dataset");
    checks.check(reopened.count().ok() == Some(records), || {
        "count changed across reopen".to_string()
    });
    let last = (records - 1) as i64;
    let got = reopened.get(&Value::Int(last)).expect("get after reopen");
    checks.check(
        got.is_some_and(|doc| same_doc(&model[last as usize], &doc)),
        || "last key differs after reopen".to_string(),
    );

    let mut end_to_end = Values::end_to_end();
    end_to_end.set("setup_s", super::median_or_zero(&setup_s));
    let [p50, p95] = gets.percentiles_us([50.0, 95.0]);
    end_to_end.set("ops_s", halves.ops_s(false));
    end_to_end.set("op_us_p50", p50);
    end_to_end.set("op_us_p95", p95);

    let mut per_layer = Values::per_layer();
    let mut attribution = Vec::new();
    if env.trace {
        delta.record(&mut per_layer);
        per_layer.set(
            "records_assembled_per_get",
            get_assembled as f64 / traced_gets.max(1) as f64,
        );
        per_layer.set(
            "pages_read_per_get",
            get_pages as f64 / traced_gets.max(1) as f64,
        );
        per_layer.set("stall_ms_max", upserts.max_nanos() as f64 / 1e6);
        per_layer.set("reopen_ms", reopen_ns as f64 / 1e6);
        per_layer.set("q_range_0p1_ms", ranges.median_us() / 1e3);
        measured.record(halves.ops_s(false), halves.ops_s(true), &mut per_layer);
        let queries = [
            range_count(0, RANGE_LEN as i64),
            Query::select([Aggregate::MaxLength(Path::parse("text"))])
                .group_by("user.name")
                .top_k(10),
        ];
        let costs = env.replay_layers(&mut tracer, &mut per_layer, &model, &queries, (&[], &[]));
        let all_upserts = delta.maintenance_lookups;
        attribution = attribute(
            &[
                ("persist", "wal append", all_upserts, costs.wal_append_ns),
                (
                    "lsm",
                    "memtable insert",
                    all_upserts,
                    costs.memtable_insert_ns,
                ),
                ("schema", "observe", delta.entries_written, costs.observe_ns),
                (
                    "storage",
                    "component write (shred + encode + pages)",
                    delta.entries_written,
                    costs.component_write_ns,
                ),
                (
                    "storage",
                    "leaf decode",
                    delta.leaf_misses,
                    costs.leaf_decode_ns,
                ),
                (
                    "columnar",
                    "assemble",
                    delta.records_assembled,
                    costs.assemble_ns,
                ),
                ("query", "plan", (ranges.len() as u64) * 2, costs.plan_ns),
            ],
            halves.busy_s(),
            &mut per_layer,
        );
    }

    tracer.exit();
    let notes = vec![
        ("live_records", Json::Int(records as u64)),
        ("components_after_setup", Json::Int(components as u64)),
        ("bytes_on_disk", Json::Int(bytes_on_disk)),
        ("ops", Json::Int(halves.ops())),
        ("gets", Json::Int(gets.len() as u64)),
        ("upserts", Json::Int(upserts.len() as u64)),
        ("ranges", Json::Int(ranges.len() as u64)),
        ("upsert_us_p50", Json::Num(upserts.median_us())),
        ("range_us_p50", Json::Num(ranges.median_us())),
        ("flushes", Json::Int(delta.flushes)),
        ("merges", Json::Int(delta.merges)),
        ("leaf_cache_evictions", Json::Int(delta.leaf_evictions)),
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
