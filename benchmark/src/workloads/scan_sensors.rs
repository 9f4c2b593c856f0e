//! `scan-sensors`: the read path only (reconcile → page read → decode →
//! filter → assemble → aggregate) over a multi-component tree with
//! shadowed versions. The write path does nothing in the measured phase.
//!
//! Set-up builds the `ingest-sensors` recipe at two thirds of its size
//! (that build is `setup_s`) and reopens it with a memory budget whose
//! leaf cache is smaller than the decoded working set, so every round
//! evicts. A round is the Fig. 14 `sensors` suite plus a pushed range
//! filter at 0.1 % and at 100 % selectivity, compiled engine. Answers are
//! checked against `query::oracle::execute_batch` and against the
//! generator's own model.
//!
//! The op is one round of the six queries: `ops_s` is rounds per second,
//! `op_us_*` are round times.

use docmodel::{Path, Value};
use docstore::{DatasetOptions, Layout};
use query::{Aggregate, ExecMode, Expr, Query, QueryRow};
use rand::Rng;

use super::{
    attribute, ingest_chunks, open_store, Counters, Delta, Env, Halves, Measured, CHUNK, SETUPS,
};
use crate::gen;
use crate::json::Json;
use crate::metrics::{Checker, Outcome, Values};
use crate::stats::{timed, PhaseClock, Samples};

const INSERTS: usize = 40 * CHUNK;
const UPSERTS: usize = 20 * CHUNK;
const INSERTS_SMOKE: usize = 3 * CHUNK;
const UPSERTS_SMOKE: usize = CHUNK;

/// The build budget is `ingest-sensors`'s; the scan budget leaves a 2 MiB
/// leaf cache under a decoded working set several times that.
const BUILD_BUDGET: usize = 16 << 20;
const SCAN_BUDGET: usize = 4 << 20;
const BUILD_BUDGET_SMOKE: usize = 1 << 20;
const SCAN_BUDGET_SMOKE: usize = 256 << 10;

const MIN_ROUNDS: u64 = 10;

/// The suite: per-layer metric name, span name and query.
struct Suite {
    queries: Vec<(&'static str, &'static str, Query)>,
    /// Records the 0.1 % range filter selects.
    narrow_width: usize,
}

fn suite(records: usize, rng: &mut gen::Prng) -> Suite {
    let max_temp = || {
        Query::new()
            .with_unnest("readings")
            .aggregate_element(Aggregate::Max(Path::parse("temp")))
    };
    let narrow_width = (records / 1000).max(1);
    let narrow_lo = rng.gen_range(0..(records - narrow_width) as i64);
    let day = 24 * 60 * 60 * 1000;
    let queries = vec![
        ("q_count_ms", "query:count", Query::count_star()),
        ("q_max_unnest_ms", "query:max_unnest", max_temp()),
        (
            "q_group_topk_ms",
            "query:group_topk",
            max_temp().group_by("sensor_id").top_k(10),
        ),
        (
            "q_filter_topk_ms",
            "query:filter_topk",
            max_temp()
                .with_filter(Expr::between(
                    "report_time",
                    gen::sensor_report_time(0),
                    gen::sensor_report_time(0) + day,
                ))
                .group_by("sensor_id")
                .top_k(10),
        ),
        (
            "q_range_0p1_ms",
            "query:range_0p1",
            Query::count_star().with_filter(Expr::between(
                "report_time",
                gen::sensor_report_time(narrow_lo),
                gen::sensor_report_time(narrow_lo + narrow_width as i64 - 1),
            )),
        ),
        (
            "q_range_100_ms",
            "query:range_100",
            Query::select([Aggregate::Max(Path::parse("status.battery"))])
                .with_filter(Expr::ge("report_time", gen::sensor_report_time(0))),
        ),
    ];
    Suite {
        queries,
        narrow_width,
    }
}

/// The largest value at `path` over the model, by the benchmark's own walk.
fn model_max(model: &[Value], path: &str) -> Option<Value> {
    let path = Path::parse(path);
    model
        .iter()
        .flat_map(|doc| path.evaluate(doc))
        .max_by(|a, b| docmodel::total_cmp(a, b))
        .cloned()
}

pub fn run(env: &Env) -> Outcome {
    let inserts = env.size(INSERTS, INSERTS_SMOKE);
    let upserts = env.size(UPSERTS, UPSERTS_SMOKE);
    let build =
        DatasetOptions::new(Layout::Amax).memory_budget(env.size(BUILD_BUDGET, BUILD_BUDGET_SMOKE));
    let scan = build
        .clone()
        .memory_budget(env.size(SCAN_BUDGET, SCAN_BUDGET_SMOKE));
    let mut tracer = env.tracer();
    let mut checks = Checker::default();
    let dir = env.scratch.join("scan-sensors");
    tracer.enter("scan-sensors", 0);

    // Set-up: generate and build the dataset, to quiescence.
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        tracer.enter("setup", 0);
        let (made, nanos) = timed(|| {
            let mut rng = gen::prng(env.seed);
            let docs = gen::sensor_docs(&mut rng, inserts, upserts);
            let model = gen::latest_by_id(&docs, inserts);
            let store = open_store("sensors", &env.fresh_dir("scan-sensors"), build.clone());
            let dataset = store.dataset("sensors").expect("dataset just opened");
            ingest_chunks(dataset, docs.clone(), &mut tracer);
            dataset.flush().expect("flush");
            (rng, docs, model)
        });
        tracer.exit();
        setup_s.push(nanos as f64 / 1e9);
        inputs = Some(made);
    }
    let (mut rng, docs, model) = inputs.expect("at least one set-up");
    let (store, reopen_ns) = tracer.timed("reopen", 0, || open_store("sensors", &dir, scan));
    let dataset = store.dataset("sensors").expect("reopened dataset");
    let components = dataset.shards()[0].component_count();
    let suite = suite(inserts, &mut rng);

    // Measured phase: rounds of the suite; a traced run alternates plain
    // and traced rounds.
    let before = Counters::read(dataset);
    tracer.enter("measure", 0);
    let phase = PhaseClock::start();
    let mut rounds = Halves::default();
    let mut plain = Samples::default();
    let mut per_query: Vec<Samples> = suite.queries.iter().map(|_| Samples::default()).collect();
    let mut first_answers: Vec<Vec<QueryRow>> = Vec::new();
    while rounds.ops() < MIN_ROUNDS || phase.wall_seconds() < env.seconds {
        let round = rounds.ops();
        let traced = env.trace && round % 2 == 1;
        tracer.set_enabled(traced);
        let mut round_ns = 0u64;
        tracer.enter("round", round);
        for (i, (_, span, query)) in suite.queries.iter().enumerate() {
            let (rows, nanos) = tracer.timed(span, round, || {
                dataset
                    .query(query, ExecMode::Compiled)
                    .expect("suite query")
            });
            round_ns += nanos;
            if !traced {
                per_query[i].push(nanos);
            }
            match first_answers.get(i) {
                None => first_answers.push(rows),
                Some(first) => checks.check(&rows == first, || {
                    format!("{span} changed its answer in round {round}")
                }),
            }
        }
        tracer.exit();
        rounds.add(traced, round_ns);
        if !traced {
            plain.push(round_ns);
        }
    }
    let measured = Measured::finish(phase, plain.len());
    tracer.set_enabled(env.trace);
    tracer.exit();
    let delta = Delta::between(&before, &Counters::read(dataset));

    // Gates: the oracle on every query, the generator's model where it can
    // state the answer, and the cache regime the workload exists for.
    let snapshot = dataset.shards()[0].snapshot();
    for ((_, span, query), answer) in suite.queries.iter().zip(&first_answers) {
        let expected = query::oracle::execute_batch(&snapshot, query).expect("oracle");
        checks.check(answer == &expected, || {
            format!("{span}: {answer:?} != oracle {expected:?}")
        });
    }
    let model_answers = [
        (0, Some(Value::Int(inserts as i64))),
        (1, model_max(&model, "readings[*].temp")),
        (4, Some(Value::Int(suite.narrow_width as i64))),
        (5, model_max(&model, "status.battery")),
    ];
    for (i, expected) in model_answers {
        let got = first_answers[i].first().map(|row| row.agg().clone());
        checks.check(got == expected, || {
            format!("{}: {got:?} != model {expected:?}", suite.queries[i].1)
        });
    }
    checks.check(delta.leaf_evictions > 0, || {
        "the leaf cache held the whole working set".to_string()
    });
    checks.check(
        delta.flushes + delta.merges + delta.bytes_written == 0,
        || "the write path ran".to_string(),
    );

    let mut end_to_end = Values::end_to_end();
    let [p50, p95] = plain.percentiles_us([50.0, 95.0]);
    end_to_end.set("setup_s", super::median_or_zero(&setup_s));
    end_to_end.set("ops_s", rounds.ops_s(false));
    end_to_end.set("op_us_p50", p50);
    end_to_end.set("op_us_p95", p95);

    let mut per_layer = Values::per_layer();
    let mut attribution = Vec::new();
    if env.trace {
        delta.record(&mut per_layer);
        per_layer.set(
            "pages_read_per_round",
            delta.pages_read as f64 / rounds.ops() as f64,
        );
        per_layer.set("reopen_ms", reopen_ns as f64 / 1e6);
        for ((name, _, _), samples) in suite.queries.iter().zip(&per_query) {
            per_layer.set(name, samples.median_us() / 1e3);
        }
        measured.record(rounds.ops_s(false), rounds.ops_s(true), &mut per_layer);
        let queries: Vec<Query> = suite.queries.iter().map(|q| q.2.clone()).collect();
        let costs = env.replay_layers(&mut tracer, &mut per_layer, &docs, &queries, (&[], &[]));
        let examined_per_round: u64 = suite
            .queries
            .iter()
            .map(|(_, _, q)| {
                dataset
                    .explain_analyze(q, ExecMode::Compiled)
                    .expect("analyze")
                    .rows_pulled()
            })
            .sum();
        let examined = examined_per_round * rounds.ops();
        attribution = attribute(
            &[
                (
                    "persist",
                    "wal append + sync",
                    delta.wal_syncs,
                    costs.wal_sync_ns,
                ),
                ("schema", "observe", delta.entries_written, costs.observe_ns),
                (
                    "storage",
                    "component write (shred + encode + pages)",
                    delta.entries_written,
                    costs.component_write_ns,
                ),
                // The replayed suite's cost per row examined covers the
                // cursor, the projected decode and assembly, and the
                // operators; only an in-engine clock could split them.
                (
                    "query",
                    "execute (scan + projected assembly + operators)",
                    examined,
                    costs.exec_ns,
                ),
                ("lsm", "reconcile", examined, costs.reconcile_ns),
                (
                    "query",
                    "plan",
                    rounds.ops() * suite.queries.len() as u64,
                    costs.plan_ns,
                ),
            ],
            rounds.busy_s(),
            &mut per_layer,
        );
    }

    tracer.exit();
    let notes = vec![
        ("live_records", Json::Int(inserts as u64)),
        ("stored_versions", Json::Int((inserts + upserts) as u64)),
        ("components", Json::Int(components as u64)),
        ("bytes_on_disk", Json::Int(dataset.total_stored_bytes())),
        ("rounds", Json::Int(rounds.ops())),
        ("round_us_quartiles", super::quartile_note(&plain.micros())),
        ("pages_read", Json::Int(delta.pages_read)),
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
