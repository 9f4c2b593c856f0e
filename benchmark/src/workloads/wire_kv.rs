//! `wire-kv`: storage does almost nothing, so RESP decode and encode, JSON
//! parse and print, dispatch and socket handling are the cost. It is the
//! one place a server or docmodel change can show, and the one that must
//! not move when storage changes.
//!
//! An in-process `Server::start(ServerConfig::default())` (four in-memory
//! AMAX shards) is preloaded with `KEYS` ~170-byte documents by `MSET` and
//! stays memtable-resident: zero flushes and zero pages read are asserted
//! through the wire `METRICS` at the end. `CONNECTIONS` connections from as
//! many threads run closed loops at pipeline depth 1 with 70 % `GET`,
//! 26 % `SET` and 4 % `MSET` of 16 pairs. Each connection owns the keys
//! congruent to its index, so every reply is checked against the latest
//! version, and the server's own request counters must equal what was
//! issued.
//!
//! The op is one request: `ops_s` sums, over the connections, requests per
//! second of time spent waiting for replies; `op_us_*` are round trips.

use std::time::{Duration, Instant};

use docmodel::{parse_json, Path, Value};
use docstore::{DatasetOptions, Datastore, Layout};
use query::{Aggregate, Query};
use server::resp::Frame;
use server::{CommandKind, RespClient, Server, ServerConfig, ServerHandle};

use super::{attribute, Env, Halves, Measured, SETUPS};
use crate::gen::{self, WireOp, MSET_PAIRS};
use crate::json::Json;
use crate::metrics::{Checker, Outcome, Values};
use crate::stats::{timed, PhaseClock, Samples};
use crate::trace::Tracer;

const KEYS: usize = 20_000;
const KEYS_SMOKE: usize = 2_000;
const CONNECTIONS: usize = 2;

/// Pairs per preload `MSET`.
const PRELOAD_BATCH: usize = 128;

/// Requests of connection 0 kept for the layer replay and for the same
/// ops through `Datastore`.
const REPLAY_REQUESTS: usize = 1_000;

/// A traced run switches tracing every this many requests (one mix block).
const TRACE_BLOCK: u64 = 50;

/// What one connection did.
struct Client {
    latencies: Samples,
    halves: Halves,
    issued: [u64; 3],
    checks: Checker,
    tracer: Tracer,
    requests: Vec<Vec<Vec<u8>>>,
    replies: Vec<Frame>,
    ops: Vec<WireOp>,
}

fn args_of(op: &WireOp) -> Vec<Vec<u8>> {
    let text = |s: String| s.into_bytes();
    match op {
        WireOp::Get { key } => vec![b"GET".to_vec(), text(key.to_string())],
        WireOp::Set { key, doc } => vec![b"SET".to_vec(), text(key.to_string()), text(doc.clone())],
        WireOp::Mset { pairs } => {
            let mut args = vec![b"MSET".to_vec()];
            for (key, doc) in pairs {
                args.push(text(key.to_string()));
                args.push(text(doc.clone()));
            }
            args
        }
    }
}

/// Start a default server and preload every key; returns the handle, the
/// model (latest document per key) and the number of preload requests.
fn start_and_preload(env: &Env, keys: usize) -> (ServerHandle, Vec<String>, gen::Prng, u64) {
    let mut rng = gen::prng(env.seed);
    let handle = Server::start(ServerConfig::default()).expect("start the server");
    let mut admin = RespClient::connect(handle.addr()).expect("connect");
    let model: Vec<String> = (0..keys as i64)
        .map(|key| gen::kv_doc(&mut rng, key, 0))
        .collect();
    let mut requests = 0;
    for (batch, docs) in model.chunks(PRELOAD_BATCH).enumerate() {
        let keys: Vec<String> = (0..docs.len())
            .map(|i| (batch * PRELOAD_BATCH + i).to_string())
            .collect();
        let pairs: Vec<(&str, &str)> = keys
            .iter()
            .map(String::as_str)
            .zip(docs.iter().map(String::as_str))
            .collect();
        let reply = admin.mset(&pairs).expect("preload MSET");
        assert_eq!(
            reply.as_integer(),
            Some(docs.len() as i64),
            "preload acknowledged"
        );
        requests += 1;
    }
    (handle, model, rng, requests)
}

fn run_client(
    addr: std::net::SocketAddr,
    mut ops: gen::WireOps,
    mut model: Vec<String>,
    mut tracer: Tracer,
    trace: bool,
    deadline: Instant,
) -> Client {
    let mut client = RespClient::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut out = Client {
        latencies: Samples::with_capacity(1 << 20),
        halves: Halves::default(),
        issued: [0; 3],
        checks: Checker::default(),
        tracer: Tracer::off(),
        requests: Vec::new(),
        replies: Vec::new(),
        ops: Vec::new(),
    };
    let mut op_id = 0u64;
    while Instant::now() < deadline {
        let traced = trace && (op_id / TRACE_BLOCK) % 2 == 1;
        tracer.set_enabled(traced);
        op_id += 1;
        let op = ops.next().expect("the op sequence is endless");
        let args = args_of(&op);
        let (reply, nanos) = tracer.timed("request", op_id, || client.command(&args));
        let kind = match &op {
            WireOp::Get { key } => {
                let ok = matches!(&reply, Ok(frame) if frame.as_text() == Some(model[*key as usize].as_str()));
                out.checks.check(ok, || format!("GET {key}: {reply:?}"));
                0
            }
            WireOp::Set { key, doc } => {
                let ok = matches!(&reply, Ok(frame) if frame.as_text() == Some("OK"));
                out.checks.check(ok, || format!("SET {key}: {reply:?}"));
                model[*key as usize] = doc.clone();
                1
            }
            WireOp::Mset { pairs } => {
                let ok =
                    matches!(&reply, Ok(frame) if frame.as_integer() == Some(pairs.len() as i64));
                out.checks.check(ok, || format!("MSET: {reply:?}"));
                for (key, doc) in pairs {
                    model[*key as usize] = doc.clone();
                }
                2
            }
        };
        out.issued[kind] += 1;
        out.halves.add(traced, nanos);
        if !traced {
            out.latencies.push(nanos);
        }
        if out.requests.len() < REPLAY_REQUESTS {
            if let Ok(frame) = reply {
                out.requests.push(args);
                out.replies.push(frame);
                out.ops.push(op);
            }
        }
    }
    out.tracer = tracer;
    out
}

/// A counter's value in the `METRICS TEXT` rendering.
fn wire_counter(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let mut words = line.split_whitespace();
        (words.next() == Some(name))
            .then(|| words.next()?.parse().ok())
            .flatten()
    })
}

/// The median latency of `ops` issued straight to a `Datastore` preloaded
/// like the server, documents parsed beforehand: the storage share of a
/// round trip.
fn direct_p50_us(preload: &[String], ops: &[WireOp]) -> f64 {
    let parse = |doc: &String| parse_json(doc).expect("kv docs are JSON");
    let mut store = Datastore::new();
    let config = ServerConfig::default();
    store
        .create_dataset(
            "default",
            DatasetOptions::new(Layout::Amax)
                .key("id")
                .shards(config.shards),
        )
        .expect("create dataset");
    store
        .ingest_batch(
            "default",
            preload.iter().map(parse).collect(),
            config.sync_every,
        )
        .expect("preload");
    let mut latencies = Samples::default();
    for op in ops {
        let nanos = match op {
            WireOp::Get { key } => {
                timed(|| store.get("default", &Value::Int(*key)).expect("get")).1
            }
            WireOp::Set { doc, .. } => {
                let doc = parse(doc);
                timed(|| store.ingest("default", doc).expect("ingest")).1
            }
            WireOp::Mset { pairs } => {
                let docs: Vec<Value> = pairs.iter().map(|(_, doc)| parse(doc)).collect();
                timed(|| {
                    store
                        .ingest_batch("default", docs, config.sync_every)
                        .expect("ingest_batch")
                })
                .1
            }
        };
        latencies.push(nanos);
    }
    latencies.median_us()
}

pub fn run(env: &Env) -> Outcome {
    let keys = env.size(KEYS, KEYS_SMOKE);
    let mut tracer = env.tracer();
    let mut checks = Checker::default();
    tracer.enter("wire-kv", 0);

    // Set-up: start a server and preload the keyspace; the last one serves.
    let mut setup_s = Vec::new();
    let mut serving: Option<(ServerHandle, Vec<String>, gen::Prng, u64)> = None;
    for _ in 0..SETUPS {
        if let Some((handle, ..)) = serving.take() {
            handle.shutdown();
            handle.join();
        }
        let (made, nanos) = tracer.timed("setup", 0, || start_and_preload(env, keys));
        setup_s.push(nanos as f64 / 1e9);
        serving = Some(made);
    }
    let (handle, model, mut rng, preload_requests) = serving.expect("at least one set-up");

    // Measured phase: one closed loop per connection.
    tracer.enter("measure", 0);
    let phase = PhaseClock::start();
    let deadline = Instant::now() + Duration::from_secs_f64(env.seconds);
    let clients: Vec<Client> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|connection| {
                let ops = gen::WireOps::new(gen::fork(&mut rng), keys, connection, CONNECTIONS);
                let (addr, model, fork) = (handle.addr(), model.clone(), tracer.fork());
                scope.spawn(move || run_client(addr, ops, model, fork, env.trace, deadline))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let mut latencies = Samples::default();
    let mut issued = [0u64; 3];
    let (mut plain_ops_s, mut traced_ops_s, mut busy_s) = (0.0, 0.0, 0.0);
    let mut recorded = None;
    for client in clients {
        latencies.extend(&client.latencies);
        for (total, n) in issued.iter_mut().zip(client.issued) {
            *total += n;
        }
        plain_ops_s += client.halves.ops_s(false);
        traced_ops_s += client.halves.ops_s(true);
        busy_s += client.halves.busy_s();
        checks.merge(client.checks);
        tracer.absorb(client.tracer);
        recorded.get_or_insert((client.requests, client.replies, client.ops));
    }
    tracer.exit();
    let measured = Measured::finish(phase, latencies.len());
    let (requests, replies, first_ops) = recorded.expect("at least one connection");

    // Gates: the server counted what was issued, and storage stayed idle.
    let [gets, sets, msets] = issued;
    for (kind, expected) in [
        (CommandKind::Get, gets),
        (CommandKind::Set, sets),
        (CommandKind::Mset, msets + preload_requests),
    ] {
        let counted = handle.metrics().requests_for(kind);
        checks.check(counted == expected, || {
            format!("server counted {counted} {kind:?}, {expected} were issued")
        });
    }
    let mut admin = RespClient::connect(handle.addr()).expect("connect");
    let metrics = admin.metrics("TEXT").expect("METRICS");
    let text = metrics.as_text().unwrap_or_default();
    for name in ["flush.count", "storage.pages_read"] {
        let value = wire_counter(text, name);
        checks.check(value == Some(0), || {
            format!("{name} is {value:?}, the workload must stay memtable-resident")
        });
    }
    drop(admin);
    handle.shutdown();
    handle.join();

    let mut end_to_end = Values::end_to_end();
    end_to_end.set("setup_s", super::median_or_zero(&setup_s));
    end_to_end.set("ops_s", plain_ops_s);
    let [p50, p95, p99] = latencies.percentiles_us([50.0, 95.0, 99.0]);
    end_to_end.set("op_us_p50", p50);
    end_to_end.set("op_us_p95", p95);

    let mut per_layer = Values::per_layer();
    let mut attribution = Vec::new();
    if env.trace {
        let overhead_us = p50 - direct_p50_us(&model, &first_ops);
        per_layer.set("wire_overhead_us", overhead_us);
        measured.record(plain_ops_s, traced_ops_s, &mut per_layer);
        let docs: Vec<Value> = model
            .iter()
            .map(|d| parse_json(d).expect("kv docs are JSON"))
            .collect();
        let queries = [Query::select([Aggregate::Max(Path::parse("num"))])];
        let costs = env.replay_layers(
            &mut tracer,
            &mut per_layer,
            &docs,
            &queries,
            (&requests, &replies),
        );
        let all = gets + sets + msets;
        let written = sets + msets * MSET_PAIRS as u64;
        let json_ns = (written as f64 * costs.parse_ns + gets as f64 * costs.print_ns) / all as f64;
        // What is left of the wire overhead once framing and JSON are
        // taken out: sockets, dispatch and thread wake-ups in `server`.
        let socket_ns =
            (overhead_us * 1e3 - costs.resp_decode_ns - costs.resp_encode_ns - json_ns).max(0.0);
        attribution = attribute(
            &[
                ("server", "resp decode", all, costs.resp_decode_ns),
                ("server", "resp encode", all, costs.resp_encode_ns),
                (
                    "server",
                    "socket + dispatch (wire overhead less framing and JSON)",
                    all,
                    socket_ns,
                ),
                ("docmodel", "parse", written, costs.parse_ns),
                ("docmodel", "print", gets, costs.print_ns),
                ("lsm", "memtable insert", written, costs.memtable_insert_ns),
            ],
            busy_s,
            &mut per_layer,
        );
    }
    tracer.exit();

    let notes = vec![
        ("keys", Json::Int(keys as u64)),
        ("connections", Json::Int(CONNECTIONS as u64)),
        ("requests", Json::Int(gets + sets + msets)),
        ("gets", Json::Int(gets)),
        ("sets", Json::Int(sets)),
        ("msets", Json::Int(msets)),
        ("bytes_on_disk", Json::Int(0)),
        ("op_us_p99", Json::Num(p99)),
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
