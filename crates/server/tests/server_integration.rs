//! End-to-end server integration tests:
//!
//! * **differential**: N concurrent pipelined connections issuing a mixed
//!   SET/GET/DEL/QUERY workload must leave the store in exactly the state a
//!   single-threaded oracle [`Datastore`] reaches with the same operations;
//! * **graceful shutdown**: SHUTDOWN mid-stream drains in-flight pipelines,
//!   and a durable store reopens with every *acknowledged* write present
//!   and nothing nobody issued;
//! * **telemetry**: wire-reported `server.*` counts equal client-side
//!   counts exactly;
//! * **SCAN**: chunked streams are strictly key-ascending with no repeats,
//!   see bounded-staleness writes between chunks, and support projections;
//! * **connection cap**: connections over the limit are refused with an
//!   error frame, and slots free up when connections close.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Mutex;

use docmodel::{parse_json, to_json, Value};
use docstore::{DatasetOptions, Datastore, Layout};
use query::{Aggregate, ExecMode, Expr, Query};
use server::resp::Frame;
use server::{CommandKind, RespClient, Server, ServerConfig};

/// Unoptimized builds run a reduced workload so tier-1 `cargo test` stays
/// fast; CI runs this suite again in `--release` at full scale.
#[cfg(debug_assertions)]
const CONNECTIONS: usize = 3;
#[cfg(not(debug_assertions))]
const CONNECTIONS: usize = 8;
#[cfg(debug_assertions)]
const KEYS_PER_CONNECTION: i64 = 60;
#[cfg(not(debug_assertions))]
const KEYS_PER_CONNECTION: i64 = 250;
/// Connections own disjoint key ranges: connection `c` owns `c*STRIDE ..`.
const STRIDE: i64 = 1_000_000;
/// Requests per pipelined burst.
const PIPELINE: usize = 32;

fn doc_json(key: i64, version: u32) -> String {
    format!(
        r#"{{"v": {version}, "num": {}, "nested": {{"tag": "t{}"}}}}"#,
        key % 977,
        key % 13
    )
}

fn test_config() -> ServerConfig {
    ServerConfig {
        shards: 3,
        ..ServerConfig::default()
    }
}

/// Apply one connection's deterministic script to the oracle: insert every
/// key, update every third, delete every tenth — mirroring `scripted_ops`.
fn apply_to_oracle(oracle: &Datastore, conn: usize) {
    let base = conn as i64 * STRIDE;
    for i in 0..KEYS_PER_CONNECTION {
        let key = base + i;
        let mut doc = parse_json(&doc_json(key, 1)).unwrap();
        doc.set_field("id", Value::Int(key));
        oracle.ingest("oracle", doc).unwrap();
    }
    for i in (0..KEYS_PER_CONNECTION).step_by(3) {
        let key = base + i;
        let mut doc = parse_json(&doc_json(key, 2)).unwrap();
        doc.set_field("id", Value::Int(key));
        oracle.ingest("oracle", doc).unwrap();
    }
    for i in (0..KEYS_PER_CONNECTION).step_by(10) {
        oracle.delete("oracle", Value::Int(base + i)).unwrap();
    }
}

/// What a scripted request's reply must look like. Connections own
/// disjoint key ranges and a connection's commands are ordered, so every
/// expectation is exact.
enum Expect {
    Ok,
    Int(i64),
    Null,
    /// A document whose `v` field equals this version.
    DocVersion(i64),
}

fn check_reply(reply: &Frame, expect: &Expect, context: &str) {
    match expect {
        Expect::Ok => assert_eq!(*reply, Frame::Simple("OK".into()), "{context}"),
        Expect::Int(n) => assert_eq!(*reply, Frame::Integer(*n), "{context}"),
        Expect::Null => assert_eq!(*reply, Frame::Null, "{context}"),
        Expect::DocVersion(v) => {
            let doc =
                parse_json(reply.as_text().unwrap_or_else(|| panic!("{context}: miss"))).unwrap();
            assert_eq!(doc.get_field("v"), Some(&Value::Int(*v)), "{context}");
        }
    }
}

/// The same script as wire requests, in pipelined bursts, with GETs mixed
/// in whose replies are checked against the connection's own program order.
fn run_wire_script(client: &mut RespClient, conn: usize) {
    let base = conn as i64 * STRIDE;
    let mut batch: Vec<(Vec<String>, Expect)> = Vec::new();
    fn flush(client: &mut RespClient, batch: &mut Vec<(Vec<String>, Expect)>) {
        if batch.is_empty() {
            return;
        }
        let requests: Vec<Vec<String>> = batch.iter().map(|(req, _)| req.clone()).collect();
        let replies = client.pipeline(&requests).unwrap();
        assert_eq!(replies.len(), batch.len());
        for (reply, (req, expect)) in replies.iter().zip(batch.iter()) {
            check_reply(reply, expect, &req.join(" "));
        }
        batch.clear();
    }
    let push = |client: &mut RespClient,
                batch: &mut Vec<(Vec<String>, Expect)>,
                req: Vec<String>,
                expect: Expect| {
        batch.push((req, expect));
        if batch.len() >= PIPELINE {
            flush(client, batch);
        }
    };

    for i in 0..KEYS_PER_CONNECTION {
        let key = base + i;
        push(
            client,
            &mut batch,
            vec!["SET".into(), key.to_string(), doc_json(key, 1)],
            Expect::Ok,
        );
        if i % 7 == 0 {
            // Read-your-writes within one connection.
            push(
                client,
                &mut batch,
                vec!["GET".into(), key.to_string()],
                Expect::DocVersion(1),
            );
        }
    }
    for i in (0..KEYS_PER_CONNECTION).step_by(3) {
        let key = base + i;
        push(
            client,
            &mut batch,
            vec!["SET".into(), key.to_string(), doc_json(key, 2)],
            Expect::Ok,
        );
    }
    for i in (0..KEYS_PER_CONNECTION).step_by(10) {
        let key = base + i;
        push(
            client,
            &mut batch,
            vec!["DEL".into(), key.to_string()],
            Expect::Int(1),
        );
    }
    // Post-script point checks: an updated key, a deleted key.
    push(
        client,
        &mut batch,
        vec!["GET".into(), (base + 3).to_string()],
        Expect::DocVersion(2),
    );
    push(
        client,
        &mut batch,
        vec!["GET".into(), base.to_string()],
        Expect::Null,
    );
    flush(client, &mut batch);
}

/// Build the in-process oracle store.
fn oracle_store() -> Datastore {
    let mut oracle = Datastore::new();
    oracle
        .create_dataset("oracle", DatasetOptions::new(Layout::Amax).shards(3))
        .unwrap();
    oracle
}

#[test]
fn concurrent_mixed_workload_matches_oracle() {
    let handle = Server::start(test_config()).unwrap();
    let addr = handle.addr();

    // Wire side: CONNECTIONS concurrent pipelined clients.
    std::thread::scope(|scope| {
        for conn in 0..CONNECTIONS {
            scope.spawn(move || {
                let mut client = RespClient::connect(addr).unwrap();
                run_wire_script(&mut client, conn);
            });
        }
    });

    // Oracle side: same scripts, single-threaded.
    let oracle = oracle_store();
    for conn in 0..CONNECTIONS {
        apply_to_oracle(&oracle, conn);
    }

    // Full-state differential: the wire SCAN must equal the oracle's scan.
    let mut client = RespClient::connect(addr).unwrap();
    let wire_entries = client.scan_all(64).unwrap();
    let mut oracle_entries = Vec::new();
    for entry in oracle.scan_cursor("oracle", None).unwrap() {
        let (key, doc) = entry.unwrap();
        oracle_entries.push((key, doc));
    }
    assert_eq!(
        wire_entries.len(),
        oracle_entries.len(),
        "live record counts diverge"
    );
    for ((wire_key, wire_doc), (oracle_key, oracle_doc)) in
        wire_entries.iter().zip(oracle_entries.iter())
    {
        assert_eq!(parse_json(wire_key).unwrap(), *oracle_key);
        assert_eq!(parse_json(wire_doc).unwrap(), *oracle_doc);
    }

    // Query differential: grouped aggregate over the wire == oracle.
    let spec = r#"{"select": [{"agg": "count"}, {"agg": "sum", "path": "num"}],
                   "group_by": "nested.tag", "order_desc_by": 0, "limit": 5}"#;
    let wire_rows = match client.query(spec).unwrap() {
        Frame::Array(rows) => rows,
        other => panic!("QUERY must return an array, got {other:?}"),
    };
    let oracle_query = Query::new()
        .aggregate(Aggregate::Count)
        .aggregate(Aggregate::Sum("num".into()))
        .group_by("nested.tag")
        .order_desc_by(0)
        .with_limit(5);
    let oracle_rows = oracle
        .query("oracle", &oracle_query, ExecMode::Compiled)
        .unwrap();
    assert_eq!(wire_rows.len(), oracle_rows.len());
    for (wire_row, oracle_row) in wire_rows.iter().zip(oracle_rows.iter()) {
        let parsed = parse_json(wire_row.as_text().expect("row is bulk JSON")).unwrap();
        assert_eq!(
            parsed.get_field("group"),
            Some(oracle_row.group.as_ref().unwrap_or(&Value::Null))
        );
        assert_eq!(
            parsed.get_field("aggs"),
            Some(&Value::Array(oracle_row.aggs.clone()))
        );
    }

    // Filtered query differential (interpreted mode, filter pushdown).
    let spec = r#"{"select": [{"agg": "count"}],
                   "filter": {"and": [{"ge": {"path": "num", "value": 100}},
                                      {"exists": "nested.tag"}]},
                   "mode": "interpreted"}"#;
    let wire_rows = match client.query(spec).unwrap() {
        Frame::Array(rows) => rows,
        other => panic!("QUERY must return an array, got {other:?}"),
    };
    let oracle_query = Query::new()
        .aggregate(Aggregate::Count)
        .with_filter(Expr::and([
            Expr::ge("num", Value::Int(100)),
            Expr::exists("nested.tag"),
        ]));
    let oracle_rows = oracle
        .query("oracle", &oracle_query, ExecMode::Interpreted)
        .unwrap();
    let parsed = parse_json(wire_rows[0].as_text().unwrap()).unwrap();
    assert_eq!(
        parsed.get_field("aggs"),
        Some(&Value::Array(oracle_rows[0].aggs.clone()))
    );
}

#[test]
fn shutdown_drains_acknowledged_writes_to_durable_storage() {
    let dir = testkit::TempDir::new("server-tests", "shutdown-drain");

    let config = ServerConfig {
        durability_dir: Some(dir.to_path_buf()),
        shards: 2,
        sync_every: 8,
        ..ServerConfig::default()
    };
    let handle = Server::start(config).unwrap();
    let addr = handle.addr();

    // Every key any client acknowledged (MSET replied) and every key issued.
    let acked = Mutex::new(Vec::<i64>::new());
    let issued_watermark: Vec<AtomicI64> = (0..CONNECTIONS).map(|_| AtomicI64::new(-1)).collect();

    std::thread::scope(|scope| {
        for (conn, watermark) in issued_watermark.iter().enumerate() {
            let acked = &acked;
            scope.spawn(move || {
                let mut client = match RespClient::connect(addr) {
                    Ok(c) => c,
                    Err(_) => return,
                };
                let base = conn as i64 * STRIDE;
                // Stream batches until the server goes away mid-stream.
                for batch in 0..i64::MAX {
                    let lo = base + batch * 4;
                    watermark.store(lo + 3, Ordering::SeqCst);
                    let pairs: Vec<(String, String)> = (lo..lo + 4)
                        .map(|k| (k.to_string(), doc_json(k, 1)))
                        .collect();
                    let borrowed: Vec<(&str, &str)> = pairs
                        .iter()
                        .map(|(k, d)| (k.as_str(), d.as_str()))
                        .collect();
                    match client.mset(&borrowed) {
                        Ok(Frame::Integer(4)) => {
                            acked.lock().unwrap().extend(lo..lo + 4);
                        }
                        Ok(other) => panic!("unexpected MSET reply {other:?}"),
                        Err(_) => return, // server shut down mid-stream
                    }
                    if batch > 10_000 {
                        panic!("shutdown never arrived");
                    }
                }
            });
        }
        // Let the writers get going, then shut down over the wire.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let mut admin = RespClient::connect(addr).unwrap();
        assert_eq!(admin.shutdown().unwrap(), Frame::Simple("OK".into()));
    });
    drop(handle); // join the accept thread; store synced

    // Reopen: recovered keys ⊇ acknowledged keys, ⊆ issued keys.
    // (open_dataset recovers WAL-only state; the workload may never have
    // flushed a component.)
    let mut store = Datastore::new();
    store
        .open_dataset("default", &dir, DatasetOptions::new(Layout::Amax).shards(2))
        .unwrap();
    let mut recovered = std::collections::HashSet::new();
    for entry in store.scan_cursor("default", None).unwrap() {
        let (key, _) = entry.unwrap();
        match key {
            Value::Int(k) => {
                recovered.insert(k);
            }
            other => panic!("unexpected key {other:?}"),
        }
    }
    let acked = acked.into_inner().unwrap();
    assert!(!acked.is_empty(), "no batch was ever acknowledged");
    for key in &acked {
        assert!(
            recovered.contains(key),
            "acknowledged key {key} lost after reopen ({} acked, {} recovered)",
            acked.len(),
            recovered.len()
        );
    }
    for key in &recovered {
        let conn = (key / STRIDE) as usize;
        assert!(
            *key <= issued_watermark[conn].load(Ordering::SeqCst),
            "recovered key {key} was never issued"
        );
    }
}

#[test]
fn wire_metrics_match_client_side_counts_exactly() {
    let handle = Server::start(test_config()).unwrap();
    let mut client = RespClient::connect(handle.addr()).unwrap();

    const SETS: i64 = 5;
    const GETS: i64 = 3;
    const DELS: i64 = 2;
    const PINGS: i64 = 4;
    for i in 0..SETS {
        client.set(&i.to_string(), &doc_json(i, 1)).unwrap();
    }
    for i in 0..GETS {
        client.get(&i.to_string()).unwrap();
    }
    for i in 0..DELS {
        client.del(&[&i.to_string()]).unwrap();
    }
    for _ in 0..PINGS {
        client.ping().unwrap();
    }
    client.query(r#"{"select": [{"agg": "count"}]}"#).unwrap();
    client.command(&["BOGUS"]).unwrap(); // one error, one 'other'

    let reply = client.metrics("JSON").unwrap();
    let snap = parse_json(reply.as_text().expect("METRICS JSON is bulk text")).unwrap();
    let counter = |name: &str| -> i64 {
        let counters = snap.get_field("counters").expect("counters object");
        counters
            .get_field(name)
            .unwrap_or_else(|| panic!("counter {name} missing: {}", to_json(&snap)))
            .as_int()
            .expect("counter is an integer")
    };
    assert_eq!(counter("server.requests.set"), SETS);
    assert_eq!(counter("server.requests.get"), GETS);
    assert_eq!(counter("server.requests.del"), DELS);
    assert_eq!(counter("server.requests.ping"), PINGS);
    assert_eq!(counter("server.requests.query"), 1);
    assert_eq!(counter("server.requests.other"), 1);
    assert_eq!(counter("server.errors"), 1);
    // The METRICS request itself is counted before it renders the snapshot.
    assert_eq!(counter("server.requests.metrics"), 1);
    assert_eq!(
        counter("server.requests"),
        SETS + GETS + DELS + PINGS + 1 + 1 + 1
    );

    // The server-side registry agrees with the wire.
    assert_eq!(handle.metrics().requests_for(CommandKind::Set), SETS as u64);
    assert_eq!(handle.metrics().requests_for(CommandKind::Other), 1);

    // Engine metrics are in the same snapshot (merged view).
    assert!(
        snap.get_field("dataset").is_some(),
        "engine snapshot fields missing: {}",
        to_json(&snap)
    );
}

#[test]
fn scan_streams_in_key_order_with_bounded_staleness() {
    let handle = Server::start(test_config()).unwrap();
    let mut writer = RespClient::connect(handle.addr()).unwrap();
    let n: i64 = if cfg!(debug_assertions) { 120 } else { 600 };
    let pairs: Vec<(String, String)> = (0..n).map(|k| (k.to_string(), doc_json(k, 1))).collect();
    for chunk in pairs.chunks(50) {
        let borrowed: Vec<(&str, &str)> = chunk
            .iter()
            .map(|(k, d)| (k.as_str(), d.as_str()))
            .collect();
        writer.mset(&borrowed).unwrap();
    }

    // Chunked scan with writes landing between chunks.
    let mut scanner = RespClient::connect(handle.addr()).unwrap();
    let (mut cursor, first) = scanner.scan_step(0, 10).unwrap();
    assert_eq!(first.len(), 10);
    let mut seen: Vec<i64> = first
        .iter()
        .map(|(k, _)| k.parse::<i64>().unwrap())
        .collect();

    // A delete behind the scan position, an update and an insert ahead of it.
    writer.del(&["3"]).unwrap();
    writer.set("500000", &doc_json(500_000, 7)).unwrap();
    writer
        .set(&(n - 1).to_string(), &doc_json(n - 1, 7))
        .unwrap();

    let mut updated_seen = false;
    let mut inserted_seen = false;
    while cursor != 0 {
        let (next, chunk) = scanner.scan_step(cursor, 10).unwrap();
        cursor = next;
        for (key, doc) in &chunk {
            let key: i64 = key.parse().unwrap();
            seen.push(key);
            let doc = parse_json(doc).unwrap();
            if key == 500_000 {
                inserted_seen = true;
                assert_eq!(doc.get_field("v"), Some(&Value::Int(7)));
            }
            if key == n - 1 {
                updated_seen = true;
                assert_eq!(
                    doc.get_field("v"),
                    Some(&Value::Int(7)),
                    "bounded staleness: refreshed cursor sees the update"
                );
            }
        }
    }
    assert!(
        seen.windows(2).all(|w| w[0] < w[1]),
        "keys must be strictly ascending"
    );
    assert!(
        inserted_seen,
        "insert ahead of the scan position must appear"
    );
    assert!(
        updated_seen,
        "update ahead of the scan position must be visible"
    );

    // Projection scans always carry the requested paths. (Projection is
    // physical I/O pruning: flushed columnar components read only the
    // projected columns' pages, while memtable-resident records arrive
    // whole — so absence of other fields is not asserted here.)
    let reply = scanner
        .command(&["SCAN", "0", "COUNT", "5", "PATHS", "nested.tag"])
        .unwrap();
    let entries = reply.as_array().unwrap()[1].as_array().unwrap();
    assert_eq!(entries.len(), 5);
    for entry in entries {
        let doc = parse_json(entry.as_array().unwrap()[1].as_text().unwrap()).unwrap();
        let tag = doc.get_field("nested").and_then(|n| n.get_field("tag"));
        assert!(
            matches!(tag, Some(Value::String(_))),
            "projected path must be present: {doc:?}"
        );
    }
}

#[test]
fn connections_over_the_cap_are_refused_until_a_slot_frees() {
    let config = ServerConfig {
        max_connections: 2,
        ..test_config()
    };
    let handle = Server::start(config).unwrap();
    let addr = handle.addr();

    let mut a = RespClient::connect(addr).unwrap();
    let mut b = RespClient::connect(addr).unwrap();
    assert_eq!(a.ping().unwrap(), Frame::Simple("PONG".into()));
    assert_eq!(b.ping().unwrap(), Frame::Simple("PONG".into()));

    // The third connection gets an error frame (or a closed socket).
    let mut c = RespClient::connect(addr).unwrap();
    match c.ping() {
        Ok(Frame::Error(msg)) => assert!(msg.contains("max connections"), "{msg}"),
        Ok(other) => panic!("over-cap connection must be refused, got {other:?}"),
        Err(_) => {} // refusal frame raced the close; either is a refusal
    }
    assert!(handle.metrics().connections_rejected.get() >= 1);

    // Free a slot; a new connection is (eventually) served.
    drop(a);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let mut d = RespClient::connect(addr).unwrap();
        if let Ok(Frame::Simple(p)) = d.ping() {
            assert_eq!(p, "PONG");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slot never freed after closing a connection"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}
