//! The TCP server: a std-only, thread-per-connection RESP front-end over a
//! [`Datastore`].
//!
//! ## Threading model
//!
//! [`Server::start`] opens (or creates) the dataset, binds the listener,
//! and spawns one **accept thread**. The accept thread runs a nonblocking
//! accept loop (sleeping a few milliseconds when idle so it notices the
//! shutdown flag promptly) and spawns one **connection thread** per
//! accepted socket, up to [`ServerConfig::max_connections`]; sockets over
//! the cap get an error frame and an immediate close. All threads share one
//! immutable [`Datastore`] (every data-plane operation takes `&self`; the
//! engine's shards do their own internal locking) and one
//! [`ServerMetrics`] registry.
//!
//! Every command runs on its connection thread. An `MSET` batch is
//! partitioned by shard and the partitions are ingested one after another
//! there, each fsynced per [`ServerConfig::sync_every`] on a durable store
//! (see [`docstore::ShardedDataset::ingest_batch`]).
//!
//! ## Pipelining and backpressure
//!
//! A connection thread reads into a growable buffer and services **every**
//! complete request buffered so far before reading again, so a pipeline of
//! N commands costs one read/write round, not N. Replies accumulate in an
//! output buffer that is flushed with a blocking `write_all` whenever it
//! crosses [`FLUSH_THRESHOLD`] (and at the end of every service round):
//! a slow reader therefore blocks its own connection thread — per-connection
//! backpressure — without growing the buffer and without affecting other
//! connections. Torn frames (a request split across reads at any byte
//! boundary) simply wait for more bytes; malformed or over-limit frames get
//! one error frame and the connection is closed, since framing is lost.
//!
//! ## Graceful shutdown
//!
//! `SHUTDOWN` (or [`ServerHandle::shutdown`]) sets a flag. The accept loop
//! stops accepting and each connection finishes the requests already
//! buffered, flushes its replies, and closes. The accept thread then joins
//! every connection thread and syncs the dataset, so **every acknowledged
//! write is durable** when [`ServerHandle::join`] returns: a reopened store
//! contains at least every write whose reply reached a client, and no write
//! nobody issued.

use std::collections::HashMap;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use docmodel::{parse_json, to_json, Path, Value};
use docstore::{DatasetOptions, Datastore, Layout, ShardedDataset};
use query::QueryRow;

use crate::metrics::{CommandKind, ServerMetrics};
use crate::queryspec::parse_query_spec;
use crate::resp::{self, Frame, Limits};

/// Flush the output buffer once it holds this many bytes, bounding
/// per-connection reply memory for large pipelines.
pub const FLUSH_THRESHOLD: usize = 64 << 10;

/// How long a connection thread blocks in `read` before re-checking the
/// shutdown flag.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Idle sleep of the nonblocking accept loop.
const ACCEPT_IDLE: Duration = Duration::from_millis(5);

/// Documents a single `SCAN` reply carries when no `COUNT` is given.
const DEFAULT_SCAN_COUNT: usize = 100;

/// Open streaming cursors one connection may hold.
const MAX_CURSORS_PER_CONNECTION: usize = 64;

/// Everything needed to start a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `"127.0.0.1:6399"` (port `0` picks a free one).
    pub addr: String,
    /// Dataset name served over the wire.
    pub dataset: String,
    /// Storage layout for a freshly created dataset.
    pub layout: Layout,
    /// Hash partitions of the dataset.
    pub shards: usize,
    /// Durability root: `Some(dir)` opens a durable dataset (WAL +
    /// manifests) under `dir`, `None` serves an in-memory store.
    pub durability_dir: Option<PathBuf>,
    /// Connections served concurrently; further ones are rejected with an
    /// error frame.
    pub max_connections: usize,
    /// RESP decoder hardening limits.
    pub limits: Limits,
    /// Primary-key field of ingested documents.
    pub key_field: String,
    /// Run flushes/merges on the store's background worker pool.
    pub background: bool,
    /// `MSET` group-commit interval: WAL fsync every this many records
    /// (and once per batch).
    pub sync_every: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            dataset: "default".to_string(),
            layout: Layout::Amax,
            shards: 4,
            durability_dir: None,
            max_connections: 64,
            limits: Limits::default(),
            key_field: "id".to_string(),
            background: false,
            sync_every: 64,
        }
    }
}

/// Why the server failed to start or serve.
#[derive(Debug)]
pub enum ServerError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Storage-engine failure.
    Store(docstore::Error),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "io: {e}"),
            ServerError::Store(e) => write!(f, "store: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> ServerError {
        ServerError::Io(e)
    }
}

impl From<docstore::Error> for ServerError {
    fn from(e: docstore::Error) -> ServerError {
        ServerError::Store(e)
    }
}

/// State shared by the accept thread and every connection thread.
struct Shared {
    store: Datastore,
    dataset: String,
    key_field: String,
    sync_every: usize,
    limits: Limits,
    metrics: ServerMetrics,
    shutdown: AtomicBool,
    max_connections: usize,
}

impl Shared {
    /// The handle of the served dataset, which every command addresses.
    fn dataset(&self) -> docstore::Result<&ShardedDataset> {
        self.store.dataset(&self.dataset)
    }
}

/// The server factory; see the module docs for the runtime model.
pub struct Server;

impl Server {
    /// Open (or create) the configured dataset, bind the listener, and
    /// spawn the accept thread. Returns immediately; the handle exposes the
    /// bound address and controls shutdown.
    pub fn start(config: ServerConfig) -> Result<ServerHandle, ServerError> {
        let mut store = Datastore::new();
        let options = DatasetOptions::new(config.layout)
            .key(config.key_field.clone())
            .shards(config.shards)
            .background(config.background);
        match &config.durability_dir {
            // open_dataset creates the directory on first use and recovers
            // it (manifest + WAL replay) on every later one.
            Some(dir) => store.open_dataset(&config.dataset, dir, options)?,
            None => store.create_dataset(&config.dataset, options)?,
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            store,
            dataset: config.dataset,
            key_field: config.key_field,
            sync_every: config.sync_every.max(1),
            limits: config.limits,
            metrics: ServerMetrics::new(),
            shutdown: AtomicBool::new(false),
            max_connections: config.max_connections.max(1),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("resp-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(ServerError::Io)?;
        Ok(ServerHandle { addr, shared, accept_thread: Some(accept_thread) })
    }
}

/// A running server: the bound address plus shutdown/join controls.
/// Dropping the handle shuts the server down and joins its threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared wire-metrics registry (test/bench introspection).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Request a graceful shutdown (idempotent, non-blocking): stop
    /// accepting, let connections drain, sync the store.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
    }

    /// Block until the accept thread (and with it every connection thread)
    /// has exited and the store is synced. Call [`ServerHandle::shutdown`]
    /// first, or wait for a wire `SHUTDOWN`.
    pub fn join(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                connections.retain(|h| !h.is_finished());
                if shared.metrics.active_connections() >= shared.max_connections as u64 {
                    shared.metrics.connections_rejected.incr();
                    reject(stream);
                    continue;
                }
                shared.metrics.connection_opened();
                let conn_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("resp-conn".to_string())
                    .spawn(move || serve_connection(stream, conn_shared));
                match spawned {
                    Ok(handle) => connections.push(handle),
                    Err(_) => shared.metrics.connection_closed(),
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_IDLE),
            Err(_) => std::thread::sleep(ACCEPT_IDLE),
        }
    }
    // Drain: connections notice the flag within one read timeout, finish
    // the requests they have buffered, flush, and exit.
    for handle in connections {
        let _ = handle.join();
    }
    // Every reply already reached (or is in the kernel buffer of) its
    // client; make the acknowledged writes durable.
    let _ = shared.dataset().and_then(ShardedDataset::sync);
}

/// Refuse a connection over the cap: one error frame, then close.
fn reject(mut stream: TcpStream) {
    let mut out = Vec::new();
    resp::encode(&Frame::error("max connections reached"), &mut out);
    let _ = stream.write_all(&out);
}

/// Per-connection command state: the open `SCAN` streams.
#[derive(Default)]
struct ConnState {
    cursors: HashMap<u64, docstore::DocCursor>,
    next_cursor_id: u64,
}

fn serve_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut conn = ConnState::default();
    let mut in_buf: Vec<u8> = Vec::new();
    let mut pos = 0usize;
    let mut out: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 << 10];
    'conn: loop {
        // Service every complete request already buffered (pipelining).
        loop {
            match resp::decode_request(&in_buf, pos, &shared.limits) {
                Ok(Some((args, next))) => {
                    pos = next;
                    if args.is_empty() {
                        continue; // blank inline line
                    }
                    let started = Instant::now();
                    let kind = CommandKind::classify(&args[0]);
                    shared.metrics.record_request(kind);
                    let reply = dispatch(&shared, &mut conn, kind, &args);
                    if matches!(reply, Frame::Error(_)) {
                        shared.metrics.errors.incr();
                    }
                    resp::encode(&reply, &mut out);
                    shared
                        .metrics
                        .record_latency(kind, started.elapsed().as_micros() as u64);
                    if out.len() >= FLUSH_THRESHOLD && flush(&mut stream, &mut out, &shared).is_err()
                    {
                        break 'conn;
                    }
                }
                Ok(None) => break, // torn frame: wait for more bytes
                Err(e) => {
                    // Framing is lost; reply once and close.
                    shared.metrics.errors.incr();
                    resp::encode(&Frame::error(e), &mut out);
                    let _ = flush(&mut stream, &mut out, &shared);
                    break 'conn;
                }
            }
        }
        if pos > 0 {
            in_buf.drain(..pos);
            pos = 0;
        }
        if flush(&mut stream, &mut out, &shared).is_err() {
            break;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            break; // buffered requests were drained and flushed above
        }
        match stream.read(&mut chunk) {
            Ok(0) => break, // peer closed
            Ok(n) => {
                shared.metrics.bytes_in.add(n as u64);
                in_buf.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => break,
        }
    }
    shared.metrics.connection_closed();
}

/// Blocking flush of the reply buffer — this is where a slow reader
/// backpressures its connection.
fn flush(stream: &mut TcpStream, out: &mut Vec<u8>, shared: &Shared) -> std::io::Result<()> {
    if out.is_empty() {
        return Ok(());
    }
    stream.write_all(out)?;
    shared.metrics.bytes_out.add(out.len() as u64);
    out.clear();
    Ok(())
}

/// Route one request to its command handler. Never panics: every failure
/// becomes an error frame.
fn dispatch(shared: &Shared, conn: &mut ConnState, kind: CommandKind, args: &[Vec<u8>]) -> Frame {
    match kind {
        CommandKind::Ping => match args.len() {
            1 => Frame::Simple("PONG".to_string()),
            2 => Frame::Bulk(args[1].clone()),
            _ => arity_error("PING"),
        },
        CommandKind::Set => cmd_set(shared, args),
        CommandKind::Get => cmd_get(shared, args),
        CommandKind::Del => cmd_del(shared, args),
        CommandKind::Mset => cmd_mset(shared, args),
        CommandKind::Scan => cmd_scan(shared, conn, args),
        CommandKind::Query => cmd_query(shared, args),
        CommandKind::Info => cmd_info(shared),
        CommandKind::Metrics => cmd_metrics(shared, args),
        CommandKind::Health => cmd_health(shared),
        CommandKind::Shutdown => {
            shared.shutdown.store(true, Ordering::Release);
            Frame::Simple("OK".to_string())
        }
        CommandKind::Other => Frame::error(format!(
            "unknown command '{}'",
            String::from_utf8_lossy(&args[0])
        )),
    }
}

fn arity_error(cmd: &str) -> Frame {
    Frame::error(format!("wrong number of arguments for '{cmd}'"))
}

/// Parse a wire key: a JSON atom (`7`, `"x"`, `2.5`, `true`) or, as a
/// convenience, a bare word taken as a string key.
fn parse_key(raw: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(raw).map_err(|_| "key must be UTF-8".to_string())?;
    match parse_json(text) {
        Ok(v) if v.is_atomic() && !v.is_null() => Ok(v),
        Ok(_) => Err(format!("key must be an atomic non-null value, got {text}")),
        Err(_) => Ok(Value::String(text.to_string())),
    }
}

/// Parse a document body and stamp the primary key into its key field
/// (inserted if absent, overwritten if it disagrees).
fn parse_doc(shared: &Shared, key: &Value, raw: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(raw).map_err(|_| "document must be UTF-8".to_string())?;
    let mut doc = parse_json(text).map_err(|e| format!("invalid JSON document: {e}"))?;
    match &mut doc {
        Value::Object(_) => {
            doc.set_field(shared.key_field.clone(), key.clone());
            Ok(doc)
        }
        _ => Err("document must be a JSON object".to_string()),
    }
}

fn cmd_set(shared: &Shared, args: &[Vec<u8>]) -> Frame {
    if args.len() != 3 {
        return arity_error("SET");
    }
    let key = match parse_key(&args[1]) {
        Ok(k) => k,
        Err(e) => return Frame::error(e),
    };
    let doc = match parse_doc(shared, &key, &args[2]) {
        Ok(d) => d,
        Err(e) => return Frame::error(e),
    };
    match shared.dataset().and_then(|dataset| dataset.insert(doc)) {
        Ok(()) => Frame::Simple("OK".to_string()),
        Err(e) => Frame::error(e),
    }
}

fn cmd_get(shared: &Shared, args: &[Vec<u8>]) -> Frame {
    if args.len() != 2 {
        return arity_error("GET");
    }
    let key = match parse_key(&args[1]) {
        Ok(k) => k,
        Err(e) => return Frame::error(e),
    };
    match shared.dataset().and_then(|dataset| dataset.get(&key)) {
        Ok(Some(doc)) => Frame::bulk(to_json(&doc)),
        Ok(None) => Frame::Null,
        Err(e) => Frame::error(e),
    }
}

fn cmd_del(shared: &Shared, args: &[Vec<u8>]) -> Frame {
    if args.len() < 2 {
        return arity_error("DEL");
    }
    let dataset = match shared.dataset() {
        Ok(d) => d,
        Err(e) => return Frame::error(e),
    };
    let mut deleted = 0i64;
    for raw in &args[1..] {
        let key = match parse_key(raw) {
            Ok(k) => k,
            Err(e) => return Frame::error(e),
        };
        // Match redis semantics: count only keys that existed.
        match dataset.get(&key) {
            Ok(Some(_)) => match dataset.delete(key) {
                Ok(()) => deleted += 1,
                Err(e) => return Frame::error(e),
            },
            Ok(None) => {}
            Err(e) => return Frame::error(e),
        }
    }
    Frame::Integer(deleted)
}

fn cmd_mset(shared: &Shared, args: &[Vec<u8>]) -> Frame {
    if args.len() < 3 || args.len() % 2 != 1 {
        return arity_error("MSET");
    }
    let mut docs = Vec::with_capacity((args.len() - 1) / 2);
    for pair in args[1..].chunks_exact(2) {
        let key = match parse_key(&pair[0]) {
            Ok(k) => k,
            Err(e) => return Frame::error(e),
        };
        match parse_doc(shared, &key, &pair[1]) {
            Ok(d) => docs.push(d),
            Err(e) => return Frame::error(e),
        }
    }
    let n = docs.len() as i64;
    // Group commit: per shard, the batch's WAL frames go to the OS in one
    // write per commit group, fsynced every sync_every records and once at
    // the end, so the reply acknowledges a durable batch (an error
    // acknowledges none of it). The shards are written one after another
    // on this thread.
    match shared
        .dataset()
        .and_then(|dataset| dataset.ingest_batch(docs, shared.sync_every))
    {
        Ok(_) => Frame::Integer(n),
        Err(e) => Frame::error(e),
    }
}

fn cmd_scan(shared: &Shared, conn: &mut ConnState, args: &[Vec<u8>]) -> Frame {
    if args.len() < 2 {
        return arity_error("SCAN");
    }
    let cursor_arg = match std::str::from_utf8(&args[1]).ok().and_then(|t| t.parse::<u64>().ok()) {
        Some(id) => id,
        None => return Frame::error("cursor must be a non-negative integer"),
    };
    let mut count = DEFAULT_SCAN_COUNT;
    let mut paths: Option<Vec<Path>> = None;
    let mut rest = args[2..].iter();
    while let Some(opt) = rest.next() {
        match opt.to_ascii_uppercase().as_slice() {
            b"COUNT" => {
                count = match rest
                    .next()
                    .and_then(|v| std::str::from_utf8(v).ok())
                    .and_then(|t| t.parse::<usize>().ok())
                    .filter(|n| *n > 0)
                {
                    Some(n) => n,
                    None => return Frame::error("COUNT needs a positive integer"),
                };
            }
            b"PATHS" => {
                let spec = match rest.next().and_then(|v| std::str::from_utf8(v).ok()) {
                    Some(s) => s,
                    None => return Frame::error("PATHS needs a comma-separated path list"),
                };
                paths = Some(spec.split(',').map(Path::parse).collect());
            }
            other => {
                return Frame::error(format!(
                    "unknown SCAN option '{}'",
                    String::from_utf8_lossy(other)
                ))
            }
        }
    }
    let dataset = match shared.dataset() {
        Ok(d) => d,
        Err(e) => return Frame::error(e),
    };
    let (id, mut cursor) = if cursor_arg == 0 {
        if conn.cursors.len() >= MAX_CURSORS_PER_CONNECTION {
            return Frame::error("too many open cursors on this connection");
        }
        conn.next_cursor_id += 1;
        let cursor = match dataset.cursor(paths.as_deref()) {
            Ok(c) => c,
            Err(e) => return Frame::error(e),
        };
        (conn.next_cursor_id, cursor)
    } else {
        if paths.is_some() {
            return Frame::error("PATHS is only valid when opening a cursor (SCAN 0)");
        }
        match conn.cursors.remove(&cursor_arg) {
            Some(mut cursor) => {
                // Bounded staleness: re-pin fresh snapshots between chunks
                // so a slow stream doesn't hold retired components alive.
                if let Err(e) = cursor.refresh(dataset) {
                    return Frame::error(e);
                }
                (cursor_arg, cursor)
            }
            None => return Frame::error(format!("no open cursor {cursor_arg}")),
        }
    };
    let mut items = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        match cursor.next() {
            Some(Ok((key, doc))) => items.push(Frame::Array(vec![
                Frame::bulk(to_json(&key)),
                Frame::bulk(to_json(&doc)),
            ])),
            Some(Err(e)) => return Frame::error(e),
            None => {
                // Exhausted: cursor id 0 tells the client the stream ended.
                return Frame::Array(vec![Frame::bulk("0"), Frame::Array(items)]);
            }
        }
    }
    conn.cursors.insert(id, cursor);
    Frame::Array(vec![Frame::bulk(id.to_string()), Frame::Array(items)])
}

/// Render one query result row as the wire JSON `{"group": ..., "aggs": [...]}`.
fn row_to_json(row: &QueryRow) -> String {
    let mut obj = Value::empty_object();
    obj.set_field("group", row.group.clone().unwrap_or(Value::Null));
    obj.set_field("aggs", Value::Array(row.aggs.clone()));
    to_json(&obj)
}

fn cmd_query(shared: &Shared, args: &[Vec<u8>]) -> Frame {
    if args.len() != 2 {
        return arity_error("QUERY");
    }
    let text = match std::str::from_utf8(&args[1]) {
        Ok(t) => t,
        Err(_) => return Frame::error("query spec must be UTF-8"),
    };
    let spec = match parse_json(text) {
        Ok(v) => v,
        Err(e) => return Frame::error(format!("invalid query spec JSON: {e}")),
    };
    let (query, mode) = match parse_query_spec(&spec) {
        Ok(parsed) => parsed,
        Err(e) => return Frame::error(e),
    };
    match shared
        .dataset()
        .and_then(|dataset| dataset.query(&query, mode))
    {
        Ok(rows) => Frame::Array(rows.iter().map(|r| Frame::bulk(row_to_json(r))).collect()),
        Err(e) => Frame::error(e),
    }
}

fn cmd_info(shared: &Shared) -> Frame {
    let dataset = shared.dataset();
    let mut text = String::new();
    text.push_str(&format!("dataset:{}\n", shared.dataset));
    text.push_str(&format!("key_field:{}\n", shared.key_field));
    if let Ok(ds) = dataset {
        text.push_str(&format!("shards:{}\n", ds.shard_count()));
        text.push_str(&format!("stored_bytes:{}\n", ds.total_stored_bytes()));
    }
    text.push_str(&format!(
        "connections_active:{}\n",
        shared.metrics.active_connections()
    ));
    text.push_str(&format!(
        "connections_accepted:{}\n",
        shared.metrics.connections_accepted.get()
    ));
    text.push_str(&format!("requests:{}\n", shared.metrics.requests.get()));
    Frame::bulk(text)
}

fn cmd_metrics(shared: &Shared, args: &[Vec<u8>]) -> Frame {
    let mut snap = match shared.dataset().map(ShardedDataset::metrics) {
        Ok(s) => s,
        Err(e) => return Frame::error(e),
    };
    shared.metrics.augment(&mut snap);
    let format = args.get(1).map(|a| a.to_ascii_uppercase());
    match format.as_deref() {
        None | Some(b"TEXT") => Frame::bulk(snap.to_text()),
        Some(b"JSON") => Frame::bulk(snap.to_json()),
        Some(other) => Frame::error(format!(
            "unknown METRICS format '{}' (TEXT or JSON)",
            String::from_utf8_lossy(other)
        )),
    }
}

fn cmd_health(shared: &Shared) -> Frame {
    let dataset = match shared.dataset() {
        Ok(d) => d,
        Err(e) => return Frame::error(e),
    };
    let mut text = String::new();
    let mut degraded = false;
    for (i, health) in dataset.health().iter().enumerate() {
        let state = format!("{:?}", health.worker);
        if health.last_error.is_some() {
            degraded = true;
        }
        text.push_str(&format!(
            "shard-{i:03}:{} pending={} stalls={}{}\n",
            state.to_lowercase(),
            health.pending_maintenance,
            health.stalls,
            match &health.last_error {
                Some(e) => format!(" last_error={e}"),
                None => String::new(),
            }
        ));
    }
    let mut reply = String::new();
    reply.push_str(if degraded { "degraded\n" } else { "ok\n" });
    reply.push_str(&text);
    Frame::bulk(reply)
}
