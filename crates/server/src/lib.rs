//! A RESP (redis-style) network front-end for the document store: TCP in,
//! documents, scans and analytical queries out.
//!
//! The crate is std-only — no async runtime. A [`Server`] owns a
//! [`docstore::Datastore`] and serves it with one thread per connection
//! (see [`server`] for the threading, backpressure and shutdown model);
//! [`RespClient`] is the matching minimal blocking client. The `server`
//! binary wraps [`Server`] with flags, and the bench crate's load
//! generator drives it for `BENCH_server.json`.
//!
//! ## Wire protocol
//!
//! Framing is RESP v2 (see [`resp`] for the grammar and the hardening
//! limits). Requests are arrays of bulk strings; inline `nc`-style text
//! lines also work. The command vocabulary:
//!
//! | command | reply | meaning |
//! |---------|-------|---------|
//! | `PING [msg]` | `+PONG` / echo | liveness probe |
//! | `SET key doc` | `+OK` | upsert a JSON document under a primary key |
//! | `GET key` | bulk JSON / null | point lookup |
//! | `DEL key [key ...]` | `:n` | delete; counts keys that existed |
//! | `MSET k1 d1 [k2 d2 ...]` | `:n` | group-committed batch ingest — the reply acknowledges a **durable** batch |
//! | `SCAN cursor [COUNT n] [PATHS p,...]` | `[next, [[key, doc], ...]]` | chunked key-ordered scan; `SCAN 0` opens, `next` = `0` ends; between chunks the server re-pins fresh snapshots (bounded staleness) |
//! | `QUERY spec` | array of bulk JSON rows | analytical query; [`queryspec`] documents the JSON spec grammar |
//! | `INFO` | bulk text | dataset name, shards, connection counts |
//! | `METRICS [TEXT\|JSON]` | bulk | engine metrics merged with the `server.*` wire metrics |
//! | `HEALTH` | bulk text | per-shard worker state, `ok`/`degraded` first line |
//! | `SHUTDOWN` | `+OK` | graceful drain: stop accepting, finish in-flight pipelines, sync the store |
//!
//! Keys are JSON atoms (`7`, `"alice"`, `2.5`); a bare word is taken as a
//! string key. Documents are JSON objects; the server stamps the primary
//! key into the dataset's key field. Errors come back as RESP error frames
//! (`-ERR ...`); malformed or over-limit frames get one error frame and the
//! connection closes (framing is lost at that point by definition).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod client;
pub mod metrics;
pub mod queryspec;
pub mod resp;
pub mod server;

pub use client::RespClient;
pub use metrics::{CommandKind, ServerMetrics};
pub use resp::{Frame, Limits, ProtocolError};
pub use server::{Server, ServerConfig, ServerError, ServerHandle};
