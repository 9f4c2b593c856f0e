//! Wire-level telemetry: the `server.*` metric family.
//!
//! One [`ServerMetrics`] registry per server, shared by every connection
//! thread (all counters are the telemetry crate's relaxed atomics, so the
//! hot path pays a handful of `fetch_add`s per request). The registry folds
//! into the dataset's [`MetricsSnapshot`] — `METRICS` over the wire returns
//! one merged snapshot covering both the storage engine and the network
//! front-end:
//!
//! | metric | kind | meaning |
//! |--------|------|---------|
//! | `server.connections_accepted` | counter | connections ever accepted |
//! | `server.connections_rejected` | counter | connections refused at the cap |
//! | `server.connections_active`   | gauge   | currently open connections |
//! | `server.requests`             | counter | requests dispatched (all commands) |
//! | `server.errors`               | counter | error frames sent (incl. protocol errors) |
//! | `server.bytes_in` / `server.bytes_out` | counters | wire bytes read / written |
//! | `server.requests.<cmd>`       | counter | per-command request count |
//! | `server.latency.<cmd>_micros` | histogram | per-command service latency |
//!
//! Per-command counters exist for exactly the commands the server speaks
//! (see [`CommandKind`]); unknown commands land in `other`.
//!
//! The merged snapshot also carries the storage side's families — among
//! them the decoded-leaf cache's `cache.hits` / `cache.misses` /
//! `cache.evictions` counters, which the readers count in the shards'
//! `IoStats`, and the `cache.resident_bytes` / `cache.budget_bytes` /
//! `cache.resident_leaves` gauges of the shared cache (an entry is a leaf),
//! present when the served dataset was configured with a memory budget.

use std::sync::atomic::{AtomicU64, Ordering};

use telemetry::{Counter, Histogram, MetricsSnapshot};

/// The command vocabulary, used to index the per-command counters and
/// latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// `SET key doc` — document put.
    Set,
    /// `GET key` — point lookup.
    Get,
    /// `DEL key [key ...]` — point delete(s).
    Del,
    /// `MSET key doc [key doc ...]` — group-committed batch ingest.
    Mset,
    /// `SCAN cursor [COUNT n] [PATHS p,...]` — chunked streaming scan.
    Scan,
    /// `QUERY spec-json` — analytical query.
    Query,
    /// `INFO` — server facts.
    Info,
    /// `METRICS [TEXT|JSON]` — merged metrics snapshot.
    Metrics,
    /// `HEALTH` — per-shard health.
    Health,
    /// `PING [msg]` — liveness probe.
    Ping,
    /// `SHUTDOWN` — graceful drain.
    Shutdown,
    /// Anything the server does not understand.
    Other,
}

/// All command kinds, in rendering order.
pub const COMMAND_KINDS: [CommandKind; 12] = [
    CommandKind::Set,
    CommandKind::Get,
    CommandKind::Del,
    CommandKind::Mset,
    CommandKind::Scan,
    CommandKind::Query,
    CommandKind::Info,
    CommandKind::Metrics,
    CommandKind::Health,
    CommandKind::Ping,
    CommandKind::Shutdown,
    CommandKind::Other,
];

impl CommandKind {
    /// Classify a (case-insensitive) command name.
    pub fn classify(name: &[u8]) -> CommandKind {
        let mut upper = [0u8; 16];
        if name.is_empty() || name.len() > upper.len() {
            return CommandKind::Other;
        }
        for (dst, src) in upper.iter_mut().zip(name) {
            *dst = src.to_ascii_uppercase();
        }
        match &upper[..name.len()] {
            b"SET" => CommandKind::Set,
            b"GET" => CommandKind::Get,
            b"DEL" => CommandKind::Del,
            b"MSET" => CommandKind::Mset,
            b"SCAN" => CommandKind::Scan,
            b"QUERY" => CommandKind::Query,
            b"INFO" => CommandKind::Info,
            b"METRICS" => CommandKind::Metrics,
            b"HEALTH" => CommandKind::Health,
            b"PING" => CommandKind::Ping,
            b"SHUTDOWN" => CommandKind::Shutdown,
            _ => CommandKind::Other,
        }
    }

    /// Stable lowercase label used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            CommandKind::Set => "set",
            CommandKind::Get => "get",
            CommandKind::Del => "del",
            CommandKind::Mset => "mset",
            CommandKind::Scan => "scan",
            CommandKind::Query => "query",
            CommandKind::Info => "info",
            CommandKind::Metrics => "metrics",
            CommandKind::Health => "health",
            CommandKind::Ping => "ping",
            CommandKind::Shutdown => "shutdown",
            CommandKind::Other => "other",
        }
    }

    fn index(self) -> usize {
        COMMAND_KINDS.iter().position(|k| *k == self).expect("kind listed")
    }
}

/// The server-wide wire metrics registry (see the module docs for the
/// metric family it exports).
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections ever accepted.
    pub connections_accepted: Counter,
    /// Connections refused because the cap was reached.
    pub connections_rejected: Counter,
    /// Currently open connections.
    active: AtomicU64,
    /// Requests dispatched, all commands.
    pub requests: Counter,
    /// Error frames sent (command errors and protocol errors).
    pub errors: Counter,
    /// Bytes read off sockets.
    pub bytes_in: Counter,
    /// Bytes written to sockets.
    pub bytes_out: Counter,
    per_command: [Counter; COMMAND_KINDS.len()],
    latency: [Histogram; COMMAND_KINDS.len()],
}

impl ServerMetrics {
    /// A zeroed registry.
    pub fn new() -> ServerMetrics {
        ServerMetrics::default()
    }

    /// A connection opened.
    pub fn connection_opened(&self) {
        self.connections_accepted.incr();
        self.active.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection closed.
    pub fn connection_closed(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Currently open connections.
    pub fn active_connections(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }

    /// Count a dispatched request of the given kind.
    pub fn record_request(&self, kind: CommandKind) {
        self.requests.incr();
        self.per_command[kind.index()].incr();
    }

    /// Record a request's service latency.
    pub fn record_latency(&self, kind: CommandKind, micros: u64) {
        self.latency[kind.index()].record(micros);
    }

    /// Requests dispatched for one command kind.
    pub fn requests_for(&self, kind: CommandKind) -> u64 {
        self.per_command[kind.index()].get()
    }

    /// Fold the `server.*` family into a dataset metrics snapshot (the
    /// `METRICS` command's merged view). Counters and histograms append
    /// under their `server.`-prefixed names; the active-connection count
    /// lands as a gauge.
    pub fn augment(&self, snap: &mut MetricsSnapshot) {
        snap.push_counter("server.connections_accepted", self.connections_accepted.get());
        snap.push_counter("server.connections_rejected", self.connections_rejected.get());
        snap.push_counter("server.requests", self.requests.get());
        snap.push_counter("server.errors", self.errors.get());
        snap.push_counter("server.bytes_in", self.bytes_in.get());
        snap.push_counter("server.bytes_out", self.bytes_out.get());
        snap.push_gauge("server.connections_active", self.active.load(Ordering::Relaxed) as f64);
        for kind in COMMAND_KINDS {
            let count = self.per_command[kind.index()].get();
            let hist = self.latency[kind.index()].snapshot();
            // Untouched commands stay out of the snapshot to keep it tight.
            if count > 0 {
                snap.push_counter(&format!("server.requests.{}", kind.label()), count);
            }
            if hist.count > 0 {
                snap.histograms
                    .push((format!("server.latency.{}_micros", kind.label()), hist));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_is_case_insensitive_and_total() {
        assert_eq!(CommandKind::classify(b"set"), CommandKind::Set);
        assert_eq!(CommandKind::classify(b"ShUtDoWn"), CommandKind::Shutdown);
        assert_eq!(CommandKind::classify(b"FLUSHALL"), CommandKind::Other);
        assert_eq!(CommandKind::classify(b""), CommandKind::Other);
        assert_eq!(CommandKind::classify(&[0xff; 32]), CommandKind::Other);
    }

    #[test]
    fn augment_exports_the_server_family() {
        let m = ServerMetrics::new();
        m.connection_opened();
        m.record_request(CommandKind::Set);
        m.record_request(CommandKind::Set);
        m.record_request(CommandKind::Query);
        m.record_latency(CommandKind::Set, 120);
        m.bytes_in.add(64);
        m.bytes_out.add(128);

        let mut snap = MetricsSnapshot { dataset: "d".into(), shards: 1, ..Default::default() };
        m.augment(&mut snap);
        assert_eq!(snap.counter("server.requests"), 3);
        assert_eq!(snap.counter("server.requests.set"), 2);
        assert_eq!(snap.counter("server.requests.query"), 1);
        assert_eq!(snap.counter("server.requests.get"), 0, "untouched command absent");
        assert_eq!(snap.gauge("server.connections_active"), Some(1.0));
        assert_eq!(snap.histogram("server.latency.set_micros").unwrap().count, 1);
        assert!(snap.histogram("server.latency.query_micros").is_none());

        m.connection_closed();
        let mut snap = MetricsSnapshot::default();
        m.augment(&mut snap);
        assert_eq!(snap.gauge("server.connections_active"), Some(0.0));
    }
}
