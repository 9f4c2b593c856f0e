//! A minimal blocking RESP client: one TCP connection, synchronous
//! request/reply, plus explicit pipelining (send N requests in one write,
//! then read N replies). Used by the integration tests, the quickstart
//! example, and the load-generator benchmark.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::resp::{self, Frame, Limits};

/// A blocking RESP connection.
pub struct RespClient {
    stream: TcpStream,
    limits: Limits,
    /// Unparsed reply bytes (a read may return more than one reply).
    buf: Vec<u8>,
    pos: usize,
}

impl RespClient {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<RespClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(RespClient { stream, limits: Limits::default(), buf: Vec::new(), pos: 0 })
    }

    /// Bound how long reads may block before erroring out.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Issue one command and wait for its reply.
    pub fn command<A: AsRef<[u8]>>(&mut self, args: &[A]) -> std::io::Result<Frame> {
        let mut wire = Vec::new();
        resp::encode_request(args, &mut wire);
        self.stream.write_all(&wire)?;
        self.read_reply()
    }

    /// Pipeline: write every request in one burst, then collect exactly one
    /// reply per request, in order.
    pub fn pipeline<A: AsRef<[u8]>>(
        &mut self,
        requests: &[Vec<A>],
    ) -> std::io::Result<Vec<Frame>> {
        let mut wire = Vec::new();
        for args in requests {
            resp::encode_request(args, &mut wire);
        }
        self.stream.write_all(&wire)?;
        let mut replies = Vec::with_capacity(requests.len());
        for _ in 0..requests.len() {
            replies.push(self.read_reply()?);
        }
        Ok(replies)
    }

    /// Read one complete reply frame, buffering torn frames across reads.
    fn read_reply(&mut self) -> std::io::Result<Frame> {
        let mut chunk = [0u8; 16 << 10];
        loop {
            match resp::decode(&self.buf, self.pos, &self.limits) {
                Ok(Some((frame, next))) => {
                    self.pos = next;
                    if self.pos == self.buf.len() {
                        self.buf.clear();
                        self.pos = 0;
                    }
                    return Ok(frame);
                }
                Ok(None) => {}
                Err(e) => {
                    return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e))
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-reply",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    // ---- convenience wrappers -------------------------------------------

    /// `PING`.
    pub fn ping(&mut self) -> std::io::Result<Frame> {
        self.command(&["PING"])
    }

    /// `SET key doc` — document put; `doc` is a JSON object.
    pub fn set(&mut self, key: &str, doc: &str) -> std::io::Result<Frame> {
        self.command(&["SET", key, doc])
    }

    /// `GET key` — `Bulk(json)` for a hit, `Null` for a miss.
    pub fn get(&mut self, key: &str) -> std::io::Result<Frame> {
        self.command(&["GET", key])
    }

    /// `DEL key...` — `Integer(existing keys deleted)`.
    pub fn del(&mut self, keys: &[&str]) -> std::io::Result<Frame> {
        let mut args = vec!["DEL"];
        args.extend_from_slice(keys);
        self.command(&args)
    }

    /// `MSET k1 d1 k2 d2 ...` — group-committed batch ingest;
    /// `Integer(records)` acknowledges a durable batch.
    pub fn mset(&mut self, pairs: &[(&str, &str)]) -> std::io::Result<Frame> {
        let mut args = vec!["MSET".to_string()];
        for (k, d) in pairs {
            args.push((*k).to_string());
            args.push((*d).to_string());
        }
        self.command(&args)
    }

    /// `QUERY spec` — see [`crate::queryspec`] for the spec grammar.
    pub fn query(&mut self, spec: &str) -> std::io::Result<Frame> {
        self.command(&["QUERY", spec])
    }

    /// One `SCAN` step. Returns `(next_cursor, entries)` where entries are
    /// `(key_json, doc_json)` pairs and a zero `next_cursor` ends the scan.
    pub fn scan_step(
        &mut self,
        cursor: u64,
        count: usize,
    ) -> std::io::Result<(u64, Vec<(String, String)>)> {
        let reply =
            self.command(&["SCAN".to_string(), cursor.to_string(), "COUNT".into(), count.to_string()])?;
        parse_scan_reply(&reply)
    }

    /// Drain a full `SCAN` stream into `(key_json, doc_json)` pairs, one
    /// chunk of `count` documents per round trip.
    pub fn scan_all(&mut self, count: usize) -> std::io::Result<Vec<(String, String)>> {
        let mut entries = Vec::new();
        let mut cursor = 0u64;
        loop {
            let (next, mut chunk) = self.scan_step(cursor, count)?;
            entries.append(&mut chunk);
            if next == 0 {
                return Ok(entries);
            }
            cursor = next;
        }
    }

    /// `METRICS [TEXT|JSON]` — the merged engine + server snapshot.
    pub fn metrics(&mut self, format: &str) -> std::io::Result<Frame> {
        self.command(&["METRICS", format])
    }

    /// `HEALTH`.
    pub fn health(&mut self) -> std::io::Result<Frame> {
        self.command(&["HEALTH"])
    }

    /// `SHUTDOWN` — ask the server to drain and stop.
    pub fn shutdown(&mut self) -> std::io::Result<Frame> {
        self.command(&["SHUTDOWN"])
    }
}

/// Split a `SCAN` reply (`[cursor, [[key, doc], ...]]`) into its parts.
fn parse_scan_reply(reply: &Frame) -> std::io::Result<(u64, Vec<(String, String)>)> {
    let invalid = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    if let Frame::Error(e) = reply {
        return Err(std::io::Error::other(e.clone()));
    }
    let parts = reply.as_array().ok_or_else(|| invalid("SCAN reply is not an array"))?;
    let [cursor, entries] = parts else {
        return Err(invalid("SCAN reply must have two elements"));
    };
    let cursor = cursor
        .as_text()
        .and_then(|t| t.parse::<u64>().ok())
        .ok_or_else(|| invalid("SCAN cursor is not an integer"))?;
    let entries = entries.as_array().ok_or_else(|| invalid("SCAN entries are not an array"))?;
    let mut out = Vec::with_capacity(entries.len());
    for entry in entries {
        let pair = entry.as_array().ok_or_else(|| invalid("SCAN entry is not a pair"))?;
        let [key, doc] = pair else {
            return Err(invalid("SCAN entry must be a [key, doc] pair"));
        };
        let key = key.as_text().ok_or_else(|| invalid("SCAN key is not text"))?;
        let doc = doc.as_text().ok_or_else(|| invalid("SCAN doc is not text"))?;
        out.push((key.to_string(), doc.to_string()));
    }
    Ok((cursor, out))
}
