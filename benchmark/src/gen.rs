//! Seeded generation of every input: documents, key choice and op mix all
//! come from one PRNG seeded with `--seed`, and the engine only ever sees
//! what is generated here. Equal seeds give identical inputs.
//!
//! Op mixes are *stratified*: each block of ops holds the exact share of
//! every op kind in a seed-shuffled order, so the share of slow ops in a
//! time-boxed prefix does not drift from seed to seed.

use datagen::{generate_record, DatasetKind};
use docmodel::Value;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

pub type Prng = StdRng;

pub fn prng(seed: u64) -> Prng {
    StdRng::seed_from_u64(seed)
}

/// A generator for another thread or phase, seeded from the main one so
/// that the whole run still depends on `--seed` alone.
pub fn fork(rng: &mut Prng) -> Prng {
    StdRng::seed_from_u64(rng.next_u64())
}

/// `inserts` fresh `sensors` records (ids `0..inserts`) followed by
/// `upserts` regenerated records with uniformly random existing ids.
pub fn sensor_docs(rng: &mut Prng, inserts: usize, upserts: usize) -> Vec<Value> {
    let mut docs = Vec::with_capacity(inserts + upserts);
    for id in 0..inserts {
        docs.push(generate_record(DatasetKind::Sensors, id as i64, rng));
    }
    for _ in 0..upserts {
        let id = rng.gen_range(0..inserts as i64);
        docs.push(generate_record(DatasetKind::Sensors, id, rng));
    }
    docs
}

pub fn tweet_doc(rng: &mut Prng, id: i64) -> Value {
    generate_record(DatasetKind::Tweet2, id, rng)
}

pub fn tweet_docs(rng: &mut Prng, n: usize) -> Vec<Value> {
    (0..n as i64).map(|id| tweet_doc(rng, id)).collect()
}

/// `timestamp` of the `tweet_2` record with primary key `id`.
pub fn tweet_timestamp(id: i64) -> i64 {
    1_450_000_000_000 + id
}

/// `report_time` of the `sensors` record with primary key `id`.
pub fn sensor_report_time(id: i64) -> i64 {
    1_556_400_000_000 + id * 60_000
}

/// The latest version of every record, indexed by primary key (ids are
/// dense from 0): the model every read is checked against.
pub fn latest_by_id(docs: &[Value], ids: usize) -> Vec<Value> {
    let mut latest = vec![Value::Null; ids];
    for doc in docs {
        let id = doc
            .get_field("id")
            .and_then(Value::as_int)
            .expect("generated docs carry an integer id");
        latest[id as usize] = doc.clone();
    }
    latest
}

/// A ~170-byte key-value document in the compact form the server's `GET`
/// prints, so a reply can be compared byte for byte.
pub fn kv_doc(rng: &mut Prng, key: i64, version: u64) -> String {
    const WORDS: [&str; 8] = [
        "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    ];
    let mut text = String::new();
    for i in 0..8 {
        if i > 0 {
            text.push(' ');
        }
        text.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
    }
    format!(
        r#"{{"id":{key},"num":{},"ver":{version},"nested":{{"tag":"t{}","score":{}.5}},"text":"{text}"}}"#,
        rng.gen_range(0..1_000_000),
        key % 13,
        rng.gen_range(0..1000),
    )
}

/// Seed-shuffled blocks with an exact count of each op kind.
struct Mix {
    block: Vec<u8>,
    next: usize,
}

impl Mix {
    /// `counts[k]` ops of kind `k` per block.
    fn new(counts: &[usize]) -> Mix {
        let block: Vec<u8> = counts
            .iter()
            .enumerate()
            .flat_map(|(kind, &n)| std::iter::repeat_n(kind as u8, n))
            .collect();
        let next = block.len();
        Mix { block, next }
    }

    fn next_kind(&mut self, rng: &mut Prng) -> u8 {
        if self.next == self.block.len() {
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, rng.gen_range(0..=i));
            }
            self.next = 0;
        }
        self.next += 1;
        self.block[self.next - 1]
    }
}

/// One op of the `lookup-tweets` workload.
#[derive(Debug, Clone, PartialEq)]
pub enum LookupOp {
    Get {
        id: i64,
    },
    Upsert {
        id: i64,
        doc: Value,
    },
    /// COUNT of the `len` records whose timestamps start at that of `lo`.
    Range {
        lo: i64,
        len: i64,
    },
}

/// 80 % `get`, 15 % upsert, 5 % range COUNT; 80 % of key choices fall on
/// the hot 1 % of keys (every hundredth id).
pub struct LookupOps {
    rng: Prng,
    mix: Mix,
    ids: i64,
    range_len: i64,
}

impl LookupOps {
    pub fn new(rng: Prng, ids: usize, range_len: usize) -> LookupOps {
        assert!(ids >= 100 && range_len <= ids);
        LookupOps {
            rng,
            mix: Mix::new(&[16, 3, 1]),
            ids: ids as i64,
            range_len: range_len as i64,
        }
    }

    fn key(&mut self) -> i64 {
        if self.rng.gen_range(0..100) < 80 {
            self.rng.gen_range(0..self.ids / 100) * 100
        } else {
            self.rng.gen_range(0..self.ids)
        }
    }
}

impl Iterator for LookupOps {
    type Item = LookupOp;

    fn next(&mut self) -> Option<LookupOp> {
        let kind = self.mix.next_kind(&mut self.rng);
        let id = self.key();
        Some(match kind {
            0 => LookupOp::Get { id },
            1 => LookupOp::Upsert {
                id,
                doc: tweet_doc(&mut self.rng, id),
            },
            _ => LookupOp::Range {
                lo: id.min(self.ids - self.range_len),
                len: self.range_len,
            },
        })
    }
}

/// One request of the `wire-kv` workload; keys are rendered as the wire
/// carries them.
#[derive(Debug, Clone, PartialEq)]
pub enum WireOp {
    Get { key: i64 },
    Set { key: i64, doc: String },
    Mset { pairs: Vec<(i64, String)> },
}

pub const MSET_PAIRS: usize = 16;

/// 70 % `GET`, 26 % `SET`, 4 % `MSET` of 16 pairs over the keys one
/// connection owns (`key % connections == connection`), so that each
/// connection knows the latest version of every key it reads.
pub struct WireOps {
    rng: Prng,
    mix: Mix,
    keys: i64,
    connection: i64,
    connections: i64,
    version: u64,
}

impl WireOps {
    pub fn new(rng: Prng, keys: usize, connection: usize, connections: usize) -> WireOps {
        assert!(connection < connections && keys >= connections);
        WireOps {
            rng,
            mix: Mix::new(&[35, 13, 2]),
            keys: keys as i64,
            connection: connection as i64,
            connections: connections as i64,
            version: 0,
        }
    }

    fn key(&mut self) -> i64 {
        let owned = self.keys / self.connections;
        self.rng.gen_range(0..owned) * self.connections + self.connection
    }

    fn doc(&mut self, key: i64) -> String {
        self.version += 1;
        kv_doc(&mut self.rng, key, self.version)
    }
}

impl Iterator for WireOps {
    type Item = WireOp;

    fn next(&mut self) -> Option<WireOp> {
        Some(match self.mix.next_kind(&mut self.rng) {
            0 => WireOp::Get { key: self.key() },
            1 => {
                let key = self.key();
                WireOp::Set {
                    key,
                    doc: self.doc(key),
                }
            }
            _ => WireOp::Mset {
                pairs: (0..MSET_PAIRS)
                    .map(|_| {
                        let key = self.key();
                        (key, self.doc(key))
                    })
                    .collect(),
            },
        })
    }
}

/// FNV-1a over the debug rendering of a prefix of every workload's inputs:
/// what the determinism test pins.
#[cfg(test)]
pub fn fingerprint(seed: u64) -> u64 {
    fn feed(hash: &mut u64, text: &str) {
        for byte in text.bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut rng = prng(seed);
    for doc in sensor_docs(&mut rng, 200, 100) {
        feed(&mut hash, &docmodel::to_json(&doc));
    }
    for doc in tweet_docs(&mut rng, 200) {
        feed(&mut hash, &docmodel::to_json(&doc));
    }
    for op in LookupOps::new(fork(&mut rng), 200, 50).take(400) {
        feed(&mut hash, &format!("{op:?}"));
    }
    for connection in 0..2 {
        for op in WireOps::new(fork(&mut rng), 200, connection, 2).take(400) {
            feed(&mut hash, &format!("{op:?}"));
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_identical_inputs_and_different_seeds_differ() {
        assert_eq!(fingerprint(7), fingerprint(7));
        assert_ne!(fingerprint(7), fingerprint(8));
    }

    #[test]
    fn the_op_mix_is_exact_in_every_block() {
        let ops: Vec<LookupOp> = LookupOps::new(prng(3), 1_000, 50).take(200).collect();
        for block in ops.chunks(20) {
            let gets = block
                .iter()
                .filter(|op| matches!(op, LookupOp::Get { .. }))
                .count();
            let ranges = block
                .iter()
                .filter(|op| matches!(op, LookupOp::Range { .. }))
                .count();
            assert_eq!((gets, ranges), (16, 1));
        }
        let ops: Vec<WireOp> = WireOps::new(prng(3), 1_000, 1, 2).take(500).collect();
        let gets = ops
            .iter()
            .filter(|op| matches!(op, WireOp::Get { .. }))
            .count();
        let msets = ops
            .iter()
            .filter(|op| matches!(op, WireOp::Mset { .. }))
            .count();
        assert_eq!((gets, msets), (350, 20));
    }

    #[test]
    fn key_choice_respects_ownership_skew_and_bounds() {
        for op in WireOps::new(prng(5), 1_001, 1, 2).take(300) {
            let keys: Vec<i64> = match op {
                WireOp::Get { key } | WireOp::Set { key, .. } => vec![key],
                WireOp::Mset { pairs } => pairs.into_iter().map(|(k, _)| k).collect(),
            };
            assert!(keys.iter().all(|k| k % 2 == 1 && (0..1_000).contains(k)));
        }
        let mut hot = 0;
        for op in LookupOps::new(prng(5), 10_000, 50).take(2_000) {
            match op {
                LookupOp::Get { id } | LookupOp::Upsert { id, .. } => {
                    hot += usize::from(id % 100 == 0)
                }
                LookupOp::Range { lo, len } => assert!(lo >= 0 && lo + len <= 10_000),
            }
        }
        // 80 % of 1 900 point ops land on the hot hundredth of the keys.
        assert!((1_400..1_650).contains(&hot), "{hot}");
    }

    #[test]
    fn the_model_keeps_the_latest_version() {
        let mut rng = prng(11);
        let docs = sensor_docs(&mut rng, 50, 200);
        let latest = latest_by_id(&docs, 50);
        for (id, doc) in latest.iter().enumerate() {
            let last = docs
                .iter()
                .rev()
                .find(|d| d.get_field("id") == Some(&Value::Int(id as i64)));
            assert_eq!(Some(doc), last);
        }
        let doc = kv_doc(&mut rng, 42, 3);
        let parsed = docmodel::parse_json(&doc).expect("kv docs are JSON");
        assert_eq!(
            docmodel::to_json(&parsed),
            doc,
            "the server must print a kv doc as it was sent"
        );
    }
}
