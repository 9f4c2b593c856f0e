//! Fixtures for the integration tests (`tests/` only): the generators
//! ([`gen`]), the target matrix and the execution differential ([`exec`]),
//! delta debugging ([`minimise`]), and the helpers below.

pub mod exec;
pub mod gen;
pub mod minimise;

use std::path::{Path, PathBuf};

use docmodel::{doc, Value};
use lsm::{DatasetConfig, WorkerPool};
use proptest::prelude::*;
use query::{AccessPathChoice, ExecMode, PlannerOptions, QueryEngine};
use storage::LayoutKind;

/// `<temp>/<prefix>-<pid>-<name>`, emptied when made and removed on drop —
/// unless the thread is panicking, so a failed test leaves its files.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(prefix: &str, name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("{prefix}-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// `v` with every object's fields in name order: a columnar layout returns
/// fields in schema order, which need not be the order they were written in.
pub fn sort_fields(v: &Value) -> Value {
    match v {
        Value::Object(fields) => {
            let mut fields: Vec<(String, Value)> = fields
                .iter()
                .map(|(k, v)| (k.clone(), sort_fields(v)))
                .collect();
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(fields)
        }
        Value::Array(elems) => Value::Array(elems.iter().map(sort_fields).collect()),
        other => other.clone(),
    }
}

/// Any JSON value: `null`, `[]` and `{}` at every depth, arrays of arrays
/// and of mixed items, and field names short enough that records share
/// them. Leaves are small (so values collide across records) or drawn from
/// the whole domain.
pub fn arb_value(depth: u32) -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        Just(Value::Array(Vec::new())),
        Just(Value::empty_object()),
        any::<bool>().prop_map(Value::Bool),
        (-50i64..50).prop_map(Value::Int),
        any::<i64>().prop_map(Value::Int),
        (-1e3f64..1e3f64).prop_map(Value::Double),
        (-1e9f64..1e9f64).prop_map(Value::Double),
        "[a-z0-9]{0,6}".prop_map(Value::String),
        "[a-z0-9]{0,12}".prop_map(Value::String),
    ];
    leaf.prop_recursive(depth, 48, 6, |inner| {
        let array = prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array);
        let name = prop_oneof!["[a-c]", "[a-c]", "[a-e]{1,3}"];
        let object = prop::collection::vec((name, inner), 0..4).prop_map(object);
        prop_oneof![array, object]
    })
}

/// A record over a handful of field names, so that from record to record
/// fields go missing, are `null` and change type (union columns) — or
/// `None`, an anti-matter entry.
pub fn arb_entry() -> BoxedStrategy<Option<Value>> {
    let field = arb_value(3);
    let record = prop::collection::vec(("[a-d]", field), 0..4).prop_map(|fields| {
        object(std::iter::once(("id".to_string(), Value::Int(0))).chain(fields))
    });
    (record, 0u8..8)
        .prop_map(|(doc, dice)| (dice > 0).then_some(doc))
        .boxed()
}

/// An object of the first field of each name among `fields`.
pub fn object(fields: impl IntoIterator<Item = (String, Value)>) -> Value {
    let mut out: Vec<(String, Value)> = Vec::new();
    for (k, v) in fields {
        if !out.iter().any(|(ek, _)| *ek == k) {
            out.push((k, v));
        }
    }
    Value::Object(out)
}

/// `len` hex digits drawn from `seed`: text the chunk codecs' LZ cannot
/// shrink, for fixtures that need a column to stay wide on disk.
pub fn incompressible(seed: u64, len: usize) -> String {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            char::from_digit((state % 16) as u32, 16).expect("a hex digit")
        })
        .collect()
}

/// A `tweets`-like record: a nested user, text, a timestamp and one tag.
pub fn sample_record(i: i64) -> Value {
    doc!({
        "id": i,
        "user": {"name": (format!("user{}", i % 13)), "followers": (i % 997)},
        "text": (format!("record {i} body text with characters")),
        "timestamp": (1_000_000 + i),
        "tags": [(format!("tag{}", i % 5))]
    })
}

/// Flushes only when asked, `page_size` pages, `record_limit`-record AMAX
/// leaves.
pub fn leafy_config(
    name: &str,
    layout: LayoutKind,
    page_size: usize,
    record_limit: usize,
) -> DatasetConfig {
    let mut config = DatasetConfig::new(name, layout).with_memtable_budget(usize::MAX);
    config.amax.record_limit = record_limit;
    config.with_page_size(page_size)
}

/// Small budgets, so flushes and merges happen with little data.
pub fn tiny_config(name: &str, layout: LayoutKind) -> DatasetConfig {
    DatasetConfig::new(name, layout)
        .with_memtable_budget(8 * 1024)
        .with_page_size(4 * 1024)
}

/// [`tiny_config`] with flushes and merges on `pool`'s workers and at most
/// two sealed memtables, so maintenance runs while writers do. Declare the
/// pool before the dataset, so the dataset drops first.
pub fn bg_config(name: &str, layout: LayoutKind, pool: &WorkerPool) -> DatasetConfig {
    tiny_config(name, layout)
        .with_pool(pool.handle())
        .with_max_sealed(2)
}

/// An engine with the given access-path policy and filter pushdown.
pub fn engine(mode: ExecMode, access_path: AccessPathChoice, filter_pushdown: bool) -> QueryEngine {
    QueryEngine::with_options(
        mode,
        PlannerOptions {
            access_path,
            filter_pushdown,
            ..Default::default()
        },
    )
}
