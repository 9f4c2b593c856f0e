//! Documents, queries and lifecycle histories, each drawn from a seed, so a
//! history is a short op list that prints as a paste-ready test.

use std::ops::Range;

use docmodel::{Path, Value};
use lsm::CrashPoint;
use proptest::prelude::*;
use query::{Aggregate, CmpOp, Expr, Query};

/// What holds for every document of a history.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// `grp` is written as the strings `"g0"`..`"g4"`, not as numbers.
    pub grp_strings: bool,
    /// Index into [`crate::exec::compaction`].
    pub compaction: usize,
}

/// How a document may be shaped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Clean, without `grp` and `readings`: older components predate them.
    Bare,
    /// One type per path; arrays (maybe empty) or nothing at `readings`.
    Clean,
    /// `grp` may be a double, `readings` `null` or a scalar, `temp` `null`,
    /// an integer or a string, and `d` any JSON value.
    Dirty,
}

/// The document with key `id` drawn from `seed`: `score`, `grp`, `name` and
/// `tags` (the planner's shape), `readings[*].{seq,temp}` (the kernels')
/// and, dirty, `d` from the whole JSON domain. Doubles are tenths, so sums
/// round differently in different orders and whole ones tie with integers.
pub fn document(id: i64, seed: u64, shape: Shape, setup: &Setup) -> Value {
    let rng = &mut TestRng::from_seed(seed);
    let dirty = shape == Shape::Dirty;
    let mut doc = Value::empty_object();
    doc.set_field("id", Value::Int(id));
    doc.set_field("name", Value::from(format!("n{}", rng.below(3))));
    if dirty && rng.below(2) == 0 {
        doc.set_field("d", any_value(rng, 3));
    }
    if rng.below(3) > 0 && shape != Shape::Bare {
        let g = rng.below(5) as i64;
        doc.set_field(
            "grp",
            match () {
                _ if setup.grp_strings => Value::from(format!("g{g}")),
                _ if dirty && rng.below(2) == 0 => Value::Double(g as f64),
                _ => Value::Int(g),
            },
        );
    }
    if rng.below(2) == 0 {
        doc.set_field("score", Value::Int(rng.below(100) as i64));
    }
    if rng.below(2) == 0 {
        let tags = (0..1 + rng.below(2)).map(|_| Value::from(format!("t{}", rng.below(4))));
        doc.set_field("tags", Value::Array(tags.collect()));
    }
    let readings = match rng.below(if dirty { 6 } else { 4 }) {
        _ if shape == Shape::Bare => return doc,
        0 => return doc,
        1 => Value::Array(Vec::new()),
        2 | 3 => Value::Array((0..1 + rng.below(4)).map(|_| element(rng, dirty)).collect()),
        4 => Value::Null,
        _ => Value::Int(rng.below(9) as i64),
    };
    doc.set_field("readings", readings);
    doc
}

/// Any JSON value at most `depth` levels deep: `null`, `[]` and `{}` at
/// every depth, arrays of arrays and of mixed items, one-letter field names.
fn any_value(rng: &mut TestRng, depth: u32) -> Value {
    match rng.below(if depth > 0 { 8 } else { 5 }) {
        0 => Value::Null,
        1 => Value::Int(rng.below(5) as i64),
        2 => Value::Bool(rng.below(2) == 0),
        3 => Value::Array(Vec::new()),
        4 => Value::empty_object(),
        5 | 6 => Value::Array(
            (0..1 + rng.below(3))
                .map(|_| any_value(rng, depth - 1))
                .collect(),
        ),
        _ => {
            let mut object = Value::empty_object();
            for _ in 0..1 + rng.below(3) {
                let name = ["a", "b", "c"][rng.below(3) as usize];
                object.set_field(name, any_value(rng, depth - 1));
            }
            object
        }
    }
}

fn element(rng: &mut TestRng, dirty: bool) -> Value {
    let mut element = Value::empty_object();
    element.set_field("seq", Value::Int(rng.below(6) as i64));
    let temp = match rng.below(if dirty { 5 } else { 2 }) {
        0 => return element,
        1 => Value::Double((rng.below(800) as i64 - 400) as f64 / 10.0),
        2 => Value::Null,
        3 => Value::Int(rng.below(80) as i64 - 40),
        _ => Value::from(format!("t{}", rng.below(4))),
    };
    element.set_field("temp", temp);
    element
}

/// The query drawn from `seed`: aggregates over the records and the
/// unnested `readings` (grouped by `grp`, `name` or the element's `seq`,
/// maybe top-k), a key-ordered projection (maybe LIMIT) or a plain
/// `COUNT(*)` (which a probe of the `score` index answers from its keys
/// when the filter is a `score` comparison or range), under a filter.
pub fn query(seed: u64) -> Query {
    let rng = &mut TestRng::from_seed(seed);
    let shape = rng.below(4);
    let mut query = if shape == 0 {
        let query = Query::select_paths(["score", "grp", "tags"]).order_by_key();
        match rng.below(2) {
            0 => query.with_limit(1 + rng.below(5) as usize),
            _ => query,
        }
    } else if shape == 1 {
        Query::count_star()
    } else {
        let mut query = Query::new();
        let element_aggs = rng.below(3);
        let unnest = element_aggs > 0 || rng.below(2) == 0;
        if unnest {
            query = query.with_unnest("readings");
        }
        for _ in 0..element_aggs {
            query = query.aggregate_element(aggregate(rng, &["temp", "seq"]));
        }
        for _ in 0..rng.below(4) {
            // `d` is any JSON value: `MIN`/`MAX` over objects whose fields
            // come back in another order on every layout.
            query = query.aggregate(aggregate(rng, &["score", "grp", "name", "tags", "id", "d"]));
        }
        if query.aggregates.is_empty() {
            query = query.aggregate(Aggregate::Count);
        }
        query = match rng.below(6) {
            2 | 3 => query.group_by("grp"),
            4 => query.group_by("name"),
            5 if unnest => query.group_by_element("seq"),
            _ => query,
        };
        match rng.below(3) {
            0 => query.top_k(1 + rng.below(5) as usize),
            _ => query,
        }
    };
    if rng.below(5) > 0 {
        query = query.with_filter(filter(rng, 3));
    }
    query
}

fn aggregate(rng: &mut TestRng, paths: &[&str]) -> Aggregate {
    let path = Path::parse(paths[rng.below(paths.len() as u64) as usize]);
    let aggregates = [
        Aggregate::CountNonNull,
        Aggregate::Max,
        Aggregate::Min,
        Aggregate::Sum,
    ];
    match rng.below(7) {
        0 => Aggregate::Count,
        5 => Aggregate::Avg(path),
        6 => Aggregate::MaxLength(path),
        i => aggregates[i as usize - 1](path),
    }
}

/// Boolean combinations (up to `depth`) of comparisons on `score`, `grp`
/// and `id` (and of `readings` with `null`), `tags` membership and length,
/// `EXISTS`, and `score` ranges — far-out ones hide whole components.
fn filter(rng: &mut TestRng, depth: u32) -> Expr {
    let ops = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    let (op, n) = (ops[rng.below(5) as usize], rng.below(100) as i64);
    let far = 1_000 + rng.below(1_000) as i64;
    let score = |op, value| Expr::Cmp {
        op,
        path: Path::parse("score"),
        value: Value::Int(value),
    };
    match rng.below(if depth > 0 { 13 } else { 10 }) {
        0 => score(op, n),
        1 => score(op, n + 20 - rng.below(41) as i64),
        2 => between(rng),
        3 => Expr::between("score", far, far + 50),
        4 if n % 5 == 4 => Expr::eq("readings", Value::Null),
        4 => Expr::eq("grp", format!("g{}", n % 5)),
        5 => Expr::and([Expr::le("grp", n % 4), Expr::ge("id", 3)]),
        6 => Expr::contains("tags[*]", format!("t{}", n % 4)),
        7 => Expr::length("tags", op, n % 4),
        8 => Expr::exists(["score", "tags", "missing", "readings", "d"][n as usize % 5]),
        9 => Expr::and([between(rng), filter(rng, depth)]),
        10 => Expr::and([filter(rng, depth - 1), filter(rng, depth - 1)]),
        11 => Expr::or([filter(rng, depth - 1), filter(rng, depth - 1)]),
        _ => Expr::not(filter(rng, depth - 1)),
    }
}

fn between(rng: &mut TestRng) -> Expr {
    let lo = rng.below(100);
    Expr::between("score", lo as i64, (lo + rng.below(100 - lo)) as i64)
}

/// The projections a `Get` asks for (all of the document when empty).
pub const PROJECTIONS: [&[&str]; 5] = [
    &[],
    &["score"],
    &["grp", "name"],
    &["readings", "d"],
    &["tags", "score"],
];

/// One step of a lifecycle history.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Write [`document`] `(id, seed, shape)`: an upsert when `id` is live.
    Insert(i64, u64, Shape),
    Delete(i64),
    Flush,
    /// Merge every component into one.
    Merge,
    Reclaim,
    TakeSnapshot,
    DropSnapshot,
    /// Run [`query()`] of the seed.
    Query(u64),
    /// Look up `id` with [`PROJECTIONS`]`[i]`.
    Get(i64, usize),
    /// On the durable target: arm the crash point (if any), run the flush or
    /// merge it interrupts, drop the dataset and reopen its directory.
    CrashReopen(Option<CrashPoint>),
}

/// Histories: a [`Setup`] and an op list whose length is drawn from the
/// range. Half the histories turn dirty somewhere; a dirty history starts
/// with clean documents, so its older components are kernel work, the
/// first of them bare, so those components predate fields.
pub struct Histories(pub Range<usize>);

impl Strategy for Histories {
    type Value = (Setup, Vec<Op>);

    fn generate(&self, rng: &mut TestRng) -> (Setup, Vec<Op>) {
        let clean = rng.below(2) == 0;
        let compaction = rng.below(crate::exec::COMPACTIONS as u64) as usize;
        let setup = Setup {
            grp_strings: rng.below(2) == 0,
            compaction,
        };
        let len = rng.usize_inclusive(self.0.start, self.0.end - 1);
        let dirty_from = if clean {
            len
        } else {
            rng.below(len as u64) as usize
        };
        let bare_until = rng.below(dirty_from as u64 + 1) as usize * usize::from(!clean);
        let crash = [
            None,
            Some(CrashPoint::AfterFlushComponentWrite),
            Some(CrashPoint::AfterFlushManifestCommit),
            Some(CrashPoint::BeforeMergeManifestCommit),
        ];
        let ops = (0..len).map(|i| {
            let (id, seed) = (rng.below(40) as i64, rng.next_u64() >> 40);
            let shape = match () {
                _ if i < bare_until => Shape::Bare,
                _ if i < dirty_from || rng.below(2) == 0 => Shape::Clean,
                _ => Shape::Dirty,
            };
            match rng.below(100) {
                0..=44 => Op::Insert(id, seed, shape),
                45..=51 => Op::Delete(id),
                52..=60 => Op::Flush,
                61..=63 => Op::Merge,
                64..=66 => Op::Reclaim,
                67..=69 => Op::TakeSnapshot,
                70..=71 => Op::DropSnapshot,
                72..=89 => Op::Query(seed),
                90..=96 => Op::Get(id, rng.below(PROJECTIONS.len() as u64) as usize),
                _ => Op::CrashReopen(crash[rng.below(4) as usize]),
            }
        });
        (setup, ops.collect())
    }
}

/// `ops` as a `#[test]` to paste into `lifecycle.rs`, each insert annotated
/// with its document.
pub fn regression(setup: &Setup, ops: &[Op]) -> String {
    let mut out = format!(
        "#[test]\nfn lifecycle_regression() {{\n    replay(\n        &{setup:?},\n        &[\n"
    );
    for op in ops {
        let line = format!("Op::{op:?}").replace("Some(", "Some(CrashPoint::");
        let line = ["Bare", "Clean", "Dirty"]
            .iter()
            .fold(line, |l, s| l.replace(s, &format!("Shape::{s}")));
        let note = match *op {
            Op::Insert(id, seed, shape) => format!(" // {}", document(id, seed, shape, setup)),
            _ => String::new(),
        };
        out += &format!("            {line},{note}\n");
    }
    out + "        ],\n    );\n}\n"
}
