//! Shared generators and dataset builders for the query differential
//! suites (`differential.rs` — engine/shard equivalence — and
//! `planner_cost.rs` — access-path and zone-map equivalence).
//!
//! Each integration-test binary uses a subset of these helpers, so the
//! module as a whole allows dead code.
#![allow(dead_code)]

use proptest::prelude::*;

use docmodel::{Path, Value};
use lsm::{DatasetConfig, LsmDataset};
use query::{Aggregate, CmpOp, Expr};
use storage::LayoutKind;

pub fn cmp_op() -> BoxedStrategy<CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
    .boxed()
}

/// A leaf predicate over the generated document shape: `score` (int, may be
/// missing), `grp` (string), `tags` (string array, may be missing).
pub fn leaf_expr() -> BoxedStrategy<Expr> {
    prop_oneof![
        (cmp_op(), 0i64..100).prop_map(|(op, v)| Expr::Cmp {
            op,
            path: Path::parse("score"),
            value: Value::Int(v),
        }),
        (0usize..5).prop_map(|g| Expr::eq("grp", format!("g{g}"))),
        (0usize..4).prop_map(|t| Expr::contains("tags[*]", format!("t{t}"))),
        prop_oneof![
            Just(Expr::exists("score")),
            Just(Expr::exists("tags")),
            Just(Expr::exists("missing")),
        ],
        (cmp_op(), 0i64..4).prop_map(|(op, n)| Expr::length("tags", op, n)),
    ]
    .boxed()
}

/// Boolean combinations of leaves, up to depth 3.
pub fn arb_expr() -> BoxedStrategy<Expr> {
    leaf_expr()
        .prop_recursive(3, 16, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::and([a, b])),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::or([a, b])),
                inner.prop_map(Expr::not),
            ]
        })
        .boxed()
}

/// Filters biased toward implying a range on `score` — the shapes that make
/// the planner's access-path choice and the zone maps actually fire. Plain
/// `arb_expr` noise is mixed in so filters the zone maps cannot act on stay
/// covered.
pub fn range_heavy_expr() -> BoxedStrategy<Expr> {
    let range = (0i64..100, 0i64..100).prop_map(|(a, b)| {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        Expr::between("score", lo, hi)
    });
    let one_sided = (cmp_op(), -20i64..120).prop_map(|(op, v)| Expr::Cmp {
        op,
        path: Path::parse("score"),
        value: Value::Int(v),
    });
    // Far-out ranges the zone maps hide whole components (or datasets) on.
    let disjoint = (1_000i64..2_000).prop_map(|lo| Expr::between("score", lo, lo + 50));
    prop_oneof![
        range,
        one_sided,
        disjoint,
        (range_fragment(), arb_expr()).prop_map(|(r, e)| Expr::and([r, e])),
        arb_expr(),
    ]
    .boxed()
}

fn range_fragment() -> BoxedStrategy<Expr> {
    (0i64..100, 0i64..100)
        .prop_map(|(a, b)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            Expr::between("score", lo, hi)
        })
        .boxed()
}

pub fn arb_aggregate() -> BoxedStrategy<Aggregate> {
    prop_oneof![
        Just(Aggregate::Count),
        Just(Aggregate::CountNonNull(Path::parse("tags"))),
        Just(Aggregate::Max(Path::parse("score"))),
        Just(Aggregate::Min(Path::parse("score"))),
        Just(Aggregate::Sum(Path::parse("score"))),
        Just(Aggregate::Avg(Path::parse("score"))),
        Just(Aggregate::MaxLength(Path::parse("grp"))),
    ]
    .boxed()
}

/// One generated document body: optional score, group, optional tags.
pub type DocBody = (Option<i64>, usize, Option<Vec<usize>>);

pub fn arb_doc_body() -> BoxedStrategy<DocBody> {
    (
        prop_oneof![Just(None), (0i64..100).prop_map(Some)],
        0usize..5,
        // Tags are either missing or non-empty: an *empty* array only
        // survives columnar reassembly when some other record in the same
        // component materialised the `tags[*]` column, so `EXISTS(tags)` on
        // empty arrays is schema-dependent — a storage-layer property, not
        // an engine-equivalence one (see the shredder docs).
        prop_oneof![
            Just(None),
            prop::collection::vec(0usize..4, 1..3).prop_map(Some)
        ],
    )
        .boxed()
}

pub fn build_doc(id: i64, body: &DocBody) -> Value {
    let (score, grp, tags) = body;
    let mut doc = Value::empty_object();
    doc.set_field("id", Value::Int(id));
    doc.set_field("grp", Value::from(format!("g{grp}")));
    if let Some(s) = score {
        doc.set_field("score", Value::Int(*s));
    }
    if let Some(tags) = tags {
        doc.set_field(
            "tags",
            Value::Array(tags.iter().map(|t| Value::from(format!("t{t}"))).collect()),
        );
    }
    doc
}

/// The suites' standard dataset: AMAX, small pages, optionally a secondary
/// index on `score`.
pub fn dataset(name: &str, indexed: bool) -> LsmDataset {
    let mut config = DatasetConfig::new(name, LayoutKind::Amax)
        .with_memtable_budget(64 * 1024)
        .with_page_size(8 * 1024);
    if indexed {
        config = config.with_secondary_index(Path::parse("score"));
    }
    LsmDataset::new(config)
}

/// A dataset indexed on an arbitrary (possibly multi-valued) path, with a
/// memtable large enough that flushes only happen on demand.
pub fn dataset_indexed_on(name: &str, path: &str) -> LsmDataset {
    LsmDataset::new(
        DatasetConfig::new(name, LayoutKind::Amax)
            .with_memtable_budget(usize::MAX)
            .with_page_size(8 * 1024)
            .with_secondary_index(Path::parse(path)),
    )
}
