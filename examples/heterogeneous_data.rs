//! Heterogeneous (union-typed) data: the paper's §3.2.2 scenario.
//!
//! Ingests records whose fields change type between records (a string `name`
//! vs an object `name`; array elements that are strings or nested arrays),
//! shows the inferred schema with its union nodes, and queries across both
//! alternatives — the capability that plain Parquet/Dremel lacks.
//!
//! ```text
//! cargo run --release --example heterogeneous_data
//! ```

use lsm_columnar::docstore::{Datastore, DatasetOptions, Layout};
use lsm_columnar::query::{ExecMode, Query};
use lsm_columnar::{Path, Value};

fn main() {
    let mut store = Datastore::new();
    store
        .create_dataset("mixed", DatasetOptions::new(Layout::Apax).key("id"))
        .unwrap();

    // The two records of the paper's Figure 6, plus a few more variants.
    let feed = r#"
        {"id": 1, "name": "John", "games": ["NBA", ["FIFA", "PES"], "NFL"]}
        {"id": 2, "name": {"first": "Ann", "last": "Brown"}, "games": ["NFL", "NBA"]}
        {"id": 3, "name": {"first": "Lee"}, "games": [["Chess"]]}
        {"id": 4, "age": 25}
        {"id": 5, "age": "old"}
    "#;
    let mixed = store.dataset("mixed").unwrap();
    mixed.ingest_json(feed).unwrap();
    mixed.flush().unwrap();

    println!("inferred schema (note the union nodes):\n");
    println!("{}", mixed.schema().describe());

    // Accessing name.last only needs column 3 of Figure 7: records where the
    // name is a plain string simply contribute nothing.
    let by_last = mixed
        .query(
            &Query::count_star().group_by(Path::parse("name.last")).top_k(5),
            ExecMode::Compiled,
        )
        .unwrap();
    println!("records per name.last: {by_last:?}");

    // Records where age is an integer vs. a string coexist.
    for id in 1..=5i64 {
        if let Some(doc) = mixed.get(&Value::Int(id)).unwrap() {
            println!("record {id}: {doc}");
        }
    }

    // Full-record assembly restores the heterogeneous games array, including
    // the nested-array alternative of the union.
    let rec = mixed.get(&Value::Int(1)).unwrap().unwrap();
    let games = rec.get_field("games").unwrap();
    println!("\nrecord 1 games (mixed strings and arrays): {games}");
    assert_eq!(games.as_array().unwrap().len(), 3);
}
