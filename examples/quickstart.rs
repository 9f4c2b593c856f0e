//! Quickstart: create a dataset, ingest schemaless JSON, query it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lsm_columnar::docstore::{Datastore, DatasetOptions, Layout};
use lsm_columnar::query::{Aggregate, ExecMode, Expr, Query};
use lsm_columnar::{Path, Value};

fn main() {
    let mut store = Datastore::new();
    store
        .create_dataset("gamers", DatasetOptions::new(Layout::Amax).key("id"))
        .expect("create dataset");

    // The four records of the paper's Figure 4a — schemaless, nested,
    // with missing fields.
    let feed = r#"
        {"id": 0, "games": [{"title": "NFL"}]}
        {"id": 1, "name": {"last": "Brown"},
         "games": [{"title": "FIFA", "consoles": ["PC", "PS4"]}]}
        {"id": 2, "name": {"first": "John", "last": "Smith"},
         "games": [{"title": "NBA", "consoles": ["PS4", "PC"]},
                   {"title": "NFL", "consoles": ["XBOX"]}]}
        {"id": 3}
    "#;
    let gamers = store.dataset("gamers").expect("dataset");
    let ingested = gamers.ingest_json(feed).expect("ingest");
    gamers.flush().expect("flush");
    println!("ingested {ingested} records");

    // The schema was inferred during the flush (tuple compactor).
    println!("\ninferred schema:\n{}", gamers.schema().describe());

    // COUNT(*) — on AMAX this reads only Page 0 of each mega leaf.
    let count = gamers
        .query(&Query::count_star(), ExecMode::Compiled)
        .unwrap();
    println!("COUNT(*) = {}", count[0].agg());

    // The paper's Figure 11 query: titles of owned games with their counts.
    let per_title = gamers
        .query(
            &Query::count_star()
                .with_unnest("games")
                .group_by_element("title")
                .top_k(10),
            ExecMode::Compiled,
        )
        .unwrap();
    println!("\ngames per title:");
    for row in &per_title {
        println!("  {:>6} -> {}", row.group.clone().unwrap_or(Value::Null), row.agg());
    }

    // Point lookup by primary key.
    let rec = gamers.get(&Value::Int(2)).unwrap().unwrap();
    println!("\nrecord 2: {rec}");

    // A compositional multi-aggregate query: per last name, how many
    // records and how many games, for gamers that own any game at all.
    let q = Query::select([Aggregate::Count, Aggregate::CountNonNull(Path::parse("games"))])
        .with_filter(Expr::exists("games"))
        .group_by("name.last")
        .top_k(3);
    println!("\nplan:\n{}", gamers.explain(&q).unwrap());
    let per_name = gamers.query(&q, ExecMode::Interpreted).unwrap();
    println!("records / games per last name: {per_name:?}");
}
