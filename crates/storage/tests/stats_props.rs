//! Column-derived statistics are the statistics of what a scan returns.
//!
//! Columnar components summarise their leaves from column chunks
//! (`storage::stats::column_derived_stats`: definition-level tallies plus
//! per-chunk min/max), never from documents. Property: for documents from
//! the whole JSON domain (nested arrays, unions, missing fields, `null`s and
//! empty containers) and anti-matter, in both columnar layouts and over
//! several leaves,
//!
//! * a scan returns the records as written (up to field order);
//! * every leaf's zone map equals a `StatsBuilder` pass over that leaf's
//!   live records as written — rows, values, bounds; interior object and
//!   array paths; multi-valued paths counts-only; anti-matter contributing
//!   nothing;
//! * the component's statistics equal one pass over all of its live records,
//!   and the fold of its leaves' zone maps.
//!
//! Bounds are compared under the document total order: two leaves can name
//! different representatives of one equivalence class (`1` and `1.0`).

use std::cmp::Ordering;
use std::sync::Arc;

use docmodel::{total_cmp, Value};
use proptest::prelude::*;
use schema::SchemaBuilder;
use storage::component::{Component, ComponentConfig, Entry};
use storage::pagestore::{BufferCache, PageStore};
use storage::stats::{ComponentStats, StatsBuilder};
use storage::LayoutKind;
use testkit::{arb_entry, sort_fields};

fn observed<'a>(docs: impl IntoIterator<Item = &'a Value>) -> ComponentStats {
    let mut stats = StatsBuilder::new();
    for doc in docs {
        stats.observe(doc);
    }
    stats.finish()
}

fn same_stats(derived: &ComponentStats, walked: &ComponentStats) -> Result<(), String> {
    if derived.live_records != walked.live_records {
        return Err(format!(
            "live records {} vs {}",
            derived.live_records, walked.live_records
        ));
    }
    let paths = |s: &ComponentStats| s.columns.keys().cloned().collect::<Vec<_>>();
    if paths(derived) != paths(walked) {
        return Err(format!("paths {:?} vs {:?}", paths(derived), paths(walked)));
    }
    for (path, d) in &derived.columns {
        let w = &walked.columns[path];
        let same_bound = |a: &Option<Value>, b: &Option<Value>| match (a, b) {
            (Some(a), Some(b)) => total_cmp(a, b) == Ordering::Equal,
            (None, None) => true,
            _ => false,
        };
        if (d.rows, d.values) != (w.rows, w.values)
            || !same_bound(&d.min, &w.min)
            || !same_bound(&d.max, &w.max)
        {
            return Err(format!("{path}: derived {d:?}, walked {w:?}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn column_derived_stats_equal_a_walk_of_the_scanned_records(
        entries in prop::collection::vec(arb_entry(), 1..120),
    ) {
        let entries: Vec<Entry> = entries
            .into_iter()
            .enumerate()
            .map(|(i, entry)| {
                let key = Value::Int(i as i64);
                let doc = entry.map(|mut doc| {
                    doc.set_field("id", key.clone());
                    doc
                });
                (key, doc)
            })
            .collect();
        let mut builder = SchemaBuilder::new(Some("id".to_string()));
        builder.observe_all(entries.iter().filter_map(|(_, doc)| doc.as_ref()));
        // An all-anti-matter batch still needs its key column.
        builder.observe(&Value::Object(vec![("id".to_string(), Value::Int(0))]));
        let schema = builder.into_schema();

        for layout in [LayoutKind::Apax, LayoutKind::Amax] {
            let cache = BufferCache::new(PageStore::with_page_size(4096), 64);
            let mut config = ComponentConfig::new(layout);
            config.amax.record_limit = 16;
            let component =
                Arc::new(Component::write(&cache, &config, schema.clone(), &entries, 1).unwrap());
            let scanned: Vec<Entry> = component
                .cursor(None)
                .map(|entry| entry.unwrap())
                .collect();
            let sorted = |entries: &[Entry]| -> Vec<Entry> {
                entries
                    .iter()
                    .map(|(key, doc)| (key.clone(), doc.as_ref().map(sort_fields)))
                    .collect()
            };
            prop_assert_eq!(sorted(&scanned), sorted(&entries), "{:?}", layout);
            let desc = component.describe();
            if layout == LayoutKind::Amax {
                prop_assert_eq!(desc.leaves.len(), entries.len().div_ceil(16));
            }

            let mut folded = ComponentStats::default();
            let mut next = 0;
            for leaf in &desc.leaves {
                let records = &entries[next..next + leaf.record_count];
                next += leaf.record_count;
                let walked = observed(records.iter().filter_map(|(_, doc)| doc.as_ref()));
                if let Err(why) = same_stats(&leaf.stats, &walked) {
                    prop_assert!(false, "{layout:?} leaf: {why}");
                }
                folded.absorb(&leaf.stats);
            }
            prop_assert_eq!(next, entries.len());
            let whole = observed(entries.iter().filter_map(|(_, doc)| doc.as_ref()));
            let stats = component.stats();
            if let Err(why) = same_stats(stats, &whole) {
                prop_assert!(false, "{layout:?} component: {why}");
            }
            prop_assert_eq!(&**stats, &folded, "{:?}: component stats are the fold", layout);
        }
    }
}
