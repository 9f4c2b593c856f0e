//! Column-wise merges (§4.4): copying record ranges of column chunks gives
//! byte for byte the component that assembling and re-shredding every winner
//! gives, and both hold exactly what a `BTreeMap` says they should.
//!
//! * **Equivalence** (proptest): APAX and AMAX × 2–4 overlapping multi-leaf
//!   inputs with shadowed versions, tombstones and resurrections ×
//!   `includes_oldest` on/off, documents from the whole JSON domain (nested
//!   arrays, unions, `null`s, empty containers, missing fields). The copy lane's output equals the forced re-shred
//!   lane's — same leaf boundaries, page bytes, `ComponentStats` and per-leaf
//!   zone maps — and both equal the oracle under a full scan, a projected
//!   scan, a pushed-filter scan and `lookup_sorted`.
//! * **Schema evolution** (deterministic): a new top-level field stays on
//!   the copy lane (absent-filled); a new nested field and an int → union
//!   promotion send the older input through the re-shred lane, which the
//!   dataset counts in `storage.merge_records_reshredded`.
//! * **Contracts**: a merge of schema-compatible columnar components
//!   assembles no record, and in every layout a merge holds at most one
//!   decoded leaf per input plus one open output leaf.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use docmodel::{doc, Path, Value};
use lsm::{merge_components, CompactionSpec, DatasetConfig, LsmDataset, MergeLane};
use proptest::prelude::*;
use schema::{Schema, SchemaBuilder};
use storage::component::{ColumnPredicate, Component, ComponentConfig, Entry, ScanFilter};
use storage::pagestore::{BufferCache, PageStore};
use storage::LayoutKind;
use testkit::{arb_value, sort_fields};

/// One input component's entries by key (`None` = anti-matter).
type Layer = BTreeMap<i64, Option<Value>>;

const KEYS: i64 = 48;
const PAGE_SIZE: usize = 4096;

fn component_config(layout: LayoutKind) -> ComponentConfig {
    let mut config = ComponentConfig::new(layout);
    config.amax.record_limit = 8;
    config
}

fn fresh_cache() -> BufferCache {
    BufferCache::new(PageStore::with_page_size(PAGE_SIZE), 256)
}

/// Write `layers` (oldest first) as components 1.., each under the schema
/// inferred up to and including its own records — as successive flushes
/// would — or all under the final schema (`evolving == false`, every input
/// copy-compatible). Returns the inputs and the final schema.
fn write_inputs(
    cache: &BufferCache,
    config: &ComponentConfig,
    layers: &[Layer],
    evolving: bool,
) -> (Vec<Arc<Component>>, Schema) {
    let mut builder = SchemaBuilder::new(Some("id".to_string()));
    // Anti-matter-only layers still need the key column.
    builder.observe(&doc!({"id": 0}));
    if !evolving {
        for layer in layers {
            builder.observe_all(layer.values().flatten());
        }
    }
    let mut inputs = Vec::new();
    for (i, layer) in layers.iter().enumerate() {
        builder.observe_all(layer.values().flatten());
        let entries: Vec<Entry> = layer
            .iter()
            .map(|(key, doc)| (Value::Int(*key), doc.clone()))
            .collect();
        let schema = builder.schema().clone();
        let component = Component::write(cache, config, schema, &entries, i as u64 + 1).unwrap();
        inputs.push(Arc::new(component));
    }
    (inputs, builder.into_schema())
}

/// What the merge must hold: the newest version of each key, anti-matter
/// dropped when nothing older is left to annihilate.
fn oracle(layers: &[Layer], includes_oldest: bool) -> Layer {
    let mut merged = Layer::new();
    for layer in layers {
        for (key, doc) in layer {
            merged.insert(*key, doc.clone());
        }
    }
    if includes_oldest {
        merged.retain(|_, doc| doc.is_some());
    }
    merged
}

fn sorted(entries: impl IntoIterator<Item = (i64, Option<Value>)>) -> Layer {
    entries
        .into_iter()
        .map(|(key, doc)| (key, doc.as_ref().map(sort_fields)))
        .collect()
}

fn scan(component: &Arc<Component>, projection: Option<&[Path]>) -> Layer {
    sorted(component.cursor(projection).map(|entry| {
        let (key, doc) = entry.unwrap();
        (key.as_int().unwrap(), doc)
    }))
}

/// The live records a pushed-filter scan of the one component lets through,
/// driving the cursor the way the snapshot's merge cursor does: test the
/// next entry, then either pull it or consume it as a rejection.
fn pushed_scan(component: &Arc<Component>, predicate: &ColumnPredicate) -> Layer {
    let filter = ScanFilter {
        predicates: Arc::new(vec![predicate.clone()]),
        older_key_ranges: Arc::new(Vec::new()),
    };
    let mut cursor = component.cursor_filtered(None, Some(filter));
    let mut out = Vec::new();
    while cursor.fill().unwrap() {
        let ordinal = cursor.resident_keys().unwrap().first();
        if cursor.passes(ordinal) {
            let (key, doc) = cursor.next().unwrap().unwrap();
            if doc.as_ref().is_some_and(|doc| cursor.record_passes(doc)) {
                out.push((key.as_int().unwrap(), doc));
            }
        } else {
            cursor.note_filtered();
            cursor.consume(1);
        }
    }
    sorted(out)
}

/// Merge `layers` on the given lane in a world of its own (so page ids line
/// up between lanes).
fn merge_world(
    layout: LayoutKind,
    layers: &[Layer],
    evolving: bool,
    includes_oldest: bool,
    lane: MergeLane,
) -> (BufferCache, Arc<Component>, lsm::MergeReport) {
    let cache = fresh_cache();
    let config = component_config(layout);
    let (inputs, schema) = write_inputs(&cache, &config, layers, evolving);
    let id = inputs.len() as u64 + 1;
    let (output, report) =
        merge_components(&cache, &config, schema, &inputs, id, includes_oldest, lane).unwrap();
    (cache, Arc::new(output), report)
}

/// Both lanes, compared with each other and with the oracle.
fn check_merge(
    layout: LayoutKind,
    layers: &[Layer],
    evolving: bool,
    includes_oldest: bool,
) -> Result<(), String> {
    let (copy_cache, copied, report) =
        merge_world(layout, layers, evolving, includes_oldest, MergeLane::Copy);
    let (reshred_cache, reshredded, _) = merge_world(
        layout,
        layers,
        evolving,
        includes_oldest,
        MergeLane::Reshred,
    );
    let expected = oracle(layers, includes_oldest);
    let context = format!("{layout:?} evolving={evolving} includes_oldest={includes_oldest}");

    // Same component: descriptor (leaf boundaries, key bounds, zone maps,
    // stored bytes, page ids) and the bytes of every page.
    let desc = copied.describe();
    if desc != reshredded.describe() {
        return Err(format!(
            "{context}: descriptors differ\ncopy    {desc:?}\nreshred {:?}",
            reshredded.describe()
        ));
    }
    for &page in copied.pages() {
        if copy_cache.store().read_page(page).unwrap()
            != reshred_cache.store().read_page(page).unwrap()
        {
            return Err(format!("{context}: page {page} differs"));
        }
    }
    let written = (report.records_copied + report.records_reshredded) as usize;
    if written != expected.len() || copied.record_count() != expected.len() {
        return Err(format!(
            "{context}: {written} winners written, {} recorded, {} expected",
            copied.record_count(),
            expected.len()
        ));
    }
    if !evolving && report.records_reshredded != 0 {
        return Err(format!("{context}: compatible inputs were re-shredded"));
    }

    let want = sorted(expected.clone());
    let projection = [Path::parse("a"), Path::parse("n")];
    let projected: Layer = expected
        .iter()
        .map(|(key, doc)| {
            let doc = doc.as_ref().map(|doc| {
                let mut fields = vec![("id".to_string(), Value::Int(*key))];
                for name in ["a", "n"] {
                    if let Some(v) = doc.get_field(name) {
                        fields.push((name.to_string(), v.clone()));
                    }
                }
                sort_fields(&Value::Object(fields))
            });
            (*key, doc)
        })
        .collect();
    let predicate = ColumnPredicate {
        path: Path::parse("n"),
        lo: Bound::Included(Value::Int(20)),
        hi: Bound::Excluded(Value::Int(60)),
    };
    let matching: Layer = want
        .iter()
        .filter(|(_, doc)| doc.as_ref().is_some_and(|doc| predicate.matches(doc)))
        .map(|(key, doc)| (*key, doc.clone()))
        .collect();
    let probes: Vec<Value> = (-1..=KEYS).map(Value::Int).collect();
    let probe_refs: Vec<&Value> = probes.iter().collect();
    for (lane, component) in [("copy", &copied), ("reshred", &reshredded)] {
        if scan(component, None) != want {
            return Err(format!(
                "{context} {lane}: full scan differs from the oracle"
            ));
        }
        if scan(component, Some(&projection)) != projected {
            return Err(format!("{context} {lane}: projected scan differs"));
        }
        if pushed_scan(component, &predicate) != matching {
            return Err(format!("{context} {lane}: pushed-filter scan differs"));
        }
        let found = component.lookup_sorted(&probe_refs, None).unwrap();
        for (probe, got) in probes.iter().zip(found) {
            let key = probe.as_int().unwrap();
            let got = got.map(|doc| doc.as_ref().map(sort_fields));
            if got.as_ref() != want.get(&key) {
                return Err(format!("{context} {lane}: lookup of {key} differs"));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------------

/// One write: a key, and a record (fields missing, `null`, or changing type
/// from version to version; `n` always an integer) or a delete.
fn arb_write() -> impl Strategy<Value = (i64, Option<Value>)> {
    let field = arb_value(2);
    (
        0..KEYS,
        0i64..100,
        prop::collection::vec(("[a-d]", field), 0..4),
        0u8..6,
    )
        .prop_map(|(key, n, fields, dice)| {
            let mut obj = vec![
                ("id".to_string(), Value::Int(key)),
                ("n".to_string(), Value::Int(n)),
            ];
            for (k, v) in fields {
                if !obj.iter().any(|(ek, _)| *ek == k) {
                    obj.push((k, v));
                }
            }
            (key, (dice > 0).then_some(Value::Object(obj)))
        })
}

/// 2–4 layers over one small key space: later layers shadow, delete and
/// resurrect the keys of earlier ones.
fn arb_layers() -> impl Strategy<Value = Vec<Layer>> {
    prop::collection::vec(prop::collection::vec(arb_write(), 12..80), 2..5).prop_map(|layers| {
        layers
            .into_iter()
            .map(|writes| writes.into_iter().collect::<Layer>())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 12 } else { 64 }))]

    #[test]
    fn column_copy_equals_reshred_equals_the_oracle(
        layers in arb_layers(),
        evolving in any::<bool>(),
    ) {
        for layout in [LayoutKind::Apax, LayoutKind::Amax] {
            for includes_oldest in [false, true] {
                if let Err(why) = check_merge(layout, &layers, evolving, includes_oldest) {
                    prop_assert!(false, "{}", why);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic schema-evolution cases.
// ---------------------------------------------------------------------------

fn layer_of(keys: std::ops::Range<i64>, record: impl Fn(i64) -> Value) -> Layer {
    keys.map(|key| (key, Some(record(key)))).collect()
}

/// Merge two layers whose schemas differ, on both lanes; returns the copy
/// lane's report and the records assembled while it ran.
fn evolve(layout: LayoutKind, old: &Layer, new: &Layer) -> (lsm::MergeReport, u64) {
    let layers = [old.clone(), new.clone()];
    for includes_oldest in [false, true] {
        check_merge(layout, &layers, true, includes_oldest).unwrap();
    }
    let cache = fresh_cache();
    let config = component_config(layout);
    let (inputs, schema) = write_inputs(&cache, &config, &layers, true);
    let before = cache.store().stats().records_assembled;
    let (_, report) =
        merge_components(&cache, &config, schema, &inputs, 3, true, MergeLane::Copy).unwrap();
    (report, cache.store().stats().records_assembled - before)
}

#[test]
fn a_new_top_level_field_is_absent_filled_on_the_copy_lane() {
    let old = layer_of(0..40, |k| doc!({"id": k, "n": (k % 100), "a": {"x": k}}));
    let new = layer_of(
        20..60,
        |k| doc!({"id": k, "n": (k % 100), "a": {"x": (k + 1)}, "z": [(format!("z{k}"))]}),
    );
    for layout in [LayoutKind::Apax, LayoutKind::Amax] {
        let (report, assembled) = evolve(layout, &old, &new);
        assert_eq!(report.records_reshredded, 0, "{layout:?}");
        assert_eq!(report.records_copied, 60, "{layout:?}");
        assert_eq!(assembled, 0, "{layout:?}: the copy lane assembles nothing");
    }
}

#[test]
fn a_new_nested_field_reshreds_the_input_that_predates_it() {
    let old = layer_of(0..40, |k| doc!({"id": k, "n": (k % 100), "a": {"x": k}}));
    let new = layer_of(
        20..60,
        |k| doc!({"id": k, "n": (k % 100), "a": {"x": (k + 1), "y": (format!("y{k}"))}}),
    );
    for layout in [LayoutKind::Apax, LayoutKind::Amax] {
        let (report, assembled) = evolve(layout, &old, &new);
        // The old input wins keys 0..20; the new one is copy-compatible.
        assert_eq!(report.records_reshredded, 20, "{layout:?}");
        assert_eq!(report.records_copied, 40, "{layout:?}");
        assert_eq!(
            assembled, 20,
            "{layout:?}: only re-shredded winners are assembled"
        );
    }
}

#[test]
fn a_promotion_to_a_union_reshreds_the_input_that_predates_it() {
    let old = layer_of(0..40, |k| doc!({"id": k, "n": (k % 100), "a": k}));
    let new = layer_of(
        20..60,
        |k| doc!({"id": k, "n": (k % 100), "a": (format!("s{k}"))}),
    );
    for layout in [LayoutKind::Apax, LayoutKind::Amax] {
        let (report, assembled) = evolve(layout, &old, &new);
        assert_eq!(report.records_reshredded, 20, "{layout:?}");
        assert_eq!(report.records_copied, 40, "{layout:?}");
        assert_eq!(assembled, 20, "{layout:?}");
    }
}

/// The same split, through a dataset's own merge and its metrics.
#[test]
fn the_dataset_counts_copied_and_reshredded_winners() {
    for layout in [LayoutKind::Apax, LayoutKind::Amax] {
        let config = DatasetConfig::new("evolve", layout)
            .with_memtable_budget(64 << 20)
            .with_page_size(PAGE_SIZE)
            .with_compaction(CompactionSpec::tiered(1e9, 100));
        let ds = LsmDataset::new(config);
        for k in 0..40i64 {
            ds.insert(doc!({"id": k, "a": k})).unwrap();
        }
        ds.flush().unwrap();
        for k in 20..60i64 {
            ds.insert(doc!({"id": k, "a": (format!("s{k}"))})).unwrap();
        }
        ds.flush().unwrap();
        assert_eq!(ds.component_count(), 2, "{layout:?}");
        let assembled_before = ds.io_stats().records_assembled;
        ds.compact_fully().unwrap();
        assert_eq!(ds.component_count(), 1, "{layout:?}");
        let metrics = ds.metrics();
        assert_eq!(
            metrics.counter("storage.merge_records_copied"),
            40,
            "{layout:?}"
        );
        assert_eq!(
            metrics.counter("storage.merge_records_reshredded"),
            20,
            "{layout:?}"
        );
        assert_eq!(
            ds.io_stats().records_assembled - assembled_before,
            20,
            "{layout:?}: merge-time assembly is the re-shred lane's"
        );
        let peak = metrics
            .histogram("merge.peak_buffered_records")
            .expect("merges record their peak residency");
        assert!(
            peak.max > 0 && peak.max <= 40 + 40 + 60,
            "{layout:?}: {}",
            peak.max
        );
        assert_eq!(ds.count().unwrap(), 60, "{layout:?}");
    }
}

// ---------------------------------------------------------------------------
// Contracts.
// ---------------------------------------------------------------------------

fn wide_record(key: i64, version: i64) -> Value {
    doc!({
        "id": key,
        "n": ((key * 7 + version) % 100),
        "body": (format!("version {version} of record {key}, padded out a little")),
        "nested": {"tag": (format!("t{}", key % 13)), "version": version},
        "tags": ((0..(key % 4)).map(|t| Value::from(format!("tag{t}"))).collect::<Vec<_>>())
    })
}

fn overlapping_layers() -> Vec<Layer> {
    let mut newest = layer_of(100..500, |k| wide_record(k, 3));
    for key in (0..600).step_by(11) {
        newest.insert(key, None);
    }
    vec![
        layer_of(0..400, |k| wide_record(k, 1)),
        (200..600)
            .filter(|k| k % 3 != 0)
            .map(|k| (k, Some(wide_record(k, 2))))
            .collect(),
        newest,
    ]
}

#[test]
fn a_compatible_columnar_merge_assembles_no_record() {
    let layers = overlapping_layers();
    for layout in [LayoutKind::Apax, LayoutKind::Amax] {
        for includes_oldest in [false, true] {
            let cache = fresh_cache();
            let config = component_config(layout);
            let (inputs, schema) = write_inputs(&cache, &config, &layers, false);
            cache.store().reset_stats();
            let (output, report) = merge_components(
                &cache,
                &config,
                schema,
                &inputs,
                9,
                includes_oldest,
                MergeLane::Copy,
            )
            .unwrap();
            assert_eq!(cache.store().stats().records_assembled, 0, "{layout:?}");
            assert_eq!(report.records_reshredded, 0, "{layout:?}");
            let expected = oracle(&layers, includes_oldest);
            assert_eq!(report.records_copied as usize, expected.len(), "{layout:?}");
            assert_eq!(
                scan(&Arc::new(output), None),
                sorted(expected),
                "{layout:?}"
            );
        }
    }
}

#[test]
fn a_merge_holds_one_leaf_per_input_and_one_open_output_leaf() {
    let layers = overlapping_layers();
    for layout in LayoutKind::ALL {
        for lane in [MergeLane::Copy, MergeLane::Reshred] {
            let cache = fresh_cache();
            let config = component_config(layout);
            let (inputs, schema) = write_inputs(&cache, &config, &layers, false);
            let (output, report) =
                merge_components(&cache, &config, schema, &inputs, 9, false, lane).unwrap();
            let largest_leaf = |component: &Component| {
                component
                    .describe()
                    .leaves
                    .iter()
                    .map(|leaf| leaf.record_count)
                    .max()
                    .unwrap()
            };
            let input_leaves: usize = inputs.iter().map(|c| largest_leaf(c)).sum();
            // A leaf is sealed the moment it fills, so the open leaf never
            // holds more than the largest sealed one does (twice that, where
            // an overflowing page was halved).
            let bound = input_leaves + 2 * largest_leaf(&output);
            assert!(
                report.peak_buffered > 0 && report.peak_buffered <= bound,
                "{layout:?} {lane:?}: peak {} over the bound {bound}",
                report.peak_buffered
            );
            assert!(
                output.leaf_count() >= 8 && bound * 3 < output.record_count(),
                "{layout:?}: the bound must be a small part of the output"
            );
        }
    }
}
