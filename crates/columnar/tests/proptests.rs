//! Property-based tests: shredding then assembling arbitrary documents —
//! `null`, `[]` and `{}` at every depth, arrays of arrays and of mixed items
//! — is the identity (up to object field order), encoded chunks
//! round-trip byte-exactly, the assembly automaton's two sinks — the
//! documents and the shape tallies — describe the same records, a column
//! walk's span over a run of records is its records' inputs joined, and a
//! chunk whose levels disagree with its values is refused.

use std::collections::BTreeMap;
use std::sync::Arc;

use columnar::{
    Assembler, ColumnChunk, ColumnCursor, ColumnWalk, ShapePlan, ShapeWalker, Shredder,
};
use docmodel::{PathStep, Value};
use proptest::prelude::*;
use schema::{AtomicType, ColumnSpec, SchemaBuilder};
use testkit::{arb_entry, arb_value, object, sort_fields};

fn arb_record() -> impl Strategy<Value = Value> {
    (
        1i64..1_000_000,
        prop::collection::vec(("[a-e]{1,3}", arb_value(3)), 0..5),
    )
        .prop_map(|(id, fields)| {
            object(std::iter::once(("id".to_string(), Value::Int(id))).chain(fields))
        })
}

/// Levels are untrusted too: a chunk whose levels announce more values
/// than it stores once decoded `Ok`, and a kernel's walk then indexed past
/// the values and panicked. Fewer announced values, a level above the
/// column's maximum, and a key column whose entries outnumber its keys are
/// refused the same way; well-formed chunks, anti-matter included, still
/// decode.
#[test]
fn levels_that_disagree_with_the_values_are_an_error() {
    let spec = |is_key: bool| ColumnSpec {
        id: 7,
        path: docmodel::Path::parse("x"),
        ty: AtomicType::Double,
        max_def: if is_key { 1 } else { 2 },
        array_levels: Vec::new(),
        is_key,
    };
    let forge = |is_key: bool, defs: &[u16], values: usize| {
        let mut chunk = ColumnChunk::new(spec(is_key));
        chunk.defs.extend_from_slice(defs);
        for i in 0..values {
            chunk.values.push(&Value::Double(i as f64));
        }
        let mut buf = Vec::new();
        chunk.encode(&mut buf);
        ColumnChunk::decode(chunk.spec.clone(), &buf, &mut 0)
    };
    assert!(forge(false, &[2; 64], 32).is_err());
    assert!(forge(false, &[2; 32], 64).is_err());
    let mut above = vec![2u16; 32];
    above[7] = 3;
    assert!(forge(false, &above, 31).is_err());
    assert!(forge(false, &above, 32).is_err());
    assert!(forge(true, &[1, 0, 1, 1], 3).is_err());
    // The key column stores a value for every entry, anti-matter too.
    assert!(forge(true, &[1, 0, 1, 1], 4).is_ok());
    let mixed: Vec<u16> = (0..64).map(|i| i % 3).collect();
    assert_eq!(forge(false, &mixed, 21).unwrap().defs, mixed);
}

/// A record with an optional record-level `s` and an array `r` that is
/// absent, empty or of up to 40 objects, each with or without `x` — or
/// `None`, an anti-matter entry. Long runs of such records are what a
/// kernel folds as one span.
fn arb_run_record() -> impl Strategy<Value = Option<Value>> {
    let element = (any::<bool>(), any::<i64>()).prop_map(|(has, x)| match has {
        true => Value::Object(vec![("x".to_string(), Value::Int(x))]),
        false => Value::Object(vec![("y".to_string(), Value::Bool(true))]),
    });
    let array = prop_oneof![
        Just(None),
        Just(Some(Vec::new())),
        prop::collection::vec(element, 1..40).prop_map(Some),
    ];
    (any::<bool>(), any::<i64>(), array, 0u8..8).prop_map(|(has_s, s, r, dice)| {
        (dice > 0).then(|| {
            let mut doc = Value::Object(vec![("id".to_string(), Value::Int(0))]);
            if has_s {
                doc.set_field("s", Value::Int(s));
            }
            if let Some(r) = r {
                doc.set_field("r", Value::Array(r));
            }
            doc
        })
    })
}

/// Shred `entries` (anti-matter where `None`) with `id` set to the ordinal;
/// the schema and the chunks, shared as in the leaf cache.
fn shred_entries(entries: Vec<Option<Value>>) -> (schema::Schema, Vec<Arc<ColumnChunk>>, usize) {
    let records: Vec<Option<Value>> = entries
        .into_iter()
        .enumerate()
        .map(|(i, entry)| {
            entry.map(|mut doc| {
                doc.set_field("id", Value::Int(i as i64));
                doc
            })
        })
        .collect();
    let mut builder = SchemaBuilder::new(Some("id".to_string()));
    builder.observe_all(records.iter().flatten());
    // An all-anti-matter batch still needs its key column.
    builder.observe(&Value::Object(vec![("id".to_string(), Value::Int(0))]));
    let schema = builder.into_schema();
    let mut shredder = Shredder::new(&schema);
    for (i, record) in records.iter().enumerate() {
        match record {
            Some(doc) => shredder.shred(doc),
            None => shredder.shred_antimatter(&Value::Int(i as i64)),
        }
    }
    let batch = shredder.finish();
    let n = batch.record_count;
    (schema, batch.columns.into_iter().map(Arc::new).collect(), n)
}

/// The projections the assembly tests run under, each the columns of some
/// paths' whole subtrees (as a query projects), plus the key column: every
/// column; the root fields `a` and `c`; and every field but those named `b`
/// at any depth, which leaves objects that only had a `b` empty. Each is
/// widened over unions of array items, as a component widens a query's.
const PROJECTIONS: [&str; 3] = ["all", "a and c", "no field b"];

fn projected(
    schema: &schema::Schema,
    chunks: &[Arc<ColumnChunk>],
    projection: &str,
) -> Vec<Arc<ColumnChunk>> {
    let mut ids: Vec<_> = chunks
        .iter()
        .map(|c| &c.spec)
        .filter(|spec| {
            spec.is_key
                || match projection {
                    "a and c" => spec.path.to_string().starts_with(['a', 'c']),
                    "no field b" => !spec.path.steps().contains(&PathStep::Field("b".into())),
                    _ => true,
                }
        })
        .map(|spec| spec.id)
        .collect();
    schema::widen_over_union_items(schema, chunks.iter().map(|c| c.spec.id), &mut ids);
    chunks
        .iter()
        .filter(|c| ids.contains(&c.spec.id))
        .cloned()
        .collect()
}

/// Per path of the documents (rendered as a query path): records with a
/// value there, values there, and whether one was an object or an array.
fn document_tallies(docs: &[Value]) -> BTreeMap<String, (u64, u64, bool)> {
    fn visit(value: &Value, path: String, out: &mut BTreeMap<String, (u64, bool)>) {
        if !path.is_empty() {
            let entry = out.entry(path.clone()).or_default();
            entry.0 += 1;
            entry.1 |= matches!(value, Value::Object(_) | Value::Array(_));
        }
        match value {
            Value::Object(fields) => {
                for (name, child) in fields {
                    let child_path = if path.is_empty() {
                        name.clone()
                    } else {
                        format!("{path}.{name}")
                    };
                    visit(child, child_path, out);
                }
            }
            Value::Array(elems) => {
                for elem in elems {
                    visit(elem, format!("{path}[*]"), out);
                }
            }
            _ => {}
        }
    }
    let mut tallies = BTreeMap::new();
    for doc in docs {
        let mut record = BTreeMap::new();
        visit(doc, String::new(), &mut record);
        for (path, (values, composite)) in record {
            let tally: &mut (u64, u64, bool) = tallies.entry(path).or_default();
            tally.0 += 1;
            tally.1 += values;
            tally.2 |= composite;
        }
    }
    tallies
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shred_assemble_is_identity(records in prop::collection::vec(arb_record(), 1..12)) {
        let mut builder = SchemaBuilder::new(Some("id".to_string()));
        builder.observe_all(records.iter());
        let schema = builder.into_schema();

        let mut shredder = Shredder::new(&schema);
        for r in &records {
            shredder.shred(r);
        }
        let batch = shredder.finish();

        // Encode and decode every chunk (the on-disk byte path) before
        // assembling, so the whole pipeline is covered.
        let mut cursors = Vec::new();
        for chunk in &batch.columns {
            let mut buf = Vec::new();
            chunk.encode(&mut buf);
            let mut pos = 0;
            let decoded = ColumnChunk::decode(chunk.spec.clone(), &buf, &mut pos).unwrap();
            prop_assert_eq!(&decoded, chunk);
            cursors.push(ColumnCursor::new(Arc::new(decoded)));
        }

        let mut assembler = Assembler::new(&schema, cursors, batch.record_count);
        for original in &records {
            let assembled = assembler.next_record().unwrap().unwrap();
            prop_assert_eq!(sort_fields(&assembled), sort_fields(original));
        }
        prop_assert!(assembler.next_record().is_none());
    }

    #[test]
    fn skip_then_assemble_matches_direct_assembly(records in prop::collection::vec(arb_record(), 2..10), skip in 1usize..8) {
        let mut builder = SchemaBuilder::new(Some("id".to_string()));
        builder.observe_all(records.iter());
        let schema = builder.into_schema();
        let mut shredder = Shredder::new(&schema);
        for r in &records {
            shredder.shred(r);
        }
        let batch = shredder.finish();
        let skip = skip.min(records.len() - 1);

        let cursors: Vec<_> = batch
            .columns
            .iter()
            .map(|c| ColumnCursor::new(Arc::new(c.clone())))
            .collect();
        let mut assembler = Assembler::new(&schema, cursors, batch.record_count);
        assembler.skip_records(skip);
        let next = assembler.next_record().unwrap().unwrap();
        prop_assert_eq!(sort_fields(&next), sort_fields(&records[skip]));
    }

    // Single-record assembly: for documents with nested arrays, unions,
    // missing fields and anti-matter, over all columns and over a
    // projection, the record assembled at ordinal `i` is the `i`-th record
    // of sequential assembly — from a fresh assembler, seek after seek in
    // ascending order (skips within a checkpoint interval, index seeks
    // beyond), and backwards.
    #[test]
    fn record_at_matches_sequential_assembly(
        entries in prop::collection::vec(arb_entry(), 1..200),
        picks in prop::collection::vec(0usize..100_000, 1..24),
    ) {
        // The chunks are shared, as they are in the leaf cache: every
        // assembler below seeks through the same lazily built indexes.
        let (schema, chunks, n) = shred_entries(entries);

        for projection in PROJECTIONS {
            let chunks = projected(&schema, &chunks, projection);
            let assembler = || {
                let cursors = chunks.iter().map(|c| ColumnCursor::new(c.clone())).collect();
                Assembler::new(&schema, cursors, n)
            };
            let mut sequential = assembler();
            let expected: Vec<Value> = (0..n)
                .map(|_| sequential.next_record().unwrap().unwrap())
                .collect();

            let mut ascending = assembler();
            let mut descending = assembler();
            for i in 0..n {
                if i % 3 == 0 {
                    prop_assert_eq!(&ascending.record_at(i).unwrap().unwrap(), &expected[i]);
                }
                let j = n - 1 - i;
                prop_assert_eq!(&descending.record_at(j).unwrap().unwrap(), &expected[j]);
            }
            prop_assert!(ascending.record_at(n).is_none());

            let mut sorted: Vec<usize> = picks.iter().map(|p| p % n).collect();
            sorted.sort_unstable();
            let mut hopping = assembler();
            for &i in &sorted {
                prop_assert_eq!(&assembler().record_at(i).unwrap().unwrap(), &expected[i]);
                prop_assert_eq!(&hopping.record_at(i).unwrap().unwrap(), &expected[i]);
            }
            // After a seek the assembler keeps going sequentially.
            if let Some(&last) = sorted.last() {
                prop_assert_eq!(hopping.records_remaining(), n - last - 1);
                if last + 1 < n {
                    prop_assert_eq!(&hopping.next_record().unwrap().unwrap(), &expected[last + 1]);
                }
            }
        }
    }

    // The automaton's two sinks agree: over unions, nulls, empty containers
    // and anti-matter, all columns and a projection, from every start
    // ordinal, the shape walk's size of each record is the `approx_size` of
    // the record the assembler builds, and its per-path tallies are those of
    // a walk of the assembled documents.
    #[test]
    fn shape_walk_describes_the_assembled_records(
        entries in prop::collection::vec(arb_entry(), 1..64),
    ) {
        let (schema, chunks, n) = shred_entries(entries);
        for projection in PROJECTIONS {
            let chunks = projected(&schema, &chunks, projection);
            let ids: Vec<_> = chunks.iter().map(|c| c.spec.id).collect();
            let plan = ShapePlan::new(&schema, &ids);
            let cursors = chunks.iter().map(|c| ColumnCursor::new(c.clone())).collect();
            let mut assembler = Assembler::new(&schema, cursors, n);
            let docs: Vec<Value> = (0..n)
                .map(|_| assembler.next_record().unwrap().unwrap())
                .collect();
            for first in 0..n {
                let chunks = chunks.iter().map(|c| &**c).collect();
                let mut walker = ShapeWalker::new(&plan, chunks, first);
                for (i, doc) in docs.iter().enumerate().skip(first) {
                    prop_assert_eq!(
                        walker.next_record().unwrap(), doc.approx_size(),
                        "{}: record {} from {}", projection, i, first
                    );
                }
                let walked: BTreeMap<String, (u64, u64, bool)> = plan
                    .paths()
                    .iter()
                    .zip(walker.tallies())
                    .filter(|(_, tally)| tally.values > 0)
                    .map(|(path, t)| (path.path.clone(), (t.rows, t.values, t.composite)))
                    .collect();
                prop_assert_eq!(
                    &walked, &document_tallies(&docs[first..]),
                    "{}: from {}", projection, first
                );
            }
        }
    }

    // A span over a run of records is what asking each record would give
    // (its elements by the record-end rule, or its value), joined: over
    // absent, empty and long arrays, elements without the
    // field, anti-matter, gaps between runs, runs cut anywhere and runs
    // longer than the block the span counts at once (the whole leaf, when
    // every ordinal is picked).
    #[test]
    fn spans_join_the_inputs_of_their_records(
        entries in prop::collection::vec(arb_run_record(), 1..300),
        picks in prop::collection::vec(0u8..16, 1..64),
        cuts in prop::collection::vec(0u8..64, 1..64),
        thin in any::<bool>(),
    ) {
        // Thin records (mostly no array, else one of at most one element)
        // put up to a record end per level into a block of levels.
        let entries = entries.into_iter().enumerate().map(|(i, entry)| {
            entry.map(|doc| match (thin, doc) {
                (true, Value::Object(fields)) => Value::Object(
                    fields
                        .into_iter()
                        .filter(|(name, _)| name != "r" || i % 4 == 0)
                        .map(|(name, value)| match value {
                            Value::Array(items) => {
                                (name, Value::Array(items.into_iter().take(1).collect()))
                            }
                            other => (name, other),
                        })
                        .collect(),
                ),
                (_, doc) => doc,
            })
        });
        let (_, chunks, n) = shred_entries(entries.collect());
        let mut runs: Vec<std::ops::Range<usize>> = Vec::new();
        for ordinal in (0..n).filter(|&i| picks[i % picks.len()] > 0) {
            match runs.last_mut() {
                Some(run) if run.end == ordinal && cuts[ordinal % cuts.len()] > 0 => run.end += 1,
                _ => runs.push(ordinal..ordinal + 1),
            }
        }
        for chunk in chunks.iter().filter(|c| c.spec.array_levels.len() <= 1) {
            let path = chunk.spec.path.to_string();
            let mut by_span = ColumnWalk::new(chunk.clone());
            let mut by_record = ColumnWalk::new(chunk.clone());
            for run in &runs {
                let span = by_span.span(run.clone());
                let spanned: Vec<Value> = span.values.map(|i| by_span.values().get(i)).collect();
                let mut joined = Vec::new();
                let mut count = 0;
                for ordinal in run.clone() {
                    if chunk.spec.is_repeated() {
                        let elements = by_record.elements(ordinal);
                        count += elements.count;
                        joined.extend(elements.values.map(|i| by_record.values().get(i)));
                    } else {
                        count += 1;
                        let value = by_record.value_index(ordinal);
                        joined.extend(value.map(|i| by_record.values().get(i)));
                    }
                }
                prop_assert_eq!(span.count, count, "{} {:?}", path, run);
                prop_assert_eq!(spanned, joined, "{} {:?}", path, run);
            }
        }
    }
}

/// A chunk of present doubles (`max_def` 1, no arrays).
fn double_chunk(values: &[f64]) -> ColumnChunk {
    let mut chunk = ColumnChunk::new(ColumnSpec {
        id: 3,
        path: docmodel::Path::parse("temp"),
        ty: AtomicType::Double,
        max_def: 1,
        array_levels: Vec::new(),
        is_key: false,
    });
    for &v in values {
        chunk.defs.push(1);
        chunk.values.push(&Value::Double(v));
    }
    chunk
}

/// A chunk of present strings.
fn string_chunk(values: &[String]) -> ColumnChunk {
    let mut chunk = ColumnChunk::new(ColumnSpec {
        id: 4,
        path: docmodel::Path::parse("text"),
        ty: AtomicType::String,
        max_def: 1,
        array_levels: Vec::new(),
        is_key: false,
    });
    for v in values {
        chunk.defs.push(1);
        chunk.values.push(&Value::from(v.as_str()));
    }
    chunk
}

/// The encoded chunk and the offset of its value tag (past the counts and
/// the levels).
fn encoded(chunk: &ColumnChunk) -> (Vec<u8>, usize) {
    let mut buf = Vec::new();
    chunk.encode(&mut buf);
    let mut pos = 0;
    encoding::varint::read_u64(&buf, &mut pos).unwrap();
    encoding::varint::read_u64(&buf, &mut pos).unwrap();
    pos += 1;
    let defs = encoding::varint::read_u64(&buf, &mut pos).unwrap() as usize;
    (buf, pos + defs)
}

/// The chunk's doubles decode to the same bits, whatever codec it chose.
fn assert_doubles_roundtrip(values: &[f64]) -> u8 {
    let chunk = double_chunk(values);
    let (buf, tag_at) = encoded(&chunk);
    let back = ColumnChunk::decode(chunk.spec.clone(), &buf, &mut 0).unwrap();
    let columnar::ColumnValues::Double(back) = back.values else {
        panic!("a double chunk decoded to another type");
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&back), bits(values));
    buf[tag_at]
}

/// Every truncation and every byte flip of an encoded chunk decodes to an
/// error or to some chunk, never a panic.
fn assert_damage_is_survived(chunk: &ColumnChunk) {
    let (buf, _) = encoded(chunk);
    for cut in 0..buf.len() {
        assert!(
            ColumnChunk::decode(chunk.spec.clone(), &buf[..cut], &mut 0).is_err(),
            "cut at {cut}"
        );
    }
    for at in 0..buf.len() {
        for flip in [0x01u8, 0x10, 0x80, 0xFF] {
            let mut damaged = buf.clone();
            damaged[at] ^= flip;
            let _ = ColumnChunk::decode(chunk.spec.clone(), &damaged, &mut 0);
        }
    }
}

/// Bit patterns the decimal check must refuse or keep exactly: zeros of
/// both signs, NaN payloads, infinities, subnormals, the integers around
/// 2^53, and short decimals.
fn arb_double_bits() -> impl Strategy<Value = u64> {
    let sign = any::<bool>().prop_map(|negative| u64::from(negative) << 63);
    prop_oneof![
        any::<u64>(),
        (
            sign.clone(),
            prop_oneof![Just(0u64), Just(0x7FF0_0000_0000_0000)]
        )
            .prop_map(|(s, b)| s | b),
        (
            sign.clone(),
            0x7FF0_0000_0000_0001u64..=0x7FFF_FFFF_FFFF_FFFF
        )
            .prop_map(|(s, b)| s | b),
        (sign.clone(), 1u64..(1 << 52)).prop_map(|(s, b)| s | b),
        (sign, -2i64..=2)
            .prop_map(|(s, d)| s | (((1u64 << 53) as i64 + d) as u64 as f64).to_bits()),
        (-100_000i64..100_000, 0u32..4)
            .prop_map(|(k, e)| (k as f64 / 10f64.powi(e as i32)).to_bits()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Arbitrary bit patterns survive the codec chooser bit for bit, and so
    // do decimal chunks with one value the decimal check refuses.
    #[test]
    fn doubles_roundtrip_bit_for_bit_through_the_chooser(
        bits in prop::collection::vec(arb_double_bits(), 0..200),
        decimals in prop::collection::vec(-1_000_000i64..1_000_000, 1..200),
        exponent in 0i32..4,
        odd in prop_oneof![
            Just(-0.0f64),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(5e-324),
            Just(std::f64::consts::PI),
        ],
        at in any::<usize>(),
    ) {
        let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        assert_doubles_roundtrip(&values);
        let mut values: Vec<f64> =
            decimals.iter().map(|&k| k as f64 / 10f64.powi(exponent)).collect();
        prop_assert_eq!(assert_doubles_roundtrip(&values), encoding::Encoding::Decimal.tag());
        values.insert(at % (values.len() + 1), odd);
        prop_assert_eq!(assert_doubles_roundtrip(&values), encoding::Encoding::Plain.tag());
    }
}

/// `sensors`' temperatures (`k / 10`) are stored decimal; a decimal and an
/// LZ'd string chunk survive every truncation and byte flip; an exponent
/// beyond the table and a 2^40 value count are errors, nothing reserved.
#[test]
fn decimal_and_lz_string_chunks_refuse_damage() {
    let temps: Vec<f64> = (0..600).map(|k| (k % 650 - 200) as f64 / 10.0).collect();
    let decimal = double_chunk(&temps);
    assert_eq!(
        assert_doubles_roundtrip(&temps),
        encoding::Encoding::Decimal.tag()
    );
    assert_damage_is_survived(&decimal);

    let (buf, tag_at) = encoded(&decimal);
    let mut beyond = buf.clone();
    beyond[tag_at + 1] = encoding::decimal::MAX_EXPONENT + 1;
    assert!(ColumnChunk::decode(decimal.spec.clone(), &beyond, &mut 0).is_err());
    let mut huge = buf[..=tag_at + 1].to_vec();
    encoding::varint::write_u64(&mut huge, 1 << 40);
    huge.extend_from_slice(&[0; 64]);
    assert!(ColumnChunk::decode(decimal.spec.clone(), &huge, &mut 0).is_err());

    let text: Vec<String> = (0..300)
        .map(|i| format!("tweet {i} about #jobs and the weather in town {}", i % 7))
        .collect();
    let strings = string_chunk(&text);
    let (buf, tag_at) = encoded(&strings);
    assert_ne!(
        buf[tag_at] & columnar::chunk::LZ_FLAG,
        0,
        "repetitive text is LZ'd"
    );
    let back = ColumnChunk::decode(strings.spec.clone(), &buf, &mut 0).unwrap();
    assert_eq!(back, strings);
    assert_damage_is_survived(&strings);
    // Short, distinct strings do not pay for LZ and stay as they are.
    let distinct: Vec<String> = (0..40).map(|i| format!("{:x}", i * 7919)).collect();
    let (buf, tag_at) = encoded(&string_chunk(&distinct));
    assert_eq!(buf[tag_at] & columnar::chunk::LZ_FLAG, 0);
}
