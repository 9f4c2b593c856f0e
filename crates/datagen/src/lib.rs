//! # datagen — synthetic versions of the paper's evaluation datasets
//!
//! The paper evaluates against five datasets (Table 1): `cell` (telecom call
//! records, flat/1NF, mixed numeric and string scalars), `sensors`
//! (numeric-heavy nested readings), `tweet_1` (text-heavy, very many
//! columns), `wos` (Web of Science records with heterogeneous union-typed
//! fields) and `tweet_2` (a moderate-column tweet sample with a monotone
//! timestamp, used for the secondary-index and update experiments).
//!
//! The real datasets are proprietary (telecom data, Twitter API captures,
//! Clarivate's Web of Science), so this crate generates synthetic documents
//! with the same *structural* characteristics — record shape, nesting,
//! column counts, value-type mix, heterogeneity — which is what every
//! experiment in the paper actually exercises; absolute sizes and value
//! distributions are not reproduced. Sizes are scaled to laptop scale
//! through [`DatasetSpec::records`].
//!
//! Generators are deterministic given a seed, so experiments are repeatable.

use docmodel::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which of the paper's datasets to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Telecom call records: flat (1NF), mixed int/double/string scalars.
    Cell,
    /// Sensor readings: numeric-heavy with a nested readings array.
    Sensors,
    /// Tweets (2020–2021 capture): text-heavy, very many columns.
    Tweet1,
    /// Web of Science publications: large text values plus union-typed
    /// (object vs. array-of-object) address fields.
    Wos,
    /// Tweets (2016 sample): moderate columns, monotone `timestamp`.
    Tweet2,
}

impl DatasetKind {
    /// All five datasets, in the paper's order.
    pub const ALL: [DatasetKind; 5] = [
        DatasetKind::Cell,
        DatasetKind::Sensors,
        DatasetKind::Tweet1,
        DatasetKind::Wos,
        DatasetKind::Tweet2,
    ];

    /// Name used in experiment output (matches the paper's figures).
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Cell => "cell",
            DatasetKind::Sensors => "sensors",
            DatasetKind::Tweet1 => "tweet_1",
            DatasetKind::Wos => "wos",
            DatasetKind::Tweet2 => "tweet_2",
        }
    }

    /// The primary-key field of the generated records.
    pub fn key_field(self) -> &'static str {
        "id"
    }
}

/// How much data to generate.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Which dataset.
    pub kind: DatasetKind,
    /// Number of records.
    pub records: usize,
    /// RNG seed (generation is deterministic given the seed).
    pub seed: u64,
}

impl DatasetSpec {
    /// A spec with the default seed.
    pub fn new(kind: DatasetKind, records: usize) -> DatasetSpec {
        DatasetSpec {
            kind,
            records,
            seed: 0x5EED_0001,
        }
    }
}

/// Generate the dataset described by `spec`.
pub fn generate(spec: &DatasetSpec) -> Vec<Value> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    (0..spec.records)
        .map(|i| generate_record(spec.kind, i as i64, &mut rng))
        .collect()
}

/// Generate a single record of the given dataset with primary key `id`.
pub fn generate_record(kind: DatasetKind, id: i64, rng: &mut StdRng) -> Value {
    match kind {
        DatasetKind::Cell => cell_record(id, rng),
        DatasetKind::Sensors => sensors_record(id, rng),
        DatasetKind::Tweet1 => tweet_record(id, rng, true),
        DatasetKind::Wos => wos_record(id, rng),
        DatasetKind::Tweet2 => tweet_record(id, rng, false),
    }
}

/// Generate an update stream: `fraction` of the previously generated records
/// are re-generated (same keys, new payloads), uniformly at random — the
/// update-intensive workload of §6.3.2.
pub fn generate_updates(spec: &DatasetSpec, fraction: f64) -> Vec<Value> {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xDEAD_BEEF);
    let count = (spec.records as f64 * fraction) as usize;
    (0..count)
        .map(|_| {
            let id = rng.gen_range(0..spec.records as i64);
            generate_record(spec.kind, id, &mut rng)
        })
        .collect()
}

fn pick<'a>(rng: &mut StdRng, options: &[&'a str]) -> &'a str {
    options[rng.gen_range(0..options.len())]
}

fn words(rng: &mut StdRng, n: usize) -> String {
    const WORDS: [&str; 24] = [
        "data", "column", "store", "query", "lsm", "flush", "merge", "page", "schema", "tweet",
        "sensor", "reading", "game", "title", "science", "paper", "result", "fast", "slow",
        "big", "small", "new", "old", "test",
    ];
    let mut out = String::new();
    for i in 0..n {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
    }
    out
}

// --- cell: flat 1NF call records ------------------------------------------

fn cell_record(id: i64, rng: &mut StdRng) -> Value {
    Value::empty_object()
        .with_field("id", Value::Int(id))
        .with_field("caller", Value::from(format!("+1202555{:04}", rng.gen_range(0..10_000))))
        .with_field("callee", Value::from(format!("+1415555{:04}", rng.gen_range(0..10_000))))
        .with_field("duration", Value::Int(rng.gen_range(1..3600)))
        .with_field("tower", Value::Int(rng.gen_range(0..5_000)))
        .with_field("signal", Value::Double(rng.gen_range(-120.0..-40.0)))
        .with_field("ts", Value::Int(1_600_000_000_000 + id * 977))
}

// --- sensors: numeric-heavy nested readings --------------------------------

fn sensors_record(id: i64, rng: &mut StdRng) -> Value {
    let reading_count = rng.gen_range(4..12);
    let readings: Vec<Value> = (0..reading_count)
        .map(|j| {
            Value::empty_object()
                .with_field("seq", Value::Int(j))
                .with_field("temp", Value::Double((rng.gen_range(-200..450) as f64) / 10.0))
                .with_field("humidity", Value::Int(rng.gen_range(0..100)))
        })
        .collect();
    Value::empty_object()
        .with_field("id", Value::Int(id))
        .with_field("sensor_id", Value::Int(id % 5_000))
        .with_field("report_time", Value::Int(1_556_400_000_000 + id * 60_000))
        .with_field(
            "status",
            Value::empty_object()
                .with_field("battery", Value::Int(rng.gen_range(0..100)))
                .with_field("rssi", Value::Int(rng.gen_range(-90..-30)))
                .with_field("online", Value::Bool(rng.gen_bool(0.95))),
        )
        .with_field("readings", Value::Array(readings))
}

// --- tweets: text heavy ------------------------------------------------------

fn tweet_record(id: i64, rng: &mut StdRng, wide: bool) -> Value {
    let text_len = if wide { rng.gen_range(12..40) } else { rng.gen_range(6..20) };
    let hashtags: Vec<Value> = (0..rng.gen_range(0..4))
        .map(|_| {
            Value::empty_object().with_field(
                "text",
                Value::from(pick(rng, &["jobs", "rust", "vldb", "news", "sports"])),
            )
        })
        .collect();
    let mut user = Value::empty_object()
        .with_field("name", Value::from(format!("user_{}", rng.gen_range(0..50_000))))
        .with_field("followers_count", Value::Int(rng.gen_range(0..1_000_000)))
        .with_field("verified", Value::Bool(rng.gen_bool(0.02)))
        .with_field("lang", Value::from(pick(rng, &["en", "es", "ja", "ar", "pt"])));
    if wide {
        // tweet_1 has an "excessive" number of columns (933 inferred in the
        // paper): emulate the width with optional, sparsely-populated groups
        // of metadata fields so the inferred schema grows wide.
        let mut extended = Value::empty_object();
        for g in 0..rng.gen_range(3..8) {
            let group = rng.gen_range(0..40);
            extended.set_field(
                format!("meta_{group}_{g}"),
                Value::empty_object()
                    .with_field("v", Value::Int(rng.gen_range(0..1000)))
                    .with_field("s", Value::from(words(rng, 2))),
            );
        }
        user.set_field("extended", extended);
    }
    Value::empty_object()
        .with_field("id", Value::Int(id))
        .with_field("timestamp", Value::Int(1_450_000_000_000 + id))
        .with_field("text", Value::from(words(rng, text_len)))
        .with_field("lang", Value::from(pick(rng, &["en", "es", "ja", "ar", "pt"])))
        .with_field("retweet_count", Value::Int(rng.gen_range(0..10_000)))
        .with_field("favorite_count", Value::Int(rng.gen_range(0..50_000)))
        .with_field("user", user)
        .with_field(
            "entities",
            Value::empty_object().with_field("hashtags", Value::Array(hashtags)),
        )
        .with_field(
            "coordinates",
            if rng.gen_bool(0.15) {
                Value::from(vec![
                    Value::Double(rng.gen_range(-180.0..180.0)),
                    Value::Double(rng.gen_range(-90.0..90.0)),
                ])
            } else {
                Value::Null
            },
        )
}

// --- wos: publications with heterogeneous (union-typed) address field -------

fn wos_record(id: i64, rng: &mut StdRng) -> Value {
    let author_count = rng.gen_range(1..6);
    let abstract_words = rng.gen_range(60..220);
    let title_words = rng.gen_range(6..16);
    fn make_address(rng: &mut StdRng) -> Value {
        const COUNTRIES: [&str; 10] = [
            "USA", "China", "Germany", "UK", "Japan", "France", "Canada", "Brazil", "India",
            "Korea",
        ];
        Value::empty_object().with_field(
            "address_spec",
            Value::empty_object()
                .with_field("country", Value::from(pick(rng, &COUNTRIES)))
                .with_field("city", Value::from(words(rng, 1))),
        )
    }
    // The XML→JSON conversion produced a union: a single-authored paper has
    // an *object* address_name, a multi-authored one has an *array* of them.
    let address_name = if author_count == 1 {
        make_address(rng)
    } else {
        Value::Array((0..author_count).map(|_| make_address(rng)).collect())
    };
    let subjects: Vec<Value> = (0..rng.gen_range(1..4))
        .map(|_| {
            Value::empty_object()
                .with_field("ascatype", Value::from(pick(rng, &["extended", "traditional"])))
                .with_field(
                    "value",
                    Value::from(pick(rng, &[
                        "Computer Science",
                        "Physics",
                        "Biology",
                        "Mathematics",
                        "Chemistry",
                        "Medicine",
                    ])),
                )
        })
        .collect();
    Value::empty_object()
        .with_field("id", Value::Int(id))
        .with_field("year", Value::Int(rng.gen_range(1980..2015)))
        .with_field(
            "static_data",
            Value::empty_object().with_field(
                "fullrecord_metadata",
                Value::empty_object()
                    .with_field("abstract", Value::from(words(rng, abstract_words)))
                    .with_field(
                        "addresses",
                        Value::empty_object().with_field("address_name", address_name),
                    )
                    .with_field(
                        "category_info",
                        Value::empty_object().with_field(
                            "subjects",
                            Value::empty_object().with_field("subject", Value::Array(subjects)),
                        ),
                    ),
            ),
        )
        .with_field("title", Value::from(words(rng, title_words)))
}

/// Summary statistics of a generated dataset, used to print Table 1.
#[derive(Debug, Clone)]
pub struct DatasetSummary {
    /// Dataset name.
    pub name: &'static str,
    /// Number of records generated.
    pub records: usize,
    /// Total JSON text size in bytes.
    pub json_bytes: u64,
    /// Average record size in bytes.
    pub avg_record_bytes: u64,
    /// Number of columns the schema crate infers.
    pub inferred_columns: usize,
}

/// Compute the Table-1 style summary for a generated dataset.
pub fn summarize(kind: DatasetKind, records: &[Value]) -> DatasetSummary {
    let mut builder = schema::SchemaBuilder::new(Some(kind.key_field().to_string()));
    let mut json_bytes = 0u64;
    for r in records {
        json_bytes += docmodel::to_json(r).len() as u64;
        builder.observe(r);
    }
    let columns = schema::columns_of(builder.schema()).len();
    DatasetSummary {
        name: kind.name(),
        records: records.len(),
        json_bytes,
        avg_record_bytes: if records.is_empty() {
            0
        } else {
            json_bytes / records.len() as u64
        },
        inferred_columns: columns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for kind in DatasetKind::ALL {
            let a = generate(&DatasetSpec::new(kind, 50));
            let b = generate(&DatasetSpec::new(kind, 50));
            assert_eq!(a, b, "{kind:?}");
            assert_eq!(a.len(), 50);
        }
    }

    #[test]
    fn every_record_has_an_integer_key() {
        for kind in DatasetKind::ALL {
            let records = generate(&DatasetSpec::new(kind, 30));
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.get_field("id"), Some(&Value::Int(i as i64)), "{kind:?}");
            }
        }
    }

    #[test]
    fn structural_characteristics_match_the_paper() {
        let cell = summarize(DatasetKind::Cell, &generate(&DatasetSpec::new(DatasetKind::Cell, 200)));
        let sensors =
            summarize(DatasetKind::Sensors, &generate(&DatasetSpec::new(DatasetKind::Sensors, 200)));
        let tweet1 =
            summarize(DatasetKind::Tweet1, &generate(&DatasetSpec::new(DatasetKind::Tweet1, 400)));
        let tweet2 =
            summarize(DatasetKind::Tweet2, &generate(&DatasetSpec::new(DatasetKind::Tweet2, 200)));
        let wos = summarize(DatasetKind::Wos, &generate(&DatasetSpec::new(DatasetKind::Wos, 200)));

        // cell is 1NF with the fewest columns and the smallest records.
        assert!(cell.inferred_columns <= 10);
        assert!(cell.avg_record_bytes < sensors.avg_record_bytes);
        // tweet_1 has far more columns than tweet_2 (933 vs 275 in Table 1).
        assert!(tweet1.inferred_columns > tweet2.inferred_columns * 2);
        // wos records are the largest on average (long abstracts).
        assert!(wos.avg_record_bytes > tweet2.avg_record_bytes);
    }

    #[test]
    fn wos_contains_heterogeneous_address_field() {
        let records = generate(&DatasetSpec::new(DatasetKind::Wos, 100));
        let mut builder = schema::SchemaBuilder::new(Some("id".to_string()));
        builder.observe_all(records.iter());
        let schema = builder.into_schema();
        let node = schema
            .resolve_path(&docmodel::Path::parse(
                "static_data.fullrecord_metadata.addresses.address_name",
            ))
            .unwrap();
        assert!(
            matches!(schema.node(node), schema::SchemaNode::Union { .. }),
            "address_name should infer as a union of object and array"
        );
    }

    #[test]
    fn update_stream_reuses_existing_keys() {
        let spec = DatasetSpec::new(DatasetKind::Tweet2, 100);
        let updates = generate_updates(&spec, 0.5);
        assert_eq!(updates.len(), 50);
        for u in &updates {
            let id = u.get_field("id").and_then(Value::as_int).unwrap();
            assert!((0..100).contains(&id));
        }
    }

    #[test]
    fn tweet2_timestamps_are_monotone_in_id() {
        let records = generate(&DatasetSpec::new(DatasetKind::Tweet2, 100));
        let ts: Vec<i64> = records
            .iter()
            .map(|r| r.get_field("timestamp").and_then(Value::as_int).unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
    }
}
