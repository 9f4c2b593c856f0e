//! The metric catalogue (`BENCHMARK.json` lists the same names; a test
//! holds the two together) and the result a workload hands back.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::trace::Tracer;
use crate::workloads::Measured;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// The engine crate the metric belongs to (`""` for end-to-end ones).
    pub layer: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        layer: "",
    }
}

const fn layer(layer: &'static str, name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, layer }
}

/// What a user of the system sees. Every workload reports every one; the
/// op each counts is the workload's own (see the README).
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s"),
    e2e("ops_s", "1/s"),
    e2e("op_us_p50", "us"),
    e2e("op_us_p95", "us"),
];

/// Single-layer metrics of the traced run. A layer that takes no part in a
/// workload reports 0.
pub const PER_LAYER: [MetricDef; 47] = [
    layer("docmodel", "parse_ns_per_doc", "ns"),
    layer("docmodel", "print_ns_per_doc", "ns"),
    layer("server", "resp_decode_ns_per_req", "ns"),
    layer("server", "resp_encode_ns_per_reply", "ns"),
    layer("server", "queryspec_parse_us", "us"),
    layer("server", "wire_overhead_us", "us"),
    layer("persist", "wal_append_ns_per_rec", "ns"),
    layer("persist", "wal_sync_us", "us"),
    layer("persist", "reopen_ms", "ms"),
    layer("lsm", "memtable_insert_ns_per_rec", "ns"),
    layer("lsm", "flush_s", "s"),
    layer("lsm", "merge_s", "s"),
    layer("lsm", "flushes", "count"),
    layer("lsm", "merges", "count"),
    layer("lsm", "stall_ms_max", "ms"),
    layer("lsm", "reconcile_ns_per_rec", "ns"),
    layer("schema", "observe_ns_per_rec", "ns"),
    layer("columnar", "shred_ns_per_rec", "ns"),
    layer("columnar", "assemble_ns_per_rec", "ns"),
    layer("columnar", "records_assembled_per_get", "count"),
    layer("encoding", "encode_mb_s", "MB/s"),
    layer("encoding", "decode_mb_s", "MB/s"),
    layer("storage", "component_write_ns_per_rec", "ns"),
    layer("storage", "leaf_decode_us", "us"),
    layer("storage", "pages_read_per_round", "count"),
    layer("storage", "pages_read_per_get", "count"),
    layer("storage", "leaf_cache_hit_rate", "ratio"),
    layer("storage", "leaf_cache_evictions", "count"),
    layer("storage", "bytes_written", "bytes"),
    layer("storage", "write_amp", "ratio"),
    layer("storage", "space_amp", "ratio"),
    layer("query", "plan_us", "us"),
    layer("query", "exec_ns_per_rec_compiled", "ns"),
    layer("query", "exec_ns_per_rec_interpreted", "ns"),
    layer("query", "rows_examined_per_row_returned", "ratio"),
    layer("query", "q_count_ms", "ms"),
    layer("query", "q_max_unnest_ms", "ms"),
    layer("query", "q_group_topk_ms", "ms"),
    layer("query", "q_filter_topk_ms", "ms"),
    layer("query", "q_range_0p1_ms", "ms"),
    layer("query", "q_range_100_ms", "ms"),
    layer("telemetry", "telemetry_overhead_pct", "%"),
    layer("benchmark", "trace_overhead_pct", "%"),
    layer("benchmark", "attributed_share", "ratio"),
    layer("benchmark", "server_docmodel_share", "ratio"),
    layer("benchmark", "wall_per_cpu", "ratio"),
    layer("benchmark", "op_samples", "count"),
];

/// Values for one of the two catalogues. Setting a name the catalogue
/// lacks is a bug in the benchmark, not a runtime condition.
pub struct Values {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    pub fn end_to_end() -> Values {
        Values {
            defs: &END_TO_END,
            values: BTreeMap::new(),
        }
    }

    pub fn per_layer() -> Values {
        Values {
            defs: &PER_LAYER,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.defs.iter().any(|d| d.name == name),
            "metric '{name}' is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Every metric of the catalogue, in catalogue order; unset ones are 0.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().map(|d| (d, self.get(d.name)))
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` as the result line wants.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(d, v)| {
                    (
                        d.name.to_string(),
                        Json::obj([("value", Json::Num(v)), ("unit", Json::str(d.unit))]),
                    )
                })
                .collect(),
        )
    }
}

/// Counts checks against the number attempted; a wrong or refused reply is
/// a failed op. Keeps the first few descriptions for the report.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
}

impl Checker {
    const KEPT: usize = 5;

    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failures.len() < Self::KEPT {
                self.first_failures.push(describe());
            }
        }
    }

    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = Self::KEPT.saturating_sub(self.first_failures.len());
        self.first_failures
            .extend(other.first_failures.into_iter().take(room));
    }
}

/// Time a layer is estimated to have spent in the measured phase: its
/// replayed unit cost times the live op count.
pub struct Attribution {
    pub layer: &'static str,
    pub what: &'static str,
    pub ops: u64,
    pub seconds: f64,
}

/// What one run of one workload produced.
pub struct Outcome {
    pub checks: Checker,
    pub end_to_end: Values,
    /// Filled only by a traced run.
    pub per_layer: Values,
    /// Record counts, bytes on disk, sample counts and the like for the
    /// run stamp.
    pub notes: Vec<(&'static str, Json)>,
    pub attribution: Vec<Attribution>,
    pub measured: Measured,
    pub tracer: Tracer,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_catalogue_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let spec = docmodel::parse_json(text).expect("BENCHMARK.json is JSON");
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = spec
                .get_field(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get_field(f)
                            .and_then(|v| v.as_str())
                            .expect("string")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let coded: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(listed, coded, "{key}");
        }
        let workloads: Vec<&str> = spec
            .get_field("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| w.get_field("name").and_then(|v| v.as_str()).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique_and_unset_metrics_read_zero() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
        let mut v = Values::end_to_end();
        v.set("ops_s", 2.5);
        assert_eq!(v.get("ops_s"), 2.5);
        assert_eq!(v.iter().count(), END_TO_END.len());
        assert!(v
            .to_json()
            .to_string()
            .contains(r#""op_us_p95": {"value": 0, "unit": "us"}"#));
    }

    #[test]
    fn the_checker_counts_and_keeps_the_first_failures() {
        let mut c = Checker::default();
        for i in 0..10 {
            c.check(i % 2 == 0, || format!("odd {i}"));
        }
        assert_eq!((c.attempted, c.failed), (10, 5));
        assert_eq!(c.first_failures[0], "odd 1");
    }
}
