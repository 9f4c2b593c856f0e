//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p bench --bin experiments            # everything, default scale
//! cargo run --release -p bench --bin experiments -- --scale 0.5 --only fig12,fig14
//! cargo run --release -p bench --bin experiments -- --only fig15 --smoke
//! ```
//!
//! Output is a set of aligned matrices, one per table/figure, with the same
//! rows and columns the paper reports; times are informational (see the
//! `bench` crate docs). `--smoke` caps the scale at 0.05 so CI can exercise
//! a sweep end-to-end in seconds. The `fig15` selection
//! additionally runs the scan-vs-index crossover sweep (ForceIndex vs
//! ForceScan vs the cost-based Auto) and writes it to `BENCH_fig15.json`.

use bench::*;
use datagen::DatasetKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut only: Option<Vec<String>> = None;
    let mut smoke = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .expect("--scale needs a number");
                i += 2;
            }
            "--only" => {
                only = Some(
                    args.get(i + 1)
                        .expect("--only needs a list")
                        .split(',')
                        .map(str::to_string)
                        .collect(),
                );
                i += 2;
            }
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    if smoke {
        scale = scale.min(0.05);
    }
    let wanted = |name: &str| only.as_ref().map(|o| o.iter().any(|x| x == name)).unwrap_or(true);

    println!("Columnar Formats for Schemaless LSM-based Document Stores — reproduction harness");
    println!("scale factor: {scale}");

    if wanted("table1") {
        print_matrix("Table 1: dataset summary", &table1(scale));
    }
    if wanted("fig10") {
        print_matrix(
            "Figure 10: interpreted vs code-generated execution (sensors)",
            &fig10_codegen(scale),
        );
    }
    if wanted("fig12") {
        print_matrix("Figure 12a: on-disk storage size", &fig12_storage(scale));
    }
    if wanted("fig13") {
        print_matrix("Figure 13a: ingestion time", &fig13_ingestion(scale));
    }
    if wanted("fig14") {
        for kind in [
            DatasetKind::Cell,
            DatasetKind::Sensors,
            DatasetKind::Tweet1,
            DatasetKind::Wos,
        ] {
            print_matrix(
                &format!("Figure 14: query times ({})", kind.name()),
                &fig14_queries(kind, scale),
            );
        }
    }
    if wanted("fig15") {
        print_matrix(
            "Figure 15: secondary-index range queries (tweet_2)",
            &fig15_secondary(scale),
        );
        let crossover = fig15_crossover(scale);
        print_matrix(
            "Figure 15 crossover: index vs scan vs cost-based Auto (tweet_2)",
            &crossover,
        );
        let out = std::path::Path::new("BENCH_fig15.json");
        match write_measurements_json(out, "fig15_crossover", scale, &crossover) {
            Ok(()) => println!("\nwrote {}", out.display()),
            Err(e) => eprintln!("\ncould not write {}: {e}", out.display()),
        }
    }
    if wanted("fig16") {
        print_matrix(
            "Figure 16: impact of number of columns accessed (tweet_2)",
            &fig16_column_count(scale),
        );
    }
    if wanted("concurrency") {
        let records = (8_000_f64 * scale).max(500.0) as usize;
        let shards = std::thread::available_parallelism()
            .map(|n| n.get().clamp(2, 8))
            .unwrap_or(4);
        print_matrix(
            "Concurrency: blocking vs background flush/merge vs sharded parallel ingest (cell)",
            &run_concurrency_comparison(DatasetKind::Cell, records, shards),
        );
    }
    if wanted("compaction") {
        let rows = run_compaction_comparison(scale);
        print_matrix(
            "Compaction: tiered vs leveled vs lazy-leveled, amp + GC packing (tweet_1)",
            &rows,
        );
        let out = std::path::Path::new("BENCH_compaction.json");
        match write_measurements_json(out, "compaction_strategies", scale, &rows) {
            Ok(()) => println!("\nwrote {}", out.display()),
            Err(e) => eprintln!("\ncould not write {}: {e}", out.display()),
        }
    }
    if wanted("cache") {
        let rows = run_cache_comparison(scale);
        print_matrix(
            "Decoded-leaf cache: cold vs warm latency, hit rate, budget sweep (tweet_2)",
            &rows,
        );
        let out = std::path::Path::new("BENCH_cache.json");
        match write_measurements_json(out, "leaf_cache", scale, &rows) {
            Ok(()) => println!("\nwrote {}", out.display()),
            Err(e) => eprintln!("\ncould not write {}: {e}", out.display()),
        }
    }
    if wanted("pushdown") {
        let rows = run_pushdown_comparison(scale);
        print_matrix(
            "Filter pushdown: selectivity x layout, pushed vs unpushed scans",
            &rows,
        );
        let out = std::path::Path::new("BENCH_pushdown.json");
        match write_measurements_json(out, "pushdown_selectivity", scale, &rows) {
            Ok(()) => println!("\nwrote {}", out.display()),
            Err(e) => eprintln!("\ncould not write {}: {e}", out.display()),
        }
    }
    if wanted("vectorized") {
        print_matrix(
            "Column kernels vs assembled lane: Fig. 14 sensors suite x layout (compiled engine)",
            &run_vectorized_comparison(scale),
        );
    }
    if wanted("server") {
        let rows = run_server_benchmark(scale);
        print_matrix(
            "Server: RESP front-end load generator, connections x pipeline depth",
            &rows,
        );
        let out = std::path::Path::new("BENCH_server.json");
        match write_measurements_json(out, "server_load", scale, &rows) {
            Ok(()) => println!("\nwrote {}", out.display()),
            Err(e) => eprintln!("\ncould not write {}: {e}", out.display()),
        }
    }
    if wanted("durability") {
        let records = (3_000_f64 * scale).max(200.0) as usize;
        print_matrix(
            "Durability: ingest wall time with WAL+manifest off vs on (sensors)",
            &run_durability_comparison(DatasetKind::Sensors, records),
        );
    }
    if wanted("ablations") {
        print_matrix(
            "Ablation: AMAX empty-page tolerance",
            &ablation_empty_page_tolerance(scale),
        );
        print_matrix(
            "Ablation: page compression on/off (sensors)",
            &ablation_compression(scale),
        );
    }
}
