//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p bench --bin experiments            # everything, full scale
//! cargo run --release -p bench --bin experiments -- --scale 0.5 --only fig12,fig14
//! cargo run --release -p bench --bin experiments -- --smoke
//! ```
//!
//! Runs the entries of `bench::EXPERIMENTS` (`--only` selects them by name)
//! and prints one aligned matrix per entry, with the rows and columns the
//! paper reports; times are informational (see the `bench` crate docs).
//! `--smoke` caps the scale at `bench::SMOKE_SCALE` so CI runs every entry
//! end to end in seconds. Only a full-scale run (scale ≥ 1) writes the
//! entries' `BENCH_*.json` artifacts, into the current directory.

use bench::{EXPERIMENTS, SMOKE_SCALE};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut scale = 1.0f64;
    let mut only: Option<Vec<String>> = None;
    let mut smoke = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args.next().and_then(|s| s.parse().ok()).expect("--scale needs a number")
            }
            "--only" => {
                let list = args.next().expect("--only needs a list");
                only = Some(list.split(',').map(str::to_string).collect());
            }
            "--smoke" => smoke = true,
            other => panic!("unknown argument {other}"),
        }
    }
    if smoke {
        scale = scale.min(SMOKE_SCALE);
    }
    for name in only.iter().flatten() {
        assert!(EXPERIMENTS.iter().any(|e| e.name == name), "unknown experiment {name}");
    }

    println!("Columnar Formats for Schemaless LSM-based Document Stores — reproduction harness");
    println!("scale factor: {scale}");
    for experiment in EXPERIMENTS {
        if only.as_ref().is_none_or(|o| o.iter().any(|name| name == experiment.name)) {
            experiment.run_and_emit(scale, std::path::Path::new("."));
        }
    }
}
