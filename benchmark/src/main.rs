//! The repository's benchmark. One command builds each workload's data
//! from a seed, runs it, checks every output against a model and prints
//! every metric by name with its unit. `benchmark/README.md` says why each
//! workload exists and how to read the output; `BENCHMARK.json` at the
//! repository root is the contract the last line of output follows.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! ```

mod gen;
mod json;
mod metrics;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use metrics::Outcome;
use workloads::Env;

/// Length of the measured phase when `--seconds` is not given; the same as
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 1.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn usage() -> String {
    format!(
        "usage: benchmark [--workload {}] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]",
        workloads::NAMES.join("|")
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut pending: Option<String> = None;
    loop {
        let Some(flag) = pending.take().or_else(|| args.next()) else {
            return Ok(parsed);
        };
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload '{name}'\n{}", usage()));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
                parsed.seconds = Some(seconds);
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => match args.next() {
                Some(v) if v == "0" || v == "1" => parsed.trace = v == "1",
                other => {
                    parsed.trace = true;
                    pending = other;
                }
            },
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
}

/// The benchmark's own directory: where `cargo run` found the manifest,
/// else where the package was built.
fn benchmark_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn first_line_of(mut command: Command) -> Option<String> {
    let output = command.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&output.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// The checked-out commit, looked up in the repository root only (the
/// benchmark also runs from exported trees that are not repositories).
fn git_commit(root: &Path) -> Option<String> {
    let mut git = Command::new("git");
    git.arg("-C").arg(root).args(["rev-parse", "HEAD"]);
    git.env("GIT_CEILING_DIRECTORIES", root.parent()?);
    first_line_of(git)
}

fn rustc_version() -> Option<String> {
    let mut rustc = Command::new("rustc");
    rustc.arg("-V");
    first_line_of(rustc)
}

/// Pin the calling thread, and with it every thread the process starts
/// later, to the highest CPU it may run on; returns that CPU.
///
/// On the two-core boxes this runs on, where the scheduler happened to put
/// the client and server threads decided `wire-kv`'s round-trip time: the
/// median ranged over 10-24 us from run to run unpinned and over
/// 16.1-17.1 us pinned. Pinned, the numbers are CPU cost per op; no claim
/// about parallel speed-up can rest on them.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    /// `cpu_set_t` of glibc: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed; the call
    // only reads it.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) } == 0)
        .then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

struct Stamp {
    commit: String,
    nproc: u64,
    /// The CPU the process is pinned to, if pinning worked.
    pinned_cpu: Option<usize>,
    rustc: String,
}

/// Describe the machine and pin the process (see [`pin_to_one_cpu`]).
fn pin_and_stamp(bench_dir: &Path) -> Stamp {
    let unknown = || "unknown".to_string();
    Stamp {
        commit: bench_dir
            .parent()
            .and_then(git_commit)
            .unwrap_or_else(unknown),
        // Read before pinning narrows the count to one.
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        pinned_cpu: pin_to_one_cpu(),
        rustc: rustc_version().unwrap_or_else(unknown),
    }
}

fn print_run(name: &str, env: &Env, outcome: &Outcome) {
    println!(
        "== {name}  seed {}  {} s measured  trace {}",
        env.seed,
        env.seconds,
        if env.trace { "on" } else { "off" }
    );
    println!(
        "  end to end{}",
        if env.trace {
            " (plain half of the traced run)"
        } else {
            ""
        }
    );
    for (def, value) in outcome.end_to_end.iter() {
        println!("    {:<34} {:>16.4} {}", def.name, value, def.unit);
    }
    let n = outcome.measured.op_samples;
    match stats::highest_supported_percentile(n) {
        Some(p) => println!(
            "    {n} latency samples; the highest percentile with ten samples beyond it is p{p}"
        ),
        None => println!("    {n} latency samples; too few to report any percentile"),
    }
    if env.trace {
        let mut layer = "";
        for (def, value) in outcome.per_layer.iter() {
            if def.layer != layer {
                layer = def.layer;
                println!("  {layer}");
            }
            println!("    {:<34} {:>16.4} {}", def.name, value, def.unit);
        }
        println!("  attributed time (replayed unit cost x live op count)");
        for a in &outcome.attribution {
            println!(
                "    {:<10} {:<58} {:>10} ops {:>10.4} s",
                a.layer, a.what, a.ops, a.seconds
            );
        }
        println!("  spans (benchmark-side, around facade calls)");
        for (span, total) in outcome.tracer.totals() {
            println!(
                "    {:<22} {:>9} x {:>12.3} ms total {:>12.3} ms self",
                span,
                total.count,
                total.total_ns as f64 / 1e6,
                total.self_ns() as f64 / 1e6
            );
        }
    }
    for (key, value) in outcome.notes.iter().chain(&outcome.measured.notes()) {
        println!("  {key}: {value}");
    }
    println!(
        "  attempted_ops {}  failed_ops {}",
        outcome.checks.attempted, outcome.checks.failed
    );
    for failure in &outcome.checks.first_failures {
        println!("  FAILED: {failure}");
    }
}

/// The record appended to `out/history.jsonl`; it ends with `"claim": null`
/// because a benchmark run states numbers, never a gain.
fn history_record(name: &str, env: &Env, stamp: &Stamp, outcome: &Outcome) -> Json {
    let mut metrics = match outcome.end_to_end.to_json() {
        Json::Obj(fields) => fields,
        _ => unreachable!("metrics render as an object"),
    };
    if env.trace {
        if let Json::Obj(fields) = outcome.per_layer.to_json() {
            metrics.extend(fields);
        }
    }
    Json::obj([
        ("workload", Json::str(name)),
        ("commit", Json::str(&stamp.commit)),
        ("nproc", Json::Int(stamp.nproc)),
        (
            "pinned_cpu",
            stamp
                .pinned_cpu
                .map_or(Json::Null, |cpu| Json::Int(cpu as u64)),
        ),
        ("rustc", Json::str(&stamp.rustc)),
        ("seed", Json::Int(env.seed)),
        ("seconds", Json::Num(env.seconds)),
        ("trace", Json::Bool(env.trace)),
        ("smoke", Json::Bool(env.smoke)),
        ("attempted_ops", Json::Int(outcome.checks.attempted)),
        ("failed_ops", Json::Int(outcome.checks.failed)),
        (
            "notes",
            Json::Obj(
                outcome
                    .notes
                    .iter()
                    .chain(&outcome.measured.notes())
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
        ("metrics", Json::Obj(metrics)),
        ("claim", Json::Null),
    ])
}

/// The line `BENCHMARK.json`'s reader expects last: end-to-end metrics of
/// a plain run, per-layer metrics of a traced one.
fn result_line(env: &Env, outcome: &Outcome) -> Json {
    let metrics = if env.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    Json::obj([
        ("correct", Json::Bool(outcome.checks.failed == 0)),
        ("attempted", Json::Int(outcome.checks.attempted)),
        ("failed", Json::Int(outcome.checks.failed)),
        ("metrics", metrics.to_json()),
    ])
}

fn run_one(name: &str, env: &Env, stamp: &Stamp, out_dir: &Path) -> std::io::Result<Outcome> {
    let outcome =
        workloads::run(name, env).expect("workload names are checked when arguments are parsed");
    print_run(name, env, &outcome);
    let record = history_record(name, env, stamp, &outcome);
    println!("  run: {record}");
    let mut history = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_dir.join("history.jsonl"))?;
    writeln!(history, "{record}")?;
    if env.trace {
        std::fs::write(
            out_dir.join(format!("trace-{name}.json")),
            outcome.tracer.to_json().to_string(),
        )?;
    }
    Ok(outcome)
}

/// Every workload in turn, and with `--trace` each one again with spans
/// recorded: what a person runs. Returns the summary line and whether any
/// check failed.
fn run_all(
    trace: bool,
    env_for: impl Fn(bool) -> Env,
    stamp: &Stamp,
    out_dir: &Path,
) -> std::io::Result<(Json, bool)> {
    let (mut attempted, mut failed) = (0, 0);
    let mut per_workload = Vec::new();
    for name in workloads::NAMES {
        let mut runs = vec![("plain", env_for(false))];
        if trace {
            runs.push(("traced", env_for(true)));
        }
        for (label, env) in runs {
            let outcome = run_one(name, &env, stamp, out_dir)?;
            attempted += outcome.checks.attempted;
            failed += outcome.checks.failed;
            let counts = Json::obj([
                ("attempted", Json::Int(outcome.checks.attempted)),
                ("failed", Json::Int(outcome.checks.failed)),
            ]);
            per_workload.push((format!("{name} ({label})"), counts));
        }
    }
    let summary = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("workloads", Json::Obj(per_workload)),
        ("claim", Json::Null),
    ]);
    Ok((summary, failed > 0))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let bench_dir = benchmark_dir();
    let out_dir = bench_dir.join("out");
    let scratch = out_dir.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let stamp = pin_and_stamp(&bench_dir);
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let env_for = |trace: bool| Env {
        seed: args.seed,
        seconds,
        trace,
        smoke: args.smoke,
        scratch: scratch.clone(),
    };
    let result = match &args.workload {
        // What the driver runs: one workload, plain or traced.
        Some(name) => {
            let env = env_for(args.trace);
            run_one(name, &env, &stamp, &out_dir)
                .map(|outcome| (result_line(&env, &outcome), outcome.checks.failed > 0))
        }
        None => run_all(args.trace, env_for, &stamp, &out_dir),
    };
    // Scratch data is this run's own; the history and traces stay.
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok((last_line, failed)) => {
            println!("{last_line}");
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("cannot write under {}: {e}", out_dir.display());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&[
            "--workload",
            "wire-kv",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("wire-kv"), 42, Some(10.0), true)
        );
        let a = parse(&["--trace", "0", "--seed", "3"]).unwrap();
        assert_eq!((a.trace, a.seed, a.workload), (false, 3, None));
    }

    #[test]
    fn trace_alone_is_a_flag() {
        let a = parse(&["--trace", "--smoke"]).unwrap();
        assert!(a.trace && a.smoke);
        assert!(parse(&["--trace"]).unwrap().trace);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
