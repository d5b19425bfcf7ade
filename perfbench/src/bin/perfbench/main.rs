//! The LeCA repository benchmark.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `perfbench/README.md`) from the repository
//! root, checks its outputs, prints every metric by name and unit, and
//! ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs the traced variant and reports the per-layer metrics (a layer the
//! workload never calls reads 0) and writes the spans to
//! `perfbench/out/`.

mod common;
mod infer;
mod serve;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Metric, Res};

/// The end-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: &[&str] = &["setup_s", "peak_rss_mb", "ref_cost_per_item"];

/// The per-layer metrics every workload reports with `--trace 1`, with
/// their units (0 for layers the workload does not call).
const PER_LAYER: &[(&str, &str)] = &[
    ("core.encoder.fwd_ms", "ms"),
    ("core.encoder.bwd_ms", "ms"),
    ("core.decoder.fwd_ms", "ms"),
    ("core.decoder.bwd_ms", "ms"),
    ("nn.backbone.fwd_ms", "ms"),
    ("nn.backbone.bwd_ms", "ms"),
    ("core.decoder.fwd_gflops", "GFLOP/s"),
    ("core.decoder.bwd_gflops", "GFLOP/s"),
    ("nn.backbone.fwd_gflops", "GFLOP/s"),
    ("nn.backbone.bwd_gflops", "GFLOP/s"),
    ("nn.loss_ms", "ms"),
    ("nn.optim.adam_ms", "ms"),
    ("data.dataset.batch_ms", "ms"),
    ("core.decoder.fwd_ws_ms", "ms"),
    ("nn.backbone.fwd_ws_ms", "ms"),
    ("core.decoder.fwd_ws_gflops", "GFLOP/s"),
    ("nn.backbone.fwd_ws_gflops", "GFLOP/s"),
    ("data.bayer.mosaic_ms", "ms"),
    ("sensor.capture_ms", "ms"),
    ("tensor.workspace.misses_per_batch", "count"),
    ("tensor.workspace.bytes_resident", "bytes"),
    ("wall.items_per_s", "1/s"),
    ("wall.p50_ms", "ms"),
    ("wall.tail_ms", "ms"),
    ("serve.max_rps_at_slo", "1/s"),
    ("serve.p99_ms", "ms"),
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.shed_share", "share"),
    ("serve.timeout_share", "share"),
    ("serve.retries", "count"),
    ("core.session.classify_batch_ms.b1", "ms"),
    ("core.session.classify_batch_ms.b8", "ms"),
    ("serve.wait_ms_p50", "ms"),
    ("loadgen.lag_ms_p99", "ms"),
    ("trace.overhead_imgs_per_s", "1/s"),
    ("trace.overhead_frames_per_s", "1/s"),
    ("trace.span_coverage", "share"),
];

const WORKLOADS: &[&str] = &["train_proxy_noisy", "sensor_infer_full", "serve_proxy_open"];

/// Threads of the tensor pool. One, so that a step's CPU time is its
/// work and not how the work happened to be split between threads.
const THREADS: usize = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Res<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Clears every `LECA_*` knob from the environment and pins the two that
/// define what is measured: `LECA_THREADS=1` and the `auto` backend (no
/// fast-math tier, no autotuning, no serve overrides).
fn pin_environment() {
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("LECA_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    std::env::set_var("LECA_THREADS", THREADS.to_string());
    std::env::set_var("LECA_BACKEND", "auto");
}

/// Checks the pinning took effect and describes the machine and build.
fn provenance() -> Res<String> {
    let backend = leca_tensor::backend::active();
    if !backend.bit_exact() {
        return Err(format!("backend `{}` is not bit-exact", backend.name()));
    }
    let threads = leca_tensor::parallel::num_threads();
    if threads != THREADS {
        return Err(format!("tensor pool has {threads} threads, want {THREADS}"));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |v| v.trim().to_string());
    Ok(format!(
        "provenance: commit={} cpu_features={} backend={} threads={threads} nproc={nproc} rustc=\"{rustc}\"",
        git_commit(),
        leca_tensor::backend::cpu_features(),
        backend.name(),
    ))
}

/// The checked-out commit, read from `.git` when the benchmark runs in a
/// git work tree.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id;
    }
    read(".git/packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn run() -> Res<()> {
    let args = parse_args()?;
    pin_environment();
    let provenance = provenance()?;
    let trace_path = PathBuf::from(format!(
        "perfbench/out/trace_{}_seed{}.jsonl",
        args.workload, args.seed
    ));
    let run = match args.workload.as_str() {
        "train_proxy_noisy" => train::run,
        "sensor_infer_full" => infer::run,
        _ => serve::run,
    };
    let mut report = run(args.seed, args.seconds, args.trace, &trace_path)?;

    // Put the metrics in declared order; every end-to-end metric must have
    // been measured, and per-layer metrics of layers the workload never
    // calls read 0.
    let mut measured = std::mem::take(&mut report.metrics);
    let mut take = |name: &str| {
        let at = measured.iter().position(|m| m.name == name)?;
        Some(measured.swap_remove(at))
    };
    let mut ordered = Vec::new();
    if args.trace {
        for &(name, unit) in PER_LAYER {
            let m = take(name).unwrap_or(Metric {
                name,
                value: 0.0,
                unit,
            });
            report.line(format!("layer {name} = {} {unit}", m.value));
            ordered.push(m);
        }
    } else {
        for &name in END_TO_END {
            ordered.push(take(name).ok_or(format!("{name} was not measured"))?);
        }
    }
    if let Some(extra) = measured.first() {
        return Err(format!("metric {} is not declared", extra.name));
    }
    report.metrics = ordered;

    println!("{provenance}");
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace
    );
    for line in &report.lines {
        println!("{line}");
    }
    for failure in &report.check_failures {
        println!("check failed: {failure}");
    }
    if args.trace {
        println!("spans written to {}", trace_path.display());
    }
    println!("{}", report.json());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
