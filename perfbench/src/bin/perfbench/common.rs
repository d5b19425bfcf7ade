//! Shared pieces: the run report, order statistics, set-up timing, peak
//! memory, and the analytic operation counts of the measured layers.

use std::fmt::Write as _;
use std::time::Instant;

use leca_core::LecaConfig;

/// Fallible result of a benchmark step; errors are reported as strings.
pub type Res<T> = Result<T, String>;

/// Turns any displayable error into the benchmark's error string.
pub fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Batch size of the closed-loop workloads (the paper's training batch).
pub const BATCH: usize = 32;

/// The CR 8 design point every workload runs (N_ch 4, Q_bit 3).
pub fn design_point() -> Res<LecaConfig> {
    LecaConfig::paper_for_cr(8).map_err(err("LecaConfig::paper_for_cr(8)"))
}

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports: the counted outcomes, the metrics that go
/// into the final JSON line, and human-readable lines printed before it.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

impl Report {
    /// Records one output check: an attempt, and when `ok` is false a
    /// failure that also makes the run incorrect (the reason is printed).
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.operation(ok);
        if !ok {
            self.check_failures.push(what.into());
        }
    }

    /// Records one operation that may fail without a wrong output, such
    /// as a request that was shed or timed out.
    pub fn operation(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds a metric to the JSON result.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds an informational line, printed before the JSON result.
    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Adds a metric under its generic result name and prints it under the
    /// workload-specific name it stands for.
    pub fn named(&mut self, key: &'static str, label: &str, value: f64, unit: &'static str) {
        self.line(format!("metric {label} = {value} {unit}  [{key}]"));
        self.metric(key, value, unit);
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let correct =
            self.check_failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite());
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples;
/// 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for s in samples {
        total += s;
    }
    total / samples.len() as f64
}

/// Side of the square f32 matrices the reference kernel multiplies; the
/// three take 768 KiB, about the working set of the pipeline's layers.
const REF_N: usize = 256;
/// Passes per reading; a reading is the fastest of them.
const REF_PASSES: usize = 2;
/// A pass's time on a quiet AVX2 core, about; `setup_s` is read as
/// seconds at this speed.
const REF_NOMINAL_MS: f64 = 2.0;

/// The yardstick of machine speed: wall time, in ms, of one pass of a
/// fixed kernel that lives in this file (one product of two
/// `REF_N`-square f32 matrices), the fastest of `REF_PASSES` passes.
///
/// On a shared host the speed of a core drifts by up to 1.8x over
/// seconds (other guests on the same physical cores and caches), and CPU
/// time stretches with it. A step's CPU time divided by the reference
/// time taken next to it cancels most of that drift; no repository code
/// runs in the kernel, so a change to the program cannot move the
/// yardstick.
pub fn reference_ms() -> f64 {
    let a: Vec<f32> = (0..REF_N * REF_N).map(|i| (i % 7) as f32 * 0.25).collect();
    let b: Vec<f32> = (0..REF_N * REF_N).map(|i| (i % 5) as f32 * 0.5).collect();
    let mut c = vec![0f32; REF_N * REF_N];
    let mut best = f64::INFINITY;
    for _ in 0..REF_PASSES {
        let t = Instant::now();
        c.fill(0.0);
        let a = std::hint::black_box(&a);
        for i in 0..REF_N {
            let row = &mut c[i * REF_N..(i + 1) * REF_N];
            for k in 0..REF_N {
                let aik = a[i * REF_N + k];
                for (x, y) in row.iter_mut().zip(&b[k * REF_N..(k + 1) * REF_N]) {
                    *x += aik * y;
                }
            }
        }
        std::hint::black_box(&c);
        best = best.min(ms_since(t));
    }
    best
}

/// One timed step: its wall time and the CPU time the process spent on
/// it, both in ms, and the mean of the reference readings taken just
/// before and just after it.
#[derive(Clone, Copy)]
pub struct StepTime {
    pub wall_ms: f64,
    pub cpu_ms: f64,
    pub ref_ms: f64,
}

impl StepTime {
    /// The step's CPU time in reference passes.
    pub fn ref_cost(&self) -> f64 {
        self.cpu_ms / self.ref_ms
    }
}

/// Runs `f` and returns its result with the time it took.
pub fn timed_step<T>(f: impl FnOnce() -> Res<T>) -> Res<(T, StepTime)> {
    let ref_before = reference_ms();
    let cpu = cpu_ms()?;
    let t = Instant::now();
    let out = f()?;
    let wall_ms = ms_since(t);
    let cpu_ms = cpu_ms()? - cpu;
    let ref_ms = (ref_before + reference_ms()) / 2.0;
    Ok((
        out,
        StepTime {
            wall_ms,
            cpu_ms,
            ref_ms,
        },
    ))
}

/// Reports a closed loop's figures over its untraced `steps`, each of
/// which handles `items` items; `label` names an item (`img`, `frame`).
///
/// The bounded end-to-end figure is `ref_cost_per_item`: the median
/// step's CPU time in reference passes (see [`reference_ms`]), over
/// `items`. CPU time leaves out the time the hypervisor gives to other
/// guests (steal); the reference cancels the drift of core speed. Wall
/// time is printed, and reported with the traced run's per-layer metrics.
pub fn report_closed_loop(
    rep: &mut Report,
    label: &str,
    steps: &[StepTime],
    items: usize,
    traced: bool,
) {
    let wall: Vec<f64> = steps.iter().map(|s| s.wall_ms).collect();
    let cpu: Vec<f64> = steps.iter().map(|s| s.cpu_ms).collect();
    let refs: Vec<f64> = steps.iter().map(|s| s.ref_ms).collect();
    let cost: Vec<f64> = steps.iter().map(StepTime::ref_cost).collect();
    let per_s = items as f64 * 1e3 / mean(&wall);
    rep.line(format!(
        "{} untraced steps of {items} {label}s: wall p50 {:.3} ms p90 {:.3} ms ({per_s:.3} \
         {label}s/s); CPU p50 {:.3} ms p90 {:.3} ms; reference pass p50 {:.4} ms, range \
         {:.4}-{:.4} ms; cost p50 {:.3} ref p90 {:.3} ref",
        steps.len(),
        median(&wall),
        quantile(&wall, 0.9),
        median(&cpu),
        quantile(&cpu, 0.9),
        median(&refs),
        quantile(&refs, 0.0),
        quantile(&refs, 1.0),
        median(&cost),
        quantile(&cost, 0.9),
    ));
    if traced {
        rep.metric("wall.items_per_s", per_s, "1/s");
        rep.metric("wall.p50_ms", median(&wall), "ms");
        rep.metric("wall.tail_ms", quantile(&wall, 0.9), "ms");
    } else {
        let name = format!("{label}_ref_cost");
        rep.named(
            "ref_cost_per_item",
            &name,
            median(&cost) / items as f64,
            "ref",
        );
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// How many times each run builds its workload state; `setup_s` is the
/// median of these builds.
const SETUPS: usize = 5;

/// Builds the workload state [`SETUPS`] times, dropping every build but
/// the last, and returns the last one with `setup_s`: the median build's
/// CPU time in reference passes, read as seconds at the nominal speed of
/// [`REF_NOMINAL_MS`] per pass (see [`reference_ms`]). The median wall
/// time is printed.
pub fn timed_setup<T>(rep: &mut Report, mut build: impl FnMut() -> Res<T>) -> Res<(T, f64)> {
    let mut cost = Vec::with_capacity(SETUPS);
    let mut wall = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let (built, t) = timed_step(&mut build)?;
        state = Some(built);
        cost.push(t.ref_cost() * REF_NOMINAL_MS / 1e3);
        wall.push(t.wall_ms / 1e3);
    }
    let state = state.ok_or("no set-up ran")?;
    rep.line(format!(
        "set-up x{SETUPS}: median {:.4} s at {REF_NOMINAL_MS} ms per reference pass, wall \
         median {:.4} s",
        median(&cost),
        median(&wall)
    ));
    Ok((state, median(&cost)))
}

/// CPU time the live threads of this process have run, in ms: the sum
/// of the first field (`sum_exec_runtime`, ns) of every
/// `/proc/self/task/*/schedstat`. The kernel leaves out time the
/// hypervisor gave to other guests (steal) and time spent waiting for a
/// core. A thread that has exited is no longer counted.
pub fn cpu_ms() -> Res<f64> {
    let tasks = std::fs::read_dir("/proc/self/task").map_err(err("/proc/self/task"))?;
    let mut ns = 0u64;
    for task in tasks {
        let path = task
            .map_err(err("/proc/self/task entry"))?
            .path()
            .join("schedstat");
        // A thread that exits between the listing and the read has no
        // file any more.
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        ns += text
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or(format!("unparsable {}", path.display()))?;
    }
    Ok(ns as f64 / 1e6)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err("/proc/self/status"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unparsable VmHWM line")?;
    Ok(kb / 1024.0)
}

// ---------------------------------------------------------------------
// Operation counts
// ---------------------------------------------------------------------

/// A convolution-like layer as the shape walk sees it.
enum Op {
    /// `Conv2d(cin, cout, k, stride, pad, bias)`.
    Conv(usize, usize, usize, usize, usize, bool),
    /// `BatchNorm2d(c)` (two parameters per channel, no counted MACs).
    Bn(usize),
    /// `ResidualBlock(cin, cout, stride)`.
    Res(usize, usize, usize),
    /// Global average pool (no parameters, no counted MACs).
    Pool,
    /// `Linear(in, out)` with bias.
    Linear(usize, usize),
}

/// Multiply-accumulates and parameter count of a layer list applied to a
/// `c × h × w` input, per sample, plus the output dims.
fn walk(ops: &[Op], mut c: usize, mut h: usize, mut w: usize) -> (u64, usize, [usize; 3]) {
    let mut macs = 0u64;
    let mut params = 0usize;
    for op in ops {
        match *op {
            Op::Conv(cin, cout, k, s, p, bias) => {
                assert_eq!(cin, c, "shape walk channel mismatch");
                h = (h + 2 * p - k) / s + 1;
                w = (w + 2 * p - k) / s + 1;
                macs += (cin * cout * k * k * h * w) as u64;
                params += cin * cout * k * k + if bias { cout } else { 0 };
                c = cout;
            }
            Op::Bn(ch) => params += 2 * ch,
            Op::Res(cin, cout, s) => {
                let main = [
                    Op::Conv(cin, cout, 3, s, 1, false),
                    Op::Bn(cout),
                    Op::Conv(cout, cout, 3, 1, 1, false),
                    Op::Bn(cout),
                ];
                let (m, p, out) = walk(&main, c, h, w);
                macs += m;
                params += p;
                if s != 1 || cin != cout {
                    let (m, p, _) = walk(
                        &[Op::Conv(cin, cout, 1, s, 0, false), Op::Bn(cout)],
                        c,
                        h,
                        w,
                    );
                    macs += m;
                    params += p;
                }
                [c, h, w] = out;
            }
            Op::Pool => {
                h = 1;
                w = 1;
            }
            Op::Linear(i, o) => {
                assert_eq!(i, c, "shape walk feature mismatch");
                macs += (i * o) as u64;
                params += i * o + o;
                c = o;
            }
        }
    }
    (macs, params, [c, h, w])
}

/// Forward FLOPs per sample (2 per multiply-accumulate of every
/// convolution, transposed convolution and linear layer) and parameter
/// count of the decoder for `cfg` at an `h × w` image.
pub fn decoder_cost(cfg: &LecaConfig, h: usize, w: usize) -> (f64, usize) {
    let f = cfg.decoder_filters;
    // Transposed conv N_ch → 3 with kernel = stride = K, bias.
    let up_macs = (cfg.n_ch * cfg.channels * cfg.k * cfg.k * (h / cfg.k) * (w / cfg.k)) as u64;
    let up_params = cfg.n_ch * cfg.channels * cfg.k * cfg.k + cfg.channels;
    let mut ops = vec![Op::Conv(cfg.channels, f, 3, 1, 1, true)];
    for _ in 0..cfg.decoder_layers {
        ops.push(Op::Conv(f, f, 3, 1, 1, false));
        ops.push(Op::Bn(f));
    }
    ops.push(Op::Conv(f, cfg.channels, 3, 1, 1, true));
    let (macs, params, _) = walk(&ops, cfg.channels, h, w);
    (2.0 * (macs + up_macs) as f64, params + up_params)
}

/// Forward FLOPs per sample and parameter count of a named backbone
/// (`resnet_proxy` or `resnet_full`, as built by `leca_nn::backbone`).
pub fn backbone_cost(arch: &str, classes: usize, h: usize, w: usize) -> Res<(f64, usize)> {
    let ops = match arch {
        "resnet_proxy" => vec![
            Op::Conv(3, 16, 3, 1, 1, false),
            Op::Bn(16),
            Op::Res(16, 16, 1),
            Op::Res(16, 32, 2),
            Op::Res(32, 64, 2),
            Op::Pool,
            Op::Linear(64, classes),
        ],
        "resnet_full" => vec![
            Op::Conv(3, 24, 3, 2, 1, false),
            Op::Bn(24),
            Op::Res(24, 24, 1),
            Op::Res(24, 48, 2),
            Op::Res(48, 48, 1),
            Op::Res(48, 96, 2),
            Op::Pool,
            Op::Linear(96, classes),
        ],
        other => return Err(format!("no shape table for backbone `{other}`")),
    };
    let (macs, params, _) = walk(&ops, 3, h, w);
    Ok((2.0 * macs as f64, params))
}

/// Checks an analytic parameter count against the live model's, so a
/// change to the architecture cannot silently skew the FLOP counts.
pub fn check_params(what: &str, analytic: usize, live: usize) -> Res<()> {
    if analytic == live {
        Ok(())
    } else {
        Err(format!(
            "{what}: shape table counts {analytic} parameters, the model has {live}; \
             update the op-count table in perfbench"
        ))
    }
}
