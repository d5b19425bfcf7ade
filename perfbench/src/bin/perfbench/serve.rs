//! `serve_proxy_open`: `leca-serve` serving the CR 8 proxy pipeline
//! (software encoder, 3×24×24) to 4 tenants on 2 shards, with
//! single-image requests arriving in an open loop at fixed rates.
//!
//! A run makes five rounds over one service. Each round has three
//! phases: a nominal rate below capacity (service CPU time per request,
//! latency and failures), a ladder of rates (the highest one meeting the
//! latency limit), and an overload rate above capacity (goodput). Every
//! phase waits for all its replies before the next starts. Requests are
//! due at constant gaps; one submitter thread sends them on schedule and
//! one waiter thread resolves the tickets in submission order.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use leca_core::{InferenceSession, LecaPipeline, Modality};
use leca_data::{SynthConfig, SynthVision};
use leca_nn::backbone::resnet_proxy;
use leca_serve::{BreakerConfig, Precision, ServeConfig, ServeError, Service, Ticket};
use leca_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    cpu_ms, design_point, err, mean, median, ms_since, peak_rss_mb, quantile, reference_ms,
    timed_setup, Report, Res,
};
use crate::trace::Tracer;

const SIDE: usize = 24;
const CLASSES: usize = 10;
const TENANTS: u32 = 4;
/// Distinct payloads (16 per class); each request picks one at random.
const PAYLOADS_PER_CLASS: usize = 16;

/// Requests per second of the nominal phase (well below capacity).
const NOMINAL_RPS: f64 = 100.0;
/// The SLO ladder, ascending.
const LADDER_RPS: [f64; 5] = [150.0, 250.0, 350.0, 450.0, 550.0];
/// Requests per second of the overload phase (well above capacity).
const OVERLOAD_RPS: f64 = 700.0;
/// Latency limit on the 99th percentile, milliseconds.
const LIMIT_MS: f64 = 100.0;
/// Per-request deadline the service enforces, microseconds.
const DEADLINE_US: u64 = 100_000;
/// Rounds per run; each round runs all three phases.
const ROUNDS: u64 = 5;
/// Back-to-back slices the nominal phase of a round is measured in;
/// `ref_cost_per_item` is the median over the run's slices.
const NOMINAL_SLICES: u64 = 5;
/// Shares of a round given to the nominal, ladder and overload phases.
const PHASE_SHARES: [f64; 3] = [0.5, 0.35, 0.15];

/// The pinned service configuration; nothing is read from `LECA_SERVE_*`.
fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: 2,
        max_batch: 8,
        queue_cap: 8,
        deadline_us: DEADLINE_US,
        linger_us: 200,
        max_retries: 2,
        backoff_base_us: 100,
        max_tenants: TENANTS,
        breaker: BreakerConfig {
            window: 32,
            min_volume: 16,
            trip_ratio: 0.5,
            cooldown_us: 20_000,
            half_open_probes: 2,
        },
        warm_shape: Some(vec![1, 3, SIDE, SIDE]),
        default_precision: Precision::F32,
        tenant_precision: Vec::new(),
    }
}

fn pipeline(seed: u64) -> Res<LecaPipeline> {
    let cfg = design_point()?;
    let backbone = resnet_proxy(CLASSES, &mut StdRng::seed_from_u64(seed));
    // The noisy modality draws fresh device noise on every forward, so a
    // served class would depend on call history; the deterministic circuit
    // models keep every reply checkable against its offline prediction.
    LecaPipeline::new(&cfg, Modality::Hard, backbone, seed.wrapping_add(1))
        .map_err(err("LecaPipeline::new"))
}

struct State {
    payloads: Vec<Arc<Tensor>>,
    /// Offline class of each payload, from a standalone session.
    expected: Vec<usize>,
}

fn start_service(seed: u64, payloads: &[Arc<Tensor>]) -> Res<Service> {
    pipeline(seed)?;
    let service = Service::start(serve_config(), move || {
        // The same build succeeded just above, so this cannot fail.
        InferenceSession::owning(pipeline(seed).expect("pipeline build"))
    })
    .map_err(err("Service::start"))?;
    // One answered request per tenant: both shards are up and warm before
    // any phase starts its clock. Workers warm up after `start` returns,
    // so these requests get a generous deadline.
    for tenant in 0..TENANTS {
        let ticket = service
            .submit_with_deadline(tenant, Arc::clone(&payloads[0]), 10_000_000)
            .map_err(err("warm-up submit"))?;
        ticket.wait().map_err(err("warm-up request"))?;
    }
    Ok(service)
}

/// Builds the payloads and their offline classes, and starts the service
/// the run is served by.
fn setup(seed: u64) -> Res<(State, Service)> {
    let cfg = SynthConfig {
        num_classes: CLASSES,
        train_per_class: PAYLOADS_PER_CLASS,
        val_per_class: 1,
        ..SynthConfig::proxy()
    };
    let data = SynthVision::generate(&cfg, seed);
    let payloads = data
        .train()
        .images()
        .iter()
        .map(|img| img.reshape(&[1, 3, SIDE, SIDE]).map(Arc::new))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err("payload reshape"))?;
    let mut session = InferenceSession::owning(pipeline(seed)?);
    let mut expected = Vec::with_capacity(payloads.len());
    let mut preds = Vec::new();
    for p in &payloads {
        session
            .classify_batch(p, &mut preds)
            .map_err(err("offline classify_batch"))?;
        expected.extend_from_slice(&preds);
    }
    let service = start_service(seed, &payloads)?;
    Ok((State { payloads, expected }, service))
}

/// What became of one request.
#[derive(Clone, Copy, PartialEq)]
enum Outcome {
    Ok,
    Shed,
    TimedOut,
    Wrong,
    Error,
}

/// One request as the load generator saw it.
struct Record {
    outcome: Outcome,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    seen: Instant,
    batch_size: usize,
}

impl Record {
    fn latency_ms(&self) -> f64 {
        self.seen.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Handed from the submitter to the waiter.
struct Sent {
    idx: usize,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    ticket: Result<Ticket, ServeError>,
}

/// Results of one phase.
struct Phase {
    records: Vec<Record>,
    /// Retries the service made during the phase.
    retries: u64,
    /// CPU time of the process during the phase, without the two
    /// load-generator threads (they have exited when it is read).
    cpu_ms: f64,
    /// Mean of the reference readings taken just before and just after
    /// the phase.
    ref_ms: f64,
}

impl Phase {
    fn count(&self, o: Outcome) -> usize {
        self.records.iter().filter(|r| r.outcome == o).count()
    }

    /// Latencies of the requests answered with the right class.
    fn ok_latencies_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.outcome == Outcome::Ok)
            .map(Record::latency_ms)
            .collect()
    }

    /// Requests answered correctly within the latency limit.
    fn in_limit(&self) -> usize {
        self.ok_latencies_ms()
            .iter()
            .filter(|&&l| l <= LIMIT_MS)
            .count()
    }

    /// Service CPU time per correctly answered request, in reference
    /// passes.
    fn ref_cost_per_ok(&self) -> f64 {
        self.cpu_ms / self.ref_ms / self.count(Outcome::Ok).max(1) as f64
    }

    /// Seconds from the first request's due time to the last reply seen.
    fn wall_s(&self) -> f64 {
        match (self.records.first(), self.records.last()) {
            (Some(a), Some(b)) => b.seen.saturating_duration_since(a.due).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Requests answered correctly within the limit, per second of wall
    /// time.
    fn goodput(&self) -> f64 {
        self.in_limit() as f64 / self.wall_s().max(1e-9)
    }

    /// The SLO: at least 99% of requests answered correctly within
    /// [`LIMIT_MS`], i.e. the p99 is within the limit when failed requests
    /// count as over it.
    fn meets_slo(&self) -> bool {
        self.in_limit() as f64 >= 0.99 * self.records.len() as f64
    }

    fn lag_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.sent.saturating_duration_since(r.due).as_secs_f64() * 1e3)
            .collect()
    }

    fn submit_us(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.submitted.saturating_duration_since(r.sent).as_secs_f64() * 1e6)
            .collect()
    }

    /// `Verdict.batch_size` of every correctly answered request.
    fn batch_sizes(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.outcome == Outcome::Ok)
            .map(|r| r.batch_size as f64)
            .collect()
    }
}

/// Offers `rate` requests per second for `seconds` to `service` and
/// waits for every reply.
fn run_phase(st: &State, service: &Service, plan_seed: u64, rate: f64, seconds: f64) -> Res<Phase> {
    let ref_before = reference_ms();
    let retries_before = service.metrics().retries;
    let cpu_before = cpu_ms()?;
    let n = ((rate * seconds).round() as usize).max(1);
    let mut rng = StdRng::seed_from_u64(plan_seed);
    let plan: Vec<(u32, usize)> = (0..n)
        .map(|_| {
            (
                rng.gen_range(0..TENANTS),
                rng.gen_range(0..st.payloads.len()),
            )
        })
        .collect();
    // Both buffers are sized here, on the calling thread, so the two
    // short-lived load-generator threads allocate nothing themselves.
    let (tx, rx) = mpsc::sync_channel::<Sent>(n);
    let mut records = Vec::with_capacity(n);
    let start = Instant::now() + Duration::from_millis(2);
    let records = thread::scope(|s| {
        s.spawn(move || {
            for (i, &(tenant, idx)) in plan.iter().enumerate() {
                let due = start + Duration::from_secs_f64(i as f64 / rate);
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                let sent = Instant::now();
                let ticket = service.submit(tenant, Arc::clone(&st.payloads[idx]));
                let submitted = Instant::now();
                let msg = Sent {
                    idx,
                    due,
                    sent,
                    submitted,
                    ticket,
                };
                if tx.send(msg).is_err() {
                    break;
                }
            }
        });
        let waiter = s.spawn(move || {
            for msg in rx {
                let (outcome, batch_size) = match msg.ticket {
                    Err(ServeError::Overloaded { .. } | ServeError::CircuitOpen { .. }) => {
                        (Outcome::Shed, 0)
                    }
                    Err(_) => (Outcome::Error, 0),
                    Ok(ticket) => match ticket.wait() {
                        Ok(v) if v.class == st.expected[msg.idx] => (Outcome::Ok, v.batch_size),
                        Ok(_) => (Outcome::Wrong, 0),
                        Err(ServeError::TimedOut { .. }) => (Outcome::TimedOut, 0),
                        Err(_) => (Outcome::Error, 0),
                    },
                };
                records.push(Record {
                    outcome,
                    due: msg.due,
                    sent: msg.sent,
                    submitted: msg.submitted,
                    seen: Instant::now(),
                    batch_size,
                });
            }
            records
        });
        waiter.join().unwrap_or_default()
    });
    Ok(Phase {
        records,
        retries: service.metrics().retries - retries_before,
        cpu_ms: cpu_ms()? - cpu_before,
        ref_ms: (ref_before + reference_ms()) / 2.0,
    })
}

/// Records the phase's output checks; `strict` phases also count each
/// request as an operation that fails when shed or timed out.
fn check_phase(rep: &mut Report, name: &str, phase: &Phase, strict: bool) {
    let wrong = phase.count(Outcome::Wrong);
    rep.check(
        wrong == 0,
        format!("{name}: {wrong} replies with the wrong class"),
    );
    let errors = phase.count(Outcome::Error);
    rep.check(
        errors == 0,
        format!("{name}: {errors} requests failed with an error"),
    );
    if strict {
        for r in &phase.records {
            rep.operation(r.outcome != Outcome::Shed && r.outcome != Outcome::TimedOut);
        }
    }
}

/// One pass over the three phases.
struct Round {
    nominal: Vec<Phase>,
    /// The highest ladder rung that met the SLO.
    best: Option<Phase>,
    overload: Phase,
}

impl Round {
    /// `f` of every nominal slice, pooled.
    fn nominal_values(&self, f: fn(&Phase) -> Vec<f64>) -> Vec<f64> {
        self.nominal.iter().flat_map(f).collect()
    }
}

fn run_round(
    st: &State,
    service: &Service,
    seed: u64,
    round: u64,
    seconds: f64,
    rep: &mut Report,
) -> Res<Round> {
    let [nominal_s, ladder_s, overload_s] = PHASE_SHARES.map(|share| share * seconds);
    let rung_s = ladder_s / LADDER_RPS.len() as f64;
    let plan_seed = |phase: u64| seed ^ (round << 32) ^ phase;
    let slice_s = nominal_s / NOMINAL_SLICES as f64;
    let nominal = (0..NOMINAL_SLICES)
        .map(|k| run_phase(st, service, plan_seed(100 + k), NOMINAL_RPS, slice_s))
        .collect::<Res<Vec<Phase>>>()?;
    for slice in &nominal {
        check_phase(rep, "nominal", slice, true);
    }
    let mut best = None;
    let mut ladder = String::new();
    for (i, &rate) in LADDER_RPS.iter().enumerate() {
        let rung = run_phase(st, service, plan_seed(2 + i as u64), rate, rung_s)?;
        check_phase(rep, "ladder", &rung, false);
        let ok = rung.meets_slo();
        ladder.push_str(&format!(
            " {rate}:{}/{}{}",
            rung.in_limit(),
            rung.records.len(),
            if ok { "+" } else { "-" }
        ));
        if ok {
            best = Some(rung);
        }
    }
    let overload = run_phase(st, service, plan_seed(64), OVERLOAD_RPS, overload_s)?;
    check_phase(rep, "overload", &overload, false);
    let lat: Vec<f64> = nominal.iter().flat_map(Phase::ok_latencies_ms).collect();
    rep.line(format!(
        "serve round {round}: nominal p50 {:.3} ms p99 {:.3} ms; ladder (answered in limit/sent, + meets SLO){ladder}; \
         overload {} sent, {} shed, {} timed out, goodput {:.1}/s",
        median(&lat),
        quantile(&lat, 0.99),
        overload.records.len(),
        overload.count(Outcome::Shed),
        overload.count(Outcome::TimedOut),
        overload.goodput(),
    ));
    Ok(Round {
        nominal,
        best,
        overload,
    })
}

/// Runs the workload for `seconds`; with `traced`, spans are recorded
/// around each submit and request and the per-layer metrics are reported.
pub fn run(seed: u64, seconds: f64, traced: bool, trace_path: &std::path::Path) -> Res<Report> {
    let mut rep = Report::default();
    let ((st, service), setup_s) = timed_setup(&mut rep, || setup(seed))?;
    let rounds = (0..ROUNDS)
        .map(|r| run_round(&st, &service, seed, r, seconds / ROUNDS as f64, &mut rep))
        .collect::<Res<Vec<Round>>>()?;
    let s = service.shutdown();
    rep.check(
        s.admitted == s.completed + s.timed_out + s.worker_failed,
        format!(
            "admitted {} != completed {} + timed_out {} + worker_failed {}",
            s.admitted, s.completed, s.timed_out, s.worker_failed
        ),
    );

    let values = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let cost_per_ok: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.nominal.iter().map(Phase::ref_cost_per_ok))
        .collect();
    let goodputs = values(&|r| r.overload.goodput());
    let capacities = values(&|r| r.best.as_ref().map_or(0.0, Phase::goodput));
    let show = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    rep.line(format!(
        "serve per nominal slice: cost [{}] ref/request; per round: overload goodput [{}] /s, \
         max rate at SLO [{}] /s",
        show(&cost_per_ok),
        show(&goodputs),
        show(&capacities)
    ));
    let pooled = |f: &dyn Fn(&Round) -> Vec<f64>| rounds.iter().flat_map(f).collect::<Vec<f64>>();
    let nominal_lat = pooled(&|r| r.nominal_values(Phase::ok_latencies_ms));
    let p50 = median(&nominal_lat);
    rep.line(format!(
        "serve nominal, all rounds: {} answered, p50 {p50:.3} ms, p90 {:.3} ms, p95 {:.3} ms, \
         p99 {:.3} ms",
        nominal_lat.len(),
        quantile(&nominal_lat, 0.9),
        quantile(&nominal_lat, 0.95),
        quantile(&nominal_lat, 0.99),
    ));
    if !traced {
        rep.named("setup_s", "serve setup_s", setup_s, "s");
        rep.named("peak_rss_mb", "serve peak_rss_mb", peak_rss_mb()?, "MB");
        rep.named(
            "ref_cost_per_item",
            "serve_ref_cost_per_request",
            median(&cost_per_ok),
            "ref",
        );
        return Ok(rep);
    }

    rep.metric("wall.items_per_s", median(&goodputs), "1/s");
    rep.metric("wall.p50_ms", p50, "ms");
    rep.metric("wall.tail_ms", quantile(&nominal_lat, 0.9), "ms");
    rep.metric("serve.max_rps_at_slo", median(&capacities), "1/s");
    let b1 = classify_ms(seed, 1)?;
    let b8 = classify_ms(seed, 8)?;
    let submit_us = pooled(&|r| r.nominal_values(Phase::submit_us));
    rep.metric("serve.p99_ms", quantile(&nominal_lat, 0.99), "ms");
    rep.metric("serve.submit_us_p50", median(&submit_us), "us");
    rep.metric("serve.submit_us_p99", quantile(&submit_us, 0.99), "us");
    let batch_sizes = pooled(&|r| r.nominal_values(Phase::batch_sizes));
    rep.metric("serve.batch_size_mean", mean(&batch_sizes), "count");
    let share = |o: Outcome| {
        let (hit, n) = rounds.iter().fold((0, 0), |(h, n), r| {
            (h + r.overload.count(o), n + r.overload.records.len())
        });
        hit as f64 / n.max(1) as f64
    };
    rep.metric("serve.shed_share", share(Outcome::Shed), "share");
    rep.metric("serve.timeout_share", share(Outcome::TimedOut), "share");
    let retries: u64 = rounds.iter().map(|r| r.overload.retries).sum();
    rep.metric("serve.retries", retries as f64, "count");
    rep.metric("core.session.classify_batch_ms.b1", b1, "ms");
    rep.metric("core.session.classify_batch_ms.b8", b8, "ms");
    rep.metric("serve.wait_ms_p50", p50 - b1, "ms");
    rep.metric(
        "loadgen.lag_ms_p99",
        quantile(&pooled(&|r| r.nominal_values(Phase::lag_ms)), 0.99),
        "ms",
    );
    rep.line(format!(
        "serve overload batch size mean {:.3}",
        mean(&pooled(&|r| r.overload.batch_sizes()))
    ));

    let records = || {
        rounds
            .iter()
            .flat_map(|r| &r.nominal)
            .flat_map(|p| &p.records)
    };
    let origin = records().next().map_or_else(Instant::now, |r| r.due);
    let mut tr = Tracer::new(origin, 0);
    for (step, rec) in records().enumerate() {
        let step = step as u64;
        let req = tr.record("loadgen.request", rec.due, rec.seen, None, step);
        tr.record("serve.submit", rec.sent, rec.submitted, Some(req), step);
    }
    tr.write(trace_path)?;
    Ok(rep)
}

/// Median time of `classify_batch` on a standalone session of the served
/// pipeline, at batch size `batch`.
fn classify_ms(seed: u64, batch: usize) -> Res<f64> {
    let mut session = InferenceSession::owning(pipeline(seed)?);
    let mut rng = StdRng::seed_from_u64(seed ^ batch as u64);
    let x = Tensor::rand_uniform(&[batch, 3, SIDE, SIDE], 0.0, 1.0, &mut rng);
    let mut preds = Vec::new();
    let mut times = Vec::with_capacity(64);
    for i in 0..66 {
        let t = Instant::now();
        session
            .classify_batch(&x, &mut preds)
            .map_err(err("classify_batch"))?;
        if i >= 2 {
            times.push(ms_since(t));
        }
    }
    Ok(median(&times))
}
