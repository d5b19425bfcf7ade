//! `train_proxy_noisy`: joint training steps of the CR 8 pipeline at the
//! proxy shape (3×24×24), noisy encoder modality, frozen `resnet_proxy`,
//! batch 32, Adam — the loop `leca_core::trainer::train_pipeline` runs,
//! in a closed loop.

use std::time::{Duration, Instant};

use leca_core::{LecaPipeline, Modality};
use leca_data::{Dataset, SynthConfig, SynthVision};
use leca_nn::backbone::resnet_proxy;
use leca_nn::loss::SoftmaxCrossEntropy;
use leca_nn::optim::Adam;
use leca_nn::{Layer, Mode};
use leca_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{
    backbone_cost, check_params, decoder_cost, design_point, err, median, ms_since, peak_rss_mb,
    report_closed_loop, timed_setup, timed_step, Report, Res, BATCH,
};
use crate::trace::Tracer;

const SIDE: usize = 24;
const CLASSES: usize = 10;
/// Adam's learning rate (the paper's base rate).
const LR: f32 = 1e-3;
/// Steps the traced/untraced equivalence check runs.
const CHECK_STEPS: usize = 2;

/// 32 images per class: ten full batches per epoch.
fn data_config() -> SynthConfig {
    SynthConfig {
        num_classes: CLASSES,
        train_per_class: BATCH,
        val_per_class: 1,
        ..SynthConfig::proxy()
    }
}

fn pipeline(seed: u64) -> Res<LecaPipeline> {
    let cfg = design_point()?;
    let backbone = resnet_proxy(CLASSES, &mut StdRng::seed_from_u64(seed));
    LecaPipeline::new(&cfg, Modality::Noisy, backbone, seed.wrapping_add(1))
        .map_err(err("LecaPipeline::new"))
}

/// Every backbone parameter value, in visit order.
fn backbone_values(p: &LecaPipeline) -> Vec<u32> {
    let mut out = Vec::new();
    p.backbone()
        .visit_params_ref(&mut |q| out.extend(q.value.as_slice().iter().map(|v| v.to_bits())));
    out
}

/// Every pipeline parameter value, in visit order.
fn all_values(p: &LecaPipeline) -> Vec<u32> {
    let mut out = Vec::new();
    p.visit_params_ref(&mut |q| out.extend(q.value.as_slice().iter().map(|v| v.to_bits())));
    out
}

struct State {
    pipeline: LecaPipeline,
    opt: Adam,
    data: Dataset,
    rng: StdRng,
    frozen: Vec<u32>,
}

fn setup(seed: u64) -> Res<State> {
    let data = SynthVision::generate(&data_config(), seed).train().clone();
    let mut pipeline = pipeline(seed)?;
    let frozen = backbone_values(&pipeline);
    let mut opt = Adam::new(LR).map_err(err("Adam::new"))?;
    // One step outside the clock lets lazy set-up (thread pool, kernel
    // selection, first-touch buffers) finish before timing.
    let (x, labels) = data.batch(0, BATCH).map_err(err("Dataset::batch"))?;
    step(&mut pipeline, &mut opt, &x, &labels)?;
    Ok(State {
        pipeline,
        opt,
        data,
        rng: StdRng::seed_from_u64(seed.wrapping_add(17)),
        frozen,
    })
}

/// One untraced training step, as `train_pipeline` runs it.
fn step(p: &mut LecaPipeline, opt: &mut Adam, x: &Tensor, labels: &[usize]) -> Res<f32> {
    p.zero_grad();
    let loss = p.train_step(x, labels).map_err(err("train_step"))?;
    opt.step(p);
    p.encoder_mut().clamp_weights();
    Ok(loss)
}

/// The same step through the public layer calls `train_step` makes, each
/// wrapped in a span.
fn traced_step(
    p: &mut LecaPipeline,
    opt: &mut Adam,
    x: &Tensor,
    labels: &[usize],
    tr: &mut Tracer,
) -> Res<f32> {
    let loss_fn = SoftmaxCrossEntropy::new();
    tr.span("nn.zero_grad", || p.zero_grad());
    let ofmap = tr
        .span("core.encoder.fwd", || {
            p.encoder_mut().forward(x, Mode::Train)
        })
        .map_err(err("encoder forward"))?;
    let decoded = tr
        .span("core.decoder.fwd", || {
            p.decoder_mut().forward(&ofmap, Mode::Train)
        })
        .map_err(err("decoder forward"))?;
    let logits = tr
        .span("nn.backbone.fwd", || {
            p.backbone_mut().forward(&decoded, Mode::Train)
        })
        .map_err(err("backbone forward"))?;
    let (loss, grad) = tr
        .span("nn.loss", || loss_fn.forward(&logits, labels))
        .map_err(err("loss"))?;
    let g = tr
        .span("nn.backbone.bwd", || p.backbone_mut().backward(&grad))
        .map_err(err("backbone backward"))?;
    let g = tr
        .span("core.decoder.bwd", || p.decoder_mut().backward(&g))
        .map_err(err("decoder backward"))?;
    tr.span("core.encoder.bwd", || p.encoder_mut().backward(&g))
        .map_err(err("encoder backward"))?;
    tr.span("nn.optim.adam", || opt.step(p));
    tr.span("core.encoder.clamp", || p.encoder_mut().clamp_weights());
    Ok(loss)
}

/// Runs the workload for `seconds`; with `traced`, every other step goes
/// through [`traced_step`] and the per-layer metrics are reported.
pub fn run(seed: u64, seconds: f64, traced: bool, trace_path: &std::path::Path) -> Res<Report> {
    let mut rep = Report::default();
    let (mut st, setup_s) = timed_setup(&mut rep, || setup(seed))?;
    let origin = Instant::now();
    let mut tr = Tracer::new(origin, if traced { 4096 } else { 0 });
    let mut plain = Vec::new();
    let mut traced_ms = Vec::new();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let mut n = 0u64;
    'run: loop {
        st.data.shuffle(&mut st.rng);
        let mut batches = st.data.iter_batches(BATCH);
        loop {
            let loss = if traced && n % 2 == 1 {
                let t = Instant::now();
                tr.set_step(n);
                tr.begin("train.step");
                let Some((x, labels)) = tr.span("data.dataset.batch", || batches.next()) else {
                    tr.end();
                    break;
                };
                let loss = traced_step(&mut st.pipeline, &mut st.opt, &x, &labels, &mut tr)?;
                tr.end();
                traced_ms.push(ms_since(t));
                loss
            } else {
                let Some((x, labels)) = batches.next() else {
                    break;
                };
                let (loss, time) = timed_step(|| step(&mut st.pipeline, &mut st.opt, &x, &labels))?;
                plain.push(time);
                loss
            };
            rep.check(
                loss.is_finite(),
                format!("step {n}: non-finite loss {loss}"),
            );
            n += 1;
            if Instant::now() >= deadline {
                break 'run;
            }
        }
    }
    let wall_s = origin.elapsed().as_secs_f64();

    rep.check(
        backbone_values(&st.pipeline) == st.frozen,
        "frozen backbone parameters changed during training",
    );
    let params = (
        st.pipeline.decoder().num_params(),
        st.pipeline.backbone().num_params(),
    );
    drop(st);
    check_equivalence(seed, &mut rep)?;

    rep.line(format!(
        "train_proxy_noisy: {n} steps of {BATCH} images in {wall_s:.3} s ({} untraced, {} traced)",
        plain.len(),
        traced_ms.len()
    ));
    if !traced {
        rep.named("setup_s", "train setup_s", setup_s, "s");
        rep.named("peak_rss_mb", "train peak_rss_mb", peak_rss_mb()?, "MB");
        report_closed_loop(&mut rep, "img", &plain, BATCH, false);
        return Ok(rep);
    }
    report_closed_loop(&mut rep, "img", &plain, BATCH, true);

    let cfg = design_point()?;
    let (dec_flops, dec_params) = decoder_cost(&cfg, SIDE, SIDE);
    let (bb_flops, bb_params) = backbone_cost("resnet_proxy", CLASSES, SIDE, SIDE)?;
    check_params("decoder", dec_params, params.0)?;
    check_params("resnet_proxy", bb_params, params.1)?;
    let gflops = |flops: f64, ms: f64| {
        if ms > 0.0 {
            flops * BATCH as f64 / (ms * 1e6)
        } else {
            0.0
        }
    };
    let layer = |rep: &mut Report, key: &'static str, span: &str| {
        let ms = tr.median_ms(span);
        rep.metric(key, ms, "ms");
        ms
    };
    layer(&mut rep, "core.encoder.fwd_ms", "core.encoder.fwd");
    layer(&mut rep, "core.encoder.bwd_ms", "core.encoder.bwd");
    let dfwd = layer(&mut rep, "core.decoder.fwd_ms", "core.decoder.fwd");
    let dbwd = layer(&mut rep, "core.decoder.bwd_ms", "core.decoder.bwd");
    let bfwd = layer(&mut rep, "nn.backbone.fwd_ms", "nn.backbone.fwd");
    let bbwd = layer(&mut rep, "nn.backbone.bwd_ms", "nn.backbone.bwd");
    rep.metric(
        "core.decoder.fwd_gflops",
        gflops(dec_flops, dfwd),
        "GFLOP/s",
    );
    rep.metric(
        "core.decoder.bwd_gflops",
        gflops(2.0 * dec_flops, dbwd),
        "GFLOP/s",
    );
    rep.metric("nn.backbone.fwd_gflops", gflops(bb_flops, bfwd), "GFLOP/s");
    rep.metric(
        "nn.backbone.bwd_gflops",
        gflops(2.0 * bb_flops, bbwd),
        "GFLOP/s",
    );
    layer(&mut rep, "nn.loss_ms", "nn.loss");
    layer(&mut rep, "nn.optim.adam_ms", "nn.optim.adam");
    layer(&mut rep, "data.dataset.batch_ms", "data.dataset.batch");
    let plain_ms: Vec<f64> = plain.iter().map(|p| p.wall_ms).collect();
    let per_s = |ms: &[f64]| BATCH as f64 * 1e3 / median(ms);
    rep.metric(
        "trace.overhead_imgs_per_s",
        per_s(&traced_ms) - per_s(&plain_ms),
        "1/s",
    );
    rep.metric("trace.span_coverage", median(&tr.coverage()), "share");
    rep.line(format!(
        "train traced step p50 {:.3} ms vs untraced {:.3} ms; shares of the traced step: \
         encoder {:.1}%, decoder {:.1}%, backbone {:.1}%",
        median(&traced_ms),
        median(&plain_ms),
        100.0 * (tr.median_ms("core.encoder.fwd") + tr.median_ms("core.encoder.bwd"))
            / median(&traced_ms),
        100.0 * (dfwd + dbwd) / median(&traced_ms),
        100.0 * (bfwd + bbwd) / median(&traced_ms),
    ));
    tr.write(trace_path)?;
    Ok(rep)
}

/// Oracle: from one seed, [`CHECK_STEPS`] steps of `train_step` and of the
/// traced call chain give bit-identical losses and parameters.
fn check_equivalence(seed: u64, rep: &mut Report) -> Res<()> {
    let data = SynthVision::generate(&data_config(), seed).train().clone();
    let mut plain = pipeline(seed)?;
    let mut chain = pipeline(seed)?;
    let mut opt_plain = Adam::new(LR).map_err(err("Adam::new"))?;
    let mut opt_chain = Adam::new(LR).map_err(err("Adam::new"))?;
    let mut scratch = Tracer::new(Instant::now(), 64);
    for (i, (x, labels)) in data.iter_batches(BATCH).take(CHECK_STEPS).enumerate() {
        let a = step(&mut plain, &mut opt_plain, &x, &labels)?;
        let b = traced_step(&mut chain, &mut opt_chain, &x, &labels, &mut scratch)?;
        rep.check(
            a.to_bits() == b.to_bits(),
            format!("check step {i}: train_step loss {a} != traced chain loss {b}"),
        );
    }
    rep.check(
        all_values(&plain) == all_values(&chain),
        "parameters differ between train_step and the traced chain",
    );
    Ok(())
}
