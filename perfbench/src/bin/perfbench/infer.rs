//! `sensor_infer_full`: deployed inference at the full shape (3×48×48).
//! Every frame is captured by the programmed sensor model with its noise
//! chain on (`deploy::sensor_encode(noisy = true)`), and batches of 32
//! ofmaps go through `InferenceSession::classify_ofmaps` (decoder →
//! frozen `resnet_full` on the session workspace), in a closed loop.

use std::time::{Duration, Instant};

use leca_circuit::adc::AdcResolution;
use leca_core::{deploy, InferenceSession, LecaPipeline, Modality};
use leca_data::{bayer, SynthConfig, SynthVision};
use leca_nn::backbone::resnet_full;
use leca_nn::{Layer, Mode};
use leca_sensor::LecaSensor;
use leca_tensor::{Tensor, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{
    backbone_cost, check_params, decoder_cost, design_point, err, mean, median, ms_since,
    peak_rss_mb, report_closed_loop, timed_setup, timed_step, Report, Res, BATCH,
};
use crate::trace::Tracer;

const SIDE: usize = 48;
const CLASSES: usize = 12;
/// Distinct source frames (three batches); capture noise differs on every
/// pass because each capture gets its own seed.
const FRAMES_PER_CLASS: usize = 8;

fn pipeline(seed: u64) -> Res<LecaPipeline> {
    let cfg = design_point()?;
    let backbone = resnet_full(CLASSES, &mut StdRng::seed_from_u64(seed));
    LecaPipeline::new(&cfg, Modality::Noisy, backbone, seed.wrapping_add(1))
        .map_err(err("LecaPipeline::new"))
}

/// Seed of the `k`-th capture of a run.
fn capture_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k)
}

struct State {
    session: InferenceSession<'static>,
    sensor: LecaSensor,
    frames: Vec<Tensor>,
    ofmap_dims: [usize; 3],
}

fn setup(seed: u64) -> Res<State> {
    let cfg = SynthConfig {
        num_classes: CLASSES,
        train_per_class: FRAMES_PER_CLASS,
        val_per_class: 1,
        ..SynthConfig::full()
    };
    let frames = SynthVision::generate(&cfg, seed).train().images().to_vec();
    let p = pipeline(seed)?;
    let sensor = deploy::program_sensor(p.encoder(), SIDE, SIDE).map_err(err("program_sensor"))?;
    let (oh, ow) = design_point()?
        .ofmap_dims(SIDE, SIDE)
        .map_err(err("ofmap_dims"))?;
    let ofmap_dims = [p.encoder().n_ch(), oh, ow];
    let mut session = InferenceSession::owning(p);
    // Two throwaway batches make every workspace buffer resident.
    let zeros = Tensor::zeros(&[BATCH, ofmap_dims[0], oh, ow]);
    let mut preds = Vec::new();
    for _ in 0..2 {
        session
            .classify_ofmaps(&zeros, &mut preds)
            .map_err(err("classify_ofmaps warm-up"))?;
    }
    Ok(State {
        session,
        sensor,
        frames,
        ofmap_dims,
    })
}

/// Captures frames `first..first + 32` through `deploy::sensor_encode`.
fn encode_batch(st: &State, seed: u64, first: u64) -> Res<Tensor> {
    let [c, h, w] = st.ofmap_dims;
    let mut data = Vec::with_capacity(BATCH * c * h * w);
    for k in first..first + BATCH as u64 {
        let frame = &st.frames[k as usize % st.frames.len()];
        let ofmap = deploy::sensor_encode(&st.sensor, frame, true, capture_seed(seed, k))
            .map_err(err("sensor_encode"))?;
        data.extend_from_slice(ofmap.as_slice());
    }
    Tensor::from_vec(data, &[BATCH, c, h, w]).map_err(err("batch assembly"))
}

/// The same capture through the public calls `sensor_encode` makes:
/// Bayer mosaic, stochastic sensor capture, ADC-code normalisation.
fn traced_encode_batch(st: &State, seed: u64, first: u64, tr: &mut Tracer) -> Res<Tensor> {
    let [c, h, w] = st.ofmap_dims;
    let resolution = AdcResolution::from_qbit(st.sensor.qbit()).map_err(err("AdcResolution"))?;
    let mut data = Vec::with_capacity(BATCH * c * h * w);
    for k in first..first + BATCH as u64 {
        let frame = &st.frames[k as usize % st.frames.len()];
        tr.begin("sensor.encode");
        let raw = tr
            .span("data.bayer.mosaic", || bayer::mosaic(frame))
            .map_err(err("mosaic"))?;
        let mut rng = StdRng::seed_from_u64(capture_seed(seed, k));
        let (ofmap, _) = tr
            .span("sensor.capture", || {
                st.sensor.capture(raw.as_slice(), Some(&mut rng))
            })
            .map_err(err("capture"))?;
        data.extend(ofmap.codes().iter().map(|&code| match resolution {
            AdcResolution::Ternary => code.clamp(-1, 1) as f32 * 2.0 / 3.0,
            AdcResolution::Sar(_) => code as f32 / resolution.max_code() as f32,
        }));
        tr.end();
    }
    tr.span("infer.assemble", || {
        Tensor::from_vec(data, &[BATCH, c, h, w])
    })
    .map_err(err("batch assembly"))
}

/// Decoder → backbone on the traced pipeline's own workspace, as
/// `classify_ofmaps` runs them.
fn traced_classify(
    p: &mut LecaPipeline,
    ws: &Workspace,
    ofmaps: &Tensor,
    tr: &mut Tracer,
) -> Res<Vec<usize>> {
    let decoded = tr
        .span("core.decoder.fwd_ws", || {
            p.decoder_mut().forward_ws(ofmaps, Mode::Eval, ws)
        })
        .map_err(err("decoder forward_ws"))?;
    let logits = tr
        .span("nn.backbone.fwd_ws", || {
            p.backbone_mut().forward_ws(&decoded, Mode::Eval, ws)
        })
        .map_err(err("backbone forward_ws"))?;
    drop(decoded);
    tr.span("core.session.predict", || logits.argmax_rows())
        .map_err(err("argmax"))
}

/// Runs the workload for `seconds`; with `traced`, every other batch goes
/// through the traced chain and the per-layer metrics are reported.
pub fn run(seed: u64, seconds: f64, traced: bool, trace_path: &std::path::Path) -> Res<Report> {
    let mut rep = Report::default();
    let (mut st, setup_s) = timed_setup(&mut rep, || setup(seed))?;
    let mut chain = pipeline(seed)?;
    let ws = Workspace::new();
    let origin = Instant::now();
    let mut tr = Tracer::new(origin, if traced { 1 << 15 } else { 0 });
    if traced {
        let zeros = Tensor::zeros(&[BATCH, st.ofmap_dims[0], st.ofmap_dims[1], st.ofmap_dims[2]]);
        for _ in 0..2 {
            traced_classify(&mut chain, &ws, &zeros, &mut Tracer::new(origin, 8))?;
        }
    }
    let mut preds = Vec::with_capacity(BATCH);
    let mut plain = Vec::new();
    let mut traced_ms = Vec::new();
    let mut misses = Vec::new();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let mut frame = 0u64;
    let mut n = 0u64;
    while Instant::now() < deadline {
        if traced && n % 2 == 1 {
            let t = Instant::now();
            let before = ws.stats().misses;
            tr.set_step(n);
            tr.begin("infer.batch");
            let ofmaps = traced_encode_batch(&st, seed, frame, &mut tr)?;
            traced_classify(&mut chain, &ws, &ofmaps, &mut tr)?;
            tr.end();
            traced_ms.push(ms_since(t));
            misses.push((ws.stats().misses - before) as f64);
        } else {
            let ((), time) = timed_step(|| {
                let ofmaps = encode_batch(&st, seed, frame)?;
                st.session
                    .classify_ofmaps(&ofmaps, &mut preds)
                    .map_err(err("classify_ofmaps"))
            })?;
            plain.push(time);
        }
        frame += BATCH as u64;
        n += 1;
    }
    let wall_s = origin.elapsed().as_secs_f64();
    rep.attempted += frame;

    check_outputs(&mut st, &mut chain, &ws, seed, &mut rep)?;
    rep.line(format!(
        "sensor_infer_full: {n} batches of {BATCH} frames in {wall_s:.3} s ({} untraced, {} traced)",
        plain.len(),
        traced_ms.len()
    ));
    if !traced {
        rep.named("setup_s", "infer setup_s", setup_s, "s");
        rep.named("peak_rss_mb", "infer peak_rss_mb", peak_rss_mb()?, "MB");
        report_closed_loop(&mut rep, "frame", &plain, BATCH, false);
        return Ok(rep);
    }
    report_closed_loop(&mut rep, "frame", &plain, BATCH, true);

    let cfg = design_point()?;
    let (dec_flops, dec_params) = decoder_cost(&cfg, SIDE, SIDE);
    let (bb_flops, bb_params) = backbone_cost("resnet_full", CLASSES, SIDE, SIDE)?;
    check_params("decoder", dec_params, chain.decoder().num_params())?;
    check_params("resnet_full", bb_params, chain.backbone().num_params())?;
    let dec_ms = tr.median_ms("core.decoder.fwd_ws");
    let bb_ms = tr.median_ms("nn.backbone.fwd_ws");
    rep.metric("core.decoder.fwd_ws_ms", dec_ms, "ms");
    rep.metric("nn.backbone.fwd_ws_ms", bb_ms, "ms");
    rep.metric(
        "core.decoder.fwd_ws_gflops",
        dec_flops * BATCH as f64 / (dec_ms * 1e6),
        "GFLOP/s",
    );
    rep.metric(
        "nn.backbone.fwd_ws_gflops",
        bb_flops * BATCH as f64 / (bb_ms * 1e6),
        "GFLOP/s",
    );
    rep.metric(
        "data.bayer.mosaic_ms",
        tr.median_ms("data.bayer.mosaic"),
        "ms",
    );
    rep.metric("sensor.capture_ms", tr.median_ms("sensor.capture"), "ms");
    rep.metric("tensor.workspace.misses_per_batch", mean(&misses), "count");
    rep.metric(
        "tensor.workspace.bytes_resident",
        ws.stats().bytes_resident as f64,
        "bytes",
    );
    let plain_ms: Vec<f64> = plain.iter().map(|p| p.wall_ms).collect();
    let per_s = |ms: &[f64]| BATCH as f64 * 1e3 / median(ms);
    rep.metric(
        "trace.overhead_frames_per_s",
        per_s(&traced_ms) - per_s(&plain_ms),
        "1/s",
    );
    rep.metric("trace.span_coverage", median(&tr.coverage()), "share");
    let capture_share = 100.0 * BATCH as f64 * tr.median_ms("sensor.encode") / median(&traced_ms);
    rep.line(format!(
        "infer traced batch p50 {:.3} ms vs untraced {:.3} ms; sensor capture {capture_share:.1}% \
         of the traced batch",
        median(&traced_ms),
        median(&plain_ms),
    ));
    tr.write(trace_path)?;
    Ok(rep)
}

/// Oracles on one check batch: the session's predictions equal the
/// argmax of the allocating eval forward of an identically seeded
/// pipeline, and the traced chain reproduces the ofmaps and predictions
/// bit for bit.
fn check_outputs(
    st: &mut State,
    chain: &mut LecaPipeline,
    ws: &Workspace,
    seed: u64,
    rep: &mut Report,
) -> Res<()> {
    let ofmaps = encode_batch(st, seed, 0)?;
    let mut preds = Vec::new();
    st.session
        .classify_ofmaps(&ofmaps, &mut preds)
        .map_err(err("classify_ofmaps"))?;

    let mut reference = pipeline(seed)?;
    let decoded = reference
        .decoder_mut()
        .forward(&ofmaps, Mode::Eval)
        .map_err(err("decoder forward"))?;
    let logits = reference
        .backbone_mut()
        .forward(&decoded, Mode::Eval)
        .map_err(err("backbone forward"))?;
    let expected = logits.argmax_rows().map_err(err("argmax"))?;
    rep.check(
        preds == expected,
        "classify_ofmaps predictions differ from the allocating decoder + backbone forward",
    );

    let mut scratch = Tracer::new(Instant::now(), 256);
    let traced_ofmaps = traced_encode_batch(st, seed, 0, &mut scratch)?;
    let same_ofmaps = traced_ofmaps
        .as_slice()
        .iter()
        .zip(ofmaps.as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    rep.check(
        same_ofmaps,
        "traced capture chain differs from deploy::sensor_encode",
    );
    let traced_preds = traced_classify(chain, ws, &traced_ofmaps, &mut scratch)?;
    rep.check(
        traced_preds == preds,
        "traced decoder + backbone predictions differ from classify_ofmaps",
    );
    Ok(())
}
