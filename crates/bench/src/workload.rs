//! Named benchmark workloads: construction separated from measurement.
//!
//! A [`Workload`] owns its inputs (captured in the closure) and knows its
//! nominal iteration count; the [`crate::profiler`] decides how to time
//! it and the [`crate::harness`] decides which backends to run it under.
//! `standard_kernels` builds the canonical kernel set whose names are the
//! stable keys in `BENCH_kernels.json` — EXPERIMENTS.md quotes them, so
//! renaming one is a breaking change to the published tables.

use leca_circuit::adc::{AdcModel, AdcResolution};
use leca_circuit::pe::{AnalogPe, BLOCK_PIXELS};
use leca_circuit::scm::ScmModel;
use leca_circuit::CircuitParams;
use leca_core::config::LecaConfig;
use leca_core::deploy::program_sensor;
use leca_core::encoder::{LecaEncoder, Modality};
use leca_sensor::energy::EnergyModel;
use leca_sensor::timing::TimingModel;
use leca_sensor::{LecaSensor, SensorGeometry};
use leca_tensor::backend::{self, MR, NR};
use leca_tensor::{ops, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One named, self-contained benchmark body.
pub struct Workload {
    /// Stable identifier (JSON key and console label).
    pub name: &'static str,
    /// Nominal iterations per timing sample (the profiler may scale it).
    pub iters: u32,
    body: Box<dyn FnMut()>,
}

impl Workload {
    /// Wraps a closure as a named workload.
    pub fn new(name: &'static str, iters: u32, body: impl FnMut() + 'static) -> Workload {
        Workload {
            name,
            iters,
            body: Box::new(body),
        }
    }

    /// Runs the body once (the profiler calls this in its timed loops).
    pub fn step(&mut self) {
        (self.body)();
    }
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("iters", &self.iters)
            .finish_non_exhaustive()
    }
}

/// The canonical single-threaded kernel set: raw microkernel, GEMM, convs
/// (one generic, three at pipeline shapes), int8 GEMM and row softmax, at
/// the geometries the published tables use, then the analog circuit and
/// sensor models (SCM, ADC, one PE block, whole-frame capture, energy and
/// timing).
pub fn standard_kernels(seed: u64) -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = Vec::new();

    // Raw register-tile microkernel, one packed K=256 panel pair.
    let k = 256;
    let ap: Vec<f32> = (0..k * MR).map(|i| (i % 97) as f32 * 0.013 - 0.5).collect();
    let bp: Vec<f32> = (0..k * NR).map(|i| (i % 89) as f32 * 0.011 - 0.4).collect();
    set.push(Workload::new("microkernel_k256", 20_000, move || {
        let mut acc = [[0.0f32; NR]; MR];
        backend::microkernel(k, &ap, &bp, &mut acc);
        std::hint::black_box(acc);
    }));

    let a = Tensor::rand_uniform(&[64, 144], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[144, 4096], -1.0, 1.0, &mut rng);
    set.push(Workload::new("matmul_64x144x4096", 20, move || {
        std::hint::black_box(a.matmul(&b).expect("matmul"));
    }));

    let x = Tensor::rand_uniform(&[8, 16, 32, 32], -1.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform(&[16, 16, 3, 3], -1.0, 1.0, &mut rng);
    set.push(Workload::new("conv2d_8x16x32x32_3x3", 20, move || {
        std::hint::black_box(ops::conv2d(&x, &w, None, 1, 1).expect("conv"));
    }));

    // The pipeline's own conv shapes, 3x3 "same", batch 32, written into
    // a preallocated output as the inference workspace path does: the
    // decoder's 16 -> 16 body conv and its 16 -> 3 output conv (short-M
    // GEMMs at 48x48), and resnet_full's last 96 -> 96 conv (row tiles on
    // a 6x6 grid, whose 36 pixels leave a partial column panel).
    for (name, [c, side, o], bias) in [
        ("conv2d_32x16x48x48_to16_3x3", [16, 48, 16], false),
        ("conv2d_32x16x48x48_to3_3x3", [16, 48, 3], true),
        ("conv2d_32x96x6x6_to96_3x3", [96, 6, 96], false),
    ] {
        let x = Tensor::rand_uniform(&[32, c, side, side], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[o, c, 3, 3], -1.0, 1.0, &mut rng);
        let b = bias.then(|| Tensor::rand_uniform(&[o], -1.0, 1.0, &mut rng));
        let mut out = Tensor::zeros(&[32, o, side, side]);
        set.push(Workload::new(name, 10, move || {
            ops::conv2d_into(&x, &w, b.as_ref(), 1, 1, &mut out).expect("conv");
            std::hint::black_box(&mut out);
        }));
    }

    // Int8 GEMM at the same geometry as the f32 matmul row: prepacked
    // weights, strided i8 activations, i32 accumulators.
    let (qm, qk, qn) = (64usize, 144usize, 4096usize);
    let qw: Vec<i8> = (0..qm * qk)
        .map(|i| ((i % 251) as i32 - 125) as i8)
        .collect();
    let qscales = vec![0.01f32; qm];
    let qa = ops::PackedQMat::pack(&qw, qm, qk, &qscales);
    let qb: Vec<i8> = (0..qk * qn)
        .map(|i| ((i % 239) as i32 - 119) as i8)
        .collect();
    let mut qacc = vec![0i32; qa.tiles() * MR * qn];
    set.push(Workload::new("qgemm_64x144x4096", 20, move || {
        let b = ops::QOperand::Strided {
            data: &qb,
            rs: qn,
            cs: 1,
            zp: 3,
        };
        ops::qgemm(&qa, &b, qn, &mut qacc);
        std::hint::black_box(&mut qacc);
    }));

    let logits = Tensor::rand_uniform(&[256, 1000], -4.0, 4.0, &mut rng);
    set.push(Workload::new("softmax_rows_256x1000", 50, move || {
        std::hint::black_box(ops::softmax_rows(&logits).expect("softmax"));
    }));

    set.extend(sensor_kernels(&mut rng));
    set
}

/// The analog circuit and sensor models: SCM recursion and its
/// gradients, ADC quantization, one PE block, whole-frame capture (clean,
/// normal-mode, and noisy at the deployed 96x96 geometry), and the energy
/// and timing models. None of them calls a tensor kernel, so their
/// backend columns differ only by run-to-run noise.
fn sensor_kernels(rng: &mut StdRng) -> Vec<Workload> {
    let params = CircuitParams::paper_65nm();
    let mut set = Vec::new();

    let scm = ScmModel::new(params.clone());
    let vcm = params.vcm;
    set.push(Workload::new("scm_mac_chain_16", 200_000, move || {
        let mut v = vcm;
        for i in 0..16u32 {
            v = scm.step(v, 0.5 + i as f32 * 0.01, 60.0);
        }
        std::hint::black_box(v);
    }));
    let scm = ScmModel::new(params.clone());
    set.push(Workload::new("scm_step_grads", 1_000_000, move || {
        std::hint::black_box(scm.step_grads(0.58, 0.7, 60.0));
    }));

    let adc = AdcModel::new(AdcResolution::Sar(4), 0.35).expect("adc");
    set.push(Workload::new("adc_quantize_4bit", 100_000, move || {
        let mut acc = 0i32;
        for i in 0..64 {
            acc += adc.quantize(-0.35 + i as f32 * 0.011);
        }
        std::hint::black_box(acc);
    }));

    // One deterministic 4x4 block through the whole PE chain, four
    // kernels in one pass.
    let pe = AnalogPe::typical(&params, AdcResolution::Sar(3)).expect("pe");
    let kernel = pe.resolve(&[7; BLOCK_PIXELS]).expect("weights");
    let kernels = vec![kernel; 4];
    let pixels: [f32; BLOCK_PIXELS] = std::array::from_fn(|i| i as f32 / 15.0);
    set.push(Workload::new("pe_encode_block_4k", 20_000, move || {
        std::hint::black_box(
            pe.encode::<StdRng>(&pixels, &kernels, None)
                .expect("encode"),
        );
    }));

    // A 64x64 raw array (32x32 RGB), deterministic LeCA and normal modes.
    let geom = SensorGeometry {
        rows: 64,
        cols: 64,
        n_ch: 4,
    };
    let mut sensor = LecaSensor::new(geom, 3.0).expect("sensor");
    sensor
        .program_weights(vec![vec![7i32; 16]; 4])
        .expect("weights");
    let scene: Vec<f32> = (0..64 * 64).map(|i| (i % 64) as f32 / 63.0).collect();
    let (s, sc) = (sensor.clone(), scene.clone());
    set.push(Workload::new(
        "sensor_capture_64x64_clean",
        200,
        move || {
            std::hint::black_box(s.capture::<StdRng>(&sc, None).expect("capture"));
        },
    ));
    set.push(Workload::new(
        "sensor_capture_64x64_normal",
        200,
        move || {
            std::hint::black_box(
                sensor
                    .capture_normal::<StdRng>(&scene, None)
                    .expect("capture"),
            );
        },
    ));

    // The deployed capture: 48x48 RGB (96x96 raw) through a sensor
    // programmed from a paper_for_cr(8) encoder, full noise chain, a
    // fresh noise realisation every frame.
    let cfg = LecaConfig::paper_for_cr(8).expect("config");
    let enc = LecaEncoder::new(&cfg, Modality::Hard, 17).expect("encoder");
    let sensor = program_sensor(&enc, 48, 48).expect("sensor");
    let scene: Vec<f32> = (0..96 * 96).map(|_| rng.gen_range(0.0f32..1.0)).collect();
    let mut noise = StdRng::seed_from_u64(rng.gen());
    set.push(Workload::new("sensor_capture_96x96_noisy", 20, move || {
        std::hint::black_box(sensor.capture(&scene, Some(&mut noise)).expect("capture"));
    }));

    let energy = EnergyModel::paper();
    set.push(Workload::new(
        "energy_model_full_sweep",
        20_000,
        move || {
            let g4 = SensorGeometry::paper(8);
            let g8 = SensorGeometry::paper(4);
            std::hint::black_box((
                energy.cnv_frame(448, 448).expect("cnv"),
                energy.leca_frame(&g4, 3.0).expect("cr4"),
                energy.leca_frame(&g8, 3.0).expect("cr8"),
                energy.cs_frame(448, 448).expect("cs"),
            ));
        },
    ));
    let timing = TimingModel::paper();
    set.push(Workload::new("timing_model", 1_000_000, move || {
        std::hint::black_box((
            timing.fps(&SensorGeometry::paper(4)),
            timing.fps(&SensorGeometry::hd1080(4)),
        ));
    }));

    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_set_has_stable_names() {
        let names: Vec<&str> = standard_kernels(7).iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "microkernel_k256",
                "matmul_64x144x4096",
                "conv2d_8x16x32x32_3x3",
                "conv2d_32x16x48x48_to16_3x3",
                "conv2d_32x16x48x48_to3_3x3",
                "conv2d_32x96x6x6_to96_3x3",
                "qgemm_64x144x4096",
                "softmax_rows_256x1000",
                "scm_mac_chain_16",
                "scm_step_grads",
                "adc_quantize_4bit",
                "pe_encode_block_4k",
                "sensor_capture_64x64_clean",
                "sensor_capture_64x64_normal",
                "sensor_capture_96x96_noisy",
                "energy_model_full_sweep",
                "timing_model",
            ]
        );
    }

    #[test]
    fn workloads_are_runnable() {
        for mut wl in standard_kernels(7) {
            wl.step();
            assert!(wl.iters >= 1);
        }
    }
}
