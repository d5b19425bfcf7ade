//! Cross-crate consistency checks: the same physical quantities computed
//! by different crates must agree.

use leca::circuit::adc::AdcResolution;
use leca::core::config::LecaConfig;
use leca::data::bayer;
use leca::nn::quant::BitDepth;
use leca::sensor::energy::EnergyModel;
use leca::sensor::timing::TimingModel;
use leca::sensor::SensorGeometry;
use leca::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn eq1_matches_sensor_payload_accounting() {
    // Eq. (1)'s CR must equal the ratio of CNV payload bits to the sensor's
    // actual ofmap payload bits for the same frame.
    for cr in [4usize, 6, 8] {
        let cfg = LecaConfig::paper_for_cr(cr).expect("design point");
        let geom = SensorGeometry::paper(cfg.n_ch);
        let rgb_bits = (224 * 224 * 3 * 8) as f32;
        let ofmap_bits = geom.ofmap_elements() as f32 * cfg.qbit;
        let sensor_cr = rgb_bits / ofmap_bits;
        assert!(
            (sensor_cr - cfg.compression_ratio()).abs() < 1e-3,
            "CR {cr}: Eq.(1) {} vs sensor payload {sensor_cr}",
            cfg.compression_ratio()
        );
    }
}

#[test]
fn nn_bitdepth_and_circuit_resolution_agree() {
    // Both crates parse the paper's Q_bit notation; level counts must be
    // consistent (nn counts 2^q levels, the symmetric ADC 2^q - 1 codes).
    for qbit in [1.5f32, 2.0, 3.0, 4.0, 8.0] {
        let depth = BitDepth::from_qbit(qbit).expect("nn depth");
        let res = AdcResolution::from_qbit(qbit).expect("adc resolution");
        assert_eq!(res.qbit(), qbit);
        if qbit == 1.5 {
            assert_eq!(depth.levels(), 3);
            assert_eq!(res.num_codes(), 3);
        } else {
            assert_eq!(depth.levels(), 1 << qbit as usize);
            assert_eq!(res.num_codes(), (1 << qbit as usize) - 1);
        }
    }
}

#[test]
fn bayer_mosaic_matches_sensor_geometry() {
    // A (3, H, W) image mosaics to exactly the raw plane the sensor
    // expects for a 2W x 2H geometry.
    let mut rng = StdRng::seed_from_u64(0);
    let img = Tensor::rand_uniform(&[3, 8, 10], 0.0, 1.0, &mut rng);
    let raw = bayer::mosaic(&img).expect("mosaic");
    let geom = SensorGeometry {
        rows: 16,
        cols: 20,
        n_ch: 4,
    };
    assert_eq!(raw.len(), geom.raw_pixels());
    // And the flattened-kernel identity holds for every kernel of a random
    // encoder weight.
    let w = Tensor::rand_uniform(&[4, 3, 2, 2], -1.0, 1.0, &mut rng);
    let flat = bayer::flatten_kernel(&w).expect("flatten");
    assert_eq!(flat.shape(), &[4, 4, 4]);
}

#[test]
fn paper_headline_numbers_hold_together() {
    // The three headline claims, computed through the public APIs:
    let energy = EnergyModel::paper();
    let timing = TimingModel::paper();

    // 6.3x more efficient than CNV at CR = 8.
    let cnv = energy.cnv_frame(448, 448).expect("cnv").total_uj();
    let leca8 = energy
        .leca_frame(&SensorGeometry::paper(4), 3.0)
        .expect("leca")
        .total_uj();
    assert!((5.5..7.0).contains(&(cnv / leca8)));

    // 209 fps at 448x448 and 86 fps at 1080p.
    assert!((timing.fps(&SensorGeometry::paper(4)) - 209.0).abs() < 4.0);
    assert!((timing.fps(&SensorGeometry::hd1080(4)) - 86.0).abs() < 2.0);

    // Fig. 8: device vs analytical within 1 LSB.
    let sweep = leca::circuit::validate::fig8_sweep(&leca::circuit::CircuitParams::paper_65nm())
        .expect("sweep");
    assert!(sweep.max_err_lsb <= 1);
}

#[test]
fn codecs_share_the_rgb_contract() {
    // Every baseline transcodes the same SynthVision image shape and
    // reports a CR >= 1 with a same-shape reconstruction in [0, 1].
    use leca::baselines::{agt::Agt, cnv::Cnv, cs::Cs, jpeg::Jpeg, lr::Lr, ms::Ms, sd::Sd, Codec};
    let cfg = leca::data::SynthConfig::proxy();
    let mut rng = StdRng::seed_from_u64(1);
    let img = leca::data::synth::render_sample(&cfg, 0, &mut rng);
    let codecs: Vec<Box<dyn Codec>> = vec![
        Box::new(Cnv::new()),
        Box::new(Sd::for_cr(4).expect("cfg")),
        Box::new(Sd::for_cr(6).expect("cfg")),
        Box::new(Lr::for_cr(6).expect("cfg")),
        Box::new(Cs::paper_4x(0).expect("cfg")),
        Box::new(Ms::new()),
        Box::new(Agt::paper()),
        Box::new(Jpeg::new(50).expect("cfg")),
    ];
    for codec in &codecs {
        let out = codec.transcode(&img).expect("transcode");
        assert_eq!(out.reconstruction.shape(), img.shape(), "{}", codec.name());
        assert!(out.compression_ratio >= 1.0, "{}", codec.name());
        assert!(out.reconstruction.min() >= 0.0 && out.reconstruction.max() <= 1.0);
    }
}

#[test]
fn quantizer_grids_match_between_software_and_adc() {
    // The software quantizer (training) and the ADC model (deployment)
    // must place codes on compatible symmetric grids.
    use leca::circuit::adc::AdcModel;
    let res = AdcResolution::Sar(3);
    let adc = AdcModel::new(res, 0.3).expect("adc");
    for code in -3i32..=3 {
        let v = adc.dequantize(code);
        // Normalized value = code / max_code.
        assert!((v / 0.3 - code as f32 / 3.0).abs() < 1e-6);
        assert_eq!(adc.quantize(v), code);
    }
}

#[test]
fn pixel_noise_draws_match_the_tensor_sampler() {
    // `PixelNoise::apply` draws through the circuit crate's copy of
    // Box–Muller; the training goldens assume it is bit-identical to
    // `leca_tensor::standard_normal`.
    let noise = leca::circuit::noise::PixelNoise::typical();
    let (mut a, mut b) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
    for i in 0..1000 {
        let x = i as f32 / 999.0;
        let via_apply = noise.apply(x, &mut a);
        let via_tensor = noise.perturb(x, || leca::tensor::standard_normal(&mut b));
        assert_eq!(via_apply.to_bits(), via_tensor.to_bits(), "pixel {x}");
    }
}
