//! Noise-level parity of the stochastic capture chain.
//!
//! Noisy capture draws its per-frame noise (pixel shot/read, kTC, PSF,
//! SCM step, FVF, ADC comparator) through the Ziggurat sampler; it used
//! Box–Muller before. That changes the noise *realisation* but must not
//! change its *distribution*. These tests capture one scene many times on
//! a reduced 32×32 sensor and compare two statistics of the noisy codes
//! against the deterministic capture:
//!
//! * the flip rate — the share of codes that differ from the clean code;
//! * the mean code offset (signed, a bias check) and, at 8 bit where the
//!   noise spans several LSB, the mean absolute offset (a scale check).
//!
//! The reference values were measured with the Box–Muller sampler over
//! 8000 (3-bit) and 2000 (8-bit) captures, seeds `1_000_000..`; the
//! bands are several standard errors of the smaller runs below.

use leca_sensor::{LecaSensor, SensorGeometry};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Noisy-vs-clean statistics over a run of captures.
struct Offsets {
    flip_rate: f64,
    mean: f64,
    mean_abs: f64,
}

fn offsets(qbit: f32, captures: u64, seed: u64) -> Offsets {
    let geometry = SensorGeometry {
        rows: 32,
        cols: 32,
        n_ch: 4,
    };
    let mut sensor = LecaSensor::new(geometry, qbit).unwrap();
    // Mixed signs and magnitudes, zeros included.
    let weights = (0..4i32)
        .map(|k| (0..16i32).map(|p| ((p * 7 + k * 5) % 31) - 15).collect())
        .collect();
    sensor.program_weights(weights).unwrap();
    let scene: Vec<f32> = (0..32 * 32)
        .map(|i| {
            let (y, x) = ((i / 32) as f32, (i % 32) as f32);
            let texture = 0.05 * ((i * 37 % 17) as f32 / 17.0);
            (0.5 + 0.4 * (x / 5.0).sin() * (y / 9.0).cos() + texture).clamp(0.0, 1.0)
        })
        .collect();
    let (clean, _) = sensor.capture::<StdRng>(&scene, None).unwrap();
    let (mut flips, mut sum, mut abs, mut count) = (0u64, 0i64, 0i64, 0u64);
    for k in 0..captures {
        let mut rng = StdRng::seed_from_u64(seed + k);
        let (noisy, _) = sensor.capture(&scene, Some(&mut rng)).unwrap();
        for (&a, &b) in noisy.codes().iter().zip(clean.codes()) {
            let d = i64::from(a - b);
            flips += u64::from(d != 0);
            sum += d;
            abs += d.abs();
            count += 1;
        }
    }
    let n = count as f64;
    Offsets {
        flip_rate: flips as f64 / n,
        mean: sum as f64 / n,
        mean_abs: abs as f64 / n,
    }
}

fn assert_near(what: &str, got: f64, reference: f64, band: f64) {
    assert!(
        (got - reference).abs() <= band,
        "{what} {got:.6} outside {reference:.6} ± {band}"
    );
}

#[test]
fn three_bit_flip_rate_and_bias_match_reference() {
    // Reference: flip rate 0.012841, mean offset +0.003717 LSB.
    let o = offsets(3.0, 1000, 5_000);
    assert_near("flip rate", o.flip_rate, 0.012841, 0.001);
    assert_near("mean offset", o.mean, 0.003717, 0.0012);
}

#[test]
fn eight_bit_noise_scale_and_bias_match_reference() {
    // Reference: flip rate 0.673922, mean |offset| 0.946229 LSB, mean
    // offset +0.013291 LSB.
    let o = offsets(8.0, 400, 9_000);
    assert_near("flip rate", o.flip_rate, 0.673922, 0.013);
    assert_near("mean |offset|", o.mean_abs, 0.946229, 0.024);
    assert_near("mean offset", o.mean, 0.013291, 0.015);
}
