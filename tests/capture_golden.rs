//! Bitwise oracle for the sensor's deterministic capture path.
//!
//! `LecaSensor::capture(.., None)` runs the device models without any
//! random draw, so its ADC codes are a pure function of the scene, the
//! programmed weights, the PE instances and the fault plan. The checksums
//! below were captured before the PE block loop was rewritten around
//! per-programming resolved weights; any change to the float operations
//! of the deterministic chain (pixel → PSF → SCM → FVF → ADC) trips them.
//!
//! Three sensors cover the three ways a PE can be built or fed:
//!
//! * the full 96×96 raw geometry programmed from a `paper_for_cr(8)`
//!   encoder (typical-corner PE, the deployed path);
//! * a `with_mismatch` sensor (one sampled PE per column group, an ADC
//!   offset, two readout passes, 8-bit codes);
//! * the full geometry again under `FaultPlan::uniform` (dead columns,
//!   stuck pixels, weight bit flips, stuck/missing ADC codes).

use leca::circuit::fault::FaultPlan;
use leca::core::config::LecaConfig;
use leca::core::deploy::program_sensor;
use leca::core::encoder::{LecaEncoder, Modality};
use leca::sensor::{LecaSensor, SensorGeometry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GOLDEN_PAPER_CR8: u64 = 0xccbe7387e8321cc1;
const GOLDEN_MISMATCH: u64 = 0x52e9dfe24be52bd8;
const GOLDEN_FAULTY: u64 = 0x8c560be94eb22312;

/// Order-sensitive checksum of a code buffer.
fn checksum(codes: &[i32]) -> u64 {
    codes
        .iter()
        .fold(0u64, |h, &c| h.rotate_left(7) ^ u64::from(c as u32))
}

/// A raw scene with large-scale structure (so block sums span the ADC
/// range) plus per-pixel texture, a few values outside `[0, 1]` included
/// to exercise the clamps.
fn scene(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows * cols)
        .map(|i| {
            let (y, x) = ((i / cols) as f32, (i % cols) as f32);
            let base = 0.5 + 0.45 * ((x / 7.0).sin() * (y / 11.0).cos());
            base + rng.gen_range(-0.08f32..0.08)
        })
        .collect()
}

fn paper_sensor() -> LecaSensor {
    let cfg = LecaConfig::paper_for_cr(8).unwrap();
    let enc = LecaEncoder::new(&cfg, Modality::Hard, 17).unwrap();
    program_sensor(&enc, 48, 48).unwrap()
}

fn capture_checksum(sensor: &LecaSensor, seed: u64) -> u64 {
    let g = sensor.geometry();
    let (ofmap, _) = sensor
        .capture::<StdRng>(&scene(g.rows, g.cols, seed), None)
        .unwrap();
    checksum(ofmap.codes())
}

#[test]
fn paper_geometry_clean_capture_matches_golden() {
    let sensor = paper_sensor();
    assert_eq!(
        capture_checksum(&sensor, 1),
        GOLDEN_PAPER_CR8,
        "{:#018x}",
        capture_checksum(&sensor, 1)
    );
}

#[test]
fn mismatched_sensor_clean_capture_matches_golden() {
    let geometry = SensorGeometry {
        rows: 32,
        cols: 32,
        n_ch: 8,
    };
    let mut rng = StdRng::seed_from_u64(23);
    let mut sensor = LecaSensor::with_mismatch(geometry, 8.0, &mut rng).unwrap();
    let weights = (0..8)
        .map(|_| (0..16).map(|_| rng.gen_range(-15i32..16)).collect())
        .collect();
    sensor.program_weights(weights).unwrap();
    sensor.set_adc_vfs(0.2).unwrap();
    assert_eq!(
        capture_checksum(&sensor, 2),
        GOLDEN_MISMATCH,
        "{:#018x}",
        capture_checksum(&sensor, 2)
    );
}

#[test]
fn faulty_sensor_clean_capture_matches_golden() {
    let mut sensor = paper_sensor();
    sensor.set_fault_plan(FaultPlan::uniform(5, 0.05));
    assert_eq!(
        capture_checksum(&sensor, 3),
        GOLDEN_FAULTY,
        "{:#018x}",
        capture_checksum(&sensor, 3)
    );
}
