//! The full analog processing element: i-buffer → PSF → SCM → o-buffers →
//! FVF → ADC.
//!
//! One PE serves four pixel columns (Sec. 4.1) and processes the
//! non-overlapping `2K x 2K` raw-Bayer block under an **input-stationary**
//! dataflow: each buffered ifmap row is reused across all kernels while
//! partial sums accumulate in the differential o-buffers (positive-weight
//! charge on one, negative on the other). After all rows, the FVF drives
//! the differential voltage into the ADC.

use crate::adc::{AdcModel, AdcResolution};
use crate::fvf::FvfDevice;
use crate::noise::{ktc_noise_v, ziggurat};
use crate::params::CircuitParams;
use crate::psf::PsfDevice;
use crate::scm::ScmDevice;
use crate::{CircuitError, Result};
use rand::Rng;

/// Pixel columns one PE serves (= i-buffers per PE), and so the side of
/// the raw-Bayer block it encodes — fixed to 4 by the paper's design
/// (Sec. 4.1).
pub const BLOCK_SIDE: usize = 4;

/// Raw pixels in one PE block.
pub const BLOCK_PIXELS: usize = BLOCK_SIDE * BLOCK_SIDE;

/// Kernels a PE holds at once, one differential o-buffer pair each; more
/// kernels need repetitive readout (Sec. 4.2 step ④).
pub const KERNELS_PER_PASS: usize = 4;

/// Default full-scale differential voltage of the ofmap ADC.
///
/// The o-buffers settle inside the PSF output window, so the differential
/// swing is bounded by roughly ±0.35 V around balance; this default centers
/// the code range on that swing. The trained pipeline overrides it (the
/// quantization boundary is a learned parameter).
pub const DEFAULT_VFS: f32 = 0.35;

/// A device-accurate analog PE instance.
#[derive(Debug, Clone)]
pub struct AnalogPe {
    params: CircuitParams,
    psf: PsfDevice,
    scm: ScmDevice,
    fvf: FvfDevice,
    adc: AdcModel,
}

/// How one weight code drives the SCM.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tap {
    /// Zero code: no MAC cycle.
    Off,
    /// Positive code: charge onto the positive o-buffer through this
    /// loaded capacitance (fF).
    Pos(f32),
    /// Negative code: charge onto the negative o-buffer.
    Neg(f32),
}

/// One 4x4 kernel resolved against a PE's capacitor bank by
/// [`AnalogPe::resolve`]; valid only for the PE that resolved it.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockKernel {
    taps: [Tap; BLOCK_PIXELS],
}

impl AnalogPe {
    /// Builds a typical-corner PE (deterministic non-idealities, no
    /// mismatch) at the given ADC resolution.
    ///
    /// # Errors
    ///
    /// Propagates ADC configuration errors.
    pub fn typical(params: &CircuitParams, resolution: AdcResolution) -> Result<Self> {
        Ok(AnalogPe {
            params: params.clone(),
            psf: PsfDevice::typical(params),
            scm: ScmDevice::typical(params),
            fvf: FvfDevice::typical(params),
            adc: AdcModel::new(resolution, DEFAULT_VFS)?,
        })
    }

    /// Samples a Monte-Carlo PE instance (mismatched PSF/SCM/FVF/ADC).
    ///
    /// # Errors
    ///
    /// Propagates ADC configuration errors.
    pub fn sample<R: Rng + ?Sized>(
        params: &CircuitParams,
        resolution: AdcResolution,
        rng: &mut R,
    ) -> Result<Self> {
        Ok(AnalogPe {
            params: params.clone(),
            psf: PsfDevice::sample(params, rng),
            scm: ScmDevice::sample(params, rng),
            fvf: FvfDevice::sample(params, rng),
            adc: AdcModel::device(resolution, DEFAULT_VFS, rng)?,
        })
    }

    /// The ADC model (e.g. for dequantization by a downstream decoder).
    pub fn adc(&self) -> &AdcModel {
        &self.adc
    }

    /// Overrides the ADC full-scale (trained quantization boundary).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] for non-positive values.
    pub fn set_adc_vfs(&mut self, v_fs: f32) -> Result<()> {
        self.adc.set_v_fs(v_fs)
    }

    /// Resolves one 4x4 kernel of signed weight codes (row-major, one per
    /// block pixel) against this PE's capacitor bank: each code's sign
    /// picks the o-buffer its charge goes to and its magnitude the
    /// capacitance it connects, mismatch and transfer loss included. The
    /// sensor does this once per programming or fault-plan change.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::WeightCodeOutOfRange`] for a magnitude
    /// beyond the SCM precision.
    pub fn resolve(&self, codes: &[i32; BLOCK_PIXELS]) -> Result<BlockKernel> {
        let mut taps = [Tap::Off; BLOCK_PIXELS];
        for (tap, &w) in taps.iter_mut().zip(codes) {
            if w != 0 {
                let cs = self.scm.loaded_csample(w.unsigned_abs())?;
                *tap = if w > 0 { Tap::Pos(cs) } else { Tap::Neg(cs) };
            }
        }
        Ok(BlockKernel { taps })
    }

    /// Encodes one 4x4 pixel block through the full analog chain, for up
    /// to [`KERNELS_PER_PASS`] kernels at once.
    ///
    /// * `pixels` — normalized `[0, 1]` raw-Bayer values, row-major.
    /// * `kernels` — kernels [`AnalogPe::resolve`]d by this PE.
    /// * `rng` — `Some` enables the stochastic noise sources (noisy mode);
    ///   `None` runs the deterministic device model.
    ///
    /// Returns one signed ADC code per kernel, in the first
    /// `kernels.len()` entries.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] for more kernels than
    /// o-buffer pairs and propagates stage range errors.
    pub fn encode<R: Rng + ?Sized>(
        &self,
        pixels: &[f32; BLOCK_PIXELS],
        kernels: &[BlockKernel],
        mut rng: Option<&mut R>,
    ) -> Result<[i32; KERNELS_PER_PASS]> {
        if kernels.len() > KERNELS_PER_PASS {
            return Err(CircuitError::InvalidConfig(format!(
                "{} kernels in one pass, the PE holds {KERNELS_PER_PASS}",
                kernels.len()
            )));
        }
        let p = &self.params;
        let ktc_sigma = ktc_noise_v(p.c_ibuf_ff);
        let (lo, hi) = self.psf.input_window();

        // Differential o-buffers per kernel, reset to VCM.
        let mut vp = [p.vcm; KERNELS_PER_PASS];
        let mut vn = [p.vcm; KERNELS_PER_PASS];

        // Input-stationary dataflow: buffer one ifmap row, sweep kernels.
        for (r, row) in pixels.chunks_exact(BLOCK_SIDE).enumerate() {
            // i-buffer sampling (kTC noise when noisy), then the PSF
            // buffers each i-buffer voltage into the SCM.
            let mut row_v = [0.0f32; BLOCK_SIDE];
            for (buffered, &x) in row_v.iter_mut().zip(row) {
                let mut v = p.pixel_to_voltage(x.clamp(0.0, 1.0));
                if let Some(rng) = rng.as_deref_mut() {
                    v += ktc_sigma * ziggurat(rng);
                }
                let v = v.clamp(lo, hi);
                *buffered = match rng.as_deref_mut() {
                    Some(rng) => self.psf.transfer_noisy(v, rng)?,
                    None => self.psf.transfer(v)?,
                };
            }
            // Consecutive MACs: kernel-by-kernel, cycling the i-buffers.
            for (k, kernel) in kernels.iter().enumerate() {
                let taps = &kernel.taps[r * BLOCK_SIDE..(r + 1) * BLOCK_SIDE];
                for (&tap, &vin) in taps.iter().zip(&row_v) {
                    let (acc, cs) = match tap {
                        Tap::Off => continue,
                        Tap::Pos(cs) => (&mut vp[k], cs),
                        Tap::Neg(cs) => (&mut vn[k], cs),
                    };
                    *acc = match rng.as_deref_mut() {
                        Some(rng) => self.scm.mac_noisy(*acc, vin, cs, rng),
                        None => self.scm.mac(*acc, vin, cs),
                    };
                }
            }
        }

        // FVF + differential ADC per kernel.
        let mut codes = [0i32; KERNELS_PER_PASS];
        for (k, code) in codes.iter_mut().enumerate().take(kernels.len()) {
            let (p_in, n_in) = (vp[k].clamp(0.0, p.vdd), vn[k].clamp(0.0, p.vdd));
            *code = match rng.as_deref_mut() {
                Some(rng) => {
                    let bp = self.fvf.transfer_noisy(p_in, rng)?;
                    let bn = self.fvf.transfer_noisy(n_in, rng)?;
                    self.adc.quantize_noisy(bp - bn, rng)
                }
                None => self
                    .adc
                    .quantize(self.fvf.transfer(p_in)? - self.fvf.transfer(n_in)?),
            };
        }
        Ok(codes)
    }

    /// Normal sensing mode: bypasses the PE and digitizes one pixel at
    /// 8-bit single-ended resolution (Sec. 4.3, "the ADC is configurable to
    /// 8-bit resolution to support normal sensing mode").
    ///
    /// # Errors
    ///
    /// Propagates ADC configuration errors.
    pub fn digitize_pixel(&self, x: f32) -> Result<u8> {
        // Full scale = half the swing: the signed code then spans the whole
        // single-ended pixel range once re-centered.
        let adc = AdcModel::new(AdcResolution::Sar(8), self.params.v_swing / 2.0)?;
        let v = self.params.pixel_to_voltage(x.clamp(0.0, 1.0)) - self.params.v_dark;
        let code = adc.quantize(v - self.params.v_swing / 2.0) + 127;
        Ok(code.clamp(0, 255) as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pe(q: f32) -> AnalogPe {
        AnalogPe::typical(
            &CircuitParams::paper_65nm(),
            AdcResolution::from_qbit(q).unwrap(),
        )
        .unwrap()
    }

    /// Deterministic codes of `pixels` under kernels of uniform weights.
    fn codes(pe: &AnalogPe, pixels: &[f32; BLOCK_PIXELS], weights: &[i32]) -> Vec<i32> {
        let kernels: Vec<BlockKernel> = weights
            .iter()
            .map(|&w| pe.resolve(&[w; BLOCK_PIXELS]).unwrap())
            .collect();
        pe.encode::<StdRng>(pixels, &kernels, None).unwrap()[..kernels.len()].to_vec()
    }

    fn ramp() -> [f32; BLOCK_PIXELS] {
        std::array::from_fn(|i| i as f32 / 15.0)
    }

    #[test]
    fn zero_weights_give_zero_code() {
        assert_eq!(codes(&pe(4.0), &[0.5; 16], &[0]), vec![0]);
    }

    #[test]
    fn positive_weights_respond_to_brightness() {
        let pe = pe(4.0);
        let dark = codes(&pe, &[0.05; 16], &[8])[0];
        let bright = codes(&pe, &[0.95; 16], &[8])[0];
        // Charge-domain MAC inverts: brighter pixels pull the accumulator
        // down (2·V_CM − V_in), so the bright code is lower.
        assert!(bright < dark, "bright {bright} !< dark {dark}");
        assert_ne!(dark, 0);
    }

    #[test]
    fn negated_weights_mirror_the_code() {
        let c = codes(&pe(4.0), &ramp(), &[9, -9]);
        // Sign routing swaps the differential pair: codes mirror to within
        // one LSB (charge injection is common-mode but transfer loss isn't
        // perfectly symmetric).
        assert!((c[0] + c[1]).abs() <= 1, "{} vs {}", c[0], c[1]);
    }

    #[test]
    fn multiple_kernels_processed_together() {
        let pixels: [f32; BLOCK_PIXELS] = std::array::from_fn(|i| (i % 4) as f32 / 4.0);
        let c = codes(&pe(4.0), &pixels, &[5, -5, 0, 12]);
        assert_eq!(c.len(), 4);
        assert_eq!(c[2], 0);
        assert!((c[0] + c[1]).abs() <= 1);
    }

    #[test]
    fn noisy_mode_dithers_but_tracks_clean() {
        let pe = pe(4.0);
        let pixels = [0.4; BLOCK_PIXELS];
        let kernel = [pe.resolve(&[10; BLOCK_PIXELS]).unwrap()];
        let clean = pe.encode::<StdRng>(&pixels, &kernel, None).unwrap()[0];
        let mut rng = StdRng::seed_from_u64(0);
        let noisy: Vec<i32> = (0..50)
            .map(|_| pe.encode(&pixels, &kernel, Some(&mut rng)).unwrap()[0])
            .collect();
        let mean: f32 = noisy.iter().map(|&c| c as f32).sum::<f32>() / noisy.len() as f32;
        assert!(
            (mean - clean as f32).abs() <= 1.0,
            "mean {mean} vs clean {clean}"
        );
    }

    #[test]
    fn ternary_mode_emits_signs() {
        let pe = pe(1.5);
        assert_eq!(codes(&pe, &[0.0; 16], &[15]), vec![1]);
        assert_eq!(codes(&pe, &[1.0; 16], &[15]), vec![-1]);
    }

    #[test]
    fn weight_codes_and_kernel_counts_are_bounded() {
        let pe = pe(4.0);
        let mut w = [0i32; BLOCK_PIXELS];
        w[3] = -15;
        assert!(pe.resolve(&w).is_ok());
        for bad in [16, -16, i32::MIN] {
            w[3] = bad;
            assert!(matches!(
                pe.resolve(&w),
                Err(CircuitError::WeightCodeOutOfRange { .. })
            ));
        }
        let kernel = pe.resolve(&[1; BLOCK_PIXELS]).unwrap();
        let five = vec![kernel; KERNELS_PER_PASS + 1];
        assert!(matches!(
            pe.encode::<StdRng>(&[0.5; 16], &five, None),
            Err(CircuitError::InvalidConfig(_))
        ));
    }

    #[test]
    fn mismatched_instances_differ() {
        let params = CircuitParams::paper_65nm();
        let mut rng = StdRng::seed_from_u64(3);
        let a = AnalogPe::sample(&params, AdcResolution::Sar(8), &mut rng).unwrap();
        let b = AnalogPe::sample(&params, AdcResolution::Sar(8), &mut rng).unwrap();
        // At 8-bit resolution the inter-instance mismatch is visible on at
        // least one of a spread of operating points.
        let mut any_differ = false;
        for w in [3i32, 7, 11, 15] {
            for base in [0.1f32, 0.35, 0.6, 0.85] {
                let pixels = std::array::from_fn(|i| base + i as f32 / 160.0);
                any_differ |= codes(&a, &pixels, &[w]) != codes(&b, &pixels, &[w]);
            }
        }
        assert!(any_differ, "mismatch never changed an 8-bit code");
    }

    #[test]
    fn normal_mode_digitizes_8bit() {
        let pe = pe(4.0);
        assert_eq!(pe.digitize_pixel(0.0).unwrap(), 0);
        assert_eq!(pe.digitize_pixel(1.0).unwrap(), 254);
        let mid = pe.digitize_pixel(0.5).unwrap();
        assert!((mid as i32 - 127).abs() <= 1);
        // Monotonic.
        let mut prev = 0u8;
        for i in 0..=20 {
            let c = pe.digitize_pixel(i as f32 / 20.0).unwrap();
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn trained_vfs_changes_codes() {
        let mut pe = pe(4.0);
        let before = codes(&pe, &[0.15; 16], &[6])[0];
        pe.set_adc_vfs(0.08).unwrap();
        let after = codes(&pe, &[0.15; 16], &[6])[0];
        assert!(after.abs() >= before.abs());
        assert!(pe.set_adc_vfs(-1.0).is_err());
    }
}
