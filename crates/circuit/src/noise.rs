//! Noise models and the two standard-normal samplers behind them.
//!
//! Sec. 5.3: *"The pixel array noise is added to the images to emulate real
//! CIS sensing effect, including shot noise and read noise, which are
//! formulated as Poisson and Gaussian distribution, respectively. We first
//! convert the digital image to its voltage intensity, add the equivalent
//! noise in the voltage domain, and finally convert it back."*
//!
//! Two samplers draw the Gaussian disturbances, and each owns a fixed set
//! of streams:
//!
//! * [`ziggurat`] serves every per-capture draw of the sensor simulator
//!   (pixel shot/read noise in the array, kTC, PSF, SCM step, FVF and ADC
//!   comparator noise in the PE), ~80k draws per 96×96 frame.
//! * `box_muller` serves the Monte-Carlo device sampling (`*::sample`,
//!   `AdcModel::device`, and through them the training LUTs) and
//!   [`PixelNoise::apply`], which the training encoder calls. The
//!   determinism goldens pin those streams bit for bit, so they keep the
//!   sampler they were captured with.

use rand::Rng;
use std::sync::OnceLock;

/// Pixel noise model in the electron domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PixelNoise {
    /// Full-well capacity in electrons (signal at pixel value 1.0).
    pub full_well_e: f32,
    /// RMS read noise in electrons.
    pub read_noise_e: f32,
}

impl PixelNoise {
    /// A typical 65 nm CIS operating point: 9 ke⁻ full well, 2.5 e⁻ read
    /// noise.
    pub fn typical() -> Self {
        PixelNoise {
            full_well_e: 9_000.0,
            read_noise_e: 2.5,
        }
    }

    /// A noiseless model (for ablation).
    pub fn none() -> Self {
        PixelNoise {
            full_well_e: f32::INFINITY,
            read_noise_e: 0.0,
        }
    }

    /// Applies shot + read noise to a normalized pixel value in `[0, 1]`,
    /// drawing through Box–Muller (the training encoder's stream).
    pub fn apply<R: Rng + ?Sized>(&self, x: f32, rng: &mut R) -> f32 {
        self.perturb(x, || box_muller(rng))
    }

    /// Applies shot + read noise to a normalized pixel value in `[0, 1]`,
    /// taking the shot draw and then the read draw from `normal`, a
    /// standard-normal sampler. [`PixelNoise::none`] calls it zero times.
    ///
    /// Shot noise is Poisson in the photo-electron count; above ~20 e⁻ the
    /// Gaussian approximation `N(n, √n)` is indistinguishable and far
    /// cheaper, so that is what we sample.
    pub fn perturb(&self, x: f32, mut normal: impl FnMut() -> f32) -> f32 {
        if !self.full_well_e.is_finite() {
            return x.clamp(0.0, 1.0);
        }
        let electrons = x.clamp(0.0, 1.0) * self.full_well_e;
        let shot_sigma = electrons.max(0.0).sqrt();
        let noisy = electrons + shot_sigma * normal() + self.read_noise_e * normal();
        (noisy / self.full_well_e).clamp(0.0, 1.0)
    }

    /// Standard deviation (in normalized pixel units) the model adds at
    /// signal level `x` — used to build analytic noise budgets.
    pub fn sigma_at(&self, x: f32) -> f32 {
        if !self.full_well_e.is_finite() {
            return 0.0;
        }
        let electrons = x.clamp(0.0, 1.0) * self.full_well_e;
        (electrons + self.read_noise_e * self.read_noise_e).sqrt() / self.full_well_e
    }

    /// Signal-to-noise ratio in dB at signal level `x`.
    pub fn snr_db(&self, x: f32) -> f32 {
        let sigma = self.sigma_at(x);
        if sigma <= 0.0 {
            return f32::INFINITY;
        }
        20.0 * (x.max(1e-9) / sigma).log10()
    }
}

/// kTC (reset) noise sigma in volts for a capacitance in femtofarads at
/// 300 K.
pub fn ktc_noise_v(c_ff: f32) -> f32 {
    // kT at 300 K = 4.1419e-21 J; sigma = sqrt(kT / C).
    const KT: f32 = 4.1419e-21;
    (KT / (c_ff * 1e-15)).sqrt()
}

/// A standard-normal draw by the Box–Muller transform (two uniforms, one
/// `ln`, one `sqrt`, one `cos`).
///
/// It owns the streams the determinism goldens pin: the Monte-Carlo
/// device instances behind the training LUTs and [`PixelNoise::apply`].
/// It is a copy of `leca_tensor::standard_normal`, kept here so this crate
/// does not depend on the tensor stack; the two must stay bit-identical.
pub(crate) fn box_muller<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f32 = 1.0 - rng.gen::<f32>();
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Layers of the Ziggurat (a power of two: the layer index is the low
/// byte of the draw).
const ZIG_LAYERS: usize = 256;
/// Right edge `R` of the base layer for 256 layers (Marsaglia & Tsang
/// 2000; the tail beyond it is sampled exactly).
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Area `V` of every layer under the unnormalised density `exp(-x²/2)`.
const ZIG_V: f64 = 0.004_928_673_233_99;

/// Layer edges and density values. `x[0] = V / f(R)` is the width of a
/// rectangle with the base layer's area (the base strip plus the tail),
/// `x[1] = R`, `x` falls to `x[256] = 0`, and `f[i] = exp(-x[i]²/2)`.
struct ZigTables {
    x: [f64; ZIG_LAYERS + 1],
    f: [f64; ZIG_LAYERS + 1],
}

/// The tables, built once per process by Doornik's recursion
/// `x[i+1] = sqrt(-2 ln(V / x[i] + f(x[i])))`, so every layer has area `V`.
fn zig_tables() -> &'static ZigTables {
    static TABLES: OnceLock<ZigTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let pdf = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; ZIG_LAYERS + 1];
        x[0] = ZIG_V / pdf(ZIG_R);
        x[1] = ZIG_R;
        for i in 2..ZIG_LAYERS {
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + pdf(x[i - 1])).ln()).sqrt();
        }
        let f = x.map(pdf);
        ZigTables { x, f }
    })
}

/// Uniform in `[0, 1)` from the top 52 bits of `bits`, placed in the
/// mantissa of a float in `[1, 2)` (no integer conversion).
fn unit_f64(bits: u64) -> f64 {
    f64::from_bits(0x3ff0_0000_0000_0000 | (bits >> 12)) - 1.0
}

/// A standard-normal draw by the Ziggurat method (Marsaglia & Tsang,
/// 256 layers, Doornik's layout — the sampler behind
/// `rand_distr::StandardNormal`).
///
/// One 64-bit draw picks a layer (low byte) and a signed position in it
/// (top 52 bits); ~99% of draws return after that one comparison. The
/// rest fall in a layer's wedge (an accept/reject against the density)
/// or, from the base layer, in the tail beyond `R` (Marsaglia's exact
/// exponential method). It serves every per-capture noise draw of the
/// sensor simulator; see the module docs for the streams it does not own.
pub fn ziggurat<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    ziggurat_f64(rng) as f32
}

fn ziggurat_f64<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let t = zig_tables();
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        // Signed position in [-1, 1): the top 52 bits in a float in [2, 4).
        let u = f64::from_bits(0x4000_0000_0000_0000 | (bits >> 12)) - 3.0;
        let x = u * t.x[i];
        if x.abs() < t.x[i + 1] {
            return x;
        }
        if i == 0 {
            return zig_tail(rng, u < 0.0);
        }
        let y = t.f[i + 1] + (t.f[i] - t.f[i + 1]) * unit_f64(rng.next_u64());
        if y < (-0.5 * x * x).exp() {
            return x;
        }
    }
}

/// A draw from the normal tail beyond `R` (Marsaglia 1964): accept
/// `R + a` with `a ~ Exp(R)` when a second exponential clears `a²/2`.
fn zig_tail<R: Rng + ?Sized>(rng: &mut R, negative: bool) -> f64 {
    loop {
        let a = -(1.0 - unit_f64(rng.next_u64())).ln() / ZIG_R;
        let b = -(1.0 - unit_f64(rng.next_u64())).ln();
        if 2.0 * b >= a * a {
            return if negative { -(ZIG_R + a) } else { ZIG_R + a };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_model_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let n = PixelNoise::none();
        assert_eq!(n.apply(0.47, &mut rng), 0.47);
        assert_eq!(n.sigma_at(0.47), 0.0);
        assert_eq!(n.snr_db(0.5), f32::INFINITY);
    }

    #[test]
    fn shot_noise_scales_with_sqrt_signal() {
        let n = PixelNoise::typical();
        // sigma(x) ∝ √x ⇒ sigma(0.64)/sigma(0.16) ≈ 2.
        let ratio = n.sigma_at(0.64) / n.sigma_at(0.16);
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn read_noise_dominates_in_the_dark() {
        let n = PixelNoise::typical();
        let dark_sigma_e = n.sigma_at(0.0) * n.full_well_e;
        assert!((dark_sigma_e - n.read_noise_e).abs() < 0.1);
    }

    #[test]
    fn empirical_sigma_matches_analytic() {
        let n = PixelNoise::typical();
        let mut rng = StdRng::seed_from_u64(1);
        let x = 0.5;
        let samples: Vec<f32> = (0..8000).map(|_| n.apply(x, &mut rng)).collect();
        let mean: f32 = samples.iter().sum::<f32>() / samples.len() as f32;
        let std: f32 =
            (samples.iter().map(|s| (s - mean).powi(2)).sum::<f32>() / samples.len() as f32).sqrt();
        assert!((mean - x).abs() < 1e-3, "mean {mean}");
        let expected = n.sigma_at(x);
        assert!(
            (std - expected).abs() / expected < 0.1,
            "{std} vs {expected}"
        );
    }

    #[test]
    fn snr_improves_with_light() {
        let n = PixelNoise::typical();
        assert!(n.snr_db(0.9) > n.snr_db(0.1));
        // Peak SNR of a 9 ke- full well is ~39.5 dB.
        assert!((n.snr_db(1.0) - 39.5).abs() < 1.0);
    }

    #[test]
    fn output_stays_in_unit_range() {
        let n = PixelNoise::typical();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v = n.apply(1.0, &mut rng);
            assert!((0.0..=1.0).contains(&v));
        }
    }

    /// Replays a fixed list of 64-bit draws, to steer the Ziggurat down a
    /// chosen path.
    struct Script(Vec<u64>, usize);

    impl rand::RngCore for Script {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0[self.1 - 1]
        }
    }

    /// The 64-bit draw that lands in layer `i` at signed position `u`.
    fn draw_bits(i: usize, u: f64) -> u64 {
        let m = ((u + 1.0) * (1u64 << 51) as f64) as u64;
        (m << 12) | i as u64
    }

    /// ∫ₐᵇ of the standard normal density, composite Simpson.
    fn normal_mass(a: f64, b: f64) -> f64 {
        let n = 4000;
        let h = (b - a) / n as f64;
        let pdf = |x: f64| (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
        let inner: f64 = (1..n)
            .map(|k| pdf(a + k as f64 * h) * if k % 2 == 1 { 4.0 } else { 2.0 })
            .sum();
        (pdf(a) + inner + pdf(b)) * h / 3.0
    }

    #[test]
    fn ziggurat_tables_have_equal_layer_areas() {
        let t = zig_tables();
        assert_eq!(t.x[1], ZIG_R);
        assert_eq!(t.x[ZIG_LAYERS], 0.0);
        assert!(t.x.windows(2).all(|w| w[0] > w[1]), "x must fall");
        for i in 1..ZIG_LAYERS {
            let area = t.x[i] * (t.f[i + 1] - t.f[i]);
            assert!((area / ZIG_V - 1.0).abs() < 1e-6, "layer {i}: {area}");
        }
        // The base layer (strip under f(R) plus the tail) and its stand-in
        // rectangle of width x[0] both hold V.
        let tail = normal_mass(ZIG_R, ZIG_R + 12.0) * (2.0 * std::f64::consts::PI).sqrt();
        let base = ZIG_R * t.f[1] + tail;
        assert!((base / ZIG_V - 1.0).abs() < 1e-6, "base {base}");
        assert!((t.x[0] * t.f[1] / ZIG_V - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ziggurat_matches_the_standard_normal() {
        const N: usize = 1 << 22;
        let mut rng = StdRng::seed_from_u64(2024);
        // Bins of width 0.25 over [-3.5, 3.5] plus the two tails.
        let edges: Vec<f64> = (0..=28).map(|k| -3.5 + 0.25 * k as f64).collect();
        let mut bins = vec![0u64; edges.len() + 1];
        let (mut m1, mut m2, mut m3, mut m4) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let (mut over3, mut over4) = (0u64, 0u64);
        for _ in 0..N {
            let z = f64::from(ziggurat(&mut rng));
            m1 += z;
            m2 += z * z;
            m3 += z * z * z;
            m4 += z * z * z * z;
            over3 += u64::from(z.abs() > 3.0);
            over4 += u64::from(z.abs() > 4.0);
            bins[edges.partition_point(|&e| e <= z)] += 1;
        }
        let n = N as f64;
        let (mean, var) = (m1 / n, m2 / n - (m1 / n).powi(2));
        let skew = m3 / n / var.powf(1.5);
        let kurt = m4 / n / (var * var);
        // Bounds are ~7 standard errors of each estimator at N = 2^22.
        assert!(mean.abs() < 0.0035, "mean {mean}");
        assert!((var - 1.0).abs() < 0.005, "var {var}");
        assert!(skew.abs() < 0.009, "skew {skew}");
        assert!((kurt - 3.0).abs() < 0.02, "kurtosis {kurt}");

        // Two-sided tail masses within 5 binomial standard deviations.
        for (count, p) in [(over3, 2.699_796e-3), (over4, 6.334_248e-5)] {
            let sd = (n * p * (1.0 - p)).sqrt();
            assert!(
                (count as f64 - n * p).abs() < 5.0 * sd,
                "{count} draws beyond the tail edge, expected {}",
                n * p
            );
        }

        // Pearson chi-square against Φ; 29 degrees of freedom, p = 0.001.
        let mass = |k: usize| {
            let lo = if k == 0 { -12.0 } else { edges[k - 1] };
            let hi = if k == edges.len() { 12.0 } else { edges[k] };
            normal_mass(lo, hi)
        };
        let chi2: f64 = bins
            .iter()
            .enumerate()
            .map(|(k, &obs)| {
                let expected = n * mass(k);
                (obs as f64 - expected).powi(2) / expected
            })
            .sum();
        assert!(chi2 < 58.3, "chi-square {chi2}");
    }

    #[test]
    fn ziggurat_tail_and_wedge_paths() {
        let t = zig_tables();
        let half = 1u64 << 63;
        // Base layer at |u| ~ 1 lies beyond R: the tail, with the sign of
        // u. Exp draws of 1/2 give a = ln 2 / R, accepted at once.
        let expected = ZIG_R + std::f64::consts::LN_2 / ZIG_R;
        for (u, sign) in [(1.0 - 1e-12, 1.0), (-1.0, -1.0)] {
            let mut rng = Script(vec![draw_bits(0, u), half, half], 0);
            assert!((ziggurat_f64(&mut rng) - sign * expected).abs() < 1e-12);
            assert_eq!(rng.1, 3);
        }
        // A huge a with b = 0 is rejected; the next pair is accepted.
        let mut rng = Script(vec![draw_bits(0, 1.0 - 1e-12), !0, 0, half, half], 0);
        assert!((ziggurat_f64(&mut rng) - expected).abs() < 1e-12);
        assert_eq!(rng.1, 5);

        // Mid-wedge of layer 100: a uniform near 1 puts y just above f[100]
        // (under the density there), so the point is accepted...
        let u = 0.5 * (t.x[100] + t.x[101]) / t.x[100];
        let x = u * t.x[100];
        let mut rng = Script(vec![draw_bits(100, u), !0], 0);
        assert!((ziggurat_f64(&mut rng) - x).abs() < 1e-12);
        // ...and a uniform of 0 puts y at f[101] (above it): rejected, and
        // the next draw returns from layer 5's rectangle.
        let mut rng = Script(vec![draw_bits(100, u), 0, draw_bits(5, -0.5)], 0);
        assert!((ziggurat_f64(&mut rng) + 0.5 * t.x[5]).abs() < 1e-12);
        assert_eq!(rng.1, 3);
    }

    #[test]
    fn ktc_magnitude() {
        // 135 fF at 300 K → ~175 µV.
        let sigma = ktc_noise_v(135.0);
        assert!((sigma - 1.75e-4).abs() < 2e-5, "sigma {sigma}");
        // Bigger caps are quieter.
        assert!(ktc_noise_v(270.0) < sigma);
    }
}
