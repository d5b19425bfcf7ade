//! Registry-driven backend conformance suite.
//!
//! Where `simd_parity.rs` pins the *dispatched* path against the scalar
//! bodies under `LECA_BACKEND=avx2`, this suite closes the remaining gap:
//! it walks [`backend::registered`] and exercises **every dispatchable
//! backend's trait surface directly** (no env pinning needed — trait
//! method calls bypass the process-wide selection). Backends that promise
//! `bit_exact()` are held to bitwise equality against the [`scalar`]
//! reference definitions on NaN-poisoned inputs whose lengths straddle
//! the vector width; relaxed-precision tiers (fastmath) run the same
//! kernel surface under relative-error bounds plus NaN-position
//! agreement. A backend added to the registry tomorrow is
//! conformance-checked here with zero new test code.
//!
//! The suite also locks down the registry-adjacent contract that `_into`
//! twins produce bit-identical results to their allocating counterparts
//! under every selectable backend (env-pinned, serialized).

use leca_tensor::backend::{self, scalar, KernelBackend, MR, NR};
use leca_tensor::ops::{
    avg_pool2d, avg_pool2d_into, matmul, matmul_into, max_pool2d, max_pool2d_into, softmax_rows,
    softmax_rows_into,
};
use leca_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Serializes tests that mutate process-global state (`LECA_BACKEND`).
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Every registered backend that can serve the full CPU kernel surface on
/// this host. Always contains at least scalar; contains avx2 (and
/// fastmath) exactly when the host supports them.
fn dispatchable_backends() -> Vec<&'static dyn KernelBackend> {
    backend::registered()
        .iter()
        .copied()
        .filter(|be| backend::dispatchable(*be))
        .collect()
}

/// The dispatchable backends bound by the **bit-exact** contract — the
/// population for the bitwise batteries below. Non-bit-exact tiers
/// (fastmath) are excluded here and covered by the tolerance section.
fn bit_exact_backends() -> Vec<&'static dyn KernelBackend> {
    dispatchable_backends()
        .into_iter()
        .filter(|be| be.bit_exact())
        .collect()
}

/// The dispatchable relaxed-precision backends (fastmath when the host
/// has AVX2+FMA), held to relative-error bounds instead of bitwise
/// equality.
fn tolerance_backends() -> Vec<&'static dyn KernelBackend> {
    dispatchable_backends()
        .into_iter()
        .filter(|be| !be.bit_exact())
        .collect()
}

/// Lengths below, at and straddling the 8-lane AVX2 width, plus empty and
/// ragged multi-vector tails.
const EDGE_LENS: &[usize] = &[0, 1, 7, 8, 9, 15, 16, 17, 31, 33, 64, 65];

/// Deterministic pseudo-random data with roughly a quarter of the
/// elements NaN-poisoned: vector lanes must propagate (or deliberately
/// drop) NaN exactly as the scalar bodies do.
fn gen_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v: Vec<f32> = Tensor::rand_uniform(&[len.max(1)], -4.0, 4.0, &mut rng)
        .as_slice()
        .to_vec();
    v.truncate(len);
    for (i, x) in v.iter_mut().enumerate() {
        if (seed.rotate_left(i as u32 % 64)) & 3 == 3 {
            *x = f32::NAN;
        }
    }
    v
}

fn assert_bits(ctx: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{ctx}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{ctx}: lane {i} diverged from scalar ({g} vs {w})"
        );
    }
}

#[test]
fn registry_always_offers_scalar_and_auto_choice_is_dispatchable() {
    let backends = dispatchable_backends();
    assert!(
        backends.iter().any(|be| be.name() == "scalar"),
        "scalar must always be dispatchable"
    );
    // The active selection (whatever the ambient env says) must be one of
    // the dispatchable entries — auto-selection may never pick a stub.
    let active = backend::active().name();
    assert!(
        backends.iter().any(|be| be.name() == active),
        "active backend {active} is not dispatchable"
    );
}

/// Every elementwise kernel on every bit-exact backend, bit-for-bit
/// against the scalar definition, across the edge-length set.
#[test]
fn elementwise_kernels_conform_on_every_backend() {
    for be in bit_exact_backends() {
        let name = be.name();
        for (sel, &len) in EDGE_LENS.iter().enumerate() {
            let seed = 0x5eed_0000 + sel as u64;
            let a = gen_vec(len, seed);
            let b = gen_vec(len, seed ^ 0xffff);
            let mut got = vec![0.0f32; len];
            let mut want = vec![0.0f32; len];

            let ctx = |k: &str| format!("{name}/{k}/len={len}");

            be.add(&a, &b, &mut got).unwrap();
            scalar::add(&a, &b, &mut want);
            assert_bits(&ctx("add"), &got, &want);

            be.sub(&a, &b, &mut got).unwrap();
            scalar::sub(&a, &b, &mut want);
            assert_bits(&ctx("sub"), &got, &want);

            be.mul(&a, &b, &mut got).unwrap();
            scalar::mul(&a, &b, &mut want);
            assert_bits(&ctx("mul"), &got, &want);

            got.copy_from_slice(&b);
            want.copy_from_slice(&b);
            be.add_assign(&mut got, &a).unwrap();
            scalar::add_assign(&mut want, &a);
            assert_bits(&ctx("add_assign"), &got, &want);

            got.copy_from_slice(&b);
            want.copy_from_slice(&b);
            be.axpy(&mut got, &a, 0.37).unwrap();
            scalar::axpy(&mut want, &a, 0.37);
            assert_bits(&ctx("axpy"), &got, &want);

            be.scale(&a, -1.25, &mut got).unwrap();
            scalar::scale(&a, -1.25, &mut want);
            assert_bits(&ctx("scale"), &got, &want);

            got.copy_from_slice(&a);
            want.copy_from_slice(&a);
            be.scale_inplace(&mut got, 0.93).unwrap();
            scalar::scale_inplace(&mut want, 0.93);
            assert_bits(&ctx("scale_inplace"), &got, &want);

            be.add_scalar(&a, -2.5, &mut got).unwrap();
            scalar::add_scalar(&a, -2.5, &mut want);
            assert_bits(&ctx("add_scalar"), &got, &want);

            got.copy_from_slice(&a);
            want.copy_from_slice(&a);
            be.add_scalar_inplace(&mut got, 1.75).unwrap();
            scalar::add_scalar_inplace(&mut want, 1.75);
            assert_bits(&ctx("add_scalar_inplace"), &got, &want);

            be.clamp(&a, -1.0, 2.0, &mut got).unwrap();
            scalar::clamp(&a, -1.0, 2.0, &mut want);
            assert_bits(&ctx("clamp"), &got, &want);

            be.relu(&a, &mut got).unwrap();
            scalar::relu(&a, &mut want);
            assert_bits(&ctx("relu"), &got, &want);

            got.copy_from_slice(&a);
            want.copy_from_slice(&a);
            be.relu_inplace(&mut got).unwrap();
            scalar::relu_inplace(&mut want);
            assert_bits(&ctx("relu_inplace"), &got, &want);

            be.leaky_relu(&a, 0.01, &mut got).unwrap();
            scalar::leaky_relu(&a, 0.01, &mut want);
            assert_bits(&ctx("leaky_relu"), &got, &want);

            got.copy_from_slice(&a);
            want.copy_from_slice(&a);
            be.leaky_relu_inplace(&mut got, 0.2).unwrap();
            scalar::leaky_relu_inplace(&mut want, 0.2);
            assert_bits(&ctx("leaky_relu_inplace"), &got, &want);

            be.relu_mask(&a, &mut got).unwrap();
            scalar::relu_mask(&a, &mut want);
            assert_bits(&ctx("relu_mask"), &got, &want);

            // Backward passes: `a` doubles as mask (NaN mask entries are
            // "on": NaN != 0.0), `b` as the (NaN-poisoned) gradient.
            be.relu_backward(&a, &b, &mut got).unwrap();
            scalar::relu_backward(&a, &b, &mut want);
            assert_bits(&ctx("relu_backward"), &got, &want);

            be.leaky_relu_backward(&a, &b, 0.1, &mut got).unwrap();
            scalar::leaky_relu_backward(&a, &b, 0.1, &mut want);
            assert_bits(&ctx("leaky_relu_backward"), &got, &want);

            be.bn_affine(&a, &mut got, 0.4, 1.9, 1.1, -0.3).unwrap();
            scalar::bn_affine(&a, &mut want, 0.4, 1.9, 1.1, -0.3);
            assert_bits(&ctx("bn_affine"), &got, &want);

            be.exp(&a, &mut got).unwrap();
            scalar::exp(&a, &mut want);
            assert_bits(&ctx("exp"), &got, &want);

            got.copy_from_slice(&a);
            want.copy_from_slice(&a);
            let gz = be.exp_sum(&mut got).unwrap();
            let wz = scalar::exp_sum(&mut want);
            assert_bits(&ctx("exp_sum"), &got, &want);
            assert!(
                gz.to_bits() == wz.to_bits(),
                "{name}/exp_sum-sum/len={len}: {gz} vs {wz}"
            );

            let gm = be.row_max(&a).unwrap();
            let wm = scalar::row_max(&a);
            assert!(
                gm.to_bits() == wm.to_bits(),
                "{name}/row_max/len={len}: {gm} vs {wm}"
            );
        }
    }
}

/// The fused 2x2 pooling row kernels (their row length is `2 * out`, so
/// they get their own length set).
#[test]
fn pool_row_kernels_conform_on_every_backend() {
    for be in bit_exact_backends() {
        let name = be.name();
        for out_len in [0usize, 1, 3, 4, 5, 8, 9, 16, 33] {
            let r0 = gen_vec(out_len * 2, 0xabc0 + out_len as u64);
            let r1 = gen_vec(out_len * 2, 0xdef0 + out_len as u64);
            let mut got = vec![0.0f32; out_len];
            let mut want = vec![0.0f32; out_len];

            be.avg_pool_k2(&r0, &r1, &mut got, 0.25).unwrap();
            scalar::avg_pool_k2(&r0, &r1, &mut want, 0.25);
            assert_bits(&format!("{name}/avg_pool_k2/out={out_len}"), &got, &want);

            be.max_pool_k2(&r0, &r1, &mut got).unwrap();
            scalar::max_pool_k2(&r0, &r1, &mut want);
            assert_bits(&format!("{name}/max_pool_k2/out={out_len}"), &got, &want);
        }
    }
}

/// f32 microkernel on every bit-exact backend: fresh accumulation and
/// chunked continuation (load-accumulate-store across split reductions)
/// must both match the scalar chain bit for bit.
#[test]
fn microkernel_conforms_including_chunked_continuation() {
    for be in bit_exact_backends() {
        let name = be.name();
        for k in [0usize, 1, 2, 3, 7, 8, 17, 64] {
            let ap = gen_vec(k * MR, 0x11 + k as u64);
            let bp = gen_vec(k * NR, 0x22 + k as u64);

            let mut got = [[0.1f32; NR]; MR];
            let mut want = [[0.1f32; NR]; MR];
            be.microkernel(k, &ap, &bp, &mut got).unwrap();
            scalar::microkernel(k, &ap, &bp, &mut want);
            for i in 0..MR {
                assert_bits(
                    &format!("{name}/microkernel/k={k}/row={i}"),
                    &got[i],
                    &want[i],
                );
            }

            // Split the reduction at every interior point: the two-chunk
            // result must equal the one-shot result on the SAME backend
            // (this is the exact property the kc-blocked GEMM driver
            // relies on).
            for split in 0..=k {
                let mut acc = [[0.1f32; NR]; MR];
                be.microkernel(split, &ap[..split * MR], &bp[..split * NR], &mut acc)
                    .unwrap();
                be.microkernel(k - split, &ap[split * MR..], &bp[split * NR..], &mut acc)
                    .unwrap();
                for i in 0..MR {
                    assert_bits(
                        &format!("{name}/microkernel-chunked/k={k}/split={split}/row={i}"),
                        &acc[i],
                        &want[i],
                    );
                }
            }
        }
    }
}

/// Int8 tier: qmicrokernel plus the quantize / requantize / dequantize
/// passes, exact against the scalar bodies on every bit-exact backend.
#[test]
fn quant_kernels_conform_on_every_backend() {
    for be in bit_exact_backends() {
        let name = be.name();
        for kp2 in [0usize, 1, 2, 5, 16] {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(kp2 as u64 + 7);
            let ap: Vec<i16> = (0..kp2 * MR * 2)
                .map(|_| rng.gen_range(-127i16..128))
                .collect();
            let bp: Vec<i16> = (0..kp2 * NR * 2)
                .map(|_| rng.gen_range(-127i16..128))
                .collect();
            let mut got = [[3i32; NR]; MR];
            let mut want = [[3i32; NR]; MR];
            be.qmicrokernel(kp2, &ap, &bp, &mut got).unwrap();
            scalar::qmicrokernel(kp2, &ap, &bp, &mut want);
            assert_eq!(got, want, "{name}/qmicrokernel/kp2={kp2}");
        }

        for &len in EDGE_LENS {
            let mut rng = StdRng::seed_from_u64(len as u64 + 99);
            let src: Vec<f32> = Tensor::rand_uniform(&[len.max(1)], -30.0, 30.0, &mut rng)
                .as_slice()[..len]
                .to_vec();
            let mut got8 = vec![0i8; len];
            let mut want8 = vec![0i8; len];
            be.quantize_q8(&src, 4.2, 3, &mut got8).unwrap();
            scalar::quantize_q8(&src, 4.2, 3, &mut want8);
            assert_eq!(got8, want8, "{name}/quantize_q8/len={len}");

            let acc: Vec<i32> = (0..len as i32).map(|i| i * 1717 - 20_000).collect();
            for relu in [false, true] {
                be.requant_i32(&acc, 0.004, 1.5, -2, relu, &mut got8)
                    .unwrap();
                scalar::requant_i32(&acc, 0.004, 1.5, -2, relu, &mut want8);
                assert_eq!(got8, want8, "{name}/requant_i32/len={len}/relu={relu}");
            }

            let mut gotf = vec![0.0f32; len];
            let mut wantf = vec![0.0f32; len];
            be.dequant_i32(&acc, 0.031, -0.7, &mut gotf).unwrap();
            scalar::dequant_i32(&acc, 0.031, -0.7, &mut wantf);
            assert_bits(&format!("{name}/dequant_i32/len={len}"), &gotf, &wantf);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized cross-backend agreement on a representative kernel mix:
    /// any bit-exact backend, any length, half-NaN inputs.
    #[test]
    fn prop_backends_agree_with_scalar(
        len in 0usize..200,
        seed in 0u64..u64::MAX,
        s in -4.0f32..4.0,
    ) {
        let a = gen_vec(len, seed);
        let b = gen_vec(len, seed ^ 0x9e37_79b9);
        for be in bit_exact_backends() {
            let mut got = vec![0.0f32; len];
            let mut want = vec![0.0f32; len];

            be.axpy(&mut got, &a, s).unwrap();
            scalar::axpy(&mut want, &a, s);
            prop_assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{}/axpy", be.name()
            );

            be.leaky_relu(&a, s, &mut got).unwrap();
            scalar::leaky_relu(&a, s, &mut want);
            prop_assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{}/leaky_relu", be.name()
            );

            be.relu_backward(&a, &b, &mut got).unwrap();
            scalar::relu_backward(&a, &b, &mut want);
            prop_assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{}/relu_backward", be.name()
            );

            let gm = be.row_max(&a).unwrap();
            prop_assert_eq!(gm.to_bits(), scalar::row_max(&a).to_bits(), "{}/row_max", be.name());
        }
    }
}

// ---------------------------------------------------------------------
// Tolerance parity for relaxed-precision (fastmath) backends
// ---------------------------------------------------------------------

/// Tolerance analogue of [`assert_bits`] for the fast-math tier: lanes
/// must be NaN exactly where the scalar oracle is NaN (poison may neither
/// be dropped nor invented), infinities must match exactly, and finite
/// lanes must satisfy `|got - want| <= atol + rtol * |want|`.
fn assert_close(ctx: &str, got: &[f32], want: &[f32], rtol: f32, atol: f32) {
    assert_eq!(got.len(), want.len(), "{ctx}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if w.is_nan() {
            assert!(g.is_nan(), "{ctx}: lane {i} dropped NaN (got {g})");
            continue;
        }
        assert!(!g.is_nan(), "{ctx}: lane {i} invented NaN (want {w})");
        if w.is_infinite() {
            assert!(
                g.to_bits() == w.to_bits(),
                "{ctx}: lane {i} infinity mismatch ({g} vs {w})"
            );
            continue;
        }
        let err = (g - w).abs();
        let bound = atol + rtol * w.abs();
        assert!(
            err <= bound,
            "{ctx}: lane {i} off by {err:e} (> {bound:e}): {g} vs {w}"
        );
    }
}

/// Every f32 kernel on every relaxed-precision backend, within tight
/// relative error of the scalar oracle with NaN positions preserved —
/// the FMA-contracted epilogues (`axpy`, `bn_affine`, `dequant_i32`),
/// the vectorized exponential, and the exact-forwarded remainder.
///
/// On hosts without AVX2+FMA the backend list is empty and the test
/// passes vacuously (the fastmath tier is simply not dispatchable).
#[test]
fn fastmath_kernels_within_tolerance_of_scalar() {
    const RTOL: f32 = 1e-5;
    const ATOL: f32 = 1e-6;
    for be in tolerance_backends() {
        let name = be.name();
        for (sel, &len) in EDGE_LENS.iter().enumerate() {
            let seed = 0xfa51_0000 + sel as u64;
            let a = gen_vec(len, seed);
            let b = gen_vec(len, seed ^ 0xffff);
            let mut got = vec![0.0f32; len];
            let mut want = vec![0.0f32; len];

            let ctx = |k: &str| format!("{name}/{k}/len={len}");

            // FMA-contracted elementwise epilogues.
            got.copy_from_slice(&b);
            want.copy_from_slice(&b);
            be.axpy(&mut got, &a, 0.37).unwrap();
            scalar::axpy(&mut want, &a, 0.37);
            assert_close(&ctx("axpy"), &got, &want, RTOL, ATOL);

            be.bn_affine(&a, &mut got, 0.4, 1.9, 1.1, -0.3).unwrap();
            scalar::bn_affine(&a, &mut want, 0.4, 1.9, 1.1, -0.3);
            assert_close(&ctx("bn_affine"), &got, &want, RTOL, ATOL);

            let acc: Vec<i32> = (0..len as i32).map(|i| i * 1717 - 20_000).collect();
            be.dequant_i32(&acc, 0.031, -0.7, &mut got).unwrap();
            scalar::dequant_i32(&acc, 0.031, -0.7, &mut want);
            assert_close(&ctx("dequant_i32"), &got, &want, RTOL, ATOL);

            // The vectorized exponential and the fused softmax core.
            be.exp(&a, &mut got).unwrap();
            scalar::exp(&a, &mut want);
            assert_close(&ctx("exp"), &got, &want, RTOL, ATOL);

            if !a.iter().any(|v| v.is_nan()) {
                got.copy_from_slice(&a);
                want.copy_from_slice(&a);
                let gz = be.exp_sum(&mut got).unwrap();
                let wz = scalar::exp_sum(&mut want);
                assert_close(&ctx("exp_sum"), &got, &want, RTOL, ATOL);
                let zbound = ATOL + 1e-4 * wz.abs();
                assert!(
                    (gz - wz).abs() <= zbound,
                    "{name}/exp_sum-sum/len={len}: {gz} vs {wz}"
                );
            }

            // Exact-forwarded kernels still satisfy the (weaker)
            // tolerance contract this tier advertises.
            be.add(&a, &b, &mut got).unwrap();
            scalar::add(&a, &b, &mut want);
            assert_close(&ctx("add"), &got, &want, RTOL, ATOL);

            be.relu(&a, &mut got).unwrap();
            scalar::relu(&a, &mut want);
            assert_close(&ctx("relu"), &got, &want, RTOL, ATOL);

            be.leaky_relu(&a, 0.01, &mut got).unwrap();
            scalar::leaky_relu(&a, 0.01, &mut want);
            assert_close(&ctx("leaky_relu"), &got, &want, RTOL, ATOL);
        }
    }
}

/// The fast-math f32 microkernel: within accumulation-scaled tolerance of
/// the scalar chain on fresh accumulation, and — critically — chunked
/// continuation must be bit-identical to one-shot *on the same backend*
/// (the kc-blocked GEMM driver depends on this even on the relaxed tier;
/// it is what keeps fastmath results independent of the blocking).
#[test]
fn fastmath_microkernel_tolerance_and_exact_chunking() {
    for be in tolerance_backends() {
        let name = be.name();
        for k in [0usize, 1, 2, 3, 7, 8, 17, 64] {
            let ap = gen_vec(k * MR, 0x31 + k as u64);
            let bp = gen_vec(k * NR, 0x42 + k as u64);

            let mut got = [[0.1f32; NR]; MR];
            let mut want = [[0.1f32; NR]; MR];
            be.microkernel(k, &ap, &bp, &mut got).unwrap();
            scalar::microkernel(k, &ap, &bp, &mut want);
            // FMA contraction shifts rounding per term; scale the absolute
            // slack with the reduction depth (|terms| <= 16 each).
            let atol = 1e-6 + k as f32 * 16.0 * 1e-6;
            for i in 0..MR {
                assert_close(
                    &format!("{name}/microkernel/k={k}/row={i}"),
                    &got[i],
                    &want[i],
                    1e-4,
                    atol,
                );
            }

            for split in 0..=k {
                let mut acc = [[0.1f32; NR]; MR];
                be.microkernel(split, &ap[..split * MR], &bp[..split * NR], &mut acc)
                    .unwrap();
                be.microkernel(k - split, &ap[split * MR..], &bp[split * NR..], &mut acc)
                    .unwrap();
                for i in 0..MR {
                    assert_bits(
                        &format!("{name}/microkernel-chunked/k={k}/split={split}/row={i}"),
                        &acc[i],
                        &got[i],
                    );
                }
            }
        }
    }
}

/// Fast-math relaxes only f32 arithmetic: the integer (int8) kernels are
/// exact forwarders and must stay bit-identical to scalar — the quantized
/// inference tier keeps its determinism guarantees on every backend.
#[test]
fn fastmath_integer_kernels_stay_exact() {
    for be in tolerance_backends() {
        let name = be.name();
        for kp2 in [0usize, 1, 2, 5, 16] {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(kp2 as u64 + 7);
            let ap: Vec<i16> = (0..kp2 * MR * 2)
                .map(|_| rng.gen_range(-127i16..128))
                .collect();
            let bp: Vec<i16> = (0..kp2 * NR * 2)
                .map(|_| rng.gen_range(-127i16..128))
                .collect();
            let mut got = [[3i32; NR]; MR];
            let mut want = [[3i32; NR]; MR];
            be.qmicrokernel(kp2, &ap, &bp, &mut got).unwrap();
            scalar::qmicrokernel(kp2, &ap, &bp, &mut want);
            assert_eq!(got, want, "{name}/qmicrokernel/kp2={kp2}");
        }
        for &len in EDGE_LENS {
            let mut rng = StdRng::seed_from_u64(len as u64 + 99);
            let src: Vec<f32> = Tensor::rand_uniform(&[len.max(1)], -30.0, 30.0, &mut rng)
                .as_slice()[..len]
                .to_vec();
            let mut got8 = vec![0i8; len];
            let mut want8 = vec![0i8; len];
            be.quantize_q8(&src, 4.2, 3, &mut got8).unwrap();
            scalar::quantize_q8(&src, 4.2, 3, &mut want8);
            assert_eq!(got8, want8, "{name}/quantize_q8/len={len}");

            let acc: Vec<i32> = (0..len as i32).map(|i| i * 1717 - 20_000).collect();
            for relu in [false, true] {
                be.requant_i32(&acc, 0.004, 1.5, -2, relu, &mut got8)
                    .unwrap();
                scalar::requant_i32(&acc, 0.004, 1.5, -2, relu, &mut want8);
                assert_eq!(got8, want8, "{name}/requant_i32/len={len}/relu={relu}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized NaN-poisoned tolerance parity for the fast-math tier:
    /// any length, any seed, any scale — FMA-contracted kernels and the
    /// vectorized exponential stay within bounds and never lose poison.
    #[test]
    fn prop_fastmath_within_tolerance(
        len in 0usize..200,
        seed in 0u64..u64::MAX,
        s in -4.0f32..4.0,
    ) {
        let a = gen_vec(len, seed);
        let b = gen_vec(len, seed ^ 0x9e37_79b9);
        for be in tolerance_backends() {
            let name = be.name();
            let mut got = vec![0.0f32; len];
            let mut want = vec![0.0f32; len];

            got.copy_from_slice(&b);
            want.copy_from_slice(&b);
            be.axpy(&mut got, &a, s).unwrap();
            scalar::axpy(&mut want, &a, s);
            assert_close(&format!("{name}/axpy"), &got, &want, 1e-5, 1e-6);

            be.bn_affine(&a, &mut got, s, 1.9, 1.1, -0.3).unwrap();
            scalar::bn_affine(&a, &mut want, s, 1.9, 1.1, -0.3);
            assert_close(&format!("{name}/bn_affine"), &got, &want, 1e-5, 1e-6);

            be.exp(&a, &mut got).unwrap();
            scalar::exp(&a, &mut want);
            assert_close(&format!("{name}/exp"), &got, &want, 1e-5, 1e-6);
        }
    }
}

// ---------------------------------------------------------------------
// `_into` twin equivalence under every selectable backend
// ---------------------------------------------------------------------

/// Runs `body` with `LECA_BACKEND` pinned to `name`, restoring the
/// previous selection afterwards. Callers hold `ENV_LOCK`.
fn pin_backend<T>(name: &str, body: impl FnOnce() -> T) -> T {
    let old = std::env::var("LECA_BACKEND").ok();
    std::env::set_var("LECA_BACKEND", name);
    backend::refresh_backend();
    let out = body();
    match old {
        Some(v) => std::env::set_var("LECA_BACKEND", v),
        None => std::env::remove_var("LECA_BACKEND"),
    }
    backend::refresh_backend();
    out
}

/// The workspace `_into` twins must be bit-identical to their allocating
/// counterparts under every dispatchable backend — reusing a caller buffer
/// may never change numerics, whichever backend serves the kernels.
#[test]
fn into_twins_match_allocating_ops_on_every_backend() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let names: Vec<&'static str> = dispatchable_backends().iter().map(|be| be.name()).collect();
    for name in names {
        pin_backend(name, || {
            let mut rng = StdRng::seed_from_u64(2024);
            let a = Tensor::rand_uniform(&[13, 37], -2.0, 2.0, &mut rng);
            let b = Tensor::rand_uniform(&[37, 21], -2.0, 2.0, &mut rng);
            let want = matmul(&a, &b).unwrap();
            let mut got = Tensor::zeros(&[13, 21]);
            matmul_into(&a, &b, &mut got).unwrap();
            assert_bits(
                &format!("{name}/matmul_into"),
                got.as_slice(),
                want.as_slice(),
            );

            let x = Tensor::rand_uniform(&[2, 3, 8, 8], -3.0, 3.0, &mut rng);
            let want = avg_pool2d(&x, 2).unwrap();
            let mut got = Tensor::zeros(want.shape());
            avg_pool2d_into(&x, 2, &mut got).unwrap();
            assert_bits(
                &format!("{name}/avg_pool2d_into"),
                got.as_slice(),
                want.as_slice(),
            );

            let want = max_pool2d(&x, 2).unwrap();
            let mut got = Tensor::zeros(want.shape());
            max_pool2d_into(&x, 2, &mut got).unwrap();
            assert_bits(
                &format!("{name}/max_pool2d_into"),
                got.as_slice(),
                want.as_slice(),
            );

            let logits = Tensor::rand_uniform(&[9, 33], -6.0, 6.0, &mut rng);
            let want = softmax_rows(&logits).unwrap();
            let mut got = Tensor::zeros(logits.shape());
            softmax_rows_into(&logits, &mut got).unwrap();
            assert_bits(
                &format!("{name}/softmax_rows_into"),
                got.as_slice(),
                want.as_slice(),
            );
        });
    }
}
