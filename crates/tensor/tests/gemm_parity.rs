//! Parity suite: blocked GEMM vs the retained naive reference.
//!
//! The blocked kernels in `ops::matmul*` go through packed panels, an 8x8
//! microkernel, and zero-padded edge tiles; this suite hammers exactly the
//! shapes where that machinery can go wrong — dimensions of 1, tile-size
//! +/-1 stragglers, odd primes — and random rectangles, asserting
//! elementwise agreement with `ops::reference::matmul_naive` to within
//! 1e-4 relative error. The fused convolution kernels are held to the
//! materialized-im2col matmuls bit for bit.

use leca_tensor::ops::reference::matmul_naive;
use leca_tensor::ops::{matmul, matmul_at, matmul_bt};
use leca_tensor::Tensor;
use proptest::prelude::*;

/// Microkernel tile edge (MR == NR == 8 in ops::gemm).
const TILE: usize = 8;

/// Dimensions that historically break blocked kernels: degenerate 1,
/// the tile size and its neighbours, odd primes, and a multi-tile prime.
const EDGE_DIMS: &[usize] = &[1, TILE - 1, TILE, TILE + 1, 3, 5, 7, 13, 17, 29];

/// Maps a raw sampled selector onto a dimension: the first slots pick the
/// edge cases above, the rest fall through to a 1..=48 range, so every
/// generated shape mixes adversarial and ordinary sizes.
fn pick_dim(sel: usize) -> usize {
    if sel < EDGE_DIMS.len() {
        EDGE_DIMS[sel]
    } else {
        sel - EDGE_DIMS.len() + 1
    }
}

/// Selector range for [`pick_dim`]: edge cases plus dims 1..=48.
const DIM_SEL: std::ops::Range<usize> = 0..(10 + 48);

fn assert_rel_close(got: &Tensor, want: &Tensor) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.shape(), want.shape());
    for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
        let tol = 1e-4f32.max(w.abs() * 1e-4);
        prop_assert!(
            (g - w).abs() <= tol,
            "blocked {} vs naive {} (tol {})",
            g,
            w,
            tol
        );
    }
    Ok(())
}

fn fill(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f32..2.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn matmul_matches_naive(
        msel in DIM_SEL,
        nsel in DIM_SEL,
        ksel in DIM_SEL,
        seed in 0u64..u64::MAX,
    ) {
        let (m, n, k) = (pick_dim(msel), pick_dim(nsel), pick_dim(ksel));
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(seed)
        };
        let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, &mut rng);
        assert_rel_close(&matmul(&a, &b).unwrap(), &matmul_naive(&a, &b).unwrap())?;
    }

    #[test]
    fn matmul_bt_matches_naive(
        msel in DIM_SEL,
        nsel in DIM_SEL,
        ksel in DIM_SEL,
        seed in 0u64..u64::MAX,
    ) {
        let (m, n, k) = (pick_dim(msel), pick_dim(nsel), pick_dim(ksel));
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(seed)
        };
        let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[n, k], -2.0, 2.0, &mut rng);
        let want = matmul_naive(&a, &b.transpose().unwrap()).unwrap();
        assert_rel_close(&matmul_bt(&a, &b).unwrap(), &want)?;
    }

    #[test]
    fn matmul_at_matches_naive(
        msel in DIM_SEL,
        nsel in DIM_SEL,
        ksel in DIM_SEL,
        seed in 0u64..u64::MAX,
    ) {
        let (m, n, k) = (pick_dim(msel), pick_dim(nsel), pick_dim(ksel));
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(seed)
        };
        let a = Tensor::rand_uniform(&[k, m], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, &mut rng);
        let want = matmul_naive(&a.transpose().unwrap(), &b).unwrap();
        assert_rel_close(&matmul_at(&a, &b).unwrap(), &want)?;
    }

    #[test]
    fn matmul_values_from_strategy(
        av in fill(6 * 9),
        bv in fill(9 * 7),
    ) {
        // Non-uniform values (exact strategy output, including repeats and
        // zeros) through a fixed straggler-heavy shape.
        let a = Tensor::from_vec(av, &[6, 9]).unwrap();
        let b = Tensor::from_vec(bv, &[9, 7]).unwrap();
        assert_rel_close(&matmul(&a, &b).unwrap(), &matmul_naive(&a, &b).unwrap())?;
    }
}

/// Exhaustive sweep over every combination of the edge dimensions for the
/// plain variant — cheap (dims <= 29) and deterministic.
#[test]
fn edge_dim_cross_product() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    for &m in EDGE_DIMS {
        for &n in EDGE_DIMS {
            for &k in EDGE_DIMS {
                let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
                let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
                let got = matmul(&a, &b).unwrap();
                let want = matmul_naive(&a, &b).unwrap();
                for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                    assert!(
                        (g - w).abs() <= 1e-4f32.max(w.abs() * 1e-4),
                        "m={m} n={n} k={k}: {g} vs {w}"
                    );
                }
            }
        }
    }
}

/// `(N, C, H, W)` -> the channel-major `(C, N*H*W)` matrix the im2col
/// GEMMs produce and consume.
fn to_channel_major(t: &Tensor) -> Tensor {
    let [n, c, h, w] = [t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]];
    let mut out = vec![0.0f32; t.len()];
    for img in 0..n {
        for ch in 0..c {
            let src = &t.as_slice()[(img * c + ch) * h * w..][..h * w];
            out[(ch * n + img) * h * w..][..h * w].copy_from_slice(src);
        }
    }
    Tensor::from_vec(out, &[c, n * h * w]).unwrap()
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
    }
}

/// The defining col2im: every column-matrix element added into its input
/// pixel, rows in increasing order.
#[allow(clippy::too_many_arguments)]
fn naive_col2im(
    cols: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; n * c * h * w];
    let row_len = n * oh * ow;
    for r in 0..c * k * k {
        let (ch, ky, kx) = (r / (k * k), (r / k) % k, r % k);
        for col in 0..row_len {
            let (img, oy, ox) = (col / (oh * ow), (col / ow) % oh, col % ow);
            let (iy, ix) = (oy * stride + ky, ox * stride + kx);
            if iy < pad || ix < pad || iy - pad >= h || ix - pad >= w {
                continue;
            }
            out[((img * c + ch) * h + iy - pad) * w + ix - pad] +=
                cols.as_slice()[r * row_len + col];
        }
    }
    out
}

/// Checks one geometry of [`fused_conv_kernels_match_materialized_im2col_bitwise`].
#[allow(clippy::too_many_arguments)]
fn check_fused_conv_case(
    rng: &mut rand::rngs::StdRng,
    (n, c, h, w): (usize, usize, usize, usize),
    m: usize,
    k: usize,
    stride: usize,
    pad: usize,
    tag: &str,
) {
    use leca_tensor::ops::{
        col2im, conv2d, conv2d_grad_input, conv2d_grad_weight, conv2d_into, im2col,
    };
    let x = Tensor::rand_uniform(&[n, c, h, w], -1.0, 1.0, rng);
    let wt = Tensor::rand_uniform(&[m, c, k, k], -1.0, 1.0, rng);
    let cols = im2col(&x, k, k, stride, pad).unwrap();
    let wmat = wt.reshape(&[m, c * k * k]).unwrap();

    let y = conv2d(&x, &wt, None, stride, pad).unwrap();
    let (oh, ow) = (y.shape()[2], y.shape()[3]);
    let want = matmul(&wmat, &cols).unwrap();
    assert_bits_eq(
        to_channel_major(&y).as_slice(),
        want.as_slice(),
        &format!("conv2d {tag}"),
    );
    let mut y_into = Tensor::full(y.shape(), f32::NAN);
    conv2d_into(&x, &wt, None, stride, pad, &mut y_into).unwrap();
    assert_bits_eq(
        y_into.as_slice(),
        y.as_slice(),
        &format!("conv2d_into {tag}"),
    );

    let gy = Tensor::rand_uniform(&[n, m, oh, ow], -1.0, 1.0, rng);
    let gy_mat = to_channel_major(&gy);
    let gw = conv2d_grad_weight(&x, &gy, k, k, stride, pad).unwrap();
    assert_bits_eq(
        gw.as_slice(),
        matmul_bt(&gy_mat, &cols).unwrap().as_slice(),
        &format!("conv2d_grad_weight {tag}"),
    );

    let gcols = matmul_at(&wmat, &gy_mat).unwrap();
    let scatter = naive_col2im(&gcols, n, c, h, w, k, stride, pad, oh, ow);
    let folded = col2im(&gcols, n, c, h, w, k, k, stride, pad, oh, ow).unwrap();
    assert_bits_eq(folded.as_slice(), &scatter, &format!("col2im {tag}"));
    let gx = conv2d_grad_input(&gy, &wt, x.shape(), stride, pad).unwrap();
    assert_bits_eq(gx.as_slice(), &scatter, &format!("conv2d_grad_input {tag}"));
}

/// `a · b` as the oracle: the textbook product when the active backend is
/// bit-exact (the blocked GEMM then matches it bit for bit), otherwise the
/// blocked `matmul`, whose relaxed-precision microkernel the convolutions
/// share.
fn oracle_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    if leca_tensor::backend::active().bit_exact() {
        matmul_naive(a, b).unwrap()
    } else {
        matmul(a, b).unwrap()
    }
}

/// The textbook `(m, n*oh*ow)` product of the weight matrix and the
/// materialized im2col matrix of `x`, plus `bias[o]` on row `o`: the
/// channel-major result a forward convolution must reproduce bit for bit.
fn materialized_conv(
    x: &Tensor,
    wt: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    use leca_tensor::ops::im2col;
    let [m, c, k] = [wt.shape()[0], wt.shape()[1], wt.shape()[2]];
    let cols = im2col(x, k, k, stride, pad).unwrap();
    let wmat = wt.reshape(&[m, c * k * k]).unwrap();
    let mut want = oracle_matmul(&wmat, &cols).as_slice().to_vec();
    if let Some(bias) = bias {
        let row_len = cols.shape()[1];
        for (row, &b) in want.chunks_exact_mut(row_len).zip(bias.as_slice()) {
            row.iter_mut().for_each(|v| *v += b);
        }
    }
    want
}

/// Checks the per-image forward path of `conv2d_into` (padded-image
/// scratch, weights packed once, each image's GEMM written straight into
/// `out[img]`, bias on that slice) on one geometry.
fn check_conv_forward_case(
    rng: &mut rand::rngs::StdRng,
    (n, c, h, w): (usize, usize, usize, usize),
    m: usize,
    stride: usize,
    pad: usize,
    tag: &str,
) {
    use leca_tensor::ops::conv2d_into;
    let x = Tensor::rand_uniform(&[n, c, h, w], -1.0, 1.0, rng);
    let wt = Tensor::rand_uniform(&[m, c, 3, 3], -1.0, 1.0, rng);
    let bias = Tensor::rand_uniform(&[m], -1.0, 1.0, rng);
    let (oh, ow) = (
        (h + 2 * pad - 3) / stride + 1,
        (w + 2 * pad - 3) / stride + 1,
    );
    let mut y = Tensor::full(&[n, m, oh, ow], f32::NAN);
    conv2d_into(&x, &wt, Some(&bias), stride, pad, &mut y).unwrap();
    assert_bits_eq(
        to_channel_major(&y).as_slice(),
        &materialized_conv(&x, &wt, Some(&bias), stride, pad),
        &format!("per-image conv2d_into {tag}"),
    );
}

/// Checks the per-image `conv_transpose2d_into` on one geometry against
/// the defining scatter: the textbook `Wᵀ · X` column matrix over the
/// whole batch, folded by [`naive_col2im`], plus the bias.
fn check_conv_transpose_case(
    rng: &mut rand::rngs::StdRng,
    (n, ci, h, w): (usize, usize, usize, usize),
    o: usize,
    k: usize,
    stride: usize,
    pad: usize,
    tag: &str,
) {
    use leca_tensor::ops::{conv_transpose2d_grad_input, conv_transpose2d_into};
    let x = Tensor::rand_uniform(&[n, ci, h, w], -1.0, 1.0, rng);
    let wt = Tensor::rand_uniform(&[ci, o, k, k], -1.0, 1.0, rng);
    let bias = Tensor::rand_uniform(&[o], -1.0, 1.0, rng);
    let okk = o * k * k;
    let wt_t: Vec<f32> = (0..okk * ci)
        .map(|i| wt.as_slice()[(i % ci) * okk + i / ci])
        .collect();
    let wt_t = Tensor::from_vec(wt_t, &[okk, ci]).unwrap();
    let cols = oracle_matmul(&wt_t, &to_channel_major(&x));
    let (oh, ow) = (
        (h - 1) * stride + k - 2 * pad,
        (w - 1) * stride + k - 2 * pad,
    );
    let mut want = naive_col2im(&cols, n, o, oh, ow, k, stride, pad, h, w);
    for (plane, i) in want.chunks_exact_mut(oh * ow).zip(0..) {
        let b = bias.as_slice()[i % o];
        plane.iter_mut().for_each(|v| *v += b);
    }
    let mut y = Tensor::full(&[n, o, oh, ow], f32::NAN);
    conv_transpose2d_into(&x, &wt, Some(&bias), stride, pad, &mut y).unwrap();
    assert_bits_eq(y.as_slice(), &want, &format!("conv_transpose2d_into {tag}"));

    // Its input gradient is the convolution of the output gradient with
    // the same kernel, read as a (Ci, O, k, k) conv weight.
    let gy = Tensor::rand_uniform(&[n, o, oh, ow], -1.0, 1.0, rng);
    let gx = conv_transpose2d_grad_input(&gy, &wt, stride, pad).unwrap();
    assert_bits_eq(
        to_channel_major(&gx).as_slice(),
        &materialized_conv(&gy, &wt, None, stride, pad),
        &format!("conv_transpose2d_grad_input {tag}"),
    );
}

/// Two convolutions whose zero-padded images have the same size but a
/// different `(c, h, w, pad)`, run back to back on a fresh thread: the
/// second must not read the first one's data as its border.
fn check_padded_geometry_switch(threads: &'static str) {
    std::thread::spawn(move || {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        // Padded sizes: 2*6*8 = 2*8*6 = 3*4*8 = 96, then 1*8*8 = 64 twice.
        let geoms = [
            ((2, 4, 6), 1),
            ((2, 6, 4), 1),
            ((3, 2, 6), 1),
            ((2, 4, 6), 1),
            ((1, 4, 4), 2),
            ((1, 6, 6), 1),
        ];
        for ((c, h, w), pad) in geoms {
            let tag = format!("threads={threads} geometry switch c{c} h{h} w{w} p{pad}");
            check_conv_forward_case(&mut rng, (1, c, h, w), 4, 1, pad, &tag);
        }
    })
    .join()
    .unwrap();
}

/// Bit-exact oracle for the fused convolution kernels: the virtual-im2col
/// packers (stride-1 runs and the generic gather), the short-M and
/// row-tile GEMM schedules and the run-wise col2im must reproduce the
/// materialized-im2col matmuls and the defining scatter to the bit. The
/// widths make runs cross panel, row and image edges (including `ow <
/// NR`), and M spans both schedules. A decoder-sized layer closes the
/// first sweep: it is the one large enough for the short-M schedule to
/// split its column panels across two workers.
///
/// The per-image forward paths get their own sweep against textbook
/// products (on a bit-exact backend). Batches of 1, 2 and 5 run the
/// images one after another, on pool workers, or unevenly split. Output
/// channels span short-M (1, 3, 16) and row tiles (33 to 96); at 2
/// threads a 72-row single-image GEMM splits into chunks that a plain row
/// split would start mid-tile. The 5x5 and 6x6 output grids leave a
/// partial column panel per image; 12x12 fills its panels.
#[test]
fn fused_conv_kernels_match_materialized_im2col_bitwise() {
    use leca_tensor::parallel::refresh_num_threads;
    use rand::SeedableRng;

    let old = std::env::var("LECA_THREADS").ok();
    for threads in ["1", "2", "3"] {
        std::env::set_var("LECA_THREADS", threads);
        refresh_num_threads();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4321);
        for stride in [1usize, 2] {
            for pad in [0usize, 1, 2] {
                for k in [1usize, 3] {
                    for w in [5usize, 6, 12, 13, 24] {
                        for m in [1usize, 3, 8, 16, 17, 33] {
                            let tag = format!("threads={threads} s{stride} p{pad} k{k} w{w} m{m}");
                            check_fused_conv_case(&mut rng, (2, 3, 4, w), m, k, stride, pad, &tag);
                        }
                    }
                }
            }
        }
        let tag = format!("threads={threads} decoder layer");
        check_fused_conv_case(&mut rng, (4, 16, 24, 24), 16, 3, 1, 1, &tag);

        for n in [1usize, 2, 5] {
            for stride in [1usize, 2] {
                for pad in [0usize, 1, 2] {
                    for grid in [5usize, 6, 12] {
                        // The input side that gives a `grid x grid` output.
                        let side = (grid - 1) * stride + 3 - 2 * pad;
                        for m in [1usize, 3, 16, 33, 48, 72, 96] {
                            let tag =
                                format!("threads={threads} n{n} s{stride} p{pad} grid{grid} m{m}");
                            check_conv_forward_case(
                                &mut rng,
                                (n, 3, side, side),
                                m,
                                stride,
                                pad,
                                &tag,
                            );
                        }
                    }
                }
            }
            for (stride, k, pad) in [(2usize, 2usize, 0usize), (1, 2, 0), (1, 3, 1), (2, 3, 1)] {
                for o in [1usize, 3, 16] {
                    let tag =
                        format!("threads={threads} n{n} transposed s{stride} k{k} p{pad} o{o}");
                    check_conv_transpose_case(&mut rng, (n, 4, 5, 6), o, k, stride, pad, &tag);
                }
            }
        }
        check_padded_geometry_switch(threads);
    }
    match old {
        Some(v) => std::env::set_var("LECA_THREADS", v),
        None => std::env::remove_var("LECA_THREADS"),
    }
    refresh_num_threads();
}
