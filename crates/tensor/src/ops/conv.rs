//! im2col-based 2-D convolution kernels (forward + both gradients) and the
//! matching transposed convolution.
//!
//! Layouts follow the PyTorch convention:
//!
//! * activations: `(N, C, H, W)`
//! * `conv2d` weights: `(O, C, kh, kw)`
//! * `conv_transpose2d` weights: `(C_in, O, kh, kw)`
//!
//! The im2col matrix has shape `(C*kh*kw, N*oh*ow)` with column index
//! `n*oh*ow + oy*ow + ox`.
//!
//! The hot kernels (forward conv, both weight gradients, and the
//! transposed-conv input gradient) never materialize that matrix: they
//! hand the blocked GEMM in [`super::gemm`] a *virtual* im2col view and
//! the lowering happens inside B-panel packing, one cache-sized panel at a
//! time. The standalone [`im2col`]/[`col2im`] entry points remain for the
//! scatter-based paths and for tests.
//!
//! The two forward kernels ([`conv2d_into`], [`conv_transpose2d_into`])
//! run one image at a time. The weights are packed into GEMM tiles once
//! per call. Each image is copied once into a zero-bordered scratch when
//! the conv pads, so the GEMM sees an unpadded view. Its GEMM then writes
//! `out[img]`, which already is the row-major `(O, oh*ow)` result, so no
//! staging matrix and no transpose pass are needed. Images are the
//! parallel unit: one pool region per call, and each image's GEMM runs
//! whole on the worker that took it. The gradient kernels still multiply
//! the whole batch at once through channel-major staging.

use super::gemm::{
    gemm, gemm_packed, scratch_prefix, valid_run, with_packed_a, Im2colView, Operand,
    MIN_CHUNK_MACS,
};
use crate::parallel::{num_threads, par_rows_mut};
use crate::{Result, Tensor, TensorError};
use std::cell::RefCell;

thread_local! {
    /// Scratch for the `(O, N*oh*ow)` channel-major gradient matrix the
    /// gradient kernels stage their GEMM through, reused across calls so
    /// the steady state allocates nothing.
    static MAT_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Scratch for the column matrices of [`conv_transpose2d_into`] (one
    /// image's `(O*kh*kw, H*W)`) and [`conv2d_grad_input`] (`(C*kh*kw,
    /// N*oh*ow)`); distinct from [`MAT_SCRATCH`] because both are live at
    /// once.
    static COLS_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// One image, zero-padded, for [`conv2d_into`]: `(C, H+2p, W+2p)`.
    /// Every element (border included) is rewritten for every image, so
    /// nothing depends on what a previous layer left here.
    static PAD_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Spatial geometry shared by the convolution kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same for both axes).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl Conv2dGeometry {
    /// Output height/width of a forward convolution with this geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] when the kernel exceeds the
    /// padded input or the stride is zero.
    pub fn out_dims(&self) -> Result<(usize, usize)> {
        if self.stride == 0 {
            return Err(TensorError::InvalidGeometry(
                "stride must be non-zero".into(),
            ));
        }
        let ph = self.in_h + 2 * self.pad;
        let pw = self.in_w + 2 * self.pad;
        if self.kh == 0 || self.kw == 0 || self.kh > ph || self.kw > pw {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {}x{} larger than padded input {}x{}",
                self.kh, self.kw, ph, pw
            )));
        }
        Ok((
            (ph - self.kh) / self.stride + 1,
            (pw - self.kw) / self.stride + 1,
        ))
    }
}

/// Target size, in floats, of the column-matrix chunk
/// [`conv2d_grad_input`] folds at a time (512 KB: a decoder layer's single
/// image, several of the backbone's smaller ones).
const COL2IM_CHUNK_FLOATS: usize = 1 << 17;

fn expect_rank4(op: &'static str, t: &Tensor) -> Result<[usize; 4]> {
    if t.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 4,
            actual: t.rank(),
        });
    }
    let d = t.shape();
    Ok([d[0], d[1], d[2], d[3]])
}

/// Runs `f(img, out_img)` for every image of the `(N, ...)` output `out`,
/// where `out_img` is image `img`'s `img_len` elements and costs about
/// `macs` multiply-adds. Images are spread over the pool in one region,
/// at least [`MIN_CHUNK_MACS`] of work per chunk; inside it each image's
/// GEMM runs whole on its worker (nested regions run inline). With fewer
/// images than threads the images run one after another instead, so that
/// each image's GEMM keeps its own split — the serve path's single-image
/// batches among them.
fn for_each_image(
    out: &mut [f32],
    n: usize,
    img_len: usize,
    macs: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    if n < num_threads() {
        for (img, y) in out.chunks_exact_mut(img_len.max(1)).enumerate() {
            f(img, y);
        }
        return;
    }
    let min_imgs = MIN_CHUNK_MACS.div_ceil(macs.max(1));
    par_rows_mut(out, n, img_len, min_imgs, |imgs, chunk| {
        for (img, y) in imgs.zip(chunk.chunks_exact_mut(img_len.max(1))) {
            f(img, y);
        }
    });
}

/// Runs `f` on the `(C, H, W)` image `src` zero-padded by `pad` on every
/// side, i.e. as a `(C, H+2*pad, W+2*pad)` image; with `pad == 0`, on
/// `src` itself. The padded copy lives in [`PAD_SCRATCH`] and is written
/// in full, border included, on every call.
fn with_padded<R>(
    src: &[f32],
    (c, h, w): (usize, usize, usize),
    pad: usize,
    f: impl FnOnce(&[f32]) -> R,
) -> R {
    if pad == 0 {
        return f(src);
    }
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    PAD_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let dst = scratch_prefix(&mut scratch, c * hp * wp);
        for ci in 0..c {
            let plane = &mut dst[ci * hp * wp..(ci + 1) * hp * wp];
            let (top, rest) = plane.split_at_mut(pad * wp);
            let (body, bottom) = rest.split_at_mut(h * wp);
            top.fill(0.0);
            bottom.fill(0.0);
            for (y, row) in body.chunks_exact_mut(wp).enumerate() {
                let s = &src[(ci * h + y) * w..][..w];
                row[..pad].fill(0.0);
                row[pad..pad + w].copy_from_slice(s);
                row[pad + w..].fill(0.0);
            }
        }
        f(dst)
    })
}

/// Adds `bias[o]` to row `o` of the row-major `(O, hw)` image `y`.
fn add_bias(y: &mut [f32], bias: Option<&Tensor>, hw: usize) {
    if let Some(b) = bias {
        for (row, &bv) in y.chunks_exact_mut(hw.max(1)).zip(b.as_slice()) {
            crate::backend::add_scalar_inplace(row, bv);
        }
    }
}

/// Copies NCHW data into a `(C, N*H*W)` channel-major matrix slice.
fn nchw_to_c_nm_slice(src: &[f32], n: usize, c: usize, hw: usize, dst: &mut [f32]) {
    for ci in 0..c {
        for ni in 0..n {
            let s = &src[(ni * c + ci) * hw..(ni * c + ci + 1) * hw];
            dst[ci * n * hw + ni * hw..ci * n * hw + (ni + 1) * hw].copy_from_slice(s);
        }
    }
}

/// Permutes `(N, C, H, W)` into a `(C, N*H*W)` matrix (channel-major).
fn nchw_to_c_nm(x: &Tensor) -> Result<Tensor> {
    let [n, c, h, w] = expect_rank4("nchw_to_c_nm", x)?;
    let mut out = Tensor::zeros(&[c, n * h * w]);
    nchw_to_c_nm_slice(x.as_slice(), n, c, h * w, out.as_mut_slice());
    Ok(out)
}

/// Builds the virtual im2col view of `x` for fused GEMM packing,
/// validating the geometry. Returns the view and the output grid.
fn im2col_view(
    x: &Tensor,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Result<(Im2colView<'_>, usize, usize)> {
    let [_, c, h, w] = expect_rank4("im2col", x)?;
    let geom = Conv2dGeometry {
        in_h: h,
        in_w: w,
        kh,
        kw,
        stride,
        pad,
    };
    let (oh, ow) = geom.out_dims()?;
    Ok((
        Im2colView {
            data: x.as_slice(),
            c,
            h,
            w,
            kh,
            kw,
            stride,
            pad,
            oh,
            ow,
        },
        oh,
        ow,
    ))
}

/// Unfolds `x: (N, C, H, W)` into the im2col matrix `(C*kh*kw, N*oh*ow)`.
///
/// Out-of-bounds (padding) positions contribute zeros.
///
/// # Errors
///
/// Returns an error for non-rank-4 input or invalid geometry.
pub fn im2col(x: &Tensor, kh: usize, kw: usize, stride: usize, pad: usize) -> Result<Tensor> {
    let [n, c, h, w] = expect_rank4("im2col", x)?;
    let geom = Conv2dGeometry {
        in_h: h,
        in_w: w,
        kh,
        kw,
        stride,
        pad,
    };
    let (oh, ow) = geom.out_dims()?;
    let rows = c * kh * kw;
    let cols_per_sample = oh * ow;
    let row_len = n * cols_per_sample;
    let mut cols = Tensor::zeros(&[rows, row_len]);
    let src = x.as_slice();
    par_rows_mut(cols.as_mut_slice(), rows, row_len, 4, |range, chunk| {
        for (local, r) in range.enumerate() {
            let ci = r / (kh * kw);
            let ky = (r / kw) % kh;
            let kx = r % kw;
            let dst = &mut chunk[local * row_len..(local + 1) * row_len];
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                for oy in 0..oh {
                    let iy = oy * stride + ky;
                    let iy = match iy.checked_sub(pad) {
                        Some(v) if v < h => v,
                        _ => continue,
                    };
                    for ox in 0..ow {
                        let ix = ox * stride + kx;
                        let ix = match ix.checked_sub(pad) {
                            Some(v) if v < w => v,
                            _ => continue,
                        };
                        dst[ni * cols_per_sample + oy * ow + ox] = src[base + iy * w + ix];
                    }
                }
            }
        }
    });
    Ok(cols)
}

/// Folds an im2col matrix back into an `(N, C, H, W)` tensor by scatter-add.
///
/// `grid_h`/`grid_w` are the im2col output-grid dimensions the matrix was
/// produced with (i.e. `oh`/`ow` of the matching forward convolution).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the matrix dimensions do not
/// match the requested geometry.
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    cols: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    grid_h: usize,
    grid_w: usize,
) -> Result<Tensor> {
    let rows = c * kh * kw;
    let row_len = n * grid_h * grid_w;
    if cols.shape() != [rows, row_len] {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: cols.shape().to_vec(),
            rhs: vec![rows, row_len],
        });
    }
    let mut out = Tensor::zeros(&[n, c, h, w]);
    col2im_scatter(
        cols.as_slice(),
        out.as_mut_slice(),
        n,
        c,
        h,
        w,
        kh,
        kw,
        stride,
        pad,
        grid_h,
        grid_w,
    );
    Ok(out)
}

/// Scatter-add core of [`col2im`]; `dst` must be pre-zeroed NCHW storage.
///
/// Every destination element receives its adds in increasing `r` order,
/// whichever path runs. At stride 1 a grid row maps onto one input-row
/// segment, so each valid `ox` range (resolved by [`valid_run`]) lands as
/// one slice add; other strides scatter element by element.
#[allow(clippy::too_many_arguments)]
fn col2im_scatter(
    src: &[f32],
    dst: &mut [f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    grid_h: usize,
    grid_w: usize,
) {
    let rows = c * kh * kw;
    let row_len = n * grid_h * grid_w;
    let chw = c * h * w;
    // Parallel over samples: each worker owns a disjoint set of images.
    par_rows_mut(dst, n, chw, 1, |range, chunk| {
        for (local, ni) in range.enumerate() {
            let img = &mut chunk[local * chw..(local + 1) * chw];
            for r in 0..rows {
                let ci = r / (kh * kw);
                let ky = (r / kw) % kh;
                let kx = r % kw;
                let srow = &src[r * row_len + ni * grid_h * grid_w..];
                // Valid grid columns for this tap: the same for every row.
                let sx = kx as isize - pad as isize;
                let (lo, hi) = valid_run(sx, stride, w, grid_w);
                for oy in 0..grid_h {
                    let iy = oy * stride + ky;
                    let iy = match iy.checked_sub(pad) {
                        Some(v) if v < h => v,
                        _ => continue,
                    };
                    let s = &srow[oy * grid_w + lo..oy * grid_w + hi];
                    let d0 = (ci * h + iy) * w;
                    if stride == 1 {
                        let x0 = (sx + lo as isize) as usize;
                        for (d, &v) in img[d0 + x0..d0 + x0 + s.len()].iter_mut().zip(s) {
                            *d += v;
                        }
                    } else {
                        for (ox, &v) in (lo..hi).zip(s) {
                            img[d0 + (sx + (ox * stride) as isize) as usize] += v;
                        }
                    }
                }
            }
        }
    });
}

/// Forward 2-D convolution: `x (N,C,H,W) * w (O,C,kh,kw) [+ bias (O)]`.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry.
pub fn conv2d(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    let mut out = Tensor::zeros(&conv2d_out_shape(x, weight, stride, pad)?);
    conv2d_into(x, weight, bias, stride, pad, &mut out)?;
    Ok(out)
}

/// The `(N, O, oh, ow)` output shape of [`conv2d`], the shape
/// [`conv2d_into`] expects of its `out`.
///
/// # Errors
///
/// Returns an error for non-rank-4 operands or invalid geometry.
pub fn conv2d_out_shape(
    x: &Tensor,
    weight: &Tensor,
    stride: usize,
    pad: usize,
) -> Result<[usize; 4]> {
    let [n, _, _, _] = expect_rank4("conv2d", x)?;
    let [o, _, kh, kw] = expect_rank4("conv2d", weight)?;
    let (_, oh, ow) = im2col_view(x, kh, kw, stride, pad)?;
    Ok([n, o, oh, ow])
}

/// [`conv2d`] writing into the caller-provided `(N, O, oh, ow)` tensor
/// `out`, bit-identical to the allocating variant. The packed weights and
/// the padded image live in grow-only thread-local scratch, so a warm call
/// allocates nothing.
///
/// # Errors
///
/// As [`conv2d`], plus [`TensorError::ShapeMismatch`] when `out` has the
/// wrong shape.
pub fn conv2d_into(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
    out: &mut Tensor,
) -> Result<()> {
    let [n, c, h, w] = expect_rank4("conv2d", x)?;
    let [o, wc, kh, kw] = expect_rank4("conv2d", weight)?;
    if wc != c {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: x.shape().to_vec(),
            rhs: weight.shape().to_vec(),
        });
    }
    let (_, oh, ow) = im2col_view(x, kh, kw, stride, pad)?;
    if out.shape() != [n, o, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_into",
            lhs: out.shape().to_vec(),
            rhs: vec![n, o, oh, ow],
        });
    }
    if let Some(b) = bias {
        if b.shape() != [o] {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d bias",
                lhs: b.shape().to_vec(),
                rhs: vec![o],
            });
        }
    }
    // Per image: the weight matrix (O, C*kh*kw), packed once, multiplies
    // the virtual im2col matrix of the padded image; lowering happens
    // inside B-panel packing and the product lands in `out[img]`.
    let (ckk, opix, chw) = (c * kh * kw, oh * ow, c * h * w);
    let xs = x.as_slice();
    with_packed_a(o, ckk, weight.as_slice(), ckk, 1, |ap| {
        for_each_image(out.as_mut_slice(), n, o * opix, o * opix * ckk, |img, y| {
            with_padded(&xs[img * chw..][..chw], (c, h, w), pad, |data| {
                let view = Im2colView {
                    data,
                    c,
                    h: h + 2 * pad,
                    w: w + 2 * pad,
                    kh,
                    kw,
                    stride,
                    pad: 0,
                    oh,
                    ow,
                };
                gemm_packed(o, opix, ckk, ap, &Operand::Im2col(view), y);
            });
            add_bias(y, bias, opix);
        });
    });
    Ok(())
}

/// Gradient of [`conv2d`] with respect to its input.
///
/// `x_shape` is the `(N, C, H, W)` shape of the original input.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry.
pub fn conv2d_grad_input(
    grad_out: &Tensor,
    weight: &Tensor,
    x_shape: &[usize],
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    let mut grad_x = Tensor::zeros(x_shape);
    conv2d_grad_input_into(grad_out, weight, stride, pad, &mut grad_x)?;
    Ok(grad_x)
}

/// [`conv2d_grad_input`] writing into the caller-provided `grad_x`, whose
/// shape is the `(N, C, H, W)` shape of the original input; bit-identical
/// to the allocating variant. Every element of `grad_x` is overwritten.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry.
pub fn conv2d_grad_input_into(
    grad_out: &Tensor,
    weight: &Tensor,
    stride: usize,
    pad: usize,
    grad_x: &mut Tensor,
) -> Result<()> {
    let [n, o, oh, ow] = expect_rank4("conv2d_grad_input", grad_out)?;
    let [wo, c, kh, kw] = expect_rank4("conv2d_grad_input", weight)?;
    let [xn, xc, h, w] = expect_rank4("conv2d_grad_input", grad_x)?;
    let geom = Conv2dGeometry {
        in_h: h,
        in_w: w,
        kh,
        kw,
        stride,
        pad,
    };
    if wo != o || (xn, xc) != (n, c) || geom.out_dims()? != (oh, ow) {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_grad_input",
            lhs: grad_out.shape().to_vec(),
            rhs: grad_x.shape().to_vec(),
        });
    }
    let (ckk, opix, chw) = (c * kh * kw, oh * ow, c * h * w);
    // grad_cols = Wᵀ · gmat with W the (O, C*kh*kw) weight matrix as a
    // strided view (exactly `matmul_at`), then folded back by col2im. The
    // batch is walked a few images at a time, so the column matrix stays
    // cache-sized instead of spanning the whole batch; each column's chain
    // (over `o`) and each pixel's adds (over `r`) are the same either way.
    // Both matrices live in grow-only thread-local scratch.
    let imgs = (COL2IM_CHUNK_FLOATS / (ckk * opix).max(1)).clamp(1, n.max(1));
    MAT_SCRATCH.with(|gc| {
        COLS_SCRATCH.with(|cc| {
            let (mut gscratch, mut cscratch) = (gc.borrow_mut(), cc.borrow_mut());
            let mut i0 = 0;
            while i0 < n {
                let nb = imgs.min(n - i0);
                let row_len = nb * opix;
                let gmat = scratch_prefix(&mut gscratch, o * row_len);
                let cols = scratch_prefix(&mut cscratch, ckk * row_len);
                let gy = &grad_out.as_slice()[i0 * o * opix..(i0 + nb) * o * opix];
                nchw_to_c_nm_slice(gy, nb, o, opix, gmat);
                gemm(
                    ckk,
                    row_len,
                    o,
                    weight.as_slice(),
                    1,
                    ckk,
                    &Operand::Strided {
                        data: gmat,
                        rs: row_len,
                        cs: 1,
                    },
                    cols,
                );
                // col2im accumulates: start this chunk of images from zero.
                let gx = &mut grad_x.as_mut_slice()[i0 * chw..(i0 + nb) * chw];
                gx.fill(0.0);
                col2im_scatter(cols, gx, nb, c, h, w, kh, kw, stride, pad, oh, ow);
                i0 += nb;
            }
        });
    });
    Ok(())
}

/// Gradient of [`conv2d`] with respect to its weight.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry.
pub fn conv2d_grad_weight(
    x: &Tensor,
    grad_out: &Tensor,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    let [n, c, _, _] = expect_rank4("conv2d_grad_weight", x)?;
    let [gn, o, goh, gow] = expect_rank4("conv2d_grad_weight", grad_out)?;
    let (view, oh, ow) = im2col_view(x, kh, kw, stride, pad)?;
    if gn != n || (goh, gow) != (oh, ow) {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_grad_weight",
            lhs: grad_out.shape().to_vec(),
            rhs: vec![n, o, oh, ow],
        });
    }
    // dW = dY · im2col(x)ᵀ, with the transposed im2col consumed virtually
    // by panel packing and dY staged channel-major in grow-only scratch.
    let ckk = c * kh * kw;
    let row_len = n * oh * ow;
    let mut grad_w = Tensor::zeros(&[o, c, kh, kw]);
    MAT_SCRATCH.with(|gc| {
        let mut gscratch = gc.borrow_mut();
        let gmat = scratch_prefix(&mut gscratch, o * row_len);
        nchw_to_c_nm_slice(grad_out.as_slice(), n, o, oh * ow, gmat);
        gemm(
            o,
            ckk,
            row_len,
            gmat,
            row_len,
            1,
            &Operand::Im2colT(view),
            grad_w.as_mut_slice(),
        );
    });
    Ok(grad_w)
}

/// Forward transposed convolution: `x (N,Ci,H,W) * w (Ci,O,kh,kw)`.
///
/// Output spatial size is `(H-1)*stride + k - 2*pad`; with `stride == k` and
/// `pad == 0` this is the exact K× upsampling used by the LeCA decoder.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry.
pub fn conv_transpose2d(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    let mut out = Tensor::zeros(&conv_transpose2d_out_shape(x, weight, stride, pad)?);
    conv_transpose2d_into(x, weight, bias, stride, pad, &mut out)?;
    Ok(out)
}

/// The `(N, O, oh, ow)` output shape of [`conv_transpose2d`], the shape
/// [`conv_transpose2d_into`] expects of its `out`.
///
/// # Errors
///
/// Returns an error for non-rank-4 operands or invalid geometry.
pub fn conv_transpose2d_out_shape(
    x: &Tensor,
    weight: &Tensor,
    stride: usize,
    pad: usize,
) -> Result<[usize; 4]> {
    let [n, _, h, w] = expect_rank4("conv_transpose2d", x)?;
    let [_, o, kh, kw] = expect_rank4("conv_transpose2d", weight)?;
    let (oh, ow) = conv_transpose_out_dims(h, w, kh, kw, stride, pad)?;
    Ok([n, o, oh, ow])
}

/// Output spatial dims of a transposed convolution: `(H-1)*s + k - 2*pad`.
fn conv_transpose_out_dims(
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Result<(usize, usize)> {
    if stride == 0 {
        return Err(TensorError::InvalidGeometry(
            "stride must be non-zero".into(),
        ));
    }
    let oh = (h - 1) * stride + kh;
    let ow = (w - 1) * stride + kw;
    Ok((
        oh.checked_sub(2 * pad)
            .ok_or_else(|| TensorError::InvalidGeometry("padding too large".into()))?,
        ow.checked_sub(2 * pad)
            .ok_or_else(|| TensorError::InvalidGeometry("padding too large".into()))?,
    ))
}

/// [`conv_transpose2d`] writing into the caller-provided `(N, O, oh, ow)`
/// tensor `out`, bit-identical to the allocating variant. The packed
/// weights and one image's scatter columns live in grow-only thread-local
/// scratch, so a warm call allocates nothing.
///
/// # Errors
///
/// As [`conv_transpose2d`], plus [`TensorError::ShapeMismatch`] when `out`
/// has the wrong shape.
pub fn conv_transpose2d_into(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
    out: &mut Tensor,
) -> Result<()> {
    let [n, ci, h, w] = expect_rank4("conv_transpose2d", x)?;
    let [wci, o, kh, kw] = expect_rank4("conv_transpose2d", weight)?;
    if wci != ci {
        return Err(TensorError::ShapeMismatch {
            op: "conv_transpose2d",
            lhs: x.shape().to_vec(),
            rhs: weight.shape().to_vec(),
        });
    }
    let (oh, ow) = conv_transpose_out_dims(h, w, kh, kw, stride, pad)?;
    if out.shape() != [n, o, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "conv_transpose2d_into",
            lhs: out.shape().to_vec(),
            rhs: vec![n, o, oh, ow],
        });
    }
    if let Some(b) = bias {
        if b.shape() != [o] {
            return Err(TensorError::ShapeMismatch {
                op: "conv_transpose2d bias",
                lhs: b.shape().to_vec(),
                rhs: vec![o],
            });
        }
    }
    // Per image: cols = Wᵀ · x[img], with W the (Ci, O*kh*kw) weight
    // matrix packed once as a strided transpose (exactly `matmul_at`) and
    // x[img] already the (Ci, H*W) matrix; then scatter into out[img].
    let (hw, okk, ohw) = (h * w, o * kh * kw, oh * ow);
    let xs = x.as_slice();
    with_packed_a(okk, ci, weight.as_slice(), 1, okk, |ap| {
        for_each_image(out.as_mut_slice(), n, o * ohw, okk * hw * ci, |img, y| {
            COLS_SCRATCH.with(|cc| {
                let mut scratch = cc.borrow_mut();
                let cols = scratch_prefix(&mut scratch, okk * hw);
                let xmat = Operand::Strided {
                    data: &xs[img * ci * hw..][..ci * hw],
                    rs: hw,
                    cs: 1,
                };
                gemm_packed(okk, hw, ci, ap, &xmat, cols);
                y.fill(0.0);
                col2im_scatter(cols, y, 1, o, oh, ow, kh, kw, stride, pad, h, w);
            });
            add_bias(y, bias, ohw);
        });
    });
    Ok(())
}

/// Gradient of [`conv_transpose2d`] with respect to its input.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry.
pub fn conv_transpose2d_grad_input(
    grad_out: &Tensor,
    weight: &Tensor,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    let mut grad_x = Tensor::zeros(&conv2d_out_shape(grad_out, weight, stride, pad)?);
    conv_transpose2d_grad_input_into(grad_out, weight, stride, pad, &mut grad_x)?;
    Ok(grad_x)
}

/// [`conv_transpose2d_grad_input`] writing into the caller-provided
/// `grad_x` (the `(N, Ci, H, W)` shape of the original input),
/// bit-identical to the allocating variant.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry.
pub fn conv_transpose2d_grad_input_into(
    grad_out: &Tensor,
    weight: &Tensor,
    stride: usize,
    pad: usize,
    grad_x: &mut Tensor,
) -> Result<()> {
    let [_, o, _, _] = expect_rank4("conv_transpose2d_grad_input", grad_out)?;
    let [_, wo, _, _] = expect_rank4("conv_transpose2d_grad_input", weight)?;
    if wo != o {
        return Err(TensorError::ShapeMismatch {
            op: "conv_transpose2d_grad_input",
            lhs: grad_out.shape().to_vec(),
            rhs: weight.shape().to_vec(),
        });
    }
    // Differentiating the scatter: grad wrt x is an ordinary convolution of
    // grad_out with the same kernel, read as a (Ci, O, kh, kw) conv weight.
    // The forward-input grid (H, W) is exactly that convolution's output
    // grid.
    conv2d_into(grad_out, weight, None, stride, pad, grad_x)
}

/// Gradient of [`conv_transpose2d`] with respect to its weight.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry.
pub fn conv_transpose2d_grad_weight(
    x: &Tensor,
    grad_out: &Tensor,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    let [n, ci, h, w] = expect_rank4("conv_transpose2d_grad_weight", x)?;
    let [gn, o, _, _] = expect_rank4("conv_transpose2d_grad_weight", grad_out)?;
    // dW = x_mat · im2col(grad_out)ᵀ; the im2col output grid must be the
    // forward-input grid of x.
    let (view, vh, vw) = im2col_view(grad_out, kh, kw, stride, pad)?;
    if gn != n || (vh, vw) != (h, w) {
        return Err(TensorError::ShapeMismatch {
            op: "conv_transpose2d_grad_weight",
            lhs: grad_out.shape().to_vec(),
            rhs: x.shape().to_vec(),
        });
    }
    let xmat = nchw_to_c_nm(x)?;
    let okk = o * kh * kw;
    let mut grad_wmat = Tensor::zeros(&[ci, okk]);
    gemm(
        ci,
        okk,
        n * h * w,
        xmat.as_slice(),
        n * h * w,
        1,
        &Operand::Im2colT(view),
        grad_wmat.as_mut_slice(),
    );
    grad_wmat.reshape(&[ci, o, kh, kw])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn naive_conv2d(x: &Tensor, w: &Tensor, stride: usize, pad: usize) -> Tensor {
        let (n, c, h, iw) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (o, kh, kw) = (w.shape()[0], w.shape()[2], w.shape()[3]);
        let oh = (h + 2 * pad - kh) / stride + 1;
        let ow = (iw + 2 * pad - kw) / stride + 1;
        let mut out = Tensor::zeros(&[n, o, oh, ow]);
        for ni in 0..n {
            for oi in 0..o {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ci in 0..c {
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let iy = oy * stride + ky;
                                    let ix = ox * stride + kx;
                                    if iy < pad || ix < pad {
                                        continue;
                                    }
                                    let (iy, ix) = (iy - pad, ix - pad);
                                    if iy >= h || ix >= iw {
                                        continue;
                                    }
                                    acc += x.at4(ni, ci, iy, ix) * w.at4(oi, ci, ky, kx);
                                }
                            }
                        }
                        out.set4(ni, oi, oy, ox, acc);
                    }
                }
            }
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn geometry_out_dims() {
        let g = Conv2dGeometry {
            in_h: 8,
            in_w: 8,
            kh: 2,
            kw: 2,
            stride: 2,
            pad: 0,
        };
        assert_eq!(g.out_dims().unwrap(), (4, 4));
        let g = Conv2dGeometry {
            in_h: 5,
            in_w: 7,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        assert_eq!(g.out_dims().unwrap(), (5, 7));
        let bad = Conv2dGeometry {
            in_h: 2,
            in_w: 2,
            kh: 5,
            kw: 5,
            stride: 1,
            pad: 0,
        };
        assert!(bad.out_dims().is_err());
        let bad = Conv2dGeometry {
            in_h: 2,
            in_w: 2,
            kh: 1,
            kw: 1,
            stride: 0,
            pad: 0,
        };
        assert!(bad.out_dims().is_err());
    }

    #[test]
    fn conv2d_matches_naive_stride1_pad1() {
        let mut rng = StdRng::seed_from_u64(10);
        let x = Tensor::rand_uniform(&[2, 3, 6, 5], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[4, 3, 3, 3], -1.0, 1.0, &mut rng);
        let got = conv2d(&x, &w, None, 1, 1).unwrap();
        assert_close(&got, &naive_conv2d(&x, &w, 1, 1), 1e-4);
    }

    #[test]
    fn conv2d_matches_naive_stride2_nonoverlapping() {
        // The LeCA encoder geometry: K x K kernel with stride K, no padding.
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::rand_uniform(&[1, 3, 8, 8], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[8, 3, 2, 2], -1.0, 1.0, &mut rng);
        let got = conv2d(&x, &w, None, 2, 0).unwrap();
        assert_eq!(got.shape(), &[1, 8, 4, 4]);
        assert_close(&got, &naive_conv2d(&x, &w, 2, 0), 1e-4);
    }

    #[test]
    fn conv2d_bias_adds_per_channel() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let w = Tensor::zeros(&[2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![1.5, -2.0], &[2]).unwrap();
        let out = conv2d(&x, &w, Some(&b), 1, 0).unwrap();
        assert_eq!(out.at4(0, 0, 1, 1), 1.5);
        assert_eq!(out.at4(0, 1, 0, 0), -2.0);
    }

    #[test]
    fn conv2d_channel_mismatch_errors() {
        let x = Tensor::zeros(&[1, 3, 4, 4]);
        let w = Tensor::zeros(&[2, 4, 2, 2]);
        assert!(conv2d(&x, &w, None, 1, 0).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel stride 1 makes im2col a pure permutation.
        let mut rng = StdRng::seed_from_u64(12);
        let x = Tensor::rand_uniform(&[2, 3, 2, 2], -1.0, 1.0, &mut rng);
        let cols = im2col(&x, 1, 1, 1, 0).unwrap();
        assert_eq!(cols.shape(), &[3, 8]);
        assert_eq!(cols.at(&[1, 0]), x.at4(0, 1, 0, 0));
        assert_eq!(cols.at(&[2, 7]), x.at4(1, 2, 1, 1));
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property.
        let mut rng = StdRng::seed_from_u64(13);
        let x = Tensor::rand_uniform(&[1, 2, 5, 5], -1.0, 1.0, &mut rng);
        let cols = im2col(&x, 3, 3, 2, 1).unwrap();
        let y = Tensor::rand_uniform(cols.shape(), -1.0, 1.0, &mut rng);
        let back = col2im(&y, 1, 2, 5, 5, 3, 3, 2, 1, 3, 3).unwrap();
        let lhs: f32 = cols.mul(&y).unwrap().sum();
        let rhs: f32 = x.mul(&back).unwrap().sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn grad_input_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(14);
        let x = Tensor::rand_uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[3, 2, 2, 2], -1.0, 1.0, &mut rng);
        // Loss = sum(conv(x, w)); dL/dx via kernel vs finite differences.
        let gout = Tensor::ones(&[1, 3, 2, 2]);
        let gx = conv2d_grad_input(&gout, &w, x.shape(), 2, 0).unwrap();
        let eps = 1e-3;
        for idx in [0usize, 5, 17, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fp = conv2d(&xp, &w, None, 2, 0).unwrap().sum();
            let fm = conv2d(&xm, &w, None, 2, 0).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - gx.as_slice()[idx]).abs() < 1e-2, "idx {idx}");
        }
    }

    #[test]
    fn grad_weight_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(15);
        let x = Tensor::rand_uniform(&[2, 2, 4, 4], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[3, 2, 3, 3], -1.0, 1.0, &mut rng);
        let gout = Tensor::ones(&[2, 3, 4, 4]);
        let gw = conv2d_grad_weight(&x, &gout, 3, 3, 1, 1).unwrap();
        assert_eq!(gw.shape(), w.shape());
        let eps = 1e-3;
        for idx in [0usize, 10, 25, 53] {
            let mut wp = w.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[idx] -= eps;
            let fp = conv2d(&x, &wp, None, 1, 1).unwrap().sum();
            let fm = conv2d(&x, &wm, None, 1, 1).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - gw.as_slice()[idx]).abs() < 2e-2, "idx {idx}");
        }
    }

    #[test]
    fn conv_transpose_upsamples_by_stride() {
        // Single input pixel with value v produces a kxk block of v * kernel.
        let mut x = Tensor::zeros(&[1, 1, 2, 2]);
        x.set4(0, 0, 1, 0, 2.0);
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let out = conv_transpose2d(&x, &w, None, 2, 0).unwrap();
        assert_eq!(out.shape(), &[1, 1, 4, 4]);
        assert_eq!(out.at4(0, 0, 2, 0), 2.0);
        assert_eq!(out.at4(0, 0, 2, 1), 4.0);
        assert_eq!(out.at4(0, 0, 3, 0), 6.0);
        assert_eq!(out.at4(0, 0, 3, 1), 8.0);
        assert_eq!(out.at4(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn conv_transpose_is_adjoint_of_conv() {
        // <conv(x, w), y> == <x, convT(y, w')> with w' the (O,C)->(C,O) swap.
        let mut rng = StdRng::seed_from_u64(16);
        let x = Tensor::rand_uniform(&[1, 2, 6, 6], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[3, 2, 2, 2], -1.0, 1.0, &mut rng);
        let y = Tensor::rand_uniform(&[1, 3, 3, 3], -1.0, 1.0, &mut rng);
        let lhs = conv2d(&x, &w, None, 2, 0).unwrap().mul(&y).unwrap().sum();
        // A conv weight (O,C,kh,kw) is a convT weight with Ci=O, O=C, so the
        // same tensor implements the adjoint operator directly.
        let rhs = conv_transpose2d(&y, &w, None, 2, 0)
            .unwrap()
            .mul(&x)
            .unwrap()
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn conv_transpose_grad_input_finite_difference() {
        let mut rng = StdRng::seed_from_u64(17);
        let x = Tensor::rand_uniform(&[1, 2, 3, 3], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[2, 3, 2, 2], -1.0, 1.0, &mut rng);
        let gout = Tensor::ones(&[1, 3, 6, 6]);
        let gx = conv_transpose2d_grad_input(&gout, &w, 2, 0).unwrap();
        assert_eq!(gx.shape(), x.shape());
        let eps = 1e-3;
        for idx in [0usize, 7, 12] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fp = conv_transpose2d(&xp, &w, None, 2, 0).unwrap().sum();
            let fm = conv_transpose2d(&xm, &w, None, 2, 0).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - gx.as_slice()[idx]).abs() < 1e-2, "idx {idx}");
        }
    }

    #[test]
    fn conv_transpose_grad_weight_finite_difference() {
        let mut rng = StdRng::seed_from_u64(18);
        let x = Tensor::rand_uniform(&[1, 2, 3, 3], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[2, 3, 2, 2], -1.0, 1.0, &mut rng);
        let gout = Tensor::ones(&[1, 3, 6, 6]);
        let gw = conv_transpose2d_grad_weight(&x, &gout, 2, 2, 2, 0).unwrap();
        assert_eq!(gw.shape(), w.shape());
        let eps = 1e-3;
        for idx in [0usize, 5, 11, 23] {
            let mut wp = w.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[idx] -= eps;
            let fp = conv_transpose2d(&x, &wp, None, 2, 0).unwrap().sum();
            let fm = conv_transpose2d(&x, &wm, None, 2, 0).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - gw.as_slice()[idx]).abs() < 1e-2, "idx {idx}");
        }
    }

    #[test]
    fn conv_transpose_bias() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::zeros(&[1, 2, 2, 2]);
        let b = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let out = conv_transpose2d(&x, &w, Some(&b), 2, 0).unwrap();
        assert_eq!(out.at4(0, 0, 3, 3), 0.5);
        assert_eq!(out.at4(0, 1, 0, 0), -0.5);
    }
}
