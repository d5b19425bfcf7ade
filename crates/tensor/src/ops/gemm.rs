//! Packed, register-tiled GEMM core.
//!
//! Every matmul variant ([`super::matmul`], [`super::matmul_bt`],
//! [`super::matmul_at`]) and the fused-im2col convolution kernels in
//! [`super::conv`] lower onto [`gemm`] here. The structure is the classic
//! packed-panel design:
//!
//! * B is packed into panel-major storage: panels of [`NR`] columns, each
//!   laid out `bp[p * NR + j]` so the microkernel streams it sequentially.
//!   Packing is where operand layout is absorbed — a panel source can be a
//!   strided matrix, a strided transpose, or the *virtual* im2col matrix
//!   of an NCHW image batch (never materialized). At stride 1 the im2col
//!   packers move whole input-row runs instead of gathering element by
//!   element. The im2col matrix is always of an unpadded view (the
//!   forward convolutions pad each image once), so its runs are straight
//!   copies; its transpose, read by the weight gradients, zero-fills only
//!   at padded edges (see [`valid_run`]).
//! * A is packed per [`MR`]-row tile as `ap[p * MR + i]`, also sequential
//!   in the k loop. All of A is packed once, up front, by the calling
//!   thread ([`with_packed_a`]); both schedules read that one layout
//!   through [`gemm_packed`]. [`gemm`] is exactly "pack A, then
//!   `gemm_packed`". The forward convolutions pack their weights once per
//!   call and pass the packed tiles to one `gemm_packed` per image.
//! * The microkernel keeps an `MR x NR` accumulator block in registers and
//!   performs one rank-1 update per k step.
//!
//! Two schedules drive the microkernel, chosen by the row count `m`
//! alone:
//!
//! * **Short M** (`m <= SHORT_M`): for each B panel, one small panel
//!   buffer is packed over the full `k` and every A tile runs on it while
//!   it sits in L1. The full packed B is never materialized. Threads split
//!   the *columns* into disjoint panel ranges. Conv layers and weight
//!   gradients with few output channels run here.
//! * **Row tiles** (taller `m`): all of B is packed once per call, then
//!   threads split the output rows into chunks of at least `MC` rows that
//!   start on [`MR`] boundaries and walk the full reduction per pre-packed
//!   tile.
//!
//! # Reduction order is load-bearing
//!
//! Each output element is accumulated in a **single chain over strictly
//! increasing `k`**, starting from zero — there is no split-k
//! reassociation and no `mul_add` (FMA rounds differently). Threads only
//! ever divide the output into disjoint row or column-panel ranges. Both
//! schedules feed each element the same packed values through the same
//! chain, so results are bit-exact across schedules and `LECA_THREADS`
//! settings, which is what the determinism test suite pins down.

use crate::backend::{self, KernelBackend, MR, NR};
use crate::parallel::{par_col_panels_mut, par_row_tiles_mut, par_rows_mut};
use std::cell::RefCell;

/// Largest row count the short-M schedule ([`gemm_short_m`]) takes: four
/// [`MR`] tiles, which covers the 3- and 16-channel convs of the decoder,
/// the 16- to 32-channel convs of the backbones and their weight
/// gradients. Taller GEMMs (`conv2d_grad_input`'s `m = C*kh*kw`) keep the
/// row-tile schedule: walking every panel down many rows thrashes the TLB.
const SHORT_M: usize = 4 * MR;

/// Minimum output rows per parallel worker chunk of the row-tile schedule.
const MC: usize = 32;

/// Minimum microkernel k-steps per parallel chunk of the short-M schedule.
const SHORT_M_CHUNK_STEPS: usize = 1 << 14;

/// The same floor in multiply-adds, for callers that split work coarser
/// than one GEMM (the per-image convolutions): below it a chunk costs
/// less than the pool's dispatch.
pub(crate) const MIN_CHUNK_MACS: usize = SHORT_M_CHUNK_STEPS * MR * NR;

thread_local! {
    /// Per-thread packed-B scratch, reused across [`gemm_packed`] calls so
    /// the steady state allocates nothing: the whole packed B of a
    /// row-tile call, or one worker's panel in the short-M schedule.
    static B_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread packed-A scratch: every tile of A, held by the calling
    /// thread for the whole of [`with_packed_a`]'s closure. Distinct from
    /// [`B_SCRATCH`] because, as a pool participant inside that closure,
    /// the same thread borrows the B scratch.
    static A_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The first `len` elements of a grow-only scratch vector. Every caller
/// overwrites all the elements it uses, so the warm path neither
/// reallocates nor re-zeroes, and stale contents never leak.
pub(crate) fn scratch_prefix(v: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if v.len() < len {
        v.resize(len, 0.0);
    }
    &mut v[..len]
}

/// Geometry of a virtual im2col matrix `(C*kh*kw, N*oh*ow)` over an NCHW
/// batch. Element `(r, col)` with `r = (ci*kh + ky)*kw + kx` and
/// `col = (img*oh + oy)*ow + ox` reads
/// `data[img, ci, oy*stride + ky - pad, ox*stride + kx - pad]`, or zero
/// when that lands in the padding.
#[derive(Clone, Copy)]
pub(crate) struct Im2colView<'a> {
    pub data: &'a [f32],
    pub c: usize,
    pub h: usize,
    pub w: usize,
    pub kh: usize,
    pub kw: usize,
    pub stride: usize,
    pub pad: usize,
    pub oh: usize,
    pub ow: usize,
}

impl Im2colView<'_> {
    #[inline]
    fn sample(&self, img: usize, ci: usize, iy: usize, ix: usize) -> f32 {
        // iy/ix arrive pre-offset by the kernel position but not yet by
        // padding; anything outside the image reads as zero.
        match (iy.checked_sub(self.pad), ix.checked_sub(self.pad)) {
            (Some(y), Some(x)) if y < self.h && x < self.w => {
                self.data[((img * self.c + ci) * self.h + y) * self.w + x]
            }
            _ => 0.0,
        }
    }

    /// [`Im2colView::sample`] with the padding branch hoisted out: valid
    /// only when `pad == 0`, where the output geometry proves every sample
    /// in-bounds (`(oh-1)*stride + kh - 1 <= h - 1` and likewise for
    /// width), so the bounds check per element disappears.
    #[inline]
    fn sample_unpadded(&self, img: usize, ci: usize, iy: usize, ix: usize) -> f32 {
        debug_assert_eq!(self.pad, 0);
        debug_assert!(iy < self.h && ix < self.w);
        self.data[((img * self.c + ci) * self.h + iy) * self.w + ix]
    }
}

/// A read-only `(rows, cols)` matrix operand for the B side of [`gemm`].
pub(crate) enum Operand<'a> {
    /// `get(i, j) = data[i * rs + j * cs]`.
    Strided {
        data: &'a [f32],
        rs: usize,
        cs: usize,
    },
    /// The virtual im2col matrix of `view` (shape `C*kh*kw x N*oh*ow`).
    /// The view must be unpadded (`pad == 0`): the forward convolutions
    /// pad each image once before their GEMM, so the packers never
    /// resolve padding.
    Im2col(Im2colView<'a>),
    /// The transpose of [`Operand::Im2col`] (shape `N*oh*ow x C*kh*kw`).
    Im2colT(Im2colView<'a>),
}

/// The offsets `jj` in `0..len` whose input column `sx + jj * stride`
/// falls inside `0..w`, as a half-open range (empty when none does).
///
/// This is the run resolver the padded im2col packers (the f32
/// transposed-im2col run packer below and the int8 same-output-row panels
/// in [`super::qgemm`]) and the col2im scatter share: consecutive output columns of one output row
/// read one input row at a fixed stride, so their padded edges are a
/// prefix and a suffix of the run and only the middle reads real data.
#[inline]
pub(crate) fn valid_run(sx: isize, stride: usize, w: usize, len: usize) -> (usize, usize) {
    let w = w as isize;
    if sx >= w {
        return (0, 0);
    }
    let (lo, hi) = if stride == 1 {
        (sx.min(0).unsigned_abs(), (w - sx) as usize)
    } else if sx >= 0 {
        (0, ((w - 1 - sx) as usize) / stride + 1)
    } else {
        (
            sx.unsigned_abs().div_ceil(stride),
            ((w - 1 - sx) as usize) / stride + 1,
        )
    };
    let hi = hi.min(len);
    (lo.min(hi), hi)
}

/// Packs columns `j0 .. j0+jn` and all `k` reduction rows of operand `b`
/// (logical shape `k x n`) into `dst[p * NR + jj]`, overwriting every slot
/// of `dst[..k * NR]`: columns past `jn` are written as zero, so callers
/// never pre-zero the scratch.
///
/// The stride-1 im2col operands (the 3x3 "same" convs of the decoder and
/// the backbones) take the run packers, which move whole input-row
/// segments; other strides keep the defining per-element gather. Both
/// produce identical values — packing is pure data movement.
fn pack_b_panel(b: &Operand, j0: usize, jn: usize, k: usize, dst: &mut [f32]) {
    match b {
        Operand::Strided { data, rs, cs } => {
            for (p, row) in dst[..k * NR].chunks_exact_mut(NR).enumerate() {
                let src = p * rs + j0 * cs;
                let (d, tail) = row.split_at_mut(jn);
                if *cs == 1 {
                    d.copy_from_slice(&data[src..src + jn]);
                } else {
                    for (jj, v) in d.iter_mut().enumerate() {
                        *v = data[src + jj * cs];
                    }
                }
                tail.fill(0.0);
            }
        }
        Operand::Im2col(v) if v.stride == 1 => pack_im2col_runs(v, j0, jn, k, dst),
        Operand::Im2col(v) => {
            // Rows iterate (ci, ky, kx); the panel's columns are fixed
            // output positions (img, oy, ox). The view is unpadded, so each
            // column reads a fixed base offset plus the row's tap offset
            // `(ci*h + ky)*w + kx`.
            debug_assert_eq!((v.pad, k), (0, v.c * v.kh * v.kw));
            let mut bases = [0usize; NR];
            for (jj, base) in bases.iter_mut().take(jn).enumerate() {
                let col = j0 + jj;
                let img = col / (v.oh * v.ow);
                let rem = col % (v.oh * v.ow);
                let (y, x) = ((rem / v.ow) * v.stride, (rem % v.ow) * v.stride);
                *base = (img * v.c * v.h + y) * v.w + x;
            }
            let mut rows = dst[..k * NR].chunks_exact_mut(NR);
            for ci in 0..v.c {
                for ky in 0..v.kh {
                    for (kx, row) in (0..v.kw).zip(&mut rows) {
                        let tap = (ci * v.h + ky) * v.w + kx;
                        let (d, tail) = row.split_at_mut(jn);
                        for (v2, &base) in d.iter_mut().zip(&bases) {
                            *v2 = v.data[base + tap];
                        }
                        tail.fill(0.0);
                    }
                }
            }
        }
        Operand::Im2colT(v) if v.stride == 1 => pack_im2col_t_runs(v, j0, jn, k, dst),
        Operand::Im2colT(v) => {
            // Rows iterate output positions (img, oy, ox); columns are
            // fixed kernel taps (ci, ky, kx), precomputed once.
            let mut taps = [(0usize, 0usize, 0usize); NR];
            for (jj, slot) in taps.iter_mut().take(jn).enumerate() {
                let r = j0 + jj;
                *slot = (r / (v.kh * v.kw), (r / v.kw) % v.kh, r % v.kw);
            }
            let (mut img, mut oy, mut ox) = (0usize, 0usize, 0usize);
            for row in dst[..k * NR].chunks_exact_mut(NR) {
                let (ybase, xbase) = (oy * v.stride, ox * v.stride);
                let (d, tail) = row.split_at_mut(jn);
                if v.pad == 0 {
                    for (jj, v2) in d.iter_mut().enumerate() {
                        let (ci, ky, kx) = taps[jj];
                        *v2 = v.sample_unpadded(img, ci, ybase + ky, xbase + kx);
                    }
                } else {
                    for (jj, v2) in d.iter_mut().enumerate() {
                        let (ci, ky, kx) = taps[jj];
                        *v2 = v.sample(img, ci, ybase + ky, xbase + kx);
                    }
                }
                tail.fill(0.0);
                ox += 1;
                if ox == v.ow {
                    ox = 0;
                    oy += 1;
                    if oy == v.oh {
                        oy = 0;
                        img += 1;
                    }
                }
            }
        }
    }
}

/// Stride-1 [`Operand::Im2col`] panel packer. The panel's columns split
/// into at most [`NR`] runs that share an output row `(img, oy)`. The view
/// is unpadded, so every run lies inside the image and each reduction row
/// `(ci, ky, kx)` of a run is one straight copy from a fixed offset (a
/// fixed [`NR`]-wide one for a whole-panel run).
fn pack_im2col_runs(v: &Im2colView, j0: usize, jn: usize, k: usize, dst: &mut [f32]) {
    debug_assert_eq!((v.stride, v.pad, k), (1, 0, v.c * v.kh * v.kw));
    let opix = v.oh * v.ow;
    let mut jj = 0;
    while jj < jn {
        let col = j0 + jj;
        let (img, rem) = (col / opix, col % opix);
        let (oy, ox0) = (rem / v.ow, rem % v.ow);
        let len = (v.ow - ox0).min(jn - jj);
        let base = (img * v.c * v.h + oy) * v.w + ox0;
        let mut rows = dst[..k * NR].chunks_exact_mut(NR);
        for ci in 0..v.c {
            for ky in 0..v.kh {
                let src_row = &v.data[base + (ci * v.h + ky) * v.w..];
                for (kx, row) in (0..v.kw).zip(&mut rows) {
                    let (seg, src) = (&mut row[jj..jj + len], &src_row[kx..kx + len]);
                    match (
                        <&mut [f32; NR]>::try_from(&mut *seg),
                        <&[f32; NR]>::try_from(src),
                    ) {
                        (Ok(d), Ok(s)) => *d = *s,
                        _ => seg.copy_from_slice(src),
                    }
                }
            }
        }
        jj += len;
    }
    if jn < NR {
        for row in dst[..k * NR].chunks_exact_mut(NR) {
            row[jn..].fill(0.0);
        }
    }
}

/// Stride-1 [`Operand::Im2colT`] panel packer. The reduction rows (output
/// positions) are walked one output-row segment at a time, and within a
/// segment tap-major: each of the panel's kernel taps `(ci, ky, kx)` reads
/// one contiguous input-row segment (resolved by [`valid_run`]) into its
/// packed column, with zero-fill only at padded edges.
fn pack_im2col_t_runs(v: &Im2colView, j0: usize, jn: usize, k: usize, dst: &mut [f32]) {
    debug_assert_eq!(v.stride, 1);
    let mut taps = [(0usize, 0usize, 0usize); NR];
    for (jj, slot) in taps.iter_mut().take(jn).enumerate() {
        let r = j0 + jj;
        *slot = (r / (v.kh * v.kw), (r / v.kw) % v.kh, r % v.kw);
    }
    let taps = &taps[..jn];
    let (mut img, mut oy, mut p) = (0usize, 0usize, 0usize);
    while p < k {
        // One output-row segment: reduction rows p .. p + ow.
        let len = v.ow.min(k - p);
        let rows = &mut dst[p * NR..(p + len) * NR];
        for (jj, &(ci, ky, kx)) in taps.iter().enumerate() {
            match (oy + ky).checked_sub(v.pad) {
                Some(iy) if iy < v.h => {
                    let sx = kx as isize - v.pad as isize;
                    let (lo, hi) = valid_run(sx, 1, v.w, len);
                    for d in rows[..lo * NR].chunks_exact_mut(NR) {
                        d[jj] = 0.0;
                    }
                    if lo < hi {
                        let src = ((img * v.c + ci) * v.h + iy) * v.w + (sx + lo as isize) as usize;
                        let seg = &v.data[src..src + (hi - lo)];
                        for (d, &s) in rows[lo * NR..hi * NR].chunks_exact_mut(NR).zip(seg) {
                            d[jj] = s;
                        }
                    }
                    for d in rows[hi * NR..].chunks_exact_mut(NR) {
                        d[jj] = 0.0;
                    }
                }
                _ => {
                    for d in rows.chunks_exact_mut(NR) {
                        d[jj] = 0.0;
                    }
                }
            }
        }
        if jn < NR {
            for d in rows.chunks_exact_mut(NR) {
                d[jn..].fill(0.0);
            }
        }
        p += len;
        oy += 1;
        if oy == v.oh {
            oy = 0;
            img += 1;
        }
    }
}

/// Packs rows `i0 .. i0+im` and all `k` reduction columns of the strided
/// A operand into `ap[p * MR + i]`, zero-filling the `im..MR` padding
/// rows.
///
/// The edge-tile padding branch is hoisted out of the per-element loop:
/// each column is a `0..im` copy body plus an explicit `im..MR` zero-fill
/// tail. With `rs == 1` (a transposed-A view, where rows are contiguous)
/// the body collapses to a `copy_from_slice`.
fn pack_a_tile(data: &[f32], rs: usize, cs: usize, i0: usize, im: usize, k: usize, ap: &mut [f32]) {
    if rs == 1 {
        for p in 0..k {
            let src = i0 + p * cs;
            let d = &mut ap[p * MR..(p + 1) * MR];
            let (body, tail) = d.split_at_mut(im);
            body.copy_from_slice(&data[src..src + im]);
            tail.fill(0.0);
        }
    } else {
        for p in 0..k {
            let col = p * cs;
            let d = &mut ap[p * MR..(p + 1) * MR];
            let (body, tail) = d.split_at_mut(im);
            for (i, v) in body.iter_mut().enumerate() {
                *v = data[(i0 + i) * rs + col];
            }
            tail.fill(0.0);
        }
    }
}

/// Runs `f` on the packed-A layout of the strided `(m, k)` view
/// `a_data[i * a_rs + p * a_cs]`: `m.div_ceil(MR)` tiles of `k * MR`
/// floats, tile `t` holding rows `t * MR ..` as `ap[p * MR + i]` (see
/// [`pack_a_tile`]). The layout lives in the calling thread's grow-only
/// A scratch for the duration of `f`, which hands it to [`gemm_packed`]
/// as often as it likes: a convolution packs its weights here once per
/// call and reuses them for every image.
pub(crate) fn with_packed_a<R>(
    m: usize,
    k: usize,
    a_data: &[f32],
    a_rs: usize,
    a_cs: usize,
    f: impl FnOnce(&[f32]) -> R,
) -> R {
    A_SCRATCH.with(|apc| {
        let mut scratch = apc.borrow_mut();
        let tile_len = k * MR;
        let ap = scratch_prefix(&mut scratch, m.div_ceil(MR) * tile_len);
        for (t, tile) in ap.chunks_exact_mut(tile_len.max(1)).enumerate() {
            let i0 = t * MR;
            pack_a_tile(a_data, a_rs, a_cs, i0, MR.min(m - i0), k, tile);
        }
        f(ap)
    })
}

/// `out = A · B` where `A` is the strided `(m, k)` view
/// `a_data[i * a_rs + p * a_cs]` and `B` is any [`Operand`] of shape
/// `(k, n)`. `out` must be an `m * n` row-major buffer (every element is
/// overwritten). Packs every A tile, then runs [`gemm_packed`].
#[allow(clippy::too_many_arguments)] // flat (dims, strides) signature keeps call sites allocation-free
pub(crate) fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a_data: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &Operand,
    out: &mut [f32],
) {
    with_packed_a(m, k, a_data, a_rs, a_cs, |ap| {
        gemm_packed(m, n, k, ap, b, out)
    });
}

/// `out = A · B` with A already in the [`with_packed_a`] layout `ap`.
/// `out` must be an `m * n` row-major buffer (every element is
/// overwritten).
pub(crate) fn gemm_packed(m: usize, n: usize, k: usize, ap: &[f32], b: &Operand, out: &mut [f32]) {
    assert_eq!(out.len(), m * n, "gemm output buffer mismatch");
    assert_eq!(
        ap.len(),
        m.div_ceil(MR) * k * MR,
        "packed A layout mismatch"
    );
    if m == 0 || n == 0 {
        return;
    }
    // The backend handle is hoisted here, once per gemm call, and threaded
    // into the microkernel loop (all registered backends are bit-identical
    // — see `crate::backend`).
    let be = backend::active();
    if m <= SHORT_M {
        gemm_short_m(m, n, k, ap, b, out, be);
        return;
    }

    // Row tiles: pack all of B once into the thread-local scratch; the
    // panel packer overwrites every slot of its panel, edge-panel padding
    // included.
    let npanels = n.div_ceil(NR);
    let tile_len = k * MR;
    B_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let packed_b = scratch_prefix(&mut scratch, npanels * k * NR);
        if k > 0 {
            par_rows_mut(packed_b, npanels, k * NR, 1, |range, chunk| {
                for (local, jp) in range.enumerate() {
                    let j0 = jp * NR;
                    pack_b_panel(
                        b,
                        j0,
                        NR.min(n - j0),
                        k,
                        &mut chunk[local * k * NR..(local + 1) * k * NR],
                    );
                }
            });
        }

        // Compute over disjoint output row ranges that start on tile
        // boundaries, so each chunk reads whole pre-packed A tiles. Tile
        // edges only change *which* worker computes an element, never its
        // reduction order, so any split is bit-identical.
        let packed_b = &*packed_b;
        par_row_tiles_mut(out, m, n, MR, MC / MR, |rows, chunk| {
            let r0 = rows.start;
            for i0 in rows.step_by(MR) {
                let im = MR.min(m - i0);
                let tile = &ap[i0 / MR * tile_len..][..tile_len];
                for jp in 0..npanels {
                    let j0 = jp * NR;
                    let jn = NR.min(n - j0);
                    let mut acc = [[0.0f32; NR]; MR];
                    backend::microkernel_with(
                        be,
                        k,
                        tile,
                        &packed_b[jp * k * NR..(jp + 1) * k * NR],
                        &mut acc,
                    );
                    for (i, arow) in acc.iter().enumerate().take(im) {
                        let row = (i0 - r0 + i) * n + j0;
                        chunk[row..row + jn].copy_from_slice(&arow[..jn]);
                    }
                }
            }
        });
    });
}

/// The short-M schedule (`m <= SHORT_M`): each [`NR`]-column panel of B is
/// packed over the full `k` into a small per-thread buffer and every
/// pre-packed A tile runs on it while it is still in L1. The full `k x n`
/// packed B is never materialized, so B costs one gather instead of a
/// multi-megabyte write plus one re-read per row tile.
///
/// Work is split over disjoint column-panel ranges (a row split would give
/// at most one [`MC`]-row chunk). Each output element is still one
/// microkernel chain over the whole reduction starting from zero — exactly
/// what the row-tile walk computes — so the two schedules agree bit for
/// bit.
fn gemm_short_m(
    m: usize,
    n: usize,
    k: usize,
    ap: &[f32],
    b: &Operand,
    out: &mut [f32],
    be: &dyn KernelBackend,
) {
    let tiles = m.div_ceil(MR);
    let tile_len = k * MR;
    // At least SHORT_M_CHUNK_STEPS microkernel k-steps per parallel chunk,
    // so a thin GEMM is not split finer than the pool's dispatch cost.
    let min_panels = (SHORT_M_CHUNK_STEPS / (k * tiles).max(1)).max(1);
    par_col_panels_mut(out, m, n, NR, min_panels, |panels, cols| {
        B_SCRATCH.with(|bpc| {
            let mut scratch = bpc.borrow_mut();
            let bp = scratch_prefix(&mut scratch, k * NR);
            let c0 = cols.cols().start;
            for jp in panels {
                let j0 = jp * NR;
                let jn = NR.min(n - j0);
                pack_b_panel(b, j0, jn, k, bp);
                for t in 0..tiles {
                    let mut acc = [[0.0f32; NR]; MR];
                    backend::microkernel_with(
                        be,
                        k,
                        &ap[t * tile_len..(t + 1) * tile_len],
                        bp,
                        &mut acc,
                    );
                    let i0 = t * MR;
                    for (i, arow) in acc.iter().enumerate().take(MR.min(m - i0)) {
                        let row = cols.row_mut(i0 + i);
                        row[j0 - c0..j0 - c0 + jn].copy_from_slice(&arow[..jn]);
                    }
                }
            }
        });
    });
}
