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
//!   packers move whole input-row runs (one bounded copy per run, zero
//!   fill only at padded edges, see [`valid_run`]) instead of gathering
//!   element by element.
//! * A is packed per [`MR`]-row tile as `ap[p * MR + i]`, also sequential
//!   in the k loop.
//! * The microkernel keeps an `MR x NR` accumulator block in registers and
//!   performs one rank-1 update per k step.
//!
//! Two schedules drive the microkernel, chosen by the row count `m`
//! alone:
//!
//! * **Short M** (`m <= SHORT_M`): all A tiles are packed once; then for
//!   each B panel, one small panel buffer is packed over the full `k` and
//!   every A tile runs on it while it sits in L1. The full packed B is
//!   never materialized. Threads split the *columns* into disjoint panel
//!   ranges. Conv layers and weight gradients with few output channels run
//!   here.
//! * **Row tiles** (taller `m`): all of B is packed once per call, then
//!   threads split the output rows into chunks of at least `MC` rows and
//!   walk the full reduction per [`MR`]-row tile.
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
use crate::parallel::{par_col_panels_mut, par_rows_mut};
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

thread_local! {
    /// Per-thread packed-B scratch, reused across [`gemm`] calls so the
    /// steady state allocates nothing: the whole packed B of a row-tile
    /// call, or one worker's panel in the short-M schedule. Distinct from
    /// [`A_SCRATCH`] because the calling thread holds one of the two across
    /// the compute stage while, as a pool participant, it borrows the other.
    static B_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread packed-A scratch: one worker's tile in the row-tile
    /// schedule, or every tile of a short-M call.
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
    Im2col(Im2colView<'a>),
    /// The transpose of [`Operand::Im2col`] (shape `N*oh*ow x C*kh*kw`).
    Im2colT(Im2colView<'a>),
}

/// The offsets `jj` in `0..len` whose input column `sx + jj * stride`
/// falls inside `0..w`, as a half-open range (empty when none does).
///
/// This is the run resolver the im2col packers (the f32 run packers below
/// and the int8 same-output-row panels in [`super::qgemm`]) and the
/// col2im scatter share: consecutive output columns of one output row
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

/// Consecutive panel columns `jj0 .. jj0 + len` that share one output row
/// `(img, oy)` and so cover output columns `ox0 .. ox0 + len`.
#[derive(Clone, Copy, Default)]
struct Run {
    jj0: usize,
    len: usize,
    img: usize,
    oy: usize,
    ox0: usize,
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
            // output positions (img, oy, ox), precomputed once.
            let mut cols = [(0usize, 0usize, 0usize); NR];
            for (jj, slot) in cols.iter_mut().take(jn).enumerate() {
                let col = j0 + jj;
                let img = col / (v.oh * v.ow);
                let rem = col % (v.oh * v.ow);
                *slot = (img, (rem / v.ow) * v.stride, (rem % v.ow) * v.stride);
            }
            let (mut ci, mut ky, mut kx) = (0usize, 0usize, 0usize);
            for row in dst[..k * NR].chunks_exact_mut(NR) {
                let (d, tail) = row.split_at_mut(jn);
                if v.pad == 0 {
                    // Padding branch hoisted: zero-pad geometry can never
                    // sample outside the image (see `sample_unpadded`).
                    for (jj, v2) in d.iter_mut().enumerate() {
                        let (img, ybase, xbase) = cols[jj];
                        *v2 = v.sample_unpadded(img, ci, ybase + ky, xbase + kx);
                    }
                } else {
                    for (jj, v2) in d.iter_mut().enumerate() {
                        let (img, ybase, xbase) = cols[jj];
                        *v2 = v.sample(img, ci, ybase + ky, xbase + kx);
                    }
                }
                tail.fill(0.0);
                kx += 1;
                if kx == v.kw {
                    kx = 0;
                    ky += 1;
                    if ky == v.kh {
                        ky = 0;
                        ci += 1;
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
/// into at most [`NR`] runs that share an output row `(img, oy)`; for each
/// reduction row `(ci, ky, kx)` a run reads one input-row segment. Row
/// validity and the source row resolve once per `(ci, ky)`; each run
/// then lands as one bounded copy (a fixed [`NR`]-wide one for a
/// whole-panel interior run), with zero-fill only at padded edges
/// ([`valid_run`]).
fn pack_im2col_runs(v: &Im2colView, j0: usize, jn: usize, k: usize, dst: &mut [f32]) {
    debug_assert_eq!(v.stride, 1);
    let (opix, plane) = (v.oh * v.ow, v.h * v.w);
    let mut runs = [Run::default(); NR];
    let (mut nruns, mut jj) = (0usize, 0usize);
    while jj < jn {
        let col = j0 + jj;
        let rem = col % opix;
        let ox0 = rem % v.ow;
        let len = (v.ow - ox0).min(jn - jj);
        runs[nruns] = Run {
            jj0: jj,
            len,
            img: col / opix,
            oy: rem / v.ow,
            ox0,
        };
        nruns += 1;
        jj += len;
    }
    let runs = &runs[..nruns];
    let (mut ci, mut ky, mut p) = (0usize, 0usize, 0usize);
    while p < k {
        // One (ci, ky) group: reduction rows p .. p + kw.
        let nkx = v.kw.min(k - p);
        let rows = &mut dst[p * NR..(p + nkx) * NR];
        for r in runs {
            let iy = match (r.oy + ky).checked_sub(v.pad) {
                Some(iy) if iy < v.h => iy,
                _ => {
                    for row in rows.chunks_exact_mut(NR) {
                        row[r.jj0..r.jj0 + r.len].fill(0.0);
                    }
                    continue;
                }
            };
            let src_row = &v.data[(r.img * v.c + ci) * plane + iy * v.w..][..v.w];
            for (t, row) in rows.chunks_exact_mut(NR).enumerate() {
                let seg = &mut row[r.jj0..r.jj0 + r.len];
                let sx = (r.ox0 + t) as isize - v.pad as isize;
                if sx >= 0 && sx as usize + r.len <= v.w {
                    let src = &src_row[sx as usize..sx as usize + r.len];
                    match (
                        <&mut [f32; NR]>::try_from(&mut *seg),
                        <&[f32; NR]>::try_from(src),
                    ) {
                        (Ok(d), Ok(s)) => *d = *s,
                        _ => seg.copy_from_slice(src),
                    }
                } else {
                    let (lo, hi) = valid_run(sx, 1, v.w, r.len);
                    seg[..lo].fill(0.0);
                    seg[hi..].fill(0.0);
                    if lo < hi {
                        let x0 = (sx + lo as isize) as usize;
                        seg[lo..hi].copy_from_slice(&src_row[x0..x0 + (hi - lo)]);
                    }
                }
            }
        }
        if jn < NR {
            for row in rows.chunks_exact_mut(NR) {
                row[jn..].fill(0.0);
            }
        }
        p += nkx;
        ky += 1;
        if ky == v.kh {
            ky = 0;
            ci += 1;
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

/// `out = A · B` where `A` is the strided `(m, k)` view
/// `a_data[i * a_rs + p * a_cs]` and `B` is any [`Operand`] of shape
/// `(k, n)`. `out` must be an `m * n` row-major buffer (every element is
/// overwritten).
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
    assert_eq!(out.len(), m * n, "gemm output buffer mismatch");
    if m == 0 || n == 0 {
        return;
    }
    // The backend handle is hoisted here, once per gemm call, and threaded
    // into the microkernel loop (all registered backends are bit-identical
    // — see `crate::backend`).
    let be = backend::active();
    if m <= SHORT_M {
        gemm_short_m(m, n, k, a_data, a_rs, a_cs, b, out, be);
        return;
    }

    // Row tiles: pack all of B once into the thread-local scratch; the
    // panel packer overwrites every slot of its panel, edge-panel padding
    // included.
    let npanels = n.div_ceil(NR);
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

        // Compute over disjoint output row ranges; each worker packs its
        // own A tiles (per-thread scratch; pack_a_tile overwrites every
        // element including the zero padding, so no re-zeroing is needed).
        // Tile edges only change *which* worker computes an element, never
        // its reduction order, so any split is bit-identical.
        let packed_b = &*packed_b;
        par_rows_mut(out, m, n, MC, |rows, chunk| {
            A_SCRATCH.with(|apc| {
                let mut scratch = apc.borrow_mut();
                let ap = scratch_prefix(&mut scratch, k * MR);
                let (r0, r1) = (rows.start, rows.end);
                let mut i0 = r0;
                while i0 < r1 {
                    let im = MR.min(r1 - i0);
                    pack_a_tile(a_data, a_rs, a_cs, i0, im, k, ap);
                    for jp in 0..npanels {
                        let j0 = jp * NR;
                        let jn = NR.min(n - j0);
                        let mut acc = [[0.0f32; NR]; MR];
                        backend::microkernel_with(
                            be,
                            k,
                            ap,
                            &packed_b[jp * k * NR..(jp + 1) * k * NR],
                            &mut acc,
                        );
                        for (i, arow) in acc.iter().enumerate().take(im) {
                            let row = (i0 - r0 + i) * n + j0;
                            chunk[row..row + jn].copy_from_slice(&arow[..jn]);
                        }
                    }
                    i0 += im;
                }
            });
        });
    });
}

/// The short-M schedule (`m <= SHORT_M`): every A tile is packed once up
/// front, then each [`NR`]-column panel of B is packed over the full `k`
/// into a small per-thread buffer and every A tile runs on it while it is
/// still in L1. The full `k x n` packed B is never
/// materialized, so B costs one gather instead of a multi-megabyte write
/// plus one re-read per row tile.
///
/// Work is split over disjoint column-panel ranges (a row split would give
/// at most one [`MC`]-row chunk). Each output element is still one
/// microkernel chain over the whole reduction starting from zero — exactly
/// what the row-tile walk computes — so the two schedules agree bit for
/// bit.
#[allow(clippy::too_many_arguments)] // mirrors gemm
fn gemm_short_m(
    m: usize,
    n: usize,
    k: usize,
    a_data: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &Operand,
    out: &mut [f32],
    be: &dyn KernelBackend,
) {
    let tiles = m.div_ceil(MR);
    let tile_len = k * MR;
    // At least SHORT_M_CHUNK_STEPS microkernel k-steps per parallel chunk,
    // so a thin GEMM is not split finer than the pool's dispatch cost.
    let min_panels = (SHORT_M_CHUNK_STEPS / (k * tiles).max(1)).max(1);
    A_SCRATCH.with(|apc| {
        let mut scratch = apc.borrow_mut();
        let ap = scratch_prefix(&mut scratch, tiles * tile_len);
        for t in 0..tiles {
            let i0 = t * MR;
            let tile = &mut ap[t * tile_len..(t + 1) * tile_len];
            pack_a_tile(a_data, a_rs, a_cs, i0, MR.min(m - i0), k, tile);
        }
        let ap = &*ap;
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
    });
}
