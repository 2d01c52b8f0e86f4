//! Matrix multiplication kernels.
//!
//! These are the software analogue of the GEMM engine in the HeatViT FPGA
//! accelerator: every dense layer in the backbone ViT *and* in the token
//! selector lowers to one of the routines here, mirroring the paper's design
//! decision to express the selector with linear layers so it can reuse the
//! GEMM hardware.
//!
//! # Numeric definition
//!
//! Every product in this crate — whatever its entry point, shape, blocking
//! or CPU — computes each output element as the same chain of fused
//! multiply-adds over ascending `k`, starting from zero, with the bias (if
//! any) added afterwards:
//!
//! ```text
//! acc = 0.0
//! for p in 0..k { acc = fma(a[i][p], b[p][j], acc) }     // one rounding per step
//! c[i][j] = acc (+ bias[j])
//! ```
//!
//! [`gemm`] is that definition as a naive triple loop. Because the chain of
//! one element never depends on how its neighbours are tiled, batched,
//! sharded or fused with a layer norm, all of those stay bit-identical to
//! each other and run-to-run deterministic. A fused step rounds once where a
//! separate multiply and add round twice, so results are *not* bit-equal to
//! an unfused `acc += a * b` loop; they are within `k·ε·Σ|aᵢbᵢ|` of it
//! (`tests/numerics.rs` pins both statements).
//!
//! # Packed layout
//!
//! `B` (`k×n`) is cut into panels of [`NR`]` = 32` columns; a panel is its
//! `k` rows of 32 consecutive values, columns past `n` zero-filled, so the
//! inner loop never branches on a column remainder (the software mirror of
//! the paper's Fig. 8 tiling). A layer's weight is packed whole, once
//! ([`pack_b`] → [`gemm_packed`]). A right-hand side that is used once — an
//! activation — is packed a panel at a time, just before the kernel meets it
//! ([`matmul_views`], and [`matmul_transb_views`] for an operand stored as
//! `Bᵀ`: after packing, `A·B` and `A·Bᵀ` are the same product). Operands
//! are read through a [`MatRef`], so a column range of a wider matrix (one
//! attention head of `[N, D]`) multiplies without being copied out first.
//!
//! # Two kernels, one layout
//!
//! * **AVX-512** (x86-64 CPUs that report `avx512f` and `avx512vl` at run
//!   time): an [`MR`]`×`[`NR`] tile of twenty-four 256-bit accumulators —
//!   what the 32-register file holds beside a panel row's four vectors and
//!   a broadcast — driven by `vfmadd231ps`.
//! * **Portable**: a safe loop over [`f32::mul_add`] on a 6×16 tile (what a
//!   16-register SIMD file holds), for every other target.
//!
//! Which one runs is a fact about the CPU ([`f32_kernel`] names it), not a
//! setting, and since a fused multiply-add is exactly defined the two are
//! bit-identical on every input. Both walk panels in the outer loop and row
//! tiles in the inner one, so a panel (24 KB at `k = 192`) stays in L1 while
//! the rows of `A` stream past it; a short last row tile repeats its final
//! row and does not store the repeats.
//!
//! ## Why the tile is 256 bits wide
//!
//! The same tile on 512-bit registers (8×32, sixteen `zmm` accumulators)
//! multiplies half again as fast on the reference host — 82–89 against
//! 57–58 GMAC/s — but not *steadily*. Floating-point multiplies on `zmm`
//! registers run under the CPU's lowest frequency licence, and how far that
//! licence sits below the others depends on how busy the rest of the socket
//! is: between the host's fast and slow states (see `benchmark/README.md`)
//! every 256-bit and scalar loop, the benchmark's reference beat included,
//! slows about 1.27×, while the 512-bit tile slows 1.41–1.46×. Times restated by
//! the beat then come out bimodal — DeiT-T dense read 36–42 images/s and
//! pruned 56–65 from run to run, spreads of 14–18 % that no bound of the
//! benchmark can resolve, against 4 % for this kernel and for the commit
//! before it. A kernel whose speed cannot be measured cannot be kept fast,
//! so the tile stays on the clock everything else runs at.

use crate::Tensor;

/// Rows per microkernel tile: how many output rows share one loaded `B`
/// panel row (register blocking over `m`).
pub const MR: usize = 6;

/// Columns per packed panel: four 8-lane vectors. Panels are zero-padded to
/// this width so the inner loop never branches on a column remainder.
pub const NR: usize = 32;

/// A read-only row-major matrix: `rows` rows of `cols` values whose starts
/// lie `stride` apart in a slice. A whole rank-2 tensor has
/// `stride == cols` ([`Tensor::as_mat`]); a column range of one keeps the
/// tensor's stride ([`Tensor::col_range`]).
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<'a> MatRef<'a> {
    /// A view of `rows × cols` values over `data`, row `r` starting at
    /// `r * stride`.
    ///
    /// # Panics
    ///
    /// Panics if rows would overlap (`stride < cols`) or the last row ends
    /// past `data`.
    pub fn new(data: &'a [f32], rows: usize, cols: usize, stride: usize) -> Self {
        check_view(data.len(), rows, cols, stride);
        Self {
            data,
            rows,
            cols,
            stride,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r`.
    pub fn row(&self, r: usize) -> &'a [f32] {
        assert!(r < self.rows, "row {r} of a {}-row view", self.rows);
        &self.data[r * self.stride..][..self.cols]
    }
}

/// The mutable counterpart of [`MatRef`]: where a product's rows land.
#[derive(Debug)]
pub struct MatMut<'a> {
    data: &'a mut [f32],
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<'a> MatMut<'a> {
    /// A mutable view; see [`MatRef::new`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`MatRef::new`].
    pub fn new(data: &'a mut [f32], rows: usize, cols: usize, stride: usize) -> Self {
        check_view(data.len(), rows, cols, stride);
        Self {
            data,
            rows,
            cols,
            stride,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} of a {}-row view", self.rows);
        &mut self.data[r * self.stride..][..self.cols]
    }
}

fn check_view(len: usize, rows: usize, cols: usize, stride: usize) {
    assert!(
        cols <= stride || rows <= 1,
        "rows of a view must not overlap"
    );
    assert!(
        rows == 0 || (rows - 1) * stride + cols <= len,
        "a {rows}x{cols} view with stride {stride} does not fit {len} values"
    );
}

impl Tensor {
    /// The whole rank-2 tensor as a matrix view.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn as_mat(&self) -> MatRef<'_> {
        self.col_range(0, self.dim(1))
    }

    /// Columns `[start, end)` of a rank-2 tensor as a view (no copy; the
    /// strided counterpart of [`Tensor::slice_cols`]).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the range is out of bounds.
    pub fn col_range(&self, start: usize, end: usize) -> MatRef<'_> {
        let (rows, cols) = self.check_col_range(start, end);
        // An empty tensor has no element `start` to begin the view at.
        let data = self.data().get(start..).unwrap_or(&[]);
        MatRef::new(data, rows, end - start, cols)
    }

    /// The whole rank-2 tensor as a mutable matrix view.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn as_mat_mut(&mut self) -> MatMut<'_> {
        self.col_range_mut(0, self.dim(1))
    }

    /// [`Tensor::col_range`], mutable: a product written here lands in
    /// those columns and leaves the others alone.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Tensor::col_range`].
    pub fn col_range_mut(&mut self, start: usize, end: usize) -> MatMut<'_> {
        let (rows, cols) = self.check_col_range(start, end);
        let data = self.data_mut().get_mut(start..).unwrap_or(&mut []);
        MatMut::new(data, rows, end - start, cols)
    }

    fn check_col_range(&self, start: usize, end: usize) -> (usize, usize) {
        assert_eq!(self.rank(), 2, "a matrix view requires a rank-2 tensor");
        let (rows, cols) = (self.dim(0), self.dim(1));
        assert!(start <= end && end <= cols, "column range out of bounds");
        (rows, cols)
    }
}

/// Reusable packing/staging workspace for the blocked GEMM entry points.
///
/// Contents are unspecified between calls — the buffers exist purely so the
/// hot path performs no per-call heap allocation once warm. One scratch can
/// serve any sequence of differently-shaped products; the buffers grow to the
/// high-water mark and stay there.
#[derive(Debug, Clone, Default)]
pub struct GemmScratch {
    /// The packed `B` panel in flight (products of two activations pack
    /// their right-hand side a panel at a time; layer weights are packed
    /// whole, once, by their layer).
    pub pack: Vec<f32>,
    /// Row staging area (transposed `A`, fused layer-norm blocks, …).
    pub tile: Vec<f32>,
}

/// Number of `f32` slots [`pack_b`] needs for a `k×n` operand.
pub fn packed_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * k * NR
}

/// Packs columns `j0 .. j0 + NR` of the `k×n` matrix `b` (zeros past `n`)
/// into `panel`, which holds exactly `k` rows of [`NR`] values and is fully
/// overwritten.
fn pack_panel(b: MatRef<'_>, j0: usize, panel: &mut [f32]) {
    let rows = panel.chunks_exact_mut(NR).enumerate();
    if b.cols() - j0 >= NR {
        // A whole panel: fixed-size copies.
        for (p, dst) in rows {
            dst.copy_from_slice(&b.row(p)[j0..j0 + NR]);
        }
    } else {
        for (p, dst) in rows {
            let src = &b.row(p)[j0..];
            dst[..src.len()].copy_from_slice(src);
            dst[src.len()..].fill(0.0);
        }
    }
}

/// [`pack_panel`] for an operand stored transposed: `bt` is `n×k` and holds
/// `Bᵀ`, so panel column `c` is `bt`'s row `j0 + c`. After packing, the
/// microkernel cannot tell `A·B` from `A·Bᵀ`.
fn pack_panel_t(bt: MatRef<'_>, j0: usize, panel: &mut [f32]) {
    let width = NR.min(bt.rows() - j0);
    if width < NR {
        panel.fill(0.0);
    }
    for c in 0..width {
        for (dst, &v) in panel.chunks_exact_mut(NR).zip(bt.row(j0 + c)) {
            dst[c] = v;
        }
    }
}

/// Packs a whole `k×n` matrix into [`packed_len`]`(k, n)` values: column
/// panels of width [`NR`] (see the module docs). For an operand that is
/// multiplied many times — a layer's weight — so the result is owned, not
/// staged in a scratch.
pub fn pack_b(b: MatRef<'_>) -> Vec<f32> {
    let (k, n) = (b.rows(), b.cols());
    let mut pack = vec![0.0; packed_len(k, n)];
    if k > 0 {
        for (panel, j0) in pack.chunks_exact_mut(k * NR).zip((0..n).step_by(NR)) {
            pack_panel(b, j0, panel);
        }
    }
    pack
}

/// The `R` rows of `a`'s tile starting at row `r0`. A short last tile
/// repeats its final row, so both kernels always compute a whole tile and
/// simply do not store the repeats.
fn tile_rows<'a, const R: usize>(a: &MatRef<'a>, r0: usize) -> [&'a [f32]; R] {
    std::array::from_fn(|r| a.row((r0 + r).min(a.rows() - 1)))
}

/// Columns of the portable kernel's accumulator tile: half a panel row, so
/// its [`MR`] rows are twelve 8-lane vectors — what a 16-register SIMD file
/// holds beside two `B` vectors and a broadcast.
const PORTABLE_NR: usize = NR / 2;

/// One portable tile: for each of [`MR`] `a` rows (all `k` long), the fused
/// ascending-`k` sums against the `k` half-rows `b_rows` of a panel.
fn portable_tile<'a>(
    rows: [&[f32]; MR],
    k: usize,
    b_rows: impl Iterator<Item = &'a [f32]>,
) -> [[f32; PORTABLE_NR]; MR] {
    // Lets the compiler drop the bounds checks of `row[p]` below.
    assert!(rows.iter().all(|row| row.len() == k));
    let mut acc = [[0.0f32; PORTABLE_NR]; MR];
    for (p, b_row) in (0..k).zip(b_rows) {
        for (sums, row) in acc.iter_mut().zip(rows) {
            let av = row[p];
            for (sum, &bv) in sums.iter_mut().zip(b_row) {
                *sum = av.mul_add(bv, *sum);
            }
        }
    }
    acc
}

/// The portable kernel: [`PanelKernel`]'s contract as a safe loop over
/// [`f32::mul_add`], shaped so the compiler keeps a tile in registers and
/// vectorizes it. On a target without a fused multiply-add instruction
/// `mul_add` is a library call: still the same bits, at a fraction of the
/// speed.
fn portable_panel(
    a: MatRef<'_>,
    panel: &[f32],
    j0: usize,
    bias: Option<&[f32]>,
    c: &mut MatMut<'_>,
) {
    let (m, k, n) = (a.rows(), a.cols(), c.cols());
    // Two halves to a panel: its rows' first or last 16 values.
    for (half, j0) in (j0..n.min(j0 + NR)).step_by(PORTABLE_NR).enumerate() {
        let b_rows = panel.chunks_exact(PORTABLE_NR).skip(half).step_by(2);
        let width = PORTABLE_NR.min(n - j0);
        for r0 in (0..m).step_by(MR) {
            let acc = portable_tile(tile_rows(&a, r0), k, b_rows.clone());
            for (r, sums) in (r0..m).zip(&acc) {
                let dst = &mut c.row_mut(r)[j0..j0 + width];
                match bias {
                    Some(bs) => {
                        for ((o, &s), &bv) in dst.iter_mut().zip(sums).zip(&bs[j0..]) {
                            *o = s + bv;
                        }
                    }
                    None => dst.copy_from_slice(&sums[..width]),
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! The AVX-512 kernel (see the parent module's docs).

    use super::{tile_rows, MatMut, MatRef, MR, NR};
    use std::arch::x86_64::{
        __m256, __mmask8, _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_mask_storeu_ps,
        _mm256_maskz_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps,
    };

    /// Lanes of one vector.
    const LANES: usize = 8;
    /// Vectors to a panel row.
    const VECS: usize = NR / LANES;

    /// `true` when the running CPU has the features [`panel`] is compiled
    /// for: AVX-512F, and AVX-512VL for its encodings on 256-bit registers
    /// (all thirty-two of them, and lane masks).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl")
    }

    #[target_feature(enable = "avx512f,avx512vl")]
    fn load(values: &[f32; LANES]) -> __m256 {
        // SAFETY: `values` is exactly the 8 readable floats an unaligned
        // 256-bit load touches.
        unsafe { _mm256_loadu_ps(values.as_ptr()) }
    }

    /// One [`MR`]`×`[`NR`] tile: for each of six `a` rows (all `k` long),
    /// the fused ascending-`k` sums against one packed panel, as four
    /// vectors per row.
    #[target_feature(enable = "avx512f,avx512vl")]
    fn tile(rows: [&[f32]; MR], k: usize, panel: &[f32]) -> [[__m256; VECS]; MR] {
        // Lets the compiler drop the bounds checks of `row[p]` below.
        assert!(rows.iter().all(|row| row.len() == k));
        let mut acc = [[_mm256_setzero_ps(); VECS]; MR];
        for (p, b_row) in panel.chunks_exact(NR).take(k).enumerate() {
            let (parts, _) = b_row.as_chunks::<LANES>();
            let b: [__m256; VECS] = std::array::from_fn(|v| load(&parts[v]));
            // Indexed, not zipped: unoptimized builds (every test profile)
            // run this loop too, and there each iterator adaptor is a call.
            for r in 0..MR {
                let av = _mm256_set1_ps(rows[r][p]);
                for v in 0..VECS {
                    acc[r][v] = _mm256_fmadd_ps(av, b[v], acc[r][v]);
                }
            }
        }
        acc
    }

    /// The mask enabling the low `lanes` lanes of a vector.
    fn lane_mask(lanes: usize) -> __mmask8 {
        debug_assert!((1..=LANES).contains(&lanes));
        u8::MAX >> (LANES - lanes)
    }

    /// Up to 8 values in the low lanes of a vector, zeros above them.
    #[target_feature(enable = "avx512f,avx512vl")]
    fn load_partial(values: &[f32]) -> __m256 {
        // SAFETY: the mask enables exactly `values.len()` lanes, so the load
        // reads `values` and nothing else.
        unsafe { _mm256_maskz_loadu_ps(lane_mask(values.len()), values.as_ptr()) }
    }

    /// Writes the low `dst.len()` (at most 8) lanes of `value` to `dst`.
    #[target_feature(enable = "avx512f,avx512vl")]
    fn store_partial(dst: &mut [f32], value: __m256) {
        // SAFETY: the mask enables exactly `dst.len()` lanes, so the store
        // writes `dst` and nothing else.
        unsafe { _mm256_mask_storeu_ps(dst.as_mut_ptr(), lane_mask(dst.len()), value) }
    }

    /// [`super::PanelKernel`]'s contract.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub(super) fn panel(
        a: MatRef<'_>,
        panel: &[f32],
        j0: usize,
        bias: Option<&[f32]>,
        c: &mut MatMut<'_>,
    ) {
        let (m, k, n) = (a.rows(), a.cols(), c.cols());
        let width = NR.min(n - j0);
        let mut bias_parts = [_mm256_setzero_ps(); VECS];
        if let Some(bs) = bias {
            for (part, values) in bias_parts.iter_mut().zip(bs[j0..j0 + width].chunks(LANES)) {
                *part = load_partial(values);
            }
        }
        for r0 in (0..m).step_by(MR) {
            let sums = tile(tile_rows(&a, r0), k, panel);
            for (r, sums) in (r0..m).zip(sums) {
                let dst = &mut c.row_mut(r)[j0..j0 + width];
                for (v, part) in dst.chunks_mut(LANES).enumerate() {
                    let value = match bias {
                        Some(_) => _mm256_add_ps(sums[v], bias_parts[v]),
                        None => sums[v],
                    };
                    store_partial(part, value);
                }
            }
        }
    }
}

/// A kernel's entry point: columns `j0 .. j0 + NR` (clipped to `c`'s width)
/// of `c = a · B (+ bias)`, for every row of `a` (`m > 0`), where `panel` is
/// those columns of `B` packed. `bias`, if any, spans all of `c`'s columns.
type PanelKernel =
    fn(a: MatRef<'_>, panel: &[f32], j0: usize, bias: Option<&[f32]>, c: &mut MatMut<'_>);

/// The AVX-512 kernel, on CPUs that can run it.
fn avx512_kernel() -> Option<PanelKernel> {
    #[cfg(target_arch = "x86_64")]
    if avx512::available() {
        fn entry(
            a: MatRef<'_>,
            panel: &[f32],
            j0: usize,
            bias: Option<&[f32]>,
            c: &mut MatMut<'_>,
        ) {
            // SAFETY: this function is only handed out two lines below,
            // after `available` confirmed the CPU features the kernel is
            // compiled for.
            unsafe { avx512::panel(a, panel, j0, bias, c) }
        }
        return Some(entry);
    }
    None
}

/// The f32 GEMM kernel this process runs: `"avx512f-fma"` on x86-64 CPUs
/// with AVX-512F and AVX-512VL, `"portable"` everywhere else. Detected from the CPU at run
/// time; there is nothing to configure, and the results do not depend on it.
pub fn f32_kernel() -> &'static str {
    match avx512_kernel() {
        Some(_) => "avx512f-fma",
        None => "portable",
    }
}

fn check_product(a: &MatRef<'_>, (k, n): (usize, usize), bias: Option<&[f32]>, c: &MatMut<'_>) {
    assert_eq!(a.cols(), k, "gemm inner dimensions must agree");
    assert_eq!(a.rows(), c.rows(), "gemm output rows must match lhs rows");
    assert_eq!(c.cols(), n, "gemm output columns must match rhs columns");
    if let Some(bs) = bias {
        assert_eq!(bs.len(), n, "bias length must equal output columns");
    }
}

fn run_packed(
    kernel: PanelKernel,
    a: MatRef<'_>,
    pack: &[f32],
    bias: Option<&[f32]>,
    mut c: MatMut<'_>,
) {
    let (k, n) = (a.cols(), c.cols());
    check_product(&a, (k, n), bias, &c);
    assert_eq!(pack.len(), packed_len(k, n), "packed operand is not k×n");
    if a.rows() > 0 {
        for (pi, j0) in (0..n).step_by(NR).enumerate() {
            kernel(a, &pack[pi * k * NR..][..k * NR], j0, bias, &mut c);
        }
    }
}

/// Blocked GEMM over a pre-packed `B`: `c = a · B (+ bias)`, overwriting `c`.
///
/// `a` is `m×k`, `pack` comes from [`pack_b`] of a `k×n` operand, `c` is
/// `m×n`; either view may be strided. Runs the AVX-512 kernel where the CPU
/// has it and the portable one elsewhere — the values are those of the
/// module docs' definition either way.
///
/// # Panics
///
/// Panics if the shapes of `a`, `pack`, `bias` and `c` do not fit together.
pub fn gemm_packed(a: MatRef<'_>, pack: &[f32], bias: Option<&[f32]>, c: MatMut<'_>) {
    run_packed(avx512_kernel().unwrap_or(portable_panel), a, pack, bias, c);
}

/// [`gemm_packed`] on the portable kernel whatever the CPU. Public so the
/// numerics contract can hold the two kernels against each other; nothing
/// else should call it.
///
/// # Panics
///
/// Panics under the same conditions as [`gemm_packed`].
pub fn gemm_packed_portable(a: MatRef<'_>, pack: &[f32], bias: Option<&[f32]>, c: MatMut<'_>) {
    run_packed(portable_panel, a, pack, bias, c);
}

/// `c = a · B (+ bias)` for a right-hand side that is used once, where `b`
/// holds `B` (`k×n`) or, if `transposed`, `Bᵀ` (`n×k`): each panel is packed
/// into `panel` just before the kernel meets it, so it is still in L1 and
/// `b` is read exactly once.
fn gemm_packing(
    a: MatRef<'_>,
    b: MatRef<'_>,
    transposed: bool,
    bias: Option<&[f32]>,
    panel: &mut Vec<f32>,
    mut c: MatMut<'_>,
) {
    let (k, n, pack): (_, _, fn(MatRef<'_>, usize, &mut [f32])) = if transposed {
        (b.cols(), b.rows(), pack_panel_t)
    } else {
        (b.rows(), b.cols(), pack_panel)
    };
    check_product(&a, (k, n), bias, &c);
    if a.rows() > 0 {
        let kernel = avx512_kernel().unwrap_or(portable_panel);
        panel.resize(k * NR, 0.0);
        for j0 in (0..n).step_by(NR) {
            pack(b, j0, panel);
            kernel(a, panel, j0, bias, &mut c);
        }
    }
}

/// `c = a · b (+ bias)` on matrix views: `a` is `m×k`, `b` is `k×n`, `c` is
/// `m×n`, any of them possibly a column range of a wider matrix. `panel`
/// stages one packed panel of `b` (no allocation once warm).
///
/// # Panics
///
/// Panics if the shapes do not fit together.
pub fn matmul_views(
    a: MatRef<'_>,
    b: MatRef<'_>,
    bias: Option<&[f32]>,
    panel: &mut Vec<f32>,
    c: MatMut<'_>,
) {
    gemm_packing(a, b, false, bias, panel, c);
}

/// `c = a · btᵀ` on matrix views: `a` is `m×k`, `bt` is `n×k`, `c` is `m×n`
/// (the attention-score shape `Q·Kᵀ`; see [`matmul_views`]).
///
/// # Panics
///
/// Panics if the shapes do not fit together.
pub fn matmul_transb_views(a: MatRef<'_>, bt: MatRef<'_>, panel: &mut Vec<f32>, c: MatMut<'_>) {
    gemm_packing(a, bt, true, None, panel, c);
}

impl Tensor {
    /// Matrix product `self · rhs` for rank-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the inner dimensions do not
    /// match.
    ///
    /// # Examples
    ///
    /// ```
    /// use heatvit_tensor::Tensor;
    ///
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
    /// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
    /// assert_eq!(a.matmul(&b).data(), &[19.0, 22.0, 43.0, 50.0]);
    /// ```
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self · rhsᵀ` for rank-2 tensors.
    ///
    /// Equivalent to `self.matmul(&rhs.transpose2())` but packs straight from
    /// the transposed layout; used for attention scores `Q · Kᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the last dimensions differ.
    pub fn matmul_transb(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_transb_into(rhs, &mut out);
        out
    }

    /// [`Tensor::matmul`] writing into a caller-provided output tensor.
    ///
    /// `out` is reshaped (reusing its allocation) and overwritten; the values
    /// are bit-identical to `self.matmul(rhs)`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Tensor::matmul`].
    fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) {
        self.matmul_with(rhs, &mut GemmScratch::default(), out);
    }

    /// [`Tensor::matmul`] writing into a caller-provided output tensor and
    /// staging the packed operand in a caller-owned [`GemmScratch`], so
    /// repeated products perform no heap allocation once the workspace is
    /// warm. `out` is reshaped (reusing its allocation) and overwritten.
    /// Values are bit-identical to every other `matmul` entry point.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Tensor::matmul`].
    pub fn matmul_with(&self, rhs: &Tensor, gs: &mut GemmScratch, out: &mut Tensor) {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank 2");
        assert_eq!(rhs.rank(), 2, "matmul rhs must be rank 2");
        let (k, k2) = (self.dim(1), rhs.dim(0));
        assert_eq!(k, k2, "matmul inner dimensions must agree ({k} vs {k2})");
        out.reset_unspecified(&[self.dim(0), rhs.dim(1)]);
        matmul_views(
            self.as_mat(),
            rhs.as_mat(),
            None,
            &mut gs.pack,
            out.as_mat_mut(),
        );
    }

    /// [`Tensor::matmul_transb`] writing into a caller-provided output
    /// tensor (see `matmul_into` for the reuse contract).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Tensor::matmul_transb`].
    fn matmul_transb_into(&self, rhs: &Tensor, out: &mut Tensor) {
        self.matmul_transb_with(rhs, &mut GemmScratch::default(), out);
    }

    /// [`Tensor::matmul_transb`] into a caller-provided output tensor,
    /// staging the packed operand in a caller-owned [`GemmScratch`] (no
    /// allocation once warm).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Tensor::matmul_transb`].
    pub fn matmul_transb_with(&self, rhs: &Tensor, gs: &mut GemmScratch, out: &mut Tensor) {
        assert_eq!(self.rank(), 2, "matmul_transb lhs must be rank 2");
        assert_eq!(rhs.rank(), 2, "matmul_transb rhs must be rank 2");
        let (k, k2) = (self.dim(1), rhs.dim(1));
        assert_eq!(
            k, k2,
            "matmul_transb inner dimensions must agree ({k} vs {k2})"
        );
        out.reset_unspecified(&[self.dim(0), rhs.dim(0)]);
        matmul_transb_views(self.as_mat(), rhs.as_mat(), &mut gs.pack, out.as_mat_mut());
    }

    /// Matrix product `selfᵀ · rhs` without allocating the transpose.
    ///
    /// `self` is `[M, K]`, `rhs` is `[M, N]`; the result is `[K, N]`. This is
    /// the weight-gradient shape of the autograd tape (`Aᵀ·G`).
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the leading dimensions
    /// differ.
    pub fn matmul_transa(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_transa_with(rhs, &mut GemmScratch::default(), &mut out);
        out
    }

    /// [`Tensor::matmul_transa`] staging both the packed operand and the
    /// transposed `self` in a caller-owned [`GemmScratch`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Tensor::matmul_transa`].
    fn matmul_transa_with(&self, rhs: &Tensor, gs: &mut GemmScratch, out: &mut Tensor) {
        assert_eq!(self.rank(), 2, "matmul_transa lhs must be rank 2");
        assert_eq!(rhs.rank(), 2, "matmul_transa rhs must be rank 2");
        let (m, ka) = (self.dim(0), self.dim(1));
        let (m2, n) = (rhs.dim(0), rhs.dim(1));
        assert_eq!(
            m, m2,
            "matmul_transa leading dimensions must agree ({m} vs {m2})"
        );
        out.reset_unspecified(&[ka, n]);
        let GemmScratch { pack, tile } = gs;
        tile.resize(ka * m, 0.0);
        for (p, src_row) in self.data().chunks_exact(ka.max(1)).enumerate() {
            for (i, &v) in src_row.iter().enumerate() {
                tile[i * m + p] = v;
            }
        }
        let at = MatRef::new(tile, ka, m, m);
        matmul_views(at, rhs.as_mat(), None, pack, out.as_mat_mut());
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose2(&self) -> Tensor {
        let mut out = Tensor::default();
        self.transpose2_into(&mut out);
        out
    }

    /// [`Tensor::transpose2`] writing into a caller-provided output tensor
    /// (reshaped in place, reusing its allocation).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    fn transpose2_into(&self, out: &mut Tensor) {
        assert_eq!(self.rank(), 2, "transpose2 requires a rank-2 tensor");
        let (m, n) = (self.dim(0), self.dim(1));
        out.reset_unspecified(&[n, m]);
        let src = self.data();
        let dst = out.data_mut();
        for (i, row) in src.chunks_exact(n.max(1)).enumerate().take(m) {
            for (j, &v) in row.iter().enumerate() {
                dst[j * m + i] = v;
            }
        }
    }
}

/// The numeric definition as a naive triple loop: `c = a · b` with
/// `a: m×k`, `b: k×n`, `c: m×n`, row-major, each element the fused
/// ascending-`k` chain from zero (see the module docs).
///
/// Both kernels are validated against it bit for bit; it is *not* the
/// production path.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        for j in 0..n {
            c[i * n + j] = (0..k).fold(0.0, |acc, p| a[i * k + p].mul_add(b[p * n + j], acc));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `a · b + bias` through the GEMM's bias epilogue.
    fn matmul_bias(a: &Tensor, b: &Tensor, bias: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[a.dim(0), b.dim(1)]);
        let (a, b, c) = (a.as_mat(), b.as_mat(), out.as_mat_mut());
        matmul_views(a, b, Some(bias.data()), &mut Vec::new(), c);
        out
    }

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dim(0), a.dim(1));
        let n = b.dim(1);
        let mut c = Tensor::zeros(&[m, n]);
        gemm(a.data(), b.data(), c.data_mut(), m, k, n);
        c
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Tensor::from_fn(&[4, 7], |ix| (ix[0] * 7 + ix[1]) as f32 * 0.1);
        let b = Tensor::from_fn(&[7, 3], |ix| (ix[0] as f32 - ix[1] as f32) * 0.2);
        assert!(a.matmul(&b).max_abs_diff(&naive(&a, &b)) <= 1e-5);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_fn(&[3, 3], |ix| (ix[0] + 2 * ix[1]) as f32);
        assert!(a.matmul(&Tensor::eye(3)).max_abs_diff(&a) <= 0.0);
        assert!(Tensor::eye(3).matmul(&a).max_abs_diff(&a) <= 0.0);
    }

    #[test]
    fn matmul_transb_equals_explicit_transpose() {
        let a = Tensor::from_fn(&[5, 4], |ix| (ix[0] * ix[1]) as f32 * 0.3 - 1.0);
        let b = Tensor::from_fn(&[6, 4], |ix| ix[1] as f32 - 0.5 * ix[0] as f32);
        let fast = a.matmul_transb(&b);
        let slow = a.matmul(&b.transpose2());
        assert_eq!(fast.data(), slow.data(), "must be bitwise identical");
    }

    #[test]
    fn matmul_transa_equals_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Tensor::rand_normal(&[9, 13], 0.0, 1.0, &mut rng);
        let g = Tensor::rand_normal(&[9, 5], 0.0, 1.0, &mut rng);
        let fast = a.matmul_transa(&g);
        let slow = a.transpose2().matmul(&g);
        assert_eq!(fast.dims(), &[13, 5]);
        assert_eq!(fast.data(), slow.data(), "must be bitwise identical");
    }

    #[test]
    fn matmul_bias_broadcasts_rows() {
        let a = Tensor::ones(&[2, 3]);
        let w = Tensor::eye(3);
        let bias = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let out = matmul_bias(&a, &w, &bias);
        assert_eq!(out.row(0), &[2.0, 3.0, 4.0]);
        assert_eq!(out.row(1), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn transpose_is_involution() {
        let a = Tensor::from_fn(&[3, 5], |ix| (ix[0] * 5 + ix[1]) as f32);
        assert!(a.transpose2().transpose2().max_abs_diff(&a) <= 0.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_inner_dims_panic() {
        Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn into_variants_are_bitwise_identical_and_reuse_storage() {
        let a = Tensor::from_fn(&[4, 7], |ix| (ix[0] * 7 + ix[1]) as f32 * 0.1);
        let b = Tensor::from_fn(&[7, 3], |ix| (ix[0] as f32 - ix[1] as f32) * 0.2);
        let bt = b.transpose2();

        // Start from a deliberately larger stale buffer: it must be
        // reshaped, fully overwritten, and reused.
        let mut out = Tensor::full(&[9, 9], f32::NAN);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.data(), a.matmul(&b).data());

        a.matmul_transb_into(&bt, &mut out);
        assert_eq!(out.data(), a.matmul_transb(&bt).data());

        a.transpose2_into(&mut out);
        assert_eq!(out.data(), a.transpose2().data());
    }

    #[test]
    fn with_variants_reuse_scratch_and_match() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Tensor::rand_normal(&[13, 21], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[21, 17], 0.0, 1.0, &mut rng);
        let bt = b.transpose2();
        // A stale workspace (NaNs, wrong size) must not leak into a product.
        let mut gs = GemmScratch {
            pack: vec![f32::NAN; 5000],
            tile: vec![f32::NAN; 7],
        };
        let mut out = Tensor::default();

        a.matmul_with(&b, &mut gs, &mut out);
        assert_eq!(out.data(), a.matmul(&b).data());
        let cap = gs.pack.capacity();

        a.matmul_transb_with(&bt, &mut gs, &mut out);
        assert_eq!(out.data(), a.matmul_transb(&bt).data());

        assert_eq!(
            gs.pack.capacity(),
            cap,
            "scratch must be reused, not regrown"
        );
    }

    #[test]
    fn blocked_kernel_is_bit_compatible_with_naive_reference() {
        // Per output element the kernel runs the definition's fused
        // ascending-k chain, so it must agree with the naive triple loop to
        // the last bit — this is what keeps the engine's bitwise parity
        // suites and the tape's determinism guarantees independent of the
        // blocking.
        let mut rng = StdRng::seed_from_u64(42);
        for &(m, k, n) in &[(1, 1, 1), (4, 8, 8), (5, 7, 11), (197, 192, 576)] {
            let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
            assert_eq!(
                a.matmul(&b).data(),
                naive(&a, &b).data(),
                "bit mismatch at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn remainder_tiles_match_reference() {
        // Sweep shapes around the MR/NR block boundaries so every remainder
        // combination (full tiles, row tails, column tails, both) runs.
        let mut rng = StdRng::seed_from_u64(9);
        for m in [1, MR - 1, MR, MR + 1, 2 * MR + 3] {
            for k in [1, 2, NR, NR + 5] {
                for n in [1, NR - 1, NR, NR + 1, 3 * NR + 2] {
                    let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
                    let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
                    let expect = naive(&a, &b);
                    assert_eq!(
                        a.matmul(&b).data(),
                        expect.data(),
                        "matmul mismatch at {m}x{k}x{n}"
                    );
                    let bt = b.transpose2();
                    assert_eq!(
                        a.matmul_transb(&bt).data(),
                        expect.data(),
                        "transb mismatch at {m}x{k}x{n}"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_shapes_are_well_defined() {
        // 1×N, M×1 and empty operands must all round-trip the kernel.
        let a = Tensor::from_vec(vec![2.0, 3.0], &[1, 2]);
        let b = Tensor::from_vec(vec![4.0, 5.0], &[2, 1]);
        assert_eq!(a.matmul(&b).data(), &[23.0]);
        assert_eq!(b.matmul(&a).dims(), &[2, 2]);

        let e = Tensor::zeros(&[0, 3]);
        let w = Tensor::zeros(&[3, 2]);
        assert_eq!(e.matmul(&w).dims(), &[0, 2]);

        // k = 0: the sum over an empty inner dimension is exactly zero, and
        // the fused bias must still land.
        let a0 = Tensor::zeros(&[2, 0]);
        let b0 = Tensor::zeros(&[0, 3]);
        assert_eq!(a0.matmul(&b0).data(), &[0.0; 6]);
        let bias = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let out = matmul_bias(&a0, &b0, &bias);
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[1.0, 2.0, 3.0]);

        let n0 = Tensor::zeros(&[0, 2]);
        assert_eq!(Tensor::zeros(&[4, 2]).matmul_transb(&n0).dims(), &[4, 0]);
    }

    #[test]
    fn repeated_runs_are_bitwise_deterministic() {
        let mut rng = StdRng::seed_from_u64(10);
        let a = Tensor::rand_normal(&[33, 50], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[50, 29], 0.0, 1.0, &mut rng);
        let first = a.matmul(&b);
        let mut gs = GemmScratch::default();
        for _ in 0..5 {
            let mut out = Tensor::default();
            a.matmul_with(&b, &mut gs, &mut out);
            assert_eq!(out.data(), first.data());
        }
    }

    #[test]
    fn blocked_vs_naive_tolerance_sweep_random_shapes() {
        // Randomized geometry sweep on top of the fixed shapes above.
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..25 {
            let m = rng.gen_range(1..40);
            let k = rng.gen_range(1..64);
            let n = rng.gen_range(1..40);
            let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
            assert_eq!(
                a.matmul(&b).data(),
                naive(&a, &b).data(),
                "bit mismatch at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn pack_b_t_matches_pack_of_transpose() {
        let mut rng = StdRng::seed_from_u64(13);
        for (k, n) in [(14, 9), (5, NR), (3, 2 * NR + 7)] {
            let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
            let bt = b.transpose2();
            for j0 in (0..n).step_by(NR) {
                // Stale buffers: every slot, padding included, is rewritten.
                let (mut p1, mut p2) = (vec![f32::NAN; k * NR], vec![f32::NAN; k * NR]);
                pack_panel(b.as_mat(), j0, &mut p1);
                pack_panel_t(bt.as_mat(), j0, &mut p2);
                assert_eq!(p1, p2, "{k}x{n} panel at {j0}");
            }
        }
    }

    #[test]
    fn prepacked_product_matches_packing_product() {
        let mut rng = StdRng::seed_from_u64(15);
        for (m, k, n) in [(1, 1, 1), (9, 0, 5), (11, 40, 2 * NR + 3), (MR, 7, NR)] {
            let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
            let bias = Tensor::rand_normal(&[n], 0.0, 1.0, &mut rng);
            let pack = pack_b(b.as_mat());
            assert_eq!(pack.len(), packed_len(k, n));
            let mut out = Tensor::full(&[m, n], f32::NAN);
            gemm_packed(a.as_mat(), &pack, Some(bias.data()), out.as_mat_mut());
            assert_eq!(out.data(), matmul_bias(&a, &b, &bias).data(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn column_ranges_multiply_like_their_copies() {
        // One attention head read from, and written into, a wider matrix.
        let mut rng = StdRng::seed_from_u64(14);
        let q = Tensor::rand_normal(&[11, 12], 0.0, 1.0, &mut rng);
        let kv = Tensor::rand_normal(&[11, 12], 0.0, 1.0, &mut rng);
        let (lo, hi) = (4, 8);
        let (qh, kh) = (q.slice_cols(lo, hi), kv.slice_cols(lo, hi));
        let mut panel = Vec::new();

        let mut scores = Tensor::zeros(&[11, 11]);
        matmul_transb_views(
            q.col_range(lo, hi),
            kv.col_range(lo, hi),
            &mut panel,
            scores.as_mat_mut(),
        );
        assert_eq!(scores.data(), qh.matmul_transb(&kh).data());

        let mut wide = Tensor::full(&[11, 12], 7.0);
        matmul_views(
            scores.as_mat(),
            kv.col_range(lo, hi),
            None,
            &mut panel,
            wide.col_range_mut(lo, hi),
        );
        assert_eq!(wide.slice_cols(lo, hi).data(), scores.matmul(&kh).data());
        assert!(wide.slice_cols(0, lo).data().iter().all(|&v| v == 7.0));
        assert!(wide.slice_cols(hi, 12).data().iter().all(|&v| v == 7.0));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn views_are_bounds_checked() {
        MatRef::new(&[0.0; 7], 2, 3, 5);
    }
}
