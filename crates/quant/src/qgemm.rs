//! Integer GEMM: the arithmetic the FPGA's 8-bit GEMM engine performs.
//!
//! Products are `i8 × i8` accumulated in `i32` (DSP-friendly), then rescaled
//! back to float by the product of the operand scales. The paper's claimed
//! ~1.9× speedup from 8-bit quantization comes precisely from packing two
//! such MACs per DSP slice; the cycle model in `heatvit-fpga` charges it
//! that way. On a CPU the same packing is AVX-512 VNNI's `vpdpbusd` (four
//! byte products summed into each of sixteen `i32` lanes per instruction),
//! or AMX's `tdpbssd` (one 16×16×64 block of them per instruction).
//!
//! # Packed layout
//!
//! `B` (`k×n`) is cut into panels of [`QNR`]` = 16` columns. A panel is
//!
//! ```text
//! [ 16 × i32 column sums ][ group 0 ][ group 1 ] … [ group ⌈k/4⌉−1 ]
//!        64 bytes           64 bytes each: [16 columns][4 consecutive k]
//! ```
//!
//! so one k-group is one 64-byte vector holding, for each of the panel's 16
//! columns, that column's next four `k` values, and sixteen consecutive
//! k-groups are one AMX B tile (16 rows × 64 bytes, 64 `k` values). Columns
//! past `n` and `k` values past `k` are zero. The header lives in the same
//! `Vec<i8>` (native byte order), which is why [`qmatmul_with`] still takes
//! one `pack` buffer. [`qpack_b`] and [`qpack_b_t`] produce the layout from
//! a row-major `B` or `Bᵀ`; [`QLinear`] does it once, when the layer is
//! built.
//!
//! The panels, `A`'s [`QTensor`] storage and a grown output `Tensor` start
//! on a cache line ([`heatvit_tensor::align_start`]): a 64-byte tile row or
//! vector split across two lines made the GEMMs up to 2.2× slower. Any
//! address gives the same bits.
//!
//! # Three kernels, one layout
//!
//! * **AMX-INT8** (x86-64 Linux CPUs that report AMX-TILE and AMX-INT8 in
//!   CPUID, once the kernel grants the process the tile data state): a 2×2
//!   block of 16×16 `i32` C tiles, fed per 64-wide k step by two A tiles
//!   read straight from `A`'s rows and two B tiles read straight from the
//!   panels. `tdpbssd` multiplies signed by signed bytes, so it needs no
//!   offset and ignores the header. A's last rows and B's partial last k
//!   step are copied into zero-padded stack tiles; nothing is read past
//!   either operand.
//! * **AVX-512 VNNI** (other x86-64 CPUs that report `avx512f`, `avx512bw`
//!   and `avx512vnni` at run time): a [`QMR`]`×`[`QNR`] tile of `vpdpbusd`
//!   accumulators. The instruction multiplies *unsigned* bytes by signed
//!   ones, so the kernel feeds it `a ^ 0x80` (`= a + 128` as a `u8`) and
//!   starts each accumulator at `−128 · colsum[j]` from the panel header:
//!   `Σ (a+128)·b − 128·Σ b = Σ a·b`, exactly, in `i32`.
//! * **Portable**: a scalar loop over the same panels, for every other
//!   target. It ignores the header.
//!
//! Which one runs is a fact about the CPU and the OS ([`int8_kernel`] names
//! it), not a setting. Integer accumulation is exact, so all three kernels —
//! and any blocking order — give bit-identical results as long as nothing
//! overflows: the true sum needs `k · 127² ≤ i32::MAX`, and the offset form
//! above additionally keeps every partial sum in range while
//! `k · (255·128 + 128·128) ≤ i32::MAX`, i.e. `k ≤ 43 690` (`VNNI_MAX_K`;
//! DeiT-T's largest `k` is 768). Both SIMD kernels share that bound; longer
//! reductions take the portable kernel. The SIMD kernels dequantize with
//! the same two instructions (`cvtepi32_ps`, then one multiply by the
//! rescale), so their float outputs match too.

use crate::qtensor::QTensor;
use heatvit_tensor::{align_start, Tensor, CACHE_LINE};

/// Rows per int8 microkernel tile (register blocking over `m`).
pub const QMR: usize = 4;

/// Columns per packed int8 panel: the width of the widened `i32`
/// accumulator tile, mirroring the accelerator's fixed-size output BRAM
/// tile (paper Fig. 8a).
pub const QNR: usize = 16;

/// Consecutive `k` values stored together per column: the four bytes one
/// `vpdpbusd` lane consumes.
const QKG: usize = 4;

/// Bytes in one k-group of a panel (one 512-bit vector).
const GROUP: usize = QNR * QKG;

/// Bytes in a panel's header of [`QNR`] `i32` column sums.
const HEADER: usize = QNR * std::mem::size_of::<i32>();

/// Largest reduction length the SIMD kernels accept: beyond it a partial
/// sum of VNNI's offset form could leave `i32` (see the module docs).
const VNNI_MAX_K: usize = i32::MAX as usize / (255 * 128 + 128 * 128);

/// Bytes in one packed panel of a `k`-row operand.
fn panel_len(k: usize) -> usize {
    HEADER + k.div_ceil(QKG) * GROUP
}

/// Number of `i8` slots [`qpack_b`] needs for a `k×n` operand.
pub fn qpacked_len(k: usize, n: usize) -> usize {
    n.div_ceil(QNR) * panel_len(k)
}

fn write_column_sums(header: &mut [i8], sums: &[i32; QNR]) {
    for (dst, sum) in header.chunks_exact_mut(4).zip(sums) {
        for (d, byte) in dst.iter_mut().zip(sum.to_ne_bytes()) {
            *d = byte as i8;
        }
    }
}

/// Packs a row-major `k×n` int8 matrix into the panel layout of the module
/// docs (zero-padded, column sums in each panel's header) at `pack[start..]`,
/// where the returned `start` is on a cache line.
pub fn qpack_b(b: &[i8], k: usize, n: usize, pack: &mut Vec<i8>) -> usize {
    debug_assert_eq!(b.len(), k * n);
    let start = align_start(pack, qpacked_len(k, n));
    pack.resize(start + qpacked_len(k, n), 0);
    let zero = [0i8; QNR];
    for (pi, panel) in pack[start..].chunks_exact_mut(panel_len(k)).enumerate() {
        let j0 = pi * QNR;
        let jn = QNR.min(n - j0);
        let (header, groups) = panel.split_at_mut(HEADER);
        let mut sums = [0i32; QNR];
        for (g, group) in groups.chunks_exact_mut(GROUP).enumerate() {
            // The group's four source rows (zeros past the last one),
            // interleaved column by column.
            let row = |t: usize| match g * QKG + t {
                p if p < k => &b[p * n + j0..][..jn],
                _ => &zero[..jn],
            };
            let (r0, r1, r2, r3) = (row(0), row(1), row(2), row(3));
            for (c, dst) in group.chunks_exact_mut(QKG).take(jn).enumerate() {
                dst.copy_from_slice(&[r0[c], r1[c], r2[c], r3[c]]);
                sums[c] += r0[c] as i32 + r1[c] as i32 + r2[c] as i32 + r3[c] as i32;
            }
        }
        write_column_sums(header, &sums);
    }
    start
}

/// Packs the transpose of a row-major `n×k` int8 matrix (`bt` stores `Bᵀ`)
/// into the same panel layout, at the same `start`, as [`qpack_b`]: a column
/// of `B` is a row of `bt`, so each k-group of a column is one contiguous
/// 4-byte copy.
pub fn qpack_b_t(bt: &[i8], n: usize, k: usize, pack: &mut Vec<i8>) -> usize {
    debug_assert_eq!(bt.len(), n * k);
    let start = align_start(pack, qpacked_len(k, n));
    pack.resize(start + qpacked_len(k, n), 0);
    if k == 0 {
        return start;
    }
    let panels = pack[start..].chunks_exact_mut(panel_len(k));
    for (panel, cols) in panels.zip(bt.chunks(QNR * k)) {
        let (header, groups) = panel.split_at_mut(HEADER);
        let mut sums = [0i32; QNR];
        for (c, col) in cols.chunks_exact(k).enumerate() {
            // Whole words as fixed 4-byte moves (a copy of unknown length
            // per word is a `memcpy` call), then the last partial one.
            // `words` leads the zip, so the slot after the last whole word
            // is still in `slots`.
            let words = col.chunks_exact(QKG);
            let tail = words.remainder();
            let mut slots = groups
                .chunks_exact_mut(GROUP)
                .map(|g| &mut g[c * QKG..][..QKG]);
            for (word, slot) in words.zip(slots.by_ref()) {
                slot.copy_from_slice(word);
            }
            if let Some(slot) = slots.next() {
                slot[..tail.len()].copy_from_slice(tail);
            }
            sums[c] = col.iter().map(|&v| v as i32).sum();
        }
        write_column_sums(header, &sums);
    }
    start
}

/// The [`QMR`] rows of one tile of `A` (`a_rows` holds up to [`QMR`] rows of
/// `k` values). A short last tile repeats its final row, so the VNNI and
/// portable kernels always compute a whole tile and simply do not store the
/// repeats.
fn tile_rows(a_rows: &[i8], k: usize) -> [&[i8]; QMR] {
    let live = a_rows.len() / k;
    std::array::from_fn(|r| &a_rows[r.min(live - 1) * k..][..k])
}

/// The portable int8 kernel: a scalar `i32` loop over the packed panels in
/// [`QMR`]`×`[`QNR`] tiles, shaped so the compiler can vectorize it (each
/// k-group is widened and split into four 16-column planes once per tile,
/// then scaled by each row's four `a` values). Requires `k > 0` and `n > 0`.
fn qgemm_portable(a: &[i8], k: usize, pack: &[i8], n: usize, dq: Dequant, c: &mut [f32]) {
    for (a_rows, out_rows) in a.chunks(QMR * k).zip(c.chunks_mut(QMR * n)) {
        let rows = tile_rows(a_rows, k);
        for (panel, out_cols) in pack.chunks_exact(panel_len(k)).zip((0..n).step_by(QNR)) {
            let mut acc = [[0i32; QNR]; QMR];
            for (g, group) in panel[HEADER..].chunks_exact(GROUP).enumerate() {
                // `planes[t][c]` is column c's t-th value of this k-group.
                let mut planes = [[0i32; QNR]; QKG];
                for (c, b_word) in group.chunks_exact(QKG).enumerate() {
                    for (plane, &bv) in planes.iter_mut().zip(b_word) {
                        plane[c] = bv as i32;
                    }
                }
                let [p0, p1, p2, p3] = planes;
                for (row, sums) in rows.iter().zip(&mut acc) {
                    // The row's k-word, zero-padded past `k`.
                    let mut a_word = [0i32; QKG];
                    for (w, &v) in a_word.iter_mut().zip(&row[g * QKG..]) {
                        *w = v as i32;
                    }
                    for (c, sum) in sums.iter_mut().enumerate() {
                        *sum += a_word[0] * p0[c]
                            + a_word[1] * p1[c]
                            + a_word[2] * p2[c]
                            + a_word[3] * p3[c];
                    }
                }
            }
            let cols = out_cols..n.min(out_cols + QNR);
            for (out_row, sums) in out_rows.chunks_exact_mut(n).zip(&acc) {
                let out = &mut out_row[cols.clone()];
                for (o, &v) in out.iter_mut().zip(sums) {
                    *o = v as f32 * dq.rescale;
                }
                if let Some(bias) = dq.bias {
                    for (o, &b) in out.iter_mut().zip(&bias[cols.clone()]) {
                        *o += b;
                    }
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod vnni {
    //! The AVX-512 VNNI int8 kernel (see the parent module's docs for the
    //! layout and the signed→unsigned offset).

    use super::{panel_len, tile_rows, Dequant, GROUP, HEADER, QKG, QMR, QNR};
    use std::arch::x86_64::{
        __m512, __m512i, __mmask16, _mm512_add_epi32, _mm512_add_ps, _mm512_cvtepi32_ps,
        _mm512_dpbusd_epi32, _mm512_loadu_si512, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps,
        _mm512_mul_ps, _mm512_mullo_epi32, _mm512_set1_epi32, _mm512_set1_ps, _mm512_setzero_si512,
    };

    /// `true` when the running CPU has every feature [`qgemm`] is compiled
    /// for.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vnni")
    }

    // The inner loop calls only `#[inline]` helpers, no generic `std` ones
    // such as `array::map`: in another codegen unit a call stays out of line,
    // and `tile`'s accumulators go to the stack at a 5× cost.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    fn load(bytes: &[i8; GROUP]) -> __m512i {
        // SAFETY: `bytes` is exactly the 64 readable bytes an unaligned
        // 512-bit load touches.
        unsafe { _mm512_loadu_si512(bytes.as_ptr().cast()) }
    }

    /// The `t`-th 4-byte word of each row with every sign bit flipped: the
    /// four `a` values as the unsigned `a + 128` that `vpdpbusd` wants.
    /// Flipped on the scalar, not with a vector XOR after the broadcast:
    /// at `target-cpu=native` on AVX-512 hosts the vector form sends rustc
    /// into a minutes-long compile.
    #[inline(always)]
    fn biased_words(rows: [&[i8]; QMR], t: usize) -> [i32; QMR] {
        let word = |row: &[i8]| {
            let w = &row[t * QKG..][..QKG];
            i32::from_ne_bytes([w[0] as u8, w[1] as u8, w[2] as u8, w[3] as u8])
                ^ 0x8080_8080u32 as i32
        };
        let [r0, r1, r2, r3] = rows;
        [word(r0), word(r1), word(r2), word(r3)]
    }

    /// `acc[r] += Σₜ (a_r[t] + 128) · b[·][t]` for the four rows of a tile.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    fn accumulate(acc: &mut [__m512i; QMR], words: [i32; QMR], b: __m512i) {
        for (sum, word) in acc.iter_mut().zip(words) {
            *sum = _mm512_dpbusd_epi32(*sum, _mm512_set1_epi32(word), b);
        }
    }

    /// One [`QMR`]`×`[`QNR`] tile: the exact `i32` sums `Σ a·b` of four `a`
    /// rows against one packed panel. Two accumulator sets (even and odd
    /// k-groups) keep eight independent `vpdpbusd` chains in flight.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    fn tile(rows: [&[i8]; QMR], k: usize, panel: &[i8]) -> [__m512i; QMR] {
        let (header, groups) = panel
            .split_first_chunk::<HEADER>()
            .expect("panel starts with its header");
        let bias = _mm512_mullo_epi32(load(header), _mm512_set1_epi32(-128));
        let mut even = [bias; QMR];
        let mut odd = [_mm512_setzero_si512(); QMR];
        let [r0, r1, r2, r3] = rows.map(|row| row.chunks_exact(2 * QKG));
        let whole = k / (2 * QKG);
        for ((((pair, a0), a1), a2), a3) in groups
            .chunks_exact(2 * GROUP)
            .zip(r0)
            .zip(r1)
            .zip(r2)
            .zip(r3)
        {
            let (b_even, b_odd) = pair
                .split_first_chunk::<GROUP>()
                .expect("two groups per pair");
            let b_odd = b_odd.first_chunk::<GROUP>().expect("two groups per pair");
            let a = [a0, a1, a2, a3];
            accumulate(&mut even, biased_words(a, 0), load(b_even));
            accumulate(&mut odd, biased_words(a, 1), load(b_odd));
        }
        // The last one or two groups when `k` is not a multiple of eight:
        // the rows' leftover bytes, zero-padded to two words (a padded `a`
        // byte meets a zero in the panel, so it adds nothing).
        let mut rest = groups[whole * 2 * GROUP..].chunks_exact(GROUP);
        if let Some(b_even) = rest.next() {
            let tails = rows.map(|row| {
                let left = &row[whole * 2 * QKG..];
                let mut padded = [0i8; 2 * QKG];
                padded[..left.len()].copy_from_slice(left);
                padded
            });
            let [t0, t1, t2, t3] = &tails;
            let tails = [&t0[..], &t1[..], &t2[..], &t3[..]];
            let b_even = b_even.first_chunk::<GROUP>().expect("whole group");
            accumulate(&mut even, biased_words(tails, 0), load(b_even));
            if let Some(b_odd) = rest.next() {
                let b_odd = b_odd.first_chunk::<GROUP>().expect("whole group");
                accumulate(&mut odd, biased_words(tails, 1), load(b_odd));
            }
        }
        let mut sums = even;
        for (sum, extra) in sums.iter_mut().zip(odd) {
            *sum = _mm512_add_epi32(*sum, extra);
        }
        sums
    }

    /// `c = dq(A·B)` over a packed `B`; same contract as the portable
    /// kernel, plus `k ≤ VNNI_MAX_K`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(super) fn qgemm(a: &[i8], k: usize, pack: &[i8], n: usize, dq: Dequant, c: &mut [f32]) {
        let scale = _mm512_set1_ps(dq.rescale);
        for (a_rows, out_rows) in a.chunks(QMR * k).zip(c.chunks_mut(QMR * n)) {
            let rows = tile_rows(a_rows, k);
            for (pi, panel) in pack.chunks_exact(panel_len(k)).enumerate() {
                let cols = pi * QNR..n.min((pi + 1) * QNR);
                let bias = dq.bias.map(|b| &b[cols.clone()]);
                let sums = tile(rows, k, panel);
                for (out_row, sum) in out_rows.chunks_exact_mut(n).zip(sums) {
                    dequantize(&mut out_row[cols.clone()], sum, scale, bias);
                }
            }
        }
    }

    /// [`Dequant`] of one tile row into its first `min(out.len(), 16)`
    /// columns; the AMX kernel's epilogue too.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn dequantize(out: &mut [f32], sums: __m512i, scale: __m512, bias: Option<&[f32]>) {
        let live = out.len().min(QNR);
        let mask: __mmask16 = u16::MAX.checked_shr((QNR - live) as u32).unwrap_or(0);
        let mut values = _mm512_mul_ps(_mm512_cvtepi32_ps(sums), scale);
        if let Some(bias) = bias {
            let bias = &bias[..live];
            // SAFETY: the mask enables exactly `bias.len()` lanes, so the
            // load reads inside `bias` and nothing else.
            values = _mm512_add_ps(values, unsafe {
                _mm512_maskz_loadu_ps(mask, bias.as_ptr())
            });
        }
        // SAFETY: the mask enables the low `live ≤ out.len()` lanes, so the
        // store writes inside `out` and nothing else.
        unsafe { _mm512_mask_storeu_ps(out.as_mut_ptr(), mask, values) };
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod amx {
    //! The AMX-INT8 kernel (see the parent module's docs for the layout: a
    //! B tile is sixteen consecutive k-groups of a panel, read in place).
    //!
    //! The tile instructions are written in `asm!`: their intrinsics are
    //! not stable. Tile registers are fixed by role — `tmm0`–`tmm3` the
    //! 2×2 block of `i32` C tiles, `tmm4`/`tmm5` the top and bottom A tile,
    //! `tmm6`/`tmm7` the left and right B tile — and rustc allocates none of
    //! them, so they keep their values between `asm!` blocks.

    use super::vnni::dequantize;
    use super::{panel_len, Dequant, GROUP, HEADER, QNR};
    use std::arch::asm;
    use std::arch::x86_64::{__cpuid, __cpuid_count, _mm512_loadu_si512, _mm512_set1_ps};
    use std::sync::OnceLock;

    /// Rows of every tile (A rows, C rows, B k-groups).
    const TM: usize = 16;
    /// Bytes per tile row: the `k` values one A row contributes per step.
    const TK: usize = 64;
    /// Bytes in one tile.
    const TILE: usize = TM * TK;
    // A B tile row is one k-group; a C tile is one panel wide.
    const _: () = assert!(TK == GROUP && TM == QNR);

    /// `ldtilecfg`'s operand: palette 1, all eight tiles 16 rows × 64 bytes.
    const CONFIG: [u8; 64] = {
        let mut cfg = [0u8; 64];
        cfg[0] = 1;
        let mut t = 0;
        while t < 8 {
            cfg[16 + 2 * t] = TK as u8;
            cfg[48 + t] = TM as u8;
            t += 1;
        }
        cfg
    };

    /// `true` when the CPU has AMX-TILE, AMX-INT8 and AVX-512F (the
    /// epilogue's) and the OS lets this process use the tile data state.
    /// Asked once per process.
    pub(super) fn available() -> bool {
        static GRANTED: OnceLock<bool> = OnceLock::new();
        *GRANTED.get_or_init(|| {
            is_x86_feature_detected!("avx512f") && cpu_has_amx_int8() && os_grants_tile_data()
        })
    }

    /// CPUID leaf 7, sub-leaf 0, EDX bits 24 (AMX-TILE) and 25 (AMX-INT8).
    fn cpu_has_amx_int8() -> bool {
        const AMX_TILE_AND_INT8: u32 = 0b11 << 24;
        __cpuid(0).eax >= 7 && __cpuid_count(7, 0).edx & AMX_TILE_AND_INT8 == AMX_TILE_AND_INT8
    }

    /// Linux keeps the 8 KB tile data state off until a process asks:
    /// `arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)`. The grant is
    /// per process; it changes nothing outside it.
    fn os_grants_tile_data() -> bool {
        const SYS_ARCH_PRCTL: i64 = 158;
        const ARCH_REQ_XCOMP_PERM: u64 = 0x1023;
        const XFEATURE_XTILEDATA: u64 = 18;
        let ret: i64;
        // SAFETY: this system call takes two integers and touches no memory
        // of this process; `syscall` clobbers `rcx` and `r11`, declared.
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") SYS_ARCH_PRCTL => ret,
                in("rdi") ARCH_REQ_XCOMP_PERM,
                in("rsi") XFEATURE_XTILEDATA,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret == 0
    }

    /// Sixteen readable rows of 64 bytes, `stride` bytes apart: what one
    /// tile load reads. Built only by [`a_tile`] and [`b_tile`], which
    /// check it.
    struct Rows {
        ptr: *const i8,
        stride: usize,
    }

    /// The tile configuration, live from [`Tiles::configure`] until drop
    /// (`tilerelease`): no tile state outlives a GEMM call.
    struct Tiles;

    impl Tiles {
        /// # Safety
        ///
        /// [`available`] must have returned `true`.
        #[inline]
        unsafe fn configure() -> Self {
            // SAFETY: the caller saw `available` grant the tile state;
            // `CONFIG` is the 64 readable bytes `ldtilecfg` reads, holding a
            // valid palette-1 configuration.
            unsafe {
                asm!("ldtilecfg [{}]", in(reg) CONFIG.as_ptr(), options(readonly, nostack, preserves_flags));
            }
            Tiles
        }

        #[inline(always)]
        fn zero<const T: u8>(&self) {
            // SAFETY: the tiles are configured while `self` lives.
            unsafe {
                asm!("tilezero tmm{t}", t = const T, options(nomem, nostack, preserves_flags))
            }
        }

        #[inline(always)]
        fn load<const T: u8>(&self, src: Rows) {
            // SAFETY: the tiles are configured while `self` lives, and
            // `Rows` guarantees the 16 strided 64-byte rows are readable.
            unsafe {
                asm!(
                    "tileloadd tmm{t}, [{p} + {s} * 1]",
                    t = const T,
                    p = in(reg) src.ptr,
                    s = in(reg) src.stride,
                    options(readonly, nostack, preserves_flags),
                );
            }
        }

        /// `tmm{C} += tmm{A} · tmm{B}`, signed bytes, exact `i32` sums.
        #[inline(always)]
        fn dot<const C: u8, const A: u8, const B: u8>(&self) {
            // SAFETY: the tiles are configured while `self` lives.
            unsafe {
                asm!(
                    "tdpbssd tmm{c}, tmm{a}, tmm{b}",
                    c = const C,
                    a = const A,
                    b = const B,
                    options(nomem, nostack, preserves_flags),
                );
            }
        }

        #[inline(always)]
        fn store<const T: u8>(&self, dst: &mut [[i32; QNR]; TM]) {
            // SAFETY: the tiles are configured while `self` lives; `dst` is
            // the 16 rows × 64 bytes the store writes at stride 64.
            unsafe {
                asm!(
                    "tilestored [{p} + {s} * 1], tmm{t}",
                    t = const T,
                    p = in(reg) dst.as_mut_ptr(),
                    s = in(reg) TK,
                    options(nostack, preserves_flags),
                );
            }
        }
    }

    impl Drop for Tiles {
        fn drop(&mut self) {
            // SAFETY: returns the tile state to its initial state; valid
            // whenever `ldtilecfg` ran, as it did in `configure`.
            unsafe { asm!("tilerelease", options(nomem, nostack, preserves_flags)) }
        }
    }

    /// k step `step` of the sixteen A rows starting `rest` (A from the
    /// sub-tile's first row to its end). Read in place while the read stays
    /// inside `rest`: on a partial last step the bytes past `k` are the next
    /// row's, and they meet B's zeros. Near A's end the live rows are
    /// copied into `stage` instead, zero-initialized: a byte left over from
    /// an earlier copy also meets a zero of B, or lands in a row not stored.
    #[inline]
    fn a_tile(rest: &[i8], k: usize, step: usize, stage: &mut [i8; TILE]) -> Rows {
        let k0 = step * TK;
        if rest.len() >= (TM - 1) * k + k0 + TK {
            return Rows {
                ptr: rest[k0..].as_ptr(),
                stride: k,
            };
        }
        let width = (k - k0).min(TK);
        for (dst, row) in stage.chunks_exact_mut(TK).zip(rest.chunks_exact(k)) {
            dst[..width].copy_from_slice(&row[k0..k0 + width]);
        }
        Rows {
            ptr: stage.as_ptr(),
            stride: TK,
        }
    }

    /// k step `step` of a panel: sixteen k-groups in place, or the last
    /// `< 16` copied into the front of `stage`, whose rest stays zero (so
    /// A's bytes past `k` always meet zeros).
    #[inline]
    fn b_tile(panel: &[i8], step: usize, stage: &mut [i8; TILE]) -> Rows {
        let groups = &panel[HEADER + step * TILE..];
        let ptr = match groups.len() >= TILE {
            true => groups.as_ptr(),
            false => {
                stage[..groups.len()].copy_from_slice(groups);
                stage.as_ptr()
            }
        };
        Rows { ptr, stride: TK }
    }

    /// A stack buffer on a cache-line boundary, so no 64-byte tile row of it
    /// straddles two lines.
    #[repr(C, align(64))]
    struct Aligned<T>(T);

    /// `c = dq(A·B)` over a packed `B`; same contract as the portable
    /// kernel, plus `k ≤ VNNI_MAX_K`.
    ///
    /// # Safety
    ///
    /// [`available`] must have returned `true`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn qgemm(
        a: &[i8],
        k: usize,
        pack: &[i8],
        n: usize,
        dq: Dequant,
        c: &mut [f32],
    ) {
        // Every check comes before the tiles are configured, so nothing can
        // panic while they are.
        assert!(
            k > 0 && n > 0 && a.len().is_multiple_of(k),
            "amx qgemm: bad shape"
        );
        assert_eq!(c.len(), a.len() / k * n, "amx qgemm: output size");
        assert!(dq.bias.is_none_or(|b| b.len() >= n), "amx qgemm: bias size");
        let panels = &pack[..n.div_ceil(QNR) * panel_len(k)];
        let steps = k.div_ceil(TK);
        let scale = _mm512_set1_ps(dq.rescale);
        let mut a_stage = Aligned([[0i8; TILE]; 2]);
        let mut b_stage = Aligned([[0i8; TILE]; 2]);
        let mut sums = Aligned([[[0i32; QNR]; TM]; 4]);
        // SAFETY: passed on from this function's own contract.
        let tiles = unsafe { Tiles::configure() };
        for (r0, c_rows) in (0..a.len() / k)
            .step_by(2 * TM)
            .zip(c.chunks_mut(2 * TM * n))
        {
            let top = &a[r0 * k..];
            let bottom = top.get(TM * k..).unwrap_or_default();
            for (pair, j0) in panels.chunks(2 * panel_len(k)).zip((0..n).step_by(2 * QNR)) {
                let (left, right) = pair.split_at(panel_len(k));
                let (wide, tall) = (!right.is_empty(), !bottom.is_empty());
                tiles.zero::<0>();
                tiles.zero::<1>();
                tiles.zero::<2>();
                tiles.zero::<3>();
                for step in 0..steps {
                    let [a0, a1] = &mut a_stage.0;
                    let [b0, b1] = &mut b_stage.0;
                    tiles.load::<4>(a_tile(top, k, step, a0));
                    tiles.load::<6>(b_tile(left, step, b0));
                    tiles.dot::<0, 4, 6>();
                    if wide {
                        tiles.load::<7>(b_tile(right, step, b1));
                        tiles.dot::<1, 4, 7>();
                    }
                    if tall {
                        tiles.load::<5>(a_tile(bottom, k, step, a1));
                        tiles.dot::<2, 5, 6>();
                        if wide {
                            tiles.dot::<3, 5, 7>();
                        }
                    }
                }
                let [s0, s1, s2, s3] = &mut sums.0;
                tiles.store::<0>(s0);
                tiles.store::<1>(s1);
                tiles.store::<2>(s2);
                tiles.store::<3>(s3);
                // The live rows of the top and the bottom C tiles.
                for (rows, c_tiles) in c_rows.chunks_mut(TM * n).zip(sums.0.chunks_exact(2)) {
                    for (r, out) in rows.chunks_exact_mut(n).enumerate() {
                        let live = out[j0..].chunks_mut(QNR).zip((j0..).step_by(QNR));
                        for ((cols, j), tile) in live.zip(c_tiles) {
                            let bias = dq.bias.map(|b| &b[j..j + cols.len()]);
                            // SAFETY: `tile[r]` is the 64 readable bytes the
                            // load touches.
                            let row = unsafe { _mm512_loadu_si512(tile[r].as_ptr().cast()) };
                            dequantize(cols, row, scale, bias);
                        }
                    }
                }
            }
        }
    }
}

/// Every kernel's epilogue for the `i32` sum of column `j`: `sum as f32 ·
/// rescale`, then `+ bias[j]` as a second rounding (no FMA, no bias no add).
#[derive(Clone, Copy)]
struct Dequant<'a> {
    rescale: f32,
    bias: Option<&'a [f32]>,
}

/// A kernel's entry point: `c = dq(A·B)` for `a` (`m×k`, `m` implied by
/// its length), a packed `k×n` `B`, and `k, n > 0`.
type Kernel = fn(a: &[i8], k: usize, pack: &[i8], n: usize, dq: Dequant, c: &mut [f32]);

/// The AMX kernel, on CPUs and kernels that grant it.
fn amx_kernel() -> Option<Kernel> {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    if amx::available() {
        fn entry(a: &[i8], k: usize, pack: &[i8], n: usize, dq: Dequant, c: &mut [f32]) {
            // SAFETY: this function is only handed out two lines below,
            // after `available` returned `true`.
            unsafe { amx::qgemm(a, k, pack, n, dq, c) }
        }
        return Some(entry);
    }
    None
}

/// The VNNI kernel, on CPUs that can run it.
fn vnni_kernel() -> Option<Kernel> {
    #[cfg(target_arch = "x86_64")]
    if vnni::available() {
        fn entry(a: &[i8], k: usize, pack: &[i8], n: usize, dq: Dequant, c: &mut [f32]) {
            // SAFETY: this function is only handed out two lines below,
            // after `available` confirmed the CPU features the kernel is
            // compiled for.
            unsafe { vnni::qgemm(a, k, pack, n, dq, c) }
        }
        return Some(entry);
    }
    None
}

/// The kernel [`qgemm_packed`] runs for a reduction of length `k`, by name:
/// the fastest the CPU grants up to `VNNI_MAX_K`, the portable loop beyond.
fn dispatch(k: usize) -> (&'static str, Kernel) {
    let fast = amx_kernel()
        .map(|kernel| ("amx-int8", kernel))
        .or_else(|| vnni_kernel().map(|kernel| ("avx512-vnni", kernel)));
    match fast {
        Some(chosen) if k <= VNNI_MAX_K => chosen,
        _ => ("portable", qgemm_portable),
    }
}

/// The int8 GEMM kernel this process runs: `"amx-int8"` on x86-64 Linux
/// CPUs with AMX-INT8 (when the OS grants the tile state), `"avx512-vnni"`
/// on other x86-64 CPUs with AVX-512 VNNI, `"portable"` everywhere else.
/// Detected from the CPU at run time; there is nothing to configure.
pub fn int8_kernel() -> &'static str {
    dispatch(1).0
}

/// Blocked int8 GEMM over a pre-packed `B`: dequantizes the `i32` sums,
/// bias included, straight into the float output (`c = dq(A·B)`, rows fully
/// overwritten; `m = c.len() / n`).
fn qgemm_packed(a: &[i8], k: usize, pack: &[i8], n: usize, dq: Dequant, c: &mut [f32]) {
    debug_assert_eq!(pack.len(), qpacked_len(k, n));
    debug_assert!(dq.bias.is_none_or(|b| b.len() == n));
    if c.is_empty() {
        return;
    }
    debug_assert_eq!(a.len(), c.len() / n * k);
    if k == 0 {
        for (i, o) in c.iter_mut().enumerate() {
            *o = 0.0 + dq.bias.map_or(0.0, |b| b[i % n]);
        }
        return;
    }
    // Not `C`: a reused `Tensor::from_vec` output may start anywhere.
    let on_line = |p: *const i8| p.addr().is_multiple_of(CACHE_LINE);
    debug_assert!(on_line(a.as_ptr()), "int8 A off a cache line");
    debug_assert!(on_line(pack.as_ptr()), "int8 panels off a cache line");
    dispatch(k).1(a, k, pack, n, dq, c);
}

/// Integer matrix product `a · b` with float rescaling.
///
/// `a` is `[M, K]`, `b` is `[K, N]`; the result is the dequantized `[M, N]`
/// float matrix `(Σ qa·qb) · scale_a · scale_b`.
///
/// # Panics
///
/// Panics if the operands are not rank 2 or inner dimensions differ.
pub fn qmatmul(a: &QTensor, b: &QTensor) -> Tensor {
    let mut out = Tensor::default();
    qmatmul_with(a, b, &mut Vec::new(), &mut out);
    out
}

/// [`qmatmul`] writing into a caller-provided output tensor (reshaped in
/// place, values bit-identical to the allocating path) and staging the
/// packed operand in a caller-owned buffer, so repeated products perform no
/// heap allocation once the workspace is warm.
///
/// # Panics
///
/// Panics if the operands are not rank 2 or inner dimensions differ.
pub fn qmatmul_with(a: &QTensor, b: &QTensor, pack: &mut Vec<i8>, out: &mut Tensor) {
    assert_eq!(a.dims().len(), 2, "qmatmul lhs must be rank 2");
    assert_eq!(b.dims().len(), 2, "qmatmul rhs must be rank 2");
    let (m, k) = (a.dim(0), a.dim(1));
    let (k2, n) = (b.dim(0), b.dim(1));
    assert_eq!(k, k2, "qmatmul inner dimensions must agree");
    let (rescale, bias) = (a.params().scale * b.params().scale, None);
    out.reset_unspecified(&[m, n]);
    let start = qpack_b(b.data(), k, n, pack);
    let dq = Dequant { rescale, bias };
    qgemm_packed(a.data(), k, &pack[start..], n, dq, out.data_mut());
}

/// Integer matrix product `a · bᵀ` with float rescaling.
///
/// `a` is `[M, K]`, `b` is `[N, K]`; the result is the dequantized `[M, N]`
/// matrix. This is the attention-score shape `Q·Kᵀ`: the transposed operand
/// is packed straight from its row-major layout, after which the blocked
/// microkernel is identical to the plain product — exactly how the FPGA GEMM
/// engine consumes the transposed key tile.
///
/// # Panics
///
/// Panics if the operands are not rank 2 or their row widths differ.
pub fn qmatmul_transb(a: &QTensor, b: &QTensor) -> Tensor {
    let mut out = Tensor::default();
    qmatmul_transb_with(a, b, &mut Vec::new(), &mut out);
    out
}

/// [`qmatmul_transb`] writing into a caller-provided output tensor
/// (reshaped in place, values bit-identical to the allocating path) and
/// staging the packed operand in a caller-owned buffer (no allocation once
/// warm).
///
/// # Panics
///
/// Panics if the operands are not rank 2 or their row widths differ.
pub fn qmatmul_transb_with(a: &QTensor, b: &QTensor, pack: &mut Vec<i8>, out: &mut Tensor) {
    assert_eq!(a.dims().len(), 2, "qmatmul_transb lhs must be rank 2");
    assert_eq!(b.dims().len(), 2, "qmatmul_transb rhs must be rank 2");
    let (m, k) = (a.dim(0), a.dim(1));
    let (n, k2) = (b.dim(0), b.dim(1));
    assert_eq!(k, k2, "qmatmul_transb inner dimensions must agree");
    let (rescale, bias) = (a.params().scale * b.params().scale, None);
    out.reset_unspecified(&[m, n]);
    let start = qpack_b_t(b.data(), n, k, pack);
    let dq = Dequant { rescale, bias };
    qgemm_packed(a.data(), k, &pack[start..], n, dq, out.data_mut());
}

/// Quantized linear layer: int8 weight, float bias, dynamic or static
/// activation quantization.
///
/// The weight is quantized **and packed into the GEMM's panel layout once**,
/// in [`QLinear::from_linear`]; every `infer*` call multiplies straight from
/// those panels, so a forward pass neither re-packs a weight nor needs a
/// packing buffer. The row-major int8 weight is kept alongside for
/// [`QLinear::weight`].
#[derive(Debug, Clone)]
pub struct QLinear {
    weight: QTensor,
    /// `weight` in the packed panel layout, built at construction.
    packed: Panels,
    bias: Option<Vec<f32>>,
    /// Pre-calibrated activation scale; `None` = dynamic (per-call max-abs).
    activation: Option<crate::QuantParams>,
}

impl QLinear {
    /// Quantizes a float linear layer's weight (max-abs, symmetric) and
    /// packs it for the integer GEMM.
    pub fn from_linear(layer: &heatvit_nn::layers::Linear) -> Self {
        let weight = QTensor::quantize(layer.weight().value());
        let mut buf = Vec::new();
        let start = qpack_b(weight.data(), weight.dim(0), weight.dim(1), &mut buf);
        Self {
            weight,
            packed: Panels { buf, start },
            bias: layer.bias().map(|b| b.value().data().to_vec()),
            activation: None,
        }
    }

    /// Sets a static activation scale recorded during calibration.
    pub fn set_activation_params(&mut self, params: crate::QuantParams) {
        self.activation = Some(params);
    }

    /// The quantized weight, row-major `[in_features, out_features]`.
    pub fn weight(&self) -> &QTensor {
        &self.weight
    }

    /// The static activation parameters, if calibrated.
    pub fn activation_params(&self) -> Option<crate::QuantParams> {
        self.activation
    }

    /// Validates the input shape with a clear message *before* the integer
    /// pipeline runs. Shared by [`QLinear::infer`] and
    /// [`QLinear::infer_into`]: without the rank check a rank-3 input used
    /// to die with a confusing index panic deep inside `qmatmul`.
    fn check_input(&self, x: &Tensor) {
        assert_eq!(
            x.rank(),
            2,
            "QLinear input must be rank 2 [N, in_features], got rank {}",
            x.rank()
        );
        assert_eq!(x.dim(1), self.weight.dim(0), "input width mismatch");
    }

    /// Resolves the activation quantization parameters for one input:
    /// the calibrated static scale if set, dynamic max-abs otherwise.
    fn input_params(&self, x: &Tensor) -> crate::QuantParams {
        self.activation
            .unwrap_or_else(|| crate::QuantParams::observe(x))
    }

    /// Runs `x·W + b` through the integer pipeline: quantize activations,
    /// int8 GEMM, rescale and add the float bias in its epilogue.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank-2 `[N, in_features]`.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.infer_into(x, &mut QTensor::default(), &mut out);
        out
    }

    /// [`QLinear::infer`] staging the quantized activations in `qbuf` and
    /// writing the result into `out` (both reused across calls; values
    /// bit-identical to the allocating path). This is the int8 counterpart
    /// of the float layers' `infer_into` discipline: once the buffers are
    /// warm the integer pipeline performs no per-call heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank-2 `[N, in_features]`.
    pub fn infer_into(&self, x: &Tensor, qbuf: &mut QTensor, out: &mut Tensor) {
        self.check_input(x);
        QTensor::quantize_with_into(x, self.input_params(x), qbuf);
        self.infer_quantized_into(qbuf, out);
    }

    /// Runs the integer GEMM on activations the caller has already
    /// quantized (e.g. by the fused layer-norm + quantize path, or a single
    /// quantization pass shared by the Q/K/V projections).
    ///
    /// The caller is responsible for having quantized `qx` with this
    /// layer's activation parameters; the kernel simply trusts `qx.params()`.
    ///
    /// # Panics
    ///
    /// Panics if `qx` is not rank-2 `[N, in_features]`.
    pub fn infer_quantized_into(&self, qx: &QTensor, out: &mut Tensor) {
        assert_eq!(qx.dims().len(), 2, "QLinear input must be rank 2");
        let (m, k) = (qx.dim(0), qx.dim(1));
        let n = self.weight.dim(1);
        assert_eq!(k, self.weight.dim(0), "input width mismatch");
        let dq = Dequant {
            rescale: qx.params().scale * self.weight.params().scale,
            bias: self.bias.as_deref(),
        };
        out.reset_unspecified(&[m, n]);
        qgemm_packed(qx.data(), k, self.packed.get(), n, dq, out.data_mut());
    }
}

/// Packed panels at `buf[start..]`, on a cache line, clones included.
#[derive(Debug)]
struct Panels {
    buf: Vec<i8>,
    start: usize,
}

impl Panels {
    fn get(&self) -> &[i8] {
        &self.buf[self.start..]
    }
}

impl Clone for Panels {
    fn clone(&self) -> Self {
        let mut buf = Vec::new();
        let start = align_start(&mut buf, self.get().len());
        buf.extend_from_slice(self.get());
        Self { buf, start }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heatvit_nn::layers::Linear;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn qmatmul_tracks_float_gemm() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = Tensor::rand_normal(&[8, 16], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[16, 8], 0.0, 1.0, &mut rng);
        let exact = a.matmul(&b);
        let quant = qmatmul(&QTensor::quantize(&a), &QTensor::quantize(&b));
        // Relative Frobenius error of an int8 GEMM on unit-scale data.
        let rel = quant.sub(&exact).norm() / exact.norm();
        assert!(rel < 0.02, "relative error {rel}");
    }

    #[test]
    fn qmatmul_is_exact_for_representable_values() {
        // Integers within ±127 at scale 1 are exactly representable.
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let qa = QTensor::quantize_with(&a, crate::QuantParams { scale: 1.0 });
        let qb = QTensor::quantize_with(&b, crate::QuantParams { scale: 1.0 });
        assert!(qmatmul(&qa, &qb).allclose(&a.matmul(&b), 0.0));
    }

    #[test]
    fn qmatmul_matches_integer_reference_on_edge_geometry() {
        // Remainder tiles (m/k/n off the QMR/QNR grid), single rows/columns
        // and empty shapes must all agree exactly with a naive i32 triple
        // loop — integer accumulation leaves no tolerance to hide behind.
        let mut rng = StdRng::seed_from_u64(20);
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 5, QNR + 1),
            (QMR + 1, QNR - 1, 1),
            (2 * QMR + 3, 33, 2 * QNR + 5),
            (0, 4, 4),
            (4, 0, 4),
            (4, 4, 0),
        ] {
            let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
            let (qa, qb) = (QTensor::quantize(&a), QTensor::quantize(&b));
            let out = qmatmul(&qa, &qb);
            let rescale = qa.params().scale * qb.params().scale;
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0i32;
                    for p in 0..k {
                        acc += qa.data()[i * k + p] as i32 * qb.data()[p * n + j] as i32;
                    }
                    let expect = acc as f32 * rescale;
                    assert_eq!(
                        out.at(&[i, j]),
                        expect,
                        "mismatch at ({i},{j}) of {m}x{k}x{n}"
                    );
                }
            }
        }
    }

    #[test]
    fn qmatmul_repeated_runs_are_bitwise_deterministic() {
        let mut rng = StdRng::seed_from_u64(21);
        let a = Tensor::rand_normal(&[19, 37], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[37, 23], 0.0, 1.0, &mut rng);
        let (qa, qb) = (QTensor::quantize(&a), QTensor::quantize(&b));
        let first = qmatmul(&qa, &qb);
        let mut pack = Vec::new();
        for _ in 0..5 {
            let mut out = Tensor::default();
            qmatmul_with(&qa, &qb, &mut pack, &mut out);
            assert_eq!(out.data(), first.data());
        }
    }

    #[test]
    fn qlinear_matches_float_layer_closely() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new(24, 12, true, &mut rng);
        let qlayer = QLinear::from_linear(&layer);
        let x = Tensor::rand_normal(&[5, 24], 0.0, 1.0, &mut rng);
        let exact = layer.infer(&x);
        let quant = qlayer.infer(&x);
        let rel = quant.sub(&exact).norm() / exact.norm();
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn static_activation_scale_is_used() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = Linear::new(4, 4, false, &mut rng);
        let mut qlayer = QLinear::from_linear(&layer);
        // A deliberately coarse activation scale must visibly degrade.
        qlayer.set_activation_params(crate::QuantParams::from_abs_max(100.0));
        let x = Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut rng);
        let coarse = qlayer.infer(&x);
        let mut fine = QLinear::from_linear(&layer);
        fine.set_activation_params(crate::QuantParams::from_abs_max(3.0));
        let fine_out = fine.infer(&x);
        let exact = layer.infer(&x);
        assert!(
            coarse.sub(&exact).norm() > fine_out.sub(&exact).norm(),
            "coarse calibration should hurt more"
        );
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn qmatmul_checks_shapes() {
        let a = QTensor::quantize(&Tensor::zeros(&[2, 3]));
        let b = QTensor::quantize(&Tensor::zeros(&[4, 2]));
        qmatmul(&a, &b);
    }

    #[test]
    fn qmatmul_transb_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(3);
        // Width past several packed panels to exercise the tiled path.
        let a = Tensor::rand_normal(&[5, 80], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[7, 80], 0.0, 1.0, &mut rng);
        let qa = QTensor::quantize(&a);
        let qb = QTensor::quantize(&b);
        let qbt = QTensor::quantize_with(&b.transpose2(), qb.params());
        let direct = qmatmul_transb(&qa, &qb);
        let via_transpose = qmatmul(&qa, &qbt);
        assert!(direct.allclose(&via_transpose, 0.0));
        assert_eq!(direct.dims(), &[5, 7]);
    }

    #[test]
    fn qmatmul_into_variants_match_allocating_paths() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Tensor::rand_normal(&[9, 100], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[100, 70], 0.0, 1.0, &mut rng);
        let (qa, qb) = (QTensor::quantize(&a), QTensor::quantize(&b));
        // Stale differently-shaped buffers must be reshaped and overwritten.
        let (mut pack, mut out) = (vec![7i8; 3], Tensor::full(&[2, 2], 9.0));
        qmatmul_with(&qa, &qb, &mut pack, &mut out);
        assert!(out.allclose(&qmatmul(&qa, &qb), 0.0));
        let c = Tensor::rand_normal(&[11, 100], 0.0, 1.0, &mut rng);
        let qc = QTensor::quantize(&c);
        qmatmul_transb_with(&qa, &qc, &mut pack, &mut out);
        assert!(out.allclose(&qmatmul_transb(&qa, &qc), 0.0));
    }

    #[test]
    fn qlinear_infer_into_matches_infer() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = Linear::new(16, 8, true, &mut rng);
        let qlayer = QLinear::from_linear(&layer);
        let x = Tensor::rand_normal(&[6, 16], 0.0, 1.0, &mut rng);
        let mut qbuf = QTensor::default();
        let mut out = Tensor::default();
        qlayer.infer_into(&x, &mut qbuf, &mut out);
        assert!(out.allclose(&qlayer.infer(&x), 0.0));
        // The pre-quantized entry point agrees bitwise as well.
        let mut out2 = Tensor::default();
        qlayer.infer_quantized_into(&qbuf, &mut out2);
        assert!(out2.allclose(&out, 0.0));
    }

    #[test]
    #[should_panic(expected = "rank 2")]
    fn qlinear_infer_rejects_rank3_input_up_front() {
        // Regression: a rank-3 input used to reach qmatmul and die with a
        // confusing index panic; the rank is now asserted at the boundary.
        let mut rng = StdRng::seed_from_u64(6);
        let qlayer = QLinear::from_linear(&Linear::new(4, 4, true, &mut rng));
        qlayer.infer(&Tensor::zeros(&[2, 3, 4]));
    }

    #[test]
    #[should_panic(expected = "rank 2")]
    fn qlinear_infer_into_shares_the_rank_check() {
        let mut rng = StdRng::seed_from_u64(7);
        let qlayer = QLinear::from_linear(&Linear::new(4, 4, true, &mut rng));
        qlayer.infer_into(
            &Tensor::zeros(&[2, 3, 4]),
            &mut QTensor::default(),
            &mut Tensor::default(),
        );
    }

    /// Deterministic int8 fill covering the whole clamped range.
    fn int8_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> QTensor {
        let t = Tensor::rand_uniform(&[rows, cols], -127.0, 127.0, rng);
        QTensor::quantize_with(&t, crate::QuantParams { scale: 1.0 })
    }

    /// `(Σ a·b) · rescale` by the naive `i32` triple loop.
    fn naive(a: &[i8], b: &[i8], m: usize, k: usize, n: usize, rescale: f32) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let sum: i32 = (0..k)
                    .map(|p| a[i * k + p] as i32 * b[p * n + j] as i32)
                    .sum();
                out[i * n + j] = sum as f32 * rescale;
            }
        }
        out
    }

    /// Every kernel this CPU can run; each one it cannot is said loudly.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&'static str, Kernel)> = vec![("portable", qgemm_portable)];
        match vnni_kernel() {
            Some(kernel) => all.push(("avx512-vnni", kernel)),
            None => eprintln!("SKIPPED: this CPU lacks AVX-512 VNNI, its kernel was not checked"),
        }
        match amx_kernel() {
            Some(kernel) => all.push(("amx-int8", kernel)),
            None => eprintln!(
                "SKIPPED: this CPU or OS grants no AMX-INT8 tiles, its kernel was not checked"
            ),
        }
        all
    }

    fn assert_kernels_match_naive(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) {
        let rescale = 0.037f32;
        let plain = naive(a, b, m, k, n, rescale);
        // The bias is added to the rounded product, as its own rounding.
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.31 - 2.7).collect();
        let biased: Vec<f32> = plain
            .iter()
            .enumerate()
            .map(|(i, &v)| v + bias[i % n])
            .collect();
        let mut packed = Vec::new();
        let start = qpack_b(b, k, n, &mut packed);
        let pack = &packed[start..];
        assert_eq!(pack.len(), qpacked_len(k, n));
        let shape = format!("{m}x{k}x{n}");
        // Each kernel called directly, bypassing the dispatcher's choice
        // (but not the degenerate shapes it keeps away from them).
        for (name, kernel) in kernels() {
            for (bias, want) in [(None, &plain), (Some(&bias[..]), &biased)] {
                let mut got = vec![f32::NAN; m * n];
                let dq = Dequant { rescale, bias };
                if k == 0 {
                    qgemm_packed(a, k, pack, n, dq, &mut got);
                } else if m > 0 && n > 0 {
                    kernel(a, k, pack, n, dq, &mut got);
                }
                assert_eq!(&got, want, "{name} {shape} bias: {}", bias.is_some());
            }
        }
        // The transposed pack of Bᵀ is the same bytes, header included.
        let mut bt = vec![0i8; n * k];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let mut pack_t = Vec::new();
        let start_t = qpack_b_t(&bt, n, k, &mut pack_t);
        assert_eq!(&pack_t[start_t..], pack, "qpack_b_t {shape}");
    }

    #[test]
    fn both_kernels_match_the_naive_loop_off_the_tile_grid() {
        // Every remainder class: k % 4 ∈ {0,1,2,3} with an odd and an even
        // number of k-groups, k around the 64-wide tile step, n % 16 ≠ 0
        // with an odd and an even number of panels, m % 4 ≠ 0, m < 4, m
        // around the 16- and 32-row tile blocks, empty shapes.
        let mut rng = StdRng::seed_from_u64(30);
        let ks = [
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 31, 63, 64, 65, 127, 128, 197,
        ];
        let ns = [0, 1, 15, 16, 17, 33, 64];
        let ms = [0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33, 197];
        for &k in &ks {
            for &n in &ns {
                for &m in &ms {
                    if m == 197 && (k > 16 || n > 17) {
                        continue;
                    }
                    let a = int8_matrix(m, k, &mut rng);
                    let b = int8_matrix(k, n, &mut rng);
                    assert_kernels_match_naive(a.data(), b.data(), m, k, n);
                }
            }
        }
    }

    #[test]
    fn both_kernels_are_exact_on_saturating_inputs() {
        // The largest sums DeiT-scale shapes can produce (fc2 at the base
        // width: k = 3072), at both signs: the offset form's partial sums
        // reach k·255·127 here and must still come out exact.
        let (m, k, n) = (33, 3072, 18);
        let a = vec![-127i8; m * k];
        for fill in [127i8, -127] {
            let b = vec![fill; k * n];
            assert_kernels_match_naive(&a, &b, m, k, n);
        }
        // Mixed signs column by column, and the one value `quantize` never
        // emits but an `i8` can hold.
        let b: Vec<i8> = (0..k * n)
            .map(|i| if (i % n) % 2 == 0 { 127 } else { -128 })
            .collect();
        assert_kernels_match_naive(&vec![-128i8; m * k], &b, m, k, n);
        assert_kernels_match_naive(&vec![127i8; m * k], &b, m, k, n);
    }

    #[test]
    fn every_kernel_matches_the_naive_loop_at_the_deit_tiny_shapes() {
        // Projections and fc1 (197×192·192×{192,768}), fc2 (197×768·768×192),
        // the attention scores (197×64·(197×64)ᵀ) and A·V (197×197·197×64).
        let mut rng = StdRng::seed_from_u64(33);
        for (m, k, n) in [
            (197, 192, 192),
            (197, 192, 768),
            (197, 768, 192),
            (197, 64, 197),
            (197, 197, 64),
        ] {
            let a = int8_matrix(m, k, &mut rng);
            let b = int8_matrix(k, n, &mut rng);
            assert_kernels_match_naive(a.data(), b.data(), m, k, n);
        }
    }

    #[test]
    fn dispatcher_uses_the_reported_kernel_and_bounds_its_reduction() {
        let fastest = match (amx_kernel(), vnni_kernel()) {
            (Some(_), _) => "amx-int8",
            (None, Some(_)) => "avx512-vnni",
            (None, None) => "portable",
        };
        assert_eq!(int8_kernel(), fastest);
        // `qgemm_packed` runs `dispatch(k).1`: the kernel named here, at
        // every DeiT-T reduction and up to the bound, and the portable loop
        // past it.
        for k in [1, 16, 48, 64, 192, 197, 768, 3072, VNNI_MAX_K] {
            assert_eq!(dispatch(k).0, int8_kernel(), "k = {k}");
        }
        assert_eq!(dispatch(VNNI_MAX_K + 1).0, "portable");
        // The bound in the module docs: every partial sum of the offset
        // form fits an i32 up to VNNI_MAX_K, and not one step further.
        let worst = |k: usize| k as i64 * (255 * 128 + 128 * 128);
        assert!(worst(VNNI_MAX_K) <= i32::MAX as i64);
        assert!(worst(VNNI_MAX_K + 1) > i32::MAX as i64);
    }

    #[test]
    fn qmatmul_transb_matches_naive_off_the_tile_grid() {
        let mut rng = StdRng::seed_from_u64(31);
        for &(m, k, n) in &[(1, 1, 1), (3, 7, 17), (6, 64, 197), (197, 5, 33), (4, 0, 3)] {
            let a = int8_matrix(m, k, &mut rng);
            let bt = int8_matrix(n, k, &mut rng);
            let mut b = vec![0i8; k * n];
            for j in 0..n {
                for p in 0..k {
                    b[p * n + j] = bt.data()[j * k + p];
                }
            }
            let want = naive(a.data(), &b, m, k, n, 1.0);
            assert_eq!(qmatmul_transb(&a, &bt).data(), &want[..], "{m}x{k}x{n}");
        }
    }

    #[test]
    fn prepacked_qlinear_matches_qmatmul_on_the_unpacked_weight() {
        // Widths off the panel grid, with and without bias: the panels
        // packed at construction must give what packing per call gives.
        let mut rng = StdRng::seed_from_u64(32);
        for &(rows, fan_in, fan_out, bias) in
            &[(7, 30, 21, true), (197, 48, 16, false), (1, 5, 1, true)]
        {
            let layer = Linear::new(fan_in, fan_out, bias, &mut rng);
            let qlayer = QLinear::from_linear(&layer);
            let x = Tensor::rand_normal(&[rows, fan_in], 0.0, 1.0, &mut rng);
            let qx = QTensor::quantize(&x);
            let mut want = qmatmul(&qx, qlayer.weight());
            if let Some(b) = layer.bias() {
                want = want.add_row_broadcast(b.value());
            }
            assert_eq!(qlayer.infer(&x).data(), want.data());
            let (mut qbuf, mut out) = (QTensor::default(), Tensor::default());
            qlayer.infer_into(&x, &mut qbuf, &mut out);
            assert_eq!(out.data(), want.data());
            qlayer.infer_quantized_into(&qx, &mut out);
            assert_eq!(out.data(), want.data());
        }
    }

    fn on_cache_line<T>(s: &[T]) -> bool {
        s.as_ptr().addr().is_multiple_of(CACHE_LINE)
    }

    #[test]
    fn qlinear_panels_start_on_a_cache_line_also_when_cloned() {
        let mut rng = StdRng::seed_from_u64(34);
        for (fan_in, fan_out) in [(192, 768), (768, 192), (30, 21)] {
            let layer = Linear::new(fan_in, fan_out, true, &mut rng);
            let qlayer = QLinear::from_linear(&layer);
            // Clones of clones land wherever the allocator puts them.
            let copies: Vec<QLinear> = (0..4).map(|_| qlayer.clone().clone()).collect();
            let x = Tensor::rand_normal(&[9, fan_in], 0.0, 1.0, &mut rng);
            let want = qlayer.infer(&x);
            assert!(on_cache_line(qlayer.packed.get()), "{fan_in}x{fan_out}");
            for copy in &copies {
                assert!(on_cache_line(copy.packed.get()), "{fan_in}x{fan_out} clone");
                assert_eq!(copy.packed.get(), qlayer.packed.get());
                assert_eq!(copy.infer(&x).data(), want.data());
            }
        }
    }

    #[test]
    fn qmatmul_with_packs_on_a_cache_line() {
        let mut rng = StdRng::seed_from_u64(35);
        let mut pack = vec![1i8; 5];
        let mut out = Tensor::default();
        for (m, k, n) in [(197, 64, 197), (197, 197, 64), (3, 7, 17)] {
            let a = int8_matrix(m, k, &mut rng);
            let b = int8_matrix(k, n, &mut rng);
            let bt = int8_matrix(n, k, &mut rng);
            qmatmul_with(&a, &b, &mut pack, &mut out);
            let start = pack.len() - qpacked_len(k, n);
            assert!(on_cache_line(&pack[start..]), "{m}x{k}x{n}");
            qmatmul_transb_with(&a, &bt, &mut pack, &mut out);
            let start = pack.len() - qpacked_len(k, n);
            assert!(on_cache_line(&pack[start..]), "{m}x{k}x{n} transb");
        }
    }
}
