//! The host's momentary speed, and times restated at a reference speed.
//!
//! The reference host (a 2-vCPU cloud VM) alternates every few seconds
//! between a fast state and one about 1.26× slower, for whole-second
//! stretches that can outlast a run; every kind of compute slows by the
//! same factor. A fixed register-resident loop — a *beat*, about 1 ms — run
//! beside a timed call tells which state the call ran in, and the call's
//! time is restated as what it would have been at the reference speed:
//! `t × REFERENCE_BEAT / beat`. On the reference host in its fast state the
//! factor is 1. Two minutes of dense DeiT-T calls read 24 % apart (distance
//! between the quartiles over the median) as measured and 1.5 % apart
//! restated.

use std::hint::black_box;
use std::time::Instant;

/// Accumulator rows of the beat's tile (the GEMM microkernel's `MR`).
const ROWS: usize = 4;
/// Accumulator lanes of the beat's tile (the GEMM microkernel's `NR`).
const LANES: usize = 16;

/// Steps of one beat. A debug build (the unit tests) runs the loop scalar,
/// about 100× slower, so it takes fewer.
pub const BEAT_STEPS: usize = if cfg!(debug_assertions) {
    5_000
} else {
    500_000
};

/// Seconds one beat takes on the reference host in its fast state.
pub const REFERENCE_BEAT: f64 = 1.045e-3;

/// Runs `steps` steps of a register-resident multiply-then-add loop over a
/// 4×16 accumulator tile — the instruction mix and tile of the packed GEMM
/// microkernel with no loads or stores — and returns the seconds it took.
/// (Multiply and add stay separate, as in the kernels: rustc never fuses
/// them. A taller tile spills registers and runs slower.)
pub fn tile_loop(steps: usize) -> f64 {
    let start = Instant::now();
    let mut acc = [[0.0f32; LANES]; ROWS];
    let mut a: [f32; ROWS] = black_box([1.0, 1.5, 2.0, 2.5]);
    let b: [f32; LANES] = black_box([1e-6; LANES]);
    let step: f32 = black_box(1e-7);
    for _ in 0..steps {
        for r in 0..ROWS {
            for j in 0..LANES {
                acc[r][j] += a[r] * b[j];
            }
            // Keeps the product from being hoisted out of the loop.
            a[r] += step;
        }
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Multiply-accumulates `tile_loop(steps)` performs.
pub fn tile_macs(steps: usize) -> u64 {
    (ROWS * LANES * steps) as u64
}

/// Seconds the reference loop takes right now.
pub fn beat() -> f64 {
    tile_loop(BEAT_STEPS)
}

/// What to multiply a time measured between two beats by to restate it at
/// the reference speed.
pub fn factor(beat_before: f64, beat_after: f64) -> f64 {
    REFERENCE_BEAT / ((beat_before + beat_after) / 2.0)
}

/// Times `f` between two beats: `(its result, its seconds at the reference
/// speed, the factor applied)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = beat();
    let start = Instant::now();
    let out = f();
    let seconds = start.elapsed().as_secs_f64();
    let factor = factor(before, beat());
    (out, seconds * factor, factor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_host_is_scaled_back_to_the_reference() {
        // Beats 1.26x the reference: a 126 ms call was a 100 ms call.
        let f = factor(REFERENCE_BEAT * 1.26, REFERENCE_BEAT * 1.26);
        assert!((0.126 * f - 0.100).abs() < 1e-9);
        assert!((factor(REFERENCE_BEAT, REFERENCE_BEAT) - 1.0).abs() < 1e-12);
        // A state change between the beats: the mean of the two.
        let f = factor(REFERENCE_BEAT, REFERENCE_BEAT * 1.5);
        assert!((f - 0.8).abs() < 1e-12);
    }

    #[test]
    fn timed_returns_the_result_and_a_positive_time() {
        let (value, seconds, factor) = timed(|| tile_macs(10));
        assert_eq!(value, 640);
        assert!(seconds >= 0.0 && factor > 0.0);
        assert!(beat() > 0.0);
    }
}
