//! Roofline probes, measured in the same run as the numbers they scale:
//! single-thread STREAM-triad bandwidth and a fused-multiply-add peak.
//!
//! Bandwidth is *computed* bytes (three 8-byte streams per element; the
//! write-allocate read is not counted) over the best of a few passes on
//! pre-touched arrays.

use std::hint::black_box;
use std::time::Instant;

/// Bytes per array of the DRAM probe: 1 GiB, at least four times the
/// 260 MiB last-level cache this host reports.
pub const DRAM_ARRAY_BYTES: usize = 1 << 30;
/// Total footprint of the cache-resident probe: the 64 MiB of the
/// 22-qubit register `sharded_hea22` streams once per gate.
pub const STATE_FOOTPRINT_BYTES: usize = 64 << 20;

/// Triad bandwidth in GB/s with three arrays of `array_bytes` each.
pub fn triad_gbs(array_bytes: usize, passes: usize) -> f64 {
    let n = array_bytes / 8;
    // Non-zero fills touch every page before the clock starts.
    let mut a = vec![1.0f64; n];
    let b = vec![2.0f64; n];
    let c = vec![0.5f64; n];
    let mut best = f64::INFINITY;
    for pass in 0..passes {
        let s = 1.0 + pass as f64;
        let start = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + s * *z;
        }
        black_box(&mut a);
        best = best.min(start.elapsed().as_secs_f64());
    }
    (3 * 8 * n) as f64 / best / 1e9
}

const FMA_LANES: usize = 32;
const FMA_ITERS: usize = 20_000_000;

#[inline(always)]
fn fma_chains(iters: usize) -> f64 {
    // 32 independent accumulators: enough chains to cover FMA latency on
    // two ports at four lanes per vector.
    let mut acc = [1.0f64; FMA_LANES];
    let (mul, add) = (black_box(0.999_999_9), black_box(1e-9));
    for _ in 0..iters {
        for x in &mut acc {
            *x = x.mul_add(mul, add);
        }
    }
    acc.iter().sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_chains_avx2(iters: usize) -> f64 {
    fma_chains(iters)
}

/// Single-thread multiply-add peak in GFLOP/s (two flops per lane-step),
/// with AVX2+FMA code when the CPU has it.
pub fn fma_gflops() -> f64 {
    let start = Instant::now();
    #[cfg(target_arch = "x86_64")]
    let sum = if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: the two features the function is compiled for were
        // detected on the running CPU on the line above.
        unsafe { fma_chains_avx2(FMA_ITERS) }
    } else {
        fma_chains(FMA_ITERS)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let sum = fma_chains(FMA_ITERS);
    black_box(sum);
    (2 * FMA_LANES * FMA_ITERS) as f64 / start.elapsed().as_secs_f64() / 1e9
}

/// `(probe.bw_gbs_1g, probe.bw_gbs_64m, probe.fma_gflops)`.
pub fn run_all() -> (f64, f64, f64) {
    (
        triad_gbs(DRAM_ARRAY_BYTES, 3),
        triad_gbs(STATE_FOOTPRINT_BYTES / 3, 20),
        fma_gflops(),
    )
}
