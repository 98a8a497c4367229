//! # nwq-common
//!
//! Foundation types shared by every crate in the NWQ-Sim-rs workspace:
//!
//! - [`complex::C64`] — dependency-free double-precision complex numbers,
//!   the amplitude type of the statevector simulator;
//! - [`mat::Mat2`] / [`mat::Mat4`] — stack-allocated 1- and 2-qubit gate
//!   matrices plus the standard gate set (the simulator fuses gates only up
//!   to two qubits, per §4.3 of the paper, so no larger matrices exist);
//! - [`bits`] — the canonical basis-index enumeration helpers used by all
//!   gate kernels (qubit 0 = least-significant bit);
//! - [`error::Error`] — the workspace-wide error enum;
//! - [`PAR_MIN_AMPS`] — the one amplitude floor below which nothing in the
//!   workspace hands a sweep or a reduction to the thread pool, and the
//!   leaf width of every readout's reduction tree;
//! - [`TILE_AMPS`] — the tile width of a sharded rank's tiled runs.

#![warn(missing_docs)]

pub mod bits;
pub mod complex;
pub mod error;
pub mod mat;

pub use complex::{C64, C_I, C_ONE, C_ZERO};
pub use error::{Error, Result};
pub use mat::{Mat2, Mat4};

/// Amplitude floor of every thread-pool dispatch in the workspace: a gate
/// sweep or a readout reduction over fewer amplitudes than this runs on
/// the calling thread, whatever the pool width. Handing half a sweep to a
/// sleeping worker and waiting for it costs 15–60 µs on the 2-vCPU
/// reference host when its vCPUs sit on separate cores — a serial sweep
/// over 2¹⁶ amplitudes — so a split only pays once each half outlasts
/// that. Measured there (`figures crossover` prints the table): at 2¹⁶ the
/// split loses 1.3–2×, at 2¹⁷ it ties (0.84–1.26× by target qubit), and
/// from 2¹⁸ every target position wins (0.72–0.79×) — which is the floor.
/// In the phases where the host schedules both vCPUs onto one core no size
/// wins and the split costs 0–10 %.
pub const PAR_MIN_AMPS: usize = 1 << 18;

/// Amplitudes per tile of a sharded rank's tiled runs: a maximal run of
/// tape steps that all act below this width finishes one aligned tile
/// before it touches the next, so the run streams the shard once instead
/// of once per step. 2¹⁵ amplitudes are 512 KiB, a quarter of the 2 MiB
/// per-core L2 of the 2-vCPU reference host. On the 22-qubit, 2-rank HEA
/// tape (50 passes per rank at 2¹⁵, 45 at 2¹⁶, 40 at 2¹⁷, against 118
/// untiled), 2¹⁴ to 2¹⁷ ran within host noise of each other, 2¹⁵ fastest
/// in the median.
pub const TILE_AMPS: usize = 1 << 15;

#[cfg(test)]
mod proptests {
    use crate::complex::{C64, C_ONE};
    use crate::mat::{mat_rx, mat_ry, mat_rz, mat_u3, Mat2};
    use proptest::prelude::*;

    fn arb_c64() -> impl Strategy<Value = C64> {
        (-10.0..10.0f64, -10.0..10.0f64).prop_map(|(re, im)| C64::new(re, im))
    }

    proptest! {
        #[test]
        fn complex_mul_commutative(a in arb_c64(), b in arb_c64()) {
            prop_assert!((a * b).approx_eq(b * a, 1e-9));
        }

        #[test]
        fn complex_mul_associative(a in arb_c64(), b in arb_c64(), c in arb_c64()) {
            prop_assert!(((a * b) * c).approx_eq(a * (b * c), 1e-7));
        }

        #[test]
        fn complex_distributive(a in arb_c64(), b in arb_c64(), c in arb_c64()) {
            prop_assert!((a * (b + c)).approx_eq(a * b + a * c, 1e-7));
        }

        #[test]
        fn conj_is_mul_antihomomorphism(a in arb_c64(), b in arb_c64()) {
            prop_assert!((a * b).conj().approx_eq(a.conj() * b.conj(), 1e-8));
        }

        #[test]
        fn norm_is_multiplicative(a in arb_c64(), b in arb_c64()) {
            prop_assert!(((a * b).norm() - a.norm() * b.norm()).abs() < 1e-7);
        }

        #[test]
        fn recip_roundtrip(a in arb_c64().prop_filter("nonzero", |z| z.norm() > 1e-3)) {
            prop_assert!((a * a.recip()).approx_eq(C_ONE, 1e-9));
        }

        #[test]
        fn rotations_always_unitary(t in -10.0..10.0f64) {
            prop_assert!(mat_rx(t).is_unitary(1e-10));
            prop_assert!(mat_ry(t).is_unitary(1e-10));
            prop_assert!(mat_rz(t).is_unitary(1e-10));
        }

        #[test]
        fn u3_always_unitary(t in -7.0..7.0f64, p in -7.0..7.0f64, l in -7.0..7.0f64) {
            prop_assert!(mat_u3(t, p, l).is_unitary(1e-10));
        }

        #[test]
        fn mat2_product_of_unitaries_is_unitary(a in -5.0..5.0f64, b in -5.0..5.0f64) {
            let m = mat_rx(a) * mat_ry(b);
            prop_assert!(m.is_unitary(1e-10));
            prop_assert!((m.dagger() * m).approx_eq(&Mat2::identity(), 1e-10));
        }

        #[test]
        fn kron_of_unitaries_is_unitary(a in -5.0..5.0f64, b in -5.0..5.0f64) {
            prop_assert!(mat_rx(a).kron(&mat_rz(b)).is_unitary(1e-10));
        }
    }
}
