//! # nwq-core
//!
//! The end-to-end VQE workflow of *Enabling Scalable VQE Simulation on
//! Leading HPC Systems* (SC-W 2023):
//!
//! - [`backend`] — XACC-style execution backends spanning the paper's
//!   design space (non-caching baseline, §4.1 cached measurement, §4.1+§4.2
//!   direct expectation, shot sampling, simulated multi-rank);
//! - [`vqe`] — the variational loop (§3.1);
//! - [`adapt`] — ADAPT-VQE with pool-gradient screening (§5.3, Fig 5);
//! - [`qpe`] — Trotterized quantum phase estimation;
//! - [`workflow`] — the Fig 2 pipeline: coupled-cluster downfolding →
//!   qubit Hamiltonian → VQE/ADAPT on the optimized simulator;
//! - [`accounting`] — the Fig 3 gate-cost model (caching vs non-caching);
//! - [`exact`] — matrix-free Lanczos reference energies.
//!
//! ## Quickstart
//!
//! ```
//! use nwq_core::backend::DirectBackend;
//! use nwq_core::vqe::{run_vqe, VqeProblem};
//! use nwq_chem::{molecules, uccsd};
//! use nwq_opt::NelderMead;
//!
//! let h2 = molecules::h2_sto3g();
//! let problem = VqeProblem {
//!     hamiltonian: h2.to_qubit_hamiltonian().unwrap(),
//!     ansatz: uccsd::uccsd_ansatz(4, 2).unwrap(),
//! };
//! let mut backend = DirectBackend::new();
//! let mut optimizer = NelderMead::for_vqe();
//! let x0 = vec![0.0; problem.ansatz.n_params()];
//! let result = run_vqe(&problem, &mut backend, &mut optimizer, &x0, 3000).unwrap();
//! assert!((result.energy + 1.137).abs() < 2e-3); // FCI total energy of H2
//! ```

#![warn(missing_docs)]

pub mod accounting;
pub mod adapt;
pub mod backend;
pub mod exact;
pub mod qpe;
pub mod resilience;
pub mod vqe;
pub mod workflow;

pub use adapt::{run_adapt_vqe, run_adapt_vqe_with, AdaptConfig, AdaptResult};
pub use backend::{
    Backend, BackendStats, BoxedBackend, CachedMeasureBackend, DirectBackend, DistributedBackend,
    GradientBackend, NonCachingBackend, SamplingBackend,
};
pub use exact::{ground_energy_sector_default, Sector};
pub use qpe::{run_qpe, QpeConfig, QpeOutcome};
pub use resilience::{
    circuit_content_fingerprint, problem_content_fingerprint, run_vqe_grad_with, run_vqe_with,
    CheckpointConfig, FaultyBackend, ResilienceOptions, ResumeState, RetryPolicy,
};
pub use vqe::{run_vqe, run_vqe_grad, GradSource, VqeProblem, VqeResult};
pub use workflow::{run_vqe_workflow, WorkflowConfig, WorkflowResult};
