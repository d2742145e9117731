//! G10 reproduction — facade crate.
//!
//! This workspace reproduces *"G10: Enabling An Efficient Unified GPU Memory
//! and Storage Architecture with Smart Tensor Migrations"* (MICRO 2023) as a
//! pure-Rust simulation-based system.  The facade crate re-exports the
//! member crates under one roof so examples and downstream users can depend
//! on a single crate:
//!
//! * [`dnn`] — DNN workload substrate (models, graphs, traces, cost model).
//! * [`ssd`] — flash SSD simulator (FTL, garbage collection, endurance).
//! * [`core`] — the paper's contribution: tensor vitality analysis and the
//!   smart tensor migration scheduler.
//! * [`sim`] — the trace-replay simulator: the programmable
//!   [`sim::Experiment`] session over an open [`sim::PolicyProvider`]
//!   registry, with every compared design built in (Ideal, Base UVM,
//!   DeepUM+, FlashNeuron, G10 and its ablations).
//! * [`prelude`] — one-line import of the common surface.
//!
//! # Quick start
//!
//! ```
//! use g10::prelude::*;
//!
//! let workload = Workload::new(ModelKind::TinyCnn, 32);
//! let config = SystemConfig::table2().with_gpu_memory(64 << 20);
//! let report = Experiment::new(&workload)
//!     .policy(PolicyKind::G10Full)
//!     .config(config)
//!     .run()?;
//! println!("{}", report.summary());
//! assert!(report.normalized_performance() > 0.0);
//! # Ok::<(), g10::sim::SimError>(())
//! ```
//!
//! Custom designs plug in through the same session:
//! `impl g10::sim::policy::MemoryPolicy` + `impl PolicyProvider`, register
//! with [`sim::register_policy`], and the new name runs everywhere a
//! built-in does — `Experiment`, [`PolicySpec`](sim::PolicySpec) string
//! parsing, and the `experiments --policy <name>` CLI.  See
//! [`g10_sim::session`] for an end-to-end example.
//!
//! Multiple jobs can share one simulated GPU through the same session:
//! describe each tenant with a [`sim::JobSpec`] (arrival, priority, byte
//! quota) and run the mix with `Experiment::jobs([...]).run_multi()`.  See
//! [`g10_sim::tenancy`] for the scheduling model.

pub use g10_core as core;
pub use g10_dnn as dnn;
pub use g10_sim as sim;
pub use g10_ssd as ssd;
pub use g10_time as time;

/// The common surface, importable in one line: `use g10::prelude::*;`.
///
/// Re-exports the session API ([`Experiment`](g10_sim::Experiment),
/// [`PolicySpec`](g10_sim::PolicySpec),
/// [`PolicyProvider`](g10_sim::PolicyProvider),
/// [`PolicyRegistry`](g10_sim::PolicyRegistry),
/// [`SimError`](g10_sim::SimError)), the workload and hardware descriptions
/// ([`Workload`](g10_sim::Workload),
/// [`SystemConfig`](g10_core::config::SystemConfig),
/// [`ModelKind`](g10_dnn::models::ModelKind),
/// [`RuntimeOptions`](g10_sim::RuntimeOptions)), the built-in design
/// enumeration ([`PolicyKind`](g10_sim::PolicyKind)), the run output
/// ([`SimReport`](g10_sim::SimReport)), and the untrusted-policy hardening
/// knobs ([`Validate`](g10_sim::Validate),
/// [`OnPolicyFault`](g10_sim::OnPolicyFault),
/// [`FaultPlan`](g10_sim::FaultPlan),
/// [`PolicyFaultKind`](g10_sim::PolicyFaultKind)), and the multi-tenant
/// surface ([`JobSpec`](g10_sim::JobSpec),
/// [`MultiReport`](g10_sim::MultiReport), [`TenantId`](g10_sim::TenantId),
/// [`register_tensile`](g10_sim::register_tensile)).
pub mod prelude {
    pub use g10_core::config::SystemConfig;
    pub use g10_dnn::models::ModelKind;
    pub use g10_sim::{
        register_policy, register_tensile, Experiment, FaultPlan, FaultRecord, InjectedFault,
        JobReport, JobSpec, MultiReport, OnPolicyFault, PolicyContext, PolicyFaultKind, PolicyKind,
        PolicyProvider, PolicyRegistry, PolicySpec, RuntimeOptions, SimError, SimReport, TenantId,
        Validate, Workload,
    };
}
