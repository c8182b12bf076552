//! # sgx-perf: a performance analysis tool for (simulated) Intel SGX enclaves
//!
//! A from-scratch Rust reproduction of *sgx-perf: A Performance Analysis
//! Tool for Intel SGX Enclaves* (Weichbrodt, Aublin, Kapitza — Middleware
//! 2018), running against the simulated SGX stack in this workspace
//! (`sgx-sim` + `sgx-sdk`).
//!
//! sgx-perf is a collection of tools that work together:
//!
//! * the **event logger** ([`Logger`]) traces ecalls, ocalls, AEXs and EPC
//!   paging *without modifying the application*: it is "preloaded" into the
//!   process and shadows `sgx_ecall`, rewrites ocall tables with generated
//!   call stubs, patches the asynchronous exit pointer and hooks the kernel
//!   driver's paging functions (§4.1),
//! * the **working-set estimator** ([`WorkingSetEstimator`]) measures how
//!   many enclave pages are actually touched between two points in time by
//!   stripping page permissions and catching access faults (§4.2),
//! * the **analyzer** ([`Analyzer`]) computes per-call statistics, derives
//!   direct/indirect parent relationships, detects the SGX-specific
//!   performance anti-patterns of §3 (SISC, SDSC, SNC, SSC, paging) and the
//!   interface security issues of §3.6, and emits prioritised
//!   recommendations plus call graphs, histograms and scatter series
//!   (§4.3).
//!
//! # Quickstart
//!
//! ```
//! use sgx_perf::{Analyzer, Logger, LoggerConfig};
//! use sgx_sdk::{CallData, OcallTableBuilder, Runtime, ThreadCtx};
//! use sgx_sim::{EnclaveConfig, Machine};
//! use sim_core::{Clock, HwProfile, Nanos};
//! use std::sync::Arc;
//!
//! // An application with one enclave.
//! let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
//! let runtime = Runtime::new(machine);
//! let spec = sgx_edl::parse(
//!     "enclave { trusted { public void ecall_tick(); }; };",
//! )?;
//! let enclave = runtime.create_enclave(&spec, &EnclaveConfig::default())?;
//! enclave.register_ecall("ecall_tick", |ctx, _| {
//!     ctx.compute(Nanos::from_micros(2))?;
//!     Ok(())
//! })?;
//! let table = Arc::new(OcallTableBuilder::new(enclave.spec()).build()?);
//!
//! // Attach sgx-perf (the LD_PRELOAD step) and run the workload.
//! let logger = Logger::attach(&runtime, LoggerConfig::default());
//! let tcx = ThreadCtx::main();
//! for _ in 0..100 {
//!     runtime.ecall(&tcx, enclave.id(), "ecall_tick", &table, &mut CallData::default())?;
//! }
//!
//! // Analyse the trace.
//! let trace = logger.finish();
//! let analyzer = Analyzer::new(&trace, HwProfile::Unpatched.cost_model());
//! let report = analyzer.analyze();
//! assert_eq!(report.call_stats.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod analysis;
pub mod events;
pub mod export;
pub mod json;
pub mod logger;
pub mod trace;
pub mod wse;

pub use analysis::detect::{Detection, Priority, Problem, Recommendation};
pub use analysis::fleet::{FleetReport, FleetTotals};
pub use analysis::races::{RaceFinding, RaceKind, RaceReport};
pub use analysis::report::Report;
pub use analysis::stats::CallStats;
pub use analysis::Analyzer;
pub use events::{AexMode, CallKind, CallRef, FleetRow};
pub use logger::{Logger, LoggerConfig};
pub use trace::TraceDb;
pub use wse::WorkingSetEstimator;
