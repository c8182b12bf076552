//! Simulated Intel SGX SDK.
//!
//! Reproduces the architecture of Figures 1–3 of the sgx-perf paper, which
//! is exactly the structure the sgx-perf logger instruments:
//!
//! * the application calls ecalls through a single [`sgx_ecall`]-shaped
//!   entry point in the **URTS** ([`urts`]), passing a per-enclave
//!   [`OcallTable`]; the URTS saves that table pointer on the [`Enclave`]
//!   for later ocalls,
//! * the **TRTS** trampoline inside the enclave dispatches the numeric call
//!   id to the registered trusted function ([`enclave`]),
//! * symbol resolution goes through a **dynamic-loader model** ([`loader`])
//!   that supports `LD_PRELOAD`-style interposition — the mechanism the
//!   sgx-perf event logger uses to shadow `sgx_ecall` without modifying the
//!   application, the enclave or the SDK,
//! * **in-enclave synchronisation** ([`sync`]) follows §2.3.2: an
//!   uncontended lock stays inside the enclave; contention issues the SDK's
//!   four sleep/wake ocalls, which travel through the (possibly logger-
//!   rewritten) ocall table.
//!
//! [`sgx_ecall`]: loader::Loader::sgx_ecall
//!
//! # Examples
//!
//! ```
//! use sgx_sdk::{CallData, OcallTableBuilder, Runtime, ThreadCtx};
//! use sgx_sim::{EnclaveConfig, Machine};
//! use sim_core::{Clock, HwProfile, Nanos};
//! use std::sync::Arc;
//!
//! let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
//! let runtime = Runtime::new(machine);
//! let spec = sgx_edl::parse("enclave { trusted { public void ecall_work(); }; };")?;
//! let enclave = runtime.create_enclave(&spec, &EnclaveConfig::default())?;
//! enclave.register_ecall("ecall_work", |ctx, _data| {
//!     ctx.compute(Nanos::from_micros(10))?;
//!     Ok(())
//! })?;
//! let table = Arc::new(OcallTableBuilder::new(enclave.spec()).build()?);
//! let tcx = ThreadCtx::main();
//! let mut data = CallData::default();
//! runtime.ecall(&tcx, enclave.id(), "ecall_work", &table, &mut data)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod args;
pub mod enclave;
pub mod error;
pub mod loader;
pub mod ocall;
pub mod runtime;
pub mod supervisor;
pub mod switchless;
pub mod sync;
pub mod thread_ctx;
pub mod urts;

pub use args::CallData;
pub use enclave::{EcallCtx, Enclave};
pub use error::{SdkError, SdkResult};
pub use loader::{EcallDispatcher, Loader};
pub use ocall::{HostCtx, OcallTable, OcallTableBuilder};
pub use runtime::Runtime;
pub use sgx_sim::{SwitchlessEvent, SwitchlessEventKind};
pub use supervisor::{IdempotencyPolicy, RestartGate, Supervisor, SupervisorConfig};
pub use switchless::{Switchless, SwitchlessConfig};
pub use sync::{SgxCondvar, SgxHybridMutex, SgxThreadMutex};
pub use thread_ctx::ThreadCtx;
pub use urts::Urts;

/// Names of the four SDK synchronisation ocalls (§4.1.3). These are
/// appended to every enclave interface (the SDK imports them implicitly)
/// and carry special semantics: sleep, wake one, wake one + sleep, wake
/// multiple.
pub mod sync_ocalls {
    /// Sleep until another thread sets this thread's untrusted event.
    pub const WAIT: &str = "sgx_thread_wait_untrusted_event_ocall";
    /// Wake one thread.
    pub const SET: &str = "sgx_thread_set_untrusted_event_ocall";
    /// Wake one thread and sleep in a single ocall.
    pub const SETWAIT: &str = "sgx_thread_setwait_untrusted_events_ocall";
    /// Wake multiple threads.
    pub const SET_MULTIPLE: &str = "sgx_thread_set_multiple_untrusted_events_ocall";

    /// All four names.
    pub const ALL: [&str; 4] = [WAIT, SET, SETWAIT, SET_MULTIPLE];

    /// Whether `name` is one of the SDK synchronisation ocalls.
    pub fn is_sync_ocall(name: &str) -> bool {
        ALL.contains(&name)
    }
}
