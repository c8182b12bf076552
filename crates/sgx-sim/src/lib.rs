//! Simulated Intel SGX hardware and kernel driver.
//!
//! This crate is the lowest substrate of the sgx-perf reproduction: it
//! models exactly the pieces of SGX whose *observable events* sgx-perf
//! instruments —
//!
//! * **enclave memory layout** ([`layout`]): metadata, TCS, SSA, code, data,
//!   heap, stack, guard and padding pages, with the enclave size rounded up
//!   to a power of two as required by the measurement (§4.2),
//! * **the EPC** ([`epc`]): 93 MiB of usable protected memory shared by all
//!   enclaves, with FIFO or LRU eviction and per-page `EWB`/`ELDU` costs;
//!   it is the only record of which pages are resident, and every page-in
//!   (creation, EPC fault, `EAUG`, prefetch) takes one path into it,
//! * **the kernel driver** ([`Machine`] hooks): paging decisions happen "in
//!   the kernel"; a hook registry stands in for the kprobes sgx-perf
//!   attaches to the driver's page-in/page-out functions (§4.1.5),
//! * **asynchronous enclave exits** ([`machine`]): timer interrupts hitting
//!   in-enclave execution cause AEXs, which the same hooks see where the
//!   patched AEP would (§4.1.4),
//! * **one event stream** ([`events`]): every hook receives each
//!   [`DriverEvent`] — paging, enclave creation, AEXs, injected faults,
//!   enclave lifecycle and, through [`Machine::emit`], the SDK's fault,
//!   supervisor and switchless events,
//! * **MMU page permissions** ([`page`]): strippable at runtime with access
//!   faults delivered to a registered handler — the mechanism behind the
//!   working-set estimator (§4.2).
//!
//! Everything above this crate (URTS/TRTS dispatch, EDL, the logger) lives
//! in `sgx-sdk` and `sgx-perf`.
//!
//! # Examples
//!
//! ```
//! use sgx_sim::{EnclaveConfig, Machine};
//! use sim_core::{Clock, HwProfile};
//!
//! let machine = Machine::new(Clock::new(), HwProfile::Unpatched);
//! let eid = machine.create_enclave(&EnclaveConfig::default())?;
//! let info = machine.enclave_info(eid)?;
//! assert!(info.total_pages.is_power_of_two());
//! # Ok::<(), sgx_sim::SimError>(())
//! ```

pub mod epc;
pub mod events;
pub mod layout;
pub mod machine;
pub mod page;

pub use epc::EvictionPolicy;
pub use events::{
    AexCause, AexEvent, DriverEvent, MmuFault, PagingDirection, SwitchlessEvent,
    SwitchlessEventKind,
};
pub use layout::{EnclaveConfig, EnclaveLayout, PageKind, PAGE_SIZE};
pub use machine::{
    AccessKind, EnclaveId, EnclaveInfo, Machine, MachineParams, SgxVersion, SimError, ThreadToken,
    TouchStats,
};
pub use page::Perms;
