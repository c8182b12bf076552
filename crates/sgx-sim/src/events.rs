//! Observable hardware/driver events.
//!
//! Everything sgx-perf's logger sees of the machine arrives as a
//! [`DriverEvent`] through [`Machine::add_driver_hook`]: paging, as a
//! kprobe on the driver would see it (§4.1.5), AEXs at the patched AEP
//! (§4.1.4), injected faults and recovery steps, enclave losses and their
//! supervised recovery, and switchless-subsystem activity. MMU access
//! faults go to the working-set estimator's fault handler instead (§4.2).
//!
//! [`Machine::add_driver_hook`]: crate::Machine::add_driver_hook

use sim_core::{FaultEvent, LifecycleEvent, Nanos};

use crate::machine::{EnclaveId, ThreadToken};

/// Why an asynchronous enclave exit happened.
///
/// SGX v1 cannot report the AEX cause to user space (§4.1.4); the simulated
/// machine knows it, and exposes it so tests can verify behaviour, but the
/// logger deliberately ignores it for v1 fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AexCause {
    /// Timer interrupt hit while executing inside the enclave.
    Interrupt,
    /// EPC page fault (page had been evicted).
    PageFault,
    /// MMU access fault (permissions stripped, e.g. by the working-set
    /// estimator).
    AccessFault,
}

/// One asynchronous enclave exit, seen at the AEP before `ERESUME`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AexEvent {
    /// Enclave that was interrupted.
    pub enclave: EnclaveId,
    /// Logical thread executing inside the enclave.
    pub thread: ThreadToken,
    /// Virtual time of the exit.
    pub time: Nanos,
    /// The cause (not observable on real SGX v1 hardware).
    pub cause: AexCause,
}

/// Direction of an EPC paging operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PagingDirection {
    /// Page evicted from the EPC to untrusted memory (`EWB`).
    Out,
    /// Page loaded back into the EPC (`ELDU`).
    In,
}

/// Every event a machine hook observes: kernel-driver events (what a
/// kprobe on the SGX driver's paging functions would see, plus enclave
/// creation), AEXs, faults, lifecycle stages and switchless activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverEvent {
    /// A page crossed the EPC boundary.
    Paging {
        /// Direction of travel.
        direction: PagingDirection,
        /// Owning enclave.
        enclave: EnclaveId,
        /// Virtual address of the page.
        vaddr: u64,
        /// Virtual time of the operation.
        time: Nanos,
    },
    /// An enclave was created (`ECREATE`+`EADD`+`EINIT`).
    EnclaveCreated {
        /// New enclave id.
        enclave: EnclaveId,
        /// Total size in pages (power of two).
        pages: usize,
        /// Virtual time of creation.
        time: Nanos,
    },
    /// An asynchronous enclave exit, between the exit and the `ERESUME`.
    Aex(AexEvent),
    /// An injected fault or an SDK recovery step.
    Fault(FaultEvent),
    /// An enclave loss or a supervisor recovery stage.
    Lifecycle(LifecycleEvent),
    /// A switchless dispatch, fallback or worker state change.
    Switchless(SwitchlessEvent),
}

/// What a switchless event reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchlessEventKind {
    /// A switchless ecall was served by a trusted worker.
    EcallDispatched,
    /// A switchless ocall was served by an untrusted worker.
    OcallDispatched,
    /// A switchless-eligible ecall fell back to the synchronous path.
    EcallFallback,
    /// A switchless-eligible ocall fell back to the synchronous path.
    OcallFallback,
    /// A worker found its queue empty and parked.
    WorkerIdle,
    /// A parked worker was woken by a caller.
    WorkerBusy,
}

impl SwitchlessEventKind {
    /// Stable numeric encoding for trace records.
    pub fn code(self) -> u8 {
        match self {
            SwitchlessEventKind::EcallDispatched => 0,
            SwitchlessEventKind::OcallDispatched => 1,
            SwitchlessEventKind::EcallFallback => 2,
            SwitchlessEventKind::OcallFallback => 3,
            SwitchlessEventKind::WorkerIdle => 4,
            SwitchlessEventKind::WorkerBusy => 5,
        }
    }

    /// Inverse of [`SwitchlessEventKind::code`].
    pub fn from_code(code: u8) -> Option<SwitchlessEventKind> {
        Some(match code {
            0 => SwitchlessEventKind::EcallDispatched,
            1 => SwitchlessEventKind::OcallDispatched,
            2 => SwitchlessEventKind::EcallFallback,
            3 => SwitchlessEventKind::OcallFallback,
            4 => SwitchlessEventKind::WorkerIdle,
            5 => SwitchlessEventKind::WorkerBusy,
            _ => return None,
        })
    }
}

/// One switchless-subsystem event, delivered as
/// [`DriverEvent::Switchless`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchlessEvent {
    /// The enclave whose ring this event belongs to.
    pub enclave: EnclaveId,
    /// What happened.
    pub kind: SwitchlessEventKind,
    /// The ecall/ocall index, when the event concerns a specific call.
    pub call_index: Option<usize>,
    /// The thread the event happened on (caller for dispatch/fallback,
    /// worker for idle/busy).
    pub thread: ThreadToken,
    /// Worker slot within its pool, for worker events.
    pub worker: Option<usize>,
    /// Poll iterations the caller spent waiting (dispatch events).
    pub spins: u64,
    /// Virtual time of the event.
    pub time: Nanos,
}

/// An MMU access fault caused by stripped page permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmuFault {
    /// Faulting enclave.
    pub enclave: EnclaveId,
    /// Logical thread that faulted.
    pub thread: ThreadToken,
    /// Index of the faulting page within the enclave.
    pub page_index: usize,
    /// Virtual address of the faulting page.
    pub vaddr: u64,
    /// Virtual time of the fault.
    pub time: Nanos,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_value_types() {
        let e = DriverEvent::Paging {
            direction: PagingDirection::Out,
            enclave: EnclaveId(1),
            vaddr: 0x1000,
            time: Nanos::from_nanos(7),
        };
        let copy = e;
        assert_eq!(e, copy);
    }
}
