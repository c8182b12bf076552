//! The Untrusted Runtime System.
//!
//! Owns the enclave registry and implements the real `sgx_ecall` — saving
//! the ocall table on the enclave (Figure 3: "the pointer to the table is
//! saved inside the URTS for later use"), TCS lookup, transition cost
//! accounting, TRTS trampoline dispatch.

use std::fmt;
use std::sync::{Arc, OnceLock, Weak};

use sgx_sim::{EnclaveId, Machine};
use sim_core::fault::{FaultAction, FaultKind};
use sim_core::sync::RwLock;
use sim_core::IntMap;

use crate::args::CallData;
use crate::enclave::{fault_backoff, EcallCtx, Enclave, FaultSite, Frame, MAX_FAULT_RETRIES};
use crate::error::{SdkError, SdkResult};
use crate::loader::{EcallDispatcher, Loader};
use crate::ocall::OcallTable;
use crate::thread_ctx::ThreadCtx;

/// The URTS: enclave registry + the base implementation of `sgx_ecall`.
pub struct Urts {
    machine: Arc<Machine>,
    enclaves: RwLock<IntMap<u32, Arc<Enclave>>>,
    loader: OnceLock<Weak<Loader>>,
}

impl fmt::Debug for Urts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Urts")
            .field("enclaves", &self.enclaves.read().len())
            .finish()
    }
}

impl Urts {
    pub(crate) fn new(machine: Arc<Machine>) -> Urts {
        Urts {
            machine,
            enclaves: RwLock::new(IntMap::default()),
            loader: OnceLock::new(),
        }
    }

    /// The machine this URTS drives.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    pub(crate) fn set_loader(&self, loader: Weak<Loader>) {
        let _ = self.loader.set(loader);
    }

    pub(crate) fn loader(&self) -> SdkResult<Arc<Loader>> {
        self.loader
            .get()
            .and_then(Weak::upgrade)
            .ok_or_else(|| SdkError::Interface("runtime loader torn down".to_string()))
    }

    pub(crate) fn register_enclave(&self, enclave: Arc<Enclave>) {
        self.enclaves.write().insert(enclave.id().0, enclave);
    }

    /// Removes `eid` from the registry and drops its saved ocall table, so
    /// an ocall that outlives the enclave fails as outside any ecall.
    pub(crate) fn unregister_enclave(&self, eid: EnclaveId) -> SdkResult<()> {
        let enclave =
            (self.enclaves.write().remove(&eid.0)).ok_or(SdkError::UnknownEnclave(eid))?;
        enclave.save_table(None);
        Ok(())
    }

    /// Looks up a loaded enclave.
    pub fn enclave(&self, eid: EnclaveId) -> SdkResult<Arc<Enclave>> {
        self.enclaves
            .read()
            .get(&eid.0)
            .cloned()
            .ok_or(SdkError::UnknownEnclave(eid))
    }
}

impl EcallDispatcher for Urts {
    /// The real `sgx_ecall`: saves the ocall table, enforces the public/
    /// private and `allow()` rules, finds a TCS, charges URTS dispatch +
    /// `EENTER`, runs the TRTS trampoline and the trusted function, charges
    /// `EEXIT`.
    fn sgx_ecall(
        &self,
        tcx: &ThreadCtx<'_>,
        eid: EnclaveId,
        index: usize,
        table: &Arc<OcallTable>,
        data: &mut CallData,
    ) -> SdkResult<()> {
        let enclave = self.enclave(eid)?;
        // Save the table pointer "for later use", and read the thread's
        // innermost frame for the interface rules below.
        let last_frame = enclave.begin_ecall(table, tcx.token);

        let spec = enclave.spec();
        let spec_ecall = spec
            .ecalls()
            .get(index)
            .ok_or_else(|| SdkError::BadEcall(format!("#{index}")))?;

        // Interface security rules (§3.6): private ecalls only during an
        // ocall, and only if that ocall's allow() list permits them.
        match last_frame {
            Some(Frame::Ocall(ocall_idx)) => {
                if !spec.is_ecall_allowed_from(index, ocall_idx) {
                    return Err(SdkError::EcallNotAllowed {
                        ecall: spec_ecall.name.clone(),
                        ocall: spec.ocalls()[ocall_idx].name.clone(),
                    });
                }
            }
            _ => {
                if !spec_ecall.public {
                    return Err(SdkError::PrivateEcall(spec_ecall.name.clone()));
                }
            }
        }

        let body = enclave.ecall_impl(index)?;
        // The EENTER gate: a lost enclave (or one an armed fault plan
        // destroys at this very entry) rejects the call before any
        // transition cost is charged. Only a supervisor rebuild clears it.
        self.machine.enter_enclave(eid, tcx.token)?;
        let tcs_index = self.enter_faulted(&enclave, tcx, index)?;

        let cm = self.machine.cost_model();
        // URTS: find free TCS, set up the call frame; then EENTER and
        // marshalling of [in] buffers into the enclave.
        self.machine
            .clock()
            .advance(cm.urts_dispatch + cm.eenter + cm.copy_cost(data.in_bytes));

        // Entering touches the TCS page and the top of the thread's stack —
        // this is what makes those pages show up in working-set estimates.
        let touch_result = match self.machine.touch_entry_pages(eid, tcx.token, tcs_index) {
            Ok(true) => Ok(()),
            Ok(false) => Err(SdkError::OutOfTcs(eid)),
            Err(e) => Err(SdkError::from(e)),
        };

        // TRTS trampoline: resolve the numeric id to the trusted function.
        self.machine.clock().advance(cm.trts_dispatch);

        let result = touch_result.and_then(|()| {
            let mut ctx = EcallCtx {
                urts: self,
                enclave: &enclave,
                thread: *tcx,
                tcs_index,
            };
            body(&mut ctx, data)
        });

        // EEXIT + marshalling of [out] buffers back to the application.
        self.machine
            .clock()
            .advance(cm.eexit + cm.copy_cost(data.out_bytes));
        enclave.exit(tcx.token);
        result
    }
}

impl Urts {
    /// Enters the enclave with the ecall's frame, riding out injected
    /// TCS-exhaustion faults: each attempt that finds all TCS pages "busy"
    /// backs off exponentially and retries, up to [`MAX_FAULT_RETRIES`]
    /// retries, after which the fault surfaces as
    /// [`SdkError::InjectedFault`]. Without an armed injector this is
    /// exactly [`Enclave::enter`].
    fn enter_faulted(
        &self,
        enclave: &Enclave,
        tcx: &ThreadCtx<'_>,
        index: usize,
    ) -> SdkResult<usize> {
        let frame = Frame::Ecall(index);
        let Some(inj) = self.machine.fault_injector() else {
            return enclave.enter(tcx.token, frame);
        };
        let site = FaultSite {
            machine: &self.machine,
            code: FaultKind::TcsExhaust { times: 1 }.code(),
            enclave: enclave.id(),
            thread: tcx.token,
            call_index: Some(index),
        };
        let mut attempts = 0u32;
        while inj.take_tcs_exhaust(self.machine.clock().now()) {
            attempts += 1;
            site.emit(FaultAction::Injected, u64::from(attempts));
            if attempts > MAX_FAULT_RETRIES {
                site.emit(FaultAction::GaveUp, u64::from(attempts));
                return Err(SdkError::InjectedFault {
                    call: "tcs".to_string(),
                    attempts,
                });
            }
            let backoff = fault_backoff(attempts);
            self.machine.clock().advance(backoff);
            site.emit(FaultAction::Retried, backoff.as_nanos());
        }
        let tcs = enclave.enter(tcx.token, frame)?;
        if attempts > 0 {
            site.emit(FaultAction::Recovered, u64::from(attempts));
        }
        Ok(tcs)
    }
}
